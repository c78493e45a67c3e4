// CoronaClient — the client-side library (paper §3).
//
// A client talks to one server (or one leaf of the replicated service; the
// protocol is identical).  It exposes the Corona service suite as
// asynchronous operations returning request ids, maintains a local replica
// of the shared state of every joined group by applying sequenced
// deliveries, detects sequence gaps and requests retransmission, keeps a
// bounded resend buffer so a recovering server can re-fetch updates lost
// with its unflushed log tail (§6), and surfaces everything to the
// application through callbacks.
//
// Client-based semantics (§3.1): this class never interprets payload bytes;
// applications (see examples/) layer meaning on the opaque object streams.
//
// Thread-safety: all operations and reads may be invoked from any thread
// (the socket runtime delivers messages on its loop thread while the
// application drives the API from its own thread).  Callbacks run
// with the client lock held on the runtime's delivery thread; they may call
// back into the client (the lock is recursive) but should not block.  The
// lock is the annotated corona::RecursiveMutex (util/sync.h), so a clang
// -Wthread-safety build proves every guarded field stays under it; this is
// the one protocol-layer class that holds a lock at all — everything else
// is single-threaded by construction.  Under the sim runtime the lock is
// always uncontended, so it adds no nondeterminism.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "core/state_transfer.h"
#include "runtime/runtime.h"
#include "serial/message.h"
#include "util/context.h"
#include "util/ids.h"
#include "util/sync.h"

namespace corona {

class CoronaClient : public Node {
 public:
  struct Callbacks {
    // One sequenced state message delivered in the group's total order.
    std::function<void(GroupId, const UpdateRecord&)> on_deliver;
    // Join finished: status + the transferred state (already applied to the
    // local replica when the status is ok).
    std::function<void(GroupId, Status)> on_joined;
    // Membership-change notification (joined=true/false).
    std::function<void(GroupId, NodeId, MemberRole, bool joined)>
        on_membership_change;
    // Reply to getMembership.
    std::function<void(GroupId, const std::vector<MemberInfo>&)>
        on_membership_info;
    std::function<void(GroupId, ObjectId)> on_lock_granted;
    std::function<void(GroupId)> on_group_deleted;
    // Generic ack/error for an operation.
    std::function<void(RequestId, Status)> on_reply;
  };

  struct Config {
    // How many of this client's own multicasts to retain for server crash
    // recovery (0 disables the resend buffer).
    std::size_t resend_buffer = 64;
    // Detect delivery gaps and request retransmission.
    bool gap_detection = true;
    // Keepalive cadence for servers running a client-liveness sweep
    // (ServerConfig::client_timeout); 0 sends no heartbeats.
    Duration heartbeat_interval = 0;
  };

  explicit CoronaClient(NodeId server);
  CoronaClient(NodeId server, Callbacks callbacks);
  CoronaClient(NodeId server, Callbacks callbacks, Config config);

  // Reconnects the client to a different (or restarted) server.
  void set_server(NodeId server) {
    RecursiveMutexLock lock(mu_);
    server_ = server;
  }
  NodeId server() const {
    RecursiveMutexLock lock(mu_);
    return server_;
  }

  // Replaces the callback set (e.g. when harness wiring needs the client
  // object to exist before the callbacks can be built).
  void set_callbacks(Callbacks callbacks) {
    RecursiveMutexLock lock(mu_);
    cb_ = std::move(callbacks);
  }

  // -- service operations (all asynchronous) ---------------------------------
  RequestId create_group(GroupId g, std::string name, bool persistent,
                         std::vector<StateEntry> initial_state = {});
  RequestId delete_group(GroupId g);
  RequestId join(GroupId g,
                 TransferPolicySpec policy = TransferPolicySpec::full(),
                 MemberRole role = MemberRole::kPrincipal,
                 bool notify_membership = true);
  RequestId leave(GroupId g);
  RequestId get_membership(GroupId g);
  CORONA_HOT_PATH RequestId bcast_state(GroupId g, ObjectId obj,
                                        Payload payload,
                                        bool sender_inclusive = true);
  CORONA_HOT_PATH RequestId bcast_update(GroupId g, ObjectId obj,
                                         Payload payload,
                                         bool sender_inclusive = true);
  RequestId lock(GroupId g, ObjectId obj);
  RequestId unlock(GroupId g, ObjectId obj);
  // upto == 0 requests reduction to the current head.
  RequestId reduce_log(GroupId g, SeqNo upto = 0);

  // Re-submits the resend buffer for `g` (after a server restart, §6).
  void resend_recent(GroupId g);

  // -- local replica ----------------------------------------------------------
  bool is_joined(GroupId g) const {
    RecursiveMutexLock lock(mu_);
    return replicas_.contains(g);
  }
  const SharedState* group_state(GroupId g) const;
  // Last known membership (from the join reply / notices / queries).
  std::vector<MemberInfo> known_members(GroupId g) const;
  // Next expected sequence number for `g`: the replica's head + 1.
  SeqNo expected_seq(GroupId g) const;
  std::uint64_t deliveries_received() const {
    RecursiveMutexLock lock(mu_);
    return deliveries_received_;
  }
  std::uint64_t gaps_detected() const {
    RecursiveMutexLock lock(mu_);
    return gaps_detected_;
  }

  void on_start() override;
  void on_message(NodeId from, const Message& m) override;
  void on_timer(std::uint64_t tag) override;

 private:
  RequestId next_request() CORONA_REQUIRES(mu_) { return next_request_id_++; }
  RequestId bcast(PayloadKind kind, GroupId g, ObjectId obj, Payload payload,
                  bool sender_inclusive);
  // Takes the record by value: callers hand over their last use with
  // std::move, so the resend buffer entry is a move.
  void remember_send(GroupId g, UpdateRecord rec) CORONA_REQUIRES(mu_);
  void handle_join_reply(const Message& m) CORONA_REQUIRES(mu_);
  void handle_deliver(const Message& m) CORONA_REQUIRES(mu_);
  void handle_state_reply(const Message& m) CORONA_REQUIRES(mu_);
  void apply_record(GroupId g, GroupCopy& copy, const UpdateRecord& rec)
      CORONA_REQUIRES(mu_);

  mutable RecursiveMutex mu_;
  NodeId server_ CORONA_GUARDED_BY(mu_);
  Callbacks cb_ CORONA_GUARDED_BY(mu_);
  Config config_;  // set at construction only, read-only afterwards
  RequestId next_request_id_ CORONA_GUARDED_BY(mu_) = 1;
  std::map<GroupId, GroupCopy> replicas_ CORONA_GUARDED_BY(mu_);
  // Resend buffer: this client's own recent multicasts, per group.
  std::map<GroupId, std::deque<UpdateRecord>> recent_sends_
      CORONA_GUARDED_BY(mu_);
  std::uint64_t deliveries_received_ CORONA_GUARDED_BY(mu_) = 0;
  std::uint64_t gaps_detected_ CORONA_GUARDED_BY(mu_) = 0;
};

}  // namespace corona
