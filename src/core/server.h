// CoronaServer — the stateful logical server (paper §3).
//
// The server owns, per group: the shared state, the membership, the total
// order (a per-group sequencer), the lock table, and the durable log.  It
// answers the full client protocol:
//
//   create/delete group, join (with customized state transfer), leave,
//   getMembership, bcastState/bcastUpdate (sender-inclusive or -exclusive,
//   server-side timestamping), lock request/release, client-requested and
//   policy-driven log reduction, gap retransmission, and recovery resends.
//
// Configuration covers the evaluation axes of §5: flush policy for the
// durable log (the §6 "logging is off the critical path" claim), reduction
// policy, batched fan-out, and the optional QoS scheduler of §5.3.  The
// stateless curve of Figure 3 is StatelessServer (core/stateless_server.h).
//
// Deployment: a CoronaServer serves its clients directly (the single-server
// configuration).  Its per-group engine, Group (core/group.h), is the same
// one the replicated service's coordinator runs (src/replica/).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/group.h"
#include "core/log_reduction.h"
#include "core/outbox.h"
#include "core/qos_scheduler.h"
#include "core/session_manager.h"
#include "core/state_transfer.h"
#include "runtime/runtime.h"
#include "serial/message.h"
#include "storage/group_store.h"
#include "util/context.h"
#include "util/ids.h"

namespace corona {

// Where join-time state transfers come from.
//
//   kService — the paper's design: the stateful server answers the join from
//              its own copy; no existing member is involved (§3.2).
//   kPeer    — the ISIS-style baseline the paper argues against (§2): the
//              state is fetched from an existing member, so "slow members
//              can slow down the join operation" and a crashed donor costs
//              "the timeout for failure detection and making an additional
//              request to another client".  Implemented for the comparative
//              benches; not recommended for use.
enum class JoinTransferMode { kService, kPeer };

// When the durable log is made durable relative to delivery (§6).
enum class FlushPolicy {
  kNone,   // never flush (pure-memory log; everything lost on crash)
  kAsync,  // flush on a timer, off the multicast critical path (the paper's
           // design: "multicast data to a group in parallel with disk logging")
  kSync,   // flush + await the device before delivering (ablation baseline)
};

struct ServerConfig {
  FlushPolicy flush = FlushPolicy::kAsync;
  Duration flush_interval = 100 * kMillisecond;

  // Join-transfer source (see JoinTransferMode).  kPeer waits up to
  // `peer_timeout` for a donor member before retrying the next one, and
  // falls back to the service copy when no member can answer.
  JoinTransferMode join_transfer = JoinTransferMode::kService;
  Duration peer_timeout = 1 * kSecond;

  // Per-group reduction policy factory (default: never reduce).
  std::function<std::unique_ptr<ReductionPolicy>()> reduction_factory;

  // Optional QoS scheduling of incoming multicasts (§5.3).
  bool enable_qos = false;
  QosScheduler::Config qos;
  // Pacing of the QoS drain loop: one queued multicast is admitted to the
  // sequencer every `qos_service_time`.  Under overload the queue builds up
  // and the scheduler's priorities, aging and shedding decide who waits —
  // the "explicit control over the scheduling of different activities" of
  // the §5.3 adaptive server.  0 drains back-to-back.
  Duration qos_service_time = 0;

  // Client-failure tolerance (companion paper [15]: "how to deal with
  // client or link failures").  When > 0, a member silent for longer than
  // this is treated as crashed: it is removed from every group, its locks
  // are released to the next waiters, and membership notices go out.
  // Clients send keepalive heartbeats when idle (CoronaClient::Config).
  // 0 disables the sweep (clients only leave explicitly).
  Duration client_timeout = 0;

  // Batched fan-out & group commit.  Incoming multicasts queue at the
  // server and are sequenced as a batch: the queue drains when it reaches
  // batch_max_msgs or batch_max_delay after the first queued message,
  // whichever comes first (core/outbox.h).  The whole batch is covered by a
  // single log flush (group commit) under FlushPolicy::kSync, and each
  // client receives one coalesced frame per drain instead of one frame per
  // message.  Sequencing order is arrival order and each record's timestamp
  // is stamped at arrival, so per-client delivery streams are byte-identical
  // whatever the batch size.  batch_max_msgs <= 1 drains every multicast on
  // arrival, as a batch of one.  On sockets the batch size decides
  // sequencing and commit grouping, not the syscall count: SocketRuntime
  // writes each connection once per loop turn at any batch size.  Under the
  // sim it also sets the modelled per-send cost.
  std::size_t batch_max_msgs = 1;
  Duration batch_max_delay = 0;

  // Test hook (bug seeding for the checker): silently drop the last message
  // of every multi-message client frame.  The contiguity oracle must catch
  // the resulting per-client sequence gap.  Never enable outside tests.
  bool debug_drop_batch_tail = false;

  // §5.3 extension: deliver through the runtime's one-to-many primitive
  // ("a version of the communication system which uses both IP-multicast,
  // whenever possible, and point-to-point TCP connections").  Fan-out then
  // costs the server one send instead of one per member — the scalability
  // trade §4 discusses.  Point-to-point remains the default because "some
  // clients are connected through ISPs that do not provide IP-multicast".
  bool use_ip_multicast = false;
};

// Counters the benches read off the server.
struct ServerStats {
  std::uint64_t messages_sequenced = 0;
  std::uint64_t deliveries_sent = 0;
  std::uint64_t delivery_bytes = 0;
  std::uint64_t joins_served = 0;
  std::uint64_t transfer_bytes = 0;  // state shipped in join replies
  std::uint64_t reductions = 0;
  std::uint64_t records_dropped_by_reduction = 0;
  std::uint64_t flushes = 0;
  std::uint64_t resends_applied = 0;
  std::uint64_t retransmits_served = 0;
  std::uint64_t qos_shed = 0;
  std::uint64_t clients_expired = 0;   // dropped by the liveness sweep
  std::uint64_t peer_transfers = 0;    // joins served by a donor member
  std::uint64_t peer_timeouts = 0;     // donors that had to be skipped
  // Batching / group commit.
  std::uint64_t batches_sequenced = 0;     // drains covering > 1 message
  std::uint64_t batched_messages = 0;      // messages sequenced via a batch
  std::uint64_t batch_frames_sent = 0;     // coalesced (>1 msg) client frames
  std::uint64_t group_commits = 0;         // sync flushes covering > 1 record
  std::uint64_t group_commit_records = 0;  // records those commits covered
};

class CoronaServer : public Node {
 public:
  // `store` is the server's "disk": it must outlive the server object so a
  // fresh CoronaServer can be constructed over it after a crash (the sim
  // models a machine whose disk survives process failure).  Pass nullptr for
  // a throwaway in-process store.  `session_manager` may be nullptr (allow
  // all).
  CoronaServer(ServerConfig config, GroupStore* store,
               SessionManager* session_manager = nullptr);
  ~CoronaServer() override;

  void on_start() override;
  void on_message(NodeId from, const Message& m) override;
  void on_timer(std::uint64_t tag) override;

  const ServerStats& stats() const { return stats_; }
  GroupStore& store() { return *store_; }
  bool has_group(GroupId g) const { return groups_.contains(g); }
  const Group* group(GroupId g) const;
  std::size_t group_count() const { return groups_.size(); }
  // Sets the QoS class of a group (0 = highest of 3).
  void set_group_qos_class(GroupId g, int klass);

 private:
  // -- request handlers ------------------------------------------------------
  void handle_create(NodeId from, const Message& m);
  void handle_delete(NodeId from, const Message& m);
  void handle_join(NodeId from, const Message& m);
  void handle_leave(NodeId from, const Message& m);
  void handle_get_membership(NodeId from, const Message& m);
  CORONA_HOT_PATH void handle_bcast(NodeId from, const Message& m);
  void handle_lock_request(NodeId from, const Message& m);
  void handle_lock_release(NodeId from, const Message& m);
  void handle_reduce_log(NodeId from, const Message& m);
  void handle_retransmit(NodeId from, const Message& m);
  void handle_resend_reply(NodeId from, const Message& m);
  // Peer-transfer baseline (JoinTransferMode::kPeer).
  struct PendingPeerJoin;
  void begin_peer_transfer(Group& group, NodeId joiner, const Message& join);
  void handle_peer_state(NodeId from, const Message& m);
  void peer_transfer_timeout(std::uint64_t token);
  void finish_join_reply(Group& group, const PendingPeerJoin& p, SeqNo base,
                         std::vector<StateEntry> snapshot,
                         std::vector<UpdateRecord> updates);

  // -- internals -------------------------------------------------------------
  // One multicast awaiting sequencing (batch queue) or delivery (sync hold).
  struct PendingDelivery {
    GroupId group;
    UpdateRecord rec;
    bool sender_inclusive;
    NodeId sender;
  };

  Group* find_group(GroupId g);
  Status authorize(NodeId client, GroupId g, GroupAction action);
  // Sequences `batch` in arrival order, covers it with one group commit
  // (kSync), and fans it out; delivery is immediate (kNone/kAsync) or
  // deferred behind the disk (kSync).  The per-message path is a batch of
  // one.
  CORONA_HOT_PATH void drain_batch(std::vector<PendingDelivery> batch);
  // Fans out already-sequenced records through the outbox.
  CORONA_HOT_PATH void deliver(const std::vector<PendingDelivery>& items);
  void send_membership_notices(Group& group, NodeId subject, MemberRole role,
                               bool joined);
  void perform_reduction(Group& group, SeqNo upto);
  void maybe_reduce(Group& group);
  void drop_member_everywhere(NodeId who);  // leave/disconnect cleanup
  void schedule_flush();
  void flush_now();
  void process(NodeId from, const Message& m);  // post-QoS dispatch
  void recover_from_store();

  ServerConfig config_;
  GroupStore* store_;                      // may point at owned_store_
  std::unique_ptr<GroupStore> owned_store_;
  SessionManager* session_;                // may point at owned_session_
  std::unique_ptr<SessionManager> owned_session_;
  std::map<GroupId, Group> groups_;
  std::map<GroupId, std::unique_ptr<ReductionPolicy>> reduction_;
  std::map<NodeId, TimePoint> client_last_heard_;
  QosScheduler qos_;
  bool qos_drain_scheduled_ = false;
  TimePoint qos_busy_until_ = 0;  // end of the current admission slot
  ServerStats stats_;

  // Sync-flush holds: the whole commit group waits for one device write and
  // is then fanned out together.
  std::map<std::uint64_t, std::vector<PendingDelivery>> pending_sync_;
  std::uint64_t next_pending_ = 1;

  // Multicasts awaiting the next drain; the outbox's window times the drain.
  std::vector<PendingDelivery> batch_queue_;
  Outbox outbox_;

  struct PendingPeerJoin {
    GroupId group;
    NodeId joiner;
    RequestId request_id = 0;
    MemberRole role = MemberRole::kPrincipal;
    bool notify = false;
    NodeId donor;
    std::vector<NodeId> remaining_donors;
    TimerHandle timer = 0;
  };
  std::map<std::uint64_t, PendingPeerJoin> pending_peer_;
  std::uint64_t next_peer_token_ = 1;

  static constexpr std::uint64_t kFlushTimer = 1;
  static constexpr std::uint64_t kQosDrainTimer = 2;
  static constexpr std::uint64_t kLivenessTimer = 3;
  static constexpr std::uint64_t kBatchTimer = 4;
  static constexpr std::uint64_t kSyncTagBase = 1000;
  static constexpr std::uint64_t kPeerTagBase = 1u << 30;
};

}  // namespace corona
