// The replicated Corona service (paper §4).
//
// Star topology: one server acts as COORDINATOR (the global sequencer and
// membership authority), the others are LEAF servers that directly support
// clients.  "When a client sends a broadcast message to its server, the
// server forwards the message to the coordinator, which distributes it to
// the whole group through the corresponding servers.  Only the servers who
// have members in that particular group will receive the broadcast message."
//
// Every ReplicaServer embeds both roles; the coordinator role is activated
// by configuration (the first server in the startup list) or by winning an
// election after the coordinator crashes (§4.2).  The same node class
// therefore survives promotion without being replaced.
//
// Leaf duties:   serve the full client protocol; keep state copies for the
//                groups its clients belong to (joins are served locally —
//                "the join protocol does not involve the existing members");
//                forward multicasts/group-ops to the coordinator; fan
//                sequenced multicasts out to local members; watch the
//                coordinator with a staged failure detector and run the
//                first-in-list election.
// Coordinator:   sequence multicasts (total + causal order, FIFO per
//                sender); own global membership, locks and persistence
//                through the GroupAuthority the single server runs too;
//                heartbeat the leaves; maintain the server registry; keep
//                >= 2 state copies per group alive via backup assignment;
//                take over state from the freshest holders after an
//                election; drive partition reconciliation.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "core/authority.h"
#include "core/group.h"
#include "core/outbox.h"
#include "core/session_manager.h"
#include "core/state_transfer.h"
#include "replica/election.h"
#include "replica/failure_detector.h"
#include "replica/partition.h"
#include "replica/recovery.h"
#include "replica/registry.h"
#include "replica/replication_manager.h"
#include "runtime/runtime.h"
#include "serial/message.h"
#include "storage/group_store.h"
#include "util/context.h"
#include "util/ids.h"
#include "util/invariant.h"

namespace corona {

struct ReplicaConfig {
  Duration heartbeat_interval = 200 * kMillisecond;
  // Base failure-detection timeout t; the server at position p in the list
  // claims the coordinatorship after (p+1)*t of coordinator silence (§4.2).
  Duration fd_timeout = 1000 * kMillisecond;
  // How long a claimant waits for votes before giving up.
  Duration election_window = 500 * kMillisecond;
  // How long a new coordinator collects server hellos before pulling state.
  Duration takeover_window = 400 * kMillisecond;
  std::size_t min_copies = 2;   // hot-standby requirement (§4.1)
  Duration flush_interval = 100 * kMillisecond;

  // Batched fan-out.  When batch_max_msgs > 1, the coordinator coalesces
  // outbound kSeqMulticast frames per leaf and leaves coalesce kDeliver
  // frames per client: an outbox (core/outbox.h) accumulates until
  // batch_max_msgs sequencing decisions are queued or batch_max_delay after
  // the first, then every destination gets one coalesced frame.
  // Sequencing, state application and timestamping stay immediate and
  // per-message, so ordering, gap detection, retransmission and state
  // transfer are semantically untouched.  batch_max_msgs <= 1 sends every
  // decision at once.  On sockets the batch size decides how decisions are
  // grouped per destination, not the syscall count: SocketRuntime writes
  // each connection once per loop turn at any batch size.  Under the sim it
  // also sets the modelled per-send cost.
  std::size_t batch_max_msgs = 1;
  Duration batch_max_delay = 0;
};

struct ReplicaStats {
  std::uint64_t forwarded = 0;          // leaf -> coordinator multicasts
  std::uint64_t sequenced = 0;          // coordinator sequencing decisions
  std::uint64_t fanout_deliveries = 0;  // leaf -> client deliveries
  std::uint64_t state_pulls = 0;        // kStateQuery issued
  std::uint64_t backups_assigned = 0;
  std::uint64_t elections_started = 0;
  std::uint64_t elections_won = 0;
  std::uint64_t takeover_pulls = 0;
  std::uint64_t reconciled_groups = 0;
  // Batching: coalesced (>1 msg) frames sent downstream.
  std::uint64_t seq_batch_frames = 0;     // coordinator -> leaf
  std::uint64_t fanout_batch_frames = 0;  // leaf -> client
};

class ReplicaServer : public Node {
 public:
  enum class Role { kLeaf, kCoordinator };

  // `startup_servers` is the configuration-file server list, coordinator
  // first; it must contain this node's id.  `store` is the durable store
  // used while this node is coordinator (nullptr = private throwaway).
  // `session_manager` authorizes the requests of this server's clients
  // (nullptr allows all).
  ReplicaServer(ReplicaConfig cfg, std::vector<NodeId> startup_servers,
                GroupStore* store = nullptr,
                SessionManager* session_manager = nullptr);
  ~ReplicaServer() override;

  void on_start() override;
  void on_message(NodeId from, const Message& m) override;
  void on_timer(std::uint64_t tag) override;

  // -- introspection ----------------------------------------------------------
  Role role() const { return role_; }
  bool is_coordinator() const { return role_ == Role::kCoordinator; }
  NodeId coordinator() const { return coordinator_; }
  std::uint64_t term() const { return term_; }
  const ServerRegistry& registry() const { return registry_; }
  const ReplicaStats& stats() const { return stats_; }
  // Leaf-side copy of a group's shared state (nullptr if not held).
  const SharedState* local_state(GroupId g) const;
  bool holds_copy(GroupId g) const { return local_.contains(g); }
  // Coordinator-side authoritative state (nullptr unless coordinator and
  // the group exists).
  const SharedState* coord_state(GroupId g) const;
  std::vector<NodeId> coord_holders(GroupId g) const;
  std::size_t coord_group_count() const { return authority_.groups().size(); }

  // -- partition healing -------------------------------------------------------
  // Called on the surviving/primary coordinator once connectivity returns
  // (the paper leaves policy choice to the application, so the trigger is
  // explicit).  Pulls digests+branches from `other_coordinator`, merges
  // every group under `policy`, pushes the merged state to all holders and
  // local members on both sides, and finally re-announces itself with a
  // higher term so the other coordinator demotes to a leaf.
  void begin_reconcile(NodeId other_coordinator, PartitionPolicy policy);

 private:
  // ====================== shared =====================================
  struct LocalMember {
    MemberRole role = MemberRole::kPrincipal;
    bool notify = false;
  };
  struct LocalGroup {
    GroupMeta meta;
    std::map<NodeId, LocalMember> local_members;
    GroupCopy copy;  // the state and the group's global membership
  };

  void become_coordinator(std::uint64_t term);
  void adopt_coordinator(NodeId coord, std::uint64_t term);
  // Re-registers the leaf's members of `g` with the coordinator, which
  // rebuilds its global member->leaf map from them after an election.
  void reregister_members(GroupId g, const LocalGroup& lg);
  std::vector<GroupHead> local_group_heads() const;

  // ====================== leaf side ===================================
  void leaf_handle_join(NodeId from, const Message& m);
  void leaf_serve_join(LocalGroup& lg, NodeId client, const Message& m);
  void leaf_handle_leave(NodeId from, const Message& m);
  CORONA_HOT_PATH void leaf_handle_bcast(NodeId from, const Message& m);
  CORONA_HOT_PATH void leaf_handle_seq_multicast(const Message& m);
  CORONA_HOT_PATH void leaf_apply_and_fanout(LocalGroup& lg,
                                             const UpdateRecord& rec,
                                             bool sender_inclusive,
                                             NodeId origin);
  // Fresh installs, gap fills and authoritative pushes; a copy replaced
  // wholesale resynchronizes its local members with the member resync.
  void leaf_handle_state_reply(const Message& m);
  void leaf_handle_notice(const Message& m);
  void leaf_handle_group_deleted(const Message& m);
  void leaf_handle_log_reduced(const Message& m);
  void leaf_request_state(GroupId g);
  void forward_group_op(NodeId client, const Message& m);

  // election
  void leaf_check_coordinator();
  void start_claim();
  void handle_claim(NodeId from, const Message& m);
  void handle_vote(NodeId from, const Message& m);
  void handle_announce(NodeId from, const Message& m);

  // ====================== coordinator side (coordinator.cc) ===========
  // The authority's route: answers go back through the client's leaf.
  struct Relay;
  // Sends `m` to `client` through `leaf`, which forwards it unchanged.
  void coord_relay(NodeId leaf, NodeId client, const Message& m);
  CORONA_HOT_PATH void coord_handle_fwd_multicast(NodeId from,
                                                  const Message& m);
  // Sequences `rec` into `cg` and queues the kSeqMulticast for its holders.
  CORONA_HOT_PATH void coord_sequence(Group& cg, UpdateRecord rec,
                                      bool sender_inclusive);
  void coord_handle_group_op(NodeId from, const Message& m);
  // Registers a member that joined (or re-registered) through `leaf`, which
  // has answered the join from its copy already.
  void coord_op_join(Relay& route, NodeId leaf, const Message& m);
  // After a leave through `leaf`: releases or keeps the leaf's copy.
  void coord_release_copy(GroupId g, NodeId leaf);
  void coord_handle_state_query(NodeId from, const Message& m);
  void coord_handle_resend(const Message& m);
  void coord_handle_hello(NodeId from, const Message& m);
  void coord_handle_heartbeat_ack(NodeId from, const Message& m);
  void coord_heartbeat_tick();
  void coord_drop_server(NodeId leaf);
  // Restores the hot-standby invariant of `g`; forgets its copies once the
  // group has ended.
  void coord_maybe_assign_backup(GroupId g);
  void coord_flush_tick();
  // takeover
  void coord_begin_takeover();
  void coord_finish_takeover();
  void coord_handle_takeover_state(NodeId from, const Message& m);
  // reconciliation
  void coord_handle_push(NodeId from, const Message& m);
  void coord_handle_digest_request(NodeId from, const Message& m);
  void coord_handle_digest_reply(NodeId from, const Message& m);
  void coord_finish_reconcile();
  void coord_push_group_state(GroupId g);
  void coord_install_merged(GroupId g, SeqNo fork,
                            std::vector<UpdateRecord> tail);

  // ====================== data =======================================
  ReplicaConfig cfg_;
  // role_/coordinator_/term_ are written only by the runtime's loop thread
  // but read cross-thread through the introspection getters (the
  // SocketReplica tests poll is_coordinator() mid-election), hence atomic.
  // This class deliberately holds NO lock: everything else is owned by the
  // loop thread (single-threaded by construction), so the annotated
  // corona::Mutex discipline (util/sync.h, ANALYSIS.md §9) has nothing to
  // guard here — any future cross-thread state must use corona::Mutex +
  // GUARDED_BY, not more atomics.
  std::atomic<Role> role_ = Role::kLeaf;
  std::atomic<NodeId> coordinator_;
  std::atomic<std::uint64_t> term_ = 0;  // announce/election term
  std::uint64_t voted_term_ = 0;
  ServerRegistry registry_;
  ReplicaStats stats_;
  SessionManager* session_;  // nullptr allows all

  // Batched fan-out of already-sequenced frames: kSeqMulticast to holder
  // leaves (coordinator) and kDeliver to local members (leaf).
  Outbox to_leaves_;
  Outbox to_clients_;

  // leaf
  std::map<GroupId, LocalGroup> local_;
  std::map<GroupId, std::vector<std::pair<NodeId, Message>>> pending_joins_;
  std::set<GroupId> awaiting_state_;
  FailureDetector coord_fd_;
  ElectionTally tally_;

  // coordinator
  ReplicationManager repl_;
  FailureDetector leaf_fd_;
  std::unique_ptr<GroupStore> owned_store_;  // when no store is passed in
  GroupStore* store_;
  // Never reduces on its own: the star runs no reduction policy.
  GroupAuthority authority_;
  std::map<GroupId, std::vector<Message>> pending_fwd_;  // takeover queue
  bool collecting_hellos_ = false;
  std::map<NodeId, std::vector<GroupHead>> hello_reports_;

  // reconciliation (initiator side)
  struct ReconcileSession {
    NodeId other;
    PartitionPolicy policy = PartitionPolicy::kSelectPrimary;
    bool active = false;
    std::uint64_t processed = 0;
  };
  ReconcileSession reconcile_;

  static constexpr std::uint64_t kHeartbeatTimer = 1;
  static constexpr std::uint64_t kCoordCheckTimer = 2;
  static constexpr std::uint64_t kElectionTimer = 3;
  static constexpr std::uint64_t kTakeoverTimer = 4;
  static constexpr std::uint64_t kFlushTimer = 5;
  static constexpr std::uint64_t kCoordBatchTimer = 6;
  static constexpr std::uint64_t kLeafBatchTimer = 7;
};

}  // namespace corona
