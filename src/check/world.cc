#include "check/world.h"

#include <algorithm>

namespace corona::check {
namespace {

constexpr GroupId kG{1};
constexpr ObjectId kObj{7};
constexpr ObjectId kLockObj{9};
constexpr NodeId kServer{1};

NodeId client_node(std::size_t i) { return NodeId{100 + i}; }

// FNV-1a, 64-bit: the state hash must be identical across runs and machines,
// so it is spelled out rather than delegated to std::hash.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(BytesView b) {
    u64(b.size());
    for (std::uint8_t c : b) byte(c);
  }
  void state(const SharedState& s) {
    u64(s.base_seq());
    u64(s.head_seq());
    u64(s.history_size());
    for (const StateEntry& e : s.snapshot()) {
      u64(e.object.value);
      bytes(e.data);
    }
  }
};

std::uint64_t hash_bytes(BytesView b) {
  Fnv f;
  f.bytes(b);
  return f.h;
}

// True when `prefix` equals the first prefix.size() elements of `seq`.
bool is_prefix(const std::vector<NodeId>& prefix,
               const std::vector<NodeId>& seq) {
  if (prefix.size() > seq.size()) return false;
  return std::equal(prefix.begin(), prefix.end(), seq.begin());
}

}  // namespace

CheckWorld::CheckWorld(const WorldOptions& options) : options_(options) {
  if (options_.seed_batch_bug && options_.batch_max_msgs < 2) {
    options_.batch_max_msgs = 4;  // the mutation needs multi-record frames
  }
  last_seq_.resize(options_.clients);
  wants_join_.resize(options_.clients);
  crashes_left_ = options_.max_crashes;
  partitions_left_ = options_.max_partitions;
  if (options_.mode == WorldOptions::Mode::kSingleServer) {
    build_single();
    fault_open_ = 15 * kMillisecond;
    fault_close_ = 40 * kMillisecond;
    horizon_ = 400 * kMillisecond;
  } else {
    build_replicated();
    fault_open_ = 40 * kMillisecond;
    fault_close_ = 120 * kMillisecond;
    horizon_ = 1500 * kMillisecond;
  }
  rt_.start();
}

CheckWorld::~CheckWorld() { rt_.sim().set_scheduler(nullptr); }

CoronaClient::Callbacks CheckWorld::callbacks_for(std::size_t i) {
  CoronaClient::Callbacks cb;
  cb.on_deliver = [this, i](GroupId g, const UpdateRecord& rec) {
    on_deliver(i, g, rec);
  };
  cb.on_joined = [this, i](GroupId g, Status s) { on_joined(i, g, s); };
  cb.on_lock_granted = [this, i](GroupId g, ObjectId obj) {
    on_lock_granted(i, g, obj);
  };
  return cb;
}

ServerConfig CheckWorld::single_server_config() const {
  ServerConfig cfg;
  cfg.flush = options_.flush;
  cfg.flush_interval = 50 * kMillisecond;
  cfg.batch_max_msgs = options_.batch_max_msgs;
  cfg.batch_max_delay = options_.batch_max_delay;
  cfg.debug_drop_batch_tail = options_.seed_batch_bug;
  return cfg;
}

void CheckWorld::build_single() {
  server_ = std::make_unique<CoronaServer>(single_server_config(), &store_);
  rt_.add_node(kServer, server_.get(), rt_.network().add_host(HostProfile{}));
  CoronaClient::Config ccfg;
  ccfg.gap_detection = !options_.seed_ordering_bug && !options_.seed_batch_bug;
  for (std::size_t i = 0; i < options_.clients; ++i) {
    clients_.push_back(
        std::make_unique<CoronaClient>(kServer, callbacks_for(i), ccfg));
    rt_.add_node(client_node(i), clients_[i].get(),
                 rt_.network().add_host(HostProfile{}));
  }
}

void CheckWorld::build_replicated() {
  ReplicaConfig cfg;
  cfg.heartbeat_interval = 50 * kMillisecond;
  cfg.fd_timeout = 200 * kMillisecond;
  cfg.election_window = 100 * kMillisecond;
  cfg.takeover_window = 100 * kMillisecond;
  cfg.flush_interval = 50 * kMillisecond;
  cfg.batch_max_msgs = options_.batch_max_msgs;
  cfg.batch_max_delay = options_.batch_max_delay;
  for (std::size_t i = 0; i < options_.servers; ++i) {
    server_ids_.push_back(NodeId{1 + i});
  }
  for (std::size_t i = 0; i < options_.servers; ++i) {
    replicas_.push_back(
        std::make_unique<ReplicaServer>(cfg, server_ids_, nullptr));
    rt_.add_node(server_ids_[i], replicas_[i].get(),
                 rt_.network().add_host(HostProfile{}));
  }
  CoronaClient::Config ccfg;
  ccfg.gap_detection = !options_.seed_ordering_bug && !options_.seed_batch_bug;
  for (std::size_t i = 0; i < options_.clients; ++i) {
    // Clients round-robin over the leaves (never the coordinator directly).
    const std::size_t leaf =
        options_.servers > 1 ? 1 + (i % (options_.servers - 1)) : 0;
    clients_.push_back(std::make_unique<CoronaClient>(
        server_ids_[leaf], callbacks_for(i), ccfg));
    rt_.add_node(client_node(i), clients_[i].get(),
                 rt_.network().add_host(HostProfile{}));
  }
}

void CheckWorld::arm() {
  CORONA_INVARIANT(!armed_, "CheckWorld::arm called twice");
  armed_ = true;
  auto& q = rt_.sim().queue();
  const bool replicated = options_.mode == WorldOptions::Mode::kReplicated;
  // The replicated service routes group operations through the coordinator,
  // so everything breathes on a longer timeline there.
  const Duration scale = replicated ? 2 : 1;
  const TimePoint t_create = 1 * scale * kMillisecond;
  const TimePoint t_join = 5 * scale * kMillisecond;
  const TimePoint t_mcast = 10 * scale * kMillisecond;
  const TimePoint t_lock = 14 * scale * kMillisecond;
  const TimePoint t_late = 25 * scale * kMillisecond;
  const TimePoint t_nudge = replicated ? 900 * kMillisecond : 60 * kMillisecond;

  q.schedule_at(t_create, [this] {
    clients_[0]->create_group(kG, "checked", /*persistent=*/true,
                              {{kObj, to_bytes("init")}});
  });
  const std::size_t late =
      options_.late_joiner && options_.clients > 1 ? options_.clients - 1
                                                   : options_.clients;
  for (std::size_t i = 0; i < options_.clients; ++i) {
    const TimePoint when = i == late ? t_late : t_join;
    q.schedule_at(when, [this, i] {
      wants_join_[i].insert(kG.value);
      clients_[i]->join(kG, TransferPolicySpec::full());
    });
  }
  // Each round is a *concurrent burst*: every member casts at the same
  // virtual instant, so the server sequences back-to-back updates and
  // several deliveries to the same client coexist in the queue — that is
  // where the scheduler's reordering choices actually live.
  for (std::size_t i = 0; i < options_.clients; ++i) {
    if (i == late) continue;  // the late joiner multicasts once, post-join
    for (int j = 0; j < options_.multicasts_per_client; ++j) {
      const TimePoint when = t_mcast + j * 3 * scale * kMillisecond;
      // Every cast writes its own object: with a shared target a silently
      // dropped update is masked by last-writer-wins, and the convergence
      // oracle would have nothing to see.
      q.schedule_at(when, [this, i, j] {
        clients_[i]->bcast_update(
            kG, ObjectId{kObj.value + 1 + i * 16 + static_cast<std::uint64_t>(j)},
            to_bytes("u" + std::to_string(i) + "." + std::to_string(j)));
      });
    }
  }
  if (options_.late_joiner && options_.clients > 1) {
    q.schedule_at(t_late + 10 * scale * kMillisecond, [this, late] {
      clients_[late]->bcast_update(kG, ObjectId{kObj.value + 200},
                                   to_bytes("late"));
    });
  }
  if (options_.locks && options_.clients >= 2) {
    q.schedule_at(t_lock, [this] {
      clients_[0]->lock(kG, kLockObj);
      clients_[1]->lock(kG, kLockObj);
    });
    q.schedule_at(t_lock + 8 * scale * kMillisecond,
                  [this] { unlock_if_held(0); });
    q.schedule_at(t_lock + 16 * scale * kMillisecond,
                  [this] { unlock_if_held(1); });
  }
  // Post-fault-window nudge: one last multicast so every healed / recovered
  // replica has a delivery that exposes its gaps before the horizon.
  q.schedule_at(t_nudge, [this] {
    clients_[0]->bcast_update(kG, ObjectId{kObj.value + 201},
                              to_bytes("nudge"));
  });
  q.schedule_at(horizon_, [this] { fence_hit_ = true; });
}

// -- faults -------------------------------------------------------------------

bool CheckWorld::fault_window_open() const {
  const TimePoint now = rt_.now();
  return now >= fault_open_ && now <= fault_close_;
}

bool CheckWorld::can_crash_server() const { return crashes_left_ > 0; }

void CheckWorld::crash_server() {
  CORONA_INVARIANT(crashes_left_ > 0, "crash budget exhausted");
  --crashes_left_;
  ++server_epoch_;  // stale lock beliefs and queue snapshots die with it
  lock_prev_.clear();
  auto& q = rt_.sim().queue();
  if (options_.mode == WorldOptions::Mode::kSingleServer) {
    // Crash + recover over the surviving disk, then have every client that
    // ever joined re-join (membership is volatile server state) and resend
    // its recent updates (§6).
    rt_.crash(kServer);
    store_.crash();
    if (options_.flush != FlushPolicy::kSync) {
      // The recovering server may legitimately re-sequence a lost tail, so
      // the (group, seq) ledger restarts with the epoch.
      order_.clear();
    }
    q.schedule_after(5 * kMillisecond, [this] {
      auto fresh =
          std::make_unique<CoronaServer>(single_server_config(), &store_);
      rt_.restart(kServer, fresh.get());
      server_ = std::move(fresh);
    });
    q.schedule_after(10 * kMillisecond, [this] {
      for (std::size_t i = 0; i < options_.clients; ++i) {
        if (wants_join_[i].contains(kG.value)) {
          clients_[i]->join(kG, TransferPolicySpec::full());
        }
      }
    });
    q.schedule_after(15 * kMillisecond, [this] {
      for (std::size_t i = 0; i < options_.clients; ++i) {
        if (wants_join_[i].contains(kG.value)) clients_[i]->resend_recent(kG);
      }
    });
  } else {
    // Fail-stop the coordinator; the leaves detect the silence, elect a
    // successor and pull the freshest state (§4.2).  No restart.
    rt_.crash(server_ids_[0]);
  }
}

bool CheckWorld::can_partition_client() const {
  return partitions_left_ > 0 && !partition_active_;
}

void CheckWorld::partition_client() {
  CORONA_INVARIANT(can_partition_client(), "partition budget exhausted");
  --partitions_left_;
  partition_active_ = true;
  const NodeId victim = client_node(options_.clients - 1);
  rt_.network().set_partition_cell(victim, 1);
  rt_.sim().queue().schedule_after(15 * kMillisecond, [this] {
    rt_.network().heal_partitions();
    partition_active_ = false;
  });
}

// -- oracles ------------------------------------------------------------------

void CheckWorld::fail(const std::string& what) {
  if (!report_.empty()) report_ += "; ";
  report_ += what;
}

void CheckWorld::check_record(GroupId g, const UpdateRecord& rec,
                              const std::string& via) {
  const Digest d{rec.sender.value, rec.request_id,
                 static_cast<std::uint8_t>(rec.kind), rec.object.value,
                 hash_bytes(rec.data)};
  auto [it, inserted] = order_.try_emplace({g.value, rec.seq}, d);
  if (!inserted && !(it->second == d)) {
    fail("total-order violation: group " + std::to_string(g.value) + " seq " +
         std::to_string(rec.seq) + " observed with conflicting content via " +
         via);
  }
}

void CheckWorld::on_deliver(std::size_t i, GroupId g, const UpdateRecord& rec) {
  ++deliveries_;
  auto& last = last_seq_[i];
  const auto it = last.find(g.value);
  if (it != last.end() && rec.seq <= it->second) {
    fail("ordering violation: client " + std::to_string(i) + " delivered seq " +
         std::to_string(rec.seq) + " after seq " + std::to_string(it->second));
  } else if (options_.batch_max_msgs > 1 && it != last.end() &&
             rec.seq > it->second + 1) {
    // With batching on, a coalesced frame must carry its run whole: a seq
    // jump at a client means a batch boundary swallowed records (e.g. a
    // dropped tail), which per-message delivery could never produce.
    fail("batch-boundary violation: client " + std::to_string(i) +
         " jumped from seq " + std::to_string(it->second) + " to " +
         std::to_string(rec.seq) + " across a batch boundary");
  }
  last[g.value] = rec.seq;
  check_record(g, rec, "delivery to client " + std::to_string(i));
}

void CheckWorld::on_joined(std::size_t i, GroupId g, Status s) {
  if (!s.is_ok()) return;
  const SharedState* st = clients_[i]->group_state(g);
  if (st == nullptr) {
    fail("join reported ok but client " + std::to_string(i) +
         " has no replica");
    return;
  }
  // State transfer must reproduce the sequencer's history: every transferred
  // record lands in the same (group, seq) ledger the live deliveries feed.
  for (const UpdateRecord& rec : st->history()) {
    check_record(g, rec, "join transfer to client " + std::to_string(i));
  }
  const InvariantReport rep = st->check_invariants();
  if (!rep.ok()) fail("client replica after join: " + rep.to_string());
  // A rejoin re-bases the replica; the monotonic-delivery cursor follows it.
  last_seq_[i][g.value] = st->head_seq();
}

void CheckWorld::on_lock_granted(std::size_t i, GroupId g, ObjectId obj) {
  (void)g;
  const auto it = believed_.find(obj.value);
  if (it != believed_.end() && it->second.second == server_epoch_ &&
      it->second.first != i) {
    fail("mutual-exclusion violation: clients " +
         std::to_string(it->second.first) + " and " + std::to_string(i) +
         " both hold obj " + std::to_string(obj.value) + " in epoch " +
         std::to_string(server_epoch_));
  }
  believed_[obj.value] = {i, server_epoch_};
}

void CheckWorld::unlock_if_held(std::size_t i) {
  const auto it = believed_.find(kLockObj.value);
  if (it == believed_.end() || it->second.first != i) return;
  const bool current = it->second.second == server_epoch_;
  believed_.erase(it);
  // The belief is surrendered when the release is *sent*: advisory locks
  // stop protecting the moment the holder decides to let go.
  if (current) clients_[i]->unlock(kG, kLockObj);
}

void CheckWorld::check_lock_evolution(GroupId g, const LockTable& locks) {
  (void)g;
  std::map<std::uint64_t, LockSnapshot> current;
  for (const auto& [obj, holder] : locks.all_holders()) {
    current[obj.value].holder = holder;
  }
  for (const auto& [obj, waiter] : locks.all_waiters()) {
    current[obj.value].queue.push_back(waiter);
  }
  for (const auto& [obj, old] : lock_prev_) {
    const auto it = current.find(obj);
    if (it == current.end() || !old.holder.has_value()) continue;  // drained
    const LockSnapshot& cur = it->second;
    if (!cur.holder.has_value()) continue;
    if (*cur.holder == *old.holder) {
      // Same holder: the FIFO queue may only have grown at the tail.
      if (!is_prefix(old.queue, cur.queue)) {
        fail("lock FIFO violation: obj " + std::to_string(obj) +
             " queue reordered under an unchanged holder");
      }
      continue;
    }
    const auto pos =
        std::find(old.queue.begin(), old.queue.end(), *cur.holder);
    if (pos != old.queue.end()) {
      // Grants pop from the head, so the survivors past the new holder must
      // still lead the queue in order.
      const std::vector<NodeId> expect(pos + 1, old.queue.end());
      if (!is_prefix(expect, cur.queue)) {
        fail("lock FIFO violation: obj " + std::to_string(obj) +
             " grant skipped queued waiters");
      }
    }
    // A holder absent from the old snapshot means the queue fully drained
    // and someone acquired afresh between checks — nothing to compare.
  }
  lock_prev_ = std::move(current);
}

void CheckWorld::check_client_states() {
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const SharedState* st = clients_[i]->group_state(kG);
    if (st == nullptr) continue;
    const InvariantReport rep = st->check_invariants();
    if (!rep.ok()) {
      fail("client " + std::to_string(i) + " replica: " + rep.to_string());
    }
  }
}

void CheckWorld::heavy_check() {
  if (violated()) return;
  InvariantReport rep = rt_.sim().queue().check_invariants();
  if (options_.mode == WorldOptions::Mode::kSingleServer) {
    if (!rt_.is_crashed(kServer) && server_->has_group(kG)) {
      const Group* group = server_->group(kG);
      rep.merge(group->check_invariants());
      check_lock_evolution(kG, group->locks());
    }
  } else {
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (rt_.is_crashed(server_ids_[i])) continue;
      if (const SharedState* ls = replicas_[i]->local_state(kG)) {
        rep.merge(ls->check_invariants());
      }
      if (const SharedState* cs = replicas_[i]->coord_state(kG)) {
        rep.merge(cs->check_invariants());
      }
    }
  }
  if (!rep.ok()) fail("invariant walk: " + rep.to_string());
  check_client_states();
}

const ReplicaServer* CheckWorld::live_coordinator() const {
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    if (rt_.is_crashed(server_ids_[i])) continue;
    if (replicas_[i]->is_coordinator()) return replicas_[i].get();
  }
  return nullptr;
}

void CheckWorld::final_check() {
  if (violated()) return;
  heavy_check();
  if (violated()) return;

  const SharedState* authority = nullptr;
  if (options_.mode == WorldOptions::Mode::kSingleServer) {
    if (rt_.is_crashed(kServer) || !server_->has_group(kG)) return;
    authority = &server_->group(kG)->state();
  } else {
    const ReplicaServer* coord = live_coordinator();
    if (coord == nullptr) return;  // takeover didn't finish inside the horizon
    authority = coord->coord_state(kG);
    if (authority == nullptr) return;
    // Every live leaf holding a copy at the coordinator's head must agree
    // byte-for-byte (post-recovery replica convergence).
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      if (rt_.is_crashed(server_ids_[i]) || replicas_[i].get() == coord) {
        continue;
      }
      const SharedState* ls = replicas_[i]->local_state(kG);
      if (ls == nullptr || ls->head_seq() != authority->head_seq()) continue;
      if (ls->snapshot() != authority->snapshot()) {
        fail("convergence violation: leaf " +
             std::to_string(server_ids_[i].value) +
             " diverges from the coordinator at head " +
             std::to_string(authority->head_seq()));
      }
    }
  }

  // Caught-up clients (replica head == authority head) must be identical;
  // laggards are covered by the per-delivery ledger instead — a bounded run
  // may legitimately end with messages still in flight.
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const SharedState* st = clients_[i]->group_state(kG);
    if (st == nullptr) continue;
    if (options_.flush == FlushPolicy::kSync &&
        st->head_seq() > authority->head_seq()) {
      fail("convergence violation: client " + std::to_string(i) +
           " is ahead of the durable authority (head " +
           std::to_string(st->head_seq()) + " > " +
           std::to_string(authority->head_seq()) + ")");
      continue;
    }
    if (st->head_seq() != authority->head_seq()) continue;
    if (st->snapshot() != authority->snapshot()) {
      fail("convergence violation: client " + std::to_string(i) +
           " diverges from the authority at head " +
           std::to_string(authority->head_seq()));
    }
  }
}

std::uint64_t CheckWorld::state_hash() {
  Fnv f;
  f.u64(static_cast<std::uint64_t>(crashes_left_));
  f.u64(static_cast<std::uint64_t>(partitions_left_));
  f.u64(partition_active_ ? 1 : 0);
  f.u64(server_epoch_);
  for (const auto& [obj, who] : believed_) {
    f.u64(obj);
    f.u64(who.first);
    f.u64(who.second);
  }
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    f.u64(wants_join_[i].size());
    f.u64(clients_[i]->expected_seq(kG));
    if (const SharedState* st = clients_[i]->group_state(kG)) {
      f.state(*st);
    }
  }
  if (options_.mode == WorldOptions::Mode::kSingleServer) {
    f.u64(rt_.is_crashed(kServer) ? 1 : 0);
    if (!rt_.is_crashed(kServer) && server_->has_group(kG)) {
      const Group* group = server_->group(kG);
      f.u64(group->next_seq());
      f.state(group->state());
      for (const auto& [node, member] : group->members()) {
        f.u64(node.value);
        f.byte(static_cast<std::uint8_t>(member.role));
      }
      for (const auto& [obj, holder] : group->locks().all_holders()) {
        f.u64(obj.value);
        f.u64(holder.value);
      }
      for (const auto& [obj, waiter] : group->locks().all_waiters()) {
        f.u64(obj.value);
        f.u64(waiter.value);
      }
    }
  } else {
    for (std::size_t i = 0; i < replicas_.size(); ++i) {
      f.u64(rt_.is_crashed(server_ids_[i]) ? 1 : 0);
      f.byte(replicas_[i]->is_coordinator() ? 1 : 0);
      f.u64(replicas_[i]->coordinator().value);
      f.u64(replicas_[i]->term());
      if (const SharedState* ls = replicas_[i]->local_state(kG)) f.state(*ls);
      if (const SharedState* cs = replicas_[i]->coord_state(kG)) f.state(*cs);
    }
  }
  // Pending-event *tags* (not timestamps): two states that differ only in
  // when the same work is queued are schedule-equivalent.
  for (const EventDesc& e : rt_.sim().queue().pending_events()) {
    f.byte(static_cast<std::uint8_t>(e.tag.kind));
    f.u64(e.tag.a);
    f.u64(e.tag.b);
  }
  return f.h;
}

}  // namespace corona::check
