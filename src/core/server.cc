#include "core/server.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <utility>

#include "util/invariant.h"
#include "util/logging.h"

namespace corona {

struct CoronaServer::Direct final : GroupAuthority::Route {
  Direct(CoronaServer& s, NodeId c) : server(s), client(c) {}
  void answer(const Message& m) override { server.send(client, m); }
  void to_member(const Group&, NodeId member, const Message& m) override {
    server.send(member, m);
  }
  void to_group(const Group&, const Message& m,
                const std::vector<NodeId>& members) override {
    for (NodeId member : members) server.send(member, m);
  }
  CoronaServer& server;
  NodeId client;
};

CoronaServer::CoronaServer(ServerConfig config, GroupStore* store,
                           SessionManager* session_manager)
    : config_(std::move(config)),
      store_(store),
      session_(session_manager),
      authority_(store_, config_.reduction_factory),
      qos_(config_.qos),
      outbox_(config_.batch_max_msgs, config_.batch_max_delay, kBatchTimer,
               config_.debug_drop_batch_tail) {
  assert(store_ != nullptr);
}

CoronaServer::~CoronaServer() = default;

void CoronaServer::on_start() {
  authority_.recover_from_store();
  if (config_.flush == FlushPolicy::kAsync) schedule_flush();
  if (config_.client_timeout > 0) {
    set_timer(config_.client_timeout / 2, kLivenessTimer);
  }
}

void CoronaServer::on_message(NodeId from, const Message& m) {
  // Any traffic counts as liveness; idle clients send keepalives.
  if (config_.client_timeout > 0) {
    if (auto it = client_last_heard_.find(from);
        it != client_last_heard_.end()) {
      it->second = now();
    }
  }
  if (m.type == MsgType::kHeartbeat) return;  // keepalive only

  // Multicast traffic can be QoS-scheduled; control traffic never queues.
  if (config_.enable_qos &&
      (m.type == MsgType::kBcastState || m.type == MsgType::kBcastUpdate)) {
    qos_.enqueue(from, m);
    stats_.qos_shed = qos_.shed();
    if (!qos_drain_scheduled_) {
      qos_drain_scheduled_ = true;
      // Admission waits out the current service slot, so bursts accumulate
      // in the scheduler where priorities/aging/shedding can act on them.
      const Duration wait = std::max<Duration>(0, qos_busy_until_ - now());
      set_timer(wait, kQosDrainTimer);
    }
    return;
  }
  process(from, m);
}

void CoronaServer::on_timer(std::uint64_t tag) {
  if (tag == kFlushTimer) {
    flush_now();
    schedule_flush();
    return;
  }
  if (tag == kLivenessTimer) {
    // Fail-stop client sweep (companion paper [15]): silent members are
    // dropped everywhere, exactly as an explicit leave would.
    std::vector<NodeId> expired;
    for (const auto& [client, last] : client_last_heard_) {
      if (now() - last > config_.client_timeout) expired.push_back(client);
    }
    for (NodeId client : expired) {
      client_last_heard_.erase(client);
      ++stats_.clients_expired;
      Direct route(*this, client);
      authority_.drop_lost(route, [client](NodeId member, const Member&) {
        return member == client;
      });
    }
    set_timer(config_.client_timeout / 2, kLivenessTimer);
    return;
  }
  if (tag == kQosDrainTimer) {
    // Drain one message per service slot so higher-priority arrivals can
    // overtake queued lower-priority ones while the server is busy.  With
    // batching enabled the slot admits up to a batch's worth so the batch
    // queue can actually fill.
    const std::size_t burst = std::max<std::size_t>(1, config_.batch_max_msgs);
    for (std::size_t i = 0; i < burst; ++i) {
      auto item = qos_.dequeue();
      if (!item) break;
      qos_busy_until_ = now() + config_.qos_service_time;
      process(item->from, item->msg);
    }
    if (!qos_.empty()) {
      set_timer(config_.qos_service_time, kQosDrainTimer);
    } else {
      qos_drain_scheduled_ = false;
    }
    return;
  }
  if (tag == kBatchTimer) {
    outbox_.timer_fired();
    drain_batch(std::exchange(batch_queue_, {}));
    return;
  }
  if (tag >= kPeerTagBase) {
    peer_transfer_timeout(tag - kPeerTagBase);
    return;
  }
  if (tag >= kSyncTagBase) {
    auto it = pending_sync_.find(tag - kSyncTagBase);
    if (it == pending_sync_.end()) return;
    std::vector<PendingDelivery> items = std::move(it->second);
    pending_sync_.erase(it);
    deliver(items);
    return;
  }
}

// Role dispatch surface: every MsgType must be handled below or waived.
// lint-dispatch: MsgType
// dispatch-ignore: kInvalid -- sentinel; the decoder rejects it upstream
// dispatch-ignore: kReply kDeliver kMembershipInfo -- emitted, never received
// dispatch-ignore: kLockGrant kLogReduced kGroupDeleted kMembershipNotice --
//   built by the group authority (core/authority.cc), never received
// dispatch-ignore: kServerHello kFwdMulticast kSeqMulticast -- replica tier
// dispatch-ignore: kGroupOp kGroupOpResult kHeartbeatAck -- replica tier
// dispatch-ignore: kServerList kElectionClaim kElectionVote -- replica tier
// dispatch-ignore: kCoordAnnounce kBackupAssign -- replica tier
// dispatch-ignore: kResendRequest -- sent to clients, never received
// dispatch-ignore: kDigestRequest kDigestReply -- replica anti-entropy only
void CoronaServer::process(NodeId from, const Message& m) {
  if (Status s = authorize_request(session_, from, m); !s) {
    send(from, make_denial(m, std::move(s)));
    return;
  }
  Direct route(*this, from);
  switch (m.type) {
    case MsgType::kCreateGroup:
      if (authority_.on_create(route, m) &&
          config_.flush == FlushPolicy::kSync) {
        flush_now();
      }
      break;
    case MsgType::kDeleteGroup: authority_.on_delete(route, m); break;
    case MsgType::kJoin: handle_join(from, m); break;
    case MsgType::kLeave: handle_leave(from, m); break;
    case MsgType::kGetMembership:
      authority_.on_membership_query(route, m);
      break;
    case MsgType::kBcastState:
    case MsgType::kBcastUpdate: handle_bcast(from, m); break;
    case MsgType::kLockRequest: authority_.on_lock(route, from, m); break;
    case MsgType::kLockRelease: authority_.on_unlock(route, from, m); break;
    case MsgType::kReduceLog:
      count_reduction(authority_.on_reduce(route, m));
      break;
    case MsgType::kRetransmitReq: handle_retransmit(from, m); break;
    case MsgType::kResendReply: handle_resend_reply(from, m); break;
    case MsgType::kStateReply: handle_peer_state(from, m); break;
    default:
      LOG_WARN("server", "unexpected ", msg_type_name(m.type), " from ",
               from.value);
      break;
  }
}

void CoronaServer::set_group_qos_class(GroupId g, int klass) {
  qos_.set_group_class(g, klass);
}

// ---------------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------------

void CoronaServer::handle_join(NodeId from, const Message& m) {
  const auto refuse = [&](Status s) {
    send(from, make_refusal(MsgType::kJoinReply, m.group, m.request_id,
                            std::move(s)));
  };
  Group* group = authority_.lookup(m.group);
  if (group == nullptr) {
    refuse(Status::error(Errc::kNotFound));
    return;
  }
  if (!group->add_member(from, m.role, m.notify_membership)) {
    refuse(Status::error(Errc::kAlreadyExists, "already a member"));
    return;
  }

  // Peer-transfer baseline (§2's ISIS-style join): fetch the state from an
  // existing member instead of the service copy.  Membership is finalized
  // when the transfer completes; the reply is deferred.
  if (config_.join_transfer == JoinTransferMode::kPeer &&
      group->member_count() > 1) {
    group->remove_member(from);  // re-added when the transfer lands
    begin_peer_transfer(*group, from, m);
    return;
  }

  // Customized state transfer (§3.2).  The join involves no existing member:
  // everything comes from the server's copy of the shared state.
  TransferContent t = build_transfer(group->state(), m.policy);
  stats_.transfer_bytes += t.total_bytes();
  finish_join(*group, from, m.request_id, m.role, std::move(t));
}

void CoronaServer::finish_join(Group& group, NodeId joiner, RequestId rid,
                               MemberRole role, TransferContent t) {
  ++stats_.joins_served;
  if (config_.client_timeout > 0) client_last_heard_[joiner] = now();
  send(joiner, make_join_reply(group.meta().id, rid, std::move(t),
                               group.member_list()));
  Direct route(*this, joiner);
  authority_.announce(route, group, joiner, role, /*joined=*/true);
}

// ---------------------------------------------------------------------------
// Peer-transfer baseline (paper §2)
// ---------------------------------------------------------------------------

void CoronaServer::begin_peer_transfer(Group& group, NodeId joiner,
                                       const Message& join) {
  PendingPeerJoin p;
  p.group = group.meta().id;
  p.joiner = joiner;
  p.request_id = join.request_id;
  p.role = join.role;
  p.notify = join.notify_membership;
  for (const auto& [member, info] : group.members()) {
    if (!(member == joiner)) p.remaining_donors.push_back(member);
  }
  const std::uint64_t token = next_peer_token_++;
  ask_next_donor(token, p);
  pending_peer_.emplace(token, std::move(p));
}

void CoronaServer::ask_next_donor(std::uint64_t token, PendingPeerJoin& p) {
  p.donor = p.remaining_donors.front();
  p.remaining_donors.erase(p.remaining_donors.begin());
  Message q;
  q.type = MsgType::kStateQuery;
  q.group = p.group;
  q.request_id = token;
  send(p.donor, q);
  p.timer = set_timer(config_.peer_timeout, kPeerTagBase + token);
}

void CoronaServer::handle_peer_state(NodeId from, const Message& m) {
  auto it = pending_peer_.find(m.request_id);
  if (it == pending_peer_.end() || !(it->second.donor == from)) return;
  if (m.status != Errc::kOk) {
    // The donor cannot serve (left / never had the state): fail over to the
    // next one right away.
    cancel_timer(it->second.timer);
    peer_transfer_timeout(it->first);
    return;
  }
  cancel_timer(it->second.timer);
  PendingPeerJoin p = std::move(it->second);
  pending_peer_.erase(it);
  ++stats_.peer_transfers;
  if (Group* group = authority_.lookup(p.group)) {
    group->add_member(p.joiner, p.role, p.notify);
    finish_join(*group, p.joiner, p.request_id, p.role,
                TransferContent{m.seq, m.state, {}});
  }
}

void CoronaServer::peer_transfer_timeout(std::uint64_t token) {
  auto it = pending_peer_.find(token);
  if (it == pending_peer_.end()) return;
  ++stats_.peer_timeouts;
  PendingPeerJoin& p = it->second;
  Group* group = authority_.lookup(p.group);
  if (group == nullptr) {
    pending_peer_.erase(it);
    return;
  }
  if (p.remaining_donors.empty()) {
    // "the time to complete the join reflects the timeout for failure
    // detection and making an additional request" — and when no member can
    // answer, the stateful service is the last resort.
    PendingPeerJoin done = std::move(p);
    pending_peer_.erase(it);
    group->add_member(done.joiner, done.role, done.notify);
    finish_join(*group, done.joiner, done.request_id, done.role,
                build_transfer(group->state(), TransferPolicySpec::full()));
    return;
  }
  ask_next_donor(token, p);
}

void CoronaServer::handle_leave(NodeId from, const Message& m) {
  Direct route(*this, from);
  if (!authority_.on_leave(route, from, m)) return;
  send(from, make_reply(Status::ok(), m.request_id));

  // Stop liveness tracking once the client belongs to no group.
  const auto& groups = authority_.groups();
  if (config_.client_timeout > 0 &&
      std::none_of(groups.begin(), groups.end(), [from](const auto& g) {
        return g.second.is_member(from);
      })) {
    client_last_heard_.erase(from);
  }
}

// ---------------------------------------------------------------------------
// Multicast + logging
// ---------------------------------------------------------------------------

void CoronaServer::handle_bcast(NodeId from, const Message& m) {
  const Group* group = authority_.lookup(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  if (!group->is_member(from)) {
    send(from, make_reply(Status::error(Errc::kNotMember), m.request_id));
    return;
  }

  UpdateRecord rec = record_of(m);
  rec.sender = from;
  rec.timestamp = now();  // server-side real-time stamping (§3.2)

  // The record is stamped now (arrival) and sequenced at the next drain in
  // arrival order, so every batch size delivers the same bytes.
  batch_queue_.push_back(
      PendingDelivery{m.group, std::move(rec), m.sender_inclusive, from});
  if (outbox_.full(*this, batch_queue_.size())) {
    drain_batch(std::exchange(batch_queue_, {}));
  }
}

void CoronaServer::drain_batch(std::vector<PendingDelivery> batch) {
  if (batch.size() > 1) {
    ++stats_.batches_sequenced;
    stats_.batched_messages += batch.size();
  }
  // A group deleted since arrival drops its queued multicasts, as a delete
  // racing an in-flight bcast always has.
  std::erase_if(batch, [this](const PendingDelivery& p) {
    return authority_.lookup(p.group) == nullptr;
  });
  if (batch.empty()) return;
  std::set<GroupId> touched;
  for (PendingDelivery& p : batch) {
    authority_.lookup(p.group)->sequence(p.rec, store_);
    ++stats_.messages_sequenced;
    rt().charge_cpu(id(), apply_cpu_cost(p.rec));
    touched.insert(p.group);
  }

  if (config_.flush == FlushPolicy::kSync) {
    // Group commit: ONE flush and ONE device write cover the entire batch;
    // the device's fixed per-op cost is paid once for the whole run, which
    // is delivered together when the commit lands.
    const std::uint64_t bytes = store_->pending_bytes();
    const std::size_t records = store_->flush();
    ++stats_.flushes;
    if (records > 1) {
      ++stats_.group_commits;
      stats_.group_commit_records += records;
    }
    const TimePoint done =
        rt().disk_write(id(), bytes, std::max<std::size_t>(records, 1));
    const std::uint64_t token = next_pending_++;
    pending_sync_[token] = std::move(batch);
    set_timer(done - now(), kSyncTagBase + token);
  } else {
    deliver(batch);
  }
  for (GroupId gid : touched) {
    Group& g = *authority_.lookup(gid);
    count_reduction(authority_.reduce_if_due(g));
    CORONA_CHECK_INVARIANTS(g);
  }
}

void CoronaServer::deliver(const std::vector<PendingDelivery>& items) {
  for (const PendingDelivery& p : items) {
    const Group* group = authority_.lookup(p.group);
    if (group == nullptr) continue;  // deleted while its commit was in flight
    std::vector<NodeId> recipients;
    recipients.reserve(group->member_count());
    for (const auto& [member, info] : group->members()) {
      if (p.sender_inclusive || !(member == p.sender)) {
        recipients.push_back(member);
      }
    }
    stats_.deliveries_sent += recipients.size();
    stats_.delivery_bytes += p.rec.data.size() * recipients.size();
    Message out = make_deliver(p.group, p.rec);
    if (config_.use_ip_multicast) {
      // The one-to-many transport already coalesces the fan-out; batching
      // frames on top buys nothing, so every record goes out on its own.
      multicast(recipients, out);
    } else {
      outbox_.add(std::move(out), std::move(recipients));
    }
  }
  stats_.batch_frames_sent += outbox_.ship(*this);
}

void CoronaServer::count_reduction(std::size_t dropped) {
  if (dropped == 0) return;
  ++stats_.reductions;
  stats_.records_dropped_by_reduction += dropped;
}

// ---------------------------------------------------------------------------
// Retransmission + recovery resends
// ---------------------------------------------------------------------------

void CoronaServer::handle_retransmit(NodeId from, const Message& m) {
  const Group* group = authority_.lookup(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  if (!group->is_member(from)) {
    send(from, make_reply(Status::error(Errc::kNotMember), m.request_id));
    return;
  }
  ++stats_.retransmits_served;
  send(from, make_gap_fill(m, group->state()));
}

void CoronaServer::handle_resend_reply(NodeId from, const Message& m) {
  // Crash recovery (§6): updates lost with the unflushed log tail are
  // re-submitted by their original senders and sequenced afresh; the
  // (sender, request-id) dedup set recovered from the durable log keeps
  // already-stable updates from being applied twice.  A client resends only
  // its own multicasts, so a record naming another sender is dropped.
  const Group* group = authority_.lookup(m.group);
  if (group == nullptr || !group->is_member(from)) return;
  for (UpdateRecord& rec : own_records(m.updates, from)) {
    if (group->was_seen(rec.sender, rec.request_id)) continue;
    rec.timestamp = now();
    ++stats_.resends_applied;
    drain_batch({PendingDelivery{m.group, std::move(rec),
                                 /*sender_inclusive=*/true, from}});
  }
}

// ---------------------------------------------------------------------------
// Flushing
// ---------------------------------------------------------------------------

void CoronaServer::schedule_flush() {
  set_timer(config_.flush_interval, kFlushTimer);
}

void CoronaServer::flush_now() {
  const std::uint64_t bytes = store_->pending_bytes();
  // Commit-group size is already accounted via pending_bytes above.
  (void)store_->flush();
  ++stats_.flushes;
  if (bytes > 0) rt().disk_write(id(), bytes);
}

}  // namespace corona
