#include "core/server.h"

#include <algorithm>
#include <set>
#include <utility>

#include "util/invariant.h"
#include "util/logging.h"

namespace corona {

CoronaServer::CoronaServer(ServerConfig config, GroupStore* store,
                           SessionManager* session_manager)
    : config_(std::move(config)),
      store_(store),
      session_(session_manager),
      qos_(config_.qos),
      outbox_(config_.batch_max_msgs, config_.batch_max_delay, kBatchTimer,
               config_.debug_drop_batch_tail) {
  if (store_ == nullptr) {
    owned_store_ = std::make_unique<GroupStore>();
    store_ = owned_store_.get();
  }
  if (session_ == nullptr) {
    owned_session_ = std::make_unique<AllowAllSessionManager>();
    session_ = owned_session_.get();
  }
  if (!config_.reduction_factory) {
    config_.reduction_factory = [] { return make_no_reduction(); };
  }
}

CoronaServer::~CoronaServer() = default;

void CoronaServer::on_start() {
  recover_from_store();
  if (config_.flush == FlushPolicy::kAsync) schedule_flush();
  if (config_.client_timeout > 0) {
    set_timer(config_.client_timeout / 2, kLivenessTimer);
  }
}

void CoronaServer::recover_from_store() {
  for (const RecoveredGroup& rg : store_->recover()) {
    const GroupId gid = rg.meta.id;
    Group& group = groups_.insert_or_assign(gid, Group(rg.meta)).first->second;
    group.restore(rg.base_seq, rg.snapshot, rg.updates);
    reduction_[gid] = config_.reduction_factory();
    LOG_INFO("server", "recovered ", gid, " head=", group.state().head_seq(),
             " objects=", group.state().object_count());
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
      drop_member_everywhere(client);
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
// dispatch-ignore: kServerHello kFwdMulticast kSeqMulticast -- replica tier
// dispatch-ignore: kGroupOp kGroupOpResult kHeartbeatAck -- replica tier
// dispatch-ignore: kServerList kElectionClaim kElectionVote -- replica tier
// dispatch-ignore: kCoordAnnounce kBackupAssign -- replica tier
// dispatch-ignore: kResendRequest -- sent to clients, never received
// dispatch-ignore: kDigestRequest kDigestReply -- replica anti-entropy only
void CoronaServer::process(NodeId from, const Message& m) {
  switch (m.type) {
    case MsgType::kCreateGroup: handle_create(from, m); break;
    case MsgType::kDeleteGroup: handle_delete(from, m); break;
    case MsgType::kJoin: handle_join(from, m); break;
    case MsgType::kLeave: handle_leave(from, m); break;
    case MsgType::kGetMembership: handle_get_membership(from, m); break;
    case MsgType::kBcastState:
    case MsgType::kBcastUpdate: handle_bcast(from, m); break;
    case MsgType::kLockRequest: handle_lock_request(from, m); break;
    case MsgType::kLockRelease: handle_lock_release(from, m); break;
    case MsgType::kReduceLog: handle_reduce_log(from, m); break;
    case MsgType::kRetransmitReq: handle_retransmit(from, m); break;
    case MsgType::kResendReply: handle_resend_reply(from, m); break;
    case MsgType::kStateReply: handle_peer_state(from, m); break;
    default:
      LOG_WARN("server", "unexpected ", msg_type_name(m.type), " from ",
               from.value);
      break;
  }
}

Group* CoronaServer::find_group(GroupId g) {
  auto it = groups_.find(g);
  return it != groups_.end() ? &it->second : nullptr;
}

const Group* CoronaServer::group(GroupId g) const {
  auto it = groups_.find(g);
  return it != groups_.end() ? &it->second : nullptr;
}

Status CoronaServer::authorize(NodeId client, GroupId g, GroupAction action) {
  return session_->authorize(client, g, action);
}

void CoronaServer::set_group_qos_class(GroupId g, int klass) {
  qos_.set_group_class(g, klass);
}

// ---------------------------------------------------------------------------
// Group management
// ---------------------------------------------------------------------------

void CoronaServer::handle_create(NodeId from, const Message& m) {
  if (Status s = authorize(from, m.group, GroupAction::kCreate); !s) {
    send(from, make_reply(s, m.request_id));
    return;
  }
  if (groups_.contains(m.group)) {
    send(from, make_reply(Status::error(Errc::kAlreadyExists), m.request_id));
    return;
  }
  GroupMeta meta{m.group, m.text, m.persistent};
  Group group(meta);
  group.state().load(0, m.state);
  groups_.emplace(m.group, std::move(group));
  reduction_[m.group] = config_.reduction_factory();
  store_->create_group(meta, m.state);
  if (config_.flush == FlushPolicy::kSync) flush_now();
  send(from, make_reply(Status::ok(), m.request_id));
}

void CoronaServer::handle_delete(NodeId from, const Message& m) {
  if (Status s = authorize(from, m.group, GroupAction::kDelete); !s) {
    send(from, make_reply(s, m.request_id));
    return;
  }
  Group* group = find_group(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  // "The shared state of a deleted group is lost."  Every member is told,
  // the requester too, so no member keeps a replica of a deleted group.
  Message note;
  note.type = MsgType::kGroupDeleted;
  note.group = m.group;
  for (const auto& [member, info] : group->members()) send(member, note);
  groups_.erase(m.group);
  reduction_.erase(m.group);
  store_->remove_group(m.group);
  send(from, make_reply(Status::ok(), m.request_id));
}

void CoronaServer::handle_join(NodeId from, const Message& m) {
  const auto refuse = [&](Status s) {
    send(from, make_refusal(MsgType::kJoinReply, m.group, m.request_id,
                            std::move(s)));
  };
  if (Status s = authorize(from, m.group, GroupAction::kJoin); !s) {
    refuse(std::move(s));
    return;
  }
  Group* group = find_group(m.group);
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
  send_membership_notices(group, joiner, role, /*joined=*/true);
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
  if (Group* group = find_group(p.group)) {
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
  Group* group = find_group(p.group);
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
  Group* group = find_group(m.group);
  if (group == nullptr || !group->is_member(from)) {
    send(from, make_reply(Status::error(Errc::kNotMember), m.request_id));
    return;
  }
  // Leaving implicitly releases held locks; queued waiters get grants.
  send_grants(m.group, group->remove_member(from));
  send(from, make_reply(Status::ok(), m.request_id));
  send_membership_notices(*group, from, MemberRole::kPrincipal,
                          /*joined=*/false);
  CORONA_CHECK_INVARIANTS(*group);

  // Transient groups cease to exist at null membership; persistent groups
  // and their shared state outlive their members (§3.1).
  if (group->member_count() == 0 && !group->persistent()) {
    groups_.erase(m.group);
    reduction_.erase(m.group);
    store_->remove_group(m.group);
  }

  // Stop liveness tracking once the client belongs to no group.
  if (config_.client_timeout > 0) {
    bool member_somewhere = false;
    for (const auto& [gid, g] : groups_) {
      if (g.is_member(from)) {
        member_somewhere = true;
        break;
      }
    }
    if (!member_somewhere) client_last_heard_.erase(from);
  }
}

void CoronaServer::handle_get_membership(NodeId from, const Message& m) {
  Group* group = find_group(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  send(from, make_membership_info(m.group, m.request_id, group->member_list()));
}

void CoronaServer::send_membership_notices(Group& group, NodeId subject,
                                           MemberRole role, bool joined) {
  const auto subscribers = group.notice_subscribers();
  if (subscribers.empty()) return;
  Message note;
  note.type = MsgType::kMembershipNotice;
  note.group = group.meta().id;
  note.sender = subject;
  note.role = role;
  note.accept = joined;
  for (NodeId member : subscribers) {
    if (!(member == subject)) send(member, note);
  }
}

// ---------------------------------------------------------------------------
// Multicast + logging
// ---------------------------------------------------------------------------

void CoronaServer::handle_bcast(NodeId from, const Message& m) {
  if (Status s = authorize(from, m.group, GroupAction::kPublish); !s) {
    send(from, make_reply(s, m.request_id));
    return;
  }
  Group* group = find_group(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  if (!group->is_member(from)) {
    send(from, make_reply(Status::error(Errc::kNotMember), m.request_id));
    return;
  }

  UpdateRecord rec;
  rec.kind = m.kind;
  rec.object = m.object;
  rec.data = m.payload;
  rec.sender = from;
  rec.timestamp = now();  // server-side real-time stamping (§3.2)
  rec.request_id = m.request_id;

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
    return !groups_.contains(p.group);
  });
  if (batch.empty()) return;
  std::set<GroupId> touched;
  for (PendingDelivery& p : batch) {
    groups_.at(p.group).sequence(p.rec, store_);
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
    Group& g = groups_.at(gid);
    maybe_reduce(g);
    CORONA_CHECK_INVARIANTS(g);
  }
}

void CoronaServer::deliver(const std::vector<PendingDelivery>& items) {
  for (const PendingDelivery& p : items) {
    const Group* group = find_group(p.group);
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

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

void CoronaServer::handle_lock_request(NodeId from, const Message& m) {
  Group* group = find_group(m.group);
  if (group == nullptr || !group->is_member(from)) {
    send(from, make_reply(Status::error(Errc::kNotMember), m.request_id));
    return;
  }
  const auto outcome = group->locks().acquire(m.object, from);
  if (outcome == LockTable::AcquireOutcome::kGranted) {
    Message grant;
    grant.type = MsgType::kLockGrant;
    grant.group = m.group;
    grant.object = m.object;
    grant.request_id = m.request_id;
    send(from, grant);
  } else {
    // Queued (or duplicate): acknowledge receipt; the grant follows when the
    // holder releases.
    send(from, make_reply(Status::error(Errc::kLockHeld, "queued"),
                          m.request_id));
  }
}

void CoronaServer::handle_lock_release(NodeId from, const Message& m) {
  Group* group = find_group(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  auto result = group->locks().release(m.object, from);
  if (!result) {
    send(from, make_reply(result.status(), m.request_id));
    return;
  }
  send(from, make_reply(Status::ok(), m.request_id));
  if (auto next = result.value()) send_grants(m.group, {{m.object, *next}});
}

void CoronaServer::send_grants(
    GroupId g, const std::vector<std::pair<ObjectId, NodeId>>& grants) {
  for (const auto& [obj, grantee] : grants) {
    Message grant;
    grant.type = MsgType::kLockGrant;
    grant.group = g;
    grant.object = obj;
    send(grantee, grant);
  }
}

// ---------------------------------------------------------------------------
// Log reduction
// ---------------------------------------------------------------------------

void CoronaServer::handle_reduce_log(NodeId from, const Message& m) {
  if (Status s = authorize(from, m.group, GroupAction::kReduceLog); !s) {
    send(from, make_reply(s, m.request_id));
    return;
  }
  Group* group = find_group(m.group);
  if (group == nullptr) {
    send(from, make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  const SeqNo upto = m.seq == 0 ? group->state().head_seq() : m.seq;
  perform_reduction(*group, upto);
  Message done;
  done.type = MsgType::kLogReduced;
  done.group = m.group;
  done.seq = group->state().base_seq();
  done.request_id = m.request_id;
  send(from, done);
}

void CoronaServer::maybe_reduce(Group& group) {
  auto it = reduction_.find(group.meta().id);
  if (it == reduction_.end()) return;
  if (const SeqNo upto = it->second->should_reduce(group.state()); upto > 0) {
    perform_reduction(group, upto);
  }
}

void CoronaServer::perform_reduction(Group& group, SeqNo upto) {
  // "The history of state updates ... may be trimmed up to a point and
  // replaced with the consistent group state existing at that point" (§3.2).
  // SharedState folds the dropped prefix into its base snapshot, which then
  // becomes the durable checkpoint.
  const std::size_t dropped = group.state().reduce_to(upto);
  if (dropped == 0) return;
  store_->install_checkpoint(group.meta().id, group.state().base_seq(),
                             group.state().snapshot_at_base());
  ++stats_.reductions;
  stats_.records_dropped_by_reduction += dropped;
}

// ---------------------------------------------------------------------------
// Retransmission + recovery resends
// ---------------------------------------------------------------------------

void CoronaServer::handle_retransmit(NodeId from, const Message& m) {
  Group* group = find_group(m.group);
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
  const Group* group = find_group(m.group);
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

void CoronaServer::drop_member_everywhere(NodeId who) {
  std::vector<GroupId> to_erase;
  for (auto& [gid, group] : groups_) {
    if (!group.is_member(who)) continue;
    send_grants(gid, group.remove_member(who));
    send_membership_notices(group, who, MemberRole::kPrincipal,
                            /*joined=*/false);
    CORONA_CHECK_INVARIANTS(group);
    if (group.member_count() == 0 && !group.persistent()) to_erase.push_back(gid);
  }
  for (GroupId gid : to_erase) {
    groups_.erase(gid);
    reduction_.erase(gid);
    store_->remove_group(gid);
  }
}

}  // namespace corona
