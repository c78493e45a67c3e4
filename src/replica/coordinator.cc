// Coordinator-side handlers of ReplicaServer.  See coordinator.h for the
// protocol overview and replica_server.cc for the leaf side.
#include <algorithm>
#include <cassert>

#include "replica/coordinator.h"
#include "util/logging.h"

namespace corona {

// The coordinator's route for the group authority: a client's answer goes
// back through the client's leaf, which forwards it unchanged; a change
// every copy must see goes once to each holder, and each leaf applies it to
// its own members.
struct ReplicaServer::Relay final : GroupAuthority::Route {
  Relay(ReplicaServer& s, NodeId l, NodeId c)
      : server(s), leaf(l), client(c) {}
  void answer(const Message& m) override { server.coord_relay(leaf, client, m); }
  void to_member(const Group& group, NodeId member, const Message& m) override {
    auto it = group.members().find(member);
    if (it != group.members().end()) {
      server.coord_relay(it->second.leaf, member, m);
    }
  }
  void to_group(const Group& group, const Message& m,
                const std::vector<NodeId>&) override {
    for (NodeId holder : server.repl_.holders(group.meta().id)) {
      server.send(holder, m);
    }
  }
  ReplicaServer& server;
  NodeId leaf;
  NodeId client;
};

void ReplicaServer::coord_relay(NodeId leaf, NodeId client, const Message& m) {
  Message r;
  r.type = MsgType::kGroupOpResult;
  r.sender = client;
  r.payload = m.encode();
  send(leaf, r);
}

void ReplicaServer::become_coordinator(std::uint64_t term) {
  const NodeId old_coordinator = coordinator_;
  role_ = Role::kCoordinator;
  coordinator_ = id();
  term_ = std::max<std::uint64_t>(term_, term);
  tally_.finish();
  ++stats_.elections_won;
  LOG_INFO("replica", "server ", id().value, " is coordinator, term ",
           term_.load());

  if (!(old_coordinator == id())) registry_.remove(old_coordinator);
  registry_.set_servers(registry_.servers(), term_);

  // Watch every other server; announce; distribute the updated list.
  for (NodeId s : registry_.servers()) {
    if (s == id()) continue;
    leaf_fd_.watch(s, now());
    send(s, make_coord_announce(id(), term_));
    send(s, make_server_list(term_, registry_.servers()));
  }

  // Seed the authoritative state from this server's own leaf copies, and
  // re-register its local members (self-hello keeps the flow uniform with
  // the other leaves').
  for (const auto& [g, lg] : local_) {
    if (authority_.lookup(g) != nullptr) continue;
    // Restoring from the retained history also seeds the resend-dedup set,
    // so client recovery resends of already-sequenced updates are not
    // applied twice.
    Group cg(lg.meta);
    cg.restore(lg.copy.state.base_seq(), lg.copy.state.snapshot_at_base(),
               lg.copy.state.history());
    authority_.install(std::move(cg));
    repl_.add_backup(g, id());
    reregister_members(g, lg);
  }

  // Cold-start recovery: persistent groups on this server's durable store
  // come back with their checkpoint + flushed log (§3.1 persistence across
  // service restarts); transient groups died with their members.
  authority_.recover_from_store();

  collecting_hellos_ = true;
  hello_reports_.clear();
  set_timer(cfg_.takeover_window, kTakeoverTimer);
  set_timer(cfg_.heartbeat_interval, kHeartbeatTimer);
  set_timer(cfg_.flush_interval, kFlushTimer);
}

// ---------------------------------------------------------------------------
// Heartbeats + registry
// ---------------------------------------------------------------------------

void ReplicaServer::coord_heartbeat_tick() {
  for (NodeId s : registry_.servers()) {
    if (s == id()) continue;
    send(s, make_heartbeat(term_));
  }
  for (NodeId dead : leaf_fd_.suspects(now())) {
    LOG_INFO("replica", "coordinator drops dead server ", dead.value);
    coord_drop_server(dead);
  }
}

void ReplicaServer::coord_handle_heartbeat_ack(NodeId from, const Message& m) {
  (void)m;
  leaf_fd_.heard_from(from, now());
}

void ReplicaServer::coord_drop_server(NodeId leaf) {
  leaf_fd_.unwatch(leaf);
  registry_.remove(leaf);
  registry_.bump_epoch();
  for (NodeId s : registry_.servers()) {
    if (s == id()) continue;
    send(s, make_server_list(registry_.epoch(), registry_.servers()));
  }
  // Members connected through the dead leaf are gone (fail-stop clients of
  // a fail-stop server): they leave every group, as if each had left.
  Relay route(*this, leaf, NodeId{});
  authority_.drop_lost(route, [leaf](NodeId, const Member& info) {
    return info.leaf == leaf;
  });
  // Restore the hot-standby invariant for groups that lost a copy.
  for (GroupId g : repl_.drop_server(leaf)) coord_maybe_assign_backup(g);
}

void ReplicaServer::coord_handle_hello(NodeId from, const Message& m) {
  if (!is_coordinator()) return;
  if (!registry_.contains(from)) {
    registry_.add(from);
    registry_.bump_epoch();
    for (NodeId s : registry_.servers()) {
      if (s == id()) continue;
      send(s, make_server_list(registry_.epoch(), registry_.servers()));
    }
  }
  leaf_fd_.watch(from, now());
  if (collecting_hellos_) {
    hello_reports_[from] = decode_group_heads(m.u64s);
  }
}

// ---------------------------------------------------------------------------
// Sequencing
// ---------------------------------------------------------------------------

void ReplicaServer::coord_handle_fwd_multicast(NodeId from, const Message& m) {
  if (!is_coordinator()) return;  // stale routing during an election
  Group* cg = authority_.lookup(m.group);
  if (cg == nullptr) {
    if (collecting_hellos_ || pending_fwd_.contains(m.group)) {
      // Takeover in progress: hold until the group's state is pulled.
      pending_fwd_[m.group].push_back(m);
      return;
    }
    coord_relay(from, m.sender,
                make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  if (!cg->is_member(m.sender)) {
    coord_relay(from, m.sender,
                make_reply(Status::error(Errc::kNotMember), m.request_id));
    return;
  }
  UpdateRecord rec = record_of(m);
  rec.timestamp = now();  // sequencer timestamping
  coord_sequence(*cg, std::move(rec), m.sender_inclusive);
}

void ReplicaServer::coord_sequence(Group& cg, UpdateRecord rec,
                                   bool sender_inclusive) {
  cg.sequence(rec, store_);
  ++stats_.sequenced;
  rt().charge_cpu(id(), apply_cpu_cost(rec));

  // The sequencing decision is final and immediate (seq, state, log and
  // timestamp are all per-message); only the outbound frames coalesce, one
  // run per holder leaf.
  Message out;
  out.type = MsgType::kSeqMulticast;
  out.group = cg.meta().id;
  out.seq = rec.seq;
  out.kind = rec.kind;
  out.object = rec.object;
  out.payload = std::move(rec.data);
  out.sender = rec.sender;
  out.timestamp = rec.timestamp;
  out.request_id = rec.request_id;
  out.sender_inclusive = sender_inclusive;
  to_leaves_.add(std::move(out), repl_.holders(cg.meta().id));
  if (to_leaves_.full(*this, to_leaves_.size())) {
    stats_.seq_batch_frames += to_leaves_.ship(*this);
  }
  CORONA_CHECK_INVARIANTS(cg);
}

void ReplicaServer::coord_handle_resend(const Message& m) {
  Group* cg = authority_.lookup(m.group);
  if (cg == nullptr) {
    if (collecting_hellos_ || pending_fwd_.contains(m.group)) {
      pending_fwd_[m.group].push_back(m);
    }
    return;
  }
  for (const UpdateRecord& orig : m.updates) {
    if (cg->was_seen(orig.sender, orig.request_id)) continue;
    if (!cg->is_member(orig.sender)) continue;
    UpdateRecord rec = orig;
    rec.timestamp = now();
    coord_sequence(*cg, std::move(rec), /*sender_inclusive=*/true);
  }
}

// ---------------------------------------------------------------------------
// Group operations
// ---------------------------------------------------------------------------

// Coordinator op dispatch (fwd_type of forwarded client operations): every
// MsgType must be handled below or waived.
// lint-dispatch: MsgType
// dispatch-ignore: kInvalid -- sentinel; the decoder rejects it upstream
// dispatch-ignore: kBcastState kBcastUpdate -- forwarded as kFwdMulticast
// dispatch-ignore: kReply kJoinReply kMembershipInfo kDeliver -- emitted only
// dispatch-ignore: kLockGrant kLogReduced kGroupDeleted kMembershipNotice --
//   built by the group authority (core/authority.cc)
// dispatch-ignore: kServerHello kHeartbeat kHeartbeatAck -- membership layer
// dispatch-ignore: kServerList kElectionClaim kElectionVote -- election layer
// dispatch-ignore: kCoordAnnounce kResendRequest -- membership layer
void ReplicaServer::coord_handle_group_op(NodeId from, const Message& m) {
  if (!is_coordinator()) return;
  // During a takeover, operations on groups whose state is still being
  // pulled (member re-registrations above all) are held back with the
  // forwarded multicasts and replayed once the pull lands.
  if (m.fwd_type != MsgType::kCreateGroup && !authority_.lookup(m.group) &&
      (collecting_hellos_ || pending_fwd_.contains(m.group))) {
    pending_fwd_[m.group].push_back(m);
    return;
  }
  Relay route(*this, from, m.sender);
  switch (m.fwd_type) {
    case MsgType::kCreateGroup: authority_.on_create(route, m); break;
    case MsgType::kDeleteGroup:
      authority_.on_delete(route, m);
      repl_.drop_group(m.group);  // the group is gone either way
      break;
    case MsgType::kJoin: coord_op_join(route, from, m); break;
    case MsgType::kLeave:
      if (authority_.on_leave(route, m.sender, m)) {
        coord_release_copy(m.group, from);
      }
      break;
    case MsgType::kGetMembership:
      authority_.on_membership_query(route, m);
      break;
    case MsgType::kLockRequest: authority_.on_lock(route, m.sender, m); break;
    case MsgType::kLockRelease: authority_.on_unlock(route, m.sender, m); break;
    case MsgType::kReduceLog: authority_.on_reduce(route, m); break;
    default:
      route.answer(
          make_reply(Status::error(Errc::kInvalidArgument), m.request_id));
      break;
  }
}

void ReplicaServer::coord_op_join(Relay& route, NodeId leaf,
                                  const Message& m) {
  Group* cg = authority_.lookup(m.group);
  if (cg == nullptr) {
    route.answer(make_reply(Status::error(Errc::kNotFound), m.request_id));
    return;
  }
  cg->set_member(m.sender, Member{m.role, m.notify_membership, leaf});
  repl_.add_supporting_server(m.group, leaf);
  coord_maybe_assign_backup(m.group);
  // sender_inclusive marks a silent re-registration after an election.
  if (!m.sender_inclusive) {
    authority_.announce(route, *cg, m.sender, m.role, /*joined=*/true);
  }
}

void ReplicaServer::coord_release_copy(GroupId g, NodeId leaf) {
  const Group* cg = authority_.lookup(g);
  if (cg == nullptr) {  // the group ended with its last member
    coord_maybe_assign_backup(g);
    return;
  }
  // Does the leaf still support members of this group?
  for (const auto& [client, info] : cg->members()) {
    if (info.leaf == leaf) return;
  }
  repl_.remove_supporting_server(g, leaf);
  if (repl_.copy_count(g) >= cfg_.min_copies) {
    // Enough copies without this leaf: release it.
    Message rel;
    rel.type = MsgType::kBackupAssign;
    rel.group = g;
    rel.accept = false;
    send(leaf, rel);
  } else {
    // Keep it as the hot standby.
    repl_.add_backup(g, leaf);
    coord_maybe_assign_backup(g);
  }
}

void ReplicaServer::coord_maybe_assign_backup(GroupId g) {
  if (authority_.lookup(g) == nullptr) {
    repl_.drop_group(g);  // the group has ended
    return;
  }
  // Candidates in startup order, excluding the coordinator itself (its copy
  // is implicit).
  std::vector<NodeId> candidates;
  for (NodeId s : registry_.servers()) {
    if (!(s == id())) candidates.push_back(s);
  }
  if (auto backup = repl_.pick_backup(g, candidates)) {
    repl_.add_backup(g, *backup);
    ++stats_.backups_assigned;
    Message assign;
    assign.type = MsgType::kBackupAssign;
    assign.group = g;
    assign.accept = true;
    send(*backup, assign);
  }
  // Release surplus backups once enough member-driven copies exist.
  for (NodeId surplus : repl_.releasable_backups(g)) {
    repl_.remove_backup(g, surplus);
    Message rel;
    rel.type = MsgType::kBackupAssign;
    rel.group = g;
    rel.accept = false;
    send(surplus, rel);
  }
}

// ---------------------------------------------------------------------------
// State queries (leaf installs, gap fills)
// ---------------------------------------------------------------------------

void ReplicaServer::coord_handle_state_query(NodeId from, const Message& m) {
  const Group* cg = authority_.lookup(m.group);
  if (cg == nullptr) {
    send(from, make_refusal(MsgType::kStateReply, m.group, m.request_id,
                            Status::error(Errc::kNotFound)));
    return;
  }
  if (m.type == MsgType::kRetransmitReq) {
    send(from, make_gap_fill(m, *cg));
    return;
  }
  // The full copy installs a leaf that will support the group.  The asking
  // leaf becomes a copy holder right away so no sequenced multicast is
  // skipped between this reply and the member's join op.
  repl_.add_backup(m.group, from);
  send(from, make_full_copy(cg->meta(), cg->state(), cg->member_list(),
                            m.request_id));
}

// ---------------------------------------------------------------------------
// Takeover after an election (paper §4.2)
// ---------------------------------------------------------------------------

void ReplicaServer::coord_begin_takeover() {
  collecting_hellos_ = false;
  std::map<GroupId, SeqNo> local_heads;
  for (const auto& [g, cg] : authority_.groups()) {
    local_heads.emplace(g, cg.state().head_seq());
  }
  const auto plan = plan_takeover(hello_reports_, local_heads);
  // Operations queued for groups no surviving server knows about are
  // rejected now rather than held forever.
  std::vector<GroupId> unknown;
  for (const auto& [g, queued] : pending_fwd_) {
    if (!authority_.lookup(g) && !plan.contains(g)) unknown.push_back(g);
  }
  for (GroupId g : unknown) {
    for (const Message& m : pending_fwd_[g]) {
      coord_relay(m.origin_server, m.sender,
                  make_reply(Status::error(Errc::kNotFound), m.request_id));
    }
    pending_fwd_.erase(g);
  }
  if (plan.empty()) {
    coord_finish_takeover();
    return;
  }
  for (const auto& [g, directive] : plan) {
    pending_fwd_.try_emplace(g);  // queue multicasts until the pull lands
    Message q;
    q.type = MsgType::kStateQuery;
    q.group = g;
    q.origin_server = id();
    ++stats_.takeover_pulls;
    send(directive.source, q);
  }
}

void ReplicaServer::coord_handle_takeover_state(NodeId from, const Message& m) {
  (void)from;
  if (m.status != Errc::kOk) {
    pending_fwd_.erase(m.group);
    return;
  }
  authority_.install(restore_full_copy(m));
  coord_finish_takeover();
}

void ReplicaServer::coord_finish_takeover() {
  // Replay operations queued for groups whose state has now been installed,
  // in arrival order: re-registrations first restore the membership, then
  // the held multicasts sequence normally.
  std::vector<GroupId> ready;
  for (const auto& [g, queued] : pending_fwd_) {
    if (authority_.lookup(g) != nullptr) ready.push_back(g);
  }
  for (GroupId g : ready) {
    auto queued = std::move(pending_fwd_[g]);
    pending_fwd_.erase(g);
    for (const Message& m : queued) {
      switch (m.type) {
        case MsgType::kFwdMulticast:
          coord_handle_fwd_multicast(m.origin_server, m);
          break;
        case MsgType::kGroupOp:
          coord_handle_group_op(m.origin_server, m);
          break;
        case MsgType::kResendReply:
          coord_handle_resend(m);
          break;
        default:
          break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Flushing
// ---------------------------------------------------------------------------

void ReplicaServer::coord_flush_tick() {
  const std::uint64_t bytes = store_->pending_bytes();
  // Commit-group size is already accounted via pending_bytes above.
  (void)store_->flush();
  if (bytes > 0) rt().disk_write(id(), bytes);
}

// ---------------------------------------------------------------------------
// Partition reconciliation (paper §4.2)
// ---------------------------------------------------------------------------

void ReplicaServer::begin_reconcile(NodeId other_coordinator,
                                    PartitionPolicy policy) {
  assert(is_coordinator() && "reconciliation starts at a coordinator");
  reconcile_ = ReconcileSession{other_coordinator, policy, true, 0};
  Message req;
  req.type = MsgType::kDigestRequest;
  req.origin_server = id();
  send(other_coordinator, req);
}

void ReplicaServer::coord_handle_digest_request(NodeId from, const Message& m) {
  (void)m;
  if (!is_coordinator()) return;
  // Ship, per group: the digest of the retained history plus the branch
  // content itself (base snapshot + records), then a sentinel.
  for (const auto& [g, cg] : authority_.groups()) {
    Message reply = make_full_copy(cg.meta(), cg.state(), cg.member_list());
    reply.type = MsgType::kDigestReply;
    const BranchDigest digest = make_branch_digest(cg.state());
    for (const auto& [seq, hash] : digest.entries) {
      reply.u64s.push_back(seq);
      reply.u64s.push_back(hash);
    }
    send(from, reply);
  }
  Message sentinel;
  sentinel.type = MsgType::kDigestReply;
  sentinel.group = GroupId(0);
  sentinel.epoch = term_;  // lets the initiator out-term this coordinator
  send(from, sentinel);
}

void ReplicaServer::coord_handle_digest_reply(NodeId from, const Message& m) {
  if (!reconcile_.active || !(from == reconcile_.other)) return;
  if (m.group == GroupId(0)) {
    term_ = std::max<std::uint64_t>(term_, m.epoch);  // out-term their epoch
    coord_finish_reconcile();
    return;
  }

  Group* mine = authority_.lookup(m.group);
  if (mine == nullptr) {
    // The group only exists on the other side (created during the
    // partition): adopt it wholesale, no conflict.
    authority_.install(restore_full_copy(m));
    ++stats_.reconciled_groups;
    coord_push_group_state(m.group);
    return;
  }

  // Fork-point discovery from the two digests.
  BranchDigest theirs;
  theirs.base_seq = m.seq;
  for (std::size_t i = 0; i + 1 < m.u64s.size(); i += 2) {
    theirs.entries.emplace_back(m.u64s[i], m.u64s[i + 1]);
  }
  const BranchDigest ours = make_branch_digest(mine->state());
  const auto fork = find_fork_point(ours, theirs);
  // If no fork point is certifiable (reduction trimmed one side beyond the
  // other), fall back to keeping the primary branch untouched.
  if (!fork) {
    ++stats_.reconciled_groups;
    coord_push_group_state(m.group);
    return;
  }

  Branch branch_a = extract_branch(mine->state(), *fork);
  Branch branch_b;
  for (const UpdateRecord& u : m.updates) {
    if (u.seq > *fork) branch_b.updates.push_back(u);
  }
  const bool diverged = !branch_a.updates.empty() || !branch_b.updates.empty();
  if (!diverged) {
    // Identical histories; nothing to merge.
    ++stats_.reconciled_groups;
    return;
  }

  ReconcileOutcome outcome =
      reconcile_branches(m.group, *fork, std::move(branch_a),
                         std::move(branch_b), reconcile_.policy,
                         /*primary_wins=*/true);
  coord_install_merged(m.group, *fork, std::move(outcome.merged_tail));
  if (outcome.split_group) {
    // The secondary branch evolves as a new group seeded with the state at
    // the fork plus its own tail (§4.2 "evolving as two different groups").
    Group split(GroupMeta{*outcome.split_group, mine->meta().name + "/split",
                          mine->meta().persistent});
    split.restore(*fork, state_at(mine->state(), *fork).snapshot(), {});
    for (UpdateRecord& u : outcome.split_tail) split.sequence(u, nullptr);
    authority_.install(std::move(split));
    coord_push_group_state(*outcome.split_group);
  }
  ++stats_.reconciled_groups;
  coord_push_group_state(m.group);
}

void ReplicaServer::coord_install_merged(GroupId g, SeqNo fork,
                                         std::vector<UpdateRecord> tail) {
  // Rewind to the fork and re-sequence the surviving branch after it.
  Group& cg = *authority_.lookup(g);
  cg.state() = state_at(cg.state(), fork);
  cg.set_next_seq(fork + 1);
  for (UpdateRecord& u : tail) cg.sequence(u, nullptr);
  CORONA_CHECK_INVARIANTS(cg);
  store_->install_checkpoint(g, cg.state().base_seq(),
                             cg.state().snapshot_at_base());
}

void ReplicaServer::coord_push_group_state(GroupId g) {
  const Group& cg = *authority_.lookup(g);
  Message push = make_full_copy(cg.meta(), cg.state(), cg.member_list());
  push.accept = true;  // authoritative push: receivers reload
  for (NodeId holder : repl_.holders(g)) {
    if (!(holder == id())) send(holder, push);
  }
  // The other coordinator reloads too and relays to its own holders.
  if (reconcile_.active) send(reconcile_.other, push);
  // This node's own leaf copy reloads as every holder's does.
  leaf_handle_state_reply(push);
}

void ReplicaServer::coord_handle_push(NodeId from, const Message& m) {
  // Authoritative post-reconciliation state from the surviving coordinator:
  // replace our copy (keeping its members), relay to our side's holders,
  // and refresh local members.
  Group cg = restore_full_copy(m);
  if (const Group* old = authority_.lookup(m.group)) {
    for (const auto& [client, info] : old->members()) {
      cg.set_member(client, info);
    }
  }
  const Group& pushed = authority_.install(std::move(cg));
  store_->install_checkpoint(m.group, pushed.state().base_seq(),
                             pushed.state().snapshot_at_base());

  for (NodeId holder : repl_.holders(m.group)) {
    if (!(holder == id()) && !(holder == from)) send(holder, m);
  }
  leaf_handle_state_reply(m);
}

void ReplicaServer::coord_finish_reconcile() {
  reconcile_.active = false;
  term_ = std::max<std::uint64_t>(term_, voted_term_) + 1;
  registry_.set_servers(registry_.servers(), term_);
  // Absorb the other side: a higher-term announce demotes its coordinator,
  // which relays to its leaves; hellos and re-registrations rebuild the
  // global membership here.
  collecting_hellos_ = true;
  hello_reports_.clear();
  set_timer(cfg_.takeover_window, kTakeoverTimer);
  send(reconcile_.other, make_coord_announce(id(), term_));
  for (NodeId s : registry_.servers()) {
    if (s == id()) continue;
    send(s, make_coord_announce(id(), term_));
  }
}

}  // namespace corona
