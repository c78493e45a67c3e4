// Leaf-side logic, message routing, and the election protocol.
// Coordinator-side logic lives in coordinator.cc.
#include "replica/replica_server.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace corona {

ReplicaServer::ReplicaServer(ReplicaConfig cfg,
                             std::vector<NodeId> startup_servers,
                             GroupStore* store,
                             SessionManager* session_manager)
    : cfg_(cfg),
      registry_(std::move(startup_servers)),
      session_(session_manager),
      to_leaves_(cfg.batch_max_msgs, cfg.batch_max_delay, kCoordBatchTimer),
      to_clients_(cfg.batch_max_msgs, cfg.batch_max_delay, kLeafBatchTimer),
      coord_fd_(cfg.fd_timeout),
      repl_(cfg.min_copies),
      leaf_fd_(cfg.fd_timeout),
      owned_store_(store == nullptr ? std::make_unique<GroupStore>() : nullptr),
      store_(store != nullptr ? store : owned_store_.get()),
      authority_(store_) {
  assert(!registry_.servers().empty());
  coordinator_ = registry_.servers().front();
}

ReplicaServer::~ReplicaServer() = default;

void ReplicaServer::on_start() {
  if (registry_.servers().front() == id()) {
    become_coordinator(1);
  } else {
    adopt_coordinator(registry_.servers().front(), 1);
  }
  set_timer(cfg_.fd_timeout / 2, kCoordCheckTimer);
}

std::vector<GroupHead> ReplicaServer::local_group_heads() const {
  std::vector<GroupHead> heads;
  heads.reserve(local_.size());
  for (const auto& [g, lg] : local_) {
    heads.push_back(GroupHead{g, lg.copy.state.head_seq()});
  }
  return heads;
}

void ReplicaServer::adopt_coordinator(NodeId coord, std::uint64_t term) {
  role_ = Role::kLeaf;
  coordinator_ = coord;
  term_ = std::max<std::uint64_t>(term_, term);
  coord_fd_.unwatch(coordinator_);
  coord_fd_.watch(coordinator_, now());
  tally_.finish();

  if (coord == id()) return;
  // Register with the coordinator and report held state copies (used for
  // coordinator takeover pulls).
  Message hello;
  hello.type = MsgType::kServerHello;
  hello.epoch = term_;
  hello.u64s = encode_group_heads(local_group_heads());
  send(coordinator_, hello);

  for (const auto& [g, lg] : local_) reregister_members(g, lg);
}

void ReplicaServer::reregister_members(GroupId g, const LocalGroup& lg) {
  // The sender_inclusive flag marks a silent re-registration: no membership
  // notices are broadcast for it.
  for (const auto& [client, info] : lg.local_members) {
    Message op;
    op.type = MsgType::kGroupOp;
    op.fwd_type = MsgType::kJoin;
    op.group = g;
    op.sender = client;
    op.origin_server = id();
    op.role = info.role;
    op.notify_membership = info.notify;
    op.sender_inclusive = true;  // silent
    send(coordinator_, op);
  }
}

const SharedState* ReplicaServer::local_state(GroupId g) const {
  auto it = local_.find(g);
  return it != local_.end() ? &it->second.copy.state : nullptr;
}

const SharedState* ReplicaServer::coord_state(GroupId g) const {
  const Group* cg = authority_.lookup(g);
  return cg != nullptr ? &cg->state() : nullptr;
}

std::vector<NodeId> ReplicaServer::coord_holders(GroupId g) const {
  return repl_.holders(g);
}

// ---------------------------------------------------------------------------
// Routing
// ---------------------------------------------------------------------------

// Replica dispatch surface: every MsgType must be handled below or waived.
// lint-dispatch: MsgType
// dispatch-ignore: kInvalid -- sentinel; the decoder rejects it upstream
// dispatch-ignore: kReply kDeliver kMembershipInfo -- emitted to clients only
// dispatch-ignore: kResendRequest -- sent to clients, handled client-side
// dispatch-ignore: kLockGrant -- reaches clients inside a relayed
//   kGroupOpResult, built by the group authority (core/authority.cc)
void ReplicaServer::on_message(NodeId from, const Message& m) {
  if (from == coordinator_) coord_fd_.heard_from(from, now());
  if (is_coordinator()) leaf_fd_.heard_from(from, now());
  // Authorized where the client is connected: a join is answered from this
  // leaf's copy before the coordinator hears of it.
  if (Status s = authorize_request(session_, from, m); !s) {
    send(from, make_denial(m, std::move(s)));
    return;
  }

  switch (m.type) {
    // ---- client protocol (leaf side) ----
    case MsgType::kJoin: leaf_handle_join(from, m); break;
    case MsgType::kLeave: leaf_handle_leave(from, m); break;
    case MsgType::kBcastState:
    case MsgType::kBcastUpdate: leaf_handle_bcast(from, m); break;
    // Coordinator decisions, forwarded verbatim:
    case MsgType::kCreateGroup:
    case MsgType::kDeleteGroup:
    case MsgType::kLockRequest:
    case MsgType::kLockRelease:
    case MsgType::kReduceLog: forward_group_op(from, m); break;
    case MsgType::kGetMembership: {
      // From this leaf's copy; a leaf without one asks the coordinator.
      auto it = local_.find(m.group);
      if (it == local_.end()) {
        forward_group_op(from, m);
        break;
      }
      send(from, make_membership_info(m.group, m.request_id,
                                      member_list(it->second.copy.members)));
      break;
    }
    case MsgType::kRetransmitReq: {
      // From a peer server: serve from the coordinator's authoritative copy.
      // From a client: serve a local member's gap from the leaf copy.
      if (is_coordinator() && registry_.contains(from)) {
        coord_handle_state_query(from, m);
        break;
      }
      auto it = local_.find(m.group);
      if (it == local_.end() || !it->second.local_members.contains(from)) {
        send(from, make_reply(Status::error(Errc::kNotMember), m.request_id));
        break;
      }
      send(from, make_gap_fill(m, it->second.copy.state));
      break;
    }
    case MsgType::kResendReply: {
      // Client-side crash recovery resend: route to the sequencer.  A client
      // resends only its own multicasts, so records naming another sender
      // are dropped here, where the resending client is known; peer servers
      // relay resends that were filtered this way already.
      Message fwd = m;
      if (!registry_.contains(from)) {
        fwd.updates = own_records(std::move(fwd.updates), from);
      }
      if (is_coordinator()) {
        coord_handle_resend(fwd);
      } else {
        fwd.origin_server = id();
        send(coordinator_, fwd);
      }
      break;
    }

    // ---- inter-server protocol ----
    case MsgType::kServerHello: coord_handle_hello(from, m); break;
    case MsgType::kFwdMulticast: coord_handle_fwd_multicast(from, m); break;
    case MsgType::kGroupOp: coord_handle_group_op(from, m); break;
    case MsgType::kGroupOpResult:
      // The coordinator's answer to a client of this leaf, sent on unchanged.
      if (Result<Message> answer = Message::decode(m.payload)) {
        send(m.sender, answer.value());
      } else {
        LOG_WARN("replica", "dropped an undecodable answer for client ",
                 m.sender.value, ": ", answer.status());
      }
      break;
    case MsgType::kSeqMulticast: leaf_handle_seq_multicast(m); break;
    case MsgType::kStateQuery: {
      if (is_coordinator() && authority_.lookup(m.group) != nullptr) {
        coord_handle_state_query(from, m);
      } else if (local_.contains(m.group)) {
        // Takeover pull served from a leaf copy.
        const LocalGroup& lg = local_.at(m.group);
        send(from, make_full_copy(lg.meta, lg.copy.state,
                                  member_list(lg.copy.members),
                                  m.request_id));
      } else {
        send(from, make_refusal(MsgType::kStateReply, m.group, m.request_id,
                                Status::error(Errc::kNotFound)));
      }
      break;
    }
    case MsgType::kStateReply: {
      if (is_coordinator() && m.accept) {
        // Authoritative post-reconciliation push from the other coordinator.
        coord_handle_push(from, m);
      } else if (is_coordinator() && pending_fwd_.contains(m.group)) {
        // Reply to a takeover pull (coord_begin_takeover marked the group).
        coord_handle_takeover_state(from, m);
      } else {
        // Leaf-side install / gap fill — also on a coordinator that serves
        // local clients of its own.
        leaf_handle_state_reply(m);
      }
      break;
    }
    case MsgType::kHeartbeat: {
      if (from == coordinator_) {
        send(from, make_heartbeat_ack(m.epoch));
      } else if (m.epoch > term_ && !is_coordinator()) {
        // A healed partition surfaced a coordinator with a newer term.
        adopt_coordinator(from, m.epoch);
        send(from, make_heartbeat_ack(m.epoch));
      }
      break;
    }
    case MsgType::kHeartbeatAck: coord_handle_heartbeat_ack(from, m); break;
    case MsgType::kServerList:
      registry_.set_servers(m.nodes, m.epoch);
      break;
    case MsgType::kElectionClaim: handle_claim(from, m); break;
    case MsgType::kElectionVote: handle_vote(from, m); break;
    case MsgType::kCoordAnnounce: handle_announce(from, m); break;
    case MsgType::kBackupAssign: {
      if (m.accept) {
        if (!local_.contains(m.group)) leaf_request_state(m.group);
      } else {
        // Copy released: no local members and enough copies elsewhere.
        auto it = local_.find(m.group);
        if (it != local_.end() && it->second.local_members.empty()) {
          local_.erase(it);
        }
      }
      break;
    }
    case MsgType::kGroupDeleted: leaf_handle_group_deleted(m); break;
    case MsgType::kLogReduced: leaf_handle_log_reduced(m); break;
    case MsgType::kMembershipNotice: leaf_handle_notice(m); break;
    case MsgType::kDigestRequest: coord_handle_digest_request(from, m); break;
    case MsgType::kDigestReply: coord_handle_digest_reply(from, m); break;
    default:
      LOG_WARN("replica", "unexpected ", msg_type_name(m.type), " at ",
               id().value);
      break;
  }
}

void ReplicaServer::on_timer(std::uint64_t tag) {
  switch (tag) {
    case kHeartbeatTimer:
      if (is_coordinator()) {
        coord_heartbeat_tick();
        set_timer(cfg_.heartbeat_interval, kHeartbeatTimer);
      }
      break;
    case kCoordCheckTimer:
      if (!is_coordinator()) leaf_check_coordinator();
      set_timer(cfg_.fd_timeout / 2, kCoordCheckTimer);
      break;
    case kElectionTimer:
      if (tally_.in_progress()) {
        // Quorum over responders: in a partition only same-side servers can
        // answer, which is what lets both subsets "evolve separately"
        // (§4.2).  Any nack aborts (the coordinator is alive somewhere), and
        // winning needs at least one positive witness besides the claimant
        // itself — unless the claimant genuinely is the only server left —
        // so that slow links alone can never usurp a live coordinator.
        const std::size_t responders = tally_.acks() + tally_.nacks() + 1;
        const bool alone = registry_.size() <= 2;  // self + dead coordinator
        if (tally_.nacks() == 0 && tally_.acks() + 1 > responders / 2 &&
            (tally_.acks() >= 1 || alone)) {
          become_coordinator(tally_.epoch());
        }
        tally_.finish();
      }
      break;
    case kTakeoverTimer:
      if (is_coordinator()) coord_begin_takeover();
      break;
    case kFlushTimer:
      if (is_coordinator()) {
        coord_flush_tick();
        set_timer(cfg_.flush_interval, kFlushTimer);
      }
      break;
    case kCoordBatchTimer:
      to_leaves_.timer_fired();
      stats_.seq_batch_frames += to_leaves_.ship(*this);
      break;
    case kLeafBatchTimer:
      to_clients_.timer_fired();
      stats_.fanout_batch_frames += to_clients_.ship(*this);
      break;
    default:
      break;
  }
}

// ---------------------------------------------------------------------------
// Leaf: joins and state transfer
// ---------------------------------------------------------------------------

void ReplicaServer::leaf_request_state(GroupId g) {
  if (!awaiting_state_.insert(g).second) return;
  Message q;
  q.type = MsgType::kStateQuery;
  q.group = g;
  q.origin_server = id();
  ++stats_.state_pulls;
  send(coordinator_, q);
}

void ReplicaServer::leaf_handle_join(NodeId from, const Message& m) {
  auto it = local_.find(m.group);
  if (it == local_.end()) {
    pending_joins_[m.group].emplace_back(from, m);
    leaf_request_state(m.group);
    return;
  }
  leaf_serve_join(it->second, from, m);
}

void ReplicaServer::leaf_serve_join(LocalGroup& lg, NodeId client,
                                    const Message& m) {
  if (lg.local_members.contains(client)) {
    send(client, make_refusal(MsgType::kJoinReply, m.group, m.request_id,
                              Status::error(Errc::kAlreadyExists,
                                            "already a member")));
    return;
  }
  lg.local_members[client] = LocalMember{m.role, m.notify_membership};
  lg.copy.members[client] = m.role;

  // Local-first join (§4.1): served entirely from the leaf's copy, without
  // involving the existing members or waiting for the coordinator.
  send(client, make_join_reply(m.group, m.request_id,
                               build_transfer(lg.copy.state, m.policy),
                               member_list(lg.copy.members)));

  forward_group_op(client, m);
}

void ReplicaServer::forward_group_op(NodeId client, const Message& m) {
  Message op = m;
  op.type = MsgType::kGroupOp;
  op.fwd_type = m.type;
  op.sender = client;
  op.origin_server = id();
  send(coordinator_, op);
}

void ReplicaServer::leaf_handle_leave(NodeId from, const Message& m) {
  auto it = local_.find(m.group);
  if (it == local_.end() || !it->second.local_members.contains(from)) {
    send(from, make_reply(Status::error(Errc::kNotMember), m.request_id));
    return;
  }
  it->second.local_members.erase(from);
  it->second.copy.members.erase(from);
  send(from, make_reply(Status::ok(), m.request_id));
  forward_group_op(from, m);
}

void ReplicaServer::leaf_handle_bcast(NodeId from, const Message& m) {
  auto it = local_.find(m.group);
  if (it == local_.end() || !it->second.local_members.contains(from)) {
    send(from, make_reply(Status::error(Errc::kNotMember), m.request_id));
    return;
  }
  Message fwd = m;
  fwd.type = MsgType::kFwdMulticast;
  fwd.fwd_type = m.type;
  fwd.sender = from;
  fwd.origin_server = id();
  ++stats_.forwarded;
  send(coordinator_, fwd);
}

// ---------------------------------------------------------------------------
// Leaf: sequenced multicast fan-out
// ---------------------------------------------------------------------------

void ReplicaServer::leaf_handle_seq_multicast(const Message& m) {
  auto it = local_.find(m.group);
  if (it == local_.end()) return;  // copy released; stale fan-out
  LocalGroup& lg = it->second;

  switch (lg.copy.place(m.seq)) {
    case GroupCopy::Place::kStale: return;  // duplicate
    case GroupCopy::Place::kAhead:
      if (std::optional<Message> req = lg.copy.ask(m.group, m.seq, now())) {
        req->origin_server = id();
        send(coordinator_, *req);
      }
      return;
    case GroupCopy::Place::kApply: break;
  }
  const UpdateRecord rec = record_of(m);
  rt().charge_cpu(id(), apply_cpu_cost(rec));
  leaf_apply_and_fanout(lg, rec, m.sender_inclusive, m.sender);
}

void ReplicaServer::leaf_apply_and_fanout(LocalGroup& lg,
                                          const UpdateRecord& rec,
                                          bool sender_inclusive,
                                          NodeId origin) {
  // The record is applied immediately (ordering and gap detection are
  // per-message); only the kDeliver frames coalesce, one run per client.
  lg.copy.state.apply(rec);
  std::vector<NodeId> recipients;
  recipients.reserve(lg.local_members.size());
  for (const auto& [member, info] : lg.local_members) {
    if (sender_inclusive || !(member == origin)) recipients.push_back(member);
  }
  stats_.fanout_deliveries += recipients.size();
  to_clients_.add(make_deliver(lg.meta.id, rec), std::move(recipients));
  if (to_clients_.full(*this, to_clients_.size())) {
    stats_.fanout_batch_frames += to_clients_.ship(*this);
  }
}

// ---------------------------------------------------------------------------
// Leaf: state replies (installs, gap fills, authoritative pushes)
// ---------------------------------------------------------------------------

void ReplicaServer::leaf_handle_state_reply(const Message& m) {
  const GroupId g = m.group;

  if (m.status != Errc::kOk) {
    awaiting_state_.erase(g);
    // Reject any joins waiting on this group.
    auto pit = pending_joins_.find(g);
    if (pit != pending_joins_.end()) {
      for (auto& [client, join] : pit->second) {
        send(client, make_refusal(MsgType::kJoinReply, g, join.request_id,
                                  Status::error(m.status)));
      }
      pending_joins_.erase(pit);
    }
    return;
  }

  auto it = local_.find(g);
  if (it == local_.end()) {
    if (m.accept) return;  // a push for a copy this leaf does not hold
    // Fresh install for pending joins / backup assignment.  The copy's
    // member list is the leaf's global view: notices for members that
    // joined before the copy arrived were dropped here.
    awaiting_state_.erase(g);
    LocalGroup& lg = local_[g];
    lg.meta = GroupMeta{g, m.text, m.persistent};
    lg.copy.reload(m);
    lg.copy.set_members(m.members);
    auto pit = pending_joins_.find(g);
    if (pit != pending_joins_.end()) {
      auto joins = std::move(pit->second);
      pending_joins_.erase(pit);
      for (auto& [client, join] : joins) leaf_serve_join(lg, client, join);
    }
    return;
  }

  LocalGroup& lg = it->second;
  if (m.accept) {
    lg.copy.reload(m);  // authoritative push (partition reconciliation)
  } else if (!lg.copy.fill(m)) {
    // Gap fill: apply the missing records in order and fan them out.
    for (const UpdateRecord& u : m.updates) {
      if (lg.copy.place(u.seq) == GroupCopy::Place::kApply) {
        leaf_apply_and_fanout(lg, u, /*sender_inclusive=*/true, u.sender);
      }
    }
    return;
  }
  // The copy was replaced wholesale, by a push or by a gap fill whose range
  // was reduced away at the coordinator; its members keep their place.
  // Queued deliveries must not arrive after a snapshot that supersedes them.
  lg.meta = GroupMeta{g, m.text, m.persistent};
  stats_.fanout_batch_frames += to_clients_.ship(*this);
  const Message push = make_member_resync(g, 0, lg.copy.state);
  for (const auto& [member, info] : lg.local_members) {
    send(member, push);
  }
}

// ---------------------------------------------------------------------------
// Leaf: notifications from the coordinator
// ---------------------------------------------------------------------------

void ReplicaServer::leaf_handle_notice(const Message& m) {
  auto it = local_.find(m.group);
  if (it == local_.end()) return;
  LocalGroup& lg = it->second;
  lg.copy.note(m);
  for (const auto& [member, info] : lg.local_members) {
    if (info.notify && !(member == m.sender)) send(member, m);
  }
}

void ReplicaServer::leaf_handle_group_deleted(const Message& m) {
  auto it = local_.find(m.group);
  if (it == local_.end()) return;
  Message note;
  note.type = MsgType::kGroupDeleted;
  note.group = m.group;
  for (const auto& [member, info] : it->second.local_members) {
    send(member, note);
  }
  local_.erase(it);
  pending_joins_.erase(m.group);
  awaiting_state_.erase(m.group);
}

void ReplicaServer::leaf_handle_log_reduced(const Message& m) {
  auto it = local_.find(m.group);
  if (it != local_.end()) it->second.copy.state.reduce_to(m.seq);
}

// ---------------------------------------------------------------------------
// Election (paper §4.2)
// ---------------------------------------------------------------------------

void ReplicaServer::leaf_check_coordinator() {
  if (tally_.in_progress()) return;
  // Position among the non-coordinator servers determines the staged
  // timeout: first-in-list claims after t, second after 2t, ...
  std::size_t position = 0;
  for (NodeId s : registry_.servers()) {
    if (s == coordinator_) continue;
    if (s == id()) break;
    ++position;
  }
  const Duration silence = coord_fd_.silence(coordinator_, now());
  if (silence > claim_delay(position, cfg_.fd_timeout)) {
    start_claim();
  }
}

void ReplicaServer::start_claim() {
  const std::uint64_t claim_term = std::max<std::uint64_t>(term_, voted_term_) + 1;
  const std::size_t remaining =
      registry_.size() - (registry_.contains(coordinator_) ? 1 : 0);
  tally_.start(claim_term, remaining);
  voted_term_ = claim_term;
  ++stats_.elections_started;
  LOG_INFO("election", "server ", id().value, " claims term ", claim_term);
  for (NodeId s : registry_.servers()) {
    if (s == id()) continue;
    send(s, make_election_claim(id(), claim_term));
  }
  set_timer(cfg_.election_window, kElectionTimer);
}

void ReplicaServer::handle_claim(NodeId from, const Message& m) {
  bool accept;
  if (is_coordinator()) {
    // "If the first server wrongfully assumes that the coordinator is down,
    // (some of) the other servers will notice this and will respond with a
    // nack" — the strongest such witness is the coordinator itself.
    accept = false;
  } else if (m.epoch <= voted_term_ || m.epoch <= term_) {
    accept = false;
  } else {
    accept = coord_fd_.is_suspect(coordinator_, now());
    if (accept) voted_term_ = m.epoch;
  }
  send(from, make_election_vote(m.epoch, accept));
}

void ReplicaServer::handle_vote(NodeId from, const Message& m) {
  if (!tally_.in_progress()) return;
  tally_.vote(m.epoch, from, m.accept);
  if (tally_.won()) {
    const std::uint64_t t = tally_.epoch();
    tally_.finish();
    become_coordinator(t);
  } else if (tally_.lost()) {
    tally_.finish();
  }
}

void ReplicaServer::handle_announce(NodeId from, const Message& m) {
  if (m.epoch < term_) return;  // stale
  if (is_coordinator() && !(from == id())) {
    // A coordinator with a newer term absorbs this one (post-partition
    // healing): demote, relay the announce to our side's servers so they
    // follow, and re-register as a leaf.
    if (m.epoch > term_) {
      std::vector<NodeId> my_side = registry_.servers();
      authority_.forget_all();
      role_ = Role::kLeaf;
      adopt_coordinator(m.sender, m.epoch);
      for (NodeId s : my_side) {
        if (!(s == id()) && !(s == m.sender)) send(s, m);
      }
    }
    return;
  }
  if (!(coordinator_ == m.sender) || m.epoch > term_) {
    adopt_coordinator(m.sender, m.epoch);
  }
}

}  // namespace corona
