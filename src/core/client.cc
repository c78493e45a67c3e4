#include "core/client.h"

#include <algorithm>

#include "core/state_transfer.h"
#include "util/logging.h"

namespace corona {

CoronaClient::CoronaClient(NodeId server)
    : CoronaClient(server, Callbacks{}, Config{}) {}

CoronaClient::CoronaClient(NodeId server, Callbacks callbacks)
    : CoronaClient(server, std::move(callbacks), Config{}) {}

CoronaClient::CoronaClient(NodeId server, Callbacks callbacks, Config config)
    : server_(server), cb_(std::move(callbacks)), config_(config) {}

// ---------------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------------

RequestId CoronaClient::create_group(GroupId g, std::string name,
                                     bool persistent,
                                     std::vector<StateEntry> initial_state) {
  RecursiveMutexLock lock(mu_);
  const RequestId rid = next_request();
  send(server_, make_create_group(g, std::move(name), persistent,
                                  std::move(initial_state), rid));
  return rid;
}

RequestId CoronaClient::delete_group(GroupId g) {
  RecursiveMutexLock lock(mu_);
  const RequestId rid = next_request();
  send(server_, make_delete_group(g, rid));
  return rid;
}

RequestId CoronaClient::join(GroupId g, TransferPolicySpec policy,
                             MemberRole role, bool notify_membership) {
  RecursiveMutexLock lock(mu_);
  const RequestId rid = next_request();
  send(server_, make_join(g, std::move(policy), role, notify_membership, rid));
  return rid;
}

RequestId CoronaClient::leave(GroupId g) {
  RecursiveMutexLock lock(mu_);
  const RequestId rid = next_request();
  replicas_.erase(g);
  recent_sends_.erase(g);
  send(server_, make_leave(g, rid));
  return rid;
}

RequestId CoronaClient::get_membership(GroupId g) {
  RecursiveMutexLock lock(mu_);
  const RequestId rid = next_request();
  send(server_, make_get_membership(g, rid));
  return rid;
}

RequestId CoronaClient::bcast_state(GroupId g, ObjectId obj, Payload payload,
                                    bool sender_inclusive) {
  return bcast(PayloadKind::kState, g, obj, std::move(payload),
               sender_inclusive);
}

RequestId CoronaClient::bcast_update(GroupId g, ObjectId obj,
                                     Payload payload, bool sender_inclusive) {
  return bcast(PayloadKind::kUpdate, g, obj, std::move(payload),
               sender_inclusive);
}

RequestId CoronaClient::bcast(PayloadKind kind, GroupId g, ObjectId obj,
                              Payload payload, bool sender_inclusive) {
  RecursiveMutexLock lock(mu_);
  const RequestId rid = next_request();
  // The resend buffer's record and the outgoing message share one buffer.
  UpdateRecord rec;
  rec.kind = kind;
  rec.object = obj;
  rec.data = payload;
  rec.sender = id();
  rec.request_id = rid;
  remember_send(g, std::move(rec));
  send(server_,
       make_bcast(kind, g, obj, std::move(payload), sender_inclusive, rid));
  return rid;
}

RequestId CoronaClient::lock(GroupId g, ObjectId obj) {
  RecursiveMutexLock lock(mu_);
  const RequestId rid = next_request();
  send(server_, make_lock_request(g, obj, rid));
  return rid;
}

RequestId CoronaClient::unlock(GroupId g, ObjectId obj) {
  RecursiveMutexLock lock(mu_);
  const RequestId rid = next_request();
  send(server_, make_lock_release(g, obj, rid));
  return rid;
}

RequestId CoronaClient::reduce_log(GroupId g, SeqNo upto) {
  RecursiveMutexLock lock(mu_);
  const RequestId rid = next_request();
  send(server_, make_reduce_log(g, upto, rid));
  return rid;
}

void CoronaClient::remember_send(GroupId g, UpdateRecord rec) {
  if (config_.resend_buffer == 0) return;
  auto& buf = recent_sends_[g];
  buf.push_back(std::move(rec));
  while (buf.size() > config_.resend_buffer) buf.pop_front();
}

void CoronaClient::resend_recent(GroupId g) {
  RecursiveMutexLock lock(mu_);
  auto it = recent_sends_.find(g);
  if (it == recent_sends_.end() || it->second.empty()) return;
  Message m;
  m.type = MsgType::kResendReply;
  m.group = g;
  m.updates.assign(it->second.begin(), it->second.end());
  send(server_, m);
}

// ---------------------------------------------------------------------------
// Local replica reads
// ---------------------------------------------------------------------------

const SharedState* CoronaClient::group_state(GroupId g) const {
  RecursiveMutexLock lock(mu_);
  auto it = replicas_.find(g);
  return it != replicas_.end() ? &it->second.state : nullptr;
}

std::vector<MemberInfo> CoronaClient::known_members(GroupId g) const {
  RecursiveMutexLock lock(mu_);
  auto it = replicas_.find(g);
  return it != replicas_.end() ? member_list(it->second.members)
                               : std::vector<MemberInfo>{};
}

SeqNo CoronaClient::expected_seq(GroupId g) const {
  RecursiveMutexLock lock(mu_);
  auto it = replicas_.find(g);
  return it != replicas_.end() ? it->second.state.head_seq() + 1 : 0;
}

// ---------------------------------------------------------------------------
// Keepalives
// ---------------------------------------------------------------------------

void CoronaClient::on_start() {
  if (config_.heartbeat_interval > 0) {
    set_timer(config_.heartbeat_interval, /*tag=*/1);
  }
}

void CoronaClient::on_timer(std::uint64_t tag) {
  if (tag != 1) return;
  RecursiveMutexLock lock(mu_);
  send(server_, make_heartbeat(0));
  set_timer(config_.heartbeat_interval, /*tag=*/1);
}

// ---------------------------------------------------------------------------
// Message handling
// ---------------------------------------------------------------------------

// Client dispatch surface: every MsgType must be handled below or waived.
// lint-dispatch: MsgType
// dispatch-ignore: kInvalid -- sentinel; the decoder rejects it upstream
// dispatch-ignore: kCreateGroup kDeleteGroup kJoin kLeave -- sent via make_*
// dispatch-ignore: kGetMembership kBcastState kBcastUpdate -- sent via make_*
// dispatch-ignore: kLockRequest kLockRelease kReduceLog -- sent via make_*
// dispatch-ignore: kHeartbeat -- sent via make_heartbeat, never received
// dispatch-ignore: kRetransmitReq -- sent via GroupCopy::ask, never received
// dispatch-ignore: kServerHello kFwdMulticast kSeqMulticast -- server tier
// dispatch-ignore: kGroupOp kGroupOpResult kHeartbeatAck -- server tier
// dispatch-ignore: kServerList kElectionClaim kElectionVote -- server tier
// dispatch-ignore: kCoordAnnounce kBackupAssign -- server tier
// dispatch-ignore: kDigestRequest kDigestReply -- server tier
void CoronaClient::on_message(NodeId from, const Message& m) {
  RecursiveMutexLock lock(mu_);
  (void)from;
  switch (m.type) {
    case MsgType::kReply:
      if (cb_.on_reply) {
        cb_.on_reply(m.request_id, Status{m.status, m.text});
      }
      break;
    case MsgType::kJoinReply: handle_join_reply(m); break;
    case MsgType::kDeliver: handle_deliver(m); break;
    case MsgType::kStateReply: handle_state_reply(m); break;
    case MsgType::kMembershipInfo: {
      auto it = replicas_.find(m.group);
      if (it != replicas_.end()) it->second.set_members(m.members);
      if (cb_.on_membership_info) cb_.on_membership_info(m.group, m.members);
      break;
    }
    case MsgType::kMembershipNotice: {
      auto it = replicas_.find(m.group);
      if (it != replicas_.end()) it->second.note(m);
      if (cb_.on_membership_change) {
        cb_.on_membership_change(m.group, m.sender, m.role, m.accept);
      }
      break;
    }
    case MsgType::kLockGrant:
      if (cb_.on_lock_granted) cb_.on_lock_granted(m.group, m.object);
      break;
    case MsgType::kGroupDeleted:
      replicas_.erase(m.group);
      recent_sends_.erase(m.group);
      if (cb_.on_group_deleted) cb_.on_group_deleted(m.group);
      break;
    case MsgType::kLogReduced:
      // The local replica's history is not trimmed automatically; clients
      // that mirror the history can react via on_reply-style polling.  The
      // consolidated state is unaffected by reduction.
      if (cb_.on_reply) {
        cb_.on_reply(m.request_id, Status::ok());
      }
      break;
    case MsgType::kResendRequest:
      resend_recent(m.group);
      break;
    case MsgType::kStateQuery: {
      // Peer-transfer donor duty (the §2 ISIS-style baseline): the server
      // asks this member to supply the group state for a joining client.
      auto it = replicas_.find(m.group);
      send(from, it == replicas_.end()
                     ? make_refusal(MsgType::kStateReply, m.group,
                                    m.request_id, Status::error(Errc::kNotFound))
                     : make_member_resync(m.group, m.request_id,
                                          it->second.state));
      break;
    }
    default:
      LOG_WARN("client", "unexpected ", msg_type_name(m.type));
      break;
  }
}

void CoronaClient::handle_join_reply(const Message& m) {
  if (m.status != Errc::kOk) {
    if (cb_.on_joined) cb_.on_joined(m.group, Status{m.status, m.text});
    return;
  }
  GroupCopy& copy = replicas_[m.group];
  copy.reload(m);
  copy.set_members(m.members);
  if (cb_.on_joined) cb_.on_joined(m.group, Status::ok());
}

void CoronaClient::apply_record(GroupId g, GroupCopy& copy,
                                const UpdateRecord& rec) {
  copy.state.apply(rec);
  ++deliveries_received_;
  if (cb_.on_deliver) cb_.on_deliver(g, rec);
}

void CoronaClient::handle_deliver(const Message& m) {
  auto it = replicas_.find(m.group);
  if (it == replicas_.end()) return;  // left the group; stale delivery
  GroupCopy& copy = it->second;
  switch (copy.place(m.seq)) {
    case GroupCopy::Place::kStale: return;  // duplicate
    case GroupCopy::Place::kAhead:
      if (!config_.gap_detection) break;  // test hook: apply it anyway
      ++gaps_detected_;
      // The record is dropped here: the fill's range ends with it, so it is
      // applied in order once the gap before it is filled.
      if (std::optional<Message> req = copy.ask(m.group, m.seq, now())) {
        send(server_, *req);
      }
      return;
    case GroupCopy::Place::kApply: break;
  }
  apply_record(m.group, copy, record_of(m));
}

void CoronaClient::handle_state_reply(const Message& m) {
  auto it = replicas_.find(m.group);
  if (it == replicas_.end() || it->second.fill(m)) return;
  for (const UpdateRecord& u : m.updates) {
    if (it->second.place(u.seq) != GroupCopy::Place::kApply) continue;
    apply_record(m.group, it->second, u);
    // on_deliver may have left the group, which erases its copy.
    it = replicas_.find(m.group);
    if (it == replicas_.end()) return;
  }
}

}  // namespace corona
