#include "serial/message.h"

#include "serial/decoder.h"
#include "serial/encoder.h"

namespace corona {

// Serializer kind list: the wire-name table below must cover every MsgType;
// the dispatch-exhaustiveness lint cross-checks role dispatch against it.
// lint-dispatch: MsgType
const char* msg_type_name(MsgType t) {
  switch (t) {
    case MsgType::kInvalid: return "invalid";
    case MsgType::kCreateGroup: return "create-group";
    case MsgType::kDeleteGroup: return "delete-group";
    case MsgType::kJoin: return "join";
    case MsgType::kLeave: return "leave";
    case MsgType::kGetMembership: return "get-membership";
    case MsgType::kBcastState: return "bcast-state";
    case MsgType::kBcastUpdate: return "bcast-update";
    case MsgType::kLockRequest: return "lock-request";
    case MsgType::kLockRelease: return "lock-release";
    case MsgType::kReduceLog: return "reduce-log";
    case MsgType::kReply: return "reply";
    case MsgType::kJoinReply: return "join-reply";
    case MsgType::kMembershipInfo: return "membership-info";
    case MsgType::kMembershipNotice: return "membership-notice";
    case MsgType::kDeliver: return "deliver";
    case MsgType::kLockGrant: return "lock-grant";
    case MsgType::kLogReduced: return "log-reduced";
    case MsgType::kGroupDeleted: return "group-deleted";
    case MsgType::kServerHello: return "server-hello";
    case MsgType::kFwdMulticast: return "fwd-multicast";
    case MsgType::kSeqMulticast: return "seq-multicast";
    case MsgType::kGroupOp: return "group-op";
    case MsgType::kGroupOpResult: return "group-op-result";
    case MsgType::kHeartbeat: return "heartbeat";
    case MsgType::kHeartbeatAck: return "heartbeat-ack";
    case MsgType::kServerList: return "server-list";
    case MsgType::kElectionClaim: return "election-claim";
    case MsgType::kElectionVote: return "election-vote";
    case MsgType::kCoordAnnounce: return "coord-announce";
    case MsgType::kStateQuery: return "state-query";
    case MsgType::kStateReply: return "state-reply";
    case MsgType::kBackupAssign: return "backup-assign";
    case MsgType::kRetransmitReq: return "retransmit-req";
    case MsgType::kResendRequest: return "resend-request";
    case MsgType::kResendReply: return "resend-reply";
    case MsgType::kDigestRequest: return "digest-request";
    case MsgType::kDigestReply: return "digest-reply";
  }
  return "unknown";
}

namespace {

// Wire schema version; bump on incompatible change.
constexpr std::uint8_t kWireVersion = 1;

void encode_update(Encoder& e, const UpdateRecord& u) {
  e.put_u64(u.seq);
  e.put_u8(static_cast<std::uint8_t>(u.kind));
  e.put_u64(u.object.value);
  e.put_bytes(u.data);
  e.put_u64(u.sender.value);
  e.put_i64(u.timestamp);
  e.put_u64(u.request_id);
}

UpdateRecord decode_update(Decoder& d) {
  UpdateRecord u;
  u.seq = d.get_u64();
  u.kind = d.get_enum(PayloadKind::kUpdate);
  u.object = ObjectId(d.get_u64());
  u.data = d.get_payload();
  u.sender = NodeId(d.get_u64());
  u.timestamp = d.get_i64();
  u.request_id = d.get_u64();
  return u;
}

}  // namespace

Bytes encode_update_record(const UpdateRecord& u) {
  Encoder e;
  encode_update(e, u);
  return e.take();
}

Result<UpdateRecord> decode_update_record(BytesView wire) {
  Decoder d(wire);
  UpdateRecord u = decode_update(d);
  if (!d.ok() || !d.at_end()) {
    return Status::error(Errc::kCorrupt, "bad update record");
  }
  return u;
}

Result<SeqNo> decode_update_seq(BytesView wire) {
  Decoder d(wire);
  const SeqNo seq = d.get_u64();
  if (!d.ok()) return Status::error(Errc::kCorrupt, "bad update seq");
  return seq;
}

Bytes encode_state_entry(const StateEntry& s) {
  Encoder e;
  e.put_u64(s.object.value);
  e.put_bytes(s.data);
  return e.take();
}

Result<StateEntry> decode_state_entry(BytesView wire) {
  Decoder d(wire);
  StateEntry s;
  s.object = ObjectId(d.get_u64());
  s.data = d.get_bytes();
  if (!d.ok() || !d.at_end()) {
    return Status::error(Errc::kCorrupt, "bad state entry");
  }
  return s;
}

Bytes Message::encode() const {
  Encoder e;
  e.put_u8(kWireVersion);
  e.put_u8(static_cast<std::uint8_t>(type));
  e.put_u8(static_cast<std::uint8_t>(fwd_type));
  e.put_u64(group.value);
  e.put_u64(object.value);
  e.put_u64(seq);
  e.put_u64(seq2);
  e.put_u64(sender.value);
  e.put_u64(origin_server.value);
  e.put_u64(epoch);
  e.put_u64(request_id);
  e.put_i64(timestamp);
  e.put_bool(sender_inclusive);
  e.put_bool(persistent);
  e.put_bool(accept);
  e.put_bool(notify_membership);
  e.put_u8(static_cast<std::uint8_t>(kind));
  e.put_u8(static_cast<std::uint8_t>(role));
  e.put_u8(static_cast<std::uint8_t>(status));
  e.put_string(text);
  e.put_bytes(payload);

  e.put_u32(static_cast<std::uint32_t>(state.size()));
  for (const StateEntry& s : state) {
    e.put_u64(s.object.value);
    e.put_bytes(s.data);
  }
  e.put_u32(static_cast<std::uint32_t>(updates.size()));
  for (const UpdateRecord& u : updates) encode_update(e, u);
  e.put_u32(static_cast<std::uint32_t>(members.size()));
  for (const MemberInfo& m : members) {
    e.put_u64(m.node.value);
    e.put_u8(static_cast<std::uint8_t>(m.role));
  }
  e.put_u32(static_cast<std::uint32_t>(nodes.size()));
  for (NodeId n : nodes) e.put_u64(n.value);
  e.put_u32(static_cast<std::uint32_t>(u64s.size()));
  for (std::uint64_t v : u64s) e.put_u64(v);

  e.put_u8(static_cast<std::uint8_t>(policy.mode));
  e.put_u32(policy.last_n);
  e.put_u32(static_cast<std::uint32_t>(policy.objects.size()));
  for (ObjectId o : policy.objects) e.put_u64(o.value);

  return e.take();
}

std::size_t Message::wire_size() const { return encode().size(); }

Result<Message> Message::decode(BytesView wire) {
  Decoder d(wire);
  const std::uint8_t version = d.get_u8();
  if (version != kWireVersion) {
    return Status::error(Errc::kCorrupt, "bad wire version");
  }
  Message m;
  m.type = d.get_enum(MsgType::kDigestReply);
  m.fwd_type = d.get_enum(MsgType::kDigestReply);
  m.group = GroupId(d.get_u64());
  m.object = ObjectId(d.get_u64());
  m.seq = d.get_u64();
  m.seq2 = d.get_u64();
  m.sender = NodeId(d.get_u64());
  m.origin_server = NodeId(d.get_u64());
  m.epoch = d.get_u64();
  m.request_id = d.get_u64();
  m.timestamp = d.get_i64();
  m.sender_inclusive = d.get_bool();
  m.persistent = d.get_bool();
  m.accept = d.get_bool();
  m.notify_membership = d.get_bool();
  m.kind = d.get_enum(PayloadKind::kUpdate);
  m.role = d.get_enum(MemberRole::kObserver);
  m.status = d.get_enum(Errc::kUnavailable);
  m.text = d.get_string();
  m.payload = d.get_payload();

  const std::uint32_t n_state = d.get_u32();
  // Sanity bound: each entry takes >= 2 bytes on the wire.
  if (!d.ok() || n_state > d.remaining()) {
    return Status::error(Errc::kCorrupt, "bad state count");
  }
  m.state.reserve(n_state);
  for (std::uint32_t i = 0; i < n_state && d.ok(); ++i) {
    StateEntry s;
    s.object = ObjectId(d.get_u64());
    s.data = d.get_bytes();
    m.state.push_back(std::move(s));
  }

  const std::uint32_t n_updates = d.get_u32();
  if (!d.ok() || n_updates > d.remaining()) {
    return Status::error(Errc::kCorrupt, "bad update count");
  }
  m.updates.reserve(n_updates);
  for (std::uint32_t i = 0; i < n_updates && d.ok(); ++i) {
    m.updates.push_back(decode_update(d));
  }

  const std::uint32_t n_members = d.get_u32();
  if (!d.ok() || n_members > d.remaining()) {
    return Status::error(Errc::kCorrupt, "bad member count");
  }
  m.members.reserve(n_members);
  for (std::uint32_t i = 0; i < n_members && d.ok(); ++i) {
    MemberInfo mi;
    mi.node = NodeId(d.get_u64());
    mi.role = d.get_enum(MemberRole::kObserver);
    m.members.push_back(mi);
  }

  const std::uint32_t n_nodes = d.get_u32();
  if (!d.ok() || n_nodes > d.remaining()) {
    return Status::error(Errc::kCorrupt, "bad node count");
  }
  m.nodes.reserve(n_nodes);
  for (std::uint32_t i = 0; i < n_nodes && d.ok(); ++i) {
    m.nodes.push_back(NodeId(d.get_u64()));
  }

  const std::uint32_t n_u64s = d.get_u32();
  if (!d.ok() || n_u64s > d.remaining()) {
    return Status::error(Errc::kCorrupt, "bad u64 count");
  }
  m.u64s.reserve(n_u64s);
  for (std::uint32_t i = 0; i < n_u64s && d.ok(); ++i) {
    m.u64s.push_back(d.get_u64());
  }

  m.policy.mode = d.get_enum(TransferMode::kNothing);
  m.policy.last_n = d.get_u32();
  const std::uint32_t n_objs = d.get_u32();
  if (!d.ok() || n_objs > d.remaining() + 1) {
    // +1: the final object id may be the last byte of the buffer.
    return Status::error(Errc::kCorrupt, "bad policy object count");
  }
  m.policy.objects.reserve(n_objs);
  for (std::uint32_t i = 0; i < n_objs && d.ok(); ++i) {
    m.policy.objects.push_back(ObjectId(d.get_u64()));
  }

  if (!d.ok()) return Status::error(Errc::kCorrupt, "truncated message");
  if (!d.at_end()) return Status::error(Errc::kCorrupt, "trailing bytes");
  return m;
}

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

Message make_create_group(GroupId g, std::string name, bool persistent,
                          std::vector<StateEntry> initial_state,
                          RequestId rid) {
  Message m;
  m.type = MsgType::kCreateGroup;
  m.group = g;
  m.text = std::move(name);
  m.persistent = persistent;
  m.state = std::move(initial_state);
  m.request_id = rid;
  return m;
}

Message make_delete_group(GroupId g, RequestId rid) {
  Message m;
  m.type = MsgType::kDeleteGroup;
  m.group = g;
  m.request_id = rid;
  return m;
}

Message make_join(GroupId g, TransferPolicySpec policy, MemberRole role,
                  bool notify_membership, RequestId rid) {
  Message m;
  m.type = MsgType::kJoin;
  m.group = g;
  m.policy = std::move(policy);
  m.role = role;
  m.notify_membership = notify_membership;
  m.request_id = rid;
  return m;
}

Message make_leave(GroupId g, RequestId rid) {
  Message m;
  m.type = MsgType::kLeave;
  m.group = g;
  m.request_id = rid;
  return m;
}

Message make_get_membership(GroupId g, RequestId rid) {
  Message m;
  m.type = MsgType::kGetMembership;
  m.group = g;
  m.request_id = rid;
  return m;
}

Message make_bcast(PayloadKind kind, GroupId g, ObjectId obj,
                   Payload payload, bool sender_inclusive, RequestId rid) {
  Message m;
  m.type = kind == PayloadKind::kState ? MsgType::kBcastState
                                       : MsgType::kBcastUpdate;
  m.kind = kind;
  m.group = g;
  m.object = obj;
  m.payload = std::move(payload);
  m.sender_inclusive = sender_inclusive;
  m.request_id = rid;
  return m;
}

Message make_lock_request(GroupId g, ObjectId obj, RequestId rid) {
  Message m;
  m.type = MsgType::kLockRequest;
  m.group = g;
  m.object = obj;
  m.request_id = rid;
  return m;
}

Message make_lock_release(GroupId g, ObjectId obj, RequestId rid) {
  Message m;
  m.type = MsgType::kLockRelease;
  m.group = g;
  m.object = obj;
  m.request_id = rid;
  return m;
}

Message make_reduce_log(GroupId g, SeqNo upto, RequestId rid) {
  Message m;
  m.type = MsgType::kReduceLog;
  m.group = g;
  m.seq = upto;
  m.request_id = rid;
  return m;
}

Message make_reply(Status s, RequestId rid) {
  Message m;
  m.type = MsgType::kReply;
  m.status = s.code;
  m.text = std::move(s.detail);
  m.request_id = rid;
  return m;
}

Message make_deliver(GroupId g, const UpdateRecord& rec) {
  Message m;
  m.type = MsgType::kDeliver;
  m.group = g;
  m.seq = rec.seq;
  m.kind = rec.kind;
  m.object = rec.object;
  m.payload = rec.data;
  m.sender = rec.sender;
  m.timestamp = rec.timestamp;
  m.request_id = rec.request_id;
  return m;
}

Message make_heartbeat(std::uint64_t epoch) {
  Message m;
  m.type = MsgType::kHeartbeat;
  m.epoch = epoch;
  return m;
}

Message make_heartbeat_ack(std::uint64_t epoch) {
  Message m;
  m.type = MsgType::kHeartbeatAck;
  m.epoch = epoch;
  return m;
}

Message make_server_list(std::uint64_t epoch, std::vector<NodeId> servers) {
  Message m;
  m.type = MsgType::kServerList;
  m.epoch = epoch;
  m.nodes = std::move(servers);
  return m;
}

Message make_election_claim(NodeId candidate, std::uint64_t epoch) {
  Message m;
  m.type = MsgType::kElectionClaim;
  m.sender = candidate;
  m.epoch = epoch;
  return m;
}

Message make_election_vote(std::uint64_t epoch, bool accept) {
  Message m;
  m.type = MsgType::kElectionVote;
  m.epoch = epoch;
  m.accept = accept;
  return m;
}

Message make_coord_announce(NodeId coord, std::uint64_t epoch) {
  Message m;
  m.type = MsgType::kCoordAnnounce;
  m.sender = coord;
  m.epoch = epoch;
  return m;
}

}  // namespace corona
