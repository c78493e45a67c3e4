// The Corona wire protocol.
//
// One flat `Message` record covers the client<->server protocol (paper §3)
// and the inter-server replication protocol (paper §4).  Fields not used by
// a message type stay at their defaults and cost one varint byte each on the
// wire; payload bytes dominate every interesting message.  Typed factory
// functions below are the supported way to build messages — they make the
// per-type field contracts explicit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/context.h"
#include "util/ids.h"
#include "util/result.h"
#include "util/time.h"

namespace corona {

// ---------------------------------------------------------------------------
// Enums
// ---------------------------------------------------------------------------
// Decoding rejects a byte past an enum's last enumerator (message.cc names
// each bound, Errc's too), so a new enumerator goes last and moves the bound.

enum class MsgType : std::uint8_t {
  kInvalid = 0,

  // -- client -> server (group membership service, §3.2) --
  kCreateGroup,    // group, text=name, persistent, state=initial
  kDeleteGroup,    // group
  kJoin,           // group, policy, role, notify_membership
  kLeave,          // group
  kGetMembership,  // group

  // -- client -> server (group multicast + logging service, §3.2) --
  kBcastState,   // group, object, payload, sender_inclusive, request_id
  kBcastUpdate,  // group, object, payload, sender_inclusive, request_id
  kLockRequest,  // group, object
  kLockRelease,  // group, object
  kReduceLog,    // group, seq = reduce history up to (and including) seq

  // -- server -> client --
  kReply,             // status(+text), request_id: generic ack/error
  kJoinReply,         // group, status, seq=state base seq, state, updates, members
  kMembershipInfo,    // group, members (reply to kGetMembership)
  kMembershipNotice,  // group, sender=who, role, flag joined=true/left=false
  kDeliver,           // group, seq, kind, object, payload, sender, timestamp,
                      //   request_id (sequenced multicast delivery)
  kLockGrant,         // group, object
  kLogReduced,        // group, seq = new base of the update history
  kGroupDeleted,      // group (notification to members of a deleted group)

  // -- server <-> server (replicated service, §4) --
  kServerHello,       // sender=server id: leaf registers with coordinator
  kFwdMulticast,      // leaf -> coordinator: unsequenced client multicast
  kSeqMulticast,      // coordinator -> leaves: sequenced multicast
  kGroupOp,           // leaf -> coordinator: forwarded membership operation
                      //   (uses `fwd_type` for the original MsgType)
  kGroupOpResult,     // coordinator -> leaf: outcome of kGroupOp
  kHeartbeat,         // coordinator <-> servers, epoch
  kHeartbeatAck,      //
  kServerList,        // coordinator -> servers: epoch, nodes
  kElectionClaim,     // candidate -> servers: epoch
  kElectionVote,      // server -> candidate: epoch, accept
  kCoordAnnounce,     // new coordinator -> servers: epoch
  kStateQuery,        // server -> server: group (fetch state it lacks, §4)
  kStateReply,        // group, seq=base, state, updates
  kBackupAssign,      // coordinator -> server: group (hot-standby copy, §4.1)
  kRetransmitReq,     // group, seq..seq2 missing sequenced messages
  kResendRequest,     // server -> client: u64s=request ids to resend (§6)
  kResendReply,       // client -> server: updates (the resent originals)
  kDigestRequest,     // partition healing: group
  kDigestReply,       // group, seq=head, seq2=checkpoint, payload=state hash
};

const char* msg_type_name(MsgType t);

// Kind of a sequenced state message (paper §3.2): bcastState overwrites the
// object, bcastUpdate appends to its history.
enum class PayloadKind : std::uint8_t { kState = 0, kUpdate = 1 };

// Member roles (paper §3.1 footnote: "member roles (principal, observer) are
// used to specify the relationships among members of a group").
enum class MemberRole : std::uint8_t { kPrincipal = 0, kObserver = 1 };

// Join-time state-transfer policies (paper §3.2: whole state, latest n
// updates, or only certain objects).
enum class TransferMode : std::uint8_t {
  kFullState = 0,    // snapshot + full update history
  kLastN = 1,        // snapshot of nothing; only the latest n updates
  kObjects = 2,      // snapshot restricted to the listed objects
  kObjectsLastN = 3, // listed objects + their latest n updates
  kNothing = 4,      // no transfer; future deliveries only
};

// ---------------------------------------------------------------------------
// Compound fields
// ---------------------------------------------------------------------------

// One (object id, byte stream) pair of a shared-state snapshot.
struct StateEntry {
  ObjectId object;
  Bytes data;

  friend bool operator==(const StateEntry&, const StateEntry&) = default;
};

// One sequenced state message, as logged by the service and as shipped in
// join replies / state replies / resends.
struct UpdateRecord {
  SeqNo seq = 0;
  PayloadKind kind = PayloadKind::kUpdate;
  ObjectId object;
  Payload data;
  NodeId sender;
  TimePoint timestamp = 0;
  RequestId request_id = 0;

  friend bool operator==(const UpdateRecord&, const UpdateRecord&) = default;
};

struct MemberInfo {
  NodeId node;
  MemberRole role = MemberRole::kPrincipal;

  friend bool operator==(const MemberInfo&, const MemberInfo&) = default;
};

// Client-specified state transfer policy carried in kJoin.
struct TransferPolicySpec {
  TransferMode mode = TransferMode::kFullState;
  std::uint32_t last_n = 0;          // for kLastN / kObjectsLastN
  std::vector<ObjectId> objects;     // for kObjects / kObjectsLastN

  static TransferPolicySpec full() { return {}; }
  static TransferPolicySpec last_n_updates(std::uint32_t n) {
    return {TransferMode::kLastN, n, {}};
  }
  static TransferPolicySpec objects_only(std::vector<ObjectId> ids) {
    return {TransferMode::kObjects, 0, std::move(ids)};
  }
  static TransferPolicySpec objects_last_n(std::vector<ObjectId> ids,
                                           std::uint32_t n) {
    return {TransferMode::kObjectsLastN, n, std::move(ids)};
  }
  static TransferPolicySpec nothing() {
    return {TransferMode::kNothing, 0, {}};
  }

  friend bool operator==(const TransferPolicySpec&,
                         const TransferPolicySpec&) = default;
};

// Standalone record codecs, shared by the wire protocol and stable storage.
CORONA_HOT_PATH Bytes encode_update_record(const UpdateRecord& u);
Result<UpdateRecord> decode_update_record(BytesView wire);
// The seq of an encoded update record, its first field, read without
// decoding the rest; kCorrupt if no complete seq leads the buffer.
Result<SeqNo> decode_update_seq(BytesView wire);
CORONA_HOT_PATH Bytes encode_state_entry(const StateEntry& s);
Result<StateEntry> decode_state_entry(BytesView wire);

// ---------------------------------------------------------------------------
// Message
// ---------------------------------------------------------------------------

struct Message {
  MsgType type = MsgType::kInvalid;
  MsgType fwd_type = MsgType::kInvalid;  // original type inside kGroupOp
  GroupId group;
  ObjectId object;
  SeqNo seq = 0;
  SeqNo seq2 = 0;
  NodeId sender;         // originating client / claimant / subject of notice
  NodeId origin_server;  // replica routing: which leaf forwarded this
  std::uint64_t epoch = 0;
  RequestId request_id = 0;
  TimePoint timestamp = 0;
  bool sender_inclusive = false;
  bool persistent = false;
  bool accept = false;  // election votes; joined/left flag in notices
  bool notify_membership = false;
  PayloadKind kind = PayloadKind::kUpdate;
  MemberRole role = MemberRole::kPrincipal;
  Errc status = Errc::kOk;
  std::string text;
  Payload payload;
  std::vector<StateEntry> state;
  std::vector<UpdateRecord> updates;
  std::vector<MemberInfo> members;
  std::vector<NodeId> nodes;
  std::vector<std::uint64_t> u64s;
  TransferPolicySpec policy;

  CORONA_HOT_PATH Bytes encode() const;
  // Encoded size in bytes; this is the size the network model charges.
  std::size_t wire_size() const;
  static Result<Message> decode(BytesView wire);

  friend bool operator==(const Message&, const Message&) = default;
};

// ---------------------------------------------------------------------------
// Factories: the supported constructors for each message type.
// ---------------------------------------------------------------------------

Message make_create_group(GroupId g, std::string name, bool persistent,
                          std::vector<StateEntry> initial_state,
                          RequestId rid);
Message make_delete_group(GroupId g, RequestId rid);
Message make_join(GroupId g, TransferPolicySpec policy, MemberRole role,
                  bool notify_membership, RequestId rid);
Message make_leave(GroupId g, RequestId rid);
Message make_get_membership(GroupId g, RequestId rid);
Message make_bcast(PayloadKind kind, GroupId g, ObjectId obj,
                   Payload payload, bool sender_inclusive, RequestId rid);
Message make_lock_request(GroupId g, ObjectId obj, RequestId rid);
Message make_lock_release(GroupId g, ObjectId obj, RequestId rid);
Message make_reduce_log(GroupId g, SeqNo upto, RequestId rid);

Message make_reply(Status s, RequestId rid);
Message make_deliver(GroupId g, const UpdateRecord& rec);
// The record a sequenced message carries: the inverse of make_deliver.
// Inline, because every delivery a member or a leaf applies goes through it.
// heat: waive copy-in-hot-path -- returned by value (NRVO), shares payload
inline UpdateRecord record_of(const Message& m) {
  return UpdateRecord{.seq = m.seq,
                      .kind = m.kind,
                      .object = m.object,
                      .data = m.payload,
                      .sender = m.sender,
                      .timestamp = m.timestamp,
                      .request_id = m.request_id};
}

Message make_heartbeat(std::uint64_t epoch);
Message make_heartbeat_ack(std::uint64_t epoch);
Message make_server_list(std::uint64_t epoch, std::vector<NodeId> servers);
Message make_election_claim(NodeId candidate, std::uint64_t epoch);
Message make_election_vote(std::uint64_t epoch, bool accept);
Message make_coord_announce(NodeId coord, std::uint64_t epoch);

}  // namespace corona
