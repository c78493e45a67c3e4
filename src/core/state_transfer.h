// The client front end (paper §3.2): every reply that carries group state
// or membership.  The single server, the star's leaves and its coordinator
// all build them here, so each decision lives in one place.
//
// Customized state transfer: "the client may request either to receive the
// whole state of the group or the latest n updates to the state (for
// incremental updates).  It may also request to be transferred only the
// state of certain objects in the shared state of the group."
// build_transfer() turns a TransferPolicySpec plus the group's SharedState
// into the content of a kJoinReply: a snapshot (consolidated object streams)
// and/or a run of update records, with the base sequence number the client
// should consider itself synchronized to.
//
// kStateReply has two forms.  The member resync is the consolidated state at
// the head, which a member reloads wholesale.  The full copy is what a
// server installs: metadata, the snapshot at base_seq, the retained history
// (a leaf copy serves last-n joins from it) and the member list.
//
// GroupCopy is the side that takes these replies: a member's replica and a
// leaf server's copy follow the sequenced stream through it.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "core/group.h"
#include "core/shared_state.h"
#include "serial/message.h"

namespace corona {

struct TransferContent {
  SeqNo base_seq = 0;  // client is synchronized to this seq after applying
  std::vector<StateEntry> snapshot;
  std::vector<UpdateRecord> updates;

  std::size_t total_bytes() const;
};

TransferContent build_transfer(const SharedState& state,
                               const TransferPolicySpec& policy);

// A kJoinReply carrying `content` (moved in) and the member list.
Message make_join_reply(GroupId g, RequestId rid, TransferContent content,
                        std::vector<MemberInfo> members);
// A status-only answer of `type`: a refused join, an unknown group's state.
Message make_refusal(MsgType type, GroupId g, RequestId rid, Status s);
Message make_membership_info(GroupId g, RequestId rid,
                             std::vector<MemberInfo> members);
// The member list of a leaf's (or the stateless server's) role map.
std::vector<MemberInfo> member_list(const std::map<NodeId, MemberRole>& roles);

Message make_member_resync(GroupId g, RequestId rid, const SharedState& state);
Message make_full_copy(const GroupMeta& meta, const SharedState& state,
                       std::vector<MemberInfo> members, RequestId rid = 0);
// Rebuilds a coordinator's group from a full copy.  Its membership comes
// back separately, from the leaves' re-registrations.
Group restore_full_copy(const Message& copy);

// Answers a gap fill (kRetransmitReq) for the records [req.seq, req.seq2]
// (seq 0: from the first record held; seq2 0: up to the head).  When log
// reduction folded the start of the range into the base snapshot
// (req.seq <= base_seq, base_seq > 0), a member gets the member resync
// instead, and a peer server asking the coordinator's `group` gets the full
// copy, because its copy must keep a history.
Message make_gap_fill(const Message& req, const SharedState& state);
Message make_gap_fill(const Message& req, const Group& group);

// A client resends only its own multicasts: keeps the records that name
// `client` as their sender and drops the forged rest.
std::vector<UpdateRecord> own_records(std::vector<UpdateRecord> records,
                                      NodeId client);

// A follower's copy of a group (§3.1, §4.1): a member's replica, or a leaf
// server's copy.  It applies the sequencer's records in order: the next
// expected seq is always state.head_seq() + 1.  A record ahead of it opens
// one gap ask (kRetransmitReq); the ask stays open until a fill or a reload
// arrives, and a record ahead that arrives kFillRetry after the open ask
// asks again, since the fill may have been lost with its connection or with
// the server that was asked.
class GroupCopy {
 public:
  enum class Place { kApply, kStale, kAhead };
  static constexpr Duration kFillRetry = 1 * kSecond;

  SharedState state;
  std::map<NodeId, MemberRole> members;  // the group's, as last heard

  Place place(SeqNo seq) const;
  // The ask for [head + 1, upto], or nothing while an ask younger than
  // kFillRetry is open.
  std::optional<Message> ask(GroupId g, SeqNo upto, TimePoint now);
  // Takes a kStateReply and closes the open ask.  A snapshot (a gap reduced
  // away, a member resync) reloads the copy and returns true.  A record fill
  // returns false: the caller then applies, in order, each record of
  // m.updates that place() finds kApply.
  bool fill(const Message& m);
  // Loads m.seq, m.state and m.updates and closes the open ask; `members`
  // is kept.
  void reload(const Message& m);
  void set_members(const std::vector<MemberInfo>& list);
  // A kMembershipNotice: a joined member is added (or its role updated), a
  // departed one removed.
  void note(const Message& notice);

 private:
  std::optional<TimePoint> asked_;  // when the open gap ask went out
};

}  // namespace corona
