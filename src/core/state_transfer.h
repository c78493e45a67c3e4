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
#pragma once

#include <map>
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
// Loads a full copy into `state` and returns its metadata; the member list
// is left to the caller, since only a leaf's fresh copy reads it.
GroupMeta install_full_copy(const Message& copy, SharedState& state);
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

}  // namespace corona
