#include "core/state_transfer.h"

#include <utility>

namespace corona {

std::size_t TransferContent::total_bytes() const {
  std::size_t n = 0;
  for (const StateEntry& s : snapshot) n += s.data.size();
  for (const UpdateRecord& u : updates) n += u.data.size();
  return n;
}

TransferContent build_transfer(const SharedState& state,
                               const TransferPolicySpec& policy) {
  TransferContent out;
  switch (policy.mode) {
    case TransferMode::kFullState:
      // The consolidated streams already fold in the whole history, so the
      // client is synchronized to the head and needs no update records.
      out.snapshot = state.snapshot();
      break;
    case TransferMode::kObjects:
      out.snapshot = state.snapshot_of(policy.objects);
      break;
    case TransferMode::kLastN:
      out.updates = state.last_n(policy.last_n);
      break;
    case TransferMode::kObjectsLastN:
      out.updates = state.last_n_of(policy.objects, policy.last_n);
      break;
    case TransferMode::kNothing:
      break;
  }
  // A run of records starts right after its base; otherwise the client is
  // synchronized to the head.
  out.base_seq = out.updates.empty() ? state.head_seq()
                                     : out.updates.front().seq - 1;
  return out;
}

Message make_join_reply(GroupId g, RequestId rid, TransferContent content,
                        std::vector<MemberInfo> members) {
  Message m;
  m.type = MsgType::kJoinReply;
  m.group = g;
  m.request_id = rid;
  m.seq = content.base_seq;
  m.state = std::move(content.snapshot);
  m.updates = std::move(content.updates);
  m.members = std::move(members);
  return m;
}

Message make_refusal(MsgType type, GroupId g, RequestId rid, Status s) {
  Message m;
  m.type = type;
  m.group = g;
  m.request_id = rid;
  m.status = s.code;
  m.text = std::move(s.detail);
  return m;
}

Message make_membership_info(GroupId g, RequestId rid,
                             std::vector<MemberInfo> members) {
  Message m;
  m.type = MsgType::kMembershipInfo;
  m.group = g;
  m.request_id = rid;
  m.members = std::move(members);
  return m;
}

std::vector<MemberInfo> member_list(
    const std::map<NodeId, MemberRole>& roles) {
  std::vector<MemberInfo> out;
  out.reserve(roles.size());
  for (const auto& [node, role] : roles) out.push_back(MemberInfo{node, role});
  return out;
}

Message make_member_resync(GroupId g, RequestId rid, const SharedState& state) {
  Message m;
  m.type = MsgType::kStateReply;
  m.group = g;
  m.request_id = rid;
  m.seq = state.head_seq();
  m.state = state.snapshot();
  return m;
}

Message make_full_copy(const GroupMeta& meta, const SharedState& state,
                       std::vector<MemberInfo> members, RequestId rid) {
  Message m;
  m.type = MsgType::kStateReply;
  m.group = meta.id;
  m.request_id = rid;
  m.text = meta.name;
  m.persistent = meta.persistent;
  m.seq = state.base_seq();
  m.state = state.snapshot_at_base();
  m.updates = state.history();
  m.members = std::move(members);
  return m;
}

Group restore_full_copy(const Message& copy) {
  Group group(GroupMeta{copy.group, copy.text, copy.persistent});
  group.restore(copy.seq, copy.state, copy.updates);
  return group;
}

namespace {

bool reduced_away(const SharedState& state, SeqNo from) {
  return from <= state.base_seq() && state.base_seq() > 0;
}

Message make_record_range(const Message& req, const SharedState& state) {
  Message m;
  m.type = MsgType::kStateReply;
  m.group = req.group;
  m.request_id = req.request_id;
  m.seq = state.base_seq();
  m.updates = state.since(req.seq > 0 ? req.seq - 1 : 0);  // 0: every record
  if (req.seq2 != 0) {
    std::erase_if(m.updates,
                  [&req](const UpdateRecord& u) { return u.seq > req.seq2; });
  }
  return m;
}

}  // namespace

Message make_gap_fill(const Message& req, const SharedState& state) {
  if (reduced_away(state, req.seq)) {
    return make_member_resync(req.group, req.request_id, state);
  }
  return make_record_range(req, state);
}

Message make_gap_fill(const Message& req, const Group& group) {
  if (reduced_away(group.state(), req.seq)) {
    return make_full_copy(group.meta(), group.state(), group.member_list(),
                          req.request_id);
  }
  return make_record_range(req, group.state());
}

std::vector<UpdateRecord> own_records(std::vector<UpdateRecord> records,
                                      NodeId client) {
  std::erase_if(records,
                [client](const UpdateRecord& u) { return !(u.sender == client); });
  return records;
}

GroupCopy::Place GroupCopy::place(SeqNo seq) const {
  const SeqNo next = state.head_seq() + 1;
  if (seq < next) return Place::kStale;
  return seq == next ? Place::kApply : Place::kAhead;
}

std::optional<Message> GroupCopy::ask(GroupId g, SeqNo upto, TimePoint now) {
  if (asked_ && now - *asked_ < kFillRetry) return std::nullopt;
  asked_ = now;
  Message req;
  req.type = MsgType::kRetransmitReq;
  req.group = g;
  req.seq = state.head_seq() + 1;
  req.seq2 = upto;
  return req;
}

bool GroupCopy::fill(const Message& m) {
  if (m.state.empty()) {
    asked_.reset();
    return false;
  }
  reload(m);
  return true;
}

void GroupCopy::reload(const Message& m) {
  state.load(m.seq, m.state, m.updates);
  asked_.reset();
}

void GroupCopy::set_members(const std::vector<MemberInfo>& list) {
  members.clear();
  for (const MemberInfo& mi : list) members[mi.node] = mi.role;
}

void GroupCopy::note(const Message& notice) {
  if (notice.accept) {
    members[notice.sender] = notice.role;
  } else {
    members.erase(notice.sender);
  }
}

}  // namespace corona
