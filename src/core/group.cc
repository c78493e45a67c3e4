#include "core/group.h"

namespace corona {

bool Group::add_member(NodeId node, MemberRole role, bool wants_notices) {
  return members_.emplace(node, Member{role, wants_notices, NodeId{}}).second;
}

std::vector<std::pair<ObjectId, NodeId>> Group::remove_member(NodeId node) {
  if (members_.erase(node) == 0) return {};
  return locks_.drop_member(node);
}

std::vector<MemberInfo> Group::member_list() const {
  std::vector<MemberInfo> out;
  out.reserve(members_.size());
  for (const auto& [node, m] : members_) {
    out.push_back(MemberInfo{node, m.role});
  }
  return out;
}

std::vector<NodeId> Group::notice_subscribers(NodeId except) const {
  std::vector<NodeId> out;
  for (const auto& [node, m] : members_) {
    if (m.wants_membership_notices && !(node == except)) out.push_back(node);
  }
  return out;
}

void Group::sequence(UpdateRecord& rec, GroupStore* log) {
  rec.seq = next_seq_++;
  mark_seen(rec.sender, rec.request_id);
  state_.apply(rec);
  if (log != nullptr) log->append_update(meta_.id, rec);
}

void Group::restore(SeqNo base_seq, const std::vector<StateEntry>& snapshot,
                    const std::vector<UpdateRecord>& updates) {
  state_.load(base_seq, snapshot, updates);
  seen_.clear();
  for (const UpdateRecord& u : updates) mark_seen(u.sender, u.request_id);
  next_seq_ = state_.head_seq() + 1;
  CORONA_CHECK_INVARIANTS(*this);
}

InvariantReport Group::check_invariants() const {
  InvariantReport rep;
  rep.merge(state_.check_invariants());
  rep.merge(locks_.check_invariants());
  if (next_seq_ != state_.head_seq() + 1) {
    rep.fail("Group: next_seq " + std::to_string(next_seq_) +
             " != head_seq+1 " + std::to_string(state_.head_seq() + 1));
  }
  if (const SeqNo gap = state_.first_gap(); gap != 0) {
    rep.fail("Group: history gap at seq " + std::to_string(gap));
  }
  for (const auto& [obj, node] : locks_.all_holders()) {
    if (!is_member(node)) {
      rep.fail("Group: lock holder node:" + std::to_string(node.value) +
               " for obj:" + std::to_string(obj.value) + " is not a member");
    }
  }
  for (const auto& [obj, node] : locks_.all_waiters()) {
    if (!is_member(node)) {
      rep.fail("Group: lock waiter node:" + std::to_string(node.value) +
               " for obj:" + std::to_string(obj.value) + " is not a member");
    }
  }
  return rep;
}

}  // namespace corona
