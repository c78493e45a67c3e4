#include "core/authority.h"

#include <utility>

#include "core/state_transfer.h"
#include "util/invariant.h"
#include "util/logging.h"

namespace corona {

namespace {

void reply(GroupAuthority::Route& route, const Message& req, Status s) {
  route.answer(make_reply(std::move(s), req.request_id));
}

Message lock_grant(GroupId g, ObjectId obj, RequestId rid = 0) {
  Message grant;
  grant.type = MsgType::kLockGrant;
  grant.group = g;
  grant.object = obj;
  grant.request_id = rid;
  return grant;
}

}  // namespace

GroupAuthority::GroupAuthority(GroupStore* store, ReductionFactory reduction)
    : store_(store), reduction_(std::move(reduction)) {}

Group* GroupAuthority::lookup(GroupId g) {
  auto it = groups_.find(g);
  return it != groups_.end() ? &it->second : nullptr;
}

const Group* GroupAuthority::lookup(GroupId g) const {
  auto it = groups_.find(g);
  return it != groups_.end() ? &it->second : nullptr;
}

Group& GroupAuthority::install(Group group) {
  const GroupId g = group.meta().id;
  if (!store_->has_group(g)) {
    store_->create_group(group.meta(), group.state().snapshot_at_base());
  }
  if (reduction_) policies_[g] = reduction_();
  return groups_.insert_or_assign(g, std::move(group)).first->second;
}

void GroupAuthority::recover_from_store() {
  for (const RecoveredGroup& rg : store_->recover()) {
    if (lookup(rg.meta.id) != nullptr) continue;
    if (!rg.meta.persistent) {
      // Left in the store, its image would shadow a later group created on
      // the same id: install() keeps an image the store already has.
      // reach: waive blocking-in-loop-context -- start-up, before any
      // client is served.
      store_->remove_group(rg.meta.id);
      continue;
    }
    Group recovered(rg.meta);
    recovered.restore(rg.base_seq, rg.snapshot, rg.updates);
    // reach: waive blocking-in-loop-context -- every recovered group is
    // already in the store, so install() creates none.
    const Group& group = install(std::move(recovered));
    LOG_INFO("authority", "recovered ", rg.meta.id,
             " head=", group.state().head_seq(),
             " objects=", group.state().object_count());
  }
}

void GroupAuthority::forget_all() {
  groups_.clear();
  policies_.clear();
}

Group* GroupAuthority::existing(Route& route, const Message& req) {
  Group* group = lookup(req.group);
  if (group == nullptr) reply(route, req, Status::error(Errc::kNotFound));
  return group;
}

Group* GroupAuthority::joined(Route& route, NodeId client,
                              const Message& req) {
  Group* group = lookup(req.group);
  if (group != nullptr && group->is_member(client)) return group;
  reply(route, req, Status::error(Errc::kNotMember));
  return nullptr;
}

bool GroupAuthority::on_create(Route& route, const Message& req) {
  if (groups_.contains(req.group)) {
    reply(route, req, Status::error(Errc::kAlreadyExists));
    return false;
  }
  Group group(GroupMeta{req.group, req.text, req.persistent});
  group.state().load(0, req.state);
  install(std::move(group));
  reply(route, req, Status::ok());
  return true;
}

void GroupAuthority::on_delete(Route& route, const Message& req) {
  if (existing(route, req) == nullptr) return;
  dissolve(route, req.group);
  reply(route, req, Status::ok());
}

void GroupAuthority::dissolve(Route& route, GroupId g) {
  // "The shared state of a deleted group is lost."  Every member is told,
  // so no member keeps a replica of a group that no longer exists.
  auto it = groups_.find(g);
  std::vector<NodeId> members;
  for (const auto& [member, info] : it->second.members()) {
    members.push_back(member);
  }
  Message note;
  note.type = MsgType::kGroupDeleted;
  note.group = g;
  route.to_group(it->second, note, members);
  groups_.erase(it);
  policies_.erase(g);
  store_->remove_group(g);
}

bool GroupAuthority::on_leave(Route& route, NodeId client,
                              const Message& req) {
  Group* group = joined(route, client, req);
  if (group == nullptr) return false;
  if (part(route, *group, client)) dissolve(route, req.group);
  return true;
}

void GroupAuthority::drop_lost(
    Route& route, const std::function<bool(NodeId, const Member&)>& lost) {
  std::vector<GroupId> ended;
  for (auto& [gid, group] : groups_) {
    std::vector<NodeId> gone;
    for (const auto& [member, info] : group.members()) {
      if (lost(member, info)) gone.push_back(member);
    }
    bool empty = false;
    for (NodeId member : gone) empty = part(route, group, member);
    if (empty) ended.push_back(gid);
  }
  for (GroupId gid : ended) dissolve(route, gid);
}

bool GroupAuthority::part(Route& route, Group& group, NodeId who) {
  const MemberRole role = group.members().at(who).role;
  // Leaving releases the leaver's locks; queued waiters get grants.
  for (const auto& [obj, grantee] : group.remove_member(who)) {
    route.to_member(group, grantee, lock_grant(group.meta().id, obj));
  }
  announce(route, group, who, role, /*joined=*/false);
  CORONA_CHECK_INVARIANTS(group);
  // Transient groups cease to exist at null membership; persistent groups
  // and their shared state outlive their members (§3.1).
  return group.member_count() == 0 && !group.persistent();
}

void GroupAuthority::announce(Route& route, const Group& group,
                              NodeId subject, MemberRole role, bool joined) {
  Message note;
  note.type = MsgType::kMembershipNotice;
  note.group = group.meta().id;
  note.sender = subject;
  note.role = role;
  note.accept = joined;
  route.to_group(group, note, group.notice_subscribers(subject));
}

void GroupAuthority::on_membership_query(Route& route, const Message& req) {
  if (const Group* group = existing(route, req)) {
    route.answer(make_membership_info(req.group, req.request_id,
                                      group->member_list()));
  }
}

void GroupAuthority::on_lock(Route& route, NodeId client, const Message& req) {
  Group* group = joined(route, client, req);
  if (group == nullptr) return;
  if (group->locks().acquire(req.object, client) ==
      LockTable::AcquireOutcome::kGranted) {
    route.answer(lock_grant(req.group, req.object, req.request_id));
  } else {
    // Queued (or duplicate): the grant follows when the holder releases.
    reply(route, req, Status::error(Errc::kLockHeld, "queued"));
  }
}

void GroupAuthority::on_unlock(Route& route, NodeId client,
                               const Message& req) {
  Group* group = existing(route, req);
  if (group == nullptr) return;
  auto result = group->locks().release(req.object, client);
  reply(route, req, result ? Status::ok() : result.status());
  if (result && result.value()) {
    route.to_member(*group, *result.value(),
                    lock_grant(req.group, req.object));
  }
}

std::size_t GroupAuthority::on_reduce(Route& route, const Message& req) {
  Group* group = existing(route, req);
  if (group == nullptr) return 0;
  const std::size_t dropped =
      fold(*group, req.seq == 0 ? group->state().head_seq() : req.seq);
  // Every copy trims to the new base; no member is told, since a client's
  // replica keeps its history.
  Message done;
  done.type = MsgType::kLogReduced;
  done.group = req.group;
  done.seq = group->state().base_seq();
  route.to_group(*group, done, {});
  done.request_id = req.request_id;
  route.answer(done);
  return dropped;
}

std::size_t GroupAuthority::reduce_if_due(Group& group) {
  auto it = policies_.find(group.meta().id);
  if (it == policies_.end()) return 0;
  const SeqNo upto = it->second->should_reduce(group.state());
  return upto > 0 ? fold(group, upto) : 0;
}

std::size_t GroupAuthority::fold(Group& group, SeqNo upto) {
  // "The history of state updates ... may be trimmed up to a point and
  // replaced with the consistent group state existing at that point" (§3.2).
  // The folded base snapshot becomes the durable checkpoint; a reduction
  // that drops nothing installs none.
  const std::size_t dropped = group.state().reduce_to(upto);
  if (dropped > 0) {
    store_->install_checkpoint(group.meta().id, group.state().base_seq(),
                               group.state().snapshot_at_base());
  }
  return dropped;
}

}  // namespace corona
