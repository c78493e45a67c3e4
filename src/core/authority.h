// The group authority (paper §3.2, §4.1): create, delete, leave (and the
// drop of a crashed or expired member), locks, log reduction and membership
// are decided here once, for the single server (core/server.h) and for the
// replicated star's coordinator (src/replica/).  The two roles differ only
// in where the answers go, which the owner passes in as a Route.  A join is
// answered by the server the client is connected to, from its own copy;
// only the join's membership notice comes through here.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "core/group.h"
#include "core/log_reduction.h"
#include "serial/message.h"
#include "storage/group_store.h"

namespace corona {

class GroupAuthority {
 public:
  class Route {
   public:
    virtual ~Route() = default;
    // The reply to the request being handled.
    virtual void answer(const Message& m) = 0;
    // A message for one member: a lock grant for a waiter.
    virtual void to_member(const Group& group, NodeId member,
                           const Message& m) = 0;
    // A change every copy must see (kGroupDeleted, kMembershipNotice,
    // kLogReduced); `members` names the members that should hear of it.
    virtual void to_group(const Group& group, const Message& m,
                          const std::vector<NodeId>& members) = 0;
  };
  using ReductionFactory = std::function<std::unique_ptr<ReductionPolicy>()>;

  // Without a `reduction` factory, groups reduce only when a client asks.
  explicit GroupAuthority(GroupStore* store, ReductionFactory reduction = {});

  Group* lookup(GroupId g);
  const Group* lookup(GroupId g) const;
  const std::map<GroupId, Group>& groups() const { return groups_; }
  // Adds or replaces `group`; creates it in the store if the store lacks it.
  Group& install(Group group);
  // Start-up recovery (§3.1): installs each persistent group of the durable
  // store that is not already held, and removes each transient group the
  // store still holds, since a transient group ends with its members.
  void recover_from_store();
  void forget_all();  // a demoted coordinator's; the store is left alone

  // Client requests, each answered through `route`; `client` is the member
  // asking.  on_create returns whether it created the group.
  bool on_create(Route& route, const Message& req);
  void on_delete(Route& route, const Message& req);
  // Returns whether `client` left; its server then acknowledges the leave.
  bool on_leave(Route& route, NodeId client, const Message& req);
  void on_lock(Route& route, NodeId client, const Message& req);
  void on_unlock(Route& route, NodeId client, const Message& req);
  std::size_t on_reduce(Route& route, const Message& req);  // records dropped
  void on_membership_query(Route& route, const Message& req);

  // Tells the subscribers that `subject` joined or left `group`.
  void announce(Route& route, const Group& group, NodeId subject,
                MemberRole role, bool joined);
  // Drops every member `lost` selects (a crashed or silent client, the
  // clients of a crashed leaf) from every group, as if each had left.
  void drop_lost(Route& route,
                 const std::function<bool(NodeId, const Member&)>& lost);
  // Runs the group's reduction policy after sequencing and returns the
  // records dropped.  It tells no copy: the single server has none, and the
  // coordinator is given no policy.
  std::size_t reduce_if_due(Group& group);

 private:
  // The group `req` names; otherwise answers kNotFound and returns nullptr.
  Group* existing(Route& route, const Message& req);
  // The group `req` names if `client` is a member; otherwise kNotMember.
  Group* joined(Route& route, NodeId client, const Message& req);
  // Removes `who` and returns whether a transient group is left empty.
  bool part(Route& route, Group& group, NodeId who);
  // Ends group `g`: every copy is told, then it and its durable image go.
  void dissolve(Route& route, GroupId g);
  std::size_t fold(Group& group, SeqNo upto);

  GroupStore* store_;
  ReductionFactory reduction_;
  std::map<GroupId, Group> groups_;
  std::map<GroupId, std::unique_ptr<ReductionPolicy>> policies_;
};

}  // namespace corona
