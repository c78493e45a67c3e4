// Workspace session manager hook (paper §3.2: "The Corona server works in
// conjunction with an external workspace session manager that determines
// which client is allowed to execute these actions").
//
// Every server checks each client request where the client is connected
// (authorize_request below).  Two implementations ship:
// AllowAllSessionManager and AclSessionManager, a deny-by-default
// access-control list keyed by (client, group, action) with wildcards.
#pragma once

#include <map>
#include <set>

#include "serial/message.h"
#include "util/context.h"
#include "util/ids.h"
#include "util/result.h"

namespace corona {

enum class GroupAction {
  kCreate,
  kDelete,
  kJoin,
  kLeave,
  kPublish,  // bcastState / bcastUpdate
  kReduceLog,
};

const char* group_action_name(GroupAction a);

class SessionManager {
 public:
  virtual ~SessionManager() = default;
  virtual Status authorize(NodeId client, GroupId group,
                           GroupAction action) = 0;
};

class AllowAllSessionManager final : public SessionManager {
 public:
  Status authorize(NodeId, GroupId, GroupAction) override {
    return Status::ok();
  }
};

// Deny-by-default ACL.  Rules are added per client; `kAnyGroup` wildcards
// the group and a client id of kAnyClient wildcards the client.
class AclSessionManager final : public SessionManager {
 public:
  static constexpr std::uint64_t kAnyGroup = ~0ull;
  static constexpr std::uint64_t kAnyClient = ~0ull;

  void allow(NodeId client, GroupId group, GroupAction action);
  void allow_all_actions(NodeId client, GroupId group);
  void revoke(NodeId client, GroupId group, GroupAction action);

  Status authorize(NodeId client, GroupId group, GroupAction action) override;

 private:
  using Key = std::tuple<std::uint64_t, std::uint64_t, GroupAction>;
  std::set<Key> rules_;
  bool match(std::uint64_t client, std::uint64_t group,
             GroupAction action) const;
};

// The one admission check of a client request: create, delete, join,
// multicast and reduce-log map to their GroupAction and are put to
// `session` (nullptr allows all); any other request passes.  It runs once
// per multicast.
CORONA_HOT_PATH Status authorize_request(SessionManager* session,
                                         NodeId client, const Message& m);
// What a refused request gets back: a kJoinReply refusal for a join, a
// kReply for anything else.
Message make_denial(const Message& request, Status s);

}  // namespace corona
