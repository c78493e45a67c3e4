#include "core/session_manager.h"

#include <utility>

#include "core/state_transfer.h"

namespace corona {

const char* group_action_name(GroupAction a) {
  switch (a) {
    case GroupAction::kCreate: return "create";
    case GroupAction::kDelete: return "delete";
    case GroupAction::kJoin: return "join";
    case GroupAction::kLeave: return "leave";
    case GroupAction::kPublish: return "publish";
    case GroupAction::kReduceLog: return "reduce-log";
  }
  return "?";
}

void AclSessionManager::allow(NodeId client, GroupId group,
                              GroupAction action) {
  rules_.emplace(client.value, group.value, action);
}

void AclSessionManager::allow_all_actions(NodeId client, GroupId group) {
  for (GroupAction a :
       {GroupAction::kCreate, GroupAction::kDelete, GroupAction::kJoin,
        GroupAction::kLeave, GroupAction::kPublish, GroupAction::kReduceLog}) {
    allow(client, group, a);
  }
}

void AclSessionManager::revoke(NodeId client, GroupId group,
                               GroupAction action) {
  rules_.erase({client.value, group.value, action});
}

bool AclSessionManager::match(std::uint64_t client, std::uint64_t group,
                              GroupAction action) const {
  return rules_.contains({client, group, action});
}

Status AclSessionManager::authorize(NodeId client, GroupId group,
                                    GroupAction action) {
  const bool allowed = match(client.value, group.value, action) ||
                       match(client.value, kAnyGroup, action) ||
                       match(kAnyClient, group.value, action) ||
                       match(kAnyClient, kAnyGroup, action);
  if (allowed) return Status::ok();
  return Status::error(Errc::kPermissionDenied,
                       std::string("session manager denied ") +
                           group_action_name(action));
}

Status authorize_request(SessionManager* session, NodeId client,
                         const Message& m) {
  GroupAction action = GroupAction::kPublish;
  switch (m.type) {
    case MsgType::kCreateGroup: action = GroupAction::kCreate; break;
    case MsgType::kDeleteGroup: action = GroupAction::kDelete; break;
    case MsgType::kJoin: action = GroupAction::kJoin; break;
    case MsgType::kBcastState:
    case MsgType::kBcastUpdate: action = GroupAction::kPublish; break;
    case MsgType::kReduceLog: action = GroupAction::kReduceLog; break;
    default: return Status::ok();
  }
  if (session == nullptr) return Status::ok();
  return session->authorize(client, m.group, action);
}

Message make_denial(const Message& request, Status s) {
  if (request.type == MsgType::kJoin) {
    return make_refusal(MsgType::kJoinReply, request.group,
                        request.request_id, std::move(s));
  }
  return make_reply(std::move(s), request.request_id);
}

}  // namespace corona
