#include "core/stateless_server.h"

#include "core/state_transfer.h"
#include "util/logging.h"

namespace corona {

void StatelessServer::on_message(NodeId from, const Message& m) {
  switch (m.type) {
    case MsgType::kCreateGroup: {
      const bool fresh = groups_.emplace(m.group, GroupEntry{}).second;
      send(from, make_reply(fresh ? Status::ok()
                                  : Status::error(Errc::kAlreadyExists),
                            m.request_id));
      break;
    }
    case MsgType::kDeleteGroup: {
      groups_.erase(m.group);
      send(from, make_reply(Status::ok(), m.request_id));
      break;
    }
    case MsgType::kJoin: {
      auto it = groups_.find(m.group);
      if (it == groups_.end()) {
        send(from, make_refusal(MsgType::kJoinReply, m.group, m.request_id,
                                Status::error(Errc::kNotFound)));
        break;
      }
      // No state to transfer: the joiner is synchronized to the last seq.
      it->second.members.emplace(from, m.role);
      send(from, make_join_reply(m.group, m.request_id,
                                 TransferContent{it->second.next_seq - 1, {}, {}},
                                 member_list(it->second.members)));
      break;
    }
    case MsgType::kLeave: {
      auto it = groups_.find(m.group);
      if (it != groups_.end()) {
        it->second.members.erase(from);
        // A stateless group dies with its last member: there is nothing to
        // outlive them.
        if (it->second.members.empty()) groups_.erase(it);
      }
      send(from, make_reply(Status::ok(), m.request_id));
      break;
    }
    case MsgType::kGetMembership: {
      auto it = groups_.find(m.group);
      send(from, make_membership_info(
                     m.group, m.request_id,
                     it == groups_.end() ? std::vector<MemberInfo>{}
                                         : member_list(it->second.members)));
      break;
    }
    case MsgType::kBcastState:
    case MsgType::kBcastUpdate:
      handle_bcast(from, m);
      break;
    default:
      LOG_WARN("stateless", "unsupported ", msg_type_name(m.type));
      send(from, make_reply(Status::error(Errc::kInvalidArgument,
                                          "stateless server"),
                            m.request_id));
      break;
  }
}

void StatelessServer::handle_bcast(NodeId from, const Message& m) {
  auto it = groups_.find(m.group);
  if (it == groups_.end() || !it->second.members.contains(from)) {
    send(from, make_reply(Status::error(Errc::kNotMember), m.request_id));
    return;
  }
  UpdateRecord rec = record_of(m);
  rec.seq = it->second.next_seq++;
  rec.sender = from;
  rec.timestamp = now();
  ++stats_.messages_sequenced;
  const Message out = make_deliver(m.group, rec);
  for (const auto& [member, role] : it->second.members) {
    if (!m.sender_inclusive && member == from) continue;
    send(member, out);
    ++stats_.deliveries_sent;
  }
}

}  // namespace corona
