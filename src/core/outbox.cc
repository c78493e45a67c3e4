#include "core/outbox.h"

#include <map>

namespace corona {

Outbox::Outbox(std::size_t max_msgs, Duration max_delay,
               std::uint64_t timer_tag, bool drop_tail)
    : max_msgs_(max_msgs),
      max_delay_(max_delay),
      timer_tag_(timer_tag),
      drop_tail_(drop_tail) {}

void Outbox::add(Message m, std::vector<NodeId> to) {
  queue_.push_back(Decision{std::move(m), std::move(to)});
}

bool Outbox::full(Node& owner, std::size_t depth) {
  if (depth >= max_msgs_) {
    if (timer_ != 0) {
      owner.cancel_timer(timer_);
      timer_ = 0;
    }
    return true;
  }
  if (timer_ == 0) timer_ = owner.set_timer(max_delay_, timer_tag_);
  return false;
}

std::size_t Outbox::ship(Node& owner) {
  std::size_t coalesced = 0;
  if (queue_.size() == 1) {
    owner.fanout(queue_.front().to, queue_.front().msg);
  } else if (!queue_.empty()) {
    std::map<NodeId, std::vector<Message>> runs;
    for (const Decision& d : queue_) {
      const Message& msg = d.msg;
      for (NodeId n : d.to) runs[n].push_back(msg);
    }
    for (auto& [dest, msgs] : runs) {
      if (drop_tail_ && msgs.size() > 1) msgs.pop_back();
      if (msgs.size() > 1) ++coalesced;
      owner.send_batch(dest, msgs);
    }
  }
  queue_.clear();
  return coalesced;
}

}  // namespace corona
