// Batched fan-out: the one place outbound deliveries coalesce.
//
// An Outbox queues sequencing decisions — one message and the nodes it goes
// to — and ships them together.  A single decision goes out through
// Node::fanout, which encodes the message once for all recipients.  Several
// go out as one send_batch per destination, carrying that destination's
// messages in queue order; destinations ship in NodeId order, so the send
// sequence is deterministic.
//
// Every batch point shares one window: a batch ships once it holds
// `max_msgs` items, or `max_delay` after its first item, whichever comes
// first.  `max_msgs <= 1` ships every item at once and never arms a timer.
#pragma once

#include <cstdint>
#include <vector>

#include "runtime/runtime.h"
#include "serial/message.h"
#include "util/context.h"
#include "util/ids.h"
#include "util/time.h"

namespace corona {

class Outbox {
 public:
  // `timer_tag` is the owner's on_timer tag for the max_delay timer.
  // `drop_tail` is the checker's bug seed (ServerConfig::
  // debug_drop_batch_tail): every multi-message run loses its last message.
  Outbox(std::size_t max_msgs, Duration max_delay, std::uint64_t timer_tag,
         bool drop_tail = false);

  // Queues one decision: `m` goes to every node in `to`.
  void add(Message m, std::vector<NodeId> to);
  std::size_t size() const { return queue_.size(); }

  // The window, applied after one more item joined a batch that now holds
  // `depth` items (this outbox's size(), or the owner's own queue).  Returns
  // true when the batch is full and must ship now, cancelling the delay
  // timer; otherwise arms the timer unless it is already armed.
  bool full(Node& owner, std::size_t depth);
  // The owner's on_timer(timer_tag) calls this before shipping the batch.
  void timer_fired() { timer_ = 0; }

  // Sends everything queued.  Returns the number of coalesced (> 1 message)
  // frames, for the owner's batching counters.
  CORONA_HOT_PATH std::size_t ship(Node& owner);

 private:
  struct Decision {
    Message msg;
    std::vector<NodeId> to;
  };

  std::size_t max_msgs_;
  Duration max_delay_;
  std::uint64_t timer_tag_;
  bool drop_tail_;
  TimerHandle timer_ = 0;
  std::vector<Decision> queue_;
};

}  // namespace corona
