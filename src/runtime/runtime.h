// Transport-independent execution model for protocol endpoints.
//
// Every Corona actor — client, stateful server, stateless baseline,
// replicated leaf, coordinator — is a `Node`: an event-driven state machine
// that reacts to messages and timers and emits sends through its `Runtime`.
// Two engines implement Runtime:
//
//   * SimRuntime    — deterministic discrete-event execution over the
//                     SimNetwork model (used by the paper benches and most
//                     tests);
//   * SocketRuntime — real TCP with one epoll loop thread (net/, the
//                     deployable engine behind corona-serverd, and the one
//                     the concurrency tests run under tsan).
//
// Protocol code is identical under both; nothing in src/core or
// src/replica knows which engine is driving it.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "serial/message.h"
#include "util/context.h"
#include "util/ids.h"
#include "util/time.h"

namespace corona {

class Node;

// Opaque timer handle; 0 is never a valid handle.
using TimerHandle = std::uint64_t;

class Runtime {
 public:
  virtual ~Runtime() = default;

  virtual TimePoint now() const = 0;

  // Sends `m` from `from` to `to`.  The message is serialized at the sender
  // and deserialized at the receiver; delivery is asynchronous and may be
  // silently dropped by failure injection (like a broken TCP connection —
  // endpoints learn about peers only through replies and heartbeats).
  CORONA_HOT_PATH virtual void send(NodeId from, NodeId to,
                                    const Message& m) = 0;

  // Arranges for `owner`'s on_timer(tag) after `delay`.  The returned handle
  // can cancel the timer before it fires.
  virtual TimerHandle set_timer(NodeId owner, Duration delay,
                                std::uint64_t tag) = 0;
  virtual void cancel_timer(TimerHandle handle) = 0;

  // Accounts `d` of CPU work to `node`'s host.  Under the simulator this
  // pushes the host's CPU timeline forward (the server's state-maintenance
  // cost in Figure 3 flows through here); under the socket engine the work
  // is real and this is a no-op.
  virtual void charge_cpu(NodeId node, Duration d) {
    (void)node;
    (void)d;
  }

  // One-to-many send (the paper's §5.3 IP-multicast extension: "a version of
  // the communication system which uses both IP-multicast, whenever
  // possible, and point-to-point TCP connections").  The default expands to
  // point-to-point sends; the simulator models a true multicast: the sender
  // pays ONE send cost and one wire transmission regardless of fan-out.
  CORONA_HOT_PATH virtual void multicast(NodeId from,
                                         const std::vector<NodeId>& to,
                                         const Message& m) {
    for (NodeId t : to) send(from, t, m);
  }

  // Point-to-point fan-out of ONE message to many peers.  Semantically
  // identical to this default loop — each target gets an ordinary send —
  // but an engine that serializes at the sender (socket) overrides it
  // to encode `m` once, instead of paying one Message::encode per member,
  // and to send one frame per connection that lists the targets behind
  // it, instead of one frame per member.  Unlike multicast() this never
  // becomes an IP-multicast: use it where the recipients are real
  // point-to-point peers (per-member kDeliver fan-out).  The simulator
  // deliberately keeps the default so per-target costs and journals are
  // byte-identical with the pre-fanout code.
  CORONA_HOT_PATH virtual void fanout(NodeId from,
                                      const std::vector<NodeId>& to,
                                      const Message& m) {
    // heat: waive copy-in-hot-path -- same waiver as multicast(): the
    // default expansion is the semantic spec; engines override to encode
    // once.
    for (NodeId t : to) send(from, t, m);
  }

  // Many-to-one-peer send: `ms` travel to `to` as ONE coalesced batch frame
  // and are delivered as |ms| ordinary on_message calls in order.  The wire
  // format is unchanged — a batch is just the back-to-back concatenation of
  // the individual message frames — but engines amortize per-send costs over
  // the batch: the simulator charges one per-message CPU cost for the whole
  // batch on each end, and the socket engine hands the run to its loop as
  // one op.  The socket engine writes each connection once per loop turn
  // whatever primitive queued the frames, so there a batch does not save
  // syscalls.  The batch is atomic with respect to loss: either the whole
  // frame arrives or none of it does (like one TCP segment run).  The
  // default expands to point-to-point sends (engines without a cheaper
  // primitive stay correct).
  CORONA_HOT_PATH virtual void send_batch(NodeId from, NodeId to,
                                          const std::vector<Message>& ms) {
    for (const Message& m : ms) send(from, to, m);
  }

  // Queues `bytes` at `node`'s log device and returns the completion time.
  // The device has its own timeline (paper §6: multicast proceeds in
  // parallel with disk logging); a server enforcing synchronous flush waits
  // for the returned instant via a timer.  `records` is the number of log
  // records the write covers — 1 for a classic per-message flush, more for
  // a group commit — used by the device model for amortization accounting.
  virtual TimePoint disk_write(NodeId node, std::size_t bytes,
                               std::size_t records = 1) {
    (void)node;
    (void)bytes;
    (void)records;
    return now();
  }
};

// Base class for protocol endpoints.  `bind` is called by the engine before
// on_start; subclasses use the protected helpers and never touch the engine
// directly.
class Node {
 public:
  virtual ~Node() = default;

  void bind(Runtime* rt, NodeId self) {
    rt_ = rt;
    self_ = self;
  }
  NodeId id() const { return self_; }

  // Engine entry points -------------------------------------------------
  // Under SocketRuntime every override runs on the epoll loop thread, so
  // the loop-context annotation propagates to all of them (CHA) and the
  // reach lint flags any blocking leaf they can transitively hit.
  CORONA_LOOP_CONTEXT virtual void on_start() {}
  CORONA_LOOP_CONTEXT virtual void on_message(NodeId from,
                                              const Message& m) = 0;
  CORONA_LOOP_CONTEXT virtual void on_timer(std::uint64_t tag) { (void)tag; }

 protected:
  TimePoint now() const { return rt().now(); }
  void send(NodeId to, const Message& m) { rt().send(self_, to, m); }
  void multicast(const std::vector<NodeId>& to, const Message& m) {
    rt().multicast(self_, to, m);
  }
  void fanout(const std::vector<NodeId>& to, const Message& m) {
    if (to.size() == 1) {
      rt().send(self_, to.front(), m);
      return;
    }
    if (!to.empty()) rt().fanout(self_, to, m);
  }
  void send_batch(NodeId to, const std::vector<Message>& ms) {
    if (ms.size() == 1) {
      rt().send(self_, to, ms.front());
      return;
    }
    if (!ms.empty()) rt().send_batch(self_, to, ms);
  }
  TimerHandle set_timer(Duration delay, std::uint64_t tag) {
    return rt().set_timer(self_, delay, tag);
  }
  void cancel_timer(TimerHandle h) { rt().cancel_timer(h); }

  Runtime& rt() const {
    assert(rt_ != nullptr && "node used before bind()");
    return *rt_;
  }

 private:
  friend class Outbox;  // core/outbox.h batches fan-out through the helpers

  Runtime* rt_ = nullptr;
  NodeId self_;
};

}  // namespace corona
