// SocketRuntime — the deployable engine: real TCP, one epoll loop thread.
//
// The third Runtime implementation, next to SimRuntime (deterministic
// discrete-event) and ThreadRuntime (one thread per node, in-process).  It
// speaks the existing wire protocol (Message::encode()/decode()) over
// length-prefixed frames (net/frame.h) on real point-to-point TCP
// connections, so every transport-independent Node — CoronaServer,
// CoronaClient, StatelessServer, ReplicaServer — deploys across processes
// and hosts with zero protocol-code changes.
//
// Execution model
//   One background thread runs an epoll event loop that owns every socket,
//   the connection table and the timer wheel.  All node handlers
//   (on_start/on_message/on_timer) run on that thread, so nodes keep the
//   single-threaded-by-construction guarantee of the other engines.
//   Runtime calls (send/set_timer/cancel_timer) may come from any thread —
//   node handlers on the loop thread or the application driving a
//   CoronaClient — and hand work to the loop through a mutex-guarded op
//   queue plus an eventfd wakeup.
//
// Connection lifecycle
//   Peers listed in the address book are dialed eagerly at start() and
//   redialed forever on failure with capped exponential backoff; the first
//   frame on every outbound connection is a hello identifying the local
//   node ids.  Inbound connections are accepted from anyone; their routes
//   are learned from the hello (and refreshed from message frames).  Sends
//   with no live route and no book entry are dropped silently — exactly the
//   lossy contract Runtime::send documents ("like a broken TCP connection").
//
// Writes
//   Queueing a frame never writes it: it only marks the frame's connection.
//   Each pass of the loop over its op queue ends by flushing every marked
//   connection in gathered sendmsg calls (up to 64 frames each), so all the
//   frames a loop turn queues to one connection — a fan-out to the members
//   behind it, a batch run, replies, a keepalive ping — share one syscall.
//   Only a connection whose socket buffer filled up is written from its
//   EPOLLOUT event instead.  Gathering changes the syscall count only: the
//   frames and their order on each connection stay as queued.
//
// Backpressure
//   Outbound bytes queue per connection up to max_conn_queue_bytes; past
//   the cap new frames are dropped and counted (stats().messages_dropped)
//   rather than buffering without bound — slow receivers shed load instead
//   of OOMing the sender.  Frames queued toward a book peer that is
//   currently down wait in a bounded pending queue and flush on reconnect.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "net/address.h"
#include "net/frame.h"
#include "runtime/runtime.h"
#include "util/context.h"
#include "util/sync.h"

namespace corona::net {

struct SocketRuntimeConfig {
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  // Per-connection outbound queue cap (encoded frame bytes); beyond it new
  // frames are dropped.  Also bounds each down-peer pending queue.
  std::size_t max_conn_queue_bytes = 8 * 1024 * 1024;
  // Reconnect backoff: first retry after min, doubling to max.
  Duration reconnect_backoff_min = 50 * kMillisecond;
  Duration reconnect_backoff_max = 5 * kSecond;
  // Transport keepalive: send a ping on connections idle this long
  // (0 = off).  Protocol-level liveness (client heartbeats, coordinator
  // failure detection) rides on top and does not depend on this.
  Duration keepalive_interval = 0;
  // Close connections with no inbound traffic for this long (0 = off).
  // Must be generously larger than keepalive_interval when both are set.
  Duration peer_silence_timeout = 0;
};

class SocketRuntime : public Runtime {
 public:
  struct Stats {
    std::uint64_t frames_sent = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t connects_attempted = 0;
    std::uint64_t connects_ok = 0;
    std::uint64_t accepts = 0;
    std::uint64_t disconnects = 0;
    std::uint64_t reconnects_scheduled = 0;
    std::uint64_t corrupt_frames = 0;   // framing/decode errors (conn torn down)
    std::uint64_t messages_dropped = 0; // no route, queue overflow, or stopped
    std::uint64_t pings_sent = 0;
    std::uint64_t writev_calls = 0;     // gathered writes issued
    std::uint64_t frames_coalesced = 0; // frames covered by those writes
  };

  explicit SocketRuntime(SocketRuntimeConfig cfg = {});
  ~SocketRuntime() override;

  SocketRuntime(const SocketRuntime&) = delete;
  SocketRuntime& operator=(const SocketRuntime&) = delete;

  // -- setup (all before start()) -------------------------------------------
  void add_node(NodeId id, Node* node);
  void set_peer_address(NodeId id, Endpoint ep);
  void set_address_book(const AddressBook& book);

  // Binds and listens immediately (so callers learn an ephemeral port
  // before starting peers).  host is a numeric IPv4 address or a name;
  // port 0 picks one.  Returns the bound port.
  Result<std::uint16_t> listen(const std::string& host, std::uint16_t port);
  std::uint16_t listen_port() const { return listen_port_; }

  // Spawns the event loop; runs every node's on_start there, then dials
  // every address-book peer that is not a local node.
  void start();

  // Closes every connection and joins the loop.  Safe to call twice; the
  // destructor calls it.
  void stop();

  // Fault injection / tests: close the connection currently routing to
  // `peer` (reconnect machinery still applies if `peer` is in the book).
  void drop_connection(NodeId peer);

  Stats stats() const;

  // -- Runtime interface ----------------------------------------------------
  TimePoint now() const override;
  void send(NodeId from, NodeId to, const Message& m) override;
  // Batched send: all frames enter the peer's queue under one op (one lock
  // acquisition, one loop wakeup) and as one unit against the queue cap.
  // They share the turn's gathered write with whatever else that turn
  // queued to the connection, as separate sends would.  Loss stays atomic:
  // a connection torn down mid-batch loses the whole queued suffix
  // together, never an interior frame.
  void send_batch(NodeId from, NodeId to,
                  const std::vector<Message>& ms) override;
  // Encode-once fan-out: the message is serialized once and the wire bytes
  // queued to each target (one op, one loop wakeup).  Targets behind one
  // connection get their frames in that connection's single write for the
  // turn.  Per-connection FIFO order against other sends from the same node
  // is preserved — the op queue is drained in order, so the expansion sits
  // exactly where the per-target send loop would have.
  void fanout(NodeId from, const std::vector<NodeId>& to,
              const Message& m) override;
  TimerHandle set_timer(NodeId owner, Duration delay,
                        std::uint64_t tag) override;
  void cancel_timer(TimerHandle handle) override;

 private:
  struct Op {
    enum class Kind {
      kSend, kSendBatch, kFanout, kSetTimer, kCancelTimer, kDrop
    } kind;
    // kSend / kSendBatch / kFanout
    NodeId from, to;
    Bytes wire;                    // kSend / kFanout (shared by all targets)
    std::vector<Bytes> wires;      // kSendBatch only
    std::vector<NodeId> targets;   // kFanout only
    // timers
    TimerHandle handle = 0;
    TimePoint deadline = 0;
    std::uint64_t tag = 0;
  };

  // One TCP connection (either direction), keyed by fd.
  struct Conn {
    int fd = -1;
    bool outbound = false;
    bool open = false;              // outbound: connect() completed + hello sent
    bool dead = false;              // marked for close; reaped by reap_dead()
    NodeId target;                  // outbound: the book peer we dialed
    FrameDecoder decoder;
    std::deque<Bytes> outq;         // encoded frames awaiting write
    std::size_t outq_bytes = 0;
    std::size_t wip_off = 0;        // bytes of outq.front() already written
    bool want_write = false;        // EPOLLOUT armed
    bool marked = false;            // listed in marked_ for this turn's flush
    std::set<NodeId> claims;        // node ids routed over this connection
    TimePoint last_rx = 0;
    TimePoint last_tx = 0;

    explicit Conn(std::size_t max_frame) : decoder(max_frame) {}
  };

  // Book peer we keep dialed; holds traffic while the link is down.
  struct Peer {
    Endpoint addr;
    int fd = -1;                    // current conn (connecting or open)
    Duration backoff = 0;
    std::optional<TimePoint> next_connect_at;
    std::deque<Bytes> pending;      // frames awaiting a connection
    std::size_t pending_bytes = 0;
  };

  // loop() is the loop-context root; every callback it dispatches runs on
  // the epoll thread.  The syscall-bearing helpers below are certified
  // non-blocking: every fd they touch is O_NONBLOCK (sockets, eventfd,
  // listener), so writes/reads return EAGAIN instead of parking the loop.
  CORONA_LOOP_CONTEXT void loop();
  void drain_ops();
  void apply_send(NodeId from, NodeId to, Bytes wire);
  void apply_send_batch(NodeId from, NodeId to, std::vector<Bytes> wires);
  void enqueue(NodeId to, std::span<Bytes> frames);
  void queue_on_conn(Conn& c, std::span<Bytes> frames);
  void queue_on_conn(Conn& c, Bytes frame) { queue_on_conn(c, {&frame, 1}); }
  void mark_for_flush(Conn& c);
  void flush_marked();
  CORONA_NONBLOCKING void flush_conn(Conn& c);
  void update_epoll(Conn& c, bool want_write);
  CORONA_NONBLOCKING void start_connect(NodeId peer_id, Peer& peer);
  void schedule_reconnect(NodeId peer_id, Peer& peer);
  void on_connect_ready(Conn& c);
  CORONA_NONBLOCKING void on_readable(Conn& c);
  void handle_frame(Conn& c, Frame frame);
  void close_conn(int fd, bool schedule_redial);
  // Closing an fd inside an epoll batch could let accept() recycle the fd
  // number and mis-route later events in the same batch, so callbacks only
  // mark; the loop reaps at safe points.
  void mark_dead(Conn& c) { c.dead = true; }
  void reap_dead();
  CORONA_NONBLOCKING void accept_ready();
  void fire_due_timers();
  void sweep_keepalive();
  Duration next_wakeup_delay() const;
  CORONA_NONBLOCKING void wake();

  SocketRuntimeConfig cfg_;
  std::chrono::steady_clock::time_point epoch_;

  // -- shared with callers --------------------------------------------------
  mutable Mutex mu_;
  std::deque<Op> ops_ CORONA_GUARDED_BY(mu_);

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> next_timer_{1};

  // -- loop-owned (no lock; touched only before start() or on the loop) -----
  std::map<NodeId, Node*> nodes_;
  std::map<NodeId, Peer> peers_;               // address-book peers
  std::map<int, std::unique_ptr<Conn>> conns_;
  std::map<NodeId, int> routes_;               // remote node -> fd
  std::vector<int> marked_;                    // fds awaiting this turn's flush
  // Timers: ordered by (deadline, handle) for pop-min; the index gives
  // O(log n) cancel.
  struct TimerRec {
    NodeId owner;
    std::uint64_t tag;
  };
  std::map<std::pair<TimePoint, TimerHandle>, TimerRec> timers_;
  std::map<TimerHandle, TimePoint> timer_index_;
  TimePoint last_keepalive_sweep_ = 0;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;
  std::uint16_t listen_port_ = 0;
  std::thread loop_thread_;

  // Counters are atomics so stats() is safe from any thread while the loop
  // runs; all writes happen on the loop thread.
  struct AtomicStats {
    std::atomic<std::uint64_t> frames_sent{0}, frames_received{0};
    std::atomic<std::uint64_t> bytes_sent{0}, bytes_received{0};
    std::atomic<std::uint64_t> connects_attempted{0}, connects_ok{0};
    std::atomic<std::uint64_t> accepts{0}, disconnects{0};
    std::atomic<std::uint64_t> reconnects_scheduled{0};
    std::atomic<std::uint64_t> corrupt_frames{0}, messages_dropped{0};
    std::atomic<std::uint64_t> pings_sent{0};
    std::atomic<std::uint64_t> writev_calls{0}, frames_coalesced{0};
  };
  AtomicStats counters_;
};

}  // namespace corona::net
