#include "net/socket_runtime.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>

namespace corona::net {

using std::chrono::microseconds;
using std::chrono::steady_clock;

namespace {

// Request/reply protocols like Corona's are latency-bound and frames are
// already batched by the write queue, so Nagle only adds delay.
void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

std::size_t total_bytes(std::span<const Bytes> frames) {
  std::size_t total = 0;
  for (const Bytes& frame : frames) total += frame.size();
  return total;
}

}  // namespace

SocketRuntime::SocketRuntime(SocketRuntimeConfig cfg)
    : cfg_(cfg), epoch_(steady_clock::now()) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  assert(epoll_fd_ >= 0 && "epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  assert(wake_fd_ >= 0 && "eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

SocketRuntime::~SocketRuntime() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void SocketRuntime::add_node(NodeId id, Node* node) {
  assert(!started_.load() && "add_node after start");
  assert(node != nullptr);
  node->bind(this, id);
  [[maybe_unused]] const auto [it, inserted] = nodes_.emplace(id, node);
  assert(inserted && "duplicate node id");
}

void SocketRuntime::set_peer_address(NodeId id, Endpoint ep) {
  assert(!started_.load() && "set_peer_address after start");
  Peer peer;
  peer.addr = std::move(ep);
  peers_.insert_or_assign(id, std::move(peer));
}

void SocketRuntime::set_address_book(const AddressBook& book) {
  for (const auto& [id, ep] : book) set_peer_address(id, ep);
}

Result<std::uint16_t> SocketRuntime::listen(const std::string& host,
                                            std::uint16_t port) {
  assert(!started_.load() && "listen after start");
  if (listen_fd_ >= 0) {
    return Status::error(Errc::kAlreadyExists, "already listening");
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(port);
  if (::getaddrinfo(host.empty() ? nullptr : host.c_str(), port_str.c_str(),
                    &hints, &res) != 0 ||
      res == nullptr) {
    return Status::error(Errc::kInvalidArgument,
                         "cannot resolve listen address: " + host);
  }
  const int fd =
      ::socket(res->ai_family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    ::freeaddrinfo(res);
    return Status::error(Errc::kUnavailable, "socket() failed");
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  const int bound = ::bind(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (bound != 0 || ::listen(fd, 128) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::error(
        Errc::kUnavailable,
        std::string("bind/listen failed: ") + std::strerror(err));
  }
  sockaddr_in actual{};
  socklen_t len = sizeof(actual);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&actual), &len) != 0) {
    ::close(fd);
    return Status::error(Errc::kUnavailable, "getsockname failed");
  }
  listen_fd_ = fd;
  listen_port_ = ntohs(actual.sin_port);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  return listen_port_;
}

void SocketRuntime::start() {
  bool expected = false;
  if (!started_.compare_exchange_strong(expected, true)) return;
  loop_thread_ = std::thread([this] { loop(); });
}

void SocketRuntime::stop() {
  stopping_.store(true);
  if (loop_thread_.joinable()) {
    wake();
    loop_thread_.join();
  }
  for (auto& [fd, conn] : conns_) {
    (void)conn;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    ::close(fd);
  }
  conns_.clear();
  routes_.clear();
  timers_.clear();
  timer_index_.clear();
  if (listen_fd_ >= 0) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void SocketRuntime::drop_connection(NodeId peer) {
  Op op;
  op.kind = Op::Kind::kDrop;
  op.to = peer;
  {
    MutexLock lock(mu_);
    ops_.push_back(std::move(op));
  }
  wake();
}

SocketRuntime::Stats SocketRuntime::stats() const {
  Stats s;
  s.frames_sent = counters_.frames_sent.load();
  s.frames_received = counters_.frames_received.load();
  s.bytes_sent = counters_.bytes_sent.load();
  s.bytes_received = counters_.bytes_received.load();
  s.connects_attempted = counters_.connects_attempted.load();
  s.connects_ok = counters_.connects_ok.load();
  s.accepts = counters_.accepts.load();
  s.disconnects = counters_.disconnects.load();
  s.reconnects_scheduled = counters_.reconnects_scheduled.load();
  s.corrupt_frames = counters_.corrupt_frames.load();
  s.messages_dropped = counters_.messages_dropped.load();
  s.pings_sent = counters_.pings_sent.load();
  s.writev_calls = counters_.writev_calls.load();
  s.frames_coalesced = counters_.frames_coalesced.load();
  return s;
}

TimePoint SocketRuntime::now() const {
  return std::chrono::duration_cast<microseconds>(steady_clock::now() - epoch_)
      .count();
}

void SocketRuntime::send(NodeId from, NodeId to, const Message& m) {
  if (stopping_.load()) {
    counters_.messages_dropped.fetch_add(1);
    return;
  }
  Op op;
  op.kind = Op::Kind::kSend;
  op.from = from;
  op.to = to;
  op.wire = m.encode();
  {
    MutexLock lock(mu_);
    ops_.push_back(std::move(op));
  }
  wake();
}

void SocketRuntime::send_batch(NodeId from, NodeId to,
                               const std::vector<Message>& ms) {
  if (ms.empty()) return;
  if (ms.size() == 1) {
    send(from, to, ms.front());
    return;
  }
  if (stopping_.load()) {
    counters_.messages_dropped.fetch_add(ms.size());
    return;
  }
  Op op;
  op.kind = Op::Kind::kSendBatch;
  op.from = from;
  op.to = to;
  op.wires.reserve(ms.size());
  for (const Message& m : ms) op.wires.push_back(m.encode());
  {
    MutexLock lock(mu_);
    ops_.push_back(std::move(op));
  }
  wake();
}

void SocketRuntime::fanout(NodeId from, const std::vector<NodeId>& to,
                           const Message& m) {
  if (to.empty()) return;
  if (to.size() == 1) {
    send(from, to.front(), m);
    return;
  }
  if (stopping_.load()) {
    counters_.messages_dropped.fetch_add(to.size());
    return;
  }
  Op op;
  op.kind = Op::Kind::kFanout;
  op.from = from;
  op.wire = m.encode();
  op.targets = to;
  {
    MutexLock lock(mu_);
    ops_.push_back(std::move(op));
  }
  wake();
}

TimerHandle SocketRuntime::set_timer(NodeId owner, Duration delay,
                                     std::uint64_t tag) {
  const TimerHandle handle = next_timer_.fetch_add(1);
  Op op;
  op.kind = Op::Kind::kSetTimer;
  op.to = owner;
  op.handle = handle;
  op.deadline = now() + std::max<Duration>(delay, 0);
  op.tag = tag;
  {
    MutexLock lock(mu_);
    ops_.push_back(std::move(op));
  }
  wake();
  return handle;
}

void SocketRuntime::cancel_timer(TimerHandle handle) {
  Op op;
  op.kind = Op::Kind::kCancelTimer;
  op.handle = handle;
  {
    MutexLock lock(mu_);
    ops_.push_back(std::move(op));
  }
  wake();
}

void SocketRuntime::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

// ---------------------------------------------------------------------------
// Event loop.  Everything below runs on the loop thread only.
// ---------------------------------------------------------------------------

void SocketRuntime::loop() {
  for (auto& [id, node] : nodes_) {
    (void)id;
    node->on_start();
  }
  // Dial every book peer not hosted locally; redialed forever on failure.
  for (auto& [id, peer] : peers_) {
    if (!nodes_.contains(id)) start_connect(id, peer);
  }

  std::vector<epoll_event> events(64);
  while (!stopping_.load()) {
    drain_ops();
    reap_dead();
    if (stopping_.load()) break;

    const TimePoint t = now();
    for (auto& [id, peer] : peers_) {
      if (peer.fd < 0 && peer.next_connect_at && *peer.next_connect_at <= t) {
        peer.next_connect_at.reset();
        start_connect(id, peer);
      }
    }
    fire_due_timers();
    sweep_keepalive();
    drain_ops();  // timer handlers usually queued sends; flush them now
    reap_dead();

    const Duration delay = next_wakeup_delay();
    const int timeout_ms =
        delay <= 0
            ? 0
            : static_cast<int>(std::min<Duration>((delay + 999) / 1000, 200));
    const int nfds = ::epoll_wait(epoll_fd_, events.data(),
                                  static_cast<int>(events.size()), timeout_ms);
    for (int i = 0; i < nfds; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        std::uint64_t drained = 0;
        while (::read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& c = *it->second;
      if (c.dead) continue;
      if (ev & EPOLLIN) on_readable(c);
      if (!c.dead && (ev & EPOLLOUT)) {
        if (c.outbound && !c.open) {
          on_connect_ready(c);
        } else {
          flush_conn(c);
        }
      }
      if (!c.dead && (ev & (EPOLLERR | EPOLLHUP))) {
        if (c.outbound && !c.open) {
          on_connect_ready(c);  // reads SO_ERROR and fails the dial
        } else {
          mark_dead(c);
        }
      }
    }
    reap_dead();
  }
}

void SocketRuntime::drain_ops() {
  while (true) {
    std::deque<Op> batch;
    {
      MutexLock lock(mu_);
      batch.swap(ops_);
    }
    for (Op& op : batch) {
      switch (op.kind) {
        case Op::Kind::kSend:
          apply_send(op.from, op.to, std::move(op.wire));
          break;
        case Op::Kind::kSendBatch:
          apply_send_batch(op.from, op.to, std::move(op.wires));
          break;
        case Op::Kind::kFanout:
          // Expands to per-target deliveries on the loop thread; the last
          // target takes the shared wire buffer by move.
          for (std::size_t i = 0; i < op.targets.size(); ++i) {
            const bool last = i + 1 == op.targets.size();
            apply_send(op.from, op.targets[i],
                       last ? std::move(op.wire) : op.wire);
          }
          break;
        case Op::Kind::kSetTimer:
          timers_[{op.deadline, op.handle}] = TimerRec{op.to, op.tag};
          timer_index_[op.handle] = op.deadline;
          break;
        case Op::Kind::kCancelTimer: {
          const auto it = timer_index_.find(op.handle);
          if (it != timer_index_.end()) {
            timers_.erase({it->second, op.handle});
            timer_index_.erase(it);
          }
          break;
        }
        case Op::Kind::kDrop: {
          const auto it = routes_.find(op.to);
          if (it != routes_.end()) {
            const auto cit = conns_.find(it->second);
            if (cit != conns_.end()) mark_dead(*cit->second);
          }
          break;
        }
      }
    }
    // The one write point: every connection this pass queued to (or that
    // the event handlers marked before it) is written once.  Flushing per
    // pass, not after the queue runs dry, keeps a caller that refills the
    // queue from another thread from holding the writes back.
    flush_marked();
    if (batch.empty()) return;
  }
}

void SocketRuntime::apply_send(NodeId from, NodeId to, Bytes wire) {
  // Loopback fast path: receiver lives in this process.  The encode/decode
  // round trip still happened (wire was encoded inside send()), preserving
  // the value-isolation the other engines give.
  if (const auto it = nodes_.find(to); it != nodes_.end()) {
    auto decoded = Message::decode(wire);
    if (!decoded.is_ok()) {
      counters_.corrupt_frames.fetch_add(1);
      return;
    }
    it->second->on_message(from, decoded.value());
    return;
  }

  Bytes frame = encode_message_frame(from, to, wire);
  enqueue(to, {&frame, 1});
}

void SocketRuntime::apply_send_batch(NodeId from, NodeId to,
                                     std::vector<Bytes> wires) {
  // Loopback: the run surfaces back-to-back, in send order.
  if (const auto it = nodes_.find(to); it != nodes_.end()) {
    for (const Bytes& wire : wires) {
      auto decoded = Message::decode(wire);
      if (!decoded.is_ok()) {
        counters_.corrupt_frames.fetch_add(1);
        continue;
      }
      it->second->on_message(from, decoded.value());
    }
    return;
  }

  std::vector<Bytes> frames;
  frames.reserve(wires.size());
  for (const Bytes& wire : wires) {
    frames.push_back(encode_message_frame(from, to, wire));
  }
  enqueue(to, frames);
}

// Queues a run of frames toward `to`: on the connection routing to it, else
// on a dial in flight to that book peer, else in the peer's pending queue
// (dialing it unless a redial is already scheduled).  With no route and no
// book entry the run is dropped, the documented lossy-send case.
void SocketRuntime::enqueue(NodeId to, std::span<Bytes> frames) {
  const auto live = [this](int fd) -> Conn* {
    const auto it = conns_.find(fd);
    return it != conns_.end() && !it->second->dead ? it->second.get()
                                                   : nullptr;
  };
  Conn* c = nullptr;
  if (const auto r = routes_.find(to); r != routes_.end()) c = live(r->second);
  const auto pit = peers_.find(to);
  if (c == nullptr && pit != peers_.end() && pit->second.fd >= 0) {
    c = live(pit->second.fd);
  }
  if (c != nullptr) {
    queue_on_conn(*c, frames);
    return;
  }
  if (pit == peers_.end()) {
    counters_.messages_dropped.fetch_add(frames.size());
    return;
  }
  Peer& peer = pit->second;
  const std::size_t total = total_bytes(frames);
  if (peer.pending_bytes + total > cfg_.max_conn_queue_bytes) {
    counters_.messages_dropped.fetch_add(frames.size());
    return;
  }
  peer.pending_bytes += total;
  for (Bytes& frame : frames) {
    peer.pending.push_back(std::move(frame));
  }
  if (peer.fd < 0 && !peer.next_connect_at) start_connect(to, peer);
}

// The run queues atomically: either all of it fits under the cap or none of
// it does, so a shed batch never leaves a gapped suffix.
void SocketRuntime::queue_on_conn(Conn& c, std::span<Bytes> frames) {
  const std::size_t total = total_bytes(frames);
  if (c.outq_bytes + total > cfg_.max_conn_queue_bytes) {
    counters_.messages_dropped.fetch_add(frames.size());
    return;
  }
  c.outq_bytes += total;
  for (Bytes& frame : frames) {
    c.outq.push_back(std::move(frame));
  }
  mark_for_flush(c);
}

// A dial in flight is not marked: on_connect_ready marks it once it opens.
void SocketRuntime::mark_for_flush(Conn& c) {
  if (c.marked || !c.open) return;
  c.marked = true;
  marked_.push_back(c.fd);
}

void SocketRuntime::flush_marked() {
  for (const int fd : marked_) {
    const auto it = conns_.find(fd);
    // An unmarked conn here reuses the fd of a marked one closed since.
    if (it == conns_.end() || !it->second->marked) continue;
    it->second->marked = false;
    flush_conn(*it->second);
  }
  marked_.clear();
}

void SocketRuntime::flush_conn(Conn& c) {
  if (!c.open || c.dead) return;
  // Gathered writes: every queued frame (up to the iovec cap) goes out in
  // one writev, so the frames a turn queued here cost one syscall per 64
  // instead of one each.  Partial writes leave wip_off pointing into the
  // first unsent frame, exactly as the per-frame loop did.
  static constexpr std::size_t kMaxIov = 64;
  while (!c.outq.empty()) {
    iovec iov[kMaxIov];
    std::size_t niov = 0;
    for (auto it = c.outq.begin(); it != c.outq.end() && niov < kMaxIov;
         ++it) {
      const std::size_t off = niov == 0 ? c.wip_off : 0;
      iov[niov].iov_base = it->data() + off;
      iov[niov].iov_len = it->size() - off;
      ++niov;
    }
    // sendmsg == writev + MSG_NOSIGNAL (a peer that closed mid-batch must
    // surface as EPIPE on this thread, not kill the process).
    msghdr mh{};
    mh.msg_iov = iov;
    mh.msg_iovlen = niov;
    const ssize_t n = ::sendmsg(c.fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      counters_.bytes_sent.fetch_add(static_cast<std::uint64_t>(n));
      counters_.writev_calls.fetch_add(1);
      c.last_tx = now();
      std::size_t left = static_cast<std::size_t>(n);
      std::uint64_t completed = 0;
      while (left > 0 && !c.outq.empty()) {
        const std::size_t remain = c.outq.front().size() - c.wip_off;
        if (left >= remain) {
          left -= remain;
          c.outq_bytes -= c.outq.front().size();
          c.outq.pop_front();
          c.wip_off = 0;
          counters_.frames_sent.fetch_add(1);
          ++completed;
        } else {
          c.wip_off += left;
          left = 0;
        }
      }
      if (niov > 1) counters_.frames_coalesced.fetch_add(completed);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    mark_dead(c);
    return;
  }
  update_epoll(c, !c.outq.empty());
}

void SocketRuntime::update_epoll(Conn& c, bool want_write) {
  if (c.dead || want_write == c.want_write) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = c.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
  c.want_write = want_write;
}

void SocketRuntime::start_connect(NodeId peer_id, Peer& peer) {
  counters_.connects_attempted.fetch_add(1);
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string port_str = std::to_string(peer.addr.port);
  if (::getaddrinfo(peer.addr.host.c_str(), port_str.c_str(), &hints, &res) !=
          0 ||
      res == nullptr) {
    schedule_reconnect(peer_id, peer);
    return;
  }
  const int fd =
      ::socket(res->ai_family, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    ::freeaddrinfo(res);
    schedule_reconnect(peer_id, peer);
    return;
  }
  set_nodelay(fd);
  const int rc = ::connect(fd, res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    schedule_reconnect(peer_id, peer);
    return;
  }
  auto conn = std::make_unique<Conn>(cfg_.max_frame_bytes);
  conn->fd = fd;
  conn->outbound = true;
  conn->target = peer_id;
  conn->last_rx = conn->last_tx = now();
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;  // EPOLLOUT signals connect completion
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  conn->want_write = true;
  peer.fd = fd;
  conns_[fd] = std::move(conn);
}

void SocketRuntime::schedule_reconnect(NodeId peer_id, Peer& peer) {
  (void)peer_id;
  peer.fd = -1;
  peer.backoff = peer.backoff == 0
                     ? cfg_.reconnect_backoff_min
                     : std::min(peer.backoff * 2, cfg_.reconnect_backoff_max);
  peer.next_connect_at = now() + peer.backoff;
  counters_.reconnects_scheduled.fetch_add(1);
}

void SocketRuntime::on_connect_ready(Conn& c) {
  int err = 0;
  socklen_t len = sizeof(err);
  ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
  if (err != 0) {
    mark_dead(c);
    return;
  }
  c.open = true;
  counters_.connects_ok.fetch_add(1);
  std::vector<NodeId> local;
  local.reserve(nodes_.size());
  for (const auto& [id, node] : nodes_) {
    (void)node;
    local.push_back(id);
  }
  // Frames held while the peer was down are older than those queued on this
  // dial while it was in flight, so they go first; the hello leads both.
  // Neither queue outgrew the cap on its own, and the merged backlog only
  // delays new sends until it drains — it drops nothing already accepted.
  const auto pit = peers_.find(c.target);
  if (pit != peers_.end()) {
    Peer& peer = pit->second;
    peer.backoff = 0;
    peer.next_connect_at.reset();
    c.outq.insert(c.outq.begin(), std::make_move_iterator(peer.pending.begin()),
                  std::make_move_iterator(peer.pending.end()));
    c.outq_bytes += peer.pending_bytes;
    peer.pending.clear();
    peer.pending_bytes = 0;
  }
  Bytes hello = encode_hello_frame(local);
  c.outq_bytes += hello.size();
  c.outq.push_front(std::move(hello));
  routes_[c.target] = c.fd;
  c.claims.insert(c.target);
  mark_for_flush(c);
}

void SocketRuntime::on_readable(Conn& c) {
  bool eof = false;
  std::uint8_t buf[65536];
  while (true) {
    const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      counters_.bytes_received.fetch_add(static_cast<std::uint64_t>(n));
      c.last_rx = now();
      c.decoder.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    eof = true;
    break;
  }
  // Dispatch every complete frame that arrived — data already received is
  // valid even when the stream just ended behind it.
  Frame frame;
  while (!c.dead) {
    const FrameDecoder::Next r = c.decoder.next(&frame);
    if (r == FrameDecoder::Next::kNeedMore) break;
    if (r == FrameDecoder::Next::kCorrupt) {
      counters_.corrupt_frames.fetch_add(1);
      mark_dead(c);
      return;
    }
    handle_frame(c, std::move(frame));
  }
  if (eof && !c.dead) mark_dead(c);
}

// Frame-loop dispatch surface: every FrameKind must be handled below.
// lint-dispatch: FrameKind
void SocketRuntime::handle_frame(Conn& c, Frame frame) {
  counters_.frames_received.fetch_add(1);
  switch (frame.kind) {
    case FrameKind::kHello:
      for (const NodeId id : frame.hello_nodes) {
        routes_[id] = c.fd;
        c.claims.insert(id);
      }
      break;
    case FrameKind::kMessage: {
      // Refresh the route: after a reconnect the newest connection wins.
      routes_[frame.from] = c.fd;
      c.claims.insert(frame.from);
      const auto it = nodes_.find(frame.to);
      if (it == nodes_.end()) {
        counters_.messages_dropped.fetch_add(1);
        break;
      }
      auto decoded = Message::decode(frame.message_wire);
      if (!decoded.is_ok()) {
        counters_.corrupt_frames.fetch_add(1);
        mark_dead(c);
        return;
      }
      it->second->on_message(frame.from, decoded.value());
      break;
    }
    case FrameKind::kPing:
      queue_on_conn(c, encode_pong_frame());
      break;
    case FrameKind::kPong:
      break;  // last_rx was already refreshed by the read
  }
}

void SocketRuntime::accept_ready() {
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN or transient error: retry on next event
    set_nodelay(fd);
    auto conn = std::make_unique<Conn>(cfg_.max_frame_bytes);
    conn->fd = fd;
    conn->outbound = false;
    conn->open = true;
    conn->last_rx = conn->last_tx = now();
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    conns_[fd] = std::move(conn);
    counters_.accepts.fetch_add(1);
  }
}

void SocketRuntime::reap_dead() {
  std::vector<int> dead;
  for (const auto& [fd, conn] : conns_) {
    if (conn->dead) dead.push_back(fd);
  }
  for (const int fd : dead) close_conn(fd, /*schedule_redial=*/true);
}

void SocketRuntime::close_conn(int fd, bool schedule_redial) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = *it->second;
  for (const NodeId id : c.claims) {
    const auto r = routes_.find(id);
    if (r != routes_.end() && r->second == fd) routes_.erase(r);
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  counters_.disconnects.fetch_add(1);
  if (c.outbound) {
    const auto pit = peers_.find(c.target);
    if (pit != peers_.end() && pit->second.fd == fd) {
      Peer& peer = pit->second;
      if (!c.open) {
        // The dial never completed, so the peer saw none of these frames;
        // put them back behind any older pending traffic to survive the
        // redial.  (An open connection that dies keeps the lossy-send
        // contract: its queue is dropped and sequenced traffic is recovered
        // by the protocol's retransmission path.)
        while (!c.outq.empty()) {
          Bytes& frame = c.outq.front();
          if (peer.pending_bytes + frame.size() <= cfg_.max_conn_queue_bytes) {
            peer.pending_bytes += frame.size();
            peer.pending.push_back(std::move(frame));
          } else {
            counters_.messages_dropped.fetch_add(1);
          }
          c.outq.pop_front();
        }
      }
      if (schedule_redial && !stopping_.load()) {
        schedule_reconnect(c.target, peer);
      } else {
        peer.fd = -1;
      }
    }
  }
  conns_.erase(it);
}

void SocketRuntime::fire_due_timers() {
  const TimePoint t = now();
  while (!timers_.empty() && timers_.begin()->first.first <= t) {
    const auto [key, rec] = *timers_.begin();
    timers_.erase(timers_.begin());
    timer_index_.erase(key.second);
    const auto it = nodes_.find(rec.owner);
    if (it != nodes_.end()) it->second->on_timer(rec.tag);
  }
}

void SocketRuntime::sweep_keepalive() {
  if (cfg_.keepalive_interval <= 0 && cfg_.peer_silence_timeout <= 0) return;
  const TimePoint t = now();
  // Sweep at a fraction of the smallest configured interval.
  Duration cadence = cfg_.keepalive_interval > 0 ? cfg_.keepalive_interval
                                                 : cfg_.peer_silence_timeout;
  if (cfg_.peer_silence_timeout > 0) {
    cadence = std::min(cadence, cfg_.peer_silence_timeout);
  }
  cadence = std::max<Duration>(cadence / 4, kMillisecond);
  if (t - last_keepalive_sweep_ < cadence) return;
  last_keepalive_sweep_ = t;

  for (auto& [fd, conn] : conns_) {
    (void)fd;
    Conn& c = *conn;
    if (!c.open || c.dead) continue;
    if (cfg_.peer_silence_timeout > 0 &&
        t - c.last_rx > cfg_.peer_silence_timeout) {
      mark_dead(c);
      continue;
    }
    if (cfg_.keepalive_interval > 0 &&
        t - c.last_tx >= cfg_.keepalive_interval) {
      queue_on_conn(c, encode_ping_frame());
      counters_.pings_sent.fetch_add(1);
    }
  }
}

Duration SocketRuntime::next_wakeup_delay() const {
  {
    MutexLock lock(mu_);
    if (!ops_.empty()) return 0;
  }
  Duration delay = 200 * kMillisecond;
  const TimePoint t = now();
  if (!timers_.empty()) {
    delay = std::min(delay, timers_.begin()->first.first - t);
  }
  for (const auto& [id, peer] : peers_) {
    (void)id;
    if (peer.fd < 0 && peer.next_connect_at) {
      delay = std::min(delay, *peer.next_connect_at - t);
    }
  }
  if (cfg_.keepalive_interval > 0 || cfg_.peer_silence_timeout > 0) {
    delay = std::min(delay, 10 * kMillisecond);
  }
  return delay;
}

}  // namespace corona::net
