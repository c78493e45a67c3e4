// End-to-end Corona over real TCP on 127.0.0.1: one SocketRuntime process
// hosting the stateful server, three more hosting one CoronaClient each —
// four event loops, four real sockets, the unchanged protocol code from
// src/core.  Covers the full session: create, join with customized state
// transfer, >100 sequenced multicasts in identical total order, locks, a
// dropped-and-reconnected client resyncing via retransmission, and leave.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/server.h"
#include "core/stateless_server.h"
#include "net/socket_runtime.h"

namespace corona::net {
namespace {

const NodeId kServerId{1};
const GroupId kG{1};
const ObjectId kObj{1};

// Polls `pred` until it holds or `timeout` wall-clock elapses.  Generous
// timeouts keep this stable under sanitizers on loaded machines.
bool wait_until(const std::function<bool()>& pred,
                Duration timeout = 30 * kSecond) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(timeout);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

// A raw TCP socket bound to an ephemeral 127.0.0.1 port, not listening yet,
// so tests can play a peer whose accept queue they control.  Returns the fd
// (or -1) and stores the bound address in *addr.
int bind_loopback(sockaddr_in* addr) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  *addr = sockaddr_in{};
  addr->sin_family = AF_INET;
  addr->sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(*addr);
  if (::bind(fd, reinterpret_cast<sockaddr*>(addr), len) != 0 ||
      ::getsockname(fd, reinterpret_cast<sockaddr*>(addr), &len) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// One client "process": its own SocketRuntime whose address book holds just
// the server, plus journals filled from the delivery callback.
struct ClientProc {
  explicit ClientProc(NodeId id, std::uint16_t server_port,
                      SocketRuntimeConfig cfg = {},
                      int first_deliver_stall_ms = 0)
      : rt(cfg), id(id) {
    CoronaClient::Callbacks cb;
    cb.on_deliver = [this, first_deliver_stall_ms](GroupId,
                                                   const UpdateRecord& rec) {
      // A positive stall blocks this client's event loop on its first
      // delivery.  While it sleeps nothing is read, so the kernel buffers
      // behind it stay at their small initial sizes and a concurrent
      // fan-out burst sees genuine EAGAIN backpressure at the server.
      if (first_deliver_stall_ms > 0 && !stalled) {
        stalled = true;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(first_deliver_stall_ms));
      }
      std::lock_guard<std::mutex> lock(mu);
      journal.push_back(rec.seq);
    };
    cb.on_joined = [this](GroupId, Status s) {
      std::lock_guard<std::mutex> lock(mu);
      if (s.is_ok()) ++joins_ok;
    };
    cb.on_lock_granted = [this](GroupId, ObjectId) {
      std::lock_guard<std::mutex> lock(mu);
      ++lock_grants;
    };
    cb.on_reply = [this](RequestId, Status s) {
      std::lock_guard<std::mutex> lock(mu);
      if (s.is_ok()) ++replies_ok;
    };
    client = std::make_unique<CoronaClient>(kServerId, cb);
    rt.add_node(id, client.get());
    rt.set_peer_address(kServerId, Endpoint{"127.0.0.1", server_port});
    rt.start();
  }
  ~ClientProc() { rt.stop(); }

  std::size_t journal_size() {
    std::lock_guard<std::mutex> lock(mu);
    return journal.size();
  }
  std::vector<SeqNo> journal_copy() {
    std::lock_guard<std::mutex> lock(mu);
    return journal;
  }
  void clear_journal() {
    std::lock_guard<std::mutex> lock(mu);
    journal.clear();
  }
  int joins() {
    std::lock_guard<std::mutex> lock(mu);
    return joins_ok;
  }
  int grants() {
    std::lock_guard<std::mutex> lock(mu);
    return lock_grants;
  }
  int replies() {
    std::lock_guard<std::mutex> lock(mu);
    return replies_ok;
  }

  SocketRuntime rt;
  NodeId id;
  std::unique_ptr<CoronaClient> client;

  std::mutex mu;
  std::vector<SeqNo> journal;
  bool stalled = false;  // loop-thread only
  int joins_ok = 0;
  int lock_grants = 0;
  int replies_ok = 0;
};

TEST(SocketLoopback, FullSessionOverRealTcp) {
  // --- server process ---
  SocketRuntime server_rt;
  GroupStore store;
  CoronaServer server(ServerConfig{}, &store);
  server_rt.add_node(kServerId, &server);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  // --- three client processes, real connections over 127.0.0.1 ---
  ClientProc c0(NodeId{100}, port.value());
  ClientProc c1(NodeId{101}, port.value());
  // c2 gets a long reconnect backoff so the disconnect window below is wide
  // enough that deliveries are provably lost and must be re-fetched.
  SocketRuntimeConfig slow_redial;
  slow_redial.reconnect_backoff_min = 500 * kMillisecond;
  ClientProc c2(NodeId{102}, port.value(), slow_redial);

  ASSERT_TRUE(wait_until([&] { return server_rt.stats().accepts >= 3; }));

  // --- create + join (full transfer for c0/c1) ---
  c0.client->create_group(kG, "g", true);
  // c1's join rides a different TCP connection than c0's create, so nothing
  // orders them at the server; wait for the create ack before c1 joins.
  ASSERT_TRUE(wait_until([&] { return c0.replies() >= 1; }));
  c0.client->join(kG);
  c1.client->join(kG);
  ASSERT_TRUE(wait_until([&] { return c0.joins() == 1 && c1.joins() == 1; }));

  // --- customized state transfer: 20 updates, then join with last-5 ---
  for (int i = 0; i < 20; ++i) {
    c0.client->bcast_update(kG, kObj, to_bytes("u"));
  }
  ASSERT_TRUE(wait_until([&] { return c1.journal_size() >= 20; }));
  c2.client->join(kG, TransferPolicySpec::last_n_updates(5));
  ASSERT_TRUE(wait_until([&] { return c2.joins() == 1; }));
  {
    const SharedState* st = c2.client->group_state(kG);
    ASSERT_NE(st, nullptr);
    ASSERT_NE(st->object(kObj), nullptr);
    EXPECT_EQ(st->object(kObj)->size(), 5u)
        << "last_n_updates(5) must transfer exactly the 5 newest updates";
    const SharedState* full = c1.client->group_state(kG);
    ASSERT_NE(full, nullptr);
    EXPECT_EQ(full->object(kObj)->size(), 20u);
  }

  // --- >100 sequenced multicasts from all three, identical total order ---
  c0.clear_journal();
  c1.clear_journal();
  c2.clear_journal();
  constexpr int kRounds = 35;  // 3 * 35 = 105 multicasts
  for (int round = 0; round < kRounds; ++round) {
    c0.client->bcast_update(kG, kObj, to_bytes("a"));
    c1.client->bcast_update(kG, kObj, to_bytes("b"));
    c2.client->bcast_update(kG, kObj, to_bytes("c"));
  }
  const std::size_t expect = 3 * kRounds;
  ASSERT_TRUE(wait_until([&] {
    return c0.journal_size() >= expect && c1.journal_size() >= expect &&
           c2.journal_size() >= expect;
  }));
  const auto j0 = c0.journal_copy();
  const auto j1 = c1.journal_copy();
  const auto j2 = c2.journal_copy();
  ASSERT_EQ(j0.size(), expect);
  EXPECT_EQ(j0, j1) << "clients saw different total orders";
  EXPECT_EQ(j0, j2) << "clients saw different total orders";
  for (std::size_t i = 1; i < j0.size(); ++i) {
    ASSERT_EQ(j0[i - 1] + 1, j0[i]) << "sequence gap in the total order";
  }

  // --- locks serialize across real connections ---
  c0.client->lock(kG, kObj);
  ASSERT_TRUE(wait_until([&] { return c0.grants() == 1; }));
  c1.client->lock(kG, kObj);  // must queue behind c0
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(c1.grants(), 0);
  c0.client->unlock(kG, kObj);
  ASSERT_TRUE(wait_until([&] { return c1.grants() == 1; }));
  c1.client->unlock(kG, kObj);

  // --- disconnect c2, lose deliveries, reconnect, resync via retransmit ---
  const auto disconnects_before = server_rt.stats().disconnects;
  server_rt.drop_connection(NodeId{102});
  ASSERT_TRUE(wait_until(
      [&] { return server_rt.stats().disconnects > disconnects_before; }));
  // These fan-outs happen while c2 has no connection (its redial waits
  // 500 ms), so its copies are dropped at the server and must come back
  // through the retransmission path.
  for (int i = 0; i < 5; ++i) {
    c0.client->bcast_update(kG, kObj, to_bytes("lost"));
  }
  ASSERT_TRUE(wait_until([&] {
    return c0.journal_size() >= expect + 5 && c1.journal_size() >= expect + 5;
  }));
  EXPECT_LT(c2.journal_size(), expect + 5) << "c2 was supposed to be offline";
  // Wait out the redial, then send one more update: its sequence number
  // exposes the gap to c2, which requests retransmission and catches up.
  ASSERT_TRUE(wait_until(
      [&] { return c2.rt.stats().connects_ok >= 2; }, 60 * kSecond));
  c0.client->bcast_update(kG, kObj, to_bytes("after"));
  ASSERT_TRUE(wait_until([&] {
    return c2.journal_size() >= expect + 6;
  }));
  EXPECT_GE(c2.client->gaps_detected(), 1u);
  EXPECT_EQ(c2.journal_copy(), c0.journal_copy())
      << "resynced client diverged from the total order";

  // --- leave: no further deliveries reach c2 ---
  c2.client->leave(kG);
  ASSERT_TRUE(wait_until([&] { return !c2.client->is_joined(kG); }));
  const std::size_t c2_final = c2.journal_size();
  c0.client->bcast_update(kG, kObj, to_bytes("bye"));
  ASSERT_TRUE(wait_until([&] { return c0.journal_size() >= expect + 7; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(c2.journal_size(), c2_final);

  c2.rt.stop();
  c1.rt.stop();
  c0.rt.stop();
  server_rt.stop();
}

// Batched fan-out over real TCP: the server coalesces deliveries into
// multi-frame gathered writes, and a client severed *mid-batch* — the
// connection dies while coalesced frames are still being pushed — resyncs
// via retransmission to the exact unacked suffix.  A torn batch would show
// up as a duplicate, a gap, or a divergent journal.
TEST(SocketLoopback, BatchedFanoutSurvivesMidBatchDisconnect) {
  SocketRuntime server_rt;
  GroupStore store;
  ServerConfig scfg;
  scfg.batch_max_msgs = 8;
  scfg.batch_max_delay = 20 * kMillisecond;
  CoronaServer server(scfg, &store);
  server_rt.add_node(kServerId, &server);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  ClientProc c0(NodeId{100}, port.value());
  ClientProc c1(NodeId{101}, port.value());
  // The victim gets a long redial backoff so its offline window straddles
  // whole batches, not just single frames.
  SocketRuntimeConfig slow_redial;
  slow_redial.reconnect_backoff_min = 500 * kMillisecond;
  ClientProc c2(NodeId{102}, port.value(), slow_redial);
  ASSERT_TRUE(wait_until([&] { return server_rt.stats().accepts >= 3; }));

  c0.client->create_group(kG, "g", true);
  ASSERT_TRUE(wait_until([&] { return c0.replies() >= 1; }));
  c0.client->join(kG);
  c1.client->join(kG);
  c2.client->join(kG);
  ASSERT_TRUE(wait_until(
      [&] { return c0.joins() == 1 && c1.joins() == 1 && c2.joins() == 1; }));

  // --- warm burst: back-to-back sends fill the batch queue, so fan-out
  // frames leave in gathered writes ---
  constexpr std::size_t kWarm = 40;
  for (std::size_t i = 0; i < kWarm; ++i) {
    c0.client->bcast_update(kG, kObj, to_bytes("w"));
  }
  ASSERT_TRUE(wait_until([&] {
    return c0.journal_size() >= kWarm && c1.journal_size() >= kWarm &&
           c2.journal_size() >= kWarm;
  }));
  EXPECT_GE(server_rt.stats().writev_calls, 1u);
  EXPECT_GE(server_rt.stats().frames_coalesced, 2u)
      << "no fan-out frame was ever coalesced into a gathered write";

  // --- sever c2 mid-stream, then push two more batches while it is gone ---
  const auto disconnects_before = server_rt.stats().disconnects;
  server_rt.drop_connection(NodeId{102});
  ASSERT_TRUE(wait_until(
      [&] { return server_rt.stats().disconnects > disconnects_before; }));
  constexpr std::size_t kLost = 16;
  for (std::size_t i = 0; i < kLost; ++i) {
    c0.client->bcast_update(kG, kObj, to_bytes("lost"));
  }
  ASSERT_TRUE(wait_until([&] {
    return c0.journal_size() >= kWarm + kLost &&
           c1.journal_size() >= kWarm + kLost;
  }));
  EXPECT_LT(c2.journal_size(), kWarm + kLost)
      << "c2 was supposed to be offline";

  // --- redial, nudge, resync: exactly the unacked suffix comes back ---
  ASSERT_TRUE(wait_until(
      [&] { return c2.rt.stats().connects_ok >= 2; }, 60 * kSecond));
  c0.client->bcast_update(kG, kObj, to_bytes("after"));
  ASSERT_TRUE(wait_until(
      [&] { return c2.journal_size() >= kWarm + kLost + 1; }));
  EXPECT_GE(c2.client->gaps_detected(), 1u);

  const auto j0 = c0.journal_copy();
  const auto j2 = c2.journal_copy();
  EXPECT_EQ(j2, j0) << "resynced client diverged from the total order";
  for (std::size_t i = 1; i < j2.size(); ++i) {
    ASSERT_EQ(j2[i - 1] + 1, j2[i])
        << "duplicate or gap at delivery " << i
        << " — resync replayed something other than the unacked suffix";
  }

  c2.rt.stop();
  c1.rt.stop();
  c0.rt.stop();
  server_rt.stop();
  // The loop thread is joined; server counters are safe to read now.
  EXPECT_GE(server.stats().batches_sequenced, 1u);
  EXPECT_GE(server.stats().batch_frames_sent, 1u)
      << "batching was configured but no coalesced frame was sent";
}

TEST(SocketLoopback, StatelessServerSequencesOverSockets) {
  // The Figure-3 stateless configuration deploys over TCP unchanged too.
  SocketRuntime server_rt;
  StatelessServer server;
  server_rt.add_node(kServerId, &server);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  ClientProc a(NodeId{100}, port.value());
  ClientProc b(NodeId{101}, port.value());

  a.client->create_group(kG, "g", false);
  // b's join is on a different connection than a's create; wait for the ack.
  ASSERT_TRUE(wait_until([&] { return a.replies() >= 1; }));
  a.client->join(kG, TransferPolicySpec::nothing());
  b.client->join(kG, TransferPolicySpec::nothing());
  ASSERT_TRUE(wait_until([&] { return a.joins() == 1 && b.joins() == 1; }));

  for (int i = 0; i < 10; ++i) {
    a.client->bcast_update(kG, kObj, to_bytes("x"));
  }
  ASSERT_TRUE(wait_until(
      [&] { return a.journal_size() >= 10 && b.journal_size() >= 10; }));
  EXPECT_EQ(a.journal_copy(), b.journal_copy());

  a.rt.stop();
  b.rt.stop();
  server_rt.stop();
}

// Node::on_timer must work unchanged on the socket engine.
class TickNode : public Node {
 public:
  std::atomic<int> fired{0};
  TimerHandle cancelled = 0;

  void on_start() override {
    set_timer(5 * kMillisecond, 1);
    cancelled = set_timer(10 * kMillisecond, 2);
    cancel_timer(cancelled);
    set_timer(15 * kMillisecond, 3);
  }
  void on_message(NodeId, const Message&) override {}
  void on_timer(std::uint64_t tag) override {
    EXPECT_NE(tag, 2u) << "cancelled timer fired";
    fired.fetch_add(1);
  }
};

TEST(SocketLoopback, TimersFireAndCancelOnLoopThread) {
  SocketRuntime rt;
  TickNode n;
  rt.add_node(NodeId{1}, &n);
  rt.start();
  ASSERT_TRUE(wait_until([&] { return n.fired.load() >= 2; }));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  rt.stop();
  EXPECT_EQ(n.fired.load(), 2);
}

TEST(SocketLoopback, TransportKeepaliveKeepsIdleConnectionAlive) {
  SocketRuntime server_rt;
  GroupStore store;
  CoronaServer server(ServerConfig{}, &store);
  server_rt.add_node(kServerId, &server);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok());
  server_rt.start();

  SocketRuntimeConfig cfg;
  cfg.keepalive_interval = 20 * kMillisecond;
  ClientProc c(NodeId{100}, port.value(), cfg);
  ASSERT_TRUE(wait_until([&] { return c.rt.stats().pings_sent >= 3; }));
  // Pongs came back on the same connection; no reconnect happened.
  EXPECT_EQ(c.rt.stats().connects_ok, 1u);
  EXPECT_EQ(c.rt.stats().disconnects, 0u);

  c.rt.stop();
  server_rt.stop();
}

TEST(SocketLoopback, ServerUnreachableThenReachable) {
  // A client started before its server exists must keep redialing with
  // backoff and deliver the queued traffic once the server appears.
  SocketRuntime probe;
  auto port = probe.listen("127.0.0.1", 0);  // reserve an ephemeral port
  ASSERT_TRUE(port.is_ok());
  const std::uint16_t p = port.value();
  // Release the port (nothing listens there now).
  probe.stop();

  ClientProc c(NodeId{100}, p);
  c.client->create_group(kG, "g", true);  // queued toward the absent server
  ASSERT_TRUE(wait_until(
      [&] { return c.rt.stats().reconnects_scheduled >= 2; }));

  SocketRuntime server_rt;
  GroupStore store;
  CoronaServer server(ServerConfig{}, &store);
  server_rt.add_node(kServerId, &server);
  auto rebind = server_rt.listen("127.0.0.1", p);
  ASSERT_TRUE(rebind.is_ok()) << rebind.status().to_string();
  server_rt.start();

  c.client->join(kG);
  ASSERT_TRUE(wait_until([&] { return c.joins() == 1; }, 60 * kSecond));

  c.rt.stop();
  server_rt.stop();
}

// Counts messages arriving at a node, independent of protocol role.
struct SinkNode final : Node {
  std::mutex mu;
  std::vector<SeqNo> seqs;
  void on_message(NodeId, const Message& m) override {
    std::lock_guard<std::mutex> lock(mu);
    seqs.push_back(m.seq);
  }
  std::size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return seqs.size();
  }
};

TEST(SocketLoopback, BatchOfOneStillDelivers) {
  // send_batch is the transport's public API, and a run of one message is a
  // legal batch: it must take the single-frame fast path, not vanish.
  SocketRuntime server_rt;
  SinkNode sink;
  server_rt.add_node(kServerId, &sink);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  SocketRuntime sender_rt;
  SinkNode unused;
  sender_rt.add_node(NodeId{100}, &unused);
  sender_rt.set_peer_address(kServerId, Endpoint{"127.0.0.1", port.value()});
  sender_rt.start();

  Message one;
  one.type = MsgType::kHeartbeat;
  one.seq = 7;
  sender_rt.send_batch(NodeId{100}, kServerId, {one});
  ASSERT_TRUE(wait_until([&] { return sink.count() >= 1; }));

  Message a = one, b = one;
  a.seq = 8;
  b.seq = 9;
  sender_rt.send_batch(NodeId{100}, kServerId, {a, b});
  ASSERT_TRUE(wait_until([&] { return sink.count() >= 3; }));

  sender_rt.stop();
  server_rt.stop();
  EXPECT_EQ(sink.seqs, (std::vector<SeqNo>{7, 8, 9}));
  EXPECT_EQ(server_rt.stats().messages_dropped, 0u);
}

TEST(SocketLoopback, OutOfRangeEnumIsACorruptFrame) {
  // A message whose type byte is past the last MsgType decodes no better
  // than a truncated one: the receiver counts a corrupt frame, tears the
  // connection down, and delivers nothing.
  SocketRuntime server_rt;
  SinkNode sink;
  server_rt.add_node(kServerId, &sink);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  SocketRuntime sender_rt;
  SinkNode unused;
  sender_rt.add_node(NodeId{100}, &unused);
  sender_rt.set_peer_address(kServerId, Endpoint{"127.0.0.1", port.value()});
  sender_rt.start();

  Message good;
  good.type = MsgType::kHeartbeat;
  good.seq = 1;
  sender_rt.send(NodeId{100}, kServerId, good);
  ASSERT_TRUE(wait_until([&] { return sink.count() >= 1; }));

  Message bad = good;
  bad.seq = 2;
  bad.type =
      static_cast<MsgType>(static_cast<int>(MsgType::kDigestReply) + 1);
  sender_rt.send(NodeId{100}, kServerId, bad);
  ASSERT_TRUE(
      wait_until([&] { return server_rt.stats().corrupt_frames >= 1; }));
  EXPECT_TRUE(wait_until([&] { return server_rt.stats().disconnects >= 1; }));

  sender_rt.stop();
  server_rt.stop();
  EXPECT_EQ(sink.seqs, (std::vector<SeqNo>{1}));
}

TEST(SocketLoopback, StopWhileRedialTimerPending) {
  // Shutdown-ordering: stop() must join the loop cleanly while the
  // reconnect-backoff timer is armed and a connect may be in flight.
  SocketRuntime probe;
  auto port = probe.listen("127.0.0.1", 0);  // reserve an ephemeral port
  ASSERT_TRUE(port.is_ok());
  const std::uint16_t p = port.value();
  probe.stop();  // nothing listens there now

  SocketRuntimeConfig cfg;
  cfg.reconnect_backoff_min = 5 * kMillisecond;
  cfg.reconnect_backoff_max = 20 * kMillisecond;
  auto c = std::make_unique<ClientProc>(NodeId{100}, p, cfg);
  c->client->create_group(kG, "g", true);  // traffic queued toward nobody
  ASSERT_TRUE(wait_until(
      [&] { return c->rt.stats().reconnects_scheduled >= 1; }));
  c->rt.stop();  // redial timer still pending
  c->rt.stop();  // second stop is a no-op
  c.reset();     // and the destructor's stop is a third
}

TEST(SocketLoopback, StopWhileBatchPartiallyDrained) {
  // Shutdown-ordering: stop() right after a large send_batch — the loop
  // may be mid-writev with most of the batch still queued.  The contract
  // is that loss cuts only the tail: whatever arrives is an in-order
  // prefix, and the teardown itself must be race-free (tsan checks that).
  SocketRuntime server_rt;
  SinkNode sink;
  server_rt.add_node(kServerId, &sink);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  SocketRuntime sender_rt;
  SinkNode unused;
  sender_rt.add_node(NodeId{100}, &unused);
  sender_rt.set_peer_address(kServerId, Endpoint{"127.0.0.1", port.value()});
  sender_rt.start();

  Message m;
  m.type = MsgType::kHeartbeat;
  m.payload = Bytes(1024, 0x5a);
  std::vector<Message> batch;
  for (SeqNo i = 0; i < 512; ++i) {
    m.seq = i;
    batch.push_back(m);
  }
  sender_rt.send_batch(NodeId{100}, kServerId, batch);
  sender_rt.stop();  // no settling: the batch is at best partially written
  server_rt.stop();

  const std::vector<SeqNo> got = sink.seqs;  // loops joined; no lock needed
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], i) << "delivered batch is not an in-order prefix";
  }
}

TEST(SocketLoopback, WriteBackpressureDrainsViaEpollout) {
  // A fan-out burst larger than the kernel socket buffers forces sendmsg
  // into EAGAIN with frames still queued in user space.  Nothing else ever
  // pokes that connection again — client heartbeats are off, delivers are
  // unacknowledged, and the burst is over — so the backlog drains only if
  // the loop registered EPOLLOUT for the queued bytes.  The receiver stalls
  // its event loop on the first delivery: with nothing being read, TCP
  // autotuning cannot grow the buffers past their small initial sizes, so
  // most of the burst provably lands in the server's user-space queue
  // rather than being absorbed by the kernel.
  SocketRuntime server_rt;
  GroupStore store;
  CoronaServer server(ServerConfig{}, &store);
  server_rt.add_node(kServerId, &server);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  ClientProc sender(NodeId{100}, port.value());
  ClientProc receiver(NodeId{101}, port.value(), {},
                      /*first_deliver_stall_ms=*/800);
  ASSERT_TRUE(wait_until([&] { return server_rt.stats().accepts >= 2; }));

  sender.client->create_group(kG, "g", true);
  ASSERT_TRUE(wait_until([&] { return sender.replies() >= 1; }));
  sender.client->join(kG);
  receiver.client->join(kG);
  ASSERT_TRUE(wait_until(
      [&] { return sender.joins() == 1 && receiver.joins() == 1; }));

  // ~6.4 MB of deliveries per client: beyond what the kernel can absorb
  // for the stalled connection (sndbuf autotunes to at most 4 MB and the
  // frozen rcvbuf holds a few hundred KB), yet the post-EAGAIN backlog
  // stays comfortably under the 8 MB per-connection queue cap (overflow
  // there would drop frames and fail the messages_dropped check below).
  constexpr std::size_t kBurst = 200;
  const std::string payload(32 * 1024, 'x');
  for (std::size_t i = 0; i < kBurst; ++i) {
    sender.client->bcast_update(kG, kObj, to_bytes(payload));
  }
  EXPECT_TRUE(wait_until([&] { return receiver.journal_size() >= kBurst; }))
      << "fan-out stalled at " << receiver.journal_size() << "/" << kBurst
      << " -- backlogged frames drain only via EPOLLOUT";
  EXPECT_TRUE(wait_until([&] { return sender.journal_size() >= kBurst; }));
  EXPECT_EQ(server_rt.stats().messages_dropped, 0u);
  server_rt.stop();  // the loop reads `store`, which dies before server_rt
}

TEST(SocketLoopback, FanoutToOneConnectionIsOneGatheredWrite) {
  // One client runtime hosts every member, so the server reaches all of
  // them over one connection.  A multicast's fan-out must leave as ONE
  // frame listing every member, in one sendmsg, at the default batch size
  // of 1; the client runtime delivers it to each member.
  GroupStore store;
  CoronaServer server(ServerConfig{}, &store);
  SocketRuntime server_rt;
  server_rt.add_node(kServerId, &server);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  constexpr std::size_t kMembers = 16;
  std::mutex mu;
  std::vector<std::vector<SeqNo>> journals(kMembers);
  std::size_t joined = 0;
  std::size_t replies = 0;
  std::vector<std::unique_ptr<CoronaClient>> members;
  SocketRuntime client_rt;  // declared last: its loop stops first
  for (std::size_t i = 0; i < kMembers; ++i) {
    CoronaClient::Callbacks cb;
    cb.on_deliver = [&, i](GroupId, const UpdateRecord& rec) {
      std::lock_guard<std::mutex> lock(mu);
      journals[i].push_back(rec.seq);
    };
    cb.on_joined = [&](GroupId, Status s) {
      std::lock_guard<std::mutex> lock(mu);
      if (s.is_ok()) ++joined;
    };
    cb.on_reply = [&](RequestId, Status s) {
      std::lock_guard<std::mutex> lock(mu);
      if (s.is_ok()) ++replies;
    };
    members.push_back(std::make_unique<CoronaClient>(kServerId, cb));
    client_rt.add_node(NodeId{100 + i}, members.back().get());
  }
  client_rt.set_peer_address(kServerId, Endpoint{"127.0.0.1", port.value()});
  client_rt.start();
  const auto holds = [&](const std::function<bool()>& pred) {
    std::lock_guard<std::mutex> lock(mu);
    return pred();
  };

  members[0]->create_group(kG, "g", true);
  ASSERT_TRUE(wait_until([&] { return holds([&] { return replies >= 1; }); }));
  for (const auto& m : members) m->join(kG);
  ASSERT_TRUE(
      wait_until([&] { return holds([&] { return joined == kMembers; }); }));
  // The last join reply can reach its member a moment before the server's
  // loop counts its write; let the counters settle.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const SocketRuntime::Stats before = server_rt.stats();

  members[0]->bcast_update(kG, kObj, to_bytes("x"));
  ASSERT_TRUE(wait_until([&] {
    return server_rt.stats().frames_sent >= before.frames_sent + 1 &&
           holds([&] {
             return std::all_of(journals.begin(), journals.end(),
                                [](const auto& j) { return !j.empty(); });
           });
  }));
  const SocketRuntime::Stats after = server_rt.stats();
  client_rt.stop();
  server_rt.stop();

  EXPECT_EQ(after.frames_sent - before.frames_sent, 1u)
      << "the fan-out to one connection took one frame per member";
  EXPECT_LE(after.writev_calls - before.writev_calls, 1u);
  ASSERT_EQ(journals[0].size(), 1u);
  for (const auto& j : journals) EXPECT_EQ(j, journals[0]);
}

TEST(SocketLoopback, OneMemberPerConnectionKeepsOneFramePerMember) {
  // With every member behind its own connection there is nothing to share:
  // one multicast still costs the server one frame per member.
  GroupStore store;
  CoronaServer server(ServerConfig{}, &store);
  SocketRuntime server_rt;
  server_rt.add_node(kServerId, &server);
  auto port = server_rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  server_rt.start();

  constexpr std::size_t kMembers = 4;
  std::vector<std::unique_ptr<ClientProc>> members;
  for (std::size_t i = 0; i < kMembers; ++i) {
    members.push_back(
        std::make_unique<ClientProc>(NodeId{100 + i}, port.value()));
  }
  ASSERT_TRUE(
      wait_until([&] { return server_rt.stats().accepts >= kMembers; }));
  members[0]->client->create_group(kG, "g", true);
  ASSERT_TRUE(wait_until([&] { return members[0]->replies() >= 1; }));
  for (const auto& m : members) m->client->join(kG);
  ASSERT_TRUE(wait_until([&] {
    return std::all_of(members.begin(), members.end(),
                       [](const auto& m) { return m->joins() == 1; });
  }));
  // The last join reply can reach its member a moment before the server's
  // loop counts its write; let the counters settle.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const SocketRuntime::Stats before = server_rt.stats();

  members[0]->client->bcast_update(kG, kObj, to_bytes("x"));
  ASSERT_TRUE(wait_until([&] {
    return server_rt.stats().frames_sent >= before.frames_sent + kMembers &&
           std::all_of(members.begin(), members.end(),
                       [](const auto& m) { return m->journal_size() >= 1; });
  }));
  const SocketRuntime::Stats after = server_rt.stats();
  members.clear();
  server_rt.stop();

  EXPECT_EQ(after.frames_sent - before.frames_sent, kMembers);
}

// A server and `n` members hosted on one client runtime, so that one frame
// carries each fan-out to every member.  Each member's journal keeps a copy
// of every record delivered to it.
struct MembersOnOneRuntime {
  explicit MembersOnOneRuntime(std::size_t n) : journals(n) {
    server_rt.add_node(kServerId, &server);
    auto listening = server_rt.listen("127.0.0.1", 0);
    if (listening.is_ok()) port = listening.value();
    server_rt.start();
    for (std::size_t i = 0; i < n; ++i) {
      CoronaClient::Callbacks cb;
      cb.on_deliver = [this, i](GroupId, const UpdateRecord& rec) {
        std::lock_guard<std::mutex> lock(mu);
        journals[i].push_back(rec);
      };
      cb.on_joined = [this](GroupId, Status s) {
        std::lock_guard<std::mutex> lock(mu);
        if (s.is_ok()) ++joined;
      };
      cb.on_reply = [this](RequestId, Status s) {
        std::lock_guard<std::mutex> lock(mu);
        if (s.is_ok()) ++replies;
      };
      members.push_back(std::make_unique<CoronaClient>(kServerId, cb));
      client_rt.add_node(NodeId{100 + i}, members.back().get());
    }
    client_rt.set_peer_address(kServerId, Endpoint{"127.0.0.1", port});
    client_rt.start();
  }
  ~MembersOnOneRuntime() {
    client_rt.stop();
    server_rt.stop();
  }

  // Member 0 creates the group and every member joins it.
  bool join_all() {
    members[0]->create_group(kG, "g", true);
    if (!wait_until([&] { return counted(replies) >= 1; })) return false;
    for (const auto& m : members) m->join(kG);
    return wait_until([&] { return counted(joined) == members.size(); });
  }
  std::size_t counted(const std::size_t& counter) {
    std::lock_guard<std::mutex> lock(mu);
    return counter;
  }
  std::size_t delivered(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    return journals[i].size();
  }

  GroupStore store;
  CoronaServer server{ServerConfig{}, &store};
  SocketRuntime server_rt;
  std::uint16_t port = 0;
  std::mutex mu;
  std::vector<std::vector<UpdateRecord>> journals;
  std::size_t joined = 0;
  std::size_t replies = 0;
  std::vector<std::unique_ptr<CoronaClient>> members;
  SocketRuntime client_rt;  // declared last: its loop stops first
};

TEST(SocketLoopback, MembersOnOneRuntimeShareEachDeliveredPayload) {
  // The client runtime decodes each frame once for all the members it
  // lists, and their records share that decode's payload instead of each
  // copying it: both members' delivered bytes live at one address.
  MembersOnOneRuntime w(2);
  ASSERT_NE(w.port, 0);
  ASSERT_TRUE(w.join_all());
  w.members[0]->bcast_update(kG, kObj, to_bytes("shared"));
  ASSERT_TRUE(
      wait_until([&] { return w.delivered(0) == 1 && w.delivered(1) == 1; }));
  std::lock_guard<std::mutex> lock(w.mu);
  EXPECT_EQ(to_string(w.journals[1][0].data), "shared");
  EXPECT_EQ(w.journals[0][0].data.data(), w.journals[1][0].data.data());
}

TEST(SocketLoopback, LeaveOnAnApplicationThreadWhileTheLoopDelivers) {
  // Member 0 leaves on this thread, which drops its replica and with it
  // its references to payload buffers, while the loop thread goes on
  // handing the same buffers to member 1.  The reference counts are shared
  // across threads; the thread sanitizer run checks them.
  MembersOnOneRuntime w(2);
  ASSERT_NE(w.port, 0);
  ASSERT_TRUE(w.join_all());
  ClientProc publisher(NodeId{200}, w.port);
  publisher.client->join(kG);
  ASSERT_TRUE(wait_until([&] { return publisher.joins() == 1; }));

  constexpr std::size_t kSends = 400;
  for (std::size_t i = 0; i < kSends; ++i) {
    publisher.client->bcast_update(kG, kObj, to_bytes("x"),
                                   /*sender_inclusive=*/false);
    if (i == kSends / 2) {
      EXPECT_TRUE(wait_until([&] { return w.delivered(1) >= 1; }));
      w.members[0]->leave(kG);
    }
  }
  ASSERT_TRUE(wait_until([&] { return w.delivered(1) == kSends; }));
  EXPECT_FALSE(w.members[0]->is_joined(kG));
  std::lock_guard<std::mutex> lock(w.mu);
  EXPECT_EQ(w.journals[1].back().seq, kSends);
}

// Appends (node, seq) for every delivery to any node sharing the journal,
// so a test can check the order across nodes.
struct SharedJournal {
  std::mutex mu;
  std::vector<std::pair<NodeId, SeqNo>> entries;
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return entries.size();
  }
};

struct JournalNode final : Node {
  explicit JournalNode(SharedJournal* journal) : journal(journal) {}
  void on_message(NodeId, const Message& m) override {
    std::lock_guard<std::mutex> lock(journal->mu);
    journal->entries.emplace_back(id(), m.seq);
  }
  SharedJournal* journal;
};

TEST(SocketLoopback, MessageFrameSkipsTargetsNotHostedHere) {
  // A raw peer sends one frame for [A, an id nobody hosts, B] and then one
  // for [A].  The runtime delivers to its hosted targets in list order,
  // skips the unknown one, and counts it as one dropped message.
  const NodeId kA{1}, kB{2}, kUnknown{77};
  SharedJournal journal;
  JournalNode a(&journal), b(&journal);
  SocketRuntime rt;
  rt.add_node(kA, &a);
  rt.add_node(kB, &b);
  auto port = rt.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  rt.start();

  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port.value());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);

  const NodeId kPeer{100};
  Message m;
  m.type = MsgType::kHeartbeat;
  m.seq = 1;
  Bytes wire = encode_hello_frame({kPeer});
  const NodeId first_to[] = {kA, kUnknown, kB};
  const Bytes first = encode_message_frame(kPeer, first_to, m.encode());
  m.seq = 2;
  const Bytes second = encode_message_frame(kPeer, {&kA, 1}, m.encode());
  wire.insert(wire.end(), first.begin(), first.end());
  wire.insert(wire.end(), second.begin(), second.end());
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(wire.size()));

  ASSERT_TRUE(wait_until([&] { return journal.size() >= 3; }));
  const SocketRuntime::Stats stats = rt.stats();
  rt.stop();
  ::close(fd);

  const std::vector<std::pair<NodeId, SeqNo>> want = {
      {kA, 1}, {kB, 1}, {kA, 2}};
  EXPECT_EQ(journal.entries, want);
  EXPECT_EQ(stats.messages_dropped, 1u);
  EXPECT_EQ(stats.frames_received, 3u);  // hello + two message frames
  EXPECT_EQ(stats.corrupt_frames, 0u);
}

TEST(SocketLoopback, FanoutListingANodeTwiceDeliversTwice) {
  // A fan-out that names a node twice delivers to it twice, as one send
  // per listing would.  A frame never names a node twice (the receiver
  // refuses one that does), so the repeat travels in a second frame.
  const NodeId kA{1}, kB{2}, kS{50};
  SharedJournal rx_journal, tx_journal;
  JournalNode a(&rx_journal), b(&rx_journal), s(&tx_journal);
  SocketRuntime tx;
  tx.add_node(kS, &s);
  auto port = tx.listen("127.0.0.1", 0);
  ASSERT_TRUE(port.is_ok()) << port.status().to_string();
  tx.start();
  SocketRuntime rx;
  rx.add_node(kA, &a);
  rx.add_node(kB, &b);
  rx.set_peer_address(kS, Endpoint{"127.0.0.1", port.value()});
  rx.start();

  // rx dials tx, and its hello routes kA and kB over that one connection.
  Message m;
  m.type = MsgType::kHeartbeat;
  m.seq = 1;
  rx.send(kA, kS, m);
  ASSERT_TRUE(wait_until([&] { return tx_journal.size() >= 1; }));
  const SocketRuntime::Stats before = tx.stats();

  m.seq = 2;
  tx.fanout(kS, {kA, kB, kA}, m);
  ASSERT_TRUE(wait_until([&] { return rx_journal.size() >= 3; }));
  const SocketRuntime::Stats after = tx.stats();
  const SocketRuntime::Stats rx_stats = rx.stats();
  rx.stop();
  tx.stop();

  const std::vector<std::pair<NodeId, SeqNo>> want = {
      {kA, 2}, {kB, 2}, {kA, 2}};
  EXPECT_EQ(rx_journal.entries, want);
  EXPECT_EQ(after.frames_sent - before.frames_sent, 2u);
  EXPECT_EQ(rx_stats.corrupt_frames, 0u);
}

TEST(SocketLoopback, BatchToDownPeerWaitsForTheDial) {
  // A batch sent while its book peer is down waits in the peer's pending
  // queue and goes out whole and in order once a redial succeeds.
  SocketRuntime probe;
  auto port = probe.listen("127.0.0.1", 0);  // reserve an ephemeral port
  ASSERT_TRUE(port.is_ok());
  const std::uint16_t p = port.value();
  probe.stop();  // nothing listens there now

  SinkNode unused;
  SocketRuntimeConfig cfg;
  cfg.reconnect_backoff_min = 500 * kMillisecond;
  SocketRuntime sender_rt(cfg);
  sender_rt.add_node(NodeId{100}, &unused);
  sender_rt.set_peer_address(kServerId, Endpoint{"127.0.0.1", p});
  sender_rt.start();
  // The first dial is refused; the redial waits out the backoff.
  ASSERT_TRUE(wait_until(
      [&] { return sender_rt.stats().reconnects_scheduled >= 1; }));

  Message m;
  m.type = MsgType::kHeartbeat;
  std::vector<Message> batch(3, m);
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i].seq = i + 1;
  sender_rt.send_batch(NodeId{100}, kServerId, batch);

  SinkNode sink;
  SocketRuntime server_rt;
  server_rt.add_node(kServerId, &sink);
  auto rebind = server_rt.listen("127.0.0.1", p);
  ASSERT_TRUE(rebind.is_ok()) << rebind.status().to_string();
  server_rt.start();
  ASSERT_TRUE(wait_until([&] { return sink.count() >= 3; }));

  sender_rt.stop();
  server_rt.stop();
  EXPECT_EQ(sink.seqs, (std::vector<SeqNo>{1, 2, 3}));
  EXPECT_EQ(sender_rt.stats().messages_dropped, 0u);
}

TEST(SocketLoopback, FramesHeldForDownPeerGoAheadOfFramesQueuedOnTheDial) {
  // A send while the book peer is down waits in the peer's pending queue; a
  // send while the redial is still connecting waits on that connection.
  // The held frame is older, so it must reach the wire first.  A listener
  // whose accept queue is full keeps the redial connecting: the kernel
  // drops its SYN until the queue has room and the SYN is resent.
  sockaddr_in addr{};
  const int lfd = bind_loopback(&addr);
  ASSERT_GE(lfd, 0);

  // Bound but not listening: the first dial is refused.
  SinkNode unused;
  SocketRuntimeConfig cfg;
  cfg.reconnect_backoff_min = 500 * kMillisecond;
  SocketRuntime sender_rt(cfg);
  sender_rt.add_node(NodeId{100}, &unused);
  sender_rt.set_peer_address(
      kServerId, Endpoint{"127.0.0.1", ntohs(addr.sin_port)});
  sender_rt.start();
  ASSERT_TRUE(wait_until(
      [&] { return sender_rt.stats().reconnects_scheduled >= 1; }));
  Message m;
  m.type = MsgType::kHeartbeat;
  m.seq = 1;
  sender_rt.send(NodeId{100}, kServerId, m);  // held: the peer is down

  // Backlog 0 holds one connection; the filler takes that slot.
  ASSERT_EQ(::listen(lfd, 0), 0);
  const int filler = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(filler, 0);
  ASSERT_EQ(
      ::connect(filler, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_TRUE(wait_until(
      [&] { return sender_rt.stats().connects_attempted >= 2; }));
  m.seq = 2;
  sender_rt.send(NodeId{100}, kServerId, m);  // queued on the pending dial
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(sender_rt.stats().connects_ok, 0u) << "the redial was not held";

  // Free the slot; the resent SYN completes the redial.
  const int filler_conn = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(filler_conn, 0);
  ::close(filler_conn);
  ::close(filler);
  pollfd pl{lfd, POLLIN, 0};
  ASSERT_EQ(::poll(&pl, 1, 30000), 1) << "the redial never connected";
  const int conn = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(conn, 0);

  FrameDecoder decoder(kDefaultMaxFrameBytes);
  std::vector<SeqNo> seqs;
  std::uint8_t buf[4096];
  pollfd pc{conn, POLLIN, 0};
  while (seqs.size() < 2 && ::poll(&pc, 1, 30000) == 1) {
    const ssize_t n = ::recv(conn, buf, sizeof(buf), 0);
    if (n <= 0) break;
    decoder.feed(buf, static_cast<std::size_t>(n));
    Frame frame;
    while (decoder.next(&frame) == FrameDecoder::Next::kFrame) {
      if (frame.kind != FrameKind::kMessage) continue;
      auto decoded = Message::decode(frame.message_wire);
      ASSERT_TRUE(decoded.is_ok());
      seqs.push_back(decoded.value().seq);
    }
  }
  sender_rt.stop();
  ::close(conn);
  ::close(lfd);
  EXPECT_EQ(seqs, (std::vector<SeqNo>{1, 2}));
}

// Holds its runtime's loop inside on_timer until released.
struct StallNode final : Node {
  std::atomic<bool> stalled{false};
  std::atomic<bool> release{false};
  void on_message(NodeId, const Message&) override {}
  void on_timer(std::uint64_t) override {
    stalled = true;
    while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
};

TEST(SocketLoopback, WriteToResetConnectionTearsItDown) {
  // The peer resets the connection while the loop is busy, and a send is
  // queued behind the reset.  The loop then writes before it reads, so
  // sendmsg fails with ECONNRESET or EPIPE, not EAGAIN: the connection must
  // be torn down, not written again and again.
  sockaddr_in addr{};
  const int lfd = bind_loopback(&addr);
  ASSERT_GE(lfd, 0);
  ASSERT_EQ(::listen(lfd, 8), 0);

  StallNode node;
  SocketRuntime rt;
  rt.add_node(NodeId{100}, &node);
  rt.set_peer_address(kServerId, Endpoint{"127.0.0.1", ntohs(addr.sin_port)});
  rt.start();
  pollfd pl{lfd, POLLIN, 0};
  ASSERT_EQ(::poll(&pl, 1, 30000), 1);
  const int peer = ::accept(lfd, nullptr, nullptr);
  ASSERT_GE(peer, 0);
  ASSERT_TRUE(wait_until([&] { return rt.stats().connects_ok >= 1; }));

  rt.set_timer(NodeId{100}, 0, 1);
  ASSERT_TRUE(wait_until([&] { return node.stalled.load(); }));
  const linger abortive{1, 0};
  ::setsockopt(peer, SOL_SOCKET, SO_LINGER, &abortive, sizeof(abortive));
  ::close(peer);  // sends RST
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Message m;
  m.type = MsgType::kHeartbeat;
  rt.send(NodeId{100}, kServerId, m);
  node.release = true;

  EXPECT_TRUE(wait_until([&] { return rt.stats().disconnects >= 1; }));
  rt.stop();
  ::close(lfd);
}

}  // namespace
}  // namespace corona::net
