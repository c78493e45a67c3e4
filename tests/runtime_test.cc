// Tests for the deterministic SimRuntime engine: message delivery, virtual
// time, timers, crash/restart, CPU charging and the disk timeline.  The
// concurrent SocketRuntime is covered over real TCP by socket_loopback_test
// and socket_replica_test.
#include <gtest/gtest.h>

#include "runtime/sim_runtime.h"

namespace corona {
namespace {

// Replies to every kDeliver with a kDeliver carrying seq+1, until `limit`.
class PingPong : public Node {
 public:
  PingPong(NodeId peer, SeqNo limit, bool initiator)
      : peer_(peer), limit_(limit), initiator_(initiator) {}

  void on_start() override {
    if (initiator_) {
      Message m;
      m.type = MsgType::kDeliver;
      m.seq = 1;
      send(peer_, m);
    }
  }

  void on_message(NodeId from, const Message& m) override {
    (void)from;
    last_seen_ = m.seq;
    if (m.seq < limit_) {
      Message reply = m;
      reply.seq = m.seq + 1;
      send(peer_, reply);
    }
  }

  SeqNo last_seen() const { return last_seen_; }

 private:
  NodeId peer_;
  SeqNo limit_;
  bool initiator_;
  SeqNo last_seen_ = 0;
};

TEST(SimRuntime, PingPongRuns) {
  SimRuntime rt;
  const HostId h1 = rt.network().add_host(HostProfile{});
  const HostId h2 = rt.network().add_host(HostProfile{});
  PingPong a(NodeId{2}, 10, true);
  PingPong b(NodeId{1}, 10, false);
  rt.add_node(NodeId{1}, &a, h1);
  rt.add_node(NodeId{2}, &b, h2);
  rt.start();
  rt.run_until_idle();
  EXPECT_EQ(a.last_seen(), 10u);
  EXPECT_GT(rt.now(), 0);
}

TEST(SimRuntime, VirtualTimeAdvancesWithLatency) {
  SimRuntime rt;
  const HostId h1 = rt.network().add_host(HostProfile{});
  const HostId h2 = rt.network().add_host(HostProfile{});
  rt.network().set_default_latency(10 * kMillisecond);
  PingPong a(NodeId{2}, 4, true);
  PingPong b(NodeId{1}, 4, false);
  rt.add_node(NodeId{1}, &a, h1);
  rt.add_node(NodeId{2}, &b, h2);
  rt.start();
  rt.run_until_idle();
  EXPECT_GE(rt.now(), 4 * 10 * kMillisecond);
}

class TimerNode : public Node {
 public:
  std::vector<std::uint64_t> fired;
  TimerHandle pending = 0;

  void on_start() override {
    set_timer(100, 1);
    set_timer(50, 2);
    pending = set_timer(200, 3);
  }
  void on_message(NodeId, const Message&) override {}
  void on_timer(std::uint64_t tag) override {
    fired.push_back(tag);
    if (tag == 2) cancel_timer(pending);  // cancel tag 3 before it fires
  }
};

TEST(SimRuntime, TimersFireInOrderAndCancel) {
  SimRuntime rt;
  const HostId h = rt.network().add_host(HostProfile{});
  TimerNode n;
  rt.add_node(NodeId{1}, &n, h);
  rt.start();
  rt.run_until_idle();
  EXPECT_EQ(n.fired, (std::vector<std::uint64_t>{2, 1}));
}

class Counter : public Node {
 public:
  int received = 0;
  void on_message(NodeId, const Message&) override { ++received; }
};

TEST(SimRuntime, CrashDropsDeliveryAndTimers) {
  SimRuntime rt;
  const HostId h1 = rt.network().add_host(HostProfile{});
  const HostId h2 = rt.network().add_host(HostProfile{});
  Counter a, b;
  rt.add_node(NodeId{1}, &a, h1);
  rt.add_node(NodeId{2}, &b, h2);
  rt.start();
  rt.run_until_idle();
  Message m;
  m.type = MsgType::kDeliver;
  rt.send(NodeId{1}, NodeId{2}, m);  // in flight...
  rt.crash(NodeId{2});               // ...crashes before delivery
  rt.run_until_idle();
  EXPECT_EQ(b.received, 0);
}

TEST(SimRuntime, RestartDeliversToFreshIncarnation) {
  SimRuntime rt;
  const HostId h1 = rt.network().add_host(HostProfile{});
  const HostId h2 = rt.network().add_host(HostProfile{});
  Counter a, b1, b2;
  rt.add_node(NodeId{1}, &a, h1);
  rt.add_node(NodeId{2}, &b1, h2);
  rt.start();
  rt.run_until_idle();
  rt.crash(NodeId{2});
  rt.restart(NodeId{2}, &b2);
  rt.run_until_idle();
  Message m;
  m.type = MsgType::kDeliver;
  rt.send(NodeId{1}, NodeId{2}, m);
  rt.run_until_idle();
  EXPECT_EQ(b1.received, 0);
  EXPECT_EQ(b2.received, 1);
}

TEST(SimRuntime, ChargeCpuDelaysSubsequentSends) {
  SimRuntime rt;
  const HostId h1 = rt.network().add_host(HostProfile{});
  const HostId h2 = rt.network().add_host(HostProfile{});
  rt.network().set_shared_bandwidth(0);
  Counter a, b;
  rt.add_node(NodeId{1}, &a, h1);
  rt.add_node(NodeId{2}, &b, h2);
  rt.start();
  rt.run_until_idle();
  Message m;
  m.type = MsgType::kDeliver;
  rt.send(NodeId{1}, NodeId{2}, m);
  rt.run_until_idle();
  const TimePoint without_charge = rt.now();
  rt.charge_cpu(NodeId{1}, 50 * kMillisecond);
  rt.send(NodeId{1}, NodeId{2}, m);
  rt.run_until_idle();
  EXPECT_GE(rt.now() - without_charge, 50 * kMillisecond);
}

TEST(SimRuntime, DiskWritesSerialize) {
  SimRuntime rt;
  const HostId h = rt.network().add_host(HostProfile{});
  Counter a;
  rt.add_node(NodeId{1}, &a, h);
  rt.set_disk(NodeId{1}, DiskProfile::nineties_disk());
  const TimePoint t1 = rt.disk_write(NodeId{1}, 4000);
  const TimePoint t2 = rt.disk_write(NodeId{1}, 4000);
  EXPECT_GT(t2, t1);
  ASSERT_NE(rt.disk_of(NodeId{1}), nullptr);
  EXPECT_EQ(rt.disk_of(NodeId{1})->bytes_written(), 8000u);
}

}  // namespace
}  // namespace corona
