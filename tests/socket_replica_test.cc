// The replicated service over real TCP on 127.0.0.1: every server
// (coordinator and leaves) runs on its own SocketRuntime and every client on
// another, so heartbeats, forwarding, state pulls and the election all cross
// real sockets between real event-loop threads, with the unchanged protocol
// code from src/replica.  The tsan preset runs these tests.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/client.h"
#include "net/socket_runtime.h"
#include "replica/replica_server.h"

namespace corona::net {
namespace {

const GroupId kG{1};
const ObjectId kObj{1};

ReplicaConfig fast_cfg() {
  ReplicaConfig cfg;
  cfg.heartbeat_interval = 20 * kMillisecond;
  cfg.fd_timeout = 100 * kMillisecond;
  cfg.election_window = 50 * kMillisecond;
  cfg.takeover_window = 50 * kMillisecond;
  return cfg;
}

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

// n servers with ids 1..n (id 1 starts as coordinator), one SocketRuntime
// each.  Every server listens on an ephemeral port first, then learns every
// other server's address, then starts.  `rts` is declared after `servers`,
// so every runtime stops (joining its loop thread) before the servers it
// runs are destroyed.
struct Cluster {
  explicit Cluster(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) ids.push_back(NodeId{1 + i});
    for (NodeId id : ids) {
      servers.push_back(std::make_unique<ReplicaServer>(fast_cfg(), ids));
      rts.push_back(std::make_unique<SocketRuntime>());
      rts.back()->add_node(id, servers.back().get());
      auto port = rts.back()->listen("127.0.0.1", 0);
      listening = listening && port.is_ok();
      ports.push_back(port.is_ok() ? port.value() : 0);
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) {
          rts[i]->set_peer_address(ids[j], Endpoint{"127.0.0.1", ports[j]});
        }
      }
    }
    for (auto& rt : rts) rt->start();
  }

  std::vector<NodeId> ids;
  std::vector<std::unique_ptr<ReplicaServer>> servers;
  std::vector<std::unique_ptr<SocketRuntime>> rts;
  std::vector<std::uint16_t> ports;
  bool listening = true;
};

// One client "process": its own SocketRuntime whose address book holds just
// the server it is attached to, plus a delivery journal filled on the loop
// thread.  The test thread polls the journal under the mutex and reads
// group_state() only once the deliveries it waits for are in, so it never
// reads the replica while the loop thread applies to it.  `rt` is declared
// last, so its loop thread stops before anything it touches is destroyed.
struct ClientProc {
  ClientProc(NodeId id, NodeId server, std::uint16_t server_port) {
    CoronaClient::Callbacks cb;
    cb.on_deliver = [this](GroupId, const UpdateRecord& rec) {
      std::lock_guard<std::mutex> lock(mu);
      journal.push_back(rec.seq);
    };
    cb.on_joined = [this](GroupId, Status s) {
      std::lock_guard<std::mutex> lock(mu);
      if (s.is_ok()) ++joins_ok;
    };
    cb.on_reply = [this](RequestId, Status s) {
      std::lock_guard<std::mutex> lock(mu);
      if (s.is_ok()) ++replies_ok;
    };
    client = std::make_unique<CoronaClient>(server, cb);
    rt.add_node(id, client.get());
    rt.set_peer_address(server, Endpoint{"127.0.0.1", server_port});
    rt.start();
  }

  std::vector<SeqNo> journal_copy() {
    std::lock_guard<std::mutex> lock(mu);
    return journal;
  }
  std::size_t journal_size() {
    std::lock_guard<std::mutex> lock(mu);
    return journal.size();
  }
  int joins() {
    std::lock_guard<std::mutex> lock(mu);
    return joins_ok;
  }
  int replies() {
    std::lock_guard<std::mutex> lock(mu);
    return replies_ok;
  }
  std::string object_text() {
    const SharedState* st = client->group_state(kG);
    if (st == nullptr || st->object(kObj) == nullptr) return "<none>";
    return to_string(*st->object(kObj));
  }

  std::mutex mu;
  std::vector<SeqNo> journal;
  int joins_ok = 0;
  int replies_ok = 0;
  std::unique_ptr<CoronaClient> client;
  SocketRuntime rt;
};

TEST(SocketReplica, CrossLeafMulticastAndStateTransfer) {
  Cluster cluster(3);
  ASSERT_TRUE(cluster.listening);
  ClientProc ann(NodeId{100}, cluster.ids[1], cluster.ports[1]);
  ClientProc bob(NodeId{101}, cluster.ids[2], cluster.ports[2]);

  ann.client->create_group(kG, "g", true);
  ASSERT_TRUE(wait_until([&] { return ann.replies() >= 1; }));
  ann.client->join(kG);
  ASSERT_TRUE(wait_until([&] { return ann.joins() == 1; }));
  ann.client->bcast_update(kG, kObj, to_bytes("pre;"));
  ASSERT_TRUE(wait_until([&] { return ann.journal_size() == 1; }));

  // Bob joins through the other leaf: its copy is pulled on demand, and the
  // transfer carries ann's update.
  bob.client->join(kG);
  ASSERT_TRUE(wait_until([&] { return bob.joins() == 1; }));
  EXPECT_EQ(bob.object_text(), "pre;");

  bob.client->bcast_update(kG, kObj, to_bytes("post;"));
  ASSERT_TRUE(wait_until(
      [&] { return ann.journal_size() == 2 && bob.journal_size() == 1; }));
  EXPECT_EQ(ann.object_text(), "pre;post;");
  EXPECT_EQ(bob.object_text(), "pre;post;");
  const auto ja = ann.journal_copy();
  EXPECT_EQ(ja[0] + 1, ja[1]) << "sequence gap across the leaves";
  EXPECT_EQ(bob.journal_copy(), std::vector<SeqNo>{ja[1]})
      << "bob must get exactly the update sequenced after his join";
}

TEST(SocketReplica, CoordinatorCrashElectsASurvivor) {
  Cluster cluster(4);
  ASSERT_TRUE(cluster.listening);
  ClientProc client(NodeId{100}, cluster.ids[1], cluster.ports[1]);

  client.client->create_group(kG, "g", true);
  ASSERT_TRUE(wait_until([&] { return client.replies() >= 1; }));
  client.client->join(kG);
  ASSERT_TRUE(wait_until([&] { return client.joins() == 1; }));
  client.client->bcast_update(kG, kObj, to_bytes("before;"));
  ASSERT_TRUE(wait_until([&] { return client.journal_size() == 1; }));

  // The coordinator's process dies: its sockets close and its heartbeats
  // stop.  Real time must pass for the failure detector (100 ms) and the
  // staged claims; wait until a survivor has taken over and the client's
  // leaf follows it, so the next multicast is forwarded to a live sequencer.
  cluster.rts[0]->stop();
  ReplicaServer& leaf = *cluster.servers[1];
  ASSERT_TRUE(wait_until([&] {
    for (std::size_t i = 1; i < cluster.servers.size(); ++i) {
      if (cluster.servers[i]->is_coordinator() &&
          leaf.coordinator() == cluster.ids[i]) {
        return true;
      }
    }
    return false;
  }));

  client.client->bcast_update(kG, kObj, to_bytes("after;"));
  ASSERT_TRUE(wait_until([&] { return client.journal_size() == 2; }));
  EXPECT_EQ(client.object_text(), "before;after;");
  const auto j = client.journal_copy();
  EXPECT_EQ(j[0] + 1, j[1]) << "the new coordinator must resume the sequence";
}

}  // namespace
}  // namespace corona::net
