// Cold restart of the whole replicated service: every process stops, a new
// cluster starts over the coordinator's surviving durable store, and the
// persistent groups come back with their state (paper §3.1: "a group and
// its shared data should be able to outlive the process members of the
// group" — including the server processes, via stable storage).
#include <gtest/gtest.h>

#include "core/client.h"
#include "replica/replica_server.h"
#include "runtime/sim_runtime.h"
#include "storage/group_store.h"

namespace corona {
namespace {

const GroupId kPersistent{1};
const GroupId kTransient{2};
const ObjectId kObj{1};

TEST(ReplicaColdRestart, PersistentGroupsRecoverFromCoordinatorDisk) {
  GroupStore disk;  // the coordinator machine's disk; survives the cluster

  const std::vector<NodeId> ids{NodeId{1}, NodeId{2}, NodeId{3}};
  ReplicaConfig cfg;

  // ---- first life of the cluster ----
  {
    SimRuntime rt;
    ReplicaServer coordinator(cfg, ids, &disk);
    ReplicaServer leaf_a(cfg, ids);
    ReplicaServer leaf_b(cfg, ids);
    rt.add_node(ids[0], &coordinator, rt.network().add_host(HostProfile{}));
    rt.add_node(ids[1], &leaf_a, rt.network().add_host(HostProfile{}));
    rt.add_node(ids[2], &leaf_b, rt.network().add_host(HostProfile{}));
    CoronaClient client(ids[1]);
    rt.add_node(NodeId{100}, &client, rt.network().add_host(HostProfile{}));
    rt.start();
    rt.run_for(500 * kMillisecond);

    client.create_group(kPersistent, "keep", /*persistent=*/true);
    client.create_group(kTransient, "drop", /*persistent=*/false);
    rt.run_for(300 * kMillisecond);
    client.join(kPersistent);
    client.join(kTransient);
    rt.run_for(300 * kMillisecond);
    client.bcast_update(kPersistent, kObj, to_bytes("durable-data"));
    client.bcast_update(kTransient, kObj, to_bytes("ephemeral"));
    // Let the async flush land before the power goes out.
    rt.run_for(1 * kSecond);
  }
  // Everything is gone except the disk.  A transient group whose members
  // all died with the cluster must not be resurrected.

  // ---- second life ----
  SimRuntime rt;
  ReplicaServer coordinator(cfg, ids, &disk);
  ReplicaServer leaf_a(cfg, ids);
  ReplicaServer leaf_b(cfg, ids);
  rt.add_node(ids[0], &coordinator, rt.network().add_host(HostProfile{}));
  rt.add_node(ids[1], &leaf_a, rt.network().add_host(HostProfile{}));
  rt.add_node(ids[2], &leaf_b, rt.network().add_host(HostProfile{}));
  CoronaClient late(ids[2]);
  rt.add_node(NodeId{101}, &late, rt.network().add_host(HostProfile{}));
  rt.start();
  rt.run_for(1 * kSecond);

  ASSERT_NE(coordinator.coord_state(kPersistent), nullptr);
  EXPECT_EQ(coordinator.coord_state(kTransient), nullptr);
  EXPECT_FALSE(disk.has_group(kTransient));  // its durable image went too

  // A brand-new client joins through a leaf and receives the durable state.
  late.join(kPersistent);
  rt.run_for(1 * kSecond);
  ASSERT_TRUE(late.is_joined(kPersistent));
  ASSERT_NE(late.group_state(kPersistent), nullptr);
  EXPECT_EQ(to_string(*late.group_state(kPersistent)->object(kObj)),
            "durable-data");

  // And the recovered group keeps sequencing from where it left off.
  late.bcast_update(kPersistent, kObj, to_bytes("+more"));
  rt.run_for(1 * kSecond);
  EXPECT_EQ(to_string(*late.group_state(kPersistent)->object(kObj)),
            "durable-data+more");
}

// One life of a coordinator and a leaf over the coordinator's disk, with
// one client connected through the leaf.
struct Life {
  explicit Life(GroupStore& disk)
      : coordinator(ReplicaConfig{}, ids, &disk),
        leaf(ReplicaConfig{}, ids),
        client(ids[1]) {
    rt.add_node(ids[0], &coordinator, rt.network().add_host(HostProfile{}));
    rt.add_node(ids[1], &leaf, rt.network().add_host(HostProfile{}));
    rt.add_node(NodeId{100}, &client, rt.network().add_host(HostProfile{}));
    rt.start();
    rt.run_for(500 * kMillisecond);
  }
  // Creates group `g`, joins it and writes `data`, then lets the flush land.
  void write(GroupId g, bool persistent, const char* data) {
    client.create_group(g, "g", persistent);
    rt.run_for(300 * kMillisecond);
    client.join(g);
    rt.run_for(300 * kMillisecond);
    client.bcast_update(g, kObj, to_bytes(data));
    rt.run_for(1 * kSecond);
  }

  const std::vector<NodeId> ids{NodeId{1}, NodeId{2}};
  SimRuntime rt;
  ReplicaServer coordinator;
  ReplicaServer leaf;
  CoronaClient client;
};

TEST(ReplicaColdRestart, ATransientGroupLeavesNoImageToShadowALaterGroup) {
  // The transient group of the first life dies with it.  A persistent group
  // created on the same id in the second life is a new group: it must come
  // back in the third life with its own state, not be taken for the dead
  // transient one.
  GroupStore disk;
  {
    Life first(disk);
    first.write(kTransient, /*persistent=*/false, "ephemeral");
  }
  {
    Life second(disk);
    EXPECT_EQ(second.coordinator.coord_state(kTransient), nullptr);
    second.write(kTransient, /*persistent=*/true, "durable");
    ASSERT_NE(second.coordinator.coord_state(kTransient), nullptr);
  }
  Life third(disk);
  const SharedState* state = third.coordinator.coord_state(kTransient);
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->head_seq(), 1u);
  EXPECT_EQ(to_string(*state->object(kObj)), "durable");
}

TEST(ReplicaColdRestart, UnflushedTailLostOnColdRestart) {
  GroupStore disk;
  const std::vector<NodeId> ids{NodeId{1}, NodeId{2}};
  ReplicaConfig cfg;
  cfg.flush_interval = 60 * kSecond;  // effectively never during the test

  {
    SimRuntime rt;
    ReplicaServer coordinator(cfg, ids, &disk);
    ReplicaServer leaf(cfg, ids);
    rt.add_node(ids[0], &coordinator, rt.network().add_host(HostProfile{}));
    rt.add_node(ids[1], &leaf, rt.network().add_host(HostProfile{}));
    CoronaClient client(ids[1]);
    rt.add_node(NodeId{100}, &client, rt.network().add_host(HostProfile{}));
    rt.start();
    rt.run_for(500 * kMillisecond);
    client.create_group(kPersistent, "keep", true);
    rt.run_for(300 * kMillisecond);
    // Force the creation checkpoint to become durable, then write updates
    // that never get flushed.
    (void)disk.flush();
    client.join(kPersistent);
    rt.run_for(300 * kMillisecond);
    client.bcast_update(kPersistent, kObj, to_bytes("never-flushed"));
    rt.run_for(300 * kMillisecond);
  }
  disk.crash();  // power loss: the unflushed tail vanishes (§6)

  SimRuntime rt;
  ReplicaServer coordinator(cfg, ids, &disk);
  ReplicaServer leaf(cfg, ids);
  rt.add_node(ids[0], &coordinator, rt.network().add_host(HostProfile{}));
  rt.add_node(ids[1], &leaf, rt.network().add_host(HostProfile{}));
  rt.start();
  rt.run_for(1 * kSecond);
  ASSERT_NE(coordinator.coord_state(kPersistent), nullptr);
  EXPECT_FALSE(coordinator.coord_state(kPersistent)->has_object(kObj));
}

}  // namespace
}  // namespace corona
