// Unit tests for the replication building blocks: registry, failure
// detector, election tally, replication manager, partition reconciliation,
// and takeover planning.
#include <gtest/gtest.h>

#include "replica/election.h"
#include "replica/failure_detector.h"
#include "replica/partition.h"
#include "replica/recovery.h"
#include "replica/registry.h"
#include "replica/replication_manager.h"

namespace corona {
namespace {

// ---------------------------------------------------------------------------
// ServerRegistry
// ---------------------------------------------------------------------------

TEST(Registry, StartupOrderPreserved) {
  ServerRegistry r({NodeId{3}, NodeId{1}, NodeId{2}});
  EXPECT_EQ(r.position_of(NodeId{3}), 0u);
  EXPECT_EQ(r.position_of(NodeId{2}), 2u);
  EXPECT_FALSE(r.position_of(NodeId{9}).has_value());
}

TEST(Registry, AddAppendsRemoveErases) {
  ServerRegistry r({NodeId{1}});
  r.add(NodeId{2});
  r.add(NodeId{2});  // idempotent
  EXPECT_EQ(r.size(), 2u);
  r.remove(NodeId{1});
  EXPECT_EQ(r.servers(), (std::vector<NodeId>{NodeId{2}}));
}

TEST(Registry, StaleEpochIgnored) {
  ServerRegistry r({NodeId{1}});
  r.set_servers({NodeId{1}, NodeId{2}}, 5);
  r.set_servers({NodeId{9}}, 3);  // stale
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.epoch(), 5u);
}

TEST(Registry, FirstExcludingSkipsCoordinator) {
  ServerRegistry r({NodeId{1}, NodeId{2}, NodeId{3}});
  EXPECT_EQ(r.first_excluding(NodeId{1}), NodeId{2});
  EXPECT_EQ(r.first_excluding(NodeId{9}), NodeId{1});
}

// ---------------------------------------------------------------------------
// FailureDetector
// ---------------------------------------------------------------------------

TEST(FailureDetector, SilenceBeyondTimeoutSuspects) {
  FailureDetector fd(1000);
  fd.watch(NodeId{1}, 0);
  EXPECT_FALSE(fd.is_suspect(NodeId{1}, 1000));
  EXPECT_TRUE(fd.is_suspect(NodeId{1}, 1001));
}

TEST(FailureDetector, HeardFromResets) {
  FailureDetector fd(1000);
  fd.watch(NodeId{1}, 0);
  fd.heard_from(NodeId{1}, 900);
  EXPECT_FALSE(fd.is_suspect(NodeId{1}, 1500));
  EXPECT_EQ(fd.silence(NodeId{1}, 1500), 600);
}

TEST(FailureDetector, UnwatchedPeersNeverSuspect) {
  FailureDetector fd(10);
  EXPECT_FALSE(fd.is_suspect(NodeId{1}, 1000000));
  fd.heard_from(NodeId{1}, 5);  // not watched: ignored
  EXPECT_EQ(fd.silence(NodeId{1}, 100), 0);
}

TEST(FailureDetector, SuspectsSortedById) {
  FailureDetector fd(10);
  fd.watch(NodeId{5}, 0);
  fd.watch(NodeId{2}, 0);
  fd.watch(NodeId{9}, 100);
  const auto s = fd.suspects(50);
  EXPECT_EQ(s, (std::vector<NodeId>{NodeId{2}, NodeId{5}}));
}

// ---------------------------------------------------------------------------
// Election
// ---------------------------------------------------------------------------

TEST(Election, StagedClaimDelays) {
  EXPECT_EQ(claim_delay(0, 1000), 1000);
  EXPECT_EQ(claim_delay(1, 1000), 2000);
  EXPECT_EQ(claim_delay(4, 1000), 5000);
}

TEST(Election, WinsWithHalfPlusOne) {
  ElectionTally t;
  t.start(7, 6);  // 6 remaining servers, claimant included
  EXPECT_FALSE(t.won());
  t.vote(7, NodeId{2}, true);
  t.vote(7, NodeId{3}, true);
  EXPECT_FALSE(t.won());  // 2 acks + self = 3 < 4
  t.vote(7, NodeId{4}, true);
  EXPECT_TRUE(t.won());  // 3 acks + self = 4 = half+1
}

TEST(Election, NackLoses) {
  ElectionTally t;
  t.start(7, 3);
  t.vote(7, NodeId{2}, true);
  t.vote(7, NodeId{3}, false);
  EXPECT_TRUE(t.lost());
  EXPECT_FALSE(t.won());
  // A voter that acked and then nacks counts once, as a nack.
  t.vote(7, NodeId{2}, false);
  EXPECT_EQ(t.acks(), 0u);
  EXPECT_EQ(t.nacks(), 2u);
}

TEST(Election, WrongEpochAndDuplicateVotesIgnored) {
  ElectionTally t;
  t.start(7, 4);
  t.vote(6, NodeId{2}, true);   // stale epoch
  t.vote(7, NodeId{3}, true);
  t.vote(7, NodeId{3}, true);   // duplicate
  EXPECT_EQ(t.acks(), 1u);
}

TEST(Election, FinishDeactivates) {
  ElectionTally t;
  t.start(7, 2);
  t.vote(7, NodeId{2}, true);
  EXPECT_TRUE(t.won());
  t.finish();
  EXPECT_FALSE(t.in_progress());
  EXPECT_FALSE(t.won());
}

// ---------------------------------------------------------------------------
// ReplicationManager
// ---------------------------------------------------------------------------

TEST(ReplicationManager, HoldersUnionOfSupportAndBackup) {
  ReplicationManager rm(2);
  rm.add_supporting_server(GroupId{1}, NodeId{2});
  rm.add_backup(GroupId{1}, NodeId{3});
  EXPECT_EQ(rm.copy_count(GroupId{1}), 2u);
  EXPECT_EQ(rm.holders(GroupId{1}), (std::vector<NodeId>{NodeId{2}, NodeId{3}}));
  EXPECT_TRUE(rm.is_backup(GroupId{1}, NodeId{3}));
  EXPECT_FALSE(rm.is_backup(GroupId{1}, NodeId{2}));
}

TEST(ReplicationManager, SupportSubsumesBackup) {
  ReplicationManager rm(2);
  rm.add_backup(GroupId{1}, NodeId{2});
  rm.add_supporting_server(GroupId{1}, NodeId{2});
  EXPECT_FALSE(rm.is_backup(GroupId{1}, NodeId{2}));
  EXPECT_EQ(rm.copy_count(GroupId{1}), 1u);
}

TEST(ReplicationManager, RemoveBackupDropsExactlyThatServer) {
  ReplicationManager rm(2);
  rm.add_backup(GroupId{1}, NodeId{3});
  rm.add_backup(GroupId{1}, NodeId{4});
  ASSERT_TRUE(rm.is_backup(GroupId{1}, NodeId{3}));
  rm.remove_backup(GroupId{1}, NodeId{3});
  EXPECT_FALSE(rm.is_backup(GroupId{1}, NodeId{3}));
  EXPECT_TRUE(rm.is_backup(GroupId{1}, NodeId{4}));
  EXPECT_EQ(rm.copy_count(GroupId{1}), 1u);
  // Unknown group: a no-op, not a crash or a phantom entry.
  rm.remove_backup(GroupId{9}, NodeId{3});
  EXPECT_EQ(rm.copy_count(GroupId{9}), 0u);
}

TEST(ReplicationManager, PickBackupWhenBelowMinimum) {
  ReplicationManager rm(2);
  rm.add_supporting_server(GroupId{1}, NodeId{2});
  const std::vector<NodeId> candidates{NodeId{2}, NodeId{3}, NodeId{4}};
  auto pick = rm.pick_backup(GroupId{1}, candidates);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(*pick, NodeId{3});  // first non-holder in startup order
  rm.add_backup(GroupId{1}, *pick);
  EXPECT_FALSE(rm.pick_backup(GroupId{1}, candidates).has_value());
}

TEST(ReplicationManager, DropServerReturnsReducedGroups) {
  ReplicationManager rm(2);
  rm.add_supporting_server(GroupId{1}, NodeId{2});
  rm.add_supporting_server(GroupId{2}, NodeId{3});
  const auto reduced = rm.drop_server(NodeId{2});
  EXPECT_EQ(reduced, (std::vector<GroupId>{GroupId{1}}));
  EXPECT_EQ(rm.copy_count(GroupId{1}), 0u);
}

TEST(ReplicationManager, ReleasableBackupsWhenEnoughSupport) {
  ReplicationManager rm(2);
  rm.add_backup(GroupId{1}, NodeId{9});
  rm.add_supporting_server(GroupId{1}, NodeId{2});
  EXPECT_TRUE(rm.releasable_backups(GroupId{1}).empty());  // 1 support < 2
  rm.add_supporting_server(GroupId{1}, NodeId{3});
  EXPECT_EQ(rm.releasable_backups(GroupId{1}),
            (std::vector<NodeId>{NodeId{9}}));
}

// ---------------------------------------------------------------------------
// Partition reconciliation
// ---------------------------------------------------------------------------

UpdateRecord rec(SeqNo seq, const char* data, NodeId sender = NodeId{100}) {
  UpdateRecord u;
  u.seq = seq;
  u.kind = PayloadKind::kUpdate;
  u.object = ObjectId{1};
  u.data = to_bytes(data);
  u.sender = sender;
  u.request_id = seq;
  return u;
}

SharedState branch_state(std::vector<UpdateRecord> recs) {
  SharedState s;
  for (auto& r : recs) s.apply(r);
  return s;
}

TEST(Partition, DigestDistinguishesContent) {
  EXPECT_NE(record_digest(rec(1, "a")), record_digest(rec(1, "b")));
  EXPECT_NE(record_digest(rec(1, "a")), record_digest(rec(2, "a")));
  EXPECT_EQ(record_digest(rec(1, "a")), record_digest(rec(1, "a")));
}

TEST(Partition, ForkPointAtDivergence) {
  // Common prefix 1..3, divergence at 4.
  auto a = branch_state({rec(1, "x"), rec(2, "y"), rec(3, "z"), rec(4, "A")});
  auto b = branch_state({rec(1, "x"), rec(2, "y"), rec(3, "z"), rec(4, "B")});
  const auto fork = find_fork_point(make_branch_digest(a), make_branch_digest(b));
  ASSERT_TRUE(fork.has_value());
  EXPECT_EQ(*fork, 3u);
}

TEST(Partition, ForkPointWhenOneSideAhead) {
  auto a = branch_state({rec(1, "x"), rec(2, "y")});
  auto b = branch_state({rec(1, "x"), rec(2, "y"), rec(3, "z")});
  const auto fork = find_fork_point(make_branch_digest(a), make_branch_digest(b));
  ASSERT_TRUE(fork.has_value());
  EXPECT_EQ(*fork, 2u);
}

TEST(Partition, ForkPointIdenticalHistories) {
  auto a = branch_state({rec(1, "x"), rec(2, "y")});
  auto b = branch_state({rec(1, "x"), rec(2, "y")});
  EXPECT_EQ(*find_fork_point(make_branch_digest(a), make_branch_digest(b)), 2u);
}

TEST(Partition, ForkPointRespectsReducedBase) {
  auto a = branch_state({rec(1, "x"), rec(2, "y"), rec(3, "z")});
  auto b = branch_state({rec(1, "x"), rec(2, "y"), rec(3, "z")});
  a.reduce_to(2);  // a's digest starts after 2
  const auto fork = find_fork_point(make_branch_digest(a), make_branch_digest(b));
  ASSERT_TRUE(fork.has_value());
  EXPECT_EQ(*fork, 3u);
}

TEST(Partition, NoForkWhenHistoriesDisjoint) {
  auto a = branch_state({rec(1, "x"), rec(2, "y")});
  auto b = branch_state({rec(1, "x"), rec(2, "y"), rec(3, "z"), rec(4, "w")});
  b.reduce_to(3);  // b retains only seq 4; a's history ends at 2
  const auto fork = find_fork_point(make_branch_digest(a), make_branch_digest(b));
  EXPECT_FALSE(fork.has_value());
}

TEST(Partition, RollbackDiscardsBothBranches) {
  auto out = reconcile_branches(GroupId{1}, 3, Branch{{rec(4, "A")}},
                                Branch{{rec(4, "B")}},
                                PartitionPolicy::kRollback);
  EXPECT_TRUE(out.merged_tail.empty());
  EXPECT_FALSE(out.split_group.has_value());
  EXPECT_EQ(out.fork, 3u);
}

TEST(Partition, SelectPrimaryKeepsChosenBranch) {
  auto keep_a = reconcile_branches(GroupId{1}, 3, Branch{{rec(4, "A")}},
                                   Branch{{rec(4, "B")}},
                                   PartitionPolicy::kSelectPrimary, true);
  ASSERT_EQ(keep_a.merged_tail.size(), 1u);
  EXPECT_EQ(to_string(keep_a.merged_tail[0].data), "A");
  auto keep_b = reconcile_branches(GroupId{1}, 3, Branch{{rec(4, "A")}},
                                   Branch{{rec(4, "B")}},
                                   PartitionPolicy::kSelectPrimary, false);
  EXPECT_EQ(to_string(keep_b.merged_tail[0].data), "B");
}

TEST(Partition, EvolveSeparatelySplitsGroup) {
  auto out = reconcile_branches(GroupId{5}, 3, Branch{{rec(4, "A")}},
                                Branch{{rec(4, "B"), rec(5, "C")}},
                                PartitionPolicy::kEvolveSeparately);
  ASSERT_TRUE(out.split_group.has_value());
  EXPECT_EQ(out.split_group->value, 5 + kSplitGroupIdOffset);
  EXPECT_EQ(out.merged_tail.size(), 1u);
  EXPECT_EQ(out.split_tail.size(), 2u);
}

TEST(Partition, StateAtRebuildsForkState) {
  auto s = branch_state({rec(1, "a"), rec(2, "b"), rec(3, "c")});
  const SharedState at2 = state_at(s, 2);
  EXPECT_EQ(to_string(*at2.object(ObjectId{1})), "ab");
  EXPECT_EQ(at2.head_seq(), 2u);
}

TEST(Partition, PolicyNames) {
  EXPECT_STREQ(partition_policy_name(PartitionPolicy::kRollback), "rollback");
  EXPECT_STREQ(partition_policy_name(PartitionPolicy::kEvolveSeparately),
               "evolve-separately");
}

// ---------------------------------------------------------------------------
// Takeover planning
// ---------------------------------------------------------------------------

TEST(Recovery, GroupHeadsRoundTrip) {
  const std::vector<GroupHead> heads{{GroupId{1}, 10}, {GroupId{2}, 0}};
  EXPECT_EQ(decode_group_heads(encode_group_heads(heads)), heads);
}

TEST(Recovery, PlanPullsFreshestHolder) {
  std::map<NodeId, std::vector<GroupHead>> reports;
  reports[NodeId{2}] = {{GroupId{1}, 5}, {GroupId{2}, 9}};
  reports[NodeId{3}] = {{GroupId{1}, 8}};
  std::map<GroupId, SeqNo> local{{GroupId{2}, 9}};
  const auto plan = plan_takeover(reports, local);
  ASSERT_EQ(plan.size(), 1u);  // group 2 is already fresh locally
  EXPECT_EQ(plan.at(GroupId{1}).source, NodeId{3});
  EXPECT_EQ(plan.at(GroupId{1}).remote_head, 8u);
}

TEST(Recovery, PlanPullsUnknownGroupsEvenAtHeadZero) {
  std::map<NodeId, std::vector<GroupHead>> reports;
  reports[NodeId{2}] = {{GroupId{7}, 0}};
  const auto plan = plan_takeover(reports, {});
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan.at(GroupId{7}).source, NodeId{2});
}

TEST(Recovery, TiesGoToLowestServerId) {
  std::map<NodeId, std::vector<GroupHead>> reports;
  reports[NodeId{4}] = {{GroupId{1}, 5}};
  reports[NodeId{2}] = {{GroupId{1}, 5}};
  const auto plan = plan_takeover(reports, {});
  EXPECT_EQ(plan.at(GroupId{1}).source, NodeId{2});
}

TEST(Recovery, EmptyReportsEmptyPlan) {
  EXPECT_TRUE(plan_takeover({}, {{GroupId{1}, 3}}).empty());
}

}  // namespace
}  // namespace corona
