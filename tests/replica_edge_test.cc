// Edge cases of the replicated service that the happy-path integration
// tests don't reach: copy release and backup churn, cross-leaf group
// deletion and log reduction, coordinator-with-local-clients operation,
// resend dedup across coordinator changes, and registry growth.
#include <gtest/gtest.h>

#include "harness.h"

namespace corona {
namespace {

using testing::client_id;
using testing::ReplicatedWorld;
using testing::server_id;

const GroupId kG{1};
const ObjectId kObj{1};

TEST(ReplicaEdge, LeafCopyReleasedWhenEnoughCopiesRemain) {
  // Clients on three leaves; when one leaves, its leaf's copy is surplus
  // (two member-driven copies remain) and is released.
  ReplicatedWorld w(4, 3);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  for (int i = 0; i < 3; ++i) w.client(i).join(kG);
  w.settle();
  for (std::size_t leaf = 1; leaf <= 3; ++leaf) {
    EXPECT_TRUE(w.leaf(leaf).holds_copy(kG)) << leaf;
  }
  w.client(0).leave(kG);  // client 0 was on leaf 1
  w.settle();
  w.run_ms(500);
  EXPECT_FALSE(w.leaf(1).holds_copy(kG));
  EXPECT_TRUE(w.leaf(2).holds_copy(kG));
  EXPECT_TRUE(w.leaf(3).holds_copy(kG));
}

TEST(ReplicaEdge, LastLeafKeptAsBackupWhenMembersConcentrate) {
  // Two members on two leaves; one leaves -> only one supporting leaf
  // remains, so the departing member's leaf stays as the hot standby.
  ReplicatedWorld w(3, 2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  w.client(1).leave(kG);  // leaf 2 loses its only member
  w.settle();
  w.run_ms(500);
  // Both leaves still hold copies: leaf 1 supports client 0, leaf 2 is the
  // standby (min_copies = 2 and there is no third leaf to recruit).
  EXPECT_TRUE(w.leaf(1).holds_copy(kG));
  EXPECT_TRUE(w.leaf(2).holds_copy(kG));
  EXPECT_GE(w.coordinator().coord_holders(kG).size(), 2u);
}

TEST(ReplicaEdge, DeleteGroupPropagatesToAllLeaves) {
  int deleted_notices = 0;
  CoronaClient::Callbacks cb;
  cb.on_group_deleted = [&](GroupId) { ++deleted_notices; };
  ReplicatedWorld w(3, 2, ReplicaConfig{}, cb);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  w.client(0).delete_group(kG);
  w.settle();
  EXPECT_EQ(w.coordinator().coord_group_count(), 0u);
  EXPECT_FALSE(w.leaf(1).holds_copy(kG));
  EXPECT_FALSE(w.leaf(2).holds_copy(kG));
  EXPECT_GE(deleted_notices, 1);  // the non-deleting member heard about it
  EXPECT_FALSE(w.client(1).is_joined(kG));
}

TEST(ReplicaEdge, LogReductionPropagatesToLeafCopies) {
  ReplicatedWorld w(3, 2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  for (int i = 0; i < 10; ++i) {
    w.client(0).bcast_update(kG, kObj, to_bytes("u"));
  }
  w.settle();
  ASSERT_EQ(w.leaf(1).local_state(kG)->history_size(), 10u);
  ASSERT_EQ(w.leaf(2).local_state(kG)->history_size(), 10u);

  w.client(1).reduce_log(kG);
  w.settle();
  EXPECT_EQ(w.coordinator().coord_state(kG)->history_size(), 0u);
  EXPECT_EQ(w.leaf(1).local_state(kG)->history_size(), 0u);
  EXPECT_EQ(w.leaf(2).local_state(kG)->history_size(), 0u);
  // Consolidated state intact everywhere.
  EXPECT_EQ(to_string(*w.leaf(2).local_state(kG)->object(kObj)),
            "uuuuuuuuuu");
}

TEST(ReplicaEdge, SingleServerReplicatedModeServesClientsDirectly) {
  // servers = 1: the coordinator doubles as the (only) leaf.
  ReplicatedWorld w(1, 2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("solo"));
  w.settle();
  EXPECT_EQ(to_string(*w.client(1).group_state(kG)->object(kObj)), "solo");
  EXPECT_TRUE(w.coordinator().is_coordinator());
}

TEST(ReplicaEdge, PersistentGroupOutlivesAllMembersAcrossLeaves) {
  ReplicatedWorld w(3, 2);
  w.client(0).create_group(kG, "g", /*persistent=*/true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("kept"));
  w.settle();
  w.client(0).leave(kG);
  w.client(1).leave(kG);
  w.settle();
  ASSERT_NE(w.coordinator().coord_state(kG), nullptr);
  // A later join through any leaf recovers the state.
  w.client(1).join(kG);
  w.settle();
  EXPECT_EQ(to_string(*w.client(1).group_state(kG)->object(kObj)), "kept");
}

TEST(ReplicaEdge, TransientGroupDiesAtNullMembershipAcrossLeaves) {
  ReplicatedWorld w(3, 2);
  w.client(0).create_group(kG, "g", /*persistent=*/false);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  w.client(0).leave(kG);
  w.client(1).leave(kG);
  w.settle();
  EXPECT_EQ(w.coordinator().coord_group_count(), 0u);
  EXPECT_FALSE(w.leaf(1).holds_copy(kG));
  EXPECT_FALSE(w.leaf(2).holds_copy(kG));
}

TEST(ReplicaEdge, ResendDedupSurvivesCoordinatorChange) {
  // Regression: a promoted coordinator seeds its dedup set from the
  // retained history, so post-failover resends of already-sequenced
  // updates are not applied twice.
  ReplicatedWorld w(4, 2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("once;"));
  w.settle();

  w.rt.crash(w.server_ids[0]);
  w.run_ms(6000);
  ASSERT_TRUE(w.leaf(1).is_coordinator());

  w.client(0).resend_recent(kG);
  w.run_ms(1000);
  EXPECT_EQ(to_string(*w.coordinator().coord_state(kG)->object(kObj)),
            "once;");  // a second "once;" would mean double-apply
  (void)w;
}

TEST(ReplicaEdge, RestartedServerRejoinsRegistry) {
  ReplicatedWorld w(3, 0);
  EXPECT_TRUE(w.coordinator().registry().contains(w.server_ids[2]));
  w.rt.crash(w.server_ids[2]);
  w.run_ms(3000);
  EXPECT_FALSE(w.coordinator().registry().contains(w.server_ids[2]));

  // A fresh server process comes back under the same id and re-registers.
  auto fresh = std::make_unique<ReplicaServer>(ReplicaConfig{}, w.server_ids);
  w.rt.restart(w.server_ids[2], fresh.get());
  w.run_ms(2000);
  EXPECT_TRUE(w.coordinator().registry().contains(w.server_ids[2]));
  EXPECT_EQ(fresh->coordinator(), w.server_ids[0]);
  w.servers[2] = std::move(fresh);
}

TEST(ReplicaEdge, JoinThroughABackupLeafListsEveryMember) {
  // Client 0's join on leaf 1 makes leaf 2 the backup, and leaf 2 pulls its
  // copy after the join registered at the coordinator.  The notice of that
  // join reached leaf 2 before its copy did, so only the copy's member list
  // tells leaf 2 about client 0.
  std::vector<MemberInfo> seen;
  CoronaClient::Callbacks cb;
  cb.on_membership_info = [&](GroupId, const std::vector<MemberInfo>& m) {
    seen = m;
  };
  ReplicatedWorld w(3, 2, ReplicaConfig{}, cb);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.settle();
  ASSERT_TRUE(w.leaf(2).holds_copy(kG));  // the backup copy
  w.client(1).get_membership(kG);  // answered by leaf 2
  w.settle();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].node, client_id(0));

  w.client(1).join(kG);
  w.settle();
  const std::vector<MemberInfo> known = w.client(1).known_members(kG);
  ASSERT_EQ(known.size(), 2u);
  EXPECT_EQ(known[0].node, client_id(0));
  EXPECT_EQ(known[1].node, client_id(1));
}

TEST(ReplicaEdge, GetMembershipServedFromLeafView) {
  std::vector<MemberInfo> seen;
  CoronaClient::Callbacks cb;
  cb.on_membership_info = [&](GroupId, const std::vector<MemberInfo>& m) {
    seen = m;
  };
  ReplicatedWorld w(3, 2, ReplicaConfig{}, cb);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  w.client(0).get_membership(kG);
  w.settle();
  // The leaf's global view includes the member on the OTHER leaf.
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].node, client_id(0));
  EXPECT_EQ(seen[1].node, client_id(1));
}

TEST(ReplicaEdge, JoinNonexistentGroupRejectedThroughLeaf) {
  std::vector<Status> join_status;
  CoronaClient::Callbacks cb;
  cb.on_joined = [&](GroupId, Status s) { join_status.push_back(s); };
  ReplicatedWorld w(3, 1, ReplicaConfig{}, cb);
  w.client(0).join(GroupId{99});
  w.settle();
  ASSERT_EQ(join_status.size(), 1u);
  EXPECT_EQ(join_status[0].code, Errc::kNotFound);
}

TEST(ReplicaEdge, ObserverRoleVisibleAcrossLeaves) {
  ReplicatedWorld w(3, 2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG, TransferPolicySpec::full(), MemberRole::kPrincipal);
  w.client(1).join(kG, TransferPolicySpec::full(), MemberRole::kObserver);
  w.settle();
  const auto members = w.client(0).known_members(kG);
  ASSERT_EQ(members.size(), 2u);
  EXPECT_EQ(members[1].node, client_id(1));
  EXPECT_EQ(members[1].role, MemberRole::kObserver);
}

}  // namespace
}  // namespace corona
