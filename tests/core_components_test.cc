// Unit tests for the smaller core components: locks, session manager,
// state-transfer policies, a follower's group copy, log-reduction policies,
// group bookkeeping, and the QoS scheduler.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "core/group.h"
#include "core/locks.h"
#include "core/log_reduction.h"
#include "core/qos_scheduler.h"
#include "core/session_manager.h"
#include "core/state_transfer.h"

namespace corona {
namespace {

// ---------------------------------------------------------------------------
// LockTable
// ---------------------------------------------------------------------------

TEST(LockTable, FirstAcquireGrants) {
  LockTable t;
  EXPECT_EQ(t.acquire(ObjectId{1}, NodeId{100}),
            LockTable::AcquireOutcome::kGranted);
  EXPECT_EQ(t.holder(ObjectId{1}), NodeId{100});
}

TEST(LockTable, SecondAcquireQueues) {
  LockTable t;
  t.acquire(ObjectId{1}, NodeId{100});
  EXPECT_EQ(t.acquire(ObjectId{1}, NodeId{101}),
            LockTable::AcquireOutcome::kQueued);
  EXPECT_EQ(t.waiters(ObjectId{1}), 1u);
}

TEST(LockTable, DuplicateAcquireReported) {
  LockTable t;
  t.acquire(ObjectId{1}, NodeId{100});
  EXPECT_EQ(t.acquire(ObjectId{1}, NodeId{100}),
            LockTable::AcquireOutcome::kAlreadyHeld);
  t.acquire(ObjectId{1}, NodeId{101});
  EXPECT_EQ(t.acquire(ObjectId{1}, NodeId{101}),
            LockTable::AcquireOutcome::kAlreadyHeld);
}

TEST(LockTable, ReleaseGrantsFifo) {
  LockTable t;
  t.acquire(ObjectId{1}, NodeId{100});
  t.acquire(ObjectId{1}, NodeId{101});
  t.acquire(ObjectId{1}, NodeId{102});
  auto r = t.release(ObjectId{1}, NodeId{100});
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r.value(), NodeId{101});
  EXPECT_EQ(t.holder(ObjectId{1}), NodeId{101});
}

TEST(LockTable, ReleaseByNonHolderRejected) {
  LockTable t;
  t.acquire(ObjectId{1}, NodeId{100});
  auto r = t.release(ObjectId{1}, NodeId{101});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code, Errc::kLockHeld);
}

TEST(LockTable, ReleaseUnheldRejected) {
  LockTable t;
  auto r = t.release(ObjectId{1}, NodeId{100});
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code, Errc::kNotFound);
}

TEST(LockTable, ReleaseWithoutWaitersFreesLock) {
  LockTable t;
  t.acquire(ObjectId{1}, NodeId{100});
  auto r = t.release(ObjectId{1}, NodeId{100});
  ASSERT_TRUE(r.is_ok());
  EXPECT_FALSE(r.value().has_value());
  EXPECT_FALSE(t.holder(ObjectId{1}).has_value());
}

TEST(LockTable, DropMemberReleasesEverything) {
  LockTable t;
  t.acquire(ObjectId{1}, NodeId{100});  // holds 1
  t.acquire(ObjectId{2}, NodeId{100});  // holds 2
  t.acquire(ObjectId{1}, NodeId{101});  // waits on 1
  t.acquire(ObjectId{2}, NodeId{101});  // waits on 2
  t.acquire(ObjectId{3}, NodeId{102});  // unrelated
  const auto grants = t.drop_member(NodeId{100});
  ASSERT_EQ(grants.size(), 2u);
  EXPECT_EQ(t.holder(ObjectId{1}), NodeId{101});
  EXPECT_EQ(t.holder(ObjectId{2}), NodeId{101});
  EXPECT_EQ(t.holder(ObjectId{3}), NodeId{102});
}

TEST(LockTable, DropWaiterLeavesHolder) {
  LockTable t;
  t.acquire(ObjectId{1}, NodeId{100});
  t.acquire(ObjectId{1}, NodeId{101});
  EXPECT_TRUE(t.drop_member(NodeId{101}).empty());
  EXPECT_EQ(t.holder(ObjectId{1}), NodeId{100});
  EXPECT_EQ(t.waiters(ObjectId{1}), 0u);
}

// ---------------------------------------------------------------------------
// SessionManager
// ---------------------------------------------------------------------------

TEST(SessionManager, AllowAllAllows) {
  AllowAllSessionManager sm;
  EXPECT_TRUE(sm.authorize(NodeId{1}, GroupId{1}, GroupAction::kDelete));
}

TEST(SessionManager, AclDeniesByDefault) {
  AclSessionManager sm;
  const Status s = sm.authorize(NodeId{1}, GroupId{1}, GroupAction::kJoin);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code, Errc::kPermissionDenied);
}

TEST(SessionManager, AclExactRule) {
  AclSessionManager sm;
  sm.allow(NodeId{1}, GroupId{2}, GroupAction::kJoin);
  EXPECT_TRUE(sm.authorize(NodeId{1}, GroupId{2}, GroupAction::kJoin));
  EXPECT_FALSE(sm.authorize(NodeId{1}, GroupId{3}, GroupAction::kJoin));
  EXPECT_FALSE(sm.authorize(NodeId{2}, GroupId{2}, GroupAction::kJoin));
  EXPECT_FALSE(sm.authorize(NodeId{1}, GroupId{2}, GroupAction::kDelete));
}

TEST(SessionManager, AclWildcards) {
  AclSessionManager sm;
  sm.allow(NodeId{1}, GroupId{AclSessionManager::kAnyGroup},
           GroupAction::kPublish);
  sm.allow(NodeId{AclSessionManager::kAnyClient}, GroupId{9},
           GroupAction::kJoin);
  EXPECT_TRUE(sm.authorize(NodeId{1}, GroupId{77}, GroupAction::kPublish));
  EXPECT_TRUE(sm.authorize(NodeId{42}, GroupId{9}, GroupAction::kJoin));
  EXPECT_FALSE(sm.authorize(NodeId{42}, GroupId{10}, GroupAction::kJoin));
}

TEST(SessionManager, AclRevoke) {
  AclSessionManager sm;
  sm.allow(NodeId{1}, GroupId{2}, GroupAction::kJoin);
  sm.revoke(NodeId{1}, GroupId{2}, GroupAction::kJoin);
  EXPECT_FALSE(sm.authorize(NodeId{1}, GroupId{2}, GroupAction::kJoin));
}

TEST(SessionManager, AllowAllActionsCoversSuite) {
  AclSessionManager sm;
  sm.allow_all_actions(NodeId{1}, GroupId{2});
  for (GroupAction a :
       {GroupAction::kCreate, GroupAction::kDelete, GroupAction::kJoin,
        GroupAction::kLeave, GroupAction::kPublish, GroupAction::kReduceLog}) {
    EXPECT_TRUE(sm.authorize(NodeId{1}, GroupId{2}, a))
        << group_action_name(a);
  }
}

// ---------------------------------------------------------------------------
// State transfer policies
// ---------------------------------------------------------------------------

class TransferFixture : public ::testing::Test {
 protected:
  SharedState state;
  void SetUp() override {
    state.load(0, {StateEntry{ObjectId{1}, to_bytes("A")},
                   StateEntry{ObjectId{2}, to_bytes("B")}});
    for (SeqNo s = 1; s <= 20; ++s) {
      UpdateRecord u;
      u.seq = s;
      u.kind = PayloadKind::kUpdate;
      u.object = ObjectId{1 + s % 2};
      u.data = to_bytes("u" + std::to_string(s));
      u.sender = NodeId{100};
      u.request_id = s;
      state.apply(u);
    }
  }
};

TEST_F(TransferFixture, FullStateShipsConsolidatedSnapshot) {
  const auto t = build_transfer(state, TransferPolicySpec::full());
  EXPECT_EQ(t.base_seq, 20u);
  EXPECT_EQ(t.snapshot.size(), 2u);
  EXPECT_TRUE(t.updates.empty());
}

TEST_F(TransferFixture, LastNShipsTailOnly) {
  const auto t = build_transfer(state, TransferPolicySpec::last_n_updates(5));
  EXPECT_TRUE(t.snapshot.empty());
  ASSERT_EQ(t.updates.size(), 5u);
  EXPECT_EQ(t.updates.front().seq, 16u);
  EXPECT_EQ(t.base_seq, 15u);
}

TEST_F(TransferFixture, LastNLargerThanHistoryShipsAll) {
  const auto t = build_transfer(state, TransferPolicySpec::last_n_updates(99));
  EXPECT_EQ(t.updates.size(), 20u);
  EXPECT_EQ(t.base_seq, 0u);
}

TEST_F(TransferFixture, ObjectsShipsSubsetSnapshot) {
  const auto t =
      build_transfer(state, TransferPolicySpec::objects_only({ObjectId{2}}));
  ASSERT_EQ(t.snapshot.size(), 1u);
  EXPECT_EQ(t.snapshot[0].object, ObjectId{2});
  EXPECT_EQ(t.base_seq, 20u);
}

TEST_F(TransferFixture, ObjectsLastNFiltersBoth) {
  const auto t = build_transfer(
      state, TransferPolicySpec::objects_last_n({ObjectId{1}}, 3));
  EXPECT_TRUE(t.snapshot.empty());
  ASSERT_EQ(t.updates.size(), 3u);
  for (const auto& u : t.updates) EXPECT_EQ(u.object, ObjectId{1});
}

TEST_F(TransferFixture, NothingShipsNothing) {
  const auto t = build_transfer(state, TransferPolicySpec::nothing());
  EXPECT_TRUE(t.snapshot.empty());
  EXPECT_TRUE(t.updates.empty());
  EXPECT_EQ(t.base_seq, 20u);
}

TEST_F(TransferFixture, TotalBytesAccounts) {
  const auto full = build_transfer(state, TransferPolicySpec::full());
  const auto last1 = build_transfer(state, TransferPolicySpec::last_n_updates(1));
  EXPECT_GT(full.total_bytes(), last1.total_bytes());
}

// ---------------------------------------------------------------------------
// GroupCopy
// ---------------------------------------------------------------------------

UpdateRecord append(SeqNo seq, const std::string& text) {
  UpdateRecord u;
  u.seq = seq;
  u.object = ObjectId{1};
  u.data = to_bytes(text);
  u.sender = NodeId{100};
  u.request_id = seq;
  return u;
}

// A copy that has applied records 1 and 2.
GroupCopy copy_at_two() {
  GroupCopy c;
  c.state.apply(append(1, "a"));
  c.state.apply(append(2, "b"));
  return c;
}

Message state_reply() {
  Message m;
  m.type = MsgType::kStateReply;
  m.group = GroupId{1};
  return m;
}

TEST(GroupCopy, PlacesStaleNextAndAheadSeqs) {
  const GroupCopy c = copy_at_two();
  EXPECT_EQ(c.place(1), GroupCopy::Place::kStale);
  EXPECT_EQ(c.place(2), GroupCopy::Place::kStale);
  EXPECT_EQ(c.place(3), GroupCopy::Place::kApply);
  EXPECT_EQ(c.place(4), GroupCopy::Place::kAhead);
}

TEST(GroupCopy, AsksOncePerGapAndAgainOnlyAfterTheRetry) {
  GroupCopy c = copy_at_two();
  const GroupId g{7};
  const std::optional<Message> first = c.ask(g, 5, 0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->type, MsgType::kRetransmitReq);
  EXPECT_EQ(first->group, g);
  EXPECT_EQ(first->seq, 3u);
  EXPECT_EQ(first->seq2, 5u);
  // While the fill may still be on its way, later records ahead ask nothing.
  EXPECT_FALSE(c.ask(g, 6, 1).has_value());
  EXPECT_FALSE(c.ask(g, 7, GroupCopy::kFillRetry - 1).has_value());
  // After kFillRetry the fill counts as lost and the copy asks again.
  const std::optional<Message> again = c.ask(g, 8, GroupCopy::kFillRetry);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->seq, 3u);
  EXPECT_EQ(again->seq2, 8u);
  EXPECT_FALSE(c.ask(g, 9, GroupCopy::kFillRetry + 1).has_value());
}

TEST(GroupCopy, RecordFillAppliesOnlyRecordsThatExtendTheCopy) {
  GroupCopy c = copy_at_two();
  ASSERT_TRUE(c.ask(GroupId{1}, 6, 0).has_value());
  Message fill = state_reply();
  fill.updates = {append(2, "b"), append(3, "c"), append(4, "d"),
                  append(6, "f")};
  // A record fill leaves the applying to its caller, which follows place().
  EXPECT_FALSE(c.fill(fill));
  EXPECT_EQ(c.state.head_seq(), 2u);
  std::vector<SeqNo> applied;
  for (const UpdateRecord& u : fill.updates) {
    if (c.place(u.seq) != GroupCopy::Place::kApply) continue;
    applied.push_back(u.seq);
    c.state.apply(u);
  }
  EXPECT_EQ(applied, (std::vector<SeqNo>{3, 4}));
  EXPECT_EQ(to_string(*c.state.object(ObjectId{1})), "abcd");
  // The fill closed the ask: the gap left before 6 is asked for at once.
  const std::optional<Message> next = c.ask(GroupId{1}, 6, 1);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(next->seq, 5u);
}

TEST(GroupCopy, SnapshotFillReloadsAndClosesTheAsk) {
  GroupCopy c = copy_at_two();
  ASSERT_TRUE(c.ask(GroupId{1}, 9, 0).has_value());
  Message fill = state_reply();
  fill.seq = 8;
  fill.state = {StateEntry{ObjectId{1}, to_bytes("abcdefgh")}};
  EXPECT_TRUE(c.fill(fill));
  EXPECT_EQ(c.state.head_seq(), 8u);
  EXPECT_EQ(c.place(9), GroupCopy::Place::kApply);
  EXPECT_EQ(to_string(*c.state.object(ObjectId{1})), "abcdefgh");
  EXPECT_TRUE(c.ask(GroupId{1}, 10, 1).has_value());
}

TEST(GroupCopy, ReloadKeepsMembers) {
  GroupCopy c = copy_at_two();
  const std::vector<MemberInfo> members = {
      MemberInfo{NodeId{100}, MemberRole::kPrincipal},
      MemberInfo{NodeId{101}, MemberRole::kObserver}};
  c.set_members(members);
  Message copy = state_reply();
  copy.seq = 4;
  copy.state = {StateEntry{ObjectId{1}, to_bytes("abcd")}};
  copy.updates = {append(5, "e")};
  copy.members = {MemberInfo{NodeId{200}, MemberRole::kPrincipal}};
  c.reload(copy);
  EXPECT_EQ(c.state.base_seq(), 4u);
  EXPECT_EQ(c.state.head_seq(), 5u);
  EXPECT_EQ(to_string(*c.state.object(ObjectId{1})), "abcde");
  EXPECT_EQ(member_list(c.members), members);
}

TEST(GroupCopy, NoteAddsUpdatesAndRemovesMembers) {
  GroupCopy c;
  Message notice;
  notice.type = MsgType::kMembershipNotice;
  notice.accept = true;
  notice.sender = NodeId{100};
  c.note(notice);
  notice.sender = NodeId{101};
  notice.role = MemberRole::kObserver;
  c.note(notice);
  EXPECT_EQ(c.members.size(), 2u);
  // A notice for a member already listed updates its role.
  notice.sender = NodeId{100};
  c.note(notice);
  EXPECT_EQ(c.members.at(NodeId{100}), MemberRole::kObserver);
  notice.accept = false;
  c.note(notice);
  EXPECT_FALSE(c.members.contains(NodeId{100}));
  EXPECT_EQ(c.members.size(), 1u);
}

// ---------------------------------------------------------------------------
// Reduction policies
// ---------------------------------------------------------------------------

SharedState state_with_updates(std::size_t n, std::size_t bytes_each) {
  SharedState s;
  for (SeqNo i = 1; i <= n; ++i) {
    UpdateRecord u;
    u.seq = i;
    u.kind = PayloadKind::kUpdate;
    u.object = ObjectId{1};
    u.data = filler_bytes(bytes_each);
    u.sender = NodeId{100};
    u.request_id = i;
    s.apply(u);
  }
  return s;
}

TEST(ReductionPolicy, NoReductionNeverFires) {
  auto p = make_no_reduction();
  auto s = state_with_updates(1000, 100);
  EXPECT_EQ(p->should_reduce(s), 0u);
}

TEST(ReductionPolicy, SizeThresholdFires) {
  auto p = make_size_threshold(500);
  auto below = state_with_updates(4, 100);
  EXPECT_EQ(p->should_reduce(below), 0u);
  auto above = state_with_updates(6, 100);
  EXPECT_EQ(p->should_reduce(above), 6u);
}

TEST(ReductionPolicy, CountThresholdFires) {
  auto p = make_count_threshold(10);
  auto below = state_with_updates(10, 1);
  EXPECT_EQ(p->should_reduce(below), 0u);
  auto above = state_with_updates(11, 1);
  EXPECT_EQ(p->should_reduce(above), 11u);
}

TEST(ReductionPolicy, WindowKeepsTail) {
  auto p = make_window(5);
  auto s = state_with_updates(11, 1);
  EXPECT_EQ(p->should_reduce(s), 6u);  // head(11) - keep(5)
  s.reduce_to(6);
  EXPECT_EQ(p->should_reduce(s), 0u);  // history is 5 <= 2*keep
}

// ---------------------------------------------------------------------------
// Group bookkeeping
// ---------------------------------------------------------------------------

TEST(Group, MembershipAddRemove) {
  Group g(GroupMeta{GroupId{1}, "g", false});
  EXPECT_TRUE(g.add_member(NodeId{100}, MemberRole::kPrincipal, true));
  EXPECT_FALSE(g.add_member(NodeId{100}, MemberRole::kObserver, false));
  EXPECT_TRUE(g.is_member(NodeId{100}));
  g.remove_member(NodeId{100});
  EXPECT_FALSE(g.is_member(NodeId{100}));
  EXPECT_TRUE(g.remove_member(NodeId{100}).empty());  // not a member: no-op
}

TEST(Group, RemoveMemberReleasesItsLocks) {
  // Leaving releases the member's locks and queued requests, so the grants
  // come back with the removal and no lock names a non-member.
  Group g(GroupMeta{GroupId{1}, "g", false});
  for (std::uint64_t n : {100, 101, 102}) {
    g.add_member(NodeId{n}, MemberRole::kPrincipal, false);
  }
  g.locks().acquire(ObjectId{1}, NodeId{100});
  g.locks().acquire(ObjectId{1}, NodeId{101});
  g.locks().acquire(ObjectId{1}, NodeId{102});
  g.locks().acquire(ObjectId{2}, NodeId{101});
  EXPECT_TRUE(g.remove_member(NodeId{101}).empty());  // queued on 1, holds 2
  EXPECT_EQ(g.locks().waiters(ObjectId{1}), 1u);
  EXPECT_FALSE(g.locks().holder(ObjectId{2}).has_value());
  const auto grants = g.remove_member(NodeId{100});
  ASSERT_EQ(grants.size(), 1u);
  EXPECT_EQ(grants[0], std::make_pair(ObjectId{1}, NodeId{102}));
  EXPECT_TRUE(g.check_invariants().ok()) << g.check_invariants().to_string();
}

TEST(Group, MemberListDeterministicOrder) {
  Group g(GroupMeta{GroupId{1}, "g", false});
  g.add_member(NodeId{105}, MemberRole::kPrincipal, false);
  g.add_member(NodeId{101}, MemberRole::kObserver, true);
  const auto list = g.member_list();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].node, NodeId{101});
  EXPECT_EQ(list[1].node, NodeId{105});
}

TEST(Group, NoticeSubscribersFiltered) {
  Group g(GroupMeta{GroupId{1}, "g", false});
  g.add_member(NodeId{100}, MemberRole::kPrincipal, true);
  g.add_member(NodeId{101}, MemberRole::kPrincipal, false);
  EXPECT_EQ(g.notice_subscribers(), (std::vector<NodeId>{NodeId{100}}));
}

TEST(Group, SequencerMonotonic) {
  Group g(GroupMeta{GroupId{1}, "g", false});
  EXPECT_EQ(g.allocate_seq(), 1u);
  EXPECT_EQ(g.allocate_seq(), 2u);
  g.set_next_seq(100);
  EXPECT_EQ(g.allocate_seq(), 100u);
}

TEST(Group, SeenSetDedups) {
  Group g(GroupMeta{GroupId{1}, "g", false});
  EXPECT_TRUE(g.mark_seen(NodeId{100}, 1));
  EXPECT_FALSE(g.mark_seen(NodeId{100}, 1));
  EXPECT_TRUE(g.was_seen(NodeId{100}, 1));
  EXPECT_FALSE(g.was_seen(NodeId{100}, 2));
  EXPECT_TRUE(g.mark_seen(NodeId{101}, 1));  // different sender, same rid
}

// ---------------------------------------------------------------------------
// QoS scheduler
// ---------------------------------------------------------------------------

Message bcast_for(GroupId g) {
  return make_bcast(PayloadKind::kUpdate, g, ObjectId{1}, to_bytes("x"), true,
                    1);
}

TEST(QosScheduler, StrictPriorityOrder) {
  QosScheduler q;
  q.set_group_class(GroupId{1}, 2);
  q.set_group_class(GroupId{2}, 0);
  q.enqueue(NodeId{100}, bcast_for(GroupId{1}));
  q.enqueue(NodeId{100}, bcast_for(GroupId{2}));
  auto first = q.dequeue();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->msg.group, GroupId{2});
  EXPECT_EQ(q.dequeue()->msg.group, GroupId{1});
}

TEST(QosScheduler, UnknownGroupDefaultsToMiddleClass) {
  QosScheduler q;
  EXPECT_EQ(q.group_class(GroupId{42}), 1);
}

TEST(QosScheduler, AgingPreventsStarvation) {
  QosScheduler::Config cfg;
  cfg.aging_limit = 3;
  QosScheduler q(cfg);
  q.set_group_class(GroupId{1}, 0);
  q.set_group_class(GroupId{2}, 2);
  q.enqueue(NodeId{100}, bcast_for(GroupId{2}));  // low priority, waits
  for (int i = 0; i < 10; ++i) q.enqueue(NodeId{100}, bcast_for(GroupId{1}));
  // After aging_limit dequeues the low-priority message is promoted twice
  // and eventually drains even while high-priority work keeps arriving.
  int drained_low = 0;
  for (int i = 0; i < 11; ++i) {
    auto item = q.dequeue();
    ASSERT_TRUE(item.has_value());
    if (item->msg.group == GroupId{2}) ++drained_low;
  }
  EXPECT_EQ(drained_low, 1);
  EXPECT_GT(q.promoted(), 0u);
}

TEST(QosScheduler, SheddingDropsLowestClassUnderLoad) {
  QosScheduler::Config cfg;
  cfg.shed_threshold = 5;
  QosScheduler q(cfg);
  q.set_group_class(GroupId{1}, 0);
  q.set_group_class(GroupId{3}, 2);
  q.enqueue(NodeId{100}, bcast_for(GroupId{3}));
  for (int i = 0; i < 10; ++i) q.enqueue(NodeId{100}, bcast_for(GroupId{1}));
  EXPECT_GT(q.shed(), 0u);
  EXPECT_LE(q.depth(), 6u);
  // The shed message was the low-priority one.
  while (auto item = q.dequeue()) {
    EXPECT_EQ(item->msg.group, GroupId{1});
  }
}

TEST(QosScheduler, DepthAndCounters) {
  QosScheduler q;
  EXPECT_TRUE(q.empty());
  q.enqueue(NodeId{100}, bcast_for(GroupId{1}));
  q.enqueue(NodeId{100}, bcast_for(GroupId{1}));
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.enqueued(), 2u);
  EXPECT_EQ(q.max_depth_seen(), 2u);
  q.dequeue();
  EXPECT_EQ(q.depth(), 1u);
}

TEST(QosScheduler, ShedThresholdIsAnInclusiveBound) {
  // depth == shed_threshold is still acceptable load; shedding starts only
  // when the backlog strictly exceeds it.
  QosScheduler::Config cfg;
  cfg.shed_threshold = 3;
  QosScheduler q(cfg);
  for (int i = 0; i < 3; ++i) q.enqueue(NodeId{100}, bcast_for(GroupId{1}));
  EXPECT_EQ(q.shed(), 0u);
  EXPECT_EQ(q.depth(), 3u);
  q.enqueue(NodeId{100}, bcast_for(GroupId{1}));
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.depth(), 3u);
}

TEST(QosScheduler, PromotionClimbsExactlyOneClassPerAging) {
  // A class-2 message must pass through class 1 on its way up: two aging
  // rounds, two promotions.  Jumping straight to class 0 would let bulk
  // traffic leapfrog the interactive class.
  QosScheduler::Config cfg;
  cfg.aging_limit = 1;
  QosScheduler q(cfg);
  q.set_group_class(GroupId{1}, 0);
  q.set_group_class(GroupId{2}, 2);
  q.enqueue(NodeId{100}, bcast_for(GroupId{2}));  // waits in class 2
  q.enqueue(NodeId{100}, bcast_for(GroupId{1}));
  q.enqueue(NodeId{100}, bcast_for(GroupId{1}));

  ASSERT_EQ(q.dequeue()->msg.group, GroupId{1});  // ages 2 -> promotes to 1
  EXPECT_EQ(q.promoted(), 1u);
  ASSERT_EQ(q.dequeue()->msg.group, GroupId{1});  // ages 1 -> promotes to 0
  EXPECT_EQ(q.promoted(), 2u);
  auto last = q.dequeue();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->msg.group, GroupId{2});
  EXPECT_EQ(q.depth(), 0u);
}

TEST(Group, InvariantCatchesHeadSeqCatchingUpToNextSeq) {
  // next_seq_ is the next sequence number to hand out, so an applied record
  // carrying it (head == next) means the sequencer double-issued — the
  // invariant must flag equality, not just overshoot.
  Group g(GroupMeta{GroupId{1}, "g", false});
  g.state().load(1, {});  // head_seq == 1 == next_seq_
  EXPECT_FALSE(g.check_invariants().ok());
  g.set_next_seq(2);
  EXPECT_TRUE(g.check_invariants().ok());
}

}  // namespace
}  // namespace corona
