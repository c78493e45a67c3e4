// End-to-end tests of the replicated Corona service (paper §4): star
// topology, cross-leaf multicast, state copies + backups, leaf and
// coordinator crashes (election + takeover), and partition reconciliation.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "harness.h"

namespace corona {
namespace {

using testing::client_id;
using testing::DeliveryLog;
using testing::ReplicatedWorld;
using testing::server_id;

const GroupId kG{1};
const ObjectId kObj{1};

TEST(Replicated, LastLeaveOnALeafRecruitsAReplacementCopy) {
  // When the last member on a leaf leaves and the copy count is below
  // min_copies, the coordinator keeps the departing leaf as hot standby
  // AND recruits a further backup toward the minimum (§4.1).  Skipping the
  // recruitment step leaves the group under-replicated until the next
  // crash forces the issue.
  ReplicaConfig cfg;
  cfg.min_copies = 5;
  ReplicatedWorld w(6, 2, cfg);  // coordinator + 5 leaves; c0->leaf1, c1->leaf2
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  const std::uint64_t before = w.coordinator().stats().backups_assigned;
  w.client(0).leave(kG);
  w.settle();
  EXPECT_EQ(w.coordinator().stats().backups_assigned, before + 1);
}

TEST(Replicated, FanoutBatchFrameStatCountsOnlyCoalescedFrames) {
  // fanout_batch_frames means "frames that actually coalesced >1 delivery".
  // A lone update flushed by the batch-delay timer rides a singleton frame
  // and must not count; a same-tick burst must.  Conflating the two turns
  // the batching observability story (EXPERIMENTS.md) into a lie.
  ReplicaConfig cfg;
  cfg.batch_max_msgs = 4;
  cfg.batch_max_delay = 5 * kMillisecond;
  ReplicatedWorld w(3, 2, cfg);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();

  // One update, then quiesce: the delay timer flushes a 1-message outbox
  // per recipient.  No coalescing happened, so no batch frames.
  w.client(0).bcast_update(kG, kObj, to_bytes("solo;"));
  w.settle();
  std::uint64_t batch_frames = 0;
  for (const auto& s : w.servers) batch_frames += s->stats().fanout_batch_frames;
  EXPECT_EQ(batch_frames, 0u);

  // A burst that fills the batch before the timer: the leaf outboxes carry
  // several kDeliver messages per client, and those frames do count.
  for (int i = 0; i < 4; ++i) {
    w.client(0).bcast_update(kG, kObj, to_bytes("burst;"));
  }
  w.settle();
  batch_frames = 0;
  for (const auto& s : w.servers) batch_frames += s->stats().fanout_batch_frames;
  EXPECT_GT(batch_frames, 0u);
}

TEST(Replicated, CrossLeafMulticast) {
  // Coordinator + 2 leaves; clients 0 and 1 attach to different leaves.
  ReplicatedWorld w(3, 2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("across"));
  w.settle();
  for (int c : {0, 1}) {
    const SharedState* st = w.client(c).group_state(kG);
    ASSERT_NE(st, nullptr) << c;
    ASSERT_TRUE(st->has_object(kObj)) << c;
    EXPECT_EQ(to_string(*st->object(kObj)), "across") << c;
  }
  EXPECT_GE(w.leaf(1).stats().forwarded, 1u);
  EXPECT_EQ(w.coordinator().stats().sequenced, 1u);
}

TEST(Replicated, TotalOrderAcrossLeaves) {
  DeliveryLog log;
  ReplicatedWorld* wp = nullptr;
  // Build with per-client delivery logging.
  SimRuntime rt;
  std::vector<NodeId> ids{server_id(0), server_id(1), server_id(2)};
  std::vector<std::unique_ptr<ReplicaServer>> servers;
  for (std::size_t i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<ReplicaServer>(ReplicaConfig{}, ids));
    rt.add_node(ids[i], servers[i].get(), rt.network().add_host(HostProfile{}));
  }
  std::vector<std::unique_ptr<CoronaClient>> clients;
  for (std::size_t i = 0; i < 4; ++i) {
    clients.push_back(std::make_unique<CoronaClient>(
        ids[1 + i % 2], log.callbacks_for(client_id(i))));
    rt.add_node(client_id(i), clients.back().get(),
                rt.network().add_host(HostProfile{}));
  }
  rt.start();
  rt.run_for(300 * kMillisecond);
  clients[0]->create_group(kG, "g", true);
  rt.run_for(300 * kMillisecond);
  for (auto& c : clients) c->join(kG);
  rt.run_for(300 * kMillisecond);
  for (int round = 0; round < 5; ++round) {
    for (auto& c : clients) c->bcast_update(kG, kObj, to_bytes("m"));
    rt.run_for(50 * kMillisecond);
  }
  rt.run_for(500 * kMillisecond);
  const auto ref = log.seqs_for(client_id(0));
  EXPECT_EQ(ref.size(), 20u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(log.seqs_for(client_id(i)), ref) << "client " << i;
  }
  (void)wp;
}

TEST(Replicated, JoinServedFromLeafCopy) {
  ReplicatedWorld w(3, 2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("history"));
  w.settle();
  // Client 1 joins via the *other* leaf, which must pull the state first.
  w.client(1).join(kG);
  w.settle();
  ASSERT_NE(w.client(1).group_state(kG), nullptr);
  EXPECT_EQ(to_string(*w.client(1).group_state(kG)->object(kObj)), "history");
  EXPECT_GE(w.leaf(2).stats().state_pulls, 1u);
}

TEST(Replicated, HotStandbyBackupAssigned) {
  // One group, members only on leaf 1 -> coordinator must place a backup
  // copy on another leaf (min_copies = 2).
  ReplicatedWorld w(4, 1);  // coordinator + 3 leaves; client on leaf 1
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.settle();
  w.run_ms(500);
  const auto holders = w.coordinator().coord_holders(kG);
  EXPECT_GE(holders.size(), 2u);
  EXPECT_GE(w.coordinator().stats().backups_assigned, 1u);
  // The backup leaf holds a live copy.
  int copies = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    if (w.leaf(i).holds_copy(kG)) ++copies;
  }
  EXPECT_GE(copies, 2);
}

TEST(Replicated, LostBackupIsReplacedOnAnotherLeaf) {
  // Losing the leaf that holds a group's backup copy drops the group below
  // min_copies.  The coordinator must recruit a replacement on a surviving
  // leaf when it drops the dead one (§4.1), not wait for the next join or
  // leave to notice.
  ReplicatedWorld w(4, 1);  // coordinator + 3 leaves; client on leaf 1
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.settle();
  w.run_ms(500);
  std::size_t backup = 0;
  for (std::size_t i = 2; i < 4; ++i) {
    if (w.leaf(i).holds_copy(kG)) backup = i;
  }
  ASSERT_NE(backup, 0u) << "no backup copy to lose";
  const std::size_t spare = backup == 2 ? 3 : 2;
  ASSERT_FALSE(w.leaf(spare).holds_copy(kG));
  const std::uint64_t before = w.coordinator().stats().backups_assigned;

  w.rt.crash(w.server_ids[backup]);
  // The replacement counts as a copy holder from the moment it is assigned,
  // before the spare has asked for the state, so a second trigger in that
  // window cannot recruit yet another leaf.
  for (int i = 0; i < 30000 && w.coordinator().stats().backups_assigned ==
                                   before;
       ++i) {
    w.rt.run_for(kMillisecond / 10);
  }
  ASSERT_EQ(w.coordinator().stats().backups_assigned, before + 1);
  const std::vector<NodeId> holders = w.coordinator().coord_holders(kG);
  EXPECT_NE(std::find(holders.begin(), holders.end(), w.server_ids[spare]),
            holders.end());
  EXPECT_FALSE(w.leaf(spare).holds_copy(kG)) << "the state arrived already";

  w.run_ms(3000);
  ASSERT_FALSE(w.coordinator().registry().contains(w.server_ids[backup]));
  EXPECT_EQ(w.coordinator().stats().backups_assigned, before + 1);
  EXPECT_TRUE(w.leaf(spare).holds_copy(kG));
}

TEST(Replicated, BackupCopyStaysCurrent) {
  ReplicatedWorld w(4, 1);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.settle();
  w.run_ms(300);
  w.client(0).bcast_update(kG, kObj, to_bytes("replicated"));
  w.settle();
  // Every holder's copy converged to the same head.
  int with_data = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    const SharedState* st = w.leaf(i).local_state(kG);
    if (st != nullptr && st->has_object(kObj)) {
      EXPECT_EQ(to_string(*st->object(kObj)), "replicated");
      ++with_data;
    }
  }
  EXPECT_GE(with_data, 2);
}

TEST(Replicated, MembershipNoticesCrossLeaves) {
  std::vector<std::pair<NodeId, bool>> notices;
  CoronaClient::Callbacks cb;
  cb.on_membership_change = [&](GroupId, NodeId who, MemberRole, bool joined) {
    notices.emplace_back(who, joined);
  };
  ReplicatedWorld w(3, 2, ReplicaConfig{}, cb);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);  // leaf 1, subscribes to notices
  w.settle();
  w.client(1).join(kG);  // leaf 2
  w.settle();
  w.client(1).leave(kG);
  w.settle();
  // Client 0 saw client 1 join and leave despite being on another leaf.
  bool saw_join = false, saw_leave = false;
  for (auto& [who, joined] : notices) {
    if (who == client_id(1)) (joined ? saw_join : saw_leave) = true;
  }
  EXPECT_TRUE(saw_join);
  EXPECT_TRUE(saw_leave);
}

TEST(Replicated, LocksAcrossLeaves) {
  std::vector<NodeId> grants;
  SimRuntime rt;
  std::vector<NodeId> ids{server_id(0), server_id(1), server_id(2)};
  std::vector<std::unique_ptr<ReplicaServer>> servers;
  for (std::size_t i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<ReplicaServer>(ReplicaConfig{}, ids));
    rt.add_node(ids[i], servers[i].get(), rt.network().add_host(HostProfile{}));
  }
  auto cb_for = [&grants](NodeId who) {
    CoronaClient::Callbacks cb;
    cb.on_lock_granted = [&grants, who](GroupId, ObjectId) {
      grants.push_back(who);
    };
    return cb;
  };
  CoronaClient c0(ids[1], cb_for(client_id(0)));
  CoronaClient c1(ids[2], cb_for(client_id(1)));
  rt.add_node(client_id(0), &c0, rt.network().add_host(HostProfile{}));
  rt.add_node(client_id(1), &c1, rt.network().add_host(HostProfile{}));
  rt.start();
  rt.run_for(300 * kMillisecond);
  c0.create_group(kG, "g", true);
  rt.run_for(300 * kMillisecond);
  c0.join(kG);
  c1.join(kG);
  rt.run_for(300 * kMillisecond);
  c0.lock(kG, kObj);
  rt.run_for(200 * kMillisecond);
  c1.lock(kG, kObj);
  rt.run_for(200 * kMillisecond);
  ASSERT_EQ(grants, (std::vector<NodeId>{client_id(0)}));
  c0.unlock(kG, kObj);
  rt.run_for(300 * kMillisecond);
  EXPECT_EQ(grants, (std::vector<NodeId>{client_id(0), client_id(1)}));
}

TEST(Replicated, LeafCrashDropsItsMembersAndKeepsGroupAlive) {
  ReplicatedWorld w(4, 2);  // clients on leaves 1 and 2
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("pre;"));
  w.settle();

  // Crash leaf 1 (client 0's server).  Coordinator detects via heartbeats,
  // removes it from the registry, drops its members, and sends the shrunk
  // server list to every survivor (a later election counts live servers).
  w.rt.crash(w.server_ids[1]);
  w.run_ms(3000);
  EXPECT_FALSE(w.coordinator().registry().contains(w.server_ids[1]));
  EXPECT_FALSE(w.leaf(2).registry().contains(w.server_ids[1]));
  EXPECT_FALSE(w.leaf(3).registry().contains(w.server_ids[1]));

  // Client 1 (on surviving leaf 2) continues unaffected.
  w.client(1).bcast_update(kG, kObj, to_bytes("post;"));
  w.settle();
  EXPECT_EQ(to_string(*w.client(1).group_state(kG)->object(kObj)),
            "pre;post;");

  // Client 0 reconnects through leaf 2 and rejoins with full transfer.
  w.client(0).set_server(w.server_ids[2]);
  w.client(0).join(kG);
  w.settle();
  ASSERT_NE(w.client(0).group_state(kG), nullptr);
  EXPECT_EQ(to_string(*w.client(0).group_state(kG)->object(kObj)),
            "pre;post;");
}

TEST(Replicated, CoordinatorCrashElectsFirstInList) {
  ReplicatedWorld w(4, 2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("before;"));
  w.settle();

  w.rt.crash(w.server_ids[0]);
  // Staged timeouts: first-in-list (leaf 1) claims after ~fd_timeout, then
  // election + takeover.
  w.run_ms(6000);
  EXPECT_TRUE(w.leaf(1).is_coordinator());
  EXPECT_FALSE(w.leaf(2).is_coordinator());
  EXPECT_EQ(w.leaf(2).coordinator(), w.server_ids[1]);
  EXPECT_GE(w.leaf(1).stats().elections_won, 1u);

  // Service resumes: multicast through the new coordinator, including the
  // pre-crash state.
  w.client(1).bcast_update(kG, kObj, to_bytes("after;"));
  w.run_ms(2000);
  ASSERT_NE(w.client(0).group_state(kG), nullptr);
  EXPECT_EQ(to_string(*w.client(0).group_state(kG)->object(kObj)),
            "before;after;");
  EXPECT_EQ(to_string(*w.client(1).group_state(kG)->object(kObj)),
            "before;after;");
}

TEST(Replicated, TakeoverPullsAGroupTheNewCoordinatorDoesNotHold) {
  // The new coordinator learns which leaves hold which groups only from
  // their hellos.  Here leaf 1, first in line, holds no copy: its backup
  // was released once leaves 2 and 3 both supported the group.  The group
  // survives the takeover only because the hellos report the held heads.
  ReplicatedWorld w(4, 3);  // client 1 on leaf 2, client 2 on leaf 3
  w.client(1).create_group(kG, "g", true);
  w.settle();
  w.client(1).join(kG);
  w.client(2).join(kG);
  w.settle();
  w.client(1).bcast_update(kG, kObj, to_bytes("before;"));
  w.settle();
  ASSERT_FALSE(w.leaf(1).holds_copy(kG));

  w.rt.crash(w.server_ids[0]);
  w.run_ms(6000);
  ASSERT_TRUE(w.leaf(1).is_coordinator());
  ASSERT_NE(w.leaf(1).coord_state(kG), nullptr);
  w.client(2).bcast_update(kG, kObj, to_bytes("after;"));
  w.run_ms(2000);
  EXPECT_EQ(to_string(*w.leaf(1).coord_state(kG)->object(kObj)),
            "before;after;");
  EXPECT_EQ(to_string(*w.client(1).group_state(kG)->object(kObj)),
            "before;after;");
}

TEST(Replicated, CoordinatorRefusesAGroupOpItDoesNotServe) {
  // Leaves forward only create, delete, join, leave, membership queries,
  // locks and reduce as group ops.  Anything else arriving as one (here a
  // multicast) is refused with a kInvalidArgument kReply, relayed back like
  // any answer: a kGroupOpResult carrying the client's encoded message.
  ReplicatedWorld w(2, 1);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  struct Recorder final : Node {
    void on_message(NodeId, const Message& m) override { got.push_back(m); }
    void ask(NodeId to, const Message& m) { send(to, m); }
    std::vector<Message> got;
  } probe;
  w.rt.add_node(NodeId{900}, &probe, w.rt.network().add_host(HostProfile{}));
  Message op = make_bcast(PayloadKind::kUpdate, kG, kObj, to_bytes("x"),
                          /*sender_inclusive=*/true, /*rid=*/7);
  op.fwd_type = op.type;
  op.type = MsgType::kGroupOp;
  op.sender = client_id(0);
  probe.ask(w.server_ids[0], op);
  w.settle();
  ASSERT_EQ(probe.got.size(), 1u);
  EXPECT_EQ(probe.got[0].type, MsgType::kGroupOpResult);
  EXPECT_EQ(probe.got[0].sender, client_id(0));
  Result<Message> answer = Message::decode(probe.got[0].payload);
  ASSERT_TRUE(answer.is_ok());
  EXPECT_EQ(answer.value().type, MsgType::kReply);
  EXPECT_EQ(answer.value().status, Errc::kInvalidArgument);
  EXPECT_EQ(answer.value().request_id, 7u);
}

TEST(Replicated, ElectionSkipsDeadFirstServer) {
  // Coordinator AND first leaf crash simultaneously: the second leaf must
  // take over after its longer staged timeout (paper: "k+1 servers tolerate
  // k simultaneous crashes by using increasing timeouts").
  ReplicatedWorld w(4, 1);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);  // client on leaf 1
  w.settle();
  // Put the client's data on leaf 2's copy as well (backup should exist).
  w.run_ms(400);
  w.rt.crash(w.server_ids[0]);
  w.rt.crash(w.server_ids[1]);
  w.run_ms(10000);
  EXPECT_TRUE(w.leaf(2).is_coordinator());
  EXPECT_EQ(w.leaf(3).coordinator(), w.server_ids[2]);
}

TEST(Replicated, WrongfulClaimNackedByLiveCoordinator) {
  // Delay only the link between coordinator and leaf 1 long enough for leaf
  // 1 to suspect it; the claim is nacked because the coordinator is alive.
  ReplicatedWorld w(3, 0);
  // Make leaf1 <-> coordinator traffic very slow (but not cut).
  w.rt.network().set_latency(w.server_hosts[0], w.server_hosts[1],
                             1500 * kMillisecond);
  w.run_ms(8000);
  // Leaf 1 claimed at some point but was nacked; nobody usurped.
  EXPECT_TRUE(w.coordinator().is_coordinator());
  EXPECT_FALSE(w.leaf(1).is_coordinator());
  EXPECT_GE(w.leaf(1).stats().elections_started, 0u);
  EXPECT_EQ(w.leaf(1).stats().elections_won, 0u);
}

TEST(Replicated, LastSurvivorElectsItselfAfterCoordinatorCrash) {
  // Two servers total: when the coordinator dies, the surviving leaf can
  // collect no positive witness (there is nobody left to ack), yet it must
  // still win — the "alone" clause of the quorum rule.  Registry size stays
  // at 2 (self + the dead coordinator; nobody is left to prune it), so this
  // is exactly the self-election boundary.
  ReplicatedWorld w(2, 1);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("before;"));
  w.settle();

  w.rt.crash(w.server_ids[0]);
  w.run_ms(6000);
  EXPECT_TRUE(w.leaf(1).is_coordinator());
  EXPECT_GE(w.leaf(1).stats().elections_won, 1u);

  // Service resumes on the lone survivor, pre-crash state intact.
  w.client(0).bcast_update(kG, kObj, to_bytes("after;"));
  w.run_ms(2000);
  ASSERT_NE(w.client(0).group_state(kG), nullptr);
  EXPECT_EQ(to_string(*w.client(0).group_state(kG)->object(kObj)),
            "before;after;");
}

TEST(Replicated, SenderExclusiveMulticastSkipsOnlyOrigin) {
  // bcast_update(..., sender_inclusive=false): every member EXCEPT the
  // origin gets the delivery.  Pins the leaf fan-out filter in both
  // directions — the origin is skipped, and *only* the origin is skipped.
  SimRuntime rt;
  testing::DeliveryLog log;
  std::vector<NodeId> ids{server_id(0), server_id(1), server_id(2)};
  std::vector<std::unique_ptr<ReplicaServer>> servers;
  for (std::size_t i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<ReplicaServer>(ReplicaConfig{}, ids));
    rt.add_node(ids[i], servers[i].get(), rt.network().add_host(HostProfile{}));
  }
  std::vector<std::unique_ptr<CoronaClient>> clients;
  for (std::size_t i = 0; i < 2; ++i) {
    clients.push_back(std::make_unique<CoronaClient>(
        ids[1 + i], log.callbacks_for(client_id(i))));  // one client per leaf
    rt.add_node(client_id(i), clients.back().get(),
                rt.network().add_host(HostProfile{}));
  }
  rt.start();
  rt.run_for(500 * kMillisecond);
  clients[0]->create_group(kG, "g", true);
  rt.run_for(500 * kMillisecond);
  clients[0]->join(kG);
  clients[1]->join(kG);
  rt.run_for(500 * kMillisecond);

  clients[0]->bcast_update(kG, kObj, to_bytes("x"),
                           /*sender_inclusive=*/false);
  rt.run_for(500 * kMillisecond);

  EXPECT_EQ(log.seqs_for(client_id(0)).size(), 0u) << "origin self-delivered";
  EXPECT_EQ(log.seqs_for(client_id(1)).size(), 1u) << "other member skipped";
}

TEST(Replicated, BatchedSenderExclusiveMulticastSkipsOnlyOrigin) {
  // Same contract as above, but through the batched fan-out branch
  // (batch_max_msgs > 1), which carries its own copy of the origin filter
  // in leaf_apply_and_fanout.  A single sender-exclusive update rides the
  // delay-timer flush yet still takes the batched code path, so both
  // directions of the filter are pinned there too: the origin is skipped,
  // and only the origin is skipped.
  SimRuntime rt;
  testing::DeliveryLog log;
  ReplicaConfig cfg;
  cfg.batch_max_msgs = 4;
  cfg.batch_max_delay = 5 * kMillisecond;
  std::vector<NodeId> ids{server_id(0), server_id(1), server_id(2)};
  std::vector<std::unique_ptr<ReplicaServer>> servers;
  for (std::size_t i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<ReplicaServer>(cfg, ids));
    rt.add_node(ids[i], servers[i].get(), rt.network().add_host(HostProfile{}));
  }
  std::vector<std::unique_ptr<CoronaClient>> clients;
  for (std::size_t i = 0; i < 2; ++i) {
    clients.push_back(std::make_unique<CoronaClient>(
        ids[1 + i], log.callbacks_for(client_id(i))));  // one client per leaf
    rt.add_node(client_id(i), clients.back().get(),
                rt.network().add_host(HostProfile{}));
  }
  rt.start();
  rt.run_for(500 * kMillisecond);
  clients[0]->create_group(kG, "g", true);
  rt.run_for(500 * kMillisecond);
  clients[0]->join(kG);
  clients[1]->join(kG);
  rt.run_for(500 * kMillisecond);

  clients[0]->bcast_update(kG, kObj, to_bytes("x"),
                           /*sender_inclusive=*/false);
  rt.run_for(500 * kMillisecond);

  EXPECT_EQ(log.seqs_for(client_id(0)).size(), 0u) << "origin self-delivered";
  EXPECT_EQ(log.seqs_for(client_id(1)).size(), 1u) << "other member skipped";
}

TEST(Replicated, LeaveRacingGroupDeleteReportsNotMember) {
  // A leave that reaches the coordinator after the group was deleted must
  // come back as an explicit kNotMember reply (the one leave rule: a leave
  // of a missing group or by a non-member), not vanish.  The race is
  // driven deterministically over one leaf's FIFO links: the client issues
  // delete-then-leave back to back, so the leaf still hosts the group when
  // the leave arrives (the kGroupDeleted purge is still in flight) and
  // forwards it upstream; the coordinator has already dropped the group
  // and must answer with an error that the leaf relays to the client.
  std::vector<Status> replies;
  CoronaClient::Callbacks cb;
  cb.on_reply = [&](RequestId, Status s) { replies.push_back(s); };
  ReplicatedWorld w(3, 1, ReplicaConfig{}, cb);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.settle();
  w.client(0).delete_group(kG);
  w.client(0).leave(kG);
  w.settle();
  bool saw_not_member = false;
  for (const Status& s : replies) {
    if (s.code == Errc::kNotMember) saw_not_member = true;
  }
  EXPECT_TRUE(saw_not_member)
      << "leave after delete must surface kNotMember through the leaf";
}

TEST(Replicated, LeaveThroughALeafIsAcknowledged) {
  // The leaf answers a member's leave itself; the coordinator's result for
  // a successful leave is silent, so without the leaf's reply the client
  // would hear nothing back.
  std::vector<std::pair<RequestId, Status>> replies;
  CoronaClient::Callbacks cb;
  cb.on_reply = [&](RequestId rid, Status s) { replies.emplace_back(rid, s); };
  ReplicatedWorld w(3, 1, ReplicaConfig{}, cb);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.settle();
  const RequestId rid = w.client(0).leave(kG);
  w.settle();
  const bool acked = std::any_of(
      replies.begin(), replies.end(),
      [&](const auto& r) { return r.first == rid && r.second.is_ok(); });
  EXPECT_TRUE(acked) << "no ok reply to the leave";
}

TEST(Replicated, HotStandbyRetainedWithoutFreshBackupElection) {
  // When a group's last member on a leaf leaves and the copy count would
  // drop below min_copies, the coordinator keeps that leaf as the hot
  // standby directly (§4.1).  That retention is NOT a backup election: the
  // leaf already holds the current copy, so no assignment round runs and
  // the stats counter stays where the join left it.
  ReplicatedWorld w(3, 1);  // coordinator + 2 leaves; client on leaf 1
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("kept"));
  w.settle();
  // The join put one member-driven copy on leaf 1 and elected exactly one
  // backup to reach min_copies = 2.
  ASSERT_EQ(w.coordinator().stats().backups_assigned, 1u);

  w.client(0).leave(kG);
  w.settle();
  EXPECT_EQ(w.coordinator().stats().backups_assigned, 1u)
      << "hot-standby retention ran a redundant backup election";
  EXPECT_TRUE(w.leaf(1).holds_copy(kG));
  const auto holders = w.coordinator().coord_holders(kG);
  EXPECT_NE(std::find(holders.begin(), holders.end(), w.server_ids[1]),
            holders.end());
  EXPECT_GE(holders.size(), 2u);
}

// Sends bounded retransmit requests and records the seqs in the replies
// (and the status of any error reply).
class RangeProbe final : public Node {
 public:
  void on_message(NodeId, const Message& m) override {
    if (m.type == MsgType::kReply) refusals.push_back(m.status);
    if (m.type != MsgType::kStateReply) return;
    for (const UpdateRecord& u : m.updates) got.push_back(u.seq);
    ++replies;
  }
  void join(NodeId server, GroupId g) {
    send(server, make_join(g, TransferPolicySpec::nothing(),
                           MemberRole::kObserver, false, /*rid=*/1));
  }
  void query(NodeId server, GroupId g, SeqNo from, SeqNo to) {
    Message req;
    req.type = MsgType::kRetransmitReq;
    req.group = g;
    req.seq = from;
    req.seq2 = to;
    send(server, req);
  }
  std::vector<SeqNo> got;
  int replies = 0;
  std::vector<Errc> refusals;
};

TEST(Replicated, BoundedRetransmitRangeIsInclusive) {
  // A gap request asks for [seq, seq2] where seq2 is the out-of-order
  // record the requester dropped; the reply must include seq2 itself or
  // the requester is left one record short until unrelated traffic
  // re-triggers recovery.
  ReplicatedWorld w(2, 1);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.settle();
  for (int i = 0; i < 4; ++i) {
    w.client(0).bcast_update(kG, kObj, to_bytes("u"));
  }
  w.settle();

  RangeProbe probe;
  w.rt.add_node(NodeId{900}, &probe,
                w.rt.network().add_host(HostProfile{}));
  probe.join(w.server_ids[1], kG);  // the leaf serves only local members
  w.settle();
  probe.query(w.server_ids[1], kG, /*from=*/2, /*to=*/3);
  w.settle();
  ASSERT_EQ(probe.replies, 1);
  EXPECT_EQ(probe.got, (std::vector<SeqNo>{2, 3}));

  // seq2 == 0 means unbounded: the whole tail from `seq` on.
  probe.got.clear();
  probe.query(w.server_ids[1], kG, /*from=*/2, /*to=*/0);
  w.settle();
  ASSERT_EQ(probe.replies, 2);
  EXPECT_EQ(probe.got, (std::vector<SeqNo>{2, 3, 4}));
  EXPECT_TRUE(probe.refusals.empty());
}

TEST(Replicated, LeafRejectsBcastFromNonMember) {
  // The star's twin of ServerClient.BcastFromNonMemberRejected: a leaf
  // answers a multicast from a client that never joined with kNotMember
  // and forwards nothing to the coordinator.
  std::vector<Status> replies;
  CoronaClient::Callbacks cb;
  cb.on_reply = [&](RequestId, Status s) { replies.push_back(s); };
  ReplicatedWorld w(2, 1, ReplicaConfig{}, cb);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("x"));
  w.settle();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_TRUE(replies[0].is_ok());
  EXPECT_EQ(replies[1].code, Errc::kNotMember);
  EXPECT_EQ(w.servers[1]->stats().forwarded, 0u);
}

TEST(Replicated, CoordinatorBoundedRetransmitCarriesUpdates) {
  // The COORDINATOR's retransmit handler (coord_handle_state_query) is a
  // separate code path from the leaf handler the test above exercises: a
  // leaf recovering its own gap asks the coordinator directly, and the
  // coordinator only serves REGISTERED peer ids.  The reply must actually
  // carry the requested records, and the bound seq2 is inclusive — an
  // empty or one-short reply leaves the requester stuck until unrelated
  // traffic re-triggers recovery.
  ReplicatedWorld w(2, 1);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.settle();
  for (int i = 0; i < 4; ++i) {
    w.client(0).bcast_update(kG, kObj, to_bytes("u"));
  }
  w.settle();

  // Take over the leaf's node id with the probe so the request arrives
  // from a registered peer server, exactly as a recovering leaf's would.
  w.rt.crash(w.server_ids[1]);
  RangeProbe probe;
  w.rt.restart(w.server_ids[1], &probe);
  probe.query(w.server_ids[0], kG, /*from=*/2, /*to=*/3);
  w.settle();
  ASSERT_EQ(probe.replies, 1);
  EXPECT_EQ(probe.got, (std::vector<SeqNo>{2, 3}));

  // seq2 == 0 is unbounded: the whole tail from `seq` on.
  probe.got.clear();
  probe.query(w.server_ids[0], kG, /*from=*/2, /*to=*/0);
  w.settle();
  ASSERT_EQ(probe.replies, 2);
  EXPECT_EQ(probe.got, (std::vector<SeqNo>{2, 3, 4}));
}

// ---------------------------------------------------------------------------
// Partition + reconciliation (paper §4.2)
// ---------------------------------------------------------------------------

class PartitionFixture : public ::testing::Test {
 protected:
  // 5 servers: coordinator(0) + leaves 1..4.  Clients: 0 on leaf 1 (cell A),
  // 1 on leaf 3 (cell B).  Partition: {coord, leaf1, leaf2} | {leaf3, leaf4}.
  std::unique_ptr<ReplicatedWorld> w;

  void SetUp() override {
    ReplicaConfig cfg;
    w = std::make_unique<ReplicatedWorld>(5, 4, cfg);
    w->client(0).create_group(kG, "g", true);
    w->settle();
    // clients round-robin: c0->leaf1, c1->leaf2, c2->leaf3, c3->leaf4
    w->client(0).join(kG);
    w->client(2).join(kG);
    w->settle();
    w->client(0).bcast_update(kG, kObj, to_bytes("common;"));
    w->settle();
  }

  void partition() {
    // Cell 0: servers 0,1,2 + clients 0,1.  Cell 1: servers 3,4 + clients 2,3.
    for (std::size_t i : {3ul, 4ul}) {
      w->rt.network().set_partition_cell(w->server_ids[i], 1);
    }
    w->rt.network().set_partition_cell(client_id(2), 1);
    w->rt.network().set_partition_cell(client_id(3), 1);
  }

  void heal() { w->rt.network().heal_partitions(); }
};

TEST_F(PartitionFixture, BothSidesEvolveSeparately) {
  partition();
  // Side B elects its own coordinator (leaf 3 is first reachable in list).
  w->run_ms(12000);
  EXPECT_TRUE(w->coordinator().is_coordinator());
  EXPECT_TRUE(w->leaf(3).is_coordinator());

  // Both sides keep making progress on the same group.
  w->client(0).bcast_update(kG, kObj, to_bytes("A;"));
  w->client(2).bcast_update(kG, kObj, to_bytes("B;"));
  w->run_ms(2000);
  EXPECT_EQ(to_string(*w->client(0).group_state(kG)->object(kObj)),
            "common;A;");
  EXPECT_EQ(to_string(*w->client(2).group_state(kG)->object(kObj)),
            "common;B;");
}

TEST_F(PartitionFixture, ReconcileSelectPrimaryKeepsWinnerBranch) {
  partition();
  w->run_ms(12000);
  ASSERT_TRUE(w->leaf(3).is_coordinator());
  w->client(0).bcast_update(kG, kObj, to_bytes("A;"));
  w->client(2).bcast_update(kG, kObj, to_bytes("B;"));
  w->run_ms(2000);

  heal();
  w->coordinator().begin_reconcile(w->server_ids[3],
                                   PartitionPolicy::kSelectPrimary);
  w->run_ms(5000);

  // One coordinator remains (the initiator), the other demoted.
  EXPECT_TRUE(w->coordinator().is_coordinator());
  EXPECT_FALSE(w->leaf(3).is_coordinator());
  EXPECT_GE(w->coordinator().stats().reconciled_groups, 1u);
  // The authoritative state kept branch A; clients on both sides converged.
  const SharedState* coord_state = w->coordinator().coord_state(kG);
  ASSERT_NE(coord_state, nullptr);
  EXPECT_EQ(to_string(*coord_state->object(kObj)), "common;A;");
  ASSERT_NE(w->client(0).group_state(kG), nullptr);
  EXPECT_EQ(to_string(*w->client(0).group_state(kG)->object(kObj)),
            "common;A;");
  ASSERT_NE(w->client(2).group_state(kG), nullptr);
  EXPECT_EQ(to_string(*w->client(2).group_state(kG)->object(kObj)),
            "common;A;");
}

TEST_F(PartitionFixture, ReconcileRollbackDiscardsBothBranches) {
  partition();
  w->run_ms(12000);
  ASSERT_TRUE(w->leaf(3).is_coordinator());
  w->client(0).bcast_update(kG, kObj, to_bytes("A;"));
  w->client(2).bcast_update(kG, kObj, to_bytes("B;"));
  w->run_ms(2000);

  heal();
  w->coordinator().begin_reconcile(w->server_ids[3],
                                   PartitionPolicy::kRollback);
  w->run_ms(5000);
  const SharedState* coord_state = w->coordinator().coord_state(kG);
  ASSERT_NE(coord_state, nullptr);
  EXPECT_EQ(to_string(*coord_state->object(kObj)), "common;");
  EXPECT_EQ(to_string(*w->client(2).group_state(kG)->object(kObj)),
            "common;");
}

TEST_F(PartitionFixture, ReconcileEvolveSeparatelySplitsGroup) {
  partition();
  w->run_ms(12000);
  ASSERT_TRUE(w->leaf(3).is_coordinator());
  w->client(0).bcast_update(kG, kObj, to_bytes("A;"));
  w->client(2).bcast_update(kG, kObj, to_bytes("B;"));
  w->run_ms(2000);

  heal();
  w->coordinator().begin_reconcile(w->server_ids[3],
                                   PartitionPolicy::kEvolveSeparately);
  w->run_ms(5000);

  const GroupId split{kG.value + kSplitGroupIdOffset};
  const SharedState* original = w->coordinator().coord_state(kG);
  const SharedState* forked = w->coordinator().coord_state(split);
  ASSERT_NE(original, nullptr);
  ASSERT_NE(forked, nullptr);
  EXPECT_EQ(to_string(*original->object(kObj)), "common;A;");
  EXPECT_EQ(to_string(*forked->object(kObj)), "common;B;");
}

}  // namespace
}  // namespace corona
