// Fault-injection tests: selective message loss via the SimRuntime drop
// filter exercises the retransmission paths that a clean network never
// touches — client gap detection (§3's reliability guarantee), leaf-side
// gap fill in the replicated service, a lost gap fill on either role, and
// the IP-multicast delivery path.
#include <gtest/gtest.h>

#include <vector>

#include "harness.h"
#include "util/rng.h"

namespace corona {
namespace {

using testing::client_id;
using testing::kServerId;
using testing::ReplicatedWorld;
using testing::SingleServerWorld;

const GroupId kG{1};
const ObjectId kObj{1};

TEST(FaultInjection, ClientDetectsGapAndRetransmits) {
  SingleServerWorld w(2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();

  w.client(0).bcast_update(kG, kObj, to_bytes("one;"));
  w.settle();

  // Drop exactly one delivery to client 1.
  bool dropped_one = false;
  w.rt.set_drop_filter([&](NodeId, NodeId to, const Message& m) {
    if (!dropped_one && to == client_id(1) && m.type == MsgType::kDeliver) {
      dropped_one = true;
      return true;
    }
    return false;
  });
  w.client(0).bcast_update(kG, kObj, to_bytes("two;"));
  w.settle();
  w.rt.clear_drop_filter();
  ASSERT_TRUE(dropped_one);
  EXPECT_EQ(w.rt.dropped_by_filter(), 1u);

  // Client 1 is now one behind; the next delivery exposes the gap and the
  // retransmission protocol repairs it in order.
  w.client(0).bcast_update(kG, kObj, to_bytes("three;"));
  w.settle();
  const SharedState* st = w.client(1).group_state(kG);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(to_string(*st->object(kObj)), "one;two;three;");
  EXPECT_GE(w.client(1).gaps_detected(), 1u);
  EXPECT_GE(w.server->stats().retransmits_served, 1u);
}

TEST(FaultInjection, GapAcrossReducedHistoryReloadsSnapshot) {
  SingleServerWorld w(2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();

  // Lose a run of deliveries to client 1, then reduce the log past the gap.
  w.rt.set_drop_filter([&](NodeId, NodeId to, const Message& m) {
    return to == client_id(1) && m.type == MsgType::kDeliver;
  });
  for (int i = 0; i < 5; ++i) {
    w.client(0).bcast_update(kG, kObj, to_bytes("x"));
  }
  w.settle();
  w.rt.clear_drop_filter();
  w.client(0).reduce_log(kG);
  w.settle();

  w.client(0).bcast_update(kG, kObj, to_bytes("y"));
  w.settle();
  // The requested range was reduced away; the server ships the consolidated
  // snapshot instead and client 1 converges.
  const SharedState* st = w.client(1).group_state(kG);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(to_string(*st->object(kObj)), "xxxxxy");
}

TEST(FaultInjection, LeafGapFillInReplicatedService) {
  ReplicatedWorld w(3, 2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();

  // Drop one sequenced multicast from the coordinator to leaf 2.
  bool dropped_one = false;
  w.rt.set_drop_filter([&](NodeId, NodeId to, const Message& m) {
    if (!dropped_one && to == w.server_ids[2] &&
        m.type == MsgType::kSeqMulticast) {
      dropped_one = true;
      return true;
    }
    return false;
  });
  w.client(0).bcast_update(kG, kObj, to_bytes("a;"));
  w.settle();
  w.rt.clear_drop_filter();
  ASSERT_TRUE(dropped_one);

  // The next multicast exposes the leaf's gap; it refetches from the
  // coordinator and both the leaf copy and its client converge.
  w.client(0).bcast_update(kG, kObj, to_bytes("b;"));
  w.settle();
  const SharedState* leaf_copy = w.leaf(2).local_state(kG);
  ASSERT_NE(leaf_copy, nullptr);
  EXPECT_EQ(to_string(*leaf_copy->object(kObj)), "a;b;");
  const SharedState* st = w.client(1).group_state(kG);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(to_string(*st->object(kObj)), "a;b;");
}

// A gap fill lost in transit must not stall a copy: a record ahead that
// arrives GroupCopy::kFillRetry after the open ask asks again.
TEST(FaultInjection, ClientRecoversALostGapFill) {
  SingleServerWorld w(2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();

  // Lose the first delivery to client 1 and the gap fill it asks for.
  bool lost_deliver = false;
  bool lost_fill = false;
  w.rt.set_drop_filter([&](NodeId, NodeId to, const Message& m) {
    if (!(to == client_id(1))) return false;
    if (!lost_deliver && m.type == MsgType::kDeliver) {
      return lost_deliver = true;
    }
    if (!lost_fill && m.type == MsgType::kStateReply) return lost_fill = true;
    return false;
  });
  std::string expect;
  for (int i = 0; i < 7; ++i) {
    const std::string chunk = std::to_string(i) + ";";
    expect += chunk;
    w.client(0).bcast_update(kG, kObj, to_bytes(chunk));
    w.settle();
  }
  w.rt.run_for(10 * kSecond);
  ASSERT_TRUE(lost_deliver);
  ASSERT_TRUE(lost_fill);

  const SharedState* st = w.client(1).group_state(kG);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->head_seq(), 7u);
  ASSERT_TRUE(st->has_object(kObj));
  EXPECT_EQ(to_string(*st->object(kObj)), expect);
  EXPECT_EQ(w.client(1).expected_seq(kG), 8u);
}

TEST(FaultInjection, LeafRecoversALostGapFill) {
  ReplicatedWorld w(3, 2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();

  // Lose the first sequenced multicast to leaf 2 and the fill it asks for.
  bool lost_seq = false;
  bool lost_fill = false;
  w.rt.set_drop_filter([&](NodeId, NodeId to, const Message& m) {
    if (!(to == w.server_ids[2])) return false;
    if (!lost_seq && m.type == MsgType::kSeqMulticast) return lost_seq = true;
    if (!lost_fill && m.type == MsgType::kStateReply) return lost_fill = true;
    return false;
  });
  std::string expect;
  for (int i = 0; i < 6; ++i) {
    const std::string chunk = std::to_string(i) + ";";
    expect += chunk;
    w.client(0).bcast_update(kG, kObj, to_bytes(chunk));
    w.settle();
  }
  w.run_ms(10000);
  ASSERT_TRUE(lost_seq);
  ASSERT_TRUE(lost_fill);

  const SharedState* leaf_copy = w.leaf(2).local_state(kG);
  ASSERT_NE(leaf_copy, nullptr);
  EXPECT_EQ(leaf_copy->head_seq(), 6u);
  ASSERT_TRUE(leaf_copy->has_object(kObj));
  EXPECT_EQ(to_string(*leaf_copy->object(kObj)), expect);
  const SharedState* st = w.client(1).group_state(kG);
  ASSERT_NE(st, nullptr);
  ASSERT_TRUE(st->has_object(kObj));
  EXPECT_EQ(to_string(*st->object(kObj)), expect);
}

// A callback may call back into the client: a member that leaves from
// on_deliver while a gap fill is being applied erases the group's copy under
// the fill, which must stop there (ASan reads a freed copy otherwise).
TEST(FaultInjection, LeavingFromOnDeliverDuringAGapFillStopsTheFill) {
  SingleServerWorld w(2);
  CoronaClient& leaver = w.client(1);
  std::vector<SeqNo> delivered;
  CoronaClient::Callbacks cb;
  cb.on_deliver = [&](GroupId g, const UpdateRecord& rec) {
    delivered.push_back(rec.seq);
    if (rec.seq == 1) leaver.leave(g);
  };
  leaver.set_callbacks(cb);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  leaver.join(kG);
  w.settle();

  // Lose seq 1 to the leaver: seq 2 then asks for the fill of [1, 2].
  bool dropped = false;
  w.rt.set_drop_filter([&](NodeId, NodeId to, const Message& m) {
    if (!dropped && to == client_id(1) && m.type == MsgType::kDeliver) {
      return dropped = true;
    }
    return false;
  });
  w.client(0).bcast_update(kG, kObj, to_bytes("one;"));
  w.settle();
  w.rt.clear_drop_filter();
  w.client(0).bcast_update(kG, kObj, to_bytes("two;"));
  w.client(0).bcast_update(kG, kObj, to_bytes("three;"));
  w.settle();

  ASSERT_TRUE(dropped);
  EXPECT_FALSE(leaver.is_joined(kG));
  EXPECT_EQ(leaver.group_state(kG), nullptr);
  EXPECT_EQ(delivered, (std::vector<SeqNo>{1}));
}

TEST(FaultInjection, LossyLinkEventuallyConverges) {
  // 30% loss on every kDeliver to client 1: repeated gap repair still
  // reconstructs the exact stream.
  SingleServerWorld w(2);
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();

  Rng rng(42);
  w.rt.set_drop_filter([&](NodeId, NodeId to, const Message& m) {
    return to == client_id(1) && m.type == MsgType::kDeliver &&
           rng.next_bool(0.3);
  });
  std::string expect;
  for (int i = 0; i < 40; ++i) {
    const std::string chunk = std::to_string(i) + ";";
    expect += chunk;
    w.client(0).bcast_update(kG, kObj, to_bytes(chunk));
    if (i % 8 == 7) w.settle();
  }
  w.settle();
  w.rt.clear_drop_filter();
  // One clean delivery flushes any outstanding gap.
  w.client(0).bcast_update(kG, kObj, to_bytes("end;"));
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("fin;"));
  w.settle();

  const SharedState* st = w.client(1).group_state(kG);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(to_string(*st->object(kObj)), expect + "end;fin;");
}

TEST(FaultInjection, IpMulticastDeliversToAllMembers) {
  ServerConfig cfg;
  cfg.use_ip_multicast = true;
  SingleServerWorld w(4, std::move(cfg));
  w.client(0).create_group(kG, "g", true);
  w.settle();
  for (std::size_t i = 0; i < 4; ++i) w.client(i).join(kG);
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("mc"));
  w.settle();
  for (std::size_t i = 0; i < 4; ++i) {
    const SharedState* st = w.client(i).group_state(kG);
    ASSERT_NE(st, nullptr) << i;
    EXPECT_EQ(to_string(*st->object(kObj)), "mc") << i;
  }
  EXPECT_EQ(w.server->stats().deliveries_sent, 4u);
}

TEST(FaultInjection, IpMulticastRespectsSenderExclusive) {
  ServerConfig cfg;
  cfg.use_ip_multicast = true;
  SingleServerWorld w(2, std::move(cfg));
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("x"), /*sender_inclusive=*/false);
  w.settle();
  EXPECT_EQ(w.client(0).deliveries_received(), 0u);
  EXPECT_EQ(w.client(1).deliveries_received(), 1u);
}

TEST(FaultInjection, IpMulticastCheaperThanPointToPointAtServer) {
  // Identical workloads; the multicast server's host finishes earlier.
  auto run = [](bool mc) {
    ServerConfig cfg;
    cfg.use_ip_multicast = mc;
    SingleServerWorld w(20, std::move(cfg));
    w.client(0).create_group(kG, "g", true);
    w.settle();
    for (std::size_t i = 0; i < 20; ++i) {
      w.client(i).join(kG, TransferPolicySpec::nothing(),
                       MemberRole::kObserver, false);
    }
    w.settle();
    const TimePoint before = w.rt.now();
    w.client(0).bcast_update(kG, kObj, filler_bytes(1000));
    // Time until the highest-id member applies it.
    while (w.client(19).deliveries_received() == 0) {
      w.rt.run_for(1 * kMillisecond);
    }
    return w.rt.now() - before;
  };
  const Duration p2p = run(false);
  const Duration mcast = run(true);
  EXPECT_LT(mcast, p2p / 2);
}

TEST(FaultInjection, HealthyDonorNeverTripsTheFailurePath) {
  // Peer-transfer joins lean on failure detection: a donor that answers
  // kOk with its replica must complete the join on the fast path — zero
  // timeouts, exactly one transfer.  Misreading a healthy donor's reply as
  // a failure (or a donor misreading its own replica) silently degrades
  // every join to the timeout path.
  ServerConfig cfg;
  cfg.join_transfer = JoinTransferMode::kPeer;
  cfg.peer_timeout = 500 * kMillisecond;
  SingleServerWorld w(2, std::move(cfg));
  w.client(0).create_group(kG, "g", true);
  w.settle();
  w.client(0).join(kG);  // first member: no donor available, service serves
  w.settle();
  w.client(0).bcast_update(kG, kObj, to_bytes("donor-copy"));
  w.settle();

  w.client(1).join(kG);  // must be served by client 0's replica
  w.rt.run_for(2 * kSecond);
  ASSERT_TRUE(w.client(1).is_joined(kG));
  EXPECT_EQ(to_string(*w.client(1).group_state(kG)->object(kObj)),
            "donor-copy");
  EXPECT_EQ(w.server->stats().peer_transfers, 1u);
  EXPECT_EQ(w.server->stats().peer_timeouts, 0u);
}

}  // namespace
}  // namespace corona
