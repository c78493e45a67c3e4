// The client front end (core/state_transfer.*) on both topologies: each
// behaviour is one typed test, run against the single server and through a
// leaf of the replicated star, so the two roles cannot drift apart again.
// The coordinator's answer to a peer server closes the file.
#include <gtest/gtest.h>

#include "harness.h"

namespace corona {
namespace {

using testing::client_id;

const GroupId kG{1};
const ObjectId kObj{1};

// A raw protocol endpoint that records every message it receives.
class Probe final : public Node {
 public:
  void on_message(NodeId, const Message& m) override { got.push_back(m); }
  void ask(NodeId to, const Message& m) { send(to, m); }
  // The kStateReply answers received so far, in arrival order.
  std::vector<Message> state_replies() const {
    std::vector<Message> out;
    for (const Message& m : got) {
      if (m.type == MsgType::kStateReply) out.push_back(m);
    }
    return out;
  }
  std::vector<Message> got;
};

// Asks for the records from `from` up to the head (seq2 0).
Message gap_fill_request(SeqNo from) {
  Message req;
  req.type = MsgType::kRetransmitReq;
  req.group = kG;
  req.seq = from;
  return req;
}

std::vector<SeqNo> seqs(const std::vector<UpdateRecord>& records) {
  std::vector<SeqNo> out;
  for (const UpdateRecord& u : records) out.push_back(u.seq);
  return out;
}

}  // namespace

// The topologies live outside the anonymous namespace, so that ctest names
// each typed test after its topology: FrontEnd.<test><corona::SingleServer>.

// Two clients on one CoronaServer.
struct SingleServer {
  static constexpr bool kStar = false;
  testing::SingleServerWorld w;

  explicit SingleServer(CoronaClient::Callbacks cb = {})
      : w(2, ServerConfig{}, std::move(cb)) {}
  // The server client `i` talks to, and its copy of the group.
  NodeId front(std::size_t) const { return testing::kServerId; }
  Node& front_node(std::size_t) { return *w.server; }
  const SharedState* front_state(std::size_t) { return authority(); }
  // The copy that sequences the group.
  const SharedState* authority() {
    const Group* g = w.server->group(kG);
    return g != nullptr ? &g->state() : nullptr;
  }
};

// The star: a coordinator and two leaves; client 0 joins through leaf 1,
// client 1 through leaf 2.
struct ThroughALeaf {
  static constexpr bool kStar = true;
  testing::ReplicatedWorld w;

  explicit ThroughALeaf(CoronaClient::Callbacks cb = {})
      : w(3, 2, ReplicaConfig{}, std::move(cb)) {}
  NodeId front(std::size_t i) const { return w.server_ids[1 + i]; }
  Node& front_node(std::size_t i) { return w.leaf(1 + i); }
  const SharedState* front_state(std::size_t i) {
    return w.leaf(1 + i).local_state(kG);
  }
  const SharedState* authority() { return w.coordinator().coord_state(kG); }
};

namespace {

template <class T>
class FrontEnd : public ::testing::Test {};
using Topologies = ::testing::Types<SingleServer, ThroughALeaf>;
TYPED_TEST_SUITE(FrontEnd, Topologies);

// Client 0 creates a persistent group; both clients join it.
template <class T>
void join_both(T& t) {
  t.w.client(0).create_group(kG, "g", /*persistent=*/true);
  t.w.settle();
  t.w.client(0).join(kG);
  t.w.client(1).join(kG);
  t.w.settle();
}

// Adds the probe on a host of its own.
template <class T>
void add_probe(T& t, Probe& probe) {
  t.w.rt.add_node(NodeId{900}, &probe,
                  t.w.rt.network().add_host(HostProfile{}));
}

// Joins the probe through client 0's server.
template <class T>
void join_probe(T& t, Probe& probe) {
  probe.ask(t.front(0), make_join(kG, TransferPolicySpec::nothing(),
                                  MemberRole::kObserver, false, /*rid=*/1));
  t.w.settle();
}

TYPED_TEST(FrontEnd, GapFillFromTheBaseGetsTheHeadSnapshotAfterItRecords) {
  // Log reduction folds records 1..5 into the base snapshot.  A gap fill
  // that starts at the base (seq 5) can no longer be served as records, so
  // the member gets the member resync: the consolidated state at the head.
  // One that starts right after the base (seq 6) asks only for records the
  // history still holds, and gets records 6..8.
  TypeParam t;
  join_both(t);
  Probe probe;
  add_probe(t, probe);
  join_probe(t, probe);
  for (int i = 0; i < 5; ++i) {
    t.w.client(0).bcast_update(kG, kObj, to_bytes("a"));
  }
  t.w.settle();
  t.w.client(0).reduce_log(kG);
  t.w.settle();
  for (int i = 0; i < 3; ++i) {
    t.w.client(0).bcast_update(kG, kObj, to_bytes("b"));
  }
  t.w.settle();
  const SharedState* st = t.front_state(0);
  ASSERT_NE(st, nullptr);
  ASSERT_EQ(st->base_seq(), 5u);
  ASSERT_EQ(st->history_size(), 3u);
  // Clients do not trim their replica on kLogReduced.
  ASSERT_EQ(t.w.client(0).group_state(kG)->history_size(), 8u);

  probe.got.clear();
  probe.ask(t.front(0), gap_fill_request(5));
  probe.ask(t.front(0), gap_fill_request(6));
  t.w.settle();
  const std::vector<Message> replies = probe.state_replies();
  ASSERT_EQ(replies.size(), 2u);

  const Message& resync = replies[0];
  EXPECT_EQ(resync.seq, 8u);
  ASSERT_EQ(resync.state.size(), 1u);
  EXPECT_EQ(to_string(resync.state[0].data), "aaaaabbb");
  EXPECT_TRUE(resync.updates.empty());

  const Message& records = replies[1];
  EXPECT_TRUE(records.state.empty());
  EXPECT_EQ(records.seq, 5u);
  EXPECT_EQ(seqs(records.updates), (std::vector<SeqNo>{6, 7, 8}));
}

TYPED_TEST(FrontEnd, GapFillsServeMembersOnly) {
  // A gap fill ships group state, so only a member may ask for one: anyone
  // else learns kNotMember and sees no records, while the same node's gap
  // fill is served once it has joined.
  TypeParam t;
  join_both(t);
  t.w.client(0).bcast_update(kG, kObj, to_bytes("secret"));
  t.w.settle();

  Probe probe;
  add_probe(t, probe);
  probe.ask(t.front(0), gap_fill_request(1));
  t.w.settle();
  ASSERT_EQ(probe.got.size(), 1u);
  EXPECT_EQ(probe.got[0].type, MsgType::kReply);
  EXPECT_EQ(probe.got[0].status, Errc::kNotMember);
  if constexpr (!TypeParam::kStar) {
    EXPECT_EQ(t.w.server->stats().retransmits_served, 0u);
  }

  join_probe(t, probe);
  probe.got.clear();
  probe.ask(t.front(0), gap_fill_request(1));
  t.w.settle();
  const std::vector<Message> replies = probe.state_replies();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(seqs(replies[0].updates), (std::vector<SeqNo>{1}));
  if constexpr (!TypeParam::kStar) {
    EXPECT_EQ(t.w.server->stats().retransmits_served, 1u);
  }
}

TYPED_TEST(FrontEnd, ForgedResendIsDropped) {
  // A client resends only its own multicasts (CoronaClient::remember_send
  // stamps sender = id()).  A resent record that names another member as
  // its sender is forged and must not be sequenced under that name; the
  // resender's own records still are.
  TypeParam t;
  join_both(t);
  t.w.client(0).bcast_update(kG, kObj, to_bytes("real;"));
  t.w.settle();

  UpdateRecord forged;
  forged.kind = PayloadKind::kUpdate;
  forged.object = kObj;
  forged.data = to_bytes("forged;");
  forged.sender = client_id(0);  // not the resending client
  forged.request_id = 999;
  UpdateRecord own = forged;
  own.data = to_bytes("own;");
  own.sender = client_id(1);
  own.request_id = 998;
  Message resend;
  resend.type = MsgType::kResendReply;
  resend.group = kG;
  resend.updates = {forged, own};
  t.front_node(1).on_message(client_id(1), resend);
  t.w.settle();

  const SharedState* authority = t.authority();
  ASSERT_NE(authority, nullptr);
  EXPECT_EQ(to_string(*authority->object(kObj)), "real;own;");
  int own_sequenced = 0;
  for (const UpdateRecord& u : authority->history()) {
    EXPECT_FALSE(u.sender == client_id(0) && u.request_id == 999);
    if (u.sender == client_id(1) && u.request_id == 998) ++own_sequenced;
  }
  EXPECT_EQ(own_sequenced, 1);
  EXPECT_EQ(to_string(*t.w.client(0).group_state(kG)->object(kObj)),
            "real;own;");
  if constexpr (!TypeParam::kStar) {
    EXPECT_EQ(t.w.server->stats().resends_applied, 1u);
    EXPECT_FALSE(t.w.server->group(kG)->was_seen(client_id(0), 999));
  }
}

TYPED_TEST(FrontEnd, DeleteReachesEveryMemberTheDeleterIncluded) {
  // "The shared state of a deleted group is lost": every member hears of
  // the delete, the requester too, so no member keeps a replica of it.
  int deleted_seen = 0;
  CoronaClient::Callbacks cb;
  cb.on_group_deleted = [&](GroupId) { ++deleted_seen; };
  TypeParam t(cb);
  join_both(t);
  t.w.client(1).delete_group(kG);
  t.w.settle();
  EXPECT_EQ(t.authority(), nullptr);
  EXPECT_EQ(deleted_seen, 2);
  EXPECT_FALSE(t.w.client(0).is_joined(kG));
  EXPECT_FALSE(t.w.client(1).is_joined(kG));
}

TEST(FrontEndStar, CoordinatorGapFillForAPeerServer) {
  // A leaf recovering its own gap asks the coordinator.  Past the base it
  // gets records; from the base on the range was reduced away, and a leaf
  // copy must keep a history to serve last-n joins, so it gets the full
  // copy: metadata, the base snapshot, the retained history and members.
  testing::ReplicatedWorld w(2, 1);
  w.client(0).create_group(kG, "g", /*persistent=*/true);
  w.settle();
  w.client(0).join(kG);
  w.settle();
  for (int i = 0; i < 5; ++i) {
    w.client(0).bcast_update(kG, kObj, to_bytes("a"));
  }
  w.settle();
  w.client(0).reduce_log(kG);
  w.settle();
  for (int i = 0; i < 3; ++i) {
    w.client(0).bcast_update(kG, kObj, to_bytes("b"));
  }
  w.settle();

  // Take over the leaf's node id so the requests come from a registered
  // peer server, exactly as a recovering leaf's would.
  w.rt.crash(w.server_ids[1]);
  Probe probe;
  w.rt.restart(w.server_ids[1], &probe);
  probe.ask(w.server_ids[0], gap_fill_request(5));
  probe.ask(w.server_ids[0], gap_fill_request(6));
  w.settle();
  const std::vector<Message> replies = probe.state_replies();
  ASSERT_EQ(replies.size(), 2u);

  const Message& copy = replies[0];
  EXPECT_EQ(copy.seq, 5u);
  EXPECT_EQ(copy.text, "g");
  EXPECT_TRUE(copy.persistent);
  ASSERT_EQ(copy.state.size(), 1u);
  EXPECT_EQ(to_string(copy.state[0].data), "aaaaa");
  EXPECT_EQ(seqs(copy.updates), (std::vector<SeqNo>{6, 7, 8}));
  ASSERT_EQ(copy.members.size(), 1u);
  EXPECT_EQ(copy.members[0].node, client_id(0));

  const Message& records = replies[1];
  EXPECT_TRUE(records.state.empty());
  EXPECT_EQ(seqs(records.updates), (std::vector<SeqNo>{6, 7, 8}));
}

}  // namespace
}  // namespace corona
