// The client front end (core/state_transfer.*), the group authority
// (core/authority.*) and request authorization on both topologies: each
// behaviour is one typed test, run against the single server and through a
// leaf of the replicated star, so the two roles cannot drift apart again.
// Star-only cases close the file.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <tuple>

#include "core/session_manager.h"
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

// What one client hears back from its server.
struct Heard {
  std::map<RequestId, Status> replies;  // kReply, and kLogReduced as ok
  std::vector<Status> joins;
  int grants = 0;
  std::vector<NodeId> members;  // of the last kMembershipInfo

  CoronaClient::Callbacks callbacks() {
    CoronaClient::Callbacks cb;
    cb.on_reply = [this](RequestId rid, Status s) { replies[rid] = s; };
    cb.on_joined = [this](GroupId, Status s) { joins.push_back(s); };
    cb.on_lock_granted = [this](GroupId, ObjectId) { ++grants; };
    cb.on_membership_info = [this](GroupId,
                                   const std::vector<MemberInfo>& list) {
      members.clear();
      for (const MemberInfo& mi : list) members.push_back(mi.node);
    };
    return cb;
  }
  // The answer to request `rid`, if one came.
  std::optional<Errc> answer(RequestId rid) const {
    auto it = replies.find(rid);
    if (it == replies.end()) return std::nullopt;
    return it->second.code;
  }
};

}  // namespace

// The topologies live outside the anonymous namespace, so that ctest names
// each typed test after its topology: FrontEnd.<test><corona::SingleServer>.

struct Options {
  CoronaClient::Callbacks cb = {};  // every client's callbacks
  SessionManager* session = nullptr;  // every server's; nullptr allows all
  // The single server's client liveness timeout (0: off).  The star learns
  // of lost members from the crash of their leaf instead.
  Duration client_timeout = 0;
};

// Two clients on one CoronaServer.
struct SingleServer {
  static constexpr bool kStar = false;
  testing::SingleServerWorld w;

  explicit SingleServer(Options o = {})
      : w(2, config(o), std::move(o.cb), o.session) {}
  static ServerConfig config(const Options& o) {
    ServerConfig c;
    c.client_timeout = o.client_timeout;
    return c;
  }
  // The server client `i` talks to, and its copy of the group.
  NodeId front(std::size_t) const { return testing::kServerId; }
  Node& front_node(std::size_t) { return *w.server; }
  const SharedState* front_state(std::size_t) { return authority(); }
  // The copy that sequences the group.
  const SharedState* authority() {
    const Group* g = w.server->group(kG);
    return g != nullptr ? &g->state() : nullptr;
  }
  // Loses client `i` with its connection: the client crashes.
  void lose(std::size_t i) { w.rt.crash(client_id(i)); }
};

// The star: a coordinator and two leaves; client 0 joins through leaf 1,
// client 1 through leaf 2.
struct ThroughALeaf {
  static constexpr bool kStar = true;
  testing::ReplicatedWorld w;

  explicit ThroughALeaf(Options o = {})
      : w(3, 2, ReplicaConfig{}, std::move(o.cb), o.session) {}
  NodeId front(std::size_t i) const { return w.server_ids[1 + i]; }
  Node& front_node(std::size_t i) { return w.leaf(1 + i); }
  const SharedState* front_state(std::size_t i) {
    return w.leaf(1 + i).local_state(kG);
  }
  const SharedState* authority() { return w.coordinator().coord_state(kG); }
  // Loses client `i` with its connection: its leaf crashes.
  void lose(std::size_t i) { w.rt.crash(front(i)); }
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
  TypeParam t({.cb = cb});
  join_both(t);
  t.w.client(1).delete_group(kG);
  t.w.settle();
  EXPECT_EQ(t.authority(), nullptr);
  EXPECT_EQ(deleted_seen, 2);
  EXPECT_FALSE(t.w.client(0).is_joined(kG));
  EXPECT_FALSE(t.w.client(1).is_joined(kG));
}

TYPED_TEST(FrontEnd, GapFillFromSeqZeroGetsEveryRecord) {
  // Seq 0 asks for the whole history: on a group never reduced, a member's
  // gap fill from 0 gets every record, as one from seq 1 does; one from
  // seq 2 starts at record 2.
  TypeParam t;
  join_both(t);
  Probe probe;
  add_probe(t, probe);
  join_probe(t, probe);
  for (int i = 0; i < 3; ++i) {
    t.w.client(0).bcast_update(kG, kObj, to_bytes("a"));
  }
  t.w.settle();

  probe.got.clear();
  probe.ask(t.front(0), gap_fill_request(0));
  probe.ask(t.front(0), gap_fill_request(1));
  probe.ask(t.front(0), gap_fill_request(2));
  t.w.settle();
  const std::vector<Message> replies = probe.state_replies();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(seqs(replies[0].updates), (std::vector<SeqNo>{1, 2, 3}));
  EXPECT_EQ(seqs(replies[1].updates), (std::vector<SeqNo>{1, 2, 3}));
  EXPECT_EQ(seqs(replies[2].updates), (std::vector<SeqNo>{2, 3}));
}

TYPED_TEST(FrontEnd, CreateTwiceAndDeleteTwice) {
  // A second create of a live group is kAlreadyExists; a delete of a group
  // that is gone is kNotFound.
  Heard heard;
  TypeParam t({.cb = heard.callbacks()});
  const RequestId first = t.w.client(0).create_group(kG, "g", true);
  t.w.settle();
  const RequestId again = t.w.client(0).create_group(kG, "g", true);
  t.w.settle();
  EXPECT_EQ(heard.answer(first), Errc::kOk);
  EXPECT_EQ(heard.answer(again), Errc::kAlreadyExists);
  ASSERT_NE(t.authority(), nullptr);

  const RequestId del = t.w.client(0).delete_group(kG);
  t.w.settle();
  const RequestId del_again = t.w.client(0).delete_group(kG);
  t.w.settle();
  EXPECT_EQ(heard.answer(del), Errc::kOk);
  EXPECT_EQ(heard.answer(del_again), Errc::kNotFound);
  EXPECT_EQ(t.authority(), nullptr);
}

TYPED_TEST(FrontEnd, LeaveByANonMemberIsRefused) {
  // Leaving a group one never joined, or one that does not exist, is
  // kNotMember; the group and its members are untouched.
  Heard member;
  Heard stranger;
  TypeParam t;
  t.w.client(0).set_callbacks(member.callbacks());
  t.w.client(1).set_callbacks(stranger.callbacks());
  t.w.client(0).create_group(kG, "g", /*persistent=*/false);
  t.w.settle();
  t.w.client(0).join(kG);
  t.w.settle();
  const RequestId outside = t.w.client(1).leave(kG);
  const RequestId missing = t.w.client(1).leave(GroupId{9});
  t.w.settle();
  EXPECT_EQ(stranger.answer(outside), Errc::kNotMember);
  EXPECT_EQ(stranger.answer(missing), Errc::kNotMember);
  ASSERT_NE(t.authority(), nullptr);

  // The only member's leave ends the transient group.
  const RequestId left = t.w.client(0).leave(kG);
  t.w.settle();
  EXPECT_EQ(member.answer(left), Errc::kOk);
  EXPECT_EQ(t.authority(), nullptr);
}

TYPED_TEST(FrontEnd, LockQueuesAndPassesToTheWaiterWhenTheHolderLeaves) {
  // The first lock request is granted; the second is queued (kLockHeld);
  // the holder's leave releases the lock to the waiter.
  Heard holder;
  Heard waiter;
  TypeParam t;
  t.w.client(0).set_callbacks(holder.callbacks());
  t.w.client(1).set_callbacks(waiter.callbacks());
  join_both(t);
  t.w.client(0).lock(kG, kObj);
  t.w.settle();
  EXPECT_EQ(holder.grants, 1);
  const RequestId queued = t.w.client(1).lock(kG, kObj);
  t.w.settle();
  EXPECT_EQ(waiter.answer(queued), Errc::kLockHeld);
  EXPECT_EQ(waiter.grants, 0);

  t.w.client(0).leave(kG);
  t.w.settle();
  EXPECT_EQ(waiter.grants, 1);
  EXPECT_EQ(holder.grants, 1);
}

TYPED_TEST(FrontEnd, UnlockPassesTheLockOn) {
  // The holder's unlock is acknowledged and grants the lock to the waiter;
  // a stranger's unlock of a missing group is kNotFound.
  Heard holder;
  Heard waiter;
  TypeParam t;
  t.w.client(0).set_callbacks(holder.callbacks());
  t.w.client(1).set_callbacks(waiter.callbacks());
  join_both(t);
  t.w.client(0).lock(kG, kObj);
  t.w.settle();
  t.w.client(1).lock(kG, kObj);
  t.w.settle();
  ASSERT_EQ(holder.grants, 1);
  ASSERT_EQ(waiter.grants, 0);

  const RequestId unlock = t.w.client(0).unlock(kG, kObj);
  const RequestId missing = t.w.client(0).unlock(GroupId{9}, kObj);
  t.w.settle();
  EXPECT_EQ(holder.answer(unlock), Errc::kOk);
  EXPECT_EQ(holder.answer(missing), Errc::kNotFound);
  EXPECT_EQ(waiter.grants, 1);
}

TYPED_TEST(FrontEnd, ReduceLogWithAndWithoutTheGroup) {
  // A reduce-log of a live group trims the authority's history and every
  // copy's, and is answered ok; one of a group that does not exist is
  // kNotFound through a leaf as on the single server.
  Heard heard;
  TypeParam t({.cb = heard.callbacks()});
  join_both(t);
  for (int i = 0; i < 4; ++i) {
    t.w.client(0).bcast_update(kG, kObj, to_bytes("a"));
  }
  t.w.settle();
  const RequestId reduce = t.w.client(0).reduce_log(kG);
  const RequestId missing = t.w.client(0).reduce_log(GroupId{9});
  t.w.settle();
  EXPECT_EQ(heard.answer(reduce), Errc::kOk);
  EXPECT_EQ(heard.answer(missing), Errc::kNotFound);
  ASSERT_NE(t.authority(), nullptr);
  EXPECT_EQ(t.authority()->base_seq(), 4u);
  EXPECT_EQ(t.front_state(1)->base_seq(), 4u);
  EXPECT_EQ(to_string(*t.authority()->object(kObj)), "aaaa");
}

TYPED_TEST(FrontEnd, MembershipQueryListsEveryMember) {
  Heard heard;
  TypeParam t({.cb = heard.callbacks()});
  join_both(t);
  const RequestId missing = t.w.client(0).get_membership(GroupId{9});
  t.w.client(1).get_membership(kG);
  t.w.settle();
  EXPECT_EQ(heard.answer(missing), Errc::kNotFound);
  EXPECT_EQ(heard.members, (std::vector<NodeId>{client_id(0), client_id(1)}));
}

TYPED_TEST(FrontEnd, ALeaveNoticeNamesTheLeaversRole) {
  // A member subscribed to membership notices hears each join and leave
  // with the role of the member it names: an observer that joined as an
  // observer leaves as one.
  using Notice = std::tuple<NodeId, MemberRole, bool>;
  std::vector<Notice> notices;
  TypeParam t;
  CoronaClient::Callbacks cb;
  cb.on_membership_change = [&notices](GroupId, NodeId who, MemberRole role,
                                       bool joined) {
    notices.emplace_back(who, role, joined);
  };
  t.w.client(0).set_callbacks(std::move(cb));
  t.w.client(0).create_group(kG, "g", /*persistent=*/true);
  t.w.settle();
  t.w.client(0).join(kG);
  t.w.settle();
  t.w.client(1).join(kG, TransferPolicySpec::full(), MemberRole::kObserver,
                     /*notify_membership=*/false);
  t.w.settle();
  t.w.client(1).leave(kG);
  t.w.settle();
  EXPECT_EQ(notices,
            (std::vector<Notice>{
                {client_id(1), MemberRole::kObserver, /*joined=*/true},
                {client_id(1), MemberRole::kObserver, /*joined=*/false}}));
}

TYPED_TEST(FrontEnd, TransientGroupEndsWhenItsOnlyMemberIsLost) {
  // A member lost with its connection leaves every group, and a transient
  // group it was the only member of ends.  The single server learns of the
  // loss from its liveness sweep, the star's coordinator from the crash of
  // the member's leaf.
  TypeParam t({.client_timeout = 1 * kSecond});
  t.w.client(0).create_group(kG, "g", /*persistent=*/false);
  t.w.settle();
  t.w.client(0).join(kG);
  t.w.settle();
  ASSERT_NE(t.authority(), nullptr);
  t.lose(0);
  t.w.rt.run_for(5 * kSecond);
  EXPECT_EQ(t.authority(), nullptr);
}

TYPED_TEST(FrontEnd, SessionManagerRefusesTheSameRequestsOnBothTopologies) {
  // The session manager is asked where the client is connected, before a
  // request is served or forwarded.  Client 1 may do nothing: its create,
  // join, multicast and reduce-log are each refused with kPermissionDenied
  // (the join by a kJoinReply), and none of them changes anything.
  AclSessionManager acl;
  acl.allow_all_actions(client_id(0), GroupId{AclSessionManager::kAnyGroup});
  Heard owner;
  Heard refused;
  TypeParam t({.session = &acl});
  t.w.client(0).set_callbacks(owner.callbacks());
  t.w.client(1).set_callbacks(refused.callbacks());
  t.w.client(0).create_group(kG, "g", /*persistent=*/true);
  t.w.settle();
  t.w.client(0).join(kG);
  t.w.settle();
  t.w.client(0).bcast_update(kG, kObj, to_bytes("a"));
  t.w.settle();
  ASSERT_EQ(owner.joins.size(), 1u);
  ASSERT_TRUE(owner.joins[0].is_ok());

  const RequestId create =
      t.w.client(1).create_group(GroupId{9}, "nope", false);
  t.w.client(1).join(kG);
  const RequestId publish = t.w.client(1).bcast_update(kG, kObj,
                                                        to_bytes("x"));
  const RequestId reduce = t.w.client(1).reduce_log(kG);
  t.w.settle();
  EXPECT_EQ(refused.answer(create), Errc::kPermissionDenied);
  EXPECT_EQ(refused.answer(publish), Errc::kPermissionDenied);
  EXPECT_EQ(refused.answer(reduce), Errc::kPermissionDenied);
  ASSERT_EQ(refused.joins.size(), 1u);
  EXPECT_EQ(refused.joins[0].code, Errc::kPermissionDenied);
  EXPECT_FALSE(t.w.client(1).is_joined(kG));

  const SharedState* authority = t.authority();
  ASSERT_NE(authority, nullptr);
  EXPECT_EQ(authority->head_seq(), 1u);
  EXPECT_EQ(authority->base_seq(), 0u);
  EXPECT_EQ(to_string(*authority->object(kObj)), "a");
  if constexpr (TypeParam::kStar) {
    EXPECT_EQ(t.w.coordinator().coord_group_count(), 1u);
  } else {
    EXPECT_EQ(t.w.server->group_count(), 1u);
  }
}

TEST(FrontEndStar, ALeafWithoutACopyAsksTheCoordinatorForMembers) {
  // Leaf 3 supports no member of the group and holds no copy of it, so it
  // forwards a membership query to the coordinator, which answers from its
  // group as the single server would.
  testing::ReplicatedWorld w(4, 3);
  Heard heard;
  w.client(2).set_callbacks(heard.callbacks());
  w.client(0).create_group(kG, "g", /*persistent=*/true);
  w.settle();
  w.client(0).join(kG);
  w.client(1).join(kG);
  w.settle();
  ASSERT_FALSE(w.leaf(3).holds_copy(kG));
  const RequestId asked = w.client(2).get_membership(kG);
  w.settle();
  EXPECT_EQ(heard.answer(asked), std::nullopt);  // no kReply
  EXPECT_EQ(heard.members, (std::vector<NodeId>{client_id(0), client_id(1)}));
}

TEST(FrontEndStar, ALeafDropsARelayedAnswerThatDoesNotDecode) {
  // A kGroupOpResult carries the client's finished message; the leaf only
  // decodes and forwards it.  Bytes that do not decode are input from
  // outside the process and reach no client.
  testing::ReplicatedWorld w(2, 1);
  Heard heard;
  w.client(0).set_callbacks(heard.callbacks());
  Probe probe;
  w.rt.add_node(NodeId{900}, &probe, w.rt.network().add_host(HostProfile{}));
  Message relay;
  relay.type = MsgType::kGroupOpResult;
  relay.sender = client_id(0);
  relay.payload = to_bytes("not a message");
  probe.ask(w.server_ids[1], relay);
  w.settle();
  EXPECT_TRUE(heard.replies.empty());

  relay.payload = make_reply(Status::error(Errc::kLockHeld), 7).encode();
  probe.ask(w.server_ids[1], relay);
  w.settle();
  EXPECT_EQ(heard.answer(7), Errc::kLockHeld);
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
