#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "serial/decoder.h"
#include "serial/encoder.h"
#include "serial/message.h"
#include "util/rng.h"

namespace corona {
namespace {

TEST(Codec, PrimitivesRoundTrip) {
  Encoder e;
  e.put_u8(0xab);
  e.put_bool(true);
  e.put_u32(1234567);
  e.put_u64(0xdeadbeefcafebabeull);
  e.put_i64(-987654321);
  e.put_string("corona");
  e.put_bytes(filler_bytes(33));

  Decoder d(e.buffer());
  EXPECT_EQ(d.get_u8(), 0xab);
  EXPECT_TRUE(d.get_bool());
  EXPECT_EQ(d.get_u32(), 1234567u);
  EXPECT_EQ(d.get_u64(), 0xdeadbeefcafebabeull);
  EXPECT_EQ(d.get_i64(), -987654321);
  EXPECT_EQ(d.get_string(), "corona");
  EXPECT_EQ(d.get_bytes(), filler_bytes(33));
  EXPECT_TRUE(d.ok());
  EXPECT_TRUE(d.at_end());
}

TEST(Codec, VarintBoundaries) {
  for (std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull, (1ull << 32),
        ~0ull}) {
    Encoder e;
    e.put_u64(v);
    Decoder d(e.buffer());
    EXPECT_EQ(d.get_u64(), v);
    EXPECT_TRUE(d.ok());
  }
}

TEST(Codec, SignedZigzag) {
  for (std::int64_t v : std::initializer_list<std::int64_t>{
           0, -1, 1, INT64_MIN, INT64_MAX, -123456789}) {
    Encoder e;
    e.put_i64(v);
    Decoder d(e.buffer());
    EXPECT_EQ(d.get_i64(), v);
  }
}

TEST(Codec, TruncatedBufferTripsOkFlag) {
  Encoder e;
  e.put_bytes(filler_bytes(100));
  Bytes wire = e.take();
  wire.resize(10);  // cut mid-payload
  Decoder d(wire);
  (void)d.get_bytes();
  EXPECT_FALSE(d.ok());
}

TEST(Codec, PayloadFieldsOwnTheirBytes) {
  Encoder e;
  e.put_bytes(Bytes{});
  e.put_bytes(to_bytes("abc"));
  const Bytes wire = e.take();
  Decoder d(wire);
  const Payload empty = d.get_payload();
  const Payload abc = d.get_payload();
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d.at_end());
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(abc, to_bytes("abc"));
  // A copy of its own, not a slice that would pin the whole input.
  EXPECT_TRUE(abc.data() < wire.data() ||
              abc.data() >= wire.data() + wire.size());
}

TEST(Codec, TruncatedPayloadTripsOkFlag) {
  Encoder e;
  e.put_bytes(filler_bytes(100));
  Bytes wire = e.take();
  wire.resize(10);
  Decoder d(wire);
  EXPECT_TRUE(d.get_payload().empty());
  EXPECT_FALSE(d.ok());
}

TEST(Codec, OverlongVarintRejected) {
  Bytes wire(11, 0x80);  // 11 continuation bytes: > 64 bits
  Decoder d(wire);
  (void)d.get_u64();
  EXPECT_FALSE(d.ok());
}

TEST(Codec, ReadsAfterFailureReturnZero) {
  Bytes empty;
  Decoder d(empty);
  EXPECT_EQ(d.get_u64(), 0u);
  EXPECT_EQ(d.get_string(), "");
  EXPECT_FALSE(d.ok());
}

Message sample_deliver() {
  UpdateRecord rec;
  rec.seq = 42;
  rec.kind = PayloadKind::kUpdate;
  rec.object = ObjectId{7};
  rec.data = to_bytes("stroke(1,2)->(3,4)");
  rec.sender = NodeId{103};
  rec.timestamp = 123456789;
  rec.request_id = 17;
  return make_deliver(GroupId{9}, rec);
}

TEST(Message, DeliverRoundTrip) {
  const Message m = sample_deliver();
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), m);
}

TEST(Message, JoinCarriesPolicy) {
  Message m = make_join(GroupId{3},
                        TransferPolicySpec::objects_last_n(
                            {ObjectId{1}, ObjectId{2}}, 25),
                        MemberRole::kObserver, true, 5);
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().policy.mode, TransferMode::kObjectsLastN);
  EXPECT_EQ(decoded.value().policy.last_n, 25u);
  ASSERT_EQ(decoded.value().policy.objects.size(), 2u);
  EXPECT_EQ(decoded.value().policy.objects[1], ObjectId{2});
  EXPECT_EQ(decoded.value().role, MemberRole::kObserver);
  EXPECT_EQ(decoded.value(), m);
}

TEST(Message, CreateGroupCarriesInitialState) {
  Message m = make_create_group(
      GroupId{4}, "whiteboard", true,
      {StateEntry{ObjectId{1}, to_bytes("canvas")},
       StateEntry{ObjectId{2}, filler_bytes(500)}},
      9);
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), m);
  EXPECT_TRUE(decoded.value().persistent);
  EXPECT_EQ(decoded.value().text, "whiteboard");
  ASSERT_EQ(decoded.value().state.size(), 2u);
  EXPECT_EQ(decoded.value().state[1].data.size(), 500u);
}

TEST(Message, ServerListRoundTrip) {
  Message m = make_server_list(12, {NodeId{1}, NodeId{2}, NodeId{5}});
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().nodes.size(), 3u);
  EXPECT_EQ(decoded.value(), m);
}

TEST(Message, JoinReplyWithUpdatesAndMembers) {
  Message m;
  m.type = MsgType::kJoinReply;
  m.group = GroupId{2};
  m.seq = 10;
  m.state = {StateEntry{ObjectId{1}, to_bytes("abc")}};
  for (SeqNo s = 11; s <= 13; ++s) {
    UpdateRecord u;
    u.seq = s;
    u.object = ObjectId{1};
    u.data = to_bytes("u");
    u.sender = NodeId{100};
    m.updates.push_back(u);
  }
  m.members = {MemberInfo{NodeId{100}, MemberRole::kPrincipal},
               MemberInfo{NodeId{101}, MemberRole::kObserver}};
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), m);
}

TEST(Message, DecodeRejectsBadVersion) {
  Bytes wire = sample_deliver().encode();
  wire[0] = 99;
  EXPECT_FALSE(Message::decode(wire).is_ok());
}

TEST(Message, DecodeRejectsTrailingBytes) {
  Bytes wire = sample_deliver().encode();
  wire.push_back(0);
  EXPECT_FALSE(Message::decode(wire).is_ok());
}

TEST(Message, DecodeRejectsTruncation) {
  const Bytes wire = sample_deliver().encode();
  for (std::size_t cut : {1ul, wire.size() / 2, wire.size() - 1}) {
    Bytes chopped(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(Message::decode(chopped).is_ok()) << "cut=" << cut;
  }
}

// Each enum field the message carries, set to its last enumerator (which
// decodes) and to one past it (rejected as corrupt, not decoded into an
// unnamed value that some switch would then fall through).
TEST(Message, DecodeRejectsOutOfRangeEnums) {
  struct Case {
    const char* field;
    int last;
    std::function<void(Message&, std::uint8_t)> set;
  };
  const std::vector<Case> cases = {
      {"type", static_cast<int>(MsgType::kDigestReply),
       [](Message& m, std::uint8_t v) { m.type = static_cast<MsgType>(v); }},
      {"fwd_type", static_cast<int>(MsgType::kDigestReply),
       [](Message& m, std::uint8_t v) {
         m.fwd_type = static_cast<MsgType>(v);
       }},
      {"kind", static_cast<int>(PayloadKind::kUpdate),
       [](Message& m, std::uint8_t v) {
         m.kind = static_cast<PayloadKind>(v);
       }},
      {"role", static_cast<int>(MemberRole::kObserver),
       [](Message& m, std::uint8_t v) {
         m.role = static_cast<MemberRole>(v);
       }},
      {"status", static_cast<int>(Errc::kUnavailable),
       [](Message& m, std::uint8_t v) { m.status = static_cast<Errc>(v); }},
      {"members[].role", static_cast<int>(MemberRole::kObserver),
       [](Message& m, std::uint8_t v) {
         m.members.back().role = static_cast<MemberRole>(v);
       }},
      {"updates[].kind", static_cast<int>(PayloadKind::kUpdate),
       [](Message& m, std::uint8_t v) {
         m.updates.back().kind = static_cast<PayloadKind>(v);
       }},
      {"policy.mode", static_cast<int>(TransferMode::kNothing),
       [](Message& m, std::uint8_t v) {
         m.policy.mode = static_cast<TransferMode>(v);
       }},
  };
  for (const Case& c : cases) {
    Message m = sample_deliver();
    m.updates.push_back(UpdateRecord{});
    m.members.push_back(MemberInfo{NodeId{100}, MemberRole::kPrincipal});
    c.set(m, static_cast<std::uint8_t>(c.last));
    EXPECT_TRUE(Message::decode(m.encode()).is_ok()) << c.field;
    c.set(m, static_cast<std::uint8_t>(c.last + 1));
    EXPECT_EQ(Message::decode(m.encode()).status().code, Errc::kCorrupt)
        << c.field;
  }
}

TEST(Message, WireSizeMatchesEncoding) {
  const Message m = sample_deliver();
  EXPECT_EQ(m.wire_size(), m.encode().size());
}

TEST(Message, EveryTypeHasName) {
  for (int t = 0; t <= static_cast<int>(MsgType::kDigestReply); ++t) {
    EXPECT_STRNE(msg_type_name(static_cast<MsgType>(t)), "unknown") << t;
  }
}

TEST(RecordCodec, UpdateRecordRoundTrip) {
  UpdateRecord u;
  u.seq = 77;
  u.kind = PayloadKind::kState;
  u.object = ObjectId{3};
  u.data = filler_bytes(256);
  u.sender = NodeId{42};
  u.timestamp = -5;
  u.request_id = 8;
  auto decoded = decode_update_record(encode_update_record(u));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), u);
}

TEST(RecordCodec, StateEntryRoundTrip) {
  StateEntry s{ObjectId{11}, to_bytes("payload")};
  auto decoded = decode_state_entry(encode_state_entry(s));
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value(), s);
}

TEST(RecordCodec, CorruptRecordRejected) {
  Bytes wire = encode_update_record(UpdateRecord{});
  wire.pop_back();
  EXPECT_FALSE(decode_update_record(wire).is_ok());
}

TEST(RecordCodec, SeqReadsAloneFromAValidRecord) {
  UpdateRecord u;
  u.seq = 300;  // two varint bytes
  u.data = filler_bytes(1000);
  auto seq = decode_update_seq(encode_update_record(u));
  ASSERT_TRUE(seq.is_ok());
  EXPECT_EQ(seq.value(), 300u);
}

TEST(RecordCodec, SeqOfAnEmptyOrCutRecordIsCorrupt) {
  EXPECT_EQ(decode_update_seq(Bytes{}).status().code, Errc::kCorrupt);
  UpdateRecord u;
  u.seq = 300;
  const Bytes wire = encode_update_record(u);
  ASSERT_EQ(wire[0] & 0x80, 0x80);  // the seq's varint continues
  EXPECT_EQ(decode_update_seq(BytesView(wire).first(1)).status().code,
            Errc::kCorrupt);
}

TEST(RecordCodec, OutOfRangePayloadKindRejected) {
  UpdateRecord u;
  u.kind = PayloadKind::kUpdate;
  EXPECT_TRUE(decode_update_record(encode_update_record(u)).is_ok());
  u.kind = static_cast<PayloadKind>(static_cast<int>(PayloadKind::kUpdate) + 1);
  EXPECT_EQ(decode_update_record(encode_update_record(u)).status().code,
            Errc::kCorrupt);
}

// Property sweep: randomized messages round-trip for a range of payload
// sizes and field mixes.
class MessageFuzzRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(MessageFuzzRoundTrip, RandomizedRoundTrip) {
  Rng rng(GetParam() * 7919 + 1);
  for (int iter = 0; iter < 50; ++iter) {
    Message m;
    m.type = MsgType::kDeliver;
    m.group = GroupId{rng.next_u64()};
    m.object = ObjectId{rng.next_u64()};
    m.seq = rng.next_u64();
    m.seq2 = rng.next_u64();
    m.sender = NodeId{rng.next_u64()};
    m.epoch = rng.next_u64();
    m.timestamp = static_cast<TimePoint>(rng.next_u64());
    m.sender_inclusive = rng.next_bool(0.5);
    m.accept = rng.next_bool(0.5);
    m.kind = rng.next_bool(0.5) ? PayloadKind::kState : PayloadKind::kUpdate;
    m.payload = filler_bytes(rng.next_below(2000),
                             static_cast<std::uint8_t>(rng.next_u64()));
    const auto n64 = rng.next_below(10);
    for (std::uint64_t i = 0; i < n64; ++i) m.u64s.push_back(rng.next_u64());
    auto decoded = Message::decode(m.encode());
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value(), m);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzzRoundTrip,
                         ::testing::Range(0, 8));

}  // namespace
}  // namespace corona
