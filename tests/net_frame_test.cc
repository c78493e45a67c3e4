// Frame-reassembly robustness: the FrameDecoder must survive arbitrary
// chunking of the TCP byte stream (single-byte feeds, fragmented frames,
// many frames coalesced into one read) and must turn garbage into a clean
// terminal corrupt state — never a crash, never an over-read.
#include <gtest/gtest.h>

#include <vector>

#include "net/frame.h"
#include "serial/message.h"

namespace corona::net {
namespace {

Bytes concat(const std::vector<Bytes>& parts) {
  Bytes all;
  for (const Bytes& p : parts) all.insert(all.end(), p.begin(), p.end());
  return all;
}

Bytes sample_message_frame(SeqNo seq) {
  Message m;
  m.type = MsgType::kDeliver;
  m.group = GroupId{7};
  m.seq = seq;
  const NodeId to[] = {NodeId{4}};
  return encode_message_frame(NodeId{3}, to, m.encode());
}

// Wraps `body` in a length prefix and kind byte without going through the
// encoders, so a test can hand the decoder a body they would never write.
Bytes raw_frame(FrameKind kind, const Bytes& body) {
  const std::size_t len = 1 + body.size();
  Bytes wire = {static_cast<std::uint8_t>(len & 0xff),
                static_cast<std::uint8_t>((len >> 8) & 0xff),
                static_cast<std::uint8_t>((len >> 16) & 0xff),
                static_cast<std::uint8_t>((len >> 24) & 0xff),
                static_cast<std::uint8_t>(kind)};
  wire.insert(wire.end(), body.begin(), body.end());
  return wire;
}

TEST(SocketFrame, RoundTripsEveryKind) {
  FrameDecoder d;
  d.feed(BytesView(encode_hello_frame({NodeId{1}, NodeId{9}})));
  d.feed(BytesView(sample_message_frame(42)));
  d.feed(BytesView(encode_ping_frame()));
  d.feed(BytesView(encode_pong_frame()));

  Frame f;
  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.kind, FrameKind::kHello);
  EXPECT_EQ(f.hello_nodes, (std::vector<NodeId>{NodeId{1}, NodeId{9}}));

  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.kind, FrameKind::kMessage);
  EXPECT_EQ(f.from, NodeId{3});
  EXPECT_EQ(f.to, (std::vector<NodeId>{NodeId{4}}));
  auto decoded = Message::decode(f.message_wire);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().type, MsgType::kDeliver);
  EXPECT_EQ(decoded.value().seq, 42u);

  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.kind, FrameKind::kPing);
  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.kind, FrameKind::kPong);
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kNeedMore);
  EXPECT_EQ(d.buffered_bytes(), 0u);
}

TEST(SocketFrame, MessageFrameCarriesItsTargetsInOrder) {
  // One frame for three nodes behind one connection: the list comes back
  // in fan-out order, ids of any varint width, and the message once.
  Message m;
  m.type = MsgType::kDeliver;
  m.group = GroupId{7};
  m.seq = 11;
  const std::vector<NodeId> to = {NodeId{300}, NodeId{5}, NodeId{70000}};
  FrameDecoder d;
  d.feed(BytesView(encode_message_frame(NodeId{3}, to, m.encode())));
  Frame f;
  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.kind, FrameKind::kMessage);
  EXPECT_EQ(f.from, NodeId{3});
  EXPECT_EQ(f.to, to);
  EXPECT_EQ(f.message_wire, m.encode());
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kNeedMore);
  EXPECT_EQ(d.buffered_bytes(), 0u);
}

TEST(SocketFrame, TargetCountMayEqualTheBytesLeft) {
  // from=3, one one-byte target, and no message bytes: the frame is whole
  // (the empty message fails later, in Message::decode at dispatch).
  FrameDecoder d;
  d.feed(BytesView(raw_frame(FrameKind::kMessage, {3, 1, 4})));
  Frame f;
  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.to, (std::vector<NodeId>{NodeId{4}}));
  EXPECT_TRUE(f.message_wire.empty());
}

TEST(SocketFrame, MessageFrameWithNoTargetIsCorrupt) {
  Bytes body = {3, 0};  // from=3, count=0
  const Bytes msg = Message{}.encode();
  body.insert(body.end(), msg.begin(), msg.end());
  FrameDecoder d;
  d.feed(BytesView(raw_frame(FrameKind::kMessage, body)));
  Frame f;
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kCorrupt);
  EXPECT_TRUE(d.corrupt());
}

TEST(SocketFrame, MessageFrameWithLyingTargetCountIsCorruptNotHuge) {
  // from=3, then a varint count far larger than the bytes present; must be
  // rejected without attempting a giant reserve.
  const Bytes body = {3,    0xff, 0xff, 0xff, 0xff, 0xff,
                      0xff, 0xff, 0xff, 0x7f, 4};
  FrameDecoder d;
  d.feed(BytesView(raw_frame(FrameKind::kMessage, body)));
  Frame f;
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kCorrupt);
}

TEST(SocketFrame, MessageFrameWithTruncatedTargetListIsCorrupt) {
  // from=3, count=2 (no more than the 3 bytes left), target 300 as two
  // varint bytes, then a continuation byte with nothing after it: the
  // second target is cut short by the end of the frame.
  FrameDecoder d;
  d.feed(
      BytesView(raw_frame(FrameKind::kMessage, {3, 2, 0xac, 0x02, 0x80})));
  Frame f;
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kCorrupt);
}

TEST(SocketFrame, MessageFrameListingANodeTwiceIsCorrupt) {
  // The receiver hands a frame's message to each listed node, so a repeat
  // would multiply one message; it is refused whether the two listings sit
  // side by side or apart.
  const Bytes msg = Message{}.encode();
  for (const Bytes& head : {Bytes{3, 2, 4, 4}, Bytes{3, 3, 4, 5, 4}}) {
    Bytes body = head;
    body.insert(body.end(), msg.begin(), msg.end());
    FrameDecoder d;
    d.feed(BytesView(raw_frame(FrameKind::kMessage, body)));
    Frame f;
    EXPECT_EQ(d.next(&f), FrameDecoder::Next::kCorrupt);
  }
}

TEST(SocketFrame, FramesDecodeIntoOneFrameObject) {
  // A Frame reused across next() calls keeps its buffers; each frame must
  // still come out whole, with no target or node left over from the last.
  const NodeId three[] = {NodeId{4}, NodeId{5}, NodeId{6}};
  const NodeId one[] = {NodeId{7}};
  FrameDecoder d;
  d.feed(BytesView(encode_hello_frame({NodeId{1}, NodeId{2}})));
  d.feed(BytesView(encode_hello_frame({NodeId{8}})));
  d.feed(BytesView(encode_message_frame(NodeId{3}, three, to_bytes("ab"))));
  d.feed(BytesView(encode_message_frame(NodeId{3}, one, to_bytes("c"))));
  Frame f;
  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.hello_nodes, (std::vector<NodeId>{NodeId{8}}));
  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.to, (std::vector<NodeId>{NodeId{7}}));
  EXPECT_EQ(f.message_wire, to_bytes("c"));
}

TEST(SocketFrame, SingleByteFeedsReassemble) {
  const Bytes wire = sample_message_frame(5);
  FrameDecoder d;
  Frame f;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    // Until the last byte lands, no frame may surface.
    EXPECT_EQ(d.next(&f), FrameDecoder::Next::kNeedMore);
    d.feed(&wire[i], 1);
  }
  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.kind, FrameKind::kMessage);
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kNeedMore);
}

TEST(SocketFrame, FragmentedAcrossUnevenChunks) {
  const Bytes wire =
      concat({sample_message_frame(1), sample_message_frame(2),
              encode_hello_frame({NodeId{8}}), sample_message_frame(3)});
  // Feed in prime-sized chunks so boundaries never line up with frames.
  FrameDecoder d;
  std::vector<Frame> out;
  std::size_t off = 0;
  while (off < wire.size()) {
    const std::size_t n = std::min<std::size_t>(7, wire.size() - off);
    d.feed(wire.data() + off, n);
    off += n;
    Frame f;
    while (d.next(&f) == FrameDecoder::Next::kFrame) out.push_back(f);
  }
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].kind, FrameKind::kMessage);
  EXPECT_EQ(out[2].kind, FrameKind::kHello);
  EXPECT_EQ(out[2].hello_nodes, (std::vector<NodeId>{NodeId{8}}));
}

TEST(SocketFrame, CoalescedIntoOneFeed) {
  std::vector<Bytes> parts;
  for (SeqNo s = 1; s <= 50; ++s) parts.push_back(sample_message_frame(s));
  FrameDecoder d;
  d.feed(BytesView(concat(parts)));
  Frame f;
  for (SeqNo s = 1; s <= 50; ++s) {
    ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
    auto decoded = Message::decode(f.message_wire);
    ASSERT_TRUE(decoded.is_ok());
    EXPECT_EQ(decoded.value().seq, s);
  }
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kNeedMore);
  EXPECT_EQ(d.buffered_bytes(), 0u);
}

TEST(SocketFrame, TruncatedFrameStaysPending) {
  const Bytes wire = sample_message_frame(9);
  FrameDecoder d;
  d.feed(wire.data(), wire.size() - 1);  // connection died one byte short
  Frame f;
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kNeedMore);
  EXPECT_FALSE(d.corrupt());
  EXPECT_EQ(d.buffered_bytes(), wire.size() - 1);
}

TEST(SocketFrame, ZeroLengthFrameIsCorrupt) {
  const Bytes wire = {0, 0, 0, 0};  // length 0: no room for the kind byte
  FrameDecoder d;
  d.feed(BytesView(wire));
  Frame f;
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kCorrupt);
  EXPECT_TRUE(d.corrupt());
}

TEST(SocketFrame, OversizeLengthIsCorruptImmediately) {
  // A garbage length prefix must be rejected before any buffering happens,
  // not after the decoder tries to accumulate 4 GB.
  const Bytes wire = {0xff, 0xff, 0xff, 0xff, 1};
  FrameDecoder d(1024);
  d.feed(BytesView(wire));
  Frame f;
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kCorrupt);
}

TEST(SocketFrame, UnknownKindIsCorrupt) {
  const Bytes wire = {1, 0, 0, 0, 0x77};
  FrameDecoder d;
  d.feed(BytesView(wire));
  Frame f;
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kCorrupt);
}

TEST(SocketFrame, WrongHelloVersionIsCorrupt) {
  Bytes wire = encode_hello_frame({NodeId{1}});
  wire[kFrameLengthBytes + 1] = 0x6e;  // version byte right after the kind
  FrameDecoder d;
  d.feed(BytesView(wire));
  Frame f;
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kCorrupt);
}

TEST(SocketFrame, HelloWithLyingCountIsCorruptNotHuge) {
  // kind=hello, version ok, then a varint count far larger than the bytes
  // present; must be rejected without attempting a giant reserve.
  const Bytes body = {kFrameProtocolVersion,
                      0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f};
  FrameDecoder d;
  d.feed(BytesView(raw_frame(FrameKind::kHello, body)));
  Frame f;
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kCorrupt);
}

TEST(SocketFrame, PingWithBodyIsCorrupt) {
  const Bytes wire = {2, 0, 0, 0, static_cast<std::uint8_t>(FrameKind::kPing),
                      0xab};
  FrameDecoder d;
  d.feed(BytesView(wire));
  Frame f;
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kCorrupt);
}

TEST(SocketFrame, CorruptIsTerminalEvenAfterGoodBytes) {
  FrameDecoder d;
  d.feed(BytesView(Bytes{1, 0, 0, 0, 0x77}));  // unknown kind
  Frame f;
  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kCorrupt);
  // Feeding perfectly valid frames afterwards must not resurrect the stream:
  // a framing error leaves no trustworthy boundary to resynchronize on.
  d.feed(BytesView(encode_ping_frame()));
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kCorrupt);
  EXPECT_TRUE(d.corrupt());
}

TEST(SocketFrame, RandomGarbageNeverCrashes) {
  // Deterministic pseudo-garbage (xorshift; no wall-clock seed) hammered
  // through the decoder in odd chunk sizes: every outcome is acceptable
  // except a crash, an over-read, or an infinite loop.
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  auto next_byte = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<std::uint8_t>(x);
  };
  for (int round = 0; round < 32; ++round) {
    FrameDecoder d(4096);
    Bytes junk(257);
    for (auto& b : junk) b = next_byte();
    std::size_t off = 0;
    int guard = 0;
    while (off < junk.size() && !d.corrupt()) {
      const std::size_t n = std::min<std::size_t>(1 + (round % 9), junk.size() - off);
      d.feed(junk.data() + off, n);
      off += n;
      Frame f;
      FrameDecoder::Next r;
      while ((r = d.next(&f)) == FrameDecoder::Next::kFrame) {
        ASSERT_LT(++guard, 10000);
      }
      if (r == FrameDecoder::Next::kCorrupt) break;
    }
  }
}

TEST(SocketFrame, LongStreamCompactsItsBuffer) {
  // Many frames through one decoder: the consumed prefix must be reclaimed,
  // not accumulated forever.
  FrameDecoder d;
  Frame f;
  for (int i = 0; i < 2000; ++i) {
    d.feed(BytesView(encode_ping_frame()));
    ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  }
  EXPECT_EQ(d.buffered_bytes(), 0u);
}

TEST(SocketFrame, MultiByteLengthPrefixDecodesExactly) {
  // A body longer than 255 bytes puts a non-zero value in the second length
  // byte; the little-endian decode must weight each byte correctly or the
  // decoder desyncs from the stream.
  Message m;
  m.type = MsgType::kDeliver;
  m.group = GroupId{7};
  m.seq = 9;
  m.text = std::string(300, 'x');
  const Bytes wire = m.encode();
  ASSERT_GT(wire.size(), 255u);

  FrameDecoder d;
  const NodeId to[] = {NodeId{4}};
  d.feed(BytesView(encode_message_frame(NodeId{3}, to, wire)));
  Frame f;
  ASSERT_EQ(d.next(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.kind, FrameKind::kMessage);
  EXPECT_EQ(f.message_wire, wire);
  EXPECT_EQ(d.next(&f), FrameDecoder::Next::kNeedMore);
  EXPECT_EQ(d.buffered_bytes(), 0u);
}

TEST(SocketFrame, FrameExactlyAtTheCeilingIsAccepted) {
  // The ceiling is inclusive: a ping frame is exactly one byte of body, so a
  // decoder capped at one byte must still accept it (and reject two).
  FrameDecoder exact(1);
  exact.feed(BytesView(encode_ping_frame()));
  Frame f;
  ASSERT_EQ(exact.next(&f), FrameDecoder::Next::kFrame);
  EXPECT_EQ(f.kind, FrameKind::kPing);
  EXPECT_FALSE(exact.corrupt());

  FrameDecoder tight(1);
  tight.feed(BytesView(encode_hello_frame({NodeId{1}})));  // body > 1 byte
  EXPECT_EQ(tight.next(&f), FrameDecoder::Next::kCorrupt);
}

}  // namespace
}  // namespace corona::net
