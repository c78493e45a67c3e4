// Deterministic fuzz harness for the stream framing layer (net/frame.h).
//
// The FrameDecoder sits on the trust boundary of the TCP transport: it is
// fed raw bytes from the network and must never crash, hang, or buffer
// unboundedly, no matter how the stream is mangled.  Each case here derives
// a mutated stream from a fixed seed — truncation, bit flips, splices of
// two valid streams, corrupted length prefixes, and pure garbage — feeds it
// in randomly-sized chunks, and drives the decoder to quiescence.  The only
// acceptable outcomes per step are kFrame, kNeedMore, or a *sticky*
// kCorrupt; the decoder's buffered tail must stay below the frame ceiling.
//
// The same corpus logic is reusable as a libFuzzer target: see
// fuzz/frame_fuzz.cc (built behind -DCORONA_FUZZ=ON).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/frame.h"
#include "serial/message.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace corona::net {
namespace {

// A small but representative valid stream: hello, a few messages for one to
// four targets each, liveness probes.
Bytes valid_stream(Rng& rng) {
  Bytes out;
  auto append = [&out](const Bytes& frame) {
    out.insert(out.end(), frame.begin(), frame.end());
  };
  append(encode_hello_frame({NodeId{1}, NodeId{2 + rng.next_below(5)}}));
  const int messages = static_cast<int>(rng.next_range(1, 4));
  for (int i = 0; i < messages; ++i) {
    Message m;
    m.type = MsgType::kBcastUpdate;
    m.group = GroupId{rng.next_below(10)};
    m.object = ObjectId{rng.next_below(10)};
    m.request_id = rng.next_u64();
    m.payload = to_bytes("fuzz-payload");
    // 1 to 4 distinct targets, as a fan-out to the nodes behind one
    // connection (a frame naming a node twice is corrupt).
    const std::uint64_t targets = rng.next_range(1, 4);
    std::vector<NodeId> to;
    while (to.size() < targets) {
      const NodeId id{1 + rng.next_below(300)};
      if (std::find(to.begin(), to.end(), id) == to.end()) to.push_back(id);
    }
    append(encode_message_frame(NodeId{100 + rng.next_below(3)}, to,
                                m.encode()));
  }
  append(encode_ping_frame());
  append(encode_pong_frame());
  return out;
}

// Drives a decoder over `stream`, split into random chunks, and checks the
// structural contract.  Returns the number of complete frames decoded.
int drive(const Bytes& stream, Rng& rng, std::size_t max_frame_bytes) {
  FrameDecoder dec(max_frame_bytes);
  int frames = 0;
  std::size_t off = 0;
  bool corrupt_seen = false;
  while (off < stream.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(stream.size() - off, rng.next_range(1, 97));
    dec.feed(stream.data() + off, chunk);
    off += chunk;
    for (;;) {
      Frame f;
      const auto r = dec.next(&f);
      if (r == FrameDecoder::Next::kFrame) {
        EXPECT_FALSE(corrupt_seen) << "frame after corruption";
        ++frames;
        continue;
      }
      if (r == FrameDecoder::Next::kCorrupt) {
        EXPECT_TRUE(dec.corrupt());
        corrupt_seen = true;
        // Corruption is terminal: more input must not revive the stream.
        Frame again;
        EXPECT_EQ(dec.next(&again), FrameDecoder::Next::kCorrupt);
      }
      break;
    }
    // The decoder may buffer at most one incomplete frame (plus its length
    // prefix); a garbage length cannot make it hoard the whole stream.
    EXPECT_LE(dec.buffered_bytes(),
              max_frame_bytes + kFrameLengthBytes + 96);
  }
  return frames;
}

constexpr std::size_t kCeiling = 1 << 20;

TEST(FrameFuzz, IntactStreamsDecodeFullyUnderAnyChunking) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed);
    const Bytes stream = valid_stream(rng);
    const int frames = drive(stream, rng, kCeiling);
    // hello + >=1 messages + ping + pong.
    EXPECT_GE(frames, 4) << "seed " << seed;
  }
}

TEST(FrameFuzz, TruncatedStreamsNeverCrashOrOverBuffer) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    Bytes stream = valid_stream(rng);
    stream.resize(rng.next_below(stream.size()));
    drive(stream, rng, kCeiling);
  }
}

TEST(FrameFuzz, BitflippedStreamsNeverCrash) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    Bytes stream = valid_stream(rng);
    const int flips = static_cast<int>(rng.next_range(1, 8));
    for (int i = 0; i < flips; ++i) {
      const std::size_t pos = rng.next_below(stream.size());
      stream[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    }
    drive(stream, rng, kCeiling);
  }
}

TEST(FrameFuzz, SplicedStreamsNeverCrash) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    const Bytes a = valid_stream(rng);
    const Bytes b = valid_stream(rng);
    // Splice a prefix of one stream onto a suffix of another — frame
    // boundaries land mid-frame almost always.
    Bytes stream(a.begin(),
                 a.begin() + static_cast<std::ptrdiff_t>(
                                 rng.next_below(a.size())));
    stream.insert(stream.end(),
                  b.begin() + static_cast<std::ptrdiff_t>(
                                  rng.next_below(b.size())),
                  b.end());
    drive(stream, rng, kCeiling);
  }
}

TEST(FrameFuzz, CorruptLengthPrefixesAreRejectedNotBuffered) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Rng rng(seed);
    Bytes stream = valid_stream(rng);
    // Rewrite the first length prefix with a hostile value: zero, huge, or
    // just off-by-some.
    const std::uint32_t hostile =
        rng.next_bool(0.4)
            ? 0xffffffffu
            : static_cast<std::uint32_t>(rng.next_below(1 << 28));
    for (std::size_t i = 0; i < kFrameLengthBytes; ++i) {
      stream[i] = static_cast<std::uint8_t>(hostile >> (8 * i));
    }
    drive(stream, rng, kCeiling);
  }
}

TEST(FrameFuzz, PureGarbageNeverCrashes) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed);
    Bytes stream(rng.next_range(1, 4096));
    for (auto& byte : stream) {
      byte = static_cast<std::uint8_t>(rng.next_below(256));
    }
    drive(stream, rng, kCeiling);
  }
}

TEST(FrameFuzz, DecoderIsDeterministicAcrossChunkings) {
  // The same byte stream must yield the same frame count and the same
  // corrupt verdict no matter how it is chunked.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    Rng gen(seed);
    Bytes stream = valid_stream(gen);
    if (seed % 2 == 0) {
      stream[gen.next_below(stream.size())] ^= 0x40;
    }
    Rng chunks_a(seed * 31 + 1);
    Rng chunks_b(seed * 131 + 7);
    const int a = drive(stream, chunks_a, kCeiling);
    const int b = drive(stream, chunks_b, kCeiling);
    EXPECT_EQ(a, b) << "seed " << seed;
  }
}

}  // namespace
}  // namespace corona::net
