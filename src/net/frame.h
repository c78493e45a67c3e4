// Stream framing for the TCP transport (see docs/PROTOCOL.md, "Stream
// framing & connection lifecycle").
//
// TCP is a byte stream: one write() can arrive split across many reads and
// many writes can coalesce into one read.  Every frame therefore carries a
// fixed 4-byte little-endian length prefix covering everything after it
// (kind byte + body), and the receiving side runs a FrameDecoder that
// reassembles frames incrementally from arbitrary chunk boundaries.
//
// Frame kinds:
//   kHello    — first frame on every outbound connection: protocol version +
//               the node ids hosted by the connecting process, so the
//               acceptor can route replies before any message flows.
//   kMessage  — one wire message for one or more nodes behind the
//               connection: the sender's node id, a target list (count ≥ 1,
//               then the ids in fan-out order), then Message::encode()
//               bytes.  Node ids travel per frame because one connection
//               multiplexes every node pair between two processes; a
//               fan-out to several nodes behind one connection is one
//               frame, not one per target.
//   kPing/kPong — transport-level liveness probes for idle connections.
//
// Decoding is strict, mirroring Message::decode(): an unknown kind, a bad
// hello version, an over-limit length, an empty or truncated target list,
// a target listed twice, or trailing bytes inside a frame body all mark
// the stream corrupt, and the connection owning it must be torn down (a
// framing error leaves no way to find the next frame boundary).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "serial/message.h"
#include "util/bytes.h"
#include "util/context.h"
#include "util/ids.h"

namespace corona::net {

enum class FrameKind : std::uint8_t {
  kHello = 1,
  kMessage = 2,
  kPing = 3,
  kPong = 4,
};

// Version byte carried by kHello; bumped on incompatible framing changes.
// Version 2 gave kMessage its target list; a runtime refuses a hello of any
// other version, so a v1 and a v2 runtime never exchange message frames.
constexpr std::uint8_t kFrameProtocolVersion = 2;

// Length prefix size on the wire.
constexpr std::size_t kFrameLengthBytes = 4;

// Default ceiling on (kind + body) size.  Generous enough for a full-state
// join reply, small enough that a garbage length prefix cannot make the
// decoder buffer gigabytes before noticing.
constexpr std::size_t kDefaultMaxFrameBytes = 64 * 1024 * 1024;

// One decoded frame.  Fields are populated according to `kind`; the others
// keep what an earlier frame decoded into the same object left there.
struct Frame {
  FrameKind kind = FrameKind::kMessage;
  std::vector<NodeId> hello_nodes;  // kHello: node ids behind the connection
  NodeId from;                      // kMessage
  std::vector<NodeId> to;           // kMessage: targets in fan-out order
  Bytes message_wire;               // kMessage: Message::encode() bytes
};

[[nodiscard]] Bytes encode_hello_frame(const std::vector<NodeId>& local_nodes);
// `to` must list at least one target and no target twice.
[[nodiscard]] CORONA_HOT_PATH Bytes encode_message_frame(
    NodeId from, std::span<const NodeId> to, BytesView message_wire);
[[nodiscard]] Bytes encode_ping_frame();
[[nodiscard]] Bytes encode_pong_frame();

// Incremental reassembler.  feed() raw stream chunks in arrival order, then
// drain complete frames with next() until it reports kNeedMore.  Once the
// stream is corrupt the decoder stays corrupt: framing errors are not
// recoverable mid-stream.
class FrameDecoder {
 public:
  enum class Next { kFrame, kNeedMore, kCorrupt };

  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const std::uint8_t* data, std::size_t n);
  void feed(BytesView chunk) { feed(chunk.data(), chunk.size()); }

  // Extracts the next complete frame into *out, reusing its buffers, so a
  // caller draining many frames into one Frame allocates for the first
  // only.  kNeedMore leaves *out untouched; kCorrupt is terminal and may
  // leave *out half-written.  Dropping the verdict would lose the
  // corrupt-stream signal, so it is nodiscard.
  [[nodiscard]] Next next(Frame* out);

  bool corrupt() const { return corrupt_; }
  std::size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  Next parse_body(BytesView body, Frame* out);

  std::size_t max_frame_bytes_;
  Bytes buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  bool corrupt_ = false;
};

}  // namespace corona::net
