#include "net/frame.h"

#include <algorithm>
#include <cassert>

#include "serial/decoder.h"

namespace corona::net {

namespace {

constexpr std::size_t kMaxVarintBytes = 10;  // 64 bits / 7, rounded up

// Appends `v` as the LEB128 varint Encoder::put_u64 writes, so the frame
// bodies decode with serial/decoder.h.
void put_varint(Bytes& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

// Frame codec: every FrameKind must be encodable and decodable here.
// lint-dispatch: FrameKind
//
// A frame is built in one buffer, sized up front for a body of at most
// `max_body` bytes: open_frame leaves room for the length and writes the
// kind, the caller appends the body, and close_frame fills in the 4-byte
// little-endian length of (kind + body).
void open_frame(Bytes& out, FrameKind kind, std::size_t max_body) {
  out.reserve(kFrameLengthBytes + 1 + max_body);
  out.resize(kFrameLengthBytes);
  out.push_back(static_cast<std::uint8_t>(kind));
}

void close_frame(Bytes& frame) {
  const std::size_t len = frame.size() - kFrameLengthBytes;
  for (std::size_t i = 0; i < kFrameLengthBytes; ++i) {
    frame[i] = static_cast<std::uint8_t>(len >> (8 * i));
  }
}

// True when `ids` names some node twice.  The receiver delivers a frame's
// message once per listed node, so a repeat would let a peer turn one
// message into as many deliveries as a frame has room for ids.
bool lists_a_node_twice(const std::vector<NodeId>& ids) {
  if (ids.size() < 2) return false;
  std::vector<NodeId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

}  // namespace

Bytes encode_hello_frame(const std::vector<NodeId>& local_nodes) {
  Bytes out;
  open_frame(out, FrameKind::kHello,
             1 + kMaxVarintBytes * (1 + local_nodes.size()));
  out.push_back(kFrameProtocolVersion);
  put_varint(out, local_nodes.size());
  for (NodeId id : local_nodes) put_varint(out, id.value);
  close_frame(out);
  return out;
}

Bytes encode_message_frame(NodeId from, std::span<const NodeId> to,
                           BytesView message_wire) {
  assert(!to.empty() && "a message frame needs a target");
  Bytes out;
  open_frame(out, FrameKind::kMessage,
             kMaxVarintBytes * (2 + to.size()) + message_wire.size());
  put_varint(out, from.value);
  put_varint(out, to.size());
  for (NodeId id : to) put_varint(out, id.value);
  out.insert(out.end(), message_wire.begin(), message_wire.end());
  close_frame(out);
  return out;
}

Bytes encode_ping_frame() {
  Bytes out;
  open_frame(out, FrameKind::kPing, 0);
  close_frame(out);
  return out;
}
Bytes encode_pong_frame() {
  Bytes out;
  open_frame(out, FrameKind::kPong, 0);
  close_frame(out);
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  if (corrupt_ || n == 0) return;
  // Compact once the consumed prefix dominates, so the buffer does not grow
  // without bound across a long-lived connection.
  if (pos_ > 0 && (pos_ >= buf_.size() || pos_ > 64 * 1024)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

FrameDecoder::Next FrameDecoder::next(Frame* out) {
  if (corrupt_) return Next::kCorrupt;
  const std::size_t avail = buf_.size() - pos_;
  if (avail < kFrameLengthBytes) return Next::kNeedMore;

  const std::size_t len = static_cast<std::size_t>(buf_[pos_]) |
                          static_cast<std::size_t>(buf_[pos_ + 1]) << 8 |
                          static_cast<std::size_t>(buf_[pos_ + 2]) << 16 |
                          static_cast<std::size_t>(buf_[pos_ + 3]) << 24;
  // A frame is at least the kind byte; the ceiling catches garbage prefixes
  // before they make us buffer an absurd amount of stream.
  if (len < 1 || len > max_frame_bytes_) {
    corrupt_ = true;
    return Next::kCorrupt;
  }
  if (avail < kFrameLengthBytes + len) return Next::kNeedMore;

  const BytesView body(buf_.data() + pos_ + kFrameLengthBytes + 1, len - 1);
  const auto kind_byte = buf_[pos_ + kFrameLengthBytes];
  pos_ += kFrameLengthBytes + len;

  switch (static_cast<FrameKind>(kind_byte)) {
    case FrameKind::kHello:
    case FrameKind::kMessage:
    case FrameKind::kPing:
    case FrameKind::kPong:
      out->kind = static_cast<FrameKind>(kind_byte);
      break;
    default:
      corrupt_ = true;
      return Next::kCorrupt;
  }
  return parse_body(body, out);
}

FrameDecoder::Next FrameDecoder::parse_body(BytesView body, Frame* out) {
  switch (out->kind) {
    case FrameKind::kHello: {
      Decoder d(body);
      const std::uint8_t version = d.get_u8();
      const std::uint64_t n = d.get_u64();
      // The count is bounded by the bytes actually present (each id is at
      // least one varint byte), so a lying count cannot trigger a huge
      // allocation.
      if (!d.ok() || version != kFrameProtocolVersion || n > d.remaining()) {
        corrupt_ = true;
        return Next::kCorrupt;
      }
      out->hello_nodes.clear();
      out->hello_nodes.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        out->hello_nodes.push_back(NodeId{d.get_u64()});
      }
      if (!d.ok() || !d.at_end()) {
        corrupt_ = true;
        return Next::kCorrupt;
      }
      return Next::kFrame;
    }
    case FrameKind::kMessage: {
      Decoder d(body);
      out->from = NodeId{d.get_u64()};
      const std::uint64_t n = d.get_u64();
      // At least one target, and the count is bounded by the bytes present
      // as for the hello, so a lying count cannot trigger a huge allocation.
      if (!d.ok() || n == 0 || n > d.remaining()) {
        corrupt_ = true;
        return Next::kCorrupt;
      }
      out->to.clear();
      out->to.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        out->to.push_back(NodeId{d.get_u64()});
      }
      if (!d.ok() || lists_a_node_twice(out->to)) {
        corrupt_ = true;
        return Next::kCorrupt;
      }
      // The rest of the body is the encoded Message.  Its own strict decode
      // (version, truncation, trailing bytes) runs at the dispatch layer.
      const std::size_t consumed = body.size() - d.remaining();
      out->message_wire.assign(body.begin() +
                                   static_cast<std::ptrdiff_t>(consumed),
                               body.end());
      return Next::kFrame;
    }
    case FrameKind::kPing:
    case FrameKind::kPong:
      if (!body.empty()) {
        corrupt_ = true;
        return Next::kCorrupt;
      }
      return Next::kFrame;
  }
  corrupt_ = true;
  return Next::kCorrupt;
}

}  // namespace corona::net
