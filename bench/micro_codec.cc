// Microbenchmarks (google-benchmark): wire codec throughput.  The paper
// attributes "a significant part of the cost associated with broadcasting a
// message" to serialization (§5.2.1); these benches quantify our codec.
#include <benchmark/benchmark.h>

#include <vector>

#include "net/frame.h"
#include "serial/message.h"

namespace corona {
namespace {

Message sample_message(std::size_t payload) {
  UpdateRecord rec;
  rec.seq = 123456;
  rec.kind = PayloadKind::kUpdate;
  rec.object = ObjectId{42};
  rec.data = filler_bytes(payload);
  rec.sender = NodeId{100};
  rec.timestamp = 987654321;
  rec.request_id = 77;
  return make_deliver(GroupId{7}, rec);
}

void BM_MessageEncode(benchmark::State& state) {
  const Message m = sample_message(static_cast<std::size_t>(state.range(0)));
  std::size_t bytes = 0;
  for (auto _ : state) {
    Bytes wire = m.encode();
    bytes += wire.size();
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MessageEncode)->Arg(100)->Arg(1000)->Arg(10000);

void BM_MessageDecode(benchmark::State& state) {
  const Bytes wire =
      sample_message(static_cast<std::size_t>(state.range(0))).encode();
  std::size_t bytes = 0;
  for (auto _ : state) {
    auto m = Message::decode(wire);
    bytes += wire.size();
    benchmark::DoNotOptimize(m);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_MessageDecode)->Arg(100)->Arg(1000)->Arg(10000);

void BM_UpdateRecordRoundTrip(benchmark::State& state) {
  UpdateRecord u;
  u.seq = 9;
  u.data = filler_bytes(static_cast<std::size_t>(state.range(0)));
  u.sender = NodeId{5};
  for (auto _ : state) {
    auto round = decode_update_record(encode_update_record(u));
    benchmark::DoNotOptimize(round);
  }
}
BENCHMARK(BM_UpdateRecordRoundTrip)->Arg(100)->Arg(1000);

std::vector<NodeId> frame_targets(std::int64_t n) {
  std::vector<NodeId> to;
  for (std::int64_t i = 0; i < n; ++i) {
    to.push_back(NodeId{100 + static_cast<std::uint64_t>(i)});
  }
  return to;
}

// A fan-out's sender-side cost per connection: the message is encoded once
// and wrapped in one frame listing the targets behind the connection.
// Args (both frame benches): (targets, payload bytes).
void BM_MessageFrameEncode(benchmark::State& state) {
  const std::vector<NodeId> to = frame_targets(state.range(0));
  const Message m = sample_message(static_cast<std::size_t>(state.range(1)));
  for (auto _ : state) {
    Bytes frame = net::encode_message_frame(NodeId{1}, to, m.encode());
    benchmark::DoNotOptimize(frame);
  }
}
BENCHMARK(BM_MessageFrameEncode)->ArgsProduct({{1, 32}, {100, 1000}});

// The receiver's cost per frame: reassemble it and decode its message once,
// however many targets it lists.
void BM_MessageFrameDecode(benchmark::State& state) {
  const Bytes frame = net::encode_message_frame(
      NodeId{1}, frame_targets(state.range(0)),
      sample_message(static_cast<std::size_t>(state.range(1))).encode());
  net::FrameDecoder decoder;
  net::Frame f;
  for (auto _ : state) {
    decoder.feed(BytesView(frame));
    if (decoder.next(&f) != net::FrameDecoder::Next::kFrame) {
      state.SkipWithError("frame did not decode");
      break;
    }
    auto m = Message::decode(f.message_wire);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_MessageFrameDecode)->ArgsProduct({{1, 32}, {100, 1000}});

}  // namespace
}  // namespace corona

BENCHMARK_MAIN();
