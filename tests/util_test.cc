#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "util/bytes.h"
#include "util/ids.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/stats.h"

namespace corona {
namespace {

TEST(Bytes, RoundTripString) {
  const Bytes b = to_bytes("hello corona");
  EXPECT_EQ(to_string(b), "hello corona");
}

TEST(Bytes, FillerIsDeterministic) {
  EXPECT_EQ(filler_bytes(64), filler_bytes(64));
  EXPECT_NE(filler_bytes(64, 1), filler_bytes(64, 2));
  EXPECT_EQ(filler_bytes(1000).size(), 1000u);
}

TEST(Payload, ACopySharesTheBuffer) {
  const Bytes bytes = to_bytes("shared");
  const Payload p(bytes);
  EXPECT_NE(p.data(), bytes.data());  // built once, by copying
  const Payload q = p;
  EXPECT_EQ(q.data(), p.data());
  Payload r;
  r = q;
  EXPECT_EQ(r.data(), p.data());
  EXPECT_EQ(to_string(r), "shared");
}

TEST(Payload, AssignmentAndMovesKeepTheOneBuffer) {
  const Payload p(to_bytes("abc"));
  Payload q(to_bytes("other"));
  q = p;  // the old buffer is released, the new one shared
  EXPECT_EQ(q.data(), p.data());
  Payload& same = q;
  q = same;
  EXPECT_EQ(q.data(), p.data());
  Payload r = std::move(q);
  EXPECT_EQ(r.data(), p.data());
  EXPECT_TRUE(q.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  q = std::move(r);
  EXPECT_EQ(to_string(q), "abc");
}

TEST(Payload, EqualityComparesBytes) {
  const Payload p(to_bytes("abc"));
  const Payload same(to_bytes("abc"));
  EXPECT_NE(p.data(), same.data());
  EXPECT_EQ(p, same);
  EXPECT_EQ(p, to_bytes("abc"));
  EXPECT_EQ(to_bytes("abc"), p);
  EXPECT_NE(p, Payload(to_bytes("abd")));
  EXPECT_NE(p, to_bytes("ab"));
  EXPECT_NE(to_bytes("abcd"), p);
}

TEST(Payload, EmptyPayloads) {
  const Payload none;
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(none.size(), 0u);
  EXPECT_EQ(none.begin(), none.end());
  EXPECT_EQ(none, Payload(Bytes{}));
  EXPECT_EQ(none, Bytes{});
  EXPECT_NE(none, to_bytes("x"));
  EXPECT_TRUE(BytesView(none).empty());
}

TEST(Payload, ReadsLikeABuffer) {
  const Bytes bytes = filler_bytes(100);
  const Payload p(BytesView(bytes).subspan(10, 20));
  ASSERT_EQ(p.size(), 20u);
  EXPECT_EQ(p[0], bytes[10]);
  EXPECT_EQ(p[19], bytes[29]);
  EXPECT_TRUE(std::equal(p.begin(), p.end(), bytes.begin() + 10));
  const BytesView view = p;
  EXPECT_EQ(view.data(), p.data());
  EXPECT_EQ(view.size(), 20u);
}

TEST(Ids, StrongTypesAreDistinct) {
  static_assert(!std::is_convertible_v<GroupId, NodeId>);
  static_assert(!std::is_convertible_v<ObjectId, GroupId>);
  EXPECT_EQ(NodeId{7}, NodeId{7});
  EXPECT_NE(NodeId{7}, NodeId{8});
  EXPECT_LT(NodeId{7}, NodeId{8});
}

TEST(Ids, Hashable) {
  std::set<NodeId> s{NodeId{1}, NodeId{2}, NodeId{2}};
  EXPECT_EQ(s.size(), 2u);
  std::unordered_map<GroupId, int> m;
  m[GroupId{5}] = 1;
  EXPECT_EQ(m.count(GroupId{5}), 1u);
}

TEST(Result, OkCarriesValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(Result, ErrorCarriesStatus) {
  Result<int> r = Status::error(Errc::kNotFound, "missing");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code, Errc::kNotFound);
  EXPECT_EQ(r.status().to_string(), "not-found: missing");
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(Result, EveryErrcHasName) {
  for (int i = 0; i <= static_cast<int>(Errc::kUnavailable); ++i) {
    EXPECT_STRNE(errc_name(static_cast<Errc>(i)), "unknown");
  }
}

TEST(Rng, DeterministicBySeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(Rng, RangesRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  Rng rng(99);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(50.0);
  EXPECT_NEAR(sum / n, 50.0, 2.5);
}

TEST(LatencyStats, SummaryStatistics) {
  LatencyStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
  EXPECT_NEAR(s.stddev_pct_of_mean(), 52.7, 0.1);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
}

TEST(LatencyStats, EmptyIsSafe) {
  LatencyStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.percentile(50), 0.0);
}

TEST(ThroughputMeter, KBytesPerSecond) {
  ThroughputMeter m;
  m.start(0);
  for (int i = 0; i < 600; ++i) m.on_delivery(1000);
  m.stop(1 * kSecond);
  EXPECT_DOUBLE_EQ(m.kbytes_per_sec(), 600.0);
  EXPECT_DOUBLE_EQ(m.messages_per_sec(), 600.0);
  EXPECT_EQ(m.total_bytes(), 600000u);
}

TEST(TextTable, AlignsColumns) {
  TextTable t({"a", "header"});
  t.add_row({"wide-cell", "1"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a"), std::string::npos);
  EXPECT_NE(s.find("wide-cell"), std::string::npos);
  EXPECT_NE(s.find("|---"), std::string::npos);
}

TEST(TextTable, FormatsDoubles) {
  EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::fmt(3.0, 0), "3");
}

}  // namespace
}  // namespace corona
