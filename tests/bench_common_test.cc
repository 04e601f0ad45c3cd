// Tests for the systems-bench toolkit in bench/bench_common.h: nearest-rank
// percentiles, latency summaries, strict size and thread-list knobs, and the
// JSON artefact header.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"

namespace osdp {
namespace {

std::vector<double> Descending(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

TEST(BenchPercentileTest, NearestRankOnOddLength) {
  const std::vector<double> v = Descending(21);  // 1..21, unsorted
  EXPECT_EQ(bench::Percentile(v, 0), 1.0);
  EXPECT_EQ(bench::Percentile(v, 50), 11.0);  // ceil(10.5) = 11
  EXPECT_EQ(bench::Percentile(v, 95), 20.0);  // ceil(19.95) = 20
  EXPECT_EQ(bench::Percentile(v, 99), 21.0);  // ceil(20.79) = 21
  EXPECT_EQ(bench::Percentile(v, 100), 21.0);
}

TEST(BenchPercentileTest, NearestRankOnEvenLength) {
  const std::vector<double> v = Descending(20);  // 1..20, unsorted
  EXPECT_EQ(bench::Percentile(v, 0), 1.0);
  EXPECT_EQ(bench::Percentile(v, 50), 10.0);  // the lower middle
  EXPECT_EQ(bench::Percentile(v, 95), 19.0);  // rank 19 exactly
  EXPECT_EQ(bench::Percentile(v, 99), 20.0);  // ceil(19.8) = 20
  EXPECT_EQ(bench::Percentile(v, 100), 20.0);
  EXPECT_EQ(bench::Percentile({}, 50), 0.0);
}

TEST(BenchPercentileTest, SummarizeLatenciesMatchesPercentile) {
  std::vector<double> v;
  for (int i = 0; i < 257; ++i) v.push_back((i * 7919) % 1013 * 0.5);
  const bench::LatencyStats s = bench::SummarizeLatencies(v);
  EXPECT_EQ(s.count, v.size());
  EXPECT_EQ(s.p50, bench::Percentile(v, 50));
  EXPECT_EQ(s.p95, bench::Percentile(v, 95));
  EXPECT_EQ(s.p99, bench::Percentile(v, 99));
  EXPECT_EQ(s.max, *std::max_element(v.begin(), v.end()));

  const bench::LatencyStats empty = bench::SummarizeLatencies({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p50, 0.0);
  EXPECT_EQ(empty.max, 0.0);
}

TEST(BenchKnobTest, EnvSizeFallsBackUnlessPositive) {
  // Before the strict reader, atoll turned "garbage" into a 0-row or
  // 0-round run.
  ASSERT_EQ(::unsetenv("OSDP_TEST_SIZE"), 0);
  EXPECT_EQ(bench::EnvSize("OSDP_TEST_SIZE", 16), 16u);
  for (const char* bad : {"", "garbage", "4x", "0", "-3"}) {
    ASSERT_EQ(::setenv("OSDP_TEST_SIZE", bad, 1), 0);
    EXPECT_EQ(bench::EnvSize("OSDP_TEST_SIZE", 16), 16u) << "'" << bad << "'";
  }
  ASSERT_EQ(::setenv("OSDP_TEST_SIZE", " 8 ", 1), 0);
  EXPECT_EQ(bench::EnvSize("OSDP_TEST_SIZE", 16), 8u);
  ASSERT_EQ(::setenv("OSDP_TEST_SIZE", "3000000000", 1), 0);
  EXPECT_EQ(bench::EnvInt("OSDP_TEST_SIZE", 4), 4);  // past INT_MAX
  ASSERT_EQ(::unsetenv("OSDP_TEST_SIZE"), 0);
}

TEST(BenchKnobTest, ThreadGridIsStrict) {
  const std::vector<size_t> fallback = {1, 2, 4, 8};
  ASSERT_EQ(::setenv("OSDP_BENCH_THREADS", "1,2,4", 1), 0);
  EXPECT_EQ(bench::ThreadGrid(fallback), (std::vector<size_t>{1, 2, 4}));
  ASSERT_EQ(::setenv("OSDP_BENCH_THREADS", "0,2", 1), 0);  // 0 = inline pool
  EXPECT_EQ(bench::ThreadGrid(fallback), (std::vector<size_t>{0, 2}));
  for (const char* bad : {"2,x", "", "1,,2", "2,", "-1"}) {
    ASSERT_EQ(::setenv("OSDP_BENCH_THREADS", bad, 1), 0);
    EXPECT_EQ(bench::ThreadGrid(fallback), fallback) << "'" << bad << "'";
  }
  ASSERT_EQ(::unsetenv("OSDP_BENCH_THREADS"), 0);
  EXPECT_EQ(bench::ThreadGrid(fallback), fallback);
}

TEST(BenchJsonTest, WritesSharedHeaderThenBenchKeys) {
  const std::string path = ::testing::TempDir() + "bench_common_test.json";
  ASSERT_EQ(::setenv("OSDP_BENCH_JSON", path.c_str(), 1), 0);
  {
    bench::BenchJson json("toy", "unused_default.json");
    ASSERT_TRUE(json.ok());
    EXPECT_EQ(json.path(), path);
    std::fprintf(json.file(), "  \"flag\": true,\n");
    json.Records("results", std::vector<int>{3, 5},
                 [](FILE* f, int v) { std::fprintf(f, "{\"v\": %d}", v); });
    ASSERT_TRUE(json.Close());
  }
  ASSERT_EQ(::unsetenv("OSDP_BENCH_JSON"), 0);
  std::ifstream in(path);
  std::stringstream got;
  got << in.rdbuf();
  const std::string commit = bench::GitCommit();
  EXPECT_FALSE(commit.empty());
  EXPECT_EQ(got.str(),
            "{\n  \"bench\": \"toy\",\n  \"hardware_concurrency\": " +
                std::to_string(std::thread::hardware_concurrency()) +
                ",\n  \"build_type\": \"" + bench::BuildType() +
                "\",\n  \"commit\": \"" + commit +
                "\",\n  \"flag\": true,\n  \"results\": [\n"
                "    {\"v\": 3},\n    {\"v\": 5}\n  ]\n}\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace osdp
