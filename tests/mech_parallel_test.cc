// Parallel mechanism stage: randomized property suite pinning the sharded
// interval-cost engine build, the partition solve over it and pooled DAWA
// bit-identical to their serial references across thread counts × domain
// sizes × data shapes. These are the house determinism tests for the
// mechanism layer — any divergence is a hard failure, not a tolerance
// violation (see docs/parallelism.md for why exact equality is achievable).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "src/common/distributions.h"
#include "src/common/random.h"
#include "src/hist/histogram.h"
#include "src/mech/dawa.h"
#include "src/mech/interval_costs.h"
#include "src/runtime/thread_pool.h"

namespace osdp {
namespace {

// The grid from the issue spec: serial reference (no pool) is compared
// against the inline pool (0) and real worker pools, including a count (7)
// larger than the number of engine levels on the small domains.
constexpr size_t kThreadCounts[] = {0, 1, 2, 7};
constexpr size_t kDomains[] = {1023, 1024, 4096, 1u << 16};

// Integer-valued random data (uniform / spiky / piecewise) — same rationale
// as tests/mech_dawa_test.cc: power-of-two interval means are dyadic, so
// costs are exact doubles and bit-identity is a meaningful demand.
std::vector<double> RandomIntegerData(Rng& rng, size_t d, int shape) {
  std::vector<double> x(d);
  switch (shape) {
    case 0:  // uniform
      for (auto& v : x) v = static_cast<double>(rng.NextBounded(1 << 20));
      if (d > 1) std::fill(x.begin(), x.end(), x[0]);
      break;
    case 1:  // spiky
      for (auto& v : x) {
        v = rng.NextBernoulli(0.1)
                ? static_cast<double>(rng.NextBounded(1 << 20))
                : 0.0;
      }
      break;
    default:  // piecewise constant
      for (size_t i = 0; i < d;) {
        const size_t seg = std::min(d - i, 1 + rng.NextBounded(d / 4 + 1));
        const double level = static_cast<double>(rng.NextBounded(1 << 16));
        for (size_t j = 0; j < seg; ++j) x[i + j] = level;
        i += seg;
      }
      break;
  }
  return x;
}

// The engine test shapes: the three integer shapes above, then (shape 3)
// what DAWA's stage 1 hands the engine — the spiky histogram plus Lap(2/ε₁)
// noise at ε₁ = 0.25, all values distinct non-integers. Bit-identity across
// thread counts must not depend on exact arithmetic.
constexpr int kEngineShapes = 4;
std::vector<double> EngineData(Rng& rng, size_t d, int shape) {
  if (shape < 3) return RandomIntegerData(rng, d, shape);
  std::vector<double> x = RandomIntegerData(rng, d, 1);
  for (auto& v : x) v += SampleLaplace(rng, 8.0);
  return x;
}

class MechParallelTest : public ::testing::Test {
 protected:
  // One pool per grid thread count, shared by all cases in a test.
  std::vector<std::unique_ptr<ThreadPool>> MakePools() {
    std::vector<std::unique_ptr<ThreadPool>> pools;
    for (size_t t : kThreadCounts) {
      pools.push_back(std::make_unique<ThreadPool>(t));
    }
    return pools;
  }
};

TEST_F(MechParallelTest, EngineBuildBitIdenticalAcrossThreadCounts) {
  const auto pools = MakePools();
  Rng rng(0xC057);
  for (size_t d : kDomains) {
    for (int shape = 0; shape < kEngineShapes; ++shape) {
      const std::vector<double> x = EngineData(rng, d, shape);
      const IntervalCostEngine serial(x);
      for (const auto& pool : pools) {
        const IntervalCostEngine parallel(x, pool.get());
        // Compare the full deviation table, every level and start position.
        size_t mismatches = 0;
        for (size_t len = 1; len <= d; len <<= 1) {
          for (size_t b = 0; b + len <= d; ++b) {
            if (serial.Deviation(b, b + len) !=
                parallel.Deviation(b, b + len)) {
              ++mismatches;
            }
          }
        }
        EXPECT_EQ(mismatches, 0u)
            << "d=" << d << " shape=" << shape
            << " threads=" << pool->num_threads();
        EXPECT_EQ(serial.Sum(0, d), parallel.Sum(0, d));
      }
    }
  }
}

TEST_F(MechParallelTest, PartitionSolveBitIdenticalAcrossThreadCounts) {
  const auto pools = MakePools();
  Rng rng(0xDA7A);
  // The DP itself is serial; what varies is the engine build feeding it, so
  // a full-solution comparison (cost and every bucket) closes the loop from
  // sharded build to final partition. 2^16 is exercised by the engine-table
  // test above; the solve grid stops at 4096 to keep the DP cheap.
  for (size_t d : {size_t{1023}, size_t{1024}, size_t{4096}}) {
    for (int shape = 0; shape < kEngineShapes; ++shape) {
      const std::vector<double> x = EngineData(rng, d, shape);
      const double charge = 1.0 + static_cast<double>(rng.NextBounded(100));
      const L1PartitionSolution serial = SolveL1Partition(
          x, charge, DawaPositions::kEvery, DawaCostImpl::kEngine);
      for (const auto& pool : pools) {
        const L1PartitionSolution parallel =
            SolveL1Partition(x, charge, DawaPositions::kEvery,
                             DawaCostImpl::kEngine, pool.get());
        EXPECT_EQ(serial.cost, parallel.cost)
            << "d=" << d << " shape=" << shape
            << " threads=" << pool->num_threads();
        ASSERT_EQ(serial.buckets.size(), parallel.buckets.size());
        for (size_t i = 0; i < serial.buckets.size(); ++i) {
          EXPECT_EQ(serial.buckets[i].begin, parallel.buckets[i].begin);
          EXPECT_EQ(serial.buckets[i].end, parallel.buckets[i].end);
        }
      }
    }
  }
}

TEST_F(MechParallelTest, DawaEndToEndWithPoolMatchesSerialReplay) {
  // Full DAWA (noise + partition + bucket totals) with the pool wired
  // through DawaOptions, against a serial same-seed run — the same contract
  // QueryService replay relies on: pooled answers replay serially bit-for-bit.
  const auto pools = MakePools();
  Rng data_rng(0xD5EED);
  const size_t d = 2048;  // kAuto resolves to kEvery + engine here
  for (int shape = 0; shape < 3; ++shape) {
    const std::vector<double> data = RandomIntegerData(data_rng, d, shape);
    Histogram x(d);
    for (size_t i = 0; i < d; ++i) x[i] = data[i];
    DawaOptions serial_opts;
    Rng serial_rng(0xAB5 + static_cast<uint64_t>(shape));
    const auto serial = Dawa(x, 0.5, serial_opts, serial_rng);
    ASSERT_TRUE(serial.ok());
    for (const auto& pool : pools) {
      DawaOptions popts;
      popts.pool = pool.get();
      Rng parallel_rng(0xAB5 + static_cast<uint64_t>(shape));
      const auto parallel = Dawa(x, 0.5, popts, parallel_rng);
      ASSERT_TRUE(parallel.ok());
      ASSERT_EQ(serial->estimate.size(), parallel->estimate.size());
      for (size_t i = 0; i < d; ++i) {
        ASSERT_EQ(serial->estimate[i], parallel->estimate[i])
            << "shape=" << shape << " threads=" << pool->num_threads()
            << " bin=" << i;
      }
      ASSERT_EQ(serial->partition.size(), parallel->partition.size());
    }
  }
}

}  // namespace
}  // namespace osdp
