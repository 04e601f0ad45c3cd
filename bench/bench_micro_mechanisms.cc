// Micro-benchmarks (google-benchmark): throughput of every mechanism and of
// the hot substrate paths, across histogram sizes.

#include <benchmark/benchmark.h>

#include "src/benchdata/dpbench.h"
#include "src/benchdata/sampling.h"
#include "src/common/distributions.h"
#include "src/mech/dawa.h"
#include "src/mech/dawaz.h"
#include "src/mech/laplace.h"
#include "src/mech/osdp_laplace.h"
#include "src/mech/osdp_rr.h"

namespace osdp {
namespace {

Histogram MakeInput(size_t d) {
  Histogram x(d);
  Rng rng(1);
  for (size_t i = 0; i < d; ++i) {
    x[i] = static_cast<double>(rng.NextBounded(1000));
  }
  return x;
}

void BM_SampleLaplace(benchmark::State& state) {
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleLaplace(rng, 2.0));
  }
}
BENCHMARK(BM_SampleLaplace);

void BM_SampleOneSidedLaplace(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleOneSidedLaplace(rng, 1.0));
  }
}
BENCHMARK(BM_SampleOneSidedLaplace);

void BM_SampleBinomialLarge(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SampleBinomial(rng, 1000000, 0.63));
  }
}
BENCHMARK(BM_SampleBinomialLarge);

void BM_LaplaceMechanism(benchmark::State& state) {
  const Histogram x = MakeInput(static_cast<size_t>(state.range(0)));
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*LaplaceMechanism(x, 1.0, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LaplaceMechanism)->Arg(1024)->Arg(4096);

void BM_OsdpLaplaceL1(benchmark::State& state) {
  const Histogram x = MakeInput(static_cast<size_t>(state.range(0)));
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*OsdpLaplaceL1(x, 1.0, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OsdpLaplaceL1)->Arg(1024)->Arg(4096);

void BM_OsdpRRHistogram(benchmark::State& state) {
  const Histogram x = MakeInput(static_cast<size_t>(state.range(0)));
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*OsdpRRHistogram(x, 1.0, rng));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_OsdpRRHistogram)->Arg(1024)->Arg(4096);

void BM_DawaHalfOverlap(benchmark::State& state) {
  const Histogram x = MakeInput(static_cast<size_t>(state.range(0)));
  Rng rng(8);
  DawaOptions opts;
  opts.positions = DawaPositions::kHalfOverlap;
  for (auto _ : state) {
    benchmark::DoNotOptimize(*Dawa(x, 1.0, opts, rng));
  }
}
BENCHMARK(BM_DawaHalfOverlap)->Arg(1024)->Arg(4096);

void BM_DawaEveryPosition(benchmark::State& state) {
  const Histogram x = MakeInput(static_cast<size_t>(state.range(0)));
  Rng rng(9);
  DawaOptions opts;
  opts.positions = DawaPositions::kEvery;
  for (auto _ : state) {
    benchmark::DoNotOptimize(*Dawa(x, 1.0, opts, rng));
  }
}
BENCHMARK(BM_DawaEveryPosition)->Arg(512)->Arg(1024);

void BM_Dawaz(benchmark::State& state) {
  const Histogram x = MakeInput(static_cast<size_t>(state.range(0)));
  Rng prep(10);
  const Histogram xns = *SampleWithoutReplacement(
      x, static_cast<int64_t>(0.9 * x.Total()), prep);
  Rng rng(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*Dawaz(x, xns, 1.0, rng));
  }
}
BENCHMARK(BM_Dawaz)->Arg(1024)->Arg(4096);

void BM_MSampling(benchmark::State& state) {
  BenchmarkDataset d = *MakeDPBenchDataset("Income", 4096, 1);
  Rng rng(12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*MSampling(d.hist, 0.5, rng));
  }
}
BENCHMARK(BM_MSampling);

}  // namespace
}  // namespace osdp

BENCHMARK_MAIN();
