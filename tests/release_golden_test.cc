// Release goldens: an FNV-1a hash of every released bit of each noise site
// on fixed inputs and seeds — Laplace, OsdpLaplace, OsdpLaplaceL1, the
// hybrid, Suppress, DAWA (with its buckets), DAWAz, Hierarchical,
// Hierarchicalz, AHP and AHPz (with AHP's clusters), AGrid (with its fine
// cells), NGramLaplace, and QueryService count answers at fixed QuerySeeds.
// The partition DP's answer (cost bits and buckets) is pinned too, for both
// position modes and both cost implementations, on the noisy input DAWA's
// stage 1 would see.
//
// The hashes were recorded from the serial reference implementations before
// any change that must not move a released bit (the radix-ranked cost table,
// the row-direct partition DP, the flat hierarchical tree, and routing every
// draw through src/mech/noise.h). A mismatch means a release changed; the
// fix is in the mechanism, never in this table.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/distributions.h"
#include "src/common/random.h"
#include "src/data/predicate.h"
#include "src/hist/histogram.h"
#include "src/hist/sparse_histogram.h"
#include "src/mech/agrid.h"
#include "src/mech/ahp.h"
#include "src/mech/dawa.h"
#include "src/mech/dawaz.h"
#include "src/mech/hierarchical.h"
#include "src/mech/laplace.h"
#include "src/mech/osdp_laplace.h"
#include "src/mech/recipe.h"
#include "src/mech/suppress.h"
#include "src/runtime/query_service.h"
#include "src/traj/ngram.h"
#include "tests/serial_replay.h"

namespace osdp {
namespace {

// FNV-1a over the bytes of 64-bit words.
class Fnv1a {
 public:
  void Word(uint64_t w) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (w >> (8 * i)) & 0xFF;
      h_ *= 0x100000001B3ULL;
    }
  }
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    Word(bits);
  }
  void Doubles(const std::vector<double>& v) {
    Word(v.size());
    for (double x : v) Double(x);
  }
  void Buckets(const std::vector<DawaBucket>& buckets) {
    Word(buckets.size());
    for (const DawaBucket& b : buckets) {
      Word(b.begin);
      Word(b.end);
    }
  }
  void Groups(const BinGroups& groups) {
    Word(groups.size());
    for (const std::vector<uint32_t>& g : groups) {
      Word(g.size());
      for (uint32_t bin : g) Word(bin);
    }
  }
  // Cells in key order: the map's iteration order is not part of a release.
  void Cells(const SparseHistogram& h) {
    std::vector<std::pair<uint64_t, double>> cells(h.cells().begin(),
                                                   h.cells().end());
    std::sort(cells.begin(), cells.end());
    Word(cells.size());
    for (const auto& [cell, v] : cells) {
      Word(cell);
      Double(v);
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xCBF29CE484222325ULL;
};

// Integer histograms built from SplitMix64 alone, so the inputs do not move
// with any library code.
uint64_t SplitMix(uint64_t& s) {
  uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// sparse: 90% empty bins, the rest 1–64 records.
// spiky: a base of 0–3 records per bin with 2% spikes of up to 2^16.
Histogram MakeInput(size_t d, bool spiky, uint64_t seed) {
  Histogram x(d);
  uint64_t s = seed;
  for (size_t i = 0; i < d; ++i) {
    const uint64_t r = SplitMix(s);
    if (spiky) {
      x[i] = static_cast<double>(r % 4);
      if ((r >> 8) % 50 == 0) x[i] += static_cast<double>((r >> 16) % 65536);
    } else if ((r >> 8) % 10 == 0) {
      x[i] = static_cast<double>(1 + (r >> 16) % 64);
    }
  }
  return x;
}

// The non-sensitive part: every third bin is sensitive, the rest keep half.
Histogram NonSensitive(const Histogram& x) {
  Histogram xns(x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    xns[i] = i % 3 == 0 ? 0.0 : static_cast<double>(
                                    static_cast<uint64_t>(x[i]) / 2);
  }
  return xns;
}

// Every third bin is sensitive: the bins NonSensitive empties.
std::vector<bool> SensitiveBins(size_t d) {
  std::vector<bool> sensitive(d);
  for (size_t i = 0; i < d; ++i) sensitive[i] = i % 3 == 0;
  return sensitive;
}

// The non-empty bins of `x` as n-gram cells.
SparseHistogram AsCells(const Histogram& x) {
  SparseHistogram cells(static_cast<double>(x.size()));
  for (size_t i = 0; i < x.size(); ++i) {
    if (x[i] != 0.0) cells.Set(i, x[i]);
  }
  return cells;
}

// Each domain is square, so AGrid sees it as side x side.
constexpr size_t kDomains[] = {100, 1024, 4096};
constexpr double kEpsilons[] = {0.01, 1.0};

// Every golden, keyed "<release> d=<d> eps=<ε> <shape>".
std::map<std::string, uint64_t> ComputeHashes() {
  std::map<std::string, uint64_t> out;
  for (size_t d : kDomains) {
    for (double eps : kEpsilons) {
      for (bool spiky : {false, true}) {
        char key[64];
        std::snprintf(key, sizeof key, " d=%zu eps=%g %s", d, eps,
                      spiky ? "spiky" : "sparse");
        const uint64_t seed =
            d * 1000003 + static_cast<uint64_t>(eps * 100) * 31 + spiky;
        const Histogram x = MakeInput(d, spiky, seed);
        const Histogram xns = NonSensitive(x);
        const auto put = [&](const char* what, const Fnv1a& h) {
          out[std::string(what) + key] = h.value();
        };

        {
          Rng rng(seed);
          const auto r = Dawa(x, eps, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->estimate.counts());
          h.Buckets(r->partition);
          put("DAWA", h);
        }
        {
          Rng rng(seed + 1);
          const auto r = Dawaz(x, xns, eps, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->counts());
          put("DAWAz", h);
        }
        {
          Rng rng(seed + 2);
          const auto r =
              HierarchicalRelease(x, eps, HierarchicalOptions{}, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->counts());
          put("Hierarchical", h);
        }
        {
          // Fanout 7 leaves unbalanced subtrees on every domain here, where
          // the variance-weighted split differs from an equal one.
          HierarchicalOptions opts;
          opts.fanout = 7;
          Rng rng(seed + 5);
          const auto r = HierarchicalRelease(x, eps, opts, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->counts());
          put("Hierarchical fanout=7", h);
        }
        {
          Rng rng(seed + 3);
          const auto mech = MakeRecipeMechanism(MakeHierarchicalTwoPhase());
          const auto r = mech->Run(x, xns, eps, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->counts());
          put("Hierarchicalz", h);
        }
        {
          Rng rng(seed + 6);
          const auto r = LaplaceMechanism(x, eps, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->counts());
          put("Laplace", h);
        }
        {
          Rng rng(seed + 7);
          const auto r = OsdpLaplace(xns, eps, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->counts());
          put("OsdpLaplace", h);
        }
        {
          Rng rng(seed + 8);
          const auto r = OsdpLaplaceL1(xns, eps, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->counts());
          put("OsdpLaplaceL1", h);
        }
        {
          Rng rng(seed + 9);
          const auto r =
              OsdpLaplaceL1Hybrid(x, xns, SensitiveBins(d), eps, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->counts());
          put("OsdpLaplaceL1Hybrid", h);
        }
        {
          SuppressOptions opts;
          opts.tau = 10.0;
          Rng rng(seed + 10);
          const auto r = Suppress(xns, opts, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->counts());
          put("Suppress tau=10", h);
        }
        {
          Rng rng(seed + 11);
          const auto r = MakeAhpTwoPhase()->Run(x, eps, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->estimate.counts());
          h.Groups(r->groups);
          put("AHP", h);
        }
        {
          Rng rng(seed + 12);
          const auto mech = MakeRecipeMechanism(MakeAhpTwoPhase());
          const auto r = mech->Run(x, xns, eps, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->counts());
          put("AHPz", h);
        }
        {
          AGridOptions opts;
          opts.rows = d == 100 ? 10 : d == 1024 ? 32 : 64;
          opts.cols = d / opts.rows;
          Rng rng(seed + 13);
          const auto r = AGrid(x, eps, opts, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Doubles(r->estimate.counts());
          h.Groups(r->groups);
          put("AGrid", h);
        }
        {
          Rng rng(seed + 14);
          const auto r = NGramLaplace(AsCells(x), /*k=*/3, eps, rng);
          EXPECT_TRUE(r.ok());
          Fnv1a h;
          h.Cells(*r);
          put("NGramLaplace k=3", h);
        }

        // DAWA's stage-1 input and bucket charge at this ε.
        Rng rng(seed + 4);
        std::vector<double> noisy = x.counts();
        const double eps1 = 0.25 * eps;
        for (double& v : noisy) v += SampleLaplace(rng, 2.0 / eps1);
        const double charge = 2.0 / (eps - eps1);
        for (DawaPositions pos :
             {DawaPositions::kEvery, DawaPositions::kHalfOverlap}) {
          for (DawaCostImpl impl :
               {DawaCostImpl::kNaive, DawaCostImpl::kEngine}) {
            const L1PartitionSolution s =
                SolveL1Partition(noisy, charge, pos, impl);
            Fnv1a h;
            h.Double(s.cost);
            h.Buckets(s.buckets);
            put(pos == DawaPositions::kEvery
                    ? (impl == DawaCostImpl::kNaive ? "DP every naive"
                                                    : "DP every engine")
                    : (impl == DawaCostImpl::kNaive ? "DP half naive"
                                                    : "DP half engine"),
                h);
          }
        }
      }
    }
  }
  // Count answers of a QueryService over a census table: two sessions, eight
  // WHERE clauses each, at both ε. Each answer is seeded by its QuerySeed.
  QueryService::Options sopts;
  sopts.per_session_epsilon = 100.0;
  sopts.seed = 0x5EED;
  auto service = *QueryService::Create(CensusEngine(1000.0, 3000), sopts);
  const Predicate wheres[] = {
      Predicate::Le("age", Value(40)),
      Predicate::Gt("age", Value(90)),
      Predicate::Eq("opt_in", Value(1)),
      Predicate::Gt("income", Value(30000.0)),
      Predicate::In("race", {Value("C1"), Value("C2")}),
      Predicate::And(Predicate::Ge("age", Value(30)),
                     Predicate::Lt("age", Value(31))),
      Predicate::Lt("age", Value(0)),
      Predicate::Ge("age", Value(0)),
  };
  for (int s = 0; s < 2; ++s) {
    const QueryService::SessionId session =
        service->OpenSession("golden" + std::to_string(s));
    for (double eps : kEpsilons) {
      Fnv1a h;
      for (const Predicate& where : wheres) {
        const auto answer = service->AnswerCount(session, where, eps);
        EXPECT_TRUE(answer.ok());
        h.Word(answer->seq);
        h.Double(answer->count);
      }
      char key[64];
      std::snprintf(key, sizeof key, "QueryService count session=%d eps=%g",
                    s, eps);
      out[key] = h.value();
    }
  }
  return out;
}

const std::map<std::string, uint64_t> kGoldens = {
    {"AGrid d=100 eps=0.01 sparse", 0xcac39a6e20d358f6ULL},
    {"AGrid d=100 eps=0.01 spiky", 0x431dd3810a923827ULL},
    {"AGrid d=100 eps=1 sparse", 0xd6a58fafd91c6a06ULL},
    {"AGrid d=100 eps=1 spiky", 0xf2419008478d2194ULL},
    {"AGrid d=1024 eps=0.01 sparse", 0xf3adcd81146e6ebdULL},
    {"AGrid d=1024 eps=0.01 spiky", 0x654e843c062e2665ULL},
    {"AGrid d=1024 eps=1 sparse", 0x69a590854009b746ULL},
    {"AGrid d=1024 eps=1 spiky", 0x4787fde0b44d42d5ULL},
    {"AGrid d=4096 eps=0.01 sparse", 0x8e21642e9c1add44ULL},
    {"AGrid d=4096 eps=0.01 spiky", 0x7f1329387b065605ULL},
    {"AGrid d=4096 eps=1 sparse", 0x46ef8f0a09e7ea6eULL},
    {"AGrid d=4096 eps=1 spiky", 0xc0dfa6e6016f89e7ULL},
    {"AHP d=100 eps=0.01 sparse", 0x6a57ef7181e10612ULL},
    {"AHP d=100 eps=0.01 spiky", 0xb6f25d1ca8e5609bULL},
    {"AHP d=100 eps=1 sparse", 0x046d3983e373a809ULL},
    {"AHP d=100 eps=1 spiky", 0xf4d7b6a9e17a6858ULL},
    {"AHP d=1024 eps=0.01 sparse", 0x147c6777b666b9f1ULL},
    {"AHP d=1024 eps=0.01 spiky", 0x8b3abf8f1f3b6b51ULL},
    {"AHP d=1024 eps=1 sparse", 0xbc6d885bf99543ebULL},
    {"AHP d=1024 eps=1 spiky", 0xe43cab7f3055125aULL},
    {"AHP d=4096 eps=0.01 sparse", 0x5c62b804d6b50913ULL},
    {"AHP d=4096 eps=0.01 spiky", 0x84e2df9b86a40422ULL},
    {"AHP d=4096 eps=1 sparse", 0xdd9c7d5cb4e365f4ULL},
    {"AHP d=4096 eps=1 spiky", 0xb43cbad1483f3770ULL},
    {"AHPz d=100 eps=0.01 sparse", 0xaba1e6f7cf40d1e1ULL},
    {"AHPz d=100 eps=0.01 spiky", 0x8b4337fb4df07b42ULL},
    {"AHPz d=100 eps=1 sparse", 0x3b63a4eb8c0e9541ULL},
    {"AHPz d=100 eps=1 spiky", 0xaba1e6f7cf40d1e1ULL},
    {"AHPz d=1024 eps=0.01 sparse", 0xb88b49a4c424d644ULL},
    {"AHPz d=1024 eps=0.01 spiky", 0xe38c55f728a84f7bULL},
    {"AHPz d=1024 eps=1 sparse", 0xba0186d19d4fdb28ULL},
    {"AHPz d=1024 eps=1 spiky", 0x1016422c72b35fd2ULL},
    {"AHPz d=4096 eps=0.01 sparse", 0x7e0d1fc3bd98bf75ULL},
    {"AHPz d=4096 eps=0.01 spiky", 0xfe82f7a2f92ec79fULL},
    {"AHPz d=4096 eps=1 sparse", 0x8ecdb15c407196e0ULL},
    {"AHPz d=4096 eps=1 spiky", 0xba161e2d7e8c5190ULL},
    {"DAWA d=100 eps=0.01 sparse", 0x190c70c480f01486ULL},
    {"DAWA d=100 eps=0.01 spiky", 0xc7526f2f05460d93ULL},
    {"DAWA d=100 eps=1 sparse", 0x2cc35aac2c028b3dULL},
    {"DAWA d=100 eps=1 spiky", 0xb5811ecde56df709ULL},
    {"DAWA d=1024 eps=0.01 sparse", 0xcac643fe1df02ac4ULL},
    {"DAWA d=1024 eps=0.01 spiky", 0xb1cbe2d8c223c921ULL},
    {"DAWA d=1024 eps=1 sparse", 0x95ff7cba1994cc77ULL},
    {"DAWA d=1024 eps=1 spiky", 0xe22c7b57cf9f1373ULL},
    {"DAWA d=4096 eps=0.01 sparse", 0x280ac4a437401294ULL},
    {"DAWA d=4096 eps=0.01 spiky", 0x77d1561a37f8d569ULL},
    {"DAWA d=4096 eps=1 sparse", 0x01061ac03d61a63dULL},
    {"DAWA d=4096 eps=1 spiky", 0xa81aec185c8b7ee8ULL},
    {"DAWAz d=100 eps=0.01 sparse", 0xaba1e6f7cf40d1e1ULL},
    {"DAWAz d=100 eps=0.01 spiky", 0xdc01be893c285f31ULL},
    {"DAWAz d=100 eps=1 sparse", 0xfebc57c55900a44aULL},
    {"DAWAz d=100 eps=1 spiky", 0x290845266d7a1b1fULL},
    {"DAWAz d=1024 eps=0.01 sparse", 0xda5db3adff36bc93ULL},
    {"DAWAz d=1024 eps=0.01 spiky", 0x7fa9295820739c53ULL},
    {"DAWAz d=1024 eps=1 sparse", 0x6c6e6e64ed99ebc7ULL},
    {"DAWAz d=1024 eps=1 spiky", 0x8ee2c7b390e5c346ULL},
    {"DAWAz d=4096 eps=0.01 sparse", 0x5613253adb29111dULL},
    {"DAWAz d=4096 eps=0.01 spiky", 0xbcbedbef6ebbc736ULL},
    {"DAWAz d=4096 eps=1 sparse", 0x609491e4a82ceff9ULL},
    {"DAWAz d=4096 eps=1 spiky", 0x606e9f46727b3bb4ULL},
    {"DP every engine d=100 eps=0.01 sparse", 0x2f1efa76906d19d8ULL},
    {"DP every engine d=100 eps=0.01 spiky", 0x43398c0628b1bfe5ULL},
    {"DP every engine d=100 eps=1 sparse", 0xfd14890d225016a9ULL},
    {"DP every engine d=100 eps=1 spiky", 0x4a359722d4ac722cULL},
    {"DP every engine d=1024 eps=0.01 sparse", 0xb83a16b4677f166bULL},
    {"DP every engine d=1024 eps=0.01 spiky", 0xce1062da35733e76ULL},
    {"DP every engine d=1024 eps=1 sparse", 0x8b80e17b31a8ef33ULL},
    {"DP every engine d=1024 eps=1 spiky", 0xe30830c3e8888b64ULL},
    {"DP every engine d=4096 eps=0.01 sparse", 0xb94b5581a8e4b962ULL},
    {"DP every engine d=4096 eps=0.01 spiky", 0x7c0e7a0ed6e0099cULL},
    {"DP every engine d=4096 eps=1 sparse", 0xe505324fc2861276ULL},
    {"DP every engine d=4096 eps=1 spiky", 0xdb3388233495e23aULL},
    {"DP every naive d=100 eps=0.01 sparse", 0x672ee2a4dae2f66cULL},
    {"DP every naive d=100 eps=0.01 spiky", 0x622cc94f85e5fd06ULL},
    {"DP every naive d=100 eps=1 sparse", 0x96a28bf4627e4564ULL},
    {"DP every naive d=100 eps=1 spiky", 0x9ec5cec5396db6bcULL},
    {"DP every naive d=1024 eps=0.01 sparse", 0x058277440cd4b4a1ULL},
    {"DP every naive d=1024 eps=0.01 spiky", 0x5fe803573a9ea6a8ULL},
    {"DP every naive d=1024 eps=1 sparse", 0x6885770fc9684509ULL},
    {"DP every naive d=1024 eps=1 spiky", 0xb931d38592d6cc32ULL},
    {"DP every naive d=4096 eps=0.01 sparse", 0xb94b5581a8e4b962ULL},
    {"DP every naive d=4096 eps=0.01 spiky", 0x2249bb5aa4cc09bbULL},
    {"DP every naive d=4096 eps=1 sparse", 0x974e2b6996b00662ULL},
    {"DP every naive d=4096 eps=1 spiky", 0xe2e7e34fd2fb5be3ULL},
    {"DP half engine d=100 eps=0.01 sparse", 0x2f1efa76906d19d8ULL},
    {"DP half engine d=100 eps=0.01 spiky", 0xbdf4503cae800710ULL},
    {"DP half engine d=100 eps=1 sparse", 0x9f530569fc2cda08ULL},
    {"DP half engine d=100 eps=1 spiky", 0x4a359722d4ac722cULL},
    {"DP half engine d=1024 eps=0.01 sparse", 0x6e998ebcf8b4e913ULL},
    {"DP half engine d=1024 eps=0.01 spiky", 0xf3f98dde46b6f426ULL},
    {"DP half engine d=1024 eps=1 sparse", 0x759e891649cab17dULL},
    {"DP half engine d=1024 eps=1 spiky", 0x162d0beb3c63215aULL},
    {"DP half engine d=4096 eps=0.01 sparse", 0x79867e176c5b33d4ULL},
    {"DP half engine d=4096 eps=0.01 spiky", 0x0668e6aee1953e5aULL},
    {"DP half engine d=4096 eps=1 sparse", 0x6bdd551aabda7205ULL},
    {"DP half engine d=4096 eps=1 spiky", 0x17148780c39489c8ULL},
    {"DP half naive d=100 eps=0.01 sparse", 0x672ee2a4dae2f66cULL},
    {"DP half naive d=100 eps=0.01 spiky", 0x89a0ff172be1d243ULL},
    {"DP half naive d=100 eps=1 sparse", 0x0e60530a0354dfe3ULL},
    {"DP half naive d=100 eps=1 spiky", 0x9ec5cec5396db6bcULL},
    {"DP half naive d=1024 eps=0.01 sparse", 0x2bf898bd2a247428ULL},
    {"DP half naive d=1024 eps=0.01 spiky", 0x77b24194cb0c46a0ULL},
    {"DP half naive d=1024 eps=1 sparse", 0xd0c197961ee0bbacULL},
    {"DP half naive d=1024 eps=1 spiky", 0xeef40ae45337bb96ULL},
    {"DP half naive d=4096 eps=0.01 sparse", 0x79867e176c5b33d4ULL},
    {"DP half naive d=4096 eps=0.01 spiky", 0xca2d001c643bbc1bULL},
    {"DP half naive d=4096 eps=1 sparse", 0xe8581d05b52e45e7ULL},
    {"DP half naive d=4096 eps=1 spiky", 0x6e7f25ea8556e34bULL},
    {"Hierarchical d=100 eps=0.01 sparse", 0x3eab799cb83bcd0bULL},
    {"Hierarchical d=100 eps=0.01 spiky", 0x3550bca262c3cc32ULL},
    {"Hierarchical d=100 eps=1 sparse", 0x563209a5d1c6f4daULL},
    {"Hierarchical d=100 eps=1 spiky", 0x0839606b077820a7ULL},
    {"Hierarchical d=1024 eps=0.01 sparse", 0x17da88047b6bc6b4ULL},
    {"Hierarchical d=1024 eps=0.01 spiky", 0xa5fd4cc5410d560dULL},
    {"Hierarchical d=1024 eps=1 sparse", 0xbaabd1c30eb66f61ULL},
    {"Hierarchical d=1024 eps=1 spiky", 0x38b04a659e3484a0ULL},
    {"Hierarchical d=4096 eps=0.01 sparse", 0x67dcbbd2b2e5452aULL},
    {"Hierarchical d=4096 eps=0.01 spiky", 0x7ba2fa14649cd521ULL},
    {"Hierarchical d=4096 eps=1 sparse", 0x7c410c64b9db6270ULL},
    {"Hierarchical d=4096 eps=1 spiky", 0xe1a36a32cc8c8806ULL},
    {"Hierarchical fanout=7 d=100 eps=0.01 sparse", 0x1532ada4281f4687ULL},
    {"Hierarchical fanout=7 d=100 eps=0.01 spiky", 0x050f37fff6452626ULL},
    {"Hierarchical fanout=7 d=100 eps=1 sparse", 0x3a83005128bce949ULL},
    {"Hierarchical fanout=7 d=100 eps=1 spiky", 0xf40f0b03ff085fd2ULL},
    {"Hierarchical fanout=7 d=1024 eps=0.01 sparse", 0xf2bcb7bb07b7d0eeULL},
    {"Hierarchical fanout=7 d=1024 eps=0.01 spiky", 0xec16104ad395cf7aULL},
    {"Hierarchical fanout=7 d=1024 eps=1 sparse", 0x9000962929dd9d58ULL},
    {"Hierarchical fanout=7 d=1024 eps=1 spiky", 0xd012be7654575292ULL},
    {"Hierarchical fanout=7 d=4096 eps=0.01 sparse", 0x2b45188653866357ULL},
    {"Hierarchical fanout=7 d=4096 eps=0.01 spiky", 0xb091dedc6fc3363fULL},
    {"Hierarchical fanout=7 d=4096 eps=1 sparse", 0xf005c1c960c50f82ULL},
    {"Hierarchical fanout=7 d=4096 eps=1 spiky", 0x539a54b00385511eULL},
    {"Hierarchicalz d=100 eps=0.01 sparse", 0xaba1e6f7cf40d1e1ULL},
    {"Hierarchicalz d=100 eps=0.01 spiky", 0xc48114a65374b031ULL},
    {"Hierarchicalz d=100 eps=1 sparse", 0x7ff5733a7c95b42bULL},
    {"Hierarchicalz d=100 eps=1 spiky", 0xfb8ef0c8c13a1effULL},
    {"Hierarchicalz d=1024 eps=0.01 sparse", 0x2389257ee26a74beULL},
    {"Hierarchicalz d=1024 eps=0.01 spiky", 0x9540ecceda632c6aULL},
    {"Hierarchicalz d=1024 eps=1 sparse", 0x8457bf465f7b27d1ULL},
    {"Hierarchicalz d=1024 eps=1 spiky", 0x27d46d9e9e3da335ULL},
    {"Hierarchicalz d=4096 eps=0.01 sparse", 0xa2d630b8a3516876ULL},
    {"Hierarchicalz d=4096 eps=0.01 spiky", 0x7c6a0fdc41caf162ULL},
    {"Hierarchicalz d=4096 eps=1 sparse", 0x2cccc857e0c0084dULL},
    {"Hierarchicalz d=4096 eps=1 spiky", 0x2dc2d97c1c38015fULL},
    {"Laplace d=100 eps=0.01 sparse", 0xdddf93214ff45b72ULL},
    {"Laplace d=100 eps=0.01 spiky", 0x2ecfbf1a7b73b2a0ULL},
    {"Laplace d=100 eps=1 sparse", 0x97e743637368a495ULL},
    {"Laplace d=100 eps=1 spiky", 0xa598eea5a52ea062ULL},
    {"Laplace d=1024 eps=0.01 sparse", 0x56005b4bc01e4cd7ULL},
    {"Laplace d=1024 eps=0.01 spiky", 0x74b0842c6fa96177ULL},
    {"Laplace d=1024 eps=1 sparse", 0xa86fe1953e83eb59ULL},
    {"Laplace d=1024 eps=1 spiky", 0x3a68ba0dabdeb3edULL},
    {"Laplace d=4096 eps=0.01 sparse", 0x0cf80680c21447c8ULL},
    {"Laplace d=4096 eps=0.01 spiky", 0xa9f66475c67b9bdaULL},
    {"Laplace d=4096 eps=1 sparse", 0x1259dae9b20417abULL},
    {"Laplace d=4096 eps=1 spiky", 0xfe2ea610f28f35d7ULL},
    {"NGramLaplace k=3 d=100 eps=0.01 sparse", 0xdb30719cb386944dULL},
    {"NGramLaplace k=3 d=100 eps=0.01 spiky", 0x40d3fc9375a95e62ULL},
    {"NGramLaplace k=3 d=100 eps=1 sparse", 0x61f8d79a8d7630c9ULL},
    {"NGramLaplace k=3 d=100 eps=1 spiky", 0xcda13c5b07470723ULL},
    {"NGramLaplace k=3 d=1024 eps=0.01 sparse", 0x9687aa4c15afbfebULL},
    {"NGramLaplace k=3 d=1024 eps=0.01 spiky", 0x725e5dcc75df6990ULL},
    {"NGramLaplace k=3 d=1024 eps=1 sparse", 0x2b95f2bfd90db145ULL},
    {"NGramLaplace k=3 d=1024 eps=1 spiky", 0xd67561c8b7f81618ULL},
    {"NGramLaplace k=3 d=4096 eps=0.01 sparse", 0x6c5c7daa9299d375ULL},
    {"NGramLaplace k=3 d=4096 eps=0.01 spiky", 0xe7afc8e064729e63ULL},
    {"NGramLaplace k=3 d=4096 eps=1 sparse", 0xd372e2eb1bb1079dULL},
    {"NGramLaplace k=3 d=4096 eps=1 spiky", 0x6bb231bb8b171f1fULL},
    {"OsdpLaplace d=100 eps=0.01 sparse", 0x17257c966698ac92ULL},
    {"OsdpLaplace d=100 eps=0.01 spiky", 0xecb2c6ed5744e448ULL},
    {"OsdpLaplace d=100 eps=1 sparse", 0x3e6fa1e4cbf903a9ULL},
    {"OsdpLaplace d=100 eps=1 spiky", 0x543243d4619911d9ULL},
    {"OsdpLaplace d=1024 eps=0.01 sparse", 0xd9400008007c9710ULL},
    {"OsdpLaplace d=1024 eps=0.01 spiky", 0x89eac185a1908238ULL},
    {"OsdpLaplace d=1024 eps=1 sparse", 0xb6511d5536c9b30aULL},
    {"OsdpLaplace d=1024 eps=1 spiky", 0x376c1d72fef80d6fULL},
    {"OsdpLaplace d=4096 eps=0.01 sparse", 0xe6d5aeb3fb0d4be0ULL},
    {"OsdpLaplace d=4096 eps=0.01 spiky", 0xfee3a2e514f1b089ULL},
    {"OsdpLaplace d=4096 eps=1 sparse", 0xbe57b35fd0792e10ULL},
    {"OsdpLaplace d=4096 eps=1 spiky", 0x65be4b4e6c888aafULL},
    {"OsdpLaplaceL1 d=100 eps=0.01 sparse", 0xc873cedf77c63798ULL},
    {"OsdpLaplaceL1 d=100 eps=0.01 spiky", 0xecfeeb30cc7149d8ULL},
    {"OsdpLaplaceL1 d=100 eps=1 sparse", 0x7eafaca1307c38b9ULL},
    {"OsdpLaplaceL1 d=100 eps=1 spiky", 0x0a08bed40b2a46d2ULL},
    {"OsdpLaplaceL1 d=1024 eps=0.01 sparse", 0xe58ce72ed590aca6ULL},
    {"OsdpLaplaceL1 d=1024 eps=0.01 spiky", 0x71d67fb72a6040ccULL},
    {"OsdpLaplaceL1 d=1024 eps=1 sparse", 0x9fcf321a59904e82ULL},
    {"OsdpLaplaceL1 d=1024 eps=1 spiky", 0x85d5e654fdfe8c46ULL},
    {"OsdpLaplaceL1 d=4096 eps=0.01 sparse", 0x19b123e40a7133ccULL},
    {"OsdpLaplaceL1 d=4096 eps=0.01 spiky", 0x4d59b7a6ebf730e9ULL},
    {"OsdpLaplaceL1 d=4096 eps=1 sparse", 0xadad86ed47f1c638ULL},
    {"OsdpLaplaceL1 d=4096 eps=1 spiky", 0x7eecd8f12317f028ULL},
    {"OsdpLaplaceL1Hybrid d=100 eps=0.01 sparse", 0x9378818ea81209fbULL},
    {"OsdpLaplaceL1Hybrid d=100 eps=0.01 spiky", 0x92aa21db46eef0bcULL},
    {"OsdpLaplaceL1Hybrid d=100 eps=1 sparse", 0x45686902aa021e02ULL},
    {"OsdpLaplaceL1Hybrid d=100 eps=1 spiky", 0xb5f89435bbf7b82cULL},
    {"OsdpLaplaceL1Hybrid d=1024 eps=0.01 sparse", 0x88c33ffbf7073f50ULL},
    {"OsdpLaplaceL1Hybrid d=1024 eps=0.01 spiky", 0x6c956e7b631298d4ULL},
    {"OsdpLaplaceL1Hybrid d=1024 eps=1 sparse", 0xa320e4542af41993ULL},
    {"OsdpLaplaceL1Hybrid d=1024 eps=1 spiky", 0x850acfd19a2138b7ULL},
    {"OsdpLaplaceL1Hybrid d=4096 eps=0.01 sparse", 0xa91adbdbda2b93c2ULL},
    {"OsdpLaplaceL1Hybrid d=4096 eps=0.01 spiky", 0x0dde43b2630407acULL},
    {"OsdpLaplaceL1Hybrid d=4096 eps=1 sparse", 0xddee2561ae11bb2bULL},
    {"OsdpLaplaceL1Hybrid d=4096 eps=1 spiky", 0x6911fbbfb1e6ae7cULL},
    {"QueryService count session=0 eps=0.01", 0x929bbd773f0f45e5ULL},
    {"QueryService count session=0 eps=1", 0x6393e18ebaabf111ULL},
    {"QueryService count session=1 eps=0.01", 0xa6ae649c4f514654ULL},
    {"QueryService count session=1 eps=1", 0x98b0daa90b7d56a8ULL},
    {"Suppress tau=10 d=100 eps=0.01 sparse", 0xb00ff0f33b770315ULL},
    {"Suppress tau=10 d=100 eps=0.01 spiky", 0x7e91db68f1c82892ULL},
    {"Suppress tau=10 d=100 eps=1 sparse", 0x37b2e0460353c637ULL},
    {"Suppress tau=10 d=100 eps=1 spiky", 0xb68174835d351cd8ULL},
    {"Suppress tau=10 d=1024 eps=0.01 sparse", 0x6023b5a91fd75a7eULL},
    {"Suppress tau=10 d=1024 eps=0.01 spiky", 0x12dd4dcd814a595fULL},
    {"Suppress tau=10 d=1024 eps=1 sparse", 0xa6e2d09d6dcc8a4aULL},
    {"Suppress tau=10 d=1024 eps=1 spiky", 0x8af636d2294cad86ULL},
    {"Suppress tau=10 d=4096 eps=0.01 sparse", 0x7103bee1820edd27ULL},
    {"Suppress tau=10 d=4096 eps=0.01 spiky", 0xf4dc317f00ed2f87ULL},
    {"Suppress tau=10 d=4096 eps=1 sparse", 0xa33d7f139bb83052ULL},
    {"Suppress tau=10 d=4096 eps=1 spiky", 0x5073a620d725b172ULL},
};

TEST(ReleaseGoldenTest, EveryReleaseBitMatchesTheRecordedHash) {
  const std::map<std::string, uint64_t> actual = ComputeHashes();
  ASSERT_EQ(actual.size(), 18u * 12u + 4u);
  for (const auto& [key, hash] : actual) {
    const auto it = kGoldens.find(key);
    char line[128];
    std::snprintf(line, sizeof line, "    {\"%s\", 0x%016llxULL},",
                  key.c_str(), static_cast<unsigned long long>(hash));
    if (it == kGoldens.end()) {
      ADD_FAILURE() << "no golden for\n" << line;
    } else {
      EXPECT_EQ(it->second, hash) << "release changed:\n" << line;
    }
  }
}

}  // namespace
}  // namespace osdp
