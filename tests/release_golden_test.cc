// Release goldens: an FNV-1a hash of every released bit of DAWA, DAWAz,
// Hierarchical and Hierarchicalz, and of DAWA's buckets, on fixed inputs and
// seeds. The partition DP's answer (cost bits and buckets) is pinned too,
// for both position modes and both cost implementations, on the noisy input
// DAWA's stage 1 would see.
//
// The hashes were recorded from the serial reference implementations before
// any of the mechanism-layer speedups that must not change a released bit
// (the radix-ranked cost table, the row-direct partition DP, the flat
// hierarchical tree). A mismatch means a release changed; the fix is in the
// mechanism, never in this table.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/distributions.h"
#include "src/common/random.h"
#include "src/hist/histogram.h"
#include "src/mech/dawa.h"
#include "src/mech/dawaz.h"
#include "src/mech/hierarchical.h"
#include "src/mech/recipe.h"

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
  return out;
}

const std::map<std::string, uint64_t> kGoldens = {
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
};

TEST(ReleaseGoldenTest, EveryReleaseBitMatchesTheRecordedHash) {
  const std::map<std::string, uint64_t> actual = ComputeHashes();
  ASSERT_EQ(actual.size(), 9u * 12u);
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
