#include "src/hist/sparse_histogram.h"

#include <limits>

namespace osdp {

uint64_t EncodeNGram(const std::vector<int>& symbols, int alphabet) {
  OSDP_CHECK(alphabet > 1);
  const uint64_t base = static_cast<uint64_t>(alphabet);
  uint64_t cell = 0;
  for (int s : symbols) {
    OSDP_CHECK(s >= 0 && s < alphabet);
    // The positional code wraps silently once n·log₂(alphabet) > 64, which
    // would alias distinct n-grams onto one cell (two different trajectories
    // indistinguishable to every downstream mechanism). Fail loudly instead.
    OSDP_CHECK_MSG(cell <= (std::numeric_limits<uint64_t>::max() -
                            static_cast<uint64_t>(s)) /
                               base,
                   "n-gram code overflows uint64: n=" << symbols.size()
                                                      << " alphabet="
                                                      << alphabet);
    cell = cell * base + static_cast<uint64_t>(s);
  }
  return cell;
}

std::vector<int> DecodeNGram(uint64_t cell, int alphabet, int n) {
  OSDP_CHECK(alphabet > 1 && n > 0);
  std::vector<int> out(n);
  for (int i = n; i-- > 0;) {
    out[i] = static_cast<int>(cell % static_cast<uint64_t>(alphabet));
    cell /= static_cast<uint64_t>(alphabet);
  }
  return out;
}

}  // namespace osdp
