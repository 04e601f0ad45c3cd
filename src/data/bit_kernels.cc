#include "src/data/bit_kernels.h"

// x86-64 builds compile a popcnt-enabled copy of each loop and choose it at
// run time; everywhere else the portable body is the only body.
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define OSDP_POPCNT_DISPATCH 1
#else
#define OSDP_POPCNT_DISPATCH 0
#endif

namespace osdp {

namespace {

// The loop bodies. Forced inline into each variant below, so the builtin is
// lowered under that variant's target options: a `popcnt` instruction in the
// hardware variant, the compiler's generic sequence in the portable one.
__attribute__((always_inline)) inline size_t PopcountLoop(const uint64_t* w,
                                                          size_t lo,
                                                          size_t hi) {
  size_t n = 0;
  for (size_t i = lo; i < hi; ++i) {
    n += static_cast<size_t>(__builtin_popcountll(w[i]));
  }
  return n;
}

__attribute__((always_inline)) inline size_t AndPopcountLoop(
    const uint64_t* a, const uint64_t* b, size_t lo, size_t hi) {
  size_t n = 0;
  for (size_t i = lo; i < hi; ++i) {
    n += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  }
  return n;
}

}  // namespace

namespace bit_kernels_internal {

size_t PopcountWordsPortable(const uint64_t* w, size_t lo, size_t hi) {
  return PopcountLoop(w, lo, hi);
}

size_t AndPopcountWordsPortable(const uint64_t* a, const uint64_t* b,
                                size_t lo, size_t hi) {
  return AndPopcountLoop(a, b, lo, hi);
}

#if OSDP_POPCNT_DISPATCH

bool HardwarePopcountAvailable() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt") != 0;
  }();
  return available;
}

__attribute__((target("popcnt"))) size_t PopcountWordsHardware(
    const uint64_t* w, size_t lo, size_t hi) {
  return PopcountLoop(w, lo, hi);
}

__attribute__((target("popcnt"))) size_t AndPopcountWordsHardware(
    const uint64_t* a, const uint64_t* b, size_t lo, size_t hi) {
  return AndPopcountLoop(a, b, lo, hi);
}

#else

bool HardwarePopcountAvailable() { return false; }

size_t PopcountWordsHardware(const uint64_t* w, size_t lo, size_t hi) {
  return PopcountLoop(w, lo, hi);
}

size_t AndPopcountWordsHardware(const uint64_t* a, const uint64_t* b,
                                size_t lo, size_t hi) {
  return AndPopcountLoop(a, b, lo, hi);
}

#endif

}  // namespace bit_kernels_internal

size_t PopcountWords(const uint64_t* w, size_t lo, size_t hi) {
  namespace k = bit_kernels_internal;
  return k::HardwarePopcountAvailable() ? k::PopcountWordsHardware(w, lo, hi)
                                        : k::PopcountWordsPortable(w, lo, hi);
}

size_t AndPopcountWords(const uint64_t* a, const uint64_t* b, size_t lo,
                        size_t hi) {
  namespace k = bit_kernels_internal;
  return k::HardwarePopcountAvailable()
             ? k::AndPopcountWordsHardware(a, b, lo, hi)
             : k::AndPopcountWordsPortable(a, b, lo, hi);
}

}  // namespace osdp
