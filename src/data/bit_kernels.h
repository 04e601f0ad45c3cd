// Word-level popcount kernels: the one place in the library that counts set
// bits of packed 64-bit words (RowMask::Count, the sharded counts in
// src/runtime/parallel_scan.h, the AP-policy calibration).
//
// Why a kernel layer: the library is built for the baseline x86-64 ISA, which
// has no popcount instruction, so a plain __builtin_popcountll compiles to a
// call into libgcc's bit-twiddling routine. Here the loop bodies are compiled
// twice on x86-64 — once with the `popcnt` target enabled, once portable —
// and one runtime CPU check picks the body. Other targets use the portable
// body, which there is whatever the compiler's builtin lowers to. Both bodies
// return the same integer, so the dispatch never changes a result.

#ifndef OSDP_DATA_BIT_KERNELS_H_
#define OSDP_DATA_BIT_KERNELS_H_

#include <cstddef>
#include <cstdint>

namespace osdp {

/// Number of set bits in words w[lo, hi).
size_t PopcountWords(const uint64_t* w, size_t lo, size_t hi);

/// Number of set bits in (a[i] & b[i]) for i in [lo, hi): the size of the
/// intersection of two bitmaps, without materializing it.
size_t AndPopcountWords(const uint64_t* a, const uint64_t* b, size_t lo,
                        size_t hi);

namespace bit_kernels_internal {

/// The two bodies the functions above dispatch between, exposed so tests can
/// run each against a bit-by-bit oracle whatever the host CPU picks.
/// The *Hardware bodies may run only when HardwarePopcountAvailable().
bool HardwarePopcountAvailable();
size_t PopcountWordsHardware(const uint64_t* w, size_t lo, size_t hi);
size_t AndPopcountWordsHardware(const uint64_t* a, const uint64_t* b,
                                size_t lo, size_t hi);
size_t PopcountWordsPortable(const uint64_t* w, size_t lo, size_t hi);
size_t AndPopcountWordsPortable(const uint64_t* a, const uint64_t* b,
                                size_t lo, size_t hi);

}  // namespace bit_kernels_internal

}  // namespace osdp

#endif  // OSDP_DATA_BIT_KERNELS_H_
