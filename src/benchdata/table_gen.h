// Synthetic record-level tables for scan benchmarks and property tests.
//
// The DPBench generators (dpbench.h) synthesize *histograms*; the compiled
// predicate pipeline operates a level below, on the columnar Table itself.
// This module materializes record-level datasets of arbitrary scale with the
// mixed column types (int64 / double / string) that policies and WHERE
// clauses exercise, deterministically from a seed.

#ifndef OSDP_BENCHDATA_TABLE_GEN_H_
#define OSDP_BENCHDATA_TABLE_GEN_H_

#include <cstdint>

#include "src/data/table.h"

namespace osdp {

/// Options for MakeCensusTable.
struct CensusTableOptions {
  size_t num_rows = 100000;
  uint64_t seed = 0x05D9;
};

/// \brief A census-style table with schema
///   (age:int64, income:double, race:string, opt_in:int64, zip:int64)
/// — the shape of the paper's running example (Section 3.1). Ages are
/// uniform in [0, 99], incomes heavy-tailed, race drawn from the 8 strings
/// "C0".."C7", opt_in 0 with probability 0.3 (the opt-out share), zip
/// uniform in [0, 9999]. Deterministic given the options. The 8 categories
/// and the 0.3 share are fixed constants in table_gen.cc: the policies and
/// WHERE clauses of every bench, example and golden are written against
/// them.
Table MakeCensusTable(const CensusTableOptions& opts);

}  // namespace osdp

#endif  // OSDP_BENCHDATA_TABLE_GEN_H_
