// Micro-benchmark of the compiled predicate pipeline: rows/sec for row-mask
// construction, policy-masked filtered counts, and masked histograms, for
// three evaluation paths across row counts and predicate shapes.
//
//   boxed      RowAt() (tests/table_rows.h) + ReferenceEval(pred, schema,
//              row): materializes every cell of the row as a dynamic Value
//              (string copies included) before walking the tree.
//   reference  ReferenceEval(pred, table, row) from
//              tests/reference_predicate.h: row-at-a-time, per-row name
//              resolution and tree dispatch, boxing only the cells the tree
//              reads (CellAt). This is the semantics oracle the property
//              tests check the compiled path against.
//   compiled   CompiledPredicate::EvalMask: bound once against the schema,
//              evaluated column-at-a-time into a packed RowMask.
//
// The `kernel` op times each FusedAndMask body the host can run (avx512,
// avx2, portable) directly on the fresh3 legs, once per offset width a
// sealed int64 chunk can take (u8, u16, u32, u64; path "<body>/<width>"):
// contiguous copies of the age and zip columns stored at that width, one
// call per iteration, so the L2-resident and memory-bound sizes both show.
// Every body's words must equal the compiled fresh3 mask's (zip cut at 2560
// for u8, which stores zip / 64); the bench exits 1 if any differ.
//
// Knobs: OSDP_BENCH_MAX_ROWS caps the row grid (default 10M; set 100000 for
// a CI smoke run), OSDP_BENCH_JSON sets the output path (default
// BENCH_predicate_pipeline.json in the working directory). The JSON records
// hardware_concurrency, the build type and which scan kernel body the
// dispatch picks.

#include <cstdio>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/benchdata/table_gen.h"
#include "src/data/compiled_predicate.h"
#include "src/data/predicate.h"
#include "src/data/row_mask.h"
#include "src/data/scan_kernels.h"
#include "src/eval/table_printer.h"
#include "src/hist/histogram_query.h"
#include "src/policy/policy.h"
#include "tests/reference_predicate.h"
#include "tests/serial_replay.h"
#include "tests/table_rows.h"

using namespace osdp;
using bench::TimeBest;

namespace {

struct Shape {
  const char* name;
  int leaves;
  Predicate pred;
};

// The fresh_scans clause of bench/service_load: one fused pass over two int
// columns, the age range intersected into one interval.
Predicate Fresh3() {
  return Predicate::And(Predicate::And(Predicate::Ge("age", Value(30)),
                                       Predicate::Le("age", Value(45))),
                        Predicate::Ge("zip", Value(2500)));
}

std::vector<Shape> MakeShapes() {
  return {
      {"num1", 1, Predicate::Le("age", Value(40))},
      {"mixed3", 3,
       Predicate::And(Predicate::Or(Predicate::Eq("race", Value("C3")),
                                    Predicate::Eq("opt_in", Value(0))),
                      Predicate::Le("age", Value(40)))},
      {"fresh3", 3, Fresh3()},
      {"in5", 5,
       Predicate::And(
           Predicate::And(
               Predicate::In("race", {Value("C1"), Value("C2"), Value("C5")}),
               Predicate::Gt("income", Value(30000.0))),
           Predicate::Not(Predicate::Lt("zip", Value(2000))))},
  };
}

// Fresh3() with its zip cut at `zip_lo`, as Compile() lowers it: two int64
// legs, age - 30 <= 15 and zip - zip_lo <= INT64_MAX - zip_lo (wrapping
// unsigned).
std::vector<ScanLeg> Fresh3Legs(int64_t zip_lo) {
  ScanLeg age;
  age.lo = 30;
  age.span = 15;
  ScanLeg zip;
  zip.lo = static_cast<uint64_t>(zip_lo);
  zip.span = static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) -
             zip.lo;
  return {age, zip};
}

struct KernelBody {
  const char* name;
  void (*fn)(const ScanLeg*, const void* const*, size_t, size_t, uint64_t*);
};

// Every FusedAndMask body the host can run, fastest first.
std::vector<KernelBody> HostBodies() {
  namespace k = scan_kernels_internal;
  std::vector<KernelBody> bodies;
  if (k::Avx512Available()) bodies.push_back({"avx512", k::FusedAndMaskAvx512});
  if (k::Avx2Available()) bodies.push_back({"avx2", k::FusedAndMaskAvx2});
  bodies.push_back({"portable", k::FusedAndMaskPortable});
  return bodies;
}

// The column's cells as contiguous U offsets from 0, each shifted right by
// `shift`.
template <typename U>
std::vector<U> OffsetCells(const Table& table, const char* name, int shift) {
  const ChunkedColumn<int64_t>& col = **table.Int64ColumnByName(name);
  std::vector<U> cells(table.num_rows());
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i] = static_cast<U>(col[i] >> shift);
  }
  return cells;
}

struct Measurement {
  std::string shape;
  size_t rows;
  std::string op;    // mask | count | hist | kernel
  std::string path;  // boxed | reference | compiled; a body name for kernel
  double sec_per_iter;
  double rows_per_sec;
};

int RepsFor(size_t rows) {
  if (rows >= 10000000) return 2;
  if (rows >= 1000000) return 3;
  if (rows >= 100000) return 7;
  return 30;
}

}  // namespace

int main() {
  const size_t max_rows = bench::EnvSize("OSDP_BENCH_MAX_ROWS", 10000000);
  std::vector<size_t> row_grid;
  for (size_t rows : {size_t{10000}, size_t{100000}, size_t{1000000},
                      size_t{10000000}}) {
    if (rows <= max_rows) row_grid.push_back(rows);
  }
  if (row_grid.empty()) row_grid.push_back(max_rows);

  // The policy behind the engine-style masked ops (ComputeHistogramMasked's
  // x_ns mask, AnswerCount's non-sensitive restriction).
  const Policy policy = CensusPolicy();
  const Domain1D age_domain = *Domain1D::Numeric(0, 100, 64);

  std::vector<Measurement> results;
  volatile size_t sink = 0;  // defeats dead-code elimination

  const char* kernel = scan_kernels_internal::DispatchedBodyName();
  std::printf("=== compiled predicate pipeline: rows/sec by path ===\n");
  std::printf(
      "(best of N; 1-thread; row grid capped at %zu; hardware_concurrency=%u; "
      "build %s; scan kernel %s)\n\n",
      max_rows, std::thread::hardware_concurrency(), bench::BuildType(),
      kernel);

  for (size_t rows : row_grid) {
    CensusTableOptions topts;
    topts.num_rows = rows;
    topts.seed = 0x05D9 + rows;
    const Table table = MakeCensusTable(topts);
    const Schema& schema = table.schema();
    const int reps = RepsFor(rows);
    const RowMask ns_mask = policy.NonSensitiveRowMask(table);
    const std::vector<bool> ns_bools = ns_mask.ToBools();

    for (const Shape& shape : MakeShapes()) {
      const Predicate& pred = shape.pred;
      const CompiledPredicate compiled =
          *CompiledPredicate::Compile(pred, schema);

      auto record = [&](const char* op, const char* path, double sec) {
        results.push_back({shape.name, rows, op, path, sec,
                           static_cast<double>(rows) / sec});
      };

      // --- mask construction -------------------------------------------
      record("mask", "boxed", TimeBest(reps, [&] {
               std::vector<bool> mask(table.num_rows());
               for (size_t r = 0; r < table.num_rows(); ++r) {
                 mask[r] = ReferenceEval(pred, schema, RowAt(table, r));
               }
               sink += mask.size();
             }));
      record("mask", "reference", TimeBest(reps, [&] {
               std::vector<bool> mask(table.num_rows());
               for (size_t r = 0; r < table.num_rows(); ++r) {
                 mask[r] = ReferenceEval(pred, table, r);
               }
               sink += mask.size();
             }));
      record("mask", "compiled", TimeBest(reps, [&] {
               sink += compiled.EvalMask(table).Count();
             }));

      // --- filtered count over the non-sensitive rows ------------------
      record("count", "boxed", TimeBest(reps, [&] {
               size_t count = 0;
               for (size_t r = 0; r < table.num_rows(); ++r) {
                 if (ns_bools[r] &&
                     ReferenceEval(pred, schema, RowAt(table, r))) {
                   ++count;
                 }
               }
               sink += count;
             }));
      record("count", "reference", TimeBest(reps, [&] {
               size_t count = 0;
               for (size_t r = 0; r < table.num_rows(); ++r) {
                 if (ns_bools[r] && ReferenceEval(pred, table, r)) ++count;
               }
               sink += count;
             }));
      record("count", "compiled", TimeBest(reps, [&] {
               RowMask m = compiled.EvalMask(table);
               m.AndWith(ns_mask);
               sink += m.Count();
             }));

      // --- masked histogram (x_ns with WHERE) --------------------------
      HistogramQuery query{"age", age_domain, std::optional<Predicate>(pred)};
      record("hist", "boxed", TimeBest(reps, [&] {
               Histogram h(age_domain.size());
               for (size_t r = 0; r < table.num_rows(); ++r) {
                 if (!ns_bools[r]) continue;
                 if (!ReferenceEval(pred, schema, RowAt(table, r))) continue;
                 h.Add(age_domain.BinOf(
                     static_cast<double>(CellAt(table, r, 0).AsInt64())));
               }
               sink += static_cast<size_t>(h.Total());
             }));
      record("hist", "reference", TimeBest(reps, [&] {
               Histogram h(age_domain.size());
               const auto& age = table.Int64Column(0);
               for (size_t r = 0; r < table.num_rows(); ++r) {
                 if (!ns_bools[r]) continue;
                 if (!ReferenceEval(pred, table, r)) continue;
                 h.Add(age_domain.BinOf(static_cast<double>(age[r])));
               }
               sink += static_cast<size_t>(h.Total());
             }));
      record("hist", "compiled", TimeBest(reps, [&] {
               sink += static_cast<size_t>(
                   ComputeHistogramMasked(table, query, ns_mask)->Total());
             }));
    }

    // Per-row-count table.
    TextTable text({"shape", "op", "boxed rows/s", "ref rows/s",
                    "compiled rows/s", "speedup vs boxed", "vs ref"});
    for (const Shape& shape : MakeShapes()) {
      for (const char* op : {"mask", "count", "hist"}) {
        double by_path[3] = {0, 0, 0};
        for (const Measurement& m : results) {
          if (m.shape != shape.name || m.rows != rows || m.op != op) continue;
          if (m.path == "boxed") by_path[0] = m.rows_per_sec;
          if (m.path == "reference") by_path[1] = m.rows_per_sec;
          if (m.path == "compiled") by_path[2] = m.rows_per_sec;
        }
        text.AddRow({shape.name, op, TextTable::FmtAuto(by_path[0]),
                     TextTable::FmtAuto(by_path[1]),
                     TextTable::FmtAuto(by_path[2]),
                     TextTable::Fmt(by_path[2] / by_path[0], 1) + "x",
                     TextTable::Fmt(by_path[2] / by_path[1], 1) + "x"});
      }
    }
    std::printf("--- %zu rows ---\n%s\n", rows, text.ToString().c_str());

    // --- scan kernel bodies on the fresh3 legs, per offset width ---------
    // Each width stores age and zip as offsets from 0 of that width, and
    // its legs are the fresh3 legs rebased onto them, as the scan rebases
    // them onto a sealed chunk. One byte cannot hold a zip, so the u8 row
    // stores zip / 64 and cuts it at 40: zip >= 2560.
    const auto width_rows = [&](auto zero, const char* width) -> bool {
      using U = decltype(zero);
      const int shift = sizeof(U) == 1 ? 6 : 0;
      const int64_t zip_lo = sizeof(U) == 1 ? 2560 : 2500;
      const std::vector<U> age = OffsetCells<U>(table, "age", 0);
      const std::vector<U> zip = OffsetCells<U>(table, "zip", shift);
      std::vector<ScanLeg> legs;
      for (const ScanLeg& leg : Fresh3Legs(zip_lo >> shift)) {
        ScanLeg rebased;
        const LegOnChunk on = RebaseLeg(leg, 0, static_cast<U>(~U{0}),
                                        LegCellsOf<U>(), &rebased);
        if (on != LegOnChunk::kTest) std::abort();
        legs.push_back(rebased);
      }
      const void* cells[] = {age.data(), zip.data()};
      const Predicate clause = Predicate::And(
          Predicate::And(Predicate::Ge("age", Value(30)),
                         Predicate::Le("age", Value(45))),
          Predicate::Ge("zip", Value(zip_lo)));
      const RowMask fresh3 =
          CompiledPredicate::Compile(clause, schema)->EvalMask(table);
      std::vector<uint64_t> want;
      want.reserve(fresh3.num_words());
      for (size_t b = 0; b < fresh3.num_blocks(); ++b) {
        want.insert(want.end(), fresh3.block(b),
                    fresh3.block(b) + fresh3.block_words(b));
      }
      std::printf("kernel fresh3 %s @%zu rows:", width, rows);
      for (const KernelBody& body : HostBodies()) {
        std::vector<uint64_t> words(want.size());
        // A call costs up to about 1 ms per million rows, so the best of a
        // few reps would still include the first calls' warm-up; 30 reps
        // reach the steady state at every grid size.
        const double sec = TimeBest(30, [&] {
          body.fn(legs.data(), cells, legs.size(), rows, words.data());
          sink += words[0];
        });
        if (words != want) {
          std::fprintf(stderr,
                       "\nFAIL: the %s scan kernel body disagrees with the "
                       "compiled fresh3 mask on %s cells at %zu rows\n",
                       body.name, width, rows);
          return false;
        }
        results.push_back({"fresh3", rows, "kernel",
                           std::string(body.name) + "/" + width, sec,
                           static_cast<double>(rows) / sec});
        std::printf("  %s %.3f ns/row", body.name, 1e9 * sec / rows);
      }
      std::printf("\n");
      return true;
    };
    if (!width_rows(uint8_t{0}, "u8") || !width_rows(uint16_t{0}, "u16") ||
        !width_rows(uint32_t{0}, "u32") || !width_rows(uint64_t{0}, "u64")) {
      return 1;
    }
    std::printf("\n");
  }

  // Acceptance line: 1M rows, 3-leaf predicate, mask + count >= 5x.
  for (const char* op : {"mask", "count"}) {
    double boxed = 0, compiled_rps = 0;
    for (const Measurement& m : results) {
      if (m.shape == "mixed3" && m.rows == 1000000 && m.op == op) {
        if (m.path == "boxed") boxed = m.rows_per_sec;
        if (m.path == "compiled") compiled_rps = m.rows_per_sec;
      }
    }
    if (boxed > 0) {
      std::printf("acceptance[%s @1M, 3-leaf]: %.1fx vs boxed\n", op,
                  compiled_rps / boxed);
    }
  }

  bench::BenchJson json("predicate_pipeline",
                        "BENCH_predicate_pipeline.json");
  if (!json.ok()) return 1;
  std::fprintf(json.file(), "  \"scan_kernel\": \"%s\",\n", kernel);
  json.Records("results", results, [](FILE* f, const Measurement& m) {
    std::fprintf(f,
                 "{\"shape\": \"%s\", \"rows\": %zu, \"op\": \"%s\", "
                 "\"path\": \"%s\", \"sec_per_iter\": %.6g, "
                 "\"rows_per_sec\": %.6g}",
                 m.shape.c_str(), m.rows, m.op.c_str(), m.path.c_str(),
                 m.sec_per_iter, m.rows_per_sec);
  });
  if (!json.Close()) return 1;
  std::printf("\nwrote %s (%zu measurements); sink=%zu\n", json.path().c_str(),
              results.size(), static_cast<size_t>(sink));
  return 0;
}
