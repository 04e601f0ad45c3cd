#include "src/benchdata/table_gen.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/common/random.h"

namespace osdp {

Table MakeCensusTable(const CensusTableOptions& opts) {
  Schema schema({{"age", ValueType::kInt64},
                 {"income", ValueType::kDouble},
                 {"race", ValueType::kString},
                 {"opt_in", ValueType::kInt64},
                 {"zip", ValueType::kInt64}});
  constexpr size_t kNumCategories = 8;   // "C0".."C7" in `race`
  constexpr double kOptOutFraction = 0.3;  // rows with opt_in = 0
  Rng rng(opts.seed);

  std::vector<std::string> categories;
  categories.reserve(kNumCategories);
  for (size_t c = 0; c < kNumCategories; ++c) {
    categories.push_back("C" + std::to_string(c));
  }

  // Columnar generation straight into the final typed vectors, adopted by
  // FromColumns without a copy — generation is the only per-row cost. The
  // per-row draw order (age, income, race, opt_in, zip) is load-bearing: it
  // keeps tables bit-identical to the historical row-at-a-time generator
  // for any given seed.
  std::vector<int64_t> age, opt_in, zip;
  std::vector<double> income;
  std::vector<std::string> race;
  age.reserve(opts.num_rows);
  income.reserve(opts.num_rows);
  race.reserve(opts.num_rows);
  opt_in.reserve(opts.num_rows);
  zip.reserve(opts.num_rows);
  for (size_t i = 0; i < opts.num_rows; ++i) {
    age.push_back(static_cast<int64_t>(rng.NextBounded(100)));
    // Pareto(alpha=2) incomes: heavy-tailed like the real thing, capped so
    // double comparisons stay in a sane range.
    income.push_back(
        std::min(2.0e4 / std::sqrt(rng.NextDoublePositive()), 1.0e7));
    race.push_back(categories[rng.NextBounded(categories.size())]);
    opt_in.push_back(static_cast<int64_t>(
        rng.NextDouble() < kOptOutFraction ? 0 : 1));
    zip.push_back(static_cast<int64_t>(rng.NextBounded(10000)));
  }

  std::vector<Table::ColumnData> columns;
  columns.reserve(5);
  columns.emplace_back(std::move(age));
  columns.emplace_back(std::move(income));
  columns.emplace_back(std::move(race));
  columns.emplace_back(std::move(opt_in));
  columns.emplace_back(std::move(zip));
  return *Table::FromColumns(std::move(schema), std::move(columns));
}

}  // namespace osdp
