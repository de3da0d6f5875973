// Generated inputs, the workloads' query mixes, and the brute-force checks
// of query results. Nothing here calls the program under test: expected
// values come from the generated rows alone.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <numeric>
#include <random>
#include <utility>

#include "servebench.h"

namespace servebench {

const char* ColName(Col col) {
  static const char* const kNames[kNumCols] = {"id",  "ts",  "g_lo", "g_hi",
                                               "val", "qty", "cat"};
  return kNames[col];
}

Dataset GenerateDataset(uint64_t seed, size_t rows, size_t g_hi_groups) {
  // std::mt19937_64 is specified bit-for-bit; the reductions below use
  // plain modulo so the inputs are the same on every standard library.
  std::mt19937_64 rng(seed);
  Dataset data;
  for (auto& column : data.ints) column.resize(rows);
  data.val.resize(rows);
  data.val_text.resize(rows);
  // Values 0..cardinality-1 in turn, then shuffled.
  auto round_robin = [&](Col col, size_t cardinality) {
    std::vector<int64_t>& values = data.ints[col];
    for (size_t row = 0; row < rows; ++row) {
      values[row] = static_cast<int64_t>(row % cardinality);
    }
    for (size_t i = rows; i > 1; --i) {
      std::swap(values[i - 1], values[rng() % i]);
    }
  };
  std::iota(data.ints[kId].begin(), data.ints[kId].end(), int64_t{0});
  round_robin(kTs, rows);  // a permutation: the unique ORDER BY key
  round_robin(kGLo, 8);
  round_robin(kGHi, g_hi_groups);
  round_robin(kQty, 1000);
  round_robin(kCat, 500);
  char text[32];
  for (size_t row = 0; row < rows; ++row) {
    const long long cents = static_cast<long long>(rng() % 10000000);
    std::snprintf(text, sizeof(text), "%lld.%02lld", cents / 100, cents % 100);
    data.val_text[row] = text;
    data.val[row] = std::strtod(text, nullptr);
  }
  return data;
}

std::string FormatCsv(const Dataset& data, size_t begin, size_t end) {
  std::string out = "id,ts,g_lo,g_hi,val,qty,cat\n";
  out.reserve(out.size() + (end - begin) * 40);
  char buffer[24];
  for (size_t row = begin; row < end; ++row) {
    for (int col = 0; col < kNumCols; ++col) {
      if (col > 0) out += ',';
      if (col == kVal) {
        out += data.val_text[row];
        continue;
      }
      const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof(buffer),
                                           data.ints[col][row]);
      out.append(buffer, ptr);
    }
    out += '\n';
  }
  return out;
}

namespace {

std::string FunctionText(const Call& call) {
  char fraction[32];
  std::snprintf(fraction, sizeof(fraction), "%g", call.fraction);
  const std::string arg = ColName(call.arg);
  switch (call.fn) {
    case Fn::kPercentileDisc:
      return std::string("percentile_disc(") + fraction + " ORDER BY " + arg +
             ")";
    case Fn::kPercentileCont:
      return std::string("percentile_cont(") + fraction + " ORDER BY " + arg +
             ")";
    case Fn::kCountDistinct:
      return "count(DISTINCT " + arg + ")";
    case Fn::kRank:
      return "rank(ORDER BY " + arg + ")";
    case Fn::kDenseRank:
      return "dense_rank(ORDER BY " + arg + ")";
    case Fn::kSum:
      return "sum(" + arg + ")";
  }
  return "";
}

std::string BoundText(int64_t offset, const char* direction) {
  if (offset == kUnbounded) return std::string("UNBOUNDED ") + direction;
  if (offset == 0) return "CURRENT ROW";
  return std::to_string(offset) + " " + direction;
}

}  // namespace

std::string BuildSql(const Query& query, const char* table) {
  std::string sql = "SELECT ";
  for (size_t i = 0; i < query.calls.size(); ++i) {
    const Call& call = query.calls[i];
    if (i > 0) sql += ", ";
    sql += FunctionText(call) + " OVER (";
    if (call.partition >= 0) {
      sql += std::string("PARTITION BY ") +
             ColName(static_cast<Col>(call.partition)) + " ";
    }
    sql += std::string("ORDER BY ") + ColName(call.order) +
           (call.groups ? " GROUPS" : " ROWS") + " BETWEEN " +
           BoundText(call.preceding, "PRECEDING") + " AND " +
           BoundText(call.following, "FOLLOWING") + ") AS c" +
           std::to_string(i);
  }
  return sql + " FROM " + table;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  // Select items shared by the mixes. A ROWS frame orders by the unique
  // ts; GROUPS frames and the rank orderings use qty/val, which have ties.
  const Call median_lo{Fn::kPercentileDisc, 0.5, kVal, kGLo, kTs,
                       false,               1000, 0};
  const Call p90_hi{Fn::kPercentileCont, 0.9, kVal, kGHi, kTs, false, 20, 20};
  const Call distinct_hi{Fn::kCountDistinct, 0, kCat, kGHi, kTs,
                         false,              50, 50};
  const Call distinct_groups{Fn::kCountDistinct, 0, kCat, kGLo, kQty,
                             true,               5, 5};
  const Call rank_lo{Fn::kRank, 0, kQty, kGLo, kTs, false, 500, 0};
  const Call dense_hi{Fn::kDenseRank, 0, kVal, kGHi, kQty, true, 3, 0};
  const Call running_sum{Fn::kSum, 0, kQty, -1, kTs, false, kUnbounded, 0};
  // Two OVER clauses with one PARTITION BY / ORDER BY share one sort.
  const Call shared_pct{Fn::kPercentileDisc, 0.25, kVal, kGLo, kTs,
                        false,               200,  0};
  const Call shared_distinct{Fn::kCountDistinct, 0, kCat, kGLo, kTs,
                             false,              2000, 0};

  auto workload = std::make_unique<Workload>();
  workload->name = name;
  if (name == "cold_scan") {
    // Every lookup misses: each query pays partition, sort, preprocess,
    // tree build and probe. g_lo gives 8 partitions (the global sort),
    // g_hi 1000 (the hash-partitioned regime).
    workload->table_rows = 100000;
    workload->g_hi_groups = 1000;
    workload->cache = false;
    workload->append_rows = 0;
    workload->episode_rounds = 0;
    workload->warmup_rounds = 1;
    workload->queries = {
        {"median_rows1000_lo", {median_lo}, ""},
        {"p90_rows20_hi", {p90_hi}, ""},
        {"distinct_groups5_lo", {distinct_groups}, ""},
        {"rank_rows500_lo", {rank_lo}, ""},
        {"dense_rank_groups3_hi", {dense_hi}, ""},
        {"running_sum", {running_sum}, ""},
        {"shared_sort_pair", {shared_pct, shared_distinct}, ""},
    };
  } else if (name == "warm_dashboard") {
    // A fixed dashboard re-issued against a warm cache: after warm-up
    // sort and build cost nothing and the time is probe and send.
    workload->table_rows = 100000;
    workload->g_hi_groups = 1000;
    workload->cache = true;
    workload->append_rows = 0;
    workload->episode_rounds = 0;
    workload->warmup_rounds = 2;
    workload->queries = {
        {"median_rows1000_lo", {median_lo}, ""},
        {"distinct_rows50_hi", {distinct_hi}, ""},
        {"rank_rows500_lo", {rank_lo}, ""},
        {"running_sum", {running_sum}, ""},
        {"shared_sort_pair", {shared_pct, shared_distinct}, ""},
    };
  } else if (name == "append_stream") {
    // Each round appends a 5% batch and then reads the grown table: a
    // selection function (the merged main+delta cursor) and two
    // rebuilding functions (delta-merged sort plus tree rebuild). The
    // table is small because the merged cursor's probe is slow.
    workload->table_rows = 20000;
    workload->g_hi_groups = 200;
    workload->cache = true;
    workload->append_rows = 1000;
    workload->episode_rounds = 6;
    workload->warmup_rounds = 1;
    workload->queries = {
        {"median_rows300_lo",
         {{Fn::kPercentileDisc, 0.5, kVal, kGLo, kTs, false, 300, 0}},
         ""},
        {"distinct_rows300_lo",
         {{Fn::kCountDistinct, 0, kCat, kGLo, kTs, false, 300, 0}},
         ""},
        {"rank_rows300_lo", {{Fn::kRank, 0, kQty, kGLo, kTs, false, 300, 0}},
         ""},
    };
  } else {
    return nullptr;
  }
  for (Query& query : workload->queries) query.sql = BuildSql(query, "ev");
  return workload;
}

// ---------------------------------------------------------------------------
// Checks.

namespace {

/// A CSV result split into lines; fields are read on demand.
struct ResultText {
  std::vector<std::string_view> lines;  // header first

  explicit ResultText(std::string_view payload) {
    size_t begin = 0;
    while (begin < payload.size()) {
      size_t end = payload.find('\n', begin);
      if (end == std::string_view::npos) end = payload.size();
      lines.push_back(payload.substr(begin, end - begin));
      begin = end + 1;
    }
  }

  /// Field `col` of result row `row` (0-based, header excluded).
  std::string_view Field(size_t row, size_t col) const {
    std::string_view line = lines[row + 1];
    for (size_t i = 0; i < col; ++i) {
      const size_t comma = line.find(',');
      if (comma == std::string_view::npos) return {};
      line.remove_prefix(comma + 1);
    }
    return line.substr(0, line.find(','));
  }
};

bool ParseNumber(std::string_view text, double* out) {
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && ptr == text.data() + text.size();
}

/// The rows of the first `rows` dataset rows in (partition, order key,
/// row) order, with each position's partition and peer-group bounds, so
/// every frame is a contiguous position range [lo, hi).
class FrameIndex {
 public:
  FrameIndex(const Dataset& data, size_t rows, int partition, Col order)
      : order_(rows), part_lo_(rows), part_hi_(rows), gid_(rows),
        gid_lo_(rows), gid_hi_(rows) {
    std::iota(order_.begin(), order_.end(), uint32_t{0});
    auto part = [&](uint32_t row) {
      return partition < 0 ? 0 : data.ints[partition][row];
    };
    std::sort(order_.begin(), order_.end(), [&](uint32_t a, uint32_t b) {
      if (part(a) != part(b)) return part(a) < part(b);
      const double ka = data.Num(order, a);
      const double kb = data.Num(order, b);
      if (ka != kb) return ka < kb;
      return a < b;
    });
    size_t begin = 0;
    while (begin < rows) {
      size_t end = begin + 1;
      while (end < rows && part(order_[end]) == part(order_[begin])) ++end;
      const uint32_t first_gid = static_cast<uint32_t>(gstart_.size());
      for (size_t p = begin; p < end; ++p) {
        if (p == begin || data.Num(order, order_[p]) !=
                              data.Num(order, order_[p - 1])) {
          if (p != begin) gend_.push_back(static_cast<uint32_t>(p));
          gstart_.push_back(static_cast<uint32_t>(p));
        }
        gid_[p] = static_cast<uint32_t>(gstart_.size() - 1);
      }
      gend_.push_back(static_cast<uint32_t>(end));
      for (size_t p = begin; p < end; ++p) {
        part_lo_[p] = static_cast<uint32_t>(begin);
        part_hi_[p] = static_cast<uint32_t>(end);
        gid_lo_[p] = first_gid;
        gid_hi_[p] = static_cast<uint32_t>(gstart_.size() - 1);
      }
      begin = end;
    }
  }

  size_t size() const { return order_.size(); }
  uint32_t row(size_t position) const { return order_[position]; }

  void Frame(const Call& call, size_t p, size_t* lo, size_t* hi) const {
    if (!call.groups) {
      *lo = call.preceding == kUnbounded
                ? part_lo_[p]
                : std::max<int64_t>(part_lo_[p],
                                    static_cast<int64_t>(p) - call.preceding);
      *hi = call.following == kUnbounded
                ? part_hi_[p]
                : std::min<int64_t>(part_hi_[p], static_cast<int64_t>(p) +
                                                     call.following + 1);
      return;
    }
    const int64_t g = gid_[p];
    const int64_t glo = call.preceding == kUnbounded
                            ? gid_lo_[p]
                            : std::max<int64_t>(gid_lo_[p], g - call.preceding);
    const int64_t ghi = call.following == kUnbounded
                            ? gid_hi_[p]
                            : std::min<int64_t>(gid_hi_[p], g + call.following);
    *lo = gstart_[glo];
    *hi = gend_[ghi];
  }

  bool PartitionEnd(size_t p) const { return p + 1 == part_hi_[p]; }
  size_t PartitionBegin(size_t p) const { return part_lo_[p]; }

 private:
  std::vector<uint32_t> order_;
  std::vector<uint32_t> part_lo_, part_hi_;
  std::vector<uint32_t> gid_, gid_lo_, gid_hi_;
  std::vector<uint32_t> gstart_, gend_;
};

/// The value of `call` at position `p`, by scanning its frame.
double BruteForce(const Dataset& data, const FrameIndex& index,
                  const Call& call, size_t p) {
  size_t lo = 0;
  size_t hi = 0;
  index.Frame(call, p, &lo, &hi);
  std::vector<double> values;
  values.reserve(hi - lo);
  for (size_t q = lo; q < hi; ++q) {
    values.push_back(data.Num(call.arg, index.row(q)));
  }
  const double current = data.Num(call.arg, index.row(p));
  switch (call.fn) {
    case Fn::kPercentileDisc: {
      std::sort(values.begin(), values.end());
      const double pos =
          std::ceil(call.fraction * static_cast<double>(values.size())) - 1;
      const size_t idx = pos <= 0 ? 0 : static_cast<size_t>(pos);
      return values[std::min(idx, values.size() - 1)];
    }
    case Fn::kPercentileCont: {
      std::sort(values.begin(), values.end());
      const double pos =
          call.fraction * static_cast<double>(values.size() - 1);
      const size_t below = static_cast<size_t>(std::floor(pos));
      const size_t above = static_cast<size_t>(std::ceil(pos));
      return values[below] + (pos - static_cast<double>(below)) *
                                 (values[above] - values[below]);
    }
    case Fn::kCountDistinct: {
      std::sort(values.begin(), values.end());
      return static_cast<double>(
          std::unique(values.begin(), values.end()) - values.begin());
    }
    case Fn::kRank:
      return 1.0 + static_cast<double>(std::count_if(
                       values.begin(), values.end(),
                       [&](double v) { return v < current; }));
    case Fn::kDenseRank: {
      values.erase(std::remove_if(values.begin(), values.end(),
                                  [&](double v) { return v >= current; }),
                   values.end());
      std::sort(values.begin(), values.end());
      return 1.0 + static_cast<double>(
                       std::unique(values.begin(), values.end()) -
                       values.begin());
    }
    case Fn::kSum: {
      double sum = 0;
      for (double v : values) sum += v;
      return sum;
    }
  }
  return 0;
}

bool Matches(const Call& call, double got, double want) {
  if (call.fn == Fn::kPercentileCont) {
    return std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want));
  }
  return got == want;
}

/// Whole-column properties of one select item, derived from the frames
/// alone. Returns "" or the first violation.
std::string CheckProperties(const Dataset& data, const FrameIndex& index,
                            const Call& call, const std::vector<double>& got) {
  const size_t rows = index.size();
  char message[160];
  // Sliding minimum/maximum of the argument: frames move monotonically
  // within a partition, so two monotonic deques cover every frame.
  std::deque<size_t> min_q;
  std::deque<size_t> max_q;
  size_t pushed = 0;
  double partition_sum = 0;
  for (size_t p = 0; p < rows; ++p) {
    const uint32_t row = index.row(p);
    size_t lo = 0;
    size_t hi = 0;
    index.Frame(call, p, &lo, &hi);
    const double value = got[row];
    switch (call.fn) {
      case Fn::kCountDistinct:
      case Fn::kRank:
      case Fn::kDenseRank:
        if (value < 1 || value > static_cast<double>(hi - lo)) {
          std::snprintf(message, sizeof(message),
                        "row %u: %g outside [1, frame rows %zu]", row, value,
                        hi - lo);
          return message;
        }
        break;
      case Fn::kPercentileDisc:
      case Fn::kPercentileCont: {
        if (p == index.PartitionBegin(p)) {
          min_q.clear();
          max_q.clear();
          pushed = p;
        }
        for (; pushed < hi; ++pushed) {
          const double v = data.Num(call.arg, index.row(pushed));
          while (!min_q.empty() &&
                 data.Num(call.arg, index.row(min_q.back())) >= v) {
            min_q.pop_back();
          }
          min_q.push_back(pushed);
          while (!max_q.empty() &&
                 data.Num(call.arg, index.row(max_q.back())) <= v) {
            max_q.pop_back();
          }
          max_q.push_back(pushed);
        }
        while (min_q.front() < lo) min_q.pop_front();
        while (max_q.front() < lo) max_q.pop_front();
        const double low = data.Num(call.arg, index.row(min_q.front()));
        const double high = data.Num(call.arg, index.row(max_q.front()));
        if (value < low || value > high) {
          std::snprintf(message, sizeof(message),
                        "row %u: percentile %.17g outside frame range "
                        "[%.17g, %.17g]",
                        row, value, low, high);
          return message;
        }
        break;
      }
      case Fn::kSum:
        if (p == index.PartitionBegin(p)) partition_sum = 0;
        partition_sum += data.Num(call.arg, row);
        // A running SUM (UNBOUNDED PRECEDING .. CURRENT ROW) ends each
        // partition at the partition's column total.
        if (call.preceding == kUnbounded && call.following == 0 &&
            index.PartitionEnd(p) && value != partition_sum) {
          std::snprintf(message, sizeof(message),
                        "row %u: running sum ends at %.17g, column total "
                        "is %.17g",
                        row, value, partition_sum);
          return message;
        }
        break;
    }
  }
  return "";
}

}  // namespace

std::string CheckResult(const Dataset& data, size_t rows, const Query& query,
                        std::string_view payload, size_t samples,
                        uint64_t sample_seed) {
  const ResultText result(payload);
  if (result.lines.size() != rows + 1) {
    return query.name + ": " + std::to_string(result.lines.size()) +
           " result lines for " + std::to_string(rows) + " rows + header";
  }
  std::string header;
  for (size_t i = 0; i < query.calls.size(); ++i) {
    header += (i > 0 ? ",c" : "c") + std::to_string(i);
  }
  if (result.lines[0] != header) {
    return query.name + ": header '" + std::string(result.lines[0]) + "'";
  }
  std::mt19937_64 rng(sample_seed);
  std::vector<std::pair<std::pair<int, Col>, std::unique_ptr<FrameIndex>>>
      indexes;
  for (size_t c = 0; c < query.calls.size(); ++c) {
    const Call& call = query.calls[c];
    const std::pair<int, Col> key{call.partition, call.order};
    const FrameIndex* index = nullptr;
    for (const auto& [k, built] : indexes) {
      if (k == key) index = built.get();
    }
    if (index == nullptr) {
      indexes.emplace_back(key, std::make_unique<FrameIndex>(
                                    data, rows, call.partition, call.order));
      index = indexes.back().second.get();
    }
    std::vector<double> got(rows);
    for (size_t row = 0; row < rows; ++row) {
      if (!ParseNumber(result.Field(row, c), &got[row])) {
        return query.name + ": row " + std::to_string(row) + " column c" +
               std::to_string(c) + " is '" +
               std::string(result.Field(row, c)) + "'";
      }
    }
    std::vector<size_t> position(rows);
    for (size_t p = 0; p < rows; ++p) position[index->row(p)] = p;
    for (size_t s = 0; s < samples; ++s) {
      const size_t row = rng() % rows;
      const double want = BruteForce(data, *index, call, position[row]);
      if (!Matches(call, got[row], want)) {
        char message[160];
        std::snprintf(message, sizeof(message),
                      ": row %zu column c%zu is %.17g, brute force %.17g",
                      row, c, got[row], want);
        return query.name + message;
      }
    }
    const std::string violation =
        CheckProperties(data, *index, call, got);
    if (!violation.empty()) {
      return query.name + " c" + std::to_string(c) + ": " + violation;
    }
  }
  return "";
}

}  // namespace servebench
