// Shared declarations of the served-query benchmark (see README.md).
#ifndef SERVEBENCH_SERVEBENCH_H_
#define SERVEBENCH_SERVEBENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace servebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Worker threads of the server's execution pool (HWF_THREADS). With the
/// pool's calling thread and the single client thread, a query keeps at
/// most 4 threads busy — the core count the benchmark was tuned on.
inline constexpr int kPoolThreads = 2;

// ---------------------------------------------------------------------------
// Generated input table.

/// Columns of the generated table `ev`, in CSV order.
enum Col { kId, kTs, kGLo, kGHi, kVal, kQty, kCat, kNumCols };

const char* ColName(Col col);

/// The seeded table: `ts` is a permutation (a unique ORDER BY key), `qty`
/// has 1000 values with ties (the key of GROUPS frames and rank
/// orderings), `g_lo` has 8 values and `g_hi` `g_hi_groups`, `val` has two
/// decimals and `cat` 500 values. Each of `g_lo`, `g_hi`, `qty` and `cat`
/// takes its values equally often (a seeded shuffle of a round robin), so
/// partition and group sizes do not depend on the seed. A run generates
/// its whole input at once; the table the server holds at any time is a
/// prefix of it.
struct Dataset {
  std::vector<int64_t> ints[kNumCols];  // every column but kVal
  std::vector<double> val;              // kVal, as parsed from its text
  std::vector<std::string> val_text;

  size_t size() const { return val.size(); }
  double Num(Col col, size_t row) const {
    return col == kVal ? val[row] : static_cast<double>(ints[col][row]);
  }
};

Dataset GenerateDataset(uint64_t seed, size_t rows, size_t g_hi_groups);

/// Rows [begin, end) as CSV with a header line.
std::string FormatCsv(const Dataset& data, size_t begin, size_t end);

// ---------------------------------------------------------------------------
// Queries.

enum class Fn {
  kPercentileDisc,
  kPercentileCont,
  kCountDistinct,
  kRank,       // rank(ORDER BY arg): frame rows with a smaller arg, plus 1
  kDenseRank,  // dense_rank(ORDER BY arg): distinct smaller args, plus 1
  kSum,
};

inline constexpr int64_t kUnbounded = -1;

/// One select item: fn(arg) OVER (PARTITION BY partition ORDER BY order
/// ROWS|GROUPS BETWEEN preceding PRECEDING AND following FOLLOWING).
/// ROWS frames always order by the unique `ts`, so the expected value does
/// not depend on how ties are broken.
struct Call {
  Fn fn;
  double fraction;  // percentiles only
  Col arg;
  int partition;  // a Col, or -1 for none
  Col order;
  bool groups;
  int64_t preceding;  // kUnbounded or a row/group count
  int64_t following;  // kUnbounded or a row/group count (0 = CURRENT ROW)
};

struct Query {
  std::string name;
  std::vector<Call> calls;
  std::string sql;  // filled by BuildSql
};

std::string BuildSql(const Query& query, const char* table);

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  size_t table_rows;      // rows loaded in set-up
  size_t g_hi_groups;     // cardinality of the high-cardinality key
  bool cache;             // false: the server runs with --cache_bytes 0
  size_t append_rows;     // rows per timed-phase APPEND (0: read only)
  size_t episode_rounds;  // APPEND rounds per episode (append_stream)
  size_t warmup_rounds;
  std::vector<Query> queries;
};

/// cold_scan, warm_dashboard or append_stream; null for another name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

// ---------------------------------------------------------------------------
// Result checks (brute force over the generated rows, never the program).

/// Checks one query result over the first `rows` dataset rows: the header
/// and row count, `samples` brute-force rows per select item chosen with
/// `sample_seed`, and whole-column properties (a COUNT(DISTINCT) never
/// exceeds its frame, a percentile lies within its frame's range, a
/// running SUM ends at the column total). Returns "" when every check
/// holds, else the first failure.
std::string CheckResult(const Dataset& data, size_t rows, const Query& query,
                        std::string_view payload, size_t samples,
                        uint64_t sample_seed);

// ---------------------------------------------------------------------------
// The server under test.

/// A spawned hwf_serve and one protocol connection to it.
class Server {
 public:
  /// Spawns `binary` with HWF_THREADS=kPoolThreads and waits for its
  /// LISTENING line. Returns null (after printing why) on failure.
  static std::unique_ptr<Server> Start(const std::string& binary, bool cache);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// One request; returns false (after printing why) on any error.
  bool Exchange(const std::string& command, std::string* payload,
                std::string* header_extra = nullptr);
  bool ExchangeWithBody(const std::string& command, const std::string& body,
                        std::string* payload);

  /// VmHWM of the server process, in MB (0 when unreadable).
  double PeakRssMb() const;

  /// QUIT, SIGTERM and wait for the process to exit.
  void Stop();

 private:
  Server() = default;
  struct Connection;
  pid_t pid_ = -1;
  std::unique_ptr<Connection> connection_;
};

/// Reads `"key": <number>` from a flat JSON text; NaN when absent.
double JsonNumber(std::string_view json, std::string_view key);

// ---------------------------------------------------------------------------
// Runs.

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_binary;
  std::string out_dir;
};

/// One metric line of the final JSON object.
struct Metric {
  double value;
  std::string unit;
};

struct RunResult {
  bool ok = false;  // false: an operation could not run at all
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;  // failed checks, for stderr

  void Fail(std::string what) {
    correct = false;
    if (errors.size() < 20) errors.push_back(std::move(what));
  }
};

RunResult RunTimed(const Options& options, const Workload& workload);

/// Every query of a read-only workload executed in this process with no
/// cache (the cold path), serialized as the server sends it.
std::vector<std::string> ColdResultsInProcess(const Workload& workload,
                                              const Dataset& data);

RunResult RunTraced(const Options& options, const Workload& workload);

}  // namespace servebench

#endif  // SERVEBENCH_SERVEBENCH_H_
