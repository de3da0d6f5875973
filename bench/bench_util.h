#ifndef HWF_BENCH_BENCH_UTIL_H_
#define HWF_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/macros.h"
#include "obs/histogram.h"
#include "obs/profile.h"
#include "parallel/thread_pool.h"
#include "storage/table.h"
#include "window/executor.h"

namespace hwf {
namespace bench {

/// Wall-clock timer.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Global size multiplier: HWF_BENCH_SCALE=2 doubles every problem size,
/// =0.25 shrinks for smoke runs. Default 1.
inline double Scale() {
  if (const char* env = std::getenv("HWF_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0) return s;
  }
  return 1.0;
}

inline size_t Scaled(size_t n) {
  return static_cast<size_t>(static_cast<double>(n) * Scale());
}

/// Times one full window evaluation; returns throughput in M tuples/s.
/// When `profile` is non-null it is attached to the run via
/// WindowExecutorOptions::profile, so the caller gets the phase breakdown
/// of exactly the measured execution.
inline double MeasureThroughput(const Table& table, const WindowSpec& spec,
                                const WindowFunctionCall& call,
                                const WindowExecutorOptions& options,
                                double* seconds_out = nullptr,
                                obs::ExecutionProfile* profile = nullptr) {
  WindowExecutorOptions run_options = options;
  if (profile != nullptr) run_options.profile = profile;
  Timer timer;
  StatusOr<Column> result =
      EvaluateWindowFunction(table, spec, call, run_options);
  const double seconds = timer.Seconds();
  HWF_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  if (seconds_out != nullptr) *seconds_out = seconds;
  return static_cast<double>(table.num_rows()) / seconds / 1e6;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

/// Serializes a latency-histogram snapshot as one JSON object with the
/// standard quantiles. Recorded values are multiplied by `scale` (e.g.
/// 1e-6 when the histogram holds microseconds and the JSON wants seconds).
inline std::string HistogramQuantilesJson(const obs::HistogramSnapshot& snap,
                                          double scale) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"count\": %llu, \"p50\": %.6f, \"p90\": %.6f, "
                "\"p99\": %.6f, \"p999\": %.6f, \"mean\": %.6f}",
                static_cast<unsigned long long>(snap.count),
                snap.Quantile(0.5) * scale, snap.Quantile(0.9) * scale,
                snap.Quantile(0.99) * scale, snap.Quantile(0.999) * scale,
                snap.Mean() * scale);
  return buf;
}

/// Unified BENCH_*.json emission: every figure benchmark that records
/// machine-readable results goes through this writer, and per-measurement
/// phase breakdowns use ExecutionProfile::ToJson() — one schema for every
/// benchmark instead of bespoke JSON assembly per file.
///
/// File schema:
///   {"bench": <name>, "scale": <HWF_BENCH_SCALE>,
///    "host": {"cores": <hardware threads>, "physical_cores": <cores with
///             SMT siblings counted once, 0 if unknown>, "pool_workers":
///             <default pool workers, HWF_THREADS>},
///    "entries": [{"label": ..., <metrics...>, "profile": {...}}, ...]}
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  /// Appends one measurement. `profile` may be null (entry without a phase
  /// breakdown); `throughput_mtps` < 0 omits the throughput field.
  void Add(const std::string& label, double throughput_mtps,
           const obs::ExecutionProfile* profile) {
    std::string entry = "{\"label\": \"" + label + "\"";
    if (throughput_mtps >= 0) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.4f", throughput_mtps);
      entry += std::string(", \"throughput_mtps\": ") + buf;
    }
    if (profile != nullptr) {
      entry += ", \"profile\": " + profile->ToJson();
    }
    entry += "}";
    entries_.push_back(std::move(entry));
  }

  /// Appends one pre-serialized JSON object (for benchmark-specific fields
  /// that do not fit the label/throughput/profile shape).
  void AddRaw(std::string json_object) {
    entries_.push_back(std::move(json_object));
  }

  /// Writes the file; returns false (and logs) on failure. The
  /// conventional path is "BENCH_<name>.json" in the working directory.
  bool WriteFile(const std::string& path) const {
    std::string body = "{\"bench\": \"" + bench_name_ + "\"";
    char scale[32];
    std::snprintf(scale, sizeof scale, "%.3f", Scale());
    body += std::string(", \"scale\": ") + scale + ",\n " + HostJson() +
            ",\n \"entries\": [";
    for (size_t i = 0; i < entries_.size(); ++i) {
      body += (i == 0 ? "\n  " : ",\n  ") + entries_[i];
    }
    body += "\n]}\n";
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "failed to open %s\n", path.c_str());
      return false;
    }
    std::fwrite(body.data(), 1, body.size(), file);
    std::fclose(file);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
    return true;
  }

  bool WriteDefault() const {
    return WriteFile("BENCH_" + bench_name_ + ".json");
  }

 private:
  /// The machine and pool the numbers were taken on: multi-core figures
  /// only compare between runs with the same cores and pool size.
  static std::string HostJson() {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"host\": {\"cores\": %u, \"physical_cores\": %d, "
                  "\"pool_workers\": %d}",
                  std::thread::hardware_concurrency(), PhysicalCores(),
                  ThreadPool::Default().num_workers());
    return buf;
  }

  /// Distinct (package, core) pairs in the Linux CPU topology, so SMT
  /// siblings count once; 0 where the topology cannot be read.
  static int PhysicalCores() {
    std::set<std::pair<int, int>> cores;
    std::error_code ec;
    for (const auto& cpu : std::filesystem::directory_iterator(
             "/sys/devices/system/cpu", ec)) {
      const std::string name = cpu.path().filename().string();
      if (name.size() < 4 || name.compare(0, 3, "cpu") != 0 ||
          name.find_first_not_of("0123456789", 3) != std::string::npos) {
        continue;
      }
      int package = -1;
      int core = -1;
      std::ifstream(cpu.path() / "topology/physical_package_id") >> package;
      std::ifstream(cpu.path() / "topology/core_id") >> core;
      if (package >= 0 && core >= 0) cores.emplace(package, core);
    }
    return static_cast<int>(cores.size());
  }

  std::string bench_name_;
  std::vector<std::string> entries_;
};

}  // namespace bench
}  // namespace hwf

#endif  // HWF_BENCH_BENCH_UTIL_H_
