// The timed run: one client, one connection, a closed loop over the
// workload's mix, whole rounds until the run length has passed. Results
// are checked after the server has stopped.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "servebench.h"

namespace servebench {

namespace {

double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(std::floor(pos));
  const size_t above = static_cast<size_t>(std::ceil(pos));
  return values[below] +
         (pos - static_cast<double>(below)) * (values[above] - values[below]);
}

uint64_t SampleSeed(uint64_t seed, size_t query, size_t round) {
  return seed * 1000003 + query * 7919 + round;
}

}  // namespace

RunResult RunTimed(const Options& options, const Workload& workload) {
  RunResult result;
  const bool appends = workload.append_rows > 0;
  const Dataset data = GenerateDataset(
      options.seed,
      workload.table_rows + workload.append_rows * workload.episode_rounds,
      workload.g_hi_groups);
  const std::string base_csv = FormatCsv(data, 0, workload.table_rows);
  std::vector<std::string> batches;
  for (size_t r = 0; r < workload.episode_rounds; ++r) {
    const size_t begin = workload.table_rows + r * workload.append_rows;
    batches.push_back(FormatCsv(data, begin, begin + workload.append_rows));
  }
  std::vector<std::string> commands;
  for (const Query& query : workload.queries) {
    commands.push_back("QUERY " + query.sql);
  }

  // Set-up: from spawning the server until the timed phase can start.
  const Clock::time_point setup_start = Clock::now();
  std::unique_ptr<Server> server =
      Server::Start(options.serve_binary, workload.cache);
  if (server == nullptr) return result;
  std::string payload;
  if (!server->ExchangeWithBody("REGISTER ev", base_csv, &payload)) {
    return result;
  }
  auto warm_up = [&] {
    for (size_t r = 0; r < workload.warmup_rounds; ++r) {
      for (const std::string& command : commands) {
        if (!server->Exchange(command, &payload)) return false;
      }
    }
    return true;
  };
  if (!warm_up()) return result;
  const double setup_seconds = SecondsSince(setup_start);

  // Timed phase: whole rounds; in append_stream, whole episodes of
  // `episode_rounds` rounds, each starting from the same base table (the
  // untimed re-REGISTER and warm-up between episodes are not counted).
  // Every round's results must repeat those of the first round (first
  // episode) at the same position byte for byte.
  std::vector<double> latencies;
  std::vector<std::vector<double>> query_latencies(commands.size());
  std::vector<std::vector<std::string>> expected;
  std::vector<size_t> folded;  // rounds whose APPEND found the delta folded
  size_t rounds = 0;
  size_t episodes = 0;
  size_t appended = 0;
  std::vector<double> append_seconds;  // per timed APPEND exchange
  double timed_seconds = 0;
  while (timed_seconds < options.seconds) {
    if (appends && episodes > 0) {
      if (!server->ExchangeWithBody("REGISTER ev", base_csv, &payload) ||
          !warm_up()) {
        return result;
      }
    }
    const Clock::time_point start = Clock::now();
    size_t last_delta = 0;
    const size_t episode_rounds = appends ? workload.episode_rounds : 1;
    for (size_t r = 0; r < episode_rounds; ++r) {
      if (appends) {
        const Clock::time_point sent = Clock::now();
        ++result.attempted;
        if (!server->ExchangeWithBody("APPEND ev", batches[r], &payload)) {
          ++result.failed;
          return result;
        }
        append_seconds.push_back(SecondsSince(sent));
        size_t rows = 0;
        size_t delta = 0;
        if (std::sscanf(payload.c_str(), "ROWS %zu minor=%*u delta=%zu",
                        &rows, &delta) != 2 ||
            rows != workload.append_rows) {
          result.Fail("APPEND acknowledged '" + payload + "'");
        }
        // The delta shrinks when a background compaction folded it into
        // the base since the previous APPEND.
        if (episodes == 0 && r > 0 && delta < last_delta + rows) {
          folded.push_back(r);
        }
        last_delta = delta;
        appended += rows;
      }
      const size_t slot = appends ? r : 0;
      if (expected.size() <= slot) expected.emplace_back();
      for (size_t q = 0; q < commands.size(); ++q) {
        const Clock::time_point sent = Clock::now();
        ++result.attempted;
        if (!server->Exchange(commands[q], &payload)) {
          ++result.failed;
          return result;
        }
        const double latency = SecondsSince(sent);
        latencies.push_back(latency);
        query_latencies[q].push_back(latency);
        if (expected[slot].size() <= q) {
          expected[slot].push_back(std::move(payload));
        } else if (payload != expected[slot][q]) {
          result.Fail(workload.queries[q].name + ": round " +
                      std::to_string(rounds) + " differs from round " +
                      std::to_string(slot));
        }
      }
      ++rounds;
    }
    timed_seconds += SecondsSince(start);
    ++episodes;
  }
  const double peak_rss_mb = server->PeakRssMb();
  server->Stop();

  // Checks, outside the timed phase: brute force over the rows the server
  // held when it answered, and for a cached workload the cold in-process
  // result of every query.
  std::vector<std::string> cold;
  if (workload.cache && !appends) cold = ColdResultsInProcess(workload, data);
  for (size_t slot = 0; slot < expected.size(); ++slot) {
    const size_t rows = workload.table_rows + (appends ? slot + 1 : 0) *
                                                  workload.append_rows;
    for (size_t q = 0; q < commands.size(); ++q) {
      const std::string failure =
          CheckResult(data, rows, workload.queries[q], expected[slot][q],
                      appends ? 50 : 200, SampleSeed(options.seed, q, slot));
      if (!failure.empty()) {
        result.Fail("round " + std::to_string(slot) + " " + failure);
      }
      if (!cold.empty() && cold[q] != expected[slot][q]) {
        result.Fail(workload.queries[q].name +
                    ": cached result differs from the cold in-process one");
      }
    }
  }

  const size_t queries = latencies.size();
  result.metrics["setup_s"] = {setup_seconds, "s"};
  result.metrics["queries_per_s"] = {
      static_cast<double>(queries) / timed_seconds, "1/s"};
  result.metrics["query_median_s"] = {Quantile(latencies, 0.5), "s"};
  result.metrics["server_peak_rss_mb"] = {peak_rss_mb, "MB"};

  std::fprintf(stderr,
               "servebench: %s seed=%llu rounds=%zu episodes=%zu "
               "queries=%zu timed=%.3fs pool=HWF_THREADS=%d\n",
               workload.name.c_str(),
               static_cast<unsigned long long>(options.seed), rounds,
               episodes, queries, timed_seconds, kPoolThreads);
  for (size_t q = 0; q < commands.size(); ++q) {
    std::fprintf(stderr, "servebench:   %-24s median %.6f s (n=%zu)\n",
                 workload.queries[q].name.c_str(),
                 Quantile(query_latencies[q], 0.5), query_latencies[q].size());
  }
  // The highest percentile with at least ten samples above it; reported,
  // never gated.
  if (queries >= 40) {
    const double tail = 1.0 - 10.0 / static_cast<double>(queries);
    std::fprintf(stderr, "servebench: query latency p%.1f = %.6f s (n=%zu)\n",
                 tail * 100, Quantile(latencies, tail), queries);
  }
  if (appends) {
    // Rows of one batch over the median APPEND exchange. Reported, not
    // gated: across runs it falls in two clusters about 40% apart.
    std::fprintf(stderr, "servebench: append rows/s (median batch) = %.0f\n",
                 static_cast<double>(workload.append_rows) /
                     Quantile(append_seconds, 0.5));
    std::string rounds_text;
    for (size_t r : folded) rounds_text += " " + std::to_string(r);
    std::fprintf(stderr,
                 "servebench: background compaction folded the delta before "
                 "the APPEND of episode rounds:%s\n",
                 rounds_text.empty() ? " none" : rounds_text.c_str());
  }
  result.ok = true;
  return result;
}

}  // namespace servebench
