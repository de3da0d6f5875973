// The traced run: replays the workload in this process against the
// program's public functions, with a span around every call into a layer,
// then over the wire with PROFILE <id> for the server's own timing. Prints
// each layer's self time and writes the spans out.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>

#include "mst/tree_cache.h"
#include "obs/counters.h"
#include "obs/profile.h"
#include "parallel/thread_pool.h"
#include "service/result_format.h"
#include "service/service.h"
#include "service/sql_parser.h"
#include "servebench.h"
#include "storage/csv.h"
#include "window/executor.h"

namespace servebench {

namespace {

using hwf::obs::Counter;
using hwf::obs::ProfilePhase;

struct Span {
  std::string name;
  double start = 0;  // seconds since the recorder was made
  double end = 0;
  int parent = -1;
  uint64_t query = 0;
};

/// Spans kept in memory until the run ends. A disabled recorder records
/// nothing and reports zero durations (the untraced rounds).
class SpanRecorder {
 public:
  bool enabled = true;

  int Begin(std::string name, int parent, uint64_t query) {
    if (!enabled) return -1;
    spans_.push_back({std::move(name), Now(), 0, parent, query});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// Ends span `id` and returns its duration in seconds.
  double End(int id) {
    if (id < 0) return 0;
    Span& span = spans_[static_cast<size_t>(id)];
    span.end = Now();
    return span.end - span.start;
  }

  /// Per span name: calls, total seconds, self seconds (duration minus
  /// the time its child spans cover).
  struct Totals {
    size_t calls = 0;
    double total = 0;
    double self = 0;
  };
  std::map<std::string, Totals> SelfTimes() const {
    std::vector<double> child_time(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_time[static_cast<size_t>(span.parent)] += span.end - span.start;
      }
    }
    std::map<std::string, Totals> totals;
    for (size_t i = 0; i < spans_.size(); ++i) {
      Totals& t = totals[spans_[i].name];
      ++t.calls;
      t.total += spans_[i].end - spans_[i].start;
      t.self += spans_[i].end - spans_[i].start - child_time[i];
    }
    return totals;
  }

  bool Write(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_s\":%.9f,"
                   "\"end_s\":%.9f,\"parent\":%d,\"query\":%llu}\n",
                   i, s.name.c_str(), s.start, s.end, s.parent,
                   static_cast<unsigned long long>(s.query));
    }
    return std::fclose(file) == 0;
  }

 private:
  double Now() const { return SecondsSince(origin_); }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// What the traced calls add up to, per layer.
struct Layers {
  size_t queries = 0;  // traced in-process read queries
  double plan = 0;
  double execute = 0;
  double serialize = 0;
  double serialized_bytes = 0;
  double phases[hwf::obs::kNumProfilePhases] = {};
  double merged_probe = 0;
  hwf::obs::CounterSnapshot counters{};
  size_t appends = 0;
  double append = 0;
  size_t wire_queries = 0;
  double outside_stages = 0;
  double csv_parse = 0;
  size_t rounds = 0;  // traced in-process rounds
  uint64_t compactions = 0;
  double traced_round_seconds = 0;
  double untraced_round_seconds = 0;
  size_t untraced_rounds = 0;

  /// Per query: executor calls, how many of them had profile phases
  /// summing to more than the span around the call, and the largest ratio
  /// of phase sum to span.
  struct PhaseCheck {
    size_t calls = 0;
    size_t over_span = 0;
    double max_ratio = 0;
  };
  std::map<std::string, PhaseCheck> phase_checks;

  /// Adds one executor call's profile. ExecutionProfile sums per-partition
  /// phases over the pool's threads (obs/profile.h), so the phases must fit
  /// in the benchmark's span around the call times the threads that can
  /// run them; a call whose phases do not is a failed check (see
  /// README.md, "Checks").
  void AddProfile(const hwf::obs::ExecutionProfile& profile,
                  double execute_seconds, const std::string& query,
                  size_t threads, RunResult* result) {
    double phase_sum = 0;
    for (size_t p = 0; p < hwf::obs::kNumProfilePhases; ++p) {
      const double seconds =
          profile.phase_seconds(static_cast<ProfilePhase>(p));
      phases[p] += seconds;
      phase_sum += seconds;
    }
    const hwf::obs::CounterSnapshot delta = profile.counters();
    for (size_t c = 0; c < hwf::obs::kNumCounters; ++c) {
      counters.values[c] += delta.values[c];
    }
    if (delta[Counter::kIngestMergedCursorBuilds] > 0) {
      merged_probe += profile.phase_seconds(ProfilePhase::kProbe);
    }
    execute += execute_seconds;
    ++queries;
    PhaseCheck& check = phase_checks[query];
    ++check.calls;
    if (phase_sum > execute_seconds) ++check.over_span;
    check.max_ratio = std::max(check.max_ratio, phase_sum / execute_seconds);
    if (phase_sum > execute_seconds * static_cast<double>(threads)) {
      char message[160];
      std::snprintf(message, sizeof(message),
                    ": profile phases sum to %.6f s in a %.6f s executor call "
                    "on %zu threads",
                    phase_sum, execute_seconds, threads);
      result->Fail(query + message);
    }
  }
};

/// Seconds spent in each layer's call of one in-process query.
struct CallTimes {
  double plan = 0;
  double execute = 0;
  double serialize = 0;
};

/// Plans, executes and serializes one query the way the service does
/// (QueryService::ExecuteQuery and the result formatting of its wire
/// leg), with a span around each layer's call. The read-only replays call
/// PlanQuery, EvaluateWindowSpecGroups and FormatTable themselves rather
/// than QueryService::Query so that each of these calls gets a span of its
/// own; append_stream goes through the service for its catalog's delta
/// keys.
hwf::StatusOr<std::string> ExecuteInProcess(
    const hwf::Table& table, const std::string& sql,
    const hwf::WindowExecutorOptions& exec, hwf::ThreadPool& pool,
    SpanRecorder& spans, uint64_t query_id, CallTimes* times) {
  const int root = spans.Begin("query", -1, query_id);
  int span = spans.Begin("service.plan", root, query_id);
  hwf::StatusOr<hwf::service::PlannedQuery> plan =
      hwf::service::PlanQuery(sql, table);
  times->plan = spans.End(span);
  if (!plan.ok()) return plan.status();
  std::vector<hwf::WindowSpecGroup> groups;
  for (const hwf::service::PlannedGroup& group : plan->groups) {
    groups.push_back(hwf::WindowSpecGroup{&group.spec, group.calls});
  }
  span = spans.Begin("window.execute", root, query_id);
  hwf::StatusOr<std::vector<std::vector<hwf::Column>>> columns =
      hwf::EvaluateWindowSpecGroups(table, groups, exec, pool);
  times->execute = spans.End(span);
  if (!columns.ok()) return columns.status();
  span = spans.Begin("service.serialize", root, query_id);
  std::vector<std::optional<hwf::Column>> slots(plan->output_names.size());
  for (size_t g = 0; g < plan->groups.size(); ++g) {
    for (size_t i = 0; i < (*columns)[g].size(); ++i) {
      slots[plan->groups[g].output_slots[i]] = std::move((*columns)[g][i]);
    }
  }
  hwf::Table out;
  for (size_t slot = 0; slot < slots.size(); ++slot) {
    out.AddColumn(plan->output_names[slot], std::move(*slots[slot]));
  }
  std::string text =
      hwf::service::FormatTable(out, hwf::service::ResultFormat::kCsv);
  times->serialize = spans.End(span);
  spans.End(root);
  return text;
}

hwf::Table ParseTable(const std::string& csv) {
  hwf::StatusOr<hwf::Table> table = hwf::ParseCsv(csv);
  if (!table.ok()) {
    std::fprintf(stderr, "servebench: ParseCsv: %s\n",
                 table.status().ToString().c_str());
    std::abort();  // generated CSV always parses
  }
  return std::move(*table);
}

/// Replays whole rounds of a read-only workload in process until `seconds`
/// have passed, alternating traced and untraced rounds. Keeps the first
/// traced result of every query in `results`.
bool ReplayReadOnly(const Workload& workload, const Dataset& data,
                    double seconds, SpanRecorder& spans, Layers* layers,
                    std::vector<std::string>* results, RunResult* result) {
  hwf::ThreadPool pool(kPoolThreads);
  hwf::mst::TreeCache cache(256ull << 20);
  const std::string csv = FormatCsv(data, 0, workload.table_rows);
  int span = spans.Begin("storage.csv_parse", -1, 0);
  const hwf::Table table = ParseTable(csv);
  layers->csv_parse = spans.End(span);

  hwf::obs::ExecutionProfile profile;
  hwf::WindowExecutorOptions exec;
  exec.profile = &profile;
  if (workload.cache) {
    exec.tree_cache = &cache;
    exec.content_cache_key = "servebench";
    exec.cache_key = "servebench.n" + std::to_string(table.num_rows());
  }
  uint64_t query_id = 0;
  auto round = [&](bool traced) -> bool {
    spans.enabled = traced;
    const Clock::time_point start = Clock::now();
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      CallTimes times;
      hwf::StatusOr<std::string> text =
          ExecuteInProcess(table, workload.queries[q].sql, exec, pool, spans,
                           ++query_id, &times);
      ++result->attempted;
      if (!text.ok()) {
        ++result->failed;
        std::fprintf(stderr, "servebench: %s: %s\n",
                     workload.queries[q].name.c_str(),
                     text.status().ToString().c_str());
        return false;
      }
      if (!traced) continue;
      layers->plan += times.plan;
      layers->serialize += times.serialize;
      layers->serialized_bytes += static_cast<double>(text->size());
      layers->AddProfile(profile, times.execute, workload.queries[q].name,
                         static_cast<size_t>(pool.parallelism()), result);
      if (results->size() < workload.queries.size()) {
        results->push_back(std::move(*text));
      } else if (*text != (*results)[q]) {
        result->Fail(workload.queries[q].name +
                     ": in-process result changed between rounds");
      }
    }
    const double elapsed = SecondsSince(start);
    if (traced) {
      layers->traced_round_seconds += elapsed;
      ++layers->rounds;
    } else {
      layers->untraced_round_seconds += elapsed;
      ++layers->untraced_rounds;
    }
    spans.enabled = true;
    return true;
  };
  spans.enabled = false;
  for (size_t r = 0; r < workload.warmup_rounds; ++r) {
    for (const Query& query : workload.queries) {
      CallTimes times;
      if (!ExecuteInProcess(table, query.sql, exec, pool, spans, 0, &times)
               .ok()) {
        return false;
      }
    }
  }
  spans.enabled = true;
  const Clock::time_point start = Clock::now();
  do {
    if (!round(true) || !round(false)) return false;
  } while (SecondsSince(start) < seconds);
  for (size_t q = 0; q < workload.queries.size(); ++q) {
    const std::string failure =
        CheckResult(data, workload.table_rows, workload.queries[q],
                    (*results)[q], 50, q + 1);
    if (!failure.empty()) result->Fail("in-process " + failure);
  }
  return true;
}

/// The append_stream replay runs through an in-process QueryService: the
/// delta keys the executor needs come from its catalog.
bool ReplayAppends(const Workload& workload, const Dataset& data,
                   double seconds, SpanRecorder& spans, Layers* layers,
                   RunResult* result) {
  hwf::ThreadPool pool(kPoolThreads);
  hwf::service::ServiceOptions service_options;
  service_options.pool = &pool;
  hwf::service::QueryService service(service_options);
  const std::string csv = FormatCsv(data, 0, workload.table_rows);
  int span = spans.Begin("storage.csv_parse", -1, 0);
  service.RegisterTable("ev", ParseTable(csv));
  layers->csv_parse = spans.End(span);

  uint64_t query_id = 0;
  size_t rows = workload.table_rows;
  auto query = [&](const Query& q, bool traced, std::string* text) -> bool {
    spans.enabled = traced;
    ++query_id;
    const int root = spans.Begin("query", -1, query_id);
    int call = spans.Begin("service.query", root, query_id);
    hwf::StatusOr<hwf::service::QueryResult> answer = service.Query(q.sql);
    spans.End(call);
    if (!answer.ok()) {
      std::fprintf(stderr, "servebench: %s: %s\n", q.name.c_str(),
                   answer.status().ToString().c_str());
      spans.enabled = true;
      return false;
    }
    call = spans.Begin("service.serialize", root, query_id);
    *text = hwf::service::FormatTable(answer->table,
                                      hwf::service::ResultFormat::kCsv);
    const double serialize_seconds = spans.End(call);
    spans.End(root);
    spans.enabled = true;
    if (traced) {
      // The service's own record of the call splits it into parse/plan
      // and execution (the executor call the profile describes).
      hwf::StatusOr<std::string> record =
          service.RetainedProfileJson(answer->query_id);
      if (!record.ok()) {
        result->Fail(q.name + ": no retained profile for query " +
                     std::to_string(answer->query_id));
        return true;
      }
      layers->plan += JsonNumber(*record, "parse_plan_seconds");
      layers->serialize += serialize_seconds;
      layers->serialized_bytes += static_cast<double>(text->size());
      layers->AddProfile(*answer->profile,
                         JsonNumber(*record, "exec_seconds"), q.name,
                         static_cast<size_t>(pool.parallelism()), result);
    }
    return true;
  };
  std::vector<std::string> texts(workload.queries.size());
  for (size_t r = 0; r < workload.warmup_rounds; ++r) {
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      if (!query(workload.queries[q], false, &texts[q])) return false;
    }
  }
  const uint64_t compactions_before = service.stats().compaction.completed;
  const Clock::time_point start = Clock::now();
  // Episodes as in the timed run; even episodes are traced, odd ones are
  // not, and the replay ends after an untraced episode.
  for (size_t r = 0;; ++r) {
    const size_t episode = r / workload.episode_rounds;
    const bool traced = episode % 2 == 0;
    if (r > 0 && r % workload.episode_rounds == 0) {
      service.RegisterTable("ev", ParseTable(csv));
      rows = workload.table_rows;
      for (size_t q = 0; q < workload.queries.size(); ++q) {
        if (!query(workload.queries[q], false, &texts[q])) return false;
      }
    }
    const Clock::time_point round_start = Clock::now();
    spans.enabled = traced;
    int call = spans.Begin("ingest.parse_batch", -1, 0);
    const hwf::Table batch =
        ParseTable(FormatCsv(data, rows, rows + workload.append_rows));
    spans.End(call);
    call = spans.Begin("ingest.append", -1, 0);
    const bool appended = service.AppendRows("ev", batch).ok();
    const double append_seconds = spans.End(call);
    spans.enabled = true;
    ++result->attempted;
    if (!appended) {
      ++result->failed;
      return false;
    }
    rows += workload.append_rows;
    if (traced) {
      layers->append += append_seconds;
      ++layers->appends;
    }
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      ++result->attempted;
      if (!query(workload.queries[q], traced, &texts[q])) return false;
    }
    const double elapsed = SecondsSince(round_start);
    if (traced) {
      layers->traced_round_seconds += elapsed;
      ++layers->rounds;
    } else {
      layers->untraced_round_seconds += elapsed;
      ++layers->untraced_rounds;
    }
    if (episode == 0) {
      for (size_t q = 0; q < workload.queries.size(); ++q) {
        const std::string failure = CheckResult(
            data, rows, workload.queries[q], texts[q], 20, query_id + q);
        if (!failure.empty()) result->Fail("in-process " + failure);
      }
    }
    if (!traced && (r + 1) % workload.episode_rounds == 0 &&
        SecondsSince(start) >= seconds) {
      break;
    }
  }
  layers->compactions =
      service.stats().compaction.completed - compactions_before;
  return true;
}

/// Replays `rounds` rounds of the workload over the wire: each QUERY is
/// followed by PROFILE <id>, whose total_seconds is the server's own view
/// of it.
bool ReplayWire(const Options& options, const Workload& workload,
                const Dataset& data, size_t rounds, SpanRecorder& spans,
                Layers* layers, const std::vector<std::string>& in_process,
                RunResult* result) {
  const bool appends = workload.append_rows > 0;
  const std::string base_csv = FormatCsv(data, 0, workload.table_rows);
  std::unique_ptr<Server> server =
      Server::Start(options.serve_binary, workload.cache);
  if (server == nullptr) return false;
  std::string payload;
  std::string extra;
  if (!server->ExchangeWithBody("REGISTER ev", base_csv, &payload)) {
    return false;
  }
  for (size_t r = 0; r < workload.warmup_rounds; ++r) {
    for (const Query& query : workload.queries) {
      if (!server->Exchange("QUERY " + query.sql, &payload)) return false;
    }
  }
  size_t rows = workload.table_rows;
  for (size_t r = 0; r < rounds; ++r) {
    if (appends && r > 0 && r % workload.episode_rounds == 0) {
      if (!server->ExchangeWithBody("REGISTER ev", base_csv, &payload)) {
        return false;
      }
      for (const Query& query : workload.queries) {
        if (!server->Exchange("QUERY " + query.sql, &payload)) return false;
      }
      rows = workload.table_rows;
    }
    if (appends) {
      const std::string batch =
          FormatCsv(data, rows, rows + workload.append_rows);
      const int span = spans.Begin("wire.append", -1, 0);
      ++result->attempted;
      if (!server->ExchangeWithBody("APPEND ev", batch, &payload)) {
        ++result->failed;
        return false;
      }
      spans.End(span);
      rows += workload.append_rows;
    }
    for (size_t q = 0; q < workload.queries.size(); ++q) {
      const Query& query = workload.queries[q];
      const int span = spans.Begin("wire.query", -1, 0);
      ++result->attempted;
      if (!server->Exchange("QUERY " + query.sql, &payload, &extra)) {
        ++result->failed;
        return false;
      }
      const double latency = spans.End(span);
      unsigned long long id = 0;
      std::string profile;
      if (std::sscanf(extra.c_str(), "id=%llu", &id) != 1) {
        result->Fail(query.name + ": QUERY header '" + extra + "' has no id");
        continue;
      }
      const int profile_span = spans.Begin("wire.profile", -1, id);
      if (!server->Exchange("PROFILE " + std::to_string(id), &profile)) {
        return false;
      }
      spans.End(profile_span);
      const double server_seconds = JsonNumber(profile, "total_seconds");
      if (!(latency >= server_seconds)) {
        char message[160];
        std::snprintf(message, sizeof(message),
                      ": client latency %.6f s is below the server's "
                      "total_seconds %.6f s",
                      latency, server_seconds);
        result->Fail(query.name + message);
      }
      layers->outside_stages += latency - server_seconds;
      ++layers->wire_queries;
      if (!appends && payload != in_process[q]) {
        result->Fail(query.name +
                     ": wire result differs from the in-process one");
      }
      if (appends) {
        const std::string failure =
            CheckResult(data, rows, query, payload, 10, id);
        if (!failure.empty()) result->Fail("wire " + failure);
      }
    }
  }
  server->Stop();
  return true;
}

}  // namespace

std::vector<std::string> ColdResultsInProcess(const Workload& workload,
                                              const Dataset& data) {
  hwf::ThreadPool pool(kPoolThreads);
  const hwf::Table table =
      ParseTable(FormatCsv(data, 0, workload.table_rows));
  SpanRecorder spans;
  spans.enabled = false;
  std::vector<std::string> results;
  for (const Query& query : workload.queries) {
    CallTimes times;
    hwf::StatusOr<std::string> text = ExecuteInProcess(
        table, query.sql, hwf::WindowExecutorOptions{}, pool, spans, 0,
        &times);
    results.push_back(text.ok() ? std::move(*text) : std::string());
  }
  return results;
}

RunResult RunTraced(const Options& options, const Workload& workload) {
  RunResult result;
  const bool appends = workload.append_rows > 0;
  const Dataset data = GenerateDataset(
      options.seed,
      workload.table_rows + workload.append_rows * workload.episode_rounds,
      workload.g_hi_groups);
  SpanRecorder spans;
  Layers layers;
  std::vector<std::string> in_process;
  // The in-process leg takes about two thirds of the run; the wire leg
  // replays as many rounds as the in-process leg traced.
  const bool replayed =
      appends ? ReplayAppends(workload, data, options.seconds * 2 / 3, spans,
                              &layers, &result)
              : ReplayReadOnly(workload, data, options.seconds * 2 / 3, spans,
                               &layers, &in_process, &result);
  if (!replayed || !ReplayWire(options, workload, data, layers.rounds, spans,
                               &layers, in_process, &result)) {
    return result;
  }

  auto per_query = [&](double total) {
    return layers.queries > 0 ? total / static_cast<double>(layers.queries)
                              : 0.0;
  };
  const size_t all_rounds = layers.rounds + layers.untraced_rounds;
  auto per_round = [&](Counter counter) {
    return static_cast<double>(layers.counters[counter]) /
           static_cast<double>(std::max<size_t>(layers.rounds, 1));
  };
  auto ratio = [](double part, double whole) {
    return whole > 0 ? part / whole : 0.0;
  };
  auto phase = [&](ProfilePhase p) {
    return per_query(layers.phases[static_cast<size_t>(p)]);
  };
  const uint64_t merged = layers.counters[Counter::kIngestMergedCursorBuilds];

  std::map<std::string, Metric>& m = result.metrics;
  m["service.plan_s"] = {per_query(layers.plan), "s"};
  m["window.execute_s"] = {per_query(layers.execute), "s"};
  m["window.partition_s"] = {phase(ProfilePhase::kPartition), "s"};
  m["window.frame_resolve_s"] = {phase(ProfilePhase::kFrameResolve), "s"};
  m["parallel.sort_s"] = {phase(ProfilePhase::kSort), "s"};
  m["mst.preprocess_s"] = {phase(ProfilePhase::kPreprocess), "s"};
  m["mst.tree_build_s"] = {phase(ProfilePhase::kTreeBuild), "s"};
  m["mst.probe_s"] = {phase(ProfilePhase::kProbe), "s"};
  m["ingest.delta_merge_s"] = {phase(ProfilePhase::kDeltaMerge), "s"};
  m["ingest.merged_probe_s"] = {
      merged > 0 ? layers.merged_probe / static_cast<double>(merged) : 0.0,
      "s"};
  m["ingest.append_s"] = {
      layers.appends > 0 ? layers.append / static_cast<double>(layers.appends)
                         : 0.0,
      "s"};
  m["service.serialize_s"] = {per_query(layers.serialize), "s"};
  m["service.serialize_mb_per_s"] = {
      ratio(layers.serialized_bytes / 1e6, layers.serialize), "MB/s"};
  m["service.outside_stages_s"] = {
      ratio(layers.outside_stages, static_cast<double>(layers.wire_queries)),
      "s"};
  m["storage.csv_parse_s"] = {layers.csv_parse, "s"};
  m["mst.cache_hit_ratio"] = {
      ratio(static_cast<double>(layers.counters[Counter::kCacheHits]),
            static_cast<double>(layers.counters[Counter::kCacheHits] +
                                layers.counters[Counter::kCacheMisses])),
      "ratio"};
  m["parallel.ovc_resolved_ratio"] = {
      ratio(static_cast<double>(layers.counters[Counter::kSortOvcResolved]),
            static_cast<double>(layers.counters[Counter::kSortComparisons])),
      "ratio"};
  m["window.hash_partitioned_rows"] = {
      per_round(Counter::kExecutorHashPartitionedRows), "count"};
  m["window.sorts_shared"] = {per_round(Counter::kExecutorSortsShared),
                              "count"};
  m["parallel.pool_tasks"] = {per_round(Counter::kPoolTasksSubmitted),
                              "count"};
  m["mst.probe_batch_queries"] = {per_round(Counter::kMstProbeBatchQueries),
                                  "count"};
  m["ingest.merged_cursor_builds"] = {
      per_round(Counter::kIngestMergedCursorBuilds), "count"};
  m["ingest.delta_merges"] = {per_round(Counter::kIngestDeltaMerges),
                              "count"};
  m["ingest.compactions"] = {
      static_cast<double>(layers.compactions) /
          static_cast<double>(std::max<size_t>(all_rounds, 1)),
      "count"};
  m["trace.overhead_ratio"] = {
      ratio(layers.traced_round_seconds /
                static_cast<double>(std::max<size_t>(layers.rounds, 1)),
            layers.untraced_round_seconds /
                static_cast<double>(
                    std::max<size_t>(layers.untraced_rounds, 1))) -
          1.0,
      "ratio"};

  const std::string span_path = options.out_dir + "/spans-" + workload.name +
                                "-seed" + std::to_string(options.seed) +
                                ".jsonl";
  if (!spans.Write(span_path)) {
    std::fprintf(stderr, "servebench: cannot write %s\n", span_path.c_str());
    return result;
  }
  std::fprintf(stderr,
               "servebench: %s traced: %zu in-process queries in %zu rounds "
               "(+%zu untraced rounds), %zu wire queries; spans in %s\n"
               "  %-22s %7s %11s %11s %13s\n",
               workload.name.c_str(), layers.queries, layers.rounds,
               layers.untraced_rounds, layers.wire_queries, span_path.c_str(),
               "span", "calls", "total_s", "self_s", "self_ms/call");
  for (const auto& [name, totals] : spans.SelfTimes()) {
    std::fprintf(stderr, "  %-22s %7zu %11.6f %11.6f %13.4f\n", name.c_str(),
                 totals.calls, totals.total, totals.self,
                 1e3 * totals.self / static_cast<double>(totals.calls));
  }
  std::fprintf(stderr,
               "  window.execute phases (ExecutionProfile, summed over the "
               "pool's threads), s/query:");
  for (size_t p = 0; p < hwf::obs::kNumProfilePhases; ++p) {
    std::fprintf(stderr, " %s=%.6f",
                 hwf::obs::ProfilePhaseName(static_cast<ProfilePhase>(p)),
                 per_query(layers.phases[p]));
  }
  std::fprintf(stderr, "\n");
  // The profile's phases are summed over the pool's threads, so they can
  // exceed the executor call's wall time; reported, checked only against
  // wall time times threads (AddProfile).
  for (const auto& [query, check] : layers.phase_checks) {
    std::fprintf(stderr,
                 "servebench: %-24s profile phases above the call's wall "
                 "time in %zu of %zu executor calls (max %.2fx)\n",
                 query.c_str(), check.over_span, check.calls, check.max_ratio);
  }
  result.ok = true;
  return result;
}

}  // namespace servebench
