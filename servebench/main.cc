// servebench — the served-query benchmark's driver. See README.md.
//
//   servebench --workload cold_scan --seed 1 --seconds 10 --trace 0
//       --serve path/to/hwf_serve --out path/to/results
//
// Prints the result as one JSON object on the last line of stdout and
// exits 0, or exits 1 without a result when an operation could not run.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "servebench.h"

namespace {

using servebench::Options;
using servebench::RunResult;

void Usage() {
  std::fprintf(stderr,
               "usage: servebench --workload cold_scan|warm_dashboard|"
               "append_stream --serve HWF_SERVE --out DIR\n"
               "                  [--seed N] [--seconds S] [--trace 0|1]\n");
}

std::string ResultJson(const RunResult& result) {
  std::string json = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metric.value);
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metric.unit +
            "\"}";
    first = false;
  }
  return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--serve") {
      options.serve_binary = value;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  const std::unique_ptr<servebench::Workload> workload =
      servebench::MakeWorkload(options.workload);
  if (workload == nullptr || options.serve_binary.empty() ||
      options.out_dir.empty() || options.seconds <= 0) {
    Usage();
    return 2;
  }
  ::mkdir(options.out_dir.c_str(), 0755);

  const RunResult result = options.trace
                               ? servebench::RunTraced(options, *workload)
                               : servebench::RunTimed(options, *workload);
  for (const std::string& error : result.errors) {
    std::fprintf(stderr, "servebench: CHECK FAILED: %s\n", error.c_str());
  }
  if (!result.ok) {
    std::fprintf(stderr, "servebench: %s did not run to its end\n",
                 options.workload.c_str());
    return 1;
  }
  const std::string json = ResultJson(result);
  const std::string path = options.out_dir + "/result-" + options.workload +
                           "-seed" + std::to_string(options.seed) + "-trace" +
                           (options.trace ? "1" : "0") + ".json";
  if (std::FILE* file = std::fopen(path.c_str(), "w")) {
    std::fprintf(file, "%s\n", json.c_str());
    std::fclose(file);
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
