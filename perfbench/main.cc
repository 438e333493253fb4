// The benchmark of record: runs one workload for a fixed measured time,
// checks every output, and prints its metrics. The last line of standard
// output is one JSON object: correct, attempted, failed and metrics.
//
//   perfbench --workload city_day|quote_browse|fleet_cruise --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 the per-layer
// metrics, and writes a Chrome trace-event file to DIR.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "util/timer.h"

namespace {

/// Started during static initialisation, so set-up is timed from the
/// process's start.
const ptrider::util::WallTimer g_process_clock;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(const perfbench::RunSummary& s) {
  std::string json = std::string("{\"correct\": ") +
                     (s.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(s.attempted) +
                     ", \"failed\": " + std::to_string(s.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < s.metrics.size(); ++i) {
    const perfbench::Metric& m = s.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return json + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  opts.out_dir = ".bench_out";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      opts.workload = value;
      have_workload = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      opts.seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      opts.seconds = std::strtod(value, &end);
      if (!(opts.seconds >= 0.0)) return Usage("--seconds must be >= 0");
    } else if (std::strcmp(flag, "--trace") == 0) {
      opts.trace = std::strtol(value, &end, 10) != 0;
    } else if (std::strcmp(flag, "--out-dir") == 0) {
      opts.out_dir = value;
    } else {
      return Usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') return Usage("malformed number");
  }
  if (!have_workload) return Usage("--workload is required");
  if (!opts.out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.out_dir, ec);
    if (ec) return Usage("cannot create --out-dir");
  }

  auto summary = perfbench::RunBenchmark(opts, g_process_clock);
  if (!summary.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 summary.status().ToString().c_str());
    return 1;
  }
  for (const std::string& p : summary->problems) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", p.c_str());
  }

  std::printf("workload %s, seed %llu, %s run: %d rounds, %lld operations, "
              "%lld failed, run-level checks %s\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              opts.trace ? "traced" : "untraced", summary->rounds,
              static_cast<long long>(summary->attempted),
              static_cast<long long>(summary->failed),
              summary->correct ? "passed" : "FAILED");
  std::printf("round seconds:");
  for (const double w : summary->round_wall_s) std::printf(" %.3f", w);
  std::printf("\noutcome of one round: %s\n",
              summary->outcome.DebugString().c_str());
  for (const perfbench::Metric& m : summary->metrics) {
    std::printf("  %-28s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (!summary->trace_path.empty()) {
    std::printf("trace written to %s\n", summary->trace_path.c_str());
  }
  const std::string json = ResultJson(*summary);
  if (!opts.out_dir.empty()) {
    const std::string path = opts.out_dir + "/result-" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + "-trace" +
                             (opts.trace ? "1" : "0") + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", json.c_str());
  return 0;
}
