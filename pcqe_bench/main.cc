// pcqe_bench: the repository's end-to-end benchmark binary. Usually started
// through run.py, which builds it; it can also be run directly:
//
//   pcqe_bench --workload cold_mix|warm_sessions|improve_accept --seed N
//              --seconds S --trace 0|1 [--work-dir D] [--trace-dir D]
//              [--git-sha SHA] [--source-sha SHA] [--expected-plan-cost C]
//
// Prints an environment header, the input fingerprints and every measured
// metric as text, then one JSON line with the check counts and three metric
// maps, "end_to_end", "per_layer" (empty without --trace 1) and "info". run.py
// turns that line into the benchmark's result line. Exits non-zero when any output
// or durability check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "workloads.h"

#ifndef PCQE_BENCH_BUILD_TYPE
#define PCQE_BENCH_BUILD_TYPE "unknown"
#endif

namespace pcqe::bench {
namespace {

/// The build type every recorded number must come from; anything else is
/// flagged as not comparable.
constexpr const char* kComparableBuildType = "Release";

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: pcqe_bench --workload cold_mix|warm_sessions|improve_accept "
               "--seed N --seconds S --trace 0|1 [--work-dir D] [--trace-dir D] "
               "[--git-sha SHA] [--source-sha SHA] [--expected-plan-cost C]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args = {{"--seed", "1"},
                                             {"--seconds", "10"},
                                             {"--trace", "0"},
                                             {"--work-dir", ".bench_work"},
                                             {"--trace-dir", "."},
                                             {"--git-sha", "unknown"},
                                             {"--source-sha", "unknown"}};
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1) return Usage("arguments come in --name value pairs");

  RunConfig config;
  config.workload = args["--workload"];
  config.seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  config.seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  config.trace = args["--trace"] == "1";
  config.work_dir = args["--work-dir"];
  config.trace_dir = args["--trace-dir"];
  if (args.count("--expected-plan-cost") != 0) {
    config.expected_plan_cost = std::strtod(args["--expected-plan-cost"].c_str(), nullptr);
  }
  if (config.seconds <= 0.0) return Usage("--seconds must be positive");
  std::filesystem::create_directories(config.work_dir);
  std::filesystem::create_directories(config.trace_dir);

  Report report;
  if (config.workload == "cold_mix") {
    report = RunColdMix(config);
  } else if (config.workload == "warm_sessions") {
    report = RunWarmSessions(config);
  } else if (config.workload == "improve_accept") {
    report = RunImproveAccept(config);
  } else {
    return Usage("unknown --workload");
  }

  std::string build_type = PCQE_BENCH_BUILD_TYPE;
  std::string env = "{\"workload\":" + JsonString(config.workload) +
                    ",\"seed\":" + std::to_string(config.seed) +
                    ",\"trace\":" + (config.trace ? "1" : "0") +
                    ",\"seconds\":" + JsonNumber(config.seconds) +
                    ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
                    ",\"build_type\":" + JsonString(build_type) +
                    ",\"comparable\":" + (build_type == kComparableBuildType ? "true" : "false") +
                    ",\"compiler\":" + JsonString(Compiler()) +
                    ",\"git_sha\":" + JsonString(args["--git-sha"]) +
                    ",\"source_sha256\":" + JsonString(args["--source-sha"]);
  for (const auto& [key, value] : report.env) {
    env += ',';
    env += JsonString(key);
    env += ':';
    env += JsonString(value);
  }
  std::printf("ENV %s}\n", env.c_str());
  if (build_type != kComparableBuildType) {
    std::printf("WARNING build type %s is not %s: these numbers are not comparable\n",
                build_type.c_str(), kComparableBuildType);
  }
  for (const auto& [what, hash] : report.fingerprints) {
    std::printf("FINGERPRINT %s %s\n", what.c_str(), hash.c_str());
  }
  double error_rate =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  auto print = [](const char* kind, const Metric& m) {
    std::printf("%s %-40s %.6g %s\n", kind, m.name.c_str(), m.value, m.unit.c_str());
  };
  for (const Metric& m : report.end_to_end) print("METRIC", m);
  print("METRIC", {"error_rate", error_rate, "ratio"});
  for (const Metric& m : report.info) print("INFO", m);
  for (const Metric& m : report.per_layer) print("LAYER", m);

  auto json_map = [](const std::vector<Metric>& metrics) {
    std::string out;
    for (const Metric& m : metrics) {
      if (!out.empty()) out += ", ";
      out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
             ", \"unit\": " + JsonString(m.unit) + "}";
    }
    return "{" + out + "}";
  };
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"end_to_end\": %s, "
              "\"per_layer\": %s, \"info\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), json_map(report.end_to_end).c_str(),
              json_map(report.per_layer).c_str(), json_map(report.info).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace pcqe::bench

int main(int argc, char** argv) { return pcqe::bench::Main(argc, argv); }
