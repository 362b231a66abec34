// Command-line entry of the end-to-end benchmark.
//
//   perfbench --workload des_fanout|des_cohort|live_fanout|control_churn
//             --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Prints one metadata line, then the result as the last line of stdout, and
// exits 0 only when every correctness audit passed (1 on a failed audit,
// 2 on a usage error).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"
#include "workloads.h"

namespace {

int usage(const char* error) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench --workload "
               "des_fanout|des_cohort|live_fanout|control_churn --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n",
               error);
  return 2;
}

bool parse_number(const char* text, double* out) {
  char* end = nullptr;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return usage("flag without a value");
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    double number = 0.0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--trace-dir") {
      options.trace_dir = value;
    } else if (!parse_number(value, &number)) {
      return usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed" && number >= 0) {
      options.seed = static_cast<std::uint64_t>(number);
      have_seed = true;
    } else if (flag == "--seconds" && number > 0) {
      options.seconds = number;
      have_seconds = true;
    } else if (flag == "--trace" && (number == 0 || number == 1)) {
      options.trace = number == 1;
      have_trace = true;
    } else {
      return usage(("unknown flag or value out of range: " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  multipub::set_log_level(multipub::LogLevel::kWarn);

  perfbench::Result (*run)(const perfbench::RunOptions&) = nullptr;
  if (options.workload == "des_fanout") run = perfbench::run_des_fanout;
  if (options.workload == "des_cohort") run = perfbench::run_des_cohort;
  if (options.workload == "live_fanout") run = perfbench::run_live_fanout;
  if (options.workload == "control_churn") run = perfbench::run_control_churn;
  if (run == nullptr) return usage("unknown workload");

  std::map<std::string, std::string> extra;
  if (options.workload == "live_fanout") {
    extra["offered_rate_pubs_per_s"] = std::to_string(perfbench::kLiveOfferedRate);
  }
  std::printf("%s\n", perfbench::metadata_json(options, extra).c_str());
  const perfbench::Result result = run(options);
  for (const std::string& failure : result.failures) {
    std::fprintf(stderr, "FAILED: %s\n", failure.c_str());
  }
  std::printf("%s\n",
              perfbench::result_json(result,
                                     options.trace
                                         ? perfbench::per_layer_metrics()
                                         : perfbench::end_to_end_metrics())
                  .c_str());
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
