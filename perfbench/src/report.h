// Result record, metric catalogue and small statistics helpers shared by
// every workload of the end-to-end benchmark.
//
// A run prints, as the last line of its standard output, one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// whose metrics are exactly the end-to-end catalogue (untraced run) or the
// per-layer catalogue (traced run) below; BENCHMARK.json lists the same
// names and units, and run.py refuses a result whose names differ.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Options every workload receives from the command line.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured-phase budget at nominal host speed
  bool trace = false;
  /// Size multiplier for worlds and work (1 = the benchmark; the self-tests
  /// run at a small fraction).
  double scale = 1.0;
  /// Directory the traced run writes its sampled spans to ("" = none).
  std::string trace_dir;
  /// Test hook: the n-th subscriber-side delivery (1-based) is swallowed
  /// before it reaches the endpoint, so the correctness audit must fail.
  std::uint64_t drop_delivery = 0;
};

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Metrics of the untraced run; every workload reports all of them.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Metrics of the traced run; a layer a workload does not exercise
/// reports 0.
const std::vector<MetricSpec>& per_layer_metrics();

/// One run's outcome. `failures` explains a non-zero `failed`.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Records `count` failed operations of one kind (no-op for 0).
  void fail(std::uint64_t count, const std::string& what);
  [[nodiscard]] bool correct() const { return failed == 0; }
};

/// The final JSON line for `specs`; a metric the workload did not set is
/// reported as 0.
std::string result_json(const Result& result,
                        const std::vector<MetricSpec>& specs);

/// One JSON line of run metadata: host fingerprint, build, seed, workload
/// parameters.
std::string metadata_json(const RunOptions& options,
                          const std::map<std::string, std::string>& extra);

/// Monotonic wall clock in nanoseconds.
std::int64_t now_ns();

/// Process peak resident set (VmHWM) in MiB.
double peak_rss_mb();

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 for an empty set.
/// Reorders `values`.
double percentile(std::vector<double>& values, double q);

double median(std::vector<double> values);

/// Weighted histogram of simulated delivery times (10 us bins up to 5 s),
/// exact enough for percentiles and cheap enough to fill on the hot path.
class DelayHistogram {
 public:
  void add(double ms, std::uint64_t weight);
  /// Upper edge of the bin holding the q-quantile; 0 when empty.
  [[nodiscard]] double percentile(double q) const;

 private:
  static constexpr double kBinMs = 0.01;
  static constexpr std::size_t kBins = 500000;
  std::vector<std::uint64_t> bins_ = std::vector<std::uint64_t>(kBins + 1, 0);
  std::uint64_t total_ = 0;
};

/// Fastest-block filter. A shared VM host runs a thread at different speeds
/// in phases that last seconds: neighbours' memory and syscall traffic make
/// a fixed kernel swing by 40-60% between phases. `cost` holds measured items
/// in order (control rounds); they are cut into `blocks` contiguous blocks
/// of (nearly) equal count, the blocks rank by the median cost of their
/// items (a slow host phase moves a block's median; a rare slow item of the
/// program's own, such as a periodic stall, does not), and the best
/// `keep_fraction` of the blocks (at least one) is kept. Every item of a kept
/// block counts, its tail included. Returns one mark per item.
std::vector<bool> fastest_items(const std::vector<double>& cost,
                                std::size_t blocks, double keep_fraction);

/// CPU time of the whole process (every thread), in nanoseconds.
std::int64_t process_cpu_ns();

}  // namespace perfbench
