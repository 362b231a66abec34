#include "report.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_GIT_SHA
#define PERFBENCH_GIT_SHA "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      {"deliveries_per_s", "1/s"},
      {"busy_us_per_delivery", "us"},
      {"deliver_p50_ms", "ms"},
      {"deliver_p99_ms", "ms"},
      {"round_p50_ms", "ms"},
      {"round_p99_ms", "ms"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"net.sim.events", "count"},
      {"net.sim.self_ns_per_event", "ns"},
      {"net.sim_transport.send_calls", "count"},
      {"net.sim_transport.batch_calls", "count"},
      {"net.sim_transport.targets_per_batch", "count"},
      {"net.sim_transport.ns_per_target", "ns"},
      {"net.sim_transport.dropped", "count"},
      {"broker.handle_calls", "count"},
      {"broker.self_ns_per_handle", "ns"},
      {"broker.deliveries_per_publish", "count"},
      {"broker.forwards_per_publish", "count"},
      {"client.subscriber.self_ns_per_delivery", "ns"},
      {"client.cohort.enroll_s", "s"},
      {"client.cohort.deploy_s", "s"},
      {"client.cohort.cohorts", "count"},
      {"client.cohort.flocks", "count"},
      {"client.cohort.weight_per_event", "count"},
      {"client.cohort.self_ns_per_flock_delivery", "ns"},
      {"net.socket.poll_calls", "count"},
      {"net.socket.busy_poll_frac", "ratio"},
      {"net.socket.self_us_per_busy_poll", "us"},
      {"net.socket.flush_syscalls_per_delivery", "count"},
      {"net.socket.read_calls_per_delivery", "count"},
      {"net.socket.frames_per_flush", "count"},
      {"net.socket.partial_flushes", "count"},
      {"net.socket.pool_high_water", "count"},
      {"net.socket.wire_bytes_per_delivery", "bytes"},
      {"wire.encode_ns", "ns"},
      {"wire.decode_ns", "ns"},
      {"wire.stream_decode_ns_per_frame", "ns"},
      {"gen.lag_p99_ms", "ms"},
      {"gen.late_frac", "ratio"},
      {"broker.region_manager.collect_ms", "ms"},
      {"broker.controller.ingest_ms", "ms"},
      {"broker.controller.reconfigure_ms", "ms"},
      {"broker.deploy_settle_ms", "ms"},
      {"core.dirty_per_round", "count"},
      {"core.evaluated_per_round", "count"},
      {"core.evaluated_frac", "ratio"},
      {"core.changed_frac", "ratio"},
      {"core.ms_per_evaluated_topic", "ms"},
      {"bench.self_frac", "ratio"},
      {"gen.self_frac", "ratio"},
      {"client.publisher.self_frac", "ratio"},
      {"net.sim.self_frac", "ratio"},
      {"net.sim_transport.self_frac", "ratio"},
      {"net.socket.self_frac", "ratio"},
      {"broker.self_frac", "ratio"},
      {"client.subscriber.self_frac", "ratio"},
      {"client.cohort.self_frac", "ratio"},
      {"broker.region_manager.self_frac", "ratio"},
      {"broker.controller.self_frac", "ratio"},
      {"trace.overhead_frac", "ratio"},
      {"trace.self_coverage", "ratio"},
      {"trace.spans_recorded", "count"},
  };
  return specs;
}

void Result::fail(std::uint64_t count, const std::string& what) {
  if (count == 0) return;
  failed += count;
  failures.push_back(std::to_string(count) + " " + what);
}

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string result_json(const Result& result,
                        const std::vector<MetricSpec>& specs) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct() ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : specs) {
    const auto it = result.values.find(spec.name);
    const double value = it == result.values.end() ? 0.0 : it->second;
    out << (first ? "" : ", ") << json_string(spec.name)
        << ": {\"value\": " << json_number(value)
        << ", \"unit\": " << json_string(spec.unit) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

std::string metadata_json(const RunOptions& options,
                          const std::map<std::string, std::string>& extra) {
  std::ostringstream out;
  out << "{\"meta\": {\"workload\": " << json_string(options.workload)
      << ", \"seed\": " << options.seed
      << ", \"seconds\": " << json_number(options.seconds)
      << ", \"trace\": " << (options.trace ? "true" : "false")
      << ", \"scale\": " << json_number(options.scale)
      << ", \"cpu_model\": " << json_string(cpu_model())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string("g++ " __VERSION__)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"git_sha\": " << json_string(PERFBENCH_GIT_SHA);
  for (const auto& [key, value] : extra) {
    out << ", " << json_string(key) << ": " << json_string(value);
  }
  out << "}}";
  return out.str();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    unsigned long long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %llu", &kb) == 1) {
      return static_cast<double>(kb) / 1024.0;
    }
  }
  return 0.0;
}

double percentile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

void DelayHistogram::add(double ms, std::uint64_t weight) {
  const double bin = ms / kBinMs;
  const std::size_t index =
      bin <= 0.0 ? 0
                 : std::min(kBins, static_cast<std::size_t>(bin));
  bins_[index] += weight;
  total_ += weight;
}

double DelayHistogram::percentile(double q) const {
  if (total_ == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(total_)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i <= kBins; ++i) {
    seen += bins_[i];
    if (seen >= target && seen > 0) {
      return static_cast<double>(i + 1) * kBinMs;
    }
  }
  return static_cast<double>(kBins + 1) * kBinMs;
}

std::vector<bool> fastest_items(const std::vector<double>& cost,
                                std::size_t blocks, double keep_fraction) {
  const std::size_t n = cost.size();
  blocks = std::clamp<std::size_t>(blocks, 1, std::max<std::size_t>(1, n));
  const auto block_of = [&](std::size_t i) { return i * blocks / n; };
  std::vector<std::vector<double>> members(blocks);
  for (std::size_t i = 0; i < n; ++i) members[block_of(i)].push_back(cost[i]);
  std::vector<double> medians;
  for (auto& m : members) medians.push_back(median(std::move(m)));
  std::vector<std::size_t> order(blocks);
  for (std::size_t b = 0; b < blocks; ++b) order[b] = b;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return medians[a] < medians[b];
  });
  const auto keep = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::lround(keep_fraction * static_cast<double>(blocks))),
      1, blocks);
  std::vector<bool> kept(blocks, false);
  for (std::size_t i = 0; i < keep; ++i) kept[order[i]] = true;
  std::vector<bool> marks(n, false);
  for (std::size_t i = 0; i < n; ++i) marks[i] = kept[block_of(i)];
  return marks;
}

std::int64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace perfbench
