// Spans recorded from outside the program: the benchmark times its own
// calls into each layer's public functions and the handlers the layers
// register, and derives every layer's self time from the span tree.
//
//   Tracer      : a stack of open spans. Closing a span charges its self
//                 time (duration minus the time its children cover) to its
//                 layer, so the per-layer self times of a traced phase add
//                 up to the phase's wall time. Spans of sampled
//                 publications (with the ancestors they hang off) are kept
//                 in memory and written out at exit.
//   Instruments : what all decorating buses of one world share — the
//                 tracer (null while untraced), the subscriber-side arrival
//                 hook and the call counters.
//   LayerBus    : a decorating net::Bus handed to brokers, clients and
//                 pools instead of the transport. It wraps every handler
//                 they register in a span of their layer and every
//                 send/send_batch in a span of the transport's layer.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "net/bus.h"
#include "report.h"
#include "wire/message.h"

namespace perfbench {

namespace net = multipub::net;
namespace wire = multipub::wire;

enum class Layer : std::uint8_t {
  kBench,  ///< the harness itself: the root of every traced phase
  kGen,
  kPublisher,
  kNetSim,
  kSimTransport,
  kSocket,
  kBroker,
  kSubscriber,
  kCohort,
  kRegionManager,
  kController,
};
inline constexpr std::size_t kLayerCount = 11;

/// Module-style layer name ("net.sim", "broker", ...).
const char* layer_name(Layer layer);

struct Span {
  std::uint64_t trace_id = 0;  ///< publication id; 0 for harness spans
  std::int32_t parent = -1;    ///< index into the recorded spans, -1 = root
  Layer layer = Layer::kBench;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t self_ns = 0;
};

class Tracer {
 public:
  /// Keeps the spans of one publication in `sample_every` (by hash of its
  /// id), up to `max_spans` spans.
  explicit Tracer(std::uint32_t sample_every = 64,
                  std::size_t max_spans = 200000);

  /// Trace id shared by every span of one publication: (topic, seq).
  static std::uint64_t publication_id(const wire::Message& msg);

  void open(Layer layer, std::uint64_t trace_id, std::int64_t t_ns);
  /// Closes the innermost open span; returns its self time.
  std::int64_t close(std::int64_t t_ns);

  [[nodiscard]] std::int64_t self_ns(Layer layer) const {
    return self_ns_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::uint64_t calls(Layer layer) const {
    return calls_[static_cast<std::size_t>(layer)];
  }
  [[nodiscard]] std::int64_t total_self_ns() const;
  [[nodiscard]] std::size_t depth() const { return stack_.size(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the recorded spans as JSON lines; false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    std::uint64_t trace_id;
    std::int64_t start_ns;
    std::int64_t child_ns;
    std::int32_t recorded;  ///< index in spans_, -1 while unrecorded
  };
  [[nodiscard]] bool sampled(std::uint64_t trace_id) const;
  std::int32_t record(std::size_t stack_index);

  std::uint32_t sample_every_;
  std::size_t max_spans_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::int64_t self_ns_[kLayerCount] = {};
  std::uint64_t calls_[kLayerCount] = {};
};

/// RAII span around one call from the harness (no-op without a tracer).
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer, std::uint64_t trace_id = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->open(layer, trace_id, now_ns());
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

struct Instruments {
  Tracer* tracer = nullptr;  ///< spans are recorded only while set
  /// Runs at the entry of every subscriber-side handler (endpoint or flock)
  /// before the endpoint sees the message.
  std::function<void(const wire::Message&)> on_arrival;
  std::uint64_t send_calls = 0;
  std::uint64_t batch_calls = 0;
  std::uint64_t batch_targets = 0;
  std::uint64_t arrivals = 0;
  std::uint64_t arrival_weight = 0;  ///< cohort-weighted arrivals
  /// The first handler messages seen while tracing: the workload's own frame
  /// mix, re-encoded afterwards to time the wire codec.
  std::vector<wire::Message> frames;
  /// Test hook: swallow the arrival with this 1-based index.
  std::uint64_t drop_arrival = 0;

  /// Swallows the n-th arrival from now on (0 = none).
  void drop_after(std::uint64_t n) { drop_arrival = n == 0 ? 0 : arrivals + n; }
};

/// Reports a traced phase of `wall_ns`: <layer>.self_frac for every layer,
/// trace.self_coverage (summed self time over the phase's wall time) and
/// trace.spans_recorded; writes the sampled spans under options.trace_dir.
void report_trace(const Tracer& tracer, double wall_ns,
                  const RunOptions& options, Result& result);

class LayerBus final : public net::Bus {
 public:
  /// `handler_layer` names the spans of handlers registered through this
  /// bus; `transport_layer` the spans of its sends. Subscriber-side buses
  /// (kSubscriber, kCohort) also run the arrival hook.
  LayerBus(net::Bus& inner, Instruments& instruments, Layer handler_layer,
           Layer transport_layer);

  void register_handler(net::Address address, Handler handler) override;
  void unregister_handler(net::Address address) override;
  void send(net::Address from, net::Address to, wire::Message msg) override;
  void send_batch(net::Address from, std::span<const net::Address> targets,
                  const wire::Message& msg,
                  wire::MessageType stamped_type) override;
  void set_cohort_directory(const net::CohortDirectory* directory) override;
  [[nodiscard]] const net::CohortDirectory* cohort_directory() const override;

 private:
  net::Bus* inner_;
  Instruments* instruments_;
  Layer handler_layer_;
  Layer transport_layer_;
  bool subscriber_side_;
};

}  // namespace perfbench
