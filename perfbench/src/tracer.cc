#include "tracer.h"

#include <cstdio>
#include <utility>

#include "common/rng.h"

namespace perfbench {

namespace {
constexpr std::size_t kFrameSample = 4096;
}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kGen: return "gen";
    case Layer::kPublisher: return "client.publisher";
    case Layer::kNetSim: return "net.sim";
    case Layer::kSimTransport: return "net.sim_transport";
    case Layer::kSocket: return "net.socket";
    case Layer::kBroker: return "broker";
    case Layer::kSubscriber: return "client.subscriber";
    case Layer::kCohort: return "client.cohort";
    case Layer::kRegionManager: return "broker.region_manager";
    case Layer::kController: return "broker.controller";
  }
  return "?";
}

Tracer::Tracer(std::uint32_t sample_every, std::size_t max_spans)
    : sample_every_(sample_every == 0 ? 1 : sample_every),
      max_spans_(max_spans) {
  stack_.reserve(64);
}

std::uint64_t Tracer::publication_id(const wire::Message& msg) {
  return (static_cast<std::uint64_t>(
              static_cast<std::uint32_t>(msg.topic.value()) + 1)
          << 40) ^
         msg.seq;
}

bool Tracer::sampled(std::uint64_t trace_id) const {
  return trace_id != 0 && multipub::mix64(trace_id) % sample_every_ == 0;
}

std::int32_t Tracer::record(std::size_t stack_index) {
  Open& frame = stack_[stack_index];
  if (frame.recorded >= 0) return frame.recorded;
  if (spans_.size() >= max_spans_) return -1;
  const std::int32_t parent = stack_index == 0 ? -1 : record(stack_index - 1);
  Span span;
  span.trace_id = frame.trace_id;
  span.parent = parent;
  span.layer = frame.layer;
  span.start_ns = frame.start_ns;
  spans_.push_back(span);
  frame.recorded = static_cast<std::int32_t>(spans_.size()) - 1;
  return frame.recorded;
}

void Tracer::open(Layer layer, std::uint64_t trace_id, std::int64_t t_ns) {
  stack_.push_back(Open{layer, trace_id, t_ns, 0, -1});
  // A sampled span records itself and, on demand, the ancestors it hangs
  // off, so every recorded span's parent is recorded too.
  if (sampled(trace_id)) (void)record(stack_.size() - 1);
}

std::int64_t Tracer::close(std::int64_t t_ns) {
  const Open frame = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = t_ns - frame.start_ns;
  const std::int64_t self = duration - frame.child_ns;
  const auto index = static_cast<std::size_t>(frame.layer);
  self_ns_[index] += self;
  ++calls_[index];
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (frame.recorded >= 0) {
    Span& span = spans_[static_cast<std::size_t>(frame.recorded)];
    span.end_ns = t_ns;
    span.self_ns = self;
  }
  return self;
}

std::int64_t Tracer::total_self_ns() const {
  std::int64_t total = 0;
  for (const std::int64_t ns : self_ns_) total += ns;
  return total;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"trace_id\": %llu, \"parent\": %d, \"name\": \"%s\", "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"self_ns\": %lld}\n",
                 static_cast<unsigned long long>(span.trace_id), span.parent,
                 layer_name(span.layer),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.self_ns));
  }
  return std::fclose(out) == 0;
}

void report_trace(const Tracer& tracer, double wall_ns,
                  const RunOptions& options, Result& result) {
  for (std::size_t i = 0; i < kLayerCount; ++i) {
    const auto layer = static_cast<Layer>(i);
    result.set(std::string(layer_name(layer)) + ".self_frac",
               wall_ns > 0.0 ? static_cast<double>(tracer.self_ns(layer)) /
                                   wall_ns
                             : 0.0);
  }
  result.set("trace.self_coverage",
             wall_ns > 0.0
                 ? static_cast<double>(tracer.total_self_ns()) / wall_ns
                 : 0.0);
  result.set("trace.spans_recorded",
             static_cast<double>(tracer.spans().size()));
  if (options.trace_dir.empty()) return;
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) +
                           ".spans.jsonl";
  if (!tracer.write_jsonl(path)) {
    std::fprintf(stderr, "warning: cannot write spans to %s\n", path.c_str());
  }
}

LayerBus::LayerBus(net::Bus& inner, Instruments& instruments,
                   Layer handler_layer, Layer transport_layer)
    : inner_(&inner),
      instruments_(&instruments),
      handler_layer_(handler_layer),
      transport_layer_(transport_layer),
      subscriber_side_(handler_layer == Layer::kSubscriber ||
                       handler_layer == Layer::kCohort) {}

void LayerBus::register_handler(net::Address address, Handler handler) {
  inner_->register_handler(
      address, [this, handler = std::move(handler)](const wire::Message& msg) {
        Instruments& in = *instruments_;
        if (subscriber_side_ && (msg.type == wire::MessageType::kDeliver)) {
          ++in.arrivals;
          if (in.arrivals == in.drop_arrival) return;
          in.arrival_weight += msg.weight;
          if (in.on_arrival) in.on_arrival(msg);
        }
        if (in.tracer == nullptr) {
          handler(msg);
          return;
        }
        if (in.frames.size() < kFrameSample) in.frames.push_back(msg);
        Tracer* tracer = in.tracer;
        tracer->open(handler_layer_, Tracer::publication_id(msg),
                     now_ns());
        handler(msg);
        tracer->close(now_ns());
      });
}

void LayerBus::unregister_handler(net::Address address) {
  inner_->unregister_handler(address);
}

void LayerBus::send(net::Address from, net::Address to, wire::Message msg) {
  Instruments& in = *instruments_;
  ++in.send_calls;
  if (in.tracer == nullptr) {
    inner_->send(from, to, std::move(msg));
    return;
  }
  Tracer* tracer = in.tracer;
  tracer->open(transport_layer_, Tracer::publication_id(msg), now_ns());
  inner_->send(from, to, std::move(msg));
  tracer->close(now_ns());
}

void LayerBus::send_batch(net::Address from,
                          std::span<const net::Address> targets,
                          const wire::Message& msg,
                          wire::MessageType stamped_type) {
  Instruments& in = *instruments_;
  ++in.batch_calls;
  in.batch_targets += targets.size();
  if (in.tracer == nullptr) {
    inner_->send_batch(from, targets, msg, stamped_type);
    return;
  }
  Tracer* tracer = in.tracer;
  tracer->open(transport_layer_, Tracer::publication_id(msg), now_ns());
  inner_->send_batch(from, targets, msg, stamped_type);
  tracer->close(now_ns());
}

void LayerBus::set_cohort_directory(const net::CohortDirectory* directory) {
  inner_->set_cohort_directory(directory);
}

const net::CohortDirectory* LayerBus::cohort_directory() const {
  return inner_->cohort_directory();
}

}  // namespace perfbench
