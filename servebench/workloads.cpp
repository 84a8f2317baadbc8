#include "workloads.hpp"

#include <sstream>
#include <stdexcept>

#include "fault/calibrate.hpp"

namespace servebench {

namespace {

using flashabft::ComputeBackend;
using flashabft::DType;
using namespace flashabft::serve;

/// The server every workload runs against; workloads override only what
/// their definition says (dtype, KV budget).
ServerConfig base_server() {
  ServerConfig c;
  c.num_workers = 2;
  c.queue_capacity = 4096;  // parked-session bound: no request is shed.
  c.batching = BatchFormerConfig{};
  c.accel = flashabft::AccelConfig{};
  c.recovery.max_retries = 2;
  c.software_checker = flashabft::CheckerConfig{};
  c.compute = ComputeBackend::kSimd;
  c.screen_extremes = false;
  c.dmr_glue = true;
  c.breaker = CircuitBreakerConfig{};
  c.layer = flashabft::DecoderLayerConfig{};
  c.layer_seed = 2027;

  c.model.vocab_size = 256;
  c.model.model_dim = 64;
  c.model.num_layers = 2;
  c.model.num_heads = 2;
  c.model.head_dim = 32;
  c.model.ffn_dim = 128;
  c.model.max_seq_len = 320;  // longest prompt + output of any workload.
  c.model_seed = 2029;

  c.max_sessions = 16;
  c.scheduler.mode = SchedulerMode::kContinuous;
  c.scheduler.max_batch_tokens = 16;
  c.scheduler.page_size = 16;
  c.scheduler.num_pages = 0;  // fit max_sessions full-length sessions.
  c.scheduler.kv_budget_bytes = 0;
  c.scheduler.preemption = PreemptionPolicy::kNewestFirst;
  c.scheduler.prefix_cache = true;
  c.scheduler.sweep_threads = 2;
  c.scheduler.manual = false;
  c.scheduler.scrub = true;
  // A paced, budgeted scrubber: each pass verifies 64 items (the full walk
  // over the running sessions' pages and seals is a few hundred) and passes
  // are 1 ms apart. A full walk every 200 us (the library default) holds
  // the tick mutex for most of the run, and how ticks and passes then
  // interleave varies from run to run.
  c.scheduler.scrub_budget = 64;
  c.scheduler.scrub_interval = std::chrono::microseconds(1000);
  c.dtype = DType::kF32;
  c.trace = nullptr;
  c.flight = nullptr;
  return c;
}

WorkloadSpec decode_heavy() {
  WorkloadSpec w;
  w.name = "decode-heavy";
  w.loop = Loop::kClosed;
  w.clients = 16;
  w.prompt_min = 32;
  w.prompt_max = 64;
  w.new_min = 96;
  w.new_max = 160;
  w.tail_samples = 900;  // 15 s at ~60 requests/s: p90.
  w.server = base_server();
  return w;
}

WorkloadSpec shared_prefix() {
  WorkloadSpec w;
  w.name = "shared-prefix";
  w.loop = Loop::kClosed;
  w.clients = 8;
  w.templates = 4;
  w.stem_len = 256;
  w.suffix_len = 8;
  // 16 new tokens on average. A fixed length would let the clients lock
  // into cohorts that finish and resubmit in the same tick, and how many
  // lock together depends on the run (TTFT p50 5.0 or 6.1 ms by seed);
  // drawn lengths keep completions out of step, as in decode-heavy.
  w.new_min = 8;
  w.new_max = 24;
  w.tail_samples = 3000;  // 15 s at ~200 requests/s: p99.
  w.server = base_server();
  return w;
}

WorkloadSpec open_mixed() {
  WorkloadSpec w;
  w.name = "open-mixed";
  w.loop = Loop::kOpen;
  w.rates_rps = {20.0, 40.0, 200.0};
  // The latency metrics pool rungs 0 and 1, which get most of the time so
  // that their tail percentile rests on enough samples; the overloaded top
  // rung only has to show the SLO failing.
  w.rung_shares = {0.45, 0.45, 0.1};
  w.report_rung = 1;
  w.prompt_min = 16;
  w.prompt_max = 32;
  w.long_share = 0.2;
  w.long_min = 192;
  w.long_max = 256;
  w.new_min = 16;
  w.new_max = 64;
  w.fault_share = 0.1;
  w.lateness_bound_ms = 25.0;  // 10% of the TTFT limit.
  w.server = base_server();
  w.server.dtype = DType::kBf16;
  w.server.scheduler.kv_budget_bytes = 64 * 4096;
  return w;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"decode-heavy", "shared-prefix", "open-mixed"};
}

WorkloadSpec workload_spec(std::string_view name) {
  if (name == "decode-heavy") return decode_heavy();
  if (name == "shared-prefix") return shared_prefix();
  if (name == "open-mixed") return open_mixed();
  throw std::invalid_argument("unknown workload: " + std::string(name));
}

flashabft::TransformerConfig model_config(const ServerConfig& server) {
  flashabft::TransformerConfig model = server.model;
  model.dtype = server.dtype;
  return model;
}

flashabft::GuardedExecutor::Options executor_options(
    const ServerConfig& server) {
  flashabft::GuardedExecutor::Options options;
  options.checker = server.software_checker;
  options.recovery = server.recovery;
  options.screen_extremes = server.screen_extremes;
  options.screen = server.screen;
  options.compute = server.compute;
  options.dmr_glue = server.dmr_glue;
  options.dtype = server.dtype;
  if (server.dtype != DType::kF32) {
    options.tolerances = flashabft::derive_tolerances(
        server.dtype, flashabft::tolerance_shape_for(model_config(server)));
  }
  return options;
}

std::string config_json(const WorkloadSpec& w) {
  const ServerConfig& c = w.server;
  const SchedulerConfig& s = c.scheduler;
  std::ostringstream o;
  o << "{\"workload\": \"" << w.name << "\", \"loop\": \""
    << (w.loop == Loop::kClosed ? "closed" : "open") << "\"";
  o << ", \"clients\": " << w.clients << ", \"rates_rps\": [";
  for (std::size_t i = 0; i < w.rates_rps.size(); ++i) {
    o << (i ? ", " : "") << w.rates_rps[i];
  }
  o << "], \"prompt\": [" << w.prompt_min << ", " << w.prompt_max
    << "], \"long_share\": " << w.long_share << ", \"long\": [" << w.long_min
    << ", " << w.long_max << "], \"templates\": " << w.templates
    << ", \"stem_len\": " << w.stem_len << ", \"suffix_len\": "
    << w.suffix_len << ", \"new_tokens\": [" << w.new_min << ", "
    << w.new_max << "], \"fault_share\": " << w.fault_share
    << ", \"ttft_limit_ms\": " << kTtftLimitMs
    << ", \"tpot_limit_ms\": " << kTpotLimitMs
    << ", \"slo_share\": " << kSloShare
    << ", \"lateness_bound_ms\": " << w.lateness_bound_ms
    << ", \"tail_samples\": " << w.tail_samples
    << ", \"warmup\": {\"requests\": " << kWarmupRequests
    << ", \"prompt\": " << kWarmupPrompt << ", \"new_tokens\": "
    << kWarmupNew << "}";
  o << ", \"server\": {\"engine\": \"" << scheduler_mode_name(s.mode)
    << "\", \"backend\": \"" << flashabft::backend_name(c.compute)
    << "\", \"workers\": " << c.num_workers
    << ", \"queue_capacity\": " << c.queue_capacity
    << ", \"max_retries\": " << c.recovery.max_retries
    << ", \"dtype\": \"" << flashabft::dtype_name(c.dtype)
    << "\", \"dmr_glue\": " << (c.dmr_glue ? "true" : "false")
    << ", \"screen_extremes\": " << (c.screen_extremes ? "true" : "false")
    << ", \"max_sessions\": " << c.max_sessions
    << ", \"model\": {\"vocab\": " << c.model.vocab_size
    << ", \"d_model\": " << c.model.model_dim
    << ", \"layers\": " << c.model.num_layers
    << ", \"heads\": " << c.model.num_heads
    << ", \"head_dim\": " << c.model.head_dim
    << ", \"ffn\": " << c.model.ffn_dim
    << ", \"max_seq_len\": " << c.model.max_seq_len
    << ", \"seed\": " << c.model_seed << "}"
    << ", \"scheduler\": {\"max_batch_tokens\": " << s.max_batch_tokens
    << ", \"page_size\": " << s.page_size
    << ", \"num_pages\": " << s.num_pages
    << ", \"kv_budget_bytes\": " << s.kv_budget_bytes
    << ", \"preemption\": \""
    << (s.preemption == PreemptionPolicy::kNewestFirst ? "newest_first"
                                                        : "oldest_first")
    << "\", \"prefix_cache\": " << (s.prefix_cache ? "true" : "false")
    << ", \"sweep_threads\": " << s.sweep_threads
    << ", \"scrub\": " << (s.scrub ? "true" : "false")
    << ", \"scrub_budget\": " << s.scrub_budget
    << ", \"scrub_interval_us\": " << s.scrub_interval.count() << "}}}";
  return o.str();
}

}  // namespace servebench
