// servebench: the protected serving stack under three seeded workloads.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--trace-out PREFIX]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload in four quarter-length segments (untraced, traced,
// traced, untraced; the traced ones with the library trace collector
// attached and the benchmark's per-request spans recorded), then replays
// the protected tick layer by layer at the shapes the traced segments saw,
// and reports the per-layer metrics. Both modes check every response for
// correctness outside the timed window; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}. The exit code is
// nonzero on any correctness failure or an invalid (late) open-loop run.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_stats.hpp"
#include "loadgen.hpp"
#include "obs/trace.hpp"
#include "oracle.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace {

using namespace servebench;
using flashabft::serve::Clock;
using flashabft::serve::InferenceServer;
using flashabft::serve::ServePath;
using flashabft::serve::TelemetrySnapshot;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (const auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      throw std::invalid_argument("missing value for " + key);
    }
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = std::stoi(value);
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  if (a.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  return a;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

/// Builds a server, forces its lazy model and scheduler, and runs the
/// warm-up requests to completion. Returns the set-up time as the CPU time
/// the process spent on it, over all threads (no other server is alive at
/// that point): on a shared host the wall time of the same set-up moved by
/// up to 45% between runs as the host's load changed, its CPU time by 15%.
double set_up(const WorkloadSpec& spec, flashabft::obs::TraceCollector* trace,
              std::unique_ptr<InferenceServer>& out) {
  const double cpu0 = process_cpu_s();
  flashabft::serve::ServerConfig cfg = spec.server;
  cfg.trace = trace;
  out = std::make_unique<InferenceServer>(cfg);
  (void)out->model();
  (void)out->scheduler();
  std::vector<std::future<flashabft::serve::ServeResponse>> futures;
  for (std::size_t i = 0; i < kWarmupRequests; ++i) {
    flashabft::serve::ServeRequest request;
    request.id = 1'000'000'000ULL + i;
    request.category = "warmup";
    request.work = warmup_work(spec, i);
    futures.emplace_back();
    if (out->try_submit(std::move(request), futures.back()) !=
        flashabft::serve::SubmitResult::kAccepted) {
      throw std::runtime_error("warm-up request refused");
    }
  }
  for (auto& f : futures) {
    if (!f.get().checksum_clean) {
      throw std::runtime_error("warm-up request not checksum-clean");
    }
  }
  return process_cpu_s() - cpu0;
}

RunResult run_workload(InferenceServer& server, const WorkloadSpec& spec,
                       std::uint64_t seed, double seconds,
                       std::uint64_t first_index) {
  return spec.loop == Loop::kClosed
             ? run_closed(server, spec, seed, seconds, first_index)
             : run_open(server, spec, seed, seconds);
}

bool raised_alarm(const flashabft::serve::ServeResponse& r) {
  return r.alarm_events > 0 || r.scrub_faults_found > 0 ||
         r.path != ServePath::kGuardedClean;
}

/// Correctness of every request of a run.
struct Verdict {
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< requests with any violation below.
  std::size_t refused = 0, errored = 0, dirty = 0, short_output = 0;
  std::size_t mismatch = 0, false_alarm = 0;
  std::size_t injected = 0, detected = 0, injected_mismatch = 0;
  [[nodiscard]] bool correct() const { return failed == 0; }
};

Verdict check(const InferenceServer& server, const WorkloadSpec& spec,
              std::uint64_t seed, const Samples& samples) {
  Verdict v;
  // The samples keep no prompts: regenerate them (a deque, so the cases'
  // pointers stay valid as it grows).
  std::deque<std::vector<std::size_t>> prompts;
  std::vector<OracleCase> cases;
  std::vector<std::size_t> case_of;
  std::vector<char> bad(samples.size(), 0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    const bool injected = !s.plan.fault.empty();
    ++v.attempted;
    if (injected) ++v.injected;
    if (!s.ok) {
      ++(s.error.rfind("refused", 0) == 0 ? v.refused : v.errored);
      bad[i] = 1;
      continue;
    }
    if (!s.response.checksum_clean) {
      ++v.dirty;
      bad[i] = 1;
    }
    if (s.response.tokens.size() != s.plan.work.max_new_tokens) {
      ++v.short_output;
      bad[i] = 1;
    }
    if (injected) {
      if (raised_alarm(s.response)) ++v.detected;
    } else if (raised_alarm(s.response)) {
      ++v.false_alarm;
      bad[i] = 1;
    }
    prompts.push_back(plan_request(spec, seed, s.plan.index).work.prompt);
    cases.push_back({&prompts.back(), &s.response.tokens});
    case_of.push_back(i);
  }
  // The oracle needs no protection of its own: no DMR glue. It runs after
  // the server has stopped, so it may use every core.
  flashabft::GuardedExecutor::Options oracle_options =
      executor_options(spec.server);
  oracle_options.dmr_glue = false;
  const std::vector<bool> ok =
      check_oracle(server.model(), oracle_options, cases,
                   std::max(1u, std::thread::hardware_concurrency()));
  for (std::size_t c = 0; c < cases.size(); ++c) {
    if (ok[c]) continue;
    const std::size_t i = case_of[c];
    if (samples[i].plan.fault.empty()) {
      ++v.mismatch;
      bad[i] = 1;
    } else {
      ++v.injected_mismatch;  // reported, not a benchmark failure.
    }
  }
  for (const char b : bad) v.failed += b;
  return v;
}

void print_verdict(const Verdict& v) {
  std::cout << "correctness: attempted=" << v.attempted
            << " failed=" << v.failed << " refused=" << v.refused
            << " errored=" << v.errored << " checksum_dirty=" << v.dirty
            << " short_output=" << v.short_output
            << " token_mismatch=" << v.mismatch
            << " fault_free_alarms=" << v.false_alarm
            << " failed_share="
            << (v.attempted ? double(v.failed) / double(v.attempted) : 0.0)
            << "\n";
  std::cout << "faults: injected=" << v.injected << " detected=" << v.detected
            << " injected_token_mismatch=" << v.injected_mismatch << "\n";
}

std::string result_json(bool correct, const Verdict& v,
                        const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << v.attempted << ", \"failed\": " << v.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    o << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": "
      << value << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  o << "}}";
  return o.str();
}

// The end-to-end metrics the untraced result line carries: the end_to_end
// list of BENCHMARK.json. The others are printed only. On a shared host the
// wall-clock metrics follow the host's load more than the program: over ten
// seeds of decode-heavy on a 4-core guest whose host was busy, tokens_per_s
// ranged 2990-5896 tok/s (IQR 0.56 of the median) and tpot_p50_ms 2.6-5.1
// ms, while the CPU time per token ranged 262-292 us (IQR 0.07). On the
// gated (closed-loop, fault-free) workloads slo_rate_rps is the completed
// request rate, and detected_share is 1 by definition.
constexpr std::string_view kScored[] = {"cpu_us_per_token", "setup_s",
                                        "peak_rss_mb"};

/// Prints every metric and, for a valid run, the result line (with only
/// the kScored metrics when `scored_only`); returns the exit code.
int emit(const Verdict& v, const std::vector<Metric>& metrics, bool valid,
         bool scored_only) {
  std::vector<Metric> result;
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " = " << m.value << " " << m.unit
              << "\n";
    if (!scored_only || std::ranges::find(kScored, m.name) != std::end(kScored)) {
      result.push_back(m);
    }
  }
  if (!valid) {
    std::cout << "INVALID RUN: generator lateness beyond its bound; not scored\n";
    return 3;
  }
  std::cout << result_json(v.correct(), v, result) << std::endl;
  return v.correct() ? 0 : 1;
}

/// Samples whose latencies the end-to-end metrics are taken from: the timed
/// window of a closed loop; the open-loop rungs up to the reporting rung.
std::vector<const Sample*> latency_samples(const WorkloadSpec& spec,
                                           const RunResult& run) {
  std::vector<const Sample*> out;
  for (const Sample& s : run.samples) {
    if (!s.ok || !s.timed) continue;
    if (spec.loop == Loop::kOpen && s.rung > spec.report_rung) continue;
    out.push_back(&s);
  }
  return out;
}

double ttft_ms(const Sample& s) {
  return ttft_from_due_ms(s.late_us(), s.response.ttft_us);
}

double sample_tpot_ms(const Sample& s) {
  return tpot_ms(s.response.total_us, s.response.ttft_us,
                 s.response.tokens.size())
      .value_or(0.0);
}

bool met_slo(const Sample& s) {
  return meets_slo(s.ok, ttft_ms(s), sample_tpot_ms(s), kTtftLimitMs,
                   kTpotLimitMs);
}

double tokens_per_s(const RunResult& run) {
  return timed_tokens(run) / run.timed_s;
}

/// Open-loop rungs judged against the SLO.
std::vector<RungOutcome> rung_outcomes(const WorkloadSpec& spec,
                                       const RunResult& run) {
  std::vector<RungOutcome> out;
  for (std::size_t r = 0; r < run.rungs.size(); ++r) {
    const RungWindow& w = run.rungs[r];
    RungOutcome o;
    o.rate_rps = w.rate_rps;
    for (const Sample& s : run.samples) {
      if (s.rung != r) continue;
      ++o.sent;
      if (met_slo(s)) ++o.met;
    }
    // The backlog grows if, over the second half of the schedule, more
    // requests piled up than the server can run at once.
    const double mid = 0.5 * (w.start_us + w.end_us);
    o.backlog_grew = outstanding_at(run.samples, r, w.end_us) >
                     outstanding_at(run.samples, r, mid) +
                         spec.server.max_sessions;
    out.push_back(o);
  }
  return out;
}

void print_summary(const std::string& name, const Summary& s) {
  std::cout << "  " << name << ": p50=" << s.p50 << " p" << s.tail_q * 100
            << "=" << s.tail << " (n=" << s.n << ", " << s.beyond
            << " beyond)\n";
}

/// Prints the open-loop generator lateness; false if the run is invalid.
bool lateness_ok(const WorkloadSpec& spec, const RunResult& run) {
  if (spec.loop != Loop::kOpen) return true;
  std::vector<double> late;
  for (const Sample& s : run.samples) late.push_back(s.late_us() / 1000.0);
  const double p99 = percentile(late, 0.99);
  const double worst = late.empty() ? 0.0 : *std::max_element(late.begin(), late.end());
  std::cout << "generator lateness: p99=" << p99 << " ms max=" << worst
            << " ms (bound p99 <= " << spec.lateness_bound_ms << " ms)\n";
  return p99 <= spec.lateness_bound_ms;
}

std::vector<Metric> end_to_end(const WorkloadSpec& spec, const RunResult& run,
                               const Verdict& v, double setup_s,
                               double rss_mb) {
  std::vector<double> ttft, tpot, latency;
  const std::vector<const Sample*> samples = latency_samples(spec, run);
  for (const Sample* s : samples) {
    ttft.push_back(ttft_ms(*s));
    if (const auto t = tpot_ms(s->response.total_us, s->response.ttft_us,
                               s->response.tokens.size())) {
      tpot.push_back(*t);
    }
    latency.push_back((s->late_us() + s->response.total_us) / 1000.0);
  }
  // The tail quantile follows the expected sample count, not the realized
  // one: the open-loop schedule's, or the closed loop's configured count.
  std::size_t tail_n = spec.tail_samples;
  if (spec.loop == Loop::kOpen) {
    tail_n = 0;
    for (std::size_t r = 0; r <= spec.report_rung && r < run.rungs.size();
         ++r) {
      const RungWindow& w = run.rungs[r];
      tail_n += std::size_t(w.rate_rps * (w.end_us - w.start_us) / 1e6);
    }
  }
  const Summary ttft_s = summarize(ttft, tail_n),
                tpot_s = summarize(tpot, tail_n),
                lat_s = summarize(latency, tail_n);
  std::cout << "latency samples"
            << (spec.loop == Loop::kOpen
                    ? " (rungs 0-" + std::to_string(spec.report_rung) + ")"
                    : std::string(" (timed window)"))
            << ":\n";
  print_summary("ttft_ms", ttft_s);
  print_summary("tpot_ms", tpot_s);
  print_summary("latency_ms", lat_s);

  double slo_rps = 0.0;
  if (spec.loop == Loop::kOpen) {
    const std::vector<RungOutcome> rungs = rung_outcomes(spec, run);
    for (std::size_t r = 0; r < rungs.size(); ++r) {
      std::vector<double> rt, rp;
      std::size_t preempted = 0;
      for (const Sample& s : run.samples) {
        if (s.rung != r || !s.ok) continue;
        rt.push_back(ttft_ms(s));
        rp.push_back(sample_tpot_ms(s));
        preempted += s.response.preemptions;
      }
      const Summary a = summarize(rt), b = summarize(rp);
      std::cout << "rung " << r << ": rate=" << rungs[r].rate_rps
                << " rps sent=" << rungs[r].sent
                << " met_slo=" << attainment(rungs[r])
                << " backlog_grew=" << rungs[r].backlog_grew
                << " preemptions=" << preempted
                << " ttft p50/p" << a.tail_q * 100 << "=" << a.p50 << "/"
                << a.tail << " ms tpot p50/p" << b.tail_q * 100 << "="
                << b.p50 << "/" << b.tail << " ms\n";
    }
    slo_rps = slo_rate(rungs, kSloShare);
  } else {
    // A closed loop offers exactly the rate it completes: the SLO rate is
    // that rate when the SLO holds over the timed window.
    RungOutcome o;
    for (const Sample& s : run.samples) {
      if (s.ok && !s.timed) continue;  // drained after the window.
      ++o.sent;
      if (met_slo(s)) ++o.met;
    }
    o.rate_rps = double(samples.size()) / run.timed_s;
    std::cout << "closed loop: completed_rps=" << o.rate_rps
              << " met_slo=" << attainment(o) << "\n";
    slo_rps = slo_rate({o}, kSloShare);
  }
  const double detected =
      v.injected > 0 ? double(v.detected) / double(v.injected) : 1.0;
  return {
      {"tokens_per_s", tokens_per_s(run), "tok/s"},
      {"cpu_us_per_token", cpu_us_per_token(run), "us"},
      {"ttft_p50_ms", ttft_s.p50, "ms"},
      {"ttft_tail_ms", ttft_s.tail, "ms"},
      {"tpot_p50_ms", tpot_s.p50, "ms"},
      {"tpot_tail_ms", tpot_s.tail, "ms"},
      {"latency_tail_ms", lat_s.tail, "ms"},
      {"slo_rate_rps", slo_rps, "1/s"},
      {"detected_share", detected, "ratio"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

/// Counter deltas of the telemetry over the timed part of a run.
struct CounterDelta {
  TelemetrySnapshot before, after;
  [[nodiscard]] std::uint64_t d(std::uint64_t TelemetrySnapshot::*f) const {
    return after.*f - before.*f;
  }
};

/// Appends `part`'s samples and timed window to `into` (not its CPU time:
/// the traced run reports no CPU cost).
void append(RunResult& into, const RunResult& part) {
  into.samples.insert(into.samples.end(), part.samples.begin(),
                      part.samples.end());
  into.rungs.insert(into.rungs.end(), part.rungs.begin(), part.rungs.end());
  into.timed_s += part.timed_s;
}

double recovery_ns(const TelemetrySnapshot& s) {
  double total = 0.0;
  for (std::size_t k = 0; k < flashabft::kOpKindCount; ++k) {
    total += double(s.timing.of(flashabft::OpKind(k),
                                flashabft::obs::GuardPhase::kRecovery)
                        .total);
  }
  return total;
}

Shapes observed_shapes(const RunResult& run, const CounterDelta& c) {
  Shapes shapes;
  const double ticks = double(c.d(&TelemetrySnapshot::scheduler_ticks));
  const double steps = double(c.d(&TelemetrySnapshot::scheduled_steps));
  shapes.batch = std::max<std::size_t>(
      1, std::size_t(std::lround(ticks > 0 ? steps / ticks : 1.0)));
  std::vector<double> contexts, prompts, cached, cached_prompts;
  for (const Sample& s : run.samples) {
    if (!s.ok) continue;
    const std::size_t p = s.prompt_len;
    prompts.push_back(double(p));
    for (std::size_t k = 1; k < s.response.tokens.size(); ++k) {
      contexts.push_back(double(p + k));
    }
    if (s.response.prefix_cached_tokens > 0) {
      cached.push_back(double(s.response.prefix_cached_tokens));
      cached_prompts.push_back(double(p));
    }
  }
  for (std::size_t i = 0; i < shapes.batch; ++i) {
    shapes.contexts.push_back(std::size_t(std::lround(
        percentile(contexts, (double(i) + 0.5) / double(shapes.batch)))));
  }
  shapes.prefill_len = std::size_t(std::lround(percentile(prompts, 0.5)));
  shapes.cached_len = std::size_t(std::lround(percentile(cached, 0.5)));
  shapes.cached_prompt_len =
      std::size_t(std::lround(percentile(cached_prompts, 0.5)));
  return shapes;
}

void write_spans(const std::string& path, const RunResult& run) {
  std::ofstream out(path);
  out << "{\"requests\": [";
  bool first = true;
  for (const Sample& s : run.samples) {
    out << (first ? "" : ",\n") << "{\"id\": " << s.plan.index + 1
        << ", \"fault\": \"" << s.plan.fault << "\", \"ok\": "
        << (s.ok ? "true" : "false") << ", \"due_us\": " << s.due_us
        << ", \"submit_us\": " << s.submit_us
        << ", \"queue_us\": " << s.response.queue_us
        << ", \"first_token_us\": " << s.submit_us + s.response.ttft_us
        << ", \"done_us\": " << s.done_us()
        << ", \"tokens\": " << s.response.tokens.size() << "}";
    first = false;
  }
  out << "]}\n";
}

int run_untraced(const Args& args, const WorkloadSpec& spec) {
  // Set-up is timed several times; the median is reported.
  constexpr int kSetups = 9;
  std::vector<double> setups;
  std::unique_ptr<InferenceServer> server;
  for (int i = 0; i < kSetups; ++i) {
    server.reset();
    setups.push_back(set_up(spec, nullptr, server));
  }
  const double setup_s = percentile(setups, 0.5);
  const RunResult run = run_workload(*server, spec, args.seed, args.seconds, 0);
  const double rss = peak_rss_mb();
  server->shutdown();
  const TelemetrySnapshot t = server->telemetry().snapshot();
  std::cout << "telemetry: preemptions=" << t.preemptions
            << " resumes=" << t.session_resumes
            << " peak_page_util=" << t.peak_page_utilization()
            << " batch_occupancy=" << t.batch_occupancy()
            << " prefix_hit_tokens=" << t.prefix_hit_tokens
            << " scrub_passes=" << t.scrub_passes << "\n";
  const bool valid = lateness_ok(spec, run);
  const Verdict v = check(*server, spec, args.seed, run.samples);
  print_verdict(v);
  return emit(v, end_to_end(spec, run, v, setup_s, rss), valid, true);
}

int run_traced(const Args& args, const WorkloadSpec& spec) {
  // Two pairs of an untraced and a traced segment in the order untraced,
  // traced, traced, untraced, each a quarter of the run; both segments of
  // a pair serve the same requests. Every untraced segment gets a fresh
  // server; the traced segments share one, with the library trace
  // collector attached and the benchmark's request spans kept.
  const double quarter = args.seconds / 4.0;
  const std::uint64_t pair_index[2] = {0, 1'000'000};
  auto run_untraced_segment = [&](std::uint64_t first_index) {
    std::unique_ptr<InferenceServer> server;
    (void)set_up(spec, nullptr, server);
    RunResult segment =
        run_workload(*server, spec, args.seed, quarter, first_index);
    server->shutdown();
    return segment;
  };
  const RunResult plain0 = run_untraced_segment(pair_index[0]);
  flashabft::obs::TraceCollector collector(std::size_t{1} << 18);
  std::unique_ptr<InferenceServer> traced;
  (void)set_up(spec, &collector, traced);
  CounterDelta c;
  c.before = traced->telemetry().snapshot();
  const RunResult traced0 =
      run_workload(*traced, spec, args.seed, quarter, pair_index[0]);
  const RunResult traced1 =
      run_workload(*traced, spec, args.seed, quarter, pair_index[1]);
  c.after = traced->telemetry().snapshot();
  traced->shutdown();
  const RunResult plain1 = run_untraced_segment(pair_index[1]);

  RunResult run;  // the traced segments
  append(run, traced0);
  append(run, traced1);
  RunResult all = run;
  append(all, plain0);
  append(all, plain1);
  const bool valid = lateness_ok(spec, all);
  // Every server was built from the same configuration: one model checks
  // all of them.
  const Verdict v = check(*traced, spec, args.seed, all.samples);
  print_verdict(v);
  if (!args.trace_out.empty()) {
    write_spans(args.trace_out + "-requests.json", run);
    std::ofstream lib(args.trace_out + "-library.json");
    collector.write_chrome_trace(lib);
  }
  // Tracing overhead: the median over the pairs of the traced segment's
  // rise in CPU time per token against its untraced twin. (Its throughput
  // loss, printed too, follows the host's load as well.)
  std::vector<double> overhead;
  for (const auto& [plain, with_trace] :
       {std::pair{&plain0, &traced0}, std::pair{&plain1, &traced1}}) {
    const double cpu = cpu_us_per_token(*plain);
    overhead.push_back(100.0 * (cpu_us_per_token(*with_trace) - cpu) / cpu);
    const double tps = tokens_per_s(*plain);
    std::cout << "trace overhead, pair " << overhead.size() << ": cpu per "
              << "token " << overhead.back() << "%, tokens_per_s "
              << 100.0 * (tps - tokens_per_s(*with_trace)) / tps << "%\n";
  }

  std::vector<Metric> metrics;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    metrics.push_back({name, value, unit});
  };
  std::vector<double> queue, block;
  double prompt_tokens = 0.0, cached_tokens = 0.0;
  for (const Sample& s : run.samples) {
    block.push_back(s.submit_block_us / 1000.0);
    if (!s.ok) continue;
    queue.push_back(s.response.queue_us / 1000.0);
    prompt_tokens += double(s.prompt_len);
    cached_tokens += double(s.response.prefix_cached_tokens);
  }
  add("serve.queue_wait_ms_p50", percentile(queue, 0.5), "ms");
  add("serve.submit_block_ms", percentile(block, 0.99), "ms");
  const double ticks = double(c.d(&TelemetrySnapshot::scheduler_ticks));
  add("serve.batch_occupancy",
      ticks > 0 ? double(c.d(&TelemetrySnapshot::scheduled_steps)) / ticks
                : 0.0,
      "sessions");
  add("serve.preemptions", double(c.d(&TelemetrySnapshot::preemptions)),
      "count");
  add("serve.resumes", double(c.d(&TelemetrySnapshot::session_resumes)),
      "count");
  const double passes = double(c.d(&TelemetrySnapshot::scrub_passes));
  add("scrub.items_per_pass",
      passes > 0 ? double(c.d(&TelemetrySnapshot::scrub_items)) / passes : 0.0,
      "count");
  add("core.prefix_hit_token_share",
      prompt_tokens > 0 ? cached_tokens / prompt_tokens : 0.0, "ratio");
  add("core.prefix_cow_forks",
      double(c.d(&TelemetrySnapshot::prefix_cow_forks)), "count");
  add("core.prefix_evictions",
      double(c.d(&TelemetrySnapshot::prefix_evictions)), "count");
  add("core.peak_page_util", c.after.peak_page_utilization(), "ratio");
  double checks = 0.0, unclean = 0.0, alarms = 0.0;
  for (std::size_t k = 0; k < flashabft::kOpKindCount; ++k) {
    const auto& a = c.after.per_kind[k];
    const auto& b = c.before.per_kind[k];
    checks += double(a.checks - b.checks);
    unclean += double((a.recovered - b.recovered) + (a.escalated - b.escalated));
    alarms += double(a.alarms - b.alarms);
  }
  add("core.first_try_clean_share", checks > 0 ? 1.0 - unclean / checks : 1.0,
      "ratio");
  add("core.retries", alarms, "count");
  add("core.fallbacks", double(c.d(&TelemetrySnapshot::fallback_ops)),
      "count");
  add("core.recovery_ms",
      (recovery_ns(c.after) - recovery_ns(c.before)) / 1e6, "ms");
  add("bench.trace_overhead_pct", percentile(overhead, 0.5), "%");

  const Shapes shapes = observed_shapes(run, c);
  std::cout << "replay shapes: batch=" << shapes.batch << " contexts=[";
  for (std::size_t i = 0; i < shapes.contexts.size(); ++i) {
    std::cout << (i ? "," : "") << shapes.contexts[i];
  }
  std::cout << "] prefill_len=" << shapes.prefill_len
            << " cached_len=" << shapes.cached_len << "/"
            << shapes.cached_prompt_len << "\n";
  const ReplayResult replay = run_replay(spec.server, shapes, args.seed);
  const std::vector<double> self = self_times(replay.tree);
  std::cout << "replayed tick, us per tick (total / self):\n";
  for (std::size_t i = 0; i < replay.tree.size(); ++i) {
    std::cout << "  " << replay.tree[i].name << ": " << replay.tree[i].total
              << " / " << self[i] << "\n";
  }
  // A negative self time means a differential fell below the replay's
  // resolution: the shares built on it are not meaningful for this run.
  for (std::size_t i = 0; i < replay.tree.size(); ++i) {
    if (self[i] < 0.0) {
      std::cout << "WARNING: negative self time for " << replay.tree[i].name
                << " (" << self[i] << " us): its share is below the replay's "
                << "resolution\n";
    }
  }
  metrics.insert(metrics.end(), replay.metrics.begin(), replay.metrics.end());
  return emit(v, metrics, valid, false);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const WorkloadSpec spec = workload_spec(args.workload);
    std::cout << "config: " << config_json(spec) << "\n";
    std::cout << "seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << args.trace << "\n";
    return args.trace == 0 ? run_untraced(args, spec)
                           : run_traced(args, spec);
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 2;
  }
}
