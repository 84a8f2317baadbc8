#include "loadgen.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <thread>

#include "bench_stats.hpp"

namespace servebench {

namespace {

using flashabft::Rng;
using flashabft::serve::Clock;
using flashabft::serve::GenerationWork;
using flashabft::serve::InferenceServer;
using flashabft::serve::ServeRequest;
using flashabft::serve::ServeResponse;
using flashabft::serve::SubmitResult;

// Stream labels, so prompts, templates, warm-up and arrivals never share
// random numbers.
constexpr std::uint64_t kRequestStream = 1;
constexpr std::uint64_t kTemplateStream = 2;
constexpr std::uint64_t kWarmupStream = 3;
constexpr std::uint64_t kArrivalStream = 4;
constexpr std::uint64_t kFaultStream = 5;
constexpr std::uint64_t kLongStream = 6;

std::size_t uniform(Rng& rng, std::size_t lo, std::size_t hi) {
  return lo + std::size_t(rng.next_below(hi - lo + 1));
}

double since_us(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

Clock::time_point at_us(Clock::time_point t0, double us) {
  return t0 + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::micro>(us));
}

/// Adds one fault of kind `kind` (0: op tamper, 1: KV page upset, 2: page
/// table upset) to `plan`, its site drawn from `rng`. Magnitudes are the
/// library's defaults (LayerFault / KvCorruption), never tuned here.
void add_fault(PlannedRequest& plan, std::size_t kind, Rng& rng,
               const flashabft::TransformerConfig& model) {
  GenerationWork& work = plan.work;
  const std::size_t steps = work.max_new_tokens;  // prefill + decode steps.
  switch (kind) {
    case 0: {
      plan.fault = "op_tamper";
      flashabft::serve::GenerationStepFault f;
      f.step = std::size_t(rng.next_below(steps));
      const std::size_t L = model.num_layers;
      switch (rng.next_below(3)) {
        case 0:
          f.fault.kind = flashabft::OpKind::kAttentionFlashAbft;
          f.fault.op_index = std::size_t(rng.next_below(L * model.num_heads));
          break;
        case 1:
          f.fault.kind = flashabft::OpKind::kProjection;
          f.fault.op_index = std::size_t(rng.next_below(L * 4 + 1));
          break;
        default:
          f.fault.kind = flashabft::OpKind::kFfn;
          f.fault.op_index = std::size_t(rng.next_below(L * 2));
          break;
      }
      f.fault.faulty_attempts = 1;  // transient: the first retry is clean.
      work.faults.push_back(f);
      break;
    }
    default: {
      const bool table = kind == 2;
      plan.fault = table ? "page_table" : "kv_page";
      flashabft::serve::KvCorruption c;
      c.step = 1 + std::size_t(rng.next_below(steps - 1));
      c.layer = std::size_t(rng.next_below(model.num_layers));
      c.row = std::size_t(rng.next_below(work.prompt.size()));
      c.col = std::size_t(
          rng.next_below(model.num_heads * model.head_dim));
      c.value_side = rng.next_below(2) == 1;
      c.page_table = table;
      work.kv_corruptions.push_back(c);
      break;
    }
  }
}

/// Stratified selection: true for one request in each block of
/// round(1 / share) consecutive indices, at a slot drawn from the seed, so
/// every run carries the same share (0 share: never).
bool stratified_slot(std::uint64_t seed, std::uint64_t stream,
                     std::uint64_t index, double share) {
  if (share <= 0.0) return false;
  const std::uint64_t block = std::uint64_t(std::llround(1.0 / share));
  return index % block ==
         Rng(seed).derive(stream).derive(index / block).next_below(block);
}

/// The request for `plan`; its prompt moves into the request.
ServeRequest make_request(PlannedRequest& plan) {
  ServeRequest request;
  request.id = plan.index + 1;
  request.category = "servebench";
  std::vector<std::size_t> prompt = std::move(plan.work.prompt);  // empties it
  GenerationWork work = plan.work;
  work.prompt = std::move(prompt);
  request.work = std::move(work);
  return request;
}

double cpu_clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

/// Submits one request, stamping the sample's submit time and block time.
/// Returns false (sample marked refused) if the server shed it.
bool submit(InferenceServer& server, Sample& sample, Clock::time_point t0,
            std::future<ServeResponse>& out) {
  sample.prompt_len = sample.plan.work.prompt.size();
  ServeRequest request = make_request(sample.plan);
  sample.submit_us = since_us(t0);
  const SubmitResult result = server.try_submit(std::move(request), out);
  sample.submit_block_us = since_us(t0) - sample.submit_us;
  if (result != SubmitResult::kAccepted) {
    sample.ok = false;
    sample.error = std::string("refused: ") +
                   flashabft::serve::submit_result_name(result);
    return false;
  }
  return true;
}

void collect(Sample& sample, std::future<ServeResponse>& future) {
  try {
    sample.response = future.get();
    sample.ok = true;
    // The per-op report stream is not needed; dropping it keeps the
    // benchmark's own memory out of the peak-RSS metric.
    // (Move-assigning empty vectors releases the buffers; `= {}` would not.)
    sample.response.reports = std::vector<flashabft::OpReport>();
    sample.response.outputs = std::vector<flashabft::MatrixD>();
    sample.response.final_logits = std::vector<double>();
  } catch (const std::exception& e) {
    sample.ok = false;
    sample.error = e.what();
  }
}

}  // namespace

double process_cpu_s() { return cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return cpu_clock_s(CLOCK_THREAD_CPUTIME_ID); }

std::vector<std::size_t> random_tokens(Rng& rng, std::size_t n,
                                       std::size_t vocab) {
  std::vector<std::size_t> out(n);
  for (std::size_t& t : out) t = std::size_t(rng.next_below(vocab));
  return out;
}

PlannedRequest plan_request(const WorkloadSpec& spec, std::uint64_t seed,
                            std::uint64_t index) {
  const flashabft::TransformerConfig& model = spec.server.model;
  Rng rng = Rng(seed).derive(kRequestStream).derive(index);
  PlannedRequest plan;
  plan.index = index;
  GenerationWork& work = plan.work;
  if (spec.templates > 0) {
    const std::size_t t = std::size_t(rng.next_below(spec.templates));
    Rng stem_rng = Rng(seed).derive(kTemplateStream).derive(t);
    work.prompt = random_tokens(stem_rng, spec.stem_len, model.vocab_size);
    const std::vector<std::size_t> suffix =
        random_tokens(rng, spec.suffix_len, model.vocab_size);
    work.prompt.insert(work.prompt.end(), suffix.begin(), suffix.end());
  } else {
    const bool long_prompt = stratified_slot(seed, kLongStream, index,
                                             spec.long_share);
    const std::size_t n =
        long_prompt ? uniform(rng, spec.long_min, spec.long_max)
                    : uniform(rng, spec.prompt_min, spec.prompt_max);
    work.prompt = random_tokens(rng, n, model.vocab_size);
  }
  work.max_new_tokens = uniform(rng, spec.new_min, spec.new_max);
  // Injection is stratified like long prompts, and the fault kinds rotate
  // over the blocks, so every run carries the same fault mix.
  if (stratified_slot(seed, kFaultStream, index, spec.fault_share)) {
    const std::uint64_t block = std::uint64_t(std::llround(1.0 / spec.fault_share));
    add_fault(plan, std::size_t((index / block) % 3), rng, model);
  }
  return plan;
}

GenerationWork warmup_work(const WorkloadSpec& spec, std::uint64_t index) {
  Rng rng = Rng(0).derive(kWarmupStream).derive(index);
  GenerationWork work;
  work.prompt =
      random_tokens(rng, kWarmupPrompt, spec.server.model.vocab_size);
  work.max_new_tokens = kWarmupNew;
  return work;
}

std::vector<double> arrival_offsets_us(double rate_rps, double duration_s,
                                       std::uint64_t seed, std::size_t rung) {
  Rng rng = Rng(seed).derive(kArrivalStream).derive(rung);
  std::vector<double> out;
  const double end_us = duration_s * 1e6;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) / rate_rps * 1e6;
    if (t >= end_us) break;
    out.push_back(t);
  }
  return out;
}

RunResult run_closed(InferenceServer& server, const WorkloadSpec& spec,
                     std::uint64_t seed, double seconds,
                     std::uint64_t first_index) {
  struct Client {
    bool busy = false;
    Sample sample;
    std::future<ServeResponse> future;
  };
  RunResult run;
  std::vector<Client> clients(spec.clients);
  std::uint64_t next = first_index;
  const Clock::time_point t0 = Clock::now();
  const double end_us = seconds * 1e6;
  const double process0 = process_cpu_s(), client0 = thread_cpu_s();
  auto mark = [&](double t_us) {
    run.cpu_marks.push_back(
        {t_us, (process_cpu_s() - process0) - (thread_cpu_s() - client0)});
  };
  mark(0.0);
  double next_mark_us = kSliceUs;
  bool window_open = true;
  auto close_window = [&] {
    if (!window_open) return;
    window_open = false;
    mark(since_us(t0));
    run.server_cpu_s = run.cpu_marks.back().cpu_s;
  };
  bool any_busy = true;
  while (any_busy || since_us(t0) < end_us) {
    const double now_us = since_us(t0);
    if (now_us >= end_us) {
      close_window();
    } else if (now_us >= next_mark_us) {
      mark(now_us);
      while (next_mark_us <= now_us) next_mark_us += kSliceUs;
    }
    bool progressed = false;
    any_busy = false;
    for (Client& c : clients) {
      if (c.busy &&
          c.future.wait_for(std::chrono::seconds(0)) ==
              std::future_status::ready) {
        collect(c.sample, c.future);
        c.sample.timed = c.sample.ok && c.sample.done_us() <= end_us;
        run.samples.push_back(std::move(c.sample));
        c.busy = false;
        progressed = true;
      }
      if (!c.busy && since_us(t0) < end_us) {
        c.sample = Sample{};
        c.sample.plan = plan_request(spec, seed, next++);
        c.sample.due_us = since_us(t0);  // closed loop: due when sent.
        if (submit(server, c.sample, t0, c.future)) {
          c.busy = true;
        } else {
          run.samples.push_back(std::move(c.sample));
        }
        progressed = true;
      }
      any_busy = any_busy || c.busy;
    }
    // Poll the replies at 5 kHz: short against every request, light on CPU.
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  close_window();
  run.timed_s = seconds;
  return run;
}

RunResult run_open(InferenceServer& server, const WorkloadSpec& spec,
                   std::uint64_t seed, double seconds) {
  RunResult run;
  std::uint64_t next = 0;
  const Clock::time_point t0 = Clock::now();
  const double process0 = process_cpu_s(), client0 = thread_cpu_s();
  for (std::size_t r = 0; r < spec.rates_rps.size(); ++r) {
    RungWindow window;
    window.rate_rps = spec.rates_rps[r];
    window.start_us = since_us(t0);
    const double rung_s = seconds * spec.rung_shares[r];
    const std::vector<double> offsets =
        arrival_offsets_us(window.rate_rps, rung_s, seed, r);
    const std::size_t first = run.samples.size();
    std::vector<std::future<ServeResponse>> futures(offsets.size());
    std::vector<bool> accepted(offsets.size(), false);
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      Sample sample;
      sample.plan = plan_request(spec, seed, next++);
      sample.rung = r;
      sample.due_us = window.start_us + offsets[i];
      std::this_thread::sleep_until(at_us(t0, sample.due_us));
      accepted[i] = submit(server, sample, t0, futures[i]);
      run.samples.push_back(std::move(sample));
    }
    window.end_us = window.start_us + rung_s * 1e6;
    for (std::size_t i = 0; i < offsets.size(); ++i) {
      Sample& sample = run.samples[first + i];
      if (accepted[i]) collect(sample, futures[i]);
      sample.timed = true;
      if (sample.ok) {
        window.drained_us = std::max(window.drained_us, sample.done_us());
      }
    }
    window.drained_us = std::max(window.drained_us, window.end_us);
    // The next rung starts on an idle server.
    std::this_thread::sleep_until(at_us(t0, window.drained_us));
    run.timed_s += (window.drained_us - window.start_us) / 1e6;
    run.rungs.push_back(window);
  }
  run.server_cpu_s = (process_cpu_s() - process0) - (thread_cpu_s() - client0);
  return run;
}

double timed_tokens(const RunResult& run) {
  double tokens = 0.0;
  for (const Sample& s : run.samples) {
    if (s.ok && s.timed) tokens += double(s.response.tokens.size());
  }
  return tokens;
}

double cpu_us_per_token(const RunResult& run) {
  const std::vector<CpuMark>& marks = run.cpu_marks;
  if (marks.size() < 2) return 1e6 * run.server_cpu_s / timed_tokens(run);
  std::vector<double> tokens(marks.size() - 1, 0.0);
  for (const Sample& s : run.samples) {
    const std::size_t n = s.response.tokens.size();
    if (!s.ok || n == 0) continue;
    const double first = s.submit_us + s.response.ttft_us;
    const double done = std::max(first, s.done_us());
    for (std::size_t k = 0; k + 1 < marks.size(); ++k) {
      const double a = marks[k].t_us, b = marks[k + 1].t_us;
      if (first >= a && first < b) tokens[k] += 1.0;
      const double overlap = std::min(b, done) - std::max(a, first);
      if (n > 1 && overlap > 0.0) {
        tokens[k] += double(n - 1) * overlap / (done - first);
      }
    }
  }
  std::vector<double> per_token;
  for (std::size_t k = 0; k + 1 < marks.size(); ++k) {
    if (tokens[k] > 0.0) {
      per_token.push_back(1e6 * (marks[k + 1].cpu_s - marks[k].cpu_s) /
                          tokens[k]);
    }
  }
  return percentile(per_token, 0.5);
}

std::size_t outstanding_at(const Samples& samples,
                           std::size_t rung, double t_us) {
  std::size_t n = 0;
  for (const Sample& s : samples) {
    if (s.rung != rung || s.due_us > t_us) continue;
    if (!s.ok || s.done_us() > t_us) ++n;
  }
  return n;
}

}  // namespace servebench
