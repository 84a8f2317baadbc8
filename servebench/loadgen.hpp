// The benchmark's own load generator: every GenerationWork (prompts,
// template stems, fault descriptors) and every arrival time is derived from
// the command-line seed here, and requests reach the server only through
// InferenceServer::try_submit. Nothing from the library's own load or fault
// generators is used, so a change under src/ cannot alter the offered load.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "tensor/random.hpp"
#include "workloads.hpp"

namespace servebench {

/// One generated request: its work and, when injected, which fault.
struct PlannedRequest {
  std::uint64_t index = 0;
  flashabft::serve::GenerationWork work;
  std::string fault;  ///< "" (fault-free), "op_tamper", "kv_page", "page_table".
};

/// `n` tokens drawn uniformly from [0, vocab).
[[nodiscard]] std::vector<std::size_t> random_tokens(flashabft::Rng& rng,
                                                     std::size_t n,
                                                     std::size_t vocab);

/// Request `index` of the workload under `seed`: a pure function of both.
[[nodiscard]] PlannedRequest plan_request(const WorkloadSpec& spec,
                                          std::uint64_t seed,
                                          std::uint64_t index);

/// Warm-up request `index` (short, fault-free, independent of the seed).
[[nodiscard]] flashabft::serve::GenerationWork warmup_work(
    const WorkloadSpec& spec, std::uint64_t index);

/// Poisson arrival offsets (microseconds from the rung start) at `rate_rps`
/// over `duration_s`, for rung `rung` under `seed`.
[[nodiscard]] std::vector<double> arrival_offsets_us(double rate_rps,
                                                     double duration_s,
                                                     std::uint64_t seed,
                                                     std::size_t rung);

/// CPU time of the whole process (every thread), in seconds.
[[nodiscard]] double process_cpu_s();

/// CPU time of the calling thread, in seconds.
[[nodiscard]] double thread_cpu_s();

/// One finished request as the client saw it. Once submitted, the plan no
/// longer holds its prompt (it moved into the request): `prompt_len` keeps
/// the length, and plan_request regenerates the tokens for the
/// correctness check. The benchmark's own memory per request then stays a
/// few hundred bytes, which keeps peak RSS from following throughput.
struct Sample {
  PlannedRequest plan;
  std::size_t prompt_len = 0;
  bool ok = false;  ///< a response arrived (not refused, not failed).
  std::string error;
  flashabft::serve::ServeResponse response;
  std::size_t rung = 0;     ///< open loop: ladder rung; closed loop: 0.
  bool timed = false;       ///< completed inside the timed window.
  double due_us = 0.0;      ///< due time, from the run start.
  double submit_us = 0.0;   ///< submit call start, from the run start.
  double submit_block_us = 0.0;  ///< time spent inside try_submit.
  [[nodiscard]] double late_us() const { return submit_us - due_us; }
  /// Completion time from the run start (submit + server total).
  [[nodiscard]] double done_us() const {
    return submit_us + response.total_us;
  }
};

struct RungWindow {
  double rate_rps = 0.0;
  double start_us = 0.0;  ///< first due time may follow this.
  double end_us = 0.0;    ///< end of the arrival schedule.
  double drained_us = 0.0;  ///< when the rung's last request finished.
};

/// A deque, not a vector: growing it never holds two copies of the
/// samples at once, so it adds no throughput-dependent spikes to peak RSS.
using Samples = std::deque<Sample>;

/// Length of the slices a closed loop's timed window is cut into for the
/// per-slice CPU cost.
inline constexpr double kSliceUs = 1e6;

/// The server's CPU time so far, at a moment of the run.
struct CpuMark {
  double t_us = 0.0;   ///< from the run start.
  double cpu_s = 0.0;  ///< server CPU time since the run start.
};

struct RunResult {
  Samples samples;
  double timed_s = 0.0;  ///< wall time the throughput is taken over.
  /// CPU time the server spent over the same window: the process's CPU
  /// time less the client thread's (the load generator's own polling).
  /// Other threads of the process are idle while a run is measured.
  double server_cpu_s = 0.0;
  /// Closed loop: marks at the start of the timed window, about every
  /// kSliceUs in it, and at its end.
  std::vector<CpuMark> cpu_marks;
  std::vector<RungWindow> rungs;
};

/// Closed loop: `spec.clients` clients for `seconds`, request indices from
/// `first_index`. Requests still running at the end are drained, checked
/// for correctness, and left out of the timed metrics.
[[nodiscard]] RunResult run_closed(flashabft::serve::InferenceServer& server,
                                   const WorkloadSpec& spec,
                                   std::uint64_t seed, double seconds,
                                   std::uint64_t first_index = 0);

/// Open loop: the rate ladder, `seconds * rung_shares[r]` of arrivals on
/// rung r, each rung drained before the next starts.
[[nodiscard]] RunResult run_open(flashabft::serve::InferenceServer& server,
                                 const WorkloadSpec& spec, std::uint64_t seed,
                                 double seconds);

/// Tokens of the requests that completed inside the timed window.
[[nodiscard]] double timed_tokens(const RunResult& run);

/// Server CPU time per generated token, in microseconds. In a closed loop
/// it is the median over the timed window's slices (between consecutive
/// cpu_marks), each request's tokens spread over its lifetime: the first
/// at its first-token time, the rest evenly up to its completion. A
/// stretch of a run on a busier host then moves it less. In an open loop
/// (no marks) it is taken over the whole run.
[[nodiscard]] double cpu_us_per_token(const RunResult& run);

/// Requests outstanding at time `t_us` (due, not yet done).
[[nodiscard]] std::size_t outstanding_at(const Samples& samples,
                                         std::size_t rung, double t_us);

}  // namespace servebench
