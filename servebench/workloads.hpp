// The benchmark's one configuration file: every workload's traffic shape,
// SLO limits, rate ladder, fault mix and the full server configuration it
// runs against. Every ServerConfig / SchedulerConfig field a workload
// depends on is set here explicitly, so nothing is inherited from library
// defaults (the library's default engine, for one, is not the continuous
// scheduler), and the whole configuration is echoed into the output.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serve/server.hpp"

namespace servebench {

enum class Loop { kClosed, kOpen };

// SLO limits, fixed once from the seed commit: a request meets the SLO when
// its TTFT and its TPOT are both within the limits, and a rate meets it when
// kSloShare of the requests sent do.
inline constexpr double kTtftLimitMs = 250.0;
inline constexpr double kTpotLimitMs = 25.0;
inline constexpr double kSloShare = 0.95;

// Warm-up requests run to completion before timing starts (part of set-up);
// they are left out of every timed metric.
inline constexpr std::size_t kWarmupRequests = 16;
inline constexpr std::size_t kWarmupPrompt = 32;
inline constexpr std::size_t kWarmupNew = 32;

struct WorkloadSpec {
  std::string name;
  Loop loop = Loop::kClosed;

  // Closed loop: clients, each resubmitting as soon as its reply arrives.
  std::size_t clients = 0;
  // Open loop: Poisson arrivals at each rate of the ladder, in order, for
  // an equal share of the measured time each.
  std::vector<double> rates_rps;
  /// Open loop: each rung's share of the measured time.
  std::vector<double> rung_shares;
  /// Open loop: the latency metrics are taken from the requests of rungs
  /// 0..report_rung.
  std::size_t report_rung = 0;

  // Unshared prompts: `long_share` of requests (one in every
  // round(1 / long_share), at a seeded slot) draw [long_min, long_max]
  // tokens, the rest [prompt_min, prompt_max].
  std::size_t prompt_min = 0, prompt_max = 0;
  double long_share = 0.0;
  std::size_t long_min = 0, long_max = 0;
  // Shared prompts (templates > 0): template stem + private suffix.
  std::size_t templates = 0, stem_len = 0, suffix_len = 0;
  // New tokens per request, uniform in [new_min, new_max].
  std::size_t new_min = 0, new_max = 0;

  /// Share of requests carrying one injected fault (open loop only).
  double fault_share = 0.0;

  /// Closed loop: the sample count the tail percentile is chosen for, the
  /// count a run of the benchmark's length gives at the seed commit. Fixed,
  /// so that a faster or slower run does not switch percentiles. (Open
  /// loop: the report rung's scheduled count.)
  std::size_t tail_samples = 0;

  /// Open loop: a run whose generator was late by more than this at its
  /// p99 (due -> submit) is invalid and not scored.
  double lateness_bound_ms = 0.0;

  flashabft::serve::ServerConfig server;
};

/// Names of every workload this file defines.
[[nodiscard]] std::vector<std::string> workload_names();

/// The named workload; throws std::invalid_argument for an unknown name.
[[nodiscard]] WorkloadSpec workload_spec(std::string_view name);

/// The model shape the server builds for `server` (its dtype applied).
[[nodiscard]] flashabft::TransformerConfig model_config(
    const flashabft::serve::ServerConfig& server);

/// The guarded-executor options the server derives from `server`: backend,
/// DMR, dtype and the dtype's calibrated tolerances. Used by the oracle and
/// the layer replay so both judge exactly like the serving path.
[[nodiscard]] flashabft::GuardedExecutor::Options executor_options(
    const flashabft::serve::ServerConfig& server);

/// The workload and its full server configuration as one JSON object.
[[nodiscard]] std::string config_json(const WorkloadSpec& spec);

}  // namespace servebench
