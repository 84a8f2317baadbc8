// Serving telemetry: counters and latency distributions.
//
// Every counter is declared once, in the FLASHABFT_SERVE_COUNTERS registry
// below; the snapshot fields, the recorder storage, render(),
// prometheus_text() and serve_throughput's scenario JSON all loop over it.
// Counters are atomics and latencies go into lock-free log-linear
// histograms (obs/histogram.hpp), so workers record concurrently without a
// lock and a snapshot copies plain mergeable histograms. The
// counters are designed to *reconcile*: completed = clean + recovered +
// fallback, checksum_clean + checksum_dirty = completed, and under an
// injection campaign every non-clean path traces back to an injected plan
// or a standing worker defect — the invariants the acceptance tests assert.
#pragma once

#include <array>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>

#include "core/guarded_op.hpp"
#include "obs/histogram.hpp"
#include "obs/op_profile.hpp"
#include "serve/request.hpp"

namespace flashabft::serve {

/// A latency in microseconds as whole nanoseconds, the histograms' unit
/// (negative -> 0).
[[nodiscard]] inline std::uint64_t ns_from_us(double us) {
  return us > 0.0 ? std::uint64_t(std::llround(us * 1e3)) : 0;
}

/// The p-th percentile of a nanosecond histogram, in microseconds.
[[nodiscard]] inline double percentile_us(const obs::LogHistogram& ns,
                                          double p) {
  return double(ns.percentile(p)) * 1e-3;
}

/// Per-OpKind accounting derived from the unified OpReport stream.
struct OpKindStats {
  std::uint64_t checks = 0;     ///< guarded/fallback ops reported.
  std::uint64_t alarms = 0;     ///< attempt-level alarm observations.
  std::uint64_t recovered = 0;  ///< ops whose retry passed the check.
  std::uint64_t escalated = 0;  ///< ops that exhausted their retries.
};

/// Prometheus type of a registry entry: a counter only grows and is
/// exported as `flashabft_<name>_total`; a gauge is a level, exported as
/// `flashabft_<name>`.
enum class MetricType { kCounter, kGauge };

/// The render() section a counter belongs to. A section prints when any of
/// its counters is non-zero; kRequests always prints.
enum class CounterGroup {
  kRequests,
  kSessions,
  kScheduler,
  kPrefix,
  kControlPlane,
  kScrub,
  kDmr,
};
inline constexpr std::size_t kCounterGroupCount =
    std::size_t(CounterGroup::kDmr) + 1;

// The serving counter registry: X(Id, field, type, group, help) per
// counter. `field` is the TelemetrySnapshot member, the render label, the
// scenario-JSON key and the Prometheus family stem; `Id` names it at the
// recorder call sites (ServeTelemetry::add/set).
//
// `submitted` counts admission *attempts*, stamped before the queue push
// (see snapshot() for why completed <= submitted holds under concurrent
// snapshots); attempts that failed admission are also counted in
// `rejected`, so accepted = submitted - rejected. The scheduler, prefix,
// control-plane, scrub and DMR groups stay zero when their subsystem is
// off.
#define FLASHABFT_SERVE_COUNTERS(X)                                         \
  X(kSubmitted, submitted, kCounter, kRequests, "admission attempts")       \
  X(kRejected, rejected, kCounter, kRequests,                               \
    "requests shed at admission (full or shut down)")                       \
  X(kCompleted, completed, kCounter, kRequests, "responses delivered")      \
  X(kBatches, batches, kCounter, kRequests, "worker batches formed")        \
  X(kCleanFirstTry, clean_first_try, kCounter, kRequests,                   \
    "responses clean on the first guarded attempt")                         \
  X(kRecovered, recovered, kCounter, kRequests,                             \
    "responses whose retry passed the check")                               \
  X(kFallback, fallback, kCounter, kRequests,                               \
    "responses served (partly) by the reference kernel")                    \
  X(kEscalations, escalations, kCounter, kRequests,                         \
    "retry budgets exhausted")                                              \
  X(kBreakerTrips, breaker_trips, kCounter, kRequests,                      \
    "circuit breakers opened")                                              \
  X(kBreakerBypasses, breaker_bypasses, kCounter, kRequests,                \
    "requests routed straight to the fallback by an open breaker")          \
  X(kAlarmEvents, alarm_events, kCounter, kRequests,                        \
    "checksum alarms observed")                                             \
  X(kOpExecutions, op_executions, kCounter, kRequests,                      \
    "guarded op runs including retries")                                    \
  X(kFallbackOps, fallback_ops, kCounter, kRequests,                        \
    "ops served by the reference kernel")                                   \
  X(kChecksumClean, checksum_clean, kCounter, kRequests,                    \
    "responses whose accepted ops all passed the check")                    \
  X(kChecksumDirty, checksum_dirty, kCounter, kRequests,                    \
    "responses with an accepted alarmed op")                                \
  X(kSessionsStarted, sessions_started, kCounter, kSessions,                \
    "generation sessions activated (prefill scheduled)")                    \
  X(kSessionsCompleted, sessions_completed, kCounter, kSessions,            \
    "generation sessions finished")                                         \
  X(kSessionsParked, sessions_parked, kCounter, kSessions,                  \
    "generation sessions that waited for a session slot")                   \
  X(kTokensGenerated, tokens_generated, kCounter, kSessions,                \
    "tokens emitted")                                                       \
  X(kDecodeSteps, decode_steps, kCounter, kSessions,                        \
    "decode steps after each prefill")                                      \
  X(kSchedulerTicks, scheduler_ticks, kCounter, kScheduler,                 \
    "decode sweeps executed")                                               \
  X(kScheduledSteps, scheduled_steps, kCounter, kScheduler,                 \
    "session-steps across all decode sweeps")                               \
  X(kPreemptions, preemptions, kCounter, kScheduler,                        \
    "sessions whose pages were taken under page pressure")                  \
  X(kSessionResumes, session_resumes, kCounter, kScheduler,                 \
    "lossless re-prefills after a preemption")                              \
  X(kPagesInUse, pages_in_use, kGauge, kScheduler,                          \
    "KV pool pages allocated now")                                          \
  X(kPagesTotal, pages_total, kGauge, kScheduler,                           \
    "KV pool size (0 = no pool)")                                           \
  X(kPeakPagesInUse, peak_pages_in_use, kGauge, kScheduler,                 \
    "most KV pool pages allocated at once")                                 \
  X(kPrefixHits, prefix_hits, kCounter, kPrefix,                            \
    "prefills served from the prefix index")                                \
  X(kPrefixMisses, prefix_misses, kCounter, kPrefix,                        \
    "prefix lookups that found nothing")                                    \
  X(kPrefixHitTokens, prefix_hit_tokens, kCounter, kPrefix,                 \
    "prompt rows skipped by prefix hits")                                   \
  X(kPrefixCowForks, prefix_cow_forks, kCounter, kPrefix,                   \
    "private copies forked off shared pages")                               \
  X(kPrefixEvictions, prefix_evictions, kCounter, kPrefix,                  \
    "LRU-evicted prefix registry entries")                                  \
  X(kSharedHeals, shared_heals, kCounter, kPrefix,                          \
    "shared pages healed (once each)")                                      \
  X(kSharedPages, shared_pages, kGauge, kPrefix,                            \
    "allocated shared pages")                                               \
  X(kEvictablePages, evictable_pages, kGauge, kPrefix,                      \
    "registry-only shared pages")                                           \
  X(kMetaVerifies, meta_verifies, kCounter, kControlPlane,                  \
    "sealed-metadata boundary checks")                                      \
  X(kScrubPasses, scrub_passes, kCounter, kScrub,                           \
    "background scrub passes")                                              \
  X(kScrubItems, scrub_items, kCounter, kScrub,                             \
    "verify-and-heal items scrubbed")                                       \
  X(kScrubFaultsFound, scrub_faults_found, kCounter, kScrub,                \
    "latent faults the scrubber hit")                                       \
  X(kScrubRepairs, scrub_repairs, kCounter, kScrub,                         \
    "latent faults healed from checkpoint mirrors")                         \
  X(kScrubUnrepairable, scrub_unrepairable, kCounter, kScrub,               \
    "double faults the scrubber escalated")                                 \
  X(kDmrCompares, dmr_compares, kCounter, kDmr,                             \
    "dual-run glue comparisons")                                            \
  X(kDmrMismatches, dmr_mismatches, kCounter, kDmr,                         \
    "bitwise dual-run divergences caught")

/// A registry entry's recorder handle (ServeTelemetry::add/set).
enum class Counter : std::size_t {
#define FLASHABFT_COUNTER_ID(id, field, type, group, help) id,
  FLASHABFT_SERVE_COUNTERS(FLASHABFT_COUNTER_ID)
#undef FLASHABFT_COUNTER_ID
};
#define FLASHABFT_COUNTER_ONE(id, field, type, group, help) +1
inline constexpr std::size_t kCounterCount =
    0 FLASHABFT_SERVE_COUNTERS(FLASHABFT_COUNTER_ONE);
#undef FLASHABFT_COUNTER_ONE

/// A copy of all telemetry. Each counter is loaded on its own, so the copy
/// is not one instant's cut across counters; the one cross-counter promise
/// is completed <= submitted (see ServeTelemetry::snapshot). Copies taken
/// after the server has shut down are exact.
struct TelemetrySnapshot {
  /// Compute backend the server's software guarded path ran on.
  ComputeBackend compute = ComputeBackend::kScalar;

  // One field per registry entry, named by it.
#define FLASHABFT_COUNTER_FIELD(id, field, type, group, help) \
  std::uint64_t field = 0;
  FLASHABFT_SERVE_COUNTERS(FLASHABFT_COUNTER_FIELD)
#undef FLASHABFT_COUNTER_FIELD

  /// Mean decode-batch occupancy (sessions advanced per tick).
  [[nodiscard]] double batch_occupancy() const {
    return scheduler_ticks > 0
               ? double(scheduled_steps) / double(scheduler_ticks)
               : 0.0;
  }
  /// Share of prefix-index lookups that hit.
  [[nodiscard]] double prefix_hit_rate() const {
    const std::uint64_t lookups = prefix_hits + prefix_misses;
    return lookups > 0 ? double(prefix_hits) / double(lookups) : 0.0;
  }
  /// Peak fraction of the page pool in use.
  [[nodiscard]] double peak_page_utilization() const {
    return pages_total > 0 ? double(peak_pages_in_use) / double(pages_total)
                           : 0.0;
  }

  /// Per-op-kind view of the same stream (attention vs projection vs FFN
  /// vs reference fallback), indexed by std::size_t(OpKind).
  std::array<OpKindStats, kOpKindCount> per_kind{};

  /// Per-OpKind guarded-execution timing (compute / verify / recovery, in
  /// ns) from the server's always-on OpTimingProfiler — the "ABFT overhead"
  /// attribution. Empty when no guarded op ran with the profiler attached.
  obs::OpTimingSnapshot timing;

  // Latency distributions, nanoseconds (read with percentile_us).
  obs::LogHistogram queue_ns;    ///< enqueue -> execution start.
  obs::LogHistogram service_ns;  ///< execution start -> completion.
  obs::LogHistogram latency_ns;  ///< enqueue -> completion.
  obs::LogHistogram ttft_ns;     ///< enqueue -> first token, per session.

  /// Requests per second over `wall_seconds`.
  [[nodiscard]] double throughput_rps(double wall_seconds) const;

  /// Generated tokens per second over `wall_seconds`.
  [[nodiscard]] double tokens_per_second(double wall_seconds) const;

  /// Two-column human-readable table (bench/demo output): the registry
  /// counters by group, with each group's derived rates, then the per-kind,
  /// ABFT-overhead and latency rows.
  [[nodiscard]] std::string render(double wall_seconds) const;

  /// Prometheus text exposition (the scrape format): one `flashabft_*`
  /// family per registry entry, per-kind series labeled {kind="..."}, and
  /// the guard-phase timing as totals plus cumulative `_bucket{le="..."}`
  /// histograms. One self-contained string — no client library involved.
  [[nodiscard]] std::string prometheus_text(double wall_seconds) const;
};

/// One registry entry as data, for the loops that derive every surface.
struct CounterInfo {
  const char* name;
  std::uint64_t TelemetrySnapshot::*field;
  MetricType type;
  CounterGroup group;
  const char* help;
};

/// The registry, indexed by std::size_t(Counter).
inline constexpr std::array<CounterInfo, kCounterCount> kCounters{{
#define FLASHABFT_COUNTER_INFO(id, field, type, group, help)               \
  {#field, &TelemetrySnapshot::field, MetricType::type, CounterGroup::group, \
   help},
    FLASHABFT_SERVE_COUNTERS(FLASHABFT_COUNTER_INFO)
#undef FLASHABFT_COUNTER_INFO
}};

/// Thread-safe telemetry sink shared by all workers of one server.
class ServeTelemetry {
 public:
  /// Adds `n` to a counter (relaxed: one atomic add, no ordering).
  void add(Counter counter, std::uint64_t n = 1) {
    counters_[std::size_t(counter)].fetch_add(n, std::memory_order_relaxed);
  }
  /// Publishes a value the caller owns: a gauge, or a total kept by the
  /// pool or scrubber and mirrored here.
  void set(Counter counter, std::uint64_t value) {
    counters_[std::size_t(counter)].store(value, std::memory_order_relaxed);
  }
  /// Stamps the compute backend served traffic runs on (server construction).
  void set_compute(ComputeBackend compute) {
    compute_.store(compute, std::memory_order_relaxed);
  }

  /// Records one completed response: outcome path, fault accounting and the
  /// three latency samples. Lock-free, like every other recorder here.
  void on_response(const ServeResponse& response);

  /// Records a completed generation session's token/TTFT accounting (the
  /// generic on_response is still called for the same response).
  void on_session_complete(const ServeResponse& response);

  [[nodiscard]] TelemetrySnapshot snapshot() const;

  /// The always-on guard-phase timing profiler executors record into
  /// (lock-free; attach via GuardedExecutor::Options::obs.profiler).
  /// Const-qualified because recording — like every counter bump here — is
  /// a logically-const operation on a thread-safe sink.
  [[nodiscard]] obs::OpTimingProfiler* op_profiler() const {
    return &op_profiler_;
  }

 private:
  static void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) {
    counter.fetch_add(n, std::memory_order_relaxed);
  }

  mutable obs::OpTimingProfiler op_profiler_;
  std::atomic<ComputeBackend> compute_{ComputeBackend::kScalar};
  std::array<std::atomic<std::uint64_t>, kCounterCount> counters_{};
  std::array<std::atomic<std::uint64_t>, kOpKindCount> kind_checks_{};
  std::array<std::atomic<std::uint64_t>, kOpKindCount> kind_alarms_{};
  std::array<std::atomic<std::uint64_t>, kOpKindCount> kind_recovered_{};
  std::array<std::atomic<std::uint64_t>, kOpKindCount> kind_escalated_{};
  obs::AtomicHistogram queue_ns_;
  obs::AtomicHistogram service_ns_;
  obs::AtomicHistogram latency_ns_;
  obs::AtomicHistogram ttft_ns_;
};

}  // namespace flashabft::serve
