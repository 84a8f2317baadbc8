// Per-OpKind guarded-execution timing: where ABFT's cycles actually go.
//
// Every guarded invocation decomposes into three phases:
//   compute  — the checked kernel's own execution (attempt 0),
//   verify   — the checksum comparison / extreme-value screen,
//   recovery — retries after an alarm plus any fallback execution.
// The profiler keeps one lock-free AtomicHistogram (obs/histogram.hpp) per
// (OpKind, phase) cell, so concurrent worker threads and scheduler sweeps
// share one profiler without locks. A snapshot materializes plain mergeable
// histograms; the ratio of verify+recovery time to compute time is the
// "ABFT overhead" number the telemetry snapshot, serve_throughput JSON and
// Prometheus exposition all surface — the same quantity ATTNChecker/ALBERTA
// report for their protected attention stacks.
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/kernel_context.hpp"
#include "obs/histogram.hpp"

namespace flashabft::obs {

enum class GuardPhase {
  kCompute = 0,
  kVerify,
  kRecovery,
};
inline constexpr std::size_t kGuardPhaseCount = 3;

[[nodiscard]] const char* guard_phase_name(GuardPhase phase);

/// Plain (non-atomic) snapshot of a profiler: mergeable across scenarios,
/// threads or processes by histogram addition.
struct OpTimingSnapshot {
  LogHistogram cells[kOpKindCount][kGuardPhaseCount];

  [[nodiscard]] const LogHistogram& of(OpKind kind, GuardPhase phase) const {
    return cells[std::size_t(kind)][std::size_t(phase)];
  }
  [[nodiscard]] LogHistogram& of(OpKind kind, GuardPhase phase) {
    return cells[std::size_t(kind)][std::size_t(phase)];
  }

  [[nodiscard]] std::uint64_t compute_ns(OpKind kind) const {
    return of(kind, GuardPhase::kCompute).total;
  }
  /// Verify + recovery time: everything protection adds on top of compute.
  [[nodiscard]] std::uint64_t guard_ns(OpKind kind) const {
    return of(kind, GuardPhase::kVerify).total +
           of(kind, GuardPhase::kRecovery).total;
  }
  /// ABFT overhead of this kind, percent of its compute time. Zero when the
  /// kind never ran (no compute samples).
  [[nodiscard]] double overhead_pct(OpKind kind) const {
    const std::uint64_t compute = compute_ns(kind);
    if (compute == 0) return 0.0;
    return 100.0 * double(guard_ns(kind)) / double(compute);
  }

  [[nodiscard]] bool empty() const;
  void merge(const OpTimingSnapshot& other);
};

class OpTimingProfiler {
 public:
  /// Lock-free; safe from any thread. `ns` is the phase's wall duration.
  void record(OpKind kind, GuardPhase phase, std::uint64_t ns) {
    cells_[std::size_t(kind)][std::size_t(phase)].record(ns);
  }

  /// Coherent-enough copy for reporting: each counter is read atomically;
  /// cross-counter skew is bounded by whatever is still in flight.
  [[nodiscard]] OpTimingSnapshot snapshot() const;

  void clear();

 private:
  AtomicHistogram cells_[kOpKindCount][kGuardPhaseCount];
};

}  // namespace flashabft::obs
