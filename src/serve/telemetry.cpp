#include "serve/telemetry.hpp"

#include <sstream>

#include "common/table.hpp"

namespace flashabft::serve {

void ServeTelemetry::on_response(const ServeResponse& response) {
  // Release: pairs with snapshot()'s acquire load of `completed`.
  counters_[std::size_t(Counter::kCompleted)].fetch_add(
      1, std::memory_order_release);
  switch (response.path) {
    case ServePath::kGuardedClean: add(Counter::kCleanFirstTry); break;
    case ServePath::kGuardedRecovered: add(Counter::kRecovered); break;
    case ServePath::kFallbackReference: add(Counter::kFallback); break;
  }
  add(Counter::kAlarmEvents, response.alarm_events);
  add(Counter::kOpExecutions, response.op_executions);
  add(Counter::kFallbackOps, response.fallback_ops);
  add(Counter::kMetaVerifies, response.meta_verifies);
  add(Counter::kDmrCompares, response.dmr_compares);
  add(Counter::kDmrMismatches, response.dmr_mismatches);
  add(response.checksum_clean ? Counter::kChecksumClean
                              : Counter::kChecksumDirty);

  // Per-op-kind accounting from the unified report stream. Escalations are
  // attributed to the escalating op's kind; the fallback op that replaced
  // it reports separately under kReferenceFallback.
  for (const OpReport& report : response.reports) {
    const std::size_t kind = std::size_t(report.kind);
    bump(kind_checks_[kind]);
    bump(kind_alarms_[kind], report.alarms);
    if (report.recovery == RecoveryStatus::kRecovered) {
      bump(kind_recovered_[kind]);
    }
    if (report.recovery == RecoveryStatus::kEscalated &&
        report.kind != OpKind::kReferenceFallback) {
      bump(kind_escalated_[kind]);
    }
  }

  queue_ns_.record(ns_from_us(response.queue_us));
  service_ns_.record(ns_from_us(response.service_us));
  latency_ns_.record(ns_from_us(response.total_us));
}

void ServeTelemetry::on_session_complete(const ServeResponse& response) {
  add(Counter::kSessionsCompleted);
  add(Counter::kTokensGenerated, response.tokens.size());
  add(Counter::kDecodeSteps, response.decode_steps);
  ttft_ns_.record(ns_from_us(response.ttft_us));
}

TelemetrySnapshot ServeTelemetry::snapshot() const {
  const auto load = [](const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  TelemetrySnapshot s;
  s.compute = compute_.load(std::memory_order_relaxed);
  // `completed` first, with acquire. Each request's submit bump happens
  // before its completion bump (the queue or scheduler handoff orders
  // them), and this load synchronizes with every release bump it counts,
  // so the `submitted` load below sees at least as many submits:
  // completed <= submitted under concurrent recording.
  const std::size_t completed = std::size_t(Counter::kCompleted);
  s.*kCounters[completed].field =
      counters_[completed].load(std::memory_order_acquire);
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (i != completed) s.*kCounters[i].field = load(counters_[i]);
  }
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    s.per_kind[k].checks = load(kind_checks_[k]);
    s.per_kind[k].alarms = load(kind_alarms_[k]);
    s.per_kind[k].recovered = load(kind_recovered_[k]);
    s.per_kind[k].escalated = load(kind_escalated_[k]);
  }
  s.timing = op_profiler_.snapshot();
  s.queue_ns = queue_ns_.snapshot();
  s.service_ns = service_ns_.snapshot();
  s.latency_ns = latency_ns_.snapshot();
  s.ttft_ns = ttft_ns_.snapshot();
  return s;
}

double TelemetrySnapshot::throughput_rps(double wall_seconds) const {
  return wall_seconds > 0.0 ? double(completed) / wall_seconds : 0.0;
}

double TelemetrySnapshot::tokens_per_second(double wall_seconds) const {
  return wall_seconds > 0.0 ? double(tokens_generated) / wall_seconds : 0.0;
}

std::string TelemetrySnapshot::render(double wall_seconds) const {
  Table t({"metric", "value"});
  t.set_title("serving telemetry");
  const auto row = [&t](const char* name, double value, int precision = 1) {
    t.add_row({name, format_number(value, precision)});
  };
  t.add_row({"compute backend", backend_name(compute)});
  for (std::size_t g = 0; g < kCounterGroupCount; ++g) {
    const CounterGroup group = CounterGroup(g);
    bool shown = group == CounterGroup::kRequests;
    for (const CounterInfo& c : kCounters) {
      shown = shown || (c.group == group && this->*c.field != 0);
    }
    if (!shown) continue;
    for (const CounterInfo& c : kCounters) {
      if (c.group == group) t.add_row({c.name, std::to_string(this->*c.field)});
    }
    // The group's derived rates.
    switch (group) {
      case CounterGroup::kRequests:
        row("throughput (req/s)", throughput_rps(wall_seconds));
        break;
      case CounterGroup::kSessions:
        if (wall_seconds > 0.0) {
          row("tokens/sec", tokens_per_second(wall_seconds));
        }
        row("ttft p50 (us)", percentile_us(ttft_ns, 0.50));
        row("ttft p99 (us)", percentile_us(ttft_ns, 0.99));
        break;
      case CounterGroup::kScheduler:
        row("batch occupancy", batch_occupancy(), 2);
        row("peak page utilization", peak_page_utilization(), 2);
        break;
      case CounterGroup::kPrefix:
        row("prefix hit rate", prefix_hit_rate(), 2);
        break;
      default:
        break;
    }
  }
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const OpKindStats& stats = per_kind[k];
    if (stats.checks == 0) continue;
    const std::string value =
        format_number(double(stats.checks), 0) + " checks, " +
        format_number(double(stats.alarms), 0) + " alarms, " +
        format_number(double(stats.recovered), 0) + " recovered, " +
        format_number(double(stats.escalated), 0) + " escalated";
    t.add_row({std::string("op[") + op_kind_name(OpKind(k)) + "]", value});
  }
  // ABFT overhead: where guarded execution's time went, per kind. The
  // percentage is verify+recovery over compute — the cost the protection
  // regime adds on top of the op it protects.
  const auto ms = [](std::uint64_t ns) {
    return format_number(double(ns) * 1e-6, 2) + " ms ";
  };
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const OpKind kind = OpKind(k);
    if (timing.of(kind, obs::GuardPhase::kCompute).count == 0 &&
        timing.guard_ns(kind) == 0) {
      continue;
    }
    const std::string value =
        ms(timing.compute_ns(kind)) + "compute, " +
        ms(timing.of(kind, obs::GuardPhase::kVerify).total) + "verify, " +
        ms(timing.of(kind, obs::GuardPhase::kRecovery).total) +
        "recovery (" + format_number(timing.overhead_pct(kind), 2) +
        "% overhead)";
    t.add_row({std::string("abft[") + op_kind_name(kind) + "]", value});
  }
  row("queue p50 (us)", percentile_us(queue_ns, 0.50));
  row("queue p99 (us)", percentile_us(queue_ns, 0.99));
  row("service p50 (us)", percentile_us(service_ns, 0.50));
  row("service p99 (us)", percentile_us(service_ns, 0.99));
  row("total p50 (us)", percentile_us(latency_ns, 0.50));
  row("total p95 (us)", percentile_us(latency_ns, 0.95));
  row("total p99 (us)", percentile_us(latency_ns, 0.99));
  row("total max (us)", double(latency_ns.max) * 1e-3);
  return t.render();
}

std::string TelemetrySnapshot::prometheus_text(double wall_seconds) const {
  std::ostringstream out;
  // 15 significant digits: distinct bucket edges and seconds sums that
  // read back as the nanosecond totals they scale.
  out.precision(15);
  for (const CounterInfo& c : kCounters) {
    const bool is_counter = c.type == MetricType::kCounter;
    const std::string family =
        std::string("flashabft_") + c.name + (is_counter ? "_total" : "");
    out << "# HELP " << family << ' ' << c.help << "\n"
        << "# TYPE " << family << (is_counter ? " counter\n" : " gauge\n")
        << family << ' ' << this->*c.field << "\n";
  }
  if (wall_seconds > 0.0) {
    out << "# HELP flashabft_throughput_rps completed requests per second\n"
        << "# TYPE flashabft_throughput_rps gauge\n"
        << "flashabft_throughput_rps " << throughput_rps(wall_seconds)
        << "\n";
  }

  out << "# HELP flashabft_op_checks_total guarded ops reported, by kind\n"
      << "# TYPE flashabft_op_checks_total counter\n";
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    if (per_kind[k].checks == 0) continue;
    out << "flashabft_op_checks_total{kind=\"" << op_kind_name(OpKind(k))
        << "\"} " << per_kind[k].checks << "\n";
  }
  out << "# HELP flashabft_op_alarms_total checksum alarms, by kind\n"
      << "# TYPE flashabft_op_alarms_total counter\n";
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    if (per_kind[k].checks == 0) continue;
    out << "flashabft_op_alarms_total{kind=\"" << op_kind_name(OpKind(k))
        << "\"} " << per_kind[k].alarms << "\n";
  }

  // Guard-phase timing: the ABFT overhead attribution as cumulative
  // histograms (`le` = a non-empty bucket's inclusive upper edge, ns scaled
  // by 1e-9), one series per active (kind, phase) cell.
  out << "# HELP flashabft_guard_phase_seconds_total guarded execution time "
         "split into compute/verify/recovery, by op kind\n"
      << "# TYPE flashabft_guard_phase_seconds_total counter\n";
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    for (std::size_t p = 0; p < obs::kGuardPhaseCount; ++p) {
      const obs::LogHistogram& h = timing.cells[k][p];
      if (h.count == 0) continue;
      out << "flashabft_guard_phase_seconds_total{kind=\""
          << op_kind_name(OpKind(k)) << "\",phase=\""
          << obs::guard_phase_name(obs::GuardPhase(p)) << "\"} "
          << double(h.total) * 1e-9 << "\n";
    }
  }
  out << "# HELP flashabft_guard_phase_duration_seconds per-sample guard "
         "phase durations\n"
      << "# TYPE flashabft_guard_phase_duration_seconds histogram\n";
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    for (std::size_t p = 0; p < obs::kGuardPhaseCount; ++p) {
      const obs::LogHistogram& h = timing.cells[k][p];
      if (h.count == 0) continue;
      const std::string labels = std::string("kind=\"") +
                                 op_kind_name(OpKind(k)) + "\",phase=\"" +
                                 obs::guard_phase_name(obs::GuardPhase(p)) +
                                 "\"";
      std::uint64_t cumulative = 0;
      for (std::size_t b = 0; b < obs::LogHistogram::kBuckets; ++b) {
        if (h.buckets[b] == 0) continue;  // elide empty leading/inner edges.
        cumulative += h.buckets[b];
        out << "flashabft_guard_phase_duration_seconds_bucket{" << labels
            << ",le=\"" << double(obs::LogHistogram::bucket_max(b)) * 1e-9
            << "\"} " << cumulative << "\n";
      }
      out << "flashabft_guard_phase_duration_seconds_bucket{" << labels
          << ",le=\"+Inf\"} " << h.count << "\n"
          << "flashabft_guard_phase_duration_seconds_sum{" << labels << "} "
          << double(h.total) * 1e-9 << "\n"
          << "flashabft_guard_phase_duration_seconds_count{" << labels << "} "
          << h.count << "\n";
    }
  }
  out << "# HELP flashabft_abft_overhead_pct verify+recovery time as a "
         "percentage of compute time, by op kind\n"
      << "# TYPE flashabft_abft_overhead_pct gauge\n";
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    const OpKind kind = OpKind(k);
    if (timing.of(kind, obs::GuardPhase::kCompute).count == 0) continue;
    out << "flashabft_abft_overhead_pct{kind=\"" << op_kind_name(kind)
        << "\"} " << timing.overhead_pct(kind) << "\n";
  }
  return out.str();
}

}  // namespace flashabft::serve
