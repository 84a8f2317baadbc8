#include "serve/telemetry.hpp"

#include <sstream>

#include "common/table.hpp"

namespace flashabft::serve {

void ServeTelemetry::on_response(const ServeResponse& response) {
  bump(completed_);
  switch (response.path) {
    case ServePath::kGuardedClean: bump(clean_first_try_); break;
    case ServePath::kGuardedRecovered: bump(recovered_); break;
    case ServePath::kFallbackReference: bump(fallback_); break;
  }
  bump(alarm_events_, response.alarm_events);
  bump(op_executions_, response.op_executions);
  bump(fallback_ops_, response.fallback_ops);
  bump(meta_verifies_, response.meta_verifies);
  bump(dmr_compares_, response.dmr_compares);
  bump(dmr_mismatches_, response.dmr_mismatches);
  bump(response.checksum_clean ? checksum_clean_ : checksum_dirty_);

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
  bump(sessions_completed_);
  bump(tokens_generated_, response.tokens.size());
  bump(decode_steps_, response.decode_steps);
  ttft_ns_.record(ns_from_us(response.ttft_us));
}

TelemetrySnapshot ServeTelemetry::snapshot() const {
  const auto load = [](const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  };
  TelemetrySnapshot s;
  s.compute = compute_.load(std::memory_order_relaxed);
  s.submitted = load(submitted_);
  s.rejected = load(rejected_);
  s.completed = load(completed_);
  s.batches = load(batches_);
  s.clean_first_try = load(clean_first_try_);
  s.recovered = load(recovered_);
  s.fallback = load(fallback_);
  s.escalations = load(escalations_);
  s.breaker_trips = load(breaker_trips_);
  s.breaker_bypasses = load(breaker_bypasses_);
  s.alarm_events = load(alarm_events_);
  s.op_executions = load(op_executions_);
  s.fallback_ops = load(fallback_ops_);
  s.checksum_clean = load(checksum_clean_);
  s.checksum_dirty = load(checksum_dirty_);
  s.sessions_started = load(sessions_started_);
  s.sessions_completed = load(sessions_completed_);
  s.sessions_parked = load(sessions_parked_);
  s.tokens_generated = load(tokens_generated_);
  s.decode_steps = load(decode_steps_);
  s.scheduler_ticks = load(scheduler_ticks_);
  s.scheduled_steps = load(scheduled_steps_);
  s.preemptions = load(preemptions_);
  s.session_resumes = load(session_resumes_);
  s.pages_in_use = load(pages_in_use_);
  s.pages_total = load(pages_total_);
  s.peak_pages_in_use = load(peak_pages_in_use_);
  s.prefix_hits = load(prefix_hits_);
  s.prefix_misses = load(prefix_misses_);
  s.prefix_hit_tokens = load(prefix_hit_tokens_);
  s.prefix_cow_forks = load(prefix_cow_forks_);
  s.prefix_evictions = load(prefix_evictions_);
  s.shared_heals = load(shared_heals_);
  s.shared_pages = load(shared_pages_);
  s.evictable_pages = load(evictable_pages_);
  s.meta_verifies = load(meta_verifies_);
  s.scrub_passes = load(scrub_passes_);
  s.scrub_items = load(scrub_items_);
  s.scrub_faults_found = load(scrub_faults_found_);
  s.scrub_repairs = load(scrub_repairs_);
  s.scrub_unrepairable = load(scrub_unrepairable_);
  s.dmr_compares = load(dmr_compares_);
  s.dmr_mismatches = load(dmr_mismatches_);
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
  row("requests submitted", double(submitted), 0);
  row("requests rejected", double(rejected), 0);
  row("requests completed", double(completed), 0);
  row("batches", double(batches), 0);
  row("throughput (req/s)", throughput_rps(wall_seconds));
  row("clean first try", double(clean_first_try), 0);
  row("recovered", double(recovered), 0);
  row("fallback served", double(fallback), 0);
  row("escalations", double(escalations), 0);
  row("breaker trips", double(breaker_trips), 0);
  row("breaker bypasses", double(breaker_bypasses), 0);
  row("alarm events", double(alarm_events), 0);
  row("op executions", double(op_executions), 0);
  row("fallback ops", double(fallback_ops), 0);
  row("checksum clean", double(checksum_clean), 0);
  row("checksum dirty", double(checksum_dirty), 0);
  if (sessions_started > 0 || sessions_parked > 0) {
    row("gen sessions started", double(sessions_started), 0);
    row("gen sessions completed", double(sessions_completed), 0);
    row("gen sessions parked", double(sessions_parked), 0);
    row("tokens generated", double(tokens_generated), 0);
    row("decode steps", double(decode_steps), 0);
    if (wall_seconds > 0.0) {
      row("tokens/sec", tokens_per_second(wall_seconds));
    }
    row("ttft p50 (us)", percentile_us(ttft_ns, 0.50));
    row("ttft p99 (us)", percentile_us(ttft_ns, 0.99));
  }
  if (scheduler_ticks > 0) {
    row("scheduler ticks", double(scheduler_ticks), 0);
    row("batch occupancy", batch_occupancy(), 2);
    row("preemptions", double(preemptions), 0);
    row("session resumes", double(session_resumes), 0);
    row("pages in use", double(pages_in_use), 0);
    row("peak page utilization", peak_page_utilization(), 2);
  }
  if (prefix_hits + prefix_misses > 0) {
    row("prefix hits", double(prefix_hits), 0);
    row("prefix misses", double(prefix_misses), 0);
    row("prefix hit tokens", double(prefix_hit_tokens), 0);
    row("prefix cow forks", double(prefix_cow_forks), 0);
    row("prefix evictions", double(prefix_evictions), 0);
    row("shared heals", double(shared_heals), 0);
    row("shared pages", double(shared_pages), 0);
    row("evictable pages", double(evictable_pages), 0);
  }
  if (meta_verifies > 0) {
    row("meta verifies", double(meta_verifies), 0);
  }
  if (scrub_passes > 0) {
    row("scrub passes", double(scrub_passes), 0);
    row("scrub items", double(scrub_items), 0);
    row("scrub faults found", double(scrub_faults_found), 0);
    row("scrub repairs", double(scrub_repairs), 0);
    row("scrub unrepairable", double(scrub_unrepairable), 0);
  }
  if (dmr_compares > 0) {
    row("dmr compares", double(dmr_compares), 0);
    row("dmr mismatches", double(dmr_mismatches), 0);
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
  const auto counter = [&out](const char* name, std::uint64_t value,
                              const char* help) {
    out << "# HELP flashabft_" << name << " " << help << "\n"
        << "# TYPE flashabft_" << name << " counter\n"
        << "flashabft_" << name << " " << value << "\n";
  };
  const auto gauge = [&out](const char* name, double value,
                            const char* help) {
    out << "# HELP flashabft_" << name << " " << help << "\n"
        << "# TYPE flashabft_" << name << " gauge\n"
        << "flashabft_" << name << " " << value << "\n";
  };

  counter("requests_submitted_total", submitted, "admission attempts");
  counter("requests_rejected_total", rejected, "requests shed at admission");
  counter("requests_completed_total", completed, "responses delivered");
  counter("alarm_events_total", alarm_events, "checksum alarms observed");
  counter("op_executions_total", op_executions,
          "guarded op runs including retries");
  counter("fallback_ops_total", fallback_ops,
          "ops served by the reference kernel");
  counter("escalations_total", escalations, "retry budgets exhausted");
  counter("breaker_trips_total", breaker_trips, "circuit breakers opened");
  counter("checksum_dirty_total", checksum_dirty,
          "responses with an accepted alarmed op");
  counter("sessions_completed_total", sessions_completed,
          "generation sessions finished");
  counter("tokens_generated_total", tokens_generated, "tokens emitted");
  counter("scheduler_ticks_total", scheduler_ticks, "decode sweeps");
  counter("preemptions_total", preemptions,
          "sessions evicted under page pressure");
  counter("session_resumes_total", session_resumes,
          "preempted/parked sessions resumed");
  counter("scrub_passes_total", scrub_passes, "background scrub passes");
  counter("scrub_repairs_total", scrub_repairs,
          "latent faults healed by the scrubber");
  gauge("pages_in_use", double(pages_in_use), "KV pool pages allocated now");
  gauge("pages_total", double(pages_total), "KV pool size");
  if (wall_seconds > 0.0) {
    gauge("throughput_rps", throughput_rps(wall_seconds),
          "completed requests per second");
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
