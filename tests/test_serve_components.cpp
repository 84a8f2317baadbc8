// Tests of the serving components around the server core: batch forming,
// the circuit breaker, telemetry counters and the Prometheus exposition.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "serve/batch_former.hpp"
#include "serve/circuit_breaker.hpp"
#include "serve/request_queue.hpp"
#include "serve/telemetry.hpp"

namespace flashabft::serve {
namespace {

using namespace std::chrono_literals;

// --- batch former ---

TEST(BatchFormer, SizeBoundCapsTheBatch) {
  BoundedMpmcQueue<int> q(16);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(i));
  BatchFormerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_deadline = 50ms;
  const std::vector<int> batch = form_batch(q, cfg);
  EXPECT_EQ(batch, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(q.size(), 6u);
}

TEST(BatchFormer, DeadlineBoundsTheWaitForCompany) {
  BoundedMpmcQueue<int> q(16);
  ASSERT_TRUE(q.push(42));
  BatchFormerConfig cfg;
  cfg.max_batch = 8;
  cfg.batch_deadline = 15ms;
  const auto start = std::chrono::steady_clock::now();
  const std::vector<int> batch = form_batch(q, cfg);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(batch, (std::vector<int>{42}));  // lone request ships alone...
  EXPECT_GE(waited, 15ms);                   // ...after the forming deadline.
  EXPECT_LT(waited, 5s);
}

TEST(BatchFormer, LateArrivalsJoinWithinDeadline) {
  BoundedMpmcQueue<int> q(16);
  BatchFormerConfig cfg;
  cfg.max_batch = 4;
  cfg.batch_deadline = 500ms;
  std::thread producer([&q] {
    ASSERT_TRUE(q.push(1));
    std::this_thread::sleep_for(5ms);
    ASSERT_TRUE(q.push(2));
    std::this_thread::sleep_for(5ms);
    ASSERT_TRUE(q.push(3));
    std::this_thread::sleep_for(5ms);
    ASSERT_TRUE(q.push(4));  // fourth fills the batch before the deadline.
  });
  const std::vector<int> batch = form_batch(q, cfg);
  producer.join();
  EXPECT_EQ(batch, (std::vector<int>{1, 2, 3, 4}));
}

TEST(BatchFormer, ClosedAndDrainedQueueYieldsEmptyBatch) {
  BoundedMpmcQueue<int> q(4);
  q.close();
  const std::vector<int> batch = form_batch(q, BatchFormerConfig{});
  EXPECT_TRUE(batch.empty());
}

// --- circuit breaker ---

TEST(CircuitBreaker, TripsAtThresholdWithinWindow) {
  CircuitBreaker breaker(CircuitBreakerConfig{/*window=*/8,
                                              /*trip_threshold=*/3,
                                              /*probe_interval=*/4});
  EXPECT_FALSE(breaker.should_bypass());
  EXPECT_FALSE(breaker.record_escalation());
  EXPECT_FALSE(breaker.record_escalation());
  EXPECT_FALSE(breaker.open());
  EXPECT_TRUE(breaker.record_escalation());  // third escalation trips.
  EXPECT_TRUE(breaker.open());
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreaker, SuccessesSlideEscalationsOutOfTheWindow) {
  CircuitBreaker breaker(CircuitBreakerConfig{/*window=*/4,
                                              /*trip_threshold=*/2,
                                              /*probe_interval=*/4});
  EXPECT_FALSE(breaker.record_escalation());
  // Four successes push the escalation out of the 4-outcome window.
  for (int i = 0; i < 4; ++i) breaker.record_success();
  EXPECT_FALSE(breaker.record_escalation());  // back to 1 in window.
  EXPECT_FALSE(breaker.open());
}

TEST(CircuitBreaker, OpenBypassesExceptOnProbeTurns) {
  CircuitBreaker breaker(CircuitBreakerConfig{/*window=*/4,
                                              /*trip_threshold=*/1,
                                              /*probe_interval=*/3});
  ASSERT_TRUE(breaker.record_escalation());
  ASSERT_TRUE(breaker.open());
  // Decisions 1, 2 bypass; decision 3 probes the accelerator.
  EXPECT_TRUE(breaker.should_bypass());
  EXPECT_TRUE(breaker.should_bypass());
  EXPECT_FALSE(breaker.should_bypass());
}

TEST(CircuitBreaker, CleanProbeClosesTheBreaker) {
  CircuitBreaker breaker(CircuitBreakerConfig{/*window=*/4,
                                              /*trip_threshold=*/1,
                                              /*probe_interval=*/1});
  ASSERT_TRUE(breaker.record_escalation());
  EXPECT_FALSE(breaker.should_bypass());  // probe_interval=1: always probe.
  breaker.record_success();               // probe came back clean.
  EXPECT_FALSE(breaker.open());
  EXPECT_FALSE(breaker.should_bypass());
}

TEST(CircuitBreaker, FailedProbeStaysOpen) {
  CircuitBreaker breaker(CircuitBreakerConfig{/*window=*/4,
                                              /*trip_threshold=*/1,
                                              /*probe_interval=*/2});
  ASSERT_TRUE(breaker.record_escalation());
  EXPECT_TRUE(breaker.should_bypass());
  EXPECT_FALSE(breaker.should_bypass());      // probe turn...
  EXPECT_FALSE(breaker.record_escalation());  // ...alarmed again: no re-trip,
  EXPECT_TRUE(breaker.open());                // still open.
  EXPECT_EQ(breaker.trips(), 1u);
}

TEST(CircuitBreaker, ResetForcesClosed) {
  CircuitBreaker breaker(CircuitBreakerConfig{/*window=*/2,
                                              /*trip_threshold=*/1,
                                              /*probe_interval=*/2});
  ASSERT_TRUE(breaker.record_escalation());
  breaker.reset();
  EXPECT_FALSE(breaker.open());
  EXPECT_FALSE(breaker.should_bypass());
}

// --- telemetry ---

TEST(Telemetry, CountersReconcileAcrossPaths) {
  ServeTelemetry telemetry;
  const auto response = [](ServePath path, bool clean, std::size_t alarms) {
    ServeResponse r;
    r.path = path;
    r.checksum_clean = clean;
    r.alarm_events = alarms;
    r.op_executions = 2;
    r.total_us = 100.0;
    OpReport op;
    op.kind = OpKind::kAttentionFlashAbft;
    op.alarms = alarms;
    op.recovery = path == ServePath::kGuardedRecovered
                      ? RecoveryStatus::kRecovered
                      : RecoveryStatus::kCleanFirstTry;
    r.reports.push_back(op);
    return r;
  };
  telemetry.add(Counter::kSubmitted, 3);
  telemetry.add(Counter::kBatches);
  telemetry.on_response(response(ServePath::kGuardedClean, true, 0));
  telemetry.on_response(response(ServePath::kGuardedRecovered, true, 1));
  telemetry.add(Counter::kEscalations);
  telemetry.on_response(response(ServePath::kFallbackReference, true, 3));

  const TelemetrySnapshot s = telemetry.snapshot();
  EXPECT_EQ(s.submitted, 3u);
  EXPECT_EQ(s.completed, 3u);
  EXPECT_EQ(s.clean_first_try + s.recovered + s.fallback, s.completed);
  EXPECT_EQ(s.checksum_clean, 3u);
  EXPECT_EQ(s.checksum_dirty, 0u);
  EXPECT_EQ(s.alarm_events, 4u);
  EXPECT_EQ(s.op_executions, 6u);
  EXPECT_EQ(s.escalations, 1u);
  // Per-op-kind accounting mirrors the report stream.
  const OpKindStats& attention =
      s.per_kind[std::size_t(OpKind::kAttentionFlashAbft)];
  EXPECT_EQ(attention.checks, 3u);
  EXPECT_EQ(attention.alarms, 4u);
  EXPECT_EQ(attention.recovered, 1u);
  EXPECT_DOUBLE_EQ(percentile_us(s.latency_ns, 0.50), 100.0);
  EXPECT_GT(s.throughput_rps(2.0), 0.0);
  // The requests group always prints; an all-zero group does not.
  const std::string table = s.render(1.0);
  EXPECT_NE(table.find("| submitted "), std::string::npos);
  EXPECT_EQ(table.find("scrub_passes"), std::string::npos);
}

TEST(Telemetry, RegistryRoundTripsEveryCounter) {
  // A distinct value per entry, half through add() and half through set():
  // a field missing from the snapshot loop, or two entries sharing one
  // field, reads back the wrong value.
  ServeTelemetry telemetry;
  const auto value = [](std::size_t i) { return 1000 + 7 * i; };
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (i % 2 == 0) {
      telemetry.add(Counter(i), value(i) - 1);
      telemetry.add(Counter(i));
    } else {
      telemetry.set(Counter(i), value(i));
    }
  }
  const TelemetrySnapshot s = telemetry.snapshot();
  std::set<std::string> names;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const CounterInfo& c = kCounters[i];
    EXPECT_EQ(s.*c.field, value(i)) << c.name;
    EXPECT_TRUE(names.insert(c.name).second) << "duplicate " << c.name;
  }

  // The exposition carries exactly one family per entry, typed and helped,
  // whose one sample is the snapshot value.
  std::map<std::string, std::string> type_of;
  std::map<std::string, int> helps;
  std::map<std::string, std::vector<std::string>> samples;
  std::istringstream in(s.prometheus_text(0.0));
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string first, keyword, family;
    if (line[0] == '#') {
      words >> first >> keyword >> family;
      if (keyword == "HELP") ++helps[family];
      if (keyword == "TYPE") {
        ASSERT_FALSE(type_of.count(family)) << "second TYPE for " << family;
        words >> type_of[family];
      }
      continue;
    }
    words >> family;
    std::string sample;
    words >> sample;
    samples[family].push_back(sample);
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const CounterInfo& c = kCounters[i];
    const bool is_counter = c.type == MetricType::kCounter;
    const std::string family =
        std::string("flashabft_") + c.name + (is_counter ? "_total" : "");
    EXPECT_EQ(helps[family], 1) << family;
    EXPECT_EQ(type_of[family], is_counter ? "counter" : "gauge") << family;
    ASSERT_EQ(samples[family].size(), 1u) << family;
    EXPECT_EQ(samples[family].front(), std::to_string(value(i))) << family;
  }
}

TEST(Telemetry, PrometheusExpositionIsWellFormed) {
  ServeTelemetry telemetry;
  obs::OpTimingProfiler& profiler = *telemetry.op_profiler();
  for (std::uint64_t i = 1; i <= 300; ++i) {
    const std::uint64_t ns = i * i * 997 + i;  // ~1 us .. ~90 ms.
    profiler.record(OpKind::kAttentionFlashAbft, obs::GuardPhase::kCompute,
                    ns);
    profiler.record(OpKind::kAttentionFlashAbft, obs::GuardPhase::kVerify,
                    ns / 50);
    profiler.record(OpKind::kProjection, obs::GuardPhase::kRecovery, i % 7);
  }
  const TelemetrySnapshot s = telemetry.snapshot();

  // Every histogram series the exposition must carry, by name{labels}.
  std::map<std::string, const obs::LogHistogram*> expected;
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    for (std::size_t p = 0; p < obs::kGuardPhaseCount; ++p) {
      if (s.timing.cells[k][p].count == 0) continue;
      expected["flashabft_guard_phase_duration_seconds{kind=\"" +
               std::string(op_kind_name(OpKind(k))) + "\",phase=\"" +
               obs::guard_phase_name(obs::GuardPhase(p)) + "\"}"] =
          &s.timing.cells[k][p];
    }
  }
  ASSERT_EQ(expected.size(), 3u);

  struct Series {
    std::vector<std::pair<double, std::uint64_t>> buckets;  // (le, count).
    std::optional<double> sum;
    std::optional<std::uint64_t> count;
  };
  std::map<std::string, std::string> type_of;  // family -> TYPE.
  std::set<std::string> helped;
  std::map<std::string, Series> series;
  std::istringstream in(s.prometheus_text(1.0));
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    std::istringstream words(line);
    std::string first, keyword, family;
    if (line[0] == '#') {
      words >> first >> keyword >> family;
      if (keyword == "HELP") helped.insert(family);
      if (keyword == "TYPE") words >> type_of[family];
      continue;
    }
    const std::size_t space = line.rfind(' ');
    const std::string name_labels = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    const std::size_t brace = name_labels.find('{');
    const std::string name = name_labels.substr(0, brace);
    std::string labels =
        brace == std::string::npos
            ? ""
            : name_labels.substr(brace + 1, name_labels.size() - brace - 2);

    // A histogram's samples extend its family name with a suffix.
    family = name;
    for (const std::string suffix : {"_bucket", "_sum", "_count"}) {
      if (!name.ends_with(suffix)) continue;
      const std::string base = name.substr(0, name.size() - suffix.size());
      const auto type = type_of.find(base);
      if (type != type_of.end() && type->second == "histogram") family = base;
    }
    ASSERT_TRUE(helped.count(family)) << "no # HELP for " << line;
    ASSERT_TRUE(type_of.count(family)) << "no # TYPE for " << line;
    if (type_of[family] != "histogram") continue;

    const std::string suffix = name.substr(family.size());
    if (suffix == "_bucket") {
      const std::size_t le = labels.find("le=\"");
      ASSERT_NE(le, std::string::npos) << line;
      const std::string edge =
          labels.substr(le + 4, labels.size() - le - 5);
      labels = labels.substr(0, le == 0 ? 0 : le - 1);
      series[family + "{" + labels + "}"].buckets.emplace_back(
          edge == "+Inf" ? std::numeric_limits<double>::infinity()
                         : std::stod(edge),
          std::stoull(value));
    } else if (suffix == "_sum") {
      series[family + "{" + labels + "}"].sum = std::stod(value);
    } else {
      series[family + "{" + labels + "}"].count = std::stoull(value);
    }
  }

  ASSERT_EQ(series.size(), expected.size());
  for (const auto& [key, h] : expected) {
    ASSERT_TRUE(series.count(key)) << "missing " << key;
    const Series& got = series.at(key);
    ASSERT_FALSE(got.buckets.empty()) << key;
    for (std::size_t i = 1; i < got.buckets.size(); ++i) {
      EXPECT_LT(got.buckets[i - 1].first, got.buckets[i].first) << key;
      EXPECT_LE(got.buckets[i - 1].second, got.buckets[i].second) << key;
    }
    EXPECT_EQ(got.buckets.back().first,
              std::numeric_limits<double>::infinity())
        << key;
    ASSERT_TRUE(got.count.has_value()) << key;
    EXPECT_EQ(got.buckets.back().second, *got.count) << key;
    EXPECT_EQ(*got.count, h->count) << key;
    ASSERT_TRUE(got.sum.has_value()) << key;
    const double seconds = double(h->total) * 1e-9;
    EXPECT_NEAR(*got.sum, seconds, 1e-13 * seconds) << key;
  }
}

}  // namespace
}  // namespace flashabft::serve
