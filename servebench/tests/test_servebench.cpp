// Tests of the benchmark's own logic: seeded load generation, the tail and
// latency arithmetic, the CPU cost per token, SLO rung selection, the token
// oracle and the replay's time tree.
#include <gtest/gtest.h>

#include <cmath>

#include "bench_stats.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "replay.hpp"
#include "workloads.hpp"

namespace servebench {
namespace {

TEST(LoadGen, SameSeedSameRequestsAndArrivals) {
  for (const std::string& name : workload_names()) {
    const WorkloadSpec spec = workload_spec(name);
    for (std::uint64_t i = 0; i < 50; ++i) {
      const PlannedRequest a = plan_request(spec, 7, i);
      const PlannedRequest b = plan_request(spec, 7, i);
      EXPECT_EQ(a.work.prompt, b.work.prompt);
      EXPECT_EQ(a.work.max_new_tokens, b.work.max_new_tokens);
      EXPECT_EQ(a.fault, b.fault);
      ASSERT_EQ(a.work.faults.size(), b.work.faults.size());
      ASSERT_EQ(a.work.kv_corruptions.size(), b.work.kv_corruptions.size());
      for (std::size_t k = 0; k < a.work.kv_corruptions.size(); ++k) {
        EXPECT_EQ(a.work.kv_corruptions[k].step, b.work.kv_corruptions[k].step);
        EXPECT_EQ(a.work.kv_corruptions[k].row, b.work.kv_corruptions[k].row);
        EXPECT_EQ(a.work.kv_corruptions[k].page_table,
                  b.work.kv_corruptions[k].page_table);
      }
      for (std::size_t k = 0; k < a.work.faults.size(); ++k) {
        EXPECT_EQ(a.work.faults[k].step, b.work.faults[k].step);
        EXPECT_EQ(a.work.faults[k].fault.op_index,
                  b.work.faults[k].fault.op_index);
      }
    }
  }
  EXPECT_EQ(arrival_offsets_us(40.0, 2.0, 7, 1),
            arrival_offsets_us(40.0, 2.0, 7, 1));
}

TEST(LoadGen, DifferentSeedDifferentRequestsAndArrivals) {
  for (const std::string& name : workload_names()) {
    const WorkloadSpec spec = workload_spec(name);
    std::size_t differing = 0;
    for (std::uint64_t i = 0; i < 20; ++i) {
      differing += plan_request(spec, 7, i).work.prompt !=
                   plan_request(spec, 8, i).work.prompt;
    }
    EXPECT_EQ(differing, 20u) << name;
  }
  EXPECT_NE(arrival_offsets_us(40.0, 2.0, 7, 1),
            arrival_offsets_us(40.0, 2.0, 8, 1));
  // Fault plans: the set of injected request indices depends on the seed.
  const WorkloadSpec open = workload_spec("open-mixed");
  std::vector<bool> a, b;
  for (std::uint64_t i = 0; i < 400; ++i) {
    a.push_back(!plan_request(open, 7, i).fault.empty());
    b.push_back(!plan_request(open, 8, i).fault.empty());
  }
  EXPECT_NE(a, b);
}

TEST(LoadGen, WorkloadShapesMatchTheirDefinition) {
  const WorkloadSpec shared = workload_spec("shared-prefix");
  std::size_t injected = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const PlannedRequest p = plan_request(shared, 3, i);
    EXPECT_EQ(p.work.prompt.size(), shared.stem_len + shared.suffix_len);
    EXPECT_TRUE(p.fault.empty());
  }
  const WorkloadSpec open = workload_spec("open-mixed");
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const PlannedRequest p = plan_request(open, 3, i);
    injected += !p.fault.empty();
    EXPECT_LE(p.work.prompt.size() + p.work.max_new_tokens,
              open.server.model.max_seq_len);
  }
  EXPECT_EQ(injected, 200u);  // stratified: exactly fault_share.
  // One injected request in every block of 10, one long prompt in every
  // block of 5, whatever the seed.
  for (std::uint64_t seed : {3u, 4u}) {
    for (std::uint64_t block = 0; block < 20; ++block) {
      std::size_t faults = 0, longs = 0;
      for (std::uint64_t i = block * 10; i < block * 10 + 10; ++i) {
        const PlannedRequest p = plan_request(open, seed, i);
        faults += !p.fault.empty();
        longs += p.work.prompt.size() >= open.long_min;
      }
      EXPECT_EQ(faults, 1u);
      EXPECT_EQ(longs, 2u);
    }
  }
  // Poisson arrivals: the mean rate is close to the configured one.
  EXPECT_NEAR(double(arrival_offsets_us(50.0, 20.0, 1, 0).size()), 1000.0,
              100.0);
}

TEST(Stats, TailHasAtLeastTenSamplesBeyond) {
  EXPECT_EQ(tail_quantile(10), 0.5);
  EXPECT_EQ(tail_quantile(99), 0.5);
  EXPECT_EQ(tail_quantile(100), 0.9);
  EXPECT_EQ(tail_quantile(999), 0.9);
  EXPECT_EQ(tail_quantile(1000), 0.99);
  EXPECT_EQ(tail_quantile(9999), 0.99);
  EXPECT_EQ(tail_quantile(10000), 0.999);
  for (std::size_t n = 20; n < 30000; n += 37) {
    EXPECT_GE(samples_beyond(n, tail_quantile(n)), 10u) << n;
  }
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const Summary s = summarize(v);
  EXPECT_EQ(s.tail_q, 0.9);
  EXPECT_EQ(s.beyond, 10u);
  EXPECT_DOUBLE_EQ(s.p50, 50.5);
  // Exactly 10 samples lie above the reported tail value.
  EXPECT_EQ(std::count_if(v.begin(), v.end(),
                          [&](double x) { return x > s.tail; }),
            10);
  // A fixed expected count picks the quantile, not the realized count.
  EXPECT_EQ(summarize(v, 5000).tail_q, 0.99);
}

TEST(Stats, TpotFormula) {
  // 1000 us to first token, 10 tokens over 10 ms total: 9 gaps of 1 ms.
  EXPECT_DOUBLE_EQ(*tpot_ms(10'000.0, 1'000.0, 10), 1.0);
  EXPECT_DOUBLE_EQ(*tpot_ms(5'000.0, 1'000.0, 2), 4.0);
  EXPECT_FALSE(tpot_ms(5'000.0, 1'000.0, 1).has_value());
}

TEST(Stats, TtftCountsFromDueTime) {
  // Submitted 2.5 ms after it was due, 4 ms server-side TTFT.
  EXPECT_DOUBLE_EQ(ttft_from_due_ms(2'500.0, 4'000.0), 6.5);
  EXPECT_DOUBLE_EQ(ttft_from_due_ms(0.0, 4'000.0), 4.0);
}

TEST(Stats, SloRateSelectsHighestPassingRung) {
  const std::vector<RungOutcome> rungs = {
      {10.0, 100, 100, false}, {20.0, 200, 192, false},
      {40.0, 400, 200, true}};
  EXPECT_DOUBLE_EQ(slo_rate(rungs, 0.95), 20.0);
  // 95% exactly passes; one miss more fails.
  EXPECT_DOUBLE_EQ(slo_rate({{10.0, 100, 95, false}}, 0.95), 10.0);
  EXPECT_DOUBLE_EQ(slo_rate({{10.0, 100, 94, false}}, 0.95), 0.0);
  // A growing backlog disqualifies a rung even when the SLO holds so far.
  EXPECT_DOUBLE_EQ(
      slo_rate({{10.0, 100, 100, false}, {20.0, 100, 100, true}}, 0.95),
      10.0);
  EXPECT_DOUBLE_EQ(slo_rate({}, 0.95), 0.0);
  EXPECT_FALSE(meets_slo(false, 1.0, 1.0, 10.0, 10.0));
  EXPECT_FALSE(meets_slo(true, 11.0, 1.0, 10.0, 10.0));
  EXPECT_FALSE(meets_slo(true, 1.0, 11.0, 10.0, 10.0));
  EXPECT_TRUE(meets_slo(true, 10.0, 10.0, 10.0, 10.0));
}

TEST(Stats, OutstandingCountsDueAndUnfinished) {
  Samples samples(3);
  samples[0].ok = true;
  samples[0].due_us = 0;
  samples[0].submit_us = 0;
  samples[0].response.total_us = 100;
  samples[1].ok = true;
  samples[1].due_us = 50;
  samples[1].submit_us = 50;
  samples[1].response.total_us = 500;
  samples[2].ok = false;  // failed: never completes.
  samples[2].due_us = 10;
  EXPECT_EQ(outstanding_at(samples, 0, 60), 3u);
  EXPECT_EQ(outstanding_at(samples, 0, 200), 2u);
  EXPECT_EQ(outstanding_at(samples, 0, 1000), 1u);
  EXPECT_EQ(outstanding_at(samples, 1, 1000), 0u);
}

TEST(Stats, CpuPerTokenIsTheMedianSliceWithTokensSpreadOverLifetimes) {
  RunResult run;
  run.cpu_marks = {{0.0, 0.0}, {1e6, 1.0}, {2e6, 3.0}, {3e6, 4.0}};
  run.server_cpu_s = 4.0;
  Samples& samples = run.samples;
  samples.resize(2);
  // First token at 0, the other 30 evenly over (0, 3 s]: 11, 10, 10.
  samples[0].ok = samples[0].timed = true;
  samples[0].response.total_us = 3e6;
  samples[0].response.tokens.assign(31, 0);
  // A failed request adds no tokens.
  samples[1].response.tokens.assign(10, 0);
  // CPU per token by slice: 1 s / 11, 2 s / 10, 1 s / 10.
  EXPECT_DOUBLE_EQ(cpu_us_per_token(run), 1e5);
  // Without marks (open loop): the whole run's CPU over its tokens.
  run.cpu_marks.clear();
  EXPECT_DOUBLE_EQ(cpu_us_per_token(run), 1e6 * 4.0 / 31.0);
}

flashabft::serve::ServerConfig tiny_server() {
  flashabft::serve::ServerConfig server = workload_spec("decode-heavy").server;
  server.model.max_seq_len = 48;
  return server;
}

TEST(Oracle, RejectsOneFlippedToken) {
  using flashabft::AttentionBackend;
  for (const flashabft::DType dtype :
       {flashabft::DType::kF32, flashabft::DType::kBf16}) {
    flashabft::serve::ServerConfig server = tiny_server();
    server.dtype = dtype;
    const flashabft::TransformerModel model(model_config(server),
                                            server.model_seed);
    const flashabft::GuardedExecutor executor(executor_options(server));
    const std::vector<std::size_t> prompt = {3, 14, 15, 92, 65, 35, 89, 79};
    // Greedy continuation through the incremental paged path.
    flashabft::KvPagePool pool(model.make_pool_config(16, 0, 1));
    flashabft::PagedKv kv = pool.make_session(1);
    std::vector<std::size_t> tokens = {
        model.prefill_paged(prompt, AttentionBackend::kFlashAbft, executor,
                            pool, kv)
            .next_token};
    while (tokens.size() < 12) {
      tokens.push_back(model
                           .decode_step_paged(tokens.back(),
                                              AttentionBackend::kFlashAbft,
                                              executor, pool, kv)
                           .next_token);
    }
    EXPECT_TRUE(matches_oracle(model, executor, prompt, tokens));
    for (const std::size_t at : {0u, 5u, 11u}) {
      std::vector<std::size_t> flipped = tokens;
      flipped[at] = (flipped[at] + 1) % model.config().vocab_size;
      EXPECT_FALSE(matches_oracle(model, executor, prompt, flipped)) << at;
    }
    EXPECT_FALSE(matches_oracle(model, executor, prompt, {}));
    const std::vector<std::size_t> truncated(tokens.begin(), tokens.end() - 1);
    EXPECT_TRUE(matches_oracle(model, executor, prompt, truncated));
  }
}

TEST(Replay, SelfTimesAddUpToTheRoot) {
  const std::vector<TimeNode> tree = {
      {"tick", 100.0, -1}, {"scrub", 10.0, 0},  {"model", 70.0, 0},
      {"embed", 5.0, 2},   {"layers", 50.0, 2}, {"attn", 30.0, 4},
      {"ffn", 15.0, 4}};
  const std::vector<double> self = self_times(tree);
  EXPECT_DOUBLE_EQ(self[0], 20.0);
  EXPECT_DOUBLE_EQ(self[2], 15.0);
  EXPECT_DOUBLE_EQ(self[4], 5.0);
  double sum = 0.0;
  for (const double s : self) {
    EXPECT_GE(s, 0.0);
    sum += s;
  }
  EXPECT_DOUBLE_EQ(sum, 100.0);
}

TEST(Replay, ReportedFiguresAreShares) {
  // The replayed tick's tree is built from separate measurements (the
  // tick, the scrub on/off differential, decode_step_batch and the composed
  // sweep's parts), so its self times are differentials that could come
  // out negative; the shares built on them must not.
  const flashabft::serve::ServerConfig server =
      workload_spec("decode-heavy").server;
  Shapes shapes;
  shapes.batch = 16;  // decode-heavy's batch.
  for (std::size_t s = 0; s < shapes.batch; ++s) {
    shapes.contexts.push_back(60 + 10 * (s % 4));
  }
  shapes.prefill_len = 40;
  shapes.cached_len = 32;
  shapes.cached_prompt_len = 40;
  const ReplayResult r = run_replay(server, shapes, 1);
  ASSERT_GE(r.tree.size(), 3u);
  EXPECT_EQ(r.tree[0].name, "serve.tick");
  EXPECT_EQ(r.tree[2].name, "model.decode_step_batch");
  const std::vector<double> self = self_times(r.tree);
  for (std::size_t i = 0; i < self.size(); ++i) {
    if (i == 2) continue;  // decode_step_batch: the unattributed part.
    EXPECT_GE(self[i], 0.0) << r.tree[i].name;
  }
  std::size_t checked = 0;
  for (const Metric& m : r.metrics) {
    EXPECT_TRUE(std::isfinite(m.value)) << m.name;
    EXPECT_FALSE(m.unit.empty()) << m.name;
    if (m.name == "serve.self_share" || m.name == "scrub.tick_share" ||
        m.name == "protection.tick_share") {
      ++checked;
      EXPECT_GE(m.value, 0.0) << m.name;
      EXPECT_LE(m.value, 1.0) << m.name;
    } else if (m.name == "model.unattributed_share") {
      // The named parts come from a same-shape reconstruction with weights
      // of its own, which times within a few percent of decode_step_batch
      // itself (run to run, about +-8% on a 4-core machine), so a share
      // that is truly near zero can come out slightly negative. The check
      // is that the reconstruction accounts for decode_step_batch to within
      // that resolution. Leaving out any of the large parts (projections,
      // attention, page verify, FFN: 15-20% of decode_step_batch each at
      // this shape) would put it outside.
      ++checked;
      EXPECT_GE(m.value, -0.15) << m.name;
      EXPECT_LE(m.value, 0.15) << m.name;
    }
  }
  EXPECT_EQ(checked, 4u);
}

}  // namespace
}  // namespace servebench
