#include "replay.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <map>
#include <memory>

#include "core/kv_pool.hpp"
#include "core/meta_guard.hpp"
#include "loadgen.hpp"
#include "model/gelu.hpp"
#include "model/layernorm.hpp"
#include "model/linear.hpp"
#include "model/multi_head_attention.hpp"
#include "model/transformer_model.hpp"
#include "numerics/dtype.hpp"
#include "serve/scheduler.hpp"
#include "serve/session.hpp"
#include "tensor/backend.hpp"
#include "tensor/tensor_ops.hpp"
#include "workloads.hpp"

namespace servebench {

namespace {

using namespace flashabft;
using serve::Clock;
using Executors = std::vector<const GuardedExecutor*>;

double time_us(const std::function<void()>& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0)
      .count();
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

/// Median of `fn` over `n` calls.
double median_us(std::size_t n, const std::function<void()>& fn) {
  std::vector<double> t(n);
  for (double& x : t) x = time_us(fn);
  return median(t);
}

MatrixD random_matrix(Rng& rng, std::size_t rows, std::size_t cols) {
  MatrixD m(rows, cols);
  for (double& x : m.flat()) x = rng.next_gaussian();
  return m;
}

/// Context lengths `shift` tokens shorter (>= 1), so that a replay that
/// appends `2 * shift` tokens is centred on the observed contexts.
std::vector<std::size_t> shifted(const std::vector<std::size_t>& contexts,
                                 std::size_t shift, std::size_t max_len) {
  std::vector<std::size_t> out;
  for (std::size_t c : contexts) {
    c = std::min(c, max_len - 2 * shift - 2);
    out.push_back(c > shift ? c - shift : 1);
  }
  return out;
}

/// A batch of paged sessions prefilled through the model.
struct PagedBatch {
  std::vector<PagedKv> kvs;
  std::vector<PagedKv*> ptrs;
  std::vector<std::size_t> next;
};

PagedBatch prefill_batch(const TransformerModel& model,
                         const GuardedExecutor& executor, KvPagePool& pool,
                         const std::vector<std::size_t>& lens, Rng& rng) {
  PagedBatch b;
  b.kvs.reserve(lens.size());
  for (std::size_t s = 0; s < lens.size(); ++s) {
    b.kvs.push_back(pool.make_session(s + 1));
    const StepResult r = model.prefill_paged(
        random_tokens(rng, lens[s], model.config().vocab_size),
        AttentionBackend::kFlashAbft, executor, pool, b.kvs.back());
    b.next.push_back(r.next_token);
  }
  for (PagedKv& kv : b.kvs) b.ptrs.push_back(&kv);
  return b;
}

/// A manual-mode ContinuousScheduler advancing one session per entry of
/// `contexts`, prefilled `ticks / 2` tokens short of them so that `ticks`
/// timed ticks are centred on those context lengths.
class ManualScheduler {
 public:
  ManualScheduler(const serve::ServerConfig& server,
                  const TransformerModel& model,
                  const std::vector<std::size_t>& contexts, bool scrub,
                  std::size_t ticks, Rng& rng)
      : table_(contexts.size(), contexts.size()) {
    serve::SchedulerConfig cfg = server.scheduler;
    cfg.manual = true;
    cfg.sweep_threads = 1;
    cfg.scrub = scrub;
    cfg.kv_budget_bytes = 0;
    cfg.num_pages =
        model.make_pool_config(cfg.page_size, 0, contexts.size()).num_pages;
    cfg.trace = nullptr;
    cfg.flight = nullptr;
    GuardedExecutor::Options options = executor_options(server);
    options.obs.profiler = telemetry_.op_profiler();
    scheduler_ = std::make_unique<serve::ContinuousScheduler>(
        cfg, model, options, table_, telemetry_);
    for (const std::size_t len :
         shifted(contexts, ticks / 2, model.config().max_seq_len)) {
      auto session = std::make_unique<serve::GenerationSession>();
      session->id = futures_.size() + 1;
      session->work.prompt = random_tokens(rng, len, model.config().vocab_size);
      session->work.max_new_tokens = ticks + 4;
      session->seal_meta();
      futures_.push_back(session->promise.get_future());
      serve::SessionAdmission admission;
      FLASHABFT_ENSURE(scheduler_->admit(session, admission) &&
                       admission.shed == nullptr);
    }
    (void)scheduler_->run_tick();  // admission + prefill of every session.
  }
  ManualScheduler(const ManualScheduler&) = delete;
  ManualScheduler& operator=(const ManualScheduler&) = delete;
  ~ManualScheduler() {
    scheduler_->abort_all("replay done");
    scheduler_->shutdown();
  }

  double tick_us() {
    return time_us([&] { (void)scheduler_->run_tick(); });
  }

 private:
  serve::SessionTable table_;
  serve::ServeTelemetry telemetry_;
  std::unique_ptr<serve::ContinuousScheduler> scheduler_;
  std::vector<std::future<serve::ServeResponse>> futures_;
};

/// Median of the paired differences a[i] - b[i].
double median_diff(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> d(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) d[i] = a[i] - b[i];
  return median(d);
}

// Iterations of the interleaved tick / decode / composed-sweep loop: 100
// ticks put exactly 10 samples beyond the tick's p90.
constexpr std::size_t kIterations = 100;
// Repetitions of the standalone entry points timed after the loop.
constexpr std::size_t kReps = 30;

// The named parts of the composed decode sweep, as they nest under
// decode_step_batch in the replayed tick's time tree.
constexpr const char* kParts[] = {
    "model.embed",     "core.kv_verify", "model.proj", "core.kv_append",
    "model.attention", "model.layernorm", "model.ffn", "model.gelu",
    "model.final_norm", "model.lm_head"};

}  // namespace

ReplayResult run_replay(const serve::ServerConfig& server,
                        const Shapes& shapes, std::uint64_t seed) {
  ReplayResult result;
  const TransformerConfig mcfg = model_config(server);
  const TransformerModel model(mcfg, server.model_seed);
  const GuardedExecutor::Options options = executor_options(server);
  GuardedExecutor::Options options_nodmr = options;
  options_nodmr.dmr_glue = false;
  const GuardedExecutor exec(options);
  const GuardedExecutor exec_nodmr(options_nodmr);
  const std::size_t B = std::max<std::size_t>(1, shapes.batch);
  const std::size_t L = mcfg.num_layers;
  const std::size_t d = mcfg.model_dim;
  const std::size_t width = mcfg.num_heads * mcfg.head_dim;
  const std::size_t page = server.scheduler.page_size;
  const ComputeBackend compute = options.compute;
  const DType dtype = mcfg.dtype;
  std::vector<std::size_t> contexts = shapes.contexts;
  contexts.resize(B, contexts.empty() ? 1 : contexts.back());
  Rng rng = Rng(seed).derive(0x5E9);
  const Executors execs(B, &exec);
  const Executors execs_nodmr(B, &exec_nodmr);
  const std::vector<std::size_t> ones(B, 1);
  auto metric = [&](std::string name, double value, std::string unit) {
    result.metrics.push_back({std::move(name), value, std::move(unit)});
  };

  // --- one interleaved loop: scheduler ticks with scrub on and off,
  // decode_step_batch with DMR glue on and off, and the same decode sweep
  // composed from the layers' public entry points (the same stacked
  // products, per-session page verify/append and per-head paged Flash-ABFT
  // kernel, with weights of the same shapes), each part timed. Every stream
  // advances one token per iteration on its own sessions, so all of them
  // see the same contexts and the same machine state; the scrub and DMR
  // differentials are medians of per-iteration pairs ---
  ManualScheduler sched_on(server, model, contexts, true, kIterations, rng);
  ManualScheduler sched_off(server, model, contexts, false, kIterations, rng);
  const std::vector<std::size_t> start =
      shifted(contexts, kIterations / 2, mcfg.max_seq_len);
  KvPagePool pool_on(model.make_pool_config(page, 0, B));
  KvPagePool pool_off(model.make_pool_config(page, 0, B));
  KvPagePool pool_parts(model.make_pool_config(page, 0, B));
  PagedBatch batch_on = prefill_batch(model, exec, pool_on, start, rng);
  PagedBatch batch_off = prefill_batch(model, exec, pool_off, start, rng);
  PagedBatch b = prefill_batch(model, exec, pool_parts, start, rng);

  Rng wrng = rng.derive(1);
  struct LayerWeights {
    Linear w[6];  // q, k, v, o, ffn1, ffn2
    Linear::InputChecksums sums[6];
  };
  std::vector<LayerWeights> weights(L);
  for (LayerWeights& lw : weights) {
    for (std::size_t i = 0; i < 6; ++i) {
      const std::size_t in = i == 5 ? mcfg.ffn_dim : d;
      const std::size_t out = i == 4 ? mcfg.ffn_dim : d;
      lw.w[i] = Linear::random_init(in, out, wrng);
      lw.w[i].quantize(dtype);
      lw.sums[i] = lw.w[i].input_checksums();
    }
  }
  const LayerNorm norm(d);
  // The tied LM head: logits = h E^T row by row, checked by the product
  // identity sum(logits) = h . colsum(E).
  const MatrixD& table = model.embedding().table();
  std::vector<double> col_e(d, 0.0);
  for (std::size_t v = 0; v < mcfg.vocab_size; ++v) {
    for (std::size_t j = 0; j < d; ++j) col_e[j] += table(v, j);
  }
  std::vector<LayerReport> reports(B);
  std::vector<LayerReport*> report_ptrs;
  for (LayerReport& r : reports) report_ptrs.push_back(&r);
  const double scale = 1.0 / std::sqrt(double(mcfg.head_dim));

  // One iteration's time in each named part (microseconds).
  std::map<std::string, double> part_us;
  auto timed = [&](const char* part, const auto& fn) {
    const Clock::time_point t0 = Clock::now();
    auto out = fn();
    part_us[part] += std::chrono::duration<double, std::micro>(
                         Clock::now() - t0).count();
    return out;
  };
  auto stack = [&](const std::vector<MatrixD>& rows) {
    MatrixD out(rows.size(), rows.front().cols());
    for (std::size_t s = 0; s < rows.size(); ++s) {
      for (std::size_t j = 0; j < out.cols(); ++j) out(s, j) = rows[s](0, j);
    }
    return out;
  };
  auto project = [&](const LayerWeights& lw, std::size_t i, const MatrixD& in,
                     OpKind kind, const char* part) {
    return timed(part, [&] {
      return guarded_linear_batch(lw.w[i], in, ones, kind, i, execs,
                                  report_ptrs, &lw.sums[i]);
    });
  };
  auto glue = [&](const char* part, const std::function<MatrixD()>& fn) {
    return timed(part, [&] {
      LayerReport report;
      return dmr_guard(exec, 0, 0.0, fn, report);
    });
  };
  auto composed_sweep = [&] {
    for (LayerReport& r : reports) r = LayerReport{};
    MatrixD x = timed("model.embed", [&] {
      MatrixD e(B, d);
      for (std::size_t s = 0; s < B; ++s) {
        const std::size_t id[1] = {b.next[s]};
        const MatrixD row = model.embedding().embed_ids(id, b.kvs[s].len());
        for (std::size_t j = 0; j < d; ++j) e(s, j) = row(0, j);
      }
      return e;
    });
    for (std::size_t l = 0; l < L; ++l) {
      const LayerWeights& lw = weights[l];
      (void)timed("core.kv_verify", [&] {
        for (std::size_t s = 0; s < B; ++s) {
          (void)guarded_page_verify(pool_parts, b.kvs[s], l, l, exec,
                                    reports[s]);
        }
        return 0;
      });
      const std::vector<MatrixD> q = project(lw, 0, x, OpKind::kProjection, "model.proj");
      const std::vector<MatrixD> k = project(lw, 1, x, OpKind::kProjection, "model.proj");
      const std::vector<MatrixD> v = project(lw, 2, x, OpKind::kProjection, "model.proj");
      (void)timed("core.kv_append", [&] {
        for (std::size_t s = 0; s < B; ++s) {
          pool_parts.append(b.kvs[s], l, k[s].row(0), v[s].row(0));
        }
        return 0;
      });
      const MatrixD concat = timed("model.attention", [&] {
        MatrixD out(B, width);
        for (std::size_t s = 0; s < B; ++s) {
          const std::vector<KvPagePool::Chunk> pages =
              pool_parts.chunks(b.kvs[s], l);
          const KernelContext context = exec.kernel_context();
          for (std::size_t h = 0; h < mcfg.num_heads; ++h) {
            const std::span<const double> q_row =
                q[s].row(0).subspan(h * mcfg.head_dim, mcfg.head_dim);
            GuardedOp op = exec.run(
                OpKind::kAttentionFlashAbft, h,
                2.0 * double(b.kvs[s].len(l)) * double(mcfg.head_dim),
                [&](std::size_t) {
                  return paged_flash_abft_head(q_row, pages, width, h,
                                               mcfg.head_dim, scale, context);
                });
            for (std::size_t j = 0; j < mcfg.head_dim; ++j) {
              out(s, h * mcfg.head_dim + j) = op.output(0, j);
            }
          }
        }
        return out;
      });
      const MatrixD attn =
          stack(project(lw, 3, concat, OpKind::kProjection, "model.proj"));
      const MatrixD h1 = glue("model.layernorm",
                              [&] { return norm.forward(element_add(x, attn)); });
      const MatrixD f1 = stack(project(lw, 4, h1, OpKind::kFfn, "model.ffn"));
      const MatrixD g = glue("model.gelu", [&] { return gelu_forward(f1); });
      const MatrixD f2 = stack(project(lw, 5, g, OpKind::kFfn, "model.ffn"));
      x = glue("model.layernorm",
               [&] { return norm.forward(element_add(h1, f2)); });
    }
    const MatrixD h = glue("model.final_norm", [&] { return norm.forward(x); });
    (void)timed("model.lm_head", [&] {
      for (std::size_t s = 0; s < B; ++s) {
        const double* h_row = h.row(s).data();
        GuardedOp op = exec.run(
            OpKind::kProjection, 0, double(d) * double(mcfg.vocab_size),
            [&](std::size_t) {
              CheckedOp c;
              c.output = MatrixD(1, mcfg.vocab_size);
              for (std::size_t v = 0; v < mcfg.vocab_size; ++v) {
                c.output(0, v) = simd::dot(h_row, table.row(v).data(), d);
              }
              dtype_round_span(c.output.row(0), dtype);
              c.check.actual = element_sum(c.output);
              for (std::size_t j = 0; j < d; ++j) {
                c.check.predicted += h_row[j] * col_e[j];
              }
              return c;
            });
        std::vector<double> row(op.output.row(0).begin(),
                                op.output.row(0).end());
        b.next[s] = TransformerModel::argmax(row);
      }
      return 0;
    });
  };
  auto decode_step = [&](PagedBatch& batch, KvPagePool& pool,
                         const Executors& executors) {
    std::vector<StepResult> out;
    const double t = time_us([&] {
      out = model.decode_step_batch(batch.next, executors,
                                    AttentionBackend::kFlashAbft, pool,
                                    batch.ptrs);
    });
    for (std::size_t s = 0; s < B; ++s) batch.next[s] = out[s].next_token;
    return t;
  };

  std::vector<double> tick_on, tick_off, dsb_on, dsb_off;
  std::map<std::string, std::vector<double>> parts;
  for (std::size_t i = 0; i < kIterations; ++i) {
    tick_on.push_back(sched_on.tick_us());
    tick_off.push_back(sched_off.tick_us());
    dsb_off.push_back(decode_step(batch_off, pool_off, execs_nodmr));
    // Whichever of decode_step_batch and the composed sweep runs second
    // finds more of the other's data in cache, so their order alternates.
    if (i % 2 == 0) dsb_on.push_back(decode_step(batch_on, pool_on, execs));
    part_us.clear();
    composed_sweep();
    if (i % 2 == 1) dsb_on.push_back(decode_step(batch_on, pool_on, execs));
    for (const char* part : kParts) parts[part].push_back(part_us[part]);
  }
  const double tick = median(tick_on);
  const double decode = median(dsb_on);
  const double scrub = median_diff(tick_on, tick_off);
  const double dmr_delta = median_diff(dsb_on, dsb_off);

  // The replayed tick as a time tree: the scrubber and decode_step_batch
  // under the tick, the composed sweep's named parts under
  // decode_step_batch. Self times are what no child accounts for.
  result.tree = {{"serve.tick", tick, -1},
                 {"scrub", scrub, 0},
                 {"model.decode_step_batch", decode, 0}};
  std::map<std::string, double> part_med;
  for (const char* part : kParts) {
    part_med[part] = median(parts[part]);
    result.tree.push_back({part, part_med[part], 2});
  }
  const std::vector<double> self = self_times(result.tree);
  const double kv_verify = part_med["core.kv_verify"] / double(L);

  // DecoderLayer::forward_decode_paged_batch at the same shape (one layer;
  // it appends to the layer's pages, so this pool is not reused after).
  double layer_batch = 0.0;
  {
    KvPagePool pool(model.make_pool_config(page, 0, B));
    PagedBatch lb = prefill_batch(
        model, exec, pool, shifted(contexts, kReps / 2, mcfg.max_seq_len), rng);
    const MatrixD x = random_matrix(rng, B, d);
    std::vector<LayerReport> layer_reports(B);
    std::vector<LayerReport*> layer_report_ptrs;
    for (LayerReport& r : layer_reports) layer_report_ptrs.push_back(&r);
    layer_batch = median_us(kReps, [&] {
      (void)model.layer(0).forward_decode_paged_batch(
          x, AttentionBackend::kFlashAbft, execs, pool, lb.ptrs, 0,
          layer_report_ptrs);
    });
  }

  // Sealed session metadata of the replayed shape.
  GuardedRecord<SessionMeta> meta;
  meta.mutate([&](SessionMeta& m) {
    m.prompt = random_tokens(rng, contexts[0], mcfg.vocab_size);
    m.max_new_tokens = 2 * contexts[0];
    m.tokens = random_tokens(rng, contexts[0] / 2, mcfg.vocab_size);
  });
  const double meta_verify = median_us(kReps, [&] {
    LayerReport report;
    (void)guarded_meta_verify(meta, 0, exec, report);
  });
  const double weight_verify = median_us(kReps / 5, [&] {
    LayerReport report;
    (void)guarded_weight_verify(model, 0, exec, report);
  });

  // --- tensor: stacked decode products, fused checksums vs plain ---
  struct Product {
    std::size_t m, k, n, count;
  };
  const std::vector<Product> products = {
      {B, d, d, 4 * L},
      {B, d, mcfg.ffn_dim, L},
      {B, mcfg.ffn_dim, d, L},
      {B, d, mcfg.vocab_size, 1}};
  double fused_us = 0.0, plain_us = 0.0, flops = 0.0, bytes = 0.0;
  for (const Product& p : products) {
    const MatrixD a = random_matrix(rng, p.m, p.k);
    const MatrixD b = random_matrix(rng, p.k, p.n);
    std::vector<double> tf, tp;
    for (std::size_t i = 0; i < kReps; ++i) {
      tf.push_back(time_us([&] {
        (void)backend_matmul_fused(a, b, compute, dtype);
      }));
      tp.push_back(time_us([&] { (void)backend_matmul(a, b, compute); }));
    }
    fused_us += double(p.count) * median(tf);
    plain_us += double(p.count) * median(tp);
    flops += double(p.count) * 2.0 * double(p.m * p.k * p.n);
    // MatrixD stores doubles: A and B read, C written.
    bytes += double(p.count) * 8.0 * double(p.m * p.k + p.k * p.n + p.m * p.n);
  }

  // --- attention backends at the decode shape (contiguous cache: the
  // paged decode path serves Flash-ABFT only) ---
  std::vector<double> step_abft, step_fa2, step_two;
  {
    const std::size_t rounds = kReps / 3;
    std::vector<KvCache> caches;
    std::vector<std::size_t> next;
    for (const std::size_t len :
         shifted(contexts, 3 * rounds / 2, mcfg.max_seq_len)) {
      caches.push_back(model.make_cache());
      next.push_back(model
                         .prefill(random_tokens(rng, len, mcfg.vocab_size),
                                  AttentionBackend::kFlashAbft, exec,
                                  caches.back())
                         .next_token);
    }
    const AttentionBackend order[3] = {AttentionBackend::kFlashAbft,
                                       AttentionBackend::kFlashAttention2,
                                       AttentionBackend::kTwoStepAbft};
    for (std::size_t i = 0; i < 3 * rounds; ++i) {
      const AttentionBackend backend = order[i % 3];
      const double t = time_us([&] {
        for (std::size_t s = 0; s < caches.size(); ++s) {
          next[s] =
              model.decode_step(next[s], backend, exec, caches[s]).next_token;
        }
      });
      (i % 3 == 0 ? step_abft : i % 3 == 1 ? step_fa2 : step_two).push_back(t);
    }
  }
  const double abft_step = median(step_abft);
  const double fa2_step = median(step_fa2);
  const double two_step = median(step_two);

  // --- prefill: cold (both backends) and cached ---
  const std::size_t prefill_len =
      std::clamp<std::size_t>(shapes.prefill_len, 1, mcfg.max_seq_len);
  std::vector<double> pre_abft, pre_fa2;
  {
    KvPagePool pool(model.make_pool_config(page, 0, 1));
    const std::vector<std::size_t> prompt =
        random_tokens(rng, prefill_len, mcfg.vocab_size);
    for (std::size_t i = 0; i < 2 * (kReps / 3); ++i) {
      const bool abft = i % 2 == 0;
      PagedKv kv = pool.make_session(1);
      (abft ? pre_abft : pre_fa2).push_back(time_us([&] {
        (void)model.prefill_paged(prompt,
                                  abft ? AttentionBackend::kFlashAbft
                                       : AttentionBackend::kFlashAttention2,
                                  exec, pool, kv);
      }));
      pool.free_session(kv);
    }
  }
  double cached_ms = 0.0;
  if (shapes.cached_len >= 1 && shapes.cached_prompt_len > shapes.cached_len) {
    KvPoolConfig pcfg = model.make_pool_config(page, 0, 2);
    pcfg.prefix_cache = true;
    KvPagePool pool(pcfg);
    const std::vector<std::size_t> stem =
        random_tokens(rng, shapes.cached_prompt_len, mcfg.vocab_size);
    PagedKv owner = pool.make_session(1);
    (void)model.prefill_paged(stem, AttentionBackend::kFlashAbft, exec, pool,
                              owner);
    pool.publish_prefix(owner, stem);
    std::vector<double> t;
    for (std::size_t i = 0; i < kReps / 3; ++i) {
      std::vector<std::size_t> prompt(stem.begin(),
                                      stem.begin() + shapes.cached_len);
      const std::vector<std::size_t> suffix = random_tokens(
          rng, shapes.cached_prompt_len - shapes.cached_len, mcfg.vocab_size);
      prompt.insert(prompt.end(), suffix.begin(), suffix.end());
      PagedKv kv = pool.make_session(2 + i);
      const std::size_t cached = pool.acquire_prefix(kv, prompt);
      if (cached >= 1) {
        t.push_back(time_us([&] {
          (void)model.prefill_paged_cached(prompt, cached,
                                           AttentionBackend::kFlashAbft, exec,
                                           pool, kv);
        }));
      }
      pool.free_session(kv);
    }
    cached_ms = median(t) / 1000.0;
  }

  // --- metrics ---
  const double Bd = double(B);
  const double abft_delta = abft_step - fa2_step;
  const double checksum_delta = fused_us - plain_us;
  // Protection switched on layer by layer, each as its measured cost per
  // tick: page verify, meta seals, the attention checksum, fused checksum
  // generation of the products, DMR glue and the scrubber.
  const double protection = double(L) * kv_verify + Bd * meta_verify +
                            abft_delta + checksum_delta + dmr_delta + scrub;
  auto share = [&](const char* part) { return part_med[part] / decode; };

  metric("serve.tick_ms_p50", tick / 1000.0, "ms");
  metric("serve.tick_ms_tail", summarize(tick_on).tail / 1000.0, "ms");
  metric("serve.self_share", self[0] / tick, "ratio");
  metric("scrub.tick_share", scrub / tick, "ratio");
  metric("core.kv_verify_us", kv_verify / Bd, "us");
  metric("core.kv_append_us", part_med["core.kv_append"] / double(L) / Bd,
         "us");
  metric("core.meta_verify_us", meta_verify, "us");
  metric("core.weight_verify_us", weight_verify, "us");
  metric("model.decode_batch_ms", decode / 1000.0, "ms");
  metric("model.layer_decode_batch_ms", layer_batch / 1000.0, "ms");
  metric("model.prefill_us_per_token", median(pre_abft) / double(prefill_len), "us");
  metric("model.prefill_cached_ms", cached_ms, "ms");
  metric("model.embed_share", share("model.embed"), "ratio");
  metric("model.layernorm_share",
         share("model.layernorm") + share("model.final_norm"), "ratio");
  metric("model.proj_share", share("model.proj"), "ratio");
  metric("model.attention_share", share("model.attention"), "ratio");
  metric("model.kv_share", share("core.kv_verify") + share("core.kv_append"),
         "ratio");
  metric("model.ffn_share", share("model.ffn"), "ratio");
  metric("model.gelu_share", share("model.gelu"), "ratio");
  metric("model.lm_head_share", share("model.lm_head"), "ratio");
  metric("model.unattributed_share", self[2] / decode, "ratio");
  metric("model.glue_dmr_share", dmr_delta / decode, "ratio");
  metric("model.attn_abft_overhead_pct", 100.0 * abft_delta / fa2_step, "%");
  metric("model.attn_abft_prefill_overhead_pct",
         100.0 * (median(pre_abft) - median(pre_fa2)) / median(pre_fa2), "%");
  metric("model.two_step_vs_flash_pct",
         100.0 * (two_step - abft_step) / abft_step, "%");
  metric("tensor.matmul_fused_gflops", flops / fused_us / 1000.0, "GFLOP/s");
  metric("tensor.matmul_fused_gbytes_per_s", bytes / fused_us / 1000.0, "GB/s");
  metric("tensor.checksum_gen_pct", 100.0 * checksum_delta / plain_us, "%");
  metric("protection.tick_share", protection / tick, "ratio");
  return result;
}

}  // namespace servebench
