// Layer replay of the protected decode tick.
//
// The traced run records the shapes the server actually saw (decode batch
// size, decode context lengths, prefill and cached-prefix lengths). The
// replay rebuilds the same model from the server configuration and times
// public entry points at those shapes: a manual-mode
// ContinuousScheduler::run_tick, TransformerModel::decode_step_batch,
// DecoderLayer::forward_decode_paged_batch, prefill_paged(_cached), the
// sealed-metadata and weight verifies, and a decode sweep composed from the
// layers' own entry points (embed_ids, guarded_linear_batch, page verify and
// append, the paged Flash-ABFT kernel, LayerNorm, GELU, the LM-head product)
// with each part timed. The tick, decode_step_batch and the composed sweep
// run interleaved, one step each per iteration. Protection costs are
// differentials that change only public arguments: the attention backend,
// `dmr_glue`, and `SchedulerConfig::scrub`.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_stats.hpp"
#include "serve/server.hpp"

namespace servebench {

/// What the traced run observed.
struct Shapes {
  std::size_t batch = 1;              ///< decode sessions per tick.
  std::vector<std::size_t> contexts;  ///< one decode context per session.
  std::size_t prefill_len = 0;        ///< median prompt length.
  std::size_t cached_len = 0;  ///< median cached prefix of prefix hits (0: none).
  std::size_t cached_prompt_len = 0;  ///< prompt length of those hits.
};

struct ReplayResult {
  /// Per-layer metrics.
  std::vector<Metric> metrics;
  /// The replayed tick as a time tree (median microseconds per tick): the
  /// scrubber's differential and decode_step_batch under the tick, the
  /// composed sweep's named parts under decode_step_batch.
  std::vector<TimeNode> tree;
};

/// Runs the replay at `shapes` against a model built from `server`.
[[nodiscard]] ReplayResult run_replay(const flashabft::serve::ServerConfig& server,
                                      const Shapes& shapes, std::uint64_t seed);

}  // namespace servebench
