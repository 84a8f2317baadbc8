// Token-parity oracle: one teacher-forced TransformerModel::forward_full
// pass over prompt + generated tokens. Greedy decode is deterministic, so
// every generated token must equal the argmax of the oracle's logits at the
// position before it. Runs outside the timed window.
#pragma once

#include <cstddef>
#include <vector>

#include "core/guarded_op.hpp"
#include "model/transformer_model.hpp"

namespace servebench {

/// True iff `tokens` is exactly the greedy continuation of `prompt` under
/// `model` (and is non-empty).
[[nodiscard]] bool matches_oracle(const flashabft::TransformerModel& model,
                                  const flashabft::GuardedExecutor& executor,
                                  const std::vector<std::size_t>& prompt,
                                  const std::vector<std::size_t>& tokens);

struct OracleCase {
  const std::vector<std::size_t>* prompt = nullptr;
  const std::vector<std::size_t>* tokens = nullptr;
};

/// matches_oracle over every case, spread over `threads` threads (one
/// executor each). Result i belongs to case i.
[[nodiscard]] std::vector<bool> check_oracle(
    const flashabft::TransformerModel& model,
    const flashabft::GuardedExecutor::Options& options,
    const std::vector<OracleCase>& cases, std::size_t threads);

}  // namespace servebench
