#include "oracle.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "numerics/dtype.hpp"

namespace servebench {

bool matches_oracle(const flashabft::TransformerModel& model,
                    const flashabft::GuardedExecutor& executor,
                    const std::vector<std::size_t>& prompt,
                    const std::vector<std::size_t>& tokens) {
  if (prompt.empty() || tokens.empty()) return false;
  // Position prompt.size()-1+i predicts tokens[i]; the last generated token
  // is never fed back.
  std::vector<std::size_t> input = prompt;
  input.insert(input.end(), tokens.begin(), tokens.end() - 1);
  const auto [logits, report] = model.forward_full(
      input, flashabft::AttentionBackend::kFlashAbft, executor);
  (void)report;
  const std::size_t vocab = logits.cols();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::size_t row = prompt.size() - 1 + i;
    std::vector<double> scores(vocab);
    for (std::size_t v = 0; v < vocab; ++v) scores[v] = logits(row, v);
    // Served logits are stored at the model's dtype before the argmax.
    flashabft::dtype_round_span(scores, model.config().dtype);
    if (flashabft::TransformerModel::argmax(scores) != tokens[i]) {
      return false;
    }
  }
  return true;
}

std::vector<bool> check_oracle(
    const flashabft::TransformerModel& model,
    const flashabft::GuardedExecutor::Options& options,
    const std::vector<OracleCase>& cases, std::size_t threads) {
  std::vector<char> ok(cases.size(), 0);
  const std::size_t n = std::max<std::size_t>(1, threads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      const flashabft::GuardedExecutor executor(options);
      for (std::size_t i = t; i < cases.size(); i += n) {
        try {
          ok[i] = matches_oracle(model, executor, *cases[i].prompt,
                                 *cases[i].tokens);
        } catch (const std::exception&) {
          ok[i] = 0;  // an oracle that cannot run is a failed check.
        }
      }
    });
  }
  for (std::thread& thread : pool) thread.join();
  return {ok.begin(), ok.end()};
}

}  // namespace servebench
