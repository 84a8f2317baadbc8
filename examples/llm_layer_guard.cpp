// llm_layer_guard: run a full BERT-style encoder layer (paper Fig. 1) with
// Flash-ABFT protecting every attention head, then demonstrate what a
// corrupted head looks like to the per-head checkers.
//
// This is the deployment story of the paper: one checker per attention
// accelerator (= per head), verdicts collected by the layer.
//
// Build & run:  ./build/examples/llm_layer_guard [--seq-len N]
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "model/encoder_layer.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/model_presets.hpp"

int main(int argc, char** argv) {
  using namespace flashabft;

  const CliArgs args(argc, argv);
  const std::size_t seq_len = std::size_t(args.get_int("seq-len", 64));
  if (!all_flags_known(args)) return 2;

  // A BERT-base-shaped encoder layer: 12 heads x 64 = 768.
  const ModelPreset& bert = preset_by_name("bert");
  EncoderLayerConfig lcfg;
  lcfg.model_dim = bert.num_heads * bert.head_dim;
  lcfg.num_heads = bert.num_heads;
  lcfg.head_dim = bert.head_dim;
  lcfg.ffn_dim = 4 * lcfg.model_dim;

  Rng rng(2024);
  const EncoderLayer layer(lcfg, rng);

  // Token embeddings entering the layer (post-embedding-norm statistics).
  MatrixD x(seq_len, lcfg.model_dim);
  fill_gaussian(x, rng);

  std::cout << "encoder layer: " << lcfg.num_heads << " heads x d="
            << lcfg.head_dim << ", ffn " << lcfg.ffn_dim << ", seq_len "
            << seq_len << "\n\n";

  const GuardedExecutor executor(CheckerConfig{1e-6}, RecoveryPolicy{});
  const EncoderLayerResult result =
      layer.forward(x, AttentionBackend::kFlashAbft, executor);

  Table table({"op", "index", "predicted checksum", "actual checksum",
               "residual", "verdict"});
  table.set_title("Unified OpReports (fault-free forward)");
  const OpReport* head7 = nullptr;
  for (const OpReport& r : result.report.ops) {
    if (r.kind == OpKind::kAttentionFlashAbft && r.index == 7) head7 = &r;
    table.add_row({op_kind_name(r.kind), std::to_string(r.index),
                   format_number(r.predicted, 4), format_number(r.actual, 4),
                   format_number(r.residual, 2),
                   r.verdict == CheckVerdict::kPass ? "pass" : "ALARM"});
  }
  std::cout << table.render() << '\n';
  std::cout << "layer alarm: " << (result.report.any_alarm() ? "YES" : "no")
            << "  (output " << result.output.rows() << " x "
            << result.output.cols() << ", "
            << result.report.count(OpKind::kAttentionFlashAbft)
            << " attention + "
            << result.report.count(OpKind::kProjection) << " projection + "
            << result.report.count(OpKind::kFfn) << " FFN checks)\n\n";

  // What a corrupted head looks like: shift head 7's actual checksum the
  // way a stuck output accumulator would.
  OpReport faulty = *head7;
  faulty.actual += 4.2e-4;
  std::cout << "injecting 4.2e-4 into head 7's output sum -> verdict: "
            << (executor.checker().compare(faulty.predicted, faulty.actual) ==
                        CheckVerdict::kAlarm
                    ? "ALARM (head isolated for re-execution)"
                    : "pass (?!)")
            << '\n';
  return result.report.any_alarm() ? 1 : 0;
}
