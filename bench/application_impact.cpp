// The paper's stated future work (§IV-B): "If the injected faults are
// actually critical for the overall performance of the LLM application is
// not quantified and is part of future work."
//
// This bench takes a first quantitative step: perturb one attention head's
// output by the deviation magnitudes fault campaigns actually produce, and
// propagate through the rest of the encoder layer (output projection,
// residual, LayerNorm, FFN) and a second layer. Two questions:
//   1. does the surrounding network attenuate or amplify the corruption?
//   2. how does the checker's detectability boundary (tau) line up with the
//      magnitudes that matter downstream?
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "model/encoder_layer.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/model_presets.hpp"

namespace {

using namespace flashabft;

/// Runs the two-layer stack on `x` where layer 1's input embedding has one
/// element perturbed by `delta` (modeling a corrupted head-output element
/// that survived into the residual stream).
MatrixD run_stack(const EncoderLayer& l1, const EncoderLayer& l2,
                  const MatrixD& x, const GuardedExecutor& executor,
                  double delta, std::size_t row, std::size_t col) {
  MatrixD perturbed = x;
  perturbed(row, col) += delta;
  const MatrixD h1 =
      l1.forward(perturbed, AttentionBackend::kFlashAttention2, executor)
          .output;
  return l2.forward(h1, AttentionBackend::kFlashAttention2, executor).output;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::size_t seq_len = std::size_t(args.get_int("seq-len", 48));
  if (!all_flags_known(args)) return 2;

  const ModelPreset& bert = preset_by_name("bert");
  EncoderLayerConfig lcfg;
  lcfg.model_dim = bert.num_heads * bert.head_dim;  // 768
  lcfg.num_heads = bert.num_heads;
  lcfg.head_dim = bert.head_dim;
  lcfg.ffn_dim = 4 * lcfg.model_dim;

  Rng rng(8093);
  const EncoderLayer layer1(lcfg, rng);
  const EncoderLayer layer2(lcfg, rng);
  MatrixD x(seq_len, lcfg.model_dim);
  fill_gaussian(x, rng);

  const GuardedExecutor executor(CheckerConfig{1e-6}, RecoveryPolicy{});
  const MatrixD clean = run_stack(layer1, layer2, x, executor, 0.0, 0, 0);
  const double clean_scale = max_abs(clean);

  std::cout << "== Application-level impact of attention corruption "
               "(paper SIV-B future work) ==\n"
            << "BERT-base-shaped stack: 2 encoder layers, " << lcfg.num_heads
            << " heads x d=" << lcfg.head_dim << ", seq_len " << seq_len
            << "\nclean output scale (max |elem|): "
            << format_number(clean_scale, 3) << "\n\n";

  Table table({"injected deviation", "vs checker tau (~1e-6..1e-5)",
               "layer-2 output max dev", "relative to output scale"});
  table.set_title(
      "Downstream deviation after 2 layers (one corrupted element)");
  for (const double delta : {1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0,
                             10.0}) {
    const MatrixD out =
        run_stack(layer1, layer2, x, executor, delta, seq_len / 2, 17);
    const double dev = max_abs_diff(out, clean);
    const char* vs_tau = delta < 1e-6  ? "below (masked band)"
                         : delta < 1e-4 ? "near threshold"
                                        : "well above (detected)";
    table.add_row({format_number(delta, 1), vs_tau, format_number(dev, 3),
                   format_percent(dev / clean_scale)});
  }
  std::cout << table.render() << '\n';

  std::cout
      << "Reading guide: LayerNorm renormalizes each token, so small\n"
      << "corruptions stay small downstream (sub-threshold faults are also\n"
      << "sub-critical for the application) while large ones persist at\n"
      << "O(1) relative magnitude across layers rather than exploding —\n"
      << "consistent with the checker's calibrated threshold sitting well\n"
      << "below the application-critical scale. A full answer (task-metric\n"
      << "degradation on real benchmarks) still needs trained weights; this\n"
      << "harness is the plumbing for it (see workload/trace_io.hpp).\n";
  return 0;
}
