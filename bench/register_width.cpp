// Ablation (DESIGN.md §4c/§5): output-accumulator register width.
//
// The detection threshold must sit above the fault-free residual, and the
// residual is set by the *output* register's rounding: narrow registers
// accumulate visibly noisy sums (large tau -> corruptions hide below it),
// wide registers make every flip of their many low-order mantissa bits
// sub-threshold (masked). This bench sweeps the o-register format and shows
// the calibrated tau, the outcome rates, and the masked fraction — the
// quantitative form of why the paper pairs a bf16 datapath with
// double-precision checksum accumulators and lands at tau ~ 1e-6.
#include <iostream>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

namespace {

using namespace flashabft;

void out_bf16(AccelConfig& cfg) {
  cfg.output_format = NumberFormat::kBf16;
  cfg.ell_format = NumberFormat::kFp32;
}
void out_fp16(AccelConfig& cfg) { cfg.output_format = NumberFormat::kFp16; }
void out_fp32(AccelConfig& cfg) { cfg.output_format = NumberFormat::kFp32; }
void out_fp64(AccelConfig& cfg) { cfg.output_format = NumberFormat::kFp64; }

}  // namespace

int main(int argc, char** argv) {
  using namespace flashabft::bench;

  const CliArgs args(argc, argv);
  const std::size_t campaigns = std::size_t(
      args.get_int("campaigns", std::int64_t(campaigns_from_env_or(2500))));
  const std::size_t seq_len = std::size_t(args.get_int("seq-len", 256));
  const std::string model = args.get_string("model", "llama-3.1");
  const std::uint64_t seed = std::uint64_t(args.get_int("seed", 271828));
  if (!all_flags_known(args)) return 2;

  const ModelPreset& preset = preset_by_name(model);
  std::cout << "== Register-width ablation (output accumulators): " << model
            << ", d=" << preset.head_dim << ", N=" << seq_len << " ==\n\n";

  struct Case {
    const char* name;
    void (*mutate)(AccelConfig&);
  };
  const Case cases[] = {
      {"o in bf16 (7-bit mantissa)", out_bf16},
      {"o in fp16 (10-bit mantissa)", out_fp16},
      {"o in fp32 (default)", out_fp32},
      {"o in fp64", out_fp64},
  };

  Table table({"output register", "calibrated tau", "Detected", "Silent",
               "False Positive", "masked draws"});
  table.set_title("Outcome rates vs output-accumulator width");
  for (const Case& c : cases) {
    const TableOneSetup setup =
        make_table1_setup(preset, seq_len, 16, seed, c.mutate);
    CampaignRunner runner(setup.config, setup.workload);
    CampaignConfig cc;
    cc.num_campaigns = campaigns;
    cc.seed = seed;
    cc.max_resample_attempts = 64;
    const CampaignStats stats = runner.run(cc);
    table.add_row({c.name, format_number(setup.config.detect_threshold, 2),
                   format_rate_ci(stats.detected_rate()),
                   format_rate_ci(stats.silent_rate()),
                   format_rate_ci(stats.false_positive_rate()),
                   format_percent(stats.masked_fraction())});
  }
  std::cout << table.render() << '\n'
            << "Reading guide: narrow registers raise the fault-free\n"
               "residual and hence tau (corruptions must be big to clear\n"
               "it); wide registers add low-order bits whose flips fall\n"
               "below any usable tau (masked). fp32 is the sweet spot this\n"
               "architecture operates at.\n";
  return 0;
}
