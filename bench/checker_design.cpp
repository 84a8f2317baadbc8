// Ablation (DESIGN.md §5): the checker design space.
//
// Three checker designs are compared on identical fault campaigns and on
// hardware cost:
//   1. shared weights            — the paper's merged datapath (Eq. 10);
//   2. shared + replicated l     — one extra accumulator per lane closes the
//                                  shared-divisor blind spot of §4(b);
//   3. independent weights       — a duplicated score pipeline closes the
//                                  q/score gap as well.
// Additionally the comparison granularity (per-query vs single global
// checksum) is ablated: the global aggregate has a noise floor ~sqrt(N*d)
// larger, which directly inflates the calibrated threshold and the silent
// rate.
#include <iostream>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "hwmodel/accelerator_cost.hpp"

namespace {

using namespace flashabft;
using namespace flashabft::bench;

void design_shared(AccelConfig& cfg) {
  cfg.weight_source = WeightSource::kSharedDatapath;
}
void design_replicated(AccelConfig& cfg) {
  cfg.weight_source = WeightSource::kSharedDatapath;
  cfg.replicate_ell = true;
}
void design_independent(AccelConfig& cfg) {
  cfg.weight_source = WeightSource::kIndependentStream;
}
void granularity_global(AccelConfig& cfg) {
  cfg.weight_source = WeightSource::kIndependentStream;
  cfg.compare_granularity = CompareGranularity::kGlobal;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::size_t campaigns = std::size_t(
      args.get_int("campaigns", std::int64_t(campaigns_from_env_or(3000))));
  const std::size_t seq_len = std::size_t(args.get_int("seq-len", 256));
  const std::string model = args.get_string("model", "llama-3.1");
  const std::uint64_t seed = std::uint64_t(args.get_int("seed", 31415));
  if (!all_flags_known(args)) return 2;

  const ModelPreset& preset = preset_by_name(model);
  std::cout << "== Checker design-space ablation: " << model << ", d="
            << preset.head_dim << ", N=" << seq_len << ", " << campaigns
            << " campaigns per design ==\n\n";

  struct DesignCase {
    const char* name;
    void (*mutate)(AccelConfig&);
  };
  const DesignCase designs[] = {
      {"shared weights (paper Eq. 10)", design_shared},
      {"shared + replicated l", design_replicated},
      {"independent weights", design_independent},
      {"independent, global compare", granularity_global},
  };

  Table table({"design", "calibrated tau", "area overhead", "Detected",
               "Silent", "False Positive"});
  table.set_title("Detection and hardware cost per checker design");
  for (const DesignCase& design : designs) {
    const TableOneSetup setup =
        make_table1_setup(preset, seq_len, 16, seed, design.mutate);
    const CostBreakdown bom = accelerator_cost(setup.config);
    CampaignRunner runner(setup.config, setup.workload);
    CampaignConfig cc;
    cc.num_campaigns = campaigns;
    cc.seed = seed;
    cc.max_resample_attempts = 64;
    const CampaignStats stats = runner.run(cc);
    const bool global =
        setup.config.compare_granularity == CompareGranularity::kGlobal;
    table.add_row({design.name,
                   format_number(global ? setup.config.detect_threshold_global
                                        : setup.config.detect_threshold,
                                 2),
                   format_percent(bom.checker_area_share()),
                   format_rate_ci(stats.detected_rate()),
                   format_rate_ci(stats.silent_rate()),
                   format_rate_ci(stats.false_positive_rate())});
  }
  std::cout << table.render() << '\n'
            << "Trade-off summary: each step up the design ladder converts\n"
               "silent outcomes into detected ones and costs hardware — one\n"
               "extra accumulator per lane for replicated l, a duplicated\n"
               "score pipeline for independent weights. The global-compare\n"
               "variant shows the noise-floor penalty of aggregating one\n"
               "checksum across all N*d outputs.\n";
  return 0;
}
