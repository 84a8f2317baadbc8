// Reproduces paper Fig. 4: "area and average power consumption of the
// FlashAttention-2 accelerator extended with the proposed online
// error-detection logic at 28 nm, when computing attention for 16 and 32
// query vectors in parallel, with hidden dimension d = 128", with the
// checker's contribution itemized.
//
// Paper headline: average area overhead 4.55%, average power overhead 1.53%
// (abstract: 5.3% area, <1.9% energy). Switching activity comes from the
// synthetic PromptBench-like suite over the LLM presets, mirroring SIV-A.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"
#include "hwmodel/accelerator_cost.hpp"
#include "hwmodel/power.hpp"
#include "workload/promptbench.hpp"

namespace {

using namespace flashabft;

/// Aggregates prompt-suite switching activity for one configuration.
ActivityCounters suite_activity(const AccelConfig& cfg, std::uint64_t seed) {
  const Accelerator accel(cfg);
  ActivityCounters total;
  for (const ModelPreset& preset : paper_models()) {
    if (preset.head_dim != cfg.head_dim) continue;
    for (const AttentionInputs& w : generate_prompt_suite(preset, seed)) {
      total += accel.run(w.q, w.k, w.v).activity;
    }
  }
  // d = 128 matches only llama-3.1; widen with generic suites from the other
  // presets reshaped to d if none matched (keeps the bench robust to
  // non-paper head dims).
  if (total.cycles == 0) {
    ModelPreset generic = paper_models()[2];
    generic.head_dim = cfg.head_dim;
    for (const AttentionInputs& w : generate_prompt_suite(generic, seed)) {
      total += accel.run(w.q, w.k, w.v).activity;
    }
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::size_t d = std::size_t(args.get_int("head-dim", 128));
  const std::uint64_t seed = std::uint64_t(args.get_int("seed", 404));
  if (!all_flags_known(args)) return 2;

  std::cout << "== Fig. 4: hardware area & power with online fault "
               "detection (28nm, 500 MHz, d=" << d << ") ==\n"
            << "design: shared-weight checker of Eq. 10 (the paper's "
               "merged datapath, Fig. 3)\n\n";

  Table table({"lanes", "total area (mm^2)", "checker area (mm^2)",
               "area overhead", "total power (mW)", "checker power (mW)",
               "power overhead"});
  table.set_title("Fig. 4 reproduction");

  double area_sum = 0.0, power_sum = 0.0;
  for (const std::size_t lanes : {std::size_t(16), std::size_t(32)}) {
    AccelConfig cfg;
    cfg.lanes = lanes;
    cfg.head_dim = d;
    cfg.scale = 1.0 / std::sqrt(double(d));
    cfg.weight_source = WeightSource::kSharedDatapath;

    const CostBreakdown bom = accelerator_cost(cfg);
    const ActivityCounters activity = suite_activity(cfg, seed);
    const PowerEstimate power = estimate_power(cfg, bom, activity);

    area_sum += bom.checker_area_share();
    power_sum += power.checker_power_share();

    table.add_row(
        {std::to_string(lanes),
         format_number(bom.total_area_um2() * 1e-6, 3),
         format_number(bom.checker_area_um2() * 1e-6, 4),
         format_percent(bom.checker_area_share()),
         format_number(power.total_mw(), 1),
         format_number(power.checker_mw(), 2),
         format_percent(power.checker_power_share())});
  }
  std::cout << table.render() << '\n';

  std::cout << "average area overhead:  " << format_percent(area_sum / 2.0)
            << "   (paper: 4.55%)\n"
            << "average power overhead: " << format_percent(power_sum / 2.0)
            << "   (paper: 1.53%)\n\n";

  // Itemized bill of materials for the 16-lane design (Fig. 4's left bars).
  AccelConfig cfg16;
  cfg16.lanes = 16;
  cfg16.head_dim = d;
  cfg16.scale = 1.0 / std::sqrt(double(d));
  cfg16.weight_source = WeightSource::kSharedDatapath;
  const CostBreakdown bom = accelerator_cost(cfg16);
  Table items({"component", "side", "instances", "area (um^2)"});
  items.set_title("Bill of materials, 16 lanes");
  for (const CostItem& it : bom.items) {
    items.add_row({it.name, it.checker ? "checker" : "datapath",
                   format_number(it.count, 0),
                   format_number(it.area_um2(), 0)});
  }
  std::cout << items.render();
  return 0;
}
