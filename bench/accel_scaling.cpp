// Architecture-scaling study (context for paper Fig. 2): cycles, modeled
// throughput, and area of the accelerator across lane counts and head
// dimensions, with the checker share tracked at every point. Shows the
// trend §IV-A narrates: checker area share falls as d grows (the Σ tree is
// shared; per-lane checker state is constant while q/o registers scale).
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "hwmodel/accelerator_cost.hpp"
#include "sim/accelerator.hpp"
#include "hwmodel/power.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace flashabft;

  const CliArgs args(argc, argv);
  const std::size_t n = std::size_t(args.get_int("seq-len", 256));
  if (!all_flags_known(args)) return 2;

  std::cout << "== Accelerator scaling: cycles, throughput and checker "
               "share ==\n"
            << "sequence length " << n << ", one key/value vector consumed "
               "per cycle (paper SII)\n\n";

  Table table({"lanes", "d", "passes", "cycles", "attn/s @500MHz",
               "area (mm^2)", "checker area share"});
  table.set_title("Scaling across lanes (B) and head dimension (d)");
  for (const std::size_t lanes : {8u, 16u, 32u, 64u}) {
    for (const std::size_t d : {64u, 96u, 128u, 256u}) {
      AccelConfig cfg;
      cfg.lanes = lanes;
      cfg.head_dim = d;
      cfg.scale = 1.0 / std::sqrt(double(d));
      cfg.weight_source = WeightSource::kSharedDatapath;
      const Accelerator accel(cfg);
      const std::size_t passes = accel.num_passes(n);
      const std::size_t cycles = accel.total_cycles(n, n);
      const double attn_per_s = 0.5e9 / double(cycles);
      const CostBreakdown bom = accelerator_cost(cfg);
      table.add_row({std::to_string(lanes), std::to_string(d),
                     std::to_string(passes), std::to_string(cycles),
                     format_number(attn_per_s, 1),
                     format_number(bom.total_area_um2() * 1e-6, 3),
                     format_percent(bom.checker_area_share())});
    }
  }
  std::cout << table.render() << '\n'
            << "Reading guide: doubling lanes halves cycles at ~2x area (the\n"
               "throughput/area trade of Fig. 2's block parallelism); the\n"
               "checker share falls with d because its per-lane state is\n"
               "constant while q/o register files grow linearly.\n";
  return 0;
}
