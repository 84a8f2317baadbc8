// accelerator_explorer: drive the cycle-level FlashAttention-2 accelerator
// model (paper Fig. 2/3) directly — run a workload, inspect the machine's
// geometry, inject a chosen register fault, and read the hardware cost
// model's verdict on the configuration.
//
// Build & run:  ./build/examples/accelerator_explorer
//               [--lanes B] [--head-dim d] [--seq-len N]
//               [--fault-site query|output|max|sum_exp|check_acc]
//               [--fault-lane L] [--fault-bit b] [--fault-cycle c]
#include <cmath>
#include <iostream>
#include <string>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "fault/calibrate.hpp"
#include "hwmodel/accelerator_cost.hpp"
#include "hwmodel/power.hpp"
#include "tensor/tensor_ops.hpp"
#include "workload/generator.hpp"

namespace {

flashabft::SiteKind site_from_name(const std::string& name) {
  using flashabft::SiteKind;
  if (name == "query") return SiteKind::kQuery;
  if (name == "output") return SiteKind::kOutput;
  if (name == "max") return SiteKind::kMax;
  if (name == "sum_exp") return SiteKind::kSumExp;
  if (name == "check_acc") return SiteKind::kCheckAcc;
  throw flashabft::EnsureError("unknown --fault-site '" + name + "'");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace flashabft;

  const CliArgs args(argc, argv);
  const std::size_t lanes = std::size_t(args.get_int("lanes", 16));
  const std::size_t d = std::size_t(args.get_int("head-dim", 128));
  const std::size_t n = std::size_t(args.get_int("seq-len", 256));
  // The fault to inject (defaults: output register, exponent bit).
  InjectedFault fault;
  fault.site.kind = site_from_name(args.get_string("fault-site", "output"));
  fault.site.lane = std::size_t(args.get_int("fault-lane", 3));
  fault.site.element = std::size_t(args.get_int("fault-element", 5));
  fault.bit = int(args.get_int("fault-bit", 28));
  fault.cycle = std::size_t(args.get_int("fault-cycle", 1000));
  if (!all_flags_known(args)) return 2;

  AccelConfig cfg;
  cfg.lanes = lanes;
  cfg.head_dim = d;
  cfg.scale = 1.0 / std::sqrt(double(d));

  // Calibrate thresholds on independent workloads, as a deployment would.
  const ModelPreset preset{"custom", d, 1, d, 1.0, 1.0, 0.8, 0.3};
  const auto calib = generate_calibration_set(preset, n, 3, 9001);
  cfg = with_calibrated_thresholds(cfg, calib, 10.0);
  const Accelerator accel(cfg);

  std::cout << "== accelerator geometry ==\n"
            << "lanes (parallel queries): " << lanes << "\n"
            << "head dimension d:         " << d << "\n"
            << "passes for N=" << n << ":        " << accel.num_passes(n)
            << "\n"
            << "streaming cycles:         " << accel.total_cycles(n, n)
            << "\n"
            << "calibrated per-query tau: "
            << format_number(cfg.detect_threshold, 3) << "\n\n";

  // Fault surface.
  const SiteMap sites(cfg, SiteMask{});
  std::cout << "fault surface: " << sites.total_bits() << " register bits, "
            << format_percent(double(sites.checker_bits()) /
                              double(sites.total_bits()))
            << " in the checker (the false-positive share of Table I)\n\n";

  // Run a workload.
  Rng rng(7);
  const AttentionInputs w = generate_llm_like(preset, n, rng);
  const AccelRunResult golden = accel.run(w.q, w.k, w.v);
  std::cout << "fault-free run: global pred "
            << format_number(golden.global_pred, 6) << " vs actual "
            << format_number(golden.global_actual, 6) << ", alarm="
            << (golden.alarm(cfg.compare_granularity) ? "YES" : "no")
            << "\n\n";

  // Inject the requested fault.
  const AccelRunResult faulty =
      accel.replay_with_faults(w.q, w.k, w.v, golden, {fault});
  const double deviation = max_abs_diff(faulty.output, golden.output);
  std::cout << "== injected fault ==\n"
            << "site " << site_kind_name(fault.site.kind) << "[lane "
            << fault.site.lane << ", elem " << fault.site.element
            << "], bit " << fault.bit << ", cycle " << fault.cycle << "\n"
            << "max output deviation: " << format_number(deviation, 3) << "\n"
            << "alarm: "
            << (faulty.alarm(cfg.compare_granularity) ? "YES — detected"
                                                      : "no")
            << "\n\n";

  // Hardware cost of this configuration.
  const CostBreakdown bom = accelerator_cost(cfg);
  const PowerEstimate power = estimate_power(cfg, bom, golden.activity);
  std::cout << "== hardware cost (28nm model) ==\n"
            << "total area:  " << format_number(bom.total_area_um2() * 1e-6, 3)
            << " mm^2  (checker "
            << format_percent(bom.checker_area_share()) << ")\n"
            << "avg power:   " << format_number(power.total_mw(), 1)
            << " mW    (checker "
            << format_percent(power.checker_power_share()) << ")\n";
  return 0;
}
