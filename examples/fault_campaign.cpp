// fault_campaign: a configurable fault-injection campaign driver — the
// user-facing version of the Table I machinery. Pick a model, a site
// population, a fault multiplicity and a campaign count; get the outcome
// distribution with confidence intervals and a per-site breakdown.
//
// Build & run:  ./build/examples/fault_campaign
//               [--model bert|phi-3-mini|llama-3.1|gemma2]
//               [--campaigns N] [--faults K] [--seq-len N] [--lanes B]
//               [--sites all|paper|datapath|checker] [--seed S]
//               [--type flip|stuck0|stuck1] [--duration CYCLES]
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "fault/calibrate.hpp"
#include "fault/campaign.hpp"
#include "workload/generator.hpp"

int main(int argc, char** argv) {
  using namespace flashabft;

  const CliArgs args(argc, argv);
  const std::string model = args.get_string("model", "llama-3.1");
  const std::size_t campaigns = std::size_t(args.get_int("campaigns", 2000));
  const std::size_t faults = std::size_t(args.get_int("faults", 1));
  const std::size_t seq_len = std::size_t(args.get_int("seq-len", 256));
  const std::size_t lanes = std::size_t(args.get_int("lanes", 16));
  const std::string sites_name = args.get_string("sites", "paper");
  const std::string type_name = args.get_string("type", "flip");
  const std::size_t duration = std::size_t(args.get_int("duration", 1));
  const std::uint64_t seed = std::uint64_t(args.get_int("seed", 123));
  if (!all_flags_known(args)) return 2;

  FaultType fault_type = FaultType::kBitFlip;
  if (type_name == "stuck0") {
    fault_type = FaultType::kStuckAt0;
  } else if (type_name == "stuck1") {
    fault_type = FaultType::kStuckAt1;
  } else if (type_name != "flip") {
    std::cerr << "unknown --type '" << type_name << "'\n";
    return 2;
  }

  SiteMask mask;  // "paper": q/o/m/l + checker
  if (sites_name == "all") {
    mask = SiteMask::all();
  } else if (sites_name == "datapath") {
    mask = SiteMask::datapath_only();
  } else if (sites_name == "checker") {
    mask = SiteMask::checker_only();
  } else if (sites_name != "paper") {
    std::cerr << "unknown --sites '" << sites_name << "'\n";
    return 2;
  }

  const ModelPreset& preset = preset_by_name(model);
  AccelConfig cfg;
  cfg.lanes = lanes;
  cfg.head_dim = preset.head_dim;
  cfg.scale = preset.attention_scale();
  const auto calib = generate_calibration_set(preset, seq_len, 4, seed ^ 1);
  cfg = with_calibrated_thresholds(cfg, calib, 10.0);

  std::cout << "model " << model << " (d=" << preset.head_dim << "), N="
            << seq_len << ", " << lanes << " lanes, " << faults
            << " fault(s)/campaign, sites=" << sites_name << "\n"
            << "calibrated tau: " << format_number(cfg.detect_threshold, 3)
            << "\n\n";

  Rng rng(seed);
  CampaignRunner runner(cfg, generate_llm_like(preset, seq_len, rng));
  CampaignConfig cc;
  cc.num_campaigns = campaigns;
  cc.faults_per_campaign = faults;
  cc.site_mask = mask;
  cc.fault_type = fault_type;
  cc.fault_duration = duration;
  cc.seed = seed;
  const CampaignStats stats = runner.run(cc);

  auto fmt = [](const Proportion& p) {
    return format_percent(p.rate) + " [" + format_percent(p.ci_low, 1) +
           "," + format_percent(p.ci_high, 1) + "]";
  };
  Table summary({"outcome", "rate (95% CI)"});
  summary.set_title("Campaign outcomes (" + std::to_string(campaigns) +
                    " campaigns)");
  summary.add_row({"detected", fmt(stats.detected_rate())});
  summary.add_row({"false positive", fmt(stats.false_positive_rate())});
  summary.add_row({"silent", fmt(stats.silent_rate())});
  summary.add_row({"masked draws (resampled)",
                   format_percent(stats.masked_fraction())});
  std::cout << summary.render() << '\n';

  Table by_site({"site kind", "detected", "false positive", "silent"});
  by_site.set_title("Breakdown by (first) fault site");
  for (std::size_t k = 0; k < CampaignStats::kNumKinds; ++k) {
    const auto& row = stats.by_site[k];
    const std::size_t total =
        row[0] + row[1] + row[2];  // detected/fp/silent slots
    if (total == 0) continue;
    by_site.add_row({site_kind_name(SiteKind(k)), std::to_string(row[0]),
                     std::to_string(row[1]), std::to_string(row[2])});
  }
  std::cout << by_site.render();
  return 0;
}
