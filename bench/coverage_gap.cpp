// Ablation (DESIGN.md §4a): the structural coverage gap of the merged
// checksum hardware.
//
// The fused checksum lane of Eq. (9)/(10) shares the datapath's softmax
// weights e^{s-m}. Any fault that corrupts the *score path* — a q-register
// flip, a score-pipeline flip, or an m/l upset — perturbs prediction and
// output identically, so the check stays balanced while the output is wrong.
// This bench quantifies that blind spot by running identical campaigns
// against the two checker designs and per fault-site population.
#include <iostream>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

namespace {

using namespace flashabft;
using namespace flashabft::bench;

void use_shared(AccelConfig& cfg) {
  cfg.weight_source = WeightSource::kSharedDatapath;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::size_t campaigns = std::size_t(
      args.get_int("campaigns", std::int64_t(campaigns_from_env_or(3000))));
  const std::size_t seq_len = std::size_t(args.get_int("seq-len", 256));
  const std::string model = args.get_string("model", "bert");
  const std::uint64_t seed = std::uint64_t(args.get_int("seed", 4242));
  if (!all_flags_known(args)) return 2;

  const ModelPreset& preset = preset_by_name(model);
  std::cout << "== Coverage-gap ablation: shared (Eq. 10) vs independent "
               "checker weights ==\n"
            << model << ", d=" << preset.head_dim << ", N=" << seq_len
            << ", " << campaigns << " campaigns per cell\n\n";

  struct DesignCase {
    const char* name;
    void (*mutate)(AccelConfig&);
  };
  const DesignCase designs[] = {
      {"shared weights (merged hw, ~5% area)", use_shared},
      {"independent weights (dup. score path)", nullptr},
  };
  struct SiteCase {
    const char* name;
    SiteMask mask;
  };
  SiteMask score_only;
  score_only = SiteMask::datapath_only();
  score_only.query = false;
  score_only.output = false;
  score_only.max = false;
  score_only.sum_exp = false;
  score_only.score = true;
  SiteMask q_only = SiteMask::datapath_only();
  q_only.output = false;
  q_only.max = false;
  q_only.sum_exp = false;
  SiteMask ml_only = SiteMask::datapath_only();
  ml_only.query = false;
  ml_only.output = false;
  SiteMask o_only = SiteMask::datapath_only();
  o_only.query = false;
  o_only.max = false;
  o_only.sum_exp = false;
  const SiteCase sites[] = {
      {"all paper sites (q,o,m,l,checker)", SiteMask{}},
      {"query registers only", q_only},
      {"score pipeline only", score_only},
      {"m and l registers only", ml_only},
      {"output registers only", o_only},
  };

  Table table({"checker design", "fault sites", "Detected", "Silent",
               "False Positive"});
  table.set_title("Detection vs site population and checker design");
  for (const DesignCase& design : designs) {
    const TableOneSetup setup =
        make_table1_setup(preset, seq_len, 16, seed, design.mutate);
    CampaignRunner runner(setup.config, setup.workload);
    for (const SiteCase& site : sites) {
      CampaignConfig cc;
      cc.num_campaigns = campaigns;
      cc.site_mask = site.mask;
      cc.seed = seed;
      // Narrow site populations are mostly masked under some designs;
      // bound the resampling effort and let 'exhausted' absorb the rest.
      cc.max_resample_attempts = 32;
      const CampaignStats stats = runner.run(cc);
      table.add_row({design.name, site.name,
                     format_rate_ci(stats.detected_rate()),
                     format_rate_ci(stats.silent_rate()),
                     format_rate_ci(stats.false_positive_rate())});
    }
  }
  std::cout << table.render() << '\n'
            << "Reading guide: under shared weights, q/score/m/l faults are\n"
               "structurally silent (the check verifies the softmax-weighted\n"
               "S*V consistency, not the score computation); the independent\n"
               "checker closes the gap at the hardware cost quantified in\n"
               "bench/checker_design.\n";
  return 0;
}
