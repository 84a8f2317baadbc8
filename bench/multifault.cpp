// Reproduces the multi-fault paragraph of paper §IV-B: "As the number of
// injected faults per fault-injection campaign increases (1-5 faults are
// randomly injected) the observed results change significantly and the
// possibility of having a false alarm is almost zero on average."
//
// With k independent upsets the probability that *every* flip lands in
// checker state (the only way to get a pure false alarm) decays like the
// checker bit-share to the k-th power, while the probability that at least
// one flip corrupts the datapath rises — so Detected absorbs False Positive.
#include <iostream>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace flashabft;
  using namespace flashabft::bench;

  const CliArgs args(argc, argv);
  const std::size_t campaigns = std::size_t(
      args.get_int("campaigns", std::int64_t(campaigns_from_env_or(4000))));
  const std::size_t seq_len = std::size_t(args.get_int("seq-len", 256));
  const std::string model = args.get_string("model", "llama-3.1");
  const std::uint64_t seed = std::uint64_t(args.get_int("seed", 777));
  if (!all_flags_known(args)) return 2;

  const ModelPreset& preset = preset_by_name(model);
  const TableOneSetup setup = make_table1_setup(preset, seq_len, 16, seed);

  std::cout << "== Multi-fault campaigns (paper SIV-B text): " << model
            << ", d=" << preset.head_dim << ", N=" << seq_len << ", "
            << campaigns << " campaigns per point ==\n\n";

  CampaignRunner runner(setup.config, setup.workload);
  Table table({"faults/campaign", "Detected", "False Positive", "Silent",
               "masked draws"});
  table.set_title("Outcome rates vs number of injected faults");
  for (std::size_t k = 1; k <= 5; ++k) {
    CampaignConfig cc;
    cc.num_campaigns = campaigns;
    cc.faults_per_campaign = k;
    cc.seed = seed + 1000 * k;
    const CampaignStats stats = runner.run(cc);
    table.add_row({std::to_string(k),
                   format_rate_ci(stats.detected_rate()),
                   format_rate_ci(stats.false_positive_rate()),
                   format_rate_ci(stats.silent_rate()),
                   format_percent(stats.masked_fraction())});
  }
  std::cout << table.render() << '\n'
            << "Expected shape: false positives collapse toward zero as the\n"
               "fault count grows (paper: 'almost zero on average'), while\n"
               "detection absorbs the probability mass.\n";
  return 0;
}
