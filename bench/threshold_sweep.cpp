// Ablation (paper §IV-B): sensitivity to the detection threshold.
//
// "To prevent silent faults due to rounding ... we consider a fault detected
// if the predicted checksum differs by the true output checksum by more than
// 1e-6. We found this limit out experimentally." This bench sweeps the
// threshold across six decades around the calibrated value and reports all
// outcome rates plus the fault-free false-alarm rate, exposing the operating
// band the paper's sentence summarizes: too tight and rounding noise fires
// constantly; too loose and small corruptions go silent.
#include <iostream>

#include "bench_common.hpp"
#include "common/cli.hpp"
#include "common/table.hpp"

int main(int argc, char** argv) {
  using namespace flashabft;
  using namespace flashabft::bench;

  const CliArgs args(argc, argv);
  const std::size_t campaigns = std::size_t(
      args.get_int("campaigns", std::int64_t(campaigns_from_env_or(2500))));
  const std::size_t seq_len = std::size_t(args.get_int("seq-len", 256));
  const std::string model = args.get_string("model", "llama-3.1");
  const std::uint64_t seed = std::uint64_t(args.get_int("seed", 16180));
  if (!all_flags_known(args)) return 2;

  const ModelPreset& preset = preset_by_name(model);
  const TableOneSetup base = make_table1_setup(preset, seq_len, 16, seed);
  const double tau0 = base.config.detect_threshold;

  std::cout << "== Threshold sweep: " << model << ", d=" << preset.head_dim
            << ", N=" << seq_len << " ==\n"
            << "calibrated per-query tau = " << format_number(tau0, 3)
            << " (worst fault-free residual "
            << format_number(base.calibration.worst_per_query_residual, 3)
            << " x10 margin)\n\n";

  Table table({"tau multiplier", "tau", "fault-free alarm", "Detected",
               "Silent", "False Positive"});
  table.set_title("Outcome rates vs detection threshold");
  for (const double mult : {0.01, 0.1, 1.0, 10.0, 100.0, 1000.0}) {
    AccelConfig cfg = base.config;
    cfg.detect_threshold = tau0 * mult;
    cfg.detect_threshold_global = base.config.detect_threshold_global * mult;

    // Fault-free behaviour: does a clean run alarm at this threshold?
    const Accelerator probe(cfg);
    const AccelRunResult clean =
        probe.run(base.workload.q, base.workload.k, base.workload.v);
    const bool clean_alarm = clean.alarm(cfg.compare_granularity);
    if (clean_alarm) {
      // CampaignRunner refuses miscalibrated configs; report and move on —
      // this *is* the data point (the threshold is unusable).
      table.add_row({format_number(mult, 2),
                     format_number(cfg.detect_threshold, 2), "yes",
                     "n/a (unusable)", "n/a", "n/a"});
      continue;
    }

    CampaignRunner runner(cfg, base.workload);
    CampaignConfig cc;
    cc.num_campaigns = campaigns;
    cc.seed = seed + std::uint64_t(mult * 1000);
    // Judge output corruption at the calibrated scale in every row so the
    // "corrupted" ground truth stays fixed while only the checker moves.
    cc.output_tolerance = tau0;
    const CampaignStats stats = runner.run(cc);
    table.add_row({format_number(mult, 2),
                   format_number(cfg.detect_threshold, 2), "no",
                   format_rate_ci(stats.detected_rate()),
                   format_rate_ci(stats.silent_rate()),
                   format_rate_ci(stats.false_positive_rate())});
  }
  std::cout << table.render() << '\n'
            << "Reading guide: below the calibrated tau the clean run itself\n"
               "alarms (unusable); far above it, sub-threshold corruptions\n"
               "turn Silent. The paper's 1e-6 sits at the bottom of the\n"
               "usable band for its register widths.\n";
  return 0;
}
