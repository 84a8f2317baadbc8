// trace_replay: run Flash-ABFT fault campaigns on *your* activations.
//
// Dump Q/K/V from a real model into the library's trace format (see
// workload/trace_io.hpp — magic + dims + row-major float64 payloads), then
// point this tool at the file. Without an argument it writes a demo trace
// first, so it always runs standalone.
//
// Build & run:  ./build/examples/trace_replay [trace.bin]
//               [--campaigns N] [--lanes B]
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "fault/calibrate.hpp"
#include "fault/campaign.hpp"
#include "workload/generator.hpp"
#include "workload/trace_io.hpp"

int main(int argc, char** argv) {
  using namespace flashabft;

  const CliArgs args(argc, argv);
  const std::size_t campaigns = std::size_t(args.get_int("campaigns", 1000));
  const std::size_t lanes = std::size_t(args.get_int("lanes", 16));
  if (!all_flags_known(args)) return 2;

  std::string path;
  if (!args.positional().empty()) {
    path = args.positional().front();
  } else {
    // No trace supplied: synthesize one and save it as a format example.
    path = "/tmp/flashabft_demo_trace.bin";
    Rng rng(99);
    save_trace(path,
               generate_llm_like(preset_by_name("llama-3.1"), 128, rng));
    std::cout << "no trace given — wrote a demo trace to " << path << "\n\n";
  }

  const AttentionInputs trace = load_trace(path);
  std::cout << "trace: " << trace.num_queries() << " queries x "
            << trace.seq_len() << " keys, d=" << trace.head_dim() << "\n";

  AccelConfig cfg;
  cfg.lanes = lanes;
  cfg.head_dim = trace.head_dim();
  cfg.scale = 1.0 / std::sqrt(double(trace.head_dim()));
  // Calibrate on perturbed copies of the trace itself (the deployment
  // would calibrate on held-out activations of the same layer).
  std::vector<AttentionInputs> calib;
  Rng crng(7);
  for (int i = 0; i < 3; ++i) {
    AttentionInputs jittered = trace;
    for (double& v : jittered.q.flat()) v *= 1.0 + 0.01 * crng.next_gaussian();
    for (double& v : jittered.k.flat()) v *= 1.0 + 0.01 * crng.next_gaussian();
    calib.push_back(std::move(jittered));
  }
  cfg = with_calibrated_thresholds(cfg, calib, 10.0);
  std::cout << "calibrated tau: " << format_number(cfg.detect_threshold, 3)
            << "\n\n";

  CampaignRunner runner(cfg, trace);
  CampaignConfig cc;
  cc.num_campaigns = campaigns;
  cc.seed = 2026;
  const CampaignStats stats = runner.run(cc);

  Table t({"outcome", "rate"});
  t.set_title("Fault-injection outcomes on the trace (" +
              std::to_string(campaigns) + " campaigns)");
  t.add_row({"detected", format_percent(stats.detected_rate().rate)});
  t.add_row({"false positive",
             format_percent(stats.false_positive_rate().rate)});
  t.add_row({"silent", format_percent(stats.silent_rate().rate)});
  t.add_row({"masked draws", format_percent(stats.masked_fraction())});
  std::cout << t.render();
  return 0;
}
