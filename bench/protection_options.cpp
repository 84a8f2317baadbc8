// Full-system protection packages (synthesis of the reproduction's
// coverage analysis + the memory model).
//
// The merged Eq. 10 checker is cheap (~4.5% of the compute array) but blind
// to score-path faults; the fault-isolated checker sees everything but
// costs a duplicated score pipeline. A third option pairs the cheap checker
// with code-protected q register files (parity catches the flips the
// checksum can't see) — the deployment DESIGN.md §4a recommends and the
// Table I bench assumes. This bench prices all options end to end,
// including the input SRAM protection the paper assumes ("memory ... is
// protected by a separate error detection logic"), and states the coverage
// each package achieves against the single-flip campaign model.
#include <cmath>
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "hwmodel/accelerator_cost.hpp"
#include "hwmodel/memory.hpp"

int main(int argc, char** argv) {
  using namespace flashabft;

  const CliArgs args(argc, argv);
  const std::size_t d = std::size_t(args.get_int("head-dim", 128));
  const std::size_t lanes = std::size_t(args.get_int("lanes", 16));
  const std::size_t seq_len = std::size_t(args.get_int("seq-len", 256));
  if (!all_flags_known(args)) return 2;

  std::cout << "== Protection packages: " << lanes << " lanes, d=" << d
            << ", N=" << seq_len << " (28nm model) ==\n\n";

  AccelConfig shared;
  shared.lanes = lanes;
  shared.head_dim = d;
  shared.scale = 1.0 / std::sqrt(double(d));
  shared.weight_source = WeightSource::kSharedDatapath;
  AccelConfig shared_repl = shared;
  shared_repl.replicate_ell = true;
  AccelConfig indep = shared;
  indep.weight_source = WeightSource::kIndependentStream;

  const double base_area =
      accelerator_cost(shared).datapath_area_um2();

  struct Option {
    const char* name;
    double checker_area;
    double extra_storage_area;
    const char* covers;
  };

  const double shared_chk = accelerator_cost(shared).checker_area_um2();
  const double repl_chk = accelerator_cost(shared_repl).checker_area_um2();
  const double indep_chk = accelerator_cost(indep).checker_area_um2();

  const InputProtection no_parity =
      input_protection_cost(shared, seq_len, StorageCode::kNone);
  const InputProtection with_parity =
      input_protection_cost(shared, seq_len, StorageCode::kParity);
  const double q_parity_extra =
      with_parity.q_regfile.area_um2 - no_parity.q_regfile.area_um2;

  const Option options[] = {
      {"merged checksum only (paper Fig. 4)", shared_chk, 0.0,
       "S*V accumulation + normalization; blind to q/score/m/l"},
      {"merged + replicated l", repl_chk, 0.0,
       "adds l-register coverage; still blind to q/score/m"},
      {"merged + q-regfile parity (recommended)", shared_chk, q_parity_extra,
       "checksum scope + q flips via parity; score/m residual risk"},
      {"fault-isolated checker (Table I conditions)", indep_chk, 0.0,
       "every datapath register incl. score path"},
      {"dual modular redundancy (reference point)", base_area, 0.0,
       "everything, by full duplication + compare"},
  };

  Table table({"package", "added area (um^2)", "overhead vs datapath",
               "coverage"});
  table.set_title("Error-detection packages for one accelerator");
  for (const Option& opt : options) {
    const double added = opt.checker_area + opt.extra_storage_area;
    table.add_row({opt.name, format_number(added, 0),
                   format_percent(added / base_area), opt.covers});
  }
  std::cout << table.render() << '\n';

  // Input-side protection (the paper's standing assumption, priced).
  Table mem({"input storage", "words", "code", "area (um^2)",
             "code share"});
  mem.set_title("Input memory protection (assumed fault-free in campaigns)");
  const InputProtection prot =
      input_protection_cost(shared, seq_len, StorageCode::kParity);
  mem.add_row({"K/V stream buffers (SECDED)",
               std::to_string(4 * seq_len * d), "secded",
               format_number(prot.kv_buffers.area_um2, 0),
               format_percent(prot.kv_buffers.code_share())});
  mem.add_row({"Q staging buffer (SECDED)", std::to_string(lanes * d),
               "secded", format_number(prot.q_buffer.area_um2, 0),
               format_percent(prot.q_buffer.code_share())});
  mem.add_row({"q register files (parity)", std::to_string(lanes * d),
               "parity", format_number(prot.q_regfile.area_um2, 0),
               format_percent(prot.q_regfile.code_share())});
  std::cout << mem.render() << '\n';

  std::cout
      << "Reading guide: pairing the paper's ~4-5% merged checksum with\n"
      << "parity on the q register files buys back the dominant share of\n"
      << "its structural blind spot for a fraction of the fault-isolated\n"
      << "checker's cost — and both are far below duplication.\n";
  return 0;
}
