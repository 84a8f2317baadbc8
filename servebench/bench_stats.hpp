// Sample statistics of the serving benchmark.
//
// Every percentile the benchmark reports is computed here from its own
// per-request samples; the server's telemetry percentiles (a reservoir that
// starts replacing samples after 16k, and 2x-wide histogram buckets) are
// never read.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace servebench {

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Linear-interpolation percentile of unsorted samples, q in [0, 1].
/// Returns 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

/// Samples strictly beyond quantile `q` of `n` samples: floor((1 - q) n).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);

/// The "tail" quantile: the highest of p90, p99 and p99.9 that has at least
/// 10 of `n` samples beyond it; the median when p90 has fewer.
[[nodiscard]] double tail_quantile(std::size_t n);

/// A median and a tail percentile of one sample set.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.5;  ///< the quantile tail_quantile(n) chose.
  double tail = 0.0;
  std::size_t beyond = 0;  ///< samples beyond the tail quantile.
};
/// `tail_n` is the sample count the tail quantile is chosen for: the run
/// length's expected count when it is known in advance (an open-loop
/// schedule), else 0 for the realized count.
[[nodiscard]] Summary summarize(const std::vector<double>& samples,
                                std::size_t tail_n = 0);

/// Time per output token of one request: (total - ttft) / (tokens - 1),
/// in ms from microsecond inputs. nullopt for a single-token request.
[[nodiscard]] std::optional<double> tpot_ms(double total_us, double ttft_us,
                                            std::size_t tokens);

/// Time to first token counted from the request's due time: the delay from
/// due to submit (open loop; 0 in closed loop) plus the server's ttft, in ms.
[[nodiscard]] double ttft_from_due_ms(double submit_minus_due_us,
                                      double ttft_us);

/// One rung of the open-loop rate ladder, judged against the SLO.
struct RungOutcome {
  double rate_rps = 0.0;
  std::size_t sent = 0;  ///< requests due in the rung.
  std::size_t met = 0;   ///< completed within both limits.
  bool backlog_grew = false;
};

/// Share of sent requests that met the SLO (0 when nothing was sent).
[[nodiscard]] double attainment(const RungOutcome& rung);

/// The highest ladder rate whose attainment is at least `min_share` and
/// whose backlog did not grow; 0 when no rung qualifies.
[[nodiscard]] double slo_rate(const std::vector<RungOutcome>& rungs,
                              double min_share);

/// Whether a request met both SLO limits (failed requests never do).
[[nodiscard]] bool meets_slo(bool ok, double ttft_ms, double tpot_ms,
                             double ttft_limit_ms, double tpot_limit_ms);

/// A time tree: node i's total and its parent (-1 for the root). Children
/// are sub-work of their parent.
struct TimeNode {
  std::string name;
  double total = 0.0;
  int parent = -1;
};

/// Self time of every node: its total minus its children's totals. The
/// self times of a tree add up to the root's total exactly.
[[nodiscard]] std::vector<double> self_times(
    const std::vector<TimeNode>& nodes);

}  // namespace servebench
