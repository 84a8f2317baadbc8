#include "bench_stats.hpp"

#include <algorithm>
#include <cmath>

namespace servebench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * double(samples.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - double(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

std::size_t samples_beyond(std::size_t n, double q) {
  return std::size_t(std::floor((1.0 - q) * double(n) + 1e-9));
}

double tail_quantile(std::size_t n) {
  constexpr double kLadder[] = {0.999, 0.99, 0.9};
  for (const double q : kLadder) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.5;
}

Summary summarize(const std::vector<double>& samples, std::size_t tail_n) {
  Summary s;
  s.n = samples.size();
  s.p50 = percentile(samples, 0.5);
  s.tail_q = tail_quantile(tail_n > 0 ? tail_n : s.n);
  s.tail = percentile(samples, s.tail_q);
  s.beyond = samples_beyond(s.n, s.tail_q);
  return s;
}

std::optional<double> tpot_ms(double total_us, double ttft_us,
                              std::size_t tokens) {
  if (tokens < 2) return std::nullopt;
  return (total_us - ttft_us) / double(tokens - 1) / 1000.0;
}

double ttft_from_due_ms(double submit_minus_due_us, double ttft_us) {
  return (submit_minus_due_us + ttft_us) / 1000.0;
}

double attainment(const RungOutcome& rung) {
  return rung.sent > 0 ? double(rung.met) / double(rung.sent) : 0.0;
}

double slo_rate(const std::vector<RungOutcome>& rungs, double min_share) {
  double best = 0.0;
  for (const RungOutcome& rung : rungs) {
    if (rung.sent > 0 && attainment(rung) >= min_share &&
        !rung.backlog_grew) {
      best = std::max(best, rung.rate_rps);
    }
  }
  return best;
}

bool meets_slo(bool ok, double ttft_ms, double tpot_ms, double ttft_limit_ms,
               double tpot_limit_ms) {
  return ok && ttft_ms <= ttft_limit_ms && tpot_ms <= tpot_limit_ms;
}

std::vector<double> self_times(const std::vector<TimeNode>& nodes) {
  std::vector<double> self(nodes.size());
  for (std::size_t i = 0; i < nodes.size(); ++i) self[i] = nodes[i].total;
  for (const TimeNode& node : nodes) {
    if (node.parent >= 0) self[std::size_t(node.parent)] -= node.total;
  }
  return self;
}

}  // namespace servebench
