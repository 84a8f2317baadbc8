#include "obs/op_profile.hpp"

namespace flashabft::obs {

const char* guard_phase_name(GuardPhase phase) {
  switch (phase) {
    case GuardPhase::kCompute: return "compute";
    case GuardPhase::kVerify: return "verify";
    case GuardPhase::kRecovery: return "recovery";
  }
  return "?";
}

bool OpTimingSnapshot::empty() const {
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    for (std::size_t p = 0; p < kGuardPhaseCount; ++p) {
      if (cells[k][p].count != 0) return false;
    }
  }
  return true;
}

void OpTimingSnapshot::merge(const OpTimingSnapshot& other) {
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    for (std::size_t p = 0; p < kGuardPhaseCount; ++p) {
      cells[k][p].merge(other.cells[k][p]);
    }
  }
}

OpTimingSnapshot OpTimingProfiler::snapshot() const {
  OpTimingSnapshot out;
  for (std::size_t k = 0; k < kOpKindCount; ++k) {
    for (std::size_t p = 0; p < kGuardPhaseCount; ++p) {
      out.cells[k][p] = cells_[k][p].snapshot();
    }
  }
  return out;
}

void OpTimingProfiler::clear() {
  for (auto& row : cells_) {
    for (AtomicHistogram& cell : row) cell.clear();
  }
}

}  // namespace flashabft::obs
