// Outside-in phase trace of one partialschur solve.
//
// The solver is driven through a forwarding operator that timestamps every
// matvec and records which basis column it was applied to (the offset of
// the input pointer from column 0 of the Krylov basis, which is the first
// vector the solver ever multiplies). The gaps between matvecs are then
// classified without touching the solver:
//
//   * the matvec itself                          -> SpMV
//   * gap where the column advances (j -> j+1)   -> orthogonalization
//   * gap where the column drops (a restart)     -> dense restart
//   * tail after the last matvec                 -> dense restart
//   * head before the first matvec               -> start-vector setup
//
// Known bias: a restart gap (and the tail) also contains the
// orthogonalization of the last expansion step before it, because nothing
// outside the solver separates the two. restart_s is therefore high and
// orth_s low by one orthogonalization step per restart cycle.
#pragma once

#include <chrono>
#include <cstddef>
#include <vector>

namespace sweepbench {

using Clock = std::chrono::steady_clock;

/// One matvec seen by the forwarding operator.
struct MatvecEvent {
  std::size_t column = 0;
  Clock::time_point begin;
  Clock::time_point end;
};

/// Seconds per phase of one traced solve.
struct PhaseSplit {
  double head_s = 0.0;
  double spmv_s = 0.0;
  double orth_s = 0.0;
  double restart_s = 0.0;
  std::size_t matvecs = 0;
  std::size_t restarts = 0;  ///< column drops: completed restart cycles
};

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Split [solve_begin, solve_end] into phases from the matvec events.
/// The four phase times sum to the solve's wall time.
inline PhaseSplit classify_gaps(const std::vector<MatvecEvent>& events,
                                Clock::time_point solve_begin, Clock::time_point solve_end) {
  PhaseSplit out;
  if (events.empty()) {
    out.head_s = seconds_between(solve_begin, solve_end);
    return out;
  }
  out.matvecs = events.size();
  out.head_s = seconds_between(solve_begin, events.front().begin);
  for (std::size_t i = 0; i < events.size(); ++i) {
    out.spmv_s += seconds_between(events[i].begin, events[i].end);
    if (i + 1 == events.size()) break;
    const double gap = seconds_between(events[i].end, events[i + 1].begin);
    if (events[i + 1].column > events[i].column) {
      out.orth_s += gap;
    } else {
      out.restart_s += gap;
      ++out.restarts;
    }
  }
  out.restart_s += seconds_between(events.back().end, solve_end);
  return out;
}

/// Forwarding operator: the solver's view of the matrix, plus a timestamp
/// pair and the basis column of every matvec. `rows()` and `matvec()` are
/// all partialschur asks of an operator.
template <typename T, class Inner>
class TracingOp {
 public:
  TracingOp(const Inner& inner, std::vector<MatvecEvent>& events)
      : inner_(inner), events_(events) {}

  [[nodiscard]] std::size_t rows() const { return inner_.rows(); }

  void matvec(const T* x, T* y) const {
    if (base_ == nullptr) base_ = x;
    MatvecEvent ev;
    ev.column = static_cast<std::size_t>(x - base_) / inner_.rows();
    ev.begin = Clock::now();
    inner_.matvec(x, y);
    ev.end = Clock::now();
    events_.push_back(ev);
  }

 private:
  const Inner& inner_;
  std::vector<MatvecEvent>& events_;
  mutable const T* base_ = nullptr;
};

}  // namespace sweepbench
