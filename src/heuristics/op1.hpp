// OP1 — reorder same-object transfers to cut implementation cost (Sec. 4.2,
// originally [14]).
//
// For every ordered pair of transfers of one object (T_i'kj' ... T_ikj), OP1
// considers moving the later transfer (with the deletion run that enables
// it) before the earlier one, re-sourcing it to the nearest replicator at
// that point, and re-sourcing every subsequent transfer of the object that
// gets cheaper from the newly early replica (this also converts later dummy
// transfers of the object into proper ones — the paper's "side-effect").
// The paper's validity cases are realized as: (ii) candidates that cannot be
// repaired are rejected by the validator; (iii) transfers orphaned by pulled
// deletions are re-sourced to their nearest alternative; (iv) capacity at
// the new position is repaired by pulling the destination's deletions
// forward. A candidate is adopted iff it validates and its exact total cost
// is strictly lower — the paper's "benefit outweighs implementation cost
// plus all penalties" computed exactly. After each adopted change the scan
// restarts (paper); a cheap benefit/cost pre-screen keeps restarts fast.
#pragma once

#include "heuristics/scheduler.hpp"

namespace rtsp {

struct Op1Options {
  enum class Restart {
    FromStart,  ///< paper behaviour: rescan from the beginning after a change
    Continue,   ///< keep scanning forward; cheaper, benchmarked in ablation
  };
  Restart restart = Restart::FromStart;
  /// Skip pairs whose optimistic cost estimate shows no improvement.
  bool prescreen = true;
  /// Safety cap on adopted changes (0 = unlimited).
  std::size_t max_changes = 0;
};

class Op1Improver final : public ScheduleImprover {
 public:
  explicit Op1Improver(Op1Options options = {}) : options_(options) {}
  std::string name() const override { return "OP1"; }
  Schedule improve(const SystemModel& model, const ReplicationMatrix& x_old,
                   const ReplicationMatrix& x_new, Schedule schedule,
                   Rng& rng) const override;
  void improve_incremental(IncrementalEvaluator& eval, Rng& rng) const override;

 private:
  Op1Options options_;
};

}  // namespace rtsp
