// Anytime optimizer portfolio: races registry pipelines under a shared
// budget, keeps the best schedule seen, then spends the remaining budget on
// LNS destroy/repair rounds over the incumbent. See DESIGN.md §13.
//
// Determinism contract: with a tick-only budget the result (schedule,
// costs, gap, per-candidate tick counts, provenance) is a pure function of
// (instance, seed, options) — independent of thread count, machine speed
// and obs settings. Candidate rng streams are keyed by the spec string, so
// a pipeline run alone under run_pipeline_budgeted() replays exactly the
// run it gets inside the portfolio — the basis of the property-suite
// invariant portfolio_cost <= min(single-pipeline costs).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/replication.hpp"
#include "core/schedule.hpp"
#include "core/system.hpp"
#include "portfolio/budget.hpp"
#include "portfolio/lns.hpp"

namespace rtsp {

struct PortfolioOptions {
  /// Registry specs to race; empty selects default_portfolio_algorithms().
  std::vector<std::string> algorithms;
  Budget budget;
  bool lns_enabled = true;
  LnsOptions lns;
  std::size_t threads = 0;  ///< race pool size; 0 = hardware concurrency
};

/// The default race roster: the paper's flagship chain plus re-seeded and
/// stochastic variants.
std::vector<std::string> default_portfolio_algorithms();

/// Outcome of one raced candidate (in roster order).
struct CandidateOutcome {
  std::string algo;
  Cost cost = 0;                  ///< the candidate's own final cost
  std::size_t dummy_transfers = 0;
  std::uint64_t ticks_used = 0;
  bool completed = false;         ///< ran its whole chain within budget
};

/// A single pipeline truncated at the budget — the anytime baseline.
struct BudgetedRun {
  Schedule schedule;
  Cost cost = 0;
  std::size_t dummy_transfers = 0;
  std::uint64_t ticks_used = 0;
  bool completed = false;
};

struct PortfolioResult {
  Schedule schedule;
  Cost cost = 0;
  std::size_t dummy_transfers = 0;
  Cost lower_bound = 0;
  std::string winner;             ///< algo that produced the race incumbent
  Cost race_cost = 0;             ///< incumbent cost before LNS
  std::vector<CandidateOutcome> candidates;
  LnsReport lns;
  std::uint64_t race_ticks = 0;   ///< max over candidates (virtual clock)
  std::size_t incumbent_offers = 0;

  /// Relative optimality gap against the core lower bound.
  double gap() const {
    if (cost <= lower_bound) return 0.0;
    const double denom = lower_bound > 0 ? static_cast<double>(lower_bound) : 1.0;
    return static_cast<double>(cost - lower_bound) / denom;
  }
};

/// Runs `spec` start-to-finish under `budget`: the builder runs unmetered
/// (charged by schedule length), each improver polls the meter at its
/// deterministic stop points. The rng stream is derived from (seed, spec)
/// exactly like the portfolio's candidate streams.
BudgetedRun run_pipeline_budgeted(const SystemModel& model,
                                  const ReplicationMatrix& x_old,
                                  const ReplicationMatrix& x_new,
                                  const std::string& spec, std::uint64_t seed,
                                  const Budget& budget);

/// Races the roster across a thread pool, folds every stage result into a
/// deterministic incumbent, then improves it with LNS until the budget is
/// spent or the gap closes. Throws std::invalid_argument on unknown specs.
PortfolioResult solve_portfolio(const SystemModel& model,
                                const ReplicationMatrix& x_old,
                                const ReplicationMatrix& x_new, std::uint64_t seed,
                                const PortfolioOptions& options);

}  // namespace rtsp
