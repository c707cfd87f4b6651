// Determinism contract of the anytime portfolio (DESIGN.md §13): with a
// tick-only budget the result is a pure function of (instance, seed,
// options) — identical across reruns, thread counts, runtime obs on/off and
// provenance arming. Wall-clock mode validates but is excluded from
// bit-identity. Also covers the WorkMeter primitive itself.
#include <gtest/gtest.h>

#include <sstream>

#include "core/feasibility.hpp"
#include "core/validator.hpp"
#include "core/work_meter.hpp"
#include "io/provenance_io.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "portfolio/portfolio.hpp"
#include "workload/scenario.hpp"

namespace rtsp {
namespace {

Instance test_instance(std::uint64_t seed = 11) {
  RandomInstanceSpec spec;  // 8 servers, 24 objects
  Rng rng(seed);
  return random_instance(spec, rng);
}

PortfolioOptions tick_options(std::uint64_t ticks, std::size_t threads = 0) {
  PortfolioOptions opts;
  opts.budget.ticks = ticks;
  opts.threads = threads;
  return opts;
}

void expect_same_result(const PortfolioResult& a, const PortfolioResult& b) {
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.dummy_transfers, b.dummy_transfers);
  EXPECT_EQ(a.winner, b.winner);
  EXPECT_EQ(a.race_cost, b.race_cost);
  EXPECT_EQ(a.gap(), b.gap());
  EXPECT_EQ(a.incumbent_offers, b.incumbent_offers);
  EXPECT_EQ(a.lns.rounds, b.lns.rounds);
  EXPECT_EQ(a.lns.accepts, b.lns.accepts);
  ASSERT_EQ(a.candidates.size(), b.candidates.size());
  for (std::size_t i = 0; i < a.candidates.size(); ++i) {
    EXPECT_EQ(a.candidates[i].algo, b.candidates[i].algo);
    EXPECT_EQ(a.candidates[i].cost, b.candidates[i].cost);
    EXPECT_EQ(a.candidates[i].dummy_transfers, b.candidates[i].dummy_transfers);
    EXPECT_EQ(a.candidates[i].ticks_used, b.candidates[i].ticks_used);
    EXPECT_EQ(a.candidates[i].completed, b.candidates[i].completed);
  }
}

TEST(WorkMeter, UnarmedNeverExhausts) {
  WorkMeter meter;
  EXPECT_FALSE(meter.limited());
  meter.charge(1'000'000);
  EXPECT_FALSE(meter.exhausted());
  EXPECT_EQ(meter.ticks(), 1'000'000u);
}

TEST(WorkMeter, TickLimitIsSticky) {
  WorkMeter meter;
  meter.set_tick_limit(100);
  EXPECT_TRUE(meter.limited());
  EXPECT_TRUE(meter.deterministic());
  meter.charge(99);
  EXPECT_FALSE(meter.exhausted());
  meter.charge(1);
  EXPECT_TRUE(meter.exhausted());
  EXPECT_TRUE(meter.exhausted());  // stays exhausted
}

TEST(WorkMeter, PastDeadlineExhausts) {
  WorkMeter meter;
  meter.set_deadline(WorkMeter::Clock::now() - std::chrono::milliseconds(1));
  EXPECT_FALSE(meter.deterministic());
  EXPECT_TRUE(meter.exhausted());
}

TEST(Portfolio, BitIdenticalAcrossReruns) {
  const Instance inst = test_instance();
  for (const std::uint64_t ticks : {std::uint64_t{2'000}, std::uint64_t{50'000}}) {
    const PortfolioResult a =
        solve_portfolio(inst.model, inst.x_old, inst.x_new, 7, tick_options(ticks));
    const PortfolioResult b =
        solve_portfolio(inst.model, inst.x_old, inst.x_new, 7, tick_options(ticks));
    expect_same_result(a, b);
    EXPECT_TRUE(Validator::is_valid(inst.model, inst.x_old, inst.x_new, a.schedule));
  }
}

TEST(Portfolio, BitIdenticalAcrossThreadCounts) {
  const Instance inst = test_instance();
  const PortfolioResult one = solve_portfolio(inst.model, inst.x_old, inst.x_new,
                                              7, tick_options(20'000, 1));
  const PortfolioResult many = solve_portfolio(inst.model, inst.x_old, inst.x_new,
                                               7, tick_options(20'000, 4));
  expect_same_result(one, many);
}

TEST(Portfolio, BitIdenticalAcrossRuntimeObsToggle) {
  const Instance inst = test_instance();
  obs::set_enabled(false);
  const PortfolioResult off = solve_portfolio(inst.model, inst.x_old, inst.x_new,
                                              3, tick_options(30'000));
  obs::set_enabled(true);
  const PortfolioResult on = solve_portfolio(inst.model, inst.x_old, inst.x_new,
                                             3, tick_options(30'000));
  obs::set_enabled(false);
  expect_same_result(off, on);
}

TEST(Portfolio, BitIdenticalProvenanceSidecars) {
  if (!prov::kRecorderCompiled) GTEST_SKIP() << "provenance compiled out";
  const Instance inst = test_instance();
  const auto run_with_provenance = [&](std::string& sidecar) {
    prov::Scope scope(inst.model, inst.x_old);
    const PortfolioResult r = solve_portfolio(inst.model, inst.x_old, inst.x_new,
                                              5, tick_options(200'000));
    std::ostringstream buffer;
    write_provenance(buffer, scope.finalize(r.schedule));
    sidecar = buffer.str();
    return r;
  };
  std::string sidecar_a;
  std::string sidecar_b;
  const PortfolioResult a = run_with_provenance(sidecar_a);
  const PortfolioResult b = run_with_provenance(sidecar_b);
  expect_same_result(a, b);
  EXPECT_EQ(sidecar_a, sidecar_b);
  EXPECT_NE(sidecar_a.find("PORTFOLIO:"), std::string::npos);

  // Arming the recorder must not change the schedule either.
  const PortfolioResult bare = solve_portfolio(inst.model, inst.x_old, inst.x_new,
                                               5, tick_options(200'000));
  expect_same_result(a, bare);
}

TEST(Portfolio, WallClockModeValidates) {
  const Instance inst = test_instance();
  PortfolioOptions opts;
  opts.budget.wall_ms = 50.0;
  EXPECT_FALSE(opts.budget.deterministic());
  const PortfolioResult r =
      solve_portfolio(inst.model, inst.x_old, inst.x_new, 9, opts);
  EXPECT_TRUE(Validator::is_valid(inst.model, inst.x_old, inst.x_new, r.schedule));
  EXPECT_GE(r.cost, cost_lower_bound(inst.model, inst.x_old, inst.x_new));
}

TEST(Portfolio, UnlimitedBudgetCompletesEveryCandidate) {
  const Instance inst = test_instance();
  PortfolioOptions opts;  // no budget: run to completion, LNS stall-bounded
  const PortfolioResult r =
      solve_portfolio(inst.model, inst.x_old, inst.x_new, 1, opts);
  for (const CandidateOutcome& c : r.candidates) {
    EXPECT_TRUE(c.completed) << c.algo;
  }
  EXPECT_TRUE(Validator::is_valid(inst.model, inst.x_old, inst.x_new, r.schedule));
}

TEST(Portfolio, BudgetedSingleRunIsDeterministicAndMatchesCandidate) {
  const Instance inst = test_instance();
  const std::string spec = "GOLCF+SA";
  Budget budget;
  budget.ticks = 25'000;
  const BudgetedRun a = run_pipeline_budgeted(inst.model, inst.x_old, inst.x_new,
                                              spec, 7, budget);
  const BudgetedRun b = run_pipeline_budgeted(inst.model, inst.x_old, inst.x_new,
                                              spec, 7, budget);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.ticks_used, b.ticks_used);

  // Inside the portfolio the same spec replays the identical run (streams
  // are keyed by spec, not roster position).
  PortfolioOptions opts = tick_options(25'000);
  opts.algorithms = {"GOLCF+H1+H2+OP1", spec};
  opts.lns_enabled = false;
  const PortfolioResult r =
      solve_portfolio(inst.model, inst.x_old, inst.x_new, 7, opts);
  ASSERT_EQ(r.candidates.size(), 2u);
  EXPECT_EQ(r.candidates[1].cost, a.cost);
  EXPECT_EQ(r.candidates[1].ticks_used, a.ticks_used);
}

/// Copies `dense` into a sparse-store matrix through set(), which leaves
/// every server's object list dirty (uncompacted), as a placement the daemon
/// has just mutated would be.
ReplicationMatrix dirty_sparse_copy(const ReplicationMatrix& dense) {
  ReplicationMatrix out(dense.num_servers(), dense.num_objects(),
                        ReplicationMatrix::Store::kSparse);
  for (ObjectId k = 0; k < dense.num_objects(); ++k) {
    dense.for_each_replicator(k, [&](ServerId i) { out.set(i, k); });
  }
  return out;
}

TEST(Portfolio, DirtySparsePlacementsRaceLikeDenseOnes) {
  // The race threads share both placements; sparse ones compact their server
  // lists lazily on read, so the race must settle them first. Run under
  // ThreadSanitizer this case is the data-race regression test.
  RandomInstanceSpec spec;
  spec.servers = 40;
  spec.objects = 2'000;
  Rng rng(5);
  const Instance inst = random_instance(spec, rng);
  ASSERT_TRUE(inst.x_old.is_dense());
  const ReplicationMatrix x_old = dirty_sparse_copy(inst.x_old);
  const ReplicationMatrix x_new = dirty_sparse_copy(inst.x_new);
  ASSERT_TRUE(x_old.is_sparse());

  const PortfolioResult dense = solve_portfolio(inst.model, inst.x_old, inst.x_new,
                                                7, tick_options(200'000, 4));
  const PortfolioResult sparse =
      solve_portfolio(inst.model, x_old, x_new, 7, tick_options(200'000, 4));
  expect_same_result(dense, sparse);
  EXPECT_TRUE(Validator::is_valid(inst.model, x_old, x_new, sparse.schedule));
}

TEST(Portfolio, UnknownSpecThrows) {
  const Instance inst = test_instance();
  PortfolioOptions opts = tick_options(1'000);
  opts.algorithms = {"NOPE"};
  EXPECT_THROW(solve_portfolio(inst.model, inst.x_old, inst.x_new, 1, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace rtsp
