#include "exec/executor.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/cost_model.hpp"
#include "core/validator.hpp"
#include "heuristics/registry.hpp"
#include "test_helpers.hpp"

namespace rtsp {
namespace {

using exec::ExecutionReport;
using exec::ExecutorOptions;
using exec::FaultSpec;
using testutil::fig3_instance;
using testutil::uniform_model;

Schedule plan_for(const Instance& inst, std::uint64_t seed = 1) {
  Rng rng(seed);
  return make_pipeline("GOLCF+H1+H2+OP1")
      .run(inst.model, inst.x_old, inst.x_new, rng);
}

Instance medium_instance(std::uint64_t seed) {
  RandomInstanceSpec spec;
  spec.servers = 8;
  spec.objects = 30;
  Rng rng(seed);
  return random_instance(spec, rng);
}

void expect_clean_goal(const Instance& inst, const ExecutionReport& r) {
  EXPECT_TRUE(r.reached_goal);
  EXPECT_TRUE(r.final_placement == inst.x_new);
  EXPECT_TRUE(
      Validator::is_valid(inst.model, inst.x_old, inst.x_new, r.effective));
}

TEST(Executor, ZeroFaultReproducesPlanExactly) {
  const Instance inst = fig3_instance();
  const Schedule plan = plan_for(inst);
  const ExecutionReport r = exec::execute_schedule(
      inst.model, inst.x_old, inst.x_new, plan, FaultSpec{}, ExecutorOptions{});
  expect_clean_goal(inst, r);
  EXPECT_EQ(r.effective.actions(), plan.actions());
  EXPECT_EQ(r.actual_cost, r.planned_cost);
  EXPECT_EQ(r.planned_cost, schedule_cost(inst.model, plan));
  EXPECT_DOUBLE_EQ(r.cost_inflation(), 1.0);
  EXPECT_EQ(r.attempts.size(), plan.size());
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.replans.size(), 0u);
  EXPECT_EQ(r.total_stall, 0);
  EXPECT_EQ(r.total_backoff, 0);
  EXPECT_EQ(r.finished_at, r.planned_cost);
}

TEST(Executor, ZeroFaultExactOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Instance inst = medium_instance(seed);
    const Schedule plan = plan_for(inst, seed);
    const ExecutionReport r =
        exec::execute_schedule(inst.model, inst.x_old, inst.x_new, plan,
                               FaultSpec{}, ExecutorOptions{});
    expect_clean_goal(inst, r);
    EXPECT_EQ(r.effective.actions(), plan.actions()) << "seed " << seed;
    EXPECT_EQ(r.actual_cost, r.planned_cost) << "seed " << seed;
  }
}

TEST(Executor, TransientFailuresRetryAndInflateCost) {
  const Instance inst = medium_instance(2);
  const Schedule plan = plan_for(inst);
  FaultSpec faults;
  faults.seed = 11;
  faults.transient_failure_rate = 0.3;
  const ExecutionReport r = exec::execute_schedule(
      inst.model, inst.x_old, inst.x_new, plan, faults, ExecutorOptions{});
  expect_clean_goal(inst, r);
  EXPECT_GT(r.transient_failures, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_GT(r.actual_cost, r.planned_cost);  // failed attempts still pay
  EXPECT_GT(r.total_backoff, 0);
  EXPECT_GT(r.cost_inflation(), 1.0);
}

TEST(Executor, CertainFailureDegradesToDummyAndTerminates) {
  const Instance inst = fig3_instance();
  const Schedule plan = plan_for(inst);
  FaultSpec faults;
  faults.transient_failure_rate = 1.0;  // every real-source attempt fails
  ExecutorOptions opt;
  opt.retry.max_retries = 1;
  opt.degrade_after = 1;
  const ExecutionReport r = exec::execute_schedule(inst.model, inst.x_old,
                                                   inst.x_new, plan, faults, opt);
  expect_clean_goal(inst, r);
  EXPECT_GT(r.degraded_transfers, 0u);
  EXPECT_GT(r.effective_dummy_transfers, r.planned_dummy_transfers);
  // No real-source transfer can ever succeed at rate 1.0.
  for (const Action& a : r.effective.actions()) {
    if (a.is_transfer()) {
      EXPECT_TRUE(is_dummy(a.source)) << a.to_string();
    }
  }
}

TEST(Executor, ReplicaLossForcesDeletionAndReplan) {
  const Instance inst = fig3_instance();
  const Schedule plan = plan_for(inst);
  FaultSpec faults;
  faults.losses.push_back({0, 0, 0});  // S1 loses object A before anything runs
  const ExecutionReport r = exec::execute_schedule(
      inst.model, inst.x_old, inst.x_new, plan, faults, ExecutorOptions{});
  expect_clean_goal(inst, r);
  EXPECT_EQ(r.loss_deletions, 1u);
  ASSERT_FALSE(r.effective.actions().empty());
  EXPECT_EQ(r.effective[0], Action::remove(0, 0));  // forced deletion recorded
  EXPECT_GE(r.replans.size(), 1u);  // the planned delete of (S0, O0) is invalid
}

TEST(Executor, OfflineWindowStallsWithoutExtraCost) {
  const Instance inst = fig3_instance();
  const Schedule plan = plan_for(inst);
  FaultSpec faults;
  for (ServerId i = 0; i < 4; ++i) faults.offline.push_back({i, 0, 25});
  const ExecutionReport r = exec::execute_schedule(
      inst.model, inst.x_old, inst.x_new, plan, faults, ExecutorOptions{});
  expect_clean_goal(inst, r);
  EXPECT_GE(r.total_stall, 25);
  EXPECT_EQ(r.actual_cost, r.planned_cost);  // dark servers delay, never pay
  EXPECT_EQ(r.finished_at, r.planned_cost + r.total_stall);
  EXPECT_EQ(r.effective.actions(), plan.actions());
}

TEST(Executor, LinkDegradationInflatesActualCostOnly) {
  const SystemModel model = uniform_model({2, 2}, {1, 1});
  const ReplicationMatrix x_old =
      ReplicationMatrix::from_pairs(2, 2, {{0, 0}, {0, 1}});
  const ReplicationMatrix x_new =
      ReplicationMatrix::from_pairs(2, 2, {{1, 0}, {1, 1}});
  const Schedule plan({Action::transfer(1, 0, 0), Action::transfer(1, 1, 0),
                       Action::remove(0, 0), Action::remove(0, 1)});
  FaultSpec faults;
  faults.degraded_links.push_back({1, 0, 3.0, 0, 1000});
  const ExecutionReport r = exec::execute_schedule(model, x_old, x_new, plan,
                                                   faults, ExecutorOptions{});
  EXPECT_TRUE(r.reached_goal);
  EXPECT_EQ(r.planned_cost, 2);
  EXPECT_EQ(r.actual_cost, 6);        // both transfers paid 3x
  EXPECT_EQ(r.effective_cost, 2);     // nominal cost of the same actions
  EXPECT_DOUBLE_EQ(r.cost_inflation(), 3.0);
}

TEST(Executor, ReplanBudgetExhaustedDrainsViaDummy) {
  const Instance inst = fig3_instance();
  const Schedule plan = plan_for(inst);
  FaultSpec faults;
  faults.transient_failure_rate = 1.0;
  ExecutorOptions opt;
  opt.retry.max_retries = 0;
  opt.max_replans = 0;          // first failure goes straight to the drain
  opt.degrade_after = 100;      // per-action degradation never kicks in
  const ExecutionReport r = exec::execute_schedule(inst.model, inst.x_old,
                                                   inst.x_new, plan, faults, opt);
  expect_clean_goal(inst, r);
  EXPECT_GT(r.degraded_transfers, 0u);
  EXPECT_EQ(r.replans.size(), 0u);
}

// Satellite: bit-identical reruns. Same instance + plan + spec + options must
// reproduce the attempt log, effective schedule, final state and cost totals.
TEST(Executor, DeterministicAcrossReruns) {
  const Instance inst = medium_instance(5);
  const Schedule plan = plan_for(inst, 5);
  FaultSpec faults;
  faults.seed = 77;
  faults.transient_failure_rate = 0.4;
  faults.offline.push_back({1, 10, 60});
  faults.degraded_links.push_back({0, 2, 2.0, 0, 500});
  faults.losses.push_back({2, 1, 40});
  ExecutorOptions opt;
  opt.seed = 3;
  const ExecutionReport a = exec::execute_schedule(inst.model, inst.x_old,
                                                   inst.x_new, plan, faults, opt);
  const ExecutionReport b = exec::execute_schedule(inst.model, inst.x_old,
                                                   inst.x_new, plan, faults, opt);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.effective.actions(), b.effective.actions());
  EXPECT_TRUE(a.final_placement == b.final_placement);
  EXPECT_EQ(a.actual_cost, b.actual_cost);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.replans.size(), b.replans.size());
  expect_clean_goal(inst, a);
}

TEST(Executor, ProvenanceAttributesFaultStages) {
  const Instance inst = fig3_instance();
  const Schedule plan = plan_for(inst);
  FaultSpec faults;
  faults.losses.push_back({0, 0, 0});
  ExecutorOptions opt;
  opt.record_provenance = true;
  const ExecutionReport r = exec::execute_schedule(inst.model, inst.x_old,
                                                   inst.x_new, plan, faults, opt);
  expect_clean_goal(inst, r);
  ASSERT_EQ(r.provenance.entries.size(), r.effective.size());
  auto has_stage = [&](const std::string& name) {
    for (const auto& s : r.provenance.stages) {
      if (s.name.rfind(name, 0) == 0) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_stage("PLAN"));
  EXPECT_TRUE(has_stage("FAULT-LOSS"));
  EXPECT_TRUE(has_stage("REPLAN1:"));
  // Every effective dummy transfer carries a root cause for `rtsp explain`.
  for (std::size_t u = 0; u < r.effective.size(); ++u) {
    if (r.effective[u].is_dummy_transfer()) {
      EXPECT_NE(r.provenance.entries[u].root_cause, prov::kNone);
    }
  }
}

TEST(Executor, BudgetZeroMatchesUnbudgetedBitForBit) {
  const Instance inst = medium_instance(31);
  const Schedule plan = plan_for(inst, 31);
  FaultSpec faults;
  faults.transient_failure_rate = 0.2;
  faults.seed = 31;
  ExecutorOptions unbudgeted;
  ExecutorOptions budgeted;
  budgeted.budget_ticks = 0;  // explicit zero means unlimited
  const ExecutionReport a = exec::execute_schedule(
      inst.model, inst.x_old, inst.x_new, plan, faults, unbudgeted);
  const ExecutionReport b = exec::execute_schedule(
      inst.model, inst.x_old, inst.x_new, plan, faults, budgeted);
  EXPECT_TRUE(a.final_placement == b.final_placement);
  EXPECT_EQ(a.effective.actions(), b.effective.actions());
  EXPECT_EQ(a.actual_cost, b.actual_cost);
  EXPECT_EQ(a.finished_at, b.finished_at);
  EXPECT_FALSE(b.budget_exhausted);
  EXPECT_TRUE(b.reached_goal);
}

TEST(Executor, TinyBudgetStopsEarlyWithValidEffectivePrefix) {
  const Instance inst = medium_instance(32);
  const Schedule plan = plan_for(inst, 32);
  ExecutorOptions opt;
  opt.budget_ticks = 5;  // far below the plan's cost
  const ExecutionReport r = exec::execute_schedule(
      inst.model, inst.x_old, inst.x_new, plan, FaultSpec{}, opt);
  ASSERT_TRUE(r.budget_exhausted);
  EXPECT_FALSE(r.reached_goal);
  EXPECT_FALSE(r.final_placement == inst.x_new);
  // The partial run is a checkpointable state: the effective prefix
  // validates against (X_old, final_placement), and the clock only
  // overshoots by at most the in-flight action.
  EXPECT_TRUE(Validator::is_valid(inst.model, inst.x_old, r.final_placement,
                                  r.effective));
  EXPECT_GE(r.finished_at, opt.budget_ticks);
}

TEST(Executor, BudgetedTailResumesToGoal) {
  const Instance inst = medium_instance(33);
  const Schedule plan = plan_for(inst, 33);
  ExecutorOptions opt;
  opt.budget_ticks = 20;
  ExecutionReport partial = exec::execute_schedule(
      inst.model, inst.x_old, inst.x_new, plan, FaultSpec{}, opt);
  int rounds = 1;
  ReplicationMatrix x_mid = partial.final_placement;
  Schedule cumulative = partial.effective;
  // Re-plan the residual (X_mid -> X_new) and keep executing under the
  // same budget — the daemon's partial-convergence loop in miniature.
  while (partial.budget_exhausted) {
    ASSERT_LT(rounds, 200) << "budgeted resume loop did not converge";
    Rng rng(100 + rounds);
    const Schedule tail = make_pipeline("GOLCF+H1+H2+OP1")
                              .run(inst.model, x_mid, inst.x_new, rng);
    partial = exec::execute_schedule(inst.model, x_mid, inst.x_new, tail,
                                     FaultSpec{}, opt);
    for (const Action& a : partial.effective) cumulative.push_back(a);
    x_mid = partial.final_placement;
    ++rounds;
  }
  EXPECT_TRUE(partial.reached_goal);
  EXPECT_GT(rounds, 1);  // the budget actually split the work
  EXPECT_TRUE(x_mid == inst.x_new);
  EXPECT_TRUE(
      Validator::is_valid(inst.model, inst.x_old, inst.x_new, cumulative));
}

TEST(Executor, GenerousBudgetDoesNotTriggerEarlyStop) {
  const Instance inst = fig3_instance();
  const Schedule plan = plan_for(inst);
  ExecutorOptions opt;
  opt.budget_ticks = 1 << 20;
  const ExecutionReport r = exec::execute_schedule(
      inst.model, inst.x_old, inst.x_new, plan, FaultSpec{}, opt);
  expect_clean_goal(inst, r);
  EXPECT_FALSE(r.budget_exhausted);
}

TEST(Executor, RejectsMalformedInputs) {
  const Instance inst = fig3_instance();
  const Schedule plan = plan_for(inst);
  ExecutorOptions opt;
  opt.degrade_after = 0;
  EXPECT_THROW(exec::execute_schedule(inst.model, inst.x_old, inst.x_new, plan,
                                      FaultSpec{}, opt),
               std::invalid_argument);
  opt = ExecutorOptions{};
  opt.retry.multiplier = 0.0;
  EXPECT_THROW(exec::execute_schedule(inst.model, inst.x_old, inst.x_new, plan,
                                      FaultSpec{}, opt),
               std::invalid_argument);
  // Plan action ids out of range for the model.
  const Schedule bad({Action::transfer(9, 0, 0)});
  EXPECT_THROW(exec::execute_schedule(inst.model, inst.x_old, inst.x_new, bad,
                                      FaultSpec{}, ExecutorOptions{}),
               std::invalid_argument);
  // Storage-infeasible goal: no terminating degradation exists.
  const SystemModel tiny = uniform_model({1, 1}, {1, 1});
  const ReplicationMatrix x_old = ReplicationMatrix::from_pairs(2, 2, {{0, 0}});
  const ReplicationMatrix x_new =
      ReplicationMatrix::from_pairs(2, 2, {{0, 0}, {0, 1}});
  EXPECT_THROW(exec::execute_schedule(tiny, x_old, x_new, Schedule{},
                                      FaultSpec{}, ExecutorOptions{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace rtsp
