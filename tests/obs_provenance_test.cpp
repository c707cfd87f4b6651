// Tentpole acceptance tests: per-stage attribution reconciles exactly with
// schedule_stats, every dummy transfer carries a deadlock witness, and
// recording never perturbs the schedules.
#include "obs/provenance.hpp"

#include <gtest/gtest.h>

#include "core/cost_model.hpp"
#include "core/schedule_stats.hpp"
#include "core/validator.hpp"
#include "heuristics/registry.hpp"
#include "test_helpers.hpp"
#include "workload/paper_setup.hpp"

namespace rtsp {
namespace {

PaperSetup small_setup() {
  PaperSetup setup;
  setup.servers = 12;
  setup.objects = 60;
  return setup;
}

struct Recorded {
  Schedule h;
  prov::Provenance p;
};

Recorded solve_recorded(const Instance& inst, const std::string& spec,
                        std::uint64_t seed) {
  const Pipeline pipeline = make_pipeline(spec);
  prov::Scope scope(inst.model, inst.x_old);
  Rng rng(seed);
  Schedule h = pipeline.run(inst.model, inst.x_old, inst.x_new, rng);
  prov::Provenance p = scope.finalize(h);
  return {std::move(h), std::move(p)};
}

void expect_attribution_exact(const Instance& inst, const Recorded& r) {
  ASSERT_EQ(r.p.entries.size(), r.h.size());
  const auto att = prov::attribute_schedule(inst.model, r.h, r.p);
  const ScheduleStats stats = analyze_schedule(inst.model, r.h);
  // The whole point: per-stage sums equal the schedule totals bit for bit.
  EXPECT_EQ(att.total_actions, stats.actions);
  EXPECT_EQ(att.transfers, stats.transfers);
  EXPECT_EQ(att.deletions, stats.deletions);
  EXPECT_EQ(att.dummy_transfers, stats.dummy_transfers);
  EXPECT_EQ(att.total_cost, stats.total_cost);
  EXPECT_EQ(att.dummy_cost, stats.dummy_cost);
  EXPECT_EQ(att.total_cost, schedule_cost(inst.model, r.h));

  std::size_t actions = 0;
  Cost cost = 0;
  std::size_t dummies = 0;
  for (const auto& sa : att.stages) {
    actions += sa.actions;
    cost += sa.cost;
    dummies += sa.dummy_transfers;
  }
  EXPECT_EQ(actions, att.total_actions);
  EXPECT_EQ(cost, att.total_cost);
  EXPECT_EQ(dummies, att.dummy_transfers);
}

void expect_witnesses_valid(const Recorded& r) {
  ASSERT_EQ(r.p.entries.size(), r.h.size());
  for (std::size_t u = 0; u < r.h.size(); ++u) {
    const prov::Entry& e = r.p.entries[u];
    if (!r.h[u].is_dummy_transfer()) {
      EXPECT_EQ(e.root_cause, prov::kNone) << "non-dummy at " << u;
      continue;
    }
    ASSERT_NE(e.root_cause, prov::kNone) << "dummy without root cause at " << u;
    ASSERT_LT(e.root_cause, r.p.root_causes.size());
    const prov::RootCause& rc = r.p.root_causes[e.root_cause];
    EXPECT_EQ(rc.object, r.h[u].object);
    EXPECT_EQ(rc.dest, r.h[u].server);
    // The witness must be non-empty: either blockers that deleted their
    // replica, or (degenerate cases) an explicit kind telling us why.
    if (rc.kind == prov::RootCause::Kind::CapacityDeadlock) {
      EXPECT_FALSE(rc.blockers.empty()) << "deadlock without blockers at " << u;
    }
    for (const auto& b : rc.blockers) {
      ASSERT_NE(b.deleted_at, prov::kNone);
      ASSERT_LT(b.deleted_at, u) << "blocker deletion must precede the dummy";
      EXPECT_EQ(r.h[b.deleted_at], Action::remove(b.server, rc.object))
          << "witness points at position " << b.deleted_at
          << " which is not that deletion";
    }
  }
}

TEST(Provenance, AttributionExactOnPaperWorkload) {
  if (!prov::kRecorderCompiled) GTEST_SKIP() << "built with RTSP_OBS=OFF";
  Rng rng(11);
  const Instance inst = make_equal_size_instance(small_setup(), 3, rng);
  const Recorded r = solve_recorded(inst, "GOLCF+H1+H2+OP1", 5);
  expect_attribution_exact(inst, r);

  // The improvers must actually show up as stages on this workload —
  // otherwise the test proves nothing about rewrite attribution.
  bool has_improver = false;
  for (const auto& s : r.p.stages) {
    if (s.kind == prov::StageKind::Improver) has_improver = true;
    EXPECT_NE(s.kind, prov::StageKind::Unknown);
  }
  EXPECT_TRUE(has_improver);
  EXPECT_FALSE(r.p.rewrites.empty());
}

TEST(Provenance, AttributionExactAcrossBuildersAndWorkloads) {
  if (!prov::kRecorderCompiled) GTEST_SKIP() << "built with RTSP_OBS=OFF";
  const char* specs[] = {"RDF+H1", "GSDF+H2", "AR+OP1", "GOLCF+H1H2FIX"};
  std::uint64_t seed = 21;
  for (const char* spec : specs) {
    Rng rng(seed);
    const Instance inst = make_uniform_size_instance(small_setup(), 2, rng);
    const Recorded r = solve_recorded(inst, spec, seed);
    SCOPED_TRACE(spec);
    expect_attribution_exact(inst, r);
    expect_witnesses_valid(r);
    ++seed;
  }
}

TEST(Provenance, EveryDummyTransferHasAWitness) {
  if (!prov::kRecorderCompiled) GTEST_SKIP() << "built with RTSP_OBS=OFF";
  // Fig. 1's circular deadlock guarantees dummy transfers with a witness
  // that names the deleted former holders.
  const Instance inst = testutil::fig1_instance();
  const Recorded r = solve_recorded(inst, "GOLCF", 1);
  ASSERT_GT(r.h.dummy_transfer_count(), 0u);
  expect_witnesses_valid(r);
  for (std::size_t u = 0; u < r.h.size(); ++u) {
    if (!r.h[u].is_dummy_transfer()) continue;
    const prov::RootCause& rc = r.p.root_causes[r.p.entries[u].root_cause];
    EXPECT_EQ(rc.kind, prov::RootCause::Kind::CapacityDeadlock);
    EXPECT_EQ(rc.free_space.size(), inst.model.num_servers());
  }
}

TEST(Provenance, DummiesOnPaperWorkloadAllExplained) {
  if (!prov::kRecorderCompiled) GTEST_SKIP() << "built with RTSP_OBS=OFF";
  // replicas=1 with zero overlap produces plenty of dummies (Fig. 4's
  // leftmost point).
  Rng rng(3);
  const Instance inst = make_equal_size_instance(small_setup(), 1, rng);
  const Recorded r = solve_recorded(inst, "GOLCF+H1+H2+OP1", 9);
  expect_attribution_exact(inst, r);
  expect_witnesses_valid(r);
}

TEST(Provenance, RecordingDoesNotPerturbSchedules) {
  if (!prov::kRecorderCompiled) GTEST_SKIP() << "built with RTSP_OBS=OFF";
  Rng rng_a(17);
  const Instance inst = make_equal_size_instance(small_setup(), 2, rng_a);
  for (const char* spec : {"GOLCF+H1+H2+OP1", "RDF+SA"}) {
    SCOPED_TRACE(spec);
    const Pipeline pipeline = make_pipeline(spec);
    Rng rng_plain(33);
    const Schedule plain =
        pipeline.run(inst.model, inst.x_old, inst.x_new, rng_plain);
    Rng rng_rec(33);
    prov::Scope scope(inst.model, inst.x_old);
    const Schedule recorded =
        pipeline.run(inst.model, inst.x_old, inst.x_new, rng_rec);
    scope.finalize(recorded);
    EXPECT_EQ(plain, recorded);
  }
}

TEST(Provenance, ResetPathImproversAttributeExactly) {
  if (!prov::kRecorderCompiled) GTEST_SKIP() << "built with RTSP_OBS=OFF";
  // SA has no incremental loop: the default improve_incremental adapter
  // replaces the evaluator's base wholesale, exercising Recorder::on_reset.
  Rng rng(41);
  const Instance inst = make_equal_size_instance(small_setup(), 2, rng);
  const Recorded r = solve_recorded(inst, "GOLCF+SA", 13);
  expect_attribution_exact(inst, r);
  expect_witnesses_valid(r);
  const auto v = Validator::validate(inst.model, inst.x_old, inst.x_new, r.h);
  EXPECT_TRUE(v.valid) << v.to_string();
}

TEST(Provenance, FixpointRoundsAreRecorded) {
  if (!prov::kRecorderCompiled) GTEST_SKIP() << "built with RTSP_OBS=OFF";
  Rng rng(19);
  const Instance inst = make_equal_size_instance(small_setup(), 1, rng);
  const Recorded r = solve_recorded(inst, "GOLCF+H1H2FIX", 23);
  expect_attribution_exact(inst, r);
  // Entries rewritten inside the fixpoint chain carry the fixpoint round
  // they were adopted in.
  bool saw_round = false;
  for (const auto& e : r.p.entries) {
    if (e.rewrite != prov::kNone && e.round >= 0) saw_round = true;
  }
  for (const auto& rw : r.p.rewrites) {
    EXPECT_LT(rw.stage, r.p.stages.size());
    EXPECT_GE(rw.rank, 1u);
  }
  if (!r.p.rewrites.empty()) {
    EXPECT_TRUE(saw_round);
  }
}

TEST(Provenance, AttributeScheduleOnEmptyProvenance) {
  const Instance inst = testutil::fig3_instance();
  const prov::Provenance empty;
  const auto att = prov::attribute_schedule(inst.model, Schedule{}, empty);
  EXPECT_EQ(att.total_actions, 0u);
  EXPECT_EQ(att.total_cost, 0);
  EXPECT_TRUE(att.stages.empty());
}

TEST(Provenance, ScopeWithoutRecorderCompiledIsInert) {
  // Valid in both build modes: with RTSP_OBS=OFF this is the whole
  // contract; with it ON it just checks finalize() consumes the recorder.
  const Instance inst = testutil::fig3_instance();
  prov::Scope scope(inst.model, inst.x_old);
  const prov::Provenance p = scope.finalize(Schedule{});
  if (!prov::kRecorderCompiled) {
    EXPECT_TRUE(p.empty());
  }
}

}  // namespace
}  // namespace rtsp
