// GOLCF's heap-based victim choice against a reference that rescans every
// superfluous candidate on each eviction (the eq. 4 argmin, ties on the
// lowest object id). The two must emit identical schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/validator.hpp"
#include "heuristics/builder_common.hpp"
#include "heuristics/golcf.hpp"
#include "obs/obs.hpp"
#include "test_helpers.hpp"
#include "workload/paper_setup.hpp"
#include "workload/scale_instance.hpp"

namespace rtsp {
namespace {

using testutil::matrix_model;

/// GOLCF with the full-rescan eviction rule.
Schedule reference_golcf(const SystemModel& model, const ReplicationMatrix& x_old,
                         const ReplicationMatrix& x_new, Rng& rng) {
  const PlacementDelta delta(x_old, x_new);
  ExecutionState state(model, x_old);
  SuperfluousTracker tracker(model.num_servers(), delta);
  Schedule h;
  std::vector<std::vector<ServerId>> pending(model.num_objects());
  for (const Replica& r : delta.outstanding()) pending[r.object].push_back(r.server);
  std::vector<ObjectId> object_order;
  for (ObjectId k = 0; k < model.num_objects(); ++k) {
    if (!pending[k].empty()) object_order.push_back(k);
  }
  rng.shuffle(object_order);

  for (ObjectId k : object_order) {
    auto& dests = pending[k];
    while (!dests.empty()) {
      std::size_t best_idx = 0;
      LinkCost best_cost = std::numeric_limits<LinkCost>::max();
      for (std::size_t idx = 0; idx < dests.size(); ++idx) {
        const LinkCost c = model.nearest_source_cost(dests[idx], k, state.placement());
        if (c < best_cost || (c == best_cost && dests[idx] < dests[best_idx])) {
          best_cost = c;
          best_idx = idx;
        }
      }
      const ServerId i = dests[best_idx];
      dests.erase(dests.begin() + static_cast<std::ptrdiff_t>(best_idx));
      while (state.free_space(i) < model.object_size(k)) {
        ObjectId victim = std::numeric_limits<ObjectId>::max();
        Cost best = std::numeric_limits<Cost>::max();
        for (ObjectId cand : tracker.on(i)) {
          const Cost b = golcf_benefit(state, i, cand, pending[cand]);
          if (b < best || (b == best && cand < victim)) {
            best = b;
            victim = cand;
          }
        }
        apply_and_push(state, h, Action::remove(i, victim));
        tracker.remove(i, victim);
      }
      apply_and_push(state, h, nearest_transfer(state, i, k));
    }
  }
  std::vector<Replica> leftovers = tracker.remaining();
  rng.shuffle(leftovers);
  for (const Replica& r : leftovers) {
    apply_and_push(state, h, Action::remove(r.server, r.object));
  }
  return h;
}

/// Builds with GOLCF and the reference from the same seed; both must agree
/// action for action and be valid.
void expect_matches_reference(const Instance& inst, std::uint64_t seed) {
  Rng a(seed);
  Rng b(seed);
  const Schedule got = GolcfBuilder().build(inst.model, inst.x_old, inst.x_new, a);
  const Schedule want = reference_golcf(inst.model, inst.x_old, inst.x_new, b);
  ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
  for (std::size_t u = 0; u < got.size(); ++u) {
    ASSERT_TRUE(got[u] == want[u]) << "seed " << seed << " diverges at " << u
                                   << ": " << got[u].to_string() << " vs "
                                   << want[u].to_string();
  }
  EXPECT_TRUE(Validator::is_valid(inst.model, inst.x_old, inst.x_new, got));
}

ReplicationMatrix to_sparse(const ReplicationMatrix& x) {
  ReplicationMatrix out(x.num_servers(), x.num_objects(),
                        ReplicationMatrix::Store::kSparse);
  for (ServerId i = 0; i < x.num_servers(); ++i) {
    x.for_each_object(i, [&](ObjectId k) { out.set(i, k); });
  }
  return out;
}

Instance scale_instance(std::size_t servers, std::size_t objects,
                        std::size_t replicas, double slack, std::uint64_t seed) {
  ScaleInstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.replicas_per_object = replicas;
  spec.capacity_slack = slack;
  Rng rng(seed);
  return make_scale_instance(spec, rng);
}

TEST(GolcfHeaps, MatchesRescanOnPaperInstances) {
  PaperSetup setup;
  setup.objects = 400;
  for (std::uint64_t seed : {1, 2}) {
    Rng rng(seed);
    expect_matches_reference(make_equal_size_instance(setup, 3, rng), seed);
    expect_matches_reference(make_uniform_size_instance(setup, 2, rng), seed);
    expect_matches_reference(make_extra_capacity_instance(setup, 2, 10, rng), seed);
  }
}

TEST(GolcfHeaps, MatchesRescanOnRandomInstances) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    RandomInstanceSpec spec;
    spec.servers = 10;
    spec.objects = 40;
    spec.zero_overlap = seed % 2 == 0;
    expect_matches_reference(random_instance(spec, rng), seed);
  }
}

TEST(GolcfHeaps, MatchesRescanAtScaleDenseAndSparse) {
  const Instance dense = scale_instance(100, 2500, 2, 1.0, 7);
  ASSERT_TRUE(dense.x_old.is_dense());
  expect_matches_reference(dense, 1);
  const Instance sparse{dense.model, to_sparse(dense.x_old), to_sparse(dense.x_new)};
  ASSERT_TRUE(sparse.x_old.is_sparse());
  expect_matches_reference(sparse, 1);
}

TEST(GolcfHeaps, MatchesRescanWhenTheSecondSourceIsTheDummy) {
  // One replica per object and no slack: every benefit is measured against
  // the dummy, and capacity deadlocks force dummy transfers.
  const Instance inst = scale_instance(20, 400, 1, 0.0, 3);
  for (std::uint64_t seed : {1, 2, 3}) expect_matches_reference(inst, seed);
  Rng rng(1);
  const Schedule h = GolcfBuilder().build(inst.model, inst.x_old, inst.x_new, rng);
  EXPECT_GT(h.dummy_transfer_count(), 0u);
}

TEST(GolcfHeaps, EqualBenefitsEvictTheLowestId) {
  // S0 (room for 2) holds superfluous O1 and O2 and must receive O0 from S3.
  // O1 and O2 both await S1, whose nearest source is S0 (cost 1) and second
  // S2 (cost 3): equal benefits 2. When O0 is served first, O1 must go.
  const SystemModel m = matrix_model({2, 2, 2, 1}, {1, 1, 1},
                                     {{0, 1, 5, 1},
                                      {1, 0, 3, 5},
                                      {5, 3, 0, 5},
                                      {1, 5, 5, 0}});
  const auto x_old = ReplicationMatrix::from_pairs(
      4, 3, {{0, 2}, {0, 1}, {2, 1}, {2, 2}, {3, 0}});
  const auto x_new = ReplicationMatrix::from_pairs(
      4, 3, {{0, 0}, {1, 1}, {1, 2}, {2, 1}, {2, 2}});
  const Instance inst{m, x_old, x_new};
  int served_first = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    expect_matches_reference(inst, seed);
    Rng rng(seed);
    const Schedule h = GolcfBuilder().build(m, x_old, x_new, rng);
    if (h[0].is_delete() && h[1] == Action::transfer(0, 0, 3)) {
      ++served_first;
      EXPECT_EQ(h[0], Action::remove(0, 1)) << "seed " << seed;
    }
  }
  EXPECT_GT(served_first, 0);
}

TEST(GolcfHeaps, ReratesEntriesWhenACandidateLosesAReplicaElsewhere) {
  // S0 (room for 3) holds superfluous O0, O1, O2; S1 (room for 1) holds
  // superfluous O0. O3 and O5 must land on S0, O4 on S1; S4 sources them.
  //   B(S0,O0) = 2-1 = 1 while S1 still holds O0 (S2's second source),
  //            = 10-1 = 9 once S1 evicts it (the dummy becomes second);
  //   B(S0,O1) = 6-1 = 5 (S3's second source is S4); B(S0,O2) = 0.
  // Serving O3, O4, O5 in that order builds S0's heap (evicting O2), then
  // evicts O0 on S1, then must evict O1 from S0: the entry O0 had when
  // S0's heap was built (1) is stale.
  const SystemModel m = matrix_model({3, 1, 1, 1, 6}, {1, 1, 1, 1, 1, 1},
                                     {{0, 5, 1, 1, 1},
                                      {5, 0, 2, 6, 1},
                                      {1, 2, 0, 9, 9},
                                      {1, 6, 9, 0, 6},
                                      {1, 1, 9, 6, 0}});
  const auto x_old = ReplicationMatrix::from_pairs(
      5, 6, {{0, 0}, {0, 1}, {0, 2}, {1, 0}, {4, 1}, {4, 2}, {4, 3}, {4, 4}, {4, 5}});
  const auto x_new = ReplicationMatrix::from_pairs(
      5, 6, {{2, 0}, {3, 1}, {4, 1}, {4, 2}, {0, 3}, {1, 4}, {0, 5},
             {4, 3}, {4, 4}, {4, 5}});
  const Instance inst{m, x_old, x_new};
  const std::vector<Action> prefix{Action::remove(0, 2), Action::transfer(0, 3, 4),
                                  Action::remove(1, 0), Action::transfer(1, 4, 4),
                                  Action::remove(0, 1), Action::transfer(0, 5, 4)};
  int served_in_order = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    expect_matches_reference(inst, seed);
    Rng rng(seed);
    const Schedule h = GolcfBuilder().build(m, x_old, x_new, rng);
    if (h.size() >= prefix.size() &&
        std::equal(prefix.begin(), prefix.end(), h.begin())) {
      ++served_in_order;
    }
  }
  EXPECT_GT(served_in_order, 0);
}

TEST(GolcfHeaps, BenefitEvaluationCountIsPinned) {
#if !RTSP_OBS_ENABLED
  GTEST_SKIP() << "counters need an obs-enabled build";
#else
  const Instance inst = scale_instance(100, 2500, 2, 1.0, 1);
  obs::set_enabled(true);
  obs::MetricsRegistry::instance().reset();
  Rng rng(1);
  const Schedule h = GolcfBuilder().build(inst.model, inst.x_old, inst.x_new, rng);
  const std::uint64_t evals =
      obs::MetricsRegistry::instance().counter_value("golcf.benefit_evals");
  obs::set_enabled(false);
  EXPECT_EQ(evals, 10520u) << "schedule of " << h.size() << " actions";
#endif
}

}  // namespace
}  // namespace rtsp
