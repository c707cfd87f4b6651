#include "heuristics/golcf.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "core/feasibility.hpp"
#include "heuristics/builder_common.hpp"
#include "obs/obs.hpp"

namespace rtsp {

Cost golcf_benefit(const ExecutionState& state, ServerId holder, ObjectId object,
                   const std::vector<ServerId>& pending_destinations) {
  OBS_COUNT("golcf.benefit_evals");
  const SystemModel& model = state.model();
  const ReplicationMatrix& x = state.placement();
  Cost benefit = 0;
  for (ServerId j : pending_destinations) {
    const auto nearest = model.nearest_replicator(j, object, x);
    if (!nearest || *nearest != holder) continue;
    const LinkCost via_holder = model.costs().at(j, holder);
    const LinkCost via_second = model.second_nearest_source_cost(j, object, x);
    benefit += model.object_size(object) * (via_second - via_holder);
  }
  return benefit;
}

namespace {

/// Eviction order for make_space: one lazy min-heap of (benefit, object)
/// per server, built on that server's first eviction.
///
/// B_ik depends only on object k's replica set and pending destinations, so
/// an entry goes stale only when one of those changes. refresh(k) follows
/// every such change before a heap holding k is popped again: it bumps k's
/// version and pushes fresh entries on k's remaining superfluous holders;
/// pops skip entries of an older version. Each live candidate thus has exactly one current entry, and the
/// heap front is the (lowest benefit, lowest id) argmin a full rescan finds.
class BenefitHeaps {
 public:
  BenefitHeaps(const PlacementDelta& delta, std::size_t num_servers,
               std::size_t num_objects)
      : heaps_(num_servers), built_(num_servers, 0),
        version_(num_objects, 0), first_(num_objects + 1, 0) {
    // Initial superfluous holders per object, CSR-packed.
    for (const Replica& r : delta.superfluous()) ++first_[r.object + 1];
    for (std::size_t k = 0; k < num_objects; ++k) first_[k + 1] += first_[k];
    holders_.resize(first_[num_objects]);
    std::vector<std::size_t> next(first_.begin(), first_.end() - 1);
    for (const Replica& r : delta.superfluous()) holders_[next[r.object]++] = r.server;
  }

  /// Cheapest superfluous replica on i; the caller checked there is one.
  ObjectId victim(const ExecutionState& state, const SuperfluousTracker& tracker,
                  ServerId i, const std::vector<std::vector<ServerId>>& pending) {
    auto& heap = heaps_[i];
    if (!built_[i]) {
      built_[i] = 1;
      for (ObjectId k : tracker.on(i)) {
        heap.push_back({golcf_benefit(state, i, k, pending[k]), k, version_[k]});
      }
      std::make_heap(heap.begin(), heap.end(), later);
    }
    for (;;) {
      RTSP_REQUIRE(!heap.empty());
      std::pop_heap(heap.begin(), heap.end(), later);
      const Entry e = heap.back();
      heap.pop_back();
      if (e.version == version_[e.object]) return e.object;
    }
  }

  /// k's replica set or pending list changed: re-rate it on every holder
  /// that still has its superfluous copy and already has a heap. GOLCF
  /// never sends k to a server outside X_new, so a superfluous holder
  /// still holds k exactly when its copy has not been evicted.
  void refresh(const ExecutionState& state, ObjectId k,
               const std::vector<ServerId>& pending_k) {
    const std::uint32_t v = ++version_[k];
    for (std::size_t u = first_[k]; u < first_[k + 1]; ++u) {
      const ServerId h = holders_[u];
      if (!built_[h] || !state.placement().test(h, k)) continue;
      heaps_[h].push_back({golcf_benefit(state, h, k, pending_k), k, v});
      std::push_heap(heaps_[h].begin(), heaps_[h].end(), later);
    }
  }

 private:
  struct Entry {
    Cost benefit;
    ObjectId object;
    std::uint32_t version;
  };
  /// Heap order: the front holds the lowest benefit, ties on the lowest id.
  static bool later(const Entry& a, const Entry& b) {
    return a.benefit != b.benefit ? a.benefit > b.benefit : a.object > b.object;
  }

  std::vector<std::vector<Entry>> heaps_;
  std::vector<char> built_;
  std::vector<std::uint32_t> version_;
  std::vector<std::size_t> first_;
  std::vector<ServerId> holders_;
};

/// Deletes superfluous replicas on `i` in increasing-benefit order until
/// object k fits. `pending` holds, per object, the destinations not yet
/// served this run (used by the benefit computation).
void make_space_by_benefit(ExecutionState& state, SuperfluousTracker& tracker,
                           BenefitHeaps& heaps, Schedule& h, ServerId i,
                           ObjectId k,
                           const std::vector<std::vector<ServerId>>& pending) {
  const Size needed = state.model().object_size(k);
  while (state.free_space(i) < needed) {
    RTSP_REQUIRE_MSG(!tracker.on(i).empty(),
                     "cannot free space on S" << i << " for O" << k);
    const ObjectId victim = heaps.victim(state, tracker, i, pending);
    apply_and_push(state, h, Action::remove(i, victim));
    tracker.remove(i, victim);
    heaps.refresh(state, victim, pending[victim]);
  }
}

}  // namespace

Schedule GolcfBuilder::build(const SystemModel& model, const ReplicationMatrix& x_old,
                             const ReplicationMatrix& x_new, Rng& rng) const {
  RTSP_REQUIRE_MSG(storage_feasible(model, x_new), "X_new exceeds server capacities");
  const prov::StageScope stage(prov::StageKind::Builder, name());
  const PlacementDelta delta(x_old, x_new);
  ExecutionState state(model, x_old);
  SuperfluousTracker tracker(model.num_servers(), delta);
  BenefitHeaps heaps(delta, model.num_servers(), model.num_objects());
  Schedule h;

  // Destinations still awaiting each object.
  std::vector<std::vector<ServerId>> pending(model.num_objects());
  for (const Replica& r : delta.outstanding()) pending[r.object].push_back(r.server);

  std::vector<ObjectId> object_order;
  object_order.reserve(model.num_objects());
  for (ObjectId k = 0; k < model.num_objects(); ++k) {
    if (!pending[k].empty()) object_order.push_back(k);
  }
  rng.shuffle(object_order);

  for (ObjectId k : object_order) {
    auto& dests = pending[k];
    while (!dests.empty()) {
      // Destination with the cheapest current source (ties: lowest id).
      std::size_t best_idx = 0;
      LinkCost best_cost = std::numeric_limits<LinkCost>::max();
      for (std::size_t idx = 0; idx < dests.size(); ++idx) {
        const LinkCost c =
            model.nearest_source_cost(dests[idx], k, state.placement());
        if (c < best_cost || (c == best_cost && dests[idx] < dests[best_idx])) {
          best_cost = c;
          best_idx = idx;
        }
      }
      const ServerId i = dests[best_idx];
      dests.erase(dests.begin() + static_cast<std::ptrdiff_t>(best_idx));
      make_space_by_benefit(state, tracker, heaps, h, i, k, pending);
      apply_and_push(state, h, nearest_transfer(state, i, k));
    }
    // Evictions while serving k happen only on k's destinations, which never
    // hold a superfluous k, so k's entries are consulted (and refreshed) only
    // once its destinations are all served.
    heaps.refresh(state, k, dests);
  }

  std::vector<Replica> leftovers = tracker.remaining();
  rng.shuffle(leftovers);
  for (const Replica& r : leftovers) {
    apply_and_push(state, h, Action::remove(r.server, r.object));
  }
  return h;
}

}  // namespace rtsp
