#include "heuristics/op1.hpp"

#include <algorithm>

#include "core/cost_model.hpp"
#include "heuristics/surgery.hpp"
#include "obs/obs.hpp"

namespace rtsp {

namespace {

class Op1Run {
 public:
  Op1Run(IncrementalEvaluator& eval, const Op1Options& options)
      : eval_(eval),
        model_(eval.model()),
        x_old_(eval.x_old()),
        options_(options),
        prefix_state_(model_, x_old_),
        holds_(model_.num_servers(), 0) {}

  void run() {
    build_index(eval_.schedule());
    for (ObjectId k = 0; k < model_.num_objects(); ++k) {
      if (transfers_[k].size() >= 2) round_objects_.push_back(k);
    }
    if (round_objects_.empty()) return;

    // OP1 edits only move actions and change transfer sources, so every
    // object's transfer count — and therefore the round list — is invariant
    // for the whole run.
    std::size_t changes = 0;
    std::size_t round = 0;
    ObjectId resume_object = round_objects_.front();
    while (true) {
      OBS_SPAN("op1.round", "round=" + std::to_string(round));
      prov::note_round(static_cast<int>(round));
      ++round;
      std::size_t start = 0;
      if (options_.restart == Op1Options::Restart::Continue) {
        // Resume at the object adopted last round. Identified by ObjectId,
        // not list index, so the cursor cannot go stale even if the round
        // list were ever recomputed.
        const auto it = std::lower_bound(round_objects_.begin(), round_objects_.end(),
                                         resume_object);
        if (it != round_objects_.end()) {
          start = static_cast<std::size_t>(it - round_objects_.begin());
        }
      }
      bool adopted = false;
      for (std::size_t step = 0; step < round_objects_.size(); ++step) {
        // Anytime budget poll between objects: an object always screens to
        // completion, so in tick mode the stop point is deterministic.
        if (eval_.out_of_budget()) break;
        const ObjectId k = round_objects_[(start + step) % round_objects_.size()];
        if (!screen_object(k)) continue;
        OBS_COUNT("op1.adopted");
        eval_.adopt(cand_, m_);  // copy; the candidate buffer stays warm
        update_index(eval_.schedule(), m_.prefix, m_.cand_suffix_start);
        resume_object = k;
        adopted = true;
        break;
      }
      if (!adopted) break;
      if (options_.max_changes != 0 && ++changes >= options_.max_changes) break;
    }
  }

 private:
  void build_index(const Schedule& h) {
    events_.assign(model_.num_objects(), {});
    transfers_.assign(model_.num_objects(), {});
    win_events_.resize(model_.num_objects());
    win_transfers_.resize(model_.num_objects());
    for (std::size_t p = 0; p < h.size(); ++p) {
      events_[h[p].object].push_back(p);
      if (h[p].is_transfer()) transfers_[h[p].object].push_back(p);
    }
  }

  /// Splices the base's new window [lo, hi) into the per-object position
  /// index. Positions outside the window are unchanged (adopted candidates
  /// are size-preserving), so only entries inside it are replaced.
  void update_index(const Schedule& h, std::size_t lo, std::size_t hi) {
    if (lo >= hi) return;
    for (std::size_t p = lo; p < hi; ++p) {
      const Action& a = h[p];
      if (win_events_[a.object].empty()) win_objects_.push_back(a.object);
      win_events_[a.object].push_back(p);
      if (a.is_transfer()) win_transfers_[a.object].push_back(p);
    }
    for (ObjectId k = 0; k < model_.num_objects(); ++k) {
      splice(events_[k], win_events_[k], lo, hi);
      splice(transfers_[k], win_transfers_[k], lo, hi);
    }
    for (ObjectId k : win_objects_) {
      win_events_[k].clear();
      win_transfers_[k].clear();
    }
    win_objects_.clear();
  }

  static void splice(std::vector<std::size_t>& list, const std::vector<std::size_t>& add,
                     std::size_t lo, std::size_t hi) {
    const auto first = std::lower_bound(list.begin(), list.end(), lo);
    const auto last = std::lower_bound(first, list.end(), hi);
    if (first == last && add.empty()) return;
    const auto at = static_cast<std::size_t>(first - list.begin());
    list.erase(first, last);
    list.insert(list.begin() + static_cast<std::ptrdiff_t>(at), add.begin(), add.end());
  }

  /// First improving pair for object `k` in (a, b) scan order. On success
  /// the candidate and its metrics are left in cand_ and m_.
  bool screen_object(ObjectId k) {
    const Schedule& h = eval_.schedule();
    const std::vector<std::size_t>& positions = transfers_[k];
    for (std::size_t a = 0; a + 1 < positions.size(); ++a) {
      for (std::size_t b = a + 1; b < positions.size(); ++b) {
        const std::size_t u = positions[a];
        const std::size_t v = positions[b];
        OBS_COUNT("op1.candidates");
        if (options_.prescreen && estimate_delta(h, k, u, v) >= 0) {
          OBS_COUNT("op1.prescreen_rejects");
          continue;
        }
        EditWindow touched;
        if (!build_candidate(h, u, v, touched)) continue;
        const auto m = eval_.metrics(cand_, touched.lo, cand_.size() - touched.hi);
        if (m.cost >= eval_.cost()) continue;
        if (!eval_.is_valid(cand_, m)) continue;
        m_ = m;
        return true;
      }
    }
    return false;
  }

  /// Optimistic cost change of moving v's transfer before u (negative =
  /// potentially improving). Capacity penalties are ignored here; the exact
  /// candidate cost decides adoption. O(|k's actions|) via the position
  /// index instead of a full-schedule scan.
  Cost estimate_delta(const Schedule& h, ObjectId k, std::size_t u, std::size_t v) {
    const ServerId i = h[v].server;
    if (h[u].server == i) return 0;

    // Replicators of k just before position u: replay only k's actions.
    std::fill(holds_.begin(), holds_.end(), 0);
    x_old_.for_each_replicator(k, [&](ServerId s) { holds_[s] = 1; });
    for (std::size_t p : events_[k]) {
      if (p >= u) break;
      const Action& a = h[p];
      holds_[a.server] = a.is_transfer() ? 1 : 0;
    }
    LinkCost new_src = model_.dummy_link_cost();
    for (ServerId s : model_.neighbors_by_cost(i)) {
      if (holds_[s]) {
        new_src = model_.costs().at(i, s);
        break;
      }
    }
    const LinkCost old_src = model_.source_link_cost(i, h[v].source);
    const Size size = model_.object_size(k);
    Cost delta = size * (new_src - old_src);
    for (std::size_t w : transfers_[k]) {
      if (w < u || w == v) continue;
      const ServerId d = h[w].server;
      if (d == i) continue;
      const LinkCost cur = model_.source_link_cost(d, h[w].source);
      const LinkCost via_i = model_.costs().at(d, i);
      if (via_i < cur) delta -= size * (cur - via_i);
    }
    return delta;
  }

  /// Mechanically constructs the paper's H' in cand_: move v's transfer
  /// before u's enabling deletion run, re-source it, repair capacity (cases
  /// iii/iv) and re-source the object's later transfers that benefit.
  /// Returns false when the capacity repair fails; validity is checked by
  /// the caller. All mutations lie in [insert_point, v]; positions past v
  /// still match the base, so the tail scans walk the position index.
  bool build_candidate(const Schedule& h, std::size_t u, std::size_t v,
                       EditWindow& touched) {
    const ServerId i = h[v].server;
    const ObjectId k = h[v].object;
    if (h[u].server == i) return false;

    // u's enabling deletions: the contiguous run of deletions on S_i'
    // immediately before u (the paper's D_i'k1..kn).
    std::size_t insert_point = u;
    while (insert_point > 0 && h[insert_point - 1].is_delete() &&
           h[insert_point - 1].server == h[u].server) {
      --insert_point;
    }

    cand_ = h;
    move_action_earlier(cand_, v, insert_point, &touched);
    std::size_t t_pos = insert_point;

    // Re-source the moved transfer to the nearest replicator at its new
    // position (the paper's T_ikN(i,k,X^u)). The prefix [0, t_pos) equals
    // the base's, so the state comes from the engine's checkpoint cache.
    eval_.state_before(t_pos, prefix_state_);
    {
      const auto nearest = model_.nearest_replicator(i, k, prefix_state_.placement());
      cand_[t_pos].source = nearest ? *nearest : kDummyServer;
    }

    // Cases (iii)/(iv): make room at S_i by pulling its deletions forward,
    // re-sourcing any orphaned readers to their nearest alternative.
    const auto repair =
        pull_deletions_for_space(model_, x_old_, cand_, t_pos, v,
                                 OrphanPolicy::NearestElseDummy, &touched,
                                 &prefix_state_);
    if (!repair.ok) return false;
    t_pos = repair.t_pos;

    // Later transfers of k switch to the new early replica when cheaper —
    // but only while S_i still holds k (a later deletion of (i, k) bounds
    // the window; H2's temporary replicas make this reachable). The mutated
    // region ends at v; beyond it cand == base, so the index takes over.
    std::size_t bound = cand_.size();
    for (std::size_t p = t_pos + 1; p <= v && p < cand_.size(); ++p) {
      const Action& a = cand_[p];
      if (a.is_delete() && a.server == i && a.object == k) {
        bound = p;
        break;
      }
    }
    if (bound == cand_.size()) {
      for (std::size_t p : events_[k]) {
        if (p <= v) continue;
        if (h[p].is_delete() && h[p].server == i) {
          bound = p;
          break;
        }
      }
    }
    const auto resource = [&](std::size_t p) {
      Action& a = cand_[p];
      if (!a.is_transfer() || a.server == i) return;
      const LinkCost cur = model_.source_link_cost(a.server, a.source);
      const LinkCost via_i = model_.costs().at(a.server, i);
      if (via_i < cur) {
        a.source = i;
        touched.note(p);
      }
    };
    for (std::size_t p = t_pos + 1; p < bound && p <= v; ++p) {
      if (cand_[p].object == k) resource(p);
    }
    for (std::size_t p : events_[k]) {
      if (p <= v) continue;
      if (p >= bound) break;
      resource(p);
    }
    return true;
  }

  IncrementalEvaluator& eval_;
  const SystemModel& model_;
  const ReplicationMatrix& x_old_;
  const Op1Options& options_;

  // Candidate buffers, reused across screens (kept hot across adoptions).
  ExecutionState prefix_state_;
  std::vector<char> holds_;  ///< estimate_delta's replicator mask
  Schedule cand_;
  IncrementalEvaluator::Metrics m_;

  /// Sorted positions of every action / every transfer of each object in
  /// the engine's base schedule, maintained incrementally across adoptions.
  std::vector<std::vector<std::size_t>> events_;
  std::vector<std::vector<std::size_t>> transfers_;
  std::vector<ObjectId> round_objects_;  ///< objects with >= 2 transfers
  // update_index scratch (kept hot across adoptions).
  std::vector<std::vector<std::size_t>> win_events_;
  std::vector<std::vector<std::size_t>> win_transfers_;
  std::vector<ObjectId> win_objects_;
};

}  // namespace

Schedule Op1Improver::improve(const SystemModel& model, const ReplicationMatrix& x_old,
                              const ReplicationMatrix& x_new, Schedule schedule,
                              Rng& rng) const {
  IncrementalEvaluator eval(model, x_old, x_new, std::move(schedule));
  improve_incremental(eval, rng);
  return eval.take_schedule();
}

void Op1Improver::improve_incremental(IncrementalEvaluator& eval, Rng& /*rng*/) const {
  const prov::StageScope stage(prov::StageKind::Improver, name());
  Op1Run(eval, options_).run();
}

}  // namespace rtsp
