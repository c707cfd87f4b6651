#include "core/incremental.hpp"

#include <algorithm>
#include <cmath>

#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "support/assert.hpp"

namespace rtsp {

namespace {

std::size_t default_spacing(std::size_t length) {
  const auto root = static_cast<std::size_t>(std::sqrt(static_cast<double>(length)));
  return std::max<std::size_t>(1, root);
}

}  // namespace

PrefixStateCache::PrefixStateCache(const SystemModel& model,
                                   const ReplicationMatrix& x_old,
                                   const Schedule& base, std::size_t spacing)
    : spacing_(spacing ? spacing : default_spacing(base.size())) {
  checkpoints_.emplace_back(model, x_old);
  refresh(base, 0);
}

void PrefixStateCache::state_before(const Schedule& base, std::size_t pos,
                                    ExecutionState& out) const {
  const std::size_t start = checkpoint_before(pos, out);
  OBS_COUNT_N(kObsIncrReplayedActions, pos - start);
  for (std::size_t u = start; u < pos; ++u) {
    out.apply_lenient(base[u]);
  }
}

std::size_t PrefixStateCache::checkpoint_before(std::size_t pos,
                                               ExecutionState& out) const {
  OBS_COUNT(kObsIncrCheckpointCopies);
  const std::size_t j = std::min(pos / spacing_, checkpoints_.size() - 1);
  out = checkpoints_[j];
  return j * spacing_;
}

void PrefixStateCache::refresh(const Schedule& base, std::size_t from) {
  const std::size_t total = base.size() / spacing_ + 1;
  // First checkpoint whose prefix may have changed.
  std::size_t j = std::min({from / spacing_ + 1, checkpoints_.size(), total});
  while (checkpoints_.size() > total) checkpoints_.pop_back();
  if (j >= total) return;
  ExecutionState state = checkpoints_[j - 1];
  const std::size_t last_pos = (total - 1) * spacing_;
  for (std::size_t u = (j - 1) * spacing_; u < last_pos; ++u) {
    state.apply_lenient(base[u]);
    if ((u + 1) % spacing_ == 0) {
      const std::size_t idx = (u + 1) / spacing_;
      if (idx < checkpoints_.size()) {
        checkpoints_[idx] = state;
      } else {
        checkpoints_.push_back(state);
      }
    }
  }
}

IncrementalEvaluator::IncrementalEvaluator(const SystemModel& model,
                                           const ReplicationMatrix& x_old,
                                           const ReplicationMatrix& x_new,
                                           Schedule base)
    : model_(model),
      x_old_(x_old),
      x_new_(x_new),
      base_(std::move(base)),
      cache_(model, x_old, base_),
      scratch_(model, x_old) {
  rebuild_summary();
}

void IncrementalEvaluator::rebuild_summary() {
  cost_ = 0;
  dummies_ = 0;
  ExecutionState state(model_, x_old_);
  bool actions_ok = true;
  for (const Action& a : base_) {
    cost_ += action_cost(model_, a);
    if (a.is_dummy_transfer()) ++dummies_;
    if (state.try_apply(a) != ActionError::None) actions_ok = false;
  }
  base_valid_ = actions_ok && state.placement() == x_new_;
}

IncrementalEvaluator::Metrics IncrementalEvaluator::metrics(
    const Schedule& cand, std::size_t prefix_hint, std::size_t suffix_hint) const {
  OBS_COUNT(kObsIncrCandidates);
  const std::size_t bsize = base_.size();
  const std::size_t csize = cand.size();
  const std::size_t min_size = std::min(bsize, csize);
  std::size_t suffix = std::min(suffix_hint, min_size);
  std::size_t prefix = std::min(prefix_hint, min_size - suffix);
  // Hints are sound lower bounds; tighten them to the minimal diff window so
  // delta loops and checkpoint refreshes touch as little as possible.
  while (prefix + suffix < min_size && cand[prefix] == base_[prefix]) ++prefix;
  while (prefix + suffix < min_size &&
         cand[csize - 1 - suffix] == base_[bsize - 1 - suffix]) {
    ++suffix;
  }

  Metrics m;
  m.prefix = prefix;
  m.base_suffix_start = bsize - suffix;
  m.cand_suffix_start = csize - suffix;
  if (meter_ != nullptr) {
    meter_->charge(1 + (m.base_suffix_start - prefix) +
                   (m.cand_suffix_start - prefix));
  }
  m.cost = cost_;
  std::size_t dummies = dummies_;
  for (std::size_t u = prefix; u < m.base_suffix_start; ++u) {
    m.cost -= action_cost(model_, base_[u]);
    if (base_[u].is_dummy_transfer()) --dummies;
  }
  for (std::size_t u = prefix; u < m.cand_suffix_start; ++u) {
    m.cost += action_cost(model_, cand[u]);
    if (cand[u].is_dummy_transfer()) ++dummies;
  }
  m.dummy_transfers = dummies;
  return m;
}

bool IncrementalEvaluator::is_valid(const Schedule& cand, const Metrics& m) {
  OBS_COUNT(kObsIncrValidations);
  if (!base_valid_) {
    // Degenerate: without a valid base there is no suffix to converge with.
    OBS_COUNT(kObsIncrFullReplays);
    OBS_COUNT_N(kObsIncrReplayedActions, cand.size());
    if (meter_ != nullptr) meter_->charge(cand.size());
    ExecutionState state(model_, x_old_);
    for (const Action& a : cand) {
      if (state.try_apply(a) != ActionError::None) return false;
    }
    return state.placement() == x_new_;
  }
  if (m.prefix == cand.size() && cand.size() == base_.size()) return true;

  ExecutionState& cs = scratch_.cand_state;
  ExecutionState& bs = scratch_.base_state;
  // Shared prefix: replay base actions (identical to the candidate's, and
  // valid because the base is) up from the nearest checkpoint.
  const std::size_t cp = cache_.checkpoint_before(m.prefix, cs);
  OBS_COUNT_N(kObsIncrReplayedActions,
              (m.prefix - cp) + (m.cand_suffix_start - m.prefix) +
                  (m.base_suffix_start - m.prefix));
  if (meter_ != nullptr) {
    meter_->charge((m.prefix - cp) + (m.cand_suffix_start - m.prefix) +
                   (m.base_suffix_start - m.prefix));
  }
  for (std::size_t u = cp; u < m.prefix; ++u) {
    cs.apply_lenient(base_[u]);
  }
  bs = cs;

  // Candidate edit window: the only actions whose validity is in question.
  std::size_t p = m.prefix;
  for (; p < m.cand_suffix_start; ++p) {
    if (cs.try_apply(cand[p]) != ActionError::None) return false;
  }
  // Bring the base execution to the aligned suffix position.
  for (std::size_t q = m.prefix; q < m.base_suffix_start; ++q) {
    bs.apply_lenient(base_[q]);
  }

  // Aligned lockstep over the shared tail. Once the two states coincide the
  // remaining identical actions replay identically, so the candidate
  // inherits the base's validity and X_new end state. Convergence typically
  // happens within a few actions of the edit; the exponential backoff keeps
  // the comparison cost logarithmic when it does not.
  std::size_t q = m.base_suffix_start;
  std::size_t step = 0;
  std::size_t next_check = 0;
  std::size_t gap = 1;
  while (p < cand.size()) {
    if (step == next_check) {
      if (cs.placement() == bs.placement()) {
        OBS_COUNT(kObsIncrConvergedEarly);
        OBS_COUNT_N(kObsIncrReplayedActions, 2 * step);
        if (meter_ != nullptr) meter_->charge(2 * step);
        return true;
      }
      next_check += gap;
      gap *= 2;
    }
    if (cs.try_apply(cand[p]) != ActionError::None) {
      OBS_COUNT_N(kObsIncrReplayedActions, 2 * step);
      if (meter_ != nullptr) meter_->charge(2 * step);
      return false;
    }
    bs.apply_lenient(base_[q]);
    ++p;
    ++q;
    ++step;
  }
  OBS_COUNT_N(kObsIncrReplayedActions, 2 * step);
  if (meter_ != nullptr) meter_->charge(2 * step);
  return cs.placement() == x_new_;
}

void IncrementalEvaluator::adopt(Schedule cand, const Metrics& m) {
  OBS_COUNT(kObsIncrAdopts);
  if (prov::Recorder* rec = prov::current()) {
    rec->on_adopt(base_, cand, m.prefix, m.base_suffix_start, m.cand_suffix_start,
                  m.cost - cost_,
                  static_cast<std::int64_t>(m.dummy_transfers) -
                      static_cast<std::int64_t>(dummies_));
  }
  cost_ = m.cost;
  dummies_ = m.dummy_transfers;
  base_ = std::move(cand);
  base_valid_ = true;  // adopt() is only reachable through is_valid()
  cache_.refresh(base_, m.prefix);
}

void IncrementalEvaluator::reset(Schedule base) {
  if (prov::Recorder* rec = prov::current()) rec->on_reset(base);
  base_ = std::move(base);
  rebuild_summary();
  cache_ = PrefixStateCache(model_, x_old_, base_);
}

}  // namespace rtsp
