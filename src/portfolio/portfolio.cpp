#include "portfolio/portfolio.hpp"

#include <algorithm>
#include <future>
#include <mutex>
#include <string_view>
#include <utility>

#include "core/feasibility.hpp"
#include "core/incremental.hpp"
#include "heuristics/registry.hpp"
#include "obs/introspect.hpp"
#include "obs/obs.hpp"
#include "obs/provenance.hpp"
#include "support/assert.hpp"
#include "support/thread_pool.hpp"

namespace rtsp {

namespace {

/// FNV-1a over the spec string: candidate rng streams are keyed by WHAT is
/// raced, not by roster position, so a pipeline replays identically whether
/// it runs inside the portfolio or alone via run_pipeline_budgeted().
std::uint64_t stable_hash(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Strict total order over incumbent offers. (cost, dummies) is the quality
/// ordering; (candidate, stage) breaks ties deterministically, so the final
/// incumbent does not depend on the order offers arrive in.
struct OfferKey {
  Cost cost = 0;
  std::size_t dummies = 0;
  std::size_t candidate = 0;
  std::size_t stage = 0;

  bool operator<(const OfferKey& o) const {
    if (cost != o.cost) return cost < o.cost;
    if (dummies != o.dummies) return dummies < o.dummies;
    if (candidate != o.candidate) return candidate < o.candidate;
    return stage < o.stage;
  }
};

struct Incumbent {
  std::mutex mu;
  bool has = false;
  OfferKey key;
  Schedule best;
  std::size_t offers = 0;

  void offer(const Schedule& schedule, const OfferKey& k) {
    const std::lock_guard<std::mutex> lock(mu);
    ++offers;
    if (!has || k < key) {
      has = true;
      key = k;
      best = schedule;
      // Swap count and published incumbent depend on arrival interleaving:
      // observability only, never part of the deterministic result (the
      // final incumbent is interleaving-independent by the total order).
      OBS_COUNT("portfolio.incumbent_swaps");
      OBS_GAUGE_SET("portfolio.incumbent_cost", k.cost);
      OBS_GAUGE_SET("portfolio.incumbent_dummies", k.dummies);
      OBS_PROGRESS(set_incumbent(static_cast<std::int64_t>(k.cost),
                                 static_cast<std::int64_t>(k.dummies)));
    }
  }
};

using OfferFn =
    std::function<void(const Schedule&, Cost, std::size_t, std::size_t)>;

/// Runs one pipeline under its own meter, offering the schedule after the
/// build and after every improver stage. Every improver polls the meter at
/// deterministic points, so in tick mode the truncation is reproducible.
BudgetedRun run_candidate(const SystemModel& model, const ReplicationMatrix& x_old,
                          const ReplicationMatrix& x_new, const Pipeline& pipe,
                          Rng rng, const Budget& budget,
                          WorkMeter::Clock::time_point start,
                          const OfferFn& offer) {
  WorkMeter meter;
  budget.arm(meter, start);

  Schedule h = pipe.builder().build(model, x_old, x_new, rng);
  // The builders are not metered internally; their work is proportional to
  // the schedule they emit.
  meter.charge(h.size() + 1);
  std::size_t stage = 0;
  if (offer) {
    offer(h, schedule_cost(model, h), h.dummy_transfer_count(), stage);
  }

  BudgetedRun out;
  if (pipe.improvers().empty()) {
    out.cost = schedule_cost(model, h);
    out.dummy_transfers = h.dummy_transfer_count();
    out.schedule = std::move(h);
    out.ticks_used = meter.ticks();
    out.completed = true;
    return out;
  }

  IncrementalEvaluator eval(model, x_old, x_new, std::move(h));
  eval.set_meter(&meter);
  bool truncated = false;
  for (const auto& imp : pipe.improvers()) {
    if (meter.exhausted()) {
      truncated = true;
      break;
    }
    imp->improve_incremental(eval, rng);
    ++stage;
    if (offer) offer(eval.schedule(), eval.cost(), eval.dummy_transfers(), stage);
  }
  out.cost = eval.cost();
  out.dummy_transfers = eval.dummy_transfers();
  out.ticks_used = meter.ticks();
  out.completed = !truncated && !meter.exhausted();
  eval.set_meter(nullptr);
  out.schedule = eval.take_schedule();
  return out;
}

}  // namespace

std::vector<std::string> default_portfolio_algorithms() {
  return {
      "GOLCF+H1+H2+OP1",    // the paper's flagship chain
      "AR+H1+H2+OP1",       // randomized seed, diversification
      "GOLCF+H1H2FIX+OP1",  // dummy-fixpoint variant
      "GOLCF+SA",           // stochastic baseline
  };
}

BudgetedRun run_pipeline_budgeted(const SystemModel& model,
                                  const ReplicationMatrix& x_old,
                                  const ReplicationMatrix& x_new,
                                  const std::string& spec, std::uint64_t seed,
                                  const Budget& budget) {
  const Pipeline pipe = make_pipeline(spec);
  Rng rng(mix64(seed, stable_hash(spec)));
  return run_candidate(model, x_old, x_new, pipe, std::move(rng), budget,
                       WorkMeter::Clock::now(), {});
}

PortfolioResult solve_portfolio(const SystemModel& model,
                                const ReplicationMatrix& x_old,
                                const ReplicationMatrix& x_new, std::uint64_t seed,
                                const PortfolioOptions& options) {
  const auto start = WorkMeter::Clock::now();
  const std::vector<std::string> algos = options.algorithms.empty()
                                             ? default_portfolio_algorithms()
                                             : options.algorithms;
  // Parse every spec before any work so an unknown name fails fast.
  std::vector<Pipeline> pipes;
  pipes.reserve(algos.size());
  for (const std::string& spec : algos) pipes.push_back(make_pipeline(spec));

  // The race reads both placements from every pool thread; a sparse store
  // compacts its dirty server lists lazily inside const reads, so settle
  // them here, before the threads start (core/sparse_index.hpp).
  x_old.prepare_shared_reads();
  x_new.prepare_shared_reads();

  Incumbent incumbent;
  std::vector<BudgetedRun> runs(algos.size());
  OBS_PROGRESS(set_stage("portfolio.race"));
  OBS_PROGRESS(set_ticks(0, options.budget.ticks));
  {
    OBS_SPAN("portfolio.race");
    ThreadPool pool(options.threads);
    std::vector<std::future<void>> futures;
    futures.reserve(algos.size());
    for (std::size_t i = 0; i < algos.size(); ++i) {
      futures.push_back(pool.submit([&, i] {
        OBS_SPAN("portfolio.candidate");
        OBS_COUNT("portfolio.candidates");
        Rng rng(mix64(seed, stable_hash(algos[i])));
        runs[i] = run_candidate(
            model, x_old, x_new, pipes[i], std::move(rng), options.budget, start,
            [&](const Schedule& s, Cost c, std::size_t dummies, std::size_t stage) {
              incumbent.offer(s, OfferKey{c, dummies, i, stage});
            });
      }));
    }
    for (auto& f : futures) f.get();
  }

  PortfolioResult result;
  result.lower_bound = cost_lower_bound(model, x_old, x_new);
  result.candidates.reserve(algos.size());
  for (std::size_t i = 0; i < algos.size(); ++i) {
    result.candidates.push_back(CandidateOutcome{algos[i], runs[i].cost,
                                                 runs[i].dummy_transfers,
                                                 runs[i].ticks_used,
                                                 runs[i].completed});
    result.race_ticks = std::max(result.race_ticks, runs[i].ticks_used);
  }
  RTSP_REQUIRE(incumbent.has);
  result.incumbent_offers = incumbent.offers;
  result.winner = algos[incumbent.key.candidate];
  result.race_cost = incumbent.key.cost;
  OBS_GAUGE_SET("portfolio.lower_bound", result.lower_bound);
  OBS_PROGRESS(set_lower_bound(static_cast<std::int64_t>(result.lower_bound)));
  OBS_PROGRESS(set_ticks(result.race_ticks, options.budget.ticks));
  OBS_LOG_INFO("portfolio race finished",
               obs::log_field("winner", result.winner),
               obs::log_field("race_cost",
                              static_cast<std::int64_t>(result.race_cost)),
               obs::log_field("offers", result.incumbent_offers),
               obs::log_field("race_ticks", result.race_ticks));
  Schedule best = std::move(incumbent.best);

  // Attribute the delivered actions to the race result so `rtsp explain`
  // maps them to a PORTFOLIO:<algo> builder stage; the raced candidates ran
  // on pool threads where no recorder is armed.
  {
    const prov::StageScope stage(prov::StageKind::Builder,
                                 "PORTFOLIO:" + result.winner);
    for (const Action& a : best) prov::note_emit(a);
  }

  IncrementalEvaluator eval(model, x_old, x_new, std::move(best));
  // LNS budget: the virtual time left on the winner's worker thread (its
  // candidate finished early — that worker keeps polishing the incumbent
  // until its own deadline T), or whatever remains until the shared
  // absolute wall deadline. Deterministic because the winner is.
  const std::uint64_t winner_ticks = runs[incumbent.key.candidate].ticks_used;
  WorkMeter lns_meter;
  bool lns_possible = options.lns_enabled;
  if (options.budget.ticks > 0) {
    if (options.budget.ticks > winner_ticks) {
      lns_meter.set_tick_limit(options.budget.ticks - winner_ticks);
    } else {
      lns_possible = false;
    }
  }
  if (options.budget.wall_ms > 0.0) {
    Budget wall_only;
    wall_only.wall_ms = options.budget.wall_ms;
    wall_only.arm(lns_meter, start);
  }
  if (lns_possible) {
    OBS_PROGRESS(set_stage("portfolio.lns"));
    eval.set_meter(&lns_meter);
    Rng lns_rng(mix64(seed, stable_hash("LNS")));
    result.lns = run_lns(eval, options.lns, lns_rng, result.lower_bound);
    eval.set_meter(nullptr);
  }

  result.cost = eval.cost();
  result.dummy_transfers = eval.dummy_transfers();
  OBS_PROGRESS(set_stage("portfolio.done"));
  OBS_PROGRESS(set_incumbent(static_cast<std::int64_t>(result.cost),
                             static_cast<std::int64_t>(result.dummy_transfers)));
  OBS_LOG_INFO("portfolio solve done",
               obs::log_field("cost", static_cast<std::int64_t>(result.cost)),
               obs::log_field("dummy_transfers", result.dummy_transfers),
               obs::log_field("lower_bound",
                              static_cast<std::int64_t>(result.lower_bound)));
  result.schedule = eval.take_schedule();
  return result;
}

}  // namespace rtsp
