#include "cli/commands.hpp"

#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "core/cost_model.hpp"
#include "core/feasibility.hpp"
#include "core/schedule_stats.hpp"
#include "core/transfer_graph.hpp"
#include "core/validator.hpp"
#include "daemon/serve.hpp"
#include "exact/branch_and_bound.hpp"
#include "exec/executor.hpp"
#include "extension/deadline.hpp"
#include "extension/makespan.hpp"
#include "extension/phases.hpp"
#include "heuristics/registry.hpp"
#include "io/dot_export.hpp"
#include "io/epoch_io.hpp"
#include "io/fault_spec_io.hpp"
#include "io/instance_binary_io.hpp"
#include "io/instance_io.hpp"
#include "io/json_export.hpp"
#include "io/provenance_io.hpp"
#include "io/journal_io.hpp"
#include "io/schedule_io.hpp"
#include "io/timeline_export.hpp"
#include "cli/report.hpp"
#include "obs/journal.hpp"
#include "obs/obs.hpp"
#include "portfolio/portfolio.hpp"
#include "obs/provenance.hpp"
#include "obs/sampler.hpp"
#include "obs/session.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"
#include "support/csv.hpp"
#include "support/net.hpp"
#include "support/json.hpp"
#include "support/histogram.hpp"
#include "support/string_util.hpp"
#include "support/table.hpp"
#include "workload/epoch_stream.hpp"
#include "workload/paper_setup.hpp"
#include "workload/scale_instance.hpp"
#include "workload/scenario.hpp"

namespace rtsp::cli {

namespace {

/// User-facing failure carrying the message already formatted.
struct CliError {
  std::string message;
};

Instance load_instance(const CliOptions& opt) {
  const std::string path = opt.get_string("instance", "", "");
  if (path.empty()) throw CliError{"missing --instance <file>"};
  {
    std::ifstream in(path);
    if (!in) throw CliError{"cannot open instance file '" + path + "'"};
  }
  try {
    // Sniffs the binary magic and dispatches; text instances keep working
    // unchanged, binary ones are memory-mapped.
    return read_instance_any(path);
  } catch (const std::exception& e) {
    throw CliError{std::string("failed to parse instance: ") + e.what()};
  }
}

Schedule load_schedule(const CliOptions& opt) {
  const std::string path = opt.get_string("schedule", "", "");
  if (path.empty()) throw CliError{"missing --schedule <file>"};
  std::ifstream in(path);
  if (!in) throw CliError{"cannot open schedule file '" + path + "'"};
  try {
    return read_schedule(in);
  } catch (const std::exception& e) {
    throw CliError{std::string("failed to parse schedule: ") + e.what()};
  }
}

Schedule load_schedule_at(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw CliError{"cannot open schedule file '" + path + "'"};
  try {
    return read_schedule(in);
  } catch (const std::exception& e) {
    throw CliError{std::string("failed to parse schedule: ") + e.what()};
  }
}

prov::Provenance load_provenance_at(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw CliError{"cannot open provenance file '" + path + "'"};
  try {
    return read_provenance(in);
  } catch (const std::exception& e) {
    throw CliError{std::string("failed to parse provenance: ") + e.what()};
  }
}

prov::Provenance load_provenance(const CliOptions& opt) {
  const std::string path = opt.get_string("provenance", "", "");
  if (path.empty()) throw CliError{"missing --provenance <file>"};
  return load_provenance_at(path);
}

void write_text_file(const std::string& path, const std::string& content,
                     std::ostream& out, const char* what) {
  if (path.empty()) {
    out << content;
    return;
  }
  std::ofstream file(path);
  if (!file) throw CliError{std::string("cannot open output file '") + path + "'"};
  file << content;
  out << what << " written to " << path << '\n';
}

int cmd_generate(const CliOptions& opt, std::ostream& out) {
  const std::string kind = opt.get_string("kind", "", "paper-equal");
  Rng rng(static_cast<std::uint64_t>(opt.get_int("seed", "RTSP_SEED", 1)));
  PaperSetup setup;
  setup.servers = static_cast<std::size_t>(opt.get_int("servers", "", 50));
  setup.objects = static_cast<std::size_t>(opt.get_int("objects", "", 1000));
  const std::size_t replicas =
      static_cast<std::size_t>(opt.get_int("replicas", "", 2));

  Instance inst = [&]() -> Instance {
    if (kind == "paper-equal") return make_equal_size_instance(setup, replicas, rng);
    if (kind == "paper-uniform") {
      return make_uniform_size_instance(setup, replicas, rng);
    }
    if (kind == "paper-extra") {
      const std::size_t extra =
          static_cast<std::size_t>(opt.get_int("extra", "", 10));
      return make_extra_capacity_instance(setup, replicas, extra, rng);
    }
    if (kind == "random") {
      RandomInstanceSpec spec;
      spec.servers = setup.servers;
      spec.objects = setup.objects;
      spec.min_replicas = 1;
      spec.max_replicas = replicas;
      spec.capacity_slack = opt.get_double("slack", "", 0.0);
      return random_instance(spec, rng);
    }
    if (kind == "scale") {
      ScaleInstanceSpec spec;
      spec.servers = setup.servers;
      spec.objects = setup.objects;
      spec.replicas_per_object = replicas;
      spec.capacity_slack = opt.get_double("slack", "", 1.0);
      return make_scale_instance(spec, rng);
    }
    throw CliError{"unknown --kind '" + kind +
                   "' (paper-equal | paper-uniform | paper-extra | random | scale)"};
  }();

  if (opt.get_bool("binary", "", false)) {
    const std::string out_path = opt.get_string("out", "", "");
    if (out_path.empty()) throw CliError{"--binary requires --out FILE"};
    try {
      write_instance_binary_file(out_path, inst);
    } catch (const std::exception& e) {
      throw CliError{e.what()};
    }
    out << "binary instance written to " << out_path << '\n';
    return 0;
  }
  write_text_file(opt.get_string("out", "", ""), instance_to_text(inst), out,
                  "instance");
  return 0;
}

int cmd_solve(const CliOptions& opt, std::ostream& out) {
  Instance inst = load_instance(opt);
  // --store forces the replication backend (the readers pick automatically by
  // density); used to measure dense vs sparse memory at the same scale.
  if (const std::string store_name = opt.get_string("store", "", "auto");
      store_name != "auto") {
    if (store_name != "dense" && store_name != "sparse") {
      throw CliError{"unknown --store '" + store_name + "' (auto | dense | sparse)"};
    }
    const auto store = store_name == "dense" ? ReplicationMatrix::Store::kDense
                                             : ReplicationMatrix::Store::kSparse;
    const auto rebuild = [&](const ReplicationMatrix& x) {
      ReplicationMatrix forced(x.num_servers(), x.num_objects(), store);
      for (ObjectId k = 0; k < x.num_objects(); ++k) {
        x.for_each_replicator(k, [&](ServerId i) { forced.set(i, k); });
      }
      return forced;
    };
    inst.x_old = rebuild(inst.x_old);
    inst.x_new = rebuild(inst.x_new);
  }
  const std::string algo = opt.get_string("algo", "", "GOLCF+H1+H2+OP1");
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opt.get_int("seed", "RTSP_SEED", 1));
  const bool portfolio = opt.get_bool("portfolio", "", false);
  Budget budget;
  budget.ticks = static_cast<std::uint64_t>(opt.get_int("budget-ticks", "", 0));
  budget.wall_ms = opt.get_double("budget-ms", "", 0.0);

  const std::string prov_out = opt.get_string("provenance-out", "", "");
  std::optional<prov::Scope> prov_scope;
  if (!prov_out.empty()) {
    if (!prov::kRecorderCompiled) {
      throw CliError{"--provenance-out requires a build with RTSP_OBS=ON"};
    }
    prov_scope.emplace(inst.model, inst.x_old);
  }

  Schedule h;
  std::string algo_label;
  std::ostringstream extra;  // budget/portfolio report lines
  const Cost lb = cost_lower_bound(inst.model, inst.x_old, inst.x_new);
  const auto budget_line = [&]() -> std::string {
    std::ostringstream b;
    if (budget.ticks > 0) b << "ticks=" << budget.ticks;
    if (budget.wall_ms > 0.0) {
      if (budget.ticks > 0) b << ", ";
      b << "wall=" << budget.wall_ms << "ms";
    }
    b << (budget.deterministic() ? " (deterministic)" : "");
    return b.str();
  };
  if (portfolio) {
    PortfolioOptions popts;
    popts.budget = budget;
    if (const std::string list = opt.get_string("algos", "", ""); !list.empty()) {
      popts.algorithms = split(list, ',');
    }
    popts.threads = static_cast<std::size_t>(opt.get_int("threads", "", 0));
    popts.lns_enabled = opt.get_bool("lns", "", true);
    popts.lns.max_rounds =
        static_cast<std::size_t>(opt.get_int("lns-rounds", "", 0));
    const PortfolioResult r = [&] {
      try {
        return solve_portfolio(inst.model, inst.x_old, inst.x_new, seed, popts);
      } catch (const std::invalid_argument& e) {
        throw CliError{e.what()};
      }
    }();
    h = r.schedule;
    algo_label = "PORTFOLIO(" + std::to_string(r.candidates.size()) + ")";
    if (budget.limited()) extra << "budget:          " << budget_line() << '\n';
    extra << "winner:          " << r.winner << '\n';
    extra << "race cost:       " << r.race_cost << '\n';
    extra << "gap:             " << r.gap() << '\n';
    extra << "lns:             " << r.lns.rounds << " rounds, " << r.lns.accepts
          << " accepted" << (r.lns.gap_closed ? ", gap closed" : "") << '\n';
    for (const CandidateOutcome& c : r.candidates) {
      extra << "  candidate:     " << c.algo << " cost=" << c.cost
            << " dummies=" << c.dummy_transfers << " ticks=" << c.ticks_used
            << (c.completed ? "" : " (truncated)") << '\n';
    }
  } else if (budget.limited()) {
    const BudgetedRun r = [&] {
      try {
        return run_pipeline_budgeted(inst.model, inst.x_old, inst.x_new, algo,
                                     seed, budget);
      } catch (const std::invalid_argument& e) {
        throw CliError{e.what()};
      }
    }();
    h = r.schedule;
    algo_label = algo;
    extra << "budget:          " << budget_line() << '\n';
    extra << "ticks used:      " << r.ticks_used
          << (r.completed ? " (completed)" : " (truncated)") << '\n';
  } else {
    Rng rng(seed);
    Pipeline pipeline = [&] {
      try {
        return make_pipeline(algo);
      } catch (const std::invalid_argument& e) {
        throw CliError{e.what()};
      }
    }();
    h = pipeline.run(inst.model, inst.x_old, inst.x_new, rng);
    algo_label = pipeline.name();
  }
  if (prov_scope) {
    std::ostringstream buffer;
    write_provenance(buffer, prov_scope->finalize(h));
    write_text_file(prov_out, buffer.str(), out, "provenance");
  }
  if (opt.get_bool("json", "", false)) {
    schedule_to_json(out, h);
    const std::string json_out = opt.get_string("out", "", "");
    if (!json_out.empty()) {
      std::ostringstream buffer;
      schedule_to_json(buffer, h);
      write_text_file(json_out, buffer.str(), out, "schedule JSON");
    }
    return 0;
  }
  out << "algorithm:       " << algo_label << '\n';
  out << "actions:         " << h.size() << '\n';
  out << "cost:            " << schedule_cost(inst.model, h) << '\n';
  out << "dummy transfers: " << h.dummy_transfer_count() << '\n';
  out << "lower bound:     " << lb << '\n';
  out << extra.str();
  if (const std::int64_t rss_kb = obs::record_peak_rss(); rss_kb > 0) {
    out << "peak rss:        " << rss_kb << " KiB\n";
  }
  const std::string out_path = opt.get_string("out", "", "");
  if (!out_path.empty()) {
    write_text_file(out_path, schedule_to_text(h), out, "schedule");
  }
  return 0;
}

int cmd_exact(const CliOptions& opt, std::ostream& out) {
  const Instance inst = load_instance(opt);
  BnbOptions options;
  options.max_nodes =
      static_cast<std::uint64_t>(opt.get_int("max-nodes", "", 5'000'000));
  options.allow_staging = opt.get_bool("staging", "", true);
  const BnbResult result = solve_exact(inst, options);
  out << "optimal:         " << (result.proved_optimal ? "proven" : "budget hit")
      << '\n';
  out << "cost:            " << result.cost << '\n';
  out << "dummy transfers: " << result.schedule.dummy_transfer_count() << '\n';
  out << "nodes expanded:  " << result.nodes_expanded << '\n';
  const std::string out_path = opt.get_string("out", "", "");
  if (!out_path.empty()) {
    write_text_file(out_path, schedule_to_text(result.schedule), out, "schedule");
  }
  return result.proved_optimal ? 0 : 3;
}

int cmd_validate(const CliOptions& opt, std::ostream& out) {
  const Instance inst = load_instance(opt);
  const Schedule h = load_schedule(opt);
  const auto v = Validator::validate(inst.model, inst.x_old, inst.x_new, h,
                                     !opt.get_bool("all", "", false));
  out << v.to_string() << '\n';
  if (v.valid) {
    out << "cost " << schedule_cost(inst.model, h) << ", "
        << h.dummy_transfer_count() << " dummy transfer(s)\n";
  }
  return v.valid ? 0 : 2;
}

int cmd_stats(const CliOptions& opt, std::ostream& out) {
  const Instance inst = load_instance(opt);
  const Schedule h = load_schedule(opt);
  const ScheduleStats stats = analyze_schedule(inst.model, h);
  out << stats.to_string() << '\n';
  const auto headroom = min_headroom(inst.model, inst.x_old, h);
  Size tightest = headroom.empty() ? 0 : headroom[0];
  ServerId tightest_server = 0;
  for (ServerId i = 0; i < headroom.size(); ++i) {
    if (headroom[i] < tightest) {
      tightest = headroom[i];
      tightest_server = i;
    }
  }
  out << "tightest headroom: " << tightest << " units at S" << tightest_server
      << '\n';
  // Transfer-cost distribution (skipped for schedules without transfers).
  std::vector<double> costs;
  for (const Action& a : h) {
    if (a.is_transfer()) {
      costs.push_back(static_cast<double>(action_cost(inst.model, a)));
    }
  }
  if (!costs.empty()) {
    out << "transfer cost distribution:\n"
        << Histogram::of(costs, 8).to_string();
  }
  return 0;
}

int cmd_deadline(const CliOptions& opt, std::ostream& out) {
  const Instance inst = load_instance(opt);
  const Schedule h = load_schedule(opt);
  const auto v = Validator::validate(inst.model, inst.x_old, inst.x_new, h);
  if (!v.valid) throw CliError{"schedule is invalid: " + v.to_string()};
  DeadlineOptions options;
  options.execution.ports = static_cast<std::size_t>(opt.get_int("ports", "", 1));
  options.execution.bandwidth = opt.get_double("bandwidth", "", 1.0);
  const auto before = simulate_makespan(inst.model, inst.x_old, h, options.execution);
  options.deadline =
      opt.get_double("deadline", "", before.makespan * 0.8);
  const DeadlineResult r =
      meet_deadline(inst.model, inst.x_old, inst.x_new, h, options);
  out << "deadline:        " << options.deadline << '\n';
  out << "makespan before: " << before.makespan << '\n';
  out << "makespan after:  " << r.report.makespan << '\n';
  out << "met:             " << (r.met ? "yes" : "no") << '\n';
  out << "cost before:     " << schedule_cost(inst.model, h) << '\n';
  out << "cost after:      " << r.cost << '\n';
  const std::string out_path = opt.get_string("out", "", "");
  if (!out_path.empty()) {
    write_text_file(out_path, schedule_to_text(r.schedule), out, "schedule");
  }
  return r.met ? 0 : 3;
}

int cmd_info(const CliOptions& opt, std::ostream& out) {
  const Instance inst = load_instance(opt);
  if (opt.get_bool("json", "", false)) {
    instance_summary_to_json(out, inst);
    return 0;
  }
  const PlacementDelta delta(inst.x_old, inst.x_new);
  out << "servers:           " << inst.model.num_servers() << '\n';
  out << "objects:           " << inst.model.num_objects() << '\n';
  out << "dummy link cost:   " << inst.model.dummy_link_cost() << '\n';
  out << "outstanding:       " << delta.outstanding().size() << '\n';
  out << "superfluous:       " << delta.superfluous().size() << '\n';
  out << "overlap:           " << inst.x_old.overlap(inst.x_new) << '\n';
  out << "X_new feasible:    "
      << (storage_feasible(inst.model, inst.x_new) ? "yes" : "NO") << '\n';
  out << "cost lower bound:  "
      << cost_lower_bound(inst.model, inst.x_old, inst.x_new) << '\n';
  out << "worst-case cost:   "
      << worst_case_cost(inst.model, inst.x_old, inst.x_new) << '\n';
  const TransferGraph tg(inst.model, inst.x_old, inst.x_new);
  out << "transfer graph:    " << tg.arcs().size() << " arcs, "
      << (tg.has_cycle() ? "cyclic" : "acyclic") << '\n';
  out << "deadlock risk:     " << (tg.deadlock_risk(inst.x_old) ? "yes" : "no")
      << '\n';
  return 0;
}

int cmd_makespan(const CliOptions& opt, std::ostream& out) {
  const Instance inst = load_instance(opt);
  const Schedule h = load_schedule(opt);
  MakespanOptions options;
  options.ports = static_cast<std::size_t>(opt.get_int("ports", "", 1));
  options.bandwidth = opt.get_double("bandwidth", "", 1.0);
  const auto v = Validator::validate(inst.model, inst.x_old, inst.x_new, h);
  if (!v.valid) throw CliError{"schedule is invalid: " + v.to_string()};
  const MakespanReport report = simulate_makespan(inst.model, inst.x_old, h, options);
  out << "serial time:      " << report.serial_time << '\n';
  out << "makespan:         " << report.makespan << '\n';
  out << "speedup:          " << report.speedup << '\n';
  out << "peak parallelism: " << report.peak_parallelism << '\n';
  return 0;
}

int cmd_phases(const CliOptions& opt, std::ostream& out) {
  const Instance inst = load_instance(opt);
  const Schedule h = load_schedule(opt);
  const auto v = Validator::validate(inst.model, inst.x_old, inst.x_new, h);
  if (!v.valid) throw CliError{"schedule is invalid: " + v.to_string()};
  const std::size_t ports = static_cast<std::size_t>(opt.get_int("ports", "", 1));
  const PhasePlan plan = phase_partition(inst.model, inst.x_old, h, ports);
  out << plan.rounds() << " rounds, widest " << plan.max_width()
      << ", bottleneck cost " << plan.bottleneck_cost(inst.model, h) << '\n';
  if (opt.get_bool("print", "", false)) out << plan.to_string(h);
  return 0;
}

int cmd_dot(const CliOptions& opt, std::ostream& out) {
  const Instance inst = load_instance(opt);
  std::string content;
  if (opt.has("schedule")) {
    const Schedule h = load_schedule(opt);
    prov::Provenance p;
    const prov::Provenance* pp = nullptr;
    if (opt.has("provenance")) {
      p = load_provenance(opt);
      if (p.entries.size() != h.size()) {
        throw CliError{"provenance does not match schedule (" +
                       std::to_string(p.entries.size()) + " entries vs " +
                       std::to_string(h.size()) + " actions)"};
      }
      pp = &p;
    }
    content = schedule_to_dot(inst.model, h, pp);
  } else {
    const TransferGraph tg(inst.model, inst.x_old, inst.x_new);
    content = transfer_graph_to_dot(tg);
  }
  write_text_file(opt.get_string("out", "", ""), content, out, "DOT");
  return 0;
}

std::string stage_label(const prov::Provenance& p, std::uint32_t idx) {
  if (idx >= p.stages.size()) return "?";
  return p.stages[idx].name;
}

std::string describe_root_cause(const prov::RootCause& rc) {
  std::ostringstream os;
  switch (rc.kind) {
    case prov::RootCause::Kind::CapacityDeadlock:
      os << "capacity deadlock";
      break;
    case prov::RootCause::Kind::NoInitialReplica:
      os << "no initial replica";
      break;
    case prov::RootCause::Kind::SourceAvailable:
      os << "source available (builder still chose dummy)";
      break;
  }
  os << ": O" << rc.object << " (size " << rc.object_size << ") -> S" << rc.dest
     << " (free " << rc.dest_free_space << ")";
  if (!rc.holders.empty()) {
    os << "\n      live holders:";
    for (ServerId s : rc.holders) os << " S" << s;
  }
  for (const auto& b : rc.blockers) {
    os << "\n      S" << b.server << " deleted its replica";
    if (b.deleted_at != prov::kNone) os << " at position " << b.deleted_at;
    os << "; free " << b.free_space;
    if (!b.occupying.empty()) {
      os << ", occupied by";
      for (ObjectId o : b.occupying) os << " O" << o;
    }
  }
  return os.str();
}

/// One schedule's worth of explain inputs, cross-checked for consistency.
struct ExplainView {
  Schedule h;
  prov::Provenance p;
  prov::AttributionSummary att;
  ScheduleStats stats;
};

ExplainView make_view(const SystemModel& model, Schedule h, prov::Provenance p) {
  if (p.entries.size() != h.size()) {
    throw CliError{"provenance does not match schedule (" +
                   std::to_string(p.entries.size()) + " entries vs " +
                   std::to_string(h.size()) + " actions)"};
  }
  ExplainView v{std::move(h), std::move(p), {}, {}};
  v.att = prov::attribute_schedule(model, v.h, v.p);
  v.stats = analyze_schedule(model, v.h);
  return v;
}

/// The tentpole invariant: per-stage sums must equal the whole-schedule
/// totals bit for bit. A mismatch means the sidecar belongs to a different
/// schedule (or the recorder has a bug) — refuse to explain from it.
void check_exact(const ExplainView& v) {
  const auto& a = v.att;
  const auto& s = v.stats;
  if (a.total_actions != s.actions || a.transfers != s.transfers ||
      a.deletions != s.deletions || a.dummy_transfers != s.dummy_transfers ||
      a.total_cost != s.total_cost || a.dummy_cost != s.dummy_cost) {
    std::ostringstream os;
    os << "attribution does not reconcile with schedule stats: attribution "
       << "cost " << a.total_cost << " / dummies " << a.dummy_transfers
       << " vs schedule cost " << s.total_cost << " / dummies "
       << s.dummy_transfers;
    throw CliError{os.str()};
  }
}

void print_attribution(const ExplainView& v, std::ostream& out) {
  TextTable t;
  t.header({"stage", "kind", "actions", "transfers", "deletes", "dummies",
            "cost", "dummy cost", "rewrites", "d-cost", "d-dummies"});
  for (const auto& sa : v.att.stages) {
    t.add_row({stage_label(v.p, sa.stage),
               prov::to_string(v.p.stages[sa.stage].kind),
               std::to_string(sa.actions), std::to_string(sa.transfers),
               std::to_string(sa.deletions), std::to_string(sa.dummy_transfers),
               std::to_string(sa.cost), std::to_string(sa.dummy_cost),
               std::to_string(sa.rewrites), std::to_string(sa.rewrite_cost_delta),
               std::to_string(sa.rewrite_dummy_delta)});
  }
  t.add_row({"total", "", std::to_string(v.att.total_actions),
             std::to_string(v.att.transfers), std::to_string(v.att.deletions),
             std::to_string(v.att.dummy_transfers), std::to_string(v.att.total_cost),
             std::to_string(v.att.dummy_cost), "", "", ""});
  t.print(out);
}

void print_actions(const SystemModel& model, const ExplainView& v,
                   std::ostream& out) {
  TextTable t;
  t.header({"pos", "action", "stage", "pass", "round", "rewrite", "cost", "span"});
  for (std::size_t u = 0; u < v.h.size(); ++u) {
    const prov::Entry& e = v.p.entries[u];
    std::string rewrite = "-";
    if (e.rewrite != prov::kNone) {
      const auto& rw = v.p.rewrites[e.rewrite];
      rewrite = "#" + std::to_string(e.rewrite) + " rank " + std::to_string(rw.rank);
    }
    t.add_row({std::to_string(u), v.h[u].to_string(), stage_label(v.p, e.stage),
               e.pass < 0 ? "-" : std::to_string(e.pass),
               e.round < 0 ? "-" : std::to_string(e.round), rewrite,
               std::to_string(action_cost(model, v.h[u])),
               e.span_id == 0 ? "-" : std::to_string(e.span_id)});
  }
  t.print(out);
}

void print_root_causes(const ExplainView& v, std::ostream& out) {
  bool any = false;
  for (std::size_t u = 0; u < v.h.size(); ++u) {
    if (!v.h[u].is_dummy_transfer()) continue;
    any = true;
    out << "  [pos " << u << "] ";
    const prov::Entry& e = v.p.entries[u];
    if (e.root_cause == prov::kNone) {
      out << "(no recorded root cause)\n";
      continue;
    }
    out << describe_root_cause(v.p.root_causes[e.root_cause]) << '\n';
  }
  if (!any) out << "  (none)\n";
}

void explain_to_json(const SystemModel& model, const ExplainView& v,
                     std::ostream& out) {
  JsonWriter j(out);
  j.begin_object();
  j.key("actions").value(static_cast<std::uint64_t>(v.att.total_actions));
  j.key("cost").value(static_cast<std::int64_t>(v.att.total_cost));
  j.key("dummy_cost").value(static_cast<std::int64_t>(v.att.dummy_cost));
  j.key("dummy_transfers").value(static_cast<std::uint64_t>(v.att.dummy_transfers));
  j.key("stages").begin_array();
  for (const auto& sa : v.att.stages) {
    j.begin_object();
    j.key("name").value(stage_label(v.p, sa.stage));
    j.key("kind").value(prov::to_string(v.p.stages[sa.stage].kind));
    j.key("actions").value(static_cast<std::uint64_t>(sa.actions));
    j.key("transfers").value(static_cast<std::uint64_t>(sa.transfers));
    j.key("deletions").value(static_cast<std::uint64_t>(sa.deletions));
    j.key("dummy_transfers").value(static_cast<std::uint64_t>(sa.dummy_transfers));
    j.key("cost").value(static_cast<std::int64_t>(sa.cost));
    j.key("dummy_cost").value(static_cast<std::int64_t>(sa.dummy_cost));
    j.key("rewrites").value(static_cast<std::uint64_t>(sa.rewrites));
    j.key("rewrite_cost_delta").value(static_cast<std::int64_t>(sa.rewrite_cost_delta));
    j.key("rewrite_dummy_delta").value(sa.rewrite_dummy_delta);
    j.end_object();
  }
  j.end_array();
  j.key("actions_table").begin_array();
  for (std::size_t u = 0; u < v.h.size(); ++u) {
    const prov::Entry& e = v.p.entries[u];
    j.begin_object();
    j.key("pos").value(static_cast<std::uint64_t>(u));
    j.key("action").value(v.h[u].to_string());
    j.key("stage").value(stage_label(v.p, e.stage));
    if (e.pass >= 0) j.key("pass").value(e.pass);
    if (e.round >= 0) j.key("round").value(e.round);
    if (e.rewrite != prov::kNone) {
      j.key("rewrite").value(static_cast<std::uint64_t>(e.rewrite));
      j.key("rank").value(static_cast<std::uint64_t>(v.p.rewrites[e.rewrite].rank));
    }
    j.key("cost").value(static_cast<std::int64_t>(action_cost(model, v.h[u])));
    if (e.span_id != 0) j.key("span_id").value(e.span_id);
    j.end_object();
  }
  j.end_array();
  j.key("root_causes").begin_array();
  for (std::size_t u = 0; u < v.h.size(); ++u) {
    if (!v.h[u].is_dummy_transfer()) continue;
    const prov::Entry& e = v.p.entries[u];
    if (e.root_cause == prov::kNone) continue;
    const prov::RootCause& rc = v.p.root_causes[e.root_cause];
    j.begin_object();
    j.key("pos").value(static_cast<std::uint64_t>(u));
    const char* kind = "capacity_deadlock";
    if (rc.kind == prov::RootCause::Kind::NoInitialReplica) kind = "no_initial_replica";
    if (rc.kind == prov::RootCause::Kind::SourceAvailable) kind = "source_available";
    j.key("kind").value(kind);
    j.key("object").value(static_cast<std::uint64_t>(rc.object));
    j.key("dest").value(static_cast<std::uint64_t>(rc.dest));
    j.key("object_size").value(static_cast<std::int64_t>(rc.object_size));
    j.key("dest_free_space").value(static_cast<std::int64_t>(rc.dest_free_space));
    j.key("blockers").begin_array();
    for (const auto& b : rc.blockers) {
      j.begin_object();
      j.key("server").value(static_cast<std::uint64_t>(b.server));
      if (b.deleted_at != prov::kNone) {
        j.key("deleted_at").value(static_cast<std::uint64_t>(b.deleted_at));
      }
      j.key("free_space").value(static_cast<std::int64_t>(b.free_space));
      j.end_object();
    }
    j.end_array();
    j.end_object();
  }
  j.end_array();
  j.end_object();
  out << '\n';
}

void explain_to_csv(const SystemModel& model, const ExplainView& v,
                    std::ostream& out) {
  CsvWriter csv(out);
  csv.row({"pos", "action", "stage", "kind", "pass", "round", "rewrite", "rank",
           "cost", "dummy", "span_id"});
  for (std::size_t u = 0; u < v.h.size(); ++u) {
    const prov::Entry& e = v.p.entries[u];
    const auto* rw = e.rewrite != prov::kNone ? &v.p.rewrites[e.rewrite] : nullptr;
    csv.field(static_cast<std::uint64_t>(u));
    csv.field(v.h[u].to_string());
    csv.field(stage_label(v.p, e.stage));
    csv.field(prov::to_string(v.p.stages[e.stage].kind));
    csv.field(e.pass);
    csv.field(e.round);
    csv.field(rw ? static_cast<std::int64_t>(e.rewrite) : -1);
    csv.field(rw ? static_cast<std::int64_t>(rw->rank) : -1);
    csv.field(static_cast<std::int64_t>(action_cost(model, v.h[u])));
    csv.field(static_cast<std::int64_t>(v.h[u].is_dummy_transfer() ? 1 : 0));
    csv.field(e.span_id);
    csv.end_row();
  }
}

void print_diff(const ExplainView& a, const ExplainView& b, std::ostream& out) {
  // Union of stage (kind, name) keys, in first-seen order across both views.
  std::vector<prov::Stage> keys;
  const auto key_index = [&](const prov::Stage& s) {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] == s) return i;
    }
    keys.push_back(s);
    return keys.size() - 1;
  };
  struct Side {
    std::size_t actions = 0;
    std::size_t dummies = 0;
    Cost cost = 0;
    bool present = false;
  };
  std::vector<Side> left, right;
  const auto fill = [&](const ExplainView& v, std::vector<Side>& side) {
    for (const auto& sa : v.att.stages) {
      const std::size_t i = key_index(v.p.stages[sa.stage]);
      if (side.size() <= i) side.resize(keys.size());
      side[i] = {sa.actions, sa.dummy_transfers, sa.cost, true};
    }
  };
  fill(a, left);
  fill(b, right);
  left.resize(keys.size());
  right.resize(keys.size());

  TextTable t;
  t.header({"stage", "actions A", "actions B", "cost A", "cost B", "d-cost",
            "dummies A", "dummies B"});
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const Side& l = left[i];
    const Side& r = right[i];
    t.add_row({keys[i].name, l.present ? std::to_string(l.actions) : "-",
               r.present ? std::to_string(r.actions) : "-",
               l.present ? std::to_string(l.cost) : "-",
               r.present ? std::to_string(r.cost) : "-",
               std::to_string(r.cost - l.cost),
               l.present ? std::to_string(l.dummies) : "-",
               r.present ? std::to_string(r.dummies) : "-"});
  }
  t.add_row({"total", std::to_string(a.att.total_actions),
             std::to_string(b.att.total_actions), std::to_string(a.att.total_cost),
             std::to_string(b.att.total_cost),
             std::to_string(b.att.total_cost - a.att.total_cost),
             std::to_string(a.att.dummy_transfers),
             std::to_string(b.att.dummy_transfers)});
  t.print(out);
}

int cmd_explain(const CliOptions& opt, std::ostream& out) {
  const Instance inst = load_instance(opt);
  ExplainView view =
      make_view(inst.model, load_schedule(opt), load_provenance(opt));
  check_exact(view);

  const std::string diff_schedule = opt.get_string("diff-schedule", "", "");
  if (!diff_schedule.empty()) {
    const std::string diff_prov = opt.get_string("diff-provenance", "", "");
    if (diff_prov.empty()) {
      throw CliError{"--diff-schedule requires --diff-provenance <file>"};
    }
    ExplainView other = make_view(inst.model, load_schedule_at(diff_schedule),
                                  load_provenance_at(diff_prov));
    check_exact(other);
    out << "per-stage diff (A = --schedule, B = --diff-schedule):\n";
    print_diff(view, other, out);
    return 0;
  }

  const std::string out_path = opt.get_string("out", "", "");
  if (opt.get_bool("json", "", false)) {
    std::ostringstream buffer;
    explain_to_json(inst.model, view, buffer);
    write_text_file(out_path, buffer.str(), out, "explain JSON");
    return 0;
  }
  if (opt.get_bool("csv", "", false)) {
    std::ostringstream buffer;
    explain_to_csv(inst.model, view, buffer);
    write_text_file(out_path, buffer.str(), out, "explain CSV");
    return 0;
  }

  out << "schedule: " << view.att.total_actions << " actions, cost "
      << view.att.total_cost << " (dummy " << view.att.dummy_cost << "), "
      << view.att.dummy_transfers << " dummy transfer(s)\n\n";
  out << "per-stage attribution (sums reconcile with schedule stats):\n";
  print_attribution(view, out);
  if (opt.get_bool("actions", "", false)) {
    out << "\nper-action provenance:\n";
    print_actions(inst.model, view, out);
  }
  out << "\ndummy-transfer root causes:\n";
  print_root_causes(view, out);
  return 0;
}

exec::FaultSpec load_fault_spec(const CliOptions& opt) {
  const std::string path = opt.get_string("faults", "", "");
  if (path.empty()) return exec::FaultSpec{};  // fault-free execution
  std::ifstream in(path);
  if (!in) throw CliError{"cannot open fault spec file '" + path + "'"};
  try {
    return read_fault_spec(in);
  } catch (const std::exception& e) {
    throw CliError{std::string("failed to parse fault spec: ") + e.what()};
  }
}

void execution_report_to_json(JsonWriter& j, const exec::ExecutionReport& r,
                              bool valid, bool with_attempts) {
  j.begin_object();
  j.key("planned_cost").value(static_cast<std::int64_t>(r.planned_cost));
  j.key("effective_cost").value(static_cast<std::int64_t>(r.effective_cost));
  j.key("actual_cost").value(static_cast<std::int64_t>(r.actual_cost));
  j.key("cost_inflation").value(r.cost_inflation());
  j.key("attempts").value(static_cast<std::uint64_t>(r.attempts.size()));
  j.key("retries").value(static_cast<std::uint64_t>(r.retries));
  j.key("transient_failures")
      .value(static_cast<std::uint64_t>(r.transient_failures));
  j.key("degraded_transfers")
      .value(static_cast<std::uint64_t>(r.degraded_transfers));
  j.key("loss_deletions").value(static_cast<std::uint64_t>(r.loss_deletions));
  j.key("planned_dummy_transfers")
      .value(static_cast<std::uint64_t>(r.planned_dummy_transfers));
  j.key("effective_dummy_transfers")
      .value(static_cast<std::uint64_t>(r.effective_dummy_transfers));
  j.key("effective_actions").value(static_cast<std::uint64_t>(r.effective.size()));
  j.key("finished_at").value(static_cast<std::int64_t>(r.finished_at));
  j.key("total_stall").value(static_cast<std::int64_t>(r.total_stall));
  j.key("total_backoff").value(static_cast<std::int64_t>(r.total_backoff));
  j.key("reached_goal").value(r.reached_goal);
  j.key("valid").value(valid);
  j.key("replans").begin_array();
  for (const exec::ReplanEvent& e : r.replans) {
    j.begin_object();
    j.key("at").value(static_cast<std::int64_t>(e.at));
    j.key("reason").value(to_string(e.reason));
    j.key("dropped").value(static_cast<std::uint64_t>(e.dropped));
    j.key("added").value(static_cast<std::uint64_t>(e.added));
    j.key("residual_lower_bound")
        .value(static_cast<std::int64_t>(e.residual_lower_bound));
    j.key("seconds").value(e.seconds);
    j.end_object();
  }
  j.end_array();
  if (with_attempts) {
    j.key("attempt_log").begin_array();
    for (const exec::Attempt& a : r.attempts) {
      j.begin_object();
      j.key("action").value(a.action.to_string());
      j.key("attempt").value(a.attempt);
      j.key("at").value(static_cast<std::int64_t>(a.at));
      j.key("outcome").value(to_string(a.outcome));
      j.key("cost_paid").value(static_cast<std::int64_t>(a.cost_paid));
      j.key("stall").value(static_cast<std::int64_t>(a.stall));
      j.key("backoff").value(static_cast<std::int64_t>(a.backoff));
      j.end_object();
    }
    j.end_array();
  }
  j.end_object();
}

int cmd_execute(const CliOptions& opt, std::ostream& out,
                const obs::Session& session) {
  const Instance inst = load_instance(opt);
  const Schedule plan = load_schedule(opt);
  const exec::FaultSpec faults = load_fault_spec(opt);

  exec::ExecutorOptions options;
  options.replan_algo = opt.get_string("algo", "", options.replan_algo);
  options.seed = static_cast<std::uint64_t>(opt.get_int("seed", "RTSP_SEED", 1));
  options.retry.max_retries =
      static_cast<std::size_t>(opt.get_int("retries", "", 3));
  options.retry.base_backoff = opt.get_int("backoff", "", 16);
  options.retry.multiplier = opt.get_double("backoff-mult", "", 2.0);
  options.retry.max_backoff = opt.get_int("backoff-max", "", 1024);
  options.retry.jitter = opt.get_double("jitter", "", 0.5);
  options.max_replans =
      static_cast<std::size_t>(opt.get_int("max-replans", "", 16));
  options.degrade_after =
      static_cast<std::size_t>(opt.get_int("degrade-after", "", 2));
  const std::string prov_out = opt.get_string("provenance-out", "", "");
  options.record_provenance = !prov_out.empty();

  // Flight recorder: journal + timeline want the event stream, the sampler
  // (owned by the obs session when --series-out is set) wants virtual-clock
  // samples at attempt/retry/replan boundaries. Both hooks are runtime-gated
  // and never observed by control flow, so schedules stay bit-identical.
  const std::string journal_out = opt.get_string("journal-out", "", "");
  const std::string timeline_out = opt.get_string("timeline-out", "", "");
  std::optional<obs::Journal> journal;
  if (!journal_out.empty() || !timeline_out.empty()) {
    const auto cap = opt.get_int("journal-cap", "", 1 << 16);
    if (cap <= 0) throw CliError{"--journal-cap must be positive"};
    journal.emplace(static_cast<std::size_t>(cap));
    options.journal = &*journal;
  }
  // An interrupted run should still leave a readable journal: the obs
  // session's SIGINT/SIGTERM flush path runs this hook (with a default run
  // summary — the run never finished) before the process dies. The guard
  // drops the hook once the journal is written normally below.
  obs::add_interrupt_hook([&journal, journal_out] {
    if (journal && !journal_out.empty()) {
      write_journal_file(journal_out, journal->events(), journal->dropped(),
                         JournalRunSummary{});
    }
  });
  struct HookGuard {
    ~HookGuard() { obs::clear_interrupt_hooks(); }
  } hook_guard;
  options.sampler = session.sampler();

  const exec::ExecutionReport report = [&] {
    try {
      return exec::execute_schedule(inst.model, inst.x_old, inst.x_new, plan,
                                    faults, options);
    } catch (const std::invalid_argument& e) {
      throw CliError{e.what()};
    }
  }();
  const bool valid = Validator::is_valid(inst.model, inst.x_old, inst.x_new,
                                         report.effective);

  if (!prov_out.empty()) {
    std::ostringstream buffer;
    write_provenance(buffer, report.provenance);
    write_text_file(prov_out, buffer.str(), out, "provenance");
  }
  if (journal) {
    JournalRunSummary run;
    run.planned_cost = static_cast<std::int64_t>(report.planned_cost);
    run.effective_cost = static_cast<std::int64_t>(report.effective_cost);
    run.actual_cost = static_cast<std::int64_t>(report.actual_cost);
    run.finished_at = static_cast<std::int64_t>(report.finished_at);
    run.total_stall = static_cast<std::int64_t>(report.total_stall);
    run.total_backoff = static_cast<std::int64_t>(report.total_backoff);
    run.attempts = report.attempts.size();
    run.retries = report.retries;
    run.transient_failures = report.transient_failures;
    run.degraded_transfers = report.degraded_transfers;
    run.loss_deletions = report.loss_deletions;
    run.replans = report.replans.size();
    run.reached_goal = report.reached_goal;
    const std::vector<obs::JournalEvent> events = journal->events();
    if (!journal_out.empty()) {
      write_journal_file(journal_out, events, journal->dropped(), run);
      out << "journal written to " << journal_out << " (" << events.size()
          << " events";
      if (journal->dropped() > 0) out << ", " << journal->dropped() << " dropped";
      out << ")\n";
    }
    if (!timeline_out.empty()) {
      JournalDoc doc;
      doc.dropped = journal->dropped();
      doc.run = run;
      doc.events = events;
      // Compose virtual-clock lanes with the wall-clock OBS_SPAN traces when
      // recording is armed; under RTSP_OBS=OFF the trace side is just empty.
      std::vector<obs::TraceEvent> wall;
      if (obs::enabled()) wall = obs::collect_trace();
      write_timeline_file(timeline_out, doc, wall);
      out << "timeline written to " << timeline_out
          << " (open in ui.perfetto.dev)\n";
    }
  }
  const std::string out_path = opt.get_string("out", "", "");
  if (!out_path.empty()) {
    write_text_file(out_path, schedule_to_text(report.effective), out,
                    "effective schedule");
  }

  if (opt.get_bool("json", "", false)) {
    JsonWriter j(out);
    execution_report_to_json(j, report, valid,
                             opt.get_bool("attempts", "", false));
    out << '\n';
    return (report.reached_goal && valid) ? 0 : 2;
  }

  out << "planned cost:        " << report.planned_cost << '\n';
  out << "actual cost paid:    " << report.actual_cost << " (inflation "
      << report.cost_inflation() << ")\n";
  out << "effective cost:      " << report.effective_cost << '\n';
  out << "attempts:            " << report.attempts.size() << " ("
      << report.retries << " retries, " << report.transient_failures
      << " transient failures)\n";
  out << "replans:             " << report.replans.size() << '\n';
  out << "degraded transfers:  " << report.degraded_transfers << '\n';
  out << "loss deletions:      " << report.loss_deletions << '\n';
  out << "dummy transfers:     " << report.effective_dummy_transfers
      << " effective vs " << report.planned_dummy_transfers << " planned\n";
  out << "finished at:         tick " << report.finished_at << " (stall "
      << report.total_stall << ", backoff " << report.total_backoff << ")\n";
  out << "reached X_new:       " << (report.reached_goal ? "yes" : "NO") << '\n';
  out << "effective validates: " << (valid ? "yes" : "NO") << '\n';
  for (const exec::ReplanEvent& e : report.replans) {
    out << "  replan @" << e.at << " [" << to_string(e.reason) << "] dropped "
        << e.dropped << ", added " << e.added << " (residual lb "
        << e.residual_lower_bound << ")\n";
  }
  if (opt.get_bool("attempts", "", false)) {
    out << "attempt log:\n";
    for (const exec::Attempt& a : report.attempts) {
      out << "  @" << a.at << " #" << a.attempt << ' ' << a.action.to_string()
          << ": " << to_string(a.outcome) << " (cost " << a.cost_paid;
      if (a.stall > 0) out << ", stall " << a.stall;
      if (a.backoff > 0) out << ", backoff " << a.backoff;
      out << ")\n";
    }
  }
  return (report.reached_goal && valid) ? 0 : 2;
}

daemon::DaemonOptions parse_daemon_options(const CliOptions& opt) {
  daemon::DaemonOptions d;
  d.state_dir = opt.get_string("state-dir", "", "");
  d.seed = static_cast<std::uint64_t>(opt.get_int("seed", "RTSP_SEED", 1));
  d.algo = opt.get_string("algo", "", d.algo);
  d.portfolio = opt.get_bool("portfolio", "", false);
  d.plan_budget_ticks = static_cast<std::uint64_t>(
      opt.get_int("plan-budget-ticks", "", static_cast<std::int64_t>(d.plan_budget_ticks)));
  d.epoch_budget_ticks = opt.get_int("epoch-budget", "", 0);
  d.max_attempts =
      static_cast<std::uint32_t>(opt.get_int("max-attempts", "", 4));
  d.queue_depth = static_cast<std::size_t>(opt.get_int("queue-depth", "", 8));
  const std::string policy = opt.get_string("policy", "", "coalesce");
  if (policy == "reject") {
    d.policy = daemon::QueuePolicy::kReject;
  } else if (policy == "coalesce") {
    d.policy = daemon::QueuePolicy::kCoalesce;
  } else {
    throw CliError{"--policy must be reject or coalesce"};
  }
  d.checkpoint_every =
      static_cast<std::uint64_t>(opt.get_int("checkpoint-every", "", 4));
  d.fsync = opt.get_bool("fsync", "", true);
  d.faults = load_fault_spec(opt);
  d.exec_retry.max_retries = static_cast<int>(opt.get_int("retries", "", 3));
  d.exec_retry.base_backoff = opt.get_int("backoff", "", 16);
  d.exec_retry.multiplier = opt.get_double("backoff-mult", "", 2.0);
  d.exec_retry.max_backoff = opt.get_int("backoff-max", "", 1024);
  d.exec_retry.jitter = opt.get_double("jitter", "", 0.5);
  d.max_replans = static_cast<std::size_t>(opt.get_int("max-replans", "", 16));
  d.degrade_after =
      static_cast<std::size_t>(opt.get_int("degrade-after", "", 2));
  return d;
}

int cmd_serve(const CliOptions& opt, std::ostream& out, std::ostream& err) {
  daemon::ServeOptions so;
  so.core = parse_daemon_options(opt);
  so.instance_path = opt.get_string("instance", "", "");
  if (so.instance_path.empty()) throw CliError{"missing --instance <file>"};
  so.epochs_path = opt.get_string("epochs", "", "");
  so.recover = opt.get_bool("recover", "", false);
  so.listen_port =
      opt.has("listen") ? static_cast<int>(opt.get_int("listen", "", 0)) : -1;
  so.port_file = opt.get_string("port-file", "", "");
  so.final_out = opt.get_string("final-out", "", "");
  so.idle_exit_ms = opt.get_int("idle-exit-ms", "", -1);
  if (so.core.state_dir.empty() && so.recover) {
    throw CliError{"--recover requires --state-dir"};
  }
  try {
    return daemon::run_serve(so, out, err);
  } catch (const std::invalid_argument& e) {
    throw CliError{e.what()};
  }
}

int cmd_epochs(const CliOptions& opt, std::ostream& out) {
  const Instance inst = load_instance(opt);
  EpochStreamSpec spec;
  spec.count = static_cast<std::size_t>(opt.get_int("count", "", 3));
  spec.moves = static_cast<std::size_t>(opt.get_int("moves", "", 8));
  spec.churn = opt.get_double("churn", "", 0.25);
  const auto seed =
      static_cast<std::uint64_t>(opt.get_int("seed", "RTSP_SEED", 1));
  Rng rng(mix64(seed, 0xe90c5ull));  // independent of the solver streams
  std::vector<ReplicationMatrix> epochs;
  try {
    epochs = make_epoch_stream(inst.model, inst.x_old, spec, rng);
  } catch (const std::invalid_argument& e) {
    throw CliError{e.what()};
  }

  EpochStreamDoc doc;
  doc.servers = inst.model.num_servers();
  doc.objects = inst.model.num_objects();
  doc.epochs = epochs;
  const std::string out_path = opt.get_string("out", "", "");
  if (out_path.empty()) {
    write_epoch_stream(out, doc);
  } else {
    write_epoch_stream_file(out_path, doc);
    out << "epoch stream written to " << out_path << " (" << epochs.size()
        << " epochs)\n";
  }
  const std::string final_out = opt.get_string("final-out", "", "");
  if (!final_out.empty()) {
    const ReplicationMatrix& final_x = epochs.empty() ? inst.x_old : epochs.back();
    write_placement_file(final_out, final_x);
    out << "expected final placement written to " << final_out << '\n';
  }
  return 0;
}

int cmd_submit(const CliOptions& opt, std::ostream& out) {
  const std::string host = opt.get_string("host", "", "127.0.0.1");
  std::uint16_t port = static_cast<std::uint16_t>(opt.get_int("port", "", 0));
  const std::string port_file = opt.get_string("port-file", "", "");
  if (port == 0 && !port_file.empty()) {
    std::ifstream pf(port_file);
    int p = 0;
    if (!(pf >> p) || p <= 0 || p > 65535) {
      throw CliError{"cannot read a port from '" + port_file + "'"};
    }
    port = static_cast<std::uint16_t>(p);
  }
  if (port == 0) throw CliError{"missing --port (or --port-file)"};
  const int timeout_ms = static_cast<int>(opt.get_int("timeout-ms", "", 5000));

  try {
    if (opt.get_bool("status", "", false)) {
      const net::HttpResponse r = net::http_get(host, port, "/daemon/status", timeout_ms);
      out << r.body << '\n';
      return r.status == 200 ? 0 : 2;
    }
    if (opt.get_bool("drain", "", false)) {
      const net::HttpResponse r =
          net::http_post(host, port, "/drain", "", "application/json", timeout_ms);
      out << r.body << '\n';
      return r.status == 200 ? 0 : 2;
    }
    const std::string epochs_path = opt.get_string("epochs", "", "");
    if (epochs_path.empty()) {
      throw CliError{"nothing to do: pass --epochs FILE, --status or --drain"};
    }
    const EpochStreamDoc doc = read_epoch_stream_file(epochs_path);
    const int max_retries = static_cast<int>(opt.get_int("retries", "", 100));
    const int retry_ms = static_cast<int>(opt.get_int("retry-ms", "", 50));
    std::size_t index = 0;
    for (const ReplicationMatrix& target : doc.epochs) {
      ++index;
      const std::string body = "{\"place\":" + placement_pairs_json(target) + "}";
      int attempts = 0;
      while (true) {
        const net::HttpResponse r =
            net::http_post(host, port, "/epochs", body, "application/json", timeout_ms);
        if (r.status == 429 && attempts++ < max_retries) {
          // Backpressure: wait for the daemon to make room, then retry.
          std::this_thread::sleep_for(std::chrono::milliseconds(retry_ms));
          continue;
        }
        out << "epoch " << index << ": " << r.status << ' ' << r.body << '\n';
        if (r.status != 200) return 2;
        break;
      }
    }
    return 0;
  } catch (const std::runtime_error& e) {
    throw CliError{std::string("submit: ") + e.what()};
  }
}

}  // namespace

void print_usage(std::ostream& out) {
  out << "rtsp — replica transfer scheduling toolkit\n"
         "\n"
         "usage: rtsp <command> [options]\n"
         "\n"
         "commands:\n"
         "  generate  --kind paper-equal|paper-uniform|paper-extra|random|scale\n"
         "            [--servers N] [--objects N] [--replicas R] [--extra E]\n"
         "            [--slack F] [--seed S] [--out FILE] [--binary]\n"
         "  solve     --instance FILE [--algo SPEC] [--seed S] [--out FILE] [--json]\n"
         "            [--provenance-out FILE] [--store auto|dense|sparse]\n"
         "            [--budget-ticks T] [--budget-ms MS] [--portfolio]\n"
         "            [--algos SPEC,SPEC,...] [--threads N] [--lns BOOL]\n"
         "            [--lns-rounds N]\n"
         "  exact     --instance FILE [--max-nodes N] [--staging BOOL] [--out FILE]\n"
         "  validate  --instance FILE --schedule FILE [--all]\n"
         "  stats     --instance FILE --schedule FILE\n"
         "  info      --instance FILE [--json]\n"
         "  makespan  --instance FILE --schedule FILE [--ports P] [--bandwidth B]\n"
         "  deadline  --instance FILE --schedule FILE [--deadline T] [--ports P]\n"
         "            [--bandwidth B] [--out FILE]\n"
         "  phases    --instance FILE --schedule FILE [--ports P] [--print]\n"
         "  dot       --instance FILE [--schedule FILE [--provenance FILE]]\n"
         "            [--out FILE]\n"
         "  explain   --instance FILE --schedule FILE --provenance FILE\n"
         "            [--actions] [--json | --csv] [--out FILE]\n"
         "            [--diff-schedule FILE --diff-provenance FILE]\n"
         "  execute   --instance FILE --schedule FILE [--faults FILE] [--seed S]\n"
         "            [--algo SPEC] [--retries N] [--backoff T] [--backoff-mult F]\n"
         "            [--backoff-max T] [--jitter F] [--max-replans N]\n"
         "            [--degrade-after N] [--attempts] [--json] [--out FILE]\n"
         "            [--provenance-out FILE] [--journal-out FILE]\n"
         "            [--timeline-out FILE] [--journal-cap N]\n"
         "  report    --journal FILE [--series FILE] [--metrics FILE]\n"
         "            [--instance FILE --schedule FILE --provenance FILE]\n"
         "            [--html FILE] [--out FILE]\n"
         "  serve     --instance FILE [--epochs FILE] [--state-dir DIR]\n"
         "            [--recover] [--listen PORT] [--port-file FILE]\n"
         "            [--final-out FILE] [--idle-exit-ms MS] [--seed S]\n"
         "            [--algo SPEC | --portfolio [--plan-budget-ticks T]]\n"
         "            [--epoch-budget T] [--max-attempts N] [--queue-depth N]\n"
         "            [--policy reject|coalesce] [--checkpoint-every N]\n"
         "            [--fsync BOOL] [--faults FILE] + execute's retry flags\n"
         "  epochs    --instance FILE [--count N] [--moves N] [--churn F]\n"
         "            [--seed S] [--out FILE] [--final-out FILE]\n"
         "  submit    --port P | --port-file FILE [--host H]\n"
         "            [--epochs FILE | --status | --drain] [--timeout-ms MS]\n"
         "            [--retries N] [--retry-ms MS]\n"
         "  help\n"
         "\n"
         "algorithm SPECs combine one builder (AR, GOLCF, RDF, GSDF)\n"
         "with improvers (H1, H2, OP1, SA, H1H2FIX), e.g. GOLCF+H1+H2+OP1.\n"
         "`solve --portfolio` races pipelines under a budget and polishes the\n"
         "winner with LNS; --budget-ticks gives a deterministic virtual-time\n"
         "budget (bit-reproducible), --budget-ms a wall-clock one. Instances\n"
         "may be text (rtsp-instance v1) or binary (RTSPBIN1, mmap-loaded);\n"
         "`generate --binary` writes the latter, `--kind scale` generates\n"
         "million-object instances fast.\n"
         "\n"
         "observability (any command):\n"
         "  --obs               print metrics + span summary after the run\n"
         "  --trace-out=FILE    write Chrome trace JSON (open in ui.perfetto.dev)\n"
         "  --metrics-out=FILE  write metrics snapshot (.json or .csv)\n"
         "  --series-out=FILE   sample metrics over time (.csv or JSONL)\n"
         "  --sample-ms=N       wall-clock sampling period (default 100)\n"
         "  --log-out=FILE      structured log (rtsp-log v1 JSONL)\n"
         "  --log-level=L       arm logging at trace|debug|info|warn|error\n"
         "  --introspect-port=P serve /metrics /healthz /progress /logz?n=K\n"
         "                      on 127.0.0.1:P while the command runs\n"
         "                      (0 picks a free port)\n";
}

int run_cli(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  if (argc < 2) {
    print_usage(err);
    return 1;
  }
  const std::string command = argv[1];
  const CliOptions opt(argc - 1, argv + 1);
  const obs::Session obs_session(opt);
  try {
    const auto finish = [&](int rc) {
      obs_session.finish(out);
      return rc;
    };
    if (command == "generate") return finish(cmd_generate(opt, out));
    if (command == "solve") return finish(cmd_solve(opt, out));
    if (command == "exact") return finish(cmd_exact(opt, out));
    if (command == "validate") return finish(cmd_validate(opt, out));
    if (command == "stats") return finish(cmd_stats(opt, out));
    if (command == "info") return finish(cmd_info(opt, out));
    if (command == "makespan") return finish(cmd_makespan(opt, out));
    if (command == "deadline") return finish(cmd_deadline(opt, out));
    if (command == "phases") return finish(cmd_phases(opt, out));
    if (command == "dot") return finish(cmd_dot(opt, out));
    if (command == "explain") return finish(cmd_explain(opt, out));
    if (command == "execute") return finish(cmd_execute(opt, out, obs_session));
    if (command == "report") return finish(cmd_report(opt, out));
    if (command == "serve") return finish(cmd_serve(opt, out, err));
    if (command == "epochs") return finish(cmd_epochs(opt, out));
    if (command == "submit") return finish(cmd_submit(opt, out));
    if (command == "help" || command == "--help" || command == "-h") {
      print_usage(out);
      return 0;
    }
    err << "unknown command '" << command << "'\n";
    print_usage(err);
    return 1;
  } catch (const CliError& e) {
    err << "error: " << e.message << '\n';
    return 1;
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace rtsp::cli
