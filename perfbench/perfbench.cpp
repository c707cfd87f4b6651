// perfbench: the end-to-end benchmark program for librtsp.
//
// One single-threaded process per phase, calling librtsp's public functions
// in-process:
//
//   perfbench setup --workload W --seed S --seconds T --dir D
//       Generates the workload's inputs from the seed and writes them to D
//       (binary instances, a request list, epoch bodies, a fault spec).
//       T fixes the number of operations, sized so that replaying them
//       takes about T seconds on a 4-vCPU VM; the count never depends on
//       how fast the code runs, so two commits replay the same inputs.
//       Prints {"setup_s": ...} on its last line.
//
//   perfbench run --workload W --dir D --trace 0|1
//                 [--trace-out FILE] [--inject CALL=MS]
//       Replays every operation in D as a closed loop with one client,
//       times every operation from outside the library, checks every
//       output, and prints one JSON result line (every metric with its
//       unit and sample count). The run phase never sees the seed, only
//       the generated files.
//
// With --trace 1 the run wraps every public call in a benchmark span,
// arms the library's obs counters/spans for the traced operations, and
// reports per-layer metrics; untraced operations interleaved with the
// traced ones give the tracing overhead. --inject busy-waits after every
// call of the named span (the injected-slowdown self-test).
//
// perfbench/README.md describes the workloads and every metric.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cost_model.hpp"
#include "core/delta.hpp"
#include "core/feasibility.hpp"
#include "core/incremental.hpp"
#include "core/validator.hpp"
#include "daemon/daemon.hpp"
#include "extension/makespan.hpp"
#include "heuristics/registry.hpp"
#include "io/epoch_io.hpp"
#include "io/fault_spec_io.hpp"
#include "io/instance_binary_io.hpp"
#include "io/schedule_io.hpp"
#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "workload/epoch_stream.hpp"
#include "workload/scale_instance.hpp"

namespace fs = std::filesystem;
using namespace rtsp;

namespace {

// ---------------------------------------------------------------------------
// Workload parameters (README.md explains each choice).

// plan-golcf: a closed loop of `rtsp solve` requests, one (instance, solver
// seed) pair per request, two solver seeds per instance, on the scale
// generator's zero-overlap family at 25 objects per server (the ratio of
// the M=500/N=12,500 point). A path takes ~105 ms.
constexpr std::size_t kPlanServers = 100;
constexpr std::size_t kPlanObjects = 2500;
constexpr std::size_t kPlanSeedsPerInstance = 2;
constexpr double kPlanPathsPerSecond = 8.0;
constexpr const char* kPlanAlgo = "GOLCF+H1+H2+OP1";
constexpr std::size_t kPlanPorts = 4;

// bulk-1m: one instance; a round is an RDF path plus a GSDF path, 5-8 s.
// Every round repeats the same two requests.
constexpr std::size_t kBulkServers = 2000;
constexpr std::size_t kBulkObjects = 1'000'000;
constexpr double kBulkSecondsPerRound = 5.0;
constexpr std::size_t kBulkMinRounds = 4;

// daemon-epochs: start placement plus a closed-loop epoch stream, ~200 ms
// an epoch. The count is 2 mod 4 (checkpoint_every is 4), so every
// recovery replays the two epochs committed after the last checkpoint.
constexpr std::size_t kDaemonServers = 500;
constexpr std::size_t kDaemonObjects = 50'000;
constexpr double kDaemonEpochsPerSecond = 5.0;
constexpr std::size_t kDaemonMinEpochs = 100;  // ten samples beyond p90
constexpr std::size_t kDaemonMoves = 500;
constexpr double kDaemonFaultRate = 0.05;
constexpr std::size_t kRecoveries = 3;

constexpr std::size_t kReplicas = 2;

/// Operations one run replays: plan paths, bulk rounds or epochs.
std::size_t operations(const std::string& workload, double seconds) {
  const auto at_least = [](double n, std::size_t floor) {
    return std::max(floor, static_cast<std::size_t>(std::ceil(n)));
  };
  if (workload == "plan-golcf") return at_least(kPlanPathsPerSecond * seconds, 2);
  if (workload == "bulk-1m") {
    return at_least(seconds / kBulkSecondsPerRound, kBulkMinRounds);
  }
  const std::size_t n = at_least(kDaemonEpochsPerSecond * seconds, kDaemonMinEpochs);
  return n + (6 - n % 4) % 4;  // round up to 2 mod 4
}

// ---------------------------------------------------------------------------
// Small helpers.

double ms_between(std::uint64_t start_ns, std::uint64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) / 1e6;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Tells whether the run's peak RSS was set by a measured path or by an
/// output check, so `peak_rss_mb` can be shown to belong to the path.
class RssWatch {
 public:
  void before_check() { observe(false); }
  void after_check() { observe(true); }
  void print(std::ostream& out) {
    observe(false);  // the work after the last check (recovery) is measured
    out << "perfbench: peak RSS " << last_mb_ << " MiB, set by "
        << (set_by_check_ ? "an output check" : "the measured work")
        << "; checks raised the running peak " << raised_ << " times\n";
  }

 private:
  void observe(bool check) {
    const double now = peak_rss_mb();
    if (now > last_mb_) {
      set_by_check_ = check;
      raised_ += check;
    }
    last_mb_ = now;
  }

  double last_mb_ = 0.0;
  bool set_by_check_ = false;
  std::size_t raised_ = 0;
};

void busy_wait_ms(double ms) {
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::duration<double, std::milli>(ms);
  while (std::chrono::steady_clock::now() < until) {
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
  if (!out) throw std::runtime_error("cannot write " + path);
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

/// Fails an output check: the operation counts as failed.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

// ---------------------------------------------------------------------------
// Benchmark-side spans around each public call.
//
// Always times the call (cheap) so the injected slowdown works in every
// mode; records a span and the per-operation layer total only when armed.

class Recorder {
 public:
  Recorder(std::string inject_call, double inject_ms)
      : inject_call_(std::move(inject_call)), inject_ms_(inject_ms) {}

  void set_armed(bool on) { armed_ = on; }

  class Scope {
   public:
    Scope(Recorder& rec, std::string name)
        : rec_(rec), name_(std::move(name)), start_ns_(obs::now_ns()) {}
    ~Scope() { rec_.close(name_, start_ns_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder& rec_;
    std::string name_;
    std::uint64_t start_ns_;
  };

  /// Starts a new operation: clears the per-operation layer totals.
  void begin_op() { op_ms_.clear(); }
  /// Milliseconds spent in each span name during the current operation.
  const std::map<std::string, double>& op_ms() const { return op_ms_; }

  const std::vector<obs::TraceEvent>& spans() const { return spans_; }

 private:
  void close(const std::string& name, std::uint64_t start_ns) {
    if (inject_ms_ > 0.0 && name == inject_call_) busy_wait_ms(inject_ms_);
    if (!armed_) return;
    const std::uint64_t end_ns = obs::now_ns();
    op_ms_[name] += ms_between(start_ns, end_ns);
    obs::TraceEvent e;
    e.name = name;
    e.detail = "perfbench";
    e.ts_ns = start_ns;
    e.dur_ns = end_ns - start_ns;
    spans_.push_back(std::move(e));
  }

  std::string inject_call_;
  double inject_ms_ = 0.0;
  bool armed_ = false;
  std::map<std::string, double> op_ms_;
  std::vector<obs::TraceEvent> spans_;
};

/// Arms the library's obs layer for one traced operation. Output checks run
/// with it paused so they add nothing to the operation's counters.
class ObsWindow {
 public:
  explicit ObsWindow(bool on) : on_(on) {
    if (!on_) return;
    obs::MetricsRegistry::instance().reset();
    obs::clear_trace();
    obs::set_enabled(true);
  }
  ~ObsWindow() { obs::set_enabled(false); }
  ObsWindow(const ObsWindow&) = delete;
  ObsWindow& operator=(const ObsWindow&) = delete;

  void pause() const { obs::set_enabled(false); }
  void resume() const { obs::set_enabled(on_); }

  /// Disarms; returns the window's counters and moves its spans to `events`.
  obs::MetricsSnapshot collect(std::vector<obs::TraceEvent>& events) const {
    obs::set_enabled(false);
    if (!on_) return {};
    std::vector<obs::TraceEvent> mine = obs::collect_trace();
    events.insert(events.end(), mine.begin(), mine.end());
    return obs::MetricsRegistry::instance().snapshot();
  }

 private:
  bool on_;
};

// ---------------------------------------------------------------------------
// Metric collection.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t samples) {
    metrics_.push_back(Metric{name, value, unit, samples});
  }
  void add_median(const std::string& name, const std::vector<double>& v,
                  const std::string& unit) {
    add(name, median(v), unit, v.size());
  }
  void add_mean(const std::string& name, const std::vector<double>& v,
                const std::string& unit) {
    add(name, mean(v), unit, v.size());
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// One JSON line: attempted, failed, and every metric with its unit and
  /// sample count (run.py prints the table).
  void print(std::ostream& out) const {
    std::ostringstream json;
    JsonWriter j(json);
    j.begin_object();
    j.key("attempted").value(static_cast<std::uint64_t>(attempted));
    j.key("failed").value(static_cast<std::uint64_t>(failed));
    j.key("metrics").begin_object();
    for (const Metric& m : metrics_) {
      j.key(m.name).begin_object();
      j.key("value").value(m.value);
      j.key("unit").value(m.unit);
      j.key("samples").value(static_cast<std::uint64_t>(m.samples));
      j.end_object();
    }
    j.end_object();
    j.end_object();
    out << json.str() << "\n";
  }

 private:
  std::vector<Metric> metrics_;
};

/// Per-layer samples gathered from traced operations.
struct LayerSamples {
  std::map<std::string, std::vector<double>> ms;      // span name -> per-op ms
  std::map<std::string, std::vector<double>> counts;  // per-op counts
  std::map<std::string, double> totals;                // summed over traced ops

  void add_ms(const std::string& name, double v) { ms[name].push_back(v); }
  void add_count(const std::string& name, double v) { counts[name].push_back(v); }

  std::vector<double> get_ms(const std::string& name) const {
    const auto it = ms.find(name);
    return it == ms.end() ? std::vector<double>{} : it->second;
  }
  std::vector<double> get_counts(const std::string& name) const {
    const auto it = counts.find(name);
    return it == counts.end() ? std::vector<double>{} : it->second;
  }
  double total(const std::string& name) const {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Writes every per-layer metric (the same list on every workload; layers a
/// workload does not reach report 0 with 0 samples).
void report_layers(Report& r, const LayerSamples& s, double overhead_pct,
                   std::size_t overhead_samples) {
  const auto ms = [&](const char* metric, const char* span) {
    r.add_median(metric, s.get_ms(span), "ms");
  };
  const auto count = [&](const char* metric, const char* key, const char* unit) {
    r.add_mean(metric, s.get_counts(key), unit);
  };
  ms("io.load_ms", "io.load");
  ms("io.serialize_ms", "io.serialize");
  count("io.schedule_bytes", "io.schedule_bytes", "bytes");
  ms("io.epoch_parse_ms", "io.epoch_parse");
  count("io.epoch_bytes", "io.epoch_bytes", "bytes");
  count("io.wal_bytes", "io.wal_bytes", "bytes");
  count("io.checkpoint_bytes", "io.checkpoint_bytes", "bytes");
  ms("core.delta_ms", "core.delta");
  ms("core.lower_bound_ms", "core.lower_bound");
  ms("core.validate_ms", "core.validate");
  count("core.validator_actions_replayed", "validator.actions_replayed", "count");
  ms("core.incr_init_ms", "core.incr_init");
  ms("heuristics.build_ms", "heuristics.build");
  ms("heuristics.h1_ms", "heuristics.h1");
  ms("heuristics.h2_ms", "heuristics.h2");
  ms("heuristics.op1_ms", "heuristics.op1");
  count("heuristics.incr_replayed_actions", "incr.replayed_actions", "count");
  const std::size_t screened = s.get_counts("incr.candidates_screened").size();
  r.add("heuristics.incr_adopt_ratio",
        ratio(s.total("incr.adopts"), s.total("incr.candidates_screened")), "ratio",
        screened);
  r.add("heuristics.op1_prescreen_reject_ratio",
        ratio(s.total("op1.prescreen_rejects"), s.total("op1.candidates")), "ratio",
        s.get_counts("op1.candidates").size());
  ms("extension.makespan_ms", "extension.makespan");
  ms("exec.execute_ms", "exec.execute");
  count("exec.attempts", "exec.attempts", "count");
  ms("daemon.admit_ms", "daemon.admit");
  ms("daemon.step_plain_ms", "daemon.step_plain");
  ms("daemon.step_ckpt_ms", "daemon.step_ckpt");
  r.add("daemon.checkpoints", s.total("daemon.checkpoints"), "count",
        s.get_counts("daemon.checkpoints").size());
  r.add("daemon.converged", s.total("daemon.converged"), "count",
        s.get_counts("daemon.converged").size());
  ms("daemon.recover_ms", "daemon.recover");
  count("quality.dummy_transfers", "quality.dummy_transfers", "count");
  r.add("trace_overhead_pct", overhead_pct, "%", overhead_samples);
}

/// Folds one traced operation's library counters into the samples.
void add_counters(LayerSamples& s, const obs::MetricsSnapshot& snap) {
  for (const char* name :
       {"validator.actions_replayed", "incr.replayed_actions", "incr.adopts",
        "incr.candidates_screened", "op1.prescreen_rejects", "op1.candidates",
        "exec.attempts"}) {
    const double v = static_cast<double>(snap.counter(name));
    s.add_count(name, v);
    s.totals[name] += v;
  }
}

// ---------------------------------------------------------------------------
// Inputs.

struct Request {
  std::size_t op = 0;  // requests with the same op index form one operation
  std::string file;
  std::string algo;
  std::uint64_t seed = 0;
  std::size_t ports = 0;  // 0 = no makespan simulation
};

void write_requests(const std::string& path, const std::vector<Request>& reqs) {
  std::ostringstream out;
  for (const Request& r : reqs) {
    out << r.op << ' ' << r.file << ' ' << r.algo << ' ' << r.seed << ' ' << r.ports
        << '\n';
  }
  write_file(path, out.str());
}

std::vector<std::vector<Request>> read_operations(const std::string& path) {
  std::istringstream in(read_file(path));
  std::vector<std::vector<Request>> ops;
  Request r;
  while (in >> r.op >> r.file >> r.algo >> r.seed >> r.ports) {
    if (r.op >= ops.size()) ops.resize(r.op + 1);
    ops[r.op].push_back(r);
  }
  if (ops.empty()) throw std::runtime_error("no requests in " + path);
  return ops;
}

Instance scale_instance(std::size_t servers, std::size_t objects, Rng& rng) {
  ScaleInstanceSpec spec;
  spec.servers = servers;
  spec.objects = objects;
  spec.replicas_per_object = kReplicas;
  spec.zero_overlap = true;
  return make_scale_instance(spec, rng);
}

void setup_plan(const std::string& dir, std::uint64_t seed, std::size_t paths) {
  const std::size_t instances =
      (paths + kPlanSeedsPerInstance - 1) / kPlanSeedsPerInstance;
  for (std::size_t i = 0; i < instances; ++i) {
    Rng rng = Rng::for_trial(seed, i);
    write_instance_binary_file(dir + "/plan" + std::to_string(i) + ".bin",
                               scale_instance(kPlanServers, kPlanObjects, rng));
  }
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < paths; ++i) {
    reqs.push_back(Request{i, "plan" + std::to_string(i % instances) + ".bin",
                           kPlanAlgo, mix64(seed, 0x5017e00 + i), kPlanPorts});
  }
  write_requests(dir + "/requests.txt", reqs);
}

void setup_bulk(const std::string& dir, std::uint64_t seed, std::size_t rounds) {
  Rng rng = Rng::for_trial(seed, 0);
  write_instance_binary_file(dir + "/bulk.bin",
                             scale_instance(kBulkServers, kBulkObjects, rng));
  std::vector<Request> reqs;
  for (std::size_t i = 0; i < rounds; ++i) {
    reqs.push_back(Request{i, "bulk.bin", "RDF", mix64(seed, 1), 0});
    reqs.push_back(Request{i, "bulk.bin", "GSDF", mix64(seed, 2), 0});
  }
  write_requests(dir + "/requests.txt", reqs);
}

void setup_daemon(const std::string& dir, std::uint64_t seed, std::size_t epochs_n) {
  Rng rng = Rng::for_trial(seed, 0);
  const Instance inst = scale_instance(kDaemonServers, kDaemonObjects, rng);
  write_instance_binary_file(dir + "/start.bin", inst);

  EpochStreamSpec spec;
  spec.count = epochs_n;
  spec.moves = kDaemonMoves;
  Rng stream_rng = Rng::for_trial(seed, 1);
  const std::vector<ReplicationMatrix> epochs =
      make_epoch_stream(inst.model, inst.x_old, spec, stream_rng);
  {
    // One POST /epochs body per line.
    std::ofstream out(dir + "/epochs.jsonl", std::ios::binary | std::ios::trunc);
    for (const ReplicationMatrix& x : epochs) {
      out << "{\"place\":" << placement_pairs_json(x) << "}\n";
    }
    if (!out) throw std::runtime_error("cannot write epochs.jsonl");
  }

  exec::FaultSpec faults;
  faults.seed = mix64(seed, 3) >> 1;  // the spec stores a signed integer
  faults.transient_failure_rate = kDaemonFaultRate;
  write_file(dir + "/faults.json", fault_spec_to_json(faults));
  write_file(dir + "/daemon.txt", std::to_string(mix64(seed, 4)) + "\n");
}

// ---------------------------------------------------------------------------
// plan-golcf and bulk-1m: the `rtsp solve` path, one request at a time.

struct PathOutcome {
  explicit PathOutcome(Instance loaded) : inst(std::move(loaded)) {}

  Instance inst;
  Schedule schedule;
  Cost lb = 0;
  Cost cost = 0;
  std::size_t dummies = 0;
  bool valid = false;
  std::string text;
  std::optional<MakespanReport> makespan;
  // Stepwise (traced) drive only: what the incremental engine reported.
  std::optional<std::pair<Cost, std::size_t>> engine_summary;
};

/// load -> delta / lower bound -> plan -> validate -> cost -> serialize
/// (-> makespan). `stepwise` drives the builder and each improver one
/// call at a time on one IncrementalEvaluator instead of Pipeline::run.
PathOutcome run_path(const Request& rq, const std::string& dir, Recorder& rec,
                     bool stepwise) {
  std::optional<Instance> loaded;
  {
    Recorder::Scope s(rec, "io.load");
    loaded.emplace(read_instance_any(dir + "/" + rq.file));
  }
  PathOutcome o(std::move(*loaded));
  const SystemModel& model = o.inst.model;
  const ReplicationMatrix& x_old = o.inst.x_old;
  const ReplicationMatrix& x_new = o.inst.x_new;
  std::size_t outstanding = 0;
  {
    Recorder::Scope s(rec, "core.delta");
    outstanding = PlacementDelta(x_old, x_new).outstanding().size();
  }
  check(outstanding > 0, "instance has nothing to move");
  {
    Recorder::Scope s(rec, "core.lower_bound");
    o.lb = cost_lower_bound(model, x_old, x_new);
  }
  const Pipeline pipeline = make_pipeline(rq.algo);
  Rng rng(rq.seed);
  if (!stepwise) {
    Recorder::Scope s(rec, "heuristics.pipeline");
    o.schedule = pipeline.run(model, x_old, x_new, rng);
  } else {
    Schedule h;
    {
      Recorder::Scope s(rec, "heuristics.build");
      h = pipeline.builder().build(model, x_old, x_new, rng);
    }
    if (!pipeline.improvers().empty()) {
      std::optional<IncrementalEvaluator> eval;
      {
        Recorder::Scope s(rec, "core.incr_init");
        eval.emplace(model, x_old, x_new, std::move(h));
      }
      for (const ImproverPtr& imp : pipeline.improvers()) {
        Recorder::Scope s(rec, "heuristics." + lower(imp->name()));
        imp->improve_incremental(*eval, rng);
      }
      o.engine_summary.emplace(eval->cost(), eval->dummy_transfers());
      h = eval->take_schedule();
    }
    o.schedule = std::move(h);
  }
  {
    Recorder::Scope s(rec, "core.validate");
    o.valid = Validator::validate(model, x_old, x_new, o.schedule).valid;
  }
  {
    Recorder::Scope s(rec, "core.cost");
    o.cost = schedule_cost(model, o.schedule);
    o.dummies = o.schedule.dummy_transfer_count();
  }
  {
    Recorder::Scope s(rec, "io.serialize");
    o.text = schedule_to_text(o.schedule);
    write_file(dir + "/out.sched", o.text);
  }
  if (rq.ports > 0) {
    Recorder::Scope s(rec, "extension.makespan");
    MakespanOptions mo;
    mo.ports = rq.ports;
    o.makespan = simulate_makespan(model, x_old, o.schedule, mo);
  }
  return o;
}

std::uint64_t schedule_hash(const Schedule& sched) {
  std::uint64_t h = sched.size();
  for (const Action& a : sched) {
    h = mix64(h, static_cast<std::uint64_t>(a.kind));
    h = mix64(h, a.server);
    h = mix64(h, a.object);
    h = mix64(h, a.is_transfer() ? a.source : 0);
  }
  return h;
}

/// The output checks, outside every timed region. They need only the
/// model, so the path's schedule (hashed first) and placements are
/// released before the text is parsed back: the checks then hold about
/// as much memory as the path did, and the run's peak RSS stays the path's.
void check_path(PathOutcome& o, const std::string& label) {
  check(o.valid, label + ": schedule is not validator-clean");
  const std::uint64_t planned = schedule_hash(o.schedule);
  o.schedule = Schedule();
  o.inst.x_old = ReplicationMatrix();
  o.inst.x_new = ReplicationMatrix();
  const Schedule parsed = schedule_from_text(o.text);
  check(schedule_hash(parsed) == planned, label + ": schedule text does not round-trip");
  check(schedule_cost(o.inst.model, parsed) == o.cost,
        label + ": recomputed cost differs from the reported cost");
  check(parsed.dummy_transfer_count() == o.dummies,
        label + ": recomputed dummy count differs from the reported count");
  if (o.engine_summary) {
    check(o.engine_summary->first == o.cost && o.engine_summary->second == o.dummies,
          label + ": incremental engine summary differs from the schedule");
  }
  check(o.lb > 0 && o.cost >= o.lb, label + ": cost below the lower bound");
  if (o.makespan) {
    check(o.makespan->makespan > 0.0 &&
              o.makespan->makespan <= o.makespan->serial_time * (1.0 + 1e-9),
          label + ": makespan outside (0, serial time]");
  }
}

/// What the full checks established for one request; a repeat of the
/// request must reproduce it exactly.
struct Checked {
  std::size_t text_hash = 0;
  Cost cost = 0;
  std::size_t dummies = 0;
  Cost lb = 0;
  bool operator==(const Checked&) const = default;
};

/// Runs the full checks on a request's first output; a repeated request
/// (every bulk round) must match that checked output instead of parsing
/// the text back again.
void check_output(PathOutcome& o, const Request& rq, const std::string& label,
                  std::map<std::string, Checked>& checked) {
  const Checked mine{std::hash<std::string>{}(o.text), o.cost, o.dummies, o.lb};
  const std::string key = rq.file + ' ' + rq.algo + ' ' + std::to_string(rq.seed);
  const auto it = checked.find(key);
  if (it != checked.end()) {
    check(o.valid, label + ": schedule is not validator-clean");
    check(mine == it->second, label + ": output differs from the checked output of "
                                      "the same request");
    return;
  }
  check_path(o, label);
  checked.emplace(key, mine);
}

/// Operation latencies, split by how the traced run handled them.
struct Latencies {
  std::vector<double> measured;  // untraced run: every operation
  std::vector<double> traced;    // traced run: obs + spans armed
  std::vector<double> untraced;  // traced run: the interleaved reference
};

void report_end_to_end(Report& report, const Latencies& lat, double cost_sum,
                       double lb_sum, RssWatch& rss) {
  report.add_median("latency_p50_ms", lat.measured, "ms");
  report.add("latency_p90_ms", percentile(lat.measured, 0.9), "ms",
             lat.measured.size());
  report.add("cost_over_lb", ratio(cost_sum, lb_sum), "ratio", lat.measured.size());
  report.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
  rss.print(std::cerr);
}

double overhead_pct(const Latencies& lat) {
  const double base = median(lat.untraced);
  return base > 0.0 ? 100.0 * (median(lat.traced) / base - 1.0) : 0.0;
}

void run_paths(const std::string& dir, bool traced, Recorder& rec, Report& report,
               std::vector<obs::TraceEvent>& lib_events) {
  const std::vector<std::vector<Request>> ops = read_operations(dir + "/requests.txt");
  Latencies lat;
  double cost_sum = 0.0, lb_sum = 0.0;
  RssWatch rss;
  std::map<std::string, Checked> checked;
  LayerSamples layers;
  // Text hashes of the latest untraced operation: the traced (stepwise)
  // drive must reproduce Pipeline::run bit for bit.
  std::vector<std::size_t> reference;
  // The traced run replays each operation twice, so it takes the first
  // half of them and lasts about as long as an untraced run.
  const std::size_t count = traced ? std::max<std::size_t>(1, ops.size() / 2) : ops.size();
  // One untimed, unchecked path first, so that the timed ones do not pay
  // for the process's cold caches and first page faults.
  rec.set_armed(false);
  run_path(ops.front().front(), dir, rec, /*stepwise=*/false);
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<Request>& op = ops[i];
    for (const bool arm : traced ? std::vector<bool>{false, true}
                                 : std::vector<bool>{false}) {
      rec.set_armed(arm);
      rec.begin_op();
      ++report.attempted;
      try {
        ObsWindow window(arm);
        double op_ms = 0.0, bytes = 0.0, dummies = 0.0;
        std::vector<std::size_t> hashes;
        for (const Request& rq : op) {
          const std::uint64_t t0 = obs::now_ns();
          PathOutcome o = run_path(rq, dir, rec, /*stepwise=*/arm);
          op_ms += ms_between(t0, obs::now_ns());
          window.pause();
          rss.before_check();
          check_output(o, rq, rq.algo + " request " + std::to_string(i), checked);
          rss.after_check();
          cost_sum += traced ? 0.0 : static_cast<double>(o.cost);
          lb_sum += traced ? 0.0 : static_cast<double>(o.lb);
          bytes += static_cast<double>(o.text.size());
          dummies += static_cast<double>(o.dummies);
          hashes.push_back(std::hash<std::string>{}(o.text));
          window.resume();
        }
        std::vector<obs::TraceEvent> events;
        const obs::MetricsSnapshot snap = window.collect(events);
        if (!traced) {
          lat.measured.push_back(op_ms);
        } else if (!arm) {
          lat.untraced.push_back(op_ms);
          reference = hashes;
        } else {
          check(hashes == reference,
                "traced stepwise schedule differs from the Pipeline::run schedule");
          lat.traced.push_back(op_ms);
          for (const auto& [name, v] : rec.op_ms()) layers.add_ms(name, v);
          layers.add_count("io.schedule_bytes", bytes);
          layers.add_count("quality.dummy_transfers", dummies);
          add_counters(layers, snap);
          lib_events.insert(lib_events.end(), events.begin(), events.end());
        }
      } catch (const std::exception& e) {
        std::cerr << "perfbench: operation " << i << " failed: " << e.what() << "\n";
        ++report.failed;
      }
    }
  }
  if (traced) {
    report_layers(report, layers, overhead_pct(lat), lat.traced.size());
  } else {
    report_end_to_end(report, lat, cost_sum, lb_sum, rss);
  }
}

// ---------------------------------------------------------------------------
// daemon-epochs: the `rtsp serve` path, one closed-loop client.

/// Library span time of one traced epoch, mapped onto the per-layer names.
void add_daemon_spans(LayerSamples& s, const std::vector<obs::TraceEvent>& events) {
  std::map<std::string, double> ms{{"heuristics.build", 0.0},
                                   {"heuristics.h1", 0.0},
                                   {"heuristics.h2", 0.0},
                                   {"heuristics.op1", 0.0},
                                   {"exec.execute", 0.0}};
  for (const obs::TraceEvent& e : events) {
    if (e.kind != obs::TraceEvent::Kind::Complete) continue;
    const double d = static_cast<double>(e.dur_ns) / 1e6;
    if (e.name.rfind("build.", 0) == 0) ms["heuristics.build"] += d;
    if (e.name == "improve.H1") ms["heuristics.h1"] += d;
    if (e.name == "improve.H2") ms["heuristics.h2"] += d;
    if (e.name == "improve.OP1") ms["heuristics.op1"] += d;
    if (e.name == "execute") ms["exec.execute"] += d;
  }
  for (const auto& [name, v] : ms) s.add_ms(name, v);
}

void run_daemon(const std::string& dir, bool traced, Recorder& rec, Report& report,
                std::vector<obs::TraceEvent>& lib_events) {
  const Instance inst = read_instance_any(dir + "/start.bin");
  const SystemModel& model = inst.model;
  daemon::DaemonOptions options;
  options.state_dir = dir + "/state";
  fs::remove_all(options.state_dir);
  options.seed = std::stoull(read_file(dir + "/daemon.txt"));
  options.faults = fault_spec_from_json(read_file(dir + "/faults.json"));
  options.record_effective = traced;  // the traced run counts dummy transfers
  const std::string wal_path = options.state_dir + "/wal.log";
  auto core = std::make_unique<daemon::DaemonCore>(model, inst.x_old, options);

  std::ifstream epochs(dir + "/epochs.jsonl", std::ios::binary);
  if (!epochs) throw std::runtime_error("cannot open epochs.jsonl");
  Latencies lat;
  double cost_sum = 0.0, lb_sum = 0.0;
  LayerSamples layers;
  ReplicationMatrix before = inst.x_old;
  std::size_t logged = 0;  // effective_log() entries already counted
  std::size_t done = 0;
  RssWatch rss;
  std::string body;
  while (std::getline(epochs, body)) {
    // The traced run arms obs on every other epoch; the disarmed epochs
    // are the reference for the tracing overhead.
    const bool arm = traced && done % 2 == 0;
    rec.set_armed(traced);
    rec.begin_op();
    ++report.attempted;
    try {
      ObsWindow window(arm);
      const DaemonCounters c0 = core->counters();
      const std::uintmax_t wal0 = fs::file_size(wal_path);
      const std::uint64_t t0 = obs::now_ns();
      ReplicationMatrix target;
      {
        Recorder::Scope s(rec, "io.epoch_parse");
        const JsonValue doc = parse_json(body);
        target = placement_from_pairs(doc.at("place"), model.num_servers(),
                                      model.num_objects());
      }
      daemon::AdmitResult admitted;
      {
        Recorder::Scope s(rec, "daemon.admit");
        admitted = core->admit(target);
      }
      check(admitted.accepted(), "admission refused: " + admitted.error);
      std::vector<std::pair<bool, double>> steps;  // (checkpointed, ms)
      while (!core->idle()) {
        const std::uint64_t checkpoints = core->counters().checkpoints;
        const std::uint64_t s0 = obs::now_ns();
        {
          Recorder::Scope s(rec, "daemon.step");
          core->step();
        }
        steps.emplace_back(core->counters().checkpoints > checkpoints,
                           ms_between(s0, obs::now_ns()));
      }
      const double epoch_ms = ms_between(t0, obs::now_ns());
      window.pause();

      rss.before_check();
      check(core->placement() == target, "committed placement differs from its target");
      const DaemonCounters c1 = core->counters();
      cost_sum += static_cast<double>(c1.cost_paid - c0.cost_paid);
      lb_sum += static_cast<double>(cost_lower_bound(model, before, target));
      rss.after_check();
      before = std::move(target);

      bool checkpointed = false;
      for (const auto& [ckpt, ms] : steps) checkpointed = checkpointed || ckpt;
      if (!traced) {
        lat.measured.push_back(epoch_ms);
      } else {
        if (!checkpointed) (arm ? lat.traced : lat.untraced).push_back(epoch_ms);
        for (const auto& [name, v] : rec.op_ms()) {
          if (name != "daemon.step") layers.add_ms(name, v);
        }
        for (const auto& [ckpt, ms] : steps) {
          layers.add_ms(ckpt ? "daemon.step_ckpt" : "daemon.step_plain", ms);
        }
        layers.add_count("io.epoch_bytes", static_cast<double>(body.size()));
        if (!checkpointed) {  // a checkpoint rotates the WAL
          layers.add_count("io.wal_bytes",
                           static_cast<double>(fs::file_size(wal_path) - wal0));
        }
        const auto add_total = [&](const char* name, double v) {
          layers.add_count(name, v);
          layers.totals[name] += v;
        };
        add_total("daemon.checkpoints", static_cast<double>(c1.checkpoints - c0.checkpoints));
        add_total("daemon.converged", static_cast<double>(c1.converged - c0.converged));
        const Schedule& log = core->effective_log();
        std::size_t dummies = 0;
        for (; logged < log.size(); ++logged) dummies += log[logged].is_dummy_transfer();
        layers.add_count("quality.dummy_transfers", static_cast<double>(dummies));
        if (arm) {
          std::vector<obs::TraceEvent> events;
          add_counters(layers, window.collect(events));
          add_daemon_spans(layers, events);
          lib_events.insert(lib_events.end(), events.begin(), events.end());
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: epoch " << done + 1 << " failed: " << e.what() << "\n";
      ++report.failed;
    }
    ++done;
  }

  ++report.attempted;  // the final placement
  if (core->placement_crc() != daemon::placement_fingerprint(before)) {
    std::cerr << "perfbench: final placement CRC differs from the last target\n";
    ++report.failed;
  }
  if (traced) {
    layers.add_count("io.checkpoint_bytes",
                     static_cast<double>(fs::file_size(options.state_dir + "/checkpoint")));
  }

  // Simulated power loss, then recovery from copies of the state directory.
  const std::uint64_t crc = core->placement_crc();
  const exec::Tick clock = core->clock();
  DaemonCounters counters = core->counters();
  counters.checkpoints = counters.recoveries = 0;
  core->abandon();
  core.reset();
  const std::string copy = dir + "/state_recover";
  for (std::size_t r = 0; r < kRecoveries; ++r) {
    ++report.attempted;
    fs::remove_all(copy);
    fs::copy(options.state_dir, copy, fs::copy_options::recursive);
    daemon::DaemonOptions recover_options = options;
    recover_options.state_dir = copy;
    rec.set_armed(traced);
    rec.begin_op();
    try {
      daemon::RecoverReport rep;
      std::optional<daemon::DaemonCore> recovered;
      {
        Recorder::Scope s(rec, "daemon.recover");
        recovered.emplace(model, inst.x_old, recover_options, rep);
      }
      DaemonCounters rc = recovered->counters();
      rc.checkpoints = rc.recoveries = 0;
      check(recovered->placement_crc() == crc && recovered->clock() == clock &&
                rc == counters,
            "recovered state differs from the uninterrupted run");
      recovered->abandon();
      for (const auto& [name, v] : rec.op_ms()) layers.add_ms(name, v);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: recovery " << r << " failed: " << e.what() << "\n";
      ++report.failed;
    }
  }
  fs::remove_all(copy);

  if (traced) {
    report_layers(report, layers, overhead_pct(lat), lat.traced.size());
  } else {
    report_end_to_end(report, lat, cost_sum, lb_sum, rss);
  }
}

// ---------------------------------------------------------------------------

struct Args {
  std::string mode, workload, dir, trace_out, inject;
  std::uint64_t seed = 1;
  double seconds = 0.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench setup|run --workload W ...");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--dir") a.dir = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--trace-out") a.trace_out = v;
    else if (k == "--inject") a.inject = v;
    else throw std::invalid_argument("unknown flag " + k);
  }
  if (a.workload != "plan-golcf" && a.workload != "bulk-1m" &&
      a.workload != "daemon-epochs") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (a.dir.empty()) throw std::invalid_argument("missing --dir");
  if (a.mode == "setup" && !(a.seconds > 0.0)) {
    throw std::invalid_argument("setup needs --seconds > 0");
  }
  return a;
}

int setup(const Args& a) {
  fs::remove_all(a.dir);
  fs::create_directories(a.dir);
  const std::size_t n = operations(a.workload, a.seconds);
  const std::uint64_t t0 = obs::now_ns();
  if (a.workload == "plan-golcf") setup_plan(a.dir, a.seed, n);
  if (a.workload == "bulk-1m") setup_bulk(a.dir, a.seed, n);
  if (a.workload == "daemon-epochs") setup_daemon(a.dir, a.seed, n);
  std::cout << "{\"setup_s\":" << format_double_json(ms_between(t0, obs::now_ns()) / 1e3)
            << "}\n";
  return 0;
}

int run(const Args& a) {
  std::string inject_call;
  double inject_ms = 0.0;
  if (!a.inject.empty()) {
    const std::size_t eq = a.inject.find('=');
    if (eq == std::string::npos) throw std::invalid_argument("--inject CALL=MS");
    inject_call = a.inject.substr(0, eq);
    inject_ms = std::stod(a.inject.substr(eq + 1));
  }
  Recorder rec(inject_call, inject_ms);
  Report report;
  std::vector<obs::TraceEvent> lib_events;
  if (a.workload == "daemon-epochs") {
    run_daemon(a.dir, a.trace, rec, report, lib_events);
  } else {
    run_paths(a.dir, a.trace, rec, report, lib_events);
  }
  if (a.trace && !a.trace_out.empty()) {
    std::vector<obs::TraceEvent> all = rec.spans();
    all.insert(all.end(), lib_events.begin(), lib_events.end());
    obs::write_trace_file(a.trace_out, all);
  }
  report.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    if (a.mode == "setup") return setup(a);
    if (a.mode == "run") return run(a);
    throw std::invalid_argument("unknown mode '" + a.mode + "'");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
