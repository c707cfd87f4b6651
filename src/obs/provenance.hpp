// Schedule provenance: a side table parallel to a Schedule recording, for
// every action, which stage (builder / improver pass) emitted it, which
// accepted rewrite introduced it (with the accepted cost delta and the
// actions it replaced), and — for every transfer sourced at the dummy server
// — a root-cause record: the free-space snapshot and the blocking
// (server, object) pairs at emission time, i.e. the concrete Fig.-1-style
// capacity-deadlock witness.
//
// Recording is opt-in and layered like the rest of src/obs:
//   * compile time — when RTSP_OBS_ENABLED is 0, current() is a constexpr
//     nullptr so every hook call site folds away; only the passive data
//     model below survives (rtsp explain must still read sidecar files);
//   * run time — hooks fire only while a prov::Scope is armed on the
//     current thread (one thread-local pointer load otherwise).
// Recording never mutates the schedules it observes: with recording on or
// off the produced schedules are bit-identical.
//
// The data structures are deliberately plain (vectors + indices) so the io
// layer can serialize them without this header depending on io.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/action.hpp"
#include "core/replication.hpp"
#include "core/schedule.hpp"
#include "core/system.hpp"

#ifndef RTSP_OBS_ENABLED
#define RTSP_OBS_ENABLED 1
#endif

namespace rtsp::prov {

/// Index sentinel for "no link" (rewrite / root cause absent).
inline constexpr std::size_t kNone = static_cast<std::size_t>(-1);

enum class StageKind : std::uint8_t { Builder, Improver, Unknown };

const char* to_string(StageKind k);

/// One originating stage, interned once per (kind, name) pair.
struct Stage {
  StageKind kind = StageKind::Unknown;
  std::string name;  ///< builder/improver name, e.g. "GOLCF", "H1"

  bool operator==(const Stage&) const = default;
};

/// One accepted improver rewrite: the diff window of an adopted candidate.
struct Rewrite {
  std::uint32_t stage = 0;   ///< index into Provenance::stages
  int pass = -1;             ///< improver pass (H1/H2); -1 when n/a
  int round = -1;            ///< OP1 / fixpoint round; -1 when n/a
  std::size_t rank = 0;      ///< 1-based adoption ordinal within the stage
  std::size_t pos = 0;       ///< schedule position where the window starts
  std::size_t removed = 0;   ///< actions removed from the window
  std::size_t inserted = 0;  ///< actions inserted into the window
  Cost cost_delta = 0;       ///< accepted cost(after) - cost(before)
  std::int64_t dummy_delta = 0;  ///< dummies(after) - dummies(before)
  std::uint64_t span_id = 0;     ///< enclosing OBS_SPAN id (0 = none)
  std::vector<std::uint64_t> replaced;  ///< entry ids the window removed

  bool operator==(const Rewrite&) const = default;
};

/// Deadlock witness for one transfer sourced at the dummy server.
struct RootCause {
  enum class Kind : std::uint8_t {
    CapacityDeadlock,   ///< every former holder deleted the object (Fig. 1)
    NoInitialReplica,   ///< the object never had a source to begin with
    SourceAvailable,    ///< a live holder existed; the stage still chose dummy
  };

  /// A former holder of the object: it could have served the transfer but
  /// deleted its replica earlier, and the listed occupying objects (arrived
  /// since X_old) now block it from re-hosting the object.
  struct Blocker {
    ServerId server = 0;
    std::size_t deleted_at = kNone;  ///< schedule position of that deletion
    Size free_space = 0;             ///< blocker free space at emission
    std::vector<ObjectId> occupying; ///< non-X_old objects it now holds

    bool operator==(const Blocker&) const = default;
  };

  Kind kind = Kind::CapacityDeadlock;
  ObjectId object = 0;
  ServerId dest = 0;
  Size object_size = 0;
  Size dest_free_space = 0;        ///< destination free space at emission
  std::vector<ServerId> holders;   ///< live holders at emission (SourceAvailable)
  std::vector<Blocker> blockers;
  std::vector<Size> free_space;    ///< per-server free-space snapshot

  bool operator==(const RootCause&) const = default;
};

/// Per-action provenance; Provenance::entries is parallel to the schedule.
struct Entry {
  std::uint64_t id = 0;            ///< stable id (survives window shifts)
  std::uint32_t stage = 0;         ///< index into Provenance::stages
  int pass = -1;                   ///< stage pass at emission; -1 when n/a
  int round = -1;                  ///< stage round at emission; -1 when n/a
  std::size_t rewrite = kNone;     ///< index into rewrites; kNone for builder
  std::size_t root_cause = kNone;  ///< index into root_causes (dummy only)
  std::uint64_t span_id = 0;       ///< enclosing OBS_SPAN id at emission

  bool operator==(const Entry&) const = default;
};

struct Provenance {
  std::vector<Stage> stages;
  std::vector<Rewrite> rewrites;
  std::vector<RootCause> root_causes;
  std::vector<Entry> entries;

  bool empty() const { return entries.empty(); }

  bool operator==(const Provenance&) const = default;
};

/// Per-stage share of a schedule's totals, derived from a Provenance table.
struct StageAttribution {
  std::uint32_t stage = 0;  ///< index into Provenance::stages
  std::size_t actions = 0;
  std::size_t transfers = 0;
  std::size_t deletions = 0;
  std::size_t dummy_transfers = 0;
  Cost cost = 0;        ///< summed action_cost of this stage's actions
  Cost dummy_cost = 0;  ///< portion of `cost` paid on dummy links
  std::size_t rewrites = 0;       ///< rewrites accepted by this stage
  Cost rewrite_cost_delta = 0;    ///< net accepted cost delta
  std::int64_t rewrite_dummy_delta = 0;
};

/// Exact per-stage breakdown: the per-stage sums equal the whole-schedule
/// totals (schedule_stats) bit for bit, because every action is attributed
/// to exactly one stage. Requires entries parallel to `h`.
struct AttributionSummary {
  std::vector<StageAttribution> stages;
  std::size_t total_actions = 0;
  std::size_t transfers = 0;
  std::size_t deletions = 0;
  std::size_t dummy_transfers = 0;
  Cost total_cost = 0;
  Cost dummy_cost = 0;
};

AttributionSummary attribute_schedule(const SystemModel& model, const Schedule& h,
                                      const Provenance& p);

/// Recomputes the deadlock witness for the dummy transfer `h[pos]` against
/// the prefix h[0..pos): replays the prefix from x_old, collecting the former
/// holders (with their deletion positions and current occupants) and the
/// free-space snapshot.
RootCause make_root_cause(const SystemModel& model, const ReplicationMatrix& x_old,
                          const Schedule& h, std::size_t pos);

class Recorder;

#if RTSP_OBS_ENABLED
inline constexpr bool kRecorderCompiled = true;
/// Recorder armed on this thread (nullptr when none). Hooks below check it,
/// so instrumented code pays one thread-local load when recording is off.
Recorder* current() noexcept;
namespace detail {
void set_current(Recorder* r) noexcept;
}
#else
inline constexpr bool kRecorderCompiled = false;
constexpr Recorder* current() noexcept { return nullptr; }
#endif

/// Builds the provenance table while builders/improvers run. All hooks are
/// invoked on the thread that mutates the schedule. The recorder keeps its
/// own copy of the evolving schedule, which lets it diff full replacements
/// and verify it never drifted out of sync.
class Recorder {
 public:
  Recorder(const SystemModel& model, const ReplicationMatrix& x_old);

  /// A builder appended `a` (not yet applied) at the current end position.
  void on_emit(const Action& a);

  /// An improver adopted `cand` over `base`; [prefix, *_suffix_start) is the
  /// minimal diff window, deltas are the accepted metric changes.
  void on_adopt(const Schedule& base, const Schedule& cand, std::size_t prefix,
                std::size_t base_suffix_start, std::size_t cand_suffix_start,
                Cost cost_delta, std::int64_t dummy_delta);

  /// The evaluator's base was replaced wholesale (eval.reset); diffed from
  /// the ends against the previously observed schedule.
  void on_reset(const Schedule& new_base);

  void push_stage(StageKind kind, const std::string& name);
  void pop_stage();
  void set_pass(int pass) { pass_ = pass; }
  void set_round(int round) { round_ = round; }

  /// Finishes recording against the delivered schedule: re-derives any
  /// witness whose blocker positions went stale after window shifts and
  /// guarantees every dummy transfer carries a non-empty record.
  Provenance finalize(const Schedule& final_schedule);

 private:
  std::uint32_t intern_stage(StageKind kind, const std::string& name);
  std::uint32_t current_stage();
  void resync(const Schedule& base);
  Entry fresh_entry(std::uint32_t stage, std::size_t rewrite);

  struct Frame {
    std::uint32_t stage = 0;
    int saved_pass = -1;
    int saved_round = -1;
  };

  const SystemModel& model_;
  const ReplicationMatrix& x_old_;
  Provenance prov_;
  Schedule actions_;  ///< recorder's copy of the evolving schedule
  std::uint64_t next_id_ = 0;
  std::vector<Frame> stage_stack_;
  std::vector<std::size_t> adoptions_;  ///< per-stage adoption counters
  int pass_ = -1;
  int round_ = -1;
};

/// RAII: arms a Recorder as the thread's current one for the duration of a
/// builder+improver run; finalize() hands back the table. A no-op shell when
/// provenance is compiled out (RTSP_OBS=OFF).
class Scope {
 public:
  Scope(const SystemModel& model, const ReplicationMatrix& x_old);
  ~Scope();

  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// The recorded table, witness-checked against the delivered schedule.
  /// Empty (entries-less) when compiled out.
  Provenance finalize(const Schedule& final_schedule);

 private:
  std::unique_ptr<Recorder> recorder_;
  Recorder* previous_ = nullptr;
};

/// RAII stage frame: all actions emitted / rewrites adopted inside are
/// attributed to (kind, name). Nested frames shadow (fixpoint chains push
/// the inner improver's frame). Saves/restores pass and round counters.
class StageScope {
 public:
  StageScope(StageKind kind, const std::string& name);
  ~StageScope();

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  Recorder* recorder_ = nullptr;
};

/// RAII: temporarily disarms the thread's recorder. Used around helper
/// builds whose emitted actions are not part of the observed schedule — the
/// portfolio's LNS repair builders rebuild a destroyed window as a
/// sub-instance, and recording those emits would desync the recorder's
/// schedule copy. A no-op shell when provenance is compiled out.
class Suspend {
 public:
  Suspend();
  ~Suspend();

  Suspend(const Suspend&) = delete;
  Suspend& operator=(const Suspend&) = delete;

 private:
  Recorder* saved_ = nullptr;
};

/// Hook helpers: single thread-local load when recording is off; fold away
/// entirely when compiled out.
inline void note_emit(const Action& a) {
  if (Recorder* r = current()) r->on_emit(a);
}
inline void note_pass(int pass) {
  if (Recorder* r = current()) r->set_pass(pass);
}
inline void note_round(int round) {
  if (Recorder* r = current()) r->set_round(round);
}

}  // namespace rtsp::prov
