#ifndef CFC_SCHED_SIM_H
#define CFC_SCHED_SIM_H

#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include <vector>

#include "memory/access.h"
#include "memory/model.h"
#include "memory/register_file.h"
#include "memory/types.h"
#include "sched/event_sink.h"
#include "sched/frame_arena.h"
#include "sched/run.h"
#include "sched/task.h"

namespace cfc {

class Sim;

/// One schedule unit: a scheduler pick (`start_only == false`, executed
/// via step()) or a bare body start (`start_only == true`, executed via
/// ensure_started() — the adversary constructions use it). A run's
/// schedule log (Sim::schedule_log) is the sequence of its units; stepping
/// a freshly built simulation along it reproduces the run.
struct ScheduleUnit {
  Pid pid = -1;
  bool start_only = false;
};

/// Thrown when two processes are simultaneously in their critical sections
/// and the mutual-exclusion invariant check is enabled.
struct MutualExclusionViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Thrown when an access violates the simulation's access policy (e.g. a
/// bit operation outside the declared model, or a multi-bit read in a
/// bits-only naming simulation).
struct AccessPolicyViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// What kinds of accesses a simulation permits.
enum class AccessPolicy : std::uint8_t {
  /// Anything goes (default).
  Unrestricted,
  /// Atomic-register model of Section 2: one Read or one Write of a single
  /// register per step; no read-modify-write bit operations.
  RegistersOnly,
  /// Bit-operation model of Section 3: every access is one BitOp applied to
  /// one shared bit, and the BitOp must belong to the declared Model.
  BitModel,
};

/// The access a process has decided to perform next. A live process is
/// always suspended at exactly one pending access; the simulator performs it
/// atomically when a scheduler picks the process. A pending access with
/// `local_yield` set performs no shared-memory operation: it is the paper's
/// "update of the internal state" event — it occupies a scheduling slot (so
/// other processes can observe the state in between) but is not counted by
/// any complexity measure.
struct PendingAccess {
  AccessKind kind = AccessKind::Read;
  BitOp bit_op = BitOp::Skip;
  RegId reg = -1;
  Value to_write = 0;
  bool local_yield = false;
  /// Multi-grain store (Section 1.3, after [MS93]): when `field_width` > 0
  /// the write atomically replaces only bits [field_shift,
  /// field_shift+field_width) of the register — several logical registers
  /// packed into one word, written at sub-word granularity.
  int field_shift = 0;
  int field_width = 0;

  friend bool operator==(const PendingAccess&,
                         const PendingAccess&) = default;
};

/// Per-process door to shared memory. Handed to algorithm coroutines; every
/// method returning an awaiter suspends the coroutine until the simulator
/// executes the access. Section changes and outputs are zero-cost local
/// events (they do not count as steps).
class ProcessContext {
 public:
  class AccessAwaiter {
   public:
    AccessAwaiter(ProcessContext& ctx, PendingAccess req)
        : ctx_(&ctx), req_(req) {}
    [[nodiscard]] bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const {
      ctx_->post(req_, h);
    }
    [[nodiscard]] Value await_resume() const noexcept {
      return ctx_->last_result();
    }

   private:
    ProcessContext* ctx_;
    PendingAccess req_;
  };

  /// --- Atomic-register operations (mutual exclusion, Section 2). ---
  [[nodiscard]] AccessAwaiter read(RegId r) {
    return {*this, PendingAccess{AccessKind::Read, BitOp::Skip, r, 0}};
  }
  [[nodiscard]] AccessAwaiter write(RegId r, Value v) {
    return {*this, PendingAccess{AccessKind::Write, BitOp::Skip, r, v}};
  }

  /// --- Single-bit operations (naming, Section 3). ---
  [[nodiscard]] AccessAwaiter op(BitOp o, RegId r) {
    return {*this, PendingAccess{AccessKind::Bit, o, r, 0}};
  }
  [[nodiscard]] AccessAwaiter read_bit(RegId r) { return op(BitOp::Read, r); }
  [[nodiscard]] AccessAwaiter test_and_set(RegId r) {
    return op(BitOp::TestAndSet, r);
  }
  [[nodiscard]] AccessAwaiter test_and_reset(RegId r) {
    return op(BitOp::TestAndReset, r);
  }
  [[nodiscard]] AccessAwaiter test_and_flip(RegId r) {
    return op(BitOp::TestAndFlip, r);
  }
  [[nodiscard]] AccessAwaiter flip(RegId r) { return op(BitOp::Flip, r); }
  [[nodiscard]] AccessAwaiter write_bit(RegId r, bool v) {
    return op(v ? BitOp::Write1 : BitOp::Write0, r);
  }

  /// Multi-grain sub-word store: atomically writes `v` into bits
  /// [shift, shift+width) of register r, leaving the rest of the word
  /// intact. One counted step, like any store; the enabling hardware is
  /// the multi-granularity memory access of Section 1.3 / [MS93].
  [[nodiscard]] AccessAwaiter write_field(RegId r, int shift, int width,
                                          Value v) {
    if (width < 1) {
      throw std::invalid_argument(
          "write_field: field width must be >= 1 (a zero-width store is "
          "not an access)");
    }
    if (shift < 0) {
      throw std::invalid_argument("write_field: negative field shift");
    }
    PendingAccess pa;
    pa.kind = AccessKind::Write;
    pa.reg = r;
    pa.to_write = v;
    pa.field_shift = shift;
    pa.field_width = width;
    return {*this, pa};
  }

  /// A local (internal) step: suspends until the scheduler picks this
  /// process again, without touching shared memory or any complexity
  /// counter. The mutex driver yields once inside the critical section so
  /// that CS occupancy spans at least one state of the run.
  [[nodiscard]] AccessAwaiter yield() {
    PendingAccess pa;
    pa.local_yield = true;
    return {*this, pa};
  }

  /// Moves this process to a protocol section (free local event).
  void set_section(Section s);

  /// Records the process's decision value (naming: the claimed name;
  /// contention detection: 0 or 1). Free local event.
  void set_output(int value);

  [[nodiscard]] Pid pid() const noexcept { return pid_; }
  [[nodiscard]] int process_count() const noexcept;

 private:
  friend class Sim;

  ProcessContext(Sim& sim, Pid pid) : sim_(&sim), pid_(pid) {}
  void post(const PendingAccess& req, std::coroutine_handle<> h) {
    // Hot path (once per access request): write straight into the
    // process record through slots cached at spawn, skipping the
    // bounds-checked process lookup.
    *pending_slot_ = req;
    *resume_slot_ = h;
  }
  [[nodiscard]] Value last_result() const noexcept {
    return *last_result_slot_;
  }

  Sim* sim_;
  Pid pid_;
  // Stable addresses into this process's Sim record (each record is
  // heap-allocated once), wired by Sim::spawn.
  std::optional<PendingAccess>* pending_slot_ = nullptr;
  std::coroutine_handle<>* resume_slot_ = nullptr;
  const Value* last_result_slot_ = nullptr;
};

/// Lifecycle state of a simulated process.
enum class ProcStatus : std::uint8_t {
  NotStarted,  ///< spawned, body not yet running (counts as remainder/idle)
  Runnable,    ///< suspended at a pending access
  Done,        ///< body ran to completion
  Crashed,     ///< stopping failure injected; takes no further steps
};

/// Discrete-event simulator implementing the paper's interleaving semantics
/// (Section 2.2): a run is an alternating sequence of states and events,
/// where each event is one process's atomic access to one shared register.
///
/// Schedulers drive the run by calling `step(pid)`, which executes exactly
/// one shared-memory access of that process (local computation between
/// accesses is free, matching the step-complexity measure). The full run is
/// recorded in `trace()` for the measurement code in core/measures.h.
class Sim {
 public:
  using BodyFactory = std::function<Task<void>(ProcessContext&)>;

  Sim() = default;
  Sim(const Sim&) = delete;
  Sim& operator=(const Sim&) = delete;
  Sim(Sim&&) = delete;
  Sim& operator=(Sim&&) = delete;

  [[nodiscard]] RegisterFile& memory() { return mem_; }
  [[nodiscard]] const RegisterFile& memory() const { return mem_; }

  /// Registers a process. The body coroutine is created lazily on its first
  /// step, so spawning alone leaves the process "not started" (idle), which
  /// the contention-free windows treat as being in the remainder region.
  /// A rewindable simulation may restart the body and replay its delivered
  /// values (rewind_to_mark), so a body must keep its run-time state only
  /// in its coroutine frame and shared registers.
  Pid spawn(std::string proc_name, BodyFactory factory);

  [[nodiscard]] int process_count() const {
    return static_cast<int>(procs_.size());
  }

  /// Outcome of one scheduler pick.
  enum class StepResult : std::uint8_t {
    Access,       ///< performed one shared-memory access
    LocalStep,    ///< performed an internal (yield) step, not counted
    Finished,     ///< body completed without needing another access
    CrashedNow,   ///< crash injection fired instead of the access
    NotRunnable,  ///< process is done/crashed; nothing happened
  };

  /// Runs `pid` forward through exactly one shared-memory access (starting
  /// the body first if needed, and letting it run past the access through
  /// any local computation up to its next access request or completion).
  StepResult step(Pid pid);

  /// Starts the body coroutine (running its local computation up to its
  /// first shared-memory access request) without performing any access.
  /// Afterwards `pending(pid)` reveals the process's next access — used by
  /// the adversary constructions that schedule on "about to write".
  void ensure_started(Pid pid);

  /// True iff step(pid) can still make progress.
  [[nodiscard]] bool runnable(Pid pid) const {
    const ProcStatus st = proc(pid).status;
    return st == ProcStatus::NotStarted || st == ProcStatus::Runnable;
  }
  /// True iff some process can still make progress. O(1): reads the
  /// runnable list below.
  [[nodiscard]] bool any_runnable() const { return !runnable_.empty(); }
  /// The pids for which runnable() holds, in ascending order. Maintained
  /// incrementally — spawn appends, a finish or crash erases, and
  /// rewind_to_mark re-inserts the processes it restores — so a scheduler
  /// picks among the runnable processes without scanning all n
  /// (RandomScheduler indexes it).
  [[nodiscard]] const std::vector<Pid>& runnable_pids() const {
    return runnable_;
  }
  [[nodiscard]] bool all_done() const;

  [[nodiscard]] ProcStatus status(Pid pid) const { return proc(pid).status; }
  [[nodiscard]] Section section(Pid pid) const { return proc(pid).section; }
  [[nodiscard]] const std::string& proc_name(Pid pid) const {
    return proc(pid).name;
  }
  [[nodiscard]] std::optional<int> output(Pid pid) const {
    return proc(pid).output;
  }
  [[nodiscard]] std::uint64_t access_count(Pid pid) const {
    return proc(pid).naccesses;
  }

  /// The pending access a runnable process will perform next, if started.
  [[nodiscard]] std::optional<PendingAccess> pending(Pid pid) const {
    return proc(pid).pending;
  }

  /// Summary of the most recent step()/ensure_started() unit: which counted
  /// access it performed (if any) and whether any section-change event was
  /// emitted during the unit. This is the per-step access summary the
  /// partial-order reduction's race detector consumes (por/dependence.h);
  /// callers that need the whole run's summaries capture one per executed
  /// unit. Valid after the first unit; reset at the start of each unit (a
  /// NotRunnable pick resets it to an empty summary for that pid), and
  /// still filled in when the unit throws (the fields cover everything
  /// that took effect before the throw).
  [[nodiscard]] const StepSummary& last_step_summary() const {
    return last_step_;
  }

  /// The materialized run (empty when trace recording is disabled).
  [[nodiscard]] const Trace& trace() const { return recorder_.trace(); }

  /// --- In-place restore (the explorer's hot path). ---

  /// Captures the post-setup baseline: the base RewindMark rewind_to()
  /// restores. Must be called before any unit executes (schedule log
  /// empty) — i.e. right after the static setup, crash plans included —
  /// and marks this simulation as rewindable.
  void mark_rewind_base();

  /// A restore point along the current run: shared memory, the event
  /// counter, and each process's observable state (ProcMark) at a
  /// schedule-log prefix. A mark does NOT capture coroutine frames (they
  /// cannot be copied); a process restored from a mark is instead
  /// *value-replayed* on its next step: its body restarts and is fed, unit
  /// by unit, the Value the original execution delivered (its per-pid
  /// value tape), so the coroutine re-reaches its suspension point without
  /// touching memory.
  struct RewindMark {
    /// One process's state at the mark: everything the simulator reports
    /// about it between units, so a restore can assign it without
    /// touching the frame.
    struct ProcMark {
      std::uint64_t digest = 0;     ///< process_digest()
      std::uint64_t naccesses = 0;  ///< access_count()
      /// Schedule units within the prefix (start unit included): the
      /// replay feeds the pid's own value tape up to this count instead of
      /// scanning the whole schedule prefix.
      std::uint32_t units = 0;
      ProcStatus status = ProcStatus::NotStarted;
      Section section = Section::Remainder;
      std::optional<int> output;
      std::optional<PendingAccess> pending;
    };
    MemorySnapshot memory;
    std::uint64_t fingerprint = 0;  ///< RegisterFile::fingerprint() at capture
    Seq seq = 0;                    ///< event counter at capture
    std::size_t prefix_len = 0;     ///< schedule-log length at capture
    std::size_t writes = 0;         ///< register-write log length at capture
    std::vector<ProcMark> procs;    ///< per pid
  };

  /// Captures a RewindMark at the current point of the run, reusing the
  /// mark's buffers (steady-state allocation-free when the caller recycles
  /// marks, as the explorer's per-depth mark pool does). Requires
  /// mark_rewind_base(); O(registers + processes). Checks every value tape
  /// against the schedule log (their unit counts must sum to the log
  /// length) and throws std::logic_error when they are out of sync.
  void capture_mark(RewindMark& mark) const;

  /// Repositions THIS simulation at `mark` (which must have been captured
  /// on this simulation, at a prefix of the CURRENT schedule log — i.e. no
  /// rewind past the mark happened in between; the explorer's DFS restores
  /// only to ancestors of the current path, which guarantees it). Touched
  /// processes — those with schedule units in [mark.prefix_len, log size)
  /// — get their ProcMark state by assignment and are marked *stale*: the
  /// restore does no frame work. The next step()/ensure_started() of a
  /// stale process first resyncs it: restarts its body (frames recycle
  /// through the per-Sim arena) and feeds it its value tape quietly, with
  /// the event counter, last_step_summary(), digest and access count saved
  /// around the replay; the replayed frame must re-post exactly the
  /// pending access, section and status the mark recorded, or the step
  /// throws std::logic_error. A process not started at the mark goes back
  /// to NotStarted with its frame dropped. Untouched processes keep their
  /// live coroutines as-is. Restoring a shallower mark before a stale
  /// process steps again just re-assigns its state; it then replays only
  /// what that shallowest mark owes.
  ///
  /// Sound because a process with units past the mark was runnable at the
  /// mark, so its prefix units contain no crash/finish and every recorded
  /// value feeds a live suspension, and because process bodies keep their
  /// run-time state only in their coroutine frames and shared registers
  /// (every registry algorithm does): a restarted body fed the same values
  /// reaches the same local state. The traversal-observable state is that
  /// of a fresh simulation stepped along the same prefix.
  ///
  /// The replay runs with sinks, trace materialization, and invariant
  /// checks suppressed; any materialized trace is cleared by the restore.
  /// Attached sinks stay attached and see only post-restore events —
  /// reset their state alongside (the explorer restores its accumulator by
  /// assignment).
  ///
  /// Cost: O(suffix units + touched processes) — untouched processes are
  /// never visited. That covers the tape/log consistency check (each
  /// touched process's tape grew by exactly its suffix units; the mark's
  /// capture checked every tape) and the memory restore, which writes back
  /// only the registers written past the mark (the register-write log)
  /// and then checks the memory fingerprint against the mark's.
  /// The replay, O(the process's own prefix units), is paid at the next
  /// step of each touched process, and never by a process that does not
  /// step again before the next restore; value_replayed_units() counts
  /// it.
  void rewind_to_mark(const RewindMark& mark);

  /// Units value-replayed by stale-process resyncs over this simulation's
  /// lifetime (each resync counts the start unit plus every fed value).
  [[nodiscard]] std::uint64_t value_replayed_units() const {
    return replayed_units_;
  }

  /// Repositions THIS simulation at `prefix_len` units of its own schedule
  /// log, in place: rewind_to_mark() back to the mark_rewind_base()
  /// baseline, then a quiet re-step of the first `prefix_len` units of the
  /// previous run through step()/ensure_started() — zero Sim construction,
  /// zero setup re-execution, and (steady-state) zero heap allocation.
  /// Sinks/trace semantics are rewind_to_mark()'s. Verification:
  /// `expect_fingerprint == 0` skips it; otherwise the memory fingerprint
  /// and event counter must match or the rewind throws std::logic_error.
  void rewind_to(std::size_t prefix_len, std::uint64_t expect_fingerprint = 0,
                 Seq expect_seq = 0);

  /// Allocation counters of the per-Sim coroutine frame arena.
  [[nodiscard]] const FrameArena::Stats& frame_arena_stats() const {
    return arena_.stats();
  }

  /// True iff the next step(pid) fires the injected stopping failure
  /// instead of performing the pending access.
  [[nodiscard]] bool crash_pending(Pid pid) const {
    const Proc& pr = proc(pid);
    return pr.crash_after.has_value() && pr.naccesses >= *pr.crash_after;
  }

  /// The schedule log: every step()/ensure_started() unit executed so far,
  /// in order.
  [[nodiscard]] const std::vector<ScheduleUnit>& schedule_log() const {
    return sched_log_;
  }

  /// 64-bit digest of everything process `pid` has observed: its access
  /// history including returned values, plus start/yield/crash/finish
  /// marks. Two processes (in identically built simulations) with equal
  /// digests are at the same coroutine position with the same local state —
  /// the per-process half of the explorer's visited-state fingerprint.
  [[nodiscard]] std::uint64_t process_digest(Pid pid) const {
    return proc(pid).digest;
  }

  /// Order-independent XOR of per-process (digest, status, section) slot
  /// hashes, maintained with ONE batched update at the end of each unit —
  /// covering every write the unit made (digest pushes, section changes,
  /// status transitions) instead of hashing all processes per query. Makes
  /// core/state_fingerprint O(1) per explored node. A unit that throws
  /// leaves the value stale until the next rewind — the same
  /// poisoned-until-restored contract the schedule log already has.
  [[nodiscard]] std::uint64_t proc_state_fp() const noexcept {
    return procs_fp_;
  }

  /// --- Event sinks (observer interface). ---

  /// Subscribes a sink to the event stream. The sink must outlive the
  /// simulation (or be removed first); events already emitted are not
  /// replayed to late subscribers.
  void add_sink(EventSink& sink) { sinks_.push_back(&sink); }

  void remove_sink(EventSink& sink);

  /// Enables/disables materialization of the full trace (on by default).
  /// Streaming consumers (MeasureAccumulator) work with recording off,
  /// which removes the trace's allocation cost from long search runs;
  /// sequence numbers keep advancing identically either way.
  void set_trace_recording(bool enabled) { record_trace_ = enabled; }
  [[nodiscard]] bool trace_recording() const { return record_trace_; }

  /// Next sequence number to be assigned (equals the number of events
  /// emitted so far, whether or not they were materialized).
  [[nodiscard]] Seq next_seq() const { return next_seq_; }

  /// --- Configuration (set before stepping). ---

  void set_access_policy(AccessPolicy p) { policy_ = p; }
  void set_model(Model m) {
    model_ = m;
    policy_ = AccessPolicy::BitModel;
  }
  [[nodiscard]] std::optional<Model> model() const { return model_; }

  /// Injects a stopping failure: the process crashes when it attempts its
  /// (`accesses`+1)-th shared-memory access. Part of the setup: throws
  /// std::logic_error once mark_rewind_base() has run, since restores keep
  /// every process's crash plan as it is (stepping never changes one).
  void crash_after(Pid pid, std::uint64_t accesses) {
    if (rewind_base_set_) {
      throw std::logic_error(
          "Sim::crash_after: crash plans are fixed once mark_rewind_base() "
          "has run");
    }
    proc(pid).crash_after = accesses;
  }

  /// When enabled, throws MutualExclusionViolation if two processes are in
  /// Section::Critical simultaneously.
  void check_mutual_exclusion(bool enabled) { check_mutex_ = enabled; }

  /// Number of processes currently in a given section.
  [[nodiscard]] int count_in_section(Section s) const;

 private:
  friend class ProcessContext;
  /// Test access to the tapes and logs, to check that corrupting them is
  /// caught (rewind_test).
  friend struct SimTestPeer;

  struct Proc {
    std::string name;
    BodyFactory factory;
    ProcessContext ctx;
    Task<void> root;
    std::coroutine_handle<> resume_point;
    std::optional<PendingAccess> pending;
    Value last_result = 0;
    ProcStatus status = ProcStatus::NotStarted;
    Section section = Section::Remainder;
    std::optional<int> output;
    std::uint64_t naccesses = 0;
    std::optional<std::uint64_t> crash_after;
    std::uint64_t digest = 0;  ///< observation-history hash (process_digest)
    /// This process's current contribution to Sim::procs_fp_ (the batched
    /// per-unit state-fingerprint update swaps it out by XOR).
    std::uint64_t fp_contrib = 0;

    /// Restored from a mark without its frame: the next step() or
    /// ensure_started() value-replays the body first (resync).
    bool stale = false;

    Proc(Sim& sim, Pid pid, std::string n, BodyFactory f)
        : name(std::move(n)), factory(std::move(f)), ctx(sim, pid) {}
  };

  [[nodiscard]] const Proc& proc(Pid pid) const {
    if (static_cast<std::size_t>(pid) >= procs_.size()) {
      throw std::out_of_range("bad pid");
    }
    return *procs_[static_cast<std::size_t>(pid)];
  }
  [[nodiscard]] Proc& proc(Pid pid) {
    if (static_cast<std::size_t>(pid) >= procs_.size()) {
      throw std::out_of_range("bad pid");
    }
    return *procs_[static_cast<std::size_t>(pid)];
  }

  /// Rebuilds a stale process's frame from its value tape (see
  /// rewind_to_mark) and checks it against the restored state.
  void resync(Proc& pr);

  /// Performs the access atomically against the register file, enforcing the
  /// access policy, and appends the event to the trace.
  Value execute(Proc& pr, Pid pid, const PendingAccess& req);

  void on_section_change(Pid pid, Section s);
  void on_output(Pid pid, int value);
  /// Marks `pid` finished or crashed: sets its terminal status, drops it
  /// from runnable_, and folds and publishes the terminal event.
  void retire(Proc& pr, Pid pid, ProcStatus status);

  /// The batched per-unit fingerprint update: recomputes `pid`'s slot hash
  /// over its (digest, status, section) and swaps it into procs_fp_.
  void refresh_proc_fp(Pid pid);

  /// Publishes the event: materializes it when recording is on, then
  /// notifies every subscribed sink.
  void emit(const TraceEvent& ev);

  RegisterFile mem_;
  FrameArena arena_;  // declared before procs_: frames die before the arena
  /// Heap-allocated records: stable addresses for ProcessContext.
  std::vector<std::unique_ptr<Proc>> procs_;
  /// runnable_pids(): ascending pids whose status is NotStarted/Runnable.
  std::vector<Pid> runnable_;
  TraceRecorder recorder_;
  std::vector<EventSink*> sinks_;
  std::vector<ScheduleUnit> sched_log_;
  /// Recycled scratch for rewind_to: the units to re-step, copied out of
  /// the log before the base restore truncates it (steady-state
  /// allocation-free).
  std::vector<ScheduleUnit> replay_buf_;
  /// Per-pid value tapes (rewindable simulations only): for each process,
  /// the Value each of its non-start units delivered (Proc::last_result
  /// after the unit; 0 for yield/crash units), in its own program order.
  /// A stale process's resync feeds it its own tape back instead of
  /// re-executing accesses — and, because the tape is already per-pid, it
  /// never scans the global schedule prefix for the process's units.
  std::vector<std::vector<Value>> tape_;
  /// Running sum over processes of tape length + started, kept where they
  /// change: rewind_to_mark's O(1) check against the schedule log length.
  std::size_t tape_units_ = 0;
  /// Scratch for rewind_to_mark: the ascending pids with units past the
  /// mark (recycled).
  std::vector<Pid> touched_pids_;
  /// Register-write log (rewindable simulations only): the register of
  /// every committed value change, in order. A mark records its length; a
  /// rewind writes back exactly the registers past it and truncates it.
  std::vector<RegId> written_;
  /// XOR accumulator behind proc_state_fp().
  std::uint64_t procs_fp_ = 0;
  /// mark_rewind_base() baseline: the mark rewind_to() restores before
  /// re-stepping.
  bool rewind_base_set_ = false;
  RewindMark base_mark_;
  /// last_step_summary(): rebuilt by every step()/ensure_started() unit.
  StepSummary last_step_;
  /// True inside a replay (a resync, or rewind_to's re-step): sinks, trace
  /// materialization and the mutual-exclusion check are suppressed.
  bool quiet_replay_ = false;
  std::uint64_t replayed_units_ = 0;  ///< value_replayed_units()
  bool record_trace_ = true;
  Seq next_seq_ = 0;
  AccessPolicy policy_ = AccessPolicy::Unrestricted;
  std::optional<Model> model_;
  bool check_mutex_ = false;
};

}  // namespace cfc

#endif  // CFC_SCHED_SIM_H
