#include "sched/sim.h"

#include <algorithm>
#include <span>
#include <utility>

#include "memory/fingerprint.h"

namespace cfc {

namespace {

// Digest marks for the non-access events of a process's observation
// history (fingerprint.h fp_push folds them into Proc::digest).
constexpr std::uint64_t kDigestStart = 0x5712a6cbb1a5e0d1ULL;
constexpr std::uint64_t kDigestYield = 0x9c0e8b5d47f3a2e7ULL;
constexpr std::uint64_t kDigestCrash = 0xc4a51fd2387b6e09ULL;
constexpr std::uint64_t kDigestFinish = 0xf1f0c2d9e8b7a6c5ULL;

/// A process's observation digest before it observes anything.
std::uint64_t initial_digest(Pid pid) {
  return fp_mix(0x5eedULL ^ static_cast<std::uint64_t>(pid));
}

/// Slot-id base separating per-process state-fingerprint contributions
/// (Sim::procs_fp_) from RegisterFile slot ids in fp_slot's domain.
constexpr std::uint64_t kProcFpSalt = 0x70c5a17e00ULL;

}  // namespace

void Sim::refresh_proc_fp(Pid pid) {
  Proc& pr = *procs_[static_cast<std::size_t>(pid)];
  const std::uint64_t meta = (static_cast<std::uint64_t>(pr.status) << 8) |
                             static_cast<std::uint64_t>(pr.section);
  const std::uint64_t c =
      fp_slot(kProcFpSalt + static_cast<std::uint64_t>(pid),
              pr.digest ^ fp_mix(meta));
  procs_fp_ ^= pr.fp_contrib ^ c;
  pr.fp_contrib = c;
}

void Sim::remove_sink(EventSink& sink) {
  sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), &sink),
               sinks_.end());
}

void Sim::emit(const TraceEvent& ev) {
  if (quiet_replay_) {
    return;  // restore replay: the events were already published once
  }
  if (record_trace_) {
    recorder_.on_event(ev);
  }
  for (EventSink* sink : sinks_) {
    sink->on_event(ev);
  }
}

void ProcessContext::set_section(Section s) { sim_->on_section_change(pid_, s); }

void ProcessContext::set_output(int value) { sim_->on_output(pid_, value); }

int ProcessContext::process_count() const noexcept {
  return sim_->process_count();
}

Pid Sim::spawn(std::string proc_name, BodyFactory factory) {
  const Pid pid = static_cast<Pid>(procs_.size());
  procs_.push_back(std::make_unique<Proc>(*this, pid, std::move(proc_name),
                                          std::move(factory)));
  Proc& pr = *procs_.back();
  pr.digest = initial_digest(pid);
  // Wire the context's fast-path slots (the record never moves).
  pr.ctx.pending_slot_ = &pr.pending;
  pr.ctx.resume_slot_ = &pr.resume_point;
  pr.ctx.last_result_slot_ = &pr.last_result;
  tape_.emplace_back();  // the pid's value tape (filled once rewindable)
  runnable_.push_back(pid);  // the largest pid so far: stays ascending
  refresh_proc_fp(pid);
  return pid;
}

bool Sim::all_done() const {
  return std::all_of(procs_.begin(), procs_.end(),
                     [](const std::unique_ptr<Proc>& pr) {
                       return pr->status == ProcStatus::Done;
                     });
}

int Sim::count_in_section(Section s) const {
  int k = 0;
  for (const std::unique_ptr<Proc>& pr : procs_) {
    k += (pr->section == s) ? 1 : 0;
  }
  return k;
}

void Sim::ensure_started(Pid pid) {
  Proc& pr = proc(pid);
  if (pr.stale) {
    resync(pr);
  }
  if (pr.status != ProcStatus::NotStarted) {
    return;
  }
  // Begin this unit's summary (step() calls this before anything is
  // recorded, so the re-reset is harmless there): the prologue's section
  // changes are part of the unit they run in.
  last_step_ = StepSummary{};
  last_step_.pid = pid;
  last_step_.started = true;
  // Rewindable simulations route frames through the per-Sim arena (the
  // body here, subtask frames during any resume), so the rewind-replay
  // restore recycles them instead of hitting the heap. Ordinary
  // simulations skip the arena: their frames never get a second life, so
  // the global heap is the better allocator for them.
  const FrameArena::Scope frame_scope(rewind_base_set_ ? &arena_ : nullptr);
  // Start units deliver no value, so they have no tape entry: a pid's
  // tape holds exactly its non-start units.
  sched_log_.push_back({pid, /*start_only=*/true});
  pr.digest = fp_push(pr.digest, kDigestStart);
  pr.status = ProcStatus::Runnable;
  ++tape_units_;
  pr.root = pr.factory(pr.ctx);
  if (!pr.root.valid()) {
    throw std::logic_error("process body factory returned an invalid task");
  }
  pr.resume_point = pr.root.handle();
  pr.resume_point.resume();  // run to first access request or completion
  if (pr.root.done()) {
    pr.root.rethrow_if_exception();
    retire(pr, pid, ProcStatus::Done);
    refresh_proc_fp(pid);  // batched: digest + status in one update
    return;
  }
  if (!pr.pending.has_value()) {
    throw std::logic_error("live process is not suspended at an access");
  }
  refresh_proc_fp(pid);  // batched: start mark + prologue section changes
}

Sim::StepResult Sim::step(Pid pid) {
  Proc& pr = proc(pid);
  if (pr.stale) {
    resync(pr);
  }
  // Reset the unit summary even on the no-op path below: a NotRunnable
  // pick must not leave last_step_summary() reporting the previous unit
  // under the wrong attribution.
  last_step_ = StepSummary{};
  last_step_.pid = pid;
  if (pr.status == ProcStatus::Done || pr.status == ProcStatus::Crashed) {
    return StepResult::NotRunnable;
  }
  const FrameArena::Scope frame_scope(rewind_base_set_ ? &arena_ : nullptr);

  if (pr.status == ProcStatus::NotStarted) {
    ensure_started(pid);
    if (pr.status == ProcStatus::Done) {
      return StepResult::Finished;
    }
  }

  sched_log_.push_back({pid, /*start_only=*/false});
  if (rewind_base_set_) {
    // Tape placeholder, filled after the delivered value is known. Crash
    // units and units that throw before delivering keep the 0 — both only
    // ever occupy suffixes a rewind discards (a crashed process never acts
    // again; a violating unit is backtracked past).
    tape_[static_cast<std::size_t>(pid)].push_back(0);
    ++tape_units_;
  }

  // Crash injection fires when the process attempts one access too many.
  if (pr.crash_after.has_value() && pr.naccesses >= *pr.crash_after) {
    last_step_.crashed = true;
    retire(pr, pid, ProcStatus::Crashed);
    refresh_proc_fp(pid);  // batched: digest + status in one update
    return StepResult::CrashedNow;
  }

  if (!pr.pending.has_value()) {
    throw std::logic_error("live process is not suspended at an access");
  }

  // The linearization point: perform the access atomically, then let the
  // process run (for free) up to its next access request or to completion.
  const PendingAccess req = *pr.pending;
  pr.pending.reset();
  if (req.local_yield) {
    pr.digest = fp_push(pr.digest, kDigestYield);
  }
  pr.last_result = req.local_yield ? 0 : execute(pr, pid, req);
  if (rewind_base_set_) {
    // Before the resume: a unit that throws during its local run (e.g. a
    // mutual-exclusion violation at a section change) still records the
    // value it delivered.
    tape_[static_cast<std::size_t>(pid)].back() = pr.last_result;
  }
  const std::coroutine_handle<> h = pr.resume_point;
  h.resume();
  if (pr.root.done()) {
    pr.root.rethrow_if_exception();
    retire(pr, pid, ProcStatus::Done);
  } else if (!pr.pending.has_value()) {
    throw std::logic_error("live process is not suspended at an access");
  }
  // ONE fingerprint update for the whole unit's write set: the access's
  // digest fold, every section change the resume made, and any terminal
  // status — instead of a procs_-wide rehash per explored node.
  refresh_proc_fp(pid);
  return req.local_yield ? StepResult::LocalStep : StepResult::Access;
}

Value Sim::execute(Proc& pr, Pid pid, const PendingAccess& req) {
  // Hot path: one bounds-checked slot lookup serves the width read, the
  // value read, and the committed write below (Sim is a RegisterFile
  // friend exactly for this).
  RegisterFile::Slot& sl = mem_.slot(req.reg);
  const int w = sl.width;

  Access a;
  a.seq = next_seq_;
  a.pid = pid;
  a.reg = req.reg;
  a.kind = req.kind;
  a.width = w;
  a.before = sl.value;

  switch (req.kind) {
    case AccessKind::Read: {
      if (policy_ == AccessPolicy::BitModel) {
        throw AccessPolicyViolation(
            "register read in a bit-operation model; use BitOp::Read");
      }
      a.returned = a.before;
      a.after = a.before;
      break;
    }
    case AccessKind::Write: {
      if (policy_ == AccessPolicy::BitModel) {
        throw AccessPolicyViolation(
            "register write in a bit-operation model; use write-0/write-1");
      }
      if (req.field_width > 0) {
        // Multi-grain sub-word store.
        if (req.field_shift < 0 || req.field_width < 1 ||
            req.field_shift + req.field_width > w) {
          throw std::invalid_argument("field store outside register bounds");
        }
        const Value mask =
            (req.field_width >= 64)
                ? ~Value{0}
                : ((Value{1} << req.field_width) - 1);
        if (req.to_write > mask) {
          throw std::invalid_argument("field value does not fit field width");
        }
        const auto shift = static_cast<unsigned>(req.field_shift);
        a.after = (a.before & ~(mask << shift)) | (req.to_write << shift);
        a.written = a.after;
        a.field_shift = req.field_shift;
        a.field_width = req.field_width;
        break;
      }
      if (w < RegisterFile::kMaxWidth &&
          req.to_write > ((Value{1} << w) - 1)) {
        throw std::invalid_argument("written value does not fit register");
      }
      a.written = req.to_write;
      a.after = req.to_write;
      break;
    }
    case AccessKind::Bit: {
      if (policy_ == AccessPolicy::RegistersOnly) {
        throw AccessPolicyViolation(
            "bit operation in the atomic-register model");
      }
      if (w != 1) {
        throw AccessPolicyViolation("bit operation on a multi-bit register");
      }
      if (model_.has_value() && !model_->supports(req.bit_op)) {
        throw AccessPolicyViolation(std::string("operation ") +
                                    std::string(name(req.bit_op)) +
                                    " not in model " + model_->to_string());
      }
      a.bit_op = req.bit_op;
      const BitOpResult r = apply(req.bit_op, a.before != 0);
      a.after = r.new_value ? 1 : 0;
      if (r.returned.has_value()) {
        a.returned = *r.returned ? 1 : 0;
      }
      break;
    }
  }

  if (a.after != a.before) {  // commit; a no-op write keeps fp_ unchanged
    const auto ur = static_cast<std::uint64_t>(req.reg);
    mem_.fp_ ^= fp_slot(ur, sl.value) ^ fp_slot(ur, a.after);
    sl.value = a.after;
    if (rewind_base_set_) {
      written_.push_back(req.reg);  // what a rewind past here writes back
    }
  }
  last_step_.accessed = true;
  last_step_.reg = req.reg;
  last_step_.wrote = a.is_write();
  pr.naccesses += 1;
  // Fold the full observation into the process digest: what was done and
  // what came back. A deterministic coroutine's local state is a function
  // of its observation history, so equal digests mean equal local states.
  // (Mixed down to one fp_push: this runs once per simulated access,
  // including every replayed one.)
  const std::uint64_t meta = (static_cast<std::uint64_t>(a.reg) << 16) |
                             (static_cast<std::uint64_t>(a.kind) << 8) |
                             static_cast<std::uint64_t>(a.bit_op);
  std::uint64_t obs =
      fp_mix(meta ^ (a.before * 0x9e3779b97f4a7c15ULL));
  obs ^= fp_mix(a.after + 0x7f4a7c159e3779b9ULL);
  if (a.returned.has_value()) {
    obs ^= fp_mix(*a.returned ^ 0xd6e8feb86659fd93ULL) | 1u;
  }
  pr.digest = fp_push(pr.digest, obs);
  const Seq seq = next_seq_++;
  if (!quiet_replay_) {  // replayed events were already published once:
    TraceEvent ev;       // skip even constructing them
    ev.seq = seq;
    ev.pid = pid;
    ev.kind = TraceEvent::Kind::Access;
    ev.access = a;
    emit(ev);
  }
  return a.returned.value_or(0);
}

void Sim::on_section_change(Pid pid, Section s) {
  Proc& pr = proc(pid);
  // Recorded before the mutual-exclusion check: a unit that throws AT a
  // section change is still section-change-adjacent for the summary.
  last_step_.section_changed = true;
  if (check_mutex_ && !quiet_replay_ && s == Section::Critical) {
    for (Pid q = 0; q < process_count(); ++q) {
      if (q != pid && proc(q).section == Section::Critical) {
        throw MutualExclusionViolation(
            "two processes in the critical section: " + pr.name + " and " +
            proc(q).name);
      }
    }
  }
  TraceEvent ev;
  ev.seq = next_seq_++;
  ev.pid = pid;
  ev.kind = TraceEvent::Kind::SectionChange;
  ev.from = pr.section;
  ev.to = s;
  pr.section = s;  // apply before emit: sinks observe post-event state
  emit(ev);
}

void Sim::on_output(Pid pid, int value) { proc(pid).output = value; }

void Sim::mark_rewind_base() {
  if (!sched_log_.empty()) {
    throw std::logic_error(
        "Sim::mark_rewind_base: must be called before any unit executes "
        "(right after setup)");
  }
  rewind_base_set_ = true;
  capture_mark(base_mark_);
}

void Sim::rewind_to(std::size_t prefix_len, std::uint64_t expect_fingerprint,
                    Seq expect_seq) {
  if (!rewind_base_set_) {
    throw std::logic_error("Sim::rewind_to: mark_rewind_base was not called");
  }
  if (prefix_len > sched_log_.size()) {
    throw std::out_of_range(
        "Sim::rewind_to: prefix exceeds the schedule log");
  }
  // The base restore truncates the log, so keep the units to re-step.
  replay_buf_.assign(sched_log_.begin(),
                     sched_log_.begin() +
                         static_cast<std::ptrdiff_t>(prefix_len));
  rewind_to_mark(base_mark_);

  // Re-step through the ordinary unit path, which rebuilds the log and the
  // value tapes as it goes.
  quiet_replay_ = true;
  try {
    for (const ScheduleUnit u : replay_buf_) {
      if (u.start_only) {
        ensure_started(u.pid);
      } else {
        step(u.pid);
      }
    }
  } catch (...) {
    quiet_replay_ = false;
    throw;
  }
  quiet_replay_ = false;

  if (expect_fingerprint != 0 &&
      (next_seq_ != expect_seq || mem_.fingerprint() != expect_fingerprint)) {
    throw std::logic_error(
        "Sim::rewind_to: replay diverged from the expected state "
        "(non-deterministic process body?)");
  }
}

void Sim::capture_mark(RewindMark& mark) const {
  if (!rewind_base_set_) {
    throw std::logic_error("Sim::capture_mark: mark_rewind_base was not called");
  }
  const std::size_t nregs = static_cast<std::size_t>(mem_.size());
  mark.memory.resize(nregs);
  for (std::size_t r = 0; r < nregs; ++r) {
    mark.memory[r] = mem_.slots_[r].value;  // friend access: no realloc
  }
  mark.fingerprint = mem_.fingerprint();
  mark.seq = next_seq_;
  mark.prefix_len = sched_log_.size();
  mark.writes = written_.size();
  mark.procs.resize(procs_.size());
  std::size_t units = 0;
  for (std::size_t p = 0; p < procs_.size(); ++p) {
    const Proc& pr = *procs_[p];
    RewindMark::ProcMark& m = mark.procs[p];
    m.digest = pr.digest;
    m.naccesses = pr.naccesses;
    // Tape length + the start unit (in the log iff the process started).
    m.units = static_cast<std::uint32_t>(
        tape_[p].size() + (pr.status != ProcStatus::NotStarted ? 1u : 0u));
    units += m.units;
    m.status = pr.status;
    m.section = pr.section;
    m.output = pr.output;
    m.pending = pr.pending;
  }
  // The full tape/log consistency check, at the O(processes) point: a
  // restore to this mark then checks only the processes acting past it.
  if (units != mark.prefix_len) {
    throw std::logic_error(
        "Sim::capture_mark: value tapes out of sync with the schedule log");
  }
}

void Sim::rewind_to_mark(const RewindMark& mark) {
  if (!rewind_base_set_) {
    throw std::logic_error(
        "Sim::rewind_to_mark: mark_rewind_base was not called");
  }
  if (mark.prefix_len > sched_log_.size()) {
    throw std::out_of_range(
        "Sim::rewind_to_mark: mark prefix exceeds the schedule log");
  }
  if (quiet_replay_) {
    throw std::logic_error("Sim::rewind_to_mark: already replaying");
  }
  if (mark.procs.size() != procs_.size()) {
    throw std::logic_error(
        "Sim::rewind_to_mark: process set changed since the mark/base");
  }
  if (mark.writes > written_.size()) {
    throw std::logic_error(
        "Sim::rewind_to_mark: mark is not on the current run");
  }
  if (tape_units_ != sched_log_.size()) {
    throw std::logic_error(
        "Sim::rewind_to_mark: value tapes out of sync with the schedule "
        "log");
  }

  // Which processes acted past the mark? Only they diverged from it, and
  // only they get per-process work below, in ascending pid order.
  touched_pids_.clear();
  for (std::size_t i = mark.prefix_len; i < sched_log_.size(); ++i) {
    touched_pids_.push_back(sched_log_[i].pid);
  }
  std::sort(touched_pids_.begin(), touched_pids_.end());
  // Tape/log consistency, in proportion to the touched processes: the
  // running unit count matched the log above, and each touched process
  // grew by exactly its units in the log suffix since the mark, whose
  // capture checked every tape against the prefix. Only step() and
  // ensure_started() grow a tape or a start, each right after logging the
  // same pid's unit, so a process with no suffix units is at its mark.
  for (auto it = touched_pids_.begin(); it != touched_pids_.end();) {
    const Pid pid = *it;
    const auto run = std::find_if(it, touched_pids_.end(),
                                  [pid](Pid q) { return q != pid; });
    const auto up = static_cast<std::size_t>(pid);
    if (up >= procs_.size() ||
        tape_[up].size() +
                (procs_[up]->status != ProcStatus::NotStarted ? 1u : 0u) !=
            mark.procs[up].units + static_cast<std::size_t>(run - it)) {
      throw std::logic_error(
          "Sim::rewind_to_mark: value tapes out of sync with the schedule "
          "log");
    }
    it = run;
  }
  touched_pids_.erase(std::unique(touched_pids_.begin(), touched_pids_.end()),
                      touched_pids_.end());
  tape_units_ = mark.prefix_len;  // the touched tapes are cut back below

  // Every touched process takes its mark state by assignment; the frame
  // is left for resync() at its next step (a process not started at the
  // mark just drops it). Digests and access counts come from the mark
  // too: they fold memory values a value replay never sees.
  for (const Pid pid : touched_pids_) {
    const auto up = static_cast<std::size_t>(pid);
    Proc& pr = *procs_[up];
    const RewindMark::ProcMark& m = mark.procs[up];
    pr.digest = m.digest;
    pr.naccesses = m.naccesses;
    pr.status = m.status;
    pr.section = m.section;
    pr.output = m.output;
    pr.pending = m.pending;
    pr.stale = m.units != 0;
    if (!pr.stale) {
      pr.root = Task<void>{};
      pr.resume_point = {};
    }
    refresh_proc_fp(pid);
    // The pid's suffix tape entries die with the suffix; untouched
    // processes have none, so their tapes are already at mark length.
    tape_[up].resize(m.units == 0 ? 0 : m.units - 1);
    // A touched process was runnable at the mark; put it back in the
    // runnable list if the suffix retired it.
    const auto it = std::lower_bound(runnable_.begin(), runnable_.end(), pid);
    if (it == runnable_.end() || *it != pid) {
      runnable_.insert(it, pid);
    }
  }
  mem_.restore(mark.memory,
               std::span<const RegId>(written_).subspan(mark.writes));
  written_.resize(mark.writes);
  next_seq_ = mark.seq;
  sched_log_.resize(mark.prefix_len);
  recorder_.clear();  // the restored run's trace starts empty

  if (mem_.fingerprint() != mark.fingerprint) {
    throw std::logic_error(
        "Sim::rewind_to_mark: restored memory does not match the mark's "
        "fingerprint (corrupted mark?)");
  }
}

void Sim::resync(Proc& pr) {
  // The state the restore assigned from the mark, put back after the
  // replay (whose resumes post pending accesses, change sections, set
  // outputs and advance the event counter and the unit summary).
  const Seq seq = next_seq_;
  const StepSummary summary = last_step_;
  const std::uint64_t digest = pr.digest;
  const std::uint64_t naccesses = pr.naccesses;
  const Section section = pr.section;
  const std::optional<int> output = pr.output;
  const std::optional<PendingAccess> pending = pr.pending;
  const bool quiet = quiet_replay_;
  const auto put_back = [&] {
    quiet_replay_ = quiet;
    next_seq_ = seq;
    last_step_ = summary;
    pr.digest = digest;
    pr.naccesses = naccesses;
    pr.section = section;
    pr.output = output;
    pr.pending = pending;
  };
  const std::vector<Value>& tape =
      tape_[static_cast<std::size_t>(pr.ctx.pid())];
  bool diverged = false;
  quiet_replay_ = true;
  try {
    const FrameArena::Scope frame_scope(&arena_);
    pr.root = Task<void>{};  // free first: the restart reuses the frame
    pr.section = Section::Remainder;
    pr.output.reset();
    pr.pending.reset();
    pr.root = pr.factory(pr.ctx);
    pr.resume_point = pr.root.handle();
    pr.resume_point.resume();  // the start unit
    // A stale process was runnable at its mark, so its prefix units
    // contain no crash/finish: every value feeds a live suspension.
    for (std::size_t k = 0; k < tape.size() && !diverged; ++k) {
      diverged = pr.root.done() || !pr.pending.has_value();
      if (!diverged) {
        pr.pending.reset();
        pr.last_result = tape[k];
        pr.resume_point.resume();
      }
    }
  } catch (...) {
    put_back();
    throw;
  }
  replayed_units_ += 1 + tape.size();
  diverged = diverged || pr.root.done() || pr.pending != pending ||
             pr.section != section || pr.status != ProcStatus::Runnable;
  put_back();
  if (diverged) {
    throw std::logic_error(
        "Sim: value replay of a restored process diverged from its mark "
        "(process state kept outside its frame and registers?)");
  }
  pr.stale = false;
}

void Sim::retire(Proc& pr, Pid pid, ProcStatus status) {
  const bool crashed = status == ProcStatus::Crashed;
  pr.status = status;
  runnable_.erase(std::lower_bound(runnable_.begin(), runnable_.end(), pid));
  pr.digest = fp_push(pr.digest, crashed ? kDigestCrash : kDigestFinish);
  TraceEvent ev;
  ev.seq = next_seq_++;
  ev.pid = pid;
  ev.kind = crashed ? TraceEvent::Kind::Crash : TraceEvent::Kind::Finish;
  emit(ev);
}

}  // namespace cfc
