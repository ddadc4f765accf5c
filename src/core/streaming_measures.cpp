#include "core/streaming_measures.h"

#include <algorithm>
#include <stdexcept>

#include "memory/fingerprint.h"

namespace cfc {

void MeasureAccumulator::ReportAcc::add(const Access& a,
                                        RegIdSpill& spill) {
  rep.steps += 1;
  regs.insert(a.reg, spill);
  if (a.is_read()) {
    rep.read_steps += 1;
    read_regs.insert(a.reg, spill);
  }
  if (a.is_write()) {
    rep.write_steps += 1;
    write_regs.insert(a.reg, spill);
  }
  rep.atomicity = std::max(rep.atomicity, a.width);
  // Everything counted above is a function of (reg, kind, bit_op, width);
  // summing their mixes gives an order-independent, repetition-sensitive
  // state hash maintained O(1) per access.
  multiset_hash += fp_mix((static_cast<std::uint64_t>(a.reg) << 24) |
                          (static_cast<std::uint64_t>(a.width) << 16) |
                          (static_cast<std::uint64_t>(a.bit_op) << 8) |
                          static_cast<std::uint64_t>(a.kind));
}

void MeasureAccumulator::ReportAcc::reset(RegIdSpill& spill) {
  rep = ComplexityReport{};
  regs.clear(spill);
  read_regs.clear(spill);
  write_regs.clear(spill);
  multiset_hash = 0;
}

ComplexityReport MeasureAccumulator::ReportAcc::report(
    const RegIdSpill& spill) const {
  ComplexityReport out = rep;
  out.registers = static_cast<int>(regs.size(spill));
  out.read_registers = static_cast<int>(read_regs.size(spill));
  out.write_registers = static_cast<int>(write_regs.size(spill));
  return out;
}

namespace {

std::uint64_t report_digest(const ComplexityReport& r) {
  std::uint64_t h = fp_mix(0x5e9047c3ULL);
  h = fp_push(h, static_cast<std::uint64_t>(r.steps));
  h = fp_push(h, static_cast<std::uint64_t>(r.registers));
  h = fp_push(h, static_cast<std::uint64_t>(r.read_steps));
  h = fp_push(h, static_cast<std::uint64_t>(r.write_steps));
  h = fp_push(h, static_cast<std::uint64_t>(r.read_registers));
  h = fp_push(h, static_cast<std::uint64_t>(r.write_registers));
  h = fp_push(h, static_cast<std::uint64_t>(r.atomicity));
  return h;
}

std::uint64_t window_state_digest(bool open, bool clean,
                                  std::uint64_t acc_digest) {
  std::uint64_t h = fp_mix(0x77a1ULL);
  h = fp_push(h, (open ? 2u : 0u) | (clean ? 1u : 0u));
  if (open) {
    h = fp_push(h, acc_digest);
  }
  return h;
}

}  // namespace

std::uint64_t MeasureAccumulator::ReportAcc::digest() const {
  return fp_push(fp_mix(0x5e9047c3ULL), multiset_hash);
}

namespace {

std::size_t checked_nprocs(int nprocs) {
  if (nprocs < 1) {
    throw std::invalid_argument("MeasureAccumulator needs nprocs >= 1");
  }
  return static_cast<std::size_t>(nprocs);
}

}  // namespace

namespace {

// Slot namespaces for the XOR-combined digest contributions: windows,
// totals, and sections must not cancel against each other.
constexpr std::uint64_t kWindowSlot = 0x10000;
constexpr std::uint64_t kTotalSlot = 0x20000;
constexpr std::uint64_t kSectionSlot = 0x30000;

std::uint64_t section_slot(Pid pid, Section s) {
  return fp_slot(kSectionSlot + static_cast<std::uint64_t>(pid),
                 static_cast<std::uint64_t>(s));
}

bool in_cs_or_exit(Section s) {
  return s == Section::Critical || s == Section::Exit;
}

constexpr Pid kNoPid = -1;

}  // namespace

MeasureAccumulator::MeasureAccumulator(int nprocs)
    : per_pid_(checked_nprocs(nprocs)),
      section_(static_cast<std::size_t>(nprocs), Section::Remainder) {
  for (Pid pid = 0; pid < nprocs; ++pid) {
    refresh_max_hash(pid);
    refresh_window_contrib(pid);
    refresh_total_contrib(pid);
    section_hash_ ^= section_slot(pid, Section::Remainder);
  }
}

const MeasureAccumulator::PerPid& MeasureAccumulator::at(Pid pid) const {
  if (pid < 0 || pid >= process_count()) {
    throw std::out_of_range("MeasureAccumulator: bad pid");
  }
  return per_pid_[static_cast<std::size_t>(pid)];
}

MeasureAccumulator::PerPid& MeasureAccumulator::at(Pid pid) {
  if (pid < 0 || pid >= process_count()) {
    throw std::out_of_range("MeasureAccumulator: bad pid");
  }
  return per_pid_[static_cast<std::size_t>(pid)];
}

bool MeasureAccumulator::others_in_remainder(Pid pid) const {
  const bool self_out =
      section_[static_cast<std::size_t>(pid)] != Section::Remainder;
  return not_in_remainder_ == (self_out ? 1 : 0);
}

bool MeasureAccumulator::nobody_in_cs_or_exit() const {
  return in_cs_or_exit_ == 0;
}

void MeasureAccumulator::on_event(const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEvent::Kind::Access:
      on_access(ev);
      break;
    case TraceEvent::Kind::SectionChange:
      on_section_change(ev);
      break;
    case TraceEvent::Kind::Crash:
    case TraceEvent::Kind::Finish:
      break;  // terminal events carry no measured cost
  }
}

void MeasureAccumulator::on_access(const TraceEvent& ev) {
  PerPid& pp = at(ev.pid);
  pp.total.add(ev.access, spill_);
  pp.total_dirty = true;
  if (pp.cf_session.open) {
    pp.cf_session.acc.add(ev.access, spill_);
  }
  if (pp.clean_entry.open) {
    pp.clean_entry.acc.add(ev.access, spill_);
  }
  if (pp.exit.open) {
    pp.exit.acc.add(ev.access, spill_);
  }
  if (pp.cf_session.open || pp.clean_entry.open || pp.exit.open) {
    pp.window_dirty = true;
  }
}

void MeasureAccumulator::on_section_change(const TraceEvent& ev) {
  const Pid p = ev.pid;
  const Section to = ev.to;
  PerPid& pp = at(p);  // validates the pid before any direct indexing
  Section& sec = section_[static_cast<std::size_t>(p)];

  // --- Contention-free sessions (measures.h contention_free_sessions):
  // a session of q opens at q's Remainder->Entry, closes at its next
  // ->Remainder, and counts only if every other process stayed in its
  // remainder region throughout. The trace-based code checks the others'
  // sections *before* applying this event's update, so run this block
  // first.
  {
    WindowState& w = pp.cf_session;
    if (to == Section::Entry && !w.open) {
      w.open = true;
      w.clean = others_in_remainder(p);
      w.acc.reset(spill_);
      if (w.clean) {
        clean_cf_open_.push_back(p);
      }
    } else if (to == Section::Remainder && w.open) {
      if (w.clean) {
        drop(clean_cf_open_, p);
        if (others_in_remainder(p)) {
          pp.cf_session_max = pp.cf_session_max.max_with(w.acc.report(spill_));
          pp.cf_sessions_completed += 1;
          refresh_max_hash(p);
        }
      }
      w.open = false;
    }
    if (to != Section::Remainder) {
      // Interference: every other open session stops being contention-free.
      spoil(clean_cf_open_, &PerPid::cf_session, p);
    }
  }

  section_hash_ ^= section_slot(p, sec) ^ section_slot(p, to);
  not_in_remainder_ += (to != Section::Remainder ? 1 : 0) -
                       (sec != Section::Remainder ? 1 : 0);
  in_cs_or_exit_ += (in_cs_or_exit(to) ? 1 : 0) - (in_cs_or_exit(sec) ? 1 : 0);
  sec = to;

  // --- Clean entry windows (measures.h clean_entry_windows): open at
  // Remainder->Entry, close at Entry->Critical, clean iff no process is in
  // its CS or exit code anywhere in the window. The trace-based code
  // applies the section update first, so this block runs after it.
  {
    WindowState& w = pp.clean_entry;
    if (to == Section::Entry) {
      // A reopened window that was open and clean stays listed: nobody
      // reached CS/exit since it opened, so it reopens clean.
      const bool listed = w.open && w.clean;
      w.open = true;
      w.clean = nobody_in_cs_or_exit();
      w.acc.reset(spill_);
      if (w.clean && !listed) {
        clean_entry_open_.push_back(p);
      }
    } else if (in_cs_or_exit(to)) {
      if (to == Section::Critical && w.open) {
        if (w.clean) {
          drop(clean_entry_open_, p);
          pp.clean_entry_max =
              pp.clean_entry_max.max_with(w.acc.report(spill_));
          refresh_max_hash(p);
        }
        w.open = false;
      }
      // Someone reached CS/exit inside every window still open — p's own
      // too, when p goes to Exit with its entry window open.
      spoil(clean_entry_open_, &PerPid::clean_entry, kNoPid);
    }
  }

  // --- Exit windows (measures.h exit_windows): Critical->Exit to
  // ->Remainder, own transitions only, always counted.
  {
    WindowState& w = pp.exit;
    if (ev.from == Section::Critical && to == Section::Exit) {
      w.open = true;
      w.acc.reset(spill_);
    } else if (to == Section::Remainder && w.open) {
      pp.exit_max = pp.exit_max.max_with(w.acc.report(spill_));
      refresh_max_hash(p);
      w.open = false;
    }
  }

  // Only p's own windows and the spoiled ones changed; spoil() flagged
  // the latter.
  pp.window_dirty = true;
}

void MeasureAccumulator::spoil(std::vector<Pid>& open_clean,
                               WindowState PerPid::*window, Pid keep) {
  bool kept = false;
  for (const Pid q : open_clean) {
    if (q == keep) {
      kept = true;
      continue;
    }
    PerPid& pq = per_pid_[static_cast<std::size_t>(q)];
    (pq.*window).clean = false;
    pq.window_dirty = true;
  }
  open_clean.clear();
  if (kept) {
    open_clean.push_back(keep);
  }
}

void MeasureAccumulator::drop(std::vector<Pid>& open_clean, Pid pid) {
  const auto it = std::find(open_clean.begin(), open_clean.end(), pid);
  if (it != open_clean.end()) {
    open_clean.erase(it);
  }
}

void MeasureAccumulator::refresh_window_contrib(Pid pid) const {
  const PerPid& pp = per_pid_[static_cast<std::size_t>(pid)];
  std::uint64_t h = fp_mix(0x77bdc211ULL);
  h = fp_push(h, window_state_digest(pp.cf_session.open, pp.cf_session.clean,
                                     pp.cf_session.acc.digest()));
  h = fp_push(h, window_state_digest(pp.clean_entry.open,
                                     pp.clean_entry.clean,
                                     pp.clean_entry.acc.digest()));
  h = fp_push(h, window_state_digest(pp.exit.open, pp.exit.clean,
                                     pp.exit.acc.digest()));
  h = fp_push(h, pp.max_hash);
  pp.window_contrib =
      fp_slot(kWindowSlot + static_cast<std::uint64_t>(pid), h);
  pp.window_dirty = false;
}

void MeasureAccumulator::refresh_total_contrib(Pid pid) const {
  const PerPid& pp = per_pid_[static_cast<std::size_t>(pid)];
  pp.total_contrib = fp_slot(kTotalSlot + static_cast<std::uint64_t>(pid),
                             pp.total.digest());
  pp.total_dirty = false;
}

void MeasureAccumulator::refresh_max_hash(Pid pid) {
  PerPid& pp = per_pid_[static_cast<std::size_t>(pid)];
  std::uint64_t h = report_digest(pp.cf_session_max);
  h = fp_push(h, report_digest(pp.clean_entry_max));
  h = fp_push(h, report_digest(pp.exit_max));
  h = fp_push(h, static_cast<std::uint64_t>(pp.cf_sessions_completed));
  pp.max_hash = h;
}

ComplexityReport MeasureAccumulator::total(Pid pid) const {
  ComplexityReport r = at(pid).total.report(spill_);
  r.truncated = r.truncated || truncated_;
  return r;
}

ComplexityReport MeasureAccumulator::contention_free_session_max(
    Pid pid) const {
  ComplexityReport r = at(pid).cf_session_max;
  r.truncated = r.truncated || truncated_;
  return r;
}

ComplexityReport MeasureAccumulator::clean_entry_max(Pid pid) const {
  ComplexityReport r = at(pid).clean_entry_max;
  r.truncated = r.truncated || truncated_;
  return r;
}

ComplexityReport MeasureAccumulator::exit_max(Pid pid) const {
  ComplexityReport r = at(pid).exit_max;
  r.truncated = r.truncated || truncated_;
  return r;
}

int MeasureAccumulator::contention_free_session_count(Pid pid) const {
  return at(pid).cf_sessions_completed;
}

std::uint64_t MeasureAccumulator::window_digest() const {
  // Near-read: between two explorer nodes one access happened, so at most
  // one contribution (plus section changes, rare) needs a refresh.
  std::uint64_t h = fp_mix(0x3a17bd02ULL) ^ section_hash_;
  for (Pid pid = 0; pid < process_count(); ++pid) {
    const PerPid& pp = per_pid_[static_cast<std::size_t>(pid)];
    if (pp.window_dirty) {
      refresh_window_contrib(pid);
    }
    h ^= pp.window_contrib;
  }
  return h;
}

std::uint64_t MeasureAccumulator::digest() const {
  std::uint64_t h = window_digest();
  for (Pid pid = 0; pid < process_count(); ++pid) {
    const PerPid& pp = per_pid_[static_cast<std::size_t>(pid)];
    if (pp.total_dirty) {
      refresh_total_contrib(pid);
    }
    h ^= pp.total_contrib;
  }
  return h;
}

}  // namespace cfc
