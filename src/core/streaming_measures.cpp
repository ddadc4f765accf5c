#include "core/streaming_measures.h"

#include <algorithm>
#include <new>
#include <stdexcept>
#include <string>

#include "memory/fingerprint.h"

namespace cfc {

void MeasureAccumulator::ReportAcc::add(const Access& a,
                                        RegIdSpill& spill) {
  steps += 1;
  regs.insert(a.reg, spill);
  if (a.is_read()) {
    read_steps += 1;
    read_regs.insert(a.reg, spill);
  }
  if (a.is_write()) {
    write_steps += 1;
    write_regs.insert(a.reg, spill);
  }
  atomicity = std::max(atomicity, a.width);
  // Everything counted above is a function of (reg, kind, bit_op, width);
  // summing their mixes gives an order-independent, repetition-sensitive
  // state hash maintained O(1) per access.
  multiset_hash += fp_mix((static_cast<std::uint64_t>(a.reg) << 24) |
                          (static_cast<std::uint64_t>(a.width) << 16) |
                          (static_cast<std::uint64_t>(a.bit_op) << 8) |
                          static_cast<std::uint64_t>(a.kind));
}

void MeasureAccumulator::ReportAcc::reset(RegIdSpill& spill) {
  steps = 0;
  read_steps = 0;
  write_steps = 0;
  atomicity = 0;
  regs.clear(spill);
  read_regs.clear(spill);
  write_regs.clear(spill);
  multiset_hash = 0;
}

ComplexityReport MeasureAccumulator::ReportAcc::report(
    const RegIdSpill& spill) const {
  ComplexityReport out;
  out.steps = steps;
  out.read_steps = read_steps;
  out.write_steps = write_steps;
  out.atomicity = atomicity;
  out.registers = static_cast<int>(regs.size(spill));
  out.read_registers = static_cast<int>(read_regs.size(spill));
  out.write_registers = static_cast<int>(write_regs.size(spill));
  return out;
}

const char* name(MeasureField f) {
  switch (f) {
    case MeasureField::CleanEntry:
      return "clean-entry";
    case MeasureField::Exit:
      return "exit";
    case MeasureField::CfSession:
      return "cf-session";
    case MeasureField::Total:
      return "total";
  }
  return "unknown";
}

namespace {

// The digest contributions are XORs of keyed, independent mixes —
// fp_mix(word ^ key) with a distinct key per word position — rather than
// one dependent fp_push chain, so the mixes of one refresh run in
// parallel. A process's contribution is then mixed once more under its
// pid's key, so contributions of different pids never cancel or swap.
constexpr std::array<std::uint64_t, 64> kKeys = [] {
  std::array<std::uint64_t, 64> keys{};
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = fp_mix(0x6a09e667f3bcc909ULL + i);
  }
  return keys;
}();
constexpr std::size_t kFlagKeys = 0;       // + 4 * field + flags
constexpr std::size_t kMultisetKeys = 16;  // + field
constexpr std::size_t kMaxKeys = 32;       // + 4 * field + word
constexpr std::size_t kMaxHashKey = 48;

constexpr std::uint64_t pack(int hi, int lo) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(hi)) << 32) |
         static_cast<std::uint32_t>(lo);
}

/// Window field `f`'s share of a process's max hash: its max report and
/// completed-session count, four words.
std::uint64_t max_share(std::size_t f, const ComplexityReport& m,
                        int completed) {
  const std::uint64_t* k = kKeys.data() + kMaxKeys + 4 * f;
  return fp_mix(pack(m.steps, m.registers) ^ k[0]) ^
         fp_mix(pack(m.read_steps, m.write_steps) ^ k[1]) ^
         fp_mix(pack(m.read_registers, m.write_registers) ^ k[2]) ^
         fp_mix(pack(m.atomicity, completed) ^ k[3]);
}

/// Starts the lifetimes of `n` copies of `value` in the bytes at `p`.
template <class T>
void construct_n(std::byte* p, std::size_t n, const T& value) {
  for (std::size_t i = 0; i < n; ++i) {
    ::new (static_cast<void*>(p + i * sizeof(T))) T(value);
  }
}

int checked_nprocs(int nprocs) {
  if (nprocs < 1) {
    throw std::invalid_argument("MeasureAccumulator needs nprocs >= 1");
  }
  return nprocs;
}

// Slot namespaces for the XOR-combined digest contributions: windows,
// totals, and sections must not cancel against each other.
constexpr std::uint64_t kWindowSlot = 0x10000;
constexpr std::uint64_t kTotalSlot = 0x20000;
constexpr std::uint64_t kSectionSlot = 0x30000;

std::uint64_t pid_key(std::uint64_t slot, Pid pid) {
  return fp_mix(slot + static_cast<std::uint64_t>(pid));
}

std::uint64_t section_slot(Pid pid, Section s) {
  return fp_slot(kSectionSlot + static_cast<std::uint64_t>(pid),
                 static_cast<std::uint64_t>(s));
}

bool in_cs_or_exit(Section s) {
  return s == Section::Critical || s == Section::Exit;
}

constexpr Pid kNoPid = -1;

constexpr MeasureField kWindowFieldList[] = {
    MeasureField::CleanEntry, MeasureField::Exit, MeasureField::CfSession};

}  // namespace

MeasureAccumulator::MeasureAccumulator(int nprocs)
    : MeasureAccumulator(nprocs, kAllMeasureFields) {}

template <class T>
std::uint32_t MeasureAccumulator::add_region(std::size_t& bytes) const {
  constexpr std::size_t kAlign = alignof(std::uint64_t);
  static_assert(alignof(T) <= kAlign);
  const std::size_t off = bytes;
  bytes += (sizeof(T) * static_cast<std::size_t>(nprocs_) + kAlign - 1) /
           kAlign * kAlign;
  return static_cast<std::uint32_t>(off);
}

MeasureAccumulator::MeasureAccumulator(int nprocs,
                                       std::span<const MeasureField> fields)
    : nprocs_(checked_nprocs(nprocs)) {
  for (const MeasureField f : fields) {
    if (static_cast<unsigned>(f) > static_cast<unsigned>(MeasureField::Total)) {
      throw std::invalid_argument("MeasureAccumulator: unknown field");
    }
    tracked_ |= static_cast<std::uint8_t>(1u << static_cast<unsigned>(f));
  }
  if (tracked_ == 0) {
    return;  // nothing to measure or hash: no store
  }
  // Lay out the store: one region per tracked field, then the digest
  // contributions, then what the window predicates need.
  std::size_t bytes = 0;
  for (const MeasureField f : kWindowFieldList) {
    if (tracks(f)) {
      window_fields_[nwindows_++] = f;
      window_off_[static_cast<std::size_t>(f)] = add_region<Window>(bytes);
    }
  }
  if (tracks(MeasureField::Total)) {
    total_off_ = add_region<ReportAcc>(bytes);
  }
  hash_off_ = add_region<PidHash>(bytes);
  if (nwindows_ != 0) {
    section_off_ = add_region<Section>(bytes);
  }
  if (tracks(MeasureField::CfSession)) {
    clean_cf_open_.off = add_region<Pid>(bytes);
  }
  if (tracks(MeasureField::CleanEntry)) {
    clean_entry_open_.off = add_region<Pid>(bytes);
  }
  store_.resize(bytes);
  const auto n = static_cast<std::size_t>(nprocs);
  for (std::size_t k = 0; k < nwindows_; ++k) {
    const auto f = static_cast<std::size_t>(window_fields_[k]);
    construct_n(store_.data() + window_off_[f], n, Window{});
  }
  if (total_off_ != kNoRegion) {
    construct_n(store_.data() + total_off_, n, ReportAcc{});
  }
  construct_n(store_.data() + hash_off_, n, PidHash{});
  if (section_off_ != kNoRegion) {
    construct_n(store_.data() + section_off_, n, Section::Remainder);
  }
  std::uint64_t initial_max_hash = 0;
  for (std::size_t k = 0; k < nwindows_; ++k) {
    initial_max_hash ^=
        max_share(static_cast<std::size_t>(window_fields_[k]), {}, 0);
  }
  for (Pid pid = 0; pid < nprocs; ++pid) {
    if (nwindows_ != 0) {
      hashes()[static_cast<std::size_t>(pid)].max_hash = initial_max_hash;
      refresh_window_contrib(pid);
      section_hash_ ^= section_slot(pid, Section::Remainder);
    }
    if (total_off_ != kNoRegion) {
      refresh_total_contrib(pid);
    }
  }
}

std::size_t MeasureAccumulator::index(Pid pid) const {
  if (pid < 0 || pid >= nprocs_) {
    throw std::out_of_range("MeasureAccumulator: bad pid");
  }
  return static_cast<std::size_t>(pid);
}

void MeasureAccumulator::require(MeasureField f) const {
  if (!tracks(f)) {
    throw std::logic_error(std::string("MeasureAccumulator: field ") +
                           name(f) + " is not tracked");
  }
}

bool MeasureAccumulator::others_in_remainder(Pid pid) const {
  const bool self_out =
      sections()[static_cast<std::size_t>(pid)] != Section::Remainder;
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
  const std::size_t p = index(ev.pid);
  if (tracked_ == 0) {
    return;
  }
  bool window_open = false;
  for (std::size_t k = 0; k < nwindows_; ++k) {
    Window& w = windows(window_fields_[k])[p];
    if (w.open) {
      w.acc.add(ev.access, spill_);
      window_open = true;
    }
  }
  PidHash& ph = hashes()[p];
  if (window_open) {
    ph.window_dirty = true;
  }
  if (total_off_ != kNoRegion) {
    totals()[p].add(ev.access, spill_);
    ph.total_dirty = true;
  }
}

void MeasureAccumulator::on_section_change(const TraceEvent& ev) {
  const Pid p = ev.pid;
  const std::size_t up = index(p);  // validates before any direct indexing
  if (nwindows_ == 0) {
    return;  // no window field tracked: sections affect nothing measured
  }
  const Section to = ev.to;
  Section& sec = sections()[up];

  // --- Contention-free sessions (measures.h contention_free_sessions):
  // a session of q opens at q's Remainder->Entry, closes at its next
  // ->Remainder, and counts only if every other process stayed in its
  // remainder region throughout. The trace-based code checks the others'
  // sections *before* applying this event's update, so run this block
  // first.
  if (tracks(MeasureField::CfSession)) {
    Window& w = windows(MeasureField::CfSession)[up];
    if (to == Section::Entry && !w.open) {
      w.open = true;
      w.clean = others_in_remainder(p);
      w.acc.reset(spill_);
      if (w.clean) {
        push(clean_cf_open_, p);
      }
    } else if (to == Section::Remainder && w.open) {
      if (w.clean) {
        drop(clean_cf_open_, p);
        if (others_in_remainder(p)) {
          close_into_max(MeasureField::CfSession, p, w.acc.report(spill_));
        }
      }
      w.open = false;
    }
    if (to != Section::Remainder) {
      // Interference: every other open session stops being contention-free.
      spoil(clean_cf_open_, MeasureField::CfSession, p);
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
  if (tracks(MeasureField::CleanEntry)) {
    Window& w = windows(MeasureField::CleanEntry)[up];
    if (to == Section::Entry) {
      // A reopened window that was open and clean stays listed: nobody
      // reached CS/exit since it opened, so it reopens clean.
      const bool listed = w.open && w.clean;
      w.open = true;
      w.clean = nobody_in_cs_or_exit();
      w.acc.reset(spill_);
      if (w.clean && !listed) {
        push(clean_entry_open_, p);
      }
    } else if (in_cs_or_exit(to)) {
      if (to == Section::Critical && w.open) {
        if (w.clean) {
          drop(clean_entry_open_, p);
          close_into_max(MeasureField::CleanEntry, p, w.acc.report(spill_));
        }
        w.open = false;
      }
      // Someone reached CS/exit inside every window still open — p's own
      // too, when p goes to Exit with its entry window open.
      spoil(clean_entry_open_, MeasureField::CleanEntry, kNoPid);
    }
  }

  // --- Exit windows (measures.h exit_windows): Critical->Exit to
  // ->Remainder, own transitions only, always counted.
  if (tracks(MeasureField::Exit)) {
    Window& w = windows(MeasureField::Exit)[up];
    if (ev.from == Section::Critical && to == Section::Exit) {
      w.open = true;
      w.acc.reset(spill_);
    } else if (to == Section::Remainder && w.open) {
      close_into_max(MeasureField::Exit, p, w.acc.report(spill_));
      w.open = false;
    }
  }

  // Only p's own windows and the spoiled ones changed; spoil() flagged
  // the latter.
  hashes()[up].window_dirty = true;
}

void MeasureAccumulator::close_into_max(MeasureField f, Pid pid,
                                        const ComplexityReport& r) {
  const auto uf = static_cast<std::size_t>(f);
  const auto up = static_cast<std::size_t>(pid);
  Window& w = windows(f)[up];
  const std::uint64_t before = max_share(uf, w.max, w.completed);
  if (f == MeasureField::CfSession) {
    w.completed += 1;  // only counted sessions close into the max
  }
  w.max = w.max.max_with(r);
  window_max_[uf] = window_max_[uf].max_with(r);
  // Only this field's share of the pid's max hash changed.
  hashes()[up].max_hash ^= before ^ max_share(uf, w.max, w.completed);
}

void MeasureAccumulator::spoil(PidList& open_clean, MeasureField f,
                               Pid keep) {
  Window* field = windows(f);
  PidHash* hash = hashes();
  const Pid* listed = pids(open_clean);
  bool kept = false;
  for (std::uint32_t i = 0; i < open_clean.size; ++i) {
    const Pid q = listed[i];
    if (q == keep) {
      kept = true;
      continue;
    }
    const auto uq = static_cast<std::size_t>(q);
    field[uq].clean = false;
    hash[uq].window_dirty = true;
  }
  open_clean.size = 0;
  if (kept) {
    push(open_clean, keep);
  }
}

void MeasureAccumulator::push(PidList& list, Pid pid) {
  pids(list)[list.size++] = pid;  // each pid at most once: fits nprocs
}

void MeasureAccumulator::drop(PidList& list, Pid pid) {
  Pid* listed = pids(list);
  Pid* end = listed + list.size;
  Pid* it = std::find(listed, end, pid);
  if (it != end) {
    std::copy(it + 1, end, it);
    --list.size;
  }
}

void MeasureAccumulator::refresh_window_contrib(Pid pid) const {
  const auto up = static_cast<std::size_t>(pid);
  PidHash& ph = hashes()[up];
  std::uint64_t h = fp_mix(ph.max_hash ^ kKeys[kMaxHashKey]);
  for (std::size_t k = 0; k < nwindows_; ++k) {
    const auto f = static_cast<std::size_t>(window_fields_[k]);
    const Window& w = windows(window_fields_[k])[up];
    h ^= kKeys[kFlagKeys + 4 * f + (w.open ? 2u : 0u) + (w.clean ? 1u : 0u)];
    if (w.open) {  // a closed window's counts no longer matter
      h ^= fp_mix(w.acc.multiset_hash ^ kKeys[kMultisetKeys + f]);
    }
  }
  ph.window_contrib = fp_mix(h ^ pid_key(kWindowSlot, pid));
  ph.window_dirty = false;
}

void MeasureAccumulator::refresh_total_contrib(Pid pid) const {
  const auto up = static_cast<std::size_t>(pid);
  PidHash& ph = hashes()[up];
  ph.total_contrib =
      fp_mix(totals()[up].multiset_hash ^ pid_key(kTotalSlot, pid));
  ph.total_dirty = false;
}

ComplexityReport MeasureAccumulator::total(Pid pid) const {
  require(MeasureField::Total);
  return flagged(totals()[index(pid)].report(spill_));
}

ComplexityReport MeasureAccumulator::contention_free_session_max(
    Pid pid) const {
  require(MeasureField::CfSession);
  return flagged(windows(MeasureField::CfSession)[index(pid)].max);
}

ComplexityReport MeasureAccumulator::clean_entry_max(Pid pid) const {
  require(MeasureField::CleanEntry);
  return flagged(windows(MeasureField::CleanEntry)[index(pid)].max);
}

ComplexityReport MeasureAccumulator::exit_max(Pid pid) const {
  require(MeasureField::Exit);
  return flagged(windows(MeasureField::Exit)[index(pid)].max);
}

int MeasureAccumulator::contention_free_session_count(Pid pid) const {
  require(MeasureField::CfSession);
  return windows(MeasureField::CfSession)[index(pid)].completed;
}

ComplexityReport MeasureAccumulator::max_over_pids(MeasureField f) const {
  require(f);
  if (f != MeasureField::Total) {
    return flagged(window_max_[static_cast<std::size_t>(f)]);
  }
  ComplexityReport best;
  const ReportAcc* t = totals();
  for (std::size_t p = 0; p < static_cast<std::size_t>(nprocs_); ++p) {
    best = best.max_with(t[p].report(spill_));
  }
  return flagged(best);
}

std::uint64_t MeasureAccumulator::digest() const {
  // Near-read: between two explorer nodes one access happened, so at most
  // one contribution (plus section changes, rare) needs a refresh.
  std::uint64_t h = fp_mix(0x3a17bd02ULL) ^ section_hash_;
  if (tracked_ == 0) {
    return h;
  }
  const PidHash* hash = hashes();
  const bool totals_tracked = total_off_ != kNoRegion;
  for (Pid pid = 0; pid < nprocs_; ++pid) {
    const PidHash& ph = hash[static_cast<std::size_t>(pid)];
    if (nwindows_ != 0) {
      if (ph.window_dirty) {
        refresh_window_contrib(pid);
      }
      h ^= ph.window_contrib;
    }
    if (totals_tracked) {
      if (ph.total_dirty) {
        refresh_total_contrib(pid);
      }
      h ^= ph.total_contrib;
    }
  }
  return h;
}

}  // namespace cfc
