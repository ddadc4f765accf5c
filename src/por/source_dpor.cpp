#include "por/source_dpor.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace cfc {

namespace {

constexpr std::uint64_t bit(std::size_t position) {
  return std::uint64_t{1} << position;
}

/// The highest position in a non-empty mask.
std::size_t top(std::uint64_t mask) {
  return static_cast<std::size_t>(63 - std::countl_zero(mask));
}

}  // namespace

SourceDpor::SourceDpor(int nprocs) {
  if (nprocs < 1 || nprocs > kMaxPorProcs) {
    throw std::invalid_argument(
        "SourceDpor: nprocs must be in [1, 32] (process-mask sleep sets)");
  }
  pid_positions_.assign(static_cast<std::size_t>(nprocs), 0);
  trace_.reserve(kMaxPorDepth);
}

SourceDpor::RegPositions& SourceDpor::reg_positions(RegId reg) {
  if (reg < 0) {
    throw std::logic_error("SourceDpor: an access without a register id");
  }
  const auto r = static_cast<std::size_t>(reg);
  if (r >= reg_positions_.size()) {
    reg_positions_.resize(r + 1);
  }
  return reg_positions_[r];
}

void SourceDpor::push_step(int node_depth, const StepSummary& step,
                           std::span<std::uint32_t> backtrack_by_depth) {
  const std::size_t k = trace_.size();
  if (k >= static_cast<std::size_t>(kMaxPorDepth)) {
    throw std::logic_error(
        "SourceDpor: path longer than kMaxPorDepth (64) units");
  }
  // --- 1. The earlier units dependent with the new unit e
  // (por/dependence.h): its process's units, every section change if e
  // changed sections, and the register conflicts.
  std::uint64_t& own = pid_positions_[static_cast<std::size_t>(step.pid)];
  std::uint64_t dep = own | (step.section_changed ? section_positions_ : 0);
  if (step.accessed) {
    RegPositions& reg = reg_positions(step.reg);
    dep |= step.wrote ? reg.accessed : reg.written;
    reg.accessed |= bit(k);
    reg.written |= step.wrote ? bit(k) : 0;
  }
  // --- 2. Happens-before of e, highest dependent position first. Folding
  // in each visited unit's hb makes "already in hb" exactly "reachable
  // through a chain of later dependences": a dependent unit NOT yet in hb
  // is concurrent with e — a race, unless it is e's own process's (program
  // order). Every position of dep ends up in hb, so `dep & ~hb` is the
  // next unvisited one.
  std::uint64_t hb = 0;
  std::uint64_t visited = 0;
  for (std::uint64_t m = dep; m != 0; m = dep & ~hb) {
    const std::size_t j = top(m);
    visited |= bit(j);
    hb |= trace_[j].hb | bit(j);
  }
  const std::uint64_t races = visited & ~own;
  stats_.races_detected += static_cast<std::uint64_t>(std::popcount(races));
  trace_.push_back(Event{step, node_depth, dep, hb,
                         (k == 0 ? 0 : trace_[k - 1].dep_seen) | dep});
  own |= bit(k);
  section_positions_ |= step.section_changed ? bit(k) : 0;

  // --- 3. Source-set backtrack insertion per race, most recent race
  // first (any fixed order is sound and this one is deterministic). Each
  // resolution sees the previous insertions.
  for (std::uint64_t m = races; m != 0;) {
    const std::size_t d = top(m);
    m &= ~bit(d);
    std::uint32_t& mask = backtrack_by_depth[static_cast<std::size_t>(
        trace_[d].node_depth)];
    const Pid chosen = choose_initial(d, step.pid, mask);
    if (chosen >= 0) {
      mask |= 1u << static_cast<unsigned>(chosen);
      ++stats_.backtrack_points;
    }
  }
}

void SourceDpor::note_cut(std::uint32_t enabled_mask,
                          std::span<const NextStep> pends,
                          std::span<std::uint32_t> backtrack_by_depth) {
  // Two insertion rules, applied in ONE backward walk over the path. Each
  // path unit d owes a set of processes at its node; the set is masked
  // against the node's backtrack bits before any dependence test (the
  // common case owes nothing new), and dependence against every pending
  // unit is one mask. Insertions only ever set bits, so the final masks and
  // the backtrack_points count do not depend on the order rules are
  // applied in.
  //
  // --- 1. Pending-placement buckets, per enabled process q. Equivalent
  // traces carry the same unit multiset, so a class that schedules q's
  // next unit before the horizon has no representative in which q slips
  // past it: the placement itself decides which tail unit the bound
  // truncates. Placements of q's next unit between two consecutive path
  // units DEPENDENT with it are equivalent (each neighbouring swap
  // commutes), so one placement per bucket covers that space: insert q at
  // the node of every path unit dependent with its pending (the placement
  // just before the bucket boundary) and at the deepest node (the final
  // bucket). No chain or source-set suppression applies — each bucket
  // needs its own representative. Placements before q's own last unit are
  // invalid (program order), so `alive` drops q at that unit; deeper
  // recursion re-runs this at the reversals' own cut leaves, which covers
  // q's subsequent units.
  //
  // --- 2. Droppable-unit placements. A path unit u that commutes with its
  // ENTIRE suffix can be pushed to the very end of an equivalent
  // linearization — where the horizon truncates *it* instead of the
  // path's last unit, making room for one more unit of another process q.
  // Those classes have a different unit multiset than every reordering of
  // the path (u traded for the extra unit), so the bucket rule above does
  // not cover them: their representatives branch q exactly at u's node.
  // The displacement can change an observable value only when
  //
  //   * u carries no access at all (a crash unit, a pure local yield):
  //     its slot is measurement-free, and trading it for a real step
  //     strictly extends some process's run — the canonical case is a
  //     crash unit sitting between another process's spin steps; or
  //   * q's pending conflicts with u: whether q's extra step observes u's
  //     write (or overwrites the value u read past) depends on the trade.
  //
  // When u carries an access and is independent of q's pending as well,
  // the traded class is value-covered by the bucket placements: q's units
  // observe identical values with or without u, and u's own process only
  // loses its final step (every objective is monotone along a run).
  // The path's dep_seen holds every unit with a dependent successor, so
  // "commutes with its entire suffix" is one bit read.
  const std::size_t np = std::min<std::size_t>(pends.size(), kMaxPorProcs);
  const std::uint32_t enabled =
      enabled_mask &
      (np == kMaxPorProcs ? ~0u : (1u << static_cast<unsigned>(np)) - 1u);
  // Processes whose next unit is unknowable: dependent with every unit.
  std::uint32_t unknown = 0;
  for (std::uint32_t m = enabled; m != 0; m &= m - 1) {
    const auto q = static_cast<std::size_t>(std::countr_zero(m));
    unknown |= pends[q].known ? 0u : 1u << q;
  }
  const std::uint64_t has_dependent =
      trace_.empty() ? 0 : trace_.back().dep_seen;
  std::uint32_t alive = enabled;
  for (std::size_t i = trace_.size(); i-- > 0;) {
    const Event& d = trace_[i];
    const std::uint32_t self = 1u << static_cast<unsigned>(d.step.pid);
    alive &= ~self;
    std::uint32_t& mask =
        backtrack_by_depth[static_cast<std::size_t>(d.node_depth)];
    const std::uint32_t placing = alive & ~mask;
    const std::uint32_t dropping =
        (has_dependent & bit(i)) == 0 ? enabled & ~self & ~mask : 0u;
    const std::uint32_t cand = placing | dropping;
    if (cand == 0) {
      continue;
    }
    // The candidates whose pending unit is dependent with d: all of them
    // after a section change, else the unknowable ones plus register
    // conflicts (dependent(StepSummary, NextStep) as one mask).
    std::uint32_t dep = cand;
    if (!d.step.section_changed) {
      dep &= unknown;
      if (d.step.accessed) {
        for (std::uint32_t m = cand & ~unknown; m != 0; m &= m - 1) {
          const auto q = static_cast<std::size_t>(std::countr_zero(m));
          const NextStep& pend = pends[q];
          if (!pend.yield && pend.reg == d.step.reg &&
              (d.step.wrote || pend.wrote)) {
            dep |= 1u << q;
          }
        }
      }
    }
    const std::uint32_t add =
        (i + 1 == trace_.size() ? placing : placing & dep) |
        (d.step.accessed ? dropping & dep : dropping);
    mask |= add;
    stats_.backtrack_points += static_cast<std::uint64_t>(std::popcount(add));
  }
}

Pid SourceDpor::choose_initial(std::size_t d_index, Pid q,
                               std::uint32_t backtrack_mask) const {
  if (backtrack_mask == kForeignNode) {
    return -1;  // a full mask intersects the (never empty) I(v)
  }
  // e = trace_.back(), q's racing unit, stands as v's final element.
  const std::size_t e_index = trace_.size() - 1;

  // v = notdep(d, E).q: the units after d that do NOT happen-after d, in
  // trace order, then the racing process q's unit itself (which is by
  // construction dependent on d, so it is appended explicitly).
  std::uint64_t v = 0;
  for (std::size_t j = d_index + 1; j < e_index; ++j) {
    v |= (trace_[j].hb & bit(d_index)) == 0 ? bit(j) : 0;
  }

  // I(v): processes whose first unit in v has no dependence predecessor
  // inside v. A later unit of the same process has its first one as a
  // dependence predecessor, so testing every unit of v is the same. The
  // first element of v is always an initial, so I(v) is never empty.
  std::uint32_t initials = 0;
  Pid first_pid = -1;
  for (std::uint64_t m = v; m != 0; m &= m - 1) {
    const Event& w = trace_[static_cast<std::size_t>(std::countr_zero(m))];
    if ((w.dep & v) == 0) {
      initials |= 1u << static_cast<unsigned>(w.step.pid);
      first_pid = first_pid < 0 ? w.step.pid : first_pid;
    }
  }
  // The final element: q's unit e. Initial iff no unit of v precedes it
  // dependently.
  if ((trace_[e_index].dep & v) == 0) {
    initials |= 1u << static_cast<unsigned>(q);
    first_pid = first_pid < 0 ? q : first_pid;
  }

  if ((initials & backtrack_mask) != 0) {
    return -1;  // the race's reversal is already scheduled at d's node
  }
  if (((initials >> static_cast<unsigned>(q)) & 1u) != 0) {
    return q;
  }
  return first_pid;
}

void SourceDpor::pop_to(std::size_t len) {
  while (trace_.size() > len) {
    const std::size_t k = trace_.size() - 1;
    const StepSummary& step = trace_[k].step;
    pid_positions_[static_cast<std::size_t>(step.pid)] &= ~bit(k);
    section_positions_ &= ~bit(k);
    if (step.accessed) {
      RegPositions& reg = reg_positions_[static_cast<std::size_t>(step.reg)];
      reg.accessed &= ~bit(k);
      reg.written &= ~bit(k);
    }
    trace_.pop_back();
  }
}

void SourceDpor::clear() {
  pop_to(0);
  stats_ = Stats{};
}

}  // namespace cfc
