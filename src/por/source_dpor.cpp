#include "por/source_dpor.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace cfc {

SourceDpor::SourceDpor(int nprocs) : nprocs_(nprocs) {
  if (nprocs < 1 || nprocs > kMaxPorProcs) {
    throw std::invalid_argument(
        "SourceDpor: nprocs must be in [1, 32] (process-mask sleep sets)");
  }
  per_pid_count_.assign(static_cast<std::size_t>(nprocs), 0);
}

void SourceDpor::push_step(int node_depth, const StepSummary& step,
                           std::span<std::uint32_t> backtrack_by_depth) {
  // --- 1. Happens-before clock of the new unit e, one backward walk.
  // Merging the clocks of dependent events as the walk meets them makes
  // "already in the clock" exactly "reachable through a chain of later
  // dependences": a dependent event NOT yet in the clock is concurrent
  // with e — a race (skipping program-order pairs, which the most recent
  // same-pid event covers transitively).
  Event e;
  e.step = step;
  e.node_depth = node_depth;
  e.self_index = per_pid_count_[static_cast<std::size_t>(step.pid)];
  e.clock.fill(0);
  races_scratch_.clear();
  const auto e_index = static_cast<std::uint32_t>(trace_.size());
  for (std::size_t i = trace_.size(); i-- > 0;) {
    Event& d = trace_[i];
    if (!dependent(d.step, e.step)) {
      continue;
    }
    if (d.first_dep == kNoDependent) {
      d.first_dep = e_index;  // e is d's first dependent successor
    }
    if (in_clock(e.clock, i)) {
      continue;  // already ordered before e through a later dependence
    }
    if (d.step.pid != e.step.pid) {
      races_scratch_.push_back(i);
      ++stats_.races_detected;
    }
    merge_clock(e.clock, d);
  }
  e.clock[static_cast<std::size_t>(step.pid)] =
      static_cast<std::uint16_t>(e.self_index + 1);
  per_pid_count_[static_cast<std::size_t>(step.pid)] += 1;
  trace_.push_back(e);

  // --- 2. Source-set backtrack insertion per race, most recent race
  // first (the walk's order; any fixed order is sound and this one is
  // deterministic). Each resolution sees the previous insertions.
  for (const std::size_t d_index : races_scratch_) {
    apply_race(d_index, step.pid, backtrack_by_depth);
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
  // push_step records each unit's first dependent successor, so "commutes
  // with its entire suffix" is one read of first_dep.
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
  std::uint32_t alive = enabled;
  for (std::size_t i = trace_.size(); i-- > 0;) {
    const Event& d = trace_[i];
    const std::uint32_t self = 1u << static_cast<unsigned>(d.step.pid);
    alive &= ~self;
    std::uint32_t& mask =
        backtrack_by_depth[static_cast<std::size_t>(d.node_depth)];
    const std::uint32_t placing = alive & ~mask;
    const std::uint32_t dropping =
        d.first_dep == kNoDependent ? enabled & ~self & ~mask : 0u;
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

void SourceDpor::merge_clock(Clock& into, const Event& d) const {
  for (int p = 0; p < nprocs_; ++p) {
    into[static_cast<std::size_t>(p)] =
        std::max(into[static_cast<std::size_t>(p)],
                 d.clock[static_cast<std::size_t>(p)]);
  }
  into[static_cast<std::size_t>(d.step.pid)] = std::max(
      into[static_cast<std::size_t>(d.step.pid)],
      static_cast<std::uint16_t>(d.self_index + 1));
}

void SourceDpor::apply_race(std::size_t d_index, Pid q,
                            std::span<std::uint32_t> backtrack_by_depth) {
  const int target = trace_[d_index].node_depth;
  const std::uint32_t mask =
      backtrack_by_depth[static_cast<std::size_t>(target)];
  const Pid chosen = choose_initial(d_index, q, mask);
  if (chosen >= 0) {
    backtrack_by_depth[static_cast<std::size_t>(target)] |=
        1u << static_cast<unsigned>(chosen);
    ++stats_.backtrack_points;
  }
}

Pid SourceDpor::choose_initial(std::size_t d_index, Pid q,
                               std::uint32_t backtrack_mask) {
  const Event& d = trace_[d_index];
  // e = trace_.back(), q's racing unit, stands as v's final element.
  const std::size_t v_end = trace_.size() - 1;

  // v = notdep(d, E).q: the units after d that do NOT happen-after d, in
  // trace order, then the racing process q's unit itself (which is by
  // construction dependent on d, so it is appended explicitly).
  v_scratch_.clear();
  for (std::size_t j = d_index + 1; j < v_end; ++j) {
    const bool after_d =
        trace_[j].clock[static_cast<std::size_t>(d.step.pid)] >
        d.self_index;
    if (!after_d) {
      v_scratch_.push_back(j);
    }
  }

  // I(v): processes whose first unit in v has no dependence predecessor
  // inside v. The first element of v is always an initial, so I(v) is
  // never empty.
  std::uint32_t initials = 0;
  Pid first_pid = -1;
  for (std::size_t a = 0; a < v_scratch_.size(); ++a) {
    const Event& w = trace_[v_scratch_[a]];
    if (((initials >> static_cast<unsigned>(w.step.pid)) & 1u) != 0) {
      continue;  // already initial through its first unit
    }
    bool initial = true;
    for (std::size_t b = 0; b < a; ++b) {
      if (dependent(trace_[v_scratch_[b]].step, w.step)) {
        initial = false;
        break;
      }
    }
    if (initial) {
      initials |= 1u << static_cast<unsigned>(w.step.pid);
      if (first_pid < 0) {
        first_pid = w.step.pid;
      }
    }
  }
  // The final element: q's unit e. Initial iff no unit of v precedes it
  // dependently. (q has no earlier unit in v — see the race definition.)
  if (((initials >> static_cast<unsigned>(q)) & 1u) == 0) {
    bool initial = true;
    for (const std::size_t j : v_scratch_) {
      if (dependent(trace_[j].step, trace_[v_end].step)) {
        initial = false;
        break;
      }
    }
    if (initial) {
      initials |= 1u << static_cast<unsigned>(q);
      if (first_pid < 0) {
        first_pid = q;
      }
    }
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
    per_pid_count_[static_cast<std::size_t>(trace_.back().step.pid)] -= 1;
    trace_.pop_back();
  }
  // A surviving unit whose first dependent successor was popped has none
  // left: later successors of it were popped too.
  for (Event& ev : trace_) {
    if (ev.first_dep >= len) {
      ev.first_dep = kNoDependent;
    }
  }
}

void SourceDpor::clear() {
  trace_.clear();
  std::fill(per_pid_count_.begin(), per_pid_count_.end(),
            static_cast<std::uint16_t>(0));
  stats_ = Stats{};
}

}  // namespace cfc
