#include "core/adversary.h"

#include <algorithm>
#include <map>
#include <optional>

#include "core/streaming_measures.h"
#include "sched/event_sink.h"
#include "sched/sched.h"

namespace cfc {

namespace {

bool pending_is_read(const Sim& sim, Pid p) {
  const std::optional<PendingAccess> pa = sim.pending(p);
  if (!pa.has_value()) {
    return false;
  }
  if (pa->kind == AccessKind::Read) {
    return true;
  }
  if (pa->kind == AccessKind::Bit) {
    return !can_modify(pa->bit_op);
  }
  return false;
}

/// Returned value of the first access the watched pid performs after
/// watch(), read off the event stream, so the lockstep adversary runs with
/// trace recording off. Subscribed to the Sim for its own lifetime.
class ObservationSink final : public EventSink {
 public:
  explicit ObservationSink(Sim& sim) : sim_(sim) { sim_.add_sink(*this); }
  ~ObservationSink() override { sim_.remove_sink(*this); }
  ObservationSink(const ObservationSink&) = delete;
  ObservationSink& operator=(const ObservationSink&) = delete;

  void watch(Pid pid) {
    pid_ = pid;
    seen_ = false;
    observed_.reset();
  }
  void on_event(const TraceEvent& ev) override {
    if (!seen_ && ev.kind == TraceEvent::Kind::Access && ev.pid == pid_) {
      seen_ = true;
      observed_ = ev.access.returned;
    }
  }
  [[nodiscard]] const std::optional<Value>& observed() const {
    return observed_;
  }

 private:
  Sim& sim_;
  Pid pid_ = -1;
  bool seen_ = false;
  std::optional<Value> observed_;
};

}  // namespace

SoloProfile solo_profile(const SimSetup& setup, Pid pid,
                         std::uint64_t max_steps) {
  Sim sim;
  setup(sim);
  SoloScheduler solo(pid);
  drive(sim, solo, RunLimits{max_steps});

  SoloProfile prof;
  prof.pid = pid;
  prof.accesses = sim.trace().accesses_of(pid);
  std::set<RegId> seen_writes;
  for (const Access& a : prof.accesses) {
    if (a.is_write()) {
      prof.writes.emplace_back(a.reg, a.after);
      if (seen_writes.insert(a.reg).second) {
        prof.wr.push_back(a.reg);
      }
    }
    if (a.is_read()) {
      prof.reads.insert(a.reg);
    }
  }
  prof.output = sim.output(pid);
  return prof;
}

bool lemma2_condition(const SoloProfile& a, const SoloProfile& b) {
  const std::size_t m_max = std::min(a.writes.size(), b.writes.size());
  for (std::size_t m = 0; m < m_max; ++m) {
    if (a.writes[m] == b.writes[m]) {
      continue;  // same register, same value: the writes collide harmlessly
    }
    const RegId ra = a.writes[m].first;
    const RegId rb = b.writes[m].first;
    if (b.reads.count(ra) > 0 || a.reads.count(rb) > 0) {
      return true;
    }
  }
  return false;
}

MergeResult lemma2_merge(const SimSetup& setup, Pid p1, Pid p2,
                         std::uint64_t max_steps) {
  Sim sim;
  setup(sim);
  MeasureAccumulator acc(sim.process_count());
  sim.add_sink(acc);

  std::uint64_t steps = 0;
  auto advance_reads = [&](Pid p) {
    sim.ensure_started(p);
    while (steps < max_steps && sim.runnable(p) && pending_is_read(sim, p)) {
      sim.step(p);
      ++steps;
    }
  };

  // The inductive construction of Lemma 2's proof: per round, p1 performs
  // its reads up to its next write, p2 performs its reads and its write,
  // then p1 performs its write.
  while (steps < max_steps && (sim.runnable(p1) || sim.runnable(p2))) {
    const std::uint64_t before = steps;
    advance_reads(p1);
    advance_reads(p2);
    if (sim.runnable(p2)) {
      sim.step(p2);
      ++steps;
    }
    if (sim.runnable(p1)) {
      sim.step(p1);
      ++steps;
    }
    if (steps == before) {
      break;  // no progress (both blocked in ways the merge cannot resolve)
    }
  }

  MergeResult res;
  res.output1 = sim.output(p1);
  res.output2 = sim.output(p2);
  res.both_terminated = sim.status(p1) == ProcStatus::Done &&
                        sim.status(p2) == ProcStatus::Done;
  res.max_total = acc.total(p1).max_with(acc.total(p2));
  return res;
}

LockstepResult lockstep_symmetry_adversary(Sim& sim, std::vector<Pid> group,
                                           std::uint64_t max_rounds) {
  LockstepResult res;
  ObservationSink observation(sim);
  while (res.rounds < max_rounds && group.size() > 1) {
    // Key: (terminated this round, observed return value). Processes with
    // identical histories apply identical operations; the partition after
    // the round is fully determined by what each one observed.
    std::map<std::pair<bool, std::optional<Value>>, std::vector<Pid>> classes;
    for (Pid p : group) {
      if (!sim.runnable(p)) {
        classes[{true, std::nullopt}].push_back(p);
        continue;
      }
      observation.watch(p);
      sim.step(p);
      const bool finished = sim.status(p) == ProcStatus::Done;
      classes[{finished, observation.observed()}].push_back(p);
    }
    res.rounds += 1;

    // Any class of >= 2 identical processes that terminated together
    // produced identical outputs — for naming, duplicate names.
    std::vector<Pid> next;
    for (const auto& [key, members] : classes) {
      if (key.first) {
        if (members.size() >= 2) {
          res.identical_group_terminated = true;
        }
        continue;
      }
      if (members.size() > next.size()) {
        next = members;
      }
    }
    if (res.identical_group_terminated) {
      group = next;
      break;
    }
    if (next.empty()) {
      break;  // everyone terminated (as singletons)
    }
    group = next;
    res.group_sizes.push_back(group.size());
  }
  res.survivor = group.empty() ? -1 : group.front();
  return res;
}

bool run_sequentially(Sim& sim, std::uint64_t max_steps) {
  std::vector<Pid> order;
  order.reserve(static_cast<std::size_t>(sim.process_count()));
  for (Pid p = 0; p < sim.process_count(); ++p) {
    order.push_back(p);
  }
  SequentialScheduler seq(std::move(order));
  return drive(sim, seq, RunLimits{max_steps}) == RunOutcome::AllDone;
}

}  // namespace cfc
