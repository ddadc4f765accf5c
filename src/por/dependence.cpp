#include "por/dependence.h"

#include "sched/sim.h"

namespace cfc {

NextStep next_step_of(const Sim& sim, Pid pid) {
  NextStep info;
  if (sim.status(pid) != ProcStatus::Runnable || sim.crash_pending(pid)) {
    return info;  // unknown next unit: dependent with everything
  }
  const std::optional<PendingAccess> pa = sim.pending(pid);
  if (!pa.has_value()) {
    return info;
  }
  info.known = true;
  info.yield = pa->local_yield;
  if (!info.yield) {
    info.reg = pa->reg;
    // One counted unit is one atomic access: everything but a plain
    // register read can modify its target (bit ops are conservatively
    // writes unless BitOp::Read, mirroring Access::is_write()).
    info.wrote = !(pa->kind == AccessKind::Read ||
                   (pa->kind == AccessKind::Bit && pa->bit_op == BitOp::Read));
  }
  return info;
}

}  // namespace cfc
