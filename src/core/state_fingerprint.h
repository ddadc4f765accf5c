#ifndef CFC_CORE_STATE_FINGERPRINT_H
#define CFC_CORE_STATE_FINGERPRINT_H

#include <cstdint>

#include "sched/sim.h"

namespace cfc {

/// Combines two 64-bit fingerprints order-dependently (fingerprint.h
/// fp_push). Use to fold auxiliary digests — e.g. a MeasureAccumulator
/// digest — into a state fingerprint.
[[nodiscard]] std::uint64_t fingerprint_combine(std::uint64_t h,
                                                std::uint64_t v);

/// 64-bit fingerprint of the global simulation state: the memory hash
/// (RegisterFile::fingerprint) folded with every process's observation
/// digest, status, and section. O(1) per call — both halves are
/// incrementally maintained by the simulator (the per-process half with
/// one batched update per scheduler unit, Sim::proc_state_fp).
///
/// Soundness for visited-state pruning: a process body is a deterministic
/// coroutine, so its local state (control point, locals, loop counters) is
/// a function of its observation history — which is exactly what
/// Sim::process_digest hashes. Two states of identically built simulations
/// with equal fingerprints therefore behave identically under every future
/// schedule (modulo 64-bit hash collisions — this certifies bounds at the
/// fidelity of the hash, like any hashed-state model checker).
///
/// The fingerprint deliberately does NOT cover event-sink state: combine it
/// with the accumulator digest when the exploration objective depends on
/// measurement history (the explorer's accumulator tracks and hashes
/// exactly the objective's fields; see ExploreObjective).
[[nodiscard]] std::uint64_t state_fingerprint(const Sim& sim);

}  // namespace cfc

#endif  // CFC_CORE_STATE_FINGERPRINT_H
