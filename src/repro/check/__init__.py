"""repro.check — the verification layer (DESIGN.md §8).

**Role.** Coordinated analyzers guarding the repo's determinism and
protocol contracts, run stage by stage or all together by ``python -m
repro.check``, the command CI runs.  **Paper mapping.** Not in the
paper: where its claims were backed by a physical testbed (§V), a
simulation's claims are only as good as its invariants, so this layer
checks them mechanically:

1. **Determinism lint** (:mod:`repro.check.lint`) — a static AST pass
   over the library source enforcing the determinism contract.
2. **Collective-protocol verifier** (:mod:`repro.check.protocol`) — an
   opt-in runtime sanitizer threaded through
   :class:`~repro.mpi.comm.CommHandle` and the sim kernel.
3. **Plan sanitizers** (:mod:`repro.check.plan`) — one plan check on
   :class:`~repro.io.twophase.TwoPhasePlan` (coverage, domains, the
   receiver schedule and the memoized per-window artifacts, linear in
   the (rank, window) pairs that hold data) and the translation check
   of :class:`~repro.core.plan_cache.PlanMemo`.  Shuffle wire sizes
   are checked on every real message by
   :func:`~repro.io.twophase.shuffle_send`.
4. **Recovery-coverage check** (:mod:`repro.check.faults`) — asserts
   the fault-recovery accounting of :mod:`repro.faults.resilient`:
   every expected window is served exactly once (by an aggregator or
   the degraded tail), never dropped or double-counted.
5. **Schedule shaker** (:mod:`repro.check.shake`) — seeded tie-break
   perturbation of the event queue that re-runs a scenario battery
   under ``K`` different schedules and asserts bit-identical data: no
   result may depend on how same-time events are ordered.

The runtime sanitizers hang off the ``check`` field of the
:class:`~repro.flags.Flags` record (``REPRO_CHECK``); the test suite
turns it on globally.  The shaker has its own ``shake`` seed
(``REPRO_SHAKE``).  The integrity (:mod:`repro.check.chaos`) and
preemption (:mod:`repro.check.crash`) campaigns drive the same stack
end to end.

Import the analyzers from their modules: the package root exports
nothing, because ``protocol`` and ``plan`` import the layers they
verify.
"""
