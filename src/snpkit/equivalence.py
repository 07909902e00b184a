"""Co-simulation: does the delay-free rewrite behave like the original?

Two requirements make a rewrite a faithful simulation:

* R1: both systems halt at the same tick,
* R2: both environments hold the same count at halting.

For pairs that do not halt within the comparison window, the verdict
falls back to tick-pointwise equality of the environment trajectories,
which is stricter than R1/R2 wherever both apply.

Both systems are deterministic, so co-simulation stops once a run provably
repeats itself (``semantics.Recurrence``) and the rest of the window cannot
change the verdict, and returns exactly the verdict of a run to the bound.
"""

from __future__ import annotations

import warnings
from typing import NamedTuple

from .eliminate import BatchOverlapWarning, TransformResult, batch_hazards, hazards_from_run, rewrite
from .model import SnpSystem
from .semantics import Kernel, NondeterministicChoice, Recurrence


class Verdict(NamedTuple):
    """Outcome of one co-simulation over ticks 0..bound."""

    source_halt: int | None
    target_halt: int | None
    r1_holds: bool | None
    r2_holds: bool | None
    source_env_at_halt: int | None
    target_env_at_halt: int | None
    trajectory_equal_through: int
    first_divergence: tuple[int, int, int] | None  # (tick, source env, target env)
    bound: int
    # the source's first event ("lost" or "queued", neuron, tick), as far as
    # its run was simulated
    source_event: tuple[str, str, int] | None
    # the tick by which the source's whole run was settled, by halting or by
    # a recurrence proof; None when co-simulation stopped first
    source_settled: int | None

    @property
    def equivalent(self) -> bool:
        """R1 and R2 when halting applies, trajectory equality otherwise."""
        if self.r1_holds is not None:
            return bool(self.r1_holds and self.r2_holds)
        return self.first_divergence is None


def env_trajectory(system: SnpSystem, bound: int) -> list[int]:
    """Environment count after each tick, up to halting or ``bound``."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    return [environment for _, environment, _ in Kernel(system).ticks(bound)]


def co_simulate(source: SnpSystem, target: SnpSystem, bound: int = 200) -> Verdict:
    """Run both systems for up to ``bound`` ticks and compare.

    When both halt, R1/R2 are judged on the halting ticks and counts.  When
    neither halts within the window, R1/R2 are not applicable (None) and
    the trajectory comparison is the verdict basis.  When exactly one halts,
    both fail.  Environment trajectories are compared pointwise over the
    whole window, extending a halted system's count as constant.

    The result is that of a run of both systems to ``bound``, but the run
    stops once the rest of the window cannot change it.  Until the first
    divergence both systems run in lock step, a halted side frozen, until
    ``Recurrence.settle`` settles the pair.  From a recurrence on, a side
    still running never halts, and each environment gains what it gained
    one period earlier, the same on both sides as they agreed at both ends
    of the period.  After the first divergence each side runs on alone
    until it is settled, the source first.

    The verdict also records two facts of the source's run that the
    co-simulation has anyway: its first event that the rewrite does not
    reproduce (``Kernel.event``), as far as the run went, and the tick at
    which its halting or a recurrence proof settled the whole run, by which
    the overlap check on the source settles it too.

    Only the kernels' state and one saved copy of it are kept, so memory
    does not grow with the bound.  A malformed system raises
    ValidationError before any tick is simulated, the source's first.  An
    engine error in the source is raised in preference to one in the
    target, as if the source were run first.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    src, tgt = Kernel(source), Kernel(target)
    src.label, tgt.label = "source", "target"
    src_ticks, tgt_ticks = src.ticks(bound), tgt.ticks(bound)
    source_halt = target_halt = first_divergence = a = b = None

    def lock_step():
        # a tick of each side still running, the source first, to the first divergence
        nonlocal a, b, source_halt, target_halt, first_divergence
        for _ in range(bound + 1):  # ticks 0 to bound
            if source_halt is None:
                tick, a, halted = next(src_ticks)
                if halted:
                    source_halt = tick
            if target_halt is None:
                tick, b, halted = next(tgt_ticks)
                if halted:
                    target_halt = tick
            if a != b:
                first_divergence = (tick, a, b)
                return
            yield tick, a, source_halt is not None and target_halt is not None

    settling = Recurrence(src, tgt)  # the source first: it saves where the overlap check does
    try:
        for _ in settling.settle(lock_step()):
            pass
    except NondeterministicChoice as err:
        if err.system == "target":  # the source runs on alone: its own error comes first
            for _ in Recurrence(src).settle(src_ticks):
                pass
        raise
    if first_divergence is not None:  # each side runs on alone, the source first
        settling = Recurrence(src)
        for tick, a, halted in settling.settle(src_ticks):
            if halted:
                source_halt = tick
        for tick, b, halted in Recurrence(tgt).settle(tgt_ticks):
            if halted:
                target_halt = tick

    event = src.event
    if source_halt is None and target_halt is None:
        r1 = r2 = None
    else:
        r1 = source_halt is not None and source_halt == target_halt
        r2 = source_halt is not None and target_halt is not None and a == b
    return Verdict(
        source_halt=source_halt,
        target_halt=target_halt,
        r1_holds=r1,
        r2_holds=r2,
        source_env_at_halt=a if source_halt is not None else None,
        target_env_at_halt=b if target_halt is not None else None,
        trajectory_equal_through=bound if first_divergence is None else first_divergence[0] - 1,
        first_divergence=first_divergence,
        bound=bound,
        source_event=None if event is None else (event[0], src.ids[event[1]], event[2]),
        source_settled=settling.proved if source_halt is None else source_halt,
    )


def verify(system: SnpSystem, bound: int = 200) -> tuple[TransformResult, Verdict]:
    """Rewrite ``system`` delay-free and co-simulate the target against the
    normalized source for up to ``bound`` ticks, simulating each system once
    unless the hazards need the overlap check's own run.

    The result is ``eliminate_delays``' and the verdict ``co_simulate``'s,
    and each hazard is issued as a BatchOverlapWarning, as
    ``eliminate_delays`` does.  The hazards come from the co-simulated run
    of the source (``hazards_from_run``); only when that run leaves them
    open is ``batch_hazards`` run on the source.  The errors are those of
    ``eliminate_delays`` and ``co_simulate``; a NondeterministicChoice from
    co-simulation carries the hazards, from ``batch_hazards``, as its
    ``hazards`` attribute, and they are warned before it is raised.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    result = rewrite(system)
    source = result.normalized_source
    try:
        verdict = co_simulate(source, result.target, bound)
    except NondeterministicChoice as err:
        err.hazards = tuple(batch_hazards(source))
        for message in err.hazards:
            warnings.warn(BatchOverlapWarning(message), stacklevel=2)
        raise
    hazards = hazards_from_run(
        source, verdict.source_event, verdict.source_halt, verdict.source_settled
    )
    if hazards is None:
        hazards = batch_hazards(source)
    for message in hazards:
        warnings.warn(BatchOverlapWarning(message), stacklevel=2)
    return result._replace(hazards=tuple(hazards)), verdict
