"""Co-simulation: does the delay-free rewrite behave like the original?

Two requirements make a rewrite a faithful simulation:

* R1: both systems halt at the same tick,
* R2: both environments hold the same count at halting.

For pairs that do not halt within the comparison window, the verdict
falls back to tick-pointwise equality of the environment trajectories,
which is stricter than R1/R2 wherever both apply.

Both systems are deterministic, so co-simulation stops as soon as the rest
of the window cannot change the verdict, and returns exactly the verdict
of a run to the bound.  Two arguments make the stop exact (``co_simulate``
gives them in full):

* Before the first divergence: once the joint state of both systems
  repeats, each environment gains from then on what it gained one period
  earlier, so the environments agree at every later tick, and a system
  still running never halts.
* After it, only the halting ticks are left to find.  A system that has
  not halted never will once its state recurs up to counts that grew by
  whole guard periods while staying above every count at which a guard or
  a consumption still decides on the count itself: every later tick then
  fires the rules of the tick one period earlier.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from typing import Iterator

from .eliminate import TransformResult
from .model import SnpSystem
from .semantics import Kernel, NondeterministicChoice


@dataclass(frozen=True)
class Verdict:
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

    The result is the one a run of both systems to ``bound`` gives, but the
    run stops as soon as the rest of the window cannot change it.

    Until the first divergence both systems advance in lock step, and
    their joint state (spikes, countdown and pending on both sides, a
    halted side's frozen) is checked for a repeat with Brent's method.  If
    the state at tick t equals the one saved at tick t - P, a side still
    running never halts, and from tick t each side's environment gains, tick
    by tick, what it gained from tick t - P.  The environments agree at
    every tick up to t, so they agree at every later tick.  Checks start
    once the tick reaches the larger side's neuron count, so that a run
    that halts sooner does not pay for them; a later start only delays the
    stop.

    After the first divergence only the halting ticks are left to find, so
    each side runs on alone until it halts, reaches the bound or provably
    never halts.  The proof compares the side's state at tick t with the
    one saved at tick s (Brent's method again): countdowns and pending
    batches are equal, and every neuron either holds the same count, or
    has grown by a multiple of L, the lcm of its guards' periods (1 with
    none), and held at least T = max(largest guard offset + 1, largest
    consumption) spikes (0 with no rules) at every tick from s to t.  At T
    spikes or more every consumption is covered and no guard can match on
    an offset alone, so which rules are enabled depends on the count
    modulo L only.  So tick t fires the same rules as tick s, loses and
    delivers the same batches and meets the same ties, and the next state
    again differs from the one a period earlier by the same growth; by
    induction every tick after t repeats the tick one period earlier,
    counts stay at T or more, and since no tick from s to t halted or tied,
    the side never halts.

    Only the kernels' state and one saved copy of it are kept, so memory
    does not grow with the bound.  A malformed system raises
    ValidationError before any tick is simulated, the source's first.  An
    engine error in the source is raised in preference to one in the
    target, as if the source were run first.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    src, tgt = Kernel(source), Kernel(target)
    src_ticks, tgt_ticks = src.ticks(bound), tgt.ticks(bound)
    state = (src.spikes, src.countdown, src.pending, tgt.spikes, tgt.countdown, tgt.pending)
    gate = max(len(src.spikes), len(tgt.spikes))
    saved, power, steps = None, 1, 0
    source_halt = target_halt = first_divergence = None
    try:
        while True:
            if source_halt is None:
                side = "source"
                tick, a, halted = next(src_ticks)
                if halted:
                    source_halt = tick
            if target_halt is None:
                side = "target"
                tick, b, halted = next(tgt_ticks)
                if halted:
                    target_halt = tick
            if a != b:
                first_divergence = (tick, a, b)
                break
            if tick == bound or (source_halt is not None and target_halt is not None):
                break
            if tick >= gate:
                if state == saved:
                    break
                steps += 1
                if steps == power:
                    saved = tuple(part.copy() for part in state)
                    power *= 2
                    steps = 0
    except NondeterministicChoice as err:
        err.system = side
        if side == "target" and source_halt is None:
            _halting(src, src_ticks, "source")  # raises the source's own error first
        raise
    if first_divergence is not None:
        if source_halt is None:
            source_halt, a = _halting(src, src_ticks, "source")
        if target_halt is None:
            target_halt, b = _halting(tgt, tgt_ticks, "target")

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
    )


def _halting(
    kernel: Kernel, ticks: Iterator[tuple[int, int, bool]], label: str
) -> tuple[int | None, int | None]:
    """``(halting tick, environment)`` of one side run on alone from where
    ``ticks`` stands, or ``(None, None)`` once it reaches the bound or its
    state recurs as ``co_simulate`` describes, so that it never halts.
    ``label`` names the side on a NondeterministicChoice.
    """
    spikes, countdown, pending = kernel.spikes, kernel.countdown, kernel.pending
    periods, floors = [], []
    for rules in kernel.rules:
        period, floor = 1, 0
        for terms, consume, _, _ in rules:
            floor = max(floor, consume, *(offset + 1 for offset, _ in terms))
            period = lcm(period, *(p for _, p in terms if p))
        periods.append(period)
        floors.append(floor)
    saved = low = None
    power, steps = 1, 0
    try:
        for tick, environment, halted in ticks:
            if halted:
                return tick, environment
            if tick < len(spikes):
                continue
            if saved is not None:
                low = list(map(min, low, spikes))
                if countdown == saved[1] and pending == saved[2] and all(
                    k == j or (k > j and (k - j) % p == 0 and m >= f)
                    for k, j, p, m, f in zip(spikes, saved[0], periods, low, floors)
                ):
                    return None, None
            steps += 1
            if steps == power:
                saved = (spikes.copy(), countdown.copy(), pending.copy())
                low = saved[0]
                power *= 2
                steps = 0
    except NondeterministicChoice as err:
        err.system = label
        raise
    return None, None


def check_count_law(result: TransformResult) -> bool:
    """Added neurons, net of feeders, must equal the sum of the delays
    eliminated from the normalized source."""
    return result.added_count - len(result.feeders) == sum(result.delays)
