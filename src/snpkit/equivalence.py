"""Co-simulation: does the delay-free rewrite behave like the original?

Two requirements make a rewrite a faithful simulation:

* R1: both systems halt at the same tick,
* R2: both environments hold the same count at halting.

For pairs that do not halt within the comparison window, the verdict
falls back to tick-pointwise equality of the environment trajectories,
which is stricter than R1/R2 wherever both apply.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _environments(
    system: SnpSystem, bound: int, label: str | None = None
) -> Iterator[tuple[int, int | None]]:
    """``(environment, halting tick or None)`` for every tick 0..bound.

    After halting the count is held and the halting tick repeated, without
    simulating further.  Nothing but the kernel's state is kept, so memory
    does not grow with the bound.  ``label`` names the side of a
    co-simulation on a NondeterministicChoice.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    try:
        for tick, environment, halted in Kernel(system).ticks(bound):
            if halted:
                for _ in range(tick, bound + 1):
                    yield environment, tick
                return
            yield environment, None
    except NondeterministicChoice as err:
        err.system = label
        raise


def env_trajectory(system: SnpSystem, bound: int) -> list[int]:
    """Environment count after each tick, up to halting or ``bound``."""
    trajectory = []
    for environment, halt in _environments(system, bound):
        trajectory.append(environment)
        if halt is not None:
            break
    return trajectory


def co_simulate(source: SnpSystem, target: SnpSystem, bound: int = 200) -> Verdict:
    """Run both systems for up to ``bound`` ticks and compare.

    When both halt, R1/R2 are judged on the halting ticks and counts.  When
    neither halts within the window, R1/R2 are not applicable (None) and
    the trajectory comparison is the verdict basis.  When exactly one halts,
    both fail.  Environment trajectories are compared pointwise over the
    whole window, extending a halted system's count as constant.

    The two systems advance in lock step and no configuration is kept.
    Both run to halting or ``bound`` even after they part, so that both
    halting ticks are known.  An engine error in the source is raised in
    preference to one in the target, as if the source were run first; a
    malformed system raises ValidationError.
    """
    src = _environments(source, bound, "source")
    tgt = _environments(target, bound, "target")
    first_divergence = None
    try:
        for tick, ((a, source_halt), (b, target_halt)) in enumerate(zip(src, tgt)):
            if a != b and first_divergence is None:
                first_divergence = (tick, a, b)
            if source_halt is not None and target_halt is not None:
                break
    except Exception:
        for _ in src:
            pass
        raise

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


def check_count_law(result: TransformResult) -> bool:
    """Added neurons, net of feeders, must equal the sum of the delays
    eliminated from the normalized source."""
    return result.added_count - len(result.feeders) == sum(result.delays)
