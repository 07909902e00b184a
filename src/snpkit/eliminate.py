"""Rewrite a delayed system into an equivalent delay-free one.

Every neuron owning a delayed rule is replaced by a small subnet that
reproduces the delay with plain rules:

* d-1 *multipliers* copy the incoming batch,
* one *drain* re-collects the copies and meters them out one firing per
  tick, which costs d-1 ticks,
* one *exit* waits for max(d-1, 1) spikes and then emits a single spike.

End to end the subnet forwards a batch exactly d+1 ticks after receiving
it, matching the replaced neuron (one tick to fire, d ticks closed).  For
d = 1 the same construction has no multipliers: the drain feeds the exit
one spike, and the extra hop is the tick of delay.  Each replacement adds
exactly d neurons net (the count law, ``check_count_law``).

A neuron that both holds initial spikes and owns a delayed rule first has
its spikes moved to a fresh feeder neuron; the feeder goes into source and
target alike, so the two stay aligned.  The feeder passes its spikes on one
per tick, so the normalized source can halt several ticks later than the
system as written, and co-simulation compares the target with the
normalized source.
"""

from __future__ import annotations

import functools
import warnings
from typing import Iterable, NamedTuple

from .model import Neuron, Rule, SnpSystem, SpikeRegex, check
from .semantics import Kernel, NondeterministicChoice, Recurrence


# The most neurons the rewrite may add: the sum of the eliminated delays.
MAX_ADDED_NEURONS = 10_000


class RewriteTooLarge(ValueError):
    """The rewrite would add more than ``MAX_ADDED_NEURONS`` neurons."""


class UnsupportedDelayedRule(Exception):
    """A delayed rule falls outside the shape the rewrite can handle.

    The construction is defined for single-rule neurons whose delayed rule
    is (a^j)+ / a^j -> a; anything else is rejected rather than guessed.
    """

    def __init__(self, neuron: str, reason: str):
        self.neuron = neuron
        self.reason = reason
        super().__init__(f"neuron {neuron}: {reason}")


class BatchOverlapWarning(UserWarning):
    """The rewrite may not be exact for this source.

    The rewrite is exact when no batch reaches a closed neuron and no
    delayed neuron fires with a batch queued.  The warning names the first
    event of the source's run that breaks this, or says that the run left
    the question undecided; without it the two systems are equivalent.
    """


def warned(hazards: list[str]) -> tuple[str, ...]:
    """Issue each hazard as a BatchOverlapWarning that points at the caller
    of ``eliminate_delays`` or ``verify``, and return them as a tuple."""
    for message in hazards:
        warnings.warn(BatchOverlapWarning(message), stacklevel=3)
    return tuple(hazards)


class IdAllocator:
    """Hands out ids not colliding with anything seen so far."""

    def __init__(self, taken: Iterable[str] = ()):
        self._taken = set(taken)

    def fresh(self, base: str) -> str:
        candidate, n = base, 2
        while candidate in self._taken:
            candidate = f"{base}_{n}"
            n += 1
        self._taken.add(candidate)
        return candidate


class TransformResult(NamedTuple):
    """The rewrite of a source: its target, how it was built, and the
    overlap warnings."""

    normalized_source: SnpSystem
    target: SnpSystem
    feeders: tuple[str, ...]
    # each replaced neuron's subnet ids: its multipliers, then drain and exit
    gadgets: dict[str, tuple[str, ...]]
    # the eliminated delays in the normalized source's order; their sum is
    # the neuron growth net of feeders (the count law)
    delays: tuple[int, ...]
    added_count: int
    hazards: tuple[str, ...] = ()


def check_count_law(result: TransformResult) -> bool:
    """Added neurons, net of feeders, must equal the sum of the delays
    eliminated from the normalized source."""
    return result.added_count - len(result.feeders) == sum(result.delays)


def _delayed_rule(neuron: Neuron) -> Rule | None:
    """The neuron's delayed rule, checked for the supported shape."""
    delayed = [r for r in neuron.rules if r.delayed]
    if not delayed:
        return None
    if len(neuron.rules) > 1:
        raise UnsupportedDelayedRule(neuron.id, "delayed neurons must carry a single rule")
    rule = delayed[0]
    j = rule.consume
    if rule.guard.terms != ((j, j),) or rule.produce != 1:
        raise UnsupportedDelayedRule(
            neuron.id, "delayed rule must have the shape (a^j)+ / a^j -> a"
        )
    return rule


def normalize_initial(system: SnpSystem) -> tuple[SnpSystem, tuple[str, ...]]:
    """Move initial spikes off delayed neurons onto fresh feeder neurons.

    Every neuron that both holds spikes and owns a delayed rule gets a
    feeder (rule a+ / a -> a) holding its spikes, wired feeder -> neuron.
    The feeder passes k spikes on one per tick, so the result can halt
    later than the system given, by more than one tick when k > 1; the
    rewrite's target follows the result.  Returns the adjusted system and
    the feeder ids added.
    """
    check(system)
    alloc = IdAllocator(n.id for n in system.neurons)
    feeders: list[Neuron] = []
    feeder_ids: list[str] = []
    body: list[Neuron] = []
    synapses = set(system.synapses)
    for neuron in system.neurons:
        if neuron.initial_spikes >= 1 and any(r.delayed for r in neuron.rules):
            feeder_id = alloc.fresh(f"{neuron.id}-in")
            feeders.append(
                Neuron(feeder_id, neuron.initial_spikes, (Rule.semi_homogeneous(1),))
            )
            feeder_ids.append(feeder_id)
            synapses.add((feeder_id, neuron.id))
            body.append(neuron._replace(initial_spikes=0))
        else:
            body.append(neuron)
    if not feeders:
        return system, ()
    return (
        SnpSystem(tuple(feeders + body), frozenset(synapses), system.output, system.name),
        tuple(feeder_ids),
    )


@functools.lru_cache(maxsize=256)
def _gadget_rules(j: int, d: int) -> tuple[tuple[Rule], tuple[Rule], tuple[Rule]]:
    """The rule tuples of a multiplier, the drain and the exit, built once
    per gadget shape."""
    return (
        (Rule(SpikeRegex.multiples(j), j, j),),
        (Rule.semi_homogeneous(j),),
        (Rule.semi_homogeneous(max(d - 1, 1)),),
    )


def build_gadget(
    j: int, d: int, alloc: IdAllocator, source_id: str
) -> tuple[tuple[Neuron, ...], frozenset[tuple[str, str]]]:
    """Build the replacement subnet for a delayed rule (a^j)+ / a^j -> a ; d.

    d-1 multipliers (a^j)+ / a^j -> a^j, a drain (a^j)+ / a^j -> a, and an
    exit (a^e)+ / a^e -> a with e = max(d-1, 1), wired multipliers ->
    drain -> exit.  For d = 1 there are no multipliers and the exit passes
    single spikes through.  The rules are shared: every multiplier of the
    subnet, and every subnet of the same (j, d), holds the same immutable
    ``Rule`` objects.  Raises ValueError unless j >= 1 and d >= 1.

    Returns the neurons in that order and their synapses.  The first
    max(d-1, 1) neurons are the entry points, which take over the replaced
    neuron's in-synapses; the exit, last, takes over its out-synapses.
    """
    if j < 1 or d < 1:
        raise ValueError("need j >= 1 and d >= 1")
    multiplier_rules, drain_rules, exit_rules = _gadget_rules(j, d)
    multipliers = tuple(
        Neuron(alloc.fresh(f"{source_id}-{i}"), 0, multiplier_rules) for i in range(1, d)
    )
    drain = Neuron(alloc.fresh(f"{source_id}-{d}"), 0, drain_rules)
    exit_ = Neuron(alloc.fresh(f"{source_id}-exit"), 0, exit_rules)
    synapses = {(m.id, drain.id) for m in multipliers}
    synapses.add((drain.id, exit_.id))
    return multipliers + (drain, exit_), frozenset(synapses)


def eliminate_delays(system: SnpSystem) -> TransformResult:
    """Replace every delayed neuron with its subnet; the target is delay-free.

    In-synapses of a replaced neuron are redirected to every entry point of
    its subnet, out-synapses leave from the exit, and the exit inherits
    output-neuron status.  Everything else is copied verbatim.  The net
    neuron growth is the sum of the eliminated delays plus one per feeder.

    Raises ValidationError on a malformed input, RewriteTooLarge before
    building anything when the delays sum to more than
    ``MAX_ADDED_NEURONS``, and UnsupportedDelayedRule when a delayed rule
    is not of the shape (a^j)+ / a^j -> a.  The target is exact when no
    batch reaches a closed neuron and no delayed neuron fires with a batch
    queued in the normalized source's run; ``warned`` issues a hazard that
    names the first such event, or says the run left it undecided.
    """
    result = rewrite(system)
    return result._replace(hazards=warned(batch_hazards(result.normalized_source)))


def rewrite(system: SnpSystem) -> TransformResult:
    """``eliminate_delays`` without the overlap check: ``hazards`` is empty
    and nothing is warned."""
    normalized, feeder_ids = normalize_initial(system)
    delays = normalized.delays
    if sum(delays) > MAX_ADDED_NEURONS:
        raise RewriteTooLarge(
            f"the delays sum to {sum(delays)}: the rewrite would add more than "
            f"{MAX_ADDED_NEURONS} neurons"
        )

    gadgets: dict[str, tuple[str, ...]] = {}  # replaced id -> its subnet's ids
    entries: dict[str, tuple[str, ...]] = {}  # replaced id -> its subnet's entry ids
    exits: dict[str, str] = {}  # replaced id -> its subnet's exit id
    synapses: set[tuple[str, str]] = set()
    alloc = IdAllocator(n.id for n in normalized.neurons)
    target_neurons: list[Neuron] = []
    for neuron in normalized.neurons:
        rule = _delayed_rule(neuron)
        if rule is None:
            target_neurons.append(neuron)
            continue
        gadget_neurons, gadget_synapses = build_gadget(rule.consume, rule.delay, alloc, neuron.id)
        ids = gadgets[neuron.id] = tuple(n.id for n in gadget_neurons)
        entries[neuron.id] = ids[:-2] or ids[-2:-1]  # the multipliers, or the drain
        exits[neuron.id] = ids[-1]
        synapses |= gadget_synapses
        target_neurons.extend(gadget_neurons)

    for a, b in normalized.synapses:
        s = exits.get(a, a)
        for t in entries.get(b, (b,)):
            synapses.add((s, t))

    output = exits.get(normalized.output, normalized.output)
    target = SnpSystem(
        tuple(target_neurons), frozenset(synapses), output, f"{normalized.name}-delay-free"
    )
    return TransformResult(
        normalized_source=normalized,
        target=target,
        feeders=feeder_ids,
        gadgets=gadgets,
        delays=delays,
        added_count=len(target.neurons) - len(system.neurons),
    )


# --- the overlap check: one run of the source --------------------------------
#
# Every system the engine accepts is deterministic, so the source has one
# run.  The check follows it on the kernel until the first event that breaks
# exactness, halting, or a recurrence (``semantics.Recurrence``), after
# which every tick repeats one already checked.

_HAZARD_TICKS = 10_000


def _hazard(kind: str, neuron: str, tick: int) -> str:
    """The message of a ``"lost"`` or ``"queued"`` event, or of a ``"tie"``,
    at ``neuron`` and ``tick``."""
    if kind == "lost":
        return (
            f"neuron {neuron} is closed when a spike batch reaches it "
            f"at tick {tick}; the source loses the batch, the delay-free target keeps it"
        )
    if kind == "queued":
        return (
            f"neuron {neuron} fires at tick {tick} with a batch still queued; "
            "the source fires the queued batch after reopening, the delay-free target at once"
        )
    return f"undecided at tick {tick}: neuron {neuron} has several enabled rules"


def _undecided() -> str:
    """The message of a run that the check neither saw halt nor proved
    recurrent within the budget.  The run may still recur inside it: a
    repeat that starts after the last save the budget leaves room for is
    proved only after the budget."""
    return (
        f"undecided at tick {_HAZARD_TICKS}: no halt and no recurrence of the source "
        f"was proved within {_HAZARD_TICKS} ticks"
    )


def batch_hazards(system: SnpSystem) -> list[str]:
    """The first event of the source's run that the rewrite does not
    reproduce, as a one-item list; [] when ``Recurrence.settle`` settles
    the run without one.  A run that meets a tie, or that the settling
    leaves at its budget of a fixed number of ticks, is reported
    undecided."""
    if not system.delays:
        return []
    kernel = Kernel(system)
    recurrence = Recurrence(kernel)
    try:
        for _ in recurrence.settle(kernel.ticks(_HAZARD_TICKS)):
            if kernel.event is not None:
                return [_hazard(*kernel.event)]
    except NondeterministicChoice as err:
        return [_hazard("tie", err.neuron, err.tick)]
    return [] if kernel.halt is not None or recurrence.proved is not None else [_undecided()]


def hazards_from_run(
    system: SnpSystem,
    event: tuple[str, str, int] | None,
    halt: int | None,
    settled: int | None,
) -> list[str] | None:
    """What ``batch_hazards(system)`` returns, worked out from another run
    of ``system``: its first ``event`` (a ``Kernel.event``) as far as that
    run went, or None; its ``halt``ing tick or None; and the tick at which
    halting, or a proof of a ``Recurrence`` whose first kernel runs
    ``system`` (as co-simulation's do), ``settled`` the whole run, or None.
    None when these facts leave the answer open.

    The check stops at the first event, a tie, halting, its own recurrence
    proof or its budget.  Nothing comes after a recurrence proof that did
    not come before it, so the first event is the answer when it comes
    within the budget, and a settled run without one gets [] when it halts
    within the budget or is proved recurrent there: every such
    ``Recurrence`` saves at the ticks the check saves at, so the check
    proves the run by the tick the other proof came at.  Past the budget
    the run is undecided.
    """
    if not system.delays:
        return []
    if event is not None:
        return [_hazard(*event) if event[2] <= _HAZARD_TICKS else _undecided()]
    if halt is not None:
        return [] if halt <= _HAZARD_TICKS else [_undecided()]
    if settled is not None and settled <= _HAZARD_TICKS:
        return []
    return None
