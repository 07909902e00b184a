"""Tick-by-tick operational semantics: delays, closed neurons, spike loss.

A run is a sequence of configurations under a global clock.  Each neuron is
either open or closed: firing a rule with delay d closes it for d ticks,
during which it neither fires nor receives (spikes aimed at it are lost),
and the parked emission is released the moment it reopens.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice
from math import lcm
from operator import add
from typing import Iterator, Sequence

from .model import Neuron, Rule, SnpSystem, check


class NondeterministicChoice(Exception):
    """More than one rule was enabled in a single neuron at the same tick.

    Only deterministic systems are supported; a tie is a hard error rather
    than a silent arbitrary pick.  ``system`` identifies which side raised
    when the error surfaces from a co-simulation; ``equivalence.verify``
    also gives it the rewrite's ``hazards``.
    """

    def __init__(self, neuron: str, tick: int, system: str | None = None):
        self.neuron = neuron
        self.tick = tick
        self.system = system
        super().__init__()

    def __str__(self):
        where = f" in {self.system}" if self.system else ""
        return f"neuron {self.neuron} has several enabled rules at tick {self.tick}{where}"


@dataclass(frozen=True)
class NeuronState:
    """Per-neuron slice of a configuration.

    ``closed_remaining`` counts ticks until the neuron reopens;
    ``pending_emission`` is the parked spike batch of the fired delayed rule
    while the neuron is closed, and 0 while it is open, as in the ``Kernel``.
    """

    spikes: int
    closed_remaining: int = 0
    pending_emission: int = 0

    def __post_init__(self):
        if self.closed_remaining >= 1:
            if self.pending_emission < 1:
                raise ValueError("pending emission must be a positive spike count")
        elif self.pending_emission:
            raise ValueError("pending emission must be present exactly while closed")


@dataclass(frozen=True)
class Configuration:
    """Snapshot at one tick: neuron states in declaration order, plus the
    environment count."""

    states: tuple[NeuronState, ...]
    environment: int = 0
    tick: int = 0


@dataclass(frozen=True)
class Trace:
    """Consecutive configurations from tick 0.  ``halted`` tells whether the
    last one halts (at ``final.tick``) or the budget ran out on it."""

    configurations: tuple[Configuration, ...]
    halted: bool

    @property
    def final(self) -> Configuration:
        return self.configurations[-1]


def initial_configuration(system: SnpSystem) -> Configuration:
    states = tuple(NeuronState(n.initial_spikes) for n in system.neurons)
    return Configuration(states, environment=0, tick=0)


def enabled_rules(neuron: Neuron, state: NeuronState) -> list[int]:
    """Indices of rules that may fire on this state.

    A rule is enabled when the guard matches the spike count and the count
    covers the consumption.  A closed neuron never has enabled rules.
    """
    if state.closed_remaining >= 1:
        return []
    return [
        i
        for i, rule in enumerate(neuron.rules)
        if state.spikes >= rule.consume and rule.guard.matches(state.spikes)
    ]


def step(system: SnpSystem, config: Configuration) -> Configuration:
    """Advance one tick.

    Three phases inside the tick:

    1. Closed counters tick down.  A counter reaching zero reopens the
       neuron and moves its pending emission into the delivery pool.
    2. Every neuron that was open at the START of the tick and has an
       enabled rule (judged on its start-of-tick spike count) applies
       exactly one rule and loses the consumed spikes.  A zero-delay rule
       pools its emission at once; a delayed rule closes the neuron and
       parks the emission.  A neuron reopened in phase 1 cannot fire
       before the next tick.
    3. Pooled emissions travel every outgoing synapse of their origin.
       Targets still closed after phases 1 and 2 lose the spikes.
       Emissions of the output neuron are also added to the environment.

    Raises NondeterministicChoice when several rules are enabled at once
    in one neuron; the reported tick is the one being computed.
    """
    states = list(config.states)
    pool: list[tuple[int, int]] = []  # (origin index, spike batch)

    for i, st in enumerate(states):
        if st.closed_remaining >= 1:
            left = st.closed_remaining - 1
            if left == 0:
                pool.append((i, st.pending_emission))
                states[i] = NeuronState(st.spikes)
            else:
                states[i] = NeuronState(st.spikes, left, st.pending_emission)

    for i, (neuron, start) in enumerate(zip(system.neurons, config.states)):
        if start.closed_remaining >= 1:
            continue
        enabled = enabled_rules(neuron, start)
        if not enabled:
            continue
        if len(enabled) > 1:
            raise NondeterministicChoice(neuron.id, config.tick + 1)
        rule = neuron.rules[enabled[0]]
        remaining = start.spikes - rule.consume
        if rule.delay == 0:
            states[i] = NeuronState(remaining)
            if rule.produce > 0:
                pool.append((i, rule.produce))
        else:
            states[i] = NeuronState(remaining, rule.delay, rule.produce)

    environment = config.environment
    out_index = system.index.get(system.output)
    for origin, batch in pool:
        for target in system.successors[origin]:
            st = states[target]
            if st.closed_remaining == 0:
                states[target] = NeuronState(st.spikes + batch)
        if origin == out_index:
            environment += batch

    return Configuration(tuple(states), environment, config.tick + 1)


def is_halting(system: SnpSystem, config: Configuration) -> bool:
    """All neurons open (so nothing pending), no rule enabled anywhere."""
    for neuron, state in zip(system.neurons, config.states):
        if state.closed_remaining >= 1 or enabled_rules(neuron, state):
            return False
    return True


def run(system: SnpSystem, max_steps: int) -> Trace:
    """The loop over ``is_halting`` and ``step`` that defines a run: from the
    initial configuration to the first halting one, or to tick ``max_steps``.

    The trace always starts at tick 0, so a system with nothing to do halts
    at once.  Runs are pure: the same system and budget give the identical
    trace.  Every tick scans every neuron; the ``Kernel`` (``snpkit sim``,
    ``env_trajectory``) runs large systems faster.  A malformed system
    raises ValidationError before tick 0.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    config = initial_configuration(check(system))
    configs = [config]
    while not is_halting(system, config):
        if config.tick >= max_steps:
            return Trace(tuple(configs), False)
        config = step(system, config)
        configs.append(config)
    return Trace(tuple(configs), True)


class Kernel:
    """The event-driven engine behind every command, tested against ``run``.

    The kernel fires each neuron's own ``Rule``s along the system's successor
    indices.  The state is three integer lists in declaration order:
    ``spikes``, ``countdown`` (ticks until the neuron reopens, 0 while open)
    and ``pending`` (the parked emission, 0 while open).

    A tick touches only the closed neurons and the open neurons whose spike
    count changed since they were last checked, which ``touched`` holds
    while a configuration is yielded; every other open neuron was found to
    have no enabled rule at the count it still holds.  The same check
    decides halting: a configuration halts when no neuron is closed and no
    checked neuron has an enabled rule.

    A malformed system is refused with ValidationError when the kernel is
    built, so a tick trusts every rule it fires.

    ``event`` is ``(kind, neuron index, tick)`` of the first of two events
    the run meets, or None: ``"lost"`` when a spike batch reaches a closed
    neuron, ``"queued"`` when a delayed rule fires and leaves spikes that
    still enable it, so the next batch waits out the closed window.  A
    NondeterministicChoice names ``label`` (None unless set) as its ``system``.
    """

    def __init__(self, system: SnpSystem):
        neurons = check(system).neurons
        self.ids = [n.id for n in neurons]
        self.rules = [n.rules for n in neurons]
        self.successors = system.successors
        self.output = system.index[system.output]
        self.spikes = [n.initial_spikes for n in neurons]
        self.countdown = [0] * len(neurons)
        self.pending = [0] * len(neurons)
        self.event: tuple[str, int, int] | None = None
        self.label: str | None = None

    def ticks(self, max_steps: int) -> Iterator[tuple[int, int, bool]]:
        """Advance the state in place, yielding ``(tick, environment, halted)``
        for every configuration from tick 0.

        The last item is the first halting configuration (``halted`` true) or
        the one at tick ``max_steps``.  The state lists and ``touched`` hold
        the yielded configuration until the generator is resumed.

        Raises NondeterministicChoice, like ``step``, when a tick to be
        computed would start with several rules enabled in one neuron.
        """
        rules, successors, output, ids = self.rules, self.successors, self.output, self.ids
        spikes, countdown, pending = self.spikes, self.countdown, self.pending
        event = self.event
        closed: list[int] = []
        dirty = set(range(len(spikes)))  # open neurons to check
        environment = 0
        tick = 0
        while True:
            self.touched = closed, dirty
            firing = []
            ties = []
            for i in dirty:
                k = spikes[i]
                chosen = None
                for rule in rules[i]:
                    if k < rule.consume:
                        continue
                    for offset, period in rule.guard.terms:  # SpikeRegex.matches, inlined
                        if k == offset or (period and k > offset and (k - offset) % period == 0):
                            break
                    else:
                        continue
                    if chosen is not None:
                        ties.append(i)
                        break
                    chosen = rule
                if chosen is not None:
                    firing.append((i, chosen))
            halted = not closed and not firing
            if halted or tick >= max_steps:
                yield tick, environment, halted
                return
            yield tick, environment, False
            if ties:  # ``step`` meets the lowest tied neuron first
                raise NondeterministicChoice(ids[min(ties)], tick + 1, self.label)

            dirty = set()
            pool = []  # (origin, batch) emissions of this tick
            was_closed, closed = closed, []
            for i in was_closed:
                left = countdown[i] - 1
                countdown[i] = left
                if left:
                    closed.append(i)
                else:
                    pool.append((i, pending[i]))
                    pending[i] = 0
                    dirty.add(i)
            for i, rule in firing:
                k = spikes[i] = spikes[i] - rule.consume
                if rule.delay:
                    countdown[i] = rule.delay
                    pending[i] = rule.produce
                    closed.append(i)
                    if event is None and k >= rule.consume and rule.guard.matches(k):
                        event = self.event = ("queued", i, tick + 1)
                else:
                    dirty.add(i)
                    if rule.produce > 0:
                        pool.append((i, rule.produce))
            for origin, batch in pool:
                for target in successors[origin]:
                    if not countdown[target]:
                        spikes[target] += batch
                        dirty.add(target)
                    elif event is None:
                        event = self.event = ("lost", target, tick + 1)
                if origin == output:
                    environment += batch
            tick += 1


class Recurrence:
    """Proof that kernels advanced in lock step repeat themselves forever.

    ``settle`` calls ``recurs`` once per tick from its gate on, after each
    kernel that still runs has yielded the tick; a halted kernel stays as it
    stopped.  Brent's cycle detection (Brent, *BIT* 20, 1980) saves the
    state at fixed ticks, a + 2^m - 2 for m >= 1 with a the neuron count of
    the first kernel, from the first at or after the gate (the largest
    neuron count) and the first call, and compares each tick with the copy
    saved last.  The state at tick t recurs the one saved at tick s when,
    on every kernel, countdowns and pending batches are equal and each
    count is equal or has grown by a multiple of L while staying at T or
    more from s to t.  L is the lcm of the neuron's guard periods (1 with
    none); T is max(largest guard offset + 1, largest consumption).

    So every check whose first kernel runs the same system saves on one
    schedule, and a check on that kernel alone saves at each of its ticks
    from the neuron count on.  When any of them proves the run at t from
    the copy saved at s, the lone check has saved the same state at s, and
    still holds it at t unless it proved the run sooner: it proves the run
    by t.  ``co_simulate`` puts the source first, so the overlap check
    (``eliminate.batch_hazards``) proves the source's run by the tick at
    which co-simulation does.

    Why that is a proof: from T spikes on, every consumption is covered and
    no guard matches on an offset alone, so the enabled rules depend on the
    count modulo L only.  So tick t + 1 fires, reopens, loses, delivers and
    emits as tick s + 1 did, with the same ties, and its state relates to
    s + 1's as t's does to s's; the ``"queued"`` test repeats too, since the
    count a delayed rule leaves is the closed neuron's count at the next
    tick.  So every tick after t repeats the tick t - s earlier: a kernel
    halted at t had halted by s, one running never halts, and no tie or
    event comes after t that did not come between s and t.

    Once ``recurs`` has returned True, ``period`` is t - s.  Every tick
    x >= t then holds, on every kernel, the counts of tick x - period grown
    by those of t less those of s, the same countdowns and pending batches,
    and an environment grown likewise.
    """

    def __init__(self, *kernels: Kernel):
        # per kernel: (L, T) once needed, saved state, lows since, neurons apart
        self.sides = [(k, {}, k.spikes, k.countdown, k.pending, [], set()) for k in kernels]
        self.anchor = len(kernels[0].spikes)
        self.gate = max(len(k.spikes) for k in kernels)
        self.saved: int | None = None  # the tick of the copy
        self.save_at: int | None = None  # the tick of the next
        self.proved: int | None = None
        self.period: int | None = None

    def settle(self, ticks: Iterator[tuple[int, int, bool]]) -> Iterator[tuple[int, int, bool]]:
        """Re-yield ``ticks``, the ``(tick, environment, halted)`` stream of
        the kernels watched, until their run is settled: after the halting
        item, at the stream's end (its budget), or at the first item that
        ``recurs``, whose tick ``proved`` then holds.  Checks start at the
        gate, the tick that reaches the largest neuron count of the kernels
        (at once for a stream past it), so a run that halts sooner pays for
        none.  An item is checked when the caller asks for the next, after
        the caller's own exits on it."""
        gate = self.gate
        for item in ticks:
            yield item
            if item[2]:
                return
            if item[0] >= gate and self.recurs(item[0]):
                self.proved = item[0]
                return

    def recurs(self, tick: int) -> bool:
        """Whether the state at ``tick`` recurs the copy saved last, at the
        cost of the touched neurons: only those can change how they relate.
        Called on every tick from the first call on."""
        if self.saved is not None:
            related = True
            for kernel, bounds, spikes, countdown, pending, low, apart in self.sides:
                now, closing, parked = kernel.spikes, kernel.countdown, kernel.pending
                for touched in kernel.touched:
                    for i in touched:
                        k = now[i]
                        if k < low[i]:
                            low[i] = k
                        if closing[i] != countdown[i] or parked[i] != pending[i] or k < spikes[i]:
                            apart.add(i)
                        elif k == spikes[i]:
                            apart.discard(i)
                        else:
                            period, floor = bounds.get(i) or bounds.setdefault(
                                i, _period_and_floor(kernel.rules[i])
                            )
                            if (k - spikes[i]) % period or low[i] < floor:
                                apart.add(i)
                            else:
                                apart.discard(i)
                if apart:
                    related = False
            if related:
                self.period = tick - self.saved
                return True
        if self.save_at is None:  # the first save at or after the gate and this call
            self.save_at = self.anchor
            while self.save_at < max(self.gate, tick):
                self.save_at = 2 * self.save_at - self.anchor + 2
        if tick == self.save_at:
            self.sides = [
                (k, bounds, k.spikes.copy(), k.countdown.copy(), k.pending.copy(), k.spikes.copy(), set())
                for k, bounds, *_ in self.sides
            ]
            self.saved, self.save_at = tick, 2 * tick - self.anchor + 2
        return False


class GrownCounts(Sequence[int]):
    """The spike counts of a tick that ``frames`` computes past a proof:
    ``base``, the counts of its slot's kept frame, with the neurons at
    indices ``grown`` holding ``values`` instead.

    ``base`` is one tuple per slot, shared by every tick of the slot, and
    ``grown`` one tuple per run, of the neurons whose count grows over a
    period; the count of every other neuron is its base count on every
    visit.  Iteration builds the counts in full.
    """

    __slots__ = ("base", "grown", "values")

    def __init__(self, base: tuple[int, ...], grown: tuple[int, ...], values: tuple[int, ...]):
        self.base, self.grown, self.values = base, grown, values

    def __iter__(self) -> Iterator[int]:
        counts = list(self.base)
        for i, k in zip(self.grown, self.values):
            counts[i] = k
        return iter(counts)

    def __len__(self) -> int:
        return len(self.base)

    def __getitem__(self, i):
        return [*self][i]


def frames(
    system: SnpSystem, max_steps: int
) -> Iterator[tuple[int, Sequence[int], Sequence[int], Sequence[int], int, bool]]:
    """Every configuration of the run as ``(tick, spikes, countdown, pending,
    environment, halted)``: the kernel's state at each tick of
    ``Kernel.ticks``, to the first halting configuration or tick
    ``max_steps``.

    The kernel runs until ``Recurrence.settle`` settles it.  After a proof
    at tick t with period P, it runs P more ticks, keeps their frames, and
    stops: a later tick x is the kept frame of slot ``(x - t - 1) % P``.
    Its countdown and pending are that slot's tuples, the same objects on
    every tick of the slot.  Its counts are a ``GrownCounts`` on the slot's
    base tuple: only the neurons whose count grew from tick t to t + P
    change, each by that growth per visit, and the environment grows
    likewise.  Such a run never halts and meets no tie after t.

    Up to the proof's period, the counts, countdown and pending are the
    kernel's live lists, valid until the generator is resumed.  Memory is
    the kernel's state until a proof and one period of frames after it,
    whatever ``max_steps``.  Raises NondeterministicChoice as
    ``Kernel.ticks`` does.
    """
    kernel = Kernel(system)
    spikes, countdown, pending = kernel.spikes, kernel.countdown, kernel.pending
    recurrence = Recurrence(kernel)
    ticks = kernel.ticks(max_steps)
    for tick, environment, halted in recurrence.settle(ticks):
        yield tick, spikes, countdown, pending, environment, halted
    if recurrence.proved is None:
        return
    before, before_env = spikes.copy(), environment
    kept = []  # per tick of the period: (counts, countdown, pending, environment)
    for tick, environment, halted in islice(ticks, recurrence.period):
        yield tick, spikes, countdown, pending, environment, halted
        kept.append((tuple(spikes), tuple(countdown), tuple(pending), environment))
    grown = tuple(i for i, (k, b) in enumerate(zip(spikes, before)) if k != b)
    growth = [spikes[i] - before[i] for i in grown]
    env_growth = environment - before_env
    # per slot: [base, this visit's grown counts, countdown, pending, environment]
    slots = [[base, tuple(base[i] for i in grown), *rest] for base, *rest in kept]
    for tick, slot in zip(range(tick + 1, max_steps + 1), cycle(slots)):
        base, values, closed, parked, env = slot
        slot[1] = values = tuple(map(add, values, growth))
        slot[4] = env = env + env_growth
        yield tick, GrownCounts(base, grown, values), closed, parked, env, False


def _period_and_floor(rules: tuple[Rule, ...]) -> tuple[int, int]:
    """L and T, as ``Recurrence`` defines them, of a neuron's rules."""
    period, floor = 1, 0
    for rule in rules:
        for offset, p in rule.guard.terms:
            floor = max(floor, offset + 1)
            period = lcm(period, p or 1)
        floor = max(floor, rule.consume)
    return period, floor
