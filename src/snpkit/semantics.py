"""Tick-by-tick operational semantics: delays, closed neurons, spike loss.

A run is a sequence of configurations under a global clock.  Each neuron is
either open or closed: firing a rule with delay d closes it for d ticks,
during which it neither fires nor receives (spikes aimed at it are lost),
and the parked emission is released the moment it reopens.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .model import Neuron, SnpSystem, SpikeRegex, check


class NondeterministicChoice(Exception):
    """More than one rule was enabled in a single neuron at the same tick.

    Only deterministic systems are supported; a tie is a hard error rather
    than a silent arbitrary pick.  ``system`` identifies which side raised
    when the error surfaces from a co-simulation.
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
    and is present exactly while the neuron is closed.
    """

    spikes: int
    closed_remaining: int = 0
    pending_emission: int | None = None

    def __post_init__(self):
        if (self.pending_emission is not None) != (self.closed_remaining >= 1):
            raise ValueError("pending emission must be present exactly while closed")
        if self.pending_emission is not None and self.pending_emission < 1:
            raise ValueError("pending emission must be a positive spike count")

    @property
    def open(self) -> bool:
        return self.closed_remaining == 0


@dataclass(frozen=True)
class Configuration:
    """Snapshot at one tick: neuron states in declaration order, plus the
    environment count."""

    states: tuple[NeuronState, ...]
    environment: int = 0
    tick: int = 0


@dataclass(frozen=True)
class Halted:
    at: int


@dataclass(frozen=True)
class BudgetExhausted:
    pass


Outcome = Halted | BudgetExhausted


@dataclass(frozen=True)
class Trace:
    """Consecutive configurations from tick 0, with how the run ended."""

    configurations: tuple[Configuration, ...]
    outcome: Outcome

    @property
    def final(self) -> Configuration:
        return self.configurations[-1]

    @property
    def halted(self) -> bool:
        return isinstance(self.outcome, Halted)


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
    """All neurons open, nothing pending, no rule enabled anywhere."""
    for neuron, state in zip(system.neurons, config.states):
        if state.closed_remaining >= 1 or state.pending_emission is not None:
            return False
        if enabled_rules(neuron, state):
            return False
    return True


def run(system: SnpSystem, max_steps: int) -> Trace:
    """Run from the initial configuration to the first halting configuration,
    or until ``max_steps`` ticks have been simulated.

    The trace always starts at tick 0; a halting check at tick 0 is allowed,
    so a system with nothing to do halts immediately.  Runs are pure: the
    same system and budget always give the identical trace, the one that
    ``step`` and ``is_halting`` define.  Each configuration is the previous
    one with only the neurons the kernel touched replaced; equal neuron
    states are shared within a run.  A malformed system raises
    ValidationError before tick 0.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    kernel = Kernel(system)
    spikes, countdown, pending = kernel.spikes, kernel.countdown, kernel.pending
    config = initial_configuration(system)
    configs = [config]
    states = list(config.states)
    interned: dict[tuple[int, int, int], NeuronState] = {}
    touched: set[int] = set()
    ticks = kernel.ticks(max_steps, touched)
    tick, environment, halted = next(ticks)
    for tick, environment, halted in ticks:
        for i in touched:
            key = (spikes[i], countdown[i], pending[i])
            state = interned.get(key)
            if state is None:
                state = interned[key] = NeuronState(key[0], key[1], key[2] or None)
            states[i] = state
        configs.append(Configuration(tuple(states), environment, tick))
    return Trace(tuple(configs), Halted(tick) if halted else BudgetExhausted())


class Kernel:
    """The event-driven engine behind ``run``, co-simulation and ``snpkit sim``.

    The system is flattened once into per-neuron rule tuples and successor
    indices.  The state is three integer lists in declaration order:
    ``spikes``, ``countdown`` (ticks until the neuron reopens, 0 while open)
    and ``pending`` (the parked emission, 0 while open).

    A tick touches only the closed neurons and the open neurons whose spike
    count changed since they were last checked; every other open neuron
    was found to have no enabled rule at the count it still holds.  The
    same check decides halting: a configuration halts when no neuron is
    closed and no checked neuron has an enabled rule.

    A malformed system is refused with ValidationError when the kernel is
    built, so a tick trusts every rule it fires.

    ``event`` is ``(kind, neuron index, tick)`` of the first of two events
    the run meets, or None: ``"lost"`` when a spike batch reaches a closed
    neuron, ``"queued"`` when a delayed rule fires and leaves spikes that
    still enable it, so the next batch waits out the closed window.
    """

    def __init__(self, system: SnpSystem):
        neurons = check(system).neurons
        self.ids = [n.id for n in neurons]
        self.rules = [
            tuple((r.guard.terms, r.consume, r.produce, r.delay) for r in n.rules)
            for n in neurons
        ]
        self.successors = system.successors
        self.output = system.index[system.output]
        self.spikes = [n.initial_spikes for n in neurons]
        self.countdown = [0] * len(neurons)
        self.pending = [0] * len(neurons)
        self.event: tuple[str, int, int] | None = None

    def ticks(
        self, max_steps: int, touched: set[int] | None = None
    ) -> Iterator[tuple[int, int, bool]]:
        """Advance the state in place, yielding ``(tick, environment, halted)``
        for every configuration from tick 0.

        The last item is the first halting configuration (``halted`` true) or
        the one at tick ``max_steps``.  The state lists hold the yielded
        configuration until the generator is resumed.  If ``touched`` is
        given, each tick refills it with the indices whose state the tick
        may have changed.

        Raises NondeterministicChoice, like ``step``, when a tick to be
        computed would start with several rules enabled in one neuron.
        """
        rules, successors, output, ids = self.rules, self.successors, self.output, self.ids
        spikes, countdown, pending = self.spikes, self.countdown, self.pending
        event = self.event
        closed: list[int] = []
        dirty = set(range(len(spikes)))  # open neurons to check
        spare: set[int] = set()  # the set checked last, reused for the next
        environment = 0
        tick = 0
        while True:
            firing = []
            ties = []
            for i in dirty:
                k = spikes[i]
                chosen = None
                for rule in rules[i]:
                    if k < rule[1]:
                        continue
                    for offset, period in rule[0]:  # SpikeRegex.matches, inlined
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
                raise NondeterministicChoice(ids[min(ties)], tick + 1)

            dirty, spare = spare, dirty
            dirty.clear()
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
            for i, (terms, consume, produce, delay) in firing:
                spikes[i] -= consume
                if delay:
                    countdown[i] = delay
                    pending[i] = produce
                    closed.append(i)
                    if event is None and spikes[i] >= consume:
                        if SpikeRegex(terms).matches(spikes[i]):
                            event = self.event = ("queued", i, tick + 1)
                else:
                    dirty.add(i)
                    if produce > 0:
                        pool.append((i, produce))
            for origin, batch in pool:
                for target in successors[origin]:
                    if not countdown[target]:
                        spikes[target] += batch
                        dirty.add(target)
                    elif event is None:
                        event = self.event = ("lost", target, tick + 1)
                if origin == output:
                    environment += batch
            if touched is not None:
                touched.clear()
                touched.update(closed, dirty)
            tick += 1
