"""Tick-by-tick operational semantics: delays, closed neurons, spike loss.

A run is a sequence of configurations under a global clock.  Each neuron is
either open or closed: firing a rule with delay d closes it for d ticks,
during which it neither fires nor receives (spikes aimed at it are lost),
and the parked emission is released the moment it reopens.
"""

from __future__ import annotations

from math import lcm
from typing import Iterator, NamedTuple

from .model import Neuron, Rule, SnpSystem, check, validated_make


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


class NeuronState(
    NamedTuple("NeuronState", [("spikes", int), ("closed_remaining", int), ("pending_emission", int)])
):
    """Per-neuron slice of a configuration.

    ``closed_remaining`` counts ticks until the neuron reopens;
    ``pending_emission`` is the parked spike batch of the fired delayed rule
    while the neuron is closed, and 0 while it is open, as in the ``Kernel``.
    """

    __slots__ = ()
    _make = validated_make

    def __new__(cls, spikes: int, closed_remaining: int = 0, pending_emission: int = 0):
        if closed_remaining >= 1:
            if pending_emission < 1:
                raise ValueError("pending emission must be a positive spike count")
        elif pending_emission:
            raise ValueError("pending emission must be present exactly while closed")
        return super().__new__(cls, spikes, closed_remaining, pending_emission)


class Configuration(NamedTuple):
    """Snapshot at one tick: neuron states in declaration order, plus the
    environment count."""

    states: tuple[NeuronState, ...]
    environment: int = 0
    tick: int = 0


class Trace(NamedTuple):
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

    A kernel is one run.  The kernel fires each neuron's own ``Rule``s along
    the system's successor indices.  The state is three integer lists in
    declaration order: ``spikes``, ``countdown`` (ticks until the neuron
    reopens, 0 while open) and ``pending`` (the parked emission, 0 while
    open).  ``tick`` is the tick of the configuration they hold once one
    is yielded, else None; every ``ticks`` call continues the run from it.

    A tick touches only the closed neurons and the open neurons whose spike
    count changed since they were last checked, which ``touched`` holds
    as the list of closed neurons and the set of open ones to check; every
    other open neuron was found to have no enabled rule at the count it
    still holds.  The same check decides halting: a configuration halts
    when no neuron is closed and no checked neuron has an enabled rule.
    Every neuron whose state changed on the way to a configuration is
    touched at it.  ``fired`` holds the ``(neuron index, rule)`` pairs that
    fired on the way to it, each also touched: only a firing lowers a count.

    ``environment`` is the count the output neuron has sent out by the
    yielded tick, and ``halt`` that tick once it is the halting one, else
    None.  A malformed system is refused with ValidationError when the
    kernel is built, so a tick trusts every rule it fires.

    ``event`` is ``(kind, neuron id, tick)`` of the first of two events
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
        self.environment = 0
        self.halt: int | None = None
        self.event: tuple[str, str, int] | None = None
        self.label: str | None = None
        self.tick: int | None = None
        self.touched: tuple[list[int], set[int]] = ([], set(range(len(neurons))))
        self.fired: list[tuple[int, Rule]] = []

    def ticks(self, max_steps: int) -> Iterator[int]:
        """Advance the state in place, yielding the tick of each
        configuration of the run not yet yielded: from tick 0 on a new
        kernel, and from the tick after the last one yielded on every later
        call, which continues the same run.

        The last tick is that of the first halting configuration (``halt``)
        or ``max_steps``, whichever comes first, so a halted kernel yields
        nothing more.  The state lists, ``environment``, ``tick``,
        ``touched`` and ``fired`` hold the yielded configuration until a
        stream resumes.  A stream resumed after another one has moved the
        kernel on ends without a tick.

        Raises NondeterministicChoice, like ``step``, when a tick to be
        computed would start with several rules enabled in one neuron, and
        again on each later call whose budget reaches that tick.  Raises
        ValueError for a negative ``max_steps`` when first advanced; a
        malformed system has raised ValidationError before that, when the
        kernel was built.
        """
        if max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        rules, successors, output, ids = self.rules, self.successors, self.output, self.ids
        spikes, countdown, pending = self.spikes, self.countdown, self.pending
        event = self.event
        closed, dirty = self.touched  # a resumed run re-checks its open neurons
        tick = 0 if self.tick is None else self.tick
        while True:
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
            if tick != self.tick:  # not yet yielded
                if not closed and not firing:
                    self.halt = tick
                self.tick, self.touched = tick, (closed, dirty)
                yield tick
            if self.halt is not None or tick >= max_steps or tick != self.tick:
                return
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
                        event = self.event = ("queued", ids[i], tick + 1)
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
                        event = self.event = ("lost", ids[target], tick + 1)
                if origin == output:
                    self.environment += batch
            self.fired = firing
            tick += 1


class Recurrence:
    """Proof that kernels advanced in lock step repeat themselves forever.

    ``settle`` calls ``recurs`` once per tick from its gate on, after each
    kernel that still runs has yielded the tick; a halted kernel stays as it
    stopped.  Brent's cycle detection (Brent, *BIT* 20, 1980) saves the
    state at each tick it checks at or after the gate that is 2^m - 2 for
    some m >= 1 (0, 2, 6, 14, ...), and compares each tick with the copy
    saved last.  The gate is the largest neuron count of the kernels
    unless ``gate`` gives another.  The state at tick t recurs the
    one saved at tick s when, on every kernel, countdowns and pending
    batches are equal and each count is equal or has grown by a multiple of
    L while staying at T or more from s to t.  L is the lcm of the neuron's
    guard periods (1 with none); T is max(largest guard offset + 1, largest
    consumption).

    So every check saves on one schedule, and a check on one kernel alone
    saves at each of its ticks from that kernel's neuron count on.  When a
    check whose gate is at least that count proves the run at t from the
    copy saved at s, the lone check has saved the same state at s, and
    still holds it at t unless it proved the run sooner: it proves the run
    by t.  ``co_simulate`` keeps the default gate, so the overlap check
    (``eliminate.batch_hazards``) proves the source's run by the tick at
    which co-simulation does.  ``frames`` checks from tick 0, a gate of 0:
    it saves at every tick the lone check saves at, and proves by its tick.

    Why that is a proof: from T spikes on, every consumption is covered and
    no guard matches on an offset alone, so the enabled rules depend on the
    count modulo L only.  So tick t + 1 fires, reopens, loses, delivers and
    emits as tick s + 1 did, with the same ties, and its state relates to
    s + 1's as t's does to s's; the ``"queued"`` test repeats too, since the
    count a delayed rule leaves is the closed neuron's count at the next
    tick.  So every tick after t repeats the tick t - s earlier: a kernel
    halted at t had halted by s, one running never halts, and no tie or
    event comes after t that did not come between s and t.

    Once ``recurs`` has returned True, ``proved`` is t and ``period`` is
    t - s.  Every tick x >= t then holds, on every kernel, the counts of
    tick x - period grown by those of t less those of s, the same
    countdowns and pending batches, and an environment grown likewise.

    A check costs at most the neurons touched since they were last
    compared, and on most ticks less.  Each kernel keeps the neurons found
    apart from the copy when last compared, the lowest count of each neuron
    since s, and the neurons touched since they were last compared.  An
    untouched neuron holds the state, and so the relation to the copy, it
    held when last compared.  So a kernel is apart, without a comparison,
    when:

    - its count of closed neurons differs from the copy's: a neuron is
      closed exactly while its countdown is not 0, so some countdown
      differs; or
    - more neurons were apart than have been touched since they were last
      compared: one of them is untouched, so still apart.

    On such a tick, and on every kernel once one is apart, a kernel
    compares nothing, and compares the neurons touched meanwhile at the
    next tick that passes both tests.  Every call after a save lowers the
    lows of the neurons that fired to reach its tick (``Kernel.fired``)
    alone, since only a firing lowers a count.

    ``checked`` counts the calls to ``recurs`` and ``compared`` the neurons
    compared with a copy, summed over the kernels.
    """

    def __init__(self, *kernels: Kernel, gate: int | None = None):
        # per kernel: (L, T) once needed, saved state, lows since, neurons
        # apart, neurons touched since last compared, closed neurons saved
        self.sides = [(k, {}, k.spikes, k.countdown, k.pending, [], set(), set(), 0) for k in kernels]
        self.gate = max(len(k.spikes) for k in kernels) if gate is None else gate
        self.saved: int | None = None  # the tick of the copy
        self.proved: int | None = None
        self.period: int | None = None
        self.checked = 0
        self.compared = 0

    def settle(self, ticks: Iterator[int]) -> Iterator[int]:
        """Re-yield ``ticks``, the ticks of the kernels watched, until the
        first that ``recurs`` or the stream's end, after the halting tick or
        at the budget: a tick at which every kernel has halted never recurs,
        since a kernel halted there would have halted by the saved tick.
        Checks start at the gate (at once for a stream past it), so with the
        default gate a run that halts before the largest neuron count pays
        for none.  A tick is checked when the caller asks for the next, after
        the caller's own exits on it."""
        gate = self.gate
        for tick in ticks:
            yield tick
            if tick >= gate and self.recurs(tick):
                return

    def recurs(self, tick: int) -> bool:
        """Whether the state at ``tick`` recurs the copy saved last; if so,
        ``proved`` becomes ``tick`` and ``period`` its distance from the
        copy.  Each kernel lowers the lows of the neurons that fired and adds
        its touched neurons to its set; it compares the set's neurons with
        the copy only when neither test of the class docstring finds it
        apart.  Called on every tick from the first call on; a tick t at or
        past the gate with t + 2 a power of two is saved when it does not
        recur."""
        self.checked += 1
        if self.saved is not None:
            related = True
            for kernel, bounds, spikes, countdown, pending, low, apart, unseen, shut in self.sides:
                now = kernel.spikes
                for i, _ in kernel.fired:
                    if now[i] < low[i]:
                        low[i] = now[i]
                closed, dirty = kernel.touched
                unseen.update(closed)
                unseen.update(dirty)
                if not related or len(closed) != shut or len(apart) > len(unseen):
                    related = False
                    continue
                closing, parked = kernel.countdown, kernel.pending
                for i in unseen:
                    k = now[i]
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
                self.compared += len(unseen)
                unseen.clear()
                if apart:
                    related = False
            if related:
                self.proved, self.period = tick, tick - self.saved
                return True
        if tick >= self.gate and (tick + 2) & (tick + 1) == 0:
            self.sides = [
                (
                    k,
                    bounds,
                    k.spikes.copy(),
                    k.countdown.copy(),
                    k.pending.copy(),
                    k.spikes.copy(),
                    set(),
                    set(),
                    len(k.touched[0]),
                )
                for k, bounds, *_ in self.sides
            ]
            self.saved = tick
        return False


class KeptPeriod(NamedTuple):
    """The ticks of a run past its recurrence proof at t, from t + 1 to
    ``last``, as the period P that ``frames`` kept.

    ``kept`` holds the frames of ticks t + 1 to t + P as ``(tick, counts,
    countdown, pending, environment)`` tuples, and visit v >= 0 of its slot
    j is tick ``kept[j][0] + v * P``.  That tick has the slot's countdown
    and pending; its counts are the slot's with each neuron ``grown[i]``
    grown by v * ``growth[i]``, and its environment is the slot's grown by
    v * ``env_growth``.  ``grown`` lists, in declaration order, the neurons
    whose count grows over a period: every other count is the slot's on
    every visit.  When ``last`` is before t + P, only its first visits'
    ticks are the run's.
    """

    kept: tuple[tuple[int, tuple[int, ...], tuple[int, ...], tuple[int, ...], int], ...]
    grown: tuple[int, ...]
    growth: tuple[int, ...]
    env_growth: int
    last: int


def frames(system: SnpSystem, max_steps: int) -> Iterator[tuple]:
    """The run to the first halting configuration or tick ``max_steps``:
    every configuration the kernel computes up to a recurrence proof as a
    frame ``(tick, spikes, countdown, pending, environment, halted)``, read
    off the kernel, then at most one ``KeptPeriod`` for the rest.

    ``Recurrence.settle``, checking from tick 0, settles the kernel's ticks
    to ``max_steps``.  After a proof at tick t with period P, when t is
    before ``max_steps``, the same kernel resumes to tick t + P, keeps
    those P frames, and stops.  Ticks from t + 1 to ``max_steps`` come as
    one ``KeptPeriod`` that holds those P frames and what each visit adds
    to them: such a run never halts and meets no tie after t.

    A frame's counts, countdown and pending are the kernel's live lists,
    valid until the generator is resumed.  Memory is the kernel's state
    until a proof and one period of frames after it, whatever
    ``max_steps``.  Raises NondeterministicChoice as ``Kernel.ticks``
    does; when first advanced, ValueError for a negative ``max_steps``
    comes before ValidationError for a malformed ``system``, as in ``run``.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    kernel = Kernel(system)
    spikes, countdown, pending = kernel.spikes, kernel.countdown, kernel.pending
    recurrence = Recurrence(kernel, gate=0)
    for tick in recurrence.settle(kernel.ticks(max_steps)):
        yield tick, spikes, countdown, pending, kernel.environment, kernel.halt is not None
        if tick == max_steps:
            return
    if recurrence.proved is not None:
        before, before_env = spikes.copy(), kernel.environment
        kept = tuple(
            (tick, tuple(spikes), tuple(countdown), tuple(pending), kernel.environment)
            for tick in kernel.ticks(recurrence.proved + recurrence.period)
        )
        grown = tuple(i for i, (k, b) in enumerate(zip(spikes, before)) if k != b)
        growth = tuple(spikes[i] - before[i] for i in grown)
        yield KeptPeriod(kept, grown, growth, kept[-1][4] - before_env, max_steps)


def _period_and_floor(rules: tuple[Rule, ...]) -> tuple[int, int]:
    """L and T, as ``Recurrence`` defines them, of a neuron's rules."""
    period, floor = 1, 0
    for rule in rules:
        for offset, p in rule.guard.terms:
            floor = max(floor, offset + 1)
            period = lcm(period, p or 1)
        floor = max(floor, rule.consume)
    return period, floor
