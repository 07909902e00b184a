"""Shared fixtures, trace-invariant checks, and generators for random inputs."""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from snpkit import (
    Iteration,
    Join,
    Neuron,
    Rule,
    Sequential,
    SnpSystem,
    SpikeRegex,
    Split,
    step,
)

SYSTEMS_DIR = Path(__file__).resolve().parent.parent / "systems"

# CI runs tier-1 with ``--hypothesis-profile=ci``: every property draws
# CI_EXAMPLES times its examples, with no deadline.  A property's own
# ``@settings`` takes its count from ``examples``, and its deadline, when it
# sets none, from the profile.
CI_EXAMPLES = 5
settings.register_profile("ci", max_examples=CI_EXAMPLES * settings().max_examples, deadline=None)


def examples(n: int) -> int:
    """A property's ``max_examples``: ``n`` scaled as the loaded profile
    scales the default's, so CI_EXAMPLES times ``n`` under the ci profile,
    also as hypothesis renames it for ``--hypothesis-verbosity``."""
    return n * settings.default.max_examples // settings.get_profile("default").max_examples


@pytest.fixture
def relay() -> SnpSystem:
    """Three-neuron relay whose middle hop delays its spike by two ticks."""
    return SnpSystem(
        (
            Neuron("1", 1, (Rule.semi_homogeneous(1),)),
            Neuron("2", 0, (Rule.semi_homogeneous(1, delay=2),)),
            Neuron("3", 0, (Rule.semi_homogeneous(1),)),
        ),
        frozenset({("1", "2"), ("2", "3")}),
        "3",
        "relay",
    )


def assert_trace_invariants(system: SnpSystem, trace) -> None:
    """Closed-neuron isolation, counter discipline, environment monotonicity,
    and halting soundness, checked on every consecutive configuration pair."""
    configs = trace.configurations
    for prev, cur in zip(configs, configs[1:]):
        assert cur.tick == prev.tick + 1
        assert cur.environment >= prev.environment
        for p, c in zip(prev.states, cur.states):
            if p.closed_remaining >= 1:
                assert c.closed_remaining == p.closed_remaining - 1
            if p.closed_remaining >= 2:
                assert c.spikes == p.spikes
                assert c.pending_emission == p.pending_emission
            if p.closed_remaining == 1:
                # reopening neuron may receive this tick but cannot fire
                assert c.spikes >= p.spikes
                assert c.pending_emission == 0
            if c.closed_remaining >= 1:
                # closed after the step: gained nothing from deliveries
                assert c.spikes <= p.spikes
    if trace.halted:
        again = step(system, trace.final)
        assert again.states == trace.final.states
        assert again.environment == trace.final.environment
        assert again.tick == trace.final.tick + 1


def sweep_instances() -> list:
    """Every halting routing instance with delays over 1..8."""
    instances = []
    for d in range(1, 9):
        instances.append(Sequential((d,)))
        instances.append(Join(d))
        instances.append(Split(d_left=d))
        instances.append(Split(d_right=d))
    for d1 in range(1, 9):
        for d2 in range(1, 9):
            instances.append(Sequential((d1, d2)))
            instances.append(Split(d_left=d1, d_right=d2))
    return instances


def iteration_instances() -> list:
    return [
        Iteration(d, placement) for d in range(2, 9) for placement in ("first", "second")
    ]


def random_instance(rng: random.Random):
    kind = rng.choice(["sequential", "iteration", "join", "split"])
    if kind == "sequential":
        return Sequential(tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3))))
    if kind == "iteration":
        return Iteration(rng.randint(1, 8), rng.choice(["first", "second"]))
    if kind == "join":
        return Join(rng.randint(1, 8))
    left = rng.choice([None, rng.randint(1, 8)])
    right = rng.randint(1, 8) if left is None else rng.choice([None, rng.randint(1, 8)])
    return Split(left, right)


def random_system(rng: random.Random) -> SnpSystem:
    """A structurally valid system with arbitrary guards, rules and wiring.

    Used for parser round-trips; nothing here needs to be deterministic to
    run, only well-formed.
    """
    ids = [rng.choice(["n", "m", "22-", "x_", "q'"]) + str(i) for i in range(rng.randint(1, 6))]
    neurons = []
    for nid in ids:
        rules = []
        for _ in range(rng.randint(0, 2)):
            terms = tuple(
                (rng.randint(0, 9), rng.randint(0, 5)) for _ in range(rng.randint(1, 3))
            )
            consume = rng.randint(1, 5)
            if rng.random() < 0.2:
                produce, delay = 0, 0
            else:
                produce = rng.randint(1, consume)
                delay = rng.randint(0, 4)
            rules.append(Rule(SpikeRegex(terms), consume, produce, delay))
        neurons.append(Neuron(nid, rng.randint(0, 3), tuple(rules)))
    pairs = [(a, b) for a in ids for b in ids if a != b]
    rng.shuffle(pairs)
    synapses = frozenset(pairs[: rng.randint(0, len(pairs))])
    return SnpSystem(tuple(neurons), synapses, rng.choice(ids), f"random-{rng.randint(0, 999)}")


@st.composite
def spike_regexes(draw) -> SpikeRegex:
    terms = draw(
        st.lists(st.tuples(st.integers(0, 8), st.integers(0, 6)), min_size=1, max_size=3)
    )
    return SpikeRegex(tuple(terms))


@st.composite
def simple_systems(draw) -> SnpSystem:
    """Valid systems with at most one rule per neuron, hence deterministic."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 5)))]
    neurons = []
    for nid in ids:
        spikes = draw(st.integers(0, 3))
        rules: tuple[Rule, ...] = ()
        if draw(st.booleans()):
            k = draw(st.integers(1, 3))
            kind = draw(st.sampled_from(["semi", "forget", "exact"]))
            if kind == "semi":
                rules = (Rule.semi_homogeneous(k, delay=draw(st.integers(0, 3))),)
            elif kind == "forget":
                rules = (Rule(SpikeRegex.multiples(1), k, 0, 0),)
            else:
                produce = draw(st.integers(1, k))
                rules = (Rule(SpikeRegex.exactly(k), k, produce, draw(st.integers(0, 2))),)
        neurons.append(Neuron(nid, spikes, rules))
    pairs = [(a, b) for a in ids for b in ids if a != b]
    if pairs:
        synapses = frozenset(draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))))
    else:
        synapses = frozenset()
    return SnpSystem(tuple(neurons), synapses, draw(st.sampled_from(ids)), "random")


@st.composite
def two_rule_systems(draw) -> SnpSystem:
    """Valid systems whose neurons carry up to two rules with arbitrary
    guards, so that ties (NondeterministicChoice) occur at random ticks."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 4)))]
    neurons = []
    for nid in ids:
        rules = []
        for _ in range(draw(st.integers(0, 2))):
            consume = draw(st.integers(1, 3))
            produce = draw(st.integers(0, consume))
            delay = draw(st.integers(0, 3)) if produce else 0
            rules.append(Rule(draw(spike_regexes()), consume, produce, delay))
        neurons.append(Neuron(nid, draw(st.integers(0, 4)), tuple(rules)))
    pairs = [(a, b) for a in ids for b in ids if a != b]
    synapses = frozenset()
    if pairs:
        synapses = frozenset(draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))))
    return SnpSystem(tuple(neurons), synapses, draw(st.sampled_from(ids)), "random")


@st.composite
def periodic_systems(draw) -> SnpSystem:
    """Valid systems whose guards have offsets 0-4 and periods 2-3 (or
    none), so that over a few hundred ticks counts grow, repeat modulo a
    period and cross the counts above which a neuron's behaviour depends on
    the period alone."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 5)))]
    neurons = []
    for nid in ids:
        rules = []
        for _ in range(draw(st.sampled_from((0, 1, 1, 1, 2)))):
            terms = draw(
                st.lists(
                    st.tuples(st.integers(0, 4), st.sampled_from((0, 2, 3))),
                    min_size=1,
                    max_size=2,
                )
            )
            consume = draw(st.integers(1, 3))
            produce = draw(st.integers(0, consume))
            delay = draw(st.integers(0, 3)) if produce else 0
            rules.append(Rule(SpikeRegex(tuple(terms)), consume, produce, delay))
        neurons.append(Neuron(nid, draw(st.integers(0, 5)), tuple(rules)))
    pairs = [(a, b) for a in ids for b in ids if a != b]
    synapses = frozenset()
    if pairs:
        synapses = frozenset(draw(st.sets(st.sampled_from(pairs), max_size=len(pairs))))
    return SnpSystem(tuple(neurons), synapses, draw(st.sampled_from(ids)), "random")


@st.composite
def fan_out_systems(draw) -> SnpSystem:
    """Valid systems of 2-8 neurons with one ``(a^k)+ / a^k -> a ; d`` rule
    each and 1-3 outgoing synapses, as ``snpkit sim``'s dense graphs in
    small: most runs never halt, many counts grow, and a recurrence comes
    after tens of ticks with a period of several."""
    ids = [f"n{i}" for i in range(draw(st.integers(2, 8)))]
    neurons = tuple(
        Neuron(
            nid,
            draw(st.integers(0, 2)),
            (Rule.semi_homogeneous(draw(st.integers(1, 2)), delay=draw(st.integers(0, 3))),),
        )
        for nid in ids
    )
    synapses = set()
    for a in ids:
        others = [b for b in ids if b != a]
        synapses.update((a, b) for b in draw(st.sets(st.sampled_from(others), min_size=1, max_size=3)))
    return SnpSystem(neurons, frozenset(synapses), draw(st.sampled_from(ids)), "random")


@st.composite
def recurring_systems(draw, events: bool = True) -> SnpSystem:
    """Valid systems whose runs mostly recur: a tail of 0-4 hops into a loop
    of 2-5 hops, each hop an ``a+ / a -> a`` rule with a delay of 0-2, and
    1-3 fan-out neurons fed from the tail and the loop.  A spike that
    enters the loop circulates forever; a fan-out neuron without a rule, or
    one fed faster than its ``(a^k)+ / a^k -> a`` rule spends, grows by the
    same amount each period, and one that feeds back into the loop can make
    the loop's counts grow too, or wander so that no check proves the run
    recurrent (``test_kernel.NO_PROOF``).  Every neuron has at most one
    rule, so no run ties, and the loop holds a spike from the start or once
    the tail's first spike reaches it, so no run halts.

    With ``events`` false, the first hop holds the only spike and no
    fan-out neuron feeds back, so a delayed hop never holds a second spike
    or meets a batch while closed: the run has no event."""
    tail = [f"t{i}" for i in range(draw(st.integers(0, 4)))]
    loop = [f"l{i}" for i in range(draw(st.integers(2, 5)))]
    fans = [f"f{i}" for i in range(draw(st.integers(1, 3)))]
    hops = tail + loop
    first, rest = (st.integers(1, 3), st.sampled_from((0, 0, 0, 1))) if events else (st.just(1), st.just(0))
    neurons = [
        Neuron(
            nid,
            draw(first if nid == hops[0] else rest),
            (Rule.semi_homogeneous(1, delay=draw(st.sampled_from((0, 0, 1, 2)))),),
        )
        for nid in hops
    ]
    synapses = set(zip(hops, hops[1:])) | {(loop[-1], loop[0])}
    for fan in fans:
        rules = draw(st.sampled_from(((), (Rule.semi_homogeneous(1),), (Rule.semi_homogeneous(2),))))
        neurons.append(Neuron(fan, 0, rules))
        synapses.update((nid, fan) for nid in draw(st.sets(st.sampled_from(hops), min_size=1, max_size=3)))
        if events and rules and draw(st.booleans()):
            synapses.add((fan, draw(st.sampled_from(loop))))
    return SnpSystem(tuple(neurons), frozenset(synapses), draw(st.sampled_from(hops)), "recurring")


def mostly_recurring(others: st.SearchStrategy[SnpSystem], events: bool = True) -> st.SearchStrategy[SnpSystem]:
    """``recurring_systems(events)`` in three draws of four and ``others``
    in the fourth, so that a property about recurrence proofs reaches one
    in more than half of its examples while the rest still halt or tie."""
    return st.sampled_from((True, True, True, False)).flatmap(
        lambda recurs: recurring_systems(events) if recurs else others
    )
