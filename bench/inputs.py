"""Seeded inputs for the benchmark workloads, and a reference interpreter.

Systems are kept as plain data (``Spec``) so that the inputs, their text
and the facts checked against the program's answers do not depend on the
program's own data model or serializer.  ``snpkit.routing`` builds the
routing constructs; everything it returns is converted to a ``Spec`` at
once.

Every generator takes a ``random.Random`` and makes the same systems for
the same seed.  Sizes are fixed per workload and only the structure is
drawn, so that the amount of work differs little from seed to seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# A rule is (guard terms, consume, produce, delay); a guard term (o, p)
# admits the counts o + n*p for n >= 0, and p == 0 admits o alone.
Rule = tuple[tuple[tuple[int, int], ...], int, int, int]
FORWARD: Rule = (((1, 1),), 1, 1, 0)


def forward(delay: int = 0) -> Rule:
    """a+ / a -> a ; delay"""
    return (((1, 1),), 1, 1, delay)


@dataclass
class Spec:
    name: str
    neurons: list[tuple[str, int, list[Rule]]]  # (id, initial spikes, rules)
    synapses: list[tuple[str, str]]
    output: str
    facts: dict = field(default_factory=dict)  # what the generator knows about it


def from_snpkit(system) -> Spec:
    """Convert an ``snpkit.SnpSystem`` built by ``snpkit.routing``."""
    neurons = [
        (
            n.id,
            n.initial_spikes,
            [(tuple(r.guard.terms), r.consume, r.produce, r.delay) for r in n.rules],
        )
        for n in system.neurons
    ]
    return Spec(system.name, neurons, sorted(system.synapses), system.output)


# --- text ----------------------------------------------------------------------


def _guard_text(terms) -> str:
    pieces = []
    for offset, period in terms:
        if period == 0:
            pieces.append("a" if offset == 1 else f"a^{offset}")
        elif offset == period == 1:
            pieces.append("a+")
        elif offset == period:
            pieces.append(f"(a^{period})+")
        else:
            pieces.append(f"a^{offset}(a^{period})*")
    return " | ".join(pieces)


def _count_text(n: int) -> str:
    return "a" if n == 1 else f"a^{n}"


def rule_text(rule: Rule) -> str:
    terms, consume, produce, delay = rule
    produced = "0" if produce == 0 else _count_text(produce)
    text = f"{_guard_text(terms)} / {_count_text(consume)} -> {produced}"
    return text + (f" ; {delay}" if delay else "")


def to_text(spec: Spec) -> str:
    lines = [f"system {spec.name}"]
    for nid, spikes, rules in spec.neurons:
        lines.append(f"neuron {nid}" + (f" spikes={spikes}" if spikes else ""))
        lines.extend(f"rule {nid}: {rule_text(r)}" for r in rules)
    lines.extend(f"syn {a} -> {b}" for a, b in spec.synapses)
    lines.append(f"out {spec.output}")
    return "\n".join(lines) + "\n"


# --- generators ----------------------------------------------------------------


def chain(snpkit, rng: random.Random, hops: int, name: str) -> Spec:
    """A ``Sequential`` chain whose delays are a shuffled, balanced draw of
    1..8, so the delay sum, tick count and target size are fixed by
    ``hops`` and only the order of the delays depends on the seed."""
    delays = [1 + i % 8 for i in range(hops)]
    rng.shuffle(delays)
    spec = from_snpkit(snpkit.routing.generate(snpkit.routing.Sequential(tuple(delays))))
    spec.name = name
    spec.facts = {"delays": delays, "halt": sum(d + 1 for d in delays) + 1}
    return spec


def routing_instance(snpkit, rng: random.Random):
    """One random routing construct with delays 1..8."""
    routing = snpkit.routing
    kind = rng.choice(["sequential", "iteration", "join", "split"])
    if kind == "sequential":
        return routing.Sequential(tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3))))
    if kind == "iteration":
        return routing.Iteration(rng.randint(1, 8), rng.choice(["first", "second"]))
    if kind == "join":
        return routing.Join(rng.randint(1, 8))
    left = rng.choice([None, rng.randint(1, 8)])
    right = rng.randint(1, 8) if left is None else rng.choice([None, rng.randint(1, 8)])
    return routing.Split(left, right)


def composition(snpkit, rng: random.Random, name: str) -> Spec:
    """2-4 random constructs chained by ``snpkit.routing.compose``."""
    parts = [routing_instance(snpkit, rng) for _ in range(rng.randint(2, 4))]
    return from_snpkit(snpkit.routing.compose(parts, name=name))


def random_graph(rng: random.Random, name: str) -> Spec:
    """2-6 neurons with one a+ / a -> a ; d rule each (d in 0..3), each
    ordered pair wired with probability 0.35, one seed spike."""
    n = rng.randint(2, 6)
    seed = rng.randrange(n)
    neurons = [(f"n{k}", int(k == seed), [forward(rng.randint(0, 3))]) for k in range(n)]
    synapses = [
        (f"n{a}", f"n{b}") for a in range(n) for b in range(n) if a != b and rng.random() < 0.35
    ]
    return Spec(name, neurons, synapses, f"n{rng.randrange(n)}")


def dense_graph(rng: random.Random, n: int, name: str) -> Spec:
    """``n`` neurons with one a+ / a -> a ; d rule each (d in 0..3), out-degree
    2-3 to distinct random neurons, three seed spikes.  Spikes multiply
    along the fan-out, so most neurons stay active for the whole run."""
    seeds = set(rng.sample(range(n), 3))
    neurons = [(f"n{k}", int(k in seeds), [forward(rng.randint(0, 3))]) for k in range(n)]
    synapses = []
    for a in range(n):
        others = [b for b in range(n) if b != a]
        synapses.extend((f"n{a}", f"n{b}") for b in sorted(rng.sample(others, rng.randint(2, 3))))
    return Spec(name, neurons, synapses, f"n{rng.randrange(n)}")


# Inputs the CLI must reject, with the exit code its documentation gives:
# 2 for input errors, 3 for a nondeterministic system.
BAD_KINDS = {"parse-error": 2, "dangling-synapse": 2, "unsupported-rule": 2, "nondeterministic": 3}


def bad_input(rng: random.Random, kind: str, name: str) -> str:
    """Text of a small system that is wrong in the way ``kind`` names."""
    d = rng.randint(1, 4)
    spec = Spec(
        name,
        [("n0", 1, [FORWARD]), ("n1", 0, [forward(d)]), ("n2", 0, [FORWARD])],
        [("n0", "n1"), ("n1", "n2")],
        "n2",
    )
    if kind == "dangling-synapse":
        spec.synapses.append((rng.choice(["n0", "n1", "n2"]), "ghost"))
    elif kind == "unsupported-rule":
        spec.neurons[1] = (
            "n1",
            0,
            rng.choice(
                [
                    [(((1, 0),), 1, 1, d)],  # a / a -> a ; d
                    [(((2, 2),), 2, 2, d)],  # (a^2)+ / a^2 -> a^2 ; d
                    [forward(d), (((2, 0),), 2, 1, 0)],  # a second rule
                ]
            ),
        )
    elif kind == "nondeterministic":
        spec.neurons[0] = ("n0", 1, [FORWARD, (((1, 0),), 1, 1, 0)])
    text = to_text(spec)
    if kind == "parse-error":
        lines = text.splitlines()
        at = rng.randrange(1, len(lines))
        lines[at] = rng.choice(["neuron", "rule n0: a+ / a => a", "syn n0 ->", "spike n0"])
        text = "\n".join(lines) + "\n"
    return text


# --- reference interpreter ---------------------------------------------------------


class ReferenceNondeterminism(Exception):
    pass


def _matches(terms, k: int) -> bool:
    return any(k == o if p == 0 else k >= o and (k - o) % p == 0 for o, p in terms)


def with_feeders(spec: Spec) -> Spec:
    """Move the initial spikes of every delayed neuron onto a feeder neuron
    (a+ / a -> a) wired into it, as the documented rewrite does to the
    source before comparing it with the target."""
    ids = {nid for nid, _, _ in spec.neurons}
    feeders, body, synapses = [], [], list(spec.synapses)
    for nid, spikes, rules in spec.neurons:
        if spikes and any(r[3] >= 1 for r in rules):
            fid, n = f"{nid}-in", 2
            while fid in ids:
                fid, n = f"{nid}-in_{n}", n + 1
            ids.add(fid)
            feeders.append((fid, spikes, [FORWARD]))
            synapses.append((fid, nid))
            body.append((nid, 0, rules))
        else:
            body.append((nid, spikes, rules))
    return Spec(spec.name, feeders + body, synapses, spec.output)


def reference_run(spec: Spec, max_steps: int):
    """Yield ``(tick, spikes, closed, pending, environment, halted)`` for every
    configuration from tick 0 until the first halting configuration or
    ``max_steps`` ticks, by the semantics the README states: closed neurons
    count down and release their parked batch on reopening; open neurons
    with an enabled rule fire on their start-of-tick count; batches reach
    every open successor and are lost at closed ones."""
    index = {nid: i for i, (nid, _, _) in enumerate(spec.neurons)}
    rules = [r for _, _, r in spec.neurons]
    successors: list[list[int]] = [[] for _ in spec.neurons]
    for a, b in spec.synapses:
        successors[index[a]].append(index[b])
    out = index[spec.output]
    n = len(spec.neurons)
    spikes = [s for _, s, _ in spec.neurons]
    closed = [0] * n
    pending: list[int | None] = [None] * n
    environment = 0
    tick = 0
    while True:
        firing = []
        for i in range(n):
            if closed[i]:
                continue
            enabled = [r for r in rules[i] if spikes[i] >= r[1] and _matches(r[0], spikes[i])]
            if len(enabled) > 1:
                raise ReferenceNondeterminism(spec.neurons[i][0])
            if enabled:
                firing.append((i, enabled[0]))
        halted = not firing and not any(closed)
        yield tick, spikes, closed, pending, environment, halted
        if halted or tick >= max_steps:
            return
        pool = []
        for i in range(n):
            if closed[i]:
                closed[i] -= 1
                if closed[i] == 0:
                    pool.append((i, pending[i]))
                    pending[i] = None
        for i, (_, consume, produce, delay) in firing:
            spikes[i] -= consume
            if delay == 0:
                if produce:
                    pool.append((i, produce))
            else:
                closed[i], pending[i] = delay, produce
        for origin, batch in pool:
            for t in successors[origin]:
                if not closed[t]:
                    spikes[t] += batch
            if origin == out:
                environment += batch
        tick += 1


def reference_outcome(spec: Spec, bound: int) -> tuple[int, int] | None:
    """(halting tick, environment) of the feeder-normalised system, or None
    when it does not halt within ``bound`` ticks."""
    for tick, _, _, _, environment, halted in reference_run(with_feeders(spec), bound):
        if halted:
            return tick, environment
    return None
