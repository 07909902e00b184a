"""Rewrite a delayed system into an equivalent delay-free one.

Every neuron owning a delayed rule is replaced by a small subnet that
reproduces the delay with plain rules:

* d-1 *multipliers* copy the incoming batch,
* one *drain* re-collects the copies and meters them out one firing per
  tick, which costs d-1 ticks,
* one *exit* waits for d-1 spikes and then emits a single spike.

End to end the subnet forwards a batch exactly d+1 ticks after receiving
it, matching the replaced neuron (one tick to fire, d ticks closed).  For
d = 1 the subnet degenerates to a drain/exit pair: one extra hop equals
one tick of delay.  Each replacement adds exactly d neurons net.

A neuron that both holds initial spikes and owns a delayed rule first has
its spikes moved to a fresh feeder neuron; the feeder goes into source and
target alike, so the two stay aligned (both shift by one tick).
"""

from __future__ import annotations

import heapq
import warnings
from dataclasses import dataclass, replace
from typing import Iterable

from .model import Neuron, Rule, SnpSystem, SpikeRegex, ValidationError, validate


class InvalidDelay(ValueError):
    """Asked to build a delay subnet for delay 0 (nothing to eliminate)."""


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
    """A delayed neuron may receive spikes while closed.

    The original loses such spikes; its replacement subnet keeps them, so
    the two systems can diverge.  The static check behind this warning is
    conservative; co-simulation is the arbiter.
    """


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


@dataclass(frozen=True)
class GadgetPlan:
    """Ids and parameters of one replacement subnet.

    ``j`` is the spike batch the replaced rule consumed per firing, ``d``
    its delay.  Entry points take over the replaced neuron's in-synapses;
    the exit takes over its out-synapses.
    """

    source_id: str
    j: int
    d: int
    multiplier_ids: tuple[str, ...]
    drain_id: str
    exit_id: str

    @property
    def entry_ids(self) -> tuple[str, ...]:
        return self.multiplier_ids if self.d >= 2 else (self.drain_id,)

    @property
    def all_ids(self) -> tuple[str, ...]:
        return self.multiplier_ids + (self.drain_id, self.exit_id)


@dataclass(frozen=True)
class Provenance:
    """Where a target neuron comes from: a verbatim copy (role None) or a
    named part of the subnet replacing ``source``."""

    source: str
    role: str | None = None  # None | "feeder" | "multiplier" | "drain" | "exit"
    index: int = 0  # 1-based position for multipliers

    @property
    def copied(self) -> bool:
        return self.role is None


@dataclass(frozen=True)
class TransformResult:
    normalized_source: SnpSystem
    target: SnpSystem
    provenance: dict[str, Provenance]
    feeders: tuple[str, ...]
    added_count: int
    hazards: tuple[str, ...] = ()

    @property
    def delays(self) -> list[int]:
        """Delays of the eliminated rules, in the normalized source's order;
        their sum is the neuron growth net of feeders (the count law)."""
        return [
            rule.delay
            for neuron in self.normalized_source.neurons
            for rule in neuron.rules
            if rule.delayed
        ]


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
    This shifts halting by one tick, identically on both sides of the
    rewrite.  Returns the adjusted system and the feeder ids added.
    """
    issues = validate(system)
    if issues:
        raise ValidationError(issues)
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
            body.append(replace(neuron, initial_spikes=0))
        else:
            body.append(neuron)
    if not feeders:
        return system, ()
    return (
        SnpSystem(tuple(feeders + body), frozenset(synapses), system.output, system.name),
        tuple(feeder_ids),
    )


def build_gadget(
    j: int, d: int, alloc: IdAllocator, source_id: str = "g"
) -> tuple[GadgetPlan, tuple[Neuron, ...], frozenset[tuple[str, str]]]:
    """Build the replacement subnet for a delayed rule (a^j)+ / a^j -> a ; d.

    For d >= 2: d-1 multipliers (a^j)+ / a^j -> a^j, a drain
    (a^j)+ / a^j -> a, and an exit (a^(d-1))+ / a^(d-1) -> a, wired
    multipliers -> drain -> exit.  For d = 1: just drain -> exit with the
    exit passing single spikes through.
    """
    if d == 0:
        raise InvalidDelay("delay 0 needs no gadget")
    if j < 1 or d < 0:
        raise ValueError("need j >= 1 and d >= 1")
    if d == 1:
        drain = Neuron(alloc.fresh(f"{source_id}-1"), 0, (Rule(SpikeRegex.multiples(j), j, 1),))
        exit_ = Neuron(alloc.fresh(f"{source_id}-exit"), 0, (Rule.semi_homogeneous(1),))
        plan = GadgetPlan(source_id, j, d, (), drain.id, exit_.id)
        return plan, (drain, exit_), frozenset({(drain.id, exit_.id)})
    multipliers = tuple(
        Neuron(alloc.fresh(f"{source_id}-{i}"), 0, (Rule(SpikeRegex.multiples(j), j, j),))
        for i in range(1, d)
    )
    drain = Neuron(alloc.fresh(f"{source_id}-{d}"), 0, (Rule(SpikeRegex.multiples(j), j, 1),))
    exit_ = Neuron(
        alloc.fresh(f"{source_id}-exit"), 0, (Rule(SpikeRegex.multiples(d - 1), d - 1, 1),)
    )
    plan = GadgetPlan(source_id, j, d, tuple(m.id for m in multipliers), drain.id, exit_.id)
    synapses = {(m.id, drain.id) for m in multipliers}
    synapses.add((drain.id, exit_.id))
    return plan, multipliers + (drain, exit_), frozenset(synapses)


def eliminate_delays(system: SnpSystem) -> TransformResult:
    """Replace every delayed neuron with its subnet; the target is delay-free.

    In-synapses of a replaced neuron are redirected to every entry point of
    its subnet, out-synapses leave from the exit, and the exit inherits
    output-neuron status.  Everything else is copied verbatim.  The net
    neuron growth is the sum of the eliminated delays plus one per feeder.

    Raises ValidationError on a malformed input and UnsupportedDelayedRule
    when a delayed rule is not of the shape (a^j)+ / a^j -> a.  Emits a
    BatchOverlapWarning when the conservative static check cannot rule out
    spikes arriving at a closed neuron (where source and target may part).
    """
    normalized, feeder_ids = normalize_initial(system)

    plans: dict[str, GadgetPlan] = {}
    parts: dict[str, tuple[Neuron, ...]] = {}
    internal: set[tuple[str, str]] = set()
    alloc = IdAllocator(n.id for n in normalized.neurons)
    target_neurons: list[Neuron] = []
    provenance: dict[str, Provenance] = {}

    feeds: dict[str, str] = {}
    for a, b in normalized.synapses:
        if a in feeder_ids:
            feeds[a] = b

    for neuron in normalized.neurons:
        rule = _delayed_rule(neuron)
        if rule is None:
            target_neurons.append(neuron)
            if neuron.id in feeds:
                provenance[neuron.id] = Provenance(feeds[neuron.id], "feeder")
            else:
                provenance[neuron.id] = Provenance(neuron.id)
            continue
        plan, gadget_neurons, gadget_synapses = build_gadget(
            rule.consume, rule.delay, alloc, neuron.id
        )
        plans[neuron.id] = plan
        parts[neuron.id] = gadget_neurons
        internal |= gadget_synapses
        target_neurons.extend(gadget_neurons)
        for i, m in enumerate(plan.multiplier_ids, start=1):
            provenance[m] = Provenance(neuron.id, "multiplier", i)
        provenance[plan.drain_id] = Provenance(neuron.id, "drain")
        provenance[plan.exit_id] = Provenance(neuron.id, "exit")

    synapses: set[tuple[str, str]] = set(internal)
    for a, b in normalized.synapses:
        sources = (plans[a].exit_id,) if a in plans else (a,)
        targets = plans[b].entry_ids if b in plans else (b,)
        for s in sources:
            for t in targets:
                synapses.add((s, t))

    output = plans[normalized.output].exit_id if normalized.output in plans else normalized.output
    target = SnpSystem(
        tuple(target_neurons), frozenset(synapses), output, f"{normalized.name}-delay-free"
    )

    hazards = tuple(batch_hazards(normalized))
    for message in hazards:
        warnings.warn(BatchOverlapWarning(message), stacklevel=2)

    return TransformResult(
        normalized_source=normalized,
        target=target,
        provenance=provenance,
        feeders=feeder_ids,
        added_count=len(target.neurons) - len(system.neurons),
        hazards=hazards,
    )


# --- static single-batch check ----------------------------------------------
#
# The rewrite is exact as long as each delayed neuron sees each spike batch
# while open.  That holds for single-wave routing (one initial spike, equal
# path lengths into joins) and for loops through the delayed neuron itself.
# The checks below flag the ways a batch can hit a closed window:
#
# * multi-spike sources that meter spikes out over several ticks,
# * arrival paths of different lengths (staggered batches),
# * repeating cycles that feed the neuron faster than it reopens,
# * waves merging on a loop neuron that is re-seeded from outside,
# * simultaneous arrivals piling up on a neuron that consumes fewer
#   spikes per firing than it received (it re-fires, staggering them).
#
# They are conservative; a flagged system may still agree, and
# co-simulation stays the arbiter either way.

_PATH_BUDGET = 20_000


def batch_hazards(system: SnpSystem) -> list[str]:
    """Conservative reasons why a delayed neuron might lose spikes."""
    n = len(system.neurons)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for a, b in system.synapses:
        ia, ib = system.index.get(a), system.index.get(b)
        if ia is not None and ib is not None:
            adjacency[ia].append(ib)
            predecessors[ib].append(ia)
    delays = [max((r.delay for r in neuron.rules), default=0) for neuron in system.neurons]
    spiked = [i for i, neuron in enumerate(system.neurons) if neuron.initial_spikes >= 1]
    delayed = [i for i in range(n) if delays[i] >= 1]
    if not delayed or not spiked:
        return []

    reachable = _reach(adjacency, spiked)
    delayed = [s for s in delayed if s in reachable]
    reach_of = {i: _reach(adjacency, [i]) for i in range(n)}
    hazards: list[str] = []

    for i in spiked:
        if system.neurons[i].initial_spikes >= 2 and any(s in reach_of[i] for s in delayed):
            hazards.append(
                f"neuron {system.ids[i]} holds several initial spikes upstream of a "
                "delayed neuron; they may be metered out as staggered batches"
            )

    # nodes that can emit spikes more than once: anything on or behind a
    # cycle, or behind a multi-spike holder
    scc_of = _cyclic_scc_ids(adjacency)
    repeat_roots = [i for i in range(n) if scc_of[i] is not None]
    repeat_roots += [i for i in spiked if system.neurons[i].initial_spikes >= 2]
    repeatable = set(repeat_roots) | _reach(adjacency, repeat_roots)

    for s in delayed:
        offsets, overflowed = _arrival_offsets(adjacency, delays, spiked, s)
        if overflowed:
            hazards.append(
                f"neuron {system.ids[s]}: too many distinct paths to analyse; "
                "cannot rule out staggered spike batches"
            )
            continue
        if len(offsets) > 1:
            hazards.append(
                f"neuron {system.ids[s]}: spike batches can arrive over paths of "
                f"different lengths ({sorted(offsets)}); late ones may find it closed"
            )

        cycle = _fastest_feeding_cycle(adjacency, delays, spiked, s)
        if cycle is not None and cycle < delays[s] + 1:
            hazards.append(
                f"neuron {system.ids[s]}: a feeding loop repeats every {cycle} ticks, "
                f"faster than its {delays[s]}-tick closed window"
            )

        # includes s itself: _reach counts its roots
        upstream = [u for u in range(n) if u in reachable and s in reach_of[u]]
        for u in upstream:
            if scc_of[u] is None:
                continue
            outside = [
                v for v in predecessors[u] if scc_of[v] != scc_of[u] and v in repeatable
            ]
            if outside:
                hazards.append(
                    f"neuron {system.ids[u]} sits on a loop upstream of "
                    f"{system.ids[s]} and is re-seeded from {system.ids[outside[0]]}; "
                    "merged waves may stagger"
                )

        for u in upstream:
            hops, _ = _arrival_offsets(adjacency, delays, spiked, u)
            simultaneous = 0
            for senders in hops.values():
                arriving = sum(
                    max((r.produce for r in system.neurons[p].rules), default=0)
                    for p in senders
                )
                simultaneous = max(simultaneous, arriving)
            least = min((r.consume for r in system.neurons[u].rules), default=None)
            if simultaneous >= 2 and least is not None and least < simultaneous:
                hazards.append(
                    f"neuron {system.ids[u]} can receive {simultaneous} spikes at once "
                    f"but consumes {least} per firing; the surplus re-fires it and "
                    f"staggers batches toward {system.ids[s]}"
                )
    return _dedupe(hazards)


def _dedupe(items: list[str]) -> list[str]:
    seen: set[str] = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


def _reach(adjacency: list[list[int]], roots: list[int]) -> set[int]:
    seen = set(roots)
    stack = list(roots)
    while stack:
        for t in adjacency[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _arrival_offsets(
    adjacency: list[list[int]], delays: list[int], spiked: list[int], goal: int
) -> tuple[dict[int, set[int]], bool]:
    """For each simple-path cost from a spiked neuron to ``goal``, the set of
    last-hop neurons delivering at that cost.

    Each hop out of a neuron costs one tick plus that neuron's delay.  A
    neuron fires at most once per tick, so distinct last hops sharing a cost
    measure how many deliveries can coincide.
    """
    offsets: dict[int, set[int]] = {}
    explored = 0
    for root in spiked:
        stack: list[tuple[int, int, frozenset[int]]] = [(root, 0, frozenset({root}))]
        while stack:
            node, cost, visited = stack.pop()
            explored += 1
            if explored > _PATH_BUDGET:
                return offsets, True
            for t in adjacency[node]:
                c = cost + 1 + delays[node]
                if t == goal:
                    offsets.setdefault(c, set()).add(node)
                elif t not in visited:
                    stack.append((t, c, visited | {t}))
    return offsets, False


def _cyclic_scc_ids(adjacency: list[list[int]]) -> list[int | None]:
    """Strongly-connected-component id per node, only for components that
    contain a cycle (size >= 2; self-loops cannot occur)."""
    n = len(adjacency)
    order: list[int] = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        seen[root] = True
        while stack:
            node, pointer = stack[-1]
            if pointer < len(adjacency[node]):
                stack[-1] = (node, pointer + 1)
                nxt = adjacency[node][pointer]
                if not seen[nxt]:
                    seen[nxt] = True
                    stack.append((nxt, 0))
            else:
                order.append(node)
                stack.pop()
    reverse: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        for b in adjacency[a]:
            reverse[b].append(a)
    ids: list[int | None] = [None] * n
    current = 0
    assigned = [False] * n
    for node in reversed(order):
        if assigned[node]:
            continue
        component = []
        stack2 = [node]
        assigned[node] = True
        while stack2:
            u = stack2.pop()
            component.append(u)
            for v in reverse[u]:
                if not assigned[v]:
                    assigned[v] = True
                    stack2.append(v)
        if len(component) >= 2:
            for u in component:
                ids[u] = current
        current += 1
    return ids


def _fastest_feeding_cycle(
    adjacency: list[list[int]], delays: list[int], spiked: list[int], goal: int
) -> int | None:
    """Weight of the lightest cycle avoiding ``goal`` that is live (reachable
    from a spiked neuron) and feeds ``goal``.  Cycles through ``goal`` itself
    are inherently slower than its closed window and are ignored."""
    n = len(adjacency)
    live = _reach(adjacency, spiked)
    feeds_goal = {
        i for i in range(n) if i != goal and goal in _reach(adjacency, [i])
    }
    candidates = [i for i in feeds_goal if i in live]
    best: int | None = None
    for start in candidates:
        # any cycle through start feeds the goal, since start does
        dist = _dijkstra_back(adjacency, delays, start, forbidden=goal)
        for u in range(n):
            if dist[u] is None or u == goal or start not in adjacency[u]:
                continue
            weight = dist[u] + 1 + delays[u]
            if best is None or weight < best:
                best = weight
    return best


def _dijkstra_back(
    adjacency: list[list[int]], delays: list[int], start: int, forbidden: int
) -> list[int | None]:
    n = len(adjacency)
    dist: list[int | None] = [None] * n
    queue: list[tuple[int, int]] = [(0, start)]
    while queue:
        d, node = heapq.heappop(queue)
        if dist[node] is not None:
            continue
        dist[node] = d
        for t in adjacency[node]:
            if t != forbidden and dist[t] is None:
                heapq.heappush(queue, (d + 1 + delays[node], t))
    return dist
