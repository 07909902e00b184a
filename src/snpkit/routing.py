"""Builders for the four basic spike-routing shapes.

Each builder returns the delayed system in its textbook form: a single
spike (or one per join input) travels from the initial neuron(s) to the
output neuron and on to the environment.  ``compose`` chains constructs
in sequence for larger test subjects.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .model import Neuron, Rule, SnpSystem, SpikeRegex, validated_make


class Sequential(NamedTuple("Sequential", [("delays", tuple[int, ...])])):
    """A chain: one forwarding neuron, then one delayed hop per entry."""

    __slots__ = ()
    _make = validated_make

    def __new__(cls, delays: Iterable[int]):
        delays = tuple(delays)
        if not delays or any(d < 1 for d in delays):
            raise ValueError("sequential routing needs at least one delay >= 1")
        return super().__new__(cls, delays)


class Iteration(NamedTuple("Iteration", [("d", int), ("delay_on", str)])):
    """Two neurons in a loop; the delay sits on the first or second one."""

    __slots__ = ()
    _make = validated_make

    def __new__(cls, d: int, delay_on: str = "second"):
        if d < 1:
            raise ValueError("iteration delay must be >= 1")
        if delay_on not in ("first", "second"):
            raise ValueError("delay_on must be 'first' or 'second'")
        return super().__new__(cls, d, delay_on)


class Join(NamedTuple("Join", [("d", int)])):
    """Two spike holders converging on a delayed collector."""

    __slots__ = ()
    _make = validated_make

    def __new__(cls, d: int):
        if d < 1:
            raise ValueError("join delay must be >= 1")
        return super().__new__(cls, d)


class Split(NamedTuple("Split", [("d_left", int | None), ("d_right", int | None)])):
    """One spike fanned out over two branches that re-merge at the output."""

    __slots__ = ()
    _make = validated_make

    def __new__(cls, d_left: int | None = None, d_right: int | None = None):
        if d_left is None and d_right is None:
            raise ValueError("split routing needs a delay on at least one branch")
        for d in (d_left, d_right):
            if d is not None and d < 1:
                raise ValueError("split delays must be >= 1")
        return super().__new__(cls, d_left, d_right)


RoutingInstance = Sequential | Iteration | Join | Split

_forward = Rule.semi_homogeneous


def generate(instance: RoutingInstance) -> SnpSystem:
    """Build the delayed system for a routing instance."""
    if isinstance(instance, Sequential):
        neurons = [Neuron("11", 1, (_forward(),))]
        synapses = set()
        for i, d in enumerate(instance.delays):
            neurons.append(Neuron(str(12 + i), 0, (_forward(delay=d),)))
            synapses.add((neurons[-2].id, neurons[-1].id))
        name = "sequential-" + "-".join(f"d{d}" for d in instance.delays)
        return SnpSystem(tuple(neurons), frozenset(synapses), neurons[-1].id, name)

    if isinstance(instance, Iteration):
        first_delay = instance.d if instance.delay_on == "first" else 0
        second_delay = instance.d if instance.delay_on == "second" else 0
        neurons = (
            Neuron("11", 1, (_forward(delay=first_delay),)),
            Neuron("12", 0, (_forward(delay=second_delay),)),
        )
        name = f"iteration-d{instance.d}-{instance.delay_on}"
        return SnpSystem(neurons, frozenset({("11", "12"), ("12", "11")}), "12", name)

    if isinstance(instance, Join):
        collector = Rule(SpikeRegex.multiples(2), 2, 1, instance.d)
        neurons = (
            Neuron("11", 1, (_forward(),)),
            Neuron("12", 1, (_forward(),)),
            Neuron("13", 0, (collector,)),
        )
        synapses = frozenset({("11", "13"), ("12", "13")})
        return SnpSystem(neurons, synapses, "13", f"join-d{instance.d}")

    if isinstance(instance, Split):
        left = instance.d_left or 0
        right = instance.d_right or 0
        neurons = (
            Neuron("3", 1, (_forward(),)),
            Neuron("4", 0, (_forward(delay=left),)),
            Neuron("5", 0, (_forward(delay=right),)),
            Neuron("o", 0, (_forward(),)),
        )
        synapses = frozenset({("3", "4"), ("3", "5"), ("4", "o"), ("5", "o")})
        tags = [f"l{left}" if left else "l-", f"r{right}" if right else "r-"]
        return SnpSystem(neurons, synapses, "o", "split-" + "-".join(tags))

    raise TypeError(f"not a routing instance: {instance!r}")


def compose(instances: list[RoutingInstance], name: str = "composite") -> SnpSystem:
    """Chain constructs: the output neuron of each feeds the spike-holding
    neurons of the next, and only the first construct keeps its spikes."""
    if not instances:
        raise ValueError("nothing to compose")
    neurons: list[Neuron] = []
    synapses: set[tuple[str, str]] = set()
    previous_output: str | None = None
    output = ""
    for i, instance in enumerate(instances, start=1):
        part = generate(instance)
        prefix = f"c{i}-"
        entries = [prefix + n.id for n in part.neurons if n.initial_spikes >= 1]
        for neuron in part.neurons:
            spikes = neuron.initial_spikes if i == 1 else 0
            neurons.append(neuron._replace(id=prefix + neuron.id, initial_spikes=spikes))
        synapses |= {(prefix + a, prefix + b) for a, b in part.synapses}
        if previous_output is not None:
            synapses |= {(previous_output, entry) for entry in entries}
        previous_output = prefix + part.output
        output = previous_output
    return SnpSystem(tuple(neurons), frozenset(synapses), output, name)
