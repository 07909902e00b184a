"""Data model for spiking neural P systems: guards, rules, neurons, graphs.

The records are plain classes, cheap to create when snpkit is imported.
``Rule`` and ``SpikeRegex`` are slot classes: the kernel reads their fields
per neuron per tick, and CPython specialises attribute reads on slots but
not on a tuple's fields.  Every other record is a ``NamedTuple``: immutable,
equal and hashed by value, iterable, and equal to a plain tuple of the same
values.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple


class Frozen:
    """Refuses every assignment and deletion; a base of the records whose
    instances have more than a tuple's fields (slots, or a cache dict)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SlotRecord(Frozen):
    """Value semantics over ``__slots__``, in the slot order: equality with
    the same class only, hashing, a ``Name(field=value, ...)`` repr and
    pickling through the constructor."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


# ``_make``, and so ``_replace``, of a NamedTuple whose subclass validates in
# ``__new__``: the NamedTuple's own builds the tuple without calling it
validated_make = classmethod(lambda cls, values: cls(*values))


class SpikeRegex(SlotRecord):
    """A spike-count guard: a finite union of arithmetic progressions.

    Each term ``(offset, period)`` denotes the counts ``offset + n * period``
    for n >= 0; a period of 0 denotes the single count ``offset``.  Over a
    one-letter alphabet the regular languages are exactly such unions, so
    every guard the rule grammar can express (``a^c``, ``a+``, ``(a^k)+``,
    ``a^j(a^k)*`` and unions of those) is representable.

    Terms are canonicalised on construction: sorted, duplicates removed.
    """

    __slots__ = __match_args__ = ("terms",)
    terms: tuple[tuple[int, int], ...]

    def __init__(self, terms: tuple[tuple[int, int], ...]):
        canon = sorted({(int(o), int(p)) for o, p in terms})
        if not canon:
            raise ValueError("a spike guard needs at least one term")
        for o, p in canon:
            if o < 0 or p < 0:
                raise ValueError(f"negative term ({o}, {p}) in spike guard")
        object.__setattr__(self, "terms", tuple(canon))

    @classmethod
    def exactly(cls, n: int) -> "SpikeRegex":
        """The single count n, i.e. a^n."""
        return cls(((n, 0),))

    @classmethod
    def multiples(cls, k: int) -> "SpikeRegex":
        """Every positive multiple of k, i.e. (a^k)+.  multiples(1) is a+."""
        return cls(((k, k),))

    def matches(self, k: int) -> bool:
        """Whether a count of k spikes belongs to the guard's language."""
        for offset, period in self.terms:
            if period == 0:
                if k == offset:
                    return True
            elif k >= offset and (k - offset) % period == 0:
                return True
        return False


class Rule(SlotRecord):
    """A firing rule (a slot class, like its guard: the kernel reads both per
    check).

    When the neuron's spike count matches ``guard`` and is at least
    ``consume``, the rule may fire: ``consume`` spikes are removed and
    ``produce`` spikes are emitted ``delay`` ticks later (immediately for
    delay 0).  While waiting, the neuron is closed.  ``produce`` 0 is a
    forgetting rule: it eats spikes, emits nothing, and is never delayed.
    """

    __slots__ = __match_args__ = ("guard", "consume", "produce", "delay")
    guard: SpikeRegex
    consume: int
    produce: int
    delay: int

    def __init__(self, guard: SpikeRegex, consume: int, produce: int = 1, delay: int = 0):
        set_field = object.__setattr__
        set_field(self, "guard", guard)
        set_field(self, "consume", consume)
        set_field(self, "produce", produce)
        set_field(self, "delay", delay)

    @classmethod
    def semi_homogeneous(cls, k: int = 1, delay: int = 0) -> "Rule":
        """(a^k)+ / a^k -> a with an optional delay."""
        return cls(SpikeRegex.multiples(k), k, 1, delay)

    @property
    def delayed(self) -> bool:
        return self.delay >= 1


class Neuron(NamedTuple):
    id: str
    initial_spikes: int = 0
    rules: tuple[Rule, ...] = ()


class _SnpSystem(NamedTuple):
    neurons: tuple[Neuron, ...]
    synapses: frozenset[tuple[str, str]]
    output: str
    name: str = "system"


class SnpSystem(Frozen, _SnpSystem):
    """Immutable neuron graph with a designated output neuron.

    Synapses are ordered pairs of neuron ids; self-loops are not allowed.
    Spikes emitted by the output neuron also reach the environment, the
    external sink whose count is the result of a halted run.  Instances are
    safe to share across threads; all simulation state lives elsewhere.

    Without ``__slots__``, so that the cached properties below have an
    instance dict to live in.
    """

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.neurons)

    @cached_property
    def index(self) -> dict[str, int]:
        """Neuron id -> position in declaration order."""
        return {n.id: i for i, n in enumerate(self.neurons)}

    @cached_property
    def successors(self) -> tuple[tuple[int, ...], ...]:
        """Outgoing synapse targets per neuron, as position indices."""
        out: list[list[int]] = [[] for _ in self.neurons]
        for a, b in sorted(self.synapses):
            ia, ib = self.index.get(a), self.index.get(b)
            if ia is not None and ib is not None:
                out[ia].append(ib)
        return tuple(tuple(t) for t in out)

    @cached_property
    def delays(self) -> tuple[int, ...]:
        """The delay of each delayed rule, in declaration order; empty when
        the system has no delayed rule."""
        return tuple(rule.delay for neuron in self.neurons for rule in neuron.rules if rule.delayed)

    @cached_property
    def issues(self) -> tuple[str, ...]:
        """Structural problems as messages, found on first use; see
        ``validate``."""
        return _issues(self)

    def neuron(self, neuron_id: str) -> Neuron:
        return self.neurons[self.index[neuron_id]]


# --- structural validation -------------------------------------------------
#
# Constructors above are deliberately permissive: ``validate`` reports every
# structural problem as a message so callers can show them all at once.


class ValidationError(Exception):
    """Raised by entry points that require a structurally clean system."""

    def __init__(self, issues: list[str]):
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


def validate(system: SnpSystem) -> list[str]:
    """Report structural issues as messages; an empty list means well-formed.

    Checks neuron id uniqueness, spike counts, rule shape (consume >= 1,
    produce <= consume for emitting rules, no delayed forgetting rules),
    synapse endpoints, self-loops and the output id.
    """
    return list(system.issues)


def check(system: SnpSystem) -> SnpSystem:
    """The system itself, or ValidationError naming all its issues."""
    issues = validate(system)
    if issues:
        raise ValidationError(issues)
    return system


def _issues(system: SnpSystem) -> tuple[str, ...]:
    issues: list[str] = []
    seen: set[str] = set()
    for neuron in system.neurons:
        if neuron.id in seen:
            issues.append(f"neuron id {neuron.id} declared more than once")
        seen.add(neuron.id)
        if neuron.initial_spikes < 0:
            issues.append(f"neuron {neuron.id} has a negative initial spike count")
        for i, rule in enumerate(neuron.rules):
            if rule.consume < 1:
                issues.append(f"rule {i} of neuron {neuron.id}: must consume at least one spike")
            if rule.produce < 0:
                issues.append(f"rule {i} of neuron {neuron.id}: negative production")
            if rule.produce > 0 and rule.consume < rule.produce:
                issues.append(
                    f"rule {i} of neuron {neuron.id}: cannot produce more spikes than it consumes"
                )
            if rule.produce == 0 and rule.delay != 0:
                issues.append(f"rule {i} of neuron {neuron.id}: forgetting rules cannot be delayed")
            if rule.delay < 0:
                issues.append(f"rule {i} of neuron {neuron.id}: negative delay")
    # only the bad synapses are sorted, for a stable message order
    bad = [(a, b) for a, b in system.synapses if a == b or a not in seen or b not in seen]
    for a, b in sorted(bad):
        if a == b:
            issues.append(f"self-loop on neuron {a}")
        for end in (a, b):
            if end not in seen:
                issues.append(f"synapse {a} -> {b} names unknown neuron {end}")
    if system.output not in seen:
        issues.append(f"output neuron {system.output!r} does not exist")
    return tuple(issues)
