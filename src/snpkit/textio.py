"""Text format for systems, trace rendering, and DOT export.

The system format is line oriented; ``#`` starts a comment::

    system relay
    neuron 1 spikes=1
    rule 1: a+ / a -> a
    neuron 2
    rule 2: a+ / a -> a ; 2
    neuron 3
    rule 3: a+ / a -> a
    syn 1 -> 2
    syn 2 -> 3
    out 3

Guards are ``a``, ``a^4``, ``a+``, ``(a^2)+``, ``a^3(a^2)*`` or unions of
those joined with ``|``.  A rule consumes ``a^c`` (plain ``a`` for one
spike) and produces ``a^b``, ``a``, or ``0`` for a forgetting rule, with
an optional ``; d`` delay.  Counts are ASCII digits.  Neurons must be
declared before their rules; exactly one ``out`` line is required.
Serialisation is canonical, so parse(serialize(s)) reproduces s exactly.
"""

from __future__ import annotations

import functools
import json
import re
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .model import Neuron, Rule, SnpSystem, SpikeRegex, check
from .semantics import GrownCounts, Trace


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


_ID = r"[A-Za-z0-9_'.\-]+"
_NUM = r"[0-9]+"  # counts are ASCII digits; \d and int() take more
_NEURON_RE = re.compile(rf"^neuron\s+(?P<id>{_ID})(?:\s+spikes\s*=\s*(?P<spikes>{_NUM}))?$")
_RULE_RE = re.compile(rf"^rule\s+(?P<id>{_ID})\s*:\s*(?P<body>.+)$")
_SYN_RE = re.compile(rf"^syn\s+(?P<a>{_ID})\s*->\s*(?P<b>{_ID})$")
_OUT_RE = re.compile(rf"^out\s+(?P<id>{_ID})$")
_SYSTEM_RE = re.compile(r"^system\s+(?P<name>\S+)$")
_ID_RE = re.compile(_ID)
_NAME_RE = re.compile(r"[^\s#]+")  # a name survives comment stripping

_NUM_RE = re.compile(_NUM)
_ATOM_EXACT = re.compile(rf"^a(?:\^({_NUM}))?$")
_ATOM_PLUS = re.compile(r"^a\+$")
_ATOM_MULTIPLES = re.compile(rf"^\(a\^({_NUM})\)\+$")
_ATOM_PROGRESSION = re.compile(rf"^a(?:\^({_NUM}))?\(a\^({_NUM})\)\*$")


def _count(text: str | None, what: str, default: int = 1) -> int:
    """A spike count, exponent or delay: ASCII digits, or ``default`` when
    absent."""
    if text is None:
        return default
    if not _NUM_RE.fullmatch(text):
        raise ValueError(f"cannot parse {what} {text!r}")
    return int(text)


def parse_guard(text: str) -> SpikeRegex:
    """Parse a guard expression; unions are joined with ``|``."""
    terms: list[tuple[int, int]] = []
    for raw in text.split("|"):
        atom = raw.strip().replace(" ", "")
        if m := _ATOM_PLUS.match(atom):
            terms.append((1, 1))
        elif m := _ATOM_MULTIPLES.match(atom):
            k = _count(m[1], "exponent")
            terms.append((k, k))
        elif m := _ATOM_PROGRESSION.match(atom):
            terms.append((_count(m[1], "exponent"), _count(m[2], "exponent")))
        elif m := _ATOM_EXACT.match(atom):
            terms.append((_count(m[1], "exponent"), 0))
        else:
            raise ValueError(f"cannot parse guard piece {raw.strip()!r}")
    return SpikeRegex(tuple(terms))


def render_guard(regex: SpikeRegex) -> str:
    pieces = []
    for offset, period in regex.terms:
        if period == 0:
            pieces.append(f"a^{offset}")
        elif offset == 1 and period == 1:
            pieces.append("a+")
        elif offset == period:
            pieces.append(f"(a^{period})+")
        else:
            pieces.append(f"a^{offset}(a^{period})*")
    return "|".join(pieces)


def _parse_count(text: str, what: str) -> int:
    m = _ATOM_EXACT.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse {what} {text.strip()!r}")
    return _count(m[1], what)


def parse_rule_body(text: str) -> Rule:
    """Parse ``<guard> / <consume> -> <produce> [; <delay>]``."""
    if "/" not in text:
        raise ValueError("rule needs a '/' between guard and consumption")
    guard_text, rest = text.split("/", 1)
    delay = 0
    if ";" in rest:
        rest, delay_text = rest.rsplit(";", 1)
        delay = _count(delay_text.strip(), "delay")
    if "->" not in rest:
        raise ValueError("rule needs '->' between consumption and production")
    consume_text, produce_text = rest.split("->", 1)
    guard = parse_guard(guard_text)
    consume = _parse_count(consume_text, "consumption")
    produce_text = produce_text.strip()
    produce = 0 if produce_text == "0" else _parse_count(produce_text, "production")
    return Rule(guard, consume, produce, delay)


def render_rule(rule: Rule) -> str:
    consume = "a" if rule.consume == 1 else f"a^{rule.consume}"
    if rule.produce == 0:
        produce = "0"
    elif rule.produce == 1:
        produce = "a"
    else:
        produce = f"a^{rule.produce}"
    text = f"{render_guard(rule.guard)} / {consume} -> {produce}"
    if rule.delay:
        text += f" ; {rule.delay}"
    return text


# --- documents ---------------------------------------------------------------


def parse_system(text: str) -> SnpSystem:
    """Parse and validate; raises ParseError or ValidationError."""
    name = "system"
    named = False
    neurons: dict[str, tuple[int, list[Rule]]] = {}
    synapses: set[tuple[str, str]] = set()
    parsed: dict[str, Rule] = {}  # one Rule per distinct body text
    output = None
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if m := _SYSTEM_RE.match(line):
                if named:
                    raise ValueError("duplicate system declaration")
                name, named = m["name"], True
            elif m := _NEURON_RE.match(line):
                nid = m["id"]
                if nid in neurons:
                    raise ValueError(f"neuron {nid} declared twice")
                neurons[nid] = (_count(m["spikes"], "spike count", 0), [])
            elif m := _RULE_RE.match(line):
                nid = m["id"]
                if nid not in neurons:
                    raise ValueError(f"rule for undeclared neuron {nid}")
                body = m["body"]
                if (rule := parsed.get(body)) is None:
                    rule = parsed[body] = parse_rule_body(body)
                neurons[nid][1].append(rule)
            elif m := _SYN_RE.match(line):
                synapses.add((m["a"], m["b"]))
            elif m := _OUT_RE.match(line):
                if output is not None:
                    raise ValueError("duplicate output declaration")
                output = m["id"]
            else:
                raise ValueError(f"cannot parse {line!r}")
        except ValueError as err:
            raise ParseError(lineno, str(err)) from None
    if output is None:
        raise ParseError(lineno or 1, "missing output declaration")
    built = tuple(Neuron(nid, spikes, tuple(rules)) for nid, (spikes, rules) in neurons.items())
    return check(SnpSystem(built, frozenset(synapses), output, name))


def serialize_system(system: SnpSystem) -> str:
    """Canonical document text; parsing it back reproduces the system.

    Raises ValueError for an id or a name that the text cannot carry.
    """
    if not _NAME_RE.fullmatch(system.name):
        raise ValueError(f"system name {system.name!r} is empty or has whitespace or '#'")
    for nid in (*system.ids, system.output):
        if not _ID_RE.fullmatch(nid):
            raise ValueError(f"neuron id {nid!r} is not of letters, digits and _'.-")
    lines = [f"system {system.name}"]
    # One rendering per rule object.  Keyed by id, because hashing a Rule
    # costs as much as rendering it; the system keeps every key alive.
    rendered: dict[int, str] = {}
    for neuron in system.neurons:
        suffix = f" spikes={neuron.initial_spikes}" if neuron.initial_spikes else ""
        lines.append(f"neuron {neuron.id}{suffix}")
        for rule in neuron.rules:
            if (text := rendered.get(id(rule))) is None:
                text = rendered[id(rule)] = render_rule(rule)
            lines.append(f"rule {neuron.id}: {text}")
    for a, b in sorted(system.synapses):
        lines.append(f"syn {a} -> {b}")
    lines.append(f"out {system.output}")
    return "\n".join(lines) + "\n"


# --- trace rendering ---------------------------------------------------------


class TraceStyle(Enum):
    PAPER = "paper"  # angle-bracket vectors, one n/t pair per neuron
    TABLE = "table"  # tab-separated rows, one tick per row
    MACHINE = "machine"  # JSON, one record per tick


# One configuration as the renderer reads it:
# (tick, spikes, closed, pending, environment, halted).  ``closed`` holds the
# ticks until each neuron reopens, ``pending`` its parked batch (0 while
# open), and ``halted`` is true only on the halting configuration.  A frame
# whose counts are a ``GrownCounts`` has tuple ``closed`` and ``pending``,
# shared with every other tick of its slot (see ``trace_lines``).
Frame = tuple[int, Sequence[int], Sequence[int], Sequence[int], int, bool]


class _Numerals(dict):
    """Decimal text of small counts, made once; larger counts are not kept."""

    def __missing__(self, k: int) -> str:
        return str(k)


@functools.cache
def _json_numerals() -> tuple[Callable[[int], str], Callable[[int], str]]:
    """JSON text of a count, and of a parked batch (null while open); built
    at the first machine-style render, not at import."""
    numerals = _Numerals((k, str(k)) for k in range(1024))
    return numerals.__getitem__, _Numerals({**numerals, 0: "null"}).__getitem__


def _vector(spikes: Sequence[int], closed: Sequence[int], environment: int, ascii_brackets: bool) -> str:
    left, right = ("<", ">") if ascii_brackets else ("⟨", "⟩")
    cells = [*map("{}/{}".format, spikes, closed), str(environment)]
    return f"{left}{', '.join(cells)}{right}"


def trace_lines(
    frames: Iterable[Frame],
    style: TraceStyle,
    ascii_brackets: bool,
    system: SnpSystem | None,
    halting_line: bool = False,
) -> Iterator[str]:
    """Render a run one line at a time, each as soon as its frame arrives.

    Table and machine styles start with a header when the system is given.
    Every frame gives one line; table style shows spikes/countdown pairs
    when the system has a delayed rule, and bare spike counts when it has
    none or is not given, so its columns do not depend on the run or its
    budget.  Machine style ends with an outcome record, and
    ``halting_line`` ends paper and table styles with how the run ended.

    Machine style renders a frame whose counts are a ``GrownCounts`` from
    a line template made once per slot, that is per (base, countdown,
    pending) objects: the tick, the grown counts and the environment are
    ``%d`` holes, and every other count and the ``"closed"`` and
    ``"pending"`` arrays are text.  ``semantics.frames`` shares these
    objects among all ticks of a slot of a proved period, so the memo
    holds at most one period's templates.  Other frames, such as the
    kernel's live state and ``format_trace``'s, are rendered in full.
    """
    if style is TraceStyle.PAPER:
        for tick, spikes, closed, _, environment, halted in frames:
            yield f"C{tick} = {_vector(spikes, closed, environment, ascii_brackets)}"
    elif style is TraceStyle.TABLE:
        pairs = system is not None and bool(system.delays)
        if system is not None:
            yield "\t".join(["step", *system.ids, "env"])
        for tick, spikes, closed, _, environment, halted in frames:
            cells = map("{}/{}".format, spikes, closed) if pairs else map(str, spikes)
            yield "\t".join([f"t{tick}", *cells, str(environment)])
    else:
        if system is not None:
            yield json.dumps({"system": system.name, "neurons": list(system.ids)}, separators=(",", ":"))
        numeral, pending_text = _json_numerals()

        def record(
            tick: object, counts: Iterable[str], closed: Sequence[int], pending: Sequence[int], env: object
        ) -> str:
            """One tick's record; ``"%d"`` for ``tick`` and ``env`` makes a template."""
            return (
                f'{{"tick":{tick},"spikes":[{",".join(counts)}],"closed":[{",".join(map(numeral, closed))}],'
                f'"pending":[{",".join(map(pending_text, pending))}],"environment":{env}}}'
            )

        # (base, closed, pending, template) per slot, keyed by identity: the
        # entry keeps the three alive, so no other object takes their ids
        templates: dict[tuple[int, int, int], tuple[tuple[int, ...], Sequence[int], Sequence[int], str]] = {}
        for tick, spikes, closed, pending, environment, halted in frames:
            if type(spikes) is GrownCounts:
                key = id(spikes.base), id(closed), id(pending)
                if (entry := templates.get(key)) is None:
                    cells = [*map(numeral, spikes.base)]
                    for i in spikes.grown:
                        cells[i] = "%d"
                    entry = templates[key] = spikes.base, closed, pending, record("%d", cells, closed, pending, "%d")
                yield entry[3] % (tick, *spikes.values, environment)
            else:
                yield record(tick, map(numeral, spikes), closed, pending, environment)
        yield f'{{"outcome":"halted","at":{tick}}}' if halted else '{"outcome":"budget-exhausted"}'
        return
    if halting_line:
        if halted:
            yield f"halted at tick {tick}, environment {environment}"
        else:
            yield f"budget exhausted after {tick} ticks, environment {environment}"


def format_trace(
    trace: Trace,
    style: TraceStyle = TraceStyle.PAPER,
    ascii_brackets: bool = False,
    system: SnpSystem | None = None,
) -> str:
    """Render a trace; identical inputs give byte-identical output.

    Table style needs the system for its header row and for
    spikes/countdown pairs, which it shows when the system has a delayed
    rule; without the system it shows bare spike counts.  Machine style
    emits one JSON record per tick plus a final outcome record.  The lines
    are those of ``trace_lines`` over the trace's configurations.
    """
    configs = trace.configurations
    last = len(configs) - 1
    frames = (
        (
            c.tick,
            [s.spikes for s in c.states],
            [s.closed_remaining for s in c.states],
            [s.pending_emission for s in c.states],
            c.environment,
            i == last and trace.halted,
        )
        for i, c in enumerate(configs)
    )
    return "\n".join(trace_lines(frames, style, ascii_brackets, system))


# --- DOT export --------------------------------------------------------------


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(system: SnpSystem) -> str:
    """Directed-graph description with one node per neuron and a
    distinguished environment node fed by the output neuron.  The
    environment node is ``__env__`` unless a neuron has that id."""
    env = "__env__"
    while env in system.index:
        env += "_"
    lines = [f'digraph "{_dot_escape(system.name)}" {{', "  rankdir=LR;"]
    for neuron in system.neurons:
        label_parts = [neuron.id]
        if neuron.initial_spikes == 1:
            label_parts.append("a")
        elif neuron.initial_spikes > 1:
            label_parts.append(f"a^{neuron.initial_spikes}")
        label_parts.extend(render_rule(r) for r in neuron.rules)
        label = "\\n".join(_dot_escape(p) for p in label_parts)
        lines.append(f'  "{_dot_escape(neuron.id)}" [shape=ellipse, label="{label}"];')
    lines.append(f'  "{env}" [shape=doublecircle, label="env"];')
    for a, b in sorted(system.synapses):
        lines.append(f'  "{_dot_escape(a)}" -> "{_dot_escape(b)}";')
    lines.append(f'  "{_dot_escape(system.output)}" -> "{env}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
