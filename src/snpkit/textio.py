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
from .semantics import KeptPeriod, Trace


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
# open), and ``halted`` is true only on the halting configuration.  The last
# item of a run may instead be a ``semantics.KeptPeriod``: the ticks after
# the frames, to its ``last`` (see ``trace_lines``).
Frame = tuple[int, Sequence[int], Sequence[int], Sequence[int], int, bool]


class _Numerals(dict):
    """Decimal text of the counts it holds, and ``"%d"`` for the holes of a
    slot's template; other counts go through ``str`` and are not kept."""

    def __missing__(self, k: int) -> str:
        return str(k)


@functools.cache
def _numerals() -> tuple[str, ...]:
    """The decimal texts of 0 to 4095, built at the first render that needs
    them, not at import, and kept for the process: about 0.25 MB.  The
    holes of a kept period take their texts from it, each hole a chunk of
    visits at a time with one stride slice (``_visits``)."""
    return tuple(map(str, range(4096)))


@functools.cache
def _json_numerals() -> tuple[Callable[[int], str], Callable[[int], str]]:
    """JSON text of a count, and of a parked batch (null while open), for
    the frames before a proof and the templates of a kept period.  Both
    hold the first 1024 texts of ``_numerals``, which cover most counts
    there: over the whole table, the two dicts would take about 0.3 MB
    more.  A template's holes are ``"%d"``, which maps to itself."""
    numerals = _Numerals(enumerate(_numerals()[:1024]))
    numerals["%d"] = "%d"
    return numerals.__getitem__, _Numerals({**numerals, 0: "null"}).__getitem__


def trace_lines(
    frames: Iterable[Frame | KeptPeriod],
    style: TraceStyle,
    ascii_brackets: bool,
    system: SnpSystem | None,
    halting_line: bool = False,
) -> Iterator[str]:
    """Render a run as text, each piece as soon as its frame arrives; joined
    by newlines, the pieces are the run's lines.

    Table and machine styles start with a header when the system is given.
    Every frame gives one line; table style shows spikes/countdown pairs
    when the system has a delayed rule, and bare spike counts when it has
    none or is not given, so its columns do not depend on the run or its
    budget.  Machine style ends with an outcome record, and
    ``halting_line`` ends paper and table styles with how the run ended.

    A ``KeptPeriod`` item, as ``semantics.frames`` ends a proved run with,
    gives one piece per visit of the kept period.  Each slot's line
    is built once, in the style's own format, as a template whose tick,
    grown counts and environment are holes.  The slots' templates are
    joined and split at the holes once, and each visit's piece is one join
    of those literals with its holes' decimal texts, which come a chunk of
    visits at a time as stride slices of a table of numerals
    (``_visits``).  The last visit is cut at the period's ``last``.
    """
    if style is TraceStyle.PAPER:
        left, right = ("<", ">") if ascii_brackets else ("⟨", "⟩")

        def line(tick: object, counts: Iterable, closed: Sequence[int], _: object, env: object) -> str:
            return f"C{tick} = {left}{', '.join([*map('{}/{}'.format, counts, closed), str(env)])}{right}"

    elif style is TraceStyle.TABLE:
        pairs = system is not None and bool(system.delays)
        if system is not None:
            yield "\t".join(["step", *system.ids, "env"])

        def line(tick: object, counts: Iterable, closed: Sequence[int], _: object, env: object) -> str:
            cells = map("{}/{}".format, counts, closed) if pairs else map(str, counts)
            return "\t".join([f"t{tick}", *cells, str(env)])

    else:
        if system is not None:
            yield json.dumps({"system": system.name, "neurons": list(system.ids)}, separators=(",", ":"))
        numeral, pending_text = _json_numerals()

        def line(tick: object, counts: Iterable, closed: Sequence[int], pending: Sequence[int], env: object) -> str:
            return (
                f'{{"tick":{tick},"spikes":[{",".join(map(numeral, counts))}],'
                f'"closed":[{",".join(map(numeral, closed))}],'
                f'"pending":[{",".join(map(pending_text, pending))}],"environment":{env}}}'
            )

    for frame in frames:
        if type(frame) is KeptPeriod:
            tick, halted = frame.last, False
            environment = yield from _visits(frame, line)
        else:
            tick, spikes, closed, pending, environment, halted = frame
            yield line(tick, spikes, closed, pending, environment)
    if style is TraceStyle.MACHINE:
        yield f'{{"outcome":"halted","at":{tick}}}' if halted else '{"outcome":"budget-exhausted"}'
    elif halting_line:
        if halted:
            yield f"halted at tick {tick}, environment {environment}"
        else:
            yield f"budget exhausted after {tick} ticks, environment {environment}"


_CHUNK_VISITS = 32  # visits whose hole texts are made at once, at most
_CHUNK_TEXTS = 1 << 16  # hole texts made at once, at most, unless a visit has more


def _visits(period: KeptPeriod, line: Callable[..., str]) -> Iterator[str]:
    """The lines of ``period``'s ticks, one piece per visit of its slots
    from visit 0; returns the environment at the last tick.

    Each slot's line is made by ``line`` once, as a template with a ``%d``
    hole for its tick, grown counts and environment.  The joined templates
    are split at the holes once, and a hole that does not grow (the
    environment, when it stays put) is folded into the literal text around
    it.  Every other hole takes the values of an arithmetic progression over
    the visits.  For a chunk of visits at a time, each such hole's texts are
    one stride slice of ``_numerals``, or, when its values pass the table's
    end, ``map(str, ...)`` over them for that hole alone.  A chunk is at
    most ``_CHUNK_VISITS`` visits and ``_CHUNK_TEXTS`` texts, or one visit
    if that has more, so memory does not grow with ``last``.  A visit's
    text is then one join of the literals and its texts.  A last visit cut
    at ``last`` is the first lines of a whole one.
    """
    kept, grown, growth, env_growth = period.kept, period.grown, period.growth, period.env_growth
    size = len(kept)
    templates, firsts, steps = [], [], []
    for tick, counts, closed, pending, env in kept:
        shown: list[object] = [*counts]
        for i in grown:
            shown[i] = "%d"
        templates.append(line("%d", shown, closed, pending, "%d"))
        firsts += (tick, *(counts[i] for i in grown), env)
        steps += (size, *growth, env_growth)
    literals = "\n".join(templates).split("%d")
    del templates
    # literals and growing holes alternate in pieces; a hole's value on
    # visit 0 is its start, and it grows by its stride a visit
    pieces, starts, strides = [literals[0]], [], []
    distinct: dict[str, str] = {}  # one object per distinct literal
    for first, step, literal in zip(firsts, steps, literals[1:]):
        if step:
            pieces += (None, distinct.setdefault(literal, literal))
            starts.append(first)
            strides.append(step)
        else:
            pieces[-1] += str(first) + literal
    del literals, firsts, steps, distinct
    visits, cut = divmod(period.last - kept[0][0] + 1, size)
    numerals = _numerals()
    end = len(numerals)
    chunk = max(1, min(_CHUNK_VISITS, _CHUNK_TEXTS // len(strides)))
    for lo in range(0, visits, chunk):
        n = min(chunk, visits - lo)
        stops = [start + stride * n for start, stride in zip(starts, strides)]
        texts: list[str] = []  # hole by hole, the texts of visits lo to lo + n - 1
        for a, b, d in zip(starts, stops, strides):
            texts += numerals[a:b:d] if b - d < end else map(str, range(a, b, d))
        for visit in range(n):
            pieces[1::2] = texts[visit::n]
            yield "".join(pieces)
        starts = stops
    if cut:
        pieces[1::2] = map(str, starts)
        yield "\n".join("".join(pieces).split("\n", cut)[:cut])
    visit, slot = divmod(period.last - kept[0][0], size)
    return kept[slot][4] + visit * env_growth


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
