#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of snpkit's CLI.

    python3 bench/run.py --workload chain --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --pin        # rewrite bench/expected.json
    python3 bench/run.py --baseline   # one-shot baseline report

Each run generates its workload's inputs from ``--seed`` as ``.snp``
files, calls ``snpkit.cli.main`` in-process on them pass after pass for
``--seconds`` seconds of calls, checks every answer, and prints one JSON
object as its last line.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` spends half the time untraced and half with every layer's
public functions wrapped in spans (see ``tracing.py``), and reports the
per-layer metrics.  DESIGN.md says why the workloads are what they are.

Exit status: 0 when every answer on a well-formed input is right, 1 when
one is wrong, 2 when snpkit cannot be found or imported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import re
import resource
import shutil
import statistics
import sys
import time
import warnings
from collections import Counter, defaultdict
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).with_name("expected.json")
WORKLOADS = ("chain", "mixed-small", "dense-sim")
DEFAULT_SEED = 1
SETUP_REPEATS = 9

CHAIN_HOPS = (40, 80, 120, 160)
CHAIN_BOUND = 1500  # above the longest chain's halting tick, 160 * 5.5 + 1
MIXED_COMPOSITIONS = 300
MIXED_GRAPHS = 300
MIXED_BAD_EACH = 3  # inputs of each kind in inputs.BAD_KINDS
MIXED_BOUND = 200  # the CLI's default; the reference run uses it too
DENSE_SIZES = ((100, 1000), (150, 1500), (200, 2000), (250, 2500), (300, 3000))  # (neurons, ticks)

# The machines this runs on are shared, and their speed drifts by up to a
# third over minutes: more than any useful bound, however long a run is.
# So every timed stretch of about CHUNK_S seconds is bracketed by runs of a
# fixed calibration workload (the reference interpreter, which shares no
# code with snpkit, on a fixed 40-neuron dense graph), and reported times
# are scaled by CALIBRATION_S over the calibration's mean time at the two
# ends: seconds at the speed at which the calibration takes CALIBRATION_S,
# which is the speed of a quiet 2.1 GHz x86-64 core.  Reports print the
# raw wall time as well.
CALIBRATION = inputs.dense_graph(random.Random("calibration"), 40, "calibration")
CALIBRATION_TICKS = 150
CALIBRATION_S = 0.0042
CHUNK_S = 0.2


def calibrate() -> float:
    start = time.perf_counter()
    for _ in inputs.reference_run(CALIBRATION, CALIBRATION_TICKS):
        pass
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """Factor from wall seconds to seconds at the calibration's speed."""
    return CALIBRATION_S * 2 / (before + after)


def import_snpkit() -> SimpleNamespace:
    """Import snpkit afresh from this checkout's ``src``, never from
    anywhere else on the path."""
    src = ROOT / "src"
    if not (src / "snpkit" / "__init__.py").is_file():
        raise ImportError(f"no snpkit package under {src}")
    for key in [k for k in sys.modules if k == "snpkit" or k.startswith("snpkit.")]:
        del sys.modules[key]
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    names = ("cli", "eliminate", "equivalence", "routing", "semantics", "textio")
    snp = SimpleNamespace(**{n: importlib.import_module(f"snpkit.{n}") for n in names})
    if Path(snp.cli.__file__).resolve().parent != (src / "snpkit").resolve():
        raise ImportError(f"snpkit was imported from {snp.cli.__file__}, not {src}")
    return snp


# --- workloads -------------------------------------------------------------------


@dataclass
class Op:
    name: str  # input name, unique within the workload
    command: str  # verify | transform | sim
    argv: list[str]
    spec: inputs.Spec | None = None  # None for the inputs that must be rejected
    expected_exit: int | None = None  # for the inputs that must be rejected
    out_file: Path | None = None

    @property
    def key(self) -> str:
        return f"{self.command}:{self.name}"

    @cached_property
    def reference(self) -> tuple[int, int] | None:
        """The reference interpreter's outcome for the source, on first use."""
        return inputs.reference_outcome(self.spec, MIXED_BOUND)


def build(snp, workload: str, seed: int, work: Path) -> list[Op]:
    """Generate the workload's inputs, write them under ``work`` and return
    the CLI calls of one pass."""
    rng = random.Random(f"{workload}/{seed}")
    ops: list[Op] = []

    def write(name: str, text: str) -> str:
        path = work / f"{name}.snp"
        path.write_text(text)
        return str(path)

    if workload == "chain":
        for i, hops in enumerate(CHAIN_HOPS):
            spec = inputs.chain(snp, rng, hops, f"chain-{i}-h{hops}")
            path = write(spec.name, inputs.to_text(spec))
            out = work / f"{spec.name}.target.snp"
            ops.append(Op(spec.name, "verify", ["verify", path, "--bound", str(CHAIN_BOUND)], spec))
            ops.append(Op(spec.name, "transform", ["transform", path, "--out", str(out)], spec, out_file=out))
    elif workload == "mixed-small":
        specs = [inputs.composition(snp, rng, f"comp-{i}") for i in range(MIXED_COMPOSITIONS)]
        specs += [inputs.random_graph(rng, f"graph-{i}") for i in range(MIXED_GRAPHS)]
        for spec in specs:
            ops.append(Op(spec.name, "verify", ["verify", write(spec.name, inputs.to_text(spec))], spec))
        for kind, code in inputs.BAD_KINDS.items():
            for i in range(MIXED_BAD_EACH):
                name = f"bad-{kind}-{i}"
                path = write(name, inputs.bad_input(rng, kind, name))
                ops.append(Op(name, "verify", ["verify", path], expected_exit=code))
        rng.shuffle(ops)
    elif workload == "dense-sim":
        for i, (n, ticks) in enumerate(DENSE_SIZES):
            spec = inputs.dense_graph(rng, n, f"dense-{i}-n{n}")
            spec.facts = {"ticks": ticks}
            path = write(spec.name, inputs.to_text(spec))
            ops.append(Op(spec.name, "sim", ["sim", path, "--style", "machine", "--max-steps", str(ticks)], spec))
    else:
        raise ValueError(f"unknown workload {workload}")
    return ops


def setup(workload: str, seed: int, work: Path) -> tuple[SimpleNamespace, list[Op], float]:
    """Import snpkit, generate and write the inputs; repeated, and the median
    time reported, because one import and one generation are too short to
    time steadily.  Later repetitions overwrite the files the first one
    created: on the shared hosts this runs on, creating files gets slower
    the more files earlier runs created and deleted, and overwriting them
    does not."""
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter()
        snp = import_snpkit()
        ops = build(snp, workload, seed, work)
        elapsed = time.perf_counter() - start
        times.append(elapsed * speed(before, calibrate()))
    return snp, ops, statistics.median(times)


# --- calling the CLI -------------------------------------------------------------


class Capture:
    """Text sink for redirected output; keeps the written pieces."""

    def __init__(self):
        self.parts: list[str] = []

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    def text(self) -> str:
        return "".join(self.parts)


@dataclass
class Result:
    exit: int | None
    stdout: str
    stderr: str
    error: str | None  # an exception that escaped cli.main
    flagged: bool  # a BatchOverlapWarning was raised
    seconds: float


def call(snp, argv: list[str]) -> Result:
    out, err = Capture(), Capture()
    error = None
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            code = snp.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an escaping exception is a failed call, not a crash
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    flagged = any(w.category.__name__ == "BatchOverlapWarning" for w in caught)
    return Result(code, out.text(), err.text(), error, flagged, seconds)


# --- checking answers ------------------------------------------------------------

_SIDE = re.compile(r"^(source|target): (?:halted at tick (\d+), environment (\d+)|no halt within (\d+) ticks)$")
_DIVERGENCE = re.compile(r"^first divergence at tick (\d+): source (\d+), target (\d+)$")
_ACCOUNTING = re.compile(r"^added neurons net of feeders: (-?\d+) = sum of delays: (\d+)$")
_FEEDERS = re.compile(r"^feeder neurons added: (\d+)$")


def verify_answer(result: Result) -> dict:
    """Verdict, both halting ticks with their environments, and the first
    divergence, as ``snpkit verify`` printed them."""
    answer = {"exit": result.exit, "source": None, "target": None, "divergence": None, "verdict": None}
    for line in result.stdout.splitlines():
        if m := _SIDE.match(line):
            answer[m[1]] = [int(m[2]), int(m[3])] if m[2] else None
        elif m := _DIVERGENCE.match(line):
            answer["divergence"] = [int(m[1]), int(m[2]), int(m[3])]
        elif line.startswith("verdict: "):
            answer["verdict"] = line[len("verdict: "):]
    return answer


def verify_problems(op: Op, answer: dict, workload: str) -> list[str]:
    """Facts about a verify answer that hold whatever the code: the exit
    status follows the verdict, the verdict follows R1/R2 or the
    trajectories, chains halt after sum(d+1)+1 ticks with 1 spike out, and
    the source behaves as the reference interpreter says."""
    problems = []
    if answer["verdict"] not in ("equivalent", "NOT equivalent"):
        return [f"no verdict (exit {answer['exit']})"]
    equivalent = answer["verdict"] == "equivalent"
    if answer["exit"] != (0 if equivalent else 1):
        problems.append(f"exit {answer['exit']} with verdict {answer['verdict']}")
    src, tgt = answer["source"], answer["target"]
    if src is not None and tgt is not None:
        should = src == tgt
    elif src is None and tgt is None:
        should = answer["divergence"] is None
    else:
        should = False
    if equivalent != should:
        problems.append(f"verdict {answer['verdict']} contradicts {src}, {tgt}, {answer['divergence']}")
    if workload == "chain":
        halt = [op.spec.facts["halt"], 1]
        if src != halt or tgt != halt or not equivalent:
            problems.append(f"chain should halt at {halt} on both sides and be equivalent")
    else:
        if src != (list(op.reference) if op.reference else None):
            problems.append(f"source {src}, reference interpreter says {op.reference}")
    return problems


def transform_problems(op: Op, result: Result) -> tuple[list[str], str | None]:
    """The count law, checked from the files: the target has as many more
    neurons than the source as the delays sum to, plus the feeders."""
    if not op.out_file.is_file():
        return ["no output file"], None
    target = op.out_file.read_text()
    delays = sum(op.spec.facts["delays"])
    feeders = [int(m[1]) for line in result.stdout.splitlines() if (m := _FEEDERS.match(line))]
    claims = [(int(m[1]), int(m[2])) for line in result.stdout.splitlines() if (m := _ACCOUNTING.match(line))]
    added = sum(line.startswith("neuron ") for line in target.splitlines()) - len(op.spec.neurons)
    problems = []
    if feeders != [0] or added != delays:
        problems.append(f"target adds {added} neurons with feeders {feeders}; the delays sum to {delays}")
    if claims != [(delays, delays)]:
        problems.append(f"accounting line says {claims}, delays sum to {delays}")
    return problems, hashlib.sha256(target.encode()).hexdigest()


def sim_problems(op: Op, result: Result) -> list[str]:
    """Every machine record equals the reference interpreter's configuration."""
    lines = result.stdout.splitlines()
    try:
        records = (json.loads(line) for line in lines)
        head = next(records, {})
        if head.get("neurons") != [nid for nid, _, _ in op.spec.neurons]:
            return ["header record does not list the neurons"]
        row = 1
        for tick, spikes, closed, pending, env, halted in inputs.reference_run(op.spec, op.spec.facts["ticks"]):
            want = {"tick": tick, "spikes": spikes, "closed": closed, "pending": pending, "environment": env}
            if next(records, None) != want:
                return [f"record {row} differs from the reference at tick {tick}"]
            row += 1
    except ValueError as err:
        return [f"machine records are not JSON: {err}"]
    outcome = {"outcome": "halted", "at": tick} if halted else {"outcome": "budget-exhausted"}
    if lines[row:] != [json.dumps(outcome, separators=(",", ":"))]:
        return [f"outcome records {lines[row:]!r}, reference says {outcome}"]
    return []


@dataclass
class Check:
    """Answers of one pass and what was wrong with them."""

    answers: dict = field(default_factory=dict)
    failed: list[str] = field(default_factory=list)  # every failed call
    wrong: list[str] = field(default_factory=list)  # failed calls on well-formed inputs
    missed: int = 0  # divergent, no BatchOverlapWarning
    false_flags: int = 0  # BatchOverlapWarning, equivalent


def check(op: Op, result: Result, workload: str, deep: bool, expected: dict, into: Check) -> None:
    """Record the call's answer and whether it is right: the facts above
    hold, and the answer equals the one in ``expected`` if that has one.
    ``deep`` also runs the checks that cost as much as the call (the sim
    reference)."""
    if op.spec is None:
        if result.error or result.exit != op.expected_exit:
            got = result.error or f"exit {result.exit}"
            into.failed.append(f"{op.key}: expected exit {op.expected_exit}, got {got}")
        return
    if result.error or result.exit not in ((0, 1) if op.command == "verify" else (0,)):
        problems = [result.error or f"exit {result.exit}: {result.stderr.strip()[:200]}"]
        answer = None
    elif op.command == "verify":
        answer = verify_answer(result)
        problems = verify_problems(op, answer, workload)
        divergent = answer["verdict"] == "NOT equivalent"
        into.missed += divergent and not result.flagged
        into.false_flags += result.flagged and not divergent
    elif op.command == "transform":
        problems, answer = transform_problems(op, result)
    else:
        answer = hashlib.sha256(result.stdout.encode()).hexdigest()
        problems = sim_problems(op, result) if deep else []
    into.answers[op.key] = answer
    if op.key in expected and expected[op.key] != answer:
        problems.append(f"answer {answer} differs from the expected {expected[op.key]}")
    for problem in problems:
        into.failed.append(f"{op.key}: {problem}")
        into.wrong.append(f"{op.key}: {problem}")


# --- passes ----------------------------------------------------------------------


@dataclass
class Pass:
    wall: float  # wall time of the CLI calls
    seconds: float  # the same at the calibration's speed
    by_command: Counter  # seconds per command, at the calibration's speed
    latencies: list[float]  # per call, at the calibration's speed
    check: Check
    counts: Counter | None = None
    spans: list | None = None


def run_pass(snp, ops: list[Op], workload: str, deep: bool, expected: dict, tracer=None) -> Pass:
    gc.collect()
    raw, chunk_of = [], []
    outcome = Check()
    counts: Counter = Counter()
    ends = [calibrate()]
    since = 0.0
    for request, op in enumerate(ops):
        if tracer is not None:
            tracer.request = request
        result = call(snp, op.argv)
        raw.append(result.seconds)
        chunk_of.append(len(ends) - 1)
        since += result.seconds
        if since >= CHUNK_S or request == len(ops) - 1:
            ends.append(calibrate())
            since = 0.0
        if tracer is not None:
            tracer.drain(counts, snp.semantics.enabled_rules)
        check(op, result, workload, deep, expected, outcome)
    factors = [speed(a, b) for a, b in zip(ends, ends[1:])]
    latencies = [t * factors[c] for t, c in zip(raw, chunk_of)]
    by_command: Counter = Counter()
    for op, t in zip(ops, latencies):
        by_command[op.command] += t
    return Pass(sum(raw), sum(latencies), by_command, latencies, outcome, counts=counts if tracer else None)


def run_passes(snp, ops, workload, seconds, expected: dict, tracer=None, deep_first=True) -> list[Pass]:
    """Passes until their calls have taken ``seconds`` in all (at least one);
    the time spent checking answers does not count.  Answers must equal
    ``expected`` (the pinned ones, if any), which is filled from the first
    pass when empty, so that answers must also repeat from pass to pass."""
    passes: list[Pass] = []
    while not passes or sum(p.wall for p in passes) < seconds:
        if tracer is not None:
            tracer.spans.clear()
            tracer.install()
        try:
            done = run_pass(snp, ops, workload, deep_first and not passes, expected, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            done.spans = list(tracer.spans)
        passes.append(done)
        if not expected:
            expected.update(done.check.answers)
    return passes


# --- metrics ---------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, sample count) at the highest percentile with at
    least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    ranked = sorted(samples)
    return ranked[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "pass_s": {"value": statistics.median(p.seconds for p in passes), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def per_layer(untraced: list[Pass], traced: list[Pass]) -> tuple[dict, list[str]]:
    """Median self time per layer over the traced passes (at the
    calibration's speed, by each pass's mean factor), the counters of the
    first traced pass (they must repeat exactly), and the tracing overhead
    against the untraced passes."""
    problems = []
    counts = traced[0].counts
    for later in traced[1:]:
        if later.counts != counts:
            problems.append(f"counters changed between traced passes: {counts} vs {later.counts}")
    per_pass = [(tracing.layer_times(p.spans), p.seconds / p.wall) for p in traced]
    times = {
        key: statistics.median(t[0].get(key, 0.0) * f for t, f in per_pass) for _, _, key in tracing.WRAPPED
    }
    calls = per_pass[0][0][1]
    kernel = statistics.median(t[2] * f for t, f in per_pass)
    coverage = statistics.median(sum(t[0].values()) / p.wall for (t, _), p in zip(per_pass, traced))
    overhead = statistics.median(p.seconds for p in traced) / statistics.median(p.seconds for p in untraced)
    first = traced[0].check
    simulated = counts["equivalence.ticks_simulated"]
    values = {
        **{key: (value, "s") for key, value in times.items()},
        "textio.output_bytes": (counts["textio.output_bytes"], "bytes"),
        "model.validate_calls": (calls["validate"], "count"),
        "eliminate.gadgets": (calls["build_gadget"], "count"),
        "eliminate.neurons_added": (counts["eliminate.neurons_added"], "count"),
        "eliminate.hazards_flagged": (counts["eliminate.hazards_flagged"], "count"),
        "eliminate.overlap_missed": (first.missed, "count"),
        "eliminate.overlap_false_flags": (first.false_flags, "count"),
        **{
            f"semantics.{k}": (counts[f"semantics.{k}"], "count")
            for k in ("ticks", "neuron_ticks", "active_neuron_ticks", "firings", "lost_spikes", "configs_retained")
        },
        "semantics.ns_per_neuron_tick": (kernel * 1e9 / max(counts["semantics.neuron_ticks"], 1), "ns"),
        "semantics.ns_per_active_neuron_tick": (
            kernel * 1e9 / max(counts["semantics.active_neuron_ticks"], 1),
            "ns",
        ),
        "equivalence.ticks_simulated": (simulated, "count"),
        "equivalence.ticks_decisive": (counts["equivalence.ticks_decisive"], "count"),
        "equivalence.useful_tick_ratio": (
            counts["equivalence.ticks_decisive"] / simulated if simulated else 0.0,
            "ratio",
        ),
        "cli.calls": (calls["main"], "count"),
        "cli.failed": (len(first.failed), "count"),
        "trace.overhead_share": (overhead - 1.0, "ratio"),
        "trace.self_time_coverage": (coverage, "ratio"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}, problems


def report(workload: str, passes: list[Pass], setup_s: float) -> None:
    """Every end-to-end metric the design names, one per line, for people,
    from the untraced passes."""
    def line(name: str, value, unit: str, note: str = "") -> None:
        print(f"{workload:12} {name:22} {value:>12.4f} {unit:6} {note}".rstrip())

    line("setup_s", setup_s, "s", f"median of {SETUP_REPEATS}")
    for command in sorted(passes[0].by_command):
        line(f"{command}_s", statistics.median(p.by_command[command] for p in passes), "s",
             f"median of {len(passes)} passes")
    factor = statistics.median(p.seconds / p.wall for p in passes)
    line("pass_wall_s", statistics.median(p.wall for p in passes), "s",
         f"raw wall time; times above and below are scaled by {factor:.3f}")
    samples = [s for p in passes for s in p.latencies]
    line("op_ms_p50", statistics.median(samples) * 1e3, "ms", f"n={len(samples)}")
    if (t := tail(samples)) is not None:
        line("op_ms_tail", t[0] * 1e3, "ms", f"p{t[1]:.1f}, n={t[2]}")
    line("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.check.failed) for p in passes)
    line("error_rate", failed / attempted, "ratio", f"{failed} of {attempted} calls")
    line("overlap_missed", passes[0].check.missed, "count")
    line("overlap_false_flags", passes[0].check.false_flags, "count")
    for problem in sorted(set(passes[0].check.failed)):
        print(f"{workload:12} failed: {problem}")


def report_layers(workload: str, ops: list[Op], traced: Pass, metrics: dict) -> None:
    """Self time per layer within each command, and the activity ratios."""
    by_command: dict = defaultdict(Counter)
    for span, own in zip(traced.spans, tracing.self_times(traced.spans)):
        by_command[ops[span[4]].command][tracing.METRIC[span[0]]] += own
    for command, times in sorted(by_command.items()):
        total = sum(times.values())
        shares = ", ".join(
            f"{key} {value:.3f} s ({100 * value / total:.1f}%)"
            for key, value in sorted(times.items(), key=lambda kv: -kv[1])[:4]
        )
        print(f"{workload:12} self time in {command}: {shares}")
    active = metrics["semantics.active_neuron_ticks"]["value"]
    total = metrics["semantics.neuron_ticks"]["value"]
    if total:
        print(f"{workload:12} active share of neuron-ticks: {active / total:.4f} ({active} of {total})")


def selftest(snp) -> list[str]:
    """The counters on two systems whose runs are known by hand: the relay
    takes 5 ticks and 3 firings and loses nothing; in the counterexample
    n0(d=2) -> {n1, n2}, n2 -> n1, {n1, n2} -> n0 a spike reaches n0 while
    it is closed."""
    relay = snp.textio.parse_system((ROOT / "systems" / "relay.snp").read_text())
    loop = inputs.Spec(
        "counterexample",
        [("n0", 1, [inputs.forward(2)]), ("n1", 0, [inputs.FORWARD]), ("n2", 0, [inputs.FORWARD])],
        [("n0", "n1"), ("n0", "n2"), ("n2", "n1"), ("n1", "n0"), ("n2", "n0")],
        "n1",
    )
    problems = []
    for system, want in (
        (relay, lambda c: c["semantics.ticks"] == 5 and c["semantics.firings"] == 3 and c["semantics.lost_spikes"] == 0),
        (snp.textio.parse_system(inputs.to_text(loop)), lambda c: c["semantics.lost_spikes"] > 0),
    ):
        counts: Counter = Counter()
        tracing.add_run_counts(counts, system, snp.semantics.run(system, 50), snp.semantics.enabled_rules)
        if not want(counts):
            problems.append(f"counter self-test on {system.name}: {dict(counts)}")
    return problems


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    try:
        snp, ops, setup_s = setup(workload, seed, work)
        problems = selftest(snp)
        expected = {}
        if seed == DEFAULT_SEED and EXPECTED.is_file():
            expected = json.loads(EXPECTED.read_text())[workload]
        if trace:
            untraced = run_passes(snp, ops, workload, seconds / 2, expected)
            traced = run_passes(snp, ops, workload, seconds / 2, expected, tracing.Tracer(), deep_first=False)
            metrics, counter_problems = per_layer(untraced, traced)
            problems += counter_problems
            write_spans(workload, seed, traced[-1].spans)
            report_layers(workload, ops, traced[-1], metrics)
            passes = untraced + traced
        else:
            untraced = passes = run_passes(snp, ops, workload, seconds, expected)
            metrics = end_to_end(passes, setup_s)
        problems += [w for p in passes for w in p.check.wrong]
        report(workload, untraced, setup_s)
        for problem in sorted(set(problems)):
            print(f"{workload:12} WRONG: {problem}")
        print(json.dumps({
            "correct": not problems,
            "attempted": sum(len(p.latencies) for p in passes),
            "failed": sum(len(p.check.failed) for p in passes),
            "metrics": metrics,
        }))
        return 0 if not problems else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def write_spans(workload: str, seed: int, spans: list) -> None:
    """The last traced pass's spans as JSON lines in .bench_out/."""
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload}-seed{seed}.jsonl", "w") as f:
        for i, (name, start, end, parent, request) in enumerate(spans):
            f.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                "parent": parent, "request": request}) + "\n")


def pin() -> int:
    """Run one pass of every workload at the default seed and pin its answers."""
    pinned = {}
    for workload in WORKLOADS:
        work = ROOT / ".bench_work" / f"pin-{workload}-{os.getpid()}"
        try:
            snp, ops, _ = setup(workload, DEFAULT_SEED, work)
            done = run_pass(snp, ops, workload, deep=True, expected={})
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if done.check.wrong:
            print("\n".join(done.check.wrong), file=sys.stderr)
            return 1
        pinned[workload] = dict(sorted(done.check.answers.items()))
    with open(EXPECTED, "w") as f:
        for i, (workload, answers) in enumerate(pinned.items()):
            f.write(("{" if i == 0 else ",\n") + f"{json.dumps(workload)}: {{\n")
            f.write(",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in answers.items()))
            f.write("\n}")
        f.write("}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite expected.json at the default seed")
    parser.add_argument("--baseline", action="store_true", help="print the one-shot baseline report")
    args = parser.parse_args(argv)
    try:
        import_snpkit()
    except ImportError as err:
        print(f"cannot import snpkit: {err}", file=sys.stderr)
        return 2
    if args.pin:
        return pin()
    if args.baseline:
        import baseline

        return baseline.main(import_snpkit())
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
