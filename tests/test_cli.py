"""End-to-end checks of the command-line surface and its exit codes."""

import io
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snpkit import (
    BatchOverlapWarning,
    Iteration,
    Join,
    NondeterministicChoice,
    Sequential,
    TraceStyle,
    equivalence,
    format_trace,
    generate,
    model,
    parse_system,
    run,
    semantics,
    serialize_system,
    textio,
)
from snpkit.cli import main

from .conftest import (
    SYSTEMS_DIR,
    examples,
    fan_out_systems,
    mostly_recurring,
    periodic_systems,
    recurring_systems,
    simple_systems,
    two_rule_systems,
)
from .test_kernel import LATE_LOOP, NO_PROOF

RELAY_DOC = """\
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
"""

LOOP_HAZARD_DOC = """\
system hazardous
neuron A spikes=1
rule A: a+ / a -> a
neuron B
rule B: a+ / a -> a
neuron S
rule S: a+ / a -> a ; 3
neuron O
rule O: a+ / a -> a
syn A -> B
syn B -> A
syn B -> S
syn S -> O
out O
"""

AMBIGUOUS_DOC = """\
system ambiguous
neuron n spikes=1
rule n: a+ / a -> a
rule n: a^1 / a -> a
out n
"""


# n0(d=2) -> {n1, n2}, n2 -> n1, {n1, n2} -> n0: neither side halts, and
# they part at tick 11
QUEUED_LOOP_DOC = """\
system queued-loop
neuron n0 spikes=1
rule n0: a+ / a -> a ; 2
neuron n1
rule n1: a+ / a -> a
neuron n2
rule n2: a+ / a -> a
syn n0 -> n1
syn n0 -> n2
syn n2 -> n1
syn n1 -> n0
syn n2 -> n0
out n1
"""


TIE_LATER_DOC = """\
system tie-later
neuron 1 spikes=1
rule 1: a+ / a -> a
neuron 2
rule 2: a+ / a -> a
rule 2: a / a -> a
syn 1 -> 2
out 2
"""


@pytest.fixture
def relay_file(tmp_path):
    path = tmp_path / "relay.snp"
    path.write_text(RELAY_DOC)
    return str(path)


def test_sim_paper_style(relay_file, capsys):
    assert main(["sim", relay_file, "--ascii"]) == 0
    out = capsys.readouterr().out
    assert "C2 = <0/0, 0/2, 0/0, 0>" in out
    assert "halted at tick 5, environment 1" in out


def test_sim_table_style(relay_file, capsys):
    assert main(["sim", relay_file, "--style", "table"]) == 0
    out = capsys.readouterr().out
    assert "t2\t0/0\t0/2\t0/0\t0" in out


def test_sim_machine_style(relay_file, capsys):
    assert main(["sim", relay_file, "--style", "machine"]) == 0
    out = capsys.readouterr().out
    assert '{"outcome":"halted","at":5}' in out.splitlines()[-1]


def test_transform_accounting_and_output(relay_file, tmp_path, capsys):
    out_file = tmp_path / "rewritten.snp"
    assert main(["transform", relay_file, "--out", str(out_file), "--provenance"]) == 0
    out = capsys.readouterr().out
    assert "added neurons net of feeders: 2 = sum of delays: 2" in out
    assert "2-1 <- 2 (multiplier 1)" in out
    rewritten = parse_system(out_file.read_text())
    assert all(rule.delay == 0 for n in rewritten.neurons for rule in n.rules)


def test_transform_prints_nothing_when_the_out_file_cannot_be_written(relay_file, tmp_path, capsys):
    out_file = tmp_path / "missing-dir" / "rewritten.snp"
    assert main(["transform", relay_file, "--out", str(out_file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_transform_to_stdout(relay_file, capsys):
    assert main(["transform", relay_file]) == 0
    out = capsys.readouterr().out
    assert "system relay-delay-free" in out


def test_verify_equivalent(relay_file, capsys):
    assert main(["verify", relay_file]) == 0
    out = capsys.readouterr().out
    assert "R1 equal halting tick: yes" in out
    assert "R2 equal environment at halt: yes" in out
    assert "verdict: equivalent" in out


@pytest.mark.xfail(
    strict=True,
    reason="verify co-simulates the source with a feeder, which passes the spikes on one a tick",
)
def test_verify_reports_the_halting_tick_of_the_source_as_written(tmp_path, capsys):
    # the delayed neuron holds the initial spikes: as written, the source
    # fires on its first step and halts at tick 3, as sim prints, and the
    # target must halt then too.  verify reports tick 5 for both sides, so
    # this fails until the rewrite needs no feeder
    path = tmp_path / "held.snp"
    path.write_text("neuron n0 spikes=2\nrule n0: (a^2)+ / a^2 -> a ; 2\nout n0\n")
    assert main(["sim", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "halted at tick 3, environment 1"
    assert main(["verify", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["source: halted at tick 3, environment 1", "target: halted at tick 3, environment 1"]
    assert lines[-1] == "verdict: equivalent"


def test_verify_divergent_exits_one(tmp_path, capsys):
    path = tmp_path / "hazard.snp"
    path.write_text(LOOP_HAZARD_DOC)
    with pytest.warns(UserWarning):
        code = main(["verify", str(path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "first divergence at tick 9" in out
    assert "NOT equivalent" in out


def test_verify_stops_once_the_outcome_is_decided(tmp_path, capsys):
    # every line but the bound is the same at 200 and at 10^6 ticks, and
    # the long window costs no more than the outcome needs
    path = tmp_path / "queued.snp"
    path.write_text(QUEUED_LOOP_DOC)
    outputs = []
    for bound in (200, 10**6):
        start = time.perf_counter()
        with pytest.warns(UserWarning):
            assert main(["verify", str(path), "--bound", str(bound)]) == 1
        elapsed = time.perf_counter() - start
        outputs.append(capsys.readouterr().out.replace(f" {bound} ", " N "))
    assert elapsed < 0.5, f"verify --bound 1000000 took {elapsed:.3f} s"
    assert outputs[0] == outputs[1]
    assert "first divergence at tick 11: source 4, target 5" in outputs[1]
    assert "source: no halt within N ticks" in outputs[1]


def test_verify_prints_the_hazard_on_every_call(tmp_path, capsys):
    path = tmp_path / "hazard.snp"
    path.write_text(LOOP_HAZARD_DOC)
    for _ in range(2):
        with pytest.warns(UserWarning):
            assert main(["verify", str(path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == (
            "warning: neuron S is closed when a spike batch reaches it at tick 4; "
            "the source loses the batch, the delay-free target keeps it"
        )
        assert lines[1].startswith("source: ")


PROGRAM_ENTRIES = [
    ["-m", "snpkit.cli"],
    # the call the installed `snpkit` script makes
    ["-c", "import sys; from snpkit.cli import console; sys.exit(console())"],
]


@pytest.mark.parametrize("entry", PROGRAM_ENTRIES, ids=["module", "script"])
def test_program_prints_each_hazard_once(tmp_path, entry):
    path = tmp_path / "hazard.snp"
    path.write_text(LOOP_HAZARD_DOC)
    done = subprocess.run(
        [sys.executable, "-W", "default", *entry, "verify", str(path)],
        capture_output=True, text=True, env=_program_env(), timeout=60,
    )
    assert done.returncode == 1
    assert done.stderr == ""
    assert [line for line in done.stdout.splitlines() if line.startswith("warning:")] == [
        "warning: neuron S is closed when a spike batch reaches it at tick 4; "
        "the source loses the batch, the delay-free target keeps it"
    ]


@pytest.mark.parametrize("entry", PROGRAM_ENTRIES, ids=["module", "script"])
def test_program_stops_quietly_when_stdout_closes(tmp_path, entry):
    path = tmp_path / "loop.snp"
    path.write_text(LOOP_HAZARD_DOC)
    with subprocess.Popen(
        [sys.executable, *entry, "sim", str(path), "--max-steps", "200000", "--style", "machine"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_program_env(),
    ) as program:
        assert program.stdout.readline().startswith(b'{"system":"hazardous"')
        program.stdout.close()  # the reader goes away, like `| head -1`
        assert program.wait(timeout=60) == 141
        assert program.stderr.read() == b""


def test_program_stops_quietly_when_its_last_flush_finds_stdout_closed():
    read, write = os.pipe()
    os.close(read)  # every write, and so the exit-time flush, meets a closed pipe
    env = _program_env()
    env.pop("PYTHONUNBUFFERED", None)  # keep the output buffered until the flush
    relay = Path(__file__).resolve().parent.parent / "systems" / "relay.snp"
    try:
        done = subprocess.run(
            [sys.executable, *PROGRAM_ENTRIES[0], "dot", str(relay)],
            stdout=write, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 141
    assert done.stderr == b""


def _program_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_gen_round_trips(capsys):
    assert main(["gen", "sequential", "--d", "3"]) == 0
    doc = capsys.readouterr().out
    system = parse_system(doc)
    assert system.ids == ("11", "12")

    assert main(["gen", "split", "--d1", "2", "--d2", "5"]) == 0
    doc = capsys.readouterr().out
    assert parse_system(doc).ids == ("3", "4", "5", "o")

    assert main(["gen", "iteration", "--d", "2", "--placement", "first"]) == 0
    system = parse_system(capsys.readouterr().out)
    assert system.neurons[system.index["11"]].rules[0].delay == 2


def test_gen_missing_arguments(capsys):
    assert main(["gen", "join"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, instance",
    [
        (["sequential", "--d1", "2", "--d2", "3"], Sequential((2, 3))),
        (["join", "--d", "2"], Join(2)),
        (["sequential", "--d1", "2"], "sequential with two delays needs both --d1 and --d2"),
        (["sequential"], "sequential needs --d or --d1/--d2"),
        (["iteration"], "iteration needs --d"),
        (["join"], "join needs --d"),
        (["split"], "split needs --d1 (left) and/or --d2 (right)"),
        (["split", "--d", "3", "--d1", "2"], "split ignores --d"),
        (["sequential", "--d", "2", "--d1", "1", "--d2", "4"], "sequential ignores --d"),
        (["iteration", "--d", "3", "--d1", "5"], "iteration ignores --d1"),
        (["join", "--d", "2", "--placement", "first"], "join ignores --placement"),
        (["iteration", "--d", "2"], Iteration(2, "second")),
    ],
)
def test_gen_emits_the_instance_or_names_the_missing_delay(argv, instance, capsys):
    if isinstance(instance, str):
        assert main(["gen", *argv]) == 2
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {instance}\n")
    else:
        assert main(["gen", *argv]) == 0
        assert parse_system(capsys.readouterr().out) == generate(instance)


def test_dot_output(relay_file, capsys):
    assert main(["dot", relay_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "relay"')
    assert '"3" -> "__env__";' in out


def test_missing_file_is_input_error(capsys):
    assert main(["sim", "/nonexistent/thing.snp"]) == 2


def test_invalid_document_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.snp"
    path.write_text("neuron 1\nsyn 1 -> 1\nout 1\n")
    assert main(["sim", str(path)]) == 2
    assert "self-loop" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "transform"])
@pytest.mark.parametrize("rule", ["(a^2)+ / a^2 -> a^2 ; 1", "a / a -> a ; 2"])
def test_unsupported_delayed_rule_is_input_error(tmp_path, capsys, command, rule):
    path = tmp_path / "unsupported.snp"
    path.write_text(RELAY_DOC.replace("a+ / a -> a ; 2", rule))
    assert main([command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: neuron 2:")
    assert "Traceback" not in err


def test_verify_finds_the_sources_issues_once(relay_file, capsys, monkeypatch):
    found = []
    original = model._issues

    def counted(system):
        found.append(system.name)
        return original(system)

    monkeypatch.setattr(model, "_issues", counted)
    assert main(["verify", relay_file]) == 0
    assert found.count("relay") == 1
    assert found.count("relay-delay-free") == 1


@pytest.mark.parametrize("command", ["verify", "transform"])
def test_rewrite_over_the_size_limit_is_input_error(tmp_path, capsys, command):
    path = tmp_path / "huge.snp"
    path.write_text(RELAY_DOC.replace("; 2", "; 100000"))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "error: the delays sum to 100000: the rewrite would add more than 10000 neurons\n"
    )
    assert captured.out == ""


def test_nondeterministic_system_is_engine_error(tmp_path, capsys):
    path = tmp_path / "ambiguous.snp"
    path.write_text(AMBIGUOUS_DOC)
    assert main(["sim", str(path)]) == 3
    assert "engine error" in capsys.readouterr().err


def test_transform_without_delays_runs_no_check(tmp_path, capsys):
    path = tmp_path / "ambiguous.snp"
    path.write_text(AMBIGUOUS_DOC)
    assert main(["transform", str(path)]) == 0
    out = capsys.readouterr().out
    assert "warning:" not in out
    assert "system ambiguous-delay-free" in out


def test_tie_in_the_overlap_check_is_undecided(tmp_path, capsys):
    # the tie at tick 1 leaves the overlap check undecided; transform still
    # writes the target, and verify reports the tie as the source's
    path = tmp_path / "ambiguous.snp"
    tie = "rule 1: a+ / a -> a\nrule 1: a / a -> a\n"
    path.write_text(RELAY_DOC.replace("rule 1: a+ / a -> a\n", tie))
    with pytest.warns(UserWarning):
        assert main(["transform", str(path)]) == 0
    out = capsys.readouterr().out
    assert "warning: undecided at tick 1: neuron 1 has several enabled rules" in out
    assert "system relay-delay-free" in out
    with pytest.warns(UserWarning):
        assert main(["verify", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "engine error: neuron 1 has several enabled rules at tick 1 in source\n"


def warned(argv):
    """The ``warning:`` lines of one CLI call and the BatchOverlapWarning
    messages it issued."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        main(argv)
    lines = [line for line in out.getvalue().splitlines() if line.startswith("warning: ")]
    return lines, [str(w.message) for w in caught if w.category is BatchOverlapWarning]


def late_loop(spikes, idle=0, hops=2):
    """A loop of ``hops`` neurons, A, B and then c2, c3, ..., that passes
    one spike around and starts repeating once ``t`` has spent its spikes,
    one a tick, beside a delayed neuron that never fires and ``idle``
    neurons without rules."""
    loop = ["A", "B"] + [f"c{k}" for k in range(2, hops)]
    return parse_system(
        f"system late-loop\nneuron t spikes={spikes}\nrule t: a+ / a -> a\n"
        + "".join(f"neuron {n}{' spikes=1' if n == 'A' else ''}\nrule {n}: a+ / a -> a\n" for n in loop)
        + "neuron d\nrule d: a+ / a -> a ; 2\n"
        + "".join(f"neuron i{k}\n" for k in range(idle))
        + "".join(f"syn {a} -> {b}\n" for a, b in zip(loop, loop[1:] + loop[:1]))
        + "out A\n"
    )


def late_loss(spikes):
    """A batch lost at tick ``spikes`` + 2: ``acc`` fires once it holds the
    ``spikes`` spikes ``t`` sends one a tick, and ``d``, which fires on its
    batch, is closed when the copy that ``e`` relays reaches it."""
    return parse_system(
        f"system late-loss\nneuron t spikes={spikes}\nrule t: a+ / a -> a\n"
        f"neuron acc\nrule acc: a^{spikes} / a^{spikes} -> a\nneuron e\nrule e: a+ / a -> a\n"
        "neuron d\nrule d: a+ / a -> a ; 2\n"
        "syn t -> acc\nsyn acc -> d\nsyn acc -> e\nsyn e -> d\nout d\n"
    )


def late_halt(spikes):
    """Halts at tick ``spikes`` with no event."""
    return parse_system(
        f"system late-halt\nneuron t spikes={spikes}\nrule t: a+ / a -> a\n"
        "neuron d\nrule d: a+ / a -> a ; 2\nout t\n"
    )


@given(
    mostly_recurring(st.one_of(simple_systems(), two_rule_systems(), periodic_systems(), fan_out_systems())),
    st.one_of(st.sampled_from([1500, 20_000]), st.integers(0, 300)),
)
# the hazards that co-simulation leaves open, or settles only past the
# budget: a run cut at the bound, a tie, an event or a halt after the
# budget, and loops that start repeating before the overlap check's save at
# tick 8,190 (5,000 spikes, proved at 8,192), just after it (8,195 spikes)
# or well after it (8,500), both proved at 16,384, past its budget of
# 10,000.  Every check on the source's run saves at the same ticks, 2^m - 2
# from its gate on, so co-simulation proves each loop where the overlap
# check does, and verify answers without running it when that is within the
# budget: with 1,996 idle neurons beside the loop, co-simulation's joint
# check starts at the target's 2,002 neurons and still proves it at 4,096.
# A loop of 904 hops that starts repeating at tick 6,000 is proved one
# period after the save at 8,190, at 9,094.  The budget's edge: a batch lost at tick 10,000 is the hazard
# and one lost at 10,001 leaves the run undecided; a halt at 10,000 settles
# it and one at 10,001 does not; and a loop of 1,810 hops is proved at
# 8,190 + 1,810 = 10,000, the budget's last tick, and one of 1,811 hops a
# tick past it, which co-simulation leaves open and the overlap check
# answers undecided
@example(parse_system(QUEUED_LOOP_DOC), 0)
@example(parse_system(QUEUED_LOOP_DOC), 5)
@example(parse_system(RELAY_DOC.replace("rule 1: a+ / a -> a\n", "rule 1: a+ / a -> a\nrule 1: a / a -> a\n")), 200)
@example(parse_system(TIE_LATER_DOC.replace("rule 1: a+ / a -> a\n", "rule 1: a+ / a -> a ; 1\n")), 200)
@example(late_loss(10_000), 20_000)
@example(late_loss(10_000), 1500)
@example(late_loss(9_998), 20_000)
@example(late_loss(9_999), 20_000)
@example(late_halt(10_005), 20_000)
@example(late_halt(10_000), 20_000)
@example(late_halt(10_001), 20_000)
@example(late_loop(5000), 20_000)
@example(late_loop(8195), 20_000)
@example(late_loop(8500), 20_000)
@example(late_loop(3500, idle=1996), 20_000)
@example(late_loop(6000, hops=904), 20_000)
@example(late_loop(6000, hops=1810), 20_000)
@example(late_loop(6000, hops=1811), 20_000)
@settings(max_examples=examples(300), deadline=None)
def test_verify_warns_what_transform_warns(tmp_path_factory, system, bound):
    # verify takes the hazards from its co-simulated run of the source,
    # transform from a run of its own
    path = tmp_path_factory.mktemp("agree") / "system.snp"
    path.write_text(serialize_system(system))
    expected = warned(["transform", str(path)])
    assert warned(["verify", str(path), "--bound", str(bound)]) == expected


def test_verify_settles_a_late_loop_without_the_overlap_check(tmp_path, monkeypatch):
    # what verify prints when the overlap check answers, and then what it
    # prints when the check fails if run: co-simulation's proof settles it,
    # also when it comes on the budget's last tick
    def printed(argv):
        out = io.StringIO()
        with warnings.catch_warnings(), redirect_stdout(out):
            warnings.simplefilter("ignore")
            code = main(argv)
        return code, out.getvalue()

    def unexpected(system):
        raise AssertionError("verify ran the overlap check")

    for name, system in [("gated-later", late_loop(3500, idle=1996)), ("at-the-budget", late_loop(6000, hops=1810))]:
        path = tmp_path / f"{name}.snp"
        path.write_text(serialize_system(system))
        argv = ["verify", str(path), "--bound", "20000"]
        with monkeypatch.context() as patched:
            patched.setattr(equivalence, "hazards_from_run", lambda *facts: None)
            checked = printed(argv)
        with monkeypatch.context() as patched:
            patched.setattr(equivalence, "batch_hazards", unexpected)
            assert printed(argv) == checked, name


def test_verify_simulates_each_system_once(tmp_path, monkeypatch):
    source = generate(Sequential((2,) * 40))
    path = tmp_path / "chain.snp"
    path.write_text(serialize_system(source))
    built = []
    original = semantics.Kernel.__init__

    def counted(self, system):
        built.append(system.name)
        original(self, system)

    monkeypatch.setattr(semantics.Kernel, "__init__", counted)
    assert main(["verify", str(path), "--bound", "1500"]) == 0
    assert sorted(built) == [source.name, f"{source.name}-delay-free"]


def sim(argv):
    """Exit status, stdout and stderr of ``snpkit sim``."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["sim", *argv])
    return code, out.getvalue(), err.getvalue()


def expected_sim(system, steps, style, ascii_brackets, trace=None):
    """The reference for ``sim``: ``format_trace`` of the whole ``run``
    trace (``trace``, when given) plus, for paper and table, the halting
    line."""
    trace = run(system, steps) if trace is None else trace
    text = format_trace(trace, style, ascii_brackets, system) + "\n"
    if style is TraceStyle.MACHINE:
        return text
    env = trace.final.environment
    if trace.halted:
        return text + f"halted at tick {trace.final.tick}, environment {env}\n"
    return text + f"budget exhausted after {trace.final.tick} ticks, environment {env}\n"


@given(
    st.one_of(simple_systems(), two_rule_systems()),
    st.integers(0, 30),
    st.sampled_from(TraceStyle),
    st.booleans(),
)
@settings(max_examples=examples(300), deadline=None)
def test_sim_streams_what_format_trace_renders(tmp_path_factory, system, steps, style, ascii_brackets):
    path = tmp_path_factory.mktemp("sim") / "system.snp"
    path.write_text(serialize_system(system))
    system = parse_system(path.read_text())
    argv = [str(path), "--max-steps", str(steps), "--style", style.value]
    code, out, err = sim(argv + ["--ascii"] if ascii_brackets else argv)
    try:
        expected = expected_sim(system, steps, style, ascii_brackets)
    except NondeterministicChoice as tie:
        # the stream stops after the last configuration before the tie, with
        # no outcome
        assert (code, err) == (3, f"engine error: {tie}\n")
        lines = format_trace(run(system, tie.tick - 1), style, ascii_brackets, system).split("\n")
        if style is TraceStyle.MACHINE:
            lines.pop()
        assert out == "\n".join(lines) + "\n"
        return
    assert (code, out, err) == (0, expected, "")


@pytest.mark.parametrize("style", list(TraceStyle))
@pytest.mark.parametrize("steps", [0, 2, 1000])
def test_sim_matches_format_trace_on_the_relay(relay_file, style, steps):
    assert sim([relay_file, "--style", style.value, "--max-steps", str(steps)]) == (
        0,
        expected_sim(parse_system(RELAY_DOC), steps, style, False),
        "",
    )


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize(
    "path, steps",
    # frames proves them recurrent at ticks 6 and 34; the budgets reach at
    # least 4 times as far
    [(SYSTEMS_DIR / "iteration-d2.snp", 60), (GOLDEN / "dense-20.snp", 140)],
    ids=["iteration-d2", "dense-20"],
)
@pytest.mark.parametrize(
    "style, options",
    [
        ("machine", ["--style", "machine"]),
        ("table", ["--style", "table"]),
        ("paper", ["--style", "paper"]),
        ("paper-ascii", ["--style", "paper", "--ascii"]),
    ],
)
def test_sim_prints_the_pinned_run(path, steps, style, options):
    golden = (GOLDEN / f"sim-{path.stem}.{style}.stdout").read_text()
    assert sim([str(path), "--max-steps", str(steps), *options]) == (0, golden, "")


# every neuron's count grows by one a tick, so each slot's machine-style
# template has a hole for every count; D's delay closes it every other tick
ALL_GROW_DOC = (
    "system all-grow\n"
    "neuron A spikes=1\nrule A: a+ / a -> a\nneuron B spikes=1\nrule B: a+ / a -> a\n"
    "neuron C spikes=1\nrule C: a+ / a -> a\nneuron D\nrule D: a+ / a -> a ; 1\n"
    "syn A -> B\nsyn A -> C\nsyn A -> D\nsyn B -> A\nsyn B -> C\nsyn B -> D\n"
    "syn C -> A\nsyn C -> B\nsyn C -> D\nsyn D -> A\nout A\n"
)
STYLES = [(TraceStyle.MACHINE, False), (TraceStyle.PAPER, False), (TraceStyle.PAPER, True), (TraceStyle.TABLE, False)]
STYLE_IDS = ["machine", "paper", "paper-ascii", "table"]


@pytest.mark.parametrize(
    "doc, grown, style, ascii_brackets",
    [
        (doc, grown, *style)
        for doc, grown in (
            ((GOLDEN / "dense-20.snp").read_text(), 10),
            ((SYSTEMS_DIR / "iteration-d2.snp").read_text(), 0),
            (ALL_GROW_DOC, 4),
        )
        for style in STYLES
    ],
    ids=[*STYLE_IDS, *(f"{name}-{style}" for name in ("iteration-d2", "all-grow") for style in STYLE_IDS)],
)
def test_sim_matches_format_trace_over_many_periods(tmp_path, doc, grown, style, ascii_brackets):
    # dense-20 is proved recurrent at tick 34 with period 4: by tick 2000
    # each slot of the period is printed about 490 times, and 10 of its 20
    # counts grow, to 1992.  That passes the 1024 texts the machine style
    # keeps for the frames before a proof, but not the 4096 of the table
    # that fills a kept period's holes (see the next test).  iteration-d2 is
    # proved recurrent at tick 6 with period 4 and no count grows, and in
    # all-grow every count grows, to 3000
    system = parse_system(doc)
    *_, period = semantics.frames(system, 2000)
    assert len(period.grown) == grown
    path = tmp_path / "system.snp"
    path.write_text(doc)
    argv = [str(path), "--max-steps", "2000", "--style", style.value, *(["--ascii"] if ascii_brackets else [])]
    expected = expected_sim(system, 2000, style, ascii_brackets)
    assert sim(argv) == (0, expected, "")


@given(recurring_systems(), st.integers(2, 3))
@example(LATE_LOOP, 2)
@example(NO_PROOF, 2)
@settings(max_examples=examples(40), deadline=None)
def test_sim_cuts_the_last_visit_at_the_budget(system, visits):
    # past the kept period sim prints one piece per visit of it, the last
    # cut at the budget: with the budget at every offset of the visit after
    # ``visits`` whole ones, each style prints the reference run's lines.  A
    # run without a proof within 10^4 ticks, as NO_PROOF's, prints live
    # frames only, checked at a budget of 2,000
    *_, period = semantics.frames(system, 10**4)
    if isinstance(period, semantics.KeptPeriod):
        proof, length = period.kept[0][0] - 1, len(period.kept)
        budgets = [proof + length * (1 + visits) + offset for offset in range(length)]
    else:
        budgets = [2000]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "system.snp"
        path.write_text(serialize_system(system))
        for steps in budgets:
            for style, ascii_brackets in STYLES:
                argv = [str(path), "--max-steps", str(steps), "--style", style.value]
                expected = expected_sim(system, steps, style, ascii_brackets)
                assert sim(argv + ["--ascii"] * ascii_brackets) == (0, expected, ""), (steps, style)


@pytest.mark.parametrize(
    "system, proof, length",
    [
        (parse_system((SYSTEMS_DIR / "iteration-d2.snp").read_text()), 6, 4),
        (parse_system((GOLDEN / "dense-20.snp").read_text()), 34, 4),
        (LATE_LOOP, 64, 2),
    ],
    ids=["iteration-d2", "dense-20", "late-loop"],
)
def test_sim_prints_every_budget_around_the_first_kept_period(tmp_path, system, proof, length):
    # every tick past the proof comes from the kept period: a budget at the
    # proof prints none of it, one inside the first period a cut first
    # visit, and the budgets up to two periods past the proof one whole
    # visit and then a cut or whole second one
    *_, period = semantics.frames(system, 10**4)
    assert (period.kept[0][0] - 1, len(period.kept)) == (proof, length)
    path = tmp_path / "system.snp"
    path.write_text(serialize_system(system))
    for steps in range(proof, proof + 2 * length + 1):
        for style, ascii_brackets in STYLES:
            argv = [str(path), "--max-steps", str(steps), "--style", style.value, *(["--ascii"] * ascii_brackets)]
            expected = expected_sim(system, steps, style, ascii_brackets)
            assert sim(argv) == (0, expected, ""), (steps, style)


@pytest.mark.parametrize(
    "doc",
    [(GOLDEN / "dense-20.snp").read_text(), ALL_GROW_DOC],
    ids=["dense-20", "all-grow"],
)
def test_sim_prints_numerals_past_the_table(tmp_path, doc):
    # by tick 12000 the ticks and the fastest counts of both runs pass the
    # end of the table of decimal texts that fills a kept period's holes.
    # dense-20's ticks pass it inside a chunk of visits: from there on that
    # chunk's tick holes take their texts from str, beside count holes that
    # still take them from the table
    system = parse_system(doc)
    trace = run(system, 12000)
    assert max(state.spikes for state in trace.final.states) > len(textio._numerals())
    path = tmp_path / "system.snp"
    path.write_text(doc)
    for style, ascii_brackets in STYLES:
        argv = [str(path), "--max-steps", "12000", "--style", style.value, *(["--ascii"] * ascii_brackets)]
        expected = expected_sim(system, 12000, style, ascii_brackets, trace)
        assert sim(argv) == (0, expected, ""), style


@pytest.mark.parametrize(
    "doc",
    [(GOLDEN / "dense-20.snp").read_text(), (SYSTEMS_DIR / "iteration-d2.snp").read_text(), ALL_GROW_DOC],
    ids=["dense-20", "iteration-d2", "all-grow"],
)
def test_sim_cuts_the_visits_at_chunk_boundaries(tmp_path, monkeypatch, doc):
    # with chunks of three visits, the budgets end one visit before, at and
    # one visit after the first two chunk boundaries, and cut the visit after
    # at each offset.  In iteration-d2 only the tick grows, and in all-grow
    # every count does
    system = parse_system(doc)
    *_, period = semantics.frames(system, 10**4)
    size = len(period.kept)
    holes = size * (1 + len(period.grown) + bool(period.env_growth))  # a visit's growing holes
    monkeypatch.setattr(textio, "_CHUNK_TEXTS", 3 * holes)
    path = tmp_path / "system.snp"
    path.write_text(doc)
    for visits in (2, 3, 4, 5, 6, 7):
        for offset in range(size):
            steps = period.kept[-1][0] + visits * size + offset
            for style, ascii_brackets in STYLES:
                argv = [str(path), "--max-steps", str(steps), "--style", style.value]
                expected = expected_sim(system, steps, style, ascii_brackets)
                assert sim(argv + ["--ascii"] * ascii_brackets) == (0, expected, ""), (steps, style)


@given(recurring_systems(), st.integers(1, 40), st.integers(1, 60), st.sampled_from(STYLES))
@example(NO_PROOF, 1, 1, STYLES[0])
@settings(max_examples=examples(60), deadline=None)
def test_sim_prints_the_same_whatever_the_chunk(system, texts, past, style):
    # chunks of any size, down to one visit when a visit has more holes than
    # a chunk's texts, print the reference run's lines.  A run without a
    # proof within 10^4 ticks, as NO_PROOF's, prints live frames only,
    # checked at a budget of 2,000
    *_, period = semantics.frames(system, 10**4)
    steps = period.kept[-1][0] + past if isinstance(period, semantics.KeptPeriod) else 2000
    style, ascii_brackets = style
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(textio, "_CHUNK_TEXTS", texts)
        path = Path(tmp) / "system.snp"
        path.write_text(serialize_system(system))
        argv = [str(path), "--max-steps", str(steps), "--style", style.value, *(["--ascii"] * ascii_brackets)]
        assert sim(argv) == (0, expected_sim(system, steps, style, ascii_brackets), "")


def test_table_shows_pairs_when_the_delayed_rule_never_fires(tmp_path):
    # neuron 2's delayed rule needs five spikes and never gets them: the
    # columns follow the system, which has a delayed rule, not the run
    doc = RELAY_DOC.replace("rule 2: a+ / a -> a ; 2", "rule 2: a^5 / a^5 -> a ; 2")
    path = tmp_path / "idle-delay.snp"
    path.write_text(doc)
    code, out, _ = sim([str(path), "--style", "table"])
    assert code == 0
    assert out == expected_sim(parse_system(doc), 1000, TraceStyle.TABLE, False)
    assert out.splitlines()[1:3] == ["t0\t1/0\t0/0\t0/0\t0", "t1\t0/0\t1/0\t0/0\t0"]
    assert out.splitlines()[-1] == "halted at tick 1, environment 0"


IDLE_DELAY_LOOP_DOC = """\
system idle-delay-loop
neuron A spikes=1
rule A: a+ / a -> a
neuron B
rule B: a+ / a -> a
neuron D
rule D: a^5 / a^5 -> a ; 2
syn A -> B
syn B -> A
out A
"""


def test_table_shows_pairs_on_a_recurring_run_that_closes_no_neuron(tmp_path):
    # A and B pass a spike back and forth forever and D's delayed rule never
    # fires, so no neuron ever closes; D's rule alone makes the columns pairs
    system = parse_system(IDLE_DELAY_LOOP_DOC)
    path = tmp_path / "idle-delay-loop.snp"
    path.write_text(IDLE_DELAY_LOOP_DOC)
    code, out, err = sim([str(path), "--style", "table", "--max-steps", "50"])
    assert (code, err) == (0, "")
    assert out == expected_sim(system, 50, TraceStyle.TABLE, False)
    assert out.splitlines()[:3] == ["step\tA\tB\tD\tenv", "t0\t1/0\t0/0\t0/0\t0", "t1\t0/0\t1/0\t0/0\t1"]
    assert out.splitlines()[-1] == "budget exhausted after 50 ticks, environment 25"


def test_table_shows_countdowns_when_a_delayed_rule_fires(relay_file):
    code, out, _ = sim([relay_file, "--style", "table"])
    assert code == 0
    assert out == expected_sim(parse_system(RELAY_DOC), 1000, TraceStyle.TABLE, False)
    assert out.splitlines()[3] == "t2\t0/0\t0/2\t0/0\t0"


@given(
    st.one_of(simple_systems(), two_rule_systems(), recurring_systems()),
    st.integers(0, 40),
    st.integers(1, 40),
    st.sampled_from(TraceStyle),
    st.booleans(),
)
@example(parse_system(RELAY_DOC), 1, 1, TraceStyle.TABLE, False)
@settings(max_examples=examples(150), deadline=None)
def test_a_shorter_budget_prints_a_prefix_of_a_longer_one(
    tmp_path_factory, system, budget, more, style, ascii_brackets
):
    # the header and ticks 0..budget print alike at every budget; only the
    # last line, how the run ended, may differ
    path = tmp_path_factory.mktemp("sim") / "system.snp"
    path.write_text(serialize_system(system))
    options = ["--style", style.value, *(["--ascii"] if ascii_brackets else [])]
    code, short, _ = sim([str(path), "--max-steps", str(budget), *options])
    _, longer, _ = sim([str(path), "--max-steps", str(budget + more), *options])
    printed = short.splitlines()
    if code == 0:
        printed.pop()  # the outcome record or halting line
    assert longer.splitlines()[: len(printed)] == printed


def test_sim_table_simulates_a_delayed_system_once(tmp_path, monkeypatch):
    path = tmp_path / "idle-delay-loop.snp"
    path.write_text(IDLE_DELAY_LOOP_DOC)
    built = []
    original = semantics.Kernel.__init__

    def counted(self, system):
        built.append(system.name)
        original(self, system)

    monkeypatch.setattr(semantics.Kernel, "__init__", counted)
    code, _, _ = sim([str(path), "--style", "table", "--max-steps", "50"])
    assert (code, built) == (0, ["idle-delay-loop"])


# a delayed neuron after the tie, never reached: no neuron closes before it
TIE_BEFORE_DELAY_DOC = TIE_LATER_DOC.replace(
    "syn 1 -> 2\n", "neuron 3\nrule 3: a+ / a -> a ; 2\nsyn 1 -> 2\nsyn 2 -> 3\n"
)


@pytest.mark.parametrize("style", list(TraceStyle))
def test_tie_after_tick_zero_stops_the_stream_without_an_outcome(tmp_path, style):
    path = tmp_path / "tie-later.snp"
    for doc, paper in (
        (TIE_LATER_DOC, ["C0 = <1/0, 0/0, 0>", "C1 = <0/0, 1/0, 0>"]),
        (TIE_BEFORE_DELAY_DOC, ["C0 = <1/0, 0/0, 0/0, 0>", "C1 = <0/0, 1/0, 0/0, 0>"]),
    ):
        path.write_text(doc)
        code, out, err = sim([str(path), "--style", style.value, "--ascii"])
        assert code == 3
        assert err == "engine error: neuron 2 has several enabled rules at tick 2\n"
        lines = out.splitlines()
        assert len(lines) == 2 + (style is not TraceStyle.PAPER)  # header, ticks 0 and 1
        if style is TraceStyle.PAPER:
            assert lines == paper
        assert not any(word in out for word in ("halted", "budget", "outcome"))


# one input for each way a verify run settles: a halt (systems/), a joint
# recurrence proof (iteration-d2), a proof after the first divergence
# (queued-loop, loop-hazard), a tie (tie-later), and an input error
# (idle-delay-loop)
PINNED_INPUTS = {
    **{path.stem: path.read_text() for path in sorted(SYSTEMS_DIR.glob("*.snp"))},
    "queued-loop": QUEUED_LOOP_DOC,
    "loop-hazard": LOOP_HAZARD_DOC,
    "tie-later": TIE_LATER_DOC,
    "idle-delay-loop": IDLE_DELAY_LOOP_DOC,
}


@pytest.mark.parametrize("name", list(PINNED_INPUTS))
@pytest.mark.parametrize(
    "command",
    [
        ["verify", "--bound", "37"],
        ["verify", "--bound", "200"],
        ["verify", "--bound", "1500"],
        ["transform", "--provenance"],
    ],
    ids=["verify-37", "verify-200", "verify-1500", "transform-provenance"],
)
def test_verify_and_transform_print_the_pinned_output(tmp_path, name, command):
    # stdout, then stderr, then the exit status
    path = tmp_path / f"{name}.snp"
    path.write_text(PINNED_INPUTS[name])
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("ignore", BatchOverlapWarning)
        code = main([command[0], str(path), *command[1:]])
    golden = (GOLDEN / f"{command[0]}-{name}.{command[-1].lstrip('-')}.out").read_text()
    assert f"{out.getvalue()}{err.getvalue()}exit {code}\n" == golden


def test_negative_budget_is_rejected_before_any_output(relay_file):
    assert sim([relay_file, "--max-steps", "-1"]) == (2, "", "error: max_steps must be >= 0\n")


def test_negative_bound_is_rejected_before_any_output(tmp_path, capsys):
    path = tmp_path / "hazard.snp"
    path.write_text(LOOP_HAZARD_DOC)  # the rewrite would print a warning line
    assert main(["verify", str(path), "--bound", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: bound must be >= 0\n")


class Discard:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def test_sim_memory_does_not_grow_with_the_ticks(tmp_path):
    path = tmp_path / "loop.snp"
    path.write_text(
        "neuron a spikes=1\nrule a: a+ / a -> a\nneuron b\nrule b: a+ / a -> a\n"
        "syn a -> b\nsyn b -> a\nout a\n"
    )
    argv = ["sim", str(path), "--style", "machine", "--max-steps"]
    with redirect_stdout(Discard()):
        assert main(argv + ["10"]) == 0  # builds the parser outside the measurement
    peaks = []
    for ticks in (10**3, 10**4):
        tracemalloc.start()
        try:
            with redirect_stdout(Discard()):
                assert main(argv + [str(ticks)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] * 1.5 + 4096, peaks


@pytest.mark.parametrize(
    "path",
    # proved recurrent at ticks 6 and 34, both with period 4; dense-20's
    # counts grow, so its later frames are not the recorded ones
    [SYSTEMS_DIR / "iteration-d2.snp", GOLDEN / "dense-20.snp"],
    ids=["iteration-d2", "dense-20"],
)
def test_sim_memory_after_a_recurrence_proof_does_not_grow_with_the_ticks(path):
    # the program's peak resident size, read from its own rusage: tracing
    # every allocation of 10^5 ticks in-process would take seconds
    peaks = []
    for ticks in (10**3, 10**5):
        program = subprocess.Popen(
            [sys.executable, "-m", "snpkit.cli", "sim", str(path), "--style", "machine",
             "--max-steps", str(ticks)],
            stdout=subprocess.DEVNULL, env=_program_env(),
        )
        _, status, usage = os.wait4(program.pid, 0)
        program.returncode = os.waitstatus_to_exitcode(status)
        assert program.returncode == 0
        peaks.append(usage.ru_maxrss)  # KiB
    assert peaks[1] < peaks[0] + 1024, peaks
