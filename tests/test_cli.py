"""End-to-end checks of the command-line surface and its exit codes."""

import pytest

from snpkit import parse_system
from snpkit.cli import main

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


def test_verify_divergent_exits_one(tmp_path, capsys):
    path = tmp_path / "hazard.snp"
    path.write_text(LOOP_HAZARD_DOC)
    with pytest.warns(UserWarning):
        code = main(["verify", str(path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "first divergence at tick 9" in out
    assert "NOT equivalent" in out


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
    assert system.neuron("11").rules[0].delay == 2


def test_gen_missing_arguments(capsys):
    assert main(["gen", "join"]) == 2
    assert "error:" in capsys.readouterr().err


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
