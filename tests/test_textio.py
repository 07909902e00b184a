"""Grammar round-trips, trace rendering, and DOT export."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snpkit import (
    Configuration,
    Join,
    ParseError,
    Rule,
    Sequential,
    SnpSystem,
    Neuron,
    SpikeRegex,
    Trace,
    TraceStyle,
    ValidationError,
    eliminate_delays,
    export_dot,
    format_trace,
    generate,
    parse_system,
    run,
    serialize_system,
)
from snpkit.cli import main
from snpkit.textio import parse_guard, render_guard, render_rule

from .conftest import SYSTEMS_DIR, examples, random_system, simple_systems, spike_regexes

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


class TestParsing:
    def test_relay_document(self, relay):
        assert parse_system(RELAY_DOC) == relay

    def test_empty_input_lacks_output(self):
        with pytest.raises(ParseError, match="output"):
            parse_system("")

    def test_self_loop_is_a_validation_error(self):
        doc = "neuron 1 spikes=1\nsyn 1 -> 1\nout 1\n"
        with pytest.raises(ValidationError, match="self-loop"):
            parse_system(doc)

    def test_comments_and_blank_lines(self):
        doc = "# a comment\n\nneuron 1  # trailing\nout 1\n"
        system = parse_system(doc)
        assert system.ids == ("1",)

    def test_rule_before_neuron(self):
        with pytest.raises(ParseError, match="undeclared"):
            parse_system("rule 1: a+ / a -> a\nneuron 1\nout 1\n")

    def test_duplicate_neuron(self):
        with pytest.raises(ParseError, match="twice"):
            parse_system("neuron 1\nneuron 1\nout 1\n")

    def test_duplicate_output(self):
        with pytest.raises(ParseError, match="duplicate output"):
            parse_system("neuron 1\nout 1\nout 1\n")
        with pytest.raises(ParseError, match="line 2: duplicate system"):
            parse_system("system a\nsystem b\nneuron 1\nout 1\n")

    def test_unparseable_line_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_system("neuron 1\nwobble\nout 1\n")
        assert err.value.line == 2

    def test_bad_guard(self):
        with pytest.raises(ParseError, match="guard"):
            parse_system("neuron 1\nrule 1: b+ / a -> a\nout 1\n")

    def test_rule_without_arrow(self):
        with pytest.raises(ParseError, match="line 2: rule needs '->'"):
            parse_system("neuron 1\nrule 1: a+ / a a\nout 1\n")

    @pytest.mark.parametrize(
        "doc,line",
        [
            ("neuron 1 spikes=1\nrule 1: a+ / a -> a ; 1_0\nout 1\n", 2),
            ("neuron 1 spikes=1\nrule 1: a+ / a -> a ; +2\nout 1\n", 2),
            ("neuron 1 spikes=1\nrule 1: a+ / a -> a ; \u0663\nout 1\n", 2),
            ("neuron 1 spikes=\u0663\nout 1\n", 1),
            ("neuron 1 spikes=1\nrule 1: a^\u0663 / a -> a\nout 1\n", 2),
            ("neuron 1 spikes=1\nrule 1: a+ / a^\u0663 -> a\nout 1\n", 2),
            ("neuron 1 spikes=" + "9" * 5000 + "\nout 1\n", 1),
        ],
        ids=["underscore-delay", "signed-delay", "arabic-indic-delay", "arabic-indic-spikes",
             "arabic-indic-exponent", "arabic-indic-consumption", "5000-digit-spikes"],
    )
    def test_counts_are_ascii_digits(self, doc, line, tmp_path, capsys):
        path = tmp_path / "bad.snp"
        path.write_text(doc, encoding="utf-8")
        assert main(["dot", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: line {line}: ")

    def test_repeated_rule_text_shares_one_rule(self):
        doc = (
            "neuron 1 spikes=1\nrule 1: a+ / a -> a\nneuron 2\nrule 2: a+ / a -> a\n"
            "neuron 3\nrule 3: a+ / a -> a ; 2\nsyn 1 -> 2\nsyn 2 -> 3\nout 3\n"
        )
        first, second, third = (n.rules[0] for n in parse_system(doc).neurons)
        assert first is second
        assert third is not first
        assert third != first

    def test_separate_parses_do_not_share_rules(self):
        once, again = parse_system(RELAY_DOC), parse_system(RELAY_DOC)
        assert once == again
        for a, b in zip(once.neurons, again.neurons):
            assert a.rules[0] is not b.rules[0]

    def test_forgetting_and_exponents(self):
        doc = "neuron 1 spikes=3\nrule 1: a^3 / a^3 -> 0\nout 1\n"
        system = parse_system(doc)
        assert system.neurons[system.index["1"]].rules == (Rule(SpikeRegex.exactly(3), 3, 0, 0),)


class TestGuardSyntax:
    @pytest.mark.parametrize(
        "text,terms",
        [
            ("a", ((1, 0),)),
            ("a^4", ((4, 0),)),
            ("a+", ((1, 1),)),
            ("(a^2)+", ((2, 2),)),
            ("a^3(a^2)*", ((3, 2),)),
            ("a^0(a^5)*", ((0, 5),)),
            ("a^1|a^3", ((1, 0), (3, 0),)),
            ("a+ | a^6", ((1, 1), (6, 0),)),
        ],
    )
    def test_parse(self, text, terms):
        assert parse_guard(text) == SpikeRegex(terms)

    def test_union_renders_with_pipe(self):
        assert render_guard(SpikeRegex(((1, 0), (3, 0)))) == "a^1|a^3"

    @given(spike_regexes())
    def test_guard_round_trip(self, guard):
        assert parse_guard(render_guard(guard)) == guard


class TestRoundTrip:
    def test_shipped_documents(self):
        docs = sorted(SYSTEMS_DIR.glob("*.snp"))
        assert docs, "no shipped documents found"
        for path in docs:
            system = parse_system(path.read_text())
            assert parse_system(serialize_system(system)) == system

    def test_transformed_sequential_has_five_declarations(self):
        target = eliminate_delays(generate(Sequential((3,)))).target
        document = serialize_system(target)
        assert document.count("neuron ") == 5
        assert parse_system(document) == target

    def test_shared_rules_render_as_one_rule_per_line(self):
        target = eliminate_delays(generate(Sequential((1, 2, 3, 4) * 10))).target
        rules = [rule for neuron in target.neurons for rule in neuron.rules]
        assert len({id(rule) for rule in rules}) < len(rules)
        lines = [f"system {target.name}"]
        for neuron in target.neurons:
            suffix = f" spikes={neuron.initial_spikes}" if neuron.initial_spikes else ""
            lines.append(f"neuron {neuron.id}{suffix}")
            lines.extend(f"rule {neuron.id}: {render_rule(rule)}" for rule in neuron.rules)
        lines.extend(f"syn {a} -> {b}" for a, b in sorted(target.synapses))
        lines.append(f"out {target.output}")
        assert serialize_system(target) == "\n".join(lines) + "\n"

    @pytest.mark.parametrize(
        "name, nid, message",
        [
            ("s", "a b", "neuron id 'a b'"),
            ("s", "", "neuron id ''"),
            ("two words", "n", "system name 'two words'"),
            ("my#sys", "n", "system name 'my#sys'"),
            ("", "n", "system name ''"),
        ],
    )
    def test_refuses_what_the_text_cannot_carry(self, name, nid, message):
        system = SnpSystem((Neuron(nid, 1, (Rule.semi_homogeneous(1),)),), frozenset(), nid, name)
        with pytest.raises(ValueError, match=message):
            serialize_system(system)

    def test_seeded_random_systems(self):
        rng = random.Random(0x5EED)
        for _ in range(200):
            system = random_system(rng)
            assert parse_system(serialize_system(system)) == system


class TestTraceRendering:
    def test_configuration_vector(self, relay):
        trace = run(relay, 10)
        assert format_trace(trace).splitlines()[2] == "C2 = ⟨0/0, 0/2, 0/0, 0⟩"
        assert format_trace(trace, ascii_brackets=True).splitlines()[2] == "C2 = <0/0, 0/2, 0/0, 0>"

    def test_environment_only_vector(self):
        trace = Trace((Configuration((), 0, 0),), True)
        assert format_trace(trace) == "C0 = ⟨0⟩"
        assert format_trace(trace, ascii_brackets=True) == "C0 = <0>"

    def test_paper_style_lines(self, relay):
        text = format_trace(run(relay, 10), TraceStyle.PAPER)
        lines = text.splitlines()
        assert lines[0] == "C0 = ⟨1/0, 0/0, 0/0, 0⟩"
        assert lines[-1] == "C5 = ⟨0/0, 0/0, 0/0, 1⟩"

    def test_table_style_join_target(self):
        target = eliminate_delays(generate(Join(3))).target
        text = format_trace(run(target, 50), TraceStyle.TABLE)
        rows = [line.split("\t") for line in text.splitlines()]
        assert rows[1] == ["t1", "0", "0", "2", "2", "0", "0", "0"]
        assert rows[5] == ["t5", "0", "0", "0", "0", "0", "0", "1"]

    def test_table_style_shows_countdowns_for_delayed_runs(self, relay):
        text = format_trace(run(relay, 10), TraceStyle.TABLE, system=relay)
        lines = text.splitlines()
        assert lines[0] == "step\t1\t2\t3\tenv"
        assert lines[3] == "t2\t0/0\t0/2\t0/0\t0"

    def test_machine_style(self, relay):
        text = format_trace(run(relay, 10), TraceStyle.MACHINE, system=relay)
        records = [json.loads(line) for line in text.splitlines()]
        assert records[0] == {"system": "relay", "neurons": ["1", "2", "3"]}
        assert records[3]["closed"] == [0, 2, 0]
        assert records[-1] == {"outcome": "halted", "at": 5}

    @given(simple_systems(), st.integers(0, 30))
    @settings(max_examples=examples(100))
    def test_machine_records_are_the_json_of_each_configuration(self, system, steps):
        trace = run(system, steps)
        records = [{"system": system.name, "neurons": list(system.ids)}]
        for c in trace.configurations:
            records.append(
                {
                    "tick": c.tick,
                    "spikes": [s.spikes for s in c.states],
                    "closed": [s.closed_remaining for s in c.states],
                    "pending": [s.pending_emission or None for s in c.states],
                    "environment": c.environment,
                }
            )
        if trace.halted:
            records.append({"outcome": "halted", "at": trace.final.tick})
        else:
            records.append({"outcome": "budget-exhausted"})
        expected = "\n".join(json.dumps(r, separators=(",", ":")) for r in records)
        assert format_trace(trace, TraceStyle.MACHINE, system=system) == expected

    def test_machine_style_writes_large_counts_in_full(self):
        system = SnpSystem((Neuron("n", 5000, ()),), frozenset(), "n", "big")
        assert format_trace(run(system, 3), TraceStyle.MACHINE).splitlines()[0] == (
            '{"tick":0,"spikes":[5000],"closed":[0],"pending":[null],"environment":0}'
        )

    def test_rendering_is_deterministic(self, relay):
        trace = run(relay, 10)
        for style in TraceStyle:
            assert format_trace(trace, style, system=relay) == format_trace(
                trace, style, system=relay
            )


class TestDot:
    def test_relay_graph(self, relay):
        dot = export_dot(relay)
        assert dot.count("shape=ellipse") == 3
        assert '"__env__"' in dot
        edges = [line for line in dot.splitlines() if '" -> "' in line]
        assert len(edges) == 3  # two synapses plus the environment edge
        assert '"3" -> "__env__";' in dot

    def test_single_neuron(self):
        system = SnpSystem((Neuron("only", 1, (Rule.semi_homogeneous(1),)),), frozenset(), "only")
        dot = export_dot(system)
        assert dot.count("shape=ellipse") == 1
        assert '"only" -> "__env__";' in dot
        assert 'label="only\\na\\na+ / a -> a"' in dot
        system = SnpSystem((Neuron("only", 2, (Rule.semi_homogeneous(1),)),), frozenset(), "only")
        dot = export_dot(system)
        assert 'label="only\\na^2\\na+ / a -> a"' in dot

    def test_environment_node_avoids_neuron_ids(self):
        system = parse_system(
            "neuron __env__ spikes=1\nrule __env__: a+ / a -> a\n"
            "neuron __env___\nrule __env___: a+ / a -> a\n"
            "syn __env___ -> __env__\nout __env__\n"
        )
        dot = export_dot(system)
        assert dot.count("shape=ellipse") == 2
        assert '"__env__" [shape=ellipse' in dot
        assert '"__env____" [shape=doublecircle, label="env"];' in dot
        assert '"__env__" -> "__env____";' in dot
        assert '"__env__" -> "__env__"' not in dot

    def test_gadget_ids_carry_provenance(self):
        target = eliminate_delays(generate(Sequential((3,)))).target
        dot = export_dot(target)
        for part in ("12-1", "12-2", "12-3", "12-exit"):
            assert f'"{part}"' in dot

    def test_rule_text_appears_in_labels(self, relay):
        assert "a+ / a -> a ; 2" in export_dot(relay)


def test_render_rule_forms():
    assert render_rule(Rule.semi_homogeneous(1, delay=2)) == "a+ / a -> a ; 2"
    assert render_rule(Rule(SpikeRegex.multiples(2), 2, 2)) == "(a^2)+ / a^2 -> a^2"
    assert render_rule(Rule(SpikeRegex.exactly(3), 3, 0)) == "a^3 / a^3 -> 0"
