"""Shapes produced by the routing instance builders."""

import pytest

from snpkit import (
    Iteration,
    Join,
    Rule,
    Sequential,
    SpikeRegex,
    Split,
    compose,
    generate,
    run,
    validate,
)


def test_sequential_single_delay():
    system = generate(Sequential((3,)))
    assert system.ids == ("11", "12")
    assert system.output == "12"
    assert system.neurons[system.index["12"]].rules == (Rule.semi_homogeneous(1, delay=3),)
    assert sum(n.initial_spikes for n in system.neurons) == 1
    assert validate(system) == []


def test_sequential_two_delays():
    system = generate(Sequential((2, 3)))
    assert system.ids == ("11", "12", "13")
    assert system.synapses == {("11", "12"), ("12", "13")}
    assert [n.rules[0].delay for n in system.neurons] == [0, 2, 3]


def test_join_holds_two_spikes():
    system = generate(Join(3))
    assert len(system.neurons) == 3
    assert sum(n.initial_spikes for n in system.neurons) == 2
    collector = system.neurons[system.index["13"]]
    assert collector.rules == (Rule(SpikeRegex.multiples(2), 2, 1, 3),)
    assert system.output == "13"


def test_split_branch_delays():
    system = generate(Split(d_left=3))
    assert system.ids == ("3", "4", "5", "o")
    assert system.neurons[system.index["4"]].rules[0].delay == 3
    assert system.neurons[system.index["5"]].rules[0].delay == 0
    trace = run(system, 50)
    assert trace.final.environment == 2  # both branches reach the environment

    both = generate(Split(d_left=2, d_right=4))
    assert both.neurons[both.index["4"]].rules[0].delay == 2
    assert both.neurons[both.index["5"]].rules[0].delay == 4


def test_iteration_placements():
    second = generate(Iteration(2, "second"))
    assert second.neurons[second.index["11"]].rules[0].delay == 0
    assert second.neurons[second.index["12"]].rules[0].delay == 2
    first = generate(Iteration(2, "first"))
    assert first.neurons[first.index["11"]].rules[0].delay == 2
    assert first.neurons[first.index["12"]].rules[0].delay == 0
    assert second.synapses == {("11", "12"), ("12", "11")}


def test_instance_argument_checks():
    with pytest.raises(ValueError):
        Sequential(())
    with pytest.raises(ValueError):
        Sequential((0,))
    with pytest.raises(ValueError):
        Iteration(0)
    with pytest.raises(ValueError):
        Iteration(2, "middle")
    with pytest.raises(ValueError):
        Join(0)
    with pytest.raises(ValueError):
        Split()
    with pytest.raises(ValueError):
        Split(d_left=0)
    with pytest.raises(TypeError):
        generate(object())


def test_compose_chains_outputs_to_entries():
    composite = compose([Sequential((2,)), Join(3)], name="pair")
    assert composite.name == "pair"
    # only the first construct keeps its spikes
    spiked = [n.id for n in composite.neurons if n.initial_spikes]
    assert spiked == ["c1-11"]
    # the first output feeds both join inputs
    assert ("c1-12", "c2-11") in composite.synapses
    assert ("c1-12", "c2-12") in composite.synapses
    assert composite.output == "c2-13"
    assert validate(composite) == []


def test_compose_rejects_nothing():
    with pytest.raises(ValueError):
        compose([])
