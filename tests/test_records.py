"""The records: ``Rule`` and ``SpikeRegex`` are slot classes, the other eleven
are ``NamedTuple``s.  Each keeps its constructor, field names, defaults,
validation messages, repr, value equality and hashing, and immutability,
and survives ``pickle`` and ``copy.deepcopy``."""

import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from snpkit import (
    Configuration,
    Iteration,
    Join,
    Neuron,
    NeuronState,
    Rule,
    Sequential,
    SnpSystem,
    SpikeRegex,
    Split,
    Trace,
    TransformResult,
    Verdict,
)

GUARD = SpikeRegex(((1, 1),))
RULE = Rule(GUARD, 1)
NEURON = Neuron("a", 1, (RULE,))
SYSTEM = SnpSystem((NEURON,), frozenset(), "a")
STATE = NeuronState(1)
CONFIG = Configuration((STATE,))

# (record, every field in order with a value, the defaults of those that have one)
RECORDS = [
    (SpikeRegex, {"terms": ((1, 1), (3, 0))}, {}),
    (Rule, {"guard": GUARD, "consume": 2, "produce": 1, "delay": 3}, {"produce": 1, "delay": 0}),
    (Neuron, {"id": "a", "initial_spikes": 1, "rules": (RULE,)}, {"initial_spikes": 0, "rules": ()}),
    (SnpSystem, {"neurons": (NEURON,), "synapses": frozenset({("a", "b")}), "output": "a", "name": "s"}, {"name": "system"}),
    (
        NeuronState,
        {"spikes": 1, "closed_remaining": 2, "pending_emission": 1},
        {"closed_remaining": 0, "pending_emission": 0},
    ),
    (Configuration, {"states": (STATE,), "environment": 2, "tick": 3}, {"environment": 0, "tick": 0}),
    (Trace, {"configurations": (CONFIG,), "halted": True}, {}),
    (
        TransformResult,
        {
            "normalized_source": SYSTEM,
            "target": SYSTEM,
            "feeders": ("f",),
            "gadgets": {"a": ("a-1", "a-exit")},
            "delays": (1,),
            "added_count": 1,
            "hazards": ("h",),
        },
        {"hazards": ()},
    ),
    (
        Verdict,
        {
            "source_halt": 5,
            "target_halt": 5,
            "r1_holds": True,
            "r2_holds": True,
            "source_env_at_halt": 1,
            "target_env_at_halt": 1,
            "trajectory_equal_through": 9,
            "first_divergence": None,
            "bound": 9,
            "source_event": ("lost", "a", 2),
            "source_settled": 5,
        },
        {},
    ),
    (Sequential, {"delays": (1, 2)}, {}),
    (Iteration, {"d": 2, "delay_on": "first"}, {"delay_on": "second"}),
    (Join, {"d": 2}, {}),
    (Split, {"d_left": 1, "d_right": 2}, {"d_left": None, "d_right": None}),
]
TUPLE_RECORDS = [case for case in RECORDS if case[0] not in (Rule, SpikeRegex)]


def over(cases):
    return pytest.mark.parametrize(
        "record, fields, defaults", cases, ids=[record.__name__ for record, _, _ in cases]
    )


records = over(RECORDS)


@records
def test_construction_by_position_and_by_keyword(record, fields, defaults):
    by_position = record(*fields.values())
    by_keyword = record(**fields)
    for value in (by_position, by_keyword):
        assert {name: getattr(value, name) for name in fields} == fields
    assert record.__match_args__ == tuple(fields)


@records
def test_defaults(record, fields, defaults):
    # each default left out alone, but a closed NeuronState needs both of its
    # own given (and a Split one of its two)
    groups = [defaults] if record is NeuronState else [{name: d} for name, d in defaults.items()]
    for group in groups:
        value = record(**{k: v for k, v in fields.items() if k not in group})
        assert {name: getattr(value, name) for name in group} == group


@records
def test_equality_and_hashing_by_value(record, fields, defaults):
    value, twin = record(**fields), record(**copy.deepcopy(fields))
    assert value == twin and not value != twin and value is not twin
    if record is TransformResult:  # a dict field, so unhashable
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(twin) == hash(tuple(fields.values()))


def test_unequal_values():
    assert SpikeRegex(((1, 1),)) != SpikeRegex(((2, 2),))
    assert Rule(GUARD, 1) != Rule(GUARD, 1, delay=1)
    assert Neuron("a") != Neuron("b")
    assert Iteration(2) != Iteration(2, "first")


@over(TUPLE_RECORDS)
def test_tuple_records_equal_a_plain_tuple_of_their_values(record, fields, defaults):
    value = record(**fields)
    assert isinstance(value, tuple)
    assert value == tuple(fields.values()) and list(value) == list(fields.values())


@pytest.mark.parametrize("value", [GUARD, RULE], ids=["SpikeRegex", "Rule"])
def test_slot_records_equal_only_their_own_class(value):
    values = tuple(getattr(value, name) for name in value.__slots__)
    assert not isinstance(value, tuple) and value != values
    assert value.__eq__(values) is NotImplemented
    assert not hasattr(value, "__dict__")


@records
def test_assignment_is_refused(record, fields, defaults):
    value = record(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        if name in fields:
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert {name: getattr(value, name) for name in fields} == fields


@records
def test_pickle_and_deepcopy_round_trip(record, fields, defaults):
    value = record(**fields)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is record and twin == value and twin is not value


def test_only_snp_system_has_an_instance_dict():
    # it keeps its cached properties there; TransformResult, the other record
    # with a dict field, is a plain NamedTuple
    assert [record for record, fields, _ in RECORDS if hasattr(record(**fields), "__dict__")] == [SnpSystem]
    assert TransformResult.__mro__ == (TransformResult, tuple, object)


def test_cached_properties_live_beside_the_fields():
    system = SnpSystem((NEURON, Neuron("b")), frozenset({("a", "b")}), "b")
    assert system.index == {"a": 0, "b": 1} and system.index is system.index
    assert "index" in system.__dict__ and len(system) == 4
    with pytest.raises(AttributeError):
        system.index = {}
    assert pickle.loads(pickle.dumps(system)).successors == ((1,), ())


def test_exact_repr():
    assert repr(RULE) == "Rule(guard=SpikeRegex(terms=((1, 1),)), consume=1, produce=1, delay=0)"
    assert repr(NeuronState(4, 2, 1)) == "NeuronState(spikes=4, closed_remaining=2, pending_emission=1)"
    SYSTEM.index  # a cached property does not show
    assert repr(SYSTEM) == (
        "SnpSystem(neurons=(Neuron(id='a', initial_spikes=1, rules=(Rule(guard=SpikeRegex("
        "terms=((1, 1),)), consume=1, produce=1, delay=0),)),), synapses=frozenset(), "
        "output='a', name='system')"
    )
    assert repr(Split(d_right=3)) == "Split(d_left=None, d_right=3)"


def test_a_guard_is_canonical_on_construction():
    guard = SpikeRegex([(3, 0), (1, 1), (1, 1)])
    assert guard.terms == ((1, 1), (3, 0)) and guard == SpikeRegex(((3, 0), (1, 1)))
    assert pickle.loads(pickle.dumps(guard)).terms == guard.terms


def test_pattern_matching():
    match RULE:
        case Rule(SpikeRegex(((offset, period),)), consume, produce, delay):
            assert (offset, period, consume, produce, delay) == (1, 1, 1, 1, 0)
        case _:
            pytest.fail("no match")
    match Iteration(3):
        case Iteration(d, delay_on):
            assert (d, delay_on) == (3, "second")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: SpikeRegex(()), "a spike guard needs at least one term"),
        (lambda: SpikeRegex(((2, 0), (-1, 3))), "negative term (-1, 3) in spike guard"),
        (lambda: NeuronState(1, 2, 0), "pending emission must be a positive spike count"),
        (lambda: NeuronState(1, 0, 1), "pending emission must be present exactly while closed"),
        (lambda: NeuronState(1)._replace(pending_emission=1), "pending emission must be present exactly while closed"),
        (lambda: Sequential([]), "sequential routing needs at least one delay >= 1"),
        (lambda: Sequential([2, 0]), "sequential routing needs at least one delay >= 1"),
        (lambda: Iteration(0), "iteration delay must be >= 1"),
        (lambda: Iteration(1, "third"), "delay_on must be 'first' or 'second'"),
        (lambda: Iteration(2)._replace(d=0), "iteration delay must be >= 1"),
        (lambda: Join(0), "join delay must be >= 1"),
        (lambda: Split(), "split routing needs a delay on at least one branch"),
        (lambda: Split(0, 2), "split delays must be >= 1"),
        (lambda: Split(d_right=2)._replace(d_right=None), "split routing needs a delay on at least one branch"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_a_sequential_takes_any_iterable_of_delays():
    assert Sequential([1, 2]).delays == (1, 2) == Sequential(iter((1, 2))).delays
    assert Sequential((1,))._replace(delays=[3]).delays == (3,)


def test_importing_snpkit_leaves_dataclasses_out():
    src = Path(__file__).resolve().parents[1] / "src"
    code = "import sys, snpkit, snpkit.cli; assert 'dataclasses' not in sys.modules, 'dataclasses'"
    env = {**os.environ, "PYTHONPATH": str(src)}
    # -S: no site-packages, whose .pth files could import dataclasses themselves
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
