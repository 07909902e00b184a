"""Co-simulation verdicts and the neuron-count law."""

import random
import warnings

import pytest

from snpkit import (
    BatchOverlapWarning,
    Iteration,
    Join,
    Neuron,
    NondeterministicChoice,
    Rule,
    Sequential,
    SnpSystem,
    SpikeRegex,
    ValidationError,
    check_count_law,
    co_simulate,
    compose,
    eliminate_delays,
    env_trajectory,
    generate,
    verify,
)


def transformed(instance):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BatchOverlapWarning)
        return eliminate_delays(generate(instance))


class TestEnvTrajectory:
    def test_sequential_delay_three(self):
        assert env_trajectory(generate(Sequential((3,))), 10) == [0, 0, 0, 0, 0, 1]

    def test_empty_system(self):
        # its output neuron does not exist
        with pytest.raises(ValidationError, match="output neuron 'out' does not exist"):
            env_trajectory(SnpSystem((), frozenset(), "out"), 5)

    def test_iteration_period(self):
        env = env_trajectory(generate(Iteration(2, "second")), 12)
        bumps = [t for t in range(1, 13) if env[t] > env[t - 1]]
        assert bumps == [4, 8, 12]

    def test_negative_bound_rejected(self, relay):
        with pytest.raises(ValueError):
            env_trajectory(relay, -1)
        with pytest.raises(ValueError):
            co_simulate(relay, relay, -1)


class TestCoSimulate:
    def test_reflexive(self, relay):
        verdict = co_simulate(relay, relay, 100)
        assert verdict.r1_holds and verdict.r2_holds
        assert verdict.first_divergence is None
        assert verdict.equivalent

    def test_sequential_pair(self):
        result = transformed(Sequential((3,)))
        verdict = co_simulate(result.normalized_source, result.target, 100)
        assert (verdict.source_halt, verdict.target_halt) == (5, 5)
        assert (verdict.source_env_at_halt, verdict.target_env_at_halt) == (1, 1)
        assert verdict.r1_holds and verdict.r2_holds

    def test_two_delay_pair(self):
        result = transformed(Sequential((2, 3)))
        verdict = co_simulate(result.normalized_source, result.target, 100)
        assert (verdict.source_halt, verdict.target_halt) == (8, 8)
        assert verdict.equivalent

    def test_non_halting_pair_uses_trajectories(self):
        result = transformed(Iteration(4, "second"))
        verdict = co_simulate(result.normalized_source, result.target, 50)
        assert verdict.source_halt is None and verdict.target_halt is None
        assert verdict.r1_holds is None and verdict.r2_holds is None
        assert verdict.trajectory_equal_through == 50
        assert verdict.equivalent

    def test_one_side_halting_fails(self):
        halting = generate(Sequential((2,)))
        looping = generate(Iteration(2, "second"))
        verdict = co_simulate(halting, looping, 60)
        assert verdict.r1_holds is False and verdict.r2_holds is False
        assert not verdict.equivalent

    def test_divergence_is_located(self):
        # a two-tick loop feeds a neuron that stays closed for three ticks:
        # the original drops every other batch, the rewrite keeps them all
        hazardous = SnpSystem(
            (
                Neuron("A", 1, (Rule.semi_homogeneous(1),)),
                Neuron("B", 0, (Rule.semi_homogeneous(1),)),
                Neuron("S", 0, (Rule.semi_homogeneous(1, delay=3),)),
                Neuron("O", 0, (Rule.semi_homogeneous(1),)),
            ),
            frozenset({("A", "B"), ("B", "A"), ("B", "S"), ("S", "O")}),
            "O",
        )
        with pytest.warns(BatchOverlapWarning):
            result = eliminate_delays(hazardous)
        verdict = co_simulate(result.normalized_source, result.target, 60)
        assert verdict.first_divergence == (9, 1, 2)
        assert verdict.trajectory_equal_through == 8
        assert not verdict.equivalent

    def test_engine_errors_are_tagged(self, relay):
        ambiguous = SnpSystem(
            (Neuron("n", 1, (Rule.semi_homogeneous(1), Rule(SpikeRegex.exactly(1), 1))),),
            frozenset(),
            "n",
        )
        with pytest.raises(NondeterministicChoice) as err:
            co_simulate(relay, ambiguous, 10)
        assert err.value.system == "target"


class TestCountLaw:
    def test_two_delays(self):
        result = transformed(Sequential((2, 3)))
        assert result.added_count == 5
        assert check_count_law(result)

    def test_no_delays(self):
        system = SnpSystem(
            (Neuron("a", 1, (Rule.semi_homogeneous(1),)), Neuron("b", 0, ())),
            frozenset({("a", "b")}),
            "b",
        )
        result = eliminate_delays(system)
        assert result.added_count == 0
        assert check_count_law(result)

    def test_join(self):
        result = transformed(Join(3))
        assert result.added_count == 3
        assert check_count_law(result)

    def test_feeders_are_netted_out(self):
        result = transformed(Iteration(4, "first"))
        assert len(result.feeders) == 1
        assert result.added_count == 5  # the delay plus one feeder
        assert check_count_law(result)


def test_sequential_halting_tick_is_delay_plus_two():
    for d in range(1, 9):
        verdict = co_simulate(*_pair(Sequential((d,))), bound=100)
        assert verdict.source_halt == d + 2
        assert verdict.r1_holds and verdict.r2_holds


def _pair(instance):
    result = transformed(instance)
    return result.normalized_source, result.target


def test_halting_compositions_stay_equivalent():
    # chains of sequential and join constructs route a single wave, so the
    # rewrite must preserve both halting time and environment count
    rng = random.Random(7)
    for _ in range(25):
        parts = []
        for _ in range(rng.randint(2, 3)):
            if rng.random() < 0.5:
                parts.append(Sequential(tuple(rng.randint(1, 6) for _ in range(rng.randint(1, 2)))))
            else:
                parts.append(Join(rng.randint(1, 6)))
        result = eliminate_delays(compose(parts))
        assert result.hazards == ()
        verdict = co_simulate(result.normalized_source, result.target, 200)
        assert verdict.r1_holds and verdict.r2_holds and verdict.first_divergence is None


def test_verify_is_the_rewrite_then_co_simulation():
    # the pair the two calls give, with the source's first event and the
    # tick its run was settled: a lost batch, a halt, a recurrence
    hazardous = SnpSystem(
        (
            Neuron("A", 1, (Rule.semi_homogeneous(1),)),
            Neuron("B", 0, (Rule.semi_homogeneous(1),)),
            Neuron("S", 0, (Rule.semi_homogeneous(1, delay=3),)),
            Neuron("O", 0, (Rule.semi_homogeneous(1),)),
        ),
        frozenset({("A", "B"), ("B", "A"), ("B", "S"), ("S", "O")}),
        "O",
    )
    cases = [
        (hazardous, 60, ("lost", "S", 4), 18),
        (generate(Sequential((2, 3))), 200, None, 8),
        (generate(Iteration(3, "second")), 200, None, 11),
    ]
    for system, bound, event, settled in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            expected = eliminate_delays(system)
            result, verdict = verify(system, bound)
        assert result == expected
        assert verdict == co_simulate(result.normalized_source, result.target, bound)
        assert (verdict.source_event, verdict.source_settled) == (event, settled)
        messages = [str(w.message) for w in caught]
        assert messages == list(expected.hazards) * 2
    with pytest.raises(ValueError, match="bound must be >= 0"):
        verify(hazardous, -1)
