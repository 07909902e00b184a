"""Engine behaviour: rule enabling, the three-phase step, halting, runs."""

import pytest
from hypothesis import given, settings

from snpkit import (
    Configuration,
    Neuron,
    NeuronState,
    NondeterministicChoice,
    Rule,
    SnpSystem,
    SpikeRegex,
    ValidationError,
    is_halting,
    run,
    step,
    validate,
)
from snpkit.semantics import enabled_rules, initial_configuration

from .conftest import assert_trace_invariants, examples, simple_systems


def forward(delay=0):
    return Rule.semi_homogeneous(1, delay=delay)


class TestEnabledRules:
    def test_single_spike_fires(self):
        neuron = Neuron("1", 0, (forward(),))
        assert enabled_rules(neuron, NeuronState(spikes=1)) == [0]

    def test_closed_neuron_never_fires(self):
        neuron = Neuron("1", 0, (forward(delay=2),))
        assert enabled_rules(neuron, NeuronState(1, 2, pending_emission=1)) == []

    def test_even_batch_guard(self):
        neuron = Neuron("1", 0, (Rule(SpikeRegex.multiples(2), 2),))
        assert enabled_rules(neuron, NeuronState(4)) == [0]
        assert enabled_rules(neuron, NeuronState(3)) == []

    def test_pending_emission_only_while_closed(self):
        with pytest.raises(ValueError, match="exactly while closed"):
            NeuronState(0, 0, 1)

    def test_guard_match_without_enough_spikes(self):
        # guard matches 1 but the rule eats 2: not enabled on one spike
        neuron = Neuron("1", 0, (Rule(SpikeRegex.multiples(1), 2),))
        assert enabled_rules(neuron, NeuronState(1)) == []


class TestStep:
    def test_relay_firing_closes_the_neuron(self, relay):
        c1 = step(relay, step(relay, initial_configuration(relay)))
        assert [(s.spikes, s.closed_remaining) for s in c1.states] == [(0, 0), (0, 2), (0, 0)]

    def test_relay_release_on_reopen(self, relay):
        trace = run(relay, 10)
        c3, c4 = trace.configurations[3], trace.configurations[4]
        assert [(s.spikes, s.closed_remaining) for s in c3.states] == [(0, 0), (0, 1), (0, 0)]
        assert [(s.spikes, s.closed_remaining) for s in c4.states] == [(0, 0), (0, 0), (1, 0)]

    def test_quiescent_configuration_is_a_fixed_point(self, relay):
        config = Configuration(tuple(NeuronState(0) for _ in relay.neurons), 7, 12)
        after = step(relay, config)
        assert after == Configuration(config.states, 7, 13)

    def test_forgetting_rule_consumes_without_emitting(self):
        system = SnpSystem(
            (
                Neuron("a", 2, (Rule(SpikeRegex.multiples(1), 2, 0),)),
                Neuron("b", 0, (forward(),)),
            ),
            frozenset({("a", "b")}),
            "b",
        )
        after = step(system, initial_configuration(system))
        assert [s.spikes for s in after.states] == [0, 0]
        assert after.environment == 0

    def test_delivery_to_closed_neuron_is_lost(self):
        # the spike routed through "hop" reaches sink exactly when sink
        # enters its closed window, so it evaporates
        system = SnpSystem(
            (
                Neuron("early", 1, (forward(),)),
                Neuron("late", 2, (Rule(SpikeRegex.exactly(2), 1),)),
                Neuron("hop", 0, (forward(),)),
                Neuron("sink", 0, (forward(delay=3),)),
            ),
            frozenset({("early", "sink"), ("late", "hop"), ("hop", "sink")}),
            "sink",
        )
        trace = run(system, 10)
        sink = [c.states[3] for c in trace.configurations]
        assert sink[2].closed_remaining == 3
        assert all(s.spikes == 0 for s in sink[2:])
        assert trace.halted and trace.final.tick == 5
        assert trace.final.environment == 1

    def test_drain_meters_one_batch_per_tick(self):
        # in the rewritten two-delay chain, the second drain holds two spikes
        # and hands them to the exit one per tick
        from snpkit import Sequential, eliminate_delays, generate

        target = eliminate_delays(generate(Sequential((2, 3)))).target
        c6 = run(target, 10).configurations[6]
        assert [s.spikes for s in c6.states] == [0, 0, 0, 0, 0, 0, 1, 1]
        c7 = step(target, c6)
        assert [s.spikes for s in c7.states] == [0, 0, 0, 0, 0, 0, 0, 2]
        assert c7.environment == 0

    def test_nondeterministic_tie_is_an_error(self):
        system = SnpSystem(
            (Neuron("n", 1, (forward(), Rule(SpikeRegex.exactly(1), 1))),),
            frozenset(),
            "n",
        )
        with pytest.raises(NondeterministicChoice) as err:
            step(system, initial_configuration(system))
        assert err.value.neuron == "n"
        assert err.value.tick == 1


class TestHalting:
    def test_final_relay_configuration_halts(self, relay):
        trace = run(relay, 10)
        assert is_halting(relay, trace.final)

    def test_closed_neuron_prevents_halting(self, relay):
        c2 = run(relay, 10).configurations[2]
        assert not is_halting(relay, c2)

    def test_enabled_rule_prevents_halting(self):
        system = SnpSystem((Neuron("n", 2, (Rule(SpikeRegex.multiples(2), 2),)),), frozenset(), "n")
        assert not is_halting(system, initial_configuration(system))

    def test_loaded_exit_neuron_prevents_halting(self):
        # the rewritten single-delay chain is open everywhere at tick 4 but
        # its exit holds the two spikes it needs to fire
        from snpkit import Sequential, eliminate_delays, generate

        target = eliminate_delays(generate(Sequential((3,)))).target
        c4 = run(target, 10).configurations[4]
        assert all(s.closed_remaining == 0 for s in c4.states)
        assert not is_halting(target, c4)


class TestRun:
    def test_relay_golden_run(self, relay):
        trace = run(relay, 100)
        assert trace.halted and trace.final.tick == 5
        assert trace.final.environment == 1

    def test_budget_exhausted(self, relay):
        trace = run(relay, 3)
        assert not trace.halted
        assert len(trace.configurations) == 4

    def test_halting_at_tick_zero(self):
        system = SnpSystem((Neuron("n", 0, (forward(),)),), frozenset(), "n")
        trace = run(system, 5)
        assert trace.halted and trace.final.tick == 0
        assert len(trace.configurations) == 1

    def test_empty_system_is_refused(self):
        # its output neuron does not exist
        with pytest.raises(ValidationError, match="output neuron 'out' does not exist"):
            run(SnpSystem((), frozenset(), "out"), 5)

    def test_looping_system_exhausts_its_budget(self):
        from snpkit import Iteration, generate

        trace = run(generate(Iteration(2, "second")), 20)
        assert not trace.halted
        env = [c.environment for c in trace.configurations]
        bumps = [t for t in range(1, 21) if env[t] > env[t - 1]]
        assert bumps == [4, 8, 12, 16, 20]

    def test_runs_are_reproducible(self, relay):
        assert run(relay, 50) == run(relay, 50)

    def test_negative_budget_rejected(self, relay):
        with pytest.raises(ValueError):
            run(relay, -1)


class TestValidate:
    def test_relay_is_clean(self, relay):
        assert validate(relay) == []

    def test_self_loop(self):
        system = SnpSystem((Neuron("1"),), frozenset({("1", "1")}), "1")
        assert "self-loop on neuron 1" in validate(system)

    def test_unknown_output(self):
        system = SnpSystem((Neuron("1"), Neuron("2"), Neuron("3")), frozenset(), "99")
        assert validate(system) == ["output neuron '99' does not exist"]

    def test_dangling_synapse(self):
        system = SnpSystem((Neuron("1"),), frozenset({("1", "ghost")}), "1")
        assert "synapse 1 -> ghost names unknown neuron ghost" in validate(system)

    def test_duplicate_ids_and_negative_spikes(self):
        system = SnpSystem((Neuron("1"), Neuron("1", -2)), frozenset(), "1")
        issues = validate(system)
        assert "neuron id 1 declared more than once" in issues
        assert "neuron 1 has a negative initial spike count" in issues

    def test_rule_invariants(self):
        bad = Neuron(
            "n",
            0,
            (
                Rule(SpikeRegex.multiples(1), 0, 0),  # consumes nothing
                Rule(SpikeRegex.multiples(1), 1, 2),  # produces more than it eats
                Rule(SpikeRegex.multiples(1), 1, 0, 3),  # delayed forgetting
                Rule(SpikeRegex.multiples(1), 1, -1),  # negative production
                Rule(SpikeRegex.multiples(1), 1, 1, -1),  # negative delay
            ),
        )
        issues = validate(SnpSystem((bad,), frozenset(), "n"))
        assert [i.split(":")[0] for i in issues] == [
            "rule 0 of neuron n",
            "rule 1 of neuron n",
            "rule 2 of neuron n",
            "rule 3 of neuron n",
            "rule 4 of neuron n",
        ]
        assert issues[3].endswith("negative production")
        assert issues[4].endswith("negative delay")


def test_constructors_store_their_arguments_as_given():
    rules = (forward(),)
    neurons = (Neuron("a", 1, rules), Neuron("b", 0, rules))
    synapses = frozenset({("a", "b")})
    system = SnpSystem(neurons, synapses, "b")
    assert system.neurons is neurons
    assert system.synapses is synapses
    assert neurons[0].rules is rules
    assert not hasattr(neurons[0], "__dict__")  # slotted


@given(simple_systems())
@settings(max_examples=examples(80))
def test_trace_invariants_on_random_systems(system):
    trace = run(system, 40)
    assert_trace_invariants(system, trace)


@given(simple_systems())
@settings(max_examples=examples(30))
def test_environment_never_decreases(system):
    tr = run(system, 40)
    env = [c.environment for c in tr.configurations]
    assert env == sorted(env)
