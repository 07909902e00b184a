"""Feeder normalization, gadget construction, and the full rewrite."""

import random
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from snpkit import (
    BatchOverlapWarning,
    Iteration,
    Join,
    Neuron,
    RewriteTooLarge,
    Rule,
    Sequential,
    SnpSystem,
    SpikeRegex,
    Split,
    UnsupportedDelayedRule,
    ValidationError,
    batch_hazards,
    co_simulate,
    compose,
    eliminate,
    eliminate_delays,
    env_trajectory,
    generate,
)
from snpkit.eliminate import IdAllocator, Provenance, build_gadget, normalize_initial
from snpkit.semantics import Kernel
from snpkit.textio import parse_system

from .conftest import (
    SYSTEMS_DIR,
    examples,
    fan_out_systems,
    iteration_instances,
    mostly_recurring,
    periodic_systems,
    random_instance,
    simple_systems,
    sweep_instances,
    two_rule_systems,
)


def forward(delay=0):
    return Rule.semi_homogeneous(1, delay=delay)


def transform_quietly(system):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BatchOverlapWarning)
        return eliminate_delays(system)


class TestNormalizeInitial:
    def test_untouched_when_no_delayed_spike_holder(self):
        system = generate(Sequential((3,)))
        normalized, feeders = normalize_initial(system)
        assert normalized == system
        assert feeders == ()

    def test_delayed_spike_holder_gets_a_feeder(self):
        system = generate(Iteration(3, "first"))
        normalized, feeders = normalize_initial(system)
        assert feeders == ("11-in",)
        assert normalized.neurons[normalized.index["11-in"]].initial_spikes == 1
        assert normalized.neurons[normalized.index["11"]].initial_spikes == 0
        assert ("11-in", "11") in normalized.synapses
        # events shift by exactly one tick behind the raw system
        raw = env_trajectory(system, 30)
        fed = env_trajectory(normalized, 31)
        assert fed[1:] == raw

    def test_two_delayed_spike_holders_get_two_feeders(self):
        system = SnpSystem(
            (
                Neuron("a", 1, (forward(delay=2),)),
                Neuron("b", 1, (forward(delay=3),)),
                Neuron("c", 0, (Rule(SpikeRegex.multiples(2), 2),)),
            ),
            frozenset({("a", "c"), ("b", "c")}),
            "c",
        )
        normalized, feeders = normalize_initial(system)
        assert len(feeders) == 2
        assert all(normalized.neurons[normalized.index[f]].initial_spikes == 1 for f in feeders)
        result = transform_quietly(system)
        verdict = co_simulate(result.normalized_source, result.target, 100)
        assert verdict.equivalent

    def test_rejects_invalid_systems(self):
        with pytest.raises(ValidationError):
            normalize_initial(SnpSystem((Neuron("1"),), frozenset({("1", "1")}), "1"))


class TestBuildGadget:
    # build_gadget returns (neurons, synapses): the multipliers, then the
    # drain, then the exit; the entry points are neurons[:max(d - 1, 1)]

    def test_single_spike_delay_three(self):
        neurons, synapses = build_gadget(1, 3, IdAllocator(), "12")
        assert [n.id for n in neurons] == ["12-1", "12-2", "12-3", "12-exit"]
        assert [n.id for n in neurons[:2]] == ["12-1", "12-2"]  # entries: the multipliers
        assert neurons[-1].id == "12-exit"
        rules = {n.id: n.rules[0] for n in neurons}
        assert rules["12-1"] == Rule(SpikeRegex.multiples(1), 1, 1)
        assert rules["12-3"] == Rule(SpikeRegex.multiples(1), 1, 1)
        assert rules["12-exit"] == Rule(SpikeRegex.multiples(2), 2, 1)
        assert synapses == {("12-1", "12-3"), ("12-2", "12-3"), ("12-3", "12-exit")}

    def test_two_spike_batches_delay_three(self):
        neurons, _ = build_gadget(2, 3, IdAllocator(), "13")
        assert [n.id for n in neurons] == ["13-1", "13-2", "13-3", "13-exit"]
        rules = {n.id: n.rules[0] for n in neurons}
        assert rules["13-1"] == Rule(SpikeRegex.multiples(2), 2, 2)
        assert rules["13-2"] == Rule(SpikeRegex.multiples(2), 2, 2)
        assert rules["13-3"] == Rule(SpikeRegex.multiples(2), 2, 1)
        assert rules["13-exit"] == Rule(SpikeRegex.multiples(2), 2, 1)

    def test_delay_one_degenerates_to_a_hop(self):
        neurons, synapses = build_gadget(1, 1, IdAllocator(), "12")
        assert [n.id for n in neurons] == ["12-1", "12-exit"]  # no multipliers
        assert [n.id for n in neurons[:1]] == ["12-1"]  # entries: the drain alone
        assert neurons[-1].id == "12-exit"
        rules = {n.id: n.rules[0] for n in neurons}
        assert rules["12-1"] == Rule(SpikeRegex.multiples(1), 1, 1)
        assert rules["12-exit"] == Rule(SpikeRegex.multiples(1), 1, 1)
        assert synapses == {("12-1", "12-exit")}

    def test_multipliers_share_one_rule(self):
        neurons, _ = build_gadget(1, 4, IdAllocator(), "12")
        assert [n.id for n in neurons[:3]] == ["12-1", "12-2", "12-3"]  # entries
        assert neurons[-2].id == "12-4"  # the drain
        assert neurons[-1].id == "12-exit"
        multiplier_rules = [n.rules[0] for n in neurons[:3]]
        assert all(rule is multiplier_rules[0] for rule in multiplier_rules)

    def test_gadgets_of_one_shape_share_their_rules(self):
        alloc = IdAllocator()
        first, _ = build_gadget(2, 3, alloc, "12")
        second, _ = build_gadget(2, 3, alloc, "13")
        assert [n.id for n in first] != [n.id for n in second]
        for a, b in zip(first, second):
            assert a.rules[0] is b.rules[0]

    def test_delay_zero_rejected(self):
        for d in (0, -1):
            with pytest.raises(ValueError, match="d >= 1"):
                build_gadget(1, d, IdAllocator(), "12")

    def test_allocator_dodges_taken_ids(self):
        alloc = IdAllocator(["12-1", "12-exit"])
        neurons, _ = build_gadget(1, 2, alloc, "12")
        assert [n.id for n in neurons] == ["12-1_2", "12-2", "12-exit_2"]
        assert neurons[0].id == "12-1_2"  # the entry: the one multiplier
        assert neurons[-1].id == "12-exit_2"  # the exit


class TestEliminateDelays:
    def test_neuron_counts(self):
        for instance, expected in [
            (Sequential((3,)), 5),
            (Sequential((2, 3)), 8),
            (Join(3), 6),
            (Split(d_left=3), 7),
        ]:
            result = eliminate_delays(generate(instance))
            assert len(result.target.neurons) == expected
            assert result.added_count == expected - len(result.normalized_source.neurons) + len(
                result.feeders
            )

    def test_target_is_delay_free(self):
        for instance in (Sequential((1, 4)), Join(2), Iteration(5, "first")):
            result = transform_quietly(generate(instance))
            assert all(
                rule.delay == 0 for n in result.target.neurons for rule in n.rules
            )

    def test_no_delays_means_identity(self):
        system = SnpSystem(
            (Neuron("a", 1, (forward(),)), Neuron("b", 0, (forward(),))),
            frozenset({("a", "b")}),
            "b",
        )
        result = eliminate_delays(system)
        assert result.target.neurons == system.neurons
        assert result.target.synapses == system.synapses
        assert result.target.output == system.output
        assert result.added_count == 0
        assert all(p.copied for p in result.provenance.values())

    def test_provenance_covers_everything_once(self):
        result = eliminate_delays(generate(Sequential((2, 3))))
        source_ids = {n.id for n in result.normalized_source.neurons}
        assert set(result.provenance) == {n.id for n in result.target.neurons}
        copied = {p.source for p in result.provenance.values() if p.copied}
        gadget_sources = {p.source for p in result.provenance.values() if not p.copied}
        assert copied | gadget_sources == source_ids
        assert copied & gadget_sources == set()
        # one gadget per delayed neuron: d-1 multipliers, a drain, an exit
        for src, d in (("12", 2), ("13", 3)):
            parts = [p for p in result.provenance.values() if p.source == src]
            roles = sorted(p.role for p in parts)
            assert roles == sorted(["multiplier"] * (d - 1) + ["drain", "exit"])

    def test_feeder_provenance(self):
        result = eliminate_delays(generate(Iteration(2, "first")))
        assert result.feeders == ("11-in",)
        prov = result.provenance["11-in"]
        assert prov.role == "feeder"
        assert prov.source == "11"

    def test_entry_fanout(self):
        source = generate(Sequential((4,)))
        result = eliminate_delays(source)
        plan_entries = [
            nid for nid, p in result.provenance.items() if p.source == "12" and p.role == "multiplier"
        ]
        rewired = {(a, b) for a, b in result.target.synapses if a == "11"}
        assert rewired == {("11", entry) for entry in plan_entries}
        assert len(rewired) == 3  # max(d-1, 1) for d=4

    def test_exit_takes_over_output_and_out_synapses(self):
        result = eliminate_delays(generate(Iteration(3, "second")))
        assert result.target.output == "12-exit"
        assert ("12-exit", "11") in result.target.synapses

    def test_locality_inversion(self):
        # deleting gadget parts and contracting them to their source neuron
        # reconstructs the normalized system
        for instance in (Sequential((2, 3)), Join(4), Split(d_left=2, d_right=5), Iteration(3, "first")):
            result = transform_quietly(generate(instance))
            normalized = result.normalized_source
            back = {
                tid: (tid if p.copied or p.role == "feeder" else p.source)
                for tid, p in result.provenance.items()
            }
            synapses = {
                (back[a], back[b]) for a, b in result.target.synapses if back[a] != back[b]
            }
            assert synapses == set(normalized.synapses)
            assert back[result.target.output] == normalized.output

    def test_rejects_unsupported_delayed_rules(self):
        producer = SnpSystem(
            (Neuron("n", 0, (Rule(SpikeRegex.multiples(2), 2, 2, 3),)),), frozenset(), "n"
        )
        with pytest.raises(UnsupportedDelayedRule):
            eliminate_delays(producer)
        mismatched = SnpSystem(
            (Neuron("n", 0, (Rule(SpikeRegex.multiples(2), 3, 1, 2),)),), frozenset(), "n"
        )
        with pytest.raises(UnsupportedDelayedRule):
            eliminate_delays(mismatched)
        multi_rule = SnpSystem(
            (Neuron("n", 0, (forward(delay=2), Rule(SpikeRegex.exactly(5), 5))),),
            frozenset(),
            "n",
        )
        with pytest.raises(UnsupportedDelayedRule):
            eliminate_delays(multi_rule)

    def test_propagates_validation_issues(self):
        with pytest.raises(ValidationError):
            eliminate_delays(SnpSystem((Neuron("1"),), frozenset({("1", "1")}), "1"))

    def test_refuses_a_rewrite_over_the_size_limit_before_building(self, monkeypatch):
        # each delay is under the limit, their sum is over it
        half = eliminate.MAX_ADDED_NEURONS // 2 + 1
        system = SnpSystem(
            (Neuron("a", 1, (forward(half),)), Neuron("b", 0, (forward(half),))),
            frozenset({("a", "b")}),
            "b",
        )
        monkeypatch.setattr(eliminate, "build_gadget", None)  # nothing may be built
        with pytest.raises(RewriteTooLarge, match=f"the delays sum to {2 * half}") as err:
            eliminate_delays(system)
        assert isinstance(err.value, ValueError)


def eager_provenance(result):
    """The provenance map built as the rewrite goes, neuron by neuron: the
    subnet ids come again from ``build_gadget`` with an allocator seeded as
    the rewrite's."""
    source = result.normalized_source
    alloc = IdAllocator(source.ids)
    expected = {}
    for neuron in source.neurons:
        delayed = [r for r in neuron.rules if r.delayed]
        if not delayed:
            if neuron.id in result.feeders:
                (fed,) = source.successors[source.index[neuron.id]]
                expected[neuron.id] = Provenance(source.neurons[fed].id, "feeder")
            else:
                expected[neuron.id] = Provenance(neuron.id)
            continue
        (rule,) = delayed
        neurons, _ = build_gadget(rule.consume, rule.delay, alloc, neuron.id)
        *multipliers, drain, exit_ = (n.id for n in neurons)
        for i, m in enumerate(multipliers, start=1):
            expected[m] = Provenance(neuron.id, "multiplier", i)
        expected[drain] = Provenance(neuron.id, "drain")
        expected[exit_] = Provenance(neuron.id, "exit")
    return expected


def test_provenance_is_built_on_first_read(monkeypatch):
    made = []

    def counted(*args):
        made.append(args)
        return Provenance(*args)

    monkeypatch.setattr(eliminate, "Provenance", counted)
    result = transform_quietly(generate(Iteration(3, "first")))
    assert made == [] and "provenance" not in result.__dict__
    provenance = result.provenance
    assert len(made) == len(result.target.neurons)
    assert result.provenance is provenance  # built once


def test_provenance_is_the_map_built_as_the_rewrite_goes():
    rng = random.Random(9)
    systems = [generate(instance) for instance in sweep_instances() + iteration_instances()]
    systems += [
        compose([random_instance(rng) for _ in range(rng.randint(2, 4))], name=f"composite-{i}")
        for i in range(150)
    ]
    systems += [parse_system(path.read_text()) for path in sorted(SYSTEMS_DIR.glob("*.snp"))]
    for system in systems:
        result = transform_quietly(system)
        assert list(result.provenance.items()) == list(eager_provenance(result).items())
        assert list(result.provenance) == list(result.target.ids)


class TestBatchHazards:
    def test_generated_instances_are_quiet(self):
        instances = [Sequential((3,)), Sequential((2, 3)), Join(4), Split(d_left=2), Iteration(3, "second")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", BatchOverlapWarning)
            for instance in instances:
                result = eliminate_delays(generate(instance))
                assert result.hazards == ()

    def test_fast_loop_feeding_a_slow_neuron(self):
        system = SnpSystem(
            (
                Neuron("A", 1, (forward(),)),
                Neuron("B", 0, (forward(),)),
                Neuron("S", 0, (forward(delay=3),)),
                Neuron("O", 0, (forward(),)),
            ),
            frozenset({("A", "B"), ("B", "A"), ("B", "S"), ("S", "O")}),
            "O",
        )
        with pytest.warns(BatchOverlapWarning):
            result = eliminate_delays(system)
        assert result.hazards
        verdict = co_simulate(result.normalized_source, result.target, 60)
        assert not verdict.equivalent
        assert verdict.first_divergence is not None

    def test_staggered_paths_into_a_delayed_neuron(self):
        # a split whose branches re-merge on a delayed collector
        system = SnpSystem(
            (
                Neuron("s", 1, (forward(),)),
                Neuron("fast", 0, (forward(),)),
                Neuron("slow1", 0, (forward(),)),
                Neuron("slow2", 0, (forward(),)),
                Neuron("d", 0, (forward(delay=2),)),
            ),
            frozenset(
                {("s", "fast"), ("s", "slow1"), ("slow1", "slow2"), ("fast", "d"), ("slow2", "d")}
            ),
            "d",
        )
        [hazard] = batch_hazards(system)
        assert hazard.startswith("neuron d is closed when a spike batch reaches it at tick 3;")

    def test_multi_spike_source_upstream(self):
        system = SnpSystem(
            (Neuron("a", 2, (forward(),)), Neuron("s", 0, (forward(delay=2),))),
            frozenset({("a", "s")}),
            "s",
        )
        [hazard] = batch_hazards(system)
        assert hazard.startswith("neuron s is closed when a spike batch reaches it at tick 2;")

    def test_iteration_loop_through_the_delayed_neuron_is_fine(self):
        assert batch_hazards(generate(Iteration(4, "second"))) == []

    def test_composition_with_split_upstream_is_quiet(self):
        # each branch of the split carries one batch; none reaches a closed
        # neuron, so the rewrite is exact
        composite = compose([Split(d_left=3), Sequential((2,))])
        assert batch_hazards(composite) == []
        result = eliminate_delays(composite)
        assert co_simulate(result.normalized_source, result.target, 200).equivalent

    def test_reseeded_loop_warns_and_diverges(self):
        # a loop fed by another loop merges waves; the merged pair is then
        # metered out one spike per tick into the delayed neuron
        composite = compose([Iteration(4, "first"), Iteration(1, "second")])
        [hazard] = batch_hazards(composite)
        assert hazard.startswith("neuron c2-12 is closed when a spike batch reaches it at tick 14;")
        result = transform_quietly(composite)
        verdict = co_simulate(result.normalized_source, result.target, 200)
        assert not verdict.equivalent

    def test_simultaneous_accumulation_on_a_metering_hop(self):
        # equal-length branches pile two spikes on a one-per-tick hop, which
        # staggers them into the delayed neuron behind it
        system = SnpSystem(
            (
                Neuron("s", 1, (forward(),)),
                Neuron("x", 0, (forward(),)),
                Neuron("y", 0, (forward(),)),
                Neuron("u", 0, (forward(),)),
                Neuron("d", 0, (forward(delay=2),)),
            ),
            frozenset({("s", "x"), ("s", "y"), ("x", "u"), ("y", "u"), ("u", "d")}),
            "d",
        )
        [hazard] = batch_hazards(system)
        assert hazard.startswith("neuron d is closed when a spike batch reaches it at tick 4;")
        result = transform_quietly(system)
        verdict = co_simulate(result.normalized_source, result.target, 60)
        assert not verdict.equivalent

    def test_merging_collector_does_not_warn(self):
        # a join collector absorbs both spikes in one firing, so nothing
        # downstream staggers
        composite = compose([Join(2), Sequential((3,))])
        assert batch_hazards(composite) == []
        result = eliminate_delays(composite)
        verdict = co_simulate(result.normalized_source, result.target, 200)
        assert verdict.r1_holds and verdict.r2_holds

    def test_loops_of_different_length_queue_a_batch(self):
        # n0(d=2) -> {n1, n2}, n2 -> n1, {n1, n2} -> n0: no batch reaches n0
        # while it is closed, but two batches arrive a tick apart and the
        # second waits out the closed window in the source only
        system = SnpSystem(
            (
                Neuron("n0", 1, (forward(delay=2),)),
                Neuron("n1", 0, (forward(),)),
                Neuron("n2", 0, (forward(),)),
            ),
            frozenset({("n0", "n1"), ("n0", "n2"), ("n2", "n1"), ("n1", "n0"), ("n2", "n0")}),
            "n1",
        )
        with pytest.warns(BatchOverlapWarning):
            result = eliminate_delays(system)
        [hazard] = result.hazards
        assert hazard.startswith("neuron n0 fires at tick 6 with a batch still queued;")
        verdict = co_simulate(result.normalized_source, result.target, 200)
        assert not verdict.equivalent

    def test_simultaneous_batches_queue_on_a_delayed_neuron(self):
        # s -> {x, y} -> d -> o: d receives two spikes at once and consumes
        # one per firing; nothing is lost, but the second spike leaves d
        # after its closed window in the source and at once in the target
        system = SnpSystem(
            (
                Neuron("s", 1, (forward(),)),
                Neuron("x", 0, (forward(),)),
                Neuron("y", 0, (forward(),)),
                Neuron("d", 0, (forward(delay=2),)),
                Neuron("o", 0, (forward(),)),
            ),
            frozenset({("s", "x"), ("s", "y"), ("x", "d"), ("y", "d"), ("d", "o")}),
            "o",
        )
        with pytest.warns(BatchOverlapWarning):
            result = eliminate_delays(system)
        [hazard] = result.hazards
        assert hazard.startswith("neuron d fires at tick 3 with a batch still queued;")
        verdict = co_simulate(result.normalized_source, result.target, 60)
        assert (verdict.source_halt, verdict.target_halt) == (9, 7)

    def test_no_delayed_neuron_needs_no_run(self):
        # a run would meet this tie at tick 1 and report it undecided
        tied = SnpSystem(
            (Neuron("n", 1, (forward(), Rule(SpikeRegex.exactly(1), 1))),), frozenset(), "n"
        )
        assert batch_hazards(tied) == []

    def test_tie_is_undecided(self):
        tied = SnpSystem(
            (
                Neuron("n", 1, (forward(), Rule(SpikeRegex.exactly(1), 1))),
                Neuron("d", 0, (forward(delay=2),)),
            ),
            frozenset({("n", "d")}),
            "d",
        )
        assert batch_hazards(tied) == ["undecided at tick 1: neuron n has several enabled rules"]

    def test_growth_above_the_floor_recurs(self):
        # n3 gains a spike every tick, so no configuration repeats, but its
        # guard a+ decides on nothing above one spike; the delayed neuron n1
        # never fires
        growing = SnpSystem(
            (
                Neuron("n0", 0, (forward(),)),
                Neuron("n1", 0, (forward(delay=1),)),
                Neuron("n2", 1, (forward(),)),
                Neuron("n3", 0, (forward(),)),
            ),
            frozenset({("n0", "n3"), ("n2", "n3"), ("n3", "n0"), ("n3", "n2")}),
            "n1",
        )
        assert batch_hazards(growing) == []

    @pytest.mark.parametrize("spikes, decided", [(8190, True), (8191, False), (8195, False)])
    def test_checks_start_at_the_neuron_count(self, spikes, decided):
        # t spends its spikes one a tick beside the loop of a and b, so the
        # run repeats from tick ``spikes`` on.  The check starts at tick 4,
        # the neuron count, and saves the state at ticks 2^m - 2 from 6 on:
        # the save at tick 8,190 proves a repeat from there by tick 8,192,
        # and the next save, at 16,382, comes after the 10,000-tick budget
        late = SnpSystem(
            (
                Neuron("t", spikes, (forward(),)),
                Neuron("a", 1, (forward(),)),
                Neuron("b", 0, (forward(),)),
                Neuron("d", 0, (forward(delay=2),)),
            ),
            frozenset({("a", "b"), ("b", "a")}),
            "a",
        )
        undecided = (
            "undecided at tick 10000: no halt and no recurrence of the source was proved within 10000 ticks"
        )
        assert batch_hazards(late) == ([] if decided else [undecided])

    def test_unbounded_growth_is_undecided(self, monkeypatch):
        # a and b fire into each other and into c, whose count grows below
        # the single count its guard accepts, so the run never recurs; the
        # delayed neuron d never fires.  Memory stays flat however long the
        # check runs.
        growing = SnpSystem(
            (
                Neuron("a", 1, (forward(),)),
                Neuron("b", 1, (forward(),)),
                Neuron("c", 0, (Rule(SpikeRegex.exactly(10**6), 1),)),
                Neuron("d", 0, (forward(delay=1),)),
            ),
            frozenset({("a", "b"), ("b", "a"), ("a", "c"), ("b", "c")}),
            "d",
        )
        peaks = []
        for budget in (1_000, eliminate._HAZARD_TICKS):
            monkeypatch.setattr(eliminate, "_HAZARD_TICKS", budget)
            tracemalloc.start()
            try:
                [hazard] = batch_hazards(growing)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert hazard == (
                f"undecided at tick {budget}: no halt and no recurrence of the source "
                f"was proved within {budget} ticks"
            )
        assert peaks[1] < peaks[0] * 1.5 + 4096, peaks


@settings(max_examples=examples(300), deadline=None)
@given(st.one_of(simple_systems(), fan_out_systems()))
def test_no_hazard_means_equivalent(system):
    try:
        result = transform_quietly(system)
    except UnsupportedDelayedRule:
        return
    if not result.hazards:
        assert co_simulate(result.normalized_source, result.target, 100).equivalent


@settings(max_examples=examples(300), deadline=None)
@given(mostly_recurring(st.one_of(periodic_systems(), two_rule_systems()), events=False))
def test_no_hazard_means_no_event_in_a_long_run(system):
    # a recurrence must also repeat the kernel's "queued" test, which reads
    # the count a delayed rule leaves, not the count the recurrence compares
    if batch_hazards(system) or not any(r.delayed for n in system.neurons for r in n.rules):
        return
    kernel = Kernel(system)
    for _ in kernel.ticks(2_000):
        pass
    assert kernel.event is None
