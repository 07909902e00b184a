"""The event-driven kernel behind ``env_trajectory``, ``co_simulate`` and
every ``snpkit`` command, differential-tested against ``run``: the loop over
``step`` and ``is_halting`` that defines the semantics, independent of the
kernel."""

import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snpkit import (
    Neuron,
    NondeterministicChoice,
    Rule,
    SnpSystem,
    SpikeRegex,
    UnsupportedDelayedRule,
    ValidationError,
    batch_hazards,
    co_simulate,
    env_trajectory,
    parse_system,
    run,
    step,
    verify,
)
from snpkit.semantics import Kernel, Recurrence, frames, initial_configuration
from snpkit.textio import TraceStyle, trace_lines

from .conftest import (
    SYSTEMS_DIR,
    fan_out_systems,
    mostly_recurring,
    periodic_systems,
    simple_systems,
    two_rule_systems,
)

systems = st.one_of(simple_systems(), two_rule_systems())
# three draws of four recur by construction, so that most reach a proof
# (329 to 386 of about 440 examples of the frames property, 163 to 178 of
# about 210 of the machine-lines one, in three counts); the rest mostly
# halt or tie before one
past_a_proof = mostly_recurring(st.one_of(systems, periodic_systems(), fan_out_systems()))


def outcome(fn, *args):
    """The result of ``fn``, or the neuron, tick and side of its tie."""
    try:
        return fn(*args)
    except NondeterministicChoice as err:
        return ("tie", err.neuron, err.tick, err.system)


def reference_verdict(source, target, bound):
    """Halting ticks, counts at halt and first divergence, from the full
    reference traces of the source and then the target."""
    sides = []
    for system, label in ((source, "source"), (target, "target")):
        trace = outcome(run, system, bound)
        if isinstance(trace, tuple):
            return trace[:3] + (label,)
        sides.append(trace)
    envs = [[c.environment for c in t.configurations] for t in sides]
    for env in envs:
        env.extend([env[-1]] * (bound + 1 - len(env)))
    divergence = next(((t, a, b) for t, (a, b) in enumerate(zip(*envs)) if a != b), None)
    return {
        "halts": [t.final.tick if t.halted else None for t in sides],
        "at_halt": [t.final.environment if t.halted else None for t in sides],
        "divergence": divergence,
    }


def kernel_frames(system, budget):
    """Every configuration the kernel yields, as ``(tick, spikes, countdown,
    pending, environment, halted)``, then the tie that stopped it, if any."""
    kernel = Kernel(system)
    frames = []
    try:
        for tick, environment, halted in kernel.ticks(budget):
            frames.append(
                (tick, kernel.spikes.copy(), kernel.countdown.copy(), kernel.pending.copy(), environment, halted)
            )
    except NondeterministicChoice as tie:
        frames.append(("tie", tie.neuron, tie.tick))
    return frames


def run_frames(system, budget):
    """The same from ``run``'s configurations.
    A tie ends the frames of the run up to the tick before it."""
    try:
        trace = run(system, budget)
    except NondeterministicChoice as tie:
        return run_frames(system, tie.tick - 1) + [("tie", tie.neuron, tie.tick)]
    last = len(trace.configurations) - 1
    return [
        (
            c.tick,
            [s.spikes for s in c.states],
            [s.closed_remaining for s in c.states],
            [s.pending_emission for s in c.states],
            c.environment,
            i == last and trace.halted,
        )
        for i, c in enumerate(trace.configurations)
    ]


@given(st.one_of(systems, periodic_systems()), st.integers(0, 300))
@settings(max_examples=400, deadline=None)
def test_run_matches_reference(system, budget):
    # the kernel's full state at every tick, and any tie, against run's
    assert kernel_frames(system, budget) == run_frames(system, budget)


def streamed_frames(system, budget):
    """What ``frames`` yields, each frame copied as it comes, then the tie
    that stopped it, if any."""
    streamed = []
    try:
        for tick, spikes, countdown, pending, environment, halted in frames(system, budget):
            streamed.append((tick, list(spikes), list(countdown), list(pending), environment, halted))
    except NondeterministicChoice as tie:
        streamed.append(("tie", tie.neuron, tie.tick))
    return streamed


def first_proof(system, budget=10**4):
    """``(t, P)`` of the first proof of a ``Recurrence`` called on every tick
    from the neuron count on, where ``frames`` meets it; None when the run
    halts, ties or reaches ``budget`` first."""
    kernel = Kernel(system)
    recurrence = Recurrence(kernel)
    try:
        for tick, _, halted in kernel.ticks(budget):
            if not halted and tick >= len(system.neurons) and recurrence.recurs(tick):
                return tick, recurrence.period
    except NondeterministicChoice:
        pass
    return None


@given(
    past_a_proof,
    st.sampled_from(["any", "at the proof", "in the period", "far past"]),
    st.data(),
)
@settings(max_examples=400, deadline=None)
def test_frames_match_the_kernel_past_a_proof(system, where, data):
    # the frames computed from one recorded period equal the kernel's, at
    # the budget of the proof itself, inside the period and far past it; a
    # halt or a tie before any proof ends both streams alike
    proof = first_proof(system)
    if proof is None or where == "any":
        budget = data.draw(st.integers(0, 300), label="budget")
    else:
        t, period = proof
        budget = {
            "at the proof": t,
            "in the period": t + data.draw(st.integers(1, period), label="into the period"),
            "far past": t + period + data.draw(st.integers(1, 300), label="past the period"),
        }[where]
    assert streamed_frames(system, budget) == kernel_frames(system, budget)


def test_frames_stop_the_kernel_one_period_after_the_proof(monkeypatch):
    system = parse_system((SYSTEMS_DIR / "iteration-d2.snp").read_text())
    assert first_proof(system) == (8, 4)
    ticks, advanced = Kernel.ticks, []

    def counted(kernel, max_steps):
        for item in ticks(kernel, max_steps):
            advanced.append(item[0])
            yield item

    monkeypatch.setattr(Kernel, "ticks", counted)
    assert [frame[0] for frame in frames(system, 10**5)] == list(range(10**5 + 1))
    assert advanced == list(range(13))  # to the proof at tick 8, then one period of 4


def test_frames_match_the_kernel_over_many_periods():
    # dense-20 recurs from tick 26 with period 4: by tick 2000 each slot of
    # the kept period is visited about 490 times, and the counts pass 1024
    system = parse_system((Path(__file__).parent / "golden" / "dense-20.snp").read_text())
    assert first_proof(system) == (26, 4)
    streamed, expected = streamed_frames(system, 2000), kernel_frames(system, 2000)
    assert len(streamed) == len(expected) == 2001
    fields = ("tick", "spikes", "countdown", "pending", "environment", "halted")
    for got, want in zip(streamed, expected):
        for field, value, reference in zip(fields, got, want):
            assert value == reference, (got[0], field)
    assert max(streamed[-1][1]) > 1024
    # past the kept period, every tick of a slot shares its slot's base
    # counts, countdown and pending tuples
    shared = {}
    for tick, spikes, countdown, pending, _, _ in frames(system, 2000):
        if tick > 26 + 4:
            shared.setdefault((tick - 27) % 4, set()).add((id(spikes.base), id(countdown), id(pending)))
    assert sorted(map(len, shared.values())) == [1, 1, 1, 1]


def machine_lines(frames):
    """The machine-style lines of ``frames``, then the tie that stopped
    them, if any."""
    lines = []
    try:
        for line in trace_lines(frames, TraceStyle.MACHINE, False, None):
            lines.append(line)
    except NondeterministicChoice as tie:
        lines.append(("tie", tie.neuron, tie.tick))
    return lines


@given(past_a_proof, st.integers(2, 60), st.data())
@settings(max_examples=200, deadline=None)
def test_machine_lines_of_frames_match_the_kernel_far_past_a_proof(system, visits, data):
    # the slot templates of the computed frames print what rendering the
    # kernel's own lists prints, over many visits to each slot of the period
    proof = first_proof(system)
    if proof is None:
        budget = data.draw(st.integers(0, 300), label="budget")
    else:
        t, period = proof
        budget = t + period * visits + data.draw(st.integers(0, period), label="into a visit")
    expected = kernel_frames(system, budget)
    tie = [expected.pop()] if expected and expected[-1][0] == "tie" else []
    lines = machine_lines(expected)
    if tie:
        lines[-1:] = tie  # the outcome record; a tie stops the stream before it
    assert machine_lines(frames(system, budget)) == lines


# t spends its 50 spikes one a tick beside a loop of A and B, so the run
# recurs with period 2 from tick 50 on, and a check from an earlier tick
# sees the counts shrink first
LATE_LOOP = SnpSystem(
    (
        Neuron("t", 50, (Rule.semi_homogeneous(1),)),
        Neuron("A", 1, (Rule.semi_homogeneous(1),)),
        Neuron("B", 0, (Rule.semi_homogeneous(1),)),
    ),
    frozenset({("A", "B"), ("B", "A")}),
    "A",
)


def proof_from(system, start, budget=10**4):
    """The tick of the first proof of a ``Recurrence`` first called at tick
    ``start`` and on every tick after it; None when the run halts first."""
    kernel = Kernel(system)
    recurrence = Recurrence(kernel)
    for tick, _, halted in kernel.ticks(budget):
        if not halted and tick >= start and recurrence.recurs(tick):
            return tick
    return None


@pytest.mark.parametrize(
    "system",
    [
        parse_system((SYSTEMS_DIR / "iteration-d2.snp").read_text()),
        parse_system((Path(__file__).parent / "golden" / "dense-20.snp").read_text()),
        LATE_LOOP,
    ],
    ids=["iteration-d2", "dense-20", "late-loop"],
)
def test_a_check_from_a_gate_proves_a_recurrence_by_proved_by(system):
    # a check first called at tick g saves on the same schedule as one first
    # called at any later tick h, so it holds the copy that proved the run at
    # t for the later check, and the tick it proves by is that t itself: the
    # lone check of batch_hazards, called from the neuron count, proves by
    # whatever tick a check from a later gate proves at
    proofs = [proof_from(system, gate) for gate in range(80)]
    assert None not in proofs
    assert proofs[len(system.neurons)] == first_proof(system)[0]
    for later, t in enumerate(proofs):
        for gate, proof in enumerate(proofs[: later + 1]):
            assert proof <= t, (gate, later)


@pytest.mark.parametrize(
    "idle, start, saves",
    [(0, 0, [3, 5, 9, 17, 33, 65]), (10, 0, [17, 33, 65]), (0, 20, [33, 65])],
    ids=["alone", "gated-by-a-larger-kernel", "first-called-late"],
)
def test_every_check_saves_on_the_schedule_of_its_first_kernel(idle, start, saves):
    # saves come at the first kernel's neuron count plus 2^m - 2, from the
    # gate (the largest neuron count) or the first call on, so every check
    # on the loop proves it from the same save at tick 65, one period later
    kernel = Kernel(LATE_LOOP)
    others = [Kernel(SnpSystem(tuple(Neuron(f"i{k}") for k in range(idle)), frozenset(), "i0"))] if idle else []
    for other in others:
        next(other.ticks(0))  # halted at tick 0, as co-simulation leaves it
    recurrence = Recurrence(kernel, *others)
    saved = []
    for tick, _, _ in kernel.ticks(200):
        if tick >= start:
            if recurrence.recurs(tick):
                break
            if recurrence.saved == tick:
                saved.append(tick)
    assert (saved, tick, recurrence.period) == (saves, 67, 2)


# n0 loops with n1 through a delayed rule that four one-shot neurons feed
# at once; the rewrite parts from the source at tick 7, after which the
# source runs on alone, and the overlap check proves its run at tick 25
LOOP_AFTER_A_DIVERGENCE = parse_system(
    "system loop-after-a-divergence\nneuron n0\nrule n0: a+ / a -> a ; 3\n"
    "neuron n1\nrule n1: a+ / a -> a\n"
    + "".join(f"neuron n{i} spikes=1\nrule n{i}: a+ / a -> a\nsyn n{i} -> n0\n" for i in range(2, 6))
    + "syn n0 -> n1\nsyn n1 -> n0\nout n0\n"
)


@given(past_a_proof, st.one_of(st.sampled_from([1500, 20_000]), st.integers(0, 300)))
@example(LOOP_AFTER_A_DIVERGENCE, 200)
@settings(max_examples=200, deadline=None)
def test_the_overlap_check_proves_what_co_simulation_proves(system, bound):
    # every Recurrence whose first kernel runs the source saves at the same
    # ticks, so the overlap check's own proof on the source comes no later
    # than the proof that settled verify's run of it
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            result, verdict = verify(system, bound)
    except (NondeterministicChoice, UnsupportedDelayedRule):
        return
    if verdict.source_halt is None and verdict.source_settled is not None:
        proof = first_proof(result.normalized_source, verdict.source_settled)
        assert proof is not None and proof[0] <= verdict.source_settled


@given(systems, st.integers(0, 40))
@settings(max_examples=200)
def test_env_trajectory_matches_reference(system, bound):
    expected = outcome(run, system, bound)
    if isinstance(expected, tuple):
        assert outcome(env_trajectory, system, bound) == expected
    else:
        assert env_trajectory(system, bound) == [c.environment for c in expected.configurations]


def assert_matches_reference(source, target, bound):
    expected = reference_verdict(source, target, bound)
    verdict = outcome(co_simulate, source, target, bound)
    if isinstance(expected, tuple):
        assert verdict == expected
    else:
        assert {
            "halts": [verdict.source_halt, verdict.target_halt],
            "at_halt": [verdict.source_env_at_halt, verdict.target_env_at_halt],
            "divergence": verdict.first_divergence,
        } == expected


@given(
    mostly_recurring(st.one_of(systems, fan_out_systems())),
    mostly_recurring(st.one_of(systems, fan_out_systems())),
    st.one_of(st.integers(41, 300), st.integers(0, 40)),
)
@settings(max_examples=200, deadline=None)
def test_co_simulate_matches_reference(source, target, bound):
    # most recurring pairs are settled by a proof within 41-300 ticks, and
    # almost none within 40
    assert_matches_reference(source, target, bound)


@given(
    mostly_recurring(st.one_of(periodic_systems(), fan_out_systems())),
    mostly_recurring(st.one_of(periodic_systems(), fan_out_systems())),
    st.integers(0, 300),
)
@settings(max_examples=100, deadline=None)
def test_co_simulate_matches_reference_on_long_periodic_runs(source, target, bound):
    # long enough windows for co-simulation to stop early on a repeat or a
    # growth proof, with guards whose periods the proof must respect
    assert_matches_reference(source, target, bound)


_FORWARD_ONE = Rule(SpikeRegex.exactly(1), 1)
_SILENT = SnpSystem((Neuron("z"),), frozenset(), "z")


def _fed(rule, feeders):
    """a and b hold one spike each and fire into each other every tick,
    which feeds c from each of ``feeders``, until c fires ``rule`` into a;
    a then holds two spikes, which its guard refuses, and the loop stops.
    b is the output, so the system parts from ``_SILENT`` at tick 1."""
    synapses = {("a", "b"), ("b", "a"), ("c", "a")} | {(f, "c") for f in feeders}
    neurons = (Neuron("a", 1, (_FORWARD_ONE,)), Neuron("b", 1, (_FORWARD_ONE,)), Neuron("c", 0, (rule,)))
    return SnpSystem(neurons, frozenset(synapses), "b")


@pytest.mark.parametrize(
    "rule, feeders, halt",
    [
        # c grows by 2 a tick under a guard of period 3 (counts 5, 8, ...):
        # 6 and 8 are above the threshold, but a growth of 2 is no period
        (Rule(SpikeRegex(((5, 3),)), 1), "ab", 6),
        # c grows by 1 a tick below its threshold (counts 4 and up): the
        # growth is a period, but the guard still decides on the count
        (Rule(SpikeRegex(((4, 1),)), 1), "a", 6),
        # c fires at exactly 110 spikes: the pair parts at tick 1 and the
        # system halts long after, which the run alone must still find
        (Rule(SpikeRegex.exactly(110), 1), "a", 112),
    ],
    ids=["growth-off-the-period", "growth-below-the-threshold", "late-halt"],
)
def test_a_growing_count_is_no_proof_until_it_repeats_the_firings(rule, feeders, halt):
    system = _fed(rule, feeders)
    for bound in (halt - 1, halt, 200, 10**6):
        verdict = co_simulate(system, _SILENT, bound)
        assert verdict.first_divergence == (1, 1, 0)
        assert verdict.source_halt == (halt if halt <= bound else None)
        assert verdict.source_env_at_halt == (halt if halt <= bound else None)
        assert verdict.target_halt == 0
    assert_matches_reference(system, _SILENT, 200)
    assert_matches_reference(_SILENT, system, 200)


def test_a_shrinking_count_is_no_proof():
    # c spends one of its 100 spikes a tick, a whole period of its guard
    # a+ each time and far above the threshold, until none is left
    spender = SnpSystem((Neuron("c", 100, (Rule.semi_homogeneous(1),)),), frozenset(), "c")
    verdict = co_simulate(spender, _SILENT, 10**6)
    assert verdict.first_divergence == (1, 1, 0)
    assert (verdict.source_halt, verdict.source_env_at_halt) == (100, 100)
    assert_matches_reference(spender, _SILENT, 200)


def _tie_at(tick):
    """A relay whose last neuron has two rules enabled by the spike that
    reaches it at ``tick - 1``, so computing ``tick`` raises."""
    neurons = [Neuron(f"n{i}", int(i == 0), (Rule.semi_homogeneous(1),)) for i in range(tick - 1)]
    neurons.append(Neuron("tie", 0, (Rule.semi_homogeneous(1), Rule(SpikeRegex.exactly(1), 1))))
    synapses = {(a.id, b.id) for a, b in zip(neurons, neurons[1:])}
    if tick == 1:
        neurons[0] = Neuron("tie", 1, neurons[0].rules)
    return SnpSystem(tuple(neurons), frozenset(synapses), "tie")


@pytest.mark.parametrize("tick", [1, 3])
def test_tie_at_the_budget_exhausts_it(tick):
    system = _tie_at(tick)
    assert not run(system, tick - 1).halted
    with pytest.raises(NondeterministicChoice) as err:
        run(system, tick)
    assert (err.value.neuron, err.value.tick) == ("tie", tick)


def test_lowest_tied_neuron_is_reported():
    rules = (Rule.semi_homogeneous(1), Rule(SpikeRegex.exactly(1), 1))
    neurons = (Neuron("q", 0, rules), Neuron("p", 1, rules), Neuron("r", 1, rules))
    system = SnpSystem(neurons, frozenset(), "p")
    assert outcome(run, system, 5) == ("tie", "p", 1, None)
    frames = kernel_frames(system, 5)
    assert frames == run_frames(system, 5)
    assert frames[-1] == ("tie", "p", 1)


def test_source_tie_is_raised_before_an_earlier_target_tie():
    with pytest.raises(NondeterministicChoice) as err:
        co_simulate(_tie_at(4), _tie_at(2), 10)
    assert (err.value.tick, err.value.system) == (4, "source")


def test_invalid_delayed_rule_is_refused_before_a_tick():
    # step does not validate and fails at the firing; the kernel refuses
    # the system before tick 0
    delayed_forgetting = Rule(SpikeRegex.multiples(1), 1, 0, 2)
    system = SnpSystem((Neuron("n", 1, (delayed_forgetting,)),), frozenset(), "n")
    with pytest.raises(ValueError, match="positive spike count"):
        step(system, initial_configuration(system))
    for call in (run, env_trajectory):
        with pytest.raises(ValidationError, match="forgetting rules cannot be delayed"):
            call(system, 5)


def test_malformed_system_is_refused_everywhere_the_kernel_runs():
    # a delayed neuron whose dangling synapse the kernel must not silently drop
    system = SnpSystem(
        (Neuron("d", 1, (Rule.semi_homogeneous(1, delay=2),)),),
        frozenset({("d", "ghost")}),
        "d",
    )
    message = "synapse d -> ghost names unknown neuron ghost"
    for call in (
        lambda: run(system, 5),
        lambda: env_trajectory(system, 5),
        lambda: co_simulate(system, system, 5),
        lambda: batch_hazards(system),
    ):
        with pytest.raises(ValidationError, match=message):
            call()


def test_a_malformed_target_is_refused_before_the_source_runs():
    loop = SnpSystem(
        (Neuron("a", 1, (Rule.semi_homogeneous(1),)), Neuron("b", 1, (Rule.semi_homogeneous(1),))),
        frozenset({("a", "b"), ("b", "a")}),
        "a",
    )
    dangling = SnpSystem((Neuron("d", 1, (Rule.semi_homogeneous(1),)),), frozenset({("d", "ghost")}), "d")
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="names unknown neuron ghost"):
        co_simulate(loop, dangling, 10**6)
    assert time.perf_counter() - start < 0.1


def _fed_loop(guard):
    """a and b fire into each other and into c on every tick, so c's count
    grows 0, 2, 4, ... under ``guard``."""
    forward = Rule.semi_homogeneous(1)
    return SnpSystem(
        (
            Neuron("a", 1, (forward,)),
            Neuron("b", 1, (forward,)),
            Neuron("c", 0, (Rule(guard, 1),)),
        ),
        frozenset({("a", "b"), ("b", "a"), ("a", "c"), ("b", "c")}),
        "a",
    )


def test_co_simulation_memory_does_not_grow_with_the_bound(monkeypatch):
    # c's count grows below the single count its guard accepts, so the
    # joint state never recurs and co-simulation runs to the bound
    growing = _fed_loop(SpikeRegex.exactly(10**6))
    ticks, yielded = Kernel.ticks, 0

    def counted(kernel, max_steps):
        nonlocal yielded
        for item in ticks(kernel, max_steps):
            yielded += 1
            yield item

    monkeypatch.setattr(Kernel, "ticks", counted)
    peaks = []
    for bound in (10**3, 10**4):
        yielded = 0
        tracemalloc.start()
        try:
            verdict = co_simulate(growing, growing, bound)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert verdict.source_halt is None and verdict.first_divergence is None
        assert yielded == 2 * (bound + 1)  # both sides, ticks 0..bound
    assert peaks[1] < peaks[0] * 1.5 + 4096, peaks


def test_growth_above_every_guard_offset_stops_co_simulation():
    # c's count grows by two a tick above the single count its guard
    # accepts, so the run recurs at once, however long the window
    growing = _fed_loop(SpikeRegex.exactly(1))
    start = time.perf_counter()
    verdict = co_simulate(growing, growing, 10**6)
    elapsed = time.perf_counter() - start
    assert verdict.source_halt is None and verdict.trajectory_equal_through == 10**6
    assert elapsed < 0.5, f"co-simulation to 10^6 ticks took {elapsed:.3f} s"
