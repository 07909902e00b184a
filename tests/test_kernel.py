"""The event-driven kernel behind ``env_trajectory``, ``co_simulate`` and
every ``snpkit`` command, differential-tested against ``run``: the loop over
``step`` and ``is_halting`` that defines the semantics, independent of the
kernel."""

import time
import tracemalloc
import warnings
from math import lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from snpkit import (
    Neuron,
    NondeterministicChoice,
    Rule,
    Sequential,
    SnpSystem,
    SpikeRegex,
    UnsupportedDelayedRule,
    ValidationError,
    batch_hazards,
    co_simulate,
    eliminate_delays,
    env_trajectory,
    generate,
    parse_system,
    run,
    step,
    verify,
)
from snpkit import semantics
from snpkit.semantics import Kernel, KeptPeriod, Recurrence, frames, initial_configuration
from snpkit.textio import TraceStyle, trace_lines

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


def is_tie(result):
    """Whether ``result`` is the tie that ``outcome`` returns: a plain
    tuple, where every record (a ``Trace``, a ``Verdict``) is a subclass."""
    return type(result) is tuple and result[0] == "tie"


def reference_verdict(source, target, bound):
    """Halting ticks, counts at halt and first divergence, from the full
    reference traces of the source and then the target."""
    sides = []
    for system, label in ((source, "source"), (target, "target")):
        trace = outcome(run, system, bound)
        if is_tie(trace):
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


def kernel_run(system, *budgets):
    """A kernel of ``system`` after one ``ticks`` call per budget, and every
    configuration the calls yield, as ``(tick, spikes, countdown, pending,
    environment, halted)``, then the tie that stopped the run, if any.  Each
    later call whose budget reaches the tie's tick must raise it again."""
    kernel, frames, tie = Kernel(system), [], None
    for budget in budgets:
        try:
            for tick in kernel.ticks(budget):
                frames.append(
                    (
                        tick,
                        kernel.spikes.copy(),
                        kernel.countdown.copy(),
                        kernel.pending.copy(),
                        kernel.environment,
                        kernel.halt is not None,
                    )
                )
            assert tie is None or budget < tie[1], "a call after a tie ran on"
        except NondeterministicChoice as err:
            assert tie in (None, (err.neuron, err.tick))
            tie = (err.neuron, err.tick)
    return kernel, frames + ([("tie", *tie)] if tie else [])


def kernel_frames(system, budget):
    """The configurations and the tie of ``kernel_run`` to ``budget``."""
    return kernel_run(system, budget)[1]


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
@settings(max_examples=examples(400), deadline=None)
def test_run_matches_reference(system, budget):
    # the kernel's full state at every tick, and any tie, against run's
    assert kernel_frames(system, budget) == run_frames(system, budget)


def visits(period):
    """The frames of the ticks a ``KeptPeriod`` describes, each worked out
    on its own from the kept frame of its slot and the visit's number."""
    kept, first = period.kept, period.kept[0][0]
    for tick in range(first, period.last + 1):
        visit, slot = divmod(tick - first, len(kept))
        _, counts, countdown, pending, environment = kept[slot]
        counts = list(counts)
        for i, growth in zip(period.grown, period.growth):
            counts[i] += visit * growth
        yield tick, counts, list(countdown), list(pending), environment + visit * period.env_growth, False


def streamed_frames(system, budget):
    """What ``frames`` yields, each frame copied as it comes and a kept
    period's ticks spelled out, then the tie that stopped it, if any."""
    streamed = []
    try:
        for frame in frames(system, budget):
            if isinstance(frame, KeptPeriod):
                assert frame.last == budget
                streamed.extend(visits(frame))
            else:
                tick, spikes, countdown, pending, environment, halted = frame
                streamed.append((tick, list(spikes), list(countdown), list(pending), environment, halted))
    except NondeterministicChoice as tie:
        streamed.append(("tie", tie.neuron, tie.tick))
    return streamed


def first_proof(system, budget=10**4, gate=None):
    """``(t, P)`` of the first proof of a ``Recurrence`` with ``gate``,
    called on every tick from the gate on: by default the neuron count, as
    the overlap check's, and 0 as ``frames``'; None when the run halts, ties
    or reaches ``budget`` first."""
    kernel = Kernel(system)
    recurrence = Recurrence(kernel, gate=gate)
    try:
        for tick in kernel.ticks(budget):
            if tick >= recurrence.gate and recurrence.recurs(tick):
                return tick, recurrence.period
    except NondeterministicChoice:
        pass
    return None


@given(
    past_a_proof,
    st.sampled_from(["any", "at the proof", "in the period", "far past"]),
    st.data(),
)
@settings(max_examples=examples(400), deadline=None)
def test_frames_match_the_kernel_past_a_proof(system, where, data):
    # the frames computed from one recorded period equal the kernel's, at
    # the budget of the proof itself, inside the period and far past it; a
    # halt or a tie before any proof ends both streams alike.  frames checks
    # from tick 0, so the proof and period aimed at are those of gate 0
    proof = first_proof(system, gate=0)
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
    assert first_proof(system, gate=0) == (6, 4)
    ticks, advanced = Kernel.ticks, []

    def counted(kernel, max_steps):
        for tick in ticks(kernel, max_steps):
            advanced.append(tick)
            yield tick

    monkeypatch.setattr(Kernel, "ticks", counted)
    *live, period = frames(system, 10**5)
    assert [frame[0] for frame in live] == list(range(7))
    assert period.last == 10**5  # the ticks from 7 on, as one kept period
    assert advanced == list(range(11))  # to the proof at tick 6, then one period of 4


def test_frames_match_the_kernel_over_many_periods():
    # frames proves dense-20 recurrent at tick 34 with period 4: by tick 2000
    # each slot of the kept period is visited about 490 times, and the counts
    # pass 1024
    system = parse_system((Path(__file__).parent / "golden" / "dense-20.snp").read_text())
    assert first_proof(system, gate=0) == (34, 4)
    streamed, expected = streamed_frames(system, 2000), kernel_frames(system, 2000)
    assert len(streamed) == len(expected) == 2001
    fields = ("tick", "spikes", "countdown", "pending", "environment", "halted")
    for got, want in zip(streamed, expected):
        for field, value, reference in zip(fields, got, want):
            assert value == reference, (got[0], field)
    assert max(streamed[-1][1]) > 1024
    # past the proof, frames yields one description of the rest: the kernel's
    # frames of ticks 35 to 38 as tuples, the neurons whose counts grow and
    # by how much per visit, the environment's growth and the last tick
    *live, period = frames(system, 2000)
    assert [frame[0] for frame in live] == list(range(35)) and period.last == 2000
    kept = [(tick, *map(tuple, lists), env) for tick, *lists, env, _ in expected[35:39]]
    assert period.kept == tuple(kept)
    growth = [now - then for now, then in zip(expected[38][1], expected[34][1])]
    assert period.grown == tuple(i for i, g in enumerate(growth) if g) and len(period.grown) == 10
    assert period.growth == tuple(g for g in growth if g)
    assert period.env_growth == expected[38][4] - expected[34][4]


def machine_lines(frames):
    """The machine-style lines of ``frames``, then the tie that stopped
    them, if any."""
    lines = []
    try:
        for piece in trace_lines(frames, TraceStyle.MACHINE, False, None):
            lines.extend(piece.split("\n"))  # a visit of a kept period is one piece
    except NondeterministicChoice as tie:
        lines.append(("tie", tie.neuron, tie.tick))
    return lines


@given(past_a_proof, st.integers(2, 60), st.data())
@settings(max_examples=examples(200), deadline=None)
def test_machine_lines_of_frames_match_the_kernel_far_past_a_proof(system, visits, data):
    # the slot templates of the computed frames print what rendering the
    # kernel's own lists prints, over many visits to each slot of the period
    # that frames keeps, proved with its gate of 0
    proof = first_proof(system, gate=0)
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

# a draw of ``recurring_systems`` that no check proves recurrent: at gate 0
# or at its neuron count, within 10^6 ticks.  f0 and f1 feed the loop l0 ->
# l1 -> l2 -> l3 back, and its counts wander: l0 holds 28, 224 and 682
# spikes at ticks 10^4, 10^5 and 10^6
NO_PROOF = parse_system(
    "system no-proof\n"
    "neuron l0 spikes=1\nrule l0: a+ / a -> a ; 2\nneuron l1\nrule l1: a+ / a -> a ; 2\n"
    "neuron l2\nrule l2: a+ / a -> a\nneuron l3\nrule l3: a+ / a -> a\n"
    "neuron f0\nrule f0: (a^2)+ / a^2 -> a\nneuron f1\nrule f1: (a^2)+ / a^2 -> a\n"
    "syn f0 -> l0\nsyn f1 -> l1\nsyn l0 -> f1\nsyn l0 -> l1\nsyn l1 -> f0\nsyn l1 -> f1\n"
    "syn l1 -> l2\nsyn l2 -> f0\nsyn l2 -> f1\nsyn l2 -> l3\nsyn l3 -> l0\nout l0\n"
)


def proof_from(system, start, budget=10**4):
    """The tick of the first proof of a ``Recurrence`` first called at tick
    ``start`` and on every tick after it; None when the run halts first."""
    kernel = Kernel(system)
    recurrence = Recurrence(kernel)
    for tick in kernel.ticks(budget):
        if tick >= start and recurrence.recurs(tick):
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
    "idle, start, gate, saves",
    [
        (0, 0, None, [6, 14, 30, 62]),
        (10, 0, None, [14, 30, 62]),
        (0, 20, None, [30, 62]),
        (0, 0, 0, [0, 2, 6, 14, 30, 62]),
    ],
    ids=["alone", "gated-by-a-larger-kernel", "first-called-late", "from-tick-0"],
)
def test_every_check_saves_on_the_schedule_of_its_first_kernel(idle, start, gate, saves):
    # saves come at 2^m - 2, from the gate (the largest neuron count unless
    # given, 0 for frames) or the first call on, so every check on the loop
    # proves it from the same save at tick 62, one period later
    kernel = Kernel(LATE_LOOP)
    others = [Kernel(SnpSystem(tuple(Neuron(f"i{k}") for k in range(idle)), frozenset(), "i0"))] if idle else []
    for other in others:
        next(other.ticks(0))  # halted at tick 0, as co-simulation leaves it
    recurrence = Recurrence(kernel, *others, gate=gate)
    saved = []
    for tick in kernel.ticks(200):
        if tick >= start:
            if recurrence.recurs(tick):
                break
            if recurrence.saved == tick:
                saved.append(tick)
    assert (saved, tick, recurrence.period) == (saves, 64, 2)


def period_and_floor(rules):
    """L and T of a neuron, as the ``Recurrence`` docstring defines them."""
    terms = [term for rule in rules for term in rule.guard.terms]
    floor = max([offset + 1 for offset, _ in terms] + [rule.consume for rule in rules], default=0)
    return lcm(*(period for _, period in terms if period)), floor


def related(configs, marks, s, t):
    """Whether the state at tick t recurs the one at s on the reference run,
    by ``Recurrence``'s definition: equal countdowns and pending batches, and
    each count equal or grown by a multiple of L, staying at T or more from
    s to t."""
    for i, (then, now) in enumerate(zip(configs[s].states, configs[t].states)):
        if (now.closed_remaining, now.pending_emission) != (then.closed_remaining, then.pending_emission):
            return False
        if now.spikes != then.spikes:
            period, floor = marks[i]
            if now.spikes < then.spikes or (now.spikes - then.spikes) % period:
                return False
            if min(c.states[i].spikes for c in configs[s : t + 1]) < floor:
                return False
    return True


def save_schedule_bound(gate, onset, period):
    """The tick by which a check that saves at 2^m - 2 from ``gate`` on
    proves a run whose every tick from ``onset`` on recurs the tick
    ``period`` earlier."""
    m = 1
    while 2**m - 2 < max(gate, onset) or 2**m < period:
        m += 1
    return 2**m - 2 + period


@given(recurring_systems())
@example(LATE_LOOP)
@example(NO_PROOF)
@settings(max_examples=examples(100), deadline=None)
def test_each_proof_comes_by_the_bound_of_the_save_schedule(system):
    """Say the reference run's state at tick t recurs the one at s < t, and
    let P = t - s.  Then tick x + P recurs tick x for every x >= s: from t on
    each tick repeats the tick P earlier grown by the same counts (the
    ``Recurrence`` docstring), so countdowns and pending batches repeat, a
    count that grows keeps growing by the same multiple of L, and one that
    stayed at T or more from s to t stays there.

    A check with gate g, called on every tick from g, saves at
    S_m = 2^m - 2 for the m >= 1 with S_m >= g, and compares ticks S_m + 1
    to S_(m+1) = S_m + 2^m with the copy of S_m.  Take the least m with
    S_m >= max(s, g) and 2^m >= P: tick S_m + P recurs S_m and falls in that
    window, so the proof comes at S_m + P or sooner.  This holds for
    ``frames``' gate, 0, and for the overlap check's, the neuron count.  The
    onset and period come from the run, not the draw, since a fan-out
    neuron's count must first reach its floor.  The pair at the proof itself
    gives exactly the proof's tick, so a schedule that saves later, or whose
    windows grow faster, misses the bound of some pair that the relation
    meets before its save.

    A run without a proof within 10^4 ticks, as NO_PROOF's, has no related
    pair with t <= 300 either: its bound would be at most 510 + 300 for
    either gate of 12 neurons or fewer."""
    marks = [period_and_floor(neuron.rules) for neuron in system.neurons]
    for gate in (0, len(system.neurons)):
        proved = first_proof(system, gate=gate)
        if proved is None:
            configs = run(system, 300).configurations
            assert not any(related(configs, marks, s, t) for t in range(1, 301) for s in range(t)), gate
            continue
        proof, _ = proved
        configs = run(system, proof).configurations
        bound = min(
            save_schedule_bound(gate, s, t - s)
            for t in range(1, proof + 1)
            for s in range(t)
            if related(configs, marks, s, t)
        )
        assert proof <= bound, gate


# n1 holds 2 spikes at the save at tick 14 and fires its delayed rule on the
# way to tick 15, whose count of closed neurons differs from the copy's, so
# it falls to 1, below its floor of 2, on a tick the check does not compare;
# at tick 18 it holds 3, and only that low keeps the tick from recurring 14
DIP_WHILE_CLOSED = parse_system(
    "system dip-while-closed\nneuron n0\nrule n0: a^2(a^2)* / a^2 -> a ; 1\n"
    "neuron n1\nrule n1: a+ / a -> a ; 1\nneuron n2 spikes=1\nrule n2: a+ / a -> a ; 1\n"
    "syn n0 -> n1\nsyn n2 -> n1\nsyn n1 -> n2\nsyn n2 -> n0\nout n0\n"
)

# n4 holds 2 spikes at the save at tick 62 and 3 at tick 99, a multiple of
# its L of 1 more, but falls below its floor of 2 on ticks the check
# compares (to 0 at tick 70, after firing on the way to it); only those
# lows keep tick 99 from recurring 62, and no tick recurs by tick 300
DIP_WHILE_COMPARED = parse_system(
    "system dip-while-compared\nneuron n0\nrule n0: a+ / a -> a ; 1\n"
    "neuron n1\nrule n1: (a^2)+ / a^2 -> a ; 2\nneuron n2\nrule n2: a+ / a -> a\n"
    "neuron n3\nrule n3: a+ / a -> a ; 1\nneuron n4 spikes=1\nrule n4: a+ / a -> a ; 1\n"
    "neuron n5\nrule n5: a+ / a -> a ; 2\n"
    "syn n0 -> n1\nsyn n0 -> n4\nsyn n1 -> n3\nsyn n2 -> n0\nsyn n2 -> n4\nsyn n3 -> n2\n"
    "syn n3 -> n4\nsyn n3 -> n5\nsyn n4 -> n2\nsyn n5 -> n0\nout n0\n"
)


def reference_configurations(system, budget):
    """``run``'s configurations to ``budget``, or to the tick before a tie."""
    try:
        return run(system, budget).configurations
    except NondeterministicChoice as tie:
        return run(system, tie.tick - 1).configurations


def lock_step(kernels, budget):
    """The ticks of kernels advanced as co-simulation advances a pair: each
    kernel that still runs yields the tick, a halted one stays as it
    stopped, and the stream ends after the tick at which every kernel has
    halted."""
    streams = [kernel.ticks(budget) for kernel in kernels]
    for tick in range(budget + 1):
        for kernel, stream in zip(kernels, streams):
            if kernel.halt is None:
                next(stream)
        yield tick
        if all(kernel.halt is not None for kernel in kernels):
            return


def checked_against_the_relation(systems, gate, budget=300):
    """Call ``recurs`` on kernels of ``systems`` in lock step on every tick
    from the gate until a proof, the tick at which every kernel has halted
    or a tie, as ``settle`` does, and assert that each answer is ``related``
    on every reference run against the last save, and False at that halting
    tick.  The saves are derived here: the ticks 2^m - 2 from the gate on,
    where the gate is the largest neuron count unless ``gate`` gives
    another."""
    kernels = [Kernel(system) for system in systems]
    recurrence = Recurrence(*kernels, gate=gate)
    marks = [[period_and_floor(neuron.rules) for neuron in system.neurons] for system in systems]
    runs = []  # a halted run stays at its last configuration
    for system in systems:
        configs = reference_configurations(system, budget)
        runs.append(configs + (configs[-1],) * (budget + 1 - len(configs)))
    start = max(len(system.neurons) for system in systems) if gate is None else gate
    schedule = {2**m - 2 for m in range(1, budget.bit_length() + 2)}
    saved = None
    try:
        for tick in lock_step(kernels, budget):
            if tick < start:
                continue
            expected = saved is not None and all(
                related(configs, neurons, saved, tick) for configs, neurons in zip(runs, marks)
            )
            assert recurrence.recurs(tick) is expected, (tick, saved)
            if all(kernel.halt is not None for kernel in kernels):
                assert not expected, (tick, saved)  # settle relies on it to stop
                return
            if expected:
                assert recurrence.period == tick - saved
                return
            if tick in schedule:
                saved = tick
            assert recurrence.saved == saved
    except NondeterministicChoice:
        pass


# every strategy of conftest, and a run whose counts shrink before it recurs
oracle_systems = st.one_of(
    simple_systems(),
    two_rule_systems(),
    periodic_systems(),
    fan_out_systems(),
    recurring_systems(),
    recurring_systems(events=False),
    mostly_recurring(st.one_of(systems, periodic_systems(), fan_out_systems())),
    st.just(LATE_LOOP),
)


@given(oracle_systems, st.sampled_from([0, None]))
@example(LATE_LOOP, 0)
@example(LATE_LOOP, None)
@example(DIP_WHILE_CLOSED, 0)
@example(DIP_WHILE_COMPARED, 0)
@settings(max_examples=examples(300), deadline=None)
def test_recurs_answers_the_relation_on_one_kernel(system, gate):
    # frames' check (gate 0) and the overlap check's (the neuron count):
    # whatever a tick skips or defers, its answer is the relation's
    checked_against_the_relation([system], gate)


@given(oracle_systems, oracle_systems, st.sampled_from([0, None]))
@settings(max_examples=examples(200), deadline=None)
def test_recurs_answers_the_relation_on_a_co_simulated_pair(source, target, gate):
    # a pair is related only where both kernels are, and a halted kernel
    # is compared as it stopped
    checked_against_the_relation([source, target], gate)


@pytest.mark.parametrize(
    "path, proof, checked, compared",
    [
        (SYSTEMS_DIR / "iteration-d2.snp", 6, 7, 5),
        (Path(__file__).parent / "golden" / "dense-20.snp", 34, 35, 63),
    ],
    ids=["iteration-d2", "dense-20"],
)
def test_frames_count_the_checks_and_the_neurons_compared(monkeypatch, path, proof, checked, compared):
    # frames checks every tick from 0 to its proof, and compares a neuron
    # only at a tick whose closed count matches the copy's and whose
    # touched neurons could cover every neuron apart
    made = []

    class Counted(Recurrence):
        def __init__(self, *kernels, gate=None):
            super().__init__(*kernels, gate=gate)
            made.append(self)

    monkeypatch.setattr(semantics, "Recurrence", Counted)
    for _ in frames(parse_system(path.read_text()), 10**4):
        pass
    (recurrence,) = made
    assert (recurrence.proved, recurrence.checked, recurrence.compared) == (proof, checked, compared)


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
@settings(max_examples=examples(200), deadline=None)
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
@settings(max_examples=examples(200))
def test_env_trajectory_matches_reference(system, bound):
    expected = outcome(run, system, bound)
    if is_tie(expected):
        assert outcome(env_trajectory, system, bound) == expected
    else:
        assert env_trajectory(system, bound) == [c.environment for c in expected.configurations]


def assert_matches_reference(source, target, bound):
    expected = reference_verdict(source, target, bound)
    verdict = outcome(co_simulate, source, target, bound)
    if is_tie(expected):
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
@settings(max_examples=examples(200), deadline=None)
def test_co_simulate_matches_reference(source, target, bound):
    # most recurring pairs are settled by a proof within 41-300 ticks, and
    # almost none within 40
    assert_matches_reference(source, target, bound)


@given(
    mostly_recurring(st.one_of(periodic_systems(), fan_out_systems())),
    mostly_recurring(st.one_of(periodic_systems(), fan_out_systems())),
    st.integers(0, 300),
)
@settings(max_examples=examples(100), deadline=None)
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


def test_a_second_ticks_call_continues_the_run():
    # relay's run halts at tick 5 with one spike sent out; a second call
    # used to restart the check on the moved state and halt it at tick 0
    # with neuron 2 still closed
    kernel = Kernel(parse_system((SYSTEMS_DIR / "relay.snp").read_text()))
    assert list(kernel.ticks(2)) == [0, 1, 2] and kernel.countdown == [0, 2, 0]
    assert list(kernel.ticks(20)) == [3, 4, 5]
    assert (kernel.tick, kernel.halt, kernel.environment, kernel.countdown) == (5, 5, 1, [0, 0, 0])
    assert list(kernel.ticks(20)) == []  # a halted kernel yields nothing more


@given(
    st.one_of(simple_systems(), two_rule_systems(), periodic_systems(), fan_out_systems(), recurring_systems()),
    st.integers(0, 300),
    st.integers(0, 300),
)
@example(_tie_at(3), 3, 10)  # the second call raises the tie again
@example(_tie_at(3), 10, 2)  # and one that stops short of it yields nothing
@settings(max_examples=examples(300), deadline=None)
def test_a_budget_split_across_two_ticks_calls_is_one_run(system, first, second):
    # the second call yields the ticks after the first call's last, up to
    # its own budget, and meets the tie of the one call again; below the
    # first budget it yields nothing
    whole, expected = kernel_run(system, max(first, second))
    split, frames = kernel_run(system, first, second)
    assert frames == expected == run_frames(system, max(first, second))
    fields = ("tick", "environment", "halt", "event", "spikes", "countdown", "pending")
    assert [getattr(split, f) for f in fields] == [getattr(whole, f) for f in fields]


def test_a_stream_left_behind_by_a_newer_one_ends():
    # the kernel holds one run: a stream that another has moved past the
    # tick it yielded ends without a tick, and a newer stream that moved
    # nothing leaves the older one running
    kernel = Kernel(parse_system((SYSTEMS_DIR / "relay.snp").read_text()))
    older = kernel.ticks(20)
    assert next(older) == 0
    assert list(kernel.ticks(0)) == []
    assert next(older) == 1
    assert list(kernel.ticks(3)) == [2, 3]
    assert list(older) == [] and kernel.tick == 3
    assert list(kernel.ticks(20)) == [4, 5] and kernel.halt == 5


def test_a_negative_budget_is_refused_everywhere_the_kernel_runs():
    system = parse_system((SYSTEMS_DIR / "relay.snp").read_text())
    for call, name in (
        (lambda: next(Kernel(system).ticks(-3)), "max_steps"),
        (lambda: next(frames(system, -1)), "max_steps"),
        (lambda: run(system, -1), "max_steps"),
        (lambda: env_trajectory(system, -1), "bound"),
        (lambda: co_simulate(system, system, -1), "bound"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            call()


def test_source_tie_is_raised_before_an_earlier_target_tie():
    with pytest.raises(NondeterministicChoice) as err:
        co_simulate(_tie_at(4), _tie_at(2), 10)
    assert (err.value.tick, err.value.system) == (4, "source")


def _emits_then_ties(emit, tie=None):
    """A relay whose output first emits at tick ``emit``, beside
    ``_tie_at(tie)`` when ``tie`` is given."""
    neurons = [Neuron(f"e{i}", int(i == 0), (Rule.semi_homogeneous(1),)) for i in range(emit)]
    synapses = {(a.id, b.id) for a, b in zip(neurons, neurons[1:])}
    if tie is not None:
        tied = _tie_at(tie)
        neurons += tied.neurons
        synapses |= tied.synapses
    return SnpSystem(tuple(neurons), frozenset(synapses), f"e{emit - 1}")


@pytest.mark.parametrize(
    "source_tie, target_tie, raised",
    [(None, 5, (5, "target")), (6, 4, (6, "source"))],
    ids=["only-the-target-ties", "the-target-ties-first"],
)
def test_source_tie_is_raised_first_after_a_divergence_too(source_tie, target_tie, raised):
    # the pair parts at tick 2, before either tie, and each side runs on
    # alone, the source first
    assert co_simulate(_emits_then_ties(2), _emits_then_ties(3), 10).first_divergence == (2, 1, 0)
    with pytest.raises(NondeterministicChoice) as err:
        co_simulate(_emits_then_ties(2, source_tie), _emits_then_ties(3, target_tie), 10)
    assert (err.value.tick, err.value.system) == raised


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


@pytest.mark.parametrize(
    "system",
    [
        *(parse_system((SYSTEMS_DIR / f"{name}.snp").read_text()) for name in ("relay", "sequential-d3", "two-delays")),
        generate(Sequential((1,) * 40)),
    ],
    ids=["relay", "sequential-d3", "two-delays", "chain-40"],
)
def test_co_simulation_checks_no_tick_past_the_halt_of_both(monkeypatch, system):
    # the lock step ends once both sides have halted: a halted pair never
    # recurs, so checking it tick after tick would only waste the window
    result = eliminate_delays(system)
    recurs, checked = Recurrence.recurs, []

    def counted(recurrence, tick):
        checked.append(tick)
        return recurs(recurrence, tick)

    monkeypatch.setattr(Recurrence, "recurs", counted)
    verdict = co_simulate(result.normalized_source, result.target, 20_000)
    assert verdict.equivalent and verdict.source_halt == verdict.target_halt
    assert checked == sorted(set(checked)), "at most one check a tick"
    assert all(tick <= verdict.source_halt for tick in checked), checked


def test_growth_above_every_guard_offset_stops_co_simulation():
    # c's count grows by two a tick above the single count its guard
    # accepts, so the run recurs at once, however long the window
    growing = _fed_loop(SpikeRegex.exactly(1))
    start = time.perf_counter()
    verdict = co_simulate(growing, growing, 10**6)
    elapsed = time.perf_counter() - start
    assert verdict.source_halt is None and verdict.trajectory_equal_through == 10**6
    assert elapsed < 0.5, f"co-simulation to 10^6 ticks took {elapsed:.3f} s"
