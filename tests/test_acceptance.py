"""Acceptance suite: one test per exit criterion, exact values throughout.

Expected rows were hand-stepped under the three-phase tick semantics and
cross-checked against the published worked examples for these constructs.
Run with ``pytest tests/test_acceptance.py -v`` to get one line per
criterion; each test also prints a PASS line visible with ``-s``.
"""

import random
import time
import warnings

from snpkit import (
    BatchOverlapWarning,
    Iteration,
    Join,
    Neuron,
    Rule,
    Sequential,
    SnpSystem,
    Split,
    check_count_law,
    co_simulate,
    eliminate_delays,
    env_trajectory,
    format_trace,
    generate,
    parse_system,
    run,
    serialize_system,
    TraceStyle,
)
from snpkit.eliminate import normalize_initial

from .conftest import (
    SYSTEMS_DIR,
    assert_trace_invariants,
    iteration_instances,
    random_instance,
    sweep_instances,
)
from .test_regex import semilinear_members


def _spikes(trace):
    return [[s.spikes for s in c.states] for c in trace.configurations]


def _pairs(trace):
    return [[(s.spikes, s.closed_remaining) for s in c.states] for c in trace.configurations]


def _transformed(instance):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BatchOverlapWarning)
        return eliminate_delays(generate(instance))


def report(n, text):
    print(f"criterion {n}: PASS - {text}")


# --- criterion 1: golden relay trace -----------------------------------------

RELAY_ROWS = [
    [(1, 0), (0, 0), (0, 0)],
    [(0, 0), (1, 0), (0, 0)],
    [(0, 0), (0, 2), (0, 0)],
    [(0, 0), (0, 1), (0, 0)],
    [(0, 0), (0, 0), (1, 0)],
    [(0, 0), (0, 0), (0, 0)],
]


def test_criterion_1_relay_golden_trace(relay):
    trace = run(relay, 100)
    assert trace.halted and trace.final.tick == 5
    assert trace.final.environment == 1
    assert _pairs(trace) == RELAY_ROWS
    assert [c.environment for c in trace.configurations] == [0, 0, 0, 0, 0, 1]

    run(relay, 100)  # warm caches before timing
    elapsed = min(_timed(relay) for _ in range(5))
    assert elapsed < 0.001, f"relay simulation took {elapsed * 1000:.3f} ms"
    report(1, f"relay golden trace exact, {elapsed * 1e6:.0f} us")


def _timed(system):
    start = time.perf_counter()
    run(system, 100)
    return time.perf_counter() - start


# --- criterion 2: two-delay chain, target rows cell for cell ------------------

TWO_DELAY_TARGET_ROWS = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 1, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 1, 0, 0],
    [0, 0, 0, 0, 0, 0, 2, 0],
    [0, 0, 0, 0, 0, 0, 1, 1],
    [0, 0, 0, 0, 0, 0, 0, 2],
    [0, 0, 0, 0, 0, 0, 0, 0],
]

TWO_DELAY_SOURCE_ROWS = [
    [(1, 0), (0, 0), (0, 0)],
    [(0, 0), (1, 0), (0, 0)],
    [(0, 0), (0, 2), (0, 0)],
    [(0, 0), (0, 1), (0, 0)],
    [(0, 0), (0, 0), (1, 0)],
    [(0, 0), (0, 0), (0, 3)],
    [(0, 0), (0, 0), (0, 2)],
    [(0, 0), (0, 0), (0, 1)],
    [(0, 0), (0, 0), (0, 0)],
]


def test_criterion_2_two_delay_chain_exact():
    result = eliminate_delays(generate(Sequential((2, 3))))
    source_trace = run(result.normalized_source, 100)
    target_trace = run(result.target, 100)
    assert _pairs(source_trace) == TWO_DELAY_SOURCE_ROWS
    assert _spikes(target_trace) == TWO_DELAY_TARGET_ROWS
    assert all(s.closed_remaining == 0 for c in target_trace.configurations for s in c.states)
    assert source_trace.halted and source_trace.final.tick == 8
    assert target_trace.halted and target_trace.final.tick == 8
    assert source_trace.final.environment == 1 and target_trace.final.environment == 1
    table = format_trace(target_trace, TraceStyle.TABLE)
    cells = [line.split("\t")[1:] for line in table.splitlines()]
    assert cells == [[str(v) for v in row] + [str(env)] for row, env in zip(
        TWO_DELAY_TARGET_ROWS, [0, 0, 0, 0, 0, 0, 0, 0, 1]
    )]
    report(2, "two-delay chain reproduces all 9 rows, both halt at 8 with env 1")


# --- criterion 3: join, target rows cell for cell -----------------------------

JOIN_TARGET_ROWS = [
    [1, 1, 0, 0, 0, 0],
    [0, 0, 2, 2, 0, 0],
    [0, 0, 0, 0, 4, 0],
    [0, 0, 0, 0, 2, 1],
    [0, 0, 0, 0, 0, 2],
    [0, 0, 0, 0, 0, 0],
]

JOIN_SOURCE_ROWS = [
    [(1, 0), (1, 0), (0, 0)],
    [(0, 0), (0, 0), (2, 0)],
    [(0, 0), (0, 0), (0, 3)],
    [(0, 0), (0, 0), (0, 2)],
    [(0, 0), (0, 0), (0, 1)],
    [(0, 0), (0, 0), (0, 0)],
]


def test_criterion_3_join_exact():
    result = eliminate_delays(generate(Join(3)))
    source_trace = run(result.normalized_source, 100)
    target_trace = run(result.target, 100)
    assert _pairs(source_trace) == JOIN_SOURCE_ROWS
    assert _spikes(target_trace) == JOIN_TARGET_ROWS
    assert source_trace.halted and source_trace.final.tick == 5
    assert target_trace.halted and target_trace.final.tick == 5
    assert source_trace.final.environment == 1 and target_trace.final.environment == 1
    report(3, "join reproduces all 6 rows, both halt at 5 with env 1")


# --- criterion 4: single-delay chain, one documented deviation -----------------
#
# The published worked example for this construct prints the tick-3 row as
# (0, 0, 0, 0, 1, 0), with the metering neuron already empty.  Under the
# consume-c-per-tick semantics (which every other row of that example, and
# the whole two-delay table, follow) the metering neuron still holds one of
# its two spikes at tick 3, so the expected row here is (0, 0, 0, 1, 1, 0).
# Rows t0-t2 and t4-t5 match the published values exactly.

SINGLE_DELAY_TARGET_ROWS = [
    [1, 0, 0, 0, 0],
    [0, 1, 1, 0, 0],
    [0, 0, 0, 2, 0],
    [0, 0, 0, 1, 1],  # derived row; see note above
    [0, 0, 0, 0, 2],
    [0, 0, 0, 0, 0],
]


def test_criterion_4_single_delay_chain_with_documented_deviation():
    result = eliminate_delays(generate(Sequential((3,))))
    trace = run(result.target, 100)
    rows = _spikes(trace)
    env = [c.environment for c in trace.configurations]
    assert rows == SINGLE_DELAY_TARGET_ROWS
    assert env == [0, 0, 0, 0, 0, 1]
    published_t3 = [0, 0, 0, 0, 1]
    assert rows[3] != published_t3, "derived row must differ from the published one"
    assert trace.halted and trace.final.tick == 5
    report(4, "single-delay rows match (t3 uses the derived value)")


# --- criterion 5: R1/R2 sweep over all delays ---------------------------------


def test_criterion_5_requirement_sweep():
    instances = sweep_instances()
    start = time.perf_counter()
    for instance in instances:
        result = eliminate_delays(generate(instance))
        verdict = co_simulate(result.normalized_source, result.target, 200)
        assert verdict.r1_holds and verdict.r2_holds, (instance, verdict)
        assert verdict.first_divergence is None, (instance, verdict)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"sweep took {elapsed:.3f} s"
    report(5, f"{len(instances)} instances pass R1 and R2 in {elapsed * 1000:.0f} ms")


# --- criterion 6: iteration trajectories pointwise -----------------------------


def test_criterion_6_iteration_trajectories():
    for instance in iteration_instances():
        result = _transformed(instance)
        source_env = env_trajectory(result.normalized_source, 200)
        target_env = env_trajectory(result.target, 200)
        assert source_env == target_env, instance
        assert len(source_env) == 201  # loops never halt inside the window
        assert source_env[-1] > 0
    report(6, "iteration trajectories pointwise equal over 200 ticks, d in 2..8")


def test_criterion_6b_long_chain_trajectory_is_fast():
    # the delay-free size of a 1000-hop d=3 chain; a dense kernel that scans
    # every neuron on every tick needs about 22 s here
    n = 4001
    neurons = tuple(Neuron(f"c{i}", int(i == 0), (Rule.semi_homogeneous(1),)) for i in range(n))
    synapses = frozenset((f"c{i}", f"c{i + 1}") for i in range(n - 1))
    chain = SnpSystem(neurons, synapses, f"c{n - 1}", "long-chain")
    start = time.perf_counter()
    env = env_trajectory(chain, 5000)
    elapsed = time.perf_counter() - start
    assert env == [0] * n + [1]
    assert elapsed < 0.5, f"{n}-neuron chain took {elapsed:.3f} s"
    report("6b", f"{n}-neuron chain trajectory in {elapsed * 1000:.0f} ms")


# --- criterion 7: neuron-count law ---------------------------------------------


def _declared_delays(instance) -> tuple[int, ...]:
    """The delays a routing instance declares, in neuron order."""
    if isinstance(instance, Sequential):
        return instance.delays
    if isinstance(instance, Split):
        return tuple(d for d in (instance.d_left, instance.d_right) if d)
    return (instance.d,)  # Iteration and Join carry one delay


def test_criterion_7_count_law():
    checked = 0
    for instance in sweep_instances() + iteration_instances():
        result = _transformed(instance)
        assert check_count_law(result), instance
        assert result.delays == _declared_delays(instance), instance
        checked += 1
    rng = random.Random(20260810)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BatchOverlapWarning)
        from snpkit import compose

        for i in range(100):
            parts = [random_instance(rng) for _ in range(rng.randint(2, 4))]
            result = eliminate_delays(compose(parts, name=f"composite-{i}"))
            assert check_count_law(result), (i, parts)
            assert result.delays == sum(map(_declared_delays, parts), ()), (i, parts)
            checked += 1
    report(7, f"added neurons equal the delay sum on {checked} systems")


def test_criterion_7b_long_chain_rewrite_is_fast():
    # the overlap check follows the source's one run; the static path
    # analysis it replaced took about 410 s here
    source = generate(Sequential((3,) * 1000))
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error", BatchOverlapWarning)
        result = eliminate_delays(source)
    elapsed = time.perf_counter() - start
    assert result.hazards == ()
    assert len(result.target.neurons) == len(source.neurons) + 3000
    assert elapsed < 1.0, f"1000-hop chain rewrite took {elapsed:.3f} s"
    report("7b", f"1000-hop chain rewritten and checked in {elapsed * 1000:.0f} ms")


# --- criterion 8: feeder normalization ------------------------------------------


def test_criterion_8_feeder_normalization():
    chain = SnpSystem(
        (
            Neuron("11", 1, (Rule.semi_homogeneous(1, delay=3),)),
            Neuron("12", 0, (Rule.semi_homogeneous(1),)),
        ),
        frozenset({("11", "12")}),
        "12",
        "delayed-holder",
    )
    cases = [chain] + [generate(Iteration(d, "first")) for d in range(2, 9)]
    for system in cases:
        normalized, feeders = normalize_initial(system)
        assert len(feeders) == 1
        result = eliminate_delays(system)
        assert result.feeders == feeders
        assert feeders[0] in {n.id for n in result.normalized_source.neurons}
        assert feeders[0] in {n.id for n in result.target.neurons}
        verdict = co_simulate(result.normalized_source, result.target, 200)
        assert verdict.equivalent, system.name
        assert verdict.first_divergence is None
    report(8, f"one feeder added to both systems on {len(cases)} instances, verdicts hold")


# --- criterion 9: property suites -----------------------------------------------


def _criteria_systems():
    systems = []
    for instance in sweep_instances() + iteration_instances():
        result = _transformed(instance)
        systems.append(result.normalized_source)
        systems.append(result.target)
    return systems


def test_criterion_9a_guard_membership_against_enumeration(relay):
    guards = {r.guard for r in relay.neurons[1].rules}
    for system in _criteria_systems():
        for neuron in system.neurons:
            for rule in neuron.rules:
                guards.add(rule.guard)
    for path in SYSTEMS_DIR.glob("*.snp"):
        for neuron in parse_system(path.read_text()).neurons:
            for rule in neuron.rules:
                guards.add(rule.guard)
    assert len(guards) >= 5
    for guard in guards:
        members = semilinear_members(guard.terms, 1000)
        for k in range(1001):
            assert guard.matches(k) == (k in members), (guard, k)
    report("9a", f"{len(guards)} corpus guards agree with enumeration for k <= 1000")


def test_criterion_9b_round_trips():
    documents = sorted(SYSTEMS_DIR.glob("*.snp"))
    assert documents
    for path in documents:
        system = parse_system(path.read_text())
        assert parse_system(serialize_system(system)) == system
    from .conftest import random_system

    rng = random.Random(424242)
    for _ in range(500):
        system = random_system(rng)
        assert parse_system(serialize_system(system)) == system
    report("9b", f"round-trip holds on {len(documents)} documents and 500 random systems")


def test_criterion_9c_trace_invariants(relay):
    traced = 0
    for system in [relay] + _criteria_systems():
        trace = run(system, 200)
        assert_trace_invariants(system, trace)
        traced += 1
    report("9c", f"isolation and counter discipline hold on {traced} traces")
