"""One-shot baseline report, run as ``python3 bench/run.py --baseline``.

Measures, with the library called directly:

* the R1/R2 sweep over every construct with delays 1..8 (174 instances),
  and how the static overlap check fares on 100 random compositions
  (seed 20260810, as in ``scripts/delay_sweep.py``);
* ``batch_hazards`` on ``Sequential((3,) * n)`` for n = 100, 200, 400;
* overlap-check misses on 3000 random 2-6-neuron graphs and false flags
  on 1500 random chained compositions.

It takes about a minute, so it is not part of the per-workload runs.  The
report is printed and written to ``.bench_out/baseline.json``.
"""

from __future__ import annotations

import json
import random
import time
import warnings
from pathlib import Path

import inputs

BOUND = 200


def sweep_instances(routing):
    for d in range(1, 9):
        yield routing.Sequential((d,))
        yield routing.Join(d)
        yield routing.Split(d_left=d)
        yield routing.Split(d_right=d)
    for d1 in range(1, 9):
        for d2 in range(1, 9):
            yield routing.Sequential((d1, d2))
            yield routing.Split(d_left=d1, d_right=d2)
    for d in range(2, 9):
        yield routing.Iteration(d, "first")
        yield routing.Iteration(d, "second")


def overlap_outcomes(snp, systems) -> dict:
    """How the overlap warning lines up with co-simulation's verdict."""
    tally = {"unflagged_equivalent": 0, "flagged_divergent": 0, "flagged_equivalent": 0, "missed": 0}
    for system in systems:
        result = snp.eliminate.eliminate_delays(system)
        verdict = snp.equivalence.co_simulate(result.normalized_source, result.target, BOUND)
        if result.hazards:
            tally["flagged_divergent" if not verdict.equivalent else "flagged_equivalent"] += 1
        else:
            tally["missed" if not verdict.equivalent else "unflagged_equivalent"] += 1
    return tally


def main(snp) -> int:
    routing = snp.routing
    report: dict = {}
    warnings.simplefilter("ignore")

    start = time.perf_counter()
    instances = list(sweep_instances(routing))
    for instance in instances:
        result = snp.eliminate.eliminate_delays(routing.generate(instance))
        verdict = snp.equivalence.co_simulate(result.normalized_source, result.target, BOUND)
        if not verdict.equivalent:
            raise SystemExit(f"sweep instance {instance} is not equivalent")
    report["sweep"] = {"instances": len(instances), "seconds": time.perf_counter() - start}

    rng = random.Random(20260810)
    compositions = [
        routing.compose([inputs.routing_instance(snp, rng) for _ in range(rng.randint(2, 4))])
        for _ in range(100)
    ]
    report["sweep_compositions"] = overlap_outcomes(snp, compositions)

    report["batch_hazards_seconds"] = {}
    for n in (100, 200, 400):
        system = routing.generate(routing.Sequential((3,) * n))
        start = time.perf_counter()
        snp.eliminate.batch_hazards(system)
        report["batch_hazards_seconds"][n] = time.perf_counter() - start

    rng = random.Random("baseline-graphs")
    graphs = (
        snp.textio.parse_system(inputs.to_text(inputs.random_graph(rng, f"graph-{i}")))
        for i in range(3000)
    )
    report["random_graphs_3000"] = overlap_outcomes(snp, graphs)
    rng = random.Random("baseline-compositions")
    chained = (
        routing.compose([inputs.routing_instance(snp, rng) for _ in range(rng.randint(2, 4))])
        for _ in range(1500)
    )
    report["compositions_1500"] = overlap_outcomes(snp, chained)

    text = json.dumps(report, indent=1)
    print(text)
    out = Path(__file__).resolve().parent.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "baseline.json").write_text(text + "\n")
    return 0
