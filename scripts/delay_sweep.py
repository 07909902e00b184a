#!/usr/bin/env python3
"""Sweep every routing construct over delays 1..8, rewrite each instance,
and co-simulate; then repeat on seeded random compositions.

Exits 1 when a composition diverges without an overlap warning or an
instance breaks the count law, so the script doubles as a check.  The
counts go to stdout, which is the same on every run; the sweep's elapsed
time goes to stderr.

Usage: python scripts/delay_sweep.py [--bound N] [--compositions N] [--seed N]
"""

import argparse
import random
import sys
import time
import warnings

from snpkit import (
    BatchOverlapWarning,
    Iteration,
    Join,
    Sequential,
    Split,
    check_count_law,
    compose,
    generate,
    verify,
)


def sweep_instances():
    for d in range(1, 9):
        yield Sequential((d,))
        yield Join(d)
        yield Split(d_left=d)
        yield Split(d_right=d)
    for d1 in range(1, 9):
        for d2 in range(1, 9):
            yield Sequential((d1, d2))
            yield Split(d_left=d1, d_right=d2)
    for d in range(2, 9):
        yield Iteration(d, "first")
        yield Iteration(d, "second")


def random_instance(rng):
    kind = rng.choice(["sequential", "iteration", "join", "split"])
    if kind == "sequential":
        return Sequential(tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3))))
    if kind == "iteration":
        return Iteration(rng.randint(1, 8), rng.choice(["first", "second"]))
    if kind == "join":
        return Join(rng.randint(1, 8))
    left = rng.choice([None, rng.randint(1, 8)])
    right = rng.randint(1, 8) if left is None else rng.choice([None, rng.randint(1, 8)])
    return Split(left, right)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bound", type=int, default=200)
    parser.add_argument("--compositions", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20260810)
    args = parser.parse_args()

    start = time.perf_counter()
    total = halting = trajectory_only = 0
    count_law_failures = []
    for instance in sweep_instances():
        source = generate(instance)
        result, verdict = verify(source, args.bound)
        total += 1
        if not check_count_law(result):
            count_law_failures.append(source.name)
        if verdict.r1_holds is None:
            assert verdict.equivalent, source.name
            trajectory_only += 1
        else:
            assert verdict.r1_holds and verdict.r2_holds, source.name
            halting += 1
    print(f"sweep: {total} instances in {time.perf_counter() - start:.3f}s", file=sys.stderr)
    print(
        f"sweep: {total} instances; "
        f"{halting} halting pairs satisfy R1+R2, "
        f"{trajectory_only} looping pairs match trajectories over {args.bound} ticks"
    )

    rng = random.Random(args.seed)
    flagged_equivalent = flagged_divergent = quiet_equivalent = 0
    counterexamples = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BatchOverlapWarning)
        for i in range(args.compositions):
            parts = [random_instance(rng) for _ in range(rng.randint(2, 4))]
            result, verdict = verify(compose(parts, name=f"composite-{i}"), args.bound)
            if not check_count_law(result):
                count_law_failures.append(f"composite-{i}")
            if result.hazards:
                if verdict.equivalent:
                    flagged_equivalent += 1
                else:
                    flagged_divergent += 1
            elif verdict.equivalent:
                quiet_equivalent += 1
            else:
                counterexamples.append((i, parts, verdict.first_divergence))
    print(
        f"compositions: {args.compositions} random chains; "
        f"{quiet_equivalent} unflagged and equivalent, "
        f"{flagged_divergent} flagged and genuinely divergent, "
        f"{flagged_equivalent} flagged; equivalent within the bound"
    )
    for i, parts, divergence in counterexamples:
        print(f"  counterexample composite-{i}: {parts} diverges at {divergence}")
    if count_law_failures:
        print(f"count law FAILED on: {', '.join(count_law_failures)}")
    else:
        print("count law: added neurons equal the delay sum on every instance")
    return 1 if counterexamples or count_law_failures else 0


if __name__ == "__main__":
    sys.exit(main())
