"""Command-line surface: sim, transform, verify, gen, dot.

Exit codes: 0 success (verify: equivalent), 1 verification failure,
2 input error, 3 engine error (nondeterministic system), 141 (the
``snpkit`` program only) standard output closed early.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from pathlib import Path

from .eliminate import BatchOverlapWarning, TransformResult, UnsupportedDelayedRule, eliminate_delays
from .equivalence import verify
from .model import ValidationError
from .routing import Iteration, Join, Sequential, Split, generate
from .semantics import NondeterministicChoice, frames
from .textio import ParseError, TraceStyle, export_dot, parse_system, serialize_system, trace_lines

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT = 2
EXIT_ENGINE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a program the signal ended


def _load(path: str):
    return parse_system(Path(path).read_text())


def _cmd_sim(args) -> int:
    """Print the run as ``frames`` gives it, each piece of ``trace_lines``
    as it comes: a configuration's line, or a visit of the period kept after
    a recurrence proof, the last cut at the budget.  No trace is kept.

    The outcome record (machine style) or halting line comes last and only
    on success: an engine error stops the stream without one.
    """
    system = _load(args.file)
    if args.max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    run = frames(system, args.max_steps)
    write = sys.stdout.write
    for piece in trace_lines(run, TraceStyle(args.style), args.ascii, system, halting_line=True):
        write(piece)  # a visit can be long: no copy of it with the newline
        write("\n")
    return EXIT_OK


def _accounting(result: TransformResult) -> list[str]:
    delays = result.delays
    lines = [
        f"delayed neurons: {len(delays)} (delays: {', '.join(map(str, delays)) or 'none'})",
        f"feeder neurons added: {len(result.feeders)}",
        f"neurons: {len(result.normalized_source.neurons) - len(result.feeders)}"
        f" -> {len(result.target.neurons)} (added {result.added_count})",
        f"added neurons net of feeders: {result.added_count - len(result.feeders)}"
        f" = sum of delays: {sum(delays)}",
    ]
    return lines + _warnings(result.hazards)


def _warnings(hazards: tuple[str, ...]) -> list[str]:
    return [f"warning: {hazard}" for hazard in hazards]


def _cmd_transform(args) -> int:
    system = _load(args.file)
    result = eliminate_delays(system)
    document = serialize_system(result.target)
    if args.out:
        Path(args.out).write_text(document)
    for line in _accounting(result):
        print(line)
    if args.provenance:
        for nid in result.target.ids:
            p = result.provenance[nid]
            if p.copied:
                print(f"{nid} <- {p.source} (copied)")
            else:
                role = f"{p.role} {p.index}" if p.role == "multiplier" else p.role
                print(f"{nid} <- {p.source} ({role})")
    if not args.out:
        print()
        print(document, end="")
    return EXIT_OK


def _cmd_verify(args) -> int:
    system = _load(args.file)
    try:
        result, verdict = verify(system, args.bound)
    except NondeterministicChoice as err:
        for line in _warnings(err.hazards):
            print(line)
        raise
    for line in _warnings(result.hazards):
        print(line)
    for label, halt, env in (
        ("source", verdict.source_halt, verdict.source_env_at_halt),
        ("target", verdict.target_halt, verdict.target_env_at_halt),
    ):
        if halt is None:
            print(f"{label}: no halt within {verdict.bound} ticks")
        else:
            print(f"{label}: halted at tick {halt}, environment {env}")
    if verdict.r1_holds is None:
        print("R1/R2 (equal halting tick / environment): not applicable")
    else:
        print(f"R1 equal halting tick: {'yes' if verdict.r1_holds else 'no'}")
        print(f"R2 equal environment at halt: {'yes' if verdict.r2_holds else 'no'}")
    if verdict.first_divergence is None:
        print(f"environment trajectories agree through tick {verdict.trajectory_equal_through}")
    else:
        tick, s, t = verdict.first_divergence
        print(f"first divergence at tick {tick}: source {s}, target {t}")
    print(f"verdict: {'equivalent' if verdict.equivalent else 'NOT equivalent'}")
    return EXIT_OK if verdict.equivalent else EXIT_VERIFY_FAILED


def _cmd_gen(args) -> int:
    two = args.d1 is not None or args.d2 is not None
    reads = {
        "sequential": ("d1", "d2") if two else ("d",),
        "iteration": ("d", "placement"),
        "join": ("d",),
        "split": ("d1", "d2"),
    }[args.kind]
    for option in ("d", "d1", "d2", "placement"):
        if option not in reads and getattr(args, option) is not None:
            raise ValueError(f"{args.kind} ignores --{option}")
    if args.kind == "sequential":
        if two:
            if args.d1 is None or args.d2 is None:
                raise ValueError("sequential with two delays needs both --d1 and --d2")
            instance = Sequential((args.d1, args.d2))
        elif args.d is not None:
            instance = Sequential((args.d,))
        else:
            raise ValueError("sequential needs --d or --d1/--d2")
    elif args.kind == "iteration":
        if args.d is None:
            raise ValueError("iteration needs --d")
        instance = Iteration(args.d, args.placement or "second")
    elif args.kind == "join":
        if args.d is None:
            raise ValueError("join needs --d")
        instance = Join(args.d)
    else:
        if args.d1 is None and args.d2 is None:
            raise ValueError("split needs --d1 (left) and/or --d2 (right)")
        instance = Split(args.d1, args.d2)
    print(serialize_system(generate(instance)), end="")
    return EXIT_OK


def _cmd_dot(args) -> int:
    print(export_dot(_load(args.file)), end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snpkit",
        description="Simulate spiking neural P systems, eliminate rule delays, "
        "and verify the rewrite by co-simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("sim", help="run a system and print its trace")
    sim.add_argument("file")
    sim.add_argument("--max-steps", type=int, default=1000)
    sim.add_argument("--style", choices=[s.value for s in TraceStyle], default="paper")
    sim.add_argument("--ascii", action="store_true", help="use <> instead of angle brackets")
    sim.set_defaults(handler=_cmd_sim)

    transform = sub.add_parser("transform", help="rewrite a system to be delay-free")
    transform.add_argument("file")
    transform.add_argument("--out", help="write the rewritten system to this file")
    transform.add_argument("--provenance", action="store_true")
    transform.set_defaults(handler=_cmd_transform)

    verify = sub.add_parser("verify", help="transform, then co-simulate against the source")
    verify.add_argument("file")
    verify.add_argument("--bound", type=int, default=200)
    verify.set_defaults(handler=_cmd_verify)

    gen = sub.add_parser("gen", help="emit a routing instance document")
    gen.add_argument("kind", choices=["sequential", "iteration", "join", "split"])
    gen.add_argument("--d", type=int)
    gen.add_argument("--d1", type=int)
    gen.add_argument("--d2", type=int)
    gen.add_argument("--placement", choices=["first", "second"])
    gen.set_defaults(handler=_cmd_gen)

    dot = sub.add_parser("dot", help="DOT export to standard output")
    dot.add_argument("file")
    dot.set_defaults(handler=_cmd_dot)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``main`` runs many times in one."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise  # not an input error: the reader went away
    except (ParseError, ValidationError, UnsupportedDelayedRule, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except NondeterministicChoice as err:
        print(f"engine error: {err}", file=sys.stderr)
        return EXIT_ENGINE


def console() -> int:
    """The ``snpkit`` program.  Each hazard is already a ``warning:`` line on
    stdout, so the program does not show its ``BatchOverlapWarning`` too;
    ``main`` still issues it to in-process callers.

    When the reader of stdout goes away (``snpkit sim ... | head``), the
    program stops silently with 141, also when only the flush of its last
    output finds that out.  Stdout then points at the null device, so the
    interpreter's final flush of what is left cannot fail again.
    """
    warnings.simplefilter("ignore", BatchOverlapWarning)
    try:
        code = main()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(console())
