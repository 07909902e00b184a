#!/usr/bin/env python3
"""Print side-by-side runs of each routing construct and its delay-free
rewrite, in the tabular layout used for worked examples.

Usage: python scripts/reproduce_tables.py
"""

from snpkit import (
    Join,
    Sequential,
    TraceStyle,
    format_trace,
    generate,
    run,
    verify,
)


def show(instance):
    source = generate(instance)
    result, verdict = verify(source, 200)
    source_trace = run(result.normalized_source, 100)
    target_trace = run(result.target, 100)
    print(f"=== {source.name} ===")
    print(f"source neurons: {', '.join(result.normalized_source.ids)}")
    print(format_trace(source_trace, TraceStyle.TABLE, system=result.normalized_source))
    print(f"target neurons: {', '.join(result.target.ids)}")
    print(format_trace(target_trace, TraceStyle.TABLE, system=result.target))
    print(
        f"halting: source {verdict.source_halt}, target {verdict.target_halt}; "
        f"environment: {verdict.source_env_at_halt} / {verdict.target_env_at_halt}; "
        f"R1 {'ok' if verdict.r1_holds else 'FAIL'}, R2 {'ok' if verdict.r2_holds else 'FAIL'}"
    )
    print()


def main():
    show(Sequential((3,)))
    show(Sequential((2, 3)))
    show(Join(3))


if __name__ == "__main__":
    main()
