"""Layer spans and counters, recorded from outside the program.

``Tracer.install`` wraps snpkit's public functions in every snpkit module
that looks them up by name, so a call made by the program itself is
recorded as well as one made by the benchmark; ``uninstall`` puts the
originals back.  Each span is ``(name, start, end, parent, request)``:
``parent`` is the index of the enclosing span (-1 for none) and
``request`` numbers the CLI call it belongs to.  Spans stay in memory
until the benchmark writes them out.

Counters that need the program's results (the traces ``run`` returns,
the verdict of ``co_simulate``, ...) are collected by ``drain``, which the
benchmark calls after each CLI call returns, so that the work of counting
falls outside every span.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function, layer metric of its self time)
WRAPPED = (
    ("snpkit.textio", "parse_system", "textio.parse_s"),
    ("snpkit.textio", "serialize_system", "textio.serialize_s"),
    ("snpkit.textio", "format_trace", "textio.format_trace_s"),
    ("snpkit.model", "validate", "model.validate_s"),
    ("snpkit.eliminate", "normalize_initial", "eliminate.normalize_s"),
    ("snpkit.eliminate", "build_gadget", "eliminate.build_gadget_s"),
    ("snpkit.eliminate", "batch_hazards", "eliminate.hazards_s"),
    ("snpkit.eliminate", "eliminate_delays", "eliminate.rewrite_s"),
    ("snpkit.semantics", "run", "semantics.run_s"),
    ("snpkit.semantics", "step", "semantics.step_s"),
    ("snpkit.semantics", "is_halting", "semantics.is_halting_s"),
    ("snpkit.equivalence", "co_simulate", "equivalence.cosim_s"),
    ("snpkit.cli", "main", "cli.self_s"),
)
# functions whose results ``drain`` counts from
_KEEP = {"run", "co_simulate", "eliminate_delays", "batch_hazards", "serialize_system", "format_trace"}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = 0
        self._stack: list[int] = []
        self._kept: list = []  # (span index, parent, name, first argument, result)
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack, kept, clock = self.spans, self._stack, self._kept, time.perf_counter
        keep = name in _KEEP

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if keep:
                kept.append((index, parent, name, args[0] if args else None, result))
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "snpkit" or key.startswith("snpkit.")]
        for home, name, _ in WRAPPED:
            original = getattr(sys.modules[home], name)
            wrapper = self._wrap(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def drain(self, counts: dict, enabled_rules) -> None:
        """Add the counters of the last CLI call to ``counts`` and drop the
        results it kept."""
        runs_by_parent = defaultdict(list)
        retained = 0
        for index, parent, name, arg, result in self._kept:
            if name == "run":
                add_run_counts(counts, arg, result, enabled_rules)
                runs_by_parent[parent].append(result)
                retained += len(result.configurations)
            elif name == "eliminate_delays":
                counts["eliminate.neurons_added"] += result.added_count
            elif name == "batch_hazards":
                counts["eliminate.hazards_flagged"] += bool(result)
            elif name in ("serialize_system", "format_trace"):
                counts["textio.output_bytes"] += len(result.encode())
        for index, parent, name, arg, result in self._kept:
            if name == "co_simulate":
                add_cosim_counts(counts, result, runs_by_parent[index])
        counts["semantics.configs_retained"] = max(counts["semantics.configs_retained"], retained)
        self._kept.clear()


def add_run_counts(counts: dict, system, trace, enabled_rules) -> None:
    """Ticks, neuron-ticks, active neuron-ticks, firings and lost spikes of one
    run, from its configurations and ``enabled_rules`` alone.

    A neuron-tick is active when the neuron is closed or has an enabled rule
    at the start of the tick.  Spikes sent are the batches leaving along
    every synapse (firings of undelayed rules, and parked batches released
    by reopening neurons); spikes delivered are the change in the total
    spike count plus the spikes consumed.  The difference was lost at
    closed neurons.
    """
    configs = trace.configurations
    ticks = len(configs) - 1
    degree = [len(s) for s in system.successors]
    active = firings = lost = 0
    before_total = sum(s.spikes for s in configs[0].states)
    for before, after in zip(configs, configs[1:]):
        sent = consumed = 0
        for neuron, state, out in zip(system.neurons, before.states, degree):
            if state.closed_remaining:
                active += 1
                if state.closed_remaining == 1:
                    sent += state.pending_emission * out
                continue
            enabled = enabled_rules(neuron, state)
            if enabled:
                active += 1
                firings += 1
                rule = neuron.rules[enabled[0]]
                consumed += rule.consume
                if rule.delay == 0:
                    sent += rule.produce * out
        after_total = sum(s.spikes for s in after.states)
        lost += sent - (after_total - before_total + consumed)
        before_total = after_total
    counts["semantics.ticks"] += ticks
    counts["semantics.neuron_ticks"] += ticks * len(system.neurons)
    counts["semantics.active_neuron_ticks"] += active
    counts["semantics.firings"] += firings
    counts["semantics.lost_spikes"] += lost


def add_cosim_counts(counts: dict, verdict, traces) -> None:
    """Ticks both sides simulated, and how many of them came before the
    verdict was decided: at the first divergence, else when the later of
    two halting sides halts, else when the one halting side halts, else at
    the bound."""
    halts = [h for h in (verdict.source_halt, verdict.target_halt) if h is not None]
    if verdict.first_divergence is not None:
        decisive = verdict.first_divergence[0]
    elif len(halts) == 2:
        decisive = max(halts)
    elif halts:
        decisive = halts[0]
    else:
        decisive = verdict.bound
    for trace in traces:
        ticks = len(trace.configurations) - 1
        counts["equivalence.ticks_simulated"] += ticks
        counts["equivalence.ticks_decisive"] += min(ticks, decisive)


METRIC = {name: key for _, name, key in WRAPPED}


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_times(spans) -> tuple[dict, dict, float]:
    """Self time per layer metric, span counts per function, and the total
    time inside ``run`` spans (the kernel, children included)."""
    self_time = defaultdict(float)
    calls = defaultdict(int)
    kernel = 0.0
    for span, own in zip(spans, self_times(spans)):
        name, start, end = span[:3]
        self_time[METRIC[name]] += own
        calls[name] += 1
        if name == "run":
            kernel += end - start
    return self_time, calls, kernel
