"""snpkit: spiking neural P systems with delays, a delay-eliminating
rewrite, and co-simulation equivalence checking.

The names below are the user-facing API.  The parts behind them
(``build_gadget``, ``normalize_initial``, ``enabled_rules`` and the like)
are imported from their submodules.
"""

from .eliminate import (
    BatchOverlapWarning,
    RewriteTooLarge,
    TransformResult,
    UnsupportedDelayedRule,
    batch_hazards,
    check_count_law,
    eliminate_delays,
)
from .equivalence import Verdict, co_simulate, env_trajectory, verify
from .model import Neuron, Rule, SnpSystem, SpikeRegex, ValidationError, validate
from .routing import Iteration, Join, Sequential, Split, compose, generate
from .semantics import (
    Configuration,
    Kernel,
    NeuronState,
    NondeterministicChoice,
    Trace,
    is_halting,
    run,
    step,
)
from .textio import ParseError, TraceStyle, export_dot, format_trace, parse_system, serialize_system

__version__ = "0.1.0"

__all__ = [
    "BatchOverlapWarning",
    "Configuration",
    "Iteration",
    "Join",
    "Kernel",
    "Neuron",
    "NeuronState",
    "NondeterministicChoice",
    "ParseError",
    "RewriteTooLarge",
    "Rule",
    "Sequential",
    "SnpSystem",
    "SpikeRegex",
    "Split",
    "Trace",
    "TraceStyle",
    "TransformResult",
    "UnsupportedDelayedRule",
    "ValidationError",
    "Verdict",
    "batch_hazards",
    "check_count_law",
    "co_simulate",
    "compose",
    "eliminate_delays",
    "env_trajectory",
    "export_dot",
    "format_trace",
    "generate",
    "is_halting",
    "parse_system",
    "run",
    "serialize_system",
    "step",
    "validate",
    "verify",
]
