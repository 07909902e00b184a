"""Fuzzing the CLI boundary: whatever the input file holds, every command
ends with a documented exit code and never with an escaping exception."""

import io
import re
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from snpkit.cli import main

from .conftest import SYSTEMS_DIR, examples

SEED_DOCS = [path.read_bytes() for path in sorted(SYSTEMS_DIR.glob("*.snp"))]
TOKENS = [b"a", b"^", b"+", b"*", b"(", b")", b"|", b"/", b"->", b";", b"0", b"1", b"2", b"7",
          b" ", b"\n", b"#", b"=", b"neuron ", b"rule ", b"syn ", b"out ", b"spikes=", b"\xff"]


@st.composite
def documents(draw) -> bytes:
    """Random bytes, or a shipped document with a few spans replaced."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    data = bytearray(draw(st.sampled_from(SEED_DOCS)))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(data)))
        end = draw(st.integers(start, min(len(data), start + 8)))
        data[start:end] = draw(st.sampled_from(TOKENS) | st.binary(max_size=6))
    return bytes(data)


def _small_numbers(data: bytes) -> bool:
    """No count above 999: a delay d builds d neurons and d ticks."""
    return all(len(digits.lstrip(b"0")) <= 3 for digits in re.findall(rb"[0-9]+", data))


COMMANDS = [
    ["sim", "--max-steps", "60", "--style", "paper"],
    ["sim", "--max-steps", "60", "--style", "table", "--ascii"],
    ["sim", "--max-steps", "60", "--style", "machine"],
    ["transform", "--provenance"],
    ["verify", "--bound", "60"],
    ["dot"],
]


@settings(max_examples=examples(150), deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents())
def test_cli_exits_with_a_documented_code(data):
    assume(_small_numbers(data))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzzed.snp"
        path.write_bytes(data)
        for command in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter("ignore")
                code = main([command[0], str(path), *command[1:]])
            assert code in (0, 1, 2, 3), (command, code)
            if code in (2, 3):
                assert err.getvalue().startswith(("error: ", "engine error: ")), err.getvalue()
