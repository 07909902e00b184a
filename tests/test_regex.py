"""Spike-count guard membership, checked against brute-force enumeration."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from snpkit import SpikeRegex

from .conftest import spike_regexes


def semilinear_members(terms, limit):
    """Independent oracle: enumerate every count the terms denote, up to limit."""
    members = set()
    for offset, period in terms:
        if period == 0:
            if offset <= limit:
                members.add(offset)
        else:
            value = offset
            while value <= limit:
                members.add(value)
                value += period
    return members


def test_matches_two_spike_batches():
    # (a^2)+ admits exactly the even positive counts
    assert SpikeRegex.multiples(2).matches(2)
    assert not SpikeRegex.multiples(2).matches(3)
    assert SpikeRegex.multiples(2).matches(4)


def test_plus_excludes_zero():
    assert not SpikeRegex.multiples(1).matches(0)
    assert SpikeRegex.multiples(1).matches(1)


def test_exactly():
    guard = SpikeRegex.exactly(3)
    assert [k for k in range(10) if guard.matches(k)] == [3]


def test_union_of_terms():
    guard = SpikeRegex(SpikeRegex.exactly(1).terms + SpikeRegex.exactly(3).terms)
    assert guard.terms == ((1, 0), (3, 0))
    assert [k for k in range(5) if guard.matches(k)] == [1, 3]


def test_terms_are_canonicalised():
    a = SpikeRegex(((3, 0), (1, 1), (3, 0)))
    b = SpikeRegex(((1, 1), (3, 0)))
    assert a == b
    assert a.terms == ((1, 1), (3, 0))


def test_rejects_empty_and_negative():
    with pytest.raises(ValueError):
        SpikeRegex(())
    with pytest.raises(ValueError):
        SpikeRegex(((-1, 2),))


def test_progression_with_offset():
    guard = SpikeRegex(((2, 5),))
    assert semilinear_members(guard.terms, 40) == {2, 7, 12, 17, 22, 27, 32, 37}
    assert all(guard.matches(k) == (k in {2, 7, 12, 17, 22, 27, 32, 37}) for k in range(41))


@given(spike_regexes(), st.integers(0, 300))
def test_matches_agrees_with_enumeration(guard, k):
    assert guard.matches(k) == (k in semilinear_members(guard.terms, k))
