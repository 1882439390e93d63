"""Property-based tests for the dimension-allocation greedy.

The paper reduces dimension selection to a separable convex resource
allocation problem solved exactly by a greedy ([16]).  We verify on
random inputs that our greedy satisfies the constraints and is
*optimal*: no feasible allocation has a smaller total Z-sum.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dimensions import allocate_dimensions


@st.composite
def z_matrices(draw):
    k = draw(st.integers(min_value=1, max_value=4))
    d = draw(st.integers(min_value=2, max_value=6))
    values = draw(st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=k * d, max_size=k * d,
    ))
    z = np.array(values).reshape(k, d)
    total = draw(st.integers(min_value=2 * k, max_value=k * d))
    return z, total


@given(z_matrices())
@settings(max_examples=80)
def test_constraints_hold(zt):
    z, total = zt
    sets = allocate_dimensions(z, total, min_per_row=2)
    assert sum(len(s) for s in sets) == total
    assert all(len(s) >= 2 for s in sets)
    for i, s in enumerate(sets):
        assert len(set(s)) == len(s)
        assert all(0 <= j < z.shape[1] for j in s)


def brute_force_optimum(z, total, min_per_row=2):
    """Exact optimum by enumerating per-row selection sizes and using
    the fact that, for a fixed size, each row takes its smallest values."""
    k, d = z.shape
    sorted_rows = [np.sort(z[i]) for i in range(k)]
    prefix = [np.concatenate([[0.0], np.cumsum(r)]) for r in sorted_rows]
    best = np.inf
    sizes = range(min_per_row, d + 1)
    for combo in itertools.product(sizes, repeat=k):
        if sum(combo) != total:
            continue
        cost = sum(prefix[i][c] for i, c in enumerate(combo))
        best = min(best, cost)
    return best


@given(z_matrices())
@settings(max_examples=50, deadline=None)
def test_greedy_is_optimal(zt):
    z, total = zt
    sets = allocate_dimensions(z, total, min_per_row=2)
    greedy_cost = sum(z[i, j] for i, s in enumerate(sets) for j in s)
    optimal = brute_force_optimum(z, total)
    assert greedy_cost == pytest.approx(optimal, abs=1e-9)


def test_known_example_from_paper_structure():
    """k*l budget, 2-per-row floor, most-negative-first (paper Fig. 4)."""
    z = np.array([
        [-3.0, -2.0, -1.0, 5.0],
        [-9.0, 0.0, 1.0, 2.0],
    ])
    sets = allocate_dimensions(z, total=5, min_per_row=2)
    # floors: row0 {0,1}, row1 {0,1}; 5th pick: z[0,2] = -1 beats z[1,2] = 1
    assert sets[0] == (0, 1, 2)
    assert sets[1] == (0, 1)
