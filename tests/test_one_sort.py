"""The one sort of a utility matrix against the per-row code it replaced.

validate_instance and market._preference_tables read their rankings,
tie refusal, smallest adjacent gap and place table off one stable sort
of the whole matrix. The reference below is the earlier derivation: one
argsort and one set per row for the rankings and the tie check, a second
ascending sort of the matrix for the gap, and nested loops for the
places. Both must agree bit for bit, refusals and messages included.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from housebandits.errors import TiedPreferenceError
from housebandits.instances import TIE_BREAK_EPS, lower_bound_instance
from housebandits.market import _preference_tables, validate_instance


def reference_ranking(u, player):
    row = np.asarray(u, dtype=float)[player]
    if len(set(row.tolist())) != len(row):
        raise TiedPreferenceError(f"player {player} has tied utilities: {row.tolist()}")
    return tuple(int(j) for j in np.argsort(-row, kind="stable"))


def reference_min_gap(u):
    if u.shape[0] == 1:
        return math.inf
    ordered = np.sort(u, axis=1)
    return float(np.min(ordered[:, 1:] - ordered[:, :-1]))


def reference_tables(u):
    n = u.shape[0]
    rankings = [reference_ranking(u, i) for i in range(n)]
    pos = [[0] * n for _ in range(n)]
    for i in range(n):
        for p, j in enumerate(rankings[i]):
            pos[i][j] = p
    return [list(r) for r in rankings], pos


def outcome(derive, u):
    """What derive(u) returns, or the type and message it raises."""
    try:
        return derive(u)
    except TiedPreferenceError as exc:
        return type(exc), str(exc)


@st.composite
def matrices(draw, specials):
    """n x n matrices, n in 1..8, of floats in [0, 1], with a few
    entries set to the given special values and a few copied within
    their row."""
    n = draw(st.integers(1, 8))
    rows = [draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)) for _ in range(n)]
    cell = st.integers(0, n - 1)
    for i, j, v in draw(st.lists(st.tuples(cell, cell, st.sampled_from(specials)), max_size=4)):
        rows[i][j] = v
    for i, a, b in draw(st.lists(st.tuples(cell, cell, cell), max_size=2)):
        rows[i][b] = rows[i][a]
    return np.array(rows, dtype=float)


@settings(max_examples=400, deadline=None)
@given(matrices((0.0, -0.0, 1.0)))
@example(np.array([[0.4]]))
@example(np.array([[0.0, -0.0], [0.2, 0.1]]))
@example(np.array([[0.1, 0.2], [0.3, 0.3]]))
def test_validated_rankings_gap_and_refusals_match_the_per_row_code(u):
    def derived(u):
        inst = validate_instance(u)
        return inst.rankings, inst.min_gap.hex()

    def reference(u):
        return tuple(reference_ranking(u, i) for i in range(len(u))), reference_min_gap(u).hex()

    assert outcome(derived, u) == outcome(reference, u)


@settings(max_examples=400, deadline=None)
@given(matrices((0.0, -0.0, math.inf, -math.inf, math.nan)))
@example(np.array([[0.4]]))
@example(np.array([[math.nan, math.nan], [0.2, 0.1]]))
@example(np.array([[0.2, 0.1], [math.inf, math.inf]]))
@example(np.array([[-math.inf, 0.5, -math.inf], [0.1, 0.2, 0.3], [0.3, 0.2, 0.1]]))
def test_unvalidated_tables_match_the_per_row_code(u):
    assert outcome(_preference_tables, u) == outcome(reference_tables, u)


@pytest.mark.parametrize("n, delta, i_star",
                         [(2, 0.25, 1), (3, 0.2, 2), (5, 0.2, 1), (7, 0.01, 7), (40, 0.1, 13)])
def test_lower_bound_matrix_is_the_per_element_formula(n, delta, i_star):
    u = np.empty((n, n))
    for i in range(n):
        off = 0.25 if i == i_star - 1 else 0.5 - delta
        for j in range(n):
            u[i, j] = 0.5 if j == (i + 1) % n else off + TIE_BREAK_EPS * (j + 1)
    assert lower_bound_instance(n, delta, i_star).utilities.tobytes() == u.tobytes()
