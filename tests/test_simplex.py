from fractions import Fraction

import pytest

from vortexmoduli import simplex
from vortexmoduli.errors import DomainError
from vortexmoduli.scalars import PI, PiPoly
from vortexmoduli.simplex import feasible, maximize


@pytest.fixture
def pivot_cap(monkeypatch):
    """Fail fast instead of hanging when the pivot rule cycles."""
    pivot = simplex._pivot
    count = 0

    def capped(*args):
        nonlocal count
        count += 1
        if count > 100:
            raise AssertionError("simplex cycled: more than 100 pivots")
        pivot(*args)

    monkeypatch.setattr(simplex, "_pivot", capped)


@pytest.mark.parametrize(
    "first_rhs, expected",
    [
        # Vertex of x1 + 2 x2 <= 3 pi, 3 x1 + x2 <= 6: x1 = (12 - 3 pi)/5,
        # x2 = (9 pi - 6)/5, so x1 + x2 = (6 + 6 pi)/5.
        (3 * PI, PiPoly([Fraction(6, 5), Fraction(6, 5)])),
        # Same vertex with pi^2 in place of 3 pi: (6 + 2 pi^2)/5.
        (PI**2, PiPoly([Fraction(6, 5), 0, Fraction(2, 5)])),
    ],
)
def test_optimal_with_pi_valued_optimum(first_rhs, expected):
    result = maximize([[1, 2, 1, 0], [3, 1, 0, 1]], [first_rhs, 6], [1, 1, 0, 0])
    assert result.status == "optimal"
    assert result.value == expected


def test_redundant_row_is_dropped():
    # The second row is twice the first; its artificial stays basic at
    # level zero with no nonzero entry to pivot on, so the row is removed.
    result = maximize([[1, 1], [2, 2]], [PI, 2 * PI], [1, 0])
    assert result.status == "optimal"
    assert result.value == PI


def test_infeasible():
    assert maximize([[1, 1]], [PiPoly([3, -1])], [1, 0]).status == "infeasible"  # 3 - pi < 0
    assert maximize([[1, 1], [1, 1]], [PI, 3], [0, 0]).status == "infeasible"  # pi != 3
    assert not feasible([[1, 1]], [-PI])
    assert feasible([[1, -1], [1, 1]], [0, PiPoly([-1, 0, 1])])  # x1 = x2 = (pi^2 - 1)/2


def test_unbounded():
    result = maximize([[1, -1]], [PI], [1, 0])
    assert result.status == "unbounded"
    assert result.value is None


def test_beale_degenerate_lp_terminates_under_bland(pivot_cap):
    # Beale (1955): cycles under Dantzig's largest-coefficient rule from
    # the slack basis; x1..x3 are slacks.  Optimum 5/4 at x4 = x6 = 1.
    constraints = [
        [1, 0, 0, Fraction(1, 4), -8, -1, 9],
        [0, 1, 0, Fraction(1, 2), -12, Fraction(-1, 2), 3],
        [0, 0, 1, 0, 0, 1, 0],
    ]
    objective = [0, 0, 0, Fraction(3, 4), -20, Fraction(1, 2), -6]
    result = maximize(constraints, [0, 0, 1], objective)
    assert result.status == "optimal"
    assert result.value == Fraction(5, 4)


def test_degenerate_ratio_ties_leave_by_lowest_basis_index(pivot_cap):
    # Every ratio is 0, so each leaving row is chosen by the tie-break
    # alone.  Breaking ties by the highest basis index cycles forever on
    # this LP; Bland's lowest index reaches the unbounded ray.
    constraints = [
        [-1, -1, 4, 4, -2, -3, 1, 0, 0],
        [2, -2, 1, -1, 1, 3, 0, 1, 0],
        [-2, -3, 2, 3, -3, -1, 0, 0, 1],
    ]
    objective = [2, -3, -2, -4, 2, 2, 0, 0, 0]
    assert maximize(constraints, [0, 0, 0], objective).status == "unbounded"


@pytest.mark.parametrize("bad", [PI, PiPoly([2]), 0.5])
def test_non_rational_matrix_or_objective_entries_raise(bad):
    with pytest.raises(DomainError):
        maximize([[1, bad]], [1], [1, 0])
    with pytest.raises(DomainError):
        maximize([[1, 1]], [1], [bad, 0])


def test_inconsistent_dimensions_raise():
    with pytest.raises(DomainError):
        maximize([[1, 1]], [1, 2], [1, 0])  # rhs longer than the matrix
    with pytest.raises(DomainError):
        maximize([[1, 1], [1]], [1, 2], [1, 0])  # ragged matrix
    with pytest.raises(DomainError):
        maximize([[1, 1]], [1], [1, 0, 0])  # objective too long
