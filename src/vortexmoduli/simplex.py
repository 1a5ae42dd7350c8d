"""Exact simplex: rational tableau, Q[pi] right-hand side, Bland's rule.

Every cone LP in this package has an integer constraint matrix and an
integer objective; only the right-hand side (a stability vector) lives
in Q[pi].  Pivots therefore keep the tableau and the reduced costs
rational, while the right-hand-side column and the optimum stay
polynomials in pi.  The ratio test compares two such polynomials by the
decidable sign of their difference, so no floating point and no field
of fractions is involved.  Bland's rule (lowest-index entering variable,
lowest basis index among tied ratios) guarantees termination without
perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError
from .scalars import PiPoly, Rational, Sign


@dataclass(frozen=True)
class LpResult:
    """Outcome of a linear program: status plus optimum when bounded."""

    status: str  # "optimal" | "unbounded" | "infeasible"
    value: PiPoly | None = None


def _rational(value: object) -> Fraction:
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise DomainError(f"LP matrix and objective entries must be int or Fraction, got {value!r}")


def maximize(
    constraints: Sequence[Sequence[Rational]],
    rhs: Sequence[PiPoly | Rational],
    objective: Sequence[Rational],
) -> LpResult:
    """Solve max c.x subject to A x = b, x >= 0 with A, c rational and b in Q[pi].

    Two-phase simplex with Bland's rule; every comparison of right-hand
    side values goes through the decidable sign on Q[pi].
    """
    nrows = len(constraints)
    ncols = len(objective)
    if len(rhs) != nrows or any(len(row) != ncols for row in constraints):
        raise DomainError("inconsistent LP dimensions")
    tableau = [[_rational(x) for x in row] for row in constraints]
    cost = [_rational(x) for x in objective]
    b = [x if isinstance(x, PiPoly) else PiPoly.constant(x) for x in rhs]
    for i in range(nrows):
        if b[i].sign() == Sign.NEGATIVE:
            tableau[i] = [-x for x in tableau[i]]
            b[i] = -b[i]

    # Phase 1: artificial basis, maximise minus the sum of artificials.
    for i in range(nrows):
        tableau[i] += [Fraction(j == i) for j in range(nrows)]
    basis = list(range(ncols, ncols + nrows))
    if _run_simplex(tableau, b, basis, [Fraction(0)] * ncols + [Fraction(-1)] * nrows) != "optimal":
        raise AssertionError("phase 1 cannot be unbounded")  # pragma: no cover
    if any(basis[i] >= ncols and b[i].sign() == Sign.POSITIVE for i in range(nrows)):
        return LpResult("infeasible")

    # Drive zero-level artificials out of the basis; drop redundant rows.
    drop_rows: list[int] = []
    for i in range(nrows):
        if basis[i] >= ncols:
            pivot_col = next((j for j in range(ncols) if tableau[i][j] != 0), None)
            if pivot_col is None:
                drop_rows.append(i)
            else:
                _pivot(tableau, b, basis, i, pivot_col)
    for i in reversed(drop_rows):
        del tableau[i], b[i], basis[i]
    tableau = [row[:ncols] for row in tableau]

    if _run_simplex(tableau, b, basis, cost) == "unbounded":
        return LpResult("unbounded")
    value = PiPoly()
    for i, var in enumerate(basis):
        if cost[var] != 0:
            value = value + b[i].scale(cost[var])
    return LpResult("optimal", value)


def feasible(constraints: Sequence[Sequence[Rational]], rhs: Sequence[PiPoly | Rational]) -> bool:
    """Is {x >= 0 : A x = b} nonempty?"""
    ncols = len(constraints[0]) if constraints else 0
    return maximize(constraints, rhs, [0] * ncols).status != "infeasible"


def _run_simplex(tableau, b, basis, cost) -> str:
    ncols = len(cost)
    while True:
        reduced = list(cost)
        for row, var in zip(tableau, basis):
            c = cost[var]
            if c != 0:
                reduced = [r - c * x if x else r for r, x in zip(reduced, row)]
        entering = next((j for j in range(ncols) if j not in basis and reduced[j] > 0), None)
        if entering is None:
            return "optimal"
        leaving = None
        best: PiPoly | None = None
        for i, row in enumerate(tableau):
            a = row[entering]
            if a <= 0:
                continue
            ratio = b[i].scale(1 / a)
            if best is None:
                best, leaving = ratio, i
                continue
            order = (ratio - best).sign()
            if order == Sign.NEGATIVE or (order == Sign.ZERO and basis[i] < basis[leaving]):
                best, leaving = ratio, i
        if leaving is None:
            return "unbounded"
        _pivot(tableau, b, basis, leaving, entering)


def _pivot(tableau, b, basis, row: int, col: int) -> None:
    inv = 1 / tableau[row][col]
    tableau[row] = [x * inv for x in tableau[row]]
    b[row] = b[row].scale(inv)
    for i in range(len(tableau)):
        factor = tableau[i][col]
        if i == row or factor == 0:
            continue
        tableau[i] = [x - factor * y for x, y in zip(tableau[i], tableau[row])]
        b[i] = b[i] - b[row].scale(factor)
    basis[row] = col
