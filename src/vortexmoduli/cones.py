"""Integer weight systems and stability decision procedures.

A gauged linear model is governed by a k x n integer weight matrix Q.
Solvability of its vortex equations reduces to exact cone geometry: the
stability vector sigma must sit in the interior of the cone spanned by
the weights supporting the section.  All membership questions here are
decided by an exact simplex (rational tableau, Q[pi] right-hand side,
Bland's rule); the genericity conditions (C1) and (C2) and the
square-case decomposition are exact rational linear algebra.

Index sets use 1-based indices, matching the labelling of the n fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg, simplex
from .errors import DomainError, NotFoundError, NoThresholdError, SubsetLimitError
from .scalars import PiPoly, Sign

IndexSet = frozenset[int]
SigmaVector = tuple[PiPoly, ...]

SUBSET_ENUMERATION_LIMIT = 24


@dataclass(frozen=True)
class WeightSystem:
    """The k x n integer weight matrix, stored row-major.

    Column j (1-based) is the weight vector of the j-th field; the
    columns must span R^k (effectiveness of the torus representation).
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.rows or not self.rows[0]:
            raise DomainError("weight matrix must be nonempty")
        n = len(self.rows[0])
        if any(len(row) != n for row in self.rows):
            raise DomainError("ragged weight matrix")
        if any(not isinstance(x, int) for row in self.rows for x in row):
            raise DomainError("weights must be integers")
        if linalg.rank(self.rows) != len(self.rows):
            raise DomainError("weight columns must span R^k")

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "WeightSystem":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def column(self, j: int) -> tuple[int, ...]:
        """Weight vector of field j (1-based)."""
        if not 1 <= j <= self.n:
            raise DomainError(f"column index {j} out of range 1..{self.n}")
        return tuple(row[j - 1] for row in self.rows)

    def columns(self, indices: Iterable[int]) -> list[tuple[int, ...]]:
        return [self.column(j) for j in sorted(indices)]

    def submatrix(self, indices: Iterable[int]) -> list[list[int]]:
        """k x |I| matrix of the selected columns, in increasing index order."""
        cols = self.columns(indices)
        return [[col[a] for col in cols] for a in range(self.k)]

    def full_set(self) -> IndexSet:
        return frozenset(range(1, self.n + 1))


def _check_subset_scale(ws: WeightSystem) -> None:
    if ws.n > SUBSET_ENUMERATION_LIMIT:
        raise SubsetLimitError(
            f"subset enumeration capped at n <= {SUBSET_ENUMERATION_LIMIT} (got n = {ws.n})"
        )


def _validate_index_set(ws: WeightSystem, index_set: Iterable[int]) -> IndexSet:
    members = frozenset(index_set)
    if not members <= ws.full_set():
        raise DomainError(f"index set {sorted(members)} not contained in 1..{ws.n}")
    return members


def _validate_sigma(ws: WeightSystem, sigma: Sequence[PiPoly]) -> SigmaVector:
    if len(sigma) != ws.k:
        raise DomainError(f"sigma has length {len(sigma)}, expected k = {ws.k}")
    return tuple(sigma)


def sigma_vector(
    tau: Sequence[Fraction | int],
    e2: Fraction | int,
    vol_m: Fraction | int,
    m: int,
    slope_vol: Sequence[Fraction | int],
) -> SigmaVector:
    """The stability vector sigma_a = tau_a Vol(M) - (2 pi m / e^2) slope_vol_a.

    slope_vol_a is the rational pairing (c_1(P^a) parallel part / [omega])
    times Vol(M); with rational Kahler data sigma is a degree <= 1
    polynomial in pi.
    """
    e2 = Fraction(e2)
    vol_m = Fraction(vol_m)
    if e2 <= 0:
        raise DomainError("e^2 must be positive")
    if vol_m <= 0:
        raise DomainError("Vol(M) must be positive")
    if m < 1:
        raise DomainError("complex dimension must be >= 1")
    if len(tau) != len(slope_vol):
        raise DomainError("tau and slope_vol must have equal length")
    return tuple(
        PiPoly([Fraction(t) * vol_m, -Fraction(2 * m) * Fraction(s) / e2])
        for t, s in zip(tau, slope_vol)
    )


def constant_sigma(values: Sequence[Fraction | int]) -> SigmaVector:
    """Lift a rational vector to a SigmaVector of constant polynomials."""
    return tuple(PiPoly([Fraction(v)]) for v in values)


def in_cone_closed(ws: WeightSystem, index_set: Iterable[int], v: Sequence[PiPoly]) -> bool:
    """Is v a non-negative combination of the weights indexed by index_set?

    Decided as an LP feasibility problem by the exact simplex: rational
    tableau, Q[pi] right-hand side, Bland's rule.
    """
    members = _validate_index_set(ws, index_set)
    if not members:
        raise DomainError("index set must be nonempty")
    v = _validate_sigma(ws, v)
    return simplex.feasible(ws.submatrix(members), list(v))


def in_cone_interior(ws: WeightSystem, index_set: Iterable[int], v: Sequence[PiPoly]) -> bool:
    """Is v a strictly positive combination of the weights indexed by index_set?

    Equivalently (interior of the cone relative to the span of those
    weights): the LP max t subject to sum lambda_j Q_j = v, lambda_j >= t
    is feasible with positive optimum.  Substituting mu_j = lambda_j - t
    gives the standard form solved here.
    """
    members = _validate_index_set(ws, index_set)
    if not members:
        raise DomainError("index set must be nonempty")
    v = _validate_sigma(ws, v)
    matrix = ws.submatrix(members)
    s = [sum(row) for row in matrix]
    constraints = [row + [s[a], -s[a]] for a, row in enumerate(matrix)]
    objective = [0] * len(members) + [1, -1]
    result = simplex.maximize(constraints, list(v), objective)
    if result.status == "infeasible":
        return False
    if result.status == "unbounded":
        return True
    return result.value.sign() == Sign.POSITIVE


def is_simple(ws: WeightSystem, support: Iterable[int]) -> bool:
    """Do the weights on the support span the whole R^k?

    This is the simplicity criterion for a holomorphic pair whose
    nonvanishing components are exactly the support.
    """
    members = frozenset(support)
    if not members:
        return False
    _validate_index_set(ws, members)
    return linalg.rank(ws.submatrix(members)) == ws.k


def generates_lattice(ws: WeightSystem, index_set: Iterable[int]) -> bool:
    """Do the selected weight columns generate the full integer lattice Z^k?

    Requires the columns to span R^k; decided by the Smith normal form
    (all elementary divisors equal to 1, equivalently the gcd of the
    k x k minors is 1).
    """
    members = _validate_index_set(ws, index_set)
    sub = ws.submatrix(members)
    if linalg.rank(sub) != ws.k:
        raise DomainError("generates_lattice requires columns that span R^k")
    divisors = linalg.smith_normal_form(sub)
    return len(divisors) == ws.k and all(d == 1 for d in divisors)


def _proper_span_witnesses(ws: WeightSystem) -> list[list[list[Fraction]]]:
    """Left-nullspace bases for every proper subspace spanned by weight subsets.

    Every subset whose columns span a proper subspace of R^k has the same
    span as one of its column bases, which has at most k-1 elements; it
    therefore suffices to enumerate subsets of size <= k-1 (the empty
    subset contributes the zero subspace).
    """
    witnesses: list[list[list[Fraction]]] = []
    seen: set[tuple] = set()
    indices = range(1, ws.n + 1)
    identity = [[Fraction(i == j) for j in range(ws.k)] for i in range(ws.k)]
    witnesses.append(identity)  # span of the empty subset is {0}
    for size in range(1, ws.k):
        for subset in itertools.combinations(indices, size):
            basis = linalg.left_nullspace(ws.submatrix(subset))
            key = tuple(tuple(row) for row in sorted(basis))
            if key in seen:
                continue
            seen.add(key)
            witnesses.append(basis)
    return witnesses


def _in_rational_span(basis_nullspace: list[list[Fraction]], v: SigmaVector) -> bool:
    """Is v inside the subspace cut out by the given left-nullspace rows?"""
    for row in basis_nullspace:
        acc = PiPoly()
        for coeff, component in zip(row, v):
            if coeff != 0:
                acc = acc + component.scale(coeff)
        if not acc.is_zero():
            return False
    return True


def check_C1(ws: WeightSystem, sigma: Sequence[PiPoly]) -> bool:
    """Genericity of sigma: inside the full closed cone but outside every
    proper subspace spanned by a subset of the weights."""
    _check_subset_scale(ws)
    sigma = _validate_sigma(ws, sigma)
    if not in_cone_closed(ws, ws.full_set(), sigma):
        return False
    for witness in _proper_span_witnesses(ws):
        if _in_rational_span(witness, sigma):
            return False
    return True


def check_C2(ws: WeightSystem) -> bool:
    """Every subset of weights that spans R^k also generates Z^k.

    A spanning subset contains a spanning k-subset; if every k-subset
    with nonzero determinant is unimodular, any spanning subset contains
    a lattice basis, so it suffices to inspect k-subsets.
    """
    _check_subset_scale(ws)
    for subset in itertools.combinations(range(1, ws.n + 1), ws.k):
        d = linalg.det(ws.submatrix(subset))
        if d != 0 and abs(d) != 1:
            return False
    return True


def hk_is_stable(ws: WeightSystem, support: Iterable[int], sigma: Sequence[PiPoly]) -> bool:
    """Complete solvability criterion for a pair with the given support:
    sigma must be interior to the cone of the supporting weights.

    The empty support spans the zero cone, whose interior is {0}.
    """
    members = frozenset(support)
    sigma = _validate_sigma(ws, sigma)
    if not members:
        return all(component.is_zero() for component in sigma)
    return in_cone_interior(ws, members, sigma)


@dataclass(frozen=True)
class SquareDecomposition:
    """Unique expansion sigma = sum lambda_j Q_j in the square case n = k."""

    coefficients: tuple[PiPoly, ...]
    positive: IndexSet
    zero: IndexSet


def sigma_decomposition_square(ws: WeightSystem, sigma: Sequence[PiPoly]) -> SquareDecomposition | None:
    """Solve sigma = sum lambda_j Q_j exactly when the weights form a basis.

    Returns None when some coefficient is negative (sigma outside the
    cone, hence no solutions); otherwise partitions the indices by the
    sign of their coefficient.
    """
    if ws.n != ws.k:
        raise DomainError("square decomposition requires n = k")
    sigma = _validate_sigma(ws, sigma)
    solution = linalg.solve(ws.submatrix(ws.full_set()), list(sigma))
    if solution is None:  # pragma: no cover - basis guaranteed by invariant
        raise DomainError("weight columns are singular")
    signs = [coeff.sign() for coeff in solution]
    if any(s == Sign.NEGATIVE for s in signs):
        return None
    positive = frozenset(j + 1 for j, s in enumerate(signs) if s == Sign.POSITIVE)
    zero = frozenset(j + 1 for j, s in enumerate(signs) if s == Sign.ZERO)
    return SquareDecomposition(tuple(solution), positive, zero)


def minimal_support(ws: WeightSystem, tau: Sequence[PiPoly]) -> IndexSet:
    """Lexicographically smallest k-subset whose cone interior contains tau.

    Under the genericity condition on tau such a subset exists and no
    smaller subset works; absence therefore signals a precondition
    breach by the caller.
    """
    _check_subset_scale(ws)
    tau = _validate_sigma(ws, tau)
    for subset in itertools.combinations(range(1, ws.n + 1), ws.k):
        if in_cone_interior(ws, subset, tau):
            return frozenset(subset)
    raise NotFoundError("no k-subset supports tau with positive coefficients")


def cone_facet_normals(ws: WeightSystem, index_set: Iterable[int]) -> list[list[Fraction]]:
    """Facet normals of the cone spanned by the selected weights,
    within the rational span of those weights.

    Each returned u satisfies <Q_j, u> >= 0 for all selected j, with
    equality on a (dim-1)-dimensional face.  An empty list means the
    cone is the whole span.
    """
    members = _validate_index_set(ws, index_set)
    if not members:
        raise DomainError("index set must be nonempty")
    cols = ws.columns(members)
    span_dim = linalg.rank(ws.submatrix(members))
    if span_dim == 0:
        return []
    # The span is {x : N x = 0} with N the left nullspace of the column
    # matrix; candidate normals are constrained to lie in it.
    span_cut = linalg.left_nullspace(ws.submatrix(members))
    normals: list[list[Fraction]] = []
    seen: set[tuple[Fraction, ...]] = set()
    for face in itertools.combinations(sorted(members), span_dim - 1):
        # Solve for u in span with u . Q_j = 0 for j in face.
        rows = [list(ws.column(j)) for j in face]
        for cut in span_cut:
            rows.append(list(cut))
        candidates = linalg.nullspace(rows) if rows else [
            [Fraction(i == a) for i in range(ws.k)] for a in range(ws.k)
        ]
        if len(candidates) != 1:
            continue
        u = candidates[0]
        dots = [sum(q * x for q, x in zip(ws.column(j), u)) for j in sorted(members)]
        if all(d >= 0 for d in dots):
            oriented = u
        elif all(d <= 0 for d in dots):
            oriented = [-x for x in u]
        else:
            continue
        lead = next((x for x in oriented if x != 0), None)
        if lead is None:
            continue
        normalised = tuple(x / abs(lead) for x in oriented)
        if normalised not in seen:
            seen.add(normalised)
            normals.append(list(normalised))
    return normals


@dataclass(frozen=True)
class StabilityThreshold:
    """Supremum u* of couplings u = 1/e^2 keeping sigma(u) interior.

    A finite threshold always has the form q / pi with q rational
    (sigma depends on u only through the term linear in pi * u), so it is
    stored as that rational coefficient.  ``unbounded`` means sigma(u)
    stays interior for every u > 0.
    """

    unbounded: bool
    pi_reciprocal_coefficient: Fraction | None = None

    def describe(self) -> str:
        if self.unbounded:
            return "unbounded"
        q = self.pi_reciprocal_coefficient
        return f"u* = ({q})/pi, i.e. e^2 > pi/({q})" if q != 0 else "u* = 0"


def stability_threshold(
    ws: WeightSystem,
    tau: Sequence[Fraction | int],
    vol_m: Fraction | int,
    m: int,
    slope_vol: Sequence[Fraction | int],
    index_set: Iterable[int],
) -> StabilityThreshold:
    """Exact coupling threshold for interior stability on a given support.

    sigma(u) = tau Vol(M) - 2 pi m u slope_vol is affine in u = 1/e^2; the
    decoupled vector sigma(0) must be interior (otherwise no threshold
    exists and NoThresholdError is raised).  The supremum of admissible u
    is computed from the facet description of the cone.
    """
    members = _validate_index_set(ws, index_set)
    if not members:
        raise DomainError("index set must be nonempty")
    vol_m = Fraction(vol_m)
    tau_vol = constant_sigma([Fraction(t) * vol_m for t in tau])
    if not in_cone_interior(ws, members, tau_vol):
        raise NoThresholdError("tau Vol(M) is not interior to the cone on this support")
    slope = [Fraction(s) for s in slope_vol]
    if len(slope) != ws.k:
        raise DomainError("slope_vol must have length k")
    # sigma(u) must stay inside the rational span for u > 0.
    span_cut = linalg.left_nullspace(ws.submatrix(members))
    for row in span_cut:
        if sum(c * s for c, s in zip(row, slope)) != 0:
            return StabilityThreshold(unbounded=False, pi_reciprocal_coefficient=Fraction(0))
    bounds: list[Fraction] = []
    for u_f in cone_facet_normals(ws, members):
        r_f = sum(x * Fraction(t) for x, t in zip(u_f, tau)) * vol_m
        c_f = 2 * m * sum(x * s for x, s in zip(u_f, slope))
        if c_f > 0:
            bounds.append(r_f / c_f)
    if not bounds:
        return StabilityThreshold(unbounded=True)
    return StabilityThreshold(unbounded=False, pi_reciprocal_coefficient=min(bounds))
