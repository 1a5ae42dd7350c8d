"""Independent brute-force oracles for the test suite.

These deliberately avoid the code paths they check: cone membership is
decided by Caratheodory vertex enumeration and facet enumeration built
directly on rational Gaussian elimination, never by the simplex; the
moduli dimension is a direct maximum over enumerated strata; the value
of a polynomial in pi is enclosed by interval Horner on exact fractions,
never by fixed-point integers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from vortexmoduli.linalg import left_nullspace, nullspace, rank, solve
from vortexmoduli.scalars import PiPoly, Sign


def _columns(rows, members):
    return [[row[j - 1] for row in rows] for j in sorted(members)]


def _submatrix(rows, members):
    cols = _columns(rows, members)
    return [[col[a] for col in cols] for a in range(len(rows))]


def _in_span(rows, members, v) -> bool:
    for cut in left_nullspace(_submatrix(rows, members)):
        acc = PiPoly()
        for c, comp in zip(cut, v):
            acc = acc + comp.scale(c)
        if not acc.is_zero():
            return False
    return True


def oracle_in_closed_cone(rows, members, v) -> bool:
    """Caratheodory: v is in the cone iff some independent subset of the
    selected columns expresses it with non-negative coefficients."""
    if all(x.is_zero() for x in v):
        return True
    k = len(rows)
    idx = sorted(members)
    for size in range(1, min(len(idx), k) + 1):
        for subset in itertools.combinations(idx, size):
            sub = _submatrix(rows, subset)
            if rank(sub) != size:
                continue
            coeffs = solve(sub, list(v))
            if coeffs is None:
                continue
            if any(c.sign() == Sign.NEGATIVE for c in coeffs):
                continue
            # solve() used pivots only; confirm the combination reproduces v.
            cols = _columns(rows, subset)
            recombined = [PiPoly() for _ in range(k)]
            for c, col in zip(coeffs, cols):
                for a in range(k):
                    recombined[a] = recombined[a] + c.scale(col[a])
            if all((recombined[a] - v[a]).is_zero() for a in range(k)):
                return True
    return False


def oracle_facet_normals(rows, members) -> list[list[Fraction]]:
    """Inward facet normals of the cone of the selected columns, within
    their span: directions orthogonal to a (dim-1)-subset of columns and
    non-negative on every selected column."""
    k = len(rows)
    sub = _submatrix(rows, members)
    dim = rank(sub)
    if dim == 0:
        return []
    span_cut = left_nullspace(sub)
    cols = {j: [row[j - 1] for row in rows] for j in members}
    normals = []
    seen = set()
    for face in itertools.combinations(sorted(members), dim - 1):
        system = [list(cols[j]) for j in face] + [list(c) for c in span_cut]
        kernel = nullspace(system) if system else [
            [Fraction(i == a) for i in range(k)] for a in range(k)
        ]
        if len(kernel) != 1:
            continue
        u = kernel[0]
        dots = [sum(q * x for q, x in zip(cols[j], u)) for j in sorted(members)]
        if all(d >= 0 for d in dots):
            chosen = u
        elif all(d <= 0 for d in dots):
            chosen = [-x for x in u]
        else:
            continue
        lead = next(x for x in chosen if x != 0)
        key = tuple(x / abs(lead) for x in chosen)
        if key not in seen:
            seen.add(key)
            normals.append(list(key))
    return normals


def oracle_in_cone_interior(rows, members, v) -> bool:
    """Relative interior membership from the facet description: v lies in
    the span and pairs strictly positively with every facet normal."""
    if not members:
        return all(x.is_zero() for x in v)
    if not _in_span(rows, members, v):
        return False
    if rank(_submatrix(rows, members)) == 0:
        return all(x.is_zero() for x in v)
    for u in oracle_facet_normals(rows, members):
        acc = PiPoly()
        for c, comp in zip(u, v):
            acc = acc + comp.scale(c)
        if acc.sign() != Sign.POSITIVE:
            return False
    return True


def oracle_moduli_dimension(rows, sigma, r) -> int | None:
    """Stratum maximum computed with the facet-based interior oracle."""
    n = len(rows[0])
    best = None
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            if not oracle_in_cone_interior(rows, frozenset(subset), sigma):
                continue
            value = sum(r[j - 1] for j in subset) - rank(_submatrix(rows, subset))
            if best is None or value > best:
                best = value
    return best


def oracle_pi_horner(coeffs, pi_lo: Fraction, pi_hi: Fraction) -> tuple[Fraction, Fraction]:
    """Enclose sum(coeffs[i] * pi**i) by interval Horner on exact fractions,
    given rationals 0 < pi_lo <= pi <= pi_hi."""
    if not coeffs:
        return Fraction(0), Fraction(0)
    lo = hi = Fraction(coeffs[-1])
    for c in reversed(coeffs[:-1]):
        products = (lo * pi_lo, lo * pi_hi, hi * pi_lo, hi * pi_hi)
        lo, hi = min(products) + c, max(products) + c
    return lo, hi


def brute_force_series(name: str, x, terms: int = 30):
    """Reference Maclaurin sums computed term by term."""
    pres = x.presentation
    total = pres.one() if name in ("exp", "geometric_inverse") else pres.zero()
    if name == "geometric_inverse":
        x = x - pres.one()
    power = pres.one()
    factorial = 1
    for j in range(1, terms + 1):
        power = power * x
        if power.is_zero():
            break
        factorial *= j
        if name == "exp":
            total = total + power * Fraction(1, factorial)
        elif name == "log1p":
            total = total + power * Fraction((-1) ** (j - 1), j)
        elif name == "arctan":
            if j % 2 == 1:
                total = total + power * Fraction((-1) ** ((j - 1) // 2), j)
        elif name == "geometric_inverse":
            total = total + power * ((-1) ** j)
    return total
