import random
from fractions import Fraction

import pytest

from oracles import oracle_facet_normals, oracle_in_closed_cone, oracle_in_cone_interior
from vortexmoduli.cones import (
    StabilityThreshold,
    WeightSystem,
    check_C1,
    check_C2,
    cone_facet_normals,
    constant_sigma,
    generates_lattice,
    hk_is_stable,
    in_cone_closed,
    in_cone_interior,
    is_simple,
    minimal_support,
    sigma_decomposition_square,
    sigma_vector,
    stability_threshold,
)
from vortexmoduli.errors import DomainError, NoThresholdError, SubsetLimitError
from vortexmoduli.scalars import PiPoly, Sign


def random_weight_system(rng, k, n):
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(k)]
        try:
            return WeightSystem.from_rows(rows)
        except DomainError:
            continue


def test_weight_system_validation():
    with pytest.raises(DomainError):
        WeightSystem.from_rows([[1, 2], [2, 4]])  # rank 1 < k
    ws = WeightSystem.from_rows([[1, 0, -1], [0, 1, -1]])
    assert ws.k == 2 and ws.n == 3
    assert ws.column(3) == (-1, -1)
    with pytest.raises(DomainError):
        ws.column(4)


def test_sigma_vector_examples():
    assert sigma_vector([2], 1, 1, 1, [1]) == (PiPoly([2, -2]),)
    assert sigma_vector([5], 1, 2, 1, [0]) == (PiPoly([10]),)
    assert sigma_vector([100], 1, 1, 2, [3]) == (PiPoly([100, -12]),)
    with pytest.raises(DomainError):
        sigma_vector([1], 0, 1, 1, [1])
    with pytest.raises(DomainError):
        sigma_vector([1, 2], 1, 1, 1, [1])


def test_in_cone_interior_examples():
    ws = WeightSystem.from_rows([[1]])
    assert in_cone_interior(ws, {1}, constant_sigma([2]))
    ws2 = WeightSystem.from_rows([[1, 0], [0, 1]])
    assert not in_cone_interior(ws2, {1, 2}, constant_sigma([1, 0]))
    ws3 = WeightSystem.from_rows([[1, 0, -1], [0, 1, -1]])
    assert in_cone_interior(ws3, {1, 2, 3}, constant_sigma([0, 0]))
    with pytest.raises(DomainError):
        in_cone_interior(ws2, set(), constant_sigma([1, 0]))


def test_in_cone_closed_examples():
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    assert in_cone_closed(ws, {1, 2}, constant_sigma([1, 0]))
    assert not in_cone_closed(ws, {1, 2}, constant_sigma([-1, 0]))
    ws2 = WeightSystem.from_rows([[1, 1, 1]])
    assert not in_cone_closed(ws2, {1, 2, 3}, (PiPoly([2, -2]),))
    assert in_cone_closed(ws2, {1, 2, 3}, (PiPoly([7, -2]),))


def test_is_simple_examples():
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    assert not is_simple(ws, {1})
    assert is_simple(ws, {1, 2})
    ws2 = WeightSystem.from_rows([[1, 2, 0], [2, 4, 1]])
    assert not is_simple(ws2, {1, 2})
    assert not is_simple(ws2, set())


def test_generates_lattice_examples():
    assert generates_lattice(WeightSystem.from_rows([[1, 0], [0, 1]]), {1, 2})
    assert not generates_lattice(WeightSystem.from_rows([[2, 0], [0, 1]]), {1, 2})
    ws = WeightSystem.from_rows([[1, 1, 1], [1, -1, 0]])
    assert generates_lattice(ws, {1, 2, 3})
    with pytest.raises(DomainError):
        generates_lattice(ws, {1})


def test_lattice_implies_simple_but_not_conversely():
    ws = WeightSystem.from_rows([[2, 0], [0, 1]])
    assert is_simple(ws, {1, 2})
    assert not generates_lattice(ws, {1, 2})
    rng = random.Random(5)
    lattice_draws = 0
    for _ in range(25):
        k = rng.randint(1, 3)
        ws = random_weight_system(rng, k, rng.randint(k, 5))
        members = frozenset(range(1, ws.n + 1))
        if generates_lattice(ws, members):
            lattice_draws += 1
            assert is_simple(ws, members)
    assert lattice_draws > 0


def test_check_c1_examples():
    assert check_C1(WeightSystem.from_rows([[1, 1]]), constant_sigma([3]))
    assert not check_C1(WeightSystem.from_rows([[1, 0], [0, 1]]), constant_sigma([1, 0]))
    assert check_C1(
        WeightSystem.from_rows([[1, 0, 1], [0, 1, 1]]), constant_sigma([2, 3])
    )
    # sigma = 0 lies in the zero subspace spanned by the empty subset
    assert not check_C1(WeightSystem.from_rows([[1, 1]]), constant_sigma([0]))


def test_check_c2_examples():
    assert check_C2(WeightSystem.from_rows([[1, 0, 1], [0, 1, 1]]))
    assert not check_C2(WeightSystem.from_rows([[2, 0], [0, 1]]))
    assert check_C2(WeightSystem.from_rows([[1]]))


def test_hk_is_stable():
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    assert not hk_is_stable(ws, set(), constant_sigma([1, 0]))
    assert hk_is_stable(ws, set(), constant_sigma([0, 0]))
    assert not hk_is_stable(ws, {1}, constant_sigma([1, 1]))
    # charge-1 tower reduces to the sign of sigma
    tower = WeightSystem.from_rows([[1, 1, 1]])
    sigma = sigma_vector([100], 1, 1, 2, [3])
    assert hk_is_stable(tower, {1, 2, 3}, sigma) == (sigma[0].sign() == Sign.POSITIVE)
    negative = sigma_vector([2], 1, 1, 1, [1])
    assert not hk_is_stable(tower, {1, 2, 3}, negative)


def test_sigma_decomposition_square():
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    split = sigma_decomposition_square(ws, constant_sigma([3, 0]))
    assert split.coefficients == (PiPoly([3]), PiPoly())
    assert split.positive == {1} and split.zero == {2}
    assert sigma_decomposition_square(ws, constant_sigma([-1, 2])) is None
    ws2 = WeightSystem.from_rows([[1, 1], [1, -1]])
    split = sigma_decomposition_square(ws2, constant_sigma([2, 0]))
    assert split.coefficients == (PiPoly([1]), PiPoly([1]))
    assert split.positive == {1, 2} and split.zero == frozenset()
    with pytest.raises(DomainError):
        sigma_decomposition_square(WeightSystem.from_rows([[1, 1, 1]]), constant_sigma([1]))


def test_minimal_support_examples():
    assert minimal_support(WeightSystem.from_rows([[1, 2]]), constant_sigma([3])) == {1}
    ws = WeightSystem.from_rows([[1, 0, 1], [0, 1, 1]])
    assert minimal_support(ws, constant_sigma([1, 2])) == {1, 2}
    ws2 = WeightSystem.from_rows([[1, 0], [0, 1]])
    assert minimal_support(ws2, constant_sigma([1, 1])) == {1, 2}


def test_stability_threshold_examples():
    ws = WeightSystem.from_rows([[1]])
    t = stability_threshold(ws, [1], 1, 1, [1], {1})
    assert t == StabilityThreshold(False, Fraction(1, 2))
    assert "pi" in t.describe()
    assert stability_threshold(ws, [1], 1, 1, [0], {1}).unbounded
    with pytest.raises(NoThresholdError):
        stability_threshold(
            WeightSystem.from_rows([[1, 0], [0, 1]]), [1, 0], 1, 1, [0, 0], {1, 2}
        )
    # slope outside the span of the support: threshold degenerates to zero
    ws2 = WeightSystem.from_rows([[1, 0], [0, 1]])
    t = stability_threshold(ws2, [1, 0], 1, 1, [0, 1], {1})
    assert not t.unbounded and t.pi_reciprocal_coefficient == 0


def test_threshold_brackets_interior_transition():
    ws = WeightSystem.from_rows([[1]])
    t = stability_threshold(ws, [1], 1, 1, [1], {1})
    # u* = 1/(2 pi): sigma(u) = 1 - 2 pi u; test just inside and outside.
    q = t.pi_reciprocal_coefficient
    for factor, expect in ((Fraction(9, 10), True), (Fraction(11, 10), False)):
        # At u = (q * factor)/pi the vector 1 - 2 pi u collapses to a rational.
        sigma_u = (PiPoly([1 - 2 * q * factor]),)
        assert in_cone_interior(ws, {1}, sigma_u) == expect


def test_subset_limit_guard():
    rows = [[1] * 25]
    with pytest.raises(SubsetLimitError):
        check_C1(WeightSystem.from_rows(rows), constant_sigma([1]))


def test_facet_normals_simple_cases():
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    normals = cone_facet_normals(ws, {1, 2})
    assert sorted(tuple(u) for u in normals) == [(0, 1), (1, 0)]
    full_line = WeightSystem.from_rows([[1, -1]])
    assert cone_facet_normals(full_line, {1, 2}) == []


def test_cone_ops_agree_with_oracles_random():
    rng = random.Random(2024)
    for _ in range(60):
        k = rng.randint(1, 3)
        n = rng.randint(k, 6)
        ws = random_weight_system(rng, k, n)
        v = constant_sigma([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)])
        members = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        assert in_cone_closed(ws, members, v) == oracle_in_closed_cone(ws.rows, members, v)
        assert in_cone_interior(ws, members, v) == oracle_in_cone_interior(ws.rows, members, v)


def test_interior_with_pi_valued_sigma():
    ws = WeightSystem.from_rows([[1, 1]])
    sigma = (PiPoly([7, -2]),)  # 7 - 2 pi > 0
    assert in_cone_interior(ws, {1, 2}, sigma)
    assert oracle_in_cone_interior(ws.rows, {1, 2}, sigma)
    sigma_neg = (PiPoly([6, -2]),)  # 6 - 2 pi < 0
    assert not in_cone_interior(ws, {1, 2}, sigma_neg)
    assert not oracle_in_cone_interior(ws.rows, {1, 2}, sigma_neg)


def test_threshold_random_bracketing():
    # For random models whose decoupled level is interior, the computed
    # threshold exactly separates stable from unstable couplings: at
    # u = f q / pi the stability vector collapses to rationals, so both
    # sides of the fence can be tested exactly.
    rng = random.Random(6022)
    finite_seen = unbounded_seen = 0
    while finite_seen < 12 or unbounded_seen < 3:
        k = rng.randint(1, 2)
        n = rng.randint(k, 5)
        ws = random_weight_system(rng, k, n)
        tau = [rng.randint(-3, 6) for _ in range(k)]
        slope = [Fraction(rng.randint(-2, 3)) for _ in range(k)]
        vol = Fraction(rng.randint(1, 3))
        m = rng.randint(1, 3)
        members = frozenset(range(1, n + 1))
        tau_vol = constant_sigma([t * vol for t in tau])
        if not in_cone_interior(ws, members, tau_vol):
            with pytest.raises(NoThresholdError):
                stability_threshold(ws, tau, vol, m, slope, members)
            continue
        t = stability_threshold(ws, tau, vol, m, slope, members)

        def sigma_at(u_times_pi: Fraction):
            return constant_sigma(
                [Fraction(tv) * vol - 2 * m * s * u_times_pi for tv, s in zip(tau, slope)]
            )

        if t.unbounded:
            unbounded_seen += 1
            assert in_cone_interior(ws, members, sigma_at(Fraction(10**6)))
        else:
            q = t.pi_reciprocal_coefficient
            if q > 0:
                finite_seen += 1
                assert in_cone_interior(ws, members, sigma_at(q * Fraction(99, 100)))
                assert not in_cone_interior(ws, members, sigma_at(q * Fraction(101, 100)))


def test_square_decomposition_with_pi_valued_sigma():
    ws = WeightSystem.from_rows([[1, 0], [0, 1]])
    split = sigma_decomposition_square(ws, (PiPoly([22, -7]), PiPoly([1])))
    assert split is not None
    assert split.positive == {1, 2}
    assert split.coefficients[0] == PiPoly([22, -7])
    assert sigma_decomposition_square(ws, (PiPoly([2, -2]), PiPoly([1]))) is None


def _random_pi_vector(rng, k, degree):
    return tuple(
        PiPoly(
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3))]
            + [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(degree)]
        )
        for _ in range(k)
    )


def _pi_vector_on_proper_face(rng, ws, members):
    """A pi-multiple combination of the columns on a proper face of the
    cone of ``members`` (cut out by a random set of its facet normals),
    or None when that cone has no facets."""
    normals = oracle_facet_normals(ws.rows, members)
    if not normals:
        return None
    cut = rng.sample(normals, rng.randint(1, len(normals)))
    face = [
        j for j in sorted(members)
        if all(sum(q * x for q, x in zip(ws.column(j), u)) == 0 for u in cut)
    ]
    v = [PiPoly() for _ in range(ws.k)]
    for j in face:
        weight = PiPoly.pi(rng.randint(1, 2), Fraction(rng.randint(1, 4), rng.randint(1, 3)))
        v = [acc + weight.scale(q) for acc, q in zip(v, ws.column(j))]
    return tuple(v)


def test_cone_ops_agree_with_oracles_pi_valued():
    # Same cross-validation with pi-polynomial vectors: degree 1 (the
    # shape real stability data takes), degree 2, and vectors placed
    # exactly on a proper face, where ratio tests tie with an exactly
    # zero difference in Q[pi].
    rng = random.Random(424242)
    cases = 0
    while cases < 300:
        k = rng.randint(1, 3)
        n = rng.randint(k, 6)
        ws = random_weight_system(rng, k, n)
        if cases < 200:
            v = _random_pi_vector(rng, k, 1 if cases < 100 else 2)
            members = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        else:
            members = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
            v = _pi_vector_on_proper_face(rng, ws, members)
            if v is None:
                continue
            assert in_cone_closed(ws, members, v)
            assert not in_cone_interior(ws, members, v)
        cases += 1
        assert in_cone_closed(ws, members, v) == oracle_in_closed_cone(ws.rows, members, v)
        assert in_cone_interior(ws, members, v) == oracle_in_cone_interior(ws.rows, members, v)
