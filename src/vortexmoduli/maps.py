"""Holomorphic maps to toric targets: unstable coordinate planes, the
s-invariant, the open-dense embedding criterion, and the conjectural
volume of map spaces to projective targets.

A toric target is the symplectic quotient of C^n by the torus acting
with weight matrix Q at level tau.  The points outside the stable locus
form a union of coordinate planes; a plane is recorded by the index set
of coordinates allowed to be nonzero.  The map space embeds in the
vortex moduli space of the matching gauged model, and it sits there as
an open dense subset exactly when the unstable planes can be avoided by
generic sections, which the s-invariant quantifies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import cones, geometry
from .cones import WeightSystem, constant_sigma
from .errors import DomainError, NotOpenDenseError, UnsupportedManifoldError
from .geometry import Degree, ManifoldDescriptor, ProjectiveSpace
from .scalars import PI, PiPoly

# Exact sentinel for an s-invariant of -infinity (every plane is avoided).
NEG_INFINITY = None


@dataclass(frozen=True)
class ToricTarget:
    """Symplectic quotient data: weights and a generic moment level tau.

    The level must lie in the weight cone without touching any proper
    weight-subset span, and every spanning weight subset must generate
    the integer lattice; both conditions are checked on construction so
    the quotient is a smooth manifold of dimension n - k.
    """

    weights: WeightSystem
    tau: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "tau", tuple(Fraction(t) for t in self.tau))
        if len(self.tau) != self.weights.k:
            raise DomainError("tau must have one component per torus factor")
        level = constant_sigma(self.tau)
        if not cones.check_C1(self.weights, level):
            raise DomainError("moment level violates the genericity condition")
        if not cones.check_C2(self.weights):
            raise DomainError("weights violate the lattice-generation condition")

    @property
    def n(self) -> int:
        return self.weights.n

    @property
    def k(self) -> int:
        return self.weights.k

    def dimension(self) -> int:
        return self.n - self.k

    def level_vector(self):
        return constant_sigma(self.tau)

    def is_projective_space(self) -> bool:
        return self.k == 1 and all(
            self.weights.column(j) == (1,) for j in range(1, self.n + 1)
        )


@dataclass(frozen=True)
class UnstablePlane:
    """A maximal coordinate plane outside the stable locus.

    ``allowed`` lists the coordinates permitted to be nonzero; the plane
    is the set of points vanishing on the complement.  Maximality means
    every strict superset of allowed coordinates already meets the
    stable locus.
    """

    allowed: frozenset[int]

    @property
    def dim(self) -> int:
        return len(self.allowed)

    def forced_zero(self, n: int) -> frozenset[int]:
        return frozenset(range(1, n + 1)) - self.allowed


def unstable_planes(target: ToricTarget) -> list[UnstablePlane]:
    """All maximal unstable coordinate planes, sorted by dimension
    descending and then lexicographically.

    A support is unstable when tau is not interior to the cone of its
    weights; the empty support (the origin) is always unstable for a
    nonzero generic level.
    """
    ws = target.weights
    level = target.level_vector()
    cones._check_subset_scale(ws)
    indices = list(range(1, ws.n + 1))
    unstable: list[frozenset[int]] = []
    for size in range(0, ws.n + 1):
        for subset in itertools.combinations(indices, size):
            members = frozenset(subset)
            # The empty support is always unstable: the generic level is
            # nonzero, hence not interior to the zero cone.
            if members and cones.in_cone_interior(ws, members, level):
                continue
            unstable.append(members)
    maximal = [
        s
        for s in unstable
        if not any(s < other for other in unstable)
    ]
    planes = [UnstablePlane(allowed=s) for s in maximal]
    planes.sort(key=lambda p: (-p.dim, sorted(p.allowed)))
    return planes


@dataclass(frozen=True)
class BundleData:
    """Per-field topological data feeding the s-invariant: the section
    count and whether the bundle is (topologically) trivial."""

    r: int
    trivial: bool


def bundle_data_for_degree(man: ManifoldDescriptor, d: int, n: int) -> list[BundleData]:
    """The n identical fields of a charge-1 projective-target model."""
    r = geometry.r_sections(man, Degree(d))
    return [BundleData(r=r, trivial=(d == 0))] * n


def s_invariant(target: ToricTarget, bundle_data: Sequence[BundleData]) -> int | None:
    """max over maximal unstable planes of
    (plane dimension) + #(forced-zero fields without sections),
    with the value dropping to -infinity on a plane whose forced-zero set
    contains a trivial bundle (its sections never vanish, so that plane
    is always avoided).  -infinity is returned as NEG_INFINITY (None)."""
    if len(bundle_data) != target.n:
        raise DomainError("one bundle datum per field required")
    best = NEG_INFINITY
    for plane in unstable_planes(target):
        forced = plane.forced_zero(target.n)
        if any(bundle_data[j - 1].trivial for j in forced):
            continue
        value = plane.dim + sum(1 for j in forced if bundle_data[j - 1].r == 0)
        best = value if best is NEG_INFINITY else max(best, value)
    return best


def embedding_open_dense(
    target: ToricTarget, man: ManifoldDescriptor, bundle_data: Sequence[BundleData]
) -> bool:
    """Does the map space sit as an open dense subset of the vortex
    moduli space?  Criterion: n - s > dim M, proved for projective-space
    bases; other bases are refused."""
    if not isinstance(man, ProjectiveSpace):
        raise UnsupportedManifoldError(
            "the open-dense criterion is established only for projective-space bases"
        )
    s = s_invariant(target, bundle_data)
    if s is NEG_INFINITY:
        return True
    return target.n - s > man.m


def maps_volume_conjectural(
    target: ToricTarget,
    man: ManifoldDescriptor,
    d: int,
    tau: Fraction | int,
) -> PiPoly:
    """Conjectural volume of the space of degree-d maps from projective
    m-space to the projective target:

        (pi tau Vol M)^(n r - 1) / (n r - 1)!,

    the decoupling limit of the moduli volume.  Raises NotOpenDenseError
    unless the embedding is open and dense; callers must flag the output
    as conjectural.
    """
    if not target.is_projective_space():
        raise UnsupportedManifoldError("conjectural volume needs a projective-space target")
    if not isinstance(man, ProjectiveSpace):
        raise UnsupportedManifoldError("conjectural volume needs a projective-space base")
    tau = Fraction(tau)
    if tau <= 0:
        raise DomainError("target scale tau must be positive")
    if d < 0:
        raise DomainError("map degree must be >= 0")
    data = bundle_data_for_degree(man, d, target.n)
    if not embedding_open_dense(target, man, data):
        raise NotOpenDenseError(
            f"maps of degree {d} are not dense in the moduli space (n = {target.n}, m = {man.m})"
        )
    r = geometry.r_sections(man, Degree(d))
    vol_m, _ = geometry.volume_and_slope(man, Degree(d))
    dim = target.n * r - 1
    return (PI * PiPoly.constant(tau * vol_m)) ** dim * Fraction(1, math.factorial(dim))
