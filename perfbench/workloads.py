"""The three benchmark workloads: seeded inputs, timed operations, checks.

Each workload is a closed loop run by one caller: a pass generates its
instances from the seed during set-up, then runs them one after another,
and the next instance starts only when the previous one has returned.
A workload draws ``input_sets`` sets of instances from the seed; pass i
of a run runs set i mod ``input_sets``, so a run that holds more passes
repeats the same instances.  ``run`` is the timed operation; ``check``
compares its outcome with an independent reference after the timed
region.

The program is called through module attributes (``moduli.build_moduli``
rather than a name imported into this file) so that the tracer's wrappers
see every call.

A call that may raise the program's typed ``VortexError`` is recorded as
``("ok", value)`` or ``("error", exception class name)``, so the check can
accept exactly the errors the reference expects; any other exception
propagates to the worker, which reports it and counts the instance as
failed.
"""

from __future__ import annotations

import itertools
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected"
DEMO_MODELS = ("abelian_surface", "embedding_cp2_target", "hirzebruch_line_bundle", "weight_one_cp1")
APPROX_DIGITS = (12, 30)
PI_WARM_DIGITS = 100


def _call(fn, *args):
    from vortexmoduli.errors import VortexError

    try:
        return ("ok", fn(*args))
    except VortexError as exc:
        return ("error", type(exc).__name__)


# -- demo-reports ---------------------------------------------------------------


class DemoReports:
    """``vortexmoduli report <file>`` on the four demo models, each in a
    fresh interpreter, compared byte for byte with a recorded report.
    The seed only shuffles the order of the four reports."""

    name = "demo-reports"
    children = True  # peak RSS is that of the CLI processes
    input_sets = 1

    def generate(self, seed: int, input_set: int):
        order = list(DEMO_MODELS)
        random.Random(f"{seed}:{input_set}").shuffle(order)
        return [(stem, (EXPECTED / f"{stem}.json").read_bytes()) for stem in order]

    def run(self, instance, spans_path: Path | None):
        stem, _ = instance
        model = str(ROOT / "demos" / "models" / f"{stem}.json")
        if spans_path is None:
            argv = [sys.executable, "-m", "vortexmoduli.cli", "report", model]
        else:
            argv = [sys.executable, str(Path(__file__).with_name("traced_cli.py")),
                    str(spans_path), "report", model]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        proc = subprocess.run(argv, capture_output=True, env=env, cwd=ROOT, check=False)
        if proc.stderr:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
        return proc.returncode, proc.stdout

    def check(self, instance, outcome) -> bool:
        _, expected = instance
        return outcome == (0, expected)


# -- stratum-sweep ----------------------------------------------------------------

# (k, n, pi-valued sigma, sigma on a wall).  Half of the instances take
# sigma = tau Vol - (2 pi m / e^2) slope, half a rational sigma; a wall
# instance puts sigma in the span of k - 1 weight columns, where (C1)
# fails.  The seed draws weights, couplings and section counts; they
# move the cost of one instance by about 15% either way, so a run draws
# ten sets of this schedule (StratumSweep.input_sets).  The schedule has
# three tiers of similar cost (about 0.05 s, 0.12 s and 0.25 s an
# instance at the reference speed of clock.py), 4, 6 and 4 instances, so
# the median latency falls inside the middle tier and the 90th percentile
# inside the top tier, rather than on the boundary between two very
# different instances.  A pass takes about 2.5 s, so the ten sets fit in
# a run; this is also why n stops at 7 (one n = 8, k = 1 instance takes
# 0.6 s).
STRATUM_SLOTS = (
    (1, 5, False, False), (1, 5, True, False), (2, 4, False, False), (2, 4, True, True),
    (1, 6, False, False), (1, 6, True, False), (2, 5, False, False), (2, 5, True, False),
    (3, 4, True, False), (3, 4, False, True),
    (1, 7, False, False), (1, 7, True, False), (3, 5, False, True), (3, 5, True, False),
)


@dataclass(frozen=True)
class StratumInstance:
    ws: object
    sigma: tuple
    r: tuple[int, ...]


class StratumSweep:
    """Family scan: the stratum maximum and the minimal support of
    seeded weight systems, checked against the brute-force oracles.
    The cost of an instance varies by about 15% with its draw, so a run
    spreads its passes over ten sets of draws and the latency percentiles
    of a run are taken over 140 instances."""

    name = "stratum-sweep"
    children = False
    input_sets = 10

    def generate(self, seed: int, input_set: int):
        from vortexmoduli import cones
        from vortexmoduli.errors import DomainError

        rng = random.Random(f"{seed}:{input_set}")
        out = []
        for k, n, pi_valued, wall in STRATUM_SLOTS:
            while True:
                rows = [[rng.randint(-1, 3) for _ in range(n)] for _ in range(k)]
                try:
                    ws = cones.WeightSystem.from_rows(rows)
                    break
                except DomainError:
                    continue
            support = rng.sample(range(1, n + 1), k - 1) if wall else range(1, n + 1)
            lam = {j: Fraction(rng.randint(1, 9), rng.randint(1, 4)) for j in support}
            level = [sum(lam[j] * ws.column(j)[a] for j in support) for a in range(k)]
            if pi_valued:
                mu = {j: Fraction(rng.randint(0, 3), 7) for j in support}
                slope = [sum(mu[j] * ws.column(j)[a] for j in support) for a in range(k)]
                vol = Fraction(rng.randint(1, 4), rng.randint(1, 3))
                sigma = cones.sigma_vector([x / vol for x in level], rng.randint(1, 6), vol,
                                           rng.randint(1, 3), slope)
            else:
                sigma = cones.constant_sigma(level)
            r = tuple(rng.randint(0, 4) for _ in range(n))
            out.append(StratumInstance(ws, sigma, r))
        return out

    def run(self, inst: StratumInstance, spans_path=None):
        from vortexmoduli import cones, moduli

        dim = _call(moduli.moduli_dimension_glsm, inst.ws, inst.sigma, inst.r)
        support = _call(cones.minimal_support, inst.ws, inst.sigma)
        if support[0] == "ok":
            support = ("ok", tuple(sorted(support[1])))
        return dim, support

    def check(self, inst: StratumInstance, outcome) -> bool:
        import oracles

        rows = inst.ws.rows
        dim = oracles.oracle_moduli_dimension(rows, inst.sigma, inst.r)
        expected_support = ("error", "NotFoundError")
        for subset in itertools.combinations(range(1, inst.ws.n + 1), inst.ws.k):
            if oracles.oracle_in_cone_interior(rows, frozenset(subset), inst.sigma):
                expected_support = ("ok", subset)
                break
        return outcome == (("ok", dim), expected_support)


# -- wide-volumes -------------------------------------------------------------------

# Stable weight-one towers whose moduli space is a projective space of
# dimension D = n r - 1 (volume of degree 2D in pi) or a projective bundle
# over the dual torus.  The dimensions are fixed; the seed draws Kahler
# data, couplings and the order of the abelian polarisation.  The largest,
# D = 17, is the largest that leaves room for several passes in a run (a
# P^1 tower with D = 19 alone takes 3 s, one with D = 39 takes 14 s).  As
# in STRATUM_SLOTS, the middle of the list is a tier of similar cost.
#   ("projective", m, n, d):        P^m base, n fields of degree d
#   ("hirzebruch", k, n, (a, b)):   Hirzebruch surface F_k, bidegree (a, b)
#   ("abelian", m, n, deltas):      abelian m-fold, polarisation deltas
WIDE_SLOTS = (
    ("abelian", 2, 1, (2, 3)),
    ("abelian", 2, 2, (1, 3)),
    ("abelian", 3, 1, (1, 1, 2)),
    ("abelian", 4, 1, (1, 1, 1, 2)),
    ("abelian", 5, 1, (1, 1, 1, 1, 2)),
    ("hirzebruch", 1, 1, (2, 2)),
    ("projective", 1, 2, 2),
    ("projective", 1, 3, 2),
    ("projective", 2, 2, 2),
    ("hirzebruch", 0, 2, (2, 2)),
)


@dataclass(frozen=True)
class WideInstance:
    family: str
    model: object
    expected_dim: int


class WideVolumes:
    """Kahler class, volume and total scalar curvature of stable models,
    every value rendered at 12 and 30 digits.

    Set-up warms the program's pi enclosure to ``PI_WARM_DIGITS``, as a
    long scan would have it.  The enclosure cache only ever tightens, and
    every later enclosure is computed from it; from cold, most draws take
    it to 100 digits early in a pass, but some stop at 80 and then the
    whole pass runs a third faster, so the cost of a run would depend on
    the seed.  Warmed, the draw still moves the cost of the largest
    instances by about 12% either way, so a run draws three sets."""

    name = "wide-volumes"
    children = False
    input_sets = 3

    def generate(self, seed: int, input_set: int):
        import vortexmoduli as vm

        rng = random.Random(f"{seed}:{input_set}")
        out = []
        for family, a, n, data in WIDE_SLOTS:
            weights = vm.WeightSystem.from_rows([[1] * n])
            if family == "projective":
                manifold = vm.ProjectiveSpace(a, Fraction(rng.randint(1, 4), rng.randint(1, 2)))
                principal = vm.Degree(data)
            elif family == "hirzebruch":
                delta = Fraction(rng.randint(1, 2))
                manifold = vm.Hirzebruch(a, a * delta / 2 + Fraction(rng.randint(1, 4), 2), delta)
                principal = vm.Bidegree(*data)
            else:
                deltas = list(data)
                rng.shuffle(deltas)
                lambdas = [Fraction(rng.randint(1, 4), rng.randint(1, 2)) for _ in range(a)]
                manifold = vm.AbelianVariety(vm.AbelianVarietyData.of(deltas, lambdas))
                principal = vm.DeltaVector(tuple(deltas))
            # sigma = tau Vol - 2 pi m slope / e^2 lies in (c, c + 1] with c in
            # 90..110, because 22/7 > pi; its size sets the digits approx needs.
            vol, slope = vm.volume_and_slope(manifold, principal)
            e2 = rng.randint(1, 4)
            shift = math.ceil(Fraction(44 * manifold.m) * slope / (7 * e2))
            tau = (rng.randint(90, 110) + shift) / vol
            model = vm.GlsmModel.from_principal(manifold, weights, [tau], e2, [principal])
            r = vm.r_sections(manifold, principal)
            out.append(WideInstance(family, model, n * r - 1 + (a if family == "abelian" else 0)))
        vm.scalars.pi_enclosure(PI_WARM_DIGITS)
        return out

    def run(self, inst: WideInstance, spans_path=None):
        from vortexmoduli import metrics, moduli

        desc = moduli.build_moduli(inst.model)
        kahler = _call(metrics.kahler_class, inst.model, desc)
        volume = _call(metrics.volume_moduli, inst.model, desc)
        curvature = _call(metrics.total_scalar_curvature, inst.model, desc)
        values = []
        if kahler[0] == "ok":
            values.extend(kahler[1].eta_coefficients)
        values.extend(v[1] for v in (volume, curvature) if v[0] == "ok")
        rendered = [[v.approx(d) for d in APPROX_DIGITS] for v in values]
        return desc.complex_dimension, kahler, volume, curvature, values, rendered

    def check(self, inst: WideInstance, outcome) -> bool:
        from vortexmoduli import PI, metrics, r_sections

        dim, kahler, volume, curvature, values, rendered = outcome
        model = inst.model
        sigma = model.sigma()[0]
        if dim != inst.expected_dim or kahler[0] != "ok" or volume[0] != "ok":
            return False
        if kahler[1].eta_coefficients != (PI * sigma,):
            return False
        vol = volume[1]
        if inst.family == "abelian":
            # Curvature is computed for projective-space kinds only.
            if curvature != ("error", "UnsupportedKindError"):
                return False
            if vol != presentation_ring_volume(model, dim):
                return False
            if model.m == 2:
                r = r_sections(model.manifold, model.bundles[0])
                closed = metrics.abelian_tower_volume_times_sigma(
                    model.vol_m(), model.tau[0], model.e2, r, model.weights.n, sigma)
                if vol * sigma != closed:
                    return False
        else:
            if vol != metrics.volume_projective_space_via_ring(dim, sigma):
                return False
            # curvature * (pi sigma) = 2 pi D (D + 1) * volume
            if curvature[0] != "ok" or curvature[1] * (PI * sigma) != PI * (2 * dim * (dim + 1)) * vol:
                return False
        return rendered == [[reference_approx(v, d) for d in APPROX_DIGITS] for v in values]


def presentation_ring_volume(model, dim: int):
    """Volume of a projective-bundle moduli space of dimension ``dim`` by a
    second route: the top power of the Kahler class expanded in the
    hyperplane-relation presentation of the projectivised transform, then
    integrated over the dual torus (the route of tests/test_metrics.py)."""
    from vortexmoduli import PI, PiPoly
    from vortexmoduli.cohomring import fibre_integrate, transport
    from vortexmoduli.fourier_mukai import darboux_top, dual_odd_names, fm_kahler_power
    from vortexmoduli.moduli import projective_bundle_presentation

    av = model.abelian_data_for(model.bundles[0])
    odd = dual_odd_names(av.m)
    pres = projective_bundle_presentation(av, copies=model.weights.n)
    correction = fm_kahler_power(av) * PiPoly.pi(2, Fraction(-2) / model.e2)
    omega = pres.gen("eta") * (PI * model.sigma()[0]) + transport(correction, pres)
    top = omega**dim * Fraction(1, math.factorial(dim))
    pushed = fibre_integrate(top, odd, darboux_top(odd, av.m))
    return pushed.coefficient(even_powers={"eta": dim - av.m})


def reference_approx(value, digits: int) -> str:
    """``value.approx(digits)`` recomputed independently of the program:
    mpmath interval arithmetic at a pi it computes itself, at increasing
    precision until the rounded value is certain.  The value must depend
    on pi, so it is never exactly halfway between two roundings."""
    from mpmath import iv, libmp

    if value.degree < 1:
        raise ValueError("reference rendering needs a non-constant polynomial")
    dps = digits + 30
    while True:
        iv.dps = dps
        acc = iv.mpf(0)
        for c in reversed(value.coeffs):
            acc = acc * iv.pi + iv.mpf(c.numerator) / c.denominator
        lo, hi = (acc * 10**digits + iv.mpf("0.5"))._mpi_
        n = libmp.to_int(lo, "f")
        if n == libmp.to_int(hi, "f"):
            whole, frac = divmod(abs(n), 10**digits)
            return f"{'-' if n < 0 else ''}{whole}.{frac:0{digits}d}"
        dps *= 2


WORKLOADS = {w.name: w for w in (DemoReports(), StratumSweep(), WideVolumes())}
