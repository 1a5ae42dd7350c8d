"""Command-line interface: parse a model file, orchestrate the pipeline,
and emit a structured report.

Model files are JSON documents.  All rational inputs are integers or
exact "numerator/denominator" strings; floating-point numbers are
rejected so the engine's exactness guarantees survive the wire format.

    {
      "manifold": {"type": "projective_space", "m": 1, "kahler_scale": "1"},
      "weights":  [[1, 1, 1]],
      "tau":      ["100"],
      "e2":       "1",
      "principal": [{"degree": 2}],
      "constraint": {"degree": 2},
      "analysis": ["stability", "moduli", "volume"]
    }

Manifold types: projective_space {m, kahler_scale}, grassmannian
{n, k, kahler_scale}, hirzebruch {k, lambda, delta}, abelian_variety
{lambdas, deltas?}, generic_pic_z {m, t, kahler_scale},
generic_simply_connected {m, vol, bundles: [{r, slope_vol}, ...],
principal_slopes}.  Principal bundle entries: {"degree": d},
{"bidegree": [a, b]}, or {"deltas": [d1, ...]}; alternatively give
per-field "bundles" and the principal data is solved from the weight
relations.

Exit codes: 0 success, 1 at least one analysis failed, 2 parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Any

from . import cones, geometry, maps, metrics
from .errors import NotOpenDenseError, ParseError, VortexError
from .fourier_mukai import AbelianVarietyData
from .moduli import (
    GlsmModel,
    ModuliDescription,
    PointKind,
    ProjectiveBundleKind,
    ProjectiveSpaceKind,
    ToricFibrationKind,
    ToricOrbifoldKind,
    build_moduli,
)
from .scalars import PiPoly
from .selftest import run_selftest

ALL_ANALYSES = ("stability", "moduli", "kahler", "volume", "energy", "embedding", "limit")


# -- exact parsing ------------------------------------------------------------


_RATIONAL_RE = re.compile(r"^[+-]?\d+(\s*/\s*[1-9]\d*)?$")


def parse_rational(value: Any, where: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(f"{where}: floating point and boolean values are not exact; "
                         f"write rationals as \"a/b\" strings")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        if not _RATIONAL_RE.match(value.strip()):
            raise ParseError(f"{where}: cannot parse {value!r} as an exact rational "
                             f"(use \"a\" or \"a/b\")")
        return Fraction(value)
    raise ParseError(f"{where}: expected an integer or \"a/b\" string, got {type(value).__name__}")


def parse_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def parse_list(value: Any, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def parse_object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _parse_manifold(doc: Any) -> geometry.ManifoldDescriptor:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ParseError("manifold: expected an object with a \"type\" field")
    kind = doc["type"]
    try:
        if kind == "projective_space":
            return geometry.ProjectiveSpace(
                parse_int(doc["m"], "manifold.m"),
                parse_rational(doc.get("kahler_scale", 1), "manifold.kahler_scale"),
            )
        if kind == "grassmannian":
            return geometry.Grassmannian(
                parse_int(doc["n"], "manifold.n"),
                parse_int(doc["k"], "manifold.k"),
                parse_rational(doc.get("kahler_scale", 1), "manifold.kahler_scale"),
            )
        if kind == "hirzebruch":
            return geometry.Hirzebruch(
                parse_int(doc["k"], "manifold.k"),
                parse_rational(doc["lambda"], "manifold.lambda"),
                parse_rational(doc["delta"], "manifold.delta"),
            )
        if kind == "abelian_variety":
            lambdas = [parse_rational(x, "manifold.lambdas")
                       for x in parse_list(doc["lambdas"], "manifold.lambdas")]
            deltas = doc.get("deltas")
            if deltas is None:
                deltas = [1] * len(lambdas)
            deltas = [parse_int(d, "manifold.deltas") for d in parse_list(deltas, "manifold.deltas")]
            return geometry.AbelianVariety(AbelianVarietyData.of(deltas, lambdas))
        if kind == "generic_pic_z":
            return geometry.GenericPicZ(
                parse_int(doc["m"], "manifold.m"),
                parse_int(doc["t"], "manifold.t"),
                parse_rational(doc.get("kahler_scale", 1), "manifold.kahler_scale"),
            )
        if kind == "generic_simply_connected":
            table = []
            for entry in parse_list(doc["bundles"], "manifold.bundles"):
                entry = parse_object(entry, "manifold.bundles")
                table.append((parse_int(entry["r"], "manifold.bundles.r"),
                              parse_rational(entry["slope_vol"], "manifold.bundles.slope_vol")))
            return geometry.GenericSimplyConnected(
                parse_int(doc["m"], "manifold.m"),
                parse_rational(doc["vol"], "manifold.vol"),
                tuple(table),
            )
    except KeyError as exc:
        raise ParseError(f"manifold: missing field {exc.args[0]!r}") from exc
    raise ParseError(f"manifold: unknown type {kind!r}")


def _parse_bundle(doc: Any, where: str) -> geometry.BundleDescriptor:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    if "degree" in doc:
        return geometry.Degree(parse_int(doc["degree"], f"{where}.degree"))
    if "bidegree" in doc:
        pair = parse_list(doc["bidegree"], f"{where}.bidegree")
        if len(pair) != 2:
            raise ParseError(f"{where}.bidegree: expected two integers")
        return geometry.Bidegree(parse_int(pair[0], where), parse_int(pair[1], where))
    if "deltas" in doc:
        deltas = parse_list(doc["deltas"], f"{where}.deltas")
        return geometry.DeltaVector(tuple(parse_int(d, where) for d in deltas))
    if "index" in doc:
        return geometry.TableIndex(parse_int(doc["index"], where))
    raise ParseError(f"{where}: expected one of degree / bidegree / deltas / index")


def parse_model(doc: Any) -> tuple[GlsmModel, dict]:
    """Build the model from a parsed JSON document; returns the model and
    the auxiliary options (constraint degree, analysis list, map degree).

    Every malformed document raises ``ParseError``, including one whose
    values the model constructors reject."""
    try:
        return _parse_model(doc)
    except ParseError:
        raise
    except VortexError as exc:
        raise ParseError(f"invalid model: {exc}") from exc


def _parse_model(doc: Any) -> tuple[GlsmModel, dict]:
    if not isinstance(doc, dict):
        raise ParseError("model file must be a JSON object")
    for key in ("manifold", "weights", "tau", "e2"):
        if key not in doc:
            raise ParseError(f"missing required field {key!r}")
    manifold = _parse_manifold(doc["manifold"])
    rows = [
        [parse_int(x, "weights") for x in parse_list(row, "weights")]
        for row in parse_list(doc["weights"], "weights")
    ]
    try:
        weights = cones.WeightSystem.from_rows(rows)
    except VortexError as exc:
        raise ParseError(f"weights: {exc}") from exc
    tau = tuple(parse_rational(t, "tau") for t in parse_list(doc["tau"], "tau"))
    e2 = parse_rational(doc["e2"], "e2")

    if isinstance(manifold, geometry.GenericSimplyConnected):
        bundles = tuple(geometry.TableIndex(j) for j in range(1, weights.n + 1))
        model = GlsmModel.from_bundles(manifold, weights, tau, e2, bundles)
    elif "principal" in doc:
        principal = [
            _parse_bundle(p, f"principal[{i}]")
            for i, p in enumerate(parse_list(doc["principal"], "principal"))
        ]
        model = GlsmModel.from_principal(manifold, weights, tau, e2, principal)
    elif "bundles" in doc:
        bundles = [
            _parse_bundle(b, f"bundles[{i}]")
            for i, b in enumerate(parse_list(doc["bundles"], "bundles"))
        ]
        model = GlsmModel.from_bundles(manifold, weights, tau, e2, bundles)
    elif isinstance(manifold, geometry.AbelianVariety) and weights.k == 1:
        model = GlsmModel.from_principal(
            manifold, weights, tau, e2, [geometry.DeltaVector(manifold.data.deltas)]
        )
    else:
        raise ParseError("model needs \"principal\" or \"bundles\" data")

    analysis = parse_list(doc.get("analysis", list(ALL_ANALYSES)), "analysis")
    if not all(isinstance(flag, str) for flag in analysis):
        raise ParseError("analysis: expected a list of strings")
    options = {
        "constraint": None,
        "analysis": list(analysis),
        "explicit": "analysis" in doc,
    }
    if "constraint" in doc:
        constraint = parse_object(doc["constraint"], "constraint")
        options["constraint"] = parse_int(constraint.get("degree"), "constraint.degree")
    unknown = set(options["analysis"]) - set(ALL_ANALYSES)
    if unknown:
        raise ParseError(f"unknown analysis flags: {sorted(unknown)}")
    return model, options


def load_model(path: str) -> tuple[GlsmModel, dict]:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse_model(doc)


# -- report assembly -------------------------------------------------------------


def _poly_json(value: PiPoly, digits: int) -> dict:
    return value.to_json(digits)


def _kind_json(kind) -> dict | None:
    if kind is None:
        return None
    if isinstance(kind, PointKind):
        return {"kind": "point", "dimension": 0}
    if isinstance(kind, ProjectiveSpaceKind):
        return {"kind": "projective_space", "dimension": kind.dim}
    if isinstance(kind, ProjectiveBundleKind):
        return {
            "kind": "projective_bundle",
            "fibre_rank": kind.fibre_rank,
            "base_dimension": kind.base_dim,
            "dimension": kind.dim,
        }
    if isinstance(kind, ToricOrbifoldKind):
        return {"kind": "toric_orbifold", "dimension": kind.dim}
    if isinstance(kind, ToricFibrationKind):
        return {
            "kind": "toric_fibration",
            "fibre_dimension": kind.fibre_dim,
            "base_dimension": kind.base_dim,
            "dimension": kind.dim,
        }
    return {"kind": "unknown"}


def _section(report: dict, warnings: list, name: str, builder, required: bool) -> bool:
    """Run one report section.  A failing required section is an error
    (nonzero exit); a failing optional section is recorded as skipped."""
    try:
        report[name] = builder()
        return True
    except VortexError as exc:
        if required:
            report[name] = {"error": str(exc)}
            warnings.append(f"{name}: {exc}")
            return False
        report[name] = {"skipped": str(exc)}
        return True


def cmd_stability(model: GlsmModel, digits: int) -> dict:
    ws = model.weights
    sigma = model.sigma()
    out: dict[str, Any] = {
        "sigma": [_poly_json(s, digits) for s in sigma],
        "verdicts": {
            "closed_cone": cones.in_cone_closed(ws, ws.full_set(), sigma),
            "interior_full_support": cones.in_cone_interior(ws, ws.full_set(), sigma),
            "C1": cones.check_C1(ws, sigma),
            "C2": cones.check_C2(ws),
        },
    }
    if ws.n == ws.k:
        split = cones.sigma_decomposition_square(ws, sigma)
        if split is None:
            out["decomposition"] = {"feasible": False}
        else:
            out["decomposition"] = {
                "feasible": True,
                "coefficients": [_poly_json(c, digits) for c in split.coefficients],
                "positive": sorted(split.positive),
                "zero": sorted(split.zero),
            }
    try:
        threshold = cones.stability_threshold(
            ws, model.tau, model.vol_m(), model.m, model.principal_slopes, ws.full_set()
        )
        if threshold.unbounded:
            out["coupling_threshold"] = {"unbounded": True}
        else:
            q = threshold.pi_reciprocal_coefficient
            out["coupling_threshold"] = {
                "unbounded": False,
                "inverse_coupling_times_pi": f"{q.numerator}/{q.denominator}",
                "note": "stable for all 1/e^2 below this value divided by pi; "
                        "the source leaves the bound implicit",
            }
    except VortexError as exc:
        out["coupling_threshold"] = {"error": str(exc)}
    return out


def cmd_moduli(desc: ModuliDescription, digits: int) -> dict:
    out: dict[str, Any] = {
        "verdict": desc.verdict.value,
        "kind": _kind_json(desc.kind),
        "complex_dimension": desc.complex_dimension,
        "smooth": desc.smooth,
        "notes": list(desc.notes),
    }
    if desc.cohomology is not None:
        pres = desc.cohomology
        out["cohomology"] = {
            "odd_generators": list(pres.odd_names),
            "even_generators": [
                {"name": name, "degree": degree, "relation_head": head}
                for name, degree, head in zip(pres.even_names, pres.even_degrees, pres.heads)
            ],
            "degree_cap": pres.degree_cap,
        }
    return out


def cmd_kahler(model: GlsmModel, desc: ModuliDescription, digits: int) -> dict:
    report = metrics.kahler_class(model, desc)
    return {
        "eta_coefficients": [_poly_json(c, digits) for c in report.eta_coefficients],
        "base_correction": str(report.base_correction),
        "checked_against_universal_class_integral": True,
    }


def cmd_volume(model: GlsmModel, desc: ModuliDescription, digits: int, constraint: int | None) -> dict:
    out: dict[str, Any] = {"value": _poly_json(metrics.volume_moduli(model, desc), digits)}
    try:
        out["scalar_curvature"] = _poly_json(
            metrics.total_scalar_curvature(model, desc), digits
        )
    except VortexError as exc:
        out["scalar_curvature"] = {"skipped": str(exc)}
    if constraint is not None:
        if not isinstance(desc.kind, ProjectiveSpaceKind):
            out["constrained"] = {"error": "constrained volume needs a projective-space moduli"}
        else:
            n = model.weights.n
            r = geometry.r_sections(model.manifold, model.bundles[0])
            power = geometry.combine_bundles([constraint], [model.bundles[0]])
            r_l = geometry.r_sections(model.manifold, power)
            value = metrics.constrained_volume(n, r, constraint, r_l, model.sigma()[0])
            out["constrained"] = {
                "degree": constraint,
                "dimension": n * r - 1 - r_l,
                "value": _poly_json(value, digits),
            }
    return out


def cmd_energy(model: GlsmModel, digits: int) -> dict:
    return {"value": _poly_json(metrics.vortex_energy(model), digits)}


def cmd_embedding(model: GlsmModel, digits: int) -> dict:
    target = maps.ToricTarget(model.weights, model.tau)
    planes = maps.unstable_planes(target)
    data = [
        maps.BundleData(
            r=geometry.r_sections(model.manifold, b),
            trivial=geometry.is_trivial_bundle(model.manifold, b),
        )
        for b in model.bundles
    ]
    s = maps.s_invariant(target, data)
    out: dict[str, Any] = {
        "unstable_planes": [sorted(p.allowed) for p in planes],
        "s_invariant": "-infinity" if s is maps.NEG_INFINITY else s,
    }
    if isinstance(model.manifold, geometry.ProjectiveSpace):
        dense = maps.embedding_open_dense(target, model.manifold, data)
        out["open_dense"] = dense
        if dense and target.is_projective_space() and isinstance(model.bundles[0], geometry.Degree):
            value = maps.maps_volume_conjectural(
                target, model.manifold, model.bundles[0].d, model.tau[0]
            )
            out["maps_volume"] = {
                "value": _poly_json(value, digits),
                "conjectural": True,
            }
    else:
        out["open_dense"] = {
            "error": "open-dense criterion is established only for projective-space bases"
        }
    return out


def cmd_limit(model: GlsmModel, digits: int) -> dict:
    out: dict[str, Any] = {"note": "substitution 1/e^2 -> 0; sigma degenerates to tau Vol(M)"}

    def attempt(name: str, builder) -> None:
        try:
            out[name] = builder()
        except VortexError as exc:
            out[name] = {"not_applicable": str(exc)}

    attempt("volume", lambda: _poly_json(metrics.strong_coupling_limit(model, "volume"), digits))
    attempt("energy", lambda: _poly_json(metrics.strong_coupling_limit(model, "energy"), digits))

    def kahler_limit():
        rep = metrics.strong_coupling_limit(model, "kahler_class")
        return {
            "eta_coefficients": [_poly_json(c, digits) for c in rep.eta_coefficients],
            "base_correction": "0",
        }

    attempt("kahler_class", kahler_limit)
    return out


def build_report(model: GlsmModel, options: dict, digits: int) -> tuple[dict, bool]:
    """Assemble the requested sections; returns (report, had_errors).

    Sections the user asked for explicitly must succeed; sections from
    the default full-report sweep are skipped when inapplicable.
    """
    warnings: list[str] = []
    report: dict[str, Any] = {}
    analyses = options["analysis"]
    explicit = options.get("explicit", False)
    desc: ModuliDescription | None = None
    ok = True

    if "stability" in analyses:
        ok &= _section(report, warnings, "stability",
                       lambda: cmd_stability(model, digits), explicit)
    desc_error: VortexError | None = None
    if {"moduli", "kahler", "volume"} & set(analyses):
        try:
            desc = build_moduli(model)
        except VortexError as exc:
            desc_error = exc

    def needs_desc(builder):
        def run():
            if desc_error is not None:
                raise desc_error
            return builder()

        return run

    if "moduli" in analyses:
        ok &= _section(report, warnings, "moduli",
                       needs_desc(lambda: cmd_moduli(desc, digits)), explicit)
    if "kahler" in analyses:
        ok &= _section(report, warnings, "kahler_class",
                       needs_desc(lambda: cmd_kahler(model, desc, digits)), explicit)
    if "volume" in analyses:
        ok &= _section(report, warnings, "volume",
                       needs_desc(lambda: cmd_volume(model, desc, digits, options.get("constraint"))),
                       explicit)
    if "energy" in analyses:
        ok &= _section(report, warnings, "energy", lambda: cmd_energy(model, digits), explicit)
    if "embedding" in analyses:
        ok &= _section(report, warnings, "embedding",
                       lambda: cmd_embedding(model, digits), explicit)
    if "limit" in analyses:
        ok &= _section(report, warnings, "limits", lambda: cmd_limit(model, digits), explicit)

    report["provenance"] = list(desc.notes) if desc is not None else []
    if isinstance(report.get("embedding"), dict) and "maps_volume" in report["embedding"]:
        warnings.append("maps_volume is conjectural (decoupling-limit identification)")
    report["warnings"] = warnings
    return report, not ok


# -- rendering ---------------------------------------------------------------------


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _pretty_lines(obj: Any, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(obj, dict):
        if set(obj) == {"coeffs", "approx"}:
            lines.append(f"{pad}exact coeffs (1, pi, pi^2, ...): {obj['coeffs']}")
            lines.append(f"{pad}approx: {obj['approx']}")
            return
        for key in obj:
            value = obj[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                _pretty_lines(value, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        for item in obj:
            if isinstance(item, (dict, list)):
                _pretty_lines(item, indent, lines)
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{obj}")


def render_pretty(report: dict) -> str:
    lines: list[str] = []
    _pretty_lines(report, 0, lines)
    return "\n".join(lines) + "\n"


# -- entry point ----------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="model file (JSON), or - for stdin")
    parser.add_argument("--digits", type=int, default=12,
                        help="decimal digits in approximations (default 12)")
    parser.add_argument("--pretty", action="store_true", help="human-readable output")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vortexmoduli",
        description="exact stability, moduli, and volume reports for abelian vortex models",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("stability", "moduli", "kahler", "volume", "energy", "embedding", "limit", "report"):
        _add_common(sub.add_parser(name))
    selftest_parser = sub.add_parser("selftest")
    selftest_parser.add_argument("--filter", default=None, help="run only suites matching this substring")
    selftest_parser.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)

    args = parser.parse_args(argv)

    if args.command == "selftest":
        results = run_selftest(args.filter, inject_fault=args.inject_fault)
        for result in results:
            status = "PASS" if result.ok else "FAIL"
            detail = f"  {result.detail}" if result.detail else ""
            print(f"{status}  {result.suite}/{result.name}{detail}")
        failed = [r for r in results if not r.ok]
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
        return 1 if failed else 0

    try:
        model, options = load_model(args.file)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2

    if args.command != "report":
        options = dict(options)
        options["analysis"] = [args.command]
        options["explicit"] = True
    try:
        report, had_errors = build_report(model, options, args.digits)
    except VortexError as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 1

    sys.stdout.write(render_pretty(report) if args.pretty else render_json(report))
    return 1 if had_errors else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
