import io
import json
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest

from vortexmoduli.cli import main, parse_model, parse_rational
from vortexmoduli.errors import ParseError
from vortexmoduli.geometry import Degree, DeltaVector

ROOT = Path(__file__).resolve().parent.parent
DEMO_MODELS = sorted((ROOT / "demos" / "models").glob("*.json"))


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


@pytest.fixture
def model_file(tmp_path):
    def write(doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


BASE_DOC = {
    "manifold": {"type": "projective_space", "m": 1, "kahler_scale": "1"},
    "weights": [[1, 1, 1]],
    "tau": ["100"],
    "e2": "1",
    "principal": [{"degree": 2}],
}


def test_parse_rational_rules():
    assert parse_rational(3, "x") == Fraction(3)
    assert parse_rational("3/2", "x") == Fraction(3, 2)
    with pytest.raises(ParseError):
        parse_rational(1.5, "x")
    with pytest.raises(ParseError):
        parse_rational("1.5", "x")
    with pytest.raises(ParseError):
        parse_rational(True, "x")
    with pytest.raises(ParseError):
        parse_rational("1/0", "x")


def test_parse_model_variants():
    model, options = parse_model(BASE_DOC)
    assert model.bundles == (Degree(2), Degree(2), Degree(2))
    assert options["explicit"] is False
    doc = dict(BASE_DOC)
    doc.pop("principal")
    doc["bundles"] = [{"degree": 2}] * 3
    model, _ = parse_model(doc)
    assert model.principal_slopes == (Fraction(2),)
    abelian = {
        "manifold": {"type": "abelian_variety", "lambdas": ["1", "1"], "deltas": [2, 4]},
        "weights": [[1]],
        "tau": ["100"],
        "e2": "1",
    }
    model, _ = parse_model(abelian)
    assert model.bundles == (DeltaVector((2, 4)),)


def test_parse_model_errors():
    with pytest.raises(ParseError):
        parse_model({"weights": [[1]], "tau": ["1"], "e2": "1"})
    doc = dict(BASE_DOC)
    doc["analysis"] = ["volume", "nonsense"]
    with pytest.raises(ParseError):
        parse_model(doc)
    doc = dict(BASE_DOC)
    doc["manifold"] = {"type": "mystery"}
    with pytest.raises(ParseError):
        parse_model(doc)


def test_report_roundtrip_and_determinism(model_file):
    path = model_file(dict(BASE_DOC, constraint={"degree": 2}))
    code, out = run_cli(["report", path])
    assert code == 0
    doc = json.loads(out)
    assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == out
    code2, out2 = run_cli(["report", path])
    assert out2 == out
    assert doc["moduli"]["kind"] == {"kind": "projective_space", "dimension": 8}
    assert doc["volume"]["constrained"]["dimension"] == 3
    assert doc["stability"]["verdicts"]["interior_full_support"] is True
    assert doc["energy"].get("skipped")  # not a single-field model
    assert any("conjectural" in w for w in doc["warnings"])


def test_stability_subcommand_examples(model_file):
    # sigma = 2 - 2 pi: outside the cone.
    path = model_file(
        {
            "manifold": {"type": "projective_space", "m": 1},
            "weights": [[1]],
            "tau": ["2"],
            "e2": "1",
            "principal": [{"degree": 1}],
        }
    )
    code, out = run_cli(["stability", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["stability"]["verdicts"]["interior_full_support"] is False
    assert doc["stability"]["sigma"][0]["coeffs"] == ["2/1", "-2/1"]
    # e^2 = 100: sigma = 2 - pi/50 > 0.
    path = model_file(
        {
            "manifold": {"type": "projective_space", "m": 1},
            "weights": [[1]],
            "tau": ["2"],
            "e2": "100",
            "principal": [{"degree": 1}],
        },
        "second.json",
    )
    code, out = run_cli(["stability", path])
    doc = json.loads(out)
    assert doc["stability"]["verdicts"]["interior_full_support"] is True
    assert doc["stability"]["decomposition"]["positive"] == [1]


def test_parse_error_exit_code(model_file):
    path = model_file(dict(BASE_DOC, tau=[1.5]))
    code, _ = run_cli(["report", path])
    assert code == 2
    path2 = model_file({"weights": "notalist"}, "bad.json")
    code, _ = run_cli(["report", path2])
    assert code == 2


ABELIAN_DOC = {
    "manifold": {"type": "abelian_variety", "lambdas": ["1", "1"]},
    "weights": [[1]],
    "tau": ["100"],
    "e2": "1",
}


@pytest.mark.parametrize(
    "doc",
    [
        dict(BASE_DOC, e2="0"),
        dict(BASE_DOC, tau=["1", "2"]),
        dict(BASE_DOC, manifold={"type": "projective_space", "m": -1}),
        dict(BASE_DOC, weights=5),
        dict(BASE_DOC, weights=[5]),
        dict(BASE_DOC, tau=5),
        dict(BASE_DOC, constraint=5),
        dict(BASE_DOC, constraint={}),
        dict(BASE_DOC, analysis=5),
        dict(BASE_DOC, analysis=[[1]]),
        dict(BASE_DOC, principal=5),
        dict(BASE_DOC, principal=[{"bidegree": 5}]),
        dict(BASE_DOC, principal=[{"deltas": 5}]),
        dict(ABELIAN_DOC, manifold={"type": "abelian_variety", "lambdas": 5}),
        dict(ABELIAN_DOC, manifold={"type": "abelian_variety", "lambdas": ["1"], "deltas": 5}),
        dict(BASE_DOC, manifold={"type": "generic_simply_connected", "m": 1, "vol": "1", "bundles": [5]}),
    ],
    ids=[
        "e2-zero", "tau-too-long", "negative-m", "weights-int", "weights-row-int", "tau-int",
        "constraint-int", "constraint-no-degree", "analysis-int", "analysis-nested",
        "principal-int", "bidegree-int", "deltas-int", "lambdas-int", "manifold-deltas-int",
        "table-entry-int",
    ],
)
def test_malformed_model_exits_two_without_traceback(model_file, capsys, doc):
    code, out = run_cli(["report", model_file(doc)])
    assert code == 2
    assert out == ""
    assert capsys.readouterr().err.startswith("parse error: ")


def test_explicit_failing_analysis_exits_one(model_file):
    path = model_file(dict(BASE_DOC, analysis=["energy"]))
    code, out = run_cli(["report", path])
    assert code == 1
    doc = json.loads(out)
    assert "error" in doc["energy"]


def test_embedding_analysis(model_file):
    doc = {
        "manifold": {"type": "projective_space", "m": 2},
        "weights": [[1, 1]],
        "tau": ["10"],
        "e2": "1",
        "principal": [{"degree": 1}],
        "analysis": ["embedding"],
    }
    path = model_file(doc)
    code, out = run_cli(["report", path])
    assert code == 0
    report = json.loads(out)
    assert report["embedding"]["open_dense"] is False  # n = 2 is not > m = 2
    doc["manifold"]["m"] = 1
    path = model_file(doc, "m1.json")
    code, out = run_cli(["report", path])
    report = json.loads(out)
    assert report["embedding"]["open_dense"] is True
    assert report["embedding"]["maps_volume"]["conjectural"] is True


def test_volume_subcommand_abelian(model_file):
    path = model_file(
        {
            "manifold": {"type": "abelian_variety", "lambdas": ["1", "1"], "deltas": [2, 4]},
            "weights": [[1]],
            "tau": ["100"],
            "e2": "1",
        }
    )
    code, out = run_cli(["volume", path, "--digits", "15"])
    assert code == 0
    doc = json.loads(out)
    assert "value" in doc["volume"]


def test_limit_subcommand(model_file):
    path = model_file(BASE_DOC)
    code, out = run_cli(["limit", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["limits"]["volume"]["coeffs"][-1] == "15625000000000/63"
    assert "not_applicable" in doc["limits"]["energy"]


def test_pretty_output(model_file):
    path = model_file(BASE_DOC)
    code, out = run_cli(["moduli", path, "--pretty"])
    assert code == 0
    assert "projective_space" in out
    assert "{" not in out.splitlines()[0]


def test_selftest_subcommand():
    code, out = run_cli(["selftest", "--filter", "geometry"])
    assert code == 0
    assert "PASS  geometry/section-count-catalog" in out
    code, out = run_cli(["selftest", "--filter", "fourier", "--inject-fault"])
    assert code == 1
    assert "FAIL" in out


def test_generic_simply_connected_file(model_file):
    doc = {
        "manifold": {
            "type": "generic_simply_connected",
            "m": 2,
            "vol": "2",
            "bundles": [{"r": 3, "slope_vol": "1"}, {"r": 2, "slope_vol": "1"}],
        },
        "weights": [[1, 1]],
        "tau": ["50"],
        "e2": "1",
        "analysis": ["stability", "moduli"],
    }
    path = model_file(doc)
    code, out = run_cli(["report", path])
    assert code == 0
    report = json.loads(out)
    assert report["moduli"]["verdict"] == "stable"
    assert report["moduli"]["complex_dimension"] == 4


def test_volume_section_carries_scalar_curvature(model_file):
    path = model_file(BASE_DOC)
    code, out = run_cli(["volume", path])
    assert code == 0
    doc = json.loads(out)
    assert "coeffs" in doc["volume"]["scalar_curvature"]
    # non-projective kinds record the curvature as skipped
    abelian = model_file(
        {
            "manifold": {"type": "abelian_variety", "lambdas": ["1", "1"], "deltas": [2, 4]},
            "weights": [[1]],
            "tau": ["100"],
            "e2": "1",
        },
        "ab.json",
    )
    code, out = run_cli(["volume", abelian])
    assert code == 0
    doc = json.loads(out)
    assert "skipped" in doc["volume"]["scalar_curvature"]


def test_abelian_report_volume_matches_closed_form(model_file):
    from vortexmoduli.fourier_mukai import AbelianVarietyData
    from vortexmoduli.geometry import AbelianVariety
    from vortexmoduli.metrics import abelian_tower_volume_times_sigma, volume_moduli
    from vortexmoduli.moduli import GlsmModel
    from vortexmoduli.cones import WeightSystem

    path = model_file(
        {
            "manifold": {"type": "abelian_variety", "lambdas": ["1", "1"], "deltas": [2, 4]},
            "weights": [[1]],
            "tau": ["100"],
            "e2": "1",
        }
    )
    code, out = run_cli(["volume", path, "--digits", "15"])
    doc = json.loads(out)
    model = GlsmModel.from_principal(
        AbelianVariety(AbelianVarietyData.of([2, 4], [1, 1])),
        WeightSystem.from_rows([[1]]),
        [Fraction(100)],
        1,
        [DeltaVector((2, 4))],
    )
    expected = volume_moduli(model)
    assert doc["volume"]["value"]["coeffs"] == [
        f"{c.numerator}/{c.denominator}" for c in expected.coeffs
    ]
    sigma = model.sigma()[0]
    assert expected * sigma == abelian_tower_volume_times_sigma(
        Fraction(1), Fraction(100), Fraction(1), 8, 1, sigma
    )


def test_generic_picz_default_report_degrades_gracefully(model_file):
    # No section-count formula exists for this descriptor, so the moduli
    # sections are skipped while the stability analysis still runs.
    path = model_file(
        {
            "manifold": {"type": "generic_pic_z", "m": 2, "t": 5, "kahler_scale": "1"},
            "weights": [[1, 1]],
            "tau": ["50"],
            "e2": "1",
            "principal": [{"degree": 1}],
        }
    )
    code, out = run_cli(["report", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["stability"]["verdicts"]["closed_cone"] is True
    assert "skipped" in doc["moduli"]
    assert "skipped" in doc["volume"]
    # explicitly requesting the unavailable analysis is an error
    code, _ = run_cli(["moduli", path])
    assert code == 1


@pytest.mark.parametrize("model", DEMO_MODELS, ids=lambda path: path.stem)
def test_demo_report_matches_pinned_output(model):
    # The pinned reports are read, never rewritten: a change of any byte
    # in a demo report is a change of behaviour.
    expected = (ROOT / "perfbench" / "expected" / f"{model.stem}.json").read_bytes()
    code, out = run_cli(["report", str(model)])
    assert code == 0
    assert out.encode() == expected
