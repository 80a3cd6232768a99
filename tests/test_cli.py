"""Command-line interface: documents, reports, exit codes, determinism."""

import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from _oracles import d_piece_document, random_psd, reference_dumps
from lindbladctl.cli import (TOLERANCES, CliParseError, SystemDocument,
                             _fmt_number, cloud_csv, cmd_analyze,
                             dumps_report, main, trajectory_csv)
from lindbladctl import (CoherenceVector, PiecewiseControl, accessibility,
                         check_psd, dynamics, fixed_point, is_physical,
                         is_unital, liealg, preset, propagate,
                         sample_reachable, selfcheck)

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# Serialization

def test_dumps_report_number_formatting():
    text = dumps_report({"a": 1.0 / 3.0, "b": -0.0, "c": True, "d": None,
                         "e": 7})
    assert '"a": 0.33333333333333331' in text
    assert '"b": 0' in text and "-0" not in text
    assert '"c": true' in text
    assert '"d": null' in text
    assert '"e": 7' in text
    assert text.endswith("\n")


def test_dumps_report_layout():
    text = dumps_report({"outer": {"vec": [1.0, 2.0, 3.0],
                                   "mats": [[1, 0], [0, 1]]}})
    # scalar lists stay on one line; nested lists get their own lines
    assert '"vec": [1, 2, 3]' in text
    assert '"mats": [\n' in text
    assert json.loads(text) == {"outer": {"vec": [1.0, 2.0, 3.0],
                                          "mats": [[1, 0], [0, 1]]}}


def test_dumps_report_rejects_nonfinite():
    with pytest.raises(ValueError):
        dumps_report({"x": float("nan")})
    with pytest.raises(ValueError):
        dumps_report({"x": float("inf")})
    with pytest.raises(TypeError):
        dumps_report({"x": object()})
    # a row of floats stops at its first non-finite value
    with pytest.raises(ValueError, match="non-finite number inf"):
        dumps_report({"x": [1.0, float("inf"), float("nan")]})


def test_dumps_report_deterministic():
    payload = {"m": np.arange(3) / 7.0, "k": [True, None, "s"]}
    assert dumps_report(payload) == dumps_report(payload)


def _report_values(floats):
    """Nested reports of dicts, lists and tuples over every kind of value
    dumps_report writes, with floats drawn from floats."""
    floats = st.one_of(floats, st.sampled_from(
        [-0.0, 5e-324, 1e-300, 1e300, 0.1, -1.0 / 3.0]))
    leaves = st.one_of(
        floats, floats.map(np.float64), st.floats(width=32).map(np.float32),
        st.integers(-2**70, 2**70), st.integers(-2**62, 2**62).map(np.int64),
        st.booleans(), st.booleans().map(np.bool_), st.none(),
        st.text(max_size=6),
        st.text(alphabet='"\\\n\u00e9\u20ac\U0001f600 a', max_size=6),
        st.lists(st.one_of(floats, floats.map(np.float64)), max_size=5),
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2,
                                                min_side=0, max_side=4),
                   elements=floats))
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4)),
        max_leaves=16)


def _written(dumps, obj):
    try:
        return dumps(obj)
    except ValueError as exc:
        return "ValueError: %s" % exc


@settings(derandomize=True, max_examples=300, deadline=None)
@given(report=_report_values(st.floats(allow_nan=False,
                                       allow_infinity=False)))
def test_dumps_report_matches_reference_writer(report):
    """Row-wise float writing gives the recursive writer's bytes."""
    assert dumps_report(report) == reference_dumps(report)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(report=_report_values(st.floats()))
def test_dumps_report_refuses_nonfinite_like_reference_writer(report):
    """With nan and inf about, both writers stop at the same value."""
    assert _written(dumps_report, report) == _written(reference_dumps,
                                                      report)


def test_csv_writers():
    system = preset("depolarizing", gamma=0.5)
    traj = propagate(system, PiecewiseControl.zero(3, 1.0),
                     CoherenceVector(2, [0.3, 0.0, 0.4]),
                     samples_per_segment=4)
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "t,rho_1,rho_2,rho_3,purity,det_g"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.3

    result = sample_reachable(system, CoherenceVector(2, [0.3, 0.0, 0.4]),
                              1.0, num_samples=2, seed=0)
    cloud = cloud_csv(result).strip().split("\n")
    assert cloud[0] == "sample,t,rho_1,rho_2,rho_3"
    assert len(cloud) == 1 + 2 * len(result.grid)


def _per_value_lines(rows):
    return [",".join(map(_fmt_number, row)) for row in rows] + [""]


def _trajectory_rows(traj):
    return [[t, *rho, p, d] for t, rho, p, d in
            zip(traj.times, traj.states, traj.purities, traj.dets)]


def _cloud_rows(result):
    return [[i, t, *result.points[i, j]] for i in range(len(result.points))
            for j, t in enumerate(result.grid)]


def _random_n3_document(rng):
    a = random_psd(rng, 8)
    return SystemDocument(N=3, h0=rng.normal(size=8),
                          controls=rng.normal(size=(2, 8)),
                          a_real=a.real, a_imag=a.imag)


def test_csv_writers_match_per_value_formatting():
    # the bulk writers print exactly what _fmt_number prints value by value
    system = preset("amplitude_damping", gamma=0.7)
    v0 = CoherenceVector(2, [0.3, -0.0, 0.4])
    traj = propagate(system, PiecewiseControl(((0.3, [1.0, -2.0, 0.0]),
                                               (0.5, [0.0, 0.0, 3.0]))),
                     v0, samples_per_segment=5)
    lines = trajectory_csv(traj).split("\n")
    assert lines[1:] == _per_value_lines(_trajectory_rows(traj))
    assert lines[1].split(",")[2] == "0"  # -0.0 prints as 0

    # 130 samples cross two 64-sample draw substreams; labels of 1-3 digits
    result = sample_reachable(system, v0, 1.0, num_samples=130, seed=4)
    lines = cloud_csv(result).split("\n")
    assert lines[1:] == _per_value_lines(_cloud_rows(result))
    assert [ln.split(",")[0] for ln in lines[1::11]] \
        == [str(i) for i in range(130)] + [""]

    # signed zeros and extreme magnitudes, in the values and in a label
    result.points[0, 0] = [-0.0, 1e-300, -1e-300]
    result.points[129, 10] = [1e300, -1e300, -0.0]
    result.grid[0] = -0.0
    lines = cloud_csv(result).split("\n")
    assert lines[1:] == _per_value_lines(_cloud_rows(result))
    assert lines[1] == "0,0,0,1e-300,-1e-300"
    assert lines[-2] == "129,1,1.0000000000000001e+300," \
                        "-1.0000000000000001e+300,0"

    # a random N=3 system on a two-point grid, and its trajectory
    system3 = _random_n3_document(np.random.default_rng(31)) \
        .to_control_system()
    v3 = CoherenceVector(3, np.zeros(8))
    result3 = sample_reachable(system3, v3, 0.5, num_samples=20, seed=2,
                               grid_points=2)
    lines = cloud_csv(result3).split("\n")
    assert lines[0] == "sample,t," + ",".join("rho_%d" % i
                                              for i in range(1, 9))
    assert lines[1:] == _per_value_lines(_cloud_rows(result3))
    traj3 = propagate(system3, PiecewiseControl.zero(2, 0.5), v3,
                      samples_per_segment=3)
    assert trajectory_csv(traj3).split("\n")[1:] \
        == _per_value_lines(_trajectory_rows(traj3))


def test_csv_writers_name_the_first_nonfinite_value_in_row_order():
    system = preset("bit_flip", gamma=0.5)
    v0 = CoherenceVector(2, [0.3, 0.0, 0.4])
    result = sample_reachable(system, v0, 1.0, num_samples=12, seed=4)
    result.points[7, 0, 0] = np.inf
    result.points[5, 1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite number nan$"):
        cloud_csv(result)
    result.grid[3] = -np.inf  # row (0, 3) comes before row (5, 1)
    with pytest.raises(ValueError, match="non-finite number -inf$"):
        cloud_csv(result)
    result.points[0, 3, 0] = np.nan  # but t comes before rho in a row
    with pytest.raises(ValueError, match="non-finite number -inf$"):
        cloud_csv(result)

    traj = propagate(system, PiecewiseControl.zero(3, 1.0), v0,
                     samples_per_segment=6)
    traj.dets[4] = np.inf
    traj.purities[2] = np.nan
    with pytest.raises(ValueError, match="non-finite number nan$"):
        trajectory_csv(traj)
    traj.times[2] = -np.inf
    with pytest.raises(ValueError, match="non-finite number -inf$"):
        trajectory_csv(traj)


def test_cli_import_does_not_load_scipy():
    # nor decimal or fractions, which exact number formatting might pull in
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code = ("import sys, lindbladctl.cli, lindbladctl.selfcheck; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy') "
            "or m in ('decimal', '_decimal', '_pydecimal', 'fractions')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_python_m_lindbladctl_runs_the_cli():
    """The package runs as a module, with no runpy warning about cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "lindbladctl", "verify"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "verify: 8/8 checks passed"


def test_analyze_runs_one_bracket_closure(tmp_path, monkeypatch):
    """On a random N=4 document with 2 controls, the controls' coefficient
    closure decides the route and the Hamiltonian block alike."""
    calls = []
    engine = liealg._bracket_closure

    def counting(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(liealg, "_bracket_closure", counting)
    rng = np.random.default_rng(62)
    A = random_psd(rng, 15)
    doc = tmp_path / "doc.json"
    doc.write_text(SystemDocument(N=4, h0=rng.normal(size=15),
                                  controls=rng.normal(size=(2, 15)),
                                  a_real=A.real, a_imag=A.imag).to_json())
    out = tmp_path / "report.json"
    assert main(["analyze", str(doc), "--out", str(out)]) == 0
    assert len(calls) == 1
    report = json.loads(out.read_text())
    assert report["hamiltonian_controllability"] == {"controllable": True,
                                                     "dim": 15}
    assert report["accessibility"]["classification"] == "gl(n) x R^n"


# ---------------------------------------------------------------------------
# System documents

def test_document_round_trip_preserves_fields():
    doc = SystemDocument.from_preset("amplitude_damping", gamma=0.8, h03=0.4)
    again = SystemDocument.from_json(doc.to_json())
    assert again.to_json() == doc.to_json()
    for name in ("h0", "controls", "a_real", "a_imag"):
        np.testing.assert_array_equal(getattr(again, name), getattr(doc, name))
    assert again.preset["name"] == "amplitude_damping"
    assert again.preset["params"]["gamma"] == 0.8


def test_document_builds_matching_control_system():
    doc = SystemDocument.from_preset("amplitude_damping", gamma=0.8, h03=0.4)
    built = doc.to_control_system()
    direct = preset("amplitude_damping", gamma=0.8, h03=0.4)
    assert np.max(np.abs(built.hamiltonian.homogeneous
                         - direct.hamiltonian.homogeneous)) < 1e-12
    assert np.max(np.abs(built.dissipator.homogeneous
                         - direct.dissipator.homogeneous)) < 1e-12
    for bc, dc in zip(built.controls, direct.controls):
        assert np.max(np.abs(bc.homogeneous - dc.homogeneous)) < 1e-12
    assert built.admissible


def _valid_doc_dict():
    return SystemDocument.from_preset("phase_flip", gamma=0.5).to_dict()


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.update(schema_version=2), "schema_version"),
    (lambda d: d.pop("h0"), "missing required field 'h0'"),
    (lambda d: d.update(extra=1), "unknown fields"),
    (lambda d: d.update(preset={"bogus": 1}), "preset"),
    (lambda d: d.update(h0=[0.0]), "h0"),
    (lambda d: d["A_real"][0].__setitem__(1, 99.0), "symmetric"),
    (lambda d: d["A_imag"][0].__setitem__(0, 1.0), "antisymmetric"),
    (lambda d: d.update(N=1), "N"),
    (lambda d: d["h0"].__setitem__(0, float("nan")), "'h0': non-finite"),
    (lambda d: d["controls"][1].__setitem__(2, float("inf")),
     "'controls': non-finite"),
    (lambda d: d["A_real"][1].__setitem__(1, float("nan")),
     "'A_real': non-finite"),
    (lambda d: d["A_imag"][0].__setitem__(1, float("-inf")),
     "'A_imag': non-finite"),
    (lambda d: d.update(N=float("inf")), "'N': cannot convert float inf"),
    (lambda d: d.update(N=float("nan")), "'N': cannot convert float NaN"),
    (lambda d: d.update(N=2.9), "'N': expected an integer, got 2.9"),
    # strings and booleans, which float() and int() would read as numbers
    (lambda d: d.update(N="2"), "'N': expected an integer, got '2'"),
    (lambda d: d.update(N=True), "'N': expected an integer, got True"),
    (lambda d: d["h0"].__setitem__(2, "0.3"),
     "'h0': expected a number, got '0.3'"),
    (lambda d: d.update(h0=[True, False, 0]),
     "'h0': expected a number, got True"),
    (lambda d: d["controls"][1].__setitem__(0, True),
     "'controls': expected a number, got True"),
    (lambda d: d["A_real"][0].__setitem__(0, "0.5"),
     "'A_real': expected a number, got '0.5'"),
    (lambda d: d["A_imag"][1].__setitem__(1, False),
     "'A_imag': expected a number, got False"),
    # integers too large for a double
    (lambda d: d["h0"].__setitem__(0, 10 ** 400), "'h0': int too large"),
    (lambda d: d["controls"][1].__setitem__(0, -10 ** 400),
     "'controls': int too large"),
    (lambda d: d["A_real"][2].__setitem__(2, 10 ** 400),
     "'A_real': int too large"),
    (lambda d: d["A_imag"][0].__setitem__(0, 10 ** 400),
     "'A_imag': int too large"),
    # null, a bare number and a flat list where rows are expected
    (lambda d: d.update(h0=None), r"'h0': expected length 3, got shape \("),
    (lambda d: d.update(h0=0.5), r"'h0': expected length 3, got shape \("),
    (lambda d: d.update(controls=None), "'controls': expected a list of rows"),
    (lambda d: d.update(controls=0.5), "'controls': expected a list of rows"),
    (lambda d: d.update(controls=[0.1, 0.2, 0.3]),
     "'controls': expected a list of rows"),
    (lambda d: d["controls"][1].pop(),
     r"'controls\[1\]': expected length 3, got 2"),
    (lambda d: d.update(A_real=None), "'A_real': expected an 3 x 3 matrix"),
    (lambda d: d.update(A_imag=0.5), "'A_imag': expected an 3 x 3 matrix"),
    (lambda d: d["A_real"][1].pop(), "'A_real': expected an 3 x 3 matrix"),
])
def test_document_validation_errors(mutate, fragment):
    data = _valid_doc_dict()
    mutate(data)
    with pytest.raises(CliParseError, match=fragment):
        SystemDocument.from_dict(data)


@pytest.mark.parametrize("N", [2, 2.0])
def test_document_accepts_integral_N(N):
    data = _valid_doc_dict()
    data["N"] = N
    assert SystemDocument.from_dict(data).N == 2


#: A document coefficient: an integer-valued float, -0.0, or any finite
#: double of moderate size.
_coefficients = st.one_of(
    st.integers(-5, 5).map(float), st.just(-0.0),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def _document_texts(draw):
    N = draw(st.integers(2, 4))
    n = N * N - 1
    h0 = draw(st.lists(_coefficients, min_size=n, max_size=n))
    q = draw(st.integers(0, 3))
    controls = draw(st.lists(st.lists(_coefficients, min_size=n, max_size=n),
                             min_size=q, max_size=q))
    upper = np.array(draw(st.lists(_coefficients, min_size=n * n,
                                   max_size=n * n))).reshape(n, n)
    real, imag = np.triu(upper), np.triu(upper, 1)
    return SystemDocument(N=N, h0=h0,
                          controls=np.array(controls).reshape(q, n),
                          a_real=real + np.triu(real, 1).T,
                          a_imag=imag - imag.T).to_json()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_document_texts())
def test_document_json_round_trip_property(text):
    assert SystemDocument.from_json(text).to_json() == text


def test_document_fields_are_read_only_arrays():
    doc = _random_n3_document(np.random.default_rng(5))
    shapes = {"h0": (8,), "controls": (2, 8), "a_real": (8, 8),
              "a_imag": (8, 8)}
    for name, shape in shapes.items():
        arr = getattr(doc, name)
        assert arr.dtype == float and arr.shape == shape
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert SystemDocument.from_dict(_valid_doc_dict()) != \
        SystemDocument.from_dict(_valid_doc_dict())  # compared by identity


def test_document_builds_its_gks_matrix_once(tmp_path, monkeypatch):
    from lindbladctl import dissipator

    calls = []
    real = dissipator.GksMatrix.from_real_imag.__func__
    monkeypatch.setattr(dissipator.GksMatrix, "from_real_imag", classmethod(
        lambda cls, *args: calls.append(1) or real(cls, *args)))
    path = _write_preset_doc(tmp_path, "amplitude_damping", gamma=0.8)
    calls.clear()
    system = SystemDocument.load(path).to_control_system()
    assert calls == [1]
    assert system.admissible


def test_document_symmetry_check_is_scale_relative():
    data = _valid_doc_dict()
    scaled = [[1e5 * x for x in row] for row in data["A_real"]]
    scaled[0][1] += 1e-11   # rounding-size asymmetry at this scale
    data["A_real"] = scaled
    doc = SystemDocument.from_dict(data)
    assert doc.to_control_system().admissible
    scaled[0][1] += 1e-5
    with pytest.raises(CliParseError, match="symmetric"):
        SystemDocument.from_dict(data)


def test_document_symmetry_check_is_relative_below_scale_one(tmp_path,
                                                             capsys):
    """An A_real whose asymmetry is of its own size exits 2, also at a
    scale where an absolute 1e-12 would let it pass."""
    data = _valid_doc_dict()
    data["A_real"] = (1e-13 * np.random.default_rng(5).normal(
        size=(3, 3))).tolist()
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(data))
    assert main(["analyze", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: invalid document: real part must be symmetric to "
        "1e-12 * max|A|\n")


def test_document_bad_json_reports_location():
    with pytest.raises(CliParseError, match="line 1 column"):
        SystemDocument.from_json("{broken")


def test_non_finite_document_exits_2(tmp_path, capsys):
    """json reads NaN and Infinity; a document holding one is bad input."""
    data = _valid_doc_dict()
    data["h0"][0] = float("nan")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(data))
    for command in ("analyze", "simulate"):
        assert main([command, str(path), "--out", str(tmp_path / "o")]) == 2
        assert "error: field 'h0': non-finite" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Subcommands through main()

def _write_preset_doc(tmp_path, name, **kwargs):
    path = tmp_path / (name + ".json")
    path.write_text(SystemDocument.from_preset(name, **kwargs).to_json())
    return path


def _inadmissible_doc(tmp_path):
    data = _valid_doc_dict()
    data["A_real"] = [[-1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    data["A_imag"] = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    del data["preset"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    return path


def test_preset_command(tmp_path):
    out = tmp_path / "doc.json"
    code = main(["preset", "amplitude_damping", "--gamma", "0.8",
                 "--out", str(out)])
    assert code == 0
    doc = SystemDocument.load(out)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_array_equal(
        doc.controls, [[s, 0.0, 0.0], [0.0, s, 0.0], [0.0, 0.0, s]])
    assert doc.preset["params"]["gamma"] == 0.8


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    # good calls and a rejected one share one parser, and each call starts
    # from the defaults
    from lindbladctl import cli

    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or real())
    out = tmp_path / "doc.json"
    assert main(["preset", "bit_flip", "--gamma", "0.8", "--out",
                 str(out)]) == 0
    assert SystemDocument.load(out).preset["params"]["gamma"] == 0.8
    with pytest.raises(SystemExit):
        main(["preset", "no_such_channel"])
    assert main(["preset", "bit_flip", "--out", str(out)]) == 0
    assert SystemDocument.load(out).preset["params"]["gamma"] == 1.0
    assert built == [1]


def test_analyze_report_content(tmp_path):
    doc = _write_preset_doc(tmp_path, "amplitude_damping", gamma=0.8)
    out = tmp_path / "report.json"
    assert main(["analyze", str(doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["report"] == "analyze"
    assert report["system"]["admissible"] is True
    assert report["system"]["unital"] is False
    assert report["system"]["preset"] == "amplitude_damping"
    assert report["accessibility"]["accessible"] is True
    assert report["accessibility"]["closure_dim"] == 12
    assert report["accessibility"]["classification"] == "gl(n) x R^n"
    assert report["trace_split"]["alpha"] == pytest.approx(-2 * 0.8 / 3)
    assert report["trace_split"]["translation"] == pytest.approx(
        [0.0, 0.0, 0.8])
    assert report["hamiltonian_controllability"] == {"controllable": True,
                                                     "dim": 3}
    assert report["certificates"]["active"] == ["trace", "finite_time"]
    assert "full ball" in report["certificates"]["note"]
    assert report["fixed_point"]["purity"] == pytest.approx(1.0)
    assert report["fixed_point"]["is_physical"] is True
    assert report["warnings"] == []


@pytest.mark.parametrize("gamma", ["1e-13", "1e-300"])
def test_analyze_tiny_rates_agree_with_accessibility(tmp_path, gamma):
    """At any positive rate the damping has a translation, so the report
    that finds gl(n) x R^n also reads not unital, with the trace and
    finite-time certificates active."""
    doc = tmp_path / "doc.json"
    assert main(["preset", "amplitude_damping", "--gamma", gamma, "--h03",
                 "0.3", "--out", str(doc)]) == 0
    out = tmp_path / "report.json"
    assert main(["analyze", str(doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["system"]["unital"] is False
    assert report["accessibility"]["classification"] == "gl(n) x R^n"
    assert report["accessibility"]["features"]["translation_dim"] == 3
    assert report["certificates"]["active"] == ["trace", "finite_time"]


def test_analyze_depolarizing_not_accessible(tmp_path):
    doc = _write_preset_doc(tmp_path, "depolarizing", gamma=0.5)
    out = tmp_path / "report.json"
    assert main(["analyze", str(doc), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["accessibility"]["accessible"] is False
    assert report["accessibility"]["closure_dim"] == 4
    assert report["system"]["unital"] is True
    assert report["certificates"]["active"] == ["trace", "unital",
                                                "finite_time"]
    assert report["fixed_point"]["rho"] == [0.0, 0.0, 0.0]


def test_analyze_unconverged_closure_reports_unknown(tmp_path, monkeypatch):
    # the CLI has no budget option; shrink it so the closure stops early
    monkeypatch.setattr("lindbladctl.cli.accessibility",
                        lambda system, tol: accessibility(
                            system, tol=tol, max_generations=1))
    # D.linear in RI + D_d at N=3: the piece closure needs two rounds
    doc = tmp_path / "d_piece.json"
    doc.write_text(d_piece_document(3).to_json())
    out = tmp_path / "report.json"
    assert main(["analyze", str(doc), "--out", str(out)]) == 0
    text = out.read_text()
    assert '"accessible": null' in text
    report = json.loads(text)
    assert report["accessibility"]["converged"] is False
    assert report["accessibility"]["classification"] is None
    assert any("did not converge" in w for w in report["warnings"])


def test_analyze_without_controls(tmp_path, capsys):
    # no controls: the affine route decides, and there is no Hamiltonian
    # controllability to report
    data = _valid_doc_dict()
    data["controls"] = []
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(data))
    system = SystemDocument.load(path).to_control_system()
    assert accessibility(system).route == "affine"
    assert main(["analyze", str(path)]) == 0
    text = capsys.readouterr().out
    assert '"hamiltonian_controllability": null,' in text
    report = json.loads(text)
    assert report["system"]["num_controls"] == 0
    assert report["accessibility"]["accessible"] is False


def test_analyze_all_zero_document_reports_the_zero_algebra(tmp_path):
    # h0, controls and GKS matrix all zero: the algebra is {0}, which the
    # affine closure alone would reject
    data = SystemDocument.from_preset("depolarizing", gamma=0.0,
                                      h03=0.0).to_dict()
    data["controls"] = []
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(data))
    out = tmp_path / "report.json"
    assert main(["analyze", str(path), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["accessibility"] == {
        "accessible": False, "closure_dim": 0, "classification": "other",
        "generations": 0, "converged": True,
        "features": {"linear_dim": 0, "translation_dim": 0,
                     "has_trace": False}}
    assert report["system"]["unital"] is True
    assert report["hamiltonian_controllability"] is None


@pytest.mark.parametrize("command, args, suffix", [
    ("analyze", [], ""),
    ("reachable", ["--samples", "20"], ".stats.json"),
])
def test_report_goes_to_stdout_without_out(tmp_path, capsys, command, args,
                                           suffix):
    doc = _write_preset_doc(tmp_path, "amplitude_damping", gamma=0.8)
    assert main([command, str(doc), *args, "--out",
                 str(tmp_path / "r")]) == 0
    assert main([command, str(doc), *args]) == 0
    assert capsys.readouterr().out == (tmp_path / ("r" + suffix)).read_text()


def test_analyze_byte_identical_reruns(tmp_path):
    doc = _write_preset_doc(tmp_path, "amplitude_damping", gamma=0.8)
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["analyze", str(doc), "--out", str(out1)])
    main(["analyze", str(doc), "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("command, args, suffixes", [
    ("simulate", ["--control", "[[0.4, [1.5, -0.5]], [0.6, [0.0, 2.0]]]",
                  "--samples", "7"], [""]),
    ("reachable", ["--samples", "70", "--seed", "3"],
     [".csv", ".stats.json"]),
])
def test_flow_outputs_byte_identical_reruns(tmp_path, command, args,
                                            suffixes):
    doc = tmp_path / "doc.json"
    doc.write_text(_random_n3_document(np.random.default_rng(11)).to_json())
    outputs = []
    for run in ("r1", "r2"):
        base = tmp_path / run
        assert main([command, str(doc), *args, "--out", str(base)]) == 0
        outputs.append([(tmp_path / (run + s)).read_bytes()
                        for s in suffixes])
    assert outputs[0] == outputs[1]


def test_exit_code_2_on_parse_errors(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["analyze", str(broken)]) == 2
    assert main(["analyze", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    # strings and booleans where numbers belong; the message names the field
    for field, value in (("N", "2"), ("h0", ["0", "0", "0.3"]),
                         ("h0", [True, False, 0])):
        data = _valid_doc_dict()
        data[field] = value
        broken.write_text(json.dumps(data))
        assert main(["analyze", str(broken)]) == 2
        assert "error: field '%s'" % field in capsys.readouterr().err
    broken.write_text("[]")
    assert main(["analyze", str(broken)]) == 2
    assert capsys.readouterr().err == (
        "error: document root must be a JSON object\n")
    assert main(["preset", "depolarizing", "--gamma", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: gamma must be nonnegative\n")
    doc = _write_preset_doc(tmp_path, "bit_flip", gamma=0.5)
    missing = tmp_path / "missing.json"
    assert main(["simulate", str(doc), "--control", "@%s" % missing]) == 2
    assert capsys.readouterr().err == (
        "error: cannot read control file: [Errno 2] No such file or "
        "directory: '%s'\n" % missing)


def test_exit_code_3_on_inadmissible(tmp_path, capsys):
    doc = _inadmissible_doc(tmp_path)
    out = tmp_path / "report.json"
    assert main(["analyze", str(doc), "--out", str(out)]) == 3
    report = json.loads(out.read_text())  # report is still written
    assert report["system"]["admissible"] is False
    assert report["warnings"]
    capsys.readouterr()
    assert main(["analyze", str(doc), "--out", str(out),
                 "--permissive"]) == 0
    assert main(["simulate", str(doc)]) == 3
    assert main(["reachable", str(doc), "--samples", "5"]) == 3


def test_exit_code_4_on_ball_exit(tmp_path, capsys):
    doc = _inadmissible_doc(tmp_path)
    code = main(["simulate", str(doc), "--permissive", "--horizon", "40",
                 "--rho0", "0.3,0,0.4", "--out", str(tmp_path / "t.csv")])
    assert code == 4
    assert "the system is likely inadmissible" in capsys.readouterr().err
    # an overflowing flow, not a bad flag value
    doc = _write_preset_doc(tmp_path, "bit_flip", gamma=0.5)
    with np.errstate(all="ignore"):
        code = main(["reachable", str(doc), "--control-bound", "1e200",
                     "--samples", "5", "--out", str(tmp_path / "c")])
    assert code == 4
    err = capsys.readouterr().err
    assert "by nan" in err
    assert err.endswith(
        "2**53 or more, which is out of range of the exponential; shorten "
        "the steps: lower horizon or control_bound (--horizon, "
        "--control-bound of reachable)\n")


@pytest.mark.parametrize("gamma, flags, code", [
    ("1", ["--horizon", "1e308"], 4),
    ("1", ["--horizon", "1.7976931348623157e308", "--control-bound", "1e3"],
     4),
    ("0", ["--horizon", "1.7976931348623157e308", "--control-bound", "0"],
     0)])
def test_reachable_at_the_largest_horizons_warns_nothing(tmp_path, gamma,
                                                         flags, code):
    """Run under -W error on the bit-flip preset: horizons up to the
    largest double give a result, or the ball-exit error that names the
    step out of range of expm and --horizon, never a warning or a
    traceback."""
    doc = tmp_path / "doc.json"
    assert main(["preset", "bit_flip", "--gamma", gamma, "--out",
                 str(doc)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lindbladctl", "reachable",
         str(doc), "--samples", "70", *flags],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.startswith("error: state left the coherence ball")
        assert proc.stderr.endswith("(--horizon, --control-bound of "
                                    "reachable)\n")
    else:
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["max_norm_increase"] == 0.0


@pytest.mark.parametrize("gamma, code", [("1", 4), ("0", 0)])
def test_simulate_at_the_largest_horizon_warns_nothing(tmp_path, gamma,
                                                       code):
    """Run under -W error: at the largest double as horizon the sub-steps
    of bit_flip are out of range of expm, and the error names the step and
    --samples; phase_flip at gamma 0 stands still and its last t is the
    horizon, although the sub-steps sum past the largest double."""
    horizon = "1.7976931348623157e308"
    name = "bit_flip" if code else "phase_flip"
    doc = tmp_path / "doc.json"
    assert main(["preset", name, "--gamma", gamma, "--out", str(doc)]) == 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "lindbladctl", "simulate",
         str(doc), "--horizon", horizon],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr.startswith("error: state left the coherence ball")
        assert proc.stderr.endswith("shorten the steps: raise "
                                    "samples_per_segment (--samples of "
                                    "simulate)\n")
    else:
        assert proc.stderr == ""
        rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
        table = np.array(rows, dtype=float)
        assert table.shape == (21, 6) and np.all(np.isfinite(table))
        assert table[-1, 0] == float(horizon)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_analyze_reads_subnormal_rates_as_unit_rates(tmp_path, capsys, N):
    """A full-rank PSD A scaled to 1e-315, with two controls that generate
    ad su(N), analyzes to the same verdict and label as at scale 1."""
    n = N * N - 1
    rng = np.random.default_rng(N)
    A = random_psd(rng, n)
    h0, controls = rng.normal(size=n), rng.normal(size=(2, n))
    verdicts = []
    for scale in (1.0, 1e-315):
        doc = tmp_path / ("doc%g.json" % scale)
        doc.write_text(SystemDocument(
            N=N, h0=h0, controls=controls, a_real=scale * A.real,
            a_imag=scale * A.imag).to_json())
        assert main(["analyze", str(doc)]) == 0
        acc = json.loads(capsys.readouterr().out)["accessibility"]
        verdicts.append((acc["accessible"], acc["classification"]))
    assert verdicts[0] == verdicts[1] == (True, "gl(n) x R^n")


def test_exit_code_4_on_dissipator_overflow(tmp_path, capsys):
    """A finite GKS matrix whose dissipator overflows a double exits 4 with
    a message on every command that builds the system, not with a
    traceback and not with verify's exit 1."""
    doc = tmp_path / "doc.json"
    assert main(["preset", "amplitude_damping", "--gamma", "1e308",
                 "--out", str(doc)]) == 0
    out = tmp_path / "out"
    for command, *flags in (["analyze"], ["simulate"],
                            ["reachable", "--samples", "5"]):
        assert main([command, str(doc), *flags, "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: the assembled dissipator overflows a double: the GKS "
            "entries are too large\n")
    assert [path.name for path in tmp_path.iterdir()] == ["doc.json"]


@pytest.mark.parametrize("horizon, time", [("400", "360"), ("1000", "400")])
def test_exit_code_4_on_det_g_overflow(tmp_path, capsys, horizon, time):
    """The zero state is a fixed point of the inadmissible document, so the
    state stays finite while det g(t) = exp(t) overflows."""
    doc = _inadmissible_doc(tmp_path)
    out = tmp_path / "t.csv"
    assert main(["simulate", str(doc), "--permissive", "--horizon", horizon,
                 "--out", str(out)]) == 4
    assert capsys.readouterr().err == (
        "error: det_g is inf at t=%s: the volume of the flow overflows a "
        "double\n" % time)
    assert not out.exists()


@pytest.mark.parametrize("control, message", [
    ('[{"duration": "1", "u": [0.5, 1, 0]}]',
     "segment 0: field 'duration': expected a number, got '1'"),
    ('[{"duration": 1, "u": ["0.5", true, 0]}]',
     "segment 0: field 'u': expected a number, got '0.5'"),
    ('[[0.5, [0, 0, 1]], [0.5, [0, true, 1]]]',
     "segment 1: field 'u': expected a number, got True"),
    ('[[false, [0, 0, 1]]]',
     "segment 0: field 'duration': expected a number, got False"),
    # shapes that are not a list of segments
    ("{bad", "invalid JSON at line 1 column 2: Expecting property name "
             "enclosed in double quotes"),
    ("{}", "expected a non-empty JSON array of segments"),
    ('[{"duration": 1}]',
     "segment 0 must have exactly the keys 'duration' and 'u'"),
    ('[[1, [0, 0, 0]], {"duration": 1, "u": [0, 0, 0], "x": 1}]',
     "segment 1 must have exactly the keys 'duration' and 'u'"),
    ("[[1]]",
     'segment 0 must be {"duration": ..., "u": [...]} or [duration, [...]]'),
    ("[[1, [0, 0]]]",
     "segments have 2 amplitudes but the document defines 3 controls"),
    # each duration is finite, their sum is not
    ("[[1e308, [1, 2, 3]], [1e308, [0, 0, 0]]]",
     "segment durations must have a finite sum, got inf"),
])
def test_control_refuses_strings_and_booleans(tmp_path, capsys, control,
                                              message):
    doc = _write_preset_doc(tmp_path, "bit_flip", gamma=0.5)
    assert main(["simulate", str(doc), "--control", control]) == 2
    assert capsys.readouterr().err == "error: --control: %s\n" % message


def test_step_out_of_range_is_named(tmp_path, capsys):
    """A step whose 1-norm reaches 2**53 has no exponential (expm gives
    nan): the message names that step and how to shorten it, and shorter
    steps reach the fixed point of the strongly damped system."""
    doc = _write_preset_doc(tmp_path, "amplitude_damping", gamma=1e17)
    out = tmp_path / "t.csv"
    args = ["simulate", str(doc), "--horizon", "1", "--out", str(out)]
    assert main(args + ["--samples", "2"]) == 4
    assert capsys.readouterr().err == (
        "error: state left the coherence ball (t=0.5): ||rho||^2 exceeds "
        "1 - 1/N by nan; the step into it (generator times duration) has "
        "a 1-norm of 5.000e+16, 2**53 or more, which is out of range of "
        "the exponential; shorten the steps: raise samples_per_segment "
        "(--samples of simulate)\n")
    assert not out.exists()
    assert main(args + ["--samples", "20"]) == 0
    assert out.read_text().split("\n")[-2].split(",")[1:] == [
        "0", "0", "0.70710678118654746", "0.99999999999999989", "0"]


@pytest.mark.parametrize("error, message", [
    (MemoryError("Unable to allocate 2.91 TiB for an array with shape "
                 "(100000000001, 4) and data type float64"),
     "error: out of memory: Unable to allocate 2.91 TiB for an array with "
     "shape (100000000001, 4) and data type float64\n"),
    (MemoryError(), "error: out of memory\n"),
])
def test_out_of_memory_exits_4(tmp_path, capsys, monkeypatch, error,
                               message):
    """Running out of memory exits 4 with one line, not with verify's 1.
    The allocation is simulated: with memory overcommit a real one may
    succeed, and the process is then killed when it touches the memory."""
    def propagate(*args, **kwargs):
        raise error

    monkeypatch.setattr("lindbladctl.cli.propagate", propagate)
    doc = _write_preset_doc(tmp_path, "bit_flip", gamma=0.5)
    assert main(["simulate", str(doc), "--samples", "100000000000"]) == 4
    assert capsys.readouterr() == ("", message)


def test_simulate_csv_output(tmp_path):
    doc = _write_preset_doc(tmp_path, "depolarizing", gamma=0.25)
    out = tmp_path / "traj.csv"
    assert main(["simulate", str(doc), "--rho0", "0.3,0,0.4",
                 "--horizon", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,rho_1,rho_2,rho_3,purity,det_g"
    last = [float(x) for x in lines[-1].split(",")]
    assert last[0] == pytest.approx(1.0)
    assert last[5] == pytest.approx(np.exp(-6 * 0.25), abs=1e-12)


def test_simulate_control_segments(tmp_path):
    doc = _write_preset_doc(tmp_path, "phase_flip", gamma=0.0)
    control = json.dumps([{"duration": float(np.pi / 2),
                           "u": [0.0, 0.0, 1.0]}])
    out = tmp_path / "traj.csv"
    assert main(["simulate", str(doc), "--rho0", "0.5,0,0",
                 "--control", control, "--out", str(out)]) == 0
    last = out.read_text().strip().split("\n")[-1].split(",")
    assert float(last[1]) == pytest.approx(0.0, abs=1e-12)
    assert float(last[2]) == pytest.approx(0.5)

    # the same control read from @file, in [duration, [u]] pair form
    ctrl_file = tmp_path / "ctrl.json"
    ctrl_file.write_text(json.dumps([[float(np.pi / 2), [0.0, 0.0, 1.0]]]))
    out2 = tmp_path / "traj2.csv"
    assert main(["simulate", str(doc), "--rho0", "0.5,0,0",
                 "--control", "@" + str(ctrl_file), "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_simulate_control_horizon_mismatch(tmp_path, capsys):
    doc = _write_preset_doc(tmp_path, "phase_flip", gamma=0.0)
    control = json.dumps([[0.5, [0.0, 0.0, 1.0]]])
    assert main(["simulate", str(doc), "--control", control,
                 "--horizon", "1.0"]) == 2
    assert "does not match" in capsys.readouterr().err


def test_rho0_validation(tmp_path, capsys):
    doc = _write_preset_doc(tmp_path, "phase_flip", gamma=0.5)
    assert main(["simulate", str(doc), "--rho0", "0.3,0.4"]) == 2
    assert main(["simulate", str(doc), "--rho0", "9,9,9"]) == 2
    assert main(["simulate", str(doc), "--rho0", "a,b,c"]) == 2
    assert main(["simulate", str(doc), "--rho0", "nan,0,0"]) == 2
    capsys.readouterr()


BAD_FLAG_VALUES = [
    (["reachable", "--horizon", "inf"],
     "--horizon: must be finite and positive, got inf"),
    (["reachable", "--horizon", "nan"],
     "--horizon: must be finite and positive, got nan"),
    (["reachable", "--horizon", "0"],
     "--horizon: must be finite and positive, got 0.0"),
    (["reachable", "--control-bound", "nan"],
     "--control-bound: must be finite and >= 0, got nan"),
    (["reachable", "--control-bound", "inf"],
     "--control-bound: must be finite and >= 0, got inf"),
    (["reachable", "--control-bound", "-1"],
     "--control-bound: must be finite and >= 0, got -1.0"),
    (["reachable", "--control-bound", "1e308"],
     "--control-bound: must be finite and >= 0 and at most "
     "8.988465674311579e+307, got 1e+308"),
    (["reachable", "--samples", "0"], "--samples: must be >= 1"),
    (["reachable", "--seed", "-1"], "--seed: must be >= 0, got -1"),
    (["simulate", "--horizon", "-1"],
     "--horizon: segment durations must be finite and positive, got -1.0"),
    (["simulate", "--horizon", "nan"],
     "--horizon: segment durations must be finite and positive, got nan"),
    (["simulate", "--horizon", "inf"],
     "--horizon: segment durations must be finite and positive, got inf"),
    (["simulate", "--samples", "0"], "--samples: must be >= 1"),
    (["simulate", "--control", "[[0.5, [0, 0, 1]]]", "--horizon", "nan"],
     "--control: total duration 0.5 does not match --horizon nan"),
    (["analyze", "--tol", "nan"],
     "--tol: must be finite and in (0, 1), got nan"),
    (["analyze", "--tol", "inf"],
     "--tol: must be finite and in (0, 1), got inf"),
    (["analyze", "--tol", "1e300"],
     "--tol: must be finite and in (0, 1), got 1e+300"),
    (["analyze", "--tol", "-1"],
     "--tol: must be finite and in (0, 1), got -1.0"),
    (["analyze", "--tol", "0"],
     "--tol: must be finite and in (0, 1), got 0.0"),
]


@pytest.mark.parametrize("args, message", BAD_FLAG_VALUES,
                         ids=[" ".join(args) for args, _ in BAD_FLAG_VALUES])
def test_bad_flag_values_exit_2(tmp_path, capsys, args, message):
    doc = _write_preset_doc(tmp_path, "bit_flip", gamma=0.5)
    out = tmp_path / "out"
    assert main([args[0], str(doc), *args[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: %s\n" % message
    assert not list(tmp_path.glob("out*"))


def test_reachable_writes_csv_and_stats(tmp_path):
    doc = _write_preset_doc(tmp_path, "bit_flip", gamma=0.6)
    base = tmp_path / "cloud"
    args = ["reachable", str(doc), "--rho0", "0.2,0.3,0.2",
            "--samples", "10", "--seed", "7", "--out", str(base)]
    assert main(args) == 0
    csv_path = tmp_path / "cloud.csv"
    stats_path = tmp_path / "cloud.stats.json"
    stats = json.loads(stats_path.read_text())
    assert stats["report"] == "reachable"
    assert stats["unital"] is True
    assert stats["nested_balls_ok"] is True
    assert stats["tolerances"] == dict(
        TOLERANCES, nested_balls=dynamics.NESTED_BALLS_TOL)
    assert len(stats["grid"]) == len(stats["max_norms"]) == 11
    assert stats["parameters"]["seed"] == 7
    csv1 = csv_path.read_bytes()

    # reruns are byte-identical; a .csv out base swaps the suffix
    assert main(args) == 0
    assert csv_path.read_bytes() == csv1
    base2 = tmp_path / "cloud2.csv"
    args2 = args[:-1] + [str(base2)]
    assert main(args2) == 0
    assert (tmp_path / "cloud2.csv").read_bytes() == csv1
    assert (tmp_path / "cloud2.stats.json").read_bytes() \
        == stats_path.read_bytes()


def test_reachable_csv_is_prefix_stable_in_samples(tmp_path):
    doc = _write_preset_doc(tmp_path, "amplitude_damping", gamma=0.7)
    outputs = {}
    for tag, samples in (("a", 100), ("b", 200), ("c", 200)):
        base = tmp_path / tag
        assert main(["reachable", str(doc), "--rho0", "0.3,-0.2,0.4",
                     "--samples", str(samples), "--seed", "5",
                     "--out", str(base)]) == 0
        outputs[tag] = ((tmp_path / (tag + ".csv")).read_bytes(),
                        (tmp_path / (tag + ".stats.json")).read_bytes())
    short = outputs["a"][0].split(b"\n")
    long = outputs["b"][0].split(b"\n")
    # header plus 100 samples of 11 grid points
    assert len(short) == 1 + 100 * 11 + 1 and short[-1] == b""
    assert len(long) == 1 + 200 * 11 + 1
    assert long[:1 + 100 * 11] == short[:-1]
    # reruns are byte-identical
    assert outputs["c"] == outputs["b"]


def test_benchmark_trace_names_resolve(tmp_path):
    """bench/spans.py wraps package functions by name; a moved name fails
    its install with KeyError, and the wrapped calls must be reached."""
    from lindbladctl import cli, liealg

    spec = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = {name: getattr(cli, name)
                 for name in ("cloud_csv", "trajectory_csv", "main")}
    tracer = spans.Tracer()
    tracer.install(cli, liealg, dynamics)
    try:
        doc = _write_preset_doc(tmp_path, "bit_flip", gamma=0.5)
        tracer.op = 0
        assert cli.main(["reachable", str(doc), "--samples", "20",
                         "--out", str(tmp_path / "cloud")]) == 0
        tracer.op = 1
        assert cli.main(["simulate", str(doc),
                         "--out", str(tmp_path / "t.csv")]) == 0
        tracer.op = None
    finally:
        tracer.uninstall()
    csv_ops = {op for name, _, _, op, _ in tracer.spans if name == "cli.csv"}
    assert csv_ops == {0, 1}
    assert tracer.leaves["dynamics.expm"][0] > 0
    for name, fn in originals.items():
        assert getattr(cli, name) is fn


def test_verify_command(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--out", str(out)])
    captured = capsys.readouterr().out
    lines = [ln for ln in captured.split("\n") if ln.startswith("[")]
    names = ["structure_constants", "gks_symmetry", "dissipator_realness",
             "generator_table", "taxonomy", "determinant_law", "presets",
             "hamiltonian_rank"]
    assert [name for name, _ in selfcheck.CHECKS] == names
    assert [ln.split(":")[0] for ln in lines] == ["[PASS] " + n for n in names]
    assert sum(ln.startswith("[PASS]") for ln in lines) \
        == len(selfcheck.CHECKS)
    assert "verify: 8/8 checks passed" in captured
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"] is True
    assert [c["name"] for c in report["checks"]] == names


def test_verify_exits_1_on_a_failed_check(monkeypatch, capsys):
    monkeypatch.setattr(selfcheck, "CHECKS", (
        ("broken", lambda: (False, "why")), selfcheck.CHECKS[-1]))
    assert main(["verify"]) == 1
    captured = capsys.readouterr().out
    assert "[FAIL] broken: why\n" in captured
    assert "verify: 1/2 checks passed" in captured


def test_printed_tolerances_are_the_defaults_in_use():
    """analyze and reachable print TOLERANCES: each entry must be the
    default of the code it names, not a copy that can drift from it."""
    def default(fn, name):
        return inspect.signature(fn).parameters[name].default

    assert TOLERANCES == {
        "closure": default(accessibility, "tol"),
        "psd": default(check_psd, "tol"),
        "unital": default(is_unital, "tol"),
        "fixed_point_rcond": default(fixed_point, "rcond"),
        "physicality": default(is_physical, "tol"),
        "ball_exit": dynamics.BALL_EXIT_TOL,
    }
    assert default(cmd_analyze, "tol") == TOLERANCES["closure"]
