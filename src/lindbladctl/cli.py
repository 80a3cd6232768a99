"""Command-line interface and the on-disk system-document format.

Subcommands
-----------
analyze    accessibility, classification, certificates, fixed point
simulate   integrate a piecewise-constant controlled flow, write CSV
reachable  Monte-Carlo reachable-set sampling, write CSV + stats JSON
preset     emit the system document of a named two-level channel
verify     run the built-in self-check suite

Exit codes: 0 success, 1 verify failures, 2 parse/validation errors,
3 inadmissible system (without --permissive), 4 numerical failure.

Reports are deterministic: no timestamps, fixed key order, floats printed
with 17 significant digits.  The same input always yields byte-identical
output.
"""

import argparse
import contextlib
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channels import PRESET_NAMES, ChannelPreset
# check_psd and fixed_point are not called here (ControlSystem keeps their
# results), but bench/spans.py wraps both by their names in this module.
from .dissipator import (GksMatrix, assemble_dissipator, check_psd,
                         fixed_point, is_unital, split_trace)
from .dynamics import (BallExitError, PiecewiseControl, propagate,
                       sample_reachable)
from .liealg import (ControlSystem, accessibility,
                     noncontrollability_certificates,
                     hamiltonian_controllability)
from .states import CoherenceVector, is_physical, purity
from .su_basis import adjoint_generator, gellmann_basis

__all__ = ["SystemDocument", "CliParseError", "InadmissibleSystemError",
           "dumps_report", "cmd_analyze", "cmd_simulate", "cmd_reachable",
           "cmd_preset", "cmd_verify", "main"]

SCHEMA_VERSION = 1

TOLERANCES = {
    "closure": 1e-9,
    "psd": 1e-10,
    "unital": 1e-12,
    "fixed_point_rcond": 1e-10,
    "physicality": 1e-9,
    "ball_exit": 1e-6,
}


class CliParseError(Exception):
    """Malformed document, flag value, or schema violation (exit code 2)."""


class InadmissibleSystemError(Exception):
    """Simulation requested for a non-PSD GKS matrix without --permissive."""


# ---------------------------------------------------------------------------
# Deterministic JSON/CSV writers

def _fmt_number(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite number %r" % x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return "%.17g" % x


def _is_scalar(x):
    return x is None or isinstance(x, (bool, int, float, str,
                                       np.bool_, np.integer, np.floating))


def _write_json(obj, indent, out):
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (bool, int, float, np.bool_, np.integer, np.floating)):
        out.append(_fmt_number(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, value) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(key)) + ": ")
            _write_json(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(np.asarray(obj).tolist()) if isinstance(obj, np.ndarray) else list(obj)
        if not seq:
            out.append("[]")
            return
        if all(_is_scalar(x) for x in seq):
            parts = []
            for x in seq:
                sub = []
                _write_json(x, 0, sub)
                parts.append("".join(sub))
            out.append("[" + ", ".join(parts) + "]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(pad + "  ")
            _write_json(value, indent + 1, out)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def dumps_report(obj):
    """Serialize a report to deterministic, human-readable JSON."""
    out = []
    _write_json(obj, 0, out)
    return "".join(out) + "\n"


def _csv_rows(header, values, lead=()):
    """CSV text: the header, then one line per row of leading labels + values.

    values is a (rows, cols) float array.  lead holds the leading columns
    as their distinct values, outermost first: with lead = (a, b), row r
    starts with a[r // len(b)] and b[r % len(b)], as in a nested loop over
    a and b.  Each label is formatted once, with _fmt_number, and built
    into a template of the whole table, which one % call fills with every
    value as %.17g.  The text is byte-identical to formatting every value
    of every row with _fmt_number: integral labels print without a decimal
    point and -0.0 prints as 0.  A non-finite number raises ValueError
    naming the first one in row order.
    """
    rows, cols = values.shape
    shape = [len(col) for col in lead]
    reps = rows // math.prod(shape)
    if not (np.isfinite(values).all()
            and all(np.isfinite(col).all() for col in lead)):
        index = np.indices(shape + [reps]).reshape(len(shape) + 1, -1)
        table = np.column_stack([np.asarray(col, dtype=float)[i]
                                 for col, i in zip(lead, index)] + [values])
        raise ValueError("cannot serialize non-finite number %r"
                         % float(table[~np.isfinite(table)][0]))
    template = "\n".join([",".join(["%.17g"] * cols)] * reps)
    for col in reversed(lead):
        template = "\n".join(
            label + template.replace("\n", "\n" + label)
            for label in [_fmt_number(x) + "," for x in col])
    return "%s\n%s\n" % (header,
                         template % tuple((values + 0.0).ravel().tolist()))


def trajectory_csv(traj):
    """CSV text for a trajectory: t, rho_1..rho_n, purity, det_g."""
    n = traj.states.shape[1]
    return _csv_rows(
        "t," + ",".join("rho_%d" % (i + 1) for i in range(n))
        + ",purity,det_g",
        np.column_stack([traj.times, traj.states, traj.purities, traj.dets]))


def cloud_csv(result):
    """CSV text for a reachable-set sample: sample, t, rho_1..rho_n."""
    samples, grid_points, n = result.points.shape
    return _csv_rows(
        "sample,t," + ",".join("rho_%d" % (i + 1) for i in range(n)),
        result.points.reshape(-1, n), lead=(range(samples), result.grid))


# ---------------------------------------------------------------------------
# System documents

def _float_array(name, value):
    """np.array(value, dtype=float), or CliParseError naming the field.

    A string or a boolean is not a number here, although float() reads
    "0.5" and true as one.
    """
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliParseError("field '%s': %s" % (name, exc)) from exc
    # the conversion succeeded, so value nests regularly
    items = np.array(value, dtype=object).ravel()
    if {str, bool} & set(map(type, items)):
        raise CliParseError("field '%s': expected a number, got %r" % (
            name, next(x for x in items if type(x) in (str, bool))))
    return arr


def _bad_row(rows, n):
    """(i, length) of the first row whose length is not n, else None."""
    try:
        return next(((i, len(row)) for i, row in enumerate(rows)
                     if len(row) != n), None)
    except TypeError:  # not a list of rows
        return None


@dataclass(frozen=True, eq=False)
class SystemDocument:
    """JSON-serializable description of a controlled master equation.

    The fields are read-only float arrays (n = N^2 - 1), converted and
    checked once: the lambda-coefficients h0 (n,) of the drift and
    controls (q, n) of the control Hamiltonians, and the symmetric real
    part a_real and antisymmetric imaginary part a_imag (n, n) of the GKS
    matrix.  gks is the GksMatrix built from them, which to_control_system
    reuses.  An optional preset block records the named channel the
    document was generated from.  Documents compare by identity.
    """

    N: int
    h0: np.ndarray
    controls: np.ndarray
    a_real: np.ndarray
    a_imag: np.ndarray
    preset: object = None
    schema_version: int = SCHEMA_VERSION
    gks: GksMatrix = field(init=False, repr=False)

    def __post_init__(self):
        if self.N < 2:
            raise CliParseError("field 'N': must be an integer >= 2")
        n = self.N * self.N - 1
        h0 = _float_array("h0", self.h0)
        if h0.shape != (n,):
            raise CliParseError("field 'h0': expected length %d, got %s" % (
                n, len(h0) if h0.ndim == 1 else "shape %s" % (h0.shape,)))
        bad = _bad_row(self.controls, n)
        if bad is not None:
            raise CliParseError("field 'controls[%d]': expected length %d,"
                                " got %d" % (bad[0], n, bad[1]))
        controls = _float_array("controls", self.controls)
        if controls.ndim != 2 and controls.shape != (0,):
            raise CliParseError("field 'controls': expected a list of rows "
                                "of %d numbers" % n)
        fields = [("h0", "h0", h0), ("controls", "controls",
                                     controls.reshape(-1, n))]
        for attr, name in (("a_real", "A_real"), ("a_imag", "A_imag")):
            value = getattr(self, attr)
            mat = None if _bad_row(value, n) else _float_array(name, value)
            if mat is None or mat.shape != (n, n):
                raise CliParseError("field '%s': expected an %d x %d matrix"
                                    % (name, n, n))
            fields.append((attr, name, mat))
        for attr, name, arr in fields:
            if not np.isfinite(arr).all():
                raise CliParseError("field '%s': non-finite number" % name)
            arr.flags.writeable = False
            object.__setattr__(self, attr, arr)
        object.__setattr__(self, "gks", GksMatrix.from_real_imag(
            self.a_real, self.a_imag))

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise CliParseError("document root must be a JSON object")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise CliParseError("field 'schema_version': expected %d, got %r"
                                % (SCHEMA_VERSION, version))
        required = ["N", "h0", "controls", "A_real", "A_imag"]
        for key in required:
            if key not in data:
                raise CliParseError("missing required field '%s'" % key)
        unknown = set(data) - set(required) - {"schema_version", "preset"}
        if unknown:
            raise CliParseError("unknown fields: %s"
                                % ", ".join(sorted(unknown)))
        preset_block = data.get("preset")
        if preset_block is not None:
            if (not isinstance(preset_block, dict)
                    or set(preset_block) - {"name", "params"}
                    or "name" not in preset_block):
                raise CliParseError("field 'preset': expected an object with "
                                    "'name' and optional 'params'")
        N = data["N"]
        try:
            if (isinstance(N, bool) or not isinstance(N, (int, float))
                    or int(N) != N):
                raise ValueError("expected an integer, got %r" % (N,))
        except (ValueError, OverflowError) as exc:
            raise CliParseError("field 'N': %s" % exc) from exc
        try:
            return cls(N=int(N), h0=data["h0"],
                       controls=data["controls"], a_real=data["A_real"],
                       a_imag=data["A_imag"], preset=preset_block)
        except (TypeError, ValueError) as exc:
            raise CliParseError("invalid document: %s" % exc) from exc

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliParseError("invalid JSON at line %d column %d: %s"
                                % (exc.lineno, exc.colno, exc.msg)) from exc
        return cls.from_dict(data)

    @classmethod
    def load(cls, path):
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise CliParseError("cannot read %s: %s" % (path, exc)) from exc
        return cls.from_json(text)

    @classmethod
    def from_preset(cls, spec, **params):
        """Document for a named two-level channel.

        The lambda-coefficient vectors are the Bloch rotation vectors
        divided by sqrt(2); the controls are the three axis rotations.
        """
        if isinstance(spec, str):
            spec = ChannelPreset(spec, dict(params))
        from .channels import _preset_data
        _, a = _preset_data(spec.name, spec.gamma)
        s = 1.0 / np.sqrt(2.0)
        return cls(
            N=2,
            h0=np.array([0.0, 0.0, spec.h03 * s]),
            controls=np.eye(3) * s,
            a_real=a.real, a_imag=a.imag,
            preset={"name": spec.name,
                    "params": {"gamma": spec.gamma, "h03": spec.h03}},
        )

    def to_dict(self):
        doc = {
            "schema_version": self.schema_version,
            "N": self.N,
            "h0": self.h0.tolist(),
            "controls": self.controls.tolist(),
            "A_real": self.a_real.tolist(),
            "A_imag": self.a_imag.tolist(),
        }
        if self.preset is not None:
            doc["preset"] = self.preset
        return doc

    def to_json(self):
        return dumps_report(self.to_dict())

    def to_control_system(self):
        """Build the ControlSystem: generators from the coefficients."""
        basis = gellmann_basis(self.N)
        return ControlSystem(
            N=self.N,
            hamiltonian=adjoint_generator(basis, self.h0),
            controls=tuple(adjoint_generator(basis, row)
                           for row in self.controls),
            dissipator=assemble_dissipator(self.gks, basis),
            gks=self.gks,
        )


# ---------------------------------------------------------------------------
# Subcommand implementations

def _write_output(text, out):
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


#: Library parameter -> the flag that sets it.
_PARAM_FLAGS = {"horizon": "--horizon", "control_bound": "--control-bound",
                "num_samples": "--samples", "samples_per_segment": "--samples",
                "seed": "--seed"}


@contextlib.contextmanager
def _flag_values():
    """Report a library ValueError about a parameter as a bad flag value.

    A message that starts with a name in _PARAM_FLAGS becomes a
    CliParseError naming the flag (exit code 2); others pass through.
    """
    try:
        yield
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        if name not in _PARAM_FLAGS:
            raise
        raise CliParseError("%s: %s" % (_PARAM_FLAGS[name], rest)) from exc


def _parse_rho0(text, N):
    n = N * N - 1
    if text is None:
        rho = np.zeros(n)
    else:
        try:
            rho = np.array([float(x) for x in text.split(",")])
        except ValueError as exc:
            raise CliParseError("--rho0: expected comma-separated floats: %s"
                                % exc) from exc
        if rho.shape != (n,):
            raise CliParseError("--rho0: expected %d components, got %d"
                                % (n, rho.shape[0]))
    try:
        return CoherenceVector(N, rho)
    except ValueError as exc:
        raise CliParseError("--rho0: %s" % exc) from exc


def _parse_control(text, num_controls, horizon):
    if text is None:
        try:
            return PiecewiseControl.zero(num_controls, horizon)
        except ValueError as exc:
            raise CliParseError("--horizon: %s" % exc) from exc
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text()
        except OSError as exc:
            raise CliParseError("cannot read control file: %s" % exc) from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliParseError("--control: invalid JSON at line %d column %d: %s"
                            % (exc.lineno, exc.colno, exc.msg)) from exc
    if not isinstance(data, list) or not data:
        raise CliParseError("--control: expected a non-empty JSON array of "
                            "segments")
    segments = []
    for i, seg in enumerate(data):
        if isinstance(seg, dict):
            if set(seg) != {"duration", "u"}:
                raise CliParseError("--control: segment %d must have exactly "
                                    "the keys 'duration' and 'u'" % i)
            duration, u = seg["duration"], seg["u"]
        elif isinstance(seg, list) and len(seg) == 2:
            duration, u = seg
        else:
            raise CliParseError("--control: segment %d must be "
                                "{\"duration\": ..., \"u\": [...]} or "
                                "[duration, [...]]" % i)
        for name, value in (("duration", duration), ("u", u)):
            try:
                _float_array(name, value)
            except CliParseError as exc:
                raise CliParseError("--control: segment %d: %s"
                                    % (i, exc)) from exc
        segments.append((duration, u))
    try:
        control = PiecewiseControl(tuple(segments))
    except (TypeError, ValueError) as exc:
        raise CliParseError("--control: %s" % exc) from exc
    if control.num_controls != num_controls:
        raise CliParseError("--control: segments have %d amplitudes but the "
                            "document defines %d controls"
                            % (control.num_controls, num_controls))
    # "not <=" also rejects a nan horizon
    if horizon is not None \
            and not abs(control.total_duration - horizon) <= 1e-9:
        raise CliParseError("--control: total duration %.17g does not match "
                            "--horizon %.17g"
                            % (control.total_duration, horizon))
    return control


def _admissible_system(path, permissive):
    """The document's system, unless it is inadmissible and not permissive."""
    system = SystemDocument.load(path).to_control_system()
    if system.admissible or permissive:
        return system
    raise InadmissibleSystemError(
        "the GKS matrix is not positive semidefinite (min eigenvalue %.3e); "
        "rerun with --permissive to proceed anyway"
        % system.psd.min_eigenvalue)


def _analyze_report(doc, tol):
    system = doc.to_control_system()
    psd = system.psd
    unital = is_unital(system.dissipator)
    alpha, traceless = split_trace(system.dissipator)
    acc = accessibility(system, tol=tol)
    certs = noncontrollability_certificates(system)
    fp = system.fixed_point
    if len(doc.controls):
        ham = hamiltonian_controllability(gellmann_basis(doc.N), doc.h0,
                                          doc.controls, tol=tol)
        ham_block = {"controllable": ham.controllable, "dim": ham.dim}
    else:
        ham_block = None
    warnings = []
    if not system.admissible:
        warnings.append("GKS matrix is not positive semidefinite; the "
                        "dynamics is not completely positive and results "
                        "are formal")
    if not acc.converged:
        warnings.append("Lie closure did not converge within the generation "
                        "budget; classification unavailable")
    fixed_block = None
    if fp is not None:
        phys = is_physical(fp)
        fixed_block = {
            "rho": list(fp.rho),
            "purity": purity(fp),
            "is_physical": phys.is_physical,
            "min_eigenvalue": phys.min_eigenvalue,
        }
    report = {
        "report": "analyze",
        "schema_version": SCHEMA_VERSION,
        "tolerances": dict(TOLERANCES, closure=tol),
        "system": {
            "N": system.N,
            "preset": None if doc.preset is None else doc.preset.get("name"),
            "num_controls": len(system.controls),
            "admissible": system.admissible,
            "gks_min_eigenvalue": psd.min_eigenvalue,
            "gks_on_boundary": psd.on_boundary,
            "dissipator_trace": float(np.trace(system.dissipator.linear)),
            "unital": unital,
        },
        "trace_split": {
            "alpha": alpha,
            "traceless_linear": traceless.linear,
            "translation": traceless.translation,
        },
        "accessibility": {
            "accessible": acc.accessible,
            "closure_dim": acc.closure_dim,
            "classification": acc.classification,
            "generations": acc.generations,
            "converged": acc.converged,
            "features": acc.features,
        },
        "hamiltonian_controllability": ham_block,
        "certificates": {
            "active": list(certs.active_names),
            "note": certs.note,
            "details": [
                {"name": c.name, "active": c.active, "value": c.value,
                 "statement": c.statement}
                for c in certs.certificates
            ],
        },
        "fixed_point": fixed_block,
        "warnings": warnings,
    }
    return report, system


def cmd_analyze(path, out=None, tol=1e-9, permissive=False):
    doc = SystemDocument.load(path)
    report, system = _analyze_report(doc, tol)
    _write_output(dumps_report(report), out)
    for w in report["warnings"]:
        print("warning: %s" % w, file=sys.stderr)
    if not system.admissible and not permissive:
        return 3
    return 0


def cmd_simulate(path, control=None, rho0=None, horizon=None, samples=20,
                 out=None, permissive=False):
    system = _admissible_system(path, permissive)
    if horizon is None and control is None:
        horizon = 1.0
    ctrl = _parse_control(control, len(system.controls), horizon)
    v0 = _parse_rho0(rho0, system.N)
    with _flag_values():
        traj = propagate(system, ctrl, v0, samples_per_segment=samples)
    overflow = np.flatnonzero(~np.isfinite(traj.dets))
    if len(overflow):
        raise FloatingPointError(
            "det_g is %r at t=%.6g: the volume of the flow overflows a "
            "double" % (float(traj.dets[overflow[0]]),
                        traj.times[overflow[0]]))
    _write_output(trajectory_csv(traj), out)
    return 0


def cmd_reachable(path, rho0=None, horizon=1.0, samples=500, seed=0,
                  control_bound=10.0, out=None, permissive=False):
    system = _admissible_system(path, permissive)
    v0 = _parse_rho0(rho0, system.N)
    with _flag_values():
        result = sample_reachable(system, v0, horizon, num_samples=samples,
                                  seed=seed, control_bound=control_bound)
    stats = {
        "report": "reachable",
        "schema_version": SCHEMA_VERSION,
        "tolerances": dict(TOLERANCES),
        "parameters": {
            "horizon": horizon,
            "num_samples": samples,
            "seed": seed,
            "control_bound": control_bound,
            "grid_points": int(result.grid.shape[0]),
            "rho0": list(v0.rho),
        },
        "unital": result.unital,
        "grid": list(result.grid),
        "max_norms": list(result.max_norms),
        "max_norm_increase": result.max_norm_increase,
        "nested_balls_ok": result.nested_balls_ok,
    }
    if out is None or out == "-":
        sys.stdout.write(dumps_report(stats))
    else:
        csv_path = Path(out)
        if csv_path.suffix == ".csv":
            stats_path = csv_path.with_suffix(".stats.json")
        else:
            stats_path = Path(str(csv_path) + ".stats.json")
            csv_path = Path(str(csv_path) + ".csv")
        csv_path.write_text(cloud_csv(result))
        stats_path.write_text(dumps_report(stats))
    return 0


def cmd_preset(name, gamma=1.0, h03=0.0, out=None):
    try:
        doc = SystemDocument.from_preset(name, gamma=gamma, h03=h03)
    except ValueError as exc:
        raise CliParseError(str(exc)) from exc
    _write_output(doc.to_json(), out)
    return 0


def cmd_verify(out=None):
    from .selfcheck import CHECKS

    results = []
    for name, func in CHECKS:
        ok, detail = func()
        results.append({"name": name, "ok": bool(ok), "detail": detail})
        print("[%s] %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    all_ok = all(r["ok"] for r in results)
    print("verify: %d/%d checks passed" % (sum(r["ok"] for r in results),
                                           len(results)))
    if out is not None:
        report = {
            "report": "verify",
            "schema_version": SCHEMA_VERSION,
            "ok": all_ok,
            "checks": results,
        }
        _write_output(dumps_report(report), out)
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser():
    parser = argparse.ArgumentParser(
        prog="lindbladctl",
        description="Controllability analysis of finite-dimensional "
                    "Markovian master equations in coherence coordinates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="accessibility, classification and "
                       "noncontrollability certificates")
    p.add_argument("document", help="system document (JSON)")
    p.add_argument("--out", help="write the report here (default: stdout)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="Lie-closure residual tolerance (default 1e-9)")
    p.add_argument("--permissive", action="store_true",
                   help="exit 0 even when the GKS matrix is not PSD")
    p.set_defaults(func=lambda a: cmd_analyze(a.document, out=a.out,
                                              tol=a.tol,
                                              permissive=a.permissive))

    p = sub.add_parser("simulate", help="integrate a controlled trajectory, "
                       "write CSV")
    p.add_argument("document")
    p.add_argument("--control",
                   help="JSON segments [{\"duration\": ..., \"u\": [...]}] "
                        "or @file (default: zero control)")
    p.add_argument("--rho0", help="comma-separated initial coherence vector "
                   "(default: maximally mixed)")
    p.add_argument("--horizon", type=float,
                   help="total duration (default 1.0 for zero control)")
    p.add_argument("--samples", type=int, default=20,
                   help="recorded points per segment (default 20)")
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--permissive", action="store_true",
                   help="simulate even when the GKS matrix is not PSD")
    p.set_defaults(func=lambda a: cmd_simulate(
        a.document, control=a.control, rho0=a.rho0, horizon=a.horizon,
        samples=a.samples, out=a.out, permissive=a.permissive))

    p = sub.add_parser("reachable", help="Monte-Carlo reachable-set "
                       "sampling, write CSV + stats JSON")
    p.add_argument("document")
    p.add_argument("--rho0", help="comma-separated initial coherence vector "
                   "(default: maximally mixed)")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=500,
                   help="number of random controls (default 500)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--control-bound", type=float, default=10.0,
                   help="amplitude bound for sampled controls (default 10)")
    p.add_argument("--out", help="output base: writes OUT.csv and "
                   "OUT.stats.json (default: stats to stdout)")
    p.add_argument("--permissive", action="store_true")
    p.set_defaults(func=lambda a: cmd_reachable(
        a.document, rho0=a.rho0, horizon=a.horizon, samples=a.samples,
        seed=a.seed, control_bound=a.control_bound, out=a.out,
        permissive=a.permissive))

    p = sub.add_parser("preset", help="emit the system document of a named "
                       "two-level channel")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--gamma", type=float, default=1.0,
                   help="damping rate (default 1.0)")
    p.add_argument("--h03", type=float, default=0.0,
                   help="drift rotation rate about z (default 0)")
    p.add_argument("--out", help="write the document here (default: stdout)")
    p.set_defaults(func=lambda a: cmd_preset(a.name, gamma=a.gamma,
                                             h03=a.h03, out=a.out))

    p = sub.add_parser("verify", help="run the built-in self-check suite")
    p.add_argument("--out", help="also write a JSON report here")
    p.set_defaults(func=lambda a: cmd_verify(out=a.out))

    return parser


#: The parser main uses, built on its first call.
_PARSER = None


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except CliParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InadmissibleSystemError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (BallExitError, FloatingPointError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
