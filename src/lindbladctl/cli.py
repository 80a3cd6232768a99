"""Command-line interface and the on-disk system-document format.

Subcommands
-----------
analyze    accessibility, classification, certificates, fixed point
simulate   integrate a piecewise-constant controlled flow, write CSV
reachable  Monte-Carlo reachable-set sampling, write CSV + stats JSON
preset     emit the system document of a named two-level channel
verify     run the built-in self-check suite

Exit codes: 0 success, 1 verify failures, 2 parse/validation errors,
3 inadmissible system (without --permissive), 4 numerical failure or
out of memory.

Reports are deterministic: no timestamps, fixed key order, floats printed
with 17 significant digits.  The same input always yields byte-identical
output.
"""

import argparse
import contextlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channels import PRESET_NAMES, ChannelPreset, _preset_data
# check_psd and fixed_point are not called here (ControlSystem keeps their
# results), but bench/spans.py wraps both by their names in this module.
from .dissipator import (GksMatrix, assemble_dissipator, check_psd,
                         fixed_point, is_unital, split_trace)
from .dynamics import (NESTED_BALLS_TOL, BallExitError, PiecewiseControl,
                       propagate, sample_reachable)
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


#: The types _json_scalar writes: None, str and the numbers of _fmt_number
_SCALARS = (type(None), str, bool, int, float, np.bool_, np.integer,
            np.floating)

#: The JSON text of a str, as json.dumps writes it, without its wrapper
_json_string = json.encoder.encode_basestring_ascii

#: The exact types of the floats that _write_json writes a row at a time
_ROW_FLOATS = frozenset({float, np.float64})


def _json_scalar(x):
    """The JSON text of a scalar: null, a string, or _fmt_number's text."""
    if x is None:
        return "null"
    if isinstance(x, str):
        return _json_string(x)
    if isinstance(x, _SCALARS):
        return _fmt_number(x)
    raise TypeError("cannot serialize %r" % type(x))


def _float_row(values):
    """"[v, ...]" of a list of floats, each in %.17g, -0.0 as 0.

    One finiteness check covers the row; a non-finite value raises the
    ValueError that _fmt_number raises for the first one.
    """
    if not all(map(math.isfinite, values)):
        bad = next(v for v in values if not math.isfinite(v))
        raise ValueError("cannot serialize non-finite number %r" % float(bad))
    return "[" + ", ".join(["%.17g" % (v + 0.0) for v in values]) + "]"


def _write_json(obj, indent, out):
    """Append the JSON text of obj, nested indent levels deep, to out.

    An array is written as its nested lists.  A list of floats (so each
    row of a float array) is written a row at a time by _float_row, and
    every other scalar by _json_scalar, a list of scalars on one line.
    The text is the same either way.
    """
    if isinstance(obj, np.ndarray) and obj.ndim:
        obj = obj.tolist()
    if type(obj) is list and all(type(x) in _ROW_FLOATS for x in obj):
        out.append(_float_row(obj))
        return
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        sep = "{\n"
        for key, value in obj.items():
            out.append(sep + pad + "  " + _json_string(str(key)) + ": ")
            _write_json(value, indent + 1, out)
            sep = ",\n"
        out.append("\n" + pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        elif all(isinstance(x, _SCALARS) for x in obj):
            out.append("[" + ", ".join(map(_json_scalar, obj)) + "]")
        else:
            sep = "[\n"
            for value in obj:
                out.append(sep + pad + "  ")
                _write_json(value, indent + 1, out)
                sep = ",\n"
            out.append("\n" + pad + "]")
    else:
        out.append(_json_scalar(obj))


def dumps_report(obj):
    """Serialize a report to deterministic, human-readable JSON."""
    out = []
    _write_json(obj, 0, out)
    return "".join(out) + "\n"


#: Veltkamp's splitter 2**27 + 1: c = x * _SPLIT, c - (c - x) is x's top half
_SPLIT = 134217729.0

#: 10**p for p = 0..22, each an exact double, split in Veltkamp halves
_POW10 = np.array([float(10 ** p) for p in range(23)])
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)

#: Code of the "0" piece, after the 2 * 22 * 17 pieces of nonzero values
_ZERO = 2 * 22 * 17


def _digit_pieces():
    """(pieces, widths): the %-templates of %.17g for 1e-6 < |x| < 1e16.

    Code (neg * 22 + k + 6) * 17 + t is the template of a value of sign
    neg, decimal exponent k (-6..15) and t trailing zeros in its 17
    significant digits D.  It takes q = D // 10**t, or q // 10**w and
    q % 10**w when its width w (the digits of the second %d) is positive.
    Code _ZERO is "0" and takes nothing.  pieces holds every template
    twice, ended by "," at code and by "\\n" at code + _ZERO + 1; widths
    holds w for the codes below _ZERO.
    """
    pieces, widths = [], []
    for k in range(-6, 16):
        for c in range(17, 0, -1):  # digits left in q
            if k >= 0:  # k + 1 integer digits
                w = max(c - k - 1, 0)
                head, tail = "%d", "0" * (k + 1 - c)
            elif k >= -4:
                w, head, tail = 0, "0." + "0" * (-k - 1) + "%d", ""
            else:
                w, head, tail = c - 1, "%d", "e-%02d" % -k
            pieces.append(head + (".%%0%dd" % w if w else "") + tail)
            widths.append(w)
    pieces += ["-" + p for p in pieces] + ["0"]
    pieces = np.array([p + "," for p in pieces] + [p + "\n" for p in pieces],
                      dtype=object)
    pieces.flags.writeable = False
    return pieces, np.array(widths + widths)


#: The templates and widths of _digit_pieces, built once at import
_PIECES, _WIDTHS = _digit_pieces()


def _times_pow10(a, p):
    """(hi, lo) with hi + lo = a * 10**p exactly: Dekker's TwoProduct.

    a = ah + al and 10**p = bh + bl are split in halves of at most 26 bits
    (Veltkamp), so every partial product is exact, and
    lo = al*bl - (((hi - ah*bh) - al*bh) - ah*bl) with no fused
    multiply-add.  It runs in place, to keep temporaries few.
    """
    hi = _POW10[p]
    hi *= a
    ah = a * _SPLIT
    al = ah - a
    ah -= al
    np.subtract(a, ah, out=al)
    bh, bl = _POW10_HI[p], _POW10_LO[p]
    lo = ah * bh
    np.subtract(hi, lo, out=lo)
    bh *= al
    lo -= bh
    ah *= bl
    lo -= ah
    bl *= al
    np.subtract(bl, lo, out=lo)
    return hi, lo


def _digit_codes(x):
    """(code, q) of _digit_pieces for each value of the 1-D float array x.

    code _ZERO (the "0" piece) stands for 0 and for every value outside
    1e-6 < |x| < 1e16, which the caller formats itself.  See _csv_rows.
    """
    a = np.abs(x)
    fast = (a > 1e-6) & (a < 1e16)
    a[~fast] = 1.0
    k = np.log10(a)
    np.floor(k, out=k)
    k = k.astype(np.int64)
    np.maximum(k, -6, out=k)  # p = 16 - k <= 22; log10 keeps k <= 16
    hi, lo = _times_pow10(a, 16 - k)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    off = np.flatnonzero(low | (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0)))
    if len(off):  # log10 seeded k one off
        k[off] += np.where(low[off], -1, 1)
        hi[off], lo[off] = _times_pow10(a[off], 16 - k[off])
    d = hi.astype(np.int64)
    d += np.rint(lo, out=lo).astype(np.int64)
    code = 22 * (x < 0)
    code += k + 6
    code *= 17
    z = np.flatnonzero(d // 10 * 10 == d)
    if len(z):  # strip the trailing zeros
        q, t = d[z], np.zeros(len(z), dtype=np.int64)
        for s in (16, 8, 4, 2, 1):
            m = q % _POW10_INT[s] == 0
            q[m] //= _POW10_INT[s]
            t[m] += s
        d[z] = q
        code[z] += t
    code[~fast] = _ZERO
    return code, d


def _csv_rows(header, values, lead=()):
    """CSV text: the header, then one line per row of leading labels + values.

    values is a (rows, cols) float array.  lead holds the leading columns
    as their distinct values, outermost first: with lead = (a, b), row r
    starts with a[r // len(b)] and b[r % len(b)], as in a nested loop over
    a and b.  The text is byte-identical to formatting every label and
    value of every row with _fmt_number (%.17g): integral labels print
    without a decimal point and -0.0 prints as 0.  A non-finite number
    raises ValueError naming the first one in row order.

    Each label is formatted once, with _fmt_number.  A value x with
    1e-6 < |x| < 1e16 prints from its 17 significant digits as one integer
    D = round_half_even(|x| * 10**(16 - k)), 10**16 <= D < 10**17, where k
    is its decimal exponent, through a template of _digit_pieces; one %
    call over Python ints fills the whole table, which is far cheaper than
    %.17g, whose 17 digits CPython prints through dtoa's bignum path.  D
    is exact: 10**p is an exact double for p = 16 - k <= 22, Dekker's
    TwoProduct gives |x| * 10**p = hi + lo exactly, and hi >= 1e16 > 2**53
    is an even integer, so D = hi + rint(lo) rounds half to even.  k is
    seeded by log10 and settled from hi + lo.  D never carries to 10**17:
    that would take a double within 5e-18 (relative) below a power of ten
    in the range, and the nearest ones are at least 8e-17 away.  Zero
    prints as "0", and every other value (0 < |x| <= 1e-6 or |x| >= 1e16)
    goes through _fmt_number one by one.
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
    x = np.asarray(values, dtype=float).ravel()
    code, digits = _digit_codes(x)
    fast = code < _ZERO
    args = digits[fast]
    w = _WIDTHS[code[fast]]
    split = np.flatnonzero(w)
    if len(split):  # the second %d goes right after the first
        div = _POW10_INT[w[split]]
        q = args[split]
        args[split] = q // div
        args = np.insert(args, split + 1, q % div)
    code.reshape(rows, cols)[:, -1] += _ZERO + 1  # the line ends
    cells = _PIECES[code]
    for i in np.flatnonzero(~fast & (x != 0.0)):
        cells[i] = _fmt_number(x[i]) + ("\n" if i % cols == cols - 1 else ",")
    table = np.empty(shape + [reps, len(lead) + cols], dtype=object)
    for j, col in enumerate(lead):
        table[..., j] = np.array(
            [_fmt_number(label) + "," for label in col], dtype=object).reshape(
                [-1 if i == j else 1 for i in range(len(shape))] + [1])
    table.reshape(rows, -1)[:, len(lead):] = cells.reshape(rows, cols)
    return "".join([header.replace("%", "%%"), "\n"]
                   + table.ravel().tolist()) % tuple(args.tolist())


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

#: Types that float() reads but a numeric field refuses
_NOT_NUMBERS = frozenset({str, bool})


def _leaves(value, depth):
    """The items of value depth lists deep, in row-major order."""
    leaves = [value]
    for _ in range(depth):
        leaves = itertools.chain.from_iterable(leaves)
    return leaves


def _float_array(name, value):
    """np.array(value, dtype=float), or CliParseError naming the field.

    A string or a boolean is not a number here, although float() reads
    "0.5" and true as one.  Once the conversion has succeeded, value
    nests regularly, and one pass over the types of its leaves finds
    them; a numeric array has none.
    """
    if isinstance(value, np.ndarray) and value.dtype.kind in "bOSU":
        value = value.tolist()  # Python scalars, so str and bool show
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliParseError("field '%s': %s" % (name, exc)) from exc
    if isinstance(value, np.ndarray):
        return arr
    if not _NOT_NUMBERS.isdisjoint(map(type, _leaves(value, arr.ndim))):
        raise CliParseError("field '%s': expected a number, got %r" % (
            name, next(x for x in _leaves(value, arr.ndim)
                       if type(x) in _NOT_NUMBERS)))
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
            "schema_version": SCHEMA_VERSION,
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
                "seed": "--seed", "tol": "--tol"}


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
    if acc.route == "ad_su":
        # the controls alone generate su(N), so drift and controls do too
        ham_block = {"controllable": True, "dim": system.N * system.N - 1}
    elif len(doc.controls):
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
    with _flag_values():
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
        "tolerances": dict(TOLERANCES, nested_balls=NESTED_BALLS_TOL),
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
    p.add_argument("path", metavar="document",
                   help="system document (JSON)")
    p.add_argument("--out", help="write the report here (default: stdout)")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="Lie-closure residual tolerance, finite and in "
                        "(0, 1) (default 1e-9)")
    p.add_argument("--permissive", action="store_true",
                   help="exit 0 even when the GKS matrix is not PSD")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="integrate a controlled trajectory, "
                       "write CSV")
    p.add_argument("path", metavar="document")
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
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reachable", help="Monte-Carlo reachable-set "
                       "sampling, write CSV + stats JSON")
    p.add_argument("path", metavar="document")
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
    p.set_defaults(func=cmd_reachable)

    p = sub.add_parser("preset", help="emit the system document of a named "
                       "two-level channel")
    p.add_argument("name", choices=PRESET_NAMES)
    p.add_argument("--gamma", type=float, default=1.0,
                   help="damping rate (default 1.0)")
    p.add_argument("--h03", type=float, default=0.0,
                   help="drift rotation rate about z (default 0)")
    p.add_argument("--out", help="write the document here (default: stdout)")
    p.set_defaults(func=cmd_preset)

    p = sub.add_parser("verify", help="run the built-in self-check suite")
    p.add_argument("--out", help="also write a JSON report here")
    p.set_defaults(func=cmd_verify)

    return parser


#: The parser main uses, built on its first call.
_PARSER = None


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    options = vars(_PARSER.parse_args(argv))
    func = options.pop("func")
    del options["command"]
    try:
        return func(**options)
    except CliParseError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InadmissibleSystemError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (BallExitError, FloatingPointError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except MemoryError as exc:
        print("error: out of memory" + (": %s" % exc if str(exc) else ""),
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
