"""Benchmark workloads: seeded inputs for one CLI op each, and output checks.

Every op gets its own input, derived from ``numpy.random.default_rng(
[seed, workload id, op index])`` and written as documents before timing, so
the inputs of op i do not depend on how many ops a run reaches.  Checks run
after the timed phase and return a list of problems (empty when the op's
output is right).  NOTES.md says why each workload exists.
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

BALL_SLACK = 1e-9


@dataclass
class Op:
    """One CLI call: its argv, where it writes, and what the check needs."""

    index: int
    argv: list
    out_dir: object
    meta: dict = field(default_factory=dict)


def _rng(seed, workload_id, index):
    return np.random.default_rng([seed, workload_id, index])


def _write_json(path, obj):
    path.write_text(json.dumps(obj))


def _random_document(rng, N, num_controls):
    """Random admissible document: full-rank complex PSD GKS matrix."""
    n = N * N - 1
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    a = b @ b.conj().T / n
    return {
        "schema_version": 1,
        "N": N,
        "h0": rng.normal(size=n).tolist(),
        "controls": rng.normal(size=(num_controls, n)).tolist(),
        "A_real": (0.5 * (a.real + a.real.T)).tolist(),
        "A_imag": (0.5 * (a.imag - a.imag.T)).tolist(),
    }


def _random_rho0(rng, n, norm):
    v = rng.normal(size=n)
    return v * (norm / np.linalg.norm(v))


def _rho0_arg(rho0):
    # One token: argparse reads "-0.1,0.2" or "-1e-05" as an option.
    return "--rho0=" + ",".join(repr(float(x)) for x in rho0)


def _read_csv(path):
    """The data rows of a CSV file with one header line, as floats."""
    with open(path, newline="") as fh:
        return np.array(list(csv.reader(fh))[1:], dtype=float)


class AnalyzeN4:
    """``analyze`` on random admissible N=4 documents with 2 controls."""

    name = "analyze-n4"
    workload_id = 1
    N = 4

    def make_op(self, seed, index, in_dir, out_dir, cli):
        rng = _rng(seed, self.workload_id, index)
        doc = in_dir / ("op%05d.json" % index)
        _write_json(doc, _random_document(rng, self.N, 2))
        return Op(index, ["analyze", str(doc), "--out",
                          str(out_dir / "report.json")], out_dir)

    def check(self, op, lambdas):
        report = json.loads((op.out_dir / "report.json").read_text())
        acc = report["accessibility"]
        ham = report["hamiltonian_controllability"]
        fixed = report["fixed_point"]
        n = self.N * self.N - 1
        problems = []
        if not (acc["accessible"] and acc["converged"]):
            problems.append("not accessible or not converged: %r" % acc)
        if (acc["closure_dim"], acc["classification"]) != (
                n * n + n, "gl(n) x R^n"):
            problems.append("closure %r %r, expected %d 'gl(n) x R^n'"
                            % (acc["closure_dim"], acc["classification"],
                               n * n + n))
        if ham is None or (ham["controllable"], ham["dim"]) != (True, n):
            problems.append("hamiltonian_controllability %r, expected dim %d"
                            % (ham, n))
        if report["certificates"]["active"] != ["trace", "finite_time"]:
            problems.append("active certificates %r"
                            % report["certificates"]["active"])
        if fixed is None or not fixed["is_physical"]:
            problems.append("fixed point %r is not physical" % fixed)
        return problems


class ReachableQubit:
    """``reachable --samples 500`` on the five two-level presets, CSV out."""

    name = "reachable-qubit"
    workload_id = 2
    N = 2
    PRESETS = ("depolarizing", "phase_flip", "bit_flip", "bit_phase_flip",
               "amplitude_damping")
    SAMPLES = 500
    GRID_POINTS = 11

    def make_op(self, seed, index, in_dir, out_dir, cli):
        rng = _rng(seed, self.workload_id, index)
        name = self.PRESETS[index % len(self.PRESETS)]
        gamma = rng.uniform(0.2, 2.0)
        h03 = rng.uniform(-1.0, 1.0)
        radius = np.sqrt(1.0 - 1.0 / self.N)
        rho0 = _random_rho0(rng, 3, radius * rng.uniform(0.5, 0.95))
        sampler_seed = int(rng.integers(0, 2**31))
        doc = in_dir / ("op%05d.json" % index)
        code = cli.main(["preset", name, "--gamma=%r" % gamma,
                         "--h03=%r" % h03, "--out", str(doc)])
        if code != 0:
            raise RuntimeError("preset %s exited %d" % (name, code))
        return Op(index, ["reachable", str(doc), _rho0_arg(rho0),
                          "--samples", str(self.SAMPLES),
                          "--seed", str(sampler_seed),
                          "--out", str(out_dir / "cloud.csv")],
                  out_dir, {"preset": name})

    def check(self, op, lambdas):
        rows = _read_csv(op.out_dir / "cloud.csv")
        stats = json.loads((op.out_dir / "cloud.stats.json").read_text())
        n = self.N * self.N - 1
        problems = []
        if rows.shape != (self.SAMPLES * self.GRID_POINTS, 2 + n):
            problems.append("CSV has shape %r, expected %d rows of %d"
                            % (rows.shape, self.SAMPLES * self.GRID_POINTS,
                               2 + n))
        else:
            excess = np.max(np.sum(rows[:, 2:] ** 2, axis=1)) \
                - (1.0 - 1.0 / self.N)
            if excess > BALL_SLACK:
                problems.append("a point leaves the ball by %.3e" % excess)
        unital = op.meta["preset"] != "amplitude_damping"
        expected = True if unital else None
        if stats["unital"] != unital or stats["nested_balls_ok"] is not expected:
            problems.append("unital %r nested_balls_ok %r, expected %r %r"
                            % (stats["unital"], stats["nested_balls_ok"],
                               unital, expected))
        return problems


class SimulateN7:
    """``simulate`` on random admissible N=7 documents, 2-4 segment control."""

    name = "simulate-n7"
    workload_id = 3
    N = 7
    SAMPLES = 20
    TOL = 1e-9

    def make_op(self, seed, index, in_dir, out_dir, cli):
        rng = _rng(seed, self.workload_id, index)
        n = self.N * self.N - 1
        doc = _random_document(rng, self.N, 2)
        segments = [{"duration": rng.uniform(0.1, 0.4),
                     "u": rng.uniform(-2.0, 2.0, size=2).tolist()}
                    for _ in range(int(rng.integers(2, 5)))]
        # ||rho|| <= 1/N keeps I/N + sum rho_l lambda_l positive semidefinite.
        rho0 = _random_rho0(rng, n, 0.9 / self.N)
        doc_path = in_dir / ("op%05d.json" % index)
        control_path = in_dir / ("op%05d.control.json" % index)
        _write_json(doc_path, doc)
        _write_json(control_path, segments)
        return Op(index, ["simulate", str(doc_path),
                          "--control", "@" + str(control_path),
                          _rho0_arg(rho0),
                          "--samples", str(self.SAMPLES),
                          "--out", str(out_dir / "traj.csv")],
                  out_dir, {"doc": doc_path, "control": control_path,
                            "rho0": rho0})

    def check(self, op, lambdas):
        # The documents are read back rather than kept in memory, so that
        # peak_rss_mb does not grow with the number of ops a run reaches.
        rows = _read_csv(op.out_dir / "traj.csv")
        doc = json.loads(op.meta["doc"].read_text())
        segments = json.loads(op.meta["control"].read_text())
        n = self.N * self.N - 1
        if rows.shape != (1 + self.SAMPLES * len(segments), 3 + n):
            return ["CSV has shape %r, expected %d rows of %d"
                    % (rows.shape, 1 + self.SAMPLES * len(segments), 3 + n)]
        problems = []
        horizon = sum(s["duration"] for s in segments)
        if abs(rows[-1, 0] - horizon) > 1e-12:
            problems.append("final time %r, expected %r"
                            % (rows[-1, 0], horizon))
        expected = lindblad_final_state(doc, segments, op.meta["rho0"],
                                        lambdas)
        err = float(np.max(np.abs(rows[-1, 1:1 + n] - expected)))
        if err > self.TOL:
            problems.append("final state differs from the density-matrix "
                            "integration by %.3e" % err)
        return problems


def lindblad_final_state(doc, segments, rho0, lambdas):
    """Coherence vector at the end of a piecewise-constant controlled flow.

    Integrates the master equation

        rho' = -i[H, rho] + (1/2) sum_jk a_jk (2 l_j rho l_k - {l_k l_j, rho})

    on N x N density matrices: one Liouvillian ``expm`` per segment on
    row-major vec(rho), where vec(X rho Y) = (X kron Y^T) vec(rho).  Only
    the basis matrices ``lambdas`` are shared with the package; the
    structure tensors and the dissipator assembly are not used.
    """
    lams = np.asarray(lambdas)
    N = lams.shape[1]
    eye = np.eye(N)
    a = np.array(doc["A_real"]) + 1j * np.array(doc["A_imag"])
    h0 = np.array(doc["h0"])
    controls = np.array(doc["controls"])
    jump = np.einsum("jk,jab,kdc->acbd", a, lams, lams,
                     optimize=True).reshape(N * N, N * N)
    k = np.einsum("jk,kab,jbc->ac", a, lams, lams, optimize=True)
    dissipator = jump - 0.5 * (np.kron(k, eye) + np.kron(eye, k.T))
    rho = eye / N + np.einsum("l,lab->ab", rho0, lams)
    vec = rho.reshape(-1)
    for seg in segments:
        h = np.einsum("l,lab->ab", h0 + np.asarray(seg["u"]) @ controls, lams)
        gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + dissipator
        vec = expm(gen * seg["duration"]) @ vec
    return np.einsum("ab,lba->l", vec.reshape(N, N), lams).real


WORKLOADS = {w.name: w for w in (AnalyzeN4(), ReachableQubit(), SimulateN7())}
