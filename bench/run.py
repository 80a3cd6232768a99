"""Benchmark of the lindbladctl command line.

Run from the root of a source checkout (the package is imported from
``src/``):

    python3 bench/run.py --workload analyze-n4 --seed 1 --seconds 10 --trace 0

One process, one client, closed loop: each op is one in-process call of
``lindbladctl.cli.main`` and starts when the previous one returns.  Inputs
come from ``--seed`` and are written as documents before timing, a few ops
at a time; the clock stops while a batch is written.  The first op is timed
like every other, with no warm-up.  Outputs are checked after the timed
phase.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the
first half of ``--seconds`` untraced and the second half with the span
recorder of ``spans.py`` installed, and reports the per-layer metrics and
the tracing overhead.  Either way the last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A record
of the run (environment, per-op times and output digests) is written to
``bench/out/``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: Ops always run, whatever --seconds says; the run digest covers these.
MIN_OPS = 3
#: Ops whose documents are written per batch, with the clock stopped.
BATCH = 8
#: Fresh interpreters timed for setup_s, after one untimed warm-up.
SETUP_REPEATS = 7
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_CODE = """\
import time
t0 = time.perf_counter()
import lindbladctl.cli
from lindbladctl.su_basis import gellmann_basis
t1 = time.perf_counter()
gellmann_basis({N})
t2 = time.perf_counter()
print(repr(t1 - t0), repr(t2 - t1))
"""

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.main_self_s": "s/op",
    "cli.load_s": "s/op",
    "cli.build_system_self_s": "s/op",
    "cli.report_s": "s/op",
    "cli.csv_s": "s/op",
    "cli.bytes_out": "B/op",
    "su_basis.gellmann_basis_s": "s",
    "su_basis.adjoint_generator_calls": "calls/op",
    "su_basis.adjoint_generator_s": "s/op",
    "dissipator.assemble_s": "s/op",
    "dissipator.assemble_peak_mb": "MB",
    "dissipator.check_psd_s": "s/op",
    "dissipator.fixed_point_s": "s/op",
    "states.is_physical_s": "s/op",
    "liealg.accessibility_self_s": "s/op",
    "liealg.closure_s": "s/op",
    "liealg.bracket_calls": "calls/op",
    "liealg.bracket_yield": "ratio",
    "liealg.closure_dim": "count",
    "liealg.closure_generations": "count",
    "liealg.hamiltonian_s": "s/op",
    "liealg.certificates_s": "s/op",
    "affine.bracket_s": "s/op",
    "dynamics.sample_reachable_s": "s/op",
    "dynamics.sample_self_s": "s/op",
    "dynamics.expm_calls": "calls/op",
    "dynamics.expm_s": "s/op",
    "dynamics.propagate_s": "s/op",
    "cli.self_s": "s/op",
    "su_basis.self_s": "s/op",
    "affine.self_s": "s/op",
    "states.self_s": "s/op",
    "dissipator.self_s": "s/op",
    "liealg.self_s": "s/op",
    "dynamics.self_s": "s/op",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_blas_threads():
    """Run BLAS single-threaded, here and in the setup interpreters.

    One thread keeps op times steady on a shared machine, and fixes the
    last digits of the reports, which change with the thread count.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def measure_setup(N):
    """Import lindbladctl.cli and build gellmann_basis(N) in fresh interpreters.

    Returns the per-interpreter (import_s, basis_s) pairs of the timed
    repeats; the first interpreter only warms the file cache.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE.format(N=N)],
                              env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(tuple(float(x) for x in proc.stdout.split()))
    return samples[1:]


def run_phase(cli, workload, seed, seconds, ops, dirs, tracer=None):
    """Run ops until ``seconds`` of timed phase and MIN_OPS ops are done.

    Appends one dict per op to ``ops`` and returns the timed-phase seconds.
    """
    elapsed = 0.0
    done = 0
    pending = []
    while elapsed < seconds or done < MIN_OPS:
        if not pending:
            pending = [make_op(workload, seed, len(ops) + k, dirs, cli)
                       for k in range(BATCH)]
        start = time.perf_counter()
        while pending and (elapsed + time.perf_counter() - start < seconds
                           or done < MIN_OPS):
            op = pending.pop(0)
            out, err = io.StringIO(), io.StringIO()
            code, error = None, None
            if tracer is not None:
                tracer.op = op.index
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(op.argv)
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code
            except Exception:  # an op that raises is a failed op
                error = traceback.format_exc()
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.op = None
            ops.append({"op": op, "seconds": t1 - t0, "code": code,
                        "error": error, "stdout": out.getvalue(),
                        "stderr": err.getvalue()})
            done += 1
        elapsed += time.perf_counter() - start
    return elapsed


def make_op(workload, seed, index, dirs, cli):
    out_dir = dirs["out"] / ("op%05d" % index)
    out_dir.mkdir(exist_ok=True)
    return workload.make_op(seed, index, dirs["in"], out_dir, cli)


def check_op(workload, rec, lambdas):
    """Problems with one op's exit status and outputs (empty list: correct)."""
    if rec["error"] is not None:
        return ["raised: " + rec["error"].strip().splitlines()[-1]]
    if rec["code"] != 0:
        return ["exit code %r: %s" % (rec["code"], rec["stderr"].strip())]
    try:
        return workload.check(rec["op"], lambdas)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ["output unreadable: %r" % exc]


def op_output(rec):
    """Every byte an op wrote: its files in name order, stdout and stderr."""
    parts = []
    for path in sorted(rec["op"].out_dir.iterdir()):
        data = path.read_bytes()
        parts.append(b"%s %d\n" % (path.name.encode(), len(data)) + data)
    parts.append(rec["stdout"].encode())
    parts.append(rec["stderr"].encode())
    return b"".join(parts)


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "lindbladctl").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def compare_records(record):
    """Mismatches of per-op output digests with earlier runs of this seed.

    Only records of the same workload, seed, package source and environment
    count: the last digits of the reports change with the BLAS thread
    count, for one.  Ops are compared as far as both runs reached.
    """
    mismatches = []
    pattern = "%s-seed%d-*.json" % (record["workload"], record["seed"])
    for path in sorted(OUT.glob(pattern)):
        try:
            other = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if (other.get("source_sha256"), other.get("environment")) != (
                record["source_sha256"], record["environment"]):
            continue
        for a, b in zip(record["op_digests"], other.get("op_digests", [])):
            if a != b:
                mismatches.append(path.name)
                break
    return mismatches


def percentile_note(times):
    """The highest percentile with at least ten ops beyond it, as text."""
    n = len(times)
    for p in (99.9, 99.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            q = statistics.quantiles(times, n=1000, method="inclusive")
            return "p%g %.6g s" % (p, q[int(round(p * 10)) - 1])
    return "no percentile above p50 has 10 ops beyond it"


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "lindbladctl" / "cli.py").is_file():
        print("error: %s has no src/lindbladctl/cli.py; run the benchmark "
              "from a lindbladctl checkout" % ROOT, file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy
    from lindbladctl import cli, dynamics, liealg
    from lindbladctl.su_basis import gellmann_basis
    from spans import Tracer
    from workloads import WORKLOADS

    if Path(cli.__file__).resolve().parent != SRC / "lindbladctl":
        print("error: lindbladctl was imported from %s, not %s"
              % (cli.__file__, SRC), file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "seed": args.seed,
    }

    setup = measure_setup(workload.N)
    OUT.mkdir(exist_ok=True)
    work = OUT / ("work-%d" % os.getpid())
    dirs = {"in": work / "in", "out": work / "out"}
    ops = []
    tracer = None
    try:
        for d in dirs.values():
            d.mkdir(parents=True)
        if args.trace:
            half = 0.5 * args.seconds
            untraced_s = run_phase(cli, workload, args.seed, half, ops, dirs)
            untraced_ops = len(ops)
            tracer = Tracer()
            tracer.install(cli, liealg, dynamics)
            try:
                timed_s = run_phase(cli, workload, args.seed, half, ops, dirs,
                                    tracer)
            finally:
                tracer.uninstall()
        else:
            timed_s = run_phase(cli, workload, args.seed, args.seconds, ops,
                                dirs)
        lambdas = gellmann_basis(workload.N).lambdas
        failures = {}
        digests = []
        bytes_out = []
        for rec in ops:
            problems = check_op(workload, rec, lambdas)
            if problems:
                failures[rec["op"].index] = problems
            data = op_output(rec)
            digests.append(hashlib.sha256(data).hexdigest())
            bytes_out.append(len(data))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    times = [rec["seconds"] for rec in ops]
    if args.trace:
        measured = times[untraced_ops:]
        untraced_rate = untraced_ops / untraced_s
        traced_rate = len(measured) / timed_s
        metrics = tracer.layer_metrics(len(measured))
        metrics["cli.import_s"] = statistics.median(s[0] for s in setup)
        metrics["su_basis.gellmann_basis_s"] = statistics.median(
            s[1] for s in setup)
        metrics["cli.bytes_out"] = statistics.fmean(bytes_out[untraced_ops:])
        metrics["trace.overhead"] = untraced_rate / traced_rate - 1.0
        units = PER_LAYER_UNITS
    else:
        measured = times
        metrics = {
            "ops_per_s": len(ops) / timed_s,
            "op_p50_s": statistics.median(times),
            "setup_s": statistics.median(a + b for a, b in setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    metrics = {k: {"value": metrics[k], "unit": u} for k, u in units.items()}

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "source_sha256": source_digest(),
        "timed_phase_s": timed_s,
        "setup": setup,
        "op_seconds": times,
        "op_digests": digests,
        "digest": hashlib.sha256(
            "".join(digests[:MIN_OPS]).encode()).hexdigest(),
        "failures": failures,
        "metrics": metrics,
    }
    mismatches = compare_records(record)
    record["digest_mismatches"] = mismatches
    name = "%s-seed%d-trace%d-%d.json" % (workload.name, args.seed,
                                          args.trace, os.getpid())
    (OUT / name).write_text(json.dumps(record, indent=1))

    fail_frac = len(failures) / len(ops)
    print("workload %s seed %d trace %d: %d ops in %.3f s of timed phase"
          % (workload.name, args.seed, args.trace, len(ops), timed_s))
    print("environment: python %(python)s, numpy %(numpy)s, scipy %(scipy)s,"
          " nproc %(nproc)d, blas threads %(blas_threads)d" % env)
    print("op time: n=%d, p50 %.6g s, %s"
          % (len(measured), statistics.median(measured),
             percentile_note(measured)))
    for key, m in metrics.items():
        print("  %-34s %14.6g %s" % (key, m["value"], m["unit"]))
    print("  %-34s %14.6g %s" % ("fail_frac", fail_frac, "ratio"))
    for index, problems in sorted(failures.items()):
        print("failed op %d: %s" % (index, "; ".join(problems)))
    print("digest of the first %d ops' output: %s" % (MIN_OPS,
                                                      record["digest"]))
    if mismatches:
        print("output differs from earlier runs of this seed: %s"
              % ", ".join(mismatches))
    print("record: %s" % (OUT / name).relative_to(ROOT))
    print(json.dumps({"correct": not failures and not mismatches,
                      "attempted": len(ops), "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
