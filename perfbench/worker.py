"""One workload in a fresh process: generate inputs, run the closed loop, check.

Started by run.py, never imported by it.  The working directory is the run's
scratch directory; the checkout's ``src`` directory comes in as ``--src``.
With ``--setup-only`` the process stops after importing stepldp and writing
the inputs, which is what run.py times as set-up.  Otherwise it runs rounds of
the workload's ops, with the calibration kernel of calibrate.py between ops,
until ``--seconds`` have passed (with ``--trace 1``: half untraced, then half
under the tracer) and prints one JSON object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback


def blas_threads():
    """Thread counts reported by the OpenBLAS builds bundled with numpy and scipy."""
    import ctypes
    import glob

    import numpy
    import scipy

    counts = []
    for pkg in (numpy, scipy):
        libs = os.path.join(os.path.dirname(pkg.__file__), os.pardir, pkg.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    counts.append(str(fn()))
                    break
    return ",".join(counts) or "unknown"


def _import_stepldp(src):
    sys.path.insert(0, src)
    import stepldp
    import stepldp.cli

    origin = os.path.realpath(stepldp.__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit("stepldp imported from %s, not from %s" % (origin, src))
    return stepldp


class Result:
    """What one op produced: exit code, stdout, output files or return value."""

    def __init__(self, rc, stdout, stderr, files=None, value=None):
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr
        self.files = files or {}
        self.value = value
        self.notes = []

    def digest(self):
        h = hashlib.sha256(self.stdout.encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name])
        if self.value is not None:
            h.update(json.dumps(self.value, sort_keys=True).encode())
        return h.hexdigest()


def _read_tree(root):
    files = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, root)] = fh.read()
    return files


def run_op(op, stepldp):
    """Run one op; returns (wall seconds, Result).  Only the call is timed."""
    if op.out:
        shutil.rmtree(op.out, ignore_errors=True)
    out, err = io.StringIO(), io.StringIO()
    value = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            if op.argv is not None:
                rc = stepldp.cli.main(list(op.argv))
            else:
                value = op.call(stepldp)
                rc = 0
        except Exception:  # a crash is a failed op, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - start
    files = _read_tree(op.out) if op.out and os.path.isdir(op.out) else {}
    return wall, Result(rc, out.getvalue(), err.getvalue(), files, value)


def check_op(op, res, first):
    """Problems with one op's outputs.

    ``first`` is (digest, problems) of the op's first occurrence, or None on
    the first occurrence itself.  A repeat must reproduce the first digest
    and then shares its verdict.
    """
    if res.rc != 0:
        return ["exit status %r: %s" % (res.rc, res.stderr.strip()[-300:])]
    problems = []
    if op.argv is not None:
        try:
            head = json.loads(res.stdout.split("\n", 1)[0])
            ok = head.get("command") == op.argv[0] and isinstance(head.get("resolvedConfig"), dict)
        except ValueError:
            ok = False
        if not ok:
            problems.append("first stdout line is not the resolved config")
        if "report.json" not in res.files:
            return problems + ["report.json missing"]
    if first is not None:
        if res.digest() != first[0]:
            problems.append("output differs from the first run of identical argv")
        return problems + first[1]
    try:
        problems += op.check(res)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        problems.append("unreadable output: %r" % (exc,))
    return problems


def run_rounds(ops, stepldp, seconds, state, tracer=None):
    """Closed loop of identical rounds; returns per-round records.

    The calibration kernel runs before the first op and after every op.  A
    record holds each op's wall time, the round's wall time, the round's
    kernel time, and ``rel``: the sum over the round's ops of the op's wall
    time over the mean of the kernel times just before and just after it.
    """
    import calibrate

    rounds = []
    cal = calibrate.kernel()
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        record = {"ops": {}, "wall": 0.0, "cal": 0.0, "rel": 0.0}
        for idx, op in enumerate(ops):
            if tracer is not None:
                tracer.op = "%d.%d" % (state["round"], idx)
            wall, res = run_op(op, stepldp)
            first = state["firsts"].get(op.metric)
            problems = check_op(op, res, first)
            if first is None and res.rc == 0:
                state["firsts"][op.metric] = (res.digest(), problems)
            state["attempted"] += 1
            if problems:
                state["failures"].append("%s round %d: %s" % (op.metric, state["round"],
                                                              "; ".join(problems)))
            state["notes"].extend("%s: %s" % (op.metric, n) for n in res.notes)
            state["out_bytes"][op.metric] = len(res.stdout.encode()) + sum(
                len(v) for v in res.files.values())
            record["ops"][op.metric] = wall
            record["wall"] += wall
            after = calibrate.kernel()
            record["cal"] += after
            record["rel"] += wall / ((cal + after) / 2.0)
            cal = after
        state["round"] += 1
        rounds.append(record)
    return rounds


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    stepldp = _import_stepldp(args.src)
    import workloads

    ops = workloads.build(args.workload, args.seed)
    if args.setup_only:
        return 0

    state = {"round": 0, "attempted": 0, "failures": [], "notes": [],
             "firsts": {}, "out_bytes": {}}
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    rounds = run_rounds(ops, stepldp, seconds, state)
    result = {"rounds": rounds}
    if args.trace:
        import layers
        import spans

        tracer = spans.Tracer(stepldp)
        with tracer.installed():
            traced = run_rounds(ops, stepldp, seconds, state, tracer)
        result["leftovers"] = tracer.leftovers()
        result["layers"] = layers.per_layer(tracer, rounds, traced, state["out_bytes"])
        result["traced_rounds"] = traced
        if args.trace_out:
            tracer.write_jsonl(args.trace_out)
    import numpy
    import scipy

    result["env"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                     "blas_threads": blas_threads()}
    result.update(attempted=state["attempted"], failures=state["failures"],
                  notes=sorted(set(state["notes"])),
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
