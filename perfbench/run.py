"""stepldp benchmark: one workload, one seed, one closed loop, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): sample-io, density-curve, ball-mc, solve.  The
workload runs in a fresh worker process that calls ``stepldp.cli.main(argv)``
in-process, one command at a time, repeating identical rounds until
``--seconds`` have passed; BLAS and OpenMP are pinned to one thread.  A fixed
calibration kernel (calibrate.py) runs before the first command and after
every command.

With ``--trace 0`` the result carries the end-to-end metrics:
``round_per_cal`` (median over rounds of one round's commands, each command's
wall time divided by the mean time of the calibration kernel just before and
just after it; the shared host's speed drift cancels in this ratio),
``setup_s`` (median over fresh processes of importing stepldp and writing the
inputs) and ``peak_rss_mb`` (peak resident memory of the worker).  The median
wall time of a round, of the calibration kernel and of every single command,
each with its sample count, is printed on the lines before.

With ``--trace 1`` half the time runs untraced and half under the span
tracer (spans.py), and the result carries the per-layer metrics of
layers.py; spans and counters go to perfbench/_out/ as JSON lines.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  An op fails on a nonzero exit or a failed output check;
failures are listed, with their cause, on the lines before.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from workloads import NAMES  # noqa: E402

SETUP_REPEATS = 5
TIME_LIMIT = 170.0  # seconds for the whole run
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = [("round_per_cal", "ratio"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def _fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    return 2


def _worker(args, workdir, env, deadline, extra=()):
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", os.path.abspath("src")] + list(extra)
    return subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, text=True,
                          timeout=max(deadline - time.monotonic(), 1.0))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT

    if not os.path.isfile(os.path.join("src", "stepldp", "__init__.py")):
        return _fail("src/stepldp not found; run from the root of a stepldp checkout")
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    scratch = os.path.join(HERE, "_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        setups = []
        if not args.trace:
            for i in range(SETUP_REPEATS):
                start = time.perf_counter()
                proc = _worker(args, os.path.join(scratch, "setup%d" % i), env, deadline,
                               ["--setup-only"])
                setups.append(time.perf_counter() - start)
                if proc.returncode != 0:
                    return _fail("set-up failed:\n" + proc.stderr)
        extra = []
        if args.trace:
            os.makedirs(os.path.join(HERE, "_out"), exist_ok=True)
            extra = ["--trace-out", os.path.join(
                HERE, "_out", "trace-%s-%d.jsonl" % (args.workload, args.seed))]
        proc = _worker(args, os.path.join(scratch, "run"), env, deadline, extra)
    except subprocess.TimeoutExpired:
        return _fail("worker did not finish within %.0f s" % TIME_LIMIT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        return _fail("worker exited with %d:\n%s" % (proc.returncode, proc.stderr))
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    env_info = res["env"]
    print("perfbench workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("env nproc=%s python=%s numpy=%s scipy=%s blas_threads=%s pinned=%s=1 machine=%s"
          % (os.cpu_count(), platform.python_version(), env_info["numpy"],
             env_info["scipy"], env_info["blas_threads"], ",".join(THREAD_VARS),
             platform.machine()))
    rounds = res["rounds"]
    for metric in rounds[0]["ops"]:
        walls = [r["ops"][metric] for r in rounds]
        print("op %-18s median %.4f s (n=%d)" % (metric, statistics.median(walls), len(walls)))
    failed = len(res["failures"])
    print("fail_ratio %.4f (%d of %d ops)" % (failed / res["attempted"], failed, res["attempted"]))
    for line in res["failures"]:
        print("failure " + line)
    for line in res["notes"]:
        print("note " + line)

    correct = failed == 0
    if args.trace:
        if res["leftovers"]:
            correct = False
            print("failure tracer left wrappers behind: " + ", ".join(res["leftovers"]))
        values = res["layers"]
        spec = PER_LAYER
    else:
        values = {"round_per_cal": statistics.median(r["rel"] for r in rounds),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
        spec = END_TO_END
        print("round_s median %.4f s (n=%d rounds); calibration kernel median %.4f s (n=%d rounds)"
              % (statistics.median(r["wall"] for r in rounds), len(rounds),
                 statistics.median(r["cal"] / len(r["ops"]) for r in rounds),
                 len(rounds)))
        print("round_per_cal median over n=%d rounds; setup_s median over n=%d processes"
              % (len(rounds), len(setups)))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spec}
    for name, unit in spec:
        print("metric %-50s %.6g %s" % (name, values[name], unit))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
