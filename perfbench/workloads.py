"""The four benchmark workloads: inputs generated from the seed, ops, checks.

Every input (probability matrices, graphon and coloured-graphon files, block
counts, thresholds, radii) is drawn from ``numpy.random.default_rng`` on the
workload seed and written to files, so the program only ever sees argv and
files.  A workload is a list of ops; one round runs each op once, and the
closed loop repeats identical rounds (same argv, same seed) until the time is
up, so the work per op is fixed within a run.

Each op carries a check that turns its outputs into a list of problems; an op
with any problem counts as failed.  The check runs on the first occurrence of
an op (it may be costly, e.g. a reference computation); repeats must
reproduce the first occurrence's output byte for byte instead.

Notes on the workloads:

- ``solve``: the ``distance`` pair, the coloured pair and the ``rate`` R inputs
  are fixed base inputs perturbed by the seed (values by at most PERTURB =
  0.0005, weights by at most 0.125 %).  Coupling-search time depends on the
  search landscape: unrelated random pairs differ by a factor of three in
  search time, and even 1 % perturbations move it by 30 %, which no run
  length can average away.  Small perturbations keep the landscape while
  every seed still gives different numbers to check: over twelve seeds the
  quartile spread of the distance search's enumerated subsets is 3 % at
  0.0005, against 8 % at 0.002.  For the same reason the searches
  run with the program's default search seed 0: the search seed picks the
  random restarts, and on one fixed input it moves dk search time by 25 %.
- ``ball-mc``: ball checks have a cost cliff in the number of pieces of the
  coupled refinement: one check takes about 0.03 s at n=12, 0.57 s at n=16,
  31 s at n=22 (exact enumeration of 2^22 subsets) and 0.06-0.1 s at n>=24,
  where the alternating heuristic takes over.  The sizes 12 and 40 sit on
  either side of it.
- ``density-curve``: within-block probabilities are drawn above every
  cross-block probability, and the three blocks have equal size, so the
  convolution visits pair classes in an order whose cost does not depend on
  the seed, and the size at which the budget refuses is the same for every
  seed.
"""

import json
import math
import os

import numpy as np

import reference

WHY = {
    "sample-io": "The O(n^2) coin arrays, the Python edge tuples and frozenset, and "
                 "edge-list writes are nearly all the work; cutmetric, rates and "
                 "ldplab do none.",
    "density-curve": "Exercises ldplab's exact log-convolution, then the tilted "
                     "estimator once the budget refuses; no sampling and no "
                     "cutmetric work.",
    "ball-mc": "Many small samples use samplers, graphon and cutmetric differently "
               "from sample-io and solve: exact cut norms at n=12, the alternating "
               "heuristic at n=40.",
    "solve": "No sampling: cutmetric exact enumeration and polishing, the rates "
             "descent, and coloured.",
}
NAMES = tuple(WHY)

SAMPLE_N = 2000
CURVE_SIZES = "12..384"
CURVE_SAMPLES = 20000
BALL_SIZES = ((12, 40), (40, 16))  # (n, MC samples per point)
DISTANCE_RESTARTS = 12
DK_RESTARTS = 16
RATE_R_BUDGET = 64
PERTURB = 0.0005  # of the solve inputs; see the notes above
RATE_J_BUDGET = 2048  # J converges in few sweeps; the budget gives it weight in a round
EXACT_TOL = 1e-6  # relative, on log probabilities reported as exact
VALUE_TOL = 1e-9  # relative, on recomputed objectives and cut norms
MARGINAL_TOL = 1e-9


class Op:
    """One command of a round: CLI argv (with --out) or one library call."""

    def __init__(self, metric, argv=None, *, check, out=None, call=None):
        self.metric = metric
        self.argv = argv
        self.check = check
        self.out = out
        self.call = call


def _sym(rng, k, lo, hi):
    a = rng.uniform(lo, hi, (k, k))
    return np.triu(a) + np.triu(a, 1).T


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _graphon(w, values):
    w = np.asarray(w, dtype=float)
    return {"weights": (w / w.sum()).tolist(), "values": np.asarray(values).tolist()}


def _random_graphon(rng, m):
    return _graphon(rng.dirichlet(np.full(m, 3.0)), _sym(rng, m, 0.0, 1.0))


def _perturbed(base, rng):
    w = np.asarray(base["weights"]) * rng.uniform(1.0 - 2.5 * PERTURB, 1.0 + 2.5 * PERTURB,
                                                  len(base["weights"]))
    v = np.asarray(base["values"])
    v = np.clip(v + _sym(rng, v.shape[0], -PERTURB, PERTURB), 0.0, 1.0)
    return _graphon(w, v)


def _report(res):
    return json.loads(res.files["report.json"])


def _lines(data):
    return data.count(b"\n")


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(b))


def _marginal_problems(coupling, rows, cols):
    c = np.asarray(coupling, dtype=float)
    problems = []
    if np.abs(c.sum(axis=1) - np.asarray(rows)).max() > MARGINAL_TOL:
        problems.append("witness row marginals differ from the first weights")
    if np.abs(c.sum(axis=0) - np.asarray(cols)).max() > MARGINAL_TOL:
        problems.append("witness column marginals differ from the second weights")
    return problems


# ---------------------------------------------------------------------------
# sample-io


def _sample_io(rng, seed):
    a = float(rng.uniform(0.4, 0.6))
    alpha = np.array([a, 1.0 - a])
    p = _sym(rng, 2, 0.15, 0.55)
    p = np.minimum(p * (0.35 / float(alpha @ p @ alpha)), 0.95)  # density ~0.35
    _write_json("in/p2.json", p.tolist())
    base = rng.integers(585, 616, size=2)
    shift = int(rng.integers(8, 17))
    counts_a = [int(base[0]), int(base[1])]
    counts_b = [int(base[0]) - shift, int(base[1]) + shift]
    pairs = SAMPLE_N * (SAMPLE_N - 1) // 2

    def check_sample(res):
        rep = _report(res)["samples"][0]
        edges = res.files["samples/sample_000.edges"]
        problems = []
        if edges.split(b"\n", 1)[0] != str(SAMPLE_N).encode():
            problems.append("edge list does not start with the vertex count")
        if _lines(edges) - 1 != rep["edges"]:
            problems.append("edge list holds %d edges, report says %d"
                            % (_lines(edges) - 1, rep["edges"]))
        if rep["density"] != rep["edges"] / pairs:
            problems.append("reported density is not edges / pairs")
        return problems

    def check_coupling(res):
        rep = _report(res)
        problems = []
        if "aligned subgraphs isomorphic: true" not in res.stdout:
            problems.append("isomorphism line missing")
        na, nb = sum(counts_a), sum(counts_b)
        common = sum(min(x, y) for x, y in zip(counts_a, counts_b))
        eps = sum(abs(x - y) for x, y in zip(counts_a, counts_b)) / min(na, nb)
        bound = 2.0 * (na / common - 1.0) + 2.0 * (nb / common - 1.0)
        if not _close(rep["epsilon"], eps, VALUE_TOL):
            problems.append("epsilon %r, expected %r" % (rep["epsilon"], eps))
        if not _close(rep["bound"], bound, VALUE_TOL):
            problems.append("bound %r, expected %r" % (rep["bound"], bound))
        if len(rep["alignedA"]) != common or len(rep["alignedB"]) != common:
            problems.append("aligned sets are not the common block counts")
        for key, name in (("edgesA", "graph_a"), ("edgesB", "graph_b")):
            data = res.files["samples/%s.edges" % name]
            if _lines(data) - 1 != rep[key]:
                problems.append("%s.edges disagrees with %s" % (name, key))
        return problems

    model = "block:%r,%r:@in/p2.json" % (a, 1.0 - a)
    return [
        Op("sample_s", ["sample", "--model", model, "--n", str(SAMPLE_N),
                        "--seed", str(seed), "--out", "out/sample"],
           out="out/sample", check=check_sample),
        Op("coupling_demo_s",
           ["coupling-demo", "--counts-a", "%d,%d" % tuple(counts_a),
            "--counts-b", "%d,%d" % tuple(counts_b), "--p", "@in/p2.json",
            "--seed", str(seed), "--out", "out/coupling"],
           out="out/coupling", check=check_coupling),
    ]


# ---------------------------------------------------------------------------
# density-curve


def _density_curve(rng, seed):
    p = _sym(rng, 3, 0.05, 0.3)
    np.fill_diagonal(p, rng.uniform(0.45, 0.7, 3))
    _write_json("in/p3.json", p.tolist())
    mean = (float(np.trace(p)) + 2.0 * float(p[np.triu_indices(3, 1)].sum())) / 9.0
    r = round(mean + 0.08, 4)

    def check(res):
        problems = []
        for pt in _report(res)["points"]:
            counts = [pt["n"] // 3] * 3
            ref = reference.density_ge_logprob(counts, p, r)
            if pt["method"] == "exact":
                if not _close(pt["logprob"], ref, EXACT_TOL):
                    problems.append("n=%d exact logprob %r, reference %r"
                                    % (pt["n"], pt["logprob"], ref))
            else:
                # recorded, not gated: the tilted estimator's bias is known
                res.notes.append("n=%d %s logprob=%.6g stderrLog=%.3g reference=%.6g"
                                 % (pt["n"], pt["method"], pt["logprob"],
                                    pt["stderrLog"], ref))
        return problems

    return [Op("ldp_curve_s",
               ["ldp-curve", "--model", "block:1,1,1:@in/p3.json",
                "--event", "density-ge:%r" % r, "--n", CURVE_SIZES,
                "--method", "auto", "--num-samples", str(CURVE_SAMPLES),
                "--seed", str(seed), "--out", "out/curve"],
               out="out/curve", check=check)]


# ---------------------------------------------------------------------------
# ball-mc


def _ball_mc(rng, seed):
    q = round(float(rng.uniform(0.3, 0.5)), 4)
    _write_json("in/target.json", _graphon([1.0], [[q]]))
    # radii near the median distance of G(n, q) from the constant q
    etas = {12: 0.09 + 0.05 * (q - 0.3), 40: 0.0496 + 0.025 * (q - 0.3)}
    ops = []
    for n, samples in BALL_SIZES:
        eta = round(etas[n], 4)

        def check(res, samples=samples):
            rep = _report(res)
            problems = []
            if not isinstance(rep["predictedRate"], (int, float)):
                problems.append("predicted rate missing")
            for pt in rep["points"]:
                hits = pt["hits"]
                if pt["method"] != "mc" or pt["samples"] != samples or not 0 <= hits <= samples:
                    problems.append("n=%d: bad mc point %r" % (pt["n"], pt))
                elif hits and not _close(pt["logprob"], math.log(hits / samples), VALUE_TOL):
                    problems.append("n=%d: logprob is not log(hits / samples)" % pt["n"])
                res.notes.append("n=%d hits %d of %d" % (pt["n"], hits, samples))
            return problems

        ops.append(Op("ldp_curve_n%d_s" % n,
                      ["ldp-curve", "--model", "gnp:%r" % q,
                       "--event", "ball:in/target.json:%r" % eta, "--n", str(n),
                       "--method", "mc", "--num-samples", str(samples),
                       "--seed", str(seed), "--out", "out/ball%d" % n],
                      out="out/ball%d" % n, check=check))
    return ops


# ---------------------------------------------------------------------------
# solve


def _rate_j_inputs(rng):
    """p with 0/1 entries and an 8-part graphon that has a finite J.

    Every part has a home block; the graphon agrees with p exactly on the
    0/1 block pairs of the homes, and alpha is the home-block mass, so the
    support certification finds feasible patterns and the descent runs.
    """
    p = _sym(rng, 3, 0.1, 0.9)
    p[0, 1] = p[1, 0] = 0.0
    p[2, 2] = 1.0
    home = np.array([0, 0, 0, 1, 1, 1, 2, 2])
    values = _sym(rng, home.size, 0.05, 0.95)
    ph = p[np.ix_(home, home)]
    values = np.where((ph == 0.0) | (ph == 1.0), ph, values)
    w = rng.dirichlet(np.full(home.size, 3.0))
    alpha = np.bincount(home, weights=w, minlength=3)
    return p, _graphon(w, values), alpha / alpha.sum()


def _solve(rng, seed):
    base = np.random.default_rng(20210117)
    base_u, base_v = _random_graphon(base, 5), _random_graphon(base, 5)
    base_a, base_b = _random_graphon(base, 4), _random_graphon(base, 4)
    base_r = _random_graphon(base, 4)
    base_p = _sym(base, 3, 0.05, 0.95)
    u, v = _perturbed(base_u, rng), _perturbed(base_v, rng)
    _write_json("in/u5.json", u)
    _write_json("in/v5.json", v)

    p_r = base_p + _sym(rng, 3, -PERTURB, PERTURB)
    u_r = _perturbed(base_r, rng)
    _write_json("in/pR.json", p_r.tolist())
    _write_json("in/u4.json", u_r)

    p_j, u_j, alpha_j = _rate_j_inputs(rng)
    _write_json("in/pJ.json", p_j.tolist())
    _write_json("in/u8.json", u_j)

    coloured = [dict(_perturbed(base_a, rng), colours=[1, 1, 2, 2]),
                dict(_perturbed(base_b, rng), colours=[1, 2, 1, 2])]
    _write_json("in/coloured.json", coloured)

    def check_distance(res):
        rep = _report(res)
        problems = _marginal_problems(rep["witness"], u["weights"], v["weights"])
        if not problems:
            value = reference.coupled_cut_norm(rep["witness"], u["values"], v["values"])
            if not _close(rep["upper"], value, VALUE_TOL):
                problems.append("upper %r but the witness has cut norm %r"
                                % (rep["upper"], value))
        if not 1 <= rep["restartsUsed"] <= DISTANCE_RESTARTS:
            problems.append("restartsUsed %r" % rep["restartsUsed"])
        return problems

    def rate_check(p, graphon, alpha):
        def check(res):
            rep = _report(res)
            if rep["value"] == "inf":
                return ["rate is infinite on an input built to have a finite rate"]
            cols = rep.get("witnessAlpha", alpha)
            problems = _marginal_problems(rep["witnessCoupling"], graphon["weights"], cols)
            if abs(sum(cols) - 1.0) > MARGINAL_TOL:
                problems.append("witness alpha does not sum to one")
            value = reference.coupling_entropy(rep["witnessCoupling"], p,
                                               np.asarray(graphon["values"]))
            if not _close(rep["value"], value, VALUE_TOL):
                problems.append("value %r but the witness costs %r" % (rep["value"], value))
            return problems
        return check

    def dk_call(stepldp):
        with open("in/coloured.json") as fh:
            a, b = (stepldp.coloured_from_json(obj) for obj in json.load(fh))
        est = stepldp.dk_distance_search(a, b, restarts=DK_RESTARTS)
        return est.to_json()

    def check_dk(res):
        est = res.value
        problems = _marginal_problems(est["witness"], coloured[0]["weights"],
                                      coloured[1]["weights"])
        if not (math.isfinite(est["upper"]) and est["upper"] >= 0.0):
            problems.append("upper %r" % est["upper"])
        if not 1 <= est["restartsUsed"] <= DK_RESTARTS:
            problems.append("restartsUsed %r" % est["restartsUsed"])
        return problems

    alpha_text = ",".join(repr(float(x)) for x in alpha_j)
    return [
        Op("distance_s", ["distance", "--u", "in/u5.json", "--v", "in/v5.json",
                          "--restarts", str(DISTANCE_RESTARTS), "--out", "out/distance"],
           out="out/distance", check=check_distance),
        Op("rate_R_s", ["rate", "--p", "@in/pR.json", "--u", "in/u4.json",
                        "--budget", str(RATE_R_BUDGET), "--out", "out/rateR"],
           out="out/rateR", check=rate_check(p_r, u_r, None)),
        Op("rate_J_s", ["rate", "--p", "@in/pJ.json", "--u", "in/u8.json",
                        "--alpha", alpha_text, "--budget", str(RATE_J_BUDGET),
                        "--out", "out/rateJ"],
           out="out/rateJ", check=rate_check(p_j, u_j, alpha_j.tolist())),
        Op("dk_search_s", call=dk_call, check=check_dk),
    ]


GENERATORS = {
    "sample-io": _sample_io,
    "density-curve": _density_curve,
    "ball-mc": _ball_mc,
    "solve": _solve,
}


def build(name, seed):
    """Write the workload's inputs under ./in and return its ops."""
    os.makedirs("in", exist_ok=True)
    rng = np.random.default_rng([NAMES.index(name), seed])
    return GENERATORS[name](rng, seed)
