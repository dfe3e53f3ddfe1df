"""Acceptance gate: one test per required capability, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` so the summary lines are
visible.  Every test asserts its correctness condition and its runtime
budget; each prints exactly one line of the form

    PASS  <capability>  (<elapsed>s)  <detail>

These tests intentionally re-derive expected values through independent
routes (closed forms, exhaustive enumeration, rational arithmetic) rather
than trusting the code paths they exercise.
"""

import itertools
import math
import sys
import time

import numpy as np

from stepldp.coloured import (
    ColouredStepGraphon,
    dk_norm,
    gamma_block,
)
from stepldp.cutmetric import (
    SignedStepFn,
    aligned_cut_distance,
    cut_distance_search,
    cut_norm_alternating,
    cut_norm_exact,
)
from stepldp.graphon import PartWeights, make_step_graphon, stretch_pullback
from stepldp.ldplab import (
    EventSpec,
    density_logprob_block,
    exact_event_logprob_wrandom,
    tilted_density_logprob_block,
)
from stepldp.rates import rate_J, rate_R, rel_entropy
from stepldp.samplers import coupled_block_sample

INF = float("inf")


def report(name, elapsed, ok, detail=""):
    line = "%s  %s  (%.2fs)" % ("PASS" if ok else "FAIL", name, elapsed)
    if detail:
        line += "  " + detail
    print(line)
    sys.stdout.flush()


def symmetric_uniform(rng, m, lo=0.0, hi=1.0):
    vals = rng.uniform(lo, hi, (m, m))
    return (vals + vals.T) / 2


def test_entropy_identities():
    t0 = time.perf_counter()
    grid = [i / 100 for i in range(101)]
    bad = 0
    for p in grid:
        if rel_entropy(p, p) != 0.0:
            bad += 1
    for rho in grid:
        if rho != 0.0 and rel_entropy(0.0, rho) != INF:
            bad += 1
        if rho != 1.0 and rel_entropy(1.0, rho) != INF:
            bad += 1
    worst = 0.0
    for p in grid[1:-1]:
        vals = [rel_entropy(p, rho) for rho in grid]
        for j in range(1, 100):
            second = vals[j - 1] + vals[j + 1] - 2 * vals[j]
            worst = min(worst, second)
            if second < -1e-12:
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 1.0
    report("entropy identities and convexity", elapsed, ok,
           "violations=%d worstSecondDiff=%.2e" % (bad, worst))
    assert ok


def test_cut_norm_heuristic_matches_enumeration():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260819)
    worst = 0.0
    bad = 0
    for trial in range(500):
        m = int(rng.integers(1, 9))
        parts = PartWeights(rng.dirichlet(np.ones(m)))
        vals = symmetric_uniform(rng, m, -1.0, 1.0)
        f = SignedStepFn(parts, vals)
        exact = cut_norm_exact(f)
        heur = cut_norm_alternating(f, restarts=32, seed=trial)
        gap = abs(exact - heur)
        worst = max(worst, gap)
        if gap > 1e-9:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 30.0
    report("alternating cut norm vs exhaustive enumeration", elapsed, ok,
           "cases=500 misses=%d worstGap=%.2e" % (bad, worst))
    assert ok


def test_forgetting_maps_are_contractive():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    violations = 0
    worst = -INF
    for trial in range(200):
        k = 3 if trial % 4 == 3 else 2
        max_parts = 3 if k == 3 else 4
        pair = []
        for _ in range(2):
            m = int(rng.integers(1, max_parts + 1))
            u = make_step_graphon(rng.dirichlet(np.ones(m)),
                                  symmetric_uniform(rng, m))
            pair.append(ColouredStepGraphon(u, rng.integers(0, k, m),
                                            num_colours=k))
        a, b = pair
        d = dk_norm(a, b)
        excess = aligned_cut_distance(a.graphon, b.graphon) - d
        worst = max(worst, excess)
        if excess > 1e-12:
            violations += 1
        zero = np.zeros((k, k))
        for i in range(k):
            for j in range(i, k):
                lhs = aligned_cut_distance(gamma_block(a, i, j, zero),
                                           gamma_block(b, i, j, zero))
                excess = lhs - d
                worst = max(worst, excess)
                if excess > 1e-12:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 30.0
    report("colour-forgetting maps are 1-Lipschitz", elapsed, ok,
           "pairs=200 violations=%d worstExcess=%.2e" % (violations, worst))
    assert ok


def test_two_clique_rate_functions():
    t0 = time.perf_counter()
    u = make_step_graphon([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    p = [[1.0, 0.0], [0.0, 1.0]]
    balanced = rate_J([0.5, 0.5], p, u, budget=64, seed=0)
    skew = rate_J([0.3, 0.7], p, u, budget=64, seed=0)
    best = rate_R(p, u, budget=64, seed=0)
    wa = best.witness_alpha.weights
    elapsed = time.perf_counter() - t0
    ok = (abs(balanced.value) <= 1e-6
          and skew.value == INF and skew.budget_used == 0
          and abs(best.value) <= 1e-6
          and abs(wa[0] - 0.5) <= 0.05 and abs(wa[1] - 0.5) <= 0.05
          and elapsed < 10.0)
    report("two-clique rate functions", elapsed, ok,
           "J(1/2,1/2)=%.2e J(0.3,0.7)=%s R=%.2e alpha=(%.3f,%.3f)"
           % (balanced.value, skew.value, best.value, wa[0], wa[1]))
    assert ok


def test_rate_J_scaling_invariance():
    t0 = time.perf_counter()
    rng = np.random.default_rng(55)
    mismatches = 0
    for trial in range(50):
        m = int(rng.integers(1, 5))
        k = int(rng.integers(1, 5))
        u = make_step_graphon(rng.dirichlet(np.ones(m)),
                              symmetric_uniform(rng, m, 0.05, 0.95))
        alpha = rng.integers(1, 20, k).astype(float)
        p = symmetric_uniform(rng, k, 0.05, 0.95)
        base = rate_J(alpha, p, u, budget=8, seed=trial)
        for c in (0.5, 2.0, 7.0):
            other = rate_J(c * alpha, p, u, budget=8, seed=trial)
            same_value = (other.value == base.value)
            same_witness = np.array_equal(other.witness_coupling.matrix,
                                          base.witness_coupling.matrix)
            if not (same_value and same_witness):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    report("rate_J invariance under scaling of alpha", elapsed, ok,
           "instances=50 scales=3 mismatches=%d" % mismatches)
    assert ok


def test_coupled_sampling_bound_and_isomorphism():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    bound_violations = 0
    iso_failures = 0
    eps_max = 0.0
    for trial in range(1000):
        k = 1 + trial % 3
        base = rng.integers({1: 25, 2: 13, 3: 9}[k],
                            {1: 41, 2: 21, 3: 15}[k], k)
        delta = np.zeros(k, dtype=int)
        delta[int(rng.integers(0, k))] = int(rng.integers(-2, 3))
        counts_a = base
        counts_b = base + delta
        p = symmetric_uniform(rng, k)
        if trial % 10 == 0:
            p = np.round(p)  # exercise the forced 0/1 coins
        pair = coupled_block_sample(counts_a, counts_b, p, seed=trial)
        eps_max = max(eps_max, pair.epsilon)
        assert pair.epsilon <= 0.1
        if pair.bound > 4 * pair.epsilon / (1 - pair.epsilon):
            bound_violations += 1
        sub_a = pair.graph_a.adjacency()[np.ix_(pair.aligned_a, pair.aligned_a)]
        sub_b = pair.graph_b.adjacency()[np.ix_(pair.aligned_b, pair.aligned_b)]
        if not np.array_equal(sub_a, sub_b):
            iso_failures += 1
    elapsed = time.perf_counter() - t0
    ok = bound_violations == 0 and iso_failures == 0 and elapsed < 60.0
    report("coupled sampling: distance bound and shared subgraph", elapsed, ok,
           "samples=1000 boundViolations=%d isoFailures=%d epsMax=%.3f"
           % (bound_violations, iso_failures, eps_max))
    assert ok


def test_density_deviation_probabilities():
    t0 = time.perf_counter()
    event = EventSpec("density-ge", r=0.8)
    limit = 0.5 * rel_entropy(0.5, 0.8)

    n = 200
    logp = density_logprob_block([n], [[0.5]], event)
    normalized = -logp / n ** 2
    rel_err = abs(normalized - limit) / limit

    n_t = 40
    oracle = density_logprob_block([n_t], [[0.5]], event)
    est = tilted_density_logprob_block([n_t], [[0.5]], event,
                                       num_samples=100000, seed=3)
    z = abs(est["logprob"] - oracle) / est["stderrLog"]

    elapsed = time.perf_counter() - t0
    ok = rel_err <= 0.05 and z <= 3.0 and elapsed < 120.0
    report("density deviation probabilities", elapsed, ok,
           "normalized(n=200)=%.7f limit=%.7f relErr=%.2f%% z(tilted,n=40)=%.2f"
           % (normalized, limit, 100 * rel_err, z))
    assert ok


def wrandom_direct_oracle(n, u, event):
    """Event probability by enumerating every type vector and edge subset."""
    m = u.parts.size
    w = u.parts.weights
    iu, ju = np.triu_indices(n, 1)
    npairs = iu.size
    bits = ((np.arange(1 << npairs, dtype=np.int64)[:, None]
             >> np.arange(npairs)[None, :]) & 1).astype(bool)
    passing = np.array([event.check_density(e / npairs)
                        for e in range(npairs + 1)])[bits.sum(axis=1)]
    total = 0.0
    for tv in itertools.product(range(m), repeat=n):
        tv = np.asarray(tv, dtype=int)
        p_tv = float(np.prod(w[tv]))
        if p_tv == 0.0:
            continue
        q = u.values[tv[iu], tv[ju]]
        with np.errstate(divide="ignore"):
            lq = np.log(q)
            l1q = np.log1p(-q)
        logp = np.where(bits, lq[None, :], l1q[None, :]).sum(axis=1)
        sel = logp[passing]
        if sel.size:
            total += p_tv * float(np.exp(sel).sum())
    return total


def test_wrandom_exact_probabilities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    worst = 0.0
    bad = 0
    for trial in range(20):
        n = 3 + trial % 4
        m = int(rng.integers(1, 4))
        vals = symmetric_uniform(rng, m, 0.05, 0.95)
        if trial == 0 and m >= 2:
            vals[0, 0] = 1.0
            vals[m - 1, m - 1] = 0.0
        u = make_step_graphon(rng.dirichlet(np.ones(m)), vals)
        kind = "density-ge" if trial % 2 == 0 else "density-le"
        event = EventSpec(kind, r=float(rng.choice([0.3, 0.5, 0.7])))
        got = math.exp(exact_event_logprob_wrandom(n, u, event))
        want = wrandom_direct_oracle(n, u, event)
        gap = abs(got - want)
        worst = max(worst, gap)
        if gap > 1e-9:
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0
    report("step-graphon law: conditioning vs direct enumeration", elapsed, ok,
           "cases=20 misses=%d worstGap=%.2e" % (bad, worst))
    assert ok


def test_stretch_distance_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31337)
    violations = 0
    worst = -INF
    for trial in range(100):
        m = int(rng.integers(1, 6))
        u = make_step_graphon(rng.dirichlet(np.ones(m)),
                              symmetric_uniform(rng, m))
        s = float(rng.uniform(0.8, 1.0))
        v = stretch_pullback(u, s)
        est = cut_distance_search(u, v, restarts=12, seed=trial)
        excess = est.upper - (2.0 * (1.0 / s - 1.0) + 0.02)
        worst = max(worst, excess)
        if excess > 0.0:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    report("stretch pull-back stays within the distance bound", elapsed, ok,
           "graphons=100 violations=%d worstExcess=%.2e" % (violations, worst))
    assert ok
