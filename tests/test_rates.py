import hashlib
import math

import numpy as np
import pytest

from stepldp import cutmetric, rates
from stepldp.coloured import ColouredStepGraphon
from stepldp.graphon import OverlapCoupling, PartWeights, make_step_graphon
from stepldp.ldplab import EventSpec, exact_event_logprob_block
from stepldp.rates import (
    RateReport,
    block_entropy_objective,
    coupling_entropy_objective,
    rate_Ik,
    rate_Ip,
    rate_J,
    rate_R,
    rel_entropy,
    reweight_witness,
)

INF = float("inf")


def two_clique():
    return make_step_graphon([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])


TWO_CLIQUE_P = [[1.0, 0.0], [0.0, 1.0]]


class TestRelEntropy:
    def test_zero_on_diagonal(self):
        for p in [0.0, 0.17, 0.5, 0.99, 1.0]:
            assert rel_entropy(p, p) == 0.0

    def test_degenerate_reference(self):
        assert rel_entropy(0.0, 0.3) == INF
        assert rel_entropy(1.0, 0.3) == INF
        assert rel_entropy(0.0, 0.0) == 0.0
        assert rel_entropy(1.0, 1.0) == 0.0

    def test_known_value(self):
        # against a fair coin the cost is log 2 minus the binary entropy
        rho = 0.8
        want = math.log(2) + rho * math.log(rho) + (1 - rho) * math.log(1 - rho)
        assert abs(rel_entropy(0.5, rho) - want) < 1e-15

    def test_endpoints_against_interior_reference(self):
        assert abs(rel_entropy(0.25, 1.0) - math.log(4)) < 1e-15
        assert abs(rel_entropy(0.25, 0.0) - math.log(4 / 3)) < 1e-15

    def test_convex_in_rho(self):
        grid = np.linspace(0.0, 1.0, 101)
        vals = np.array([rel_entropy(0.37, x) for x in grid])
        assert np.all(vals[:-2] + vals[2:] - 2 * vals[1:-1] >= -1e-12)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            rel_entropy(-0.1, 0.5)
        with pytest.raises(ValueError):
            rel_entropy(0.5, 1.5)


class TestRateIp:
    def test_two_clique_against_half(self):
        assert abs(rate_Ip(0.5, two_clique()) - math.log(2) / 2) < 1e-15

    def test_matches_reference_constant(self):
        u = make_step_graphon([1.0], [[0.8]])
        assert rate_Ip(0.5, u) == 0.5 * rel_entropy(0.5, 0.8)

    def test_zero_weight_cells_ignored(self):
        # second part carries no mass, so its infinite cost never shows up
        u = make_step_graphon(PartWeights([1.0, 0.0]),
                              [[0.5, 1.0], [1.0, 1.0]])
        assert rate_Ip(0.0, make_step_graphon([1.0], [[0.0]])) == 0.0
        assert rate_Ip(0.5, u) == 0.0

    def test_brute_force(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            w = rng.dirichlet(np.ones(m))
            vals = rng.uniform(0, 1, (m, m))
            vals = (vals + vals.T) / 2
            u = make_step_graphon(w, vals)
            p = float(rng.uniform(0.1, 0.9))
            want = 0.5 * sum(
                w[a] * w[b] * rel_entropy(p, vals[a, b])
                for a in range(m) for b in range(m)
            )
            assert abs(rate_Ip(p, u) - want) < 1e-12


class TestRateIk:
    def test_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            k = int(rng.integers(1, 4))
            w = rng.dirichlet(np.ones(m))
            vals = rng.uniform(0, 1, (m, m))
            vals = (vals + vals.T) / 2
            colours = rng.integers(0, k, m)
            p = rng.uniform(0.05, 0.95, (k, k))
            p = (p + p.T) / 2
            a = ColouredStepGraphon(make_step_graphon(w, vals), colours, num_colours=k)
            want = 0.5 * sum(
                w[s] * w[t] * rel_entropy(p[colours[s], colours[t]], vals[s, t])
                for s in range(m) for t in range(m)
            )
            assert abs(rate_Ik(p, a) - want) < 1e-12

    def test_single_colour_reduces_to_Ip(self):
        u = two_clique()
        a = ColouredStepGraphon(u, [0, 0], num_colours=1)
        assert rate_Ik([[0.5]], a) == rate_Ip(0.5, u)

    def test_infinite_when_colour_forbids(self):
        u = make_step_graphon([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        a = ColouredStepGraphon(u, [0, 1], num_colours=2)
        p = [[0.5, 0.0], [0.0, 0.5]]
        assert rate_Ik(p, a) == INF


def sweep_oracle_two_part(alpha, p, u, points=20001):
    """1-D exhaustive minimization for m = k = 2: couplings between two
    parts and two colours form a segment, parametrized by the (0,0) mass."""
    w = u.parts.weights
    ah = np.asarray(alpha, dtype=float)
    ah = ah / ah.sum()
    p = np.asarray(p, dtype=float)
    lo = max(0.0, w[0] + ah[0] - 1.0)
    hi = min(w[0], ah[0])
    h = np.empty((2, 2, 2, 2))
    for a in range(2):
        for b in range(2):
            for i in range(2):
                for j in range(2):
                    h[a, i, b, j] = rel_entropy(p[i, j], u.values[a, b])
    best = INF
    for t in np.linspace(lo, hi, points):
        c = np.array([[t, w[0] - t], [ah[0] - t, w[1] - ah[0] + t]])
        if c.min() < -1e-12:
            continue
        total = 0.0
        ok = True
        for a in range(2):
            for i in range(2):
                for b in range(2):
                    for j in range(2):
                        mass = c[a, i] * c[b, j]
                        if mass <= 0.0:
                            continue
                        if math.isinf(h[a, i, b, j]):
                            ok = False
                            break
                        total += mass * h[a, i, b, j]
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            best = min(best, 0.5 * total)
    return best


class TestRateJ:
    def test_two_clique_balanced_zero(self):
        rep = rate_J([0.5, 0.5], TWO_CLIQUE_P, two_clique(), budget=8, seed=0)
        assert rep.value <= 1e-12
        assert rep.witness_coupling is not None
        assert rep.budget_used >= 1

    def test_two_clique_unbalanced_infinite(self):
        rep = rate_J([0.3, 0.7], TWO_CLIQUE_P, two_clique(), budget=8, seed=0)
        assert rep.value == INF
        assert not rep.is_finite

    def test_constant_graphon_closed_form(self):
        # a single part forces the product coupling, so the value is the
        # alpha-weighted average entropy, exactly
        rng = np.random.default_rng(11)
        for _ in range(10):
            rho = float(rng.uniform(0.1, 0.9))
            u = make_step_graphon([1.0], [[rho]])
            k = int(rng.integers(1, 4))
            alpha = rng.dirichlet(np.ones(k))
            p = rng.uniform(0.05, 0.95, (k, k))
            p = (p + p.T) / 2
            rep = rate_J(alpha, p, u, budget=4, seed=1)
            want = 0.5 * sum(
                alpha[i] * alpha[j] * rel_entropy(p[i, j], rho)
                for i in range(k) for j in range(k)
            )
            assert abs(rep.value - want) < 1e-12

    def test_matches_sweep_oracle(self):
        rng = np.random.default_rng(13)
        for trial in range(15):
            w = rng.dirichlet(np.ones(2))
            vals = rng.uniform(0, 1, (2, 2))
            vals = (vals + vals.T) / 2
            u = make_step_graphon(w, vals)
            alpha = rng.dirichlet(np.ones(2))
            p = rng.uniform(0.05, 0.95, (2, 2))
            p = (p + p.T) / 2
            rep = rate_J(alpha, p, u, budget=16, seed=trial)
            want = sweep_oracle_two_part(alpha, p, u)
            assert rep.value <= want + 1e-9, (trial, rep.value, want)
            assert rep.value >= want - 1e-6, (trial, rep.value, want)

    def test_witness_recomputes_to_value(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            m = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            w = rng.dirichlet(np.ones(m))
            vals = rng.uniform(0, 1, (m, m))
            vals = (vals + vals.T) / 2
            u = make_step_graphon(w, vals)
            alpha = rng.dirichlet(np.ones(k))
            p = rng.uniform(0.05, 0.95, (k, k))
            p = (p + p.T) / 2
            rep = rate_J(alpha, p, u, budget=8, seed=trial)
            assert rep.value == coupling_entropy_objective(rep.witness_coupling, p, u)

    def test_budget_monotone(self):
        rng = np.random.default_rng(19)
        w = rng.dirichlet(np.ones(3))
        vals = rng.uniform(0, 1, (3, 3))
        vals = (vals + vals.T) / 2
        u = make_step_graphon(w, vals)
        alpha = [0.2, 0.5, 0.3]
        p = rng.uniform(0.05, 0.95, (3, 3))
        p = (p + p.T) / 2
        v1 = rate_J(alpha, p, u, budget=1, seed=5).value
        v8 = rate_J(alpha, p, u, budget=8, seed=5).value
        v64 = rate_J(alpha, p, u, budget=64, seed=5).value
        assert v64 <= v8 <= v1

    def test_scaling_invariance_bitwise(self):
        rng = np.random.default_rng(23)
        for trial in range(10):
            m = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            w = rng.dirichlet(np.ones(m))
            vals = rng.uniform(0, 1, (m, m))
            vals = (vals + vals.T) / 2
            u = make_step_graphon(w, vals)
            alpha = rng.integers(1, 20, k).astype(float)
            p = rng.uniform(0.05, 0.95, (k, k))
            p = (p + p.T) / 2
            base = rate_J(alpha, p, u, budget=8, seed=trial)
            for c in (0.5, 2.0, 7.0):
                other = rate_J(c * alpha, p, u, budget=8, seed=trial)
                assert other.value == base.value
                assert np.array_equal(other.witness_coupling.matrix,
                                      base.witness_coupling.matrix)

    def test_forced_support_runs_one_start(self):
        # three maximal supports, each with one cell per part; only the
        # diagonal one meets alpha, and its coupling is forced
        u = make_step_graphon([0.3, 0.7], [[1.0, 0.0], [0.0, 1.0]])
        p = [[1.0, 0.0], [0.0, 0.6]]
        rep = rate_J([0.3, 0.7], p, u, budget=16, seed=0)
        assert rep.budget_used == 1
        assert rep.value == pytest.approx(0.5 * 0.7 ** 2 * math.log(1 / 0.6), rel=1e-12)
        np.testing.assert_array_equal(rep.witness_coupling.matrix, [[0.3, 0.0], [0.0, 0.7]])
        assert repr(rate_J([0.3, 0.7], p, u, budget=1, seed=0).value) == repr(rep.value)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            rate_J([1.0], [[0.5]], make_step_graphon([1.0], [[0.5]]), budget=0)


class TestRateR:
    def test_two_clique_zero_at_balanced(self):
        rep = rate_R(TWO_CLIQUE_P, two_clique(), budget=64, seed=0)
        assert rep.value <= 1e-9
        wa = rep.witness_alpha.weights
        assert abs(wa[0] - 0.5) < 0.05 and abs(wa[1] - 0.5) < 0.05

    def test_two_clique_unbalanced_parts(self):
        # a 0.4/0.6 two-clique graphon: the only finite couplings put each
        # part on its own colour, so the optimum sits at alpha = (0.4, 0.6)
        u = make_step_graphon([0.4, 0.6], [[1.0, 0.0], [0.0, 1.0]])
        rep = rate_R(TWO_CLIQUE_P, u, budget=64, seed=0)
        assert rep.value <= 1e-9
        wa = np.sort(rep.witness_alpha.weights)
        assert abs(wa[0] - 0.4) < 0.05 and abs(wa[1] - 0.6) < 0.05

    def test_self_block_recovered(self):
        # u constant rho, p with p[0,0] = rho: putting everything on colour 0
        # costs nothing
        u = make_step_graphon([1.0], [[0.3]])
        p = [[0.3, 0.9], [0.9, 0.8]]
        rep = rate_R(p, u, budget=32, seed=0)
        assert rep.value <= 1e-12
        assert rep.witness_alpha.weights[0] > 0.99

    def test_forced_supports_run_one_start_each(self):
        # every maximal support gives each part one cell: three forced
        # couplings, the cheapest of which puts part 0 on block 1
        u = make_step_graphon([0.3, 0.7], [[1.0, 0.0], [0.0, 1.0]])
        p = [[1.0, 0.0], [0.0, 0.6]]
        rep = rate_R(p, u, budget=16, seed=0)
        assert rep.budget_used == 3
        assert rep.value == pytest.approx(0.5 * 0.3 ** 2 * math.log(1 / 0.6), rel=1e-12)
        np.testing.assert_array_equal(rep.witness_alpha.weights, [0.7, 0.3])

    def test_all_infeasible(self):
        u = make_step_graphon([1.0], [[0.5]])
        rep = rate_R([[0.0, 0.0], [0.0, 0.0]], u, budget=8, seed=0)
        assert rep.value == INF

    def test_budget_monotone(self):
        u = make_step_graphon([0.3, 0.7], [[0.9, 0.2], [0.2, 0.6]])
        p = [[0.8, 0.3], [0.3, 0.5]]
        vals = [rate_R(p, u, budget=b, seed=2).value for b in (8, 32, 128)]
        assert vals[1] <= vals[0] and vals[2] <= vals[1]

    def test_never_exceeds_any_J(self):
        rng = np.random.default_rng(29)
        u = make_step_graphon([0.5, 0.5], [[0.7, 0.2], [0.2, 0.4]])
        p = [[0.6, 0.25], [0.25, 0.45]]
        r = rate_R(p, u, budget=64, seed=0).value
        for trial in range(10):
            alpha = rng.dirichlet(np.ones(2))
            j = rate_J(alpha, p, u, budget=16, seed=trial).value
            assert r <= j + 1e-9


def _rigid_support_alphas(q, w, k):
    """Block fractions that split each part evenly over a maximal support."""
    m = w.size
    allowed = (w[:, None] > 0.0) & np.isfinite(np.diag(q)).reshape(m, k)
    if np.count_nonzero(allowed) > rates.SUPPORT_ENUM_LIMIT:
        return []
    out = []
    for mask in rates._support_masks(q, allowed):
        counts = mask.sum(axis=1)
        if np.any((counts == 0) & (w > 0.0)):
            continue
        alpha = np.where(mask, (w / np.maximum(counts, 1))[:, None], 0.0).sum(axis=0)
        if alpha.sum() > 0.0:
            out.append(tuple((alpha / alpha.sum()).tolist()))
    return out


def oracle_rate_R(p, u, budget, seed):
    """``rate_R`` as it was before the row-simplex descent: ``rate_J`` probes
    at budget 4 over a simplex grid plus the fractions of rigid supports,
    refinement of the best point by pairwise transfers, and a re-probe of the
    winner at the full budget.  Returns the smallest value seen."""
    p = np.asarray(p, dtype=float)
    k = p.shape[0]
    w = u.parts.weights
    q = rates._entropy_tensor(p, u.values)
    resolution = 20 if k <= 3 else 8
    grid = [tuple(x / resolution for x in comp)
            for comp in rates._simplex_grid(k, resolution)]
    candidates = list(dict.fromkeys(grid + _rigid_support_alphas(q, w, k)))
    base = cutmetric._seed_list(seed)

    def probe(alpha, idx, restarts):
        return rates._search_J(w, rates._prepare_alpha(alpha), q, restarts, base + [idx])[0]

    scored = [(probe(alpha, idx, 4), alpha) for idx, alpha in enumerate(candidates)]
    best, alpha = min(scored, key=lambda got: got[0])
    if not math.isfinite(best):
        return INF
    alpha = np.asarray(alpha, dtype=float)
    step = 1.0 / (2 * resolution)
    for round_no in range(6):
        improved = False
        for i in range(k):
            for j in range(k):
                if i == j or alpha[j] < step - 1e-15:
                    continue
                cand = alpha.copy()
                cand[i] += step
                cand[j] -= step
                if cand[j] < 0.0:
                    continue
                got = probe(tuple(cand.tolist()),
                            len(candidates) + round_no * k * k + i * k + j, 4)
                if got < best - 1e-12:
                    best, alpha, improved = got, cand, True
        if not improved:
            step /= 2.0
    return min(best, probe(tuple(alpha.tolist()), 0x0F1A, budget))


def _random_R_instance(rng, trial):
    m = int(rng.integers(1, 6))
    k = int(rng.integers(1, 4))
    w = rng.dirichlet(np.ones(m))
    vals = rng.uniform(0.0, 1.0, (m, m))
    vals = (vals + vals.T) / 2
    p = rng.uniform(0.05, 0.95, (k, k))
    p = (p + p.T) / 2
    if trial % 3 == 0:
        # 0/1 entries in p, and values that meet some of them exactly
        p = np.where(np.triu(rng.random((k, k)) < 0.4), np.round(p), p)
        p = np.triu(p) + np.triu(p, 1).T
        vals = np.where(np.triu(rng.random((m, m)) < 0.4), np.round(vals), vals)
        vals = np.triu(vals) + np.triu(vals, 1).T
    return p, make_step_graphon(w, vals)


class TestRateROracle:
    """The row-simplex descent against the grid scan it replaced."""

    def test_never_above_the_grid_scan(self):
        rng = np.random.default_rng(41)
        lower = 0
        for trial in range(42):
            p, u = _random_R_instance(rng, trial)
            rep = rate_R(p, u, budget=16, seed=trial)
            want = oracle_rate_R(p, u, budget=16, seed=trial)
            assert rep.value <= want + 1e-12, (trial, rep.value, want)
            if not rep.is_finite:
                assert want == INF and rep.budget_used == 0
                continue
            lower += rep.value < want - 1e-9
            c = rep.witness_coupling.matrix
            assert np.array_equal(rep.witness_alpha.weights, PartWeights(c.sum(axis=0)).weights)
            assert coupling_entropy_objective(rep.witness_coupling, p, u) == rep.value
            j = rate_J(rep.witness_alpha.weights, p, u, budget=256, seed=trial)
            assert j.value <= rep.value + 1e-9, (trial, j.value, rep.value)
        assert lower > 0

    def test_budget_counts_descents(self, monkeypatch):
        descents = []
        inner = rates._quadratic_descent

        def counted(*args, **kwargs):
            descents.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(rates, "_quadratic_descent", counted)
        rng = np.random.default_rng(43)
        for trial in range(12):
            p, u = _random_R_instance(rng, trial)
            for budget in (1, 5, 24):
                descents.clear()
                rep = rate_R(p, u, budget=budget, seed=trial)
                assert rep.budget_used == len(descents) <= budget
        descents.clear()
        rep = rate_R([[0.0, 0.0], [0.0, 0.0]], make_step_graphon([1.0], [[0.5]]), budget=8)
        assert rep.value == INF and rep.budget_used == 0 and not descents


def oracle_hall_feasible(w, alpha, allowed):
    """Transportation feasibility of supplies w to demands alpha on a mask.

    Checks the cut condition over every subset of the smaller side, with
    tolerance 1e-12; this was ``rate_J``'s feasibility test before the
    transport fill's unmet supply replaced it.
    """
    m, k = allowed.shape
    if k > m:
        return oracle_hall_feasible(alpha, w, allowed.T)
    tol = 1e-12
    live_rows = w > 0.0
    live_cols = alpha > 0.0
    if np.any(live_rows & ~allowed.any(axis=1)):
        return False
    if np.any(live_cols & ~allowed.any(axis=0)):
        return False
    for t in cutmetric._subset_bits(k, 0, 1 << k)[1:] > 0.0:
        stuck = allowed[:, ~t].sum(axis=1) == 0
        if w[stuck & live_rows].sum() > alpha[t].sum() + tol:
            return False
    return True


class TestTransportFeasibility:
    def test_fill_agrees_with_hall(self):
        rng = np.random.default_rng(46)
        verdicts = []
        for trial in range(4000):
            m, k = (int(x) for x in rng.integers(1, 6, 2))
            w, alpha = _weights(rng, m), _weights(rng, k)
            if trial % 5 == 0:  # one part or block holds all the mass
                w = np.eye(m)[rng.integers(m)]
            elif trial % 5 == 1:
                alpha = np.eye(k)[rng.integers(k)]
            allowed = rng.random((m, k)) < rng.choice([0.3, 0.6, 0.9])
            if trial % 3 == 0:  # a row or column with every cell, or with none
                line = rng.integers(m) if trial % 2 else rng.integers(k)
                target = allowed[line] if trial % 2 else allowed[:, line]
                target[...] = bool(rng.integers(2))
            want = oracle_hall_feasible(w, alpha, allowed)
            # J's start 0 fills in scan order; later starts shuffle it
            for fill_rng in (None, np.random.default_rng(trial)):
                c = rates._transport_fill(w, alpha, allowed, fill_rng)
                assert (c is not None) == want, (trial, fill_rng, w, alpha, allowed)
                if c is not None:
                    assert np.all(c[~allowed] == 0.0)
                    np.testing.assert_allclose(c.sum(axis=1), w, rtol=0.0, atol=1e-12)
            verdicts.append(want)
        assert 1000 < sum(verdicts) < 3000


class TestRateReport:
    def test_json_finite(self):
        rep = rate_J([0.5, 0.5], TWO_CLIQUE_P, two_clique(), budget=4, seed=0)
        obj = rep.to_json()
        assert obj["value"] == rep.value
        assert isinstance(obj["witnessCoupling"], list)
        assert obj["budgetUsed"] == rep.budget_used

    def test_json_infinite(self):
        rep = rate_J([0.3, 0.7], TWO_CLIQUE_P, two_clique(), budget=4, seed=0)
        assert rep.to_json()["value"] == "inf"

    def test_json_witness_alpha(self):
        rep = rate_R(TWO_CLIQUE_P, two_clique(), budget=16, seed=0)
        wa = rep.to_json()["witnessAlpha"]
        assert isinstance(wa, list) and abs(sum(wa) - 1.0) < 1e-12


class TestObjectives:
    def test_block_entropy_matches_coupling_on_identity(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            m = int(rng.integers(1, 4))
            w = rng.dirichlet(np.ones(m))
            vals = rng.uniform(0, 1, (m, m))
            vals = (vals + vals.T) / 2
            u = make_step_graphon(w, vals)
            p = rng.uniform(0.05, 0.95, (m, m))
            p = (p + p.T) / 2
            beta = PartWeights(w)
            ident = OverlapCoupling(np.diag(w), u.parts, beta)
            a = block_entropy_objective(u, beta, p)
            b = coupling_entropy_objective(ident, p, u)
            assert abs(a - b) < 1e-12


class TestReweightWitness:
    def test_identity_is_free(self):
        u = make_step_graphon([0.3, 0.7], [[0.9, 0.2], [0.2, 0.6]])
        g = PartWeights([0.3, 0.7])
        wit = reweight_witness(g, g, [[0.8, 0.3], [0.3, 0.5]], u)
        assert wit.epsilon == 0.0 and wit.bound == 0.0
        np.testing.assert_array_equal(wit.graphon.values, u.values)

    def test_frozen_epsilon_and_bound(self):
        u = make_step_graphon([0.5, 0.5], [[0.9, 0.2], [0.2, 0.6]])
        gamma = [0.5, 0.5]
        kappa = [7.0 / 12.0, 5.0 / 12.0]
        wit = reweight_witness(gamma, kappa, [[0.8, 0.3], [0.3, 0.5]], u)
        assert abs(wit.epsilon - 1.0 / 6.0) < 1e-12
        assert abs(wit.bound - 1.0 / 3.0) < 1e-12

    def test_value_preserving_identity_random(self):
        # the internal consistency check raises if the defining identity
        # breaks, so constructing many witnesses is itself the test
        rng = np.random.default_rng(37)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            gw = rng.dirichlet(np.ones(m))
            kw = rng.dirichlet(np.ones(m))
            w = rng.dirichlet(np.ones(m))
            vals = rng.uniform(0, 1, (m, m))
            vals = (vals + vals.T) / 2
            u = make_step_graphon(w, vals)
            p = rng.uniform(0.05, 0.95, (m, m))
            p = (p + p.T) / 2
            wit = reweight_witness(gw, kw, p, u)
            assert wit.bound == 2.0 * wit.epsilon
            assert abs(wit.graphon.parts.total - 1.0) < 1e-9

    def test_zero_weight_last_block(self):
        # the overlay leaves a 5.55e-17 sliver of u's last part in the dead
        # last block, where p is 0; the identity must hold on the live blocks
        u = make_step_graphon([0.9102124855731659, 0.08978751442683416],
                              [[0.509, 0.307], [0.307, 0.703]])
        gamma = [0.4224833617041889, 0.5252428981861536, 0.0522737401096576, 0.0]
        kappa = [0.5004043840609964, 0.32966221541227164, 0.1699334005267321, 0.0]
        p = np.full((4, 4), 0.5)
        p[3, 3] = 0.0
        wit = reweight_witness(gamma, kappa, p, u)
        assert wit.epsilon == pytest.approx(kappa[2] / gamma[2] - 1.0, rel=1e-12)
        assert wit.bound == 2.0 * wit.epsilon
        # the pulled-back cost equals the reweighted cost of u on gamma's blocks
        cost = block_entropy_objective(wit.graphon, kappa[:3], p[:3, :3])
        assert cost == pytest.approx(0.013573161231833936, rel=1e-8)

    def test_rejects_mass_on_vanishing_block(self):
        u = make_step_graphon([1.0], [[0.5]])
        with pytest.raises(ValueError):
            reweight_witness(PartWeights([1.0, 0.0]),
                             PartWeights([0.5, 0.5]), [[0.5, 0.5], [0.5, 0.5]], u)


def _zero_one_heavy(rng, shape):
    """Uniform entries with about a quarter replaced by exact 0.0 or 1.0."""
    x = rng.uniform(0.0, 1.0, shape)
    pick = rng.integers(0, 8, shape)
    return np.where(pick == 0, 0.0, np.where(pick == 1, 1.0, x))


def _symmetric(x):
    return np.triu(x) + np.triu(x, 1).T


def _weights(rng, m):
    """Dirichlet weights, sometimes with one part of weight zero."""
    w = rng.dirichlet(np.ones(m))
    if m > 1 and rng.random() < 0.3:
        w[rng.integers(m)] = 0.0
        w = w / w.sum()
    return w


class _EdgeCountMod3(EventSpec):
    """A cheap non-density event: the edge count is a multiple of 3."""

    def check_graph(self, graph):
        return graph.edge_count() % 3 == 0


def _rate_search_entries():
    """sha256 of each of 600 seeded ``rate_J`` and ``rate_R`` reports.

    Part counts 1 to 5 against 1 to 3 blocks, some zero-weight parts and
    block fractions, and budgets 1 to 8.  A third of the inputs have no 0/1
    entry in p; a third put 0/1 entries in p and give every part a home block
    whose values meet them (finite values, often on rigid supports); a third
    put 0/1 entries in both (often infinite).
    """
    rng = np.random.default_rng(44)
    entries = []
    for trial in range(300):
        m, k = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        p = _symmetric(_zero_one_heavy(rng, (k, k)))
        vals = rng.uniform(0.0, 1.0, (m, m))
        if trial % 3 == 0:
            p = _symmetric(rng.uniform(0.05, 0.95, (k, k)))
        elif trial % 3 == 1:
            home = rng.integers(0, k, m)
            ph = p[np.ix_(home, home)]
            vals = np.where((ph == 0.0) | (ph == 1.0), ph, vals)
        else:
            vals = _zero_one_heavy(rng, (m, m))
        u = make_step_graphon(_weights(rng, m), _symmetric(vals))
        alpha = _weights(rng, k)
        budget = int(rng.integers(1, 9))
        for rep in (rate_J(alpha, p, u, budget=budget, seed=trial),
                    rate_R(p, u, budget=budget, seed=trial)):
            h = hashlib.sha256(repr((rep.value, rep.budget_used)).encode())
            if rep.witness_coupling is not None:
                h.update(rep.witness_coupling.matrix.tobytes())
            if rep.witness_alpha is not None:
                h.update(rep.witness_alpha.weights.tobytes())
            entries.append(h.hexdigest())
    return entries


class TestFrozenRateSearches:
    """One digest over 600 seeded J and R searches (value, budget used and
    witness bytes of each).

    Recorded (f1640a45...) before the J/R restart loop and the cut search's
    restart loop were merged.  The merged loop breaks ties in value by the
    cut search's key, the sorted list of support cells, where J and R had
    compared the 0/1 support patterns; one entry changed, the ``rate_J``
    call of trial 142 (an all-ones graphon), where two supports cost the
    same and the witness moved to the other one (e7f26a2b...).

    Re-derived when forced supports came to run one start each: in 146
    entries (76 J, 70 R) only the budget used fell.  In 18 more R entries
    the witness bytes changed too, and in 12 of those the value rose by 1
    or 2 ulp: the forced coupling, each part's weight on its one cell,
    replaced the cheapest of several float-drift copies of it.
    """

    def test_rate_J_and_rate_R(self):
        digest = hashlib.sha256("".join(_rate_search_entries()).encode()).hexdigest()
        assert digest == (
            "b73049ef885c36305d95de4c726856f845c6f623edd534a0542f1e0ea3898070")


class TestFrozenValues:
    """Digests of the entropy functionals and of mask enumeration.

    The inputs put exact 0.0 and 1.0 entries in both the probability
    matrices and the graphon values, so every 0 * inf cell and every
    infinite total is exercised.  The digests were recorded before the
    cell-entropy tables and the subset enumerations were merged, so they pin
    those paths bit for bit.  The entropy digest was re-derived once, when
    ``reweight_witness`` stopped failing on a zero-weight last block (two of
    the 60 inputs); every other entry kept its bytes.
    """

    def test_entropy_functionals(self):
        rng = np.random.default_rng(41)
        h = hashlib.sha256()
        for _ in range(60):
            m, k = (int(x) for x in rng.integers(1, 5, 2))
            u = make_step_graphon(_weights(rng, m), _symmetric(_zero_one_heavy(rng, (m, m))))
            p = _symmetric(_zero_one_heavy(rng, (k, k)))
            colours = rng.integers(0, k, m)
            h.update(repr(rate_Ik(p, ColouredStepGraphon(u, colours, num_colours=k))).encode())
            h.update(repr(block_entropy_objective(u, _weights(rng, k), p)).encode())
            gamma = _weights(rng, k)
            kappa = np.where(gamma > 0.0, rng.dirichlet(np.ones(k)), 0.0)
            wit = reweight_witness(gamma, kappa / kappa.sum(), p, u)
            h.update(repr((wit.epsilon, wit.bound)).encode())
            h.update(wit.graphon.parts.weights.tobytes())
            h.update(wit.graphon.values.tobytes())
        assert h.hexdigest() == (
            "5b9828f40760c42f79928cc4c026541ce3ff2f4d5b0846f4f55fd043fb32765c")

    def test_exact_enumeration(self):
        event = _EdgeCountMod3("ball", target=make_step_graphon([1.0], [[0.5]]), eta=0.0)
        # 2^15 and 2^17 masks (the second case with 4 pairs forced on); the
        # larger one crosses chunk boundaries of both 2^14 and 2^16 rows
        small = exact_event_logprob_block([6], [[0.35]], event)
        p = [[0.5, 0.3, 1.0], [0.3, 0.7, 0.4], [1.0, 0.4, 0.2]]
        large = exact_event_logprob_block([1, 2, 4], p, event)
        digest = hashlib.sha256(repr((small, large)).encode()).hexdigest()
        assert digest == (
            "bc51e990c5519ee6df2a3ad6cbdb26866eb521c45d97feb3e547481c2079eedb")
