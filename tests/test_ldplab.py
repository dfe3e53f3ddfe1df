import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from stepldp import ldplab
from stepldp.graphon import LabeledGraph, make_step_graphon
from scipy import optimize
from scipy.special import logsumexp

from stepldp.ldplab import (
    FFT_LENGTH_CAP,
    BlockFamily,
    EventSpec,
    GnpFamily,
    WRandomFamily,
    _binomial_logpmf,
    _pair_classes,
    binomial_tail_logprob,
    block_density_rate,
    check_method,
    density_logprob_block,
    exact_event_logprob_block,
    exact_event_logprob_wrandom,
    gnp_density_rate,
    ldp_curve,
    mc_event_logprob,
    predicted_rate,
    tilted_density_logprob_block,
)
from stepldp.rates import rel_entropy
from stepldp.samplers import apportion_counts, sample_block


def frac_binomial_tail(m, p_frac, k_min):
    """Exact upper-tail binomial probability in rational arithmetic."""
    total = Fraction(0)
    for k in range(k_min, m + 1):
        total += (math.comb(m, k) * p_frac ** k * (1 - p_frac) ** (m - k))
    return total


def brute_density_logprob(counts, p, event):
    """Direct enumeration over all 2^M graphs; M must stay small."""
    counts = np.asarray(counts, dtype=int)
    p = np.asarray(p, dtype=float)
    types = np.repeat(np.arange(counts.size), counts)
    n = types.size
    iu, ju = np.triu_indices(n, 1)
    probs = p[types[iu], types[ju]]
    m = probs.size
    total = 0.0
    for bits in itertools.product([0, 1], repeat=m):
        b = np.array(bits)
        density = b.sum() / m
        if not event.check_density(density):
            continue
        pr = np.prod(np.where(b == 1, probs, 1 - probs))
        total += pr
    return math.log(total) if total > 0 else -math.inf


def log_convolve(la, lb):
    """Log-space convolution of two log-mass vectors."""
    out = np.full(la.size + lb.size - 1, -np.inf)
    for i in range(la.size):
        if np.isneginf(la[i]):
            continue
        seg = out[i : i + lb.size]
        np.logaddexp(seg, la[i] + lb, out=seg)
    return out


def convolution_logprob(counts, p, event):
    """A density event's log probability by direct log-space convolution.

    Every pair class's binomial law is convolved in, forced classes too, in
    O(N^2) for N pairs, and the passing counts are found one at a time.
    """
    counts = np.asarray(counts, dtype=int)
    n = int(counts.sum())
    total_pairs = n * (n - 1) // 2
    dist = np.zeros(1)
    for prob, mult in _pair_classes(counts, np.asarray(p, dtype=float)):
        dist = log_convolve(dist, _binomial_logpmf(mult, prob))
    keep = [e for e in range(dist.size) if event.check_density(e / total_pairs)]
    if not keep or np.all(np.isneginf(dist[keep])):
        return -math.inf
    return float(logsumexp(dist[keep]))


def close_to_oracle(got, want):
    """Agreement to 1e-10 relative; near 0 the oracle's own log-space
    rounding (up to 1.3e-13 on near-certain events) sets a 1e-12 floor."""
    if math.isinf(want):
        return got == want
    return abs(got - want) <= 1e-10 * abs(want) + 1e-12


class TestEventSpec:
    def test_density_validation(self):
        with pytest.raises(ValueError):
            EventSpec("density-ge")
        with pytest.raises(ValueError):
            EventSpec("density-le", r=1.5)
        with pytest.raises(ValueError):
            EventSpec("nonsense", r=0.5)

    def test_ball_validation(self):
        u = make_step_graphon([1.0], [[0.5]])
        with pytest.raises(ValueError):
            EventSpec("ball", target=u)
        with pytest.raises(ValueError):
            EventSpec("ball", target=u, eta=-0.1)
        EventSpec("ball", target=u, eta=0.2)  # fine

    def test_check_density_direction(self):
        ge = EventSpec("density-ge", r=0.5)
        le = EventSpec("density-le", r=0.5)
        assert ge.check_density(0.5) and le.check_density(0.5)
        assert ge.check_density(0.7) and not le.check_density(0.7)
        assert not ge.check_density(0.3) and le.check_density(0.3)

    def test_check_graph_ball(self):
        # the empirical graphon of a graph has zero diagonal cells, so a
        # 6-clique sits exactly 1/6 away from the constant-one graphon
        u = make_step_graphon([1.0], [[1.0]])
        ev = EventSpec("ball", target=u, eta=0.2)
        clique = sample_block([6], [[1.0]], seed=0)
        empty = sample_block([6], [[0.0]], seed=0)
        assert ev.check_graph(clique)
        assert not ev.check_graph(empty)


class TestBinomialTail:
    def test_frozen_values(self):
        # all six edges of a 4-vertex fair graph: (1/2)^6
        assert abs(binomial_tail_logprob(6, 0.5, 6) - math.log(1 / 64)) < 1e-15
        assert abs(binomial_tail_logprob(6, 0.5, 5) - math.log(7 / 64)) < 1e-14

    def test_rational_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            m = int(rng.integers(1, 30))
            num = int(rng.integers(1, 10))
            den = int(rng.integers(num + 1, 12))
            k_min = int(rng.integers(0, m + 1))
            pf = Fraction(num, den)
            want = frac_binomial_tail(m, pf, k_min)
            got = binomial_tail_logprob(m, float(pf), k_min)
            if want == 0:
                assert got == -math.inf
            else:
                assert abs(got - math.log(want)) < 1e-10

    def test_degenerate_p(self):
        assert binomial_tail_logprob(5, 1.0, 5) == 0.0
        assert binomial_tail_logprob(5, 0.0, 1) == -math.inf
        assert binomial_tail_logprob(5, 0.0, 0) == 0.0


class TestDensityLogprobBlock:
    def test_single_class_fast_path(self):
        ev = EventSpec("density-ge", r=0.8)
        got = density_logprob_block([5], [[0.5]], ev)
        # 10 pairs, need >= 8 edges
        want = binomial_tail_logprob(10, 0.5, 8)
        assert got == want

    def test_two_class_against_brute(self):
        p = np.array([[0.6, 0.3], [0.3, 0.8]])
        for r, kind in [(0.5, "density-ge"), (0.5, "density-le"),
                        (0.3, "density-ge"), (0.9, "density-le")]:
            ev = EventSpec(kind, r=r)
            got = density_logprob_block([2, 2], p, ev)
            want = brute_density_logprob([2, 2], p, ev)
            assert abs(got - want) < 1e-10, (kind, r, got, want)

    def test_threshold_semantics_match_float_density(self):
        # the passing set is decided by the same float comparison the
        # graph's density method uses, including awkward thresholds
        p = np.array([[0.5]])
        counts = [5]  # 10 pairs
        for r in [0.0, 0.1, 0.15, 0.3, 0.7000000000000001, 1.0]:
            ev = EventSpec("density-ge", r=r)
            want_mass = sum(
                math.comb(10, e) * 0.5 ** 10
                for e in range(11) if (e / 10) >= r
            )
            got = density_logprob_block(counts, p, ev)
            if want_mass == 0:
                assert got == -math.inf
            else:
                assert abs(got - math.log(want_mass)) < 1e-12


class TestFftDensityLaw:
    def random_layout(self, rng):
        k = int(rng.integers(2, 5))
        counts = rng.integers(0, 10, size=k)
        counts[0] += 2
        p = rng.uniform(0.02, 0.98, (k, k))
        p = (p + p.T) / 2
        if rng.random() < 0.4:  # force a class to 0 or 1
            i, j = rng.integers(0, k, 2)
            p[i, j] = p[j, i] = float(rng.integers(0, 2))
        return counts, p

    def test_matches_log_space_convolution(self):
        rng = np.random.default_rng(8)
        seen = {"density-ge": 0, "density-le": 0, "forced": 0, "typical": 0,
                "atypical": 0}
        for _ in range(250):
            counts, p = self.random_layout(rng)
            kind = "density-ge" if rng.random() < 0.5 else "density-le"
            ev = EventSpec(kind, r=float(rng.random()))
            got = density_logprob_block(counts, p, ev)
            want = convolution_logprob(counts, p, ev)
            assert close_to_oracle(got, want), (counts, p, ev, got, want)
            assert got <= 0.0
            seen[kind] += 1
            seen["forced"] += bool(np.any((p == 0.0) | (p == 1.0)))
            seen["typical" if want > math.log(0.5) else "atypical"] += 1
        assert min(seen.values()) >= 20, seen

    def test_certain_and_impossible_events(self):
        p = np.array([[0.6, 0.0], [0.0, 0.3]])
        for kind, r in [("density-ge", 0.0), ("density-le", 1.0)]:
            assert density_logprob_block([3, 4], p, EventSpec(kind, r=r)) == 0.0
        # the 12 cross pairs never appear, so at most 9 of 21 pairs are edges
        impossible = EventSpec("density-ge", r=10 / 21)
        assert density_logprob_block([3, 4], p, impossible) == -math.inf
        assert convolution_logprob([3, 4], p, impossible) == -math.inf
        assert density_logprob_block([3, 4], p, EventSpec("density-ge", r=9 / 21)) \
            == 3 * math.log(0.6) + 6 * math.log(0.3)

    def test_windows_at_no_free_edge_and_every_free_edge(self):
        # 3 forced pairs inside block 0, 9 cross pairs at 0.3, 3 at 0.5
        p = np.array([[1.0, 0.3], [0.3, 0.5]])
        counts = [3, 3]
        for ev, want in [(EventSpec("density-le", r=3 / 15),
                          9 * math.log1p(-0.3) + 3 * math.log1p(-0.5)),
                         (EventSpec("density-ge", r=1.0),
                          9 * math.log(0.3) + 3 * math.log(0.5))]:
            got = density_logprob_block(counts, p, ev)
            assert got == want
            assert close_to_oracle(got, convolution_logprob(counts, p, ev))

    def test_typical_side_thresholds(self):
        # the mean density 0.3399 already passes, so the law is convolved
        # untilted
        p = np.array([[0.7, 0.2, 0.4], [0.2, 0.6, 0.1], [0.4, 0.1, 0.5]])
        counts = [6, 7, 5]
        for kind, r in [("density-ge", 0.2), ("density-ge", 0.33),
                        ("density-le", 0.35), ("density-le", 0.5)]:
            ev = EventSpec(kind, r=r)
            got = density_logprob_block(counts, p, ev)
            want = convolution_logprob(counts, p, ev)
            assert math.log(0.5) < want < 0.0
            assert close_to_oracle(got, want), (kind, r, got, want)

    def test_larger_layout(self):
        # 2,016 pairs in six classes, deep in both tails
        p = np.array([[0.6, 0.1, 0.2], [0.1, 0.5, 0.15], [0.2, 0.15, 0.55]])
        for ev in (EventSpec("density-ge", r=0.5), EventSpec("density-le", r=0.15)):
            got = density_logprob_block([21, 21, 22], p, ev)
            want = convolution_logprob([21, 21, 22], p, ev)
            assert want < -100.0
            assert close_to_oracle(got, want), (ev, got, want)

    def test_fft_cap(self):
        fam = BlockFamily(alpha=(0.5, 0.5), p=((0.7, 0.1), (0.1, 0.7)))
        ev = EventSpec("density-ge", r=0.55)
        # 2050 vertices have 2,100,225 free pairs, past the 2^21 - 1 the cap admits
        assert 2050 * 2049 // 2 >= FFT_LENGTH_CAP > 2048 * 2047 // 2
        with pytest.raises(ValueError, match="FFT cap"):
            density_logprob_block(fam.counts_for(2050)[0], np.asarray(fam.p), ev)
        with pytest.raises(ValueError, match="FFT cap"):
            ldp_curve(fam, ev, [2050], method="exact")
        (pt,) = ldp_curve(fam, ev, [2050], method="auto", num_samples=50, seed=0)
        assert pt["method"] == "tilted" and pt["samples"] == 50
        # one pair probability is a binomial tail at any size
        (pt,) = ldp_curve(GnpFamily(0.5), ev, [2050], method="auto")
        assert pt["method"] == "exact"


    def test_fft_cap_counts_only_convolutions(self):
        fam = BlockFamily(alpha=(0.5, 0.5), p=((0.7, 0.1), (0.1, 0.7)))
        p = np.asarray(fam.p)
        counts = fam.counts_for(2050)[0]
        ev = EventSpec("density-ge", r=0.55)
        assert ldplab._pairs_past_fft_cap(counts, p, ev) == 2050 * 2049 // 2
        assert ldplab._pairs_past_fft_cap(fam.counts_for(2048)[0], p, ev) == 0
        # a certain event is a closed form past the cap, so exact still runs
        certain = EventSpec("density-ge", r=0.0)
        assert ldplab._pairs_past_fft_cap(counts, p, certain) == 0
        (pt,) = ldp_curve(fam, certain, [2050], method="exact")
        assert pt["logprob"] == 0.0 and pt["method"] == "exact"
        # the sizes are checked before any point is computed
        with pytest.raises(ValueError, match="at n=2050"):
            check_method(fam, ev, "exact", [4, 2050])
        check_method(fam, ev, "tilted", [4, 2050])

    def test_density_sizes_below_two_are_rejected(self):
        ev = EventSpec("density-le", r=0.5)
        fams = (GnpFamily(0.5), WRandomFamily(make_step_graphon([1.0], [[0.5]])))
        for fam in fams:
            for method in ("auto", "exact", "mc"):
                with pytest.raises(ValueError, match="at least two vertices, got n=1"):
                    ldp_curve(fam, ev, [4, 1], method=method, num_samples=5)
        ball = EventSpec("ball", target=make_step_graphon([1.0], [[0.5]]), eta=0.4)
        check_method(GnpFamily(0.5), ball, "mc", [1])


class TestExactEventLogprob:
    def test_density_routes_to_closed_form(self):
        ev = EventSpec("density-ge", r=0.5)
        p = np.array([[0.4, 0.2], [0.2, 0.7]])
        a = exact_event_logprob_block([2, 3], p, ev)
        b = density_logprob_block([2, 3], p, ev)
        assert a == b

    def test_ball_enumeration_total_mass(self):
        # eta large enough that every graph qualifies: probability one
        u = make_step_graphon([1.0], [[0.5]])
        ev = EventSpec("ball", target=u, eta=10.0)
        assert abs(exact_event_logprob_block([4], [[0.3]], ev)) < 1e-12

    def test_certain_event_logprob_is_zero(self):
        # summing every mask (block) or every type count (wrandom) of a
        # certain event rounded to 2.0e-16 and 2.2e-16 before the clamp
        flat = make_step_graphon([1.0], [[0.5]])
        ev = EventSpec("ball", target=flat, eta=10.0)
        got = exact_event_logprob_block([5], [[0.5]], ev)
        assert got <= 0.0
        assert got == 0.0
        cliques = make_step_graphon([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        ev = EventSpec("ball", target=cliques, eta=0.3)
        got = exact_event_logprob_wrandom(4, cliques, ev)
        assert got <= 0.0
        assert got == 0.0
        (pt,) = ldp_curve(WRandomFamily(cliques), ev, [4], method="exact")
        assert pt["logprob"] == 0.0
        assert math.copysign(1.0, pt["normalized"]) == 1.0

    def test_ball_enumeration_forced_pairs(self):
        # pairs at probability exactly 0 or 1 are factored out of the
        # enumeration; brute force over every pair must agree
        u = make_step_graphon([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        ev = EventSpec("ball", target=u, eta=0.25, search_restarts=4)
        p = np.array([[1.0, 0.4], [0.4, 0.0]])
        counts = [2, 2]
        got = exact_event_logprob_block(counts, p, ev)
        types = np.repeat([0, 1], 2)
        iu, ju = np.triu_indices(4, 1)
        probs = p[types[iu], types[ju]]
        total = 0.0
        for bits in itertools.product([0, 1], repeat=6):
            b = np.array(bits)
            pr = float(np.prod(np.where(b == 1, probs, 1 - probs)))
            if pr == 0.0:
                continue
            edges = [(int(s), int(t))
                     for s, t, keep in zip(iu, ju, b) if keep]
            if ev.check_graph(LabeledGraph(4, edges)):
                total += pr
        assert 0.0 < total < 1.0  # the event must be nondegenerate
        assert abs(got - math.log(total)) < 1e-10

    def test_wrandom_against_brute(self):
        u = make_step_graphon([0.4, 0.6], [[0.9, 0.2], [0.2, 0.7]])
        ev = EventSpec("density-ge", r=0.5)
        n = 4
        got = exact_event_logprob_wrandom(n, u, ev)
        # brute force over all type vectors
        w = u.parts.weights
        total = 0.0
        for tv in itertools.product(range(2), repeat=n):
            tv = np.array(tv)
            counts = np.bincount(tv, minlength=2)
            p_tv = float(np.prod(w[tv]))
            cond = brute_density_logprob(counts, u.values, ev)
            total += p_tv * math.exp(cond)
        assert abs(got - math.log(total)) < 1e-10


class TestMonteCarlo:
    def test_matches_exact_within_3_sigma(self):
        p = np.array([[0.5]])
        counts = np.array([8])
        ev = EventSpec("density-ge", r=0.6)
        exact = density_logprob_block(counts, p, ev)

        def draw(seed):
            return sample_block(counts, p, seed=seed)

        est = mc_event_logprob(draw, ev, num_samples=4000, seed=0)
        assert est["method"] == "mc"
        assert est["hits"] > 0
        z = abs(est["logprob"] - exact) / est["stderrLog"]
        assert z < 3.0, (est, exact)

    def test_zero_hits(self):
        p = np.array([[0.0]])
        ev = EventSpec("density-ge", r=0.5)

        def draw(seed):
            return sample_block([5], p, seed=seed)

        est = mc_event_logprob(draw, ev, num_samples=50, seed=1)
        assert est["logprob"] == -math.inf
        assert est["hits"] == 0


class TestTilted:
    def test_matches_exact_within_3_sigma(self):
        p = np.array([[0.5]])
        counts = np.array([10])
        ev = EventSpec("density-ge", r=0.8)
        exact = density_logprob_block(counts, p, ev)
        est = tilted_density_logprob_block(counts, p, ev, num_samples=20000, seed=3)
        assert est["method"] == "tilted"
        z = abs(est["logprob"] - exact) / est["stderrLog"]
        assert z < 3.0, (est, exact)

    def test_two_class_matches_exact(self):
        p = np.array([[0.6, 0.2], [0.2, 0.5]])
        counts = np.array([4, 4])
        ev = EventSpec("density-le", r=0.2)
        exact = density_logprob_block(counts, p, ev)
        est = tilted_density_logprob_block(counts, p, ev, num_samples=40000, seed=5)
        z = abs(est["logprob"] - exact) / est["stderrLog"]
        assert z < 3.5, (est, exact)

    def test_common_tilt_on_heterogeneous_blocks(self):
        # tilting every class to the threshold density r was off by 15 nats
        # at n=20 and 1,600 at n=120 here; the common theta is unbiased
        p = np.array([[0.7, 0.1], [0.1, 0.7]])
        ev = EventSpec("density-ge", r=0.55)
        for n in (20, 120):
            counts = np.array([n // 2, n // 2])
            exact = density_logprob_block(counts, p, ev)
            est = tilted_density_logprob_block(counts, p, ev, num_samples=20000, seed=11)
            assert est["method"] == "tilted"
            z = abs(est["logprob"] - exact) / est["stderrLog"]
            assert z < 3.0, (n, est, exact)

    def test_degenerate_threshold_falls_back_exact(self):
        p = np.array([[0.5]])
        ev = EventSpec("density-ge", r=1.0)
        est = tilted_density_logprob_block(np.array([4]), p, ev,
                                           num_samples=10, seed=0)
        assert est["method"] == "exact"
        assert est["stderrLog"] == 0.0
        assert abs(est["logprob"] - 6 * math.log(0.5)) < 1e-12


class TestGnpDensityRate:
    def test_atypical_side(self):
        assert gnp_density_rate(0.5, 0.8) == 0.5 * rel_entropy(0.5, 0.8)
        assert gnp_density_rate(0.5, 0.2, kind="density-le") == \
            0.5 * rel_entropy(0.5, 0.2)

    def test_typical_side_is_zero(self):
        assert gnp_density_rate(0.5, 0.3) == 0.0
        assert gnp_density_rate(0.5, 0.7, kind="density-le") == 0.0
        assert gnp_density_rate(0.5, 0.5) == 0.0


class TestBlockDensityRate:
    def test_one_pair_probability_is_gnp(self):
        for alpha, p in [([1.0], [[0.4]]), ([0.3, 0.7], [[0.4, 0.4], [0.4, 0.4]])]:
            for kind, r in [("density-ge", 0.7), ("density-le", 0.1), ("density-ge", 0.2)]:
                assert block_density_rate(alpha, p, r, kind) == gnp_density_rate(0.4, r, kind)

    def test_typical_boundary_and_unreachable(self):
        p = [[0.7, 0.0], [0.0, 0.7]]
        assert block_density_rate([0.5, 0.5], p, 0.3) == 0.0
        assert block_density_rate([0.5, 0.5], p, 0.4, "density-le") == 0.0
        # density 0.5 needs every within-block pair; the cross half is empty
        assert abs(block_density_rate([0.5, 0.5], p, 0.5) + 0.25 * math.log(0.7)) < 1e-16
        assert block_density_rate([0.5, 0.5], p, 0.51) == math.inf
        with pytest.raises(ValueError):
            block_density_rate([0.5, 0.5], p, 0.5, "ball")

    def test_minimizes_entropy_at_the_threshold_density(self):
        # the rate is min 1/2 sum_ij a_i a_j h_p_ij(rho_ij) over cell
        # densities rho with mean density r, found here by SLSQP
        rng = np.random.default_rng(4)
        for _ in range(4):
            alpha = rng.dirichlet(np.ones(3))
            p = rng.uniform(0.05, 0.95, (3, 3))
            p = (p + p.T) / 2
            w = np.outer(alpha, alpha).ravel()
            mean = float(w @ p.ravel())
            for kind, r in [("density-ge", mean + 0.1), ("density-le", mean - 0.1)]:
                def cost(rho):
                    return 0.5 * sum(wc * rel_entropy(q, x)
                                     for wc, q, x in zip(w, p.ravel(), rho))
                res = optimize.minimize(
                    cost, np.full(9, r), method="SLSQP", bounds=[(1e-9, 1 - 1e-9)] * 9,
                    constraints=[{"type": "eq", "fun": lambda rho: w @ rho - r}],
                    options={"ftol": 1e-14, "maxiter": 500})
                assert res.success
                got = block_density_rate(alpha, p, r, kind)
                assert abs(got - res.fun) < 1e-9 * res.fun, (kind, got, res.fun)

    def test_irrational_block_ratios(self):
        # block ratios 1/sqrt(2) and 1 - 1/sqrt(2): the apportioned exact
        # curve approaches the predicted rate (gaps 3.7 %, 0.86 %, 0.18 %)
        a = 1.0 / math.sqrt(2.0)
        fam = BlockFamily(alpha=(a, 1.0 - a), p=((0.7, 0.1), (0.1, 0.7)))
        ev = EventSpec("density-ge", r=0.55)
        rate = predicted_rate(fam, ev, budget=1, seed=0)
        assert rate == block_density_rate(np.array([a, 1.0 - a]), fam.p, 0.55)
        gaps = []
        for n in (100, 400, 800):
            counts = apportion_counts(n, np.array([a, 1.0 - a]))
            assert counts[0] * counts[1] > 0
            normalized = -density_logprob_block(counts, np.asarray(fam.p), ev) / n ** 2
            gaps.append(abs(normalized - rate) / rate)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 0.005, gaps


class TestLdpCurve:
    def test_exact_method_and_shape(self):
        fam = GnpFamily(0.5)
        ev = EventSpec("density-ge", r=0.8)
        pts = ldp_curve(fam, ev, [6, 10, 14], method="exact", seed=0)
        assert [pt["n"] for pt in pts] == [6, 10, 14]
        for pt in pts:
            assert pt["method"] == "exact"
            assert pt["stderrLog"] == 0.0
            want = density_logprob_block([pt["n"]], [[0.5]], ev)
            assert pt["logprob"] == want
            assert abs(pt["normalized"] + pt["logprob"] / pt["n"] ** 2) < 1e-15

    def test_normalized_approaches_rate(self):
        fam = GnpFamily(0.5)
        ev = EventSpec("density-ge", r=0.8)
        pts = ldp_curve(fam, ev, [40, 80], method="exact", seed=0)
        rate = gnp_density_rate(0.5, 0.8)
        errs = [abs(pt["normalized"] - rate) / rate for pt in pts]
        assert max(errs) < 0.01

    def test_auto_routing(self):
        fam = GnpFamily(0.5)
        ev = EventSpec("density-ge", r=0.8)
        pts = ldp_curve(fam, ev, [10], method="auto", seed=0)
        assert pts[0]["method"] == "exact"
        ball = EventSpec("ball", target=make_step_graphon([1.0], [[0.5]]), eta=0.4)
        pts = ldp_curve(fam, ball, [5], method="auto", seed=0)
        assert pts[0]["method"] == "enum"
        pts = ldp_curve(fam, ball, [30], method="auto", num_samples=200, seed=0)
        assert pts[0]["method"] == "mc"

    def test_method_rules_checked_before_any_point(self):
        ball = EventSpec("ball", target=make_step_graphon([1.0], [[0.5]]), eta=0.4)
        density = EventSpec("density-ge", r=0.8)
        block = BlockFamily(alpha=(0.5, 0.5), p=((0.7, 0.2), (0.2, 0.7)))
        with pytest.raises(ValueError, match="method must be auto, exact, enum, tilted, or mc"):
            ldp_curve(GnpFamily(0.5), density, [6], method="magic")
        for fam in (GnpFamily(0.5), block):
            with pytest.raises(ValueError, match="covers density events only"):
                ldp_curve(fam, ball, [4], method="exact")
        # the step-graphon law enumerates block counts, so exact covers balls
        wrandom = WRandomFamily(make_step_graphon([1.0], [[0.5]]))
        check_method(wrandom, ball, "exact")
        with pytest.raises(ValueError, match="tilted sampling requires a fixed block layout"):
            check_method(wrandom, density, "tilted")
        for fam in (GnpFamily(0.5), block):
            check_method(fam, density, "tilted")
            with pytest.raises(ValueError, match="tilted sampling handles density events only"):
                check_method(fam, ball, "tilted")

    def test_block_family(self):
        fam = BlockFamily(alpha=(0.5, 0.5), p=((0.7, 0.2), (0.2, 0.7)))
        ev = EventSpec("density-le", r=0.2)
        pts = ldp_curve(fam, ev, [8], method="exact", seed=0)
        counts = fam.counts_for(8)[0]
        want = exact_event_logprob_block(counts, np.asarray(fam.p), ev)
        assert pts[0]["logprob"] == want

    def test_wrandom_family_auto_exact(self):
        u = make_step_graphon([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])
        fam = WRandomFamily(u)
        ev = EventSpec("density-ge", r=0.7)
        pts = ldp_curve(fam, ev, [6], method="auto", seed=0)
        assert pts[0]["method"] == "exact"
        want = exact_event_logprob_wrandom(6, u, ev)
        assert pts[0]["logprob"] == want

    def test_deterministic(self):
        fam = GnpFamily(0.3)
        ev = EventSpec("density-ge", r=0.6)
        a = ldp_curve(fam, ev, [12, 16], method="tilted", num_samples=500, seed=7)
        b = ldp_curve(fam, ev, [12, 16], method="tilted", num_samples=500, seed=7)
        assert a == b

    def test_tilted_tracks_exact(self):
        fam = GnpFamily(0.5)
        ev = EventSpec("density-ge", r=0.8)
        ex = ldp_curve(fam, ev, [20], method="exact", seed=0)[0]
        ti = ldp_curve(fam, ev, [20], method="tilted", num_samples=20000, seed=1)[0]
        z = abs(ti["logprob"] - ex["logprob"]) / ti["stderrLog"]
        assert z < 3.0
