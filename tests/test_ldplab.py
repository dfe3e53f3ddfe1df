import hashlib
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

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("m", [0, 1, 7, 40])
    def test_edges_of_the_window(self, m, p):
        # every k_min at or past an end of 0..m, at every kind of coin
        for k_min in sorted({-1, 0, 1, math.ceil(m / 2), m, m + 1}):
            got = binomial_tail_logprob(m, p, k_min)
            if k_min <= 0:
                assert got == 0.0
            elif k_min > m or p == 0.0:
                assert got == -math.inf
            elif k_min == m and p < 1.0:
                assert got == m * math.log(p)
            else:
                assert abs(got - math.log(frac_binomial_tail(m, Fraction(p), k_min))) < 1e-12


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

        def refusal(counts, event):
            return ldplab._exact_law_refusal(*ldplab._density_window(counts, p, event))

        assert refusal(counts, ev) == "%d free pairs exceed the FFT cap of %d" % (
            2050 * 2049 // 2, FFT_LENGTH_CAP - 1)
        assert refusal(fam.counts_for(2048)[0], ev) is None
        # a certain event is a closed form past the cap, so exact still runs
        certain = EventSpec("density-ge", r=0.0)
        assert refusal(counts, certain) is None
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


def oracle_log_mgf(p, theta):
    """The log moment generating function as stated once per coin and call."""
    if theta == 0.0:
        return 0.0
    a, b = math.log1p(-p), math.log(p) + theta
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


def oracle_tilted_prob(p, theta):
    return p if theta == 0.0 else math.exp(math.log(p) + theta - oracle_log_mgf(p, theta))


def oracle_window_tilt(free, lo, hi):
    """The window tilt by exactly 100 bisection steps, every log taken at every step."""
    mean = sum(prob * w for prob, w in free)
    if lo <= mean <= hi:
        return 0.0
    target = lo if mean < lo else hi
    bound = max(abs(math.log(prob) - math.log1p(-prob)) for prob, _ in free) + 40.0
    below, above = -bound, bound
    for _ in range(100):
        mid = 0.5 * (below + above)
        if sum(w * oracle_tilted_prob(prob, mid) for prob, w in free) < target:
            below = mid
        else:
            above = mid
    return 0.5 * (below + above)


def oracle_binomial_logpmf(m, p, theta):
    """log P(Bin(m, p_theta) = k) for k = 0..m, its log binomials built for this class alone."""
    from scipy.special import gammaln

    k = np.arange(m + 1)
    lm = oracle_log_mgf(p, theta)
    return (gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
            + k * (math.log(p) + theta - lm) + (m - k) * (math.log1p(-p) - lm))


def oracle_fft_window_logprob(free, lo, hi):
    """The FFT window law with one tilt by ``oracle_window_tilt`` and one pmf per class."""
    length = min((1 << (sum(m for _, m in free) // d).bit_length()) * d
                 for d in ldplab._FFT_FACTORS)
    theta = oracle_window_tilt(free, lo, hi)
    spec = np.ones(length // 2 + 1, dtype=complex)
    for prob, mult in free:
        spec *= np.fft.rfft(np.exp(oracle_binomial_logpmf(mult, prob, theta)), length)
    law = np.maximum(np.fft.irfft(spec, length)[lo : hi + 1], 0.0)
    anchor = lo if theta > 0.0 else hi
    mass = float(law @ np.exp(-theta * np.arange(lo - anchor, hi - anchor + 1)))
    log_norm = sum(mult * oracle_log_mgf(prob, theta) for prob, mult in free)
    return min(math.log(mass) - theta * anchor + log_norm, 0.0)


class TestExactLawOracles:
    """The exact density law against copies of its per-step, per-class form.

    The bisection stops at its fixed point and the log binomials are shared
    between classes of one multiplicity; neither may move a bit.
    """

    def windows(self, rng, free):
        """Windows below, above and around the mean of ``free``'s integer count."""
        span = sum(m for _, m in free)
        mean = sum(p * m for p, m in free)
        lo_tail = int(rng.integers(0, max(int(mean * 0.8), 1)))
        hi_tail = int(rng.integers(min(int(mean * 1.2) + 1, span), span + 1))
        return [(0, lo_tail), (hi_tail, span), (int(mean * 0.9), min(int(mean * 1.1) + 1, span))]

    def test_window_tilt_on_integer_multiplicities(self):
        rng = np.random.default_rng(28)
        seen_zero = 0
        for case in range(120):
            k = int(rng.integers(1, 7))
            probs = rng.uniform(0.01, 0.99, k)
            if case % 5 == 0:
                probs[0] = 1e-12
            if case % 7 == 0:
                probs[-1] = 1.0 - 1e-12
            free = list(zip(probs.tolist(), rng.integers(1, 5000, k).tolist()))
            for lo, hi in self.windows(rng, free):
                want = oracle_window_tilt(free, lo, hi)
                assert ldplab._window_tilt(free, lo, hi) == want, (free, lo, hi)
                seen_zero += want == 0.0
        assert seen_zero >= 100

    def test_window_tilt_on_rate_weights(self):
        # block_density_rate passes float weights alpha_i alpha_j and float ends
        rng = np.random.default_rng(29)
        for _ in range(150):
            k = int(rng.integers(1, 5))
            weights = rng.dirichlet(np.ones(k * (k + 1) // 2))
            probs = rng.uniform(1e-9, 1.0 - 1e-9, weights.size)
            free = list(zip(probs.tolist(), weights.tolist()))
            mean = float(probs @ weights)
            r = float(rng.uniform(0.0, 1.0))
            for lo, hi in ((max(r, 0.0), 1.0), (0.0, min(r, 1.0)), (mean, mean)):
                assert ldplab._window_tilt(free, lo, hi) == oracle_window_tilt(free, lo, hi)

    def test_fft_window_logprob(self):
        rng = np.random.default_rng(30)
        for case in range(60):
            k = int(rng.integers(2, 7))
            probs = rng.uniform(0.01, 0.99, k)
            if case % 4 == 0:
                probs[0], probs[-1] = 1e-10, 1.0 - 1e-10
            # shared multiplicities, as equal blocks give
            mults = rng.choice(rng.integers(1, 3000, 2), size=k).tolist()
            free = list(zip(probs.tolist(), mults))
            for lo, hi in self.windows(rng, free):
                if (lo, hi) == (0, sum(mults)) or hi == 0 or lo == sum(mults):
                    continue  # closed forms, never convolved
                want = oracle_fft_window_logprob(free, lo, hi)
                assert ldplab._fft_window_logprob(free, lo, hi) == want, (free, lo, hi)

    def test_one_class_window_law_evaluates_only_the_window(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            m = int(rng.integers(1, 20000))
            p = float(rng.uniform(1e-6, 1.0 - 1e-6))
            lo, hi = sorted(int(x) for x in rng.integers(0, m + 1, 2))
            if (lo, hi) == (0, m) or hi == 0 or lo == m:
                continue
            # a window holding nearly all the mass can round just above 0
            want = min(float(logsumexp(oracle_binomial_logpmf(m, p, 0.0)[lo : hi + 1])), 0.0)
            assert ldplab._window_logprob([(p, m)], (lo, hi)) == want

    def test_bisection_stops_at_its_fixed_point(self, monkeypatch):
        calls = []
        tilted_prob = ldplab._tilted_prob

        def counting(p, logs, theta):
            calls.append(theta)
            return tilted_prob(p, logs, theta)

        monkeypatch.setattr(ldplab, "_tilted_prob", counting)
        p = np.array([[0.6, 0.1, 0.2], [0.1, 0.5, 0.25], [0.2, 0.25, 0.65]])
        free, (lo, hi) = ldplab._density_window([128] * 3, p, EventSpec("density-ge", r=0.45))
        theta = ldplab._window_tilt(free, lo, hi)
        assert theta == oracle_window_tilt(free, lo, hi) > 0.0
        steps = len(calls) // len(free)
        assert len(calls) == steps * len(free)
        assert calls[0] == 0.0  # the first midpoint of the symmetric bracket
        assert 50 <= steps < 100

    def test_fft_length_memo(self):
        for span in list(range(1, 3000)) + [2048 * 2047 // 2, 2050 * 2049 // 2, 2**40 + 7]:
            want = min((1 << (span // d).bit_length()) * d for d in ldplab._FFT_FACTORS)
            assert ldplab._fft_length(span) == want
            assert ldplab._fft_length(span) == want  # the memoized answer
        assert len(ldplab._FFT_LENGTHS) <= 4096

    def test_no_module_array_outlives_a_law(self):
        p = np.array([[0.6, 0.1, 0.2], [0.1, 0.5, 0.25], [0.2, 0.25, 0.65]])
        assert density_logprob_block([128] * 3, p, EventSpec("density-ge", r=0.45)) < -100.0

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, dict):
                for v in itertools.chain(value.keys(), value.values()):
                    yield from arrays(v)
            elif isinstance(value, (list, tuple, set, frozenset)):
                for v in value:
                    yield from arrays(v)

        for name, value in vars(ldplab).items():
            for arr in arrays(value):
                assert arr.nbytes <= 1024, name
        memo = ldplab._FFT_LENGTHS
        assert memo and all(type(k) is int and type(v) is int for k, v in memo.items())


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
        ev = EventSpec("ball", target=u, eta=0.25)
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

    def test_wrandom_density_refusal_advises_mc(self):
        # tilted sampling needs a fixed block layout, so only mc can run it
        u2 = make_step_graphon([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])
        with pytest.raises(ValueError) as info:
            exact_event_logprob_wrandom(3000, u2, EventSpec("density-ge", r=0.7))
        assert str(info.value) == ("exact density law: 4498500 free pairs exceed the FFT cap "
                                   "of 2097151; use mc")

    def test_wrandom_density_refuses_before_any_window_law(self, monkeypatch):
        # the layout of all 3000 vertices in one part fits the binomial cap
        # and comes first; its 4.5M-entry law must not be built before the
        # next layout is refused
        calls = []
        monkeypatch.setattr(ldplab, "_window_logprob", lambda *args: calls.append(args))
        u2 = make_step_graphon([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])
        with pytest.raises(ValueError, match="4498500 free pairs exceed the FFT cap"):
            exact_event_logprob_wrandom(3000, u2, EventSpec("density-ge", r=0.7))
        assert calls == []

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

    def test_stderr_at_huge_n(self):
        # the log weights sit near -1.9e17, where log(num_samples) is below
        # one ulp; 3 hits of 10 gave stderrLog 0.0
        p = np.array([[0.4, 0.3], [0.3, 0.6]])
        ev = EventSpec("density-ge", r=0.5)
        est = tilted_density_logprob_block([2 ** 32 - 3, 2], p, ev, num_samples=10, seed=0)
        assert est["method"] == "tilted" and est["hits"] == 3
        assert est["stderrLog"] > 0.0

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

    def test_gnp_is_the_one_class_case(self):
        # h_p(r) / 2 is written once: G(n, p), one block of p and two blocks
        # whose second has weight 0 agree exactly, 0.0 and inf included
        for p in (0.0, 0.3, 1.0):
            for r in (0.0, p, 0.7, 1.0):
                for kind in ("density-ge", "density-le"):
                    want = gnp_density_rate(p, r, kind)
                    assert block_density_rate([1.0], [[p]], r, kind) == want
                    assert block_density_rate([1.0, 0.0], [[p, 0.5], [0.5, 0.9]], r,
                                              kind) == want

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


class TestPredictedRate:
    def test_wrandom_ignores_zero_weight_parts(self):
        # no vertex lands in the weight-0 part, whose all-ones row would make
        # the complete graph free; every vertex has type 0, with p = 1/2
        fam = WRandomFamily(make_step_graphon([1.0, 0.0], [[0.5, 1.0], [1.0, 1.0]]))
        ev = EventSpec("ball", target=make_step_graphon([1.0], [[1.0]]), eta=0.05)
        rate = predicted_rate(fam, ev, budget=4, seed=0)
        assert abs(rate - 0.5 * rel_entropy(0.5, 1.0)) < 1e-12
        assert abs(rate - 0.5 * math.log(2.0)) < 1e-12


class TestGnpIsTheOneBlockFamily:
    """GnpFamily(p) and BlockFamily((1.0,), ((p,),)) agree wherever a family is read."""

    BALL = EventSpec("ball", target=make_step_graphon([1.0], [[0.5]]), eta=0.4)
    DENSITY = EventSpec("density-ge", r=0.6)

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_layout_and_draws(self, p):
        gnp, block = GnpFamily(p), BlockFamily((1.0,), ((p,),))
        for got, want in zip(gnp.layout(), block.layout()):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        for n in (1, 2, 17):
            (c_g, p_g), (c_b, p_b) = gnp.counts_for(n), block.counts_for(n)
            assert np.array_equal(c_g, c_b) and np.array_equal(p_g, p_b)
        (g_g, c_g), (g_b, c_b) = gnp.draw(30, 7), block.draw(30, 7)
        assert g_g.edges.tobytes() == g_b.edges.tobytes() and np.array_equal(c_g, c_b)
        rng_g, rng_b = np.random.default_rng(4), np.random.default_rng(4)
        (g_g, c_g), (g_b, c_b) = gnp.draw(30, rng_g), block.draw(30, rng_b)
        assert g_g.edges.tobytes() == g_b.edges.tobytes() and np.array_equal(c_g, c_b)
        assert rng_g.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_methods_rates_and_curves(self, p):
        gnp, block = GnpFamily(p), BlockFamily((1.0,), ((p,),))
        for ev, sizes in ((self.DENSITY, [2, 9, 2100]), (self.BALL, [3, 6, 30])):
            assert check_method(gnp, ev, "auto", sizes) == check_method(block, ev, "auto", sizes)
            assert (predicted_rate(gnp, ev, budget=2, seed=1)
                    == predicted_rate(block, ev, budget=2, seed=1))
        for ev, sizes, method in ((self.DENSITY, [4, 12], "exact"),
                                  (self.DENSITY, [20], "tilted"),
                                  (self.BALL, [4], "enum"), (self.BALL, [7], "mc")):
            assert (ldp_curve(gnp, ev, sizes, method, num_samples=20, seed=3)
                    == ldp_curve(block, ev, sizes, method, num_samples=20, seed=3))


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

    def test_ball_enumeration_refuses_large_graphs(self, monkeypatch):
        # G(n, 0) has no free pair at any n, so only the vertex bound stops
        # an enumeration that would build n(n-1)/2 pair arrays
        two = make_step_graphon([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        ball = EventSpec("ball", target=two, eta=0.3)
        limit = ldplab.ENUM_VERTEX_LIMIT
        message = "event enumeration checks graphs of at most %d vertices, got n=100000" % limit
        for method in ("enum", "exact"):
            fam = GnpFamily(0.0) if method == "enum" else WRandomFamily(two)
            with pytest.raises(ValueError, match=message):
                check_method(fam, ball, method, [4, 100000])
            check_method(fam, ball, method, [limit])
        with pytest.raises(ValueError, match=message):
            exact_event_logprob_block([100000], [[0.0]], ball)
        with pytest.raises(ValueError, match="at most %d vertices, got n=%d" % (limit, limit + 1)):
            exact_event_logprob_block([limit // 2, limit // 2 + 1], np.eye(2), ball)
        # auto samples past the bound instead of enumerating
        monkeypatch.setattr(ldplab, "ENUM_VERTEX_LIMIT", 4)
        pts = ldp_curve(GnpFamily(0.0), ball, [4, 5], method="auto", num_samples=3, seed=0)
        assert [pt["method"] for pt in pts] == ["enum", "mc"]

    def test_ball_sampling_refuses_large_graphs(self):
        two = make_step_graphon([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        ball = EventSpec("ball", target=two, eta=0.3)
        limit = ldplab.MC_VERTEX_LIMIT
        assert limit >= ldplab.ENUM_VERTEX_LIMIT  # auto enumerates below both
        message = "Monte Carlo checks ball events on at most %d vertices, got n=%d"
        for fam in (GnpFamily(0.0), WRandomFamily(two)):
            for method in ("mc", "auto"):
                with pytest.raises(ValueError, match=message % (limit, 100000)):
                    check_method(fam, ball, method, [4, 100000])
                with pytest.raises(ValueError, match=message % (limit, limit + 1)):
                    check_method(fam, ball, method, [limit + 1])
                check_method(fam, ball, method, [4, limit])
            # sampling a density event draws no cut-distance check
            check_method(fam, EventSpec("density-ge", r=0.5), "mc", [100000])
        with pytest.raises(ValueError, match=message % (limit, 100000)):
            ldp_curve(GnpFamily(0.0), ball, [100000], method="mc", num_samples=1, seed=0)

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

    # the method each accepted (family, event, method) cell reports at a small
    # size; None marks a cell check_method refuses
    METHOD_LABELS = {
        "density": {"auto": "exact", "exact": "exact", "enum": "enum", "tilted": "tilted",
                    "mc": "mc"},
        "ball": {"auto": "enum", "exact": None, "enum": "enum", "tilted": None, "mc": "mc"},
        "wrandom density": {"auto": "exact", "exact": "exact", "enum": "exact", "tilted": None,
                            "mc": "mc"},
        "wrandom ball": {"auto": "mc", "exact": "exact", "enum": "exact", "tilted": None,
                         "mc": "mc"},
    }

    @pytest.mark.parametrize("family", ["gnp", "block", "wrandom"])
    @pytest.mark.parametrize("event", ["density", "ball"])
    def test_every_cell_reports_its_method(self, family, event):
        fam = {
            "gnp": GnpFamily(0.5),
            "block": BlockFamily(alpha=(0.5, 0.5), p=((0.7, 0.2), (0.2, 0.7))),
            "wrandom": WRandomFamily(make_step_graphon([0.5, 0.5], [[0.7, 0.2], [0.2, 0.7]])),
        }[family]
        ev = (EventSpec("density-ge", r=0.8) if event == "density" else
              EventSpec("ball", target=make_step_graphon([1.0], [[0.5]]), eta=0.4))
        n = 5 if event == "density" else 4
        labels = self.METHOD_LABELS[("wrandom " if family == "wrandom" else "") + event]
        for method, label in labels.items():
            if label is None:
                with pytest.raises(ValueError):
                    check_method(fam, ev, method, [n])
                continue
            (pt,) = ldp_curve(fam, ev, [n], method=method, num_samples=4, seed=0)
            assert (method, pt["method"]) == (method, label)
            if label in ("mc", "tilted"):
                assert pt["samples"] == 4
            else:
                assert (pt["samples"], pt["stderrLog"]) == (0, 0.0)

    def test_check_method_returns_the_method_of_each_size(self):
        block = BlockFamily(alpha=(0.5, 0.5), p=((0.7, 0.1), (0.1, 0.7)))
        density = EventSpec("density-ge", r=0.55)
        assert check_method(block, density, "auto", [4, 2050]) == ["exact", "tilted"]
        assert check_method(block, density, "enum", [4, 8]) == ["enum", "enum"]
        ball = EventSpec("ball", target=make_step_graphon([1.0], [[0.5]]), eta=0.4)
        assert check_method(GnpFamily(0.0), ball, "auto", [4, 300]) == ["enum", "mc"]
        assert check_method(GnpFamily(0.5), ball, "auto", [6, 7]) == ["enum", "mc"]
        wrandom = WRandomFamily(make_step_graphon([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]]))
        assert check_method(wrandom, density, "auto", [6, 41]) == ["exact", "mc"]
        assert check_method(wrandom, ball, "enum", [4]) == ["exact"]
        assert check_method(wrandom, ball, "auto", [4]) == ["mc"]

    def test_block_count_layouts_are_walked_only_where_one_can_be_refused(self, monkeypatch):
        walked = []
        compositions = ldplab._compositions

        def recording(n, w):
            for a in compositions(n, w):
                walked.append(n)
                yield a

        monkeypatch.setattr(ldplab, "_compositions", recording)
        wrandom = WRandomFamily(make_step_graphon([0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]]))
        density = EventSpec("density-ge", r=0.7)
        # all 2048 * 2047 / 2 pairs fit the FFT cap, so no layout of 2048 is refused
        assert ldplab._fft_length(2048 * 2047 // 2) <= FFT_LENGTH_CAP
        assert check_method(wrandom, density, "exact", [6, 2048]) == ["exact", "exact"]
        assert walked == []
        # all 3000 vertices in one part fit the binomial cap; the next layout is refused
        message = "exact density law: 4498500 free pairs exceed the FFT cap of %d at n=3000" % (
            FFT_LENGTH_CAP - 1)
        with pytest.raises(ValueError, match=message):
            check_method(wrandom, density, "exact", [2048, 3000])
        assert walked == [3000, 3000]
        # an enumeration takes 21 free pairs, all of 7 vertices
        ball = EventSpec("ball", target=make_step_graphon([1.0], [[0.5]]), eta=0.4)
        assert check_method(wrandom, ball, "enum", [7]) == ["exact"]
        assert walked == [3000, 3000]
        with pytest.raises(ValueError, match="got 28 at n=8$"):
            check_method(wrandom, ball, "enum", [7, 8])
        assert walked == [3000, 3000, 8]

    def test_one_free_value_walks_no_layout_below_the_binomial_cap(self, monkeypatch):
        walked = []
        compositions = ldplab._compositions

        def recording(n, w):
            for a in compositions(n, w):
                walked.append(n)
                yield a

        monkeypatch.setattr(ldplab, "_compositions", recording)
        density = EventSpec("density-ge", r=0.7)
        # every layout of 2100 has one free class of at most 2100 * 2099 / 2
        # pairs, below the binomial cap: none of its 2,208,151 layouts is walked
        third = WRandomFamily(make_step_graphon([1.0, 1.0, 1.0], [[0.5] * 3] * 3))
        assert check_method(third, density, "exact", [2100]) == ["exact"]
        assert walked == []
        # past the binomial cap the first layout, all vertices in one part, is refused
        half = WRandomFamily(make_step_graphon([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="exceed the binomial cap of 67108863 at n=11586; "
                                             "use mc$"):
            check_method(half, density, "exact", [11585, 11586])
        assert walked == [11586]


def termwise_wrandom_logprob(n, u, event):
    """The w-random law summed layout by layout with its own multinomial weights
    and per-layout dispatch: the form the mixture law replaced, without its
    refusal walk (the inputs here pass it)."""
    from scipy.special import gammaln

    w = u.parts.weights
    logw = np.where(w > 0.0, np.log(np.where(w > 0.0, w, 1.0)), -np.inf)
    terms = []
    for a in ldplab._compositions(n, w):
        log_mult = float(gammaln(n + 1) - gammaln(a + 1).sum()
                         + (a * np.where(a > 0, logw, 0.0)).sum())
        if event.is_density:
            log_cond = ldplab._window_logprob(*ldplab._density_window(a, u.values, event))
        else:
            log_cond = exact_event_logprob_block(a, u.values, event)
        if log_cond != -math.inf:
            terms.append(log_mult + log_cond)
    if not terms:
        return -math.inf
    return min(float(logsumexp(np.asarray(terms))), 0.0)


class TestOneMixtureLaw:
    """Both families' exact laws are one mixture of block laws over their layouts."""

    def test_one_layout_mixture_is_the_block_law(self):
        rng = np.random.default_rng(290)
        ball = EventSpec("ball", target=make_step_graphon([0.5, 0.5], [[0.9, 0.1], [0.1, 0.6]]),
                         eta=0.2)
        for trial in range(30):
            k = int(rng.integers(1, 4))
            fam = BlockFamily(tuple(rng.uniform(0.2, 1.0, k).tolist()),
                              tuple(map(tuple, _random_prob_matrix(rng, k).tolist())))
            n = int(rng.integers(2, 300))
            ev = _atypical_event(rng, *fam.counts_for(n), ("density-ge", "density-le")[trial % 2])
            assert ldplab._mixture_logprob(fam, n, ev) == exact_event_logprob_block(
                *fam.counts_for(n), ev)
        # ball layouts with pairs at 0 and 1, enumerated
        for n in (3, 4, 5):
            fam = BlockFamily((1.0, 2.0), ((0.0, 0.4), (0.4, 1.0)))
            assert ldplab._mixture_logprob(fam, n, ball) == exact_event_logprob_block(
                *fam.counts_for(n), ball)

    def test_wrandom_law_is_unchanged(self):
        rng = np.random.default_rng(291)
        graphons = [make_step_graphon([1.0], [[0.4]]),  # a single composition
                    make_step_graphon([0.0, 1.0, 0.0], _random_prob_matrix(rng, 3))]
        for k in (2, 3, 3):
            weights = rng.dirichlet(np.ones(k))
            if k == 3:
                weights[int(rng.integers(0, 3))] = 0.0  # a part of weight 0
            graphons.append(make_step_graphon(weights, _random_prob_matrix(rng, k)))
        graphons.append(make_step_graphon([0.4, 0.6], [[1.0, 0.3], [0.3, 0.0]]))
        for u in graphons:
            for i, n in enumerate((2, 5, 9, 12)):
                ev = EventSpec(("density-ge", "density-le")[i % 2],
                               r=float(rng.uniform(0.1, 0.9)))
                assert exact_event_logprob_wrandom(n, u, ev) == termwise_wrandom_logprob(n, u, ev)
            ball = EventSpec("ball", target=graphons[-1], eta=float(rng.uniform(0.05, 0.3)))
            assert exact_event_logprob_wrandom(3, u, ball) == termwise_wrandom_logprob(3, u, ball)

    def test_wrandom_ball_layouts_are_refused_before_any_check(self, monkeypatch):
        # (4, 5) is the first layout of 9 vertices past 3 free pairs; the
        # layouts before it take 1 + 1 + 2 + 8 checks
        monkeypatch.setattr(ldplab, "ENUM_FREE_LIMIT", 3)
        checks = []

        class Counting(EventSpec):
            def check_graph(self, graph):
                checks.append(graph.n)
                return EventSpec.check_graph(self, graph)

        u = make_step_graphon([0.5, 0.5], [[0.5, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="at most 3 undetermined pairs, got 6$"):
            exact_event_logprob_wrandom(9, u, Counting("ball", target=u, eta=0.1))
        assert checks == []


def _random_prob_matrix(rng, k):
    vals = rng.uniform(0.05, 0.95, (k, k))
    return (vals + vals.T) / 2.0


def _atypical_event(rng, counts, p, kind):
    """A density event whose threshold sits 0.02 to 0.3 past the mean density."""
    classes = ldplab._pair_classes(counts, p)
    mean = sum(q * m for q, m in classes) / sum(m for _, m in classes)
    step = float(rng.uniform(0.02, 0.3))
    if kind == "density-ge":
        return EventSpec(kind, r=min(mean + step, 0.95))
    return EventSpec(kind, r=max(mean - step, 0.05))


def _law_values():
    """Seeded values of the exact laws and the tilted estimator.

    40 binomial tails from k_min at or past the mean; 40 block density laws
    of atypical events, half on the single-class path (one pair
    probability) and half on the FFT path (2 or 3 blocks of distinct
    probabilities), each with a window that needs the law; 12 w-random
    density laws; 20 tilted estimates of atypical events, logprob and
    stderrLog.
    """
    rng = np.random.default_rng(19)
    values = []
    for _ in range(40):
        m = int(rng.integers(1, 400))
        p = float(rng.uniform(0.01, 0.99))
        values.append(binomial_tail_logprob(m, p, int(rng.integers(math.ceil(m * p), m + 2))))
    for trial in range(40):
        kind = ("density-ge", "density-le")[trial // 2 % 2]
        if trial % 2 == 0:
            counts = [int(rng.integers(8, 200))]
            p = np.full((1, 1), rng.uniform(0.01, 0.99))
        else:
            counts = [int(x) for x in rng.integers(4, 40, int(rng.integers(2, 4)))]
            p = _random_prob_matrix(rng, len(counts))
        ev = _atypical_event(rng, counts, p, kind)
        free, window = ldplab._density_window(counts, p, ev)
        assert ldplab._closed_form_logprob(free, window) is None
        assert len(free) == (1 if trial % 2 == 0 else len(counts) * (len(counts) + 1) // 2)
        values.append(density_logprob_block(counts, p, ev))
    for n in range(3, 9):
        for k in (2, 3):
            weights = rng.dirichlet(np.ones(k))
            u = make_step_graphon(weights, _random_prob_matrix(rng, k))
            ev = EventSpec("density-ge", r=float(rng.uniform(0.2, 0.8)))
            values.append(exact_event_logprob_wrandom(n, u, ev))
    for trial in range(20):
        counts = [int(x) for x in rng.integers(5, 30, int(rng.integers(1, 4)))]
        p = _random_prob_matrix(rng, len(counts))
        ev = _atypical_event(rng, counts, p, ("density-ge", "density-le")[trial % 2])
        est = tilted_density_logprob_block(counts, p, ev, num_samples=300, seed=trial)
        assert est["method"] == "tilted" and est["hits"] > 0
        values += [est["logprob"], est["stderrLog"]]
    return values


class TestFrozenLaws:
    """One digest over ``float.hex`` of the seeded values of ``_law_values``.

    Recorded while ``scipy.special`` was imported with the module; importing
    it on the first call of a law left every value unchanged.
    """

    def test_law_values(self):
        values = _law_values()
        assert len(values) == 40 + 40 + 12 + 40
        assert all(math.isfinite(v) for v in values)
        digest = hashlib.sha256(" ".join(float(v).hex() for v in values).encode()).hexdigest()
        assert digest == (
            "4120c4c188f3e472b85928b9ccd0253666728ab56e1a797fbea5ab97e5b663dc")
