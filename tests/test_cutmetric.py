import functools
import hashlib
import itertools
import linecache
import tracemalloc

import numpy as np
import pytest
from test_samplers import _traced_peak_mib

from stepldp import coloured, cutmetric
from stepldp.cutmetric import (
    DistanceEstimate,
    SignedStepFn,
    aligned_cut_distance,
    cut_distance_search,
    cut_distance_upper,
    cut_norm_alternating,
    cut_norm_exact,
    graph_cut_distance_exact,
    overlay_coupling,
)
from stepldp.coloured import ColouredStepGraphon, dk_distance_search
from stepldp.graphon import (
    NORMALIZATION_TOL,
    LabeledGraph,
    OverlapCoupling,
    PartWeights,
    _matrix_pieces,
    coupling_pieces,
    graph_to_graphon,
    make_step_graphon,
)
from stepldp.rates import rate_J, rate_R
from stepldp.samplers import sample_block


def brute_cut_norm(f: SignedStepFn) -> float:
    """Independent oracle: direct double loop over subset pairs."""
    w = f.parts.weights
    m = w.size
    mass = np.outer(w, w) * f.values
    best = 0.0
    for s_bits in itertools.product([0, 1], repeat=m):
        s = np.array(s_bits, dtype=bool)
        for t_bits in itertools.product([0, 1], repeat=m):
            t = np.array(t_bits, dtype=bool)
            best = max(best, abs(mass[np.ix_(s, t)].sum()))
    return best


def random_signed(rng, max_parts=6):
    m = int(rng.integers(1, max_parts + 1))
    w = rng.dirichlet(np.ones(m))
    vals = rng.uniform(-1, 1, (m, m))
    vals = (vals + vals.T) / 2
    return SignedStepFn(PartWeights(w), vals)


class TestCutNorm:
    def test_checkerboard_frozen(self):
        u = make_step_graphon([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        c = make_step_graphon([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        f = SignedStepFn.difference(u.parts, u.values, c.values)
        assert abs(cut_norm_exact(f) - 0.125) < 1e-15

    def test_exact_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            f = random_signed(rng, max_parts=5)
            assert abs(cut_norm_exact(f) - brute_cut_norm(f)) < 1e-12

    def test_alternating_never_exceeds_exact(self):
        rng = np.random.default_rng(3)
        for trial in range(50):
            f = random_signed(rng, max_parts=7)
            exact = cut_norm_exact(f)
            heur = cut_norm_alternating(f, restarts=32, seed=trial)
            assert heur <= exact + 1e-12
            assert abs(heur - exact) < 1e-9

    def test_zero_function(self):
        f = SignedStepFn(PartWeights([0.5, 0.5]), np.zeros((2, 2)))
        assert cut_norm_exact(f) == 0.0
        assert cut_norm_alternating(f, restarts=4, seed=0) == 0.0


def oracle_alternating_cut_norm(M, restarts, seed):
    """The per-start loop: each (start, sign) ascent alone, by matrix-vector products."""
    def alternate(M, b, sign):
        prev = 0.0
        while True:
            a = ((M @ b) * sign > 0.0).astype(float)
            b = ((M @ a) * sign > 0.0).astype(float)
            val = sign * float(a @ M @ b)
            if val <= prev + 1e-15:
                return max(prev, val, 0.0)
            prev = val

    rng = np.random.default_rng(seed)
    best = 0.0
    for r in range(restarts):
        b = np.ones(len(M)) if r == 0 else rng.integers(0, 2, size=len(M)).astype(float)
        for sign in (1.0, -1.0):
            best = max(best, alternate(M, b.copy(), sign))
    return best


def _gnp_mass(rng, n, q, dirichlet):
    """Mass matrix of G(n, q) minus q on uniform or Dirichlet part weights."""
    adj = np.triu((rng.random((n, n)) < q).astype(float), 1)
    w = rng.dirichlet(np.ones(n)) if dirichlet else np.full(n, 1.0 / n)
    return np.outer(w, w) * (adj + adj.T - q)


class TestAlternatingBatch:
    """The block ascent against the per-start loop it replaced."""

    def test_matches_the_per_start_loop(self):
        rng = np.random.default_rng(18)
        checked = 0
        for n in (23, 30, 40, 64):
            for dirichlet in (False, True):
                for trial in range(40):
                    M = _gnp_mass(rng, n, rng.uniform(0.1, 0.9), dirichlet)
                    # every eighth matrix also runs past one block of starts
                    for restarts in (1, 2, 32) if trial % 8 else (1, 2, 32, 33, 70):
                        want = oracle_alternating_cut_norm(M, restarts, trial)
                        got = cutmetric._alternating_cut_norm(M[None], restarts, trial)
                        assert abs(got - want) <= 1e-13 * want, (n, dirichlet, trial, restarts)
                    checked += 1
        assert checked >= 300

    def test_hit_decisions_at_the_ball_radii(self):
        # ball-mc's n=40 radius for G(40, q) against the constant q, q in [0.3, 0.5]
        rng = np.random.default_rng(40)
        hits = 0
        for trial in range(200):
            q = round(float(rng.uniform(0.3, 0.5)), 4)
            eta = round(0.0496 + 0.025 * (q - 0.3), 4)
            M = _gnp_mass(rng, 40, q, False)
            hit = cutmetric._alternating_cut_norm(M[None]) <= eta
            assert hit == (oracle_alternating_cut_norm(M, 32, 0) <= eta), trial
            hits += hit
        assert 0 < hits < 200

    def test_block_draw_matches_per_restart_draws(self):
        # a block draws its random starts at once, as the loop drew them one by one
        for n in (23, 40, 41, 64):
            for k in (1, 31, 32):
                one = np.random.default_rng(n).integers(0, 2, size=(k, n))
                rng = np.random.default_rng(n)
                assert np.array_equal(one, [rng.integers(0, 2, size=n) for _ in range(k)])

    def test_memory_does_not_grow_with_restarts(self):
        # 4,096 restarts of 40 parts: all ascents at once would hold arrays of
        # 8,192 columns (2.5 MiB each); one block of 64 holds 20 KiB
        rng = np.random.default_rng(7)
        vals = rng.uniform(-1, 1, (40, 40))
        f = SignedStepFn(PartWeights(rng.dirichlet(np.ones(40))), (vals + vals.T) / 2)
        peak = _traced_peak_mib(lambda: cut_norm_alternating(f, restarts=4096, seed=0))
        assert peak <= 0.5


class TestAlignedDistance:
    def test_same_graphon_on_refinement(self):
        u = make_step_graphon([0.4, 0.6], [[0.9, 0.2], [0.2, 0.5]])
        v = make_step_graphon([0.4, 0.3, 0.3], [[0.9, 0.2, 0.2],
                                                [0.2, 0.5, 0.5],
                                                [0.2, 0.5, 0.5]])
        assert aligned_cut_distance(u, v) < 1e-15

    def test_symmetric(self):
        u = make_step_graphon([0.5, 0.5], [[0.9, 0.1], [0.1, 0.3]])
        v = make_step_graphon([0.3, 0.7], [[0.2, 0.6], [0.6, 0.4]])
        assert abs(aligned_cut_distance(u, v) - aligned_cut_distance(v, u)) < 1e-14

    def test_constant_shift(self):
        u = make_step_graphon([1.0], [[0.8]])
        v = make_step_graphon([1.0], [[0.5]])
        assert abs(aligned_cut_distance(u, v) - 0.3) < 1e-14


class TestCutDistanceUpper:
    def test_overlay_coupling_reproduces_aligned(self):
        u = make_step_graphon([0.5, 0.5], [[0.9, 0.1], [0.1, 0.3]])
        v = make_step_graphon([0.3, 0.7], [[0.2, 0.6], [0.6, 0.4]])
        c = overlay_coupling(u, v)
        val = cut_distance_upper(u, v, c)
        assert abs(val - aligned_cut_distance(u, v)) < 1e-12

    def test_rejects_bad_marginals(self):
        u = make_step_graphon([0.5, 0.5], [[0.9, 0.1], [0.1, 0.3]])
        v = make_step_graphon([0.3, 0.7], [[0.2, 0.6], [0.6, 0.4]])
        bad = OverlapCoupling(np.diag([0.3, 0.7]), PartWeights([0.3, 0.7]),
                              PartWeights([0.3, 0.7]))
        with pytest.raises(ValueError):
            cut_distance_upper(u, v, bad)


class TestCutDistanceSearch:
    def test_permuted_copy_found(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            m = int(rng.integers(2, 5))
            w = rng.dirichlet(np.ones(m))
            vals = rng.uniform(0, 1, (m, m))
            vals = (vals + vals.T) / 2
            u = make_step_graphon(w, vals)
            perm = rng.permutation(m)
            v = make_step_graphon(w[perm], vals[np.ix_(perm, perm)])
            est = cut_distance_search(u, v, restarts=16, seed=trial)
            assert est.upper < 1e-9

    def test_two_point_vertex_oracle(self):
        # the graph on two vertices with one edge, against its complement:
        # candidate vertex couplings are identity and swap, both give 1/4
        g = LabeledGraph(2, [(0, 1)])
        u = graph_to_graphon(g)
        v = make_step_graphon([0.5, 0.5], 1.0 - u.values)
        identity = OverlapCoupling(np.diag([0.5, 0.5]), u.parts, v.parts)
        swap = OverlapCoupling(np.fliplr(np.diag([0.5, 0.5])), u.parts, v.parts)
        vertex_best = min(cut_distance_upper(u, v, identity),
                          cut_distance_upper(u, v, swap))
        assert abs(vertex_best - 0.25) < 1e-15
        # fractional rearrangements do strictly better than any vertex map
        est = cut_distance_search(u, v, restarts=32, seed=0)
        assert est.upper <= vertex_best + 1e-12

    def test_row_major_fill_is_the_northwest_corner(self):
        # the search's second start: fill cells in row-major order
        c = cutmetric._greedy_fill(np.array([0.5, 0.5]), np.array([0.3, 0.7]), np.arange(4))
        np.testing.assert_allclose(c, [[0.3, 0.2], [0.0, 0.5]], rtol=0, atol=1e-15)
        assert c[1, 0] == 0.0

    def test_upper_is_witnessed(self):
        u = make_step_graphon([0.4, 0.6], [[0.9, 0.2], [0.2, 0.5]])
        v = make_step_graphon([0.5, 0.5], [[0.1, 0.7], [0.7, 0.2]])
        est = cut_distance_search(u, v, restarts=8, seed=1)
        recomputed = cut_distance_upper(u, v, est.witness)
        assert abs(recomputed - est.upper) < 1e-12

    def test_monotone_in_restarts(self):
        u = make_step_graphon([0.2, 0.3, 0.5], [[0.9, 0.1, 0.4],
                                                [0.1, 0.6, 0.3],
                                                [0.4, 0.3, 0.2]])
        v = make_step_graphon([0.4, 0.4, 0.2], [[0.3, 0.8, 0.2],
                                                [0.8, 0.1, 0.5],
                                                [0.2, 0.5, 0.7]])
        vals = [cut_distance_search(u, v, restarts=r, seed=4).upper
                for r in (1, 2, 4, 8, 16)]
        for lo, hi in zip(vals[1:], vals[:-1]):
            assert lo <= hi + 1e-15

    def test_triangle_inequality_on_graphs(self):
        rng = np.random.default_rng(13)
        graphs = []
        for _ in range(6):
            n = 4
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.5]
            graphs.append(LabeledGraph(n, edges))
        dist = {}
        for a in range(len(graphs)):
            for b in range(len(graphs)):
                dist[a, b] = graph_cut_distance_exact(graphs[a], graphs[b])
        for a, b, c in itertools.permutations(range(len(graphs)), 3):
            assert dist[a, b] <= dist[a, c] + dist[c, b] + 1e-12

    def test_triangle_vs_empty_frozen(self):
        k3 = LabeledGraph(3, [(0, 1), (0, 2), (1, 2)])
        empty = LabeledGraph(3, [])
        assert abs(graph_cut_distance_exact(k3, empty) - 2 / 3) < 1e-12

    def test_search_upper_bounds_graph_exact(self):
        rng = np.random.default_rng(17)
        for trial in range(8):
            n = 4
            g = LabeledGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if rng.random() < 0.5])
            h = LabeledGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                 if rng.random() < 0.5])
            exact = graph_cut_distance_exact(g, h)
            est = cut_distance_search(graph_to_graphon(g), graph_to_graphon(h),
                                      restarts=16, seed=trial)
            # vertex bijections are a subset of couplings, so search can
            # only do at least as well
            assert est.upper <= exact + 1e-9


class TestDistanceEstimate:
    def test_json_fields(self):
        u = make_step_graphon([0.5, 0.5], [[0.9, 0.1], [0.1, 0.3]])
        v = make_step_graphon([0.5, 0.5], [[0.3, 0.6], [0.6, 0.1]])
        est = cut_distance_search(u, v, restarts=4, seed=0)
        obj = est.to_json()
        assert set(obj) == {"upper", "witness", "restartsUsed"}
        assert isinstance(obj["witness"], list)
        np.testing.assert_allclose(np.asarray(obj["witness"]).sum(), 1.0, atol=1e-12)

    def test_transposed(self):
        u = make_step_graphon([0.4, 0.6], [[0.9, 0.2], [0.2, 0.5]])
        v = make_step_graphon([0.5, 0.5], [[0.1, 0.7], [0.7, 0.2]])
        est = cut_distance_search(u, v, restarts=4, seed=2)
        flipped = est.transposed()
        assert flipped.upper == est.upper
        np.testing.assert_array_equal(flipped.witness.matrix, est.witness.matrix.T)


def where_cut_norm(M):
    """Reference: the enumeration with fresh subset rows and sign-test sums."""
    m = M.shape[0]
    total = 1 << m
    best = 0.0
    for start in range(0, total, cutmetric._ENUM_CHUNK):
        masks = np.arange(start, min(start + cutmetric._ENUM_CHUNK, total), dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(m, dtype=np.int64)[None, :]) & 1).astype(float)
        t = bits @ M
        pos = np.where(t > 0.0, t, 0.0).sum(axis=1)
        neg = np.where(t < 0.0, t, 0.0).sum(axis=1)
        best = max(best, max(float(pos.max()), float(-neg.min())))
    return best


def loop_coupling_pieces(c):
    """Reference: positive cells, target part outer, source part inner."""
    w, src, tgt = [], [], []
    for i in range(c.shape[1]):
        for a in range(c.shape[0]):
            if float(c[a, i]) > 0.0:
                w.append(float(c[a, i]))
                src.append(a)
                tgt.append(i)
    return np.array(w), np.array(src, dtype=int), np.array(tgt, dtype=int)


def _mass(rng, m):
    w = rng.dirichlet(np.ones(m))
    vals = rng.uniform(-1.0, 1.0, (m, m))
    return np.outer(w, w) * ((vals + vals.T) / 2.0)


class TestEnumerationKernel:
    """``_enumerate_cut_norm`` against a brute-force loop and the old formula."""

    def test_matches_double_loop(self):
        rng = np.random.default_rng(41)
        for m in range(1, 7):
            for _ in range(3):
                M = _mass(rng, m)
                brute = max(abs(M[np.ix_(a, b)].sum())
                            for a in itertools.product([False, True], repeat=m)
                            for b in itertools.product([False, True], repeat=m))
                assert abs(cutmetric._enumerate_cut_norm(M) - brute) <= 1e-15

    def test_bit_identical_to_sign_test_formula(self):
        rng = np.random.default_rng(42)
        cases = [_mass(rng, m) for m in range(1, 17) for _ in range(2)]
        cases += [np.zeros((m, m)) for m in (1, 5, 12)]
        cases += [np.full((m, m), -0.0) for m in (1, 5, 12)]
        mixed = _mass(rng, 9)
        mixed[::2, ::3] = -0.0
        mixed[::3, ::2] = 0.0
        cases.append(np.minimum(mixed, mixed.T))
        tied = _mass(rng, 8)
        tied[4:] = tied[:4]
        tied[:, 4:] = tied[:, :4]
        cases.append(tied)
        cases.append(np.ones((10, 10)))
        for M in cases:
            got = cutmetric._enumerate_cut_norm(M)
            assert repr(got) == repr(where_cut_norm(M))
        assert repr(cutmetric._enumerate_cut_norm(np.full((3, 3), -0.0))) == "0.0"

    def test_subset_table_cache(self):
        m = 17  # two chunks
        assert cutmetric._enumerate_cut_norm(np.zeros((m, m))) == 0.0
        assert cutmetric._enumerate_cut_norm(_mass(np.random.default_rng(43), 6)) > 0.0
        table = cutmetric._subset_bits(6, 0, 64)
        assert cutmetric._subset_bits(6, 0, 64) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0
        assert m not in cutmetric._FULL_SUBSET_BITS
        for parts, cached in cutmetric._FULL_SUBSET_BITS.items():
            assert cached.shape == (1 << parts, parts)
            assert cached.shape[0] <= cutmetric._ENUM_CHUNK
        # a partial range is never served from, nor stored in, the cache
        part = cutmetric._subset_bits(6, 8, 16)
        np.testing.assert_array_equal(part, table[8:16])
        assert part.flags.writeable

    def test_coupling_pieces_order(self):
        rng = np.random.default_rng(44)
        for m, k in [(1, 1), (2, 3), (4, 2), (5, 5)]:
            c = rng.dirichlet(np.ones(m * k)).reshape(m, k)
            zero = rng.random((m, k)) < 0.4
            zero[0, 0] = False
            c[zero] = 0.0
            c /= c.sum()
            coupling = OverlapCoupling(c, c.sum(axis=1), c.sum(axis=0))
            got = coupling_pieces(coupling)
            want = loop_coupling_pieces(coupling.matrix)
            for g, x in zip(got, want):
                assert g.dtype == x.dtype
                assert g.tobytes() == x.tobytes()


def loop_best_cut(t):
    """The enumeration's reduction before kernels were stacked: each side of
    one (subsets, parts) product summed by ``.sum(axis=1)``."""
    buf = np.maximum(t, 0.0)
    sums = buf.sum(axis=1)
    top = int(sums.argmax())
    pos = float(sums[top])
    np.minimum(t, 0.0, out=buf)
    sums = buf.sum(axis=1)
    low = int(sums.argmin())
    neg = float(sums[low])
    if -neg > pos:
        return -neg + 0.0, low
    return pos + 0.0, top


def loop_stack_value(const, H):
    """``_stack_value`` as it was: one product per kernel and subset chunk,
    the first strictly larger value kept."""
    m = H.shape[1]
    total = 1 << m
    best, arg = 0.0, None
    for p in range(H.shape[0]):
        for start in range(0, total, cutmetric._ENUM_CHUNK):
            bits = cutmetric._subset_bits(m, start, min(start + cutmetric._ENUM_CHUNK, total))
            val, row = loop_best_cut(bits @ H[p])
            if arg is None or val > best:
                best, arg = val, (p, bits[row] > 0.0)
    return best + const, arg


def _stack(rng, kernels, m, kind):
    """A random kernel stack: masses times values in [-1, 1]; ``ties`` rounds
    the values to multiples of 1/4 on equal masses, ``zeros`` sets a third of
    the entries to signed zeros."""
    w = np.full(m, 1.0 / m) if kind == "ties" else rng.dirichlet(np.ones(m))
    vals = rng.uniform(-1.0, 1.0, (kernels, m, m))
    if kind == "ties":
        vals = np.round(4.0 * vals) / 4.0
    H = np.outer(w, w) * vals
    if kind == "zeros":
        mask = rng.random(H.shape) < 1.0 / 3.0
        H[mask] = np.where(rng.random(H.shape) < 0.5, -0.0, 0.0)[mask]
    return H


class TestStackedEnumeration:
    """The stacked enumeration against numpy's own row sums and the per-kernel
    loop it replaced.  Both hold only while numpy sums a short row as it does
    now; if its summation order changes, these fail by name."""

    @staticmethod
    def _rows(rng, kind, n):
        r = 257
        if kind == "random":
            return rng.uniform(-1.0, 1.0, (r, n))
        if kind == "signed zeros":
            t = rng.uniform(-1.0, 1.0, (r, n))
            t[rng.random((r, n)) < 0.5] = 0.0
            t[rng.random((r, n)) < 0.3] = -0.0
            t[:8] = -0.0
            t[8:16] = np.where(rng.random((8, n)) < 0.5, 0.0, -0.0)
            return t
        if kind == "ties":
            return rng.integers(-3, 4, (r, n)) / 8.0
        # mixed magnitudes: the order of additions shows in the last bits
        return rng.uniform(-1.0, 1.0, (r, n)) * 10.0 ** rng.integers(-17, 17, (r, n))

    @pytest.mark.parametrize("kind", ["random", "signed zeros", "ties", "mixed magnitudes"])
    def test_row_sums_are_numpy_row_sums(self, kind):
        rng = np.random.default_rng(47)
        for n in range(1, cutmetric.EXACT_PART_LIMIT + 1):
            t = self._rows(rng, kind, n)
            got = cutmetric._row_sums(np.ascontiguousarray(t.T)[None].copy())[0]
            assert got.tobytes() == t.sum(axis=1).tobytes(), n

    @pytest.mark.parametrize("kernels, m", [(1, 1), (1, 5), (1, 12), (8, 3), (8, 9),
                                            (8, 14), (1 << 15, 4), (1, 17), (2, 17),
                                            (8, 16), (3, 17)])
    def test_stack_matches_the_per_kernel_loop(self, kernels, m):
        rng = np.random.default_rng(48 + kernels + m)
        kinds = ["random", "ties", "zeros"] if kernels < 1 << 15 and m < 17 else ["ties"]
        for kind in kinds:
            H = _stack(rng, kernels, m, kind)
            if m == 17:
                H[:, -1, :] = H[:, :, -1] = 0.0  # the second chunk ties the first
            value, (p, row) = cutmetric._stack_value(0.25, H)
            want, (wp, wrow) = loop_stack_value(0.25, H)
            assert repr(value) == repr(want)
            assert p == wp
            assert row.tolist() == wrow.tolist()

    @pytest.mark.parametrize("kernels, m", [(8, 16), (3, 17)])
    def test_chunk_edge_with_signed_zeros_and_ties(self, kernels, m):
        """Each kernel fills one subset chunk (m = 16) or two (m = 17), and
        every kernel has tied values on equal masses and signed zeros."""
        rng = np.random.default_rng(50 + m)
        H = _stack(rng, kernels, m, "ties")
        mask = rng.random(H.shape) < 1.0 / 3.0
        H[mask] = np.where(rng.random(H.shape) < 0.5, -0.0, 0.0)[mask]
        H[1] = H[0]  # two kernels tie outright
        if m == 17:
            H[:, -1, :] = H[:, :, -1] = 0.0  # the second chunk ties the first
        for stack in (H, -H):
            value, (p, row) = cutmetric._stack_value(0.25, stack)
            want, (wp, wrow) = loop_stack_value(0.25, stack)
            assert repr(value) == repr(want)
            assert p == wp
            assert row.tolist() == wrow.tolist()

    def test_work_rows_of_a_22_part_enumeration(self, monkeypatch):
        """The work rows one 22-part enumeration allocates: two halves of 22
        (part, subset) rows per subset of a 2^16 chunk, and one zeros row."""
        monkeypatch.setattr(cutmetric, "_ENUM_WORK", np.empty(0))
        monkeypatch.setattr(cutmetric, "_ENUM_ZEROS", np.zeros(0))
        vals = np.random.default_rng(51).uniform(-1.0, 1.0, (22, 22))
        f = SignedStepFn(PartWeights(np.full(22, 1.0 / 22)), (vals + vals.T) / 2.0)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            assert cut_norm_exact(f) > 0.0
            snapshot = tracemalloc.take_snapshot()
        finally:
            if started:
                tracemalloc.stop()
        held = {"_ENUM_WORK": 0, "_ENUM_ZEROS": 0}  # data bytes, numpy's own domain
        for trace in snapshot.traces:
            frame = trace.traceback[0]
            if trace.domain != 0 and frame.filename == cutmetric.__file__:
                target = linecache.getline(frame.filename, frame.lineno).split("=")[0].strip()
                if target in held:
                    held[target] += trace.size
        assert 0 < held["_ENUM_WORK"] <= 2 * 22 * cutmetric._ENUM_CHUNK * 8
        assert 0 < held["_ENUM_ZEROS"] <= cutmetric._ENUM_CHUNK * 8

    def test_graph_exact_matches_the_permutation_loop(self):
        rng = np.random.default_rng(49)
        for n in (1, 2, 5, 6):
            g, h = (LabeledGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                                     if rng.random() < 0.5]) for _ in range(2))
            A, B = g.adjacency(), h.adjacency()
            bits = cutmetric._subset_bits(n, 0, 1 << n)
            want = min(loop_best_cut(bits @ ((A - B[np.ix_(pi, pi)]) / (n * n)))[0]
                       for pi in map(list, itertools.permutations(range(n))))
            assert repr(graph_cut_distance_exact(g, h)) == repr(want)


def _search_digest(results):
    """sha256 over (repr(value), witness bytes, restarts used) of each result."""
    h = hashlib.sha256()
    for value, witness, used in results:
        h.update(repr(value).encode())
        if witness is not None:
            h.update(np.ascontiguousarray(witness).tobytes())
        h.update(repr(used).encode())
    return h.hexdigest()


def _random_graphon(rng, m):
    vals = rng.uniform(0.0, 1.0, (m, m))
    return make_step_graphon(rng.dirichlet(np.ones(m)), (vals + vals.T) / 2.0)


class TestFrozenSearch:
    """Digests of the coupling searches and rate optimizers at fixed seeds.

    Any change to a start, a polish step, a tie-break or a stopping rule
    moves some upper bound, witness or restart count and shows here.  The
    digests were recorded from the two separate search loops that preceded
    the shared ``_coupling_search``, so they pin its behaviour exactly.  The
    cut and coloured digests were re-derived when a one-part side came to be
    evaluated once: their one-part cases, (1, 3) and ([0], [1, 0]), now
    report 1 restart, with the same value and witness bytes.
    """

    def test_cut_distance_search(self):
        rng = np.random.default_rng(31)
        results = []
        for trial, (m, k) in enumerate([(2, 2), (2, 3), (3, 2), (3, 3),
                                        (2, 4), (4, 2), (3, 4), (1, 3)]):
            u, v = _random_graphon(rng, m), _random_graphon(rng, k)
            est = cut_distance_search(u, v, restarts=6, seed=trial)
            results.append((est.upper, est.witness.matrix, est.restarts_used))
        # the same pair in both orders, and a permuted copy (early stop at 0)
        u, v = _random_graphon(rng, 2), _random_graphon(rng, 3)
        for a, b in ((u, v), (v, u)):
            est = cut_distance_search(a, b, restarts=5, seed=3)
            results.append((est.upper, est.witness.matrix, est.restarts_used))
        w = make_step_graphon(u.parts.weights[::-1], u.values[::-1, ::-1])
        est = cut_distance_search(u, w, restarts=8, seed=0)
        results.append((est.upper, est.witness.matrix, est.restarts_used))
        assert _search_digest(results) == (
            "27a642a449d0880ccbd9fce1a71f560cf369cbe5dd865ccd1f8e5dc2093b0ef9")

    def test_dk_distance_search(self):
        rng = np.random.default_rng(32)
        layouts = [([0, 0], [0, 0, 0], 1), ([0, 1], [1, 0], 2),
                   ([0, 1, 1], [1, 0], 2), ([0, 0], [0, 1, 1], 2),
                   ([1, 0], [0, 0, 1], 2), ([0], [1, 0], 2)]
        results = []
        for trial, (ca, cb, k) in enumerate(layouts):
            a = ColouredStepGraphon(_random_graphon(rng, len(ca)), ca, num_colours=k)
            b = ColouredStepGraphon(_random_graphon(rng, len(cb)), cb, num_colours=k)
            est = dk_distance_search(a, b, restarts=3, seed=trial)
            results.append((est.upper, est.witness.matrix, est.restarts_used))
        assert _search_digest(results) == (
            "8bf4e71e5a447da010ed4ea6201f0b587adb15d96e10e0fda24230c7fb0f0c96")

    def test_rate_J(self):
        rng = np.random.default_rng(33)
        p3 = [[0.6, 0.2, 0.3], [0.2, 0.5, 0.1], [0.3, 0.1, 0.7]]
        two_cliques = make_step_graphon([0.3, 0.7], [[1.0, 0.0], [0.0, 1.0]])
        cases = [
            ([0.2, 0.3, 0.5], p3, _random_graphon(rng, 2)),           # k > m
            ([0.5, 0.5], [[0.7, 0.1], [0.1, 0.4]], _random_graphon(rng, 3)),  # k <= m
            ([0.3, 0.7], np.eye(2), two_cliques),                     # k <= m, rigid
            ([0.5, 0.5], np.eye(2), two_cliques),                     # infeasible
            ([0.2, 0.3, 0.5], np.eye(3), two_cliques),                # k > m, infeasible
            ([0.3, 0.0, 0.7], np.eye(3), two_cliques),                # k > m, rigid
            ([0.3, 0.3, 0.4], [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]],
             make_step_graphon([0.3, 0.7], [[1.0, 0.0], [0.0, 0.4]])),  # k > m
        ]
        results = []
        for trial, (alpha, p, u) in enumerate(cases):
            rep = rate_J(alpha, p, u, budget=6, seed=trial)
            witness = None if rep.witness_coupling is None else rep.witness_coupling.matrix
            results.append((rep.value, witness, rep.budget_used))
        assert _search_digest(results) == (
            "e6408a6fdbff559176ac84d2104213ca11f6d92b452dd3231fb57b4661b698a8")

    def test_rate_R(self):
        u = make_step_graphon([0.3, 0.3, 0.4], [[0.8, 0.2, 0.4],
                                                [0.2, 0.6, 0.1],
                                                [0.4, 0.1, 0.3]])
        rep = rate_R([[0.6, 0.2], [0.2, 0.5]], u, budget=6, seed=1)
        results = [(rep.value, rep.witness_coupling.matrix, rep.budget_used),
                    (None, rep.witness_alpha.weights, None)]
        # re-derived when R became one descent over row simplices
        assert _search_digest(results) == (
            "735ccfe210eb6dfbc13fde9eea191ac70172040fd7f4a43712a04b65c7fee22b")

    def test_graph_cut_distance_exact(self):
        rng = np.random.default_rng(34)
        results = []
        for _ in range(2):
            g, h = (LabeledGraph(7, [(i, j) for i in range(7) for j in range(i + 1, 7)
                                     if rng.random() < 0.5]) for _ in range(2))
            results.append((graph_cut_distance_exact(g, h), None, None))
        assert _search_digest(results) == (
            "0d112ea6da5eece0726451d8bb737740c035a482a93c023fc20da19041d58145")


def _search_entries():
    """sha256 of each of 72 seeded ``cut_distance_search`` and
    ``dk_distance_search`` results (value, witness bytes, restarts used).

    Part counts 1 to 4 on each side, so nearly half the pairs have a one-part
    side, some zero-weight parts, 1 to 3 colours and 1 to 5 restarts.
    """
    rng = np.random.default_rng(45)
    entries = []
    for trial in range(36):
        m, k = (int(x) for x in rng.integers(1, 5, 2))
        restarts = int(rng.integers(1, 6))
        u, v = _random_graphon(rng, m), _random_graphon(rng, k)
        if m > 1 and trial % 4 == 0:
            w = u.parts.weights.copy()
            w[int(rng.integers(m))] = 0.0
            u = make_step_graphon(w / w.sum(), u.values)
        colours = int(rng.integers(1, 4))
        a = ColouredStepGraphon(u, rng.integers(0, colours, m), num_colours=colours)
        b = ColouredStepGraphon(v, rng.integers(0, colours, k), num_colours=colours)
        for est in (cut_distance_search(u, v, restarts=restarts, seed=trial),
                    dk_distance_search(a, b, restarts=restarts, seed=trial)):
            entries.append(_search_digest([(est.upper, est.witness.matrix,
                                            est.restarts_used)]))
    return entries


class TestFrozenSearchSeeds:
    """One digest over 72 seeded cut and coloured searches.

    Recorded (ff34ec40...) before their restart loop was merged with the J/R
    descent's, which left it unchanged.  Re-derived when a one-part side
    came to be evaluated once: the 32 searches with a one-part side and more
    than one restart now report 1 restart; 11 of them also changed witness
    bytes and 6 of those their value, by 1 or 2 ulp (5 up, 1 down), as the
    single coupling outer(rows, cols) replaced a float-drift copy of it.
    """

    def test_cut_and_dk_searches(self):
        digest = hashlib.sha256("".join(_search_entries()).encode()).hexdigest()
        assert digest == (
            "591e89c84c8fec6039f4aef44d998dc3f97028e1d0e08a08dac162ade4e371c6")


class TestFrozenReroutedPaths:
    """Digests of two search paths that no other digest reaches.

    A 30-vertex graph against a 2-part target starts every restart above
    EXACT_PART_LIMIT pieces, so each evaluation takes the alternating
    heuristic; and 0/1 entries of p leave ``rate_R`` rigid supports, one
    cell per part, on which every descent start is the forced coupling.  The
    cut-search digest was recorded before the searches stopped building
    validated types per candidate; the ``rate_R`` digest was re-derived when
    R became one descent over row simplices, and again when forced supports
    came to run one start each (budget used 6 -> 2, value and witness
    unchanged).
    """

    def test_cut_distance_search_past_exact_limit(self):
        rng = np.random.default_rng(35)
        g = LabeledGraph(30, [(i, j) for i in range(30) for j in range(i + 1, 30)
                              if rng.random() < 0.4])
        target = make_step_graphon([0.4, 0.6], [[0.7, 0.2], [0.2, 0.5]])
        est = cut_distance_search(graph_to_graphon(g), target, restarts=4, seed=1)
        assert np.count_nonzero(est.witness.matrix) > cutmetric.EXACT_PART_LIMIT
        results = [(est.upper, est.witness.matrix, est.restarts_used)]
        assert _search_digest(results) == (
            "658906cfb49cbccbec617fb7c02f250e9f0acce82a7da91942892dbb62c17ba5")

    def test_rate_R_support_candidates(self):
        p = [[1.0, 0.0, 0.4], [0.0, 1.0, 0.7], [0.4, 0.7, 0.0]]
        u = make_step_graphon([0.37, 0.29, 0.34], [[1.0, 0.0, 0.4],
                                                   [0.0, 1.0, 0.6],
                                                   [0.4, 0.6, 0.0]])
        rep = rate_R(p, u, budget=6, seed=2)
        # each support gives every part one cell, so the witness is forced and
        # its column sums, the witness fractions, are the part weights
        c = rep.witness_coupling.matrix
        assert np.all(np.count_nonzero(c, axis=1) == 1)
        np.testing.assert_array_equal(rep.witness_alpha.weights, c.sum(axis=0))
        np.testing.assert_array_equal(rep.witness_alpha.weights, [0.37, 0.29, 0.34])
        results = [(rep.value, rep.witness_coupling.matrix, rep.budget_used),
                   (None, rep.witness_alpha.weights, None)]
        assert _search_digest(results) == (
            "aca1ba2b715c6c35f9388a91e6f2cf2f6921a3b753f6a3d8f773450050e6c32a")


class _RandomKernels(cutmetric._SearchObjective):
    """A search objective that reads a stack of random kernels K[p] on the
    m x k coupling-cell grid, plus an optional random linear term, exactly
    at every piece count."""

    def __init__(self, K, linear, m, k):
        super().__init__(np.zeros((m, m)), np.zeros((k, k)))
        self.K, self.linear = K, linear
        self.piece_limit = m * k
        self.entry_bound = float(np.abs(K).max())

    def diff(self, a, i, p):
        at = a * self.cols + i
        return (self.K if p is None else self.K[p])[..., at[:, None], at]

    def const(self, w, src, tgt):
        return 0.0 if self.linear is None else float(w @ self.linear[src * self.cols + tgt])


def oracle_polish(c, objective, moves, support_cap):
    """``_polish`` as it was before candidates were bounded: every candidate
    within the support cap is evaluated in full, through the search's own
    objective stack but past its memo and its pool of cuts."""
    def evaluate(c):
        return cutmetric._objective_value(objective.stack(*_matrix_pieces(c)))

    best = evaluate(c)
    for _ in range(cutmetric._POLISH_SWEEPS):
        improved = False
        for a, b, i, j in moves:
            lo = -min(c[a, i], c[b, j])
            hi = min(c[a, j], c[b, i])
            if hi - lo <= 0.0:
                continue
            for theta in (hi, lo, hi / 2.0, lo / 2.0):
                if theta == 0.0:
                    continue
                cand = c.copy()
                cand[a, i] += theta
                cand[a, j] -= theta
                cand[b, i] -= theta
                cand[b, j] += theta
                np.maximum(cand, 0.0, out=cand)
                if int(np.count_nonzero(cand)) > support_cap:
                    continue
                val = evaluate(cand)
                if val < best - cutmetric._POLISH_TOL:
                    c = cand
                    best = val
                    improved = True
                    break
        if not improved:
            break
    return c, best


def oracle_lockstep_polish(starts, objective, moves, support_cap):
    """The restarts of a block polished one after another by ``oracle_polish``,
    each only when the restart loop reads its result."""
    return (oracle_polish(c, objective, moves, support_cap) for c in starts)


def _oracle_pairs():
    """Seeded search inputs: (kind, a, b, restarts, seed).

    Plain pairs of random graphons, pairs with a zero-weight part, pairs with
    a one-part side, pairs with values and weights rounded to tenths (many
    tied candidate values), small graphs against a two-part target, and
    coloured pairs with 1 to 4 colours.
    """
    rng = np.random.default_rng(37)
    pairs = []
    for m, k in [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (3, 4), (4, 3), (4, 2)]:
        pairs.append(("plain", _random_graphon(rng, m), _random_graphon(rng, k), 4, m + k))
    for m, k in [(3, 2), (2, 3), (3, 3), (4, 2)]:
        w = rng.dirichlet(np.ones(m))
        w[int(rng.integers(m))] = 0.0
        vals = rng.uniform(0.0, 1.0, (m, m))
        zero = make_step_graphon(w / w.sum(), (vals + vals.T) / 2.0)
        pairs.append(("plain", zero, _random_graphon(rng, k), 4, 1))
    for m in (1, 2, 3, 4):
        pairs.append(("plain", _random_graphon(rng, 1), _random_graphon(rng, m), 3, m))
    for m, k in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 2), (4, 4)]:
        def rounded(n):
            w = rng.integers(1, 5, n).astype(float)
            vals = np.round(rng.uniform(0.0, 1.0, (n, n)), 1)
            return make_step_graphon(w / w.sum(), np.maximum(vals, vals.T))
        pairs.append(("plain", rounded(m), rounded(k), 4, 2))
    two = make_step_graphon([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
    for n in (4, 5, 6):
        for s in range(2):
            g = sample_block([n], [[0.4]], 10 * n + s)
            pairs.append(("plain", graph_to_graphon(g), two, 6, s))
    layouts = [([0, 0], [0, 0, 0], 1), ([0, 1], [1, 0], 2), ([0, 1, 1], [1, 0], 2),
               ([0, 0, 1], [0, 1, 1], 2), ([1, 0, 1], [0, 1, 0, 1], 2),
               ([0], [1, 0], 2), ([0, 1, 2], [2, 1, 0], 3), ([0, 1, 2], [0, 2], 3),
               ([0, 1], [1, 0, 1], 3)]
    for trial, (ca, cb, k) in enumerate(layouts):
        a = ColouredStepGraphon(_random_graphon(rng, len(ca)), ca, num_colours=k)
        b = ColouredStepGraphon(_random_graphon(rng, len(cb)), cb, num_colours=k)
        pairs.append(("coloured", a, b, 3, trial))
    for trial, (ca, cb) in enumerate([([0, 1, 2, 3], [3, 2, 1, 0]),
                                      ([0, 1, 2, 3], [0, 1, 1, 3, 2]),
                                      ([0, 0, 2, 3], [1, 2, 3, 3])]):
        a = ColouredStepGraphon(_random_graphon(rng, len(ca)), ca, num_colours=4)
        b = ColouredStepGraphon(_random_graphon(rng, len(cb)), cb, num_colours=4)
        pairs.append(("coloured", a, b, 3, trial))
    return pairs


def _run(kind, a, b, restarts, seed):
    search = cut_distance_search if kind == "plain" else dk_distance_search
    return search(a, b, restarts=restarts, seed=seed)


class TestPrunedSearchOracle:
    """Bounded searches against the unbounded polish, bit for bit.

    Candidates are skipped only when a certified lower bound shows they
    cannot improve, so every accepted move, and with it the value, the
    witness and the restart count, must match the search that evaluates
    every candidate.
    """

    def test_searches_match_the_unpruned_polish(self, monkeypatch):
        pairs = _oracle_pairs()
        assert len(pairs) >= 40
        pruned = []
        got = []
        for case in pairs:
            est = _run(*case)
            pruned.append(est.pruned)
            got.append((repr(est.upper), est.witness.matrix.tobytes(), est.restarts_used))
        monkeypatch.setattr(cutmetric, "_lockstep_polish", oracle_lockstep_polish)
        for case, mine in zip(pairs, got):
            est = _run(*case)
            assert est.pruned == 0
            want = (repr(est.upper), est.witness.matrix.tobytes(), est.restarts_used)
            assert mine == want
        # the bound did skip candidates, in plain and in coloured searches,
        # and never at 4 colours, where polish evaluates the heuristic
        kinds = [case[0] for case in pairs]
        assert sum(p for p, kind in zip(pruned, kinds) if kind == "plain") > 0
        assert sum(p for p, kind in zip(pruned, kinds) if kind == "coloured") > 0
        for case, p in zip(pairs, pruned):
            if case[0] == "coloured" and case[1].num_colours == 4:
                assert p == 0

    def test_bound_never_exceeds_the_enumeration(self):
        rng = np.random.default_rng(38)
        m, k = 3, 4
        cells = m * k
        tight = loose = 0
        for trial in range(60):
            kernels = int(rng.choice([1, 4]))
            dyadic = trial % 3 == 0  # exact sums, many ties
            if dyadic:
                K = rng.integers(-4, 5, (kernels, cells, cells)) / 64.0
            else:
                K = rng.uniform(-1.0, 1.0, (kernels, cells, cells))
            linear = None if kernels == 1 else rng.uniform(0.0, 1.0, cells)

            def coupling(density, cell):
                if dyadic:
                    c = rng.integers(0, 4, (m, k)) * (rng.random((m, k)) < density) / 16.0
                    c[cell] += 1.0 / 16.0
                    return c
                c = rng.random((m, k)) * (rng.random((m, k)) < density)
                c[cell] += 0.1
                return c / c.sum()

            def bounds(objective, c):
                x = c.reshape(1, -1)
                slots = np.arange(min(objective.pooled, cutmetric._CUT_POOL_SIZE))
                bound, margin = objective.screen_bounds(x, x.sum(axis=1), slots)
                return float(bound[0]), float(margin[0])

            objective = _RandomKernels(K, linear, m, k)
            for _ in range(int(rng.integers(1, 40))):
                objective(coupling(0.7, (0, 0)))
            c = coupling(0.8, (1, 1))
            exact = cutmetric._stack_value(*objective.stack(*_matrix_pieces(c)))[0]
            bound, margin = bounds(objective, c)
            assert 0.0 <= margin < 1e-12
            assert bound <= exact + margin
            loose += bound < exact - margin
            # once the candidate's own best cut is pooled the bound meets it
            own = _RandomKernels(K, linear, m, k)
            assert own(c) == exact
            bound, margin = bounds(own, c)
            assert abs(bound - exact) <= margin
            tight += 1
        assert loose > 0 and tight == 60

    def test_skipped_candidates_are_never_below_the_threshold(self, monkeypatch):
        screen = cutmetric._SearchObjective.screen
        skipped = {"plain": 0, "coloured": 0}
        kind = [None]

        def enumerating_screen(self, cands, threshold, own):
            skip = screen(self, cands, threshold, own)
            for cand, limit in zip(cands[skip], threshold[skip]):
                value = cutmetric._objective_value(self.stack(*_matrix_pieces(cand)))
                assert value >= limit
            skipped[kind[0]] += int(skip.sum())
            return skip

        monkeypatch.setattr(cutmetric._SearchObjective, "screen", enumerating_screen)
        graphs = [("plain", graph_to_graphon(sample_block([n], [[0.4]], graph_seed)),
                   _TWO_PART_TARGET, 16, 0) for n in (6, 8) for graph_seed in range(2)]
        for case in _oracle_pairs() + graphs:
            kind[0] = case[0]
            _run(*case)
        assert skipped["plain"] > 0 and skipped["coloured"] > 0

    def test_grid_matches_the_stack_on_the_pieces(self, monkeypatch):
        """The search objective's grid kernels, and its stack on a witness's
        pieces, are the formula written out here: sig[ca, ca'] U - sig[cb, cb'] V
        for every sign pattern sig (for the cut, one colour and sig = +1), with
        the symmetric difference as const term, and ``entry_bound`` is the
        largest entry over every pattern."""
        searches = []
        search = cutmetric._coupling_search

        def recording(u, v, objective, *rest):
            est = search(u, v, objective, *rest)
            searches.append((u.values, v.values, objective, est.witness.matrix))
            return est

        monkeypatch.setattr(cutmetric, "_coupling_search", recording)
        monkeypatch.setattr(coloured, "_coupling_search", recording)
        rng = np.random.default_rng(40)
        cut_distance_search(_random_graphon(rng, 3), _random_graphon(rng, 4), restarts=2)
        colourings = [(None, None, 1)]
        for ca, cb, k in [([0, 1, 1], [1, 0], 2), ([0, 1, 2], [2, 1, 0, 0], 3)]:
            a = ColouredStepGraphon(_random_graphon(rng, len(ca)), ca, num_colours=k)
            b = ColouredStepGraphon(_random_graphon(rng, len(cb)), cb, num_colours=k)
            dk_distance_search(a, b, restarts=2)
            colourings.append((np.array(ca), np.array(cb), k))
        assert len(searches) == 3
        for (U, V, objective, c), (ca, cb, k) in zip(searches, colourings):
            if ca is None:  # the cut: one colour, one sign pattern, +1
                ca, cb = np.zeros(len(U), int), np.zeros(len(V), int)
            m, n = c.shape
            w, src, tgt = _matrix_pieces(c)
            assert abs(w.sum() - 1.0) <= NORMALIZATION_TOL  # the cut keeps w as it is
            const, H = objective.stack(w, src, tgt)
            at = src * n + tgt
            mass = w[:, None] * w[None, :]
            assert H.shape[0] == 2 ** (k * k - 1)
            tops = []
            for p in range(H.shape[0]):
                bits = [(2 * p >> bit) & 1 for bit in range(k * k)]
                sig = 1.0 - 2.0 * np.array(bits, dtype=float).reshape(k, k)
                want = ((sig[ca[:, None], ca] * U)[:, None, :, None]
                        - (sig[cb[:, None], cb] * V)[None, :, None, :]).reshape(m * n, m * n)
                K, KT = objective.kernel(p)
                np.testing.assert_array_equal(K, want)
                np.testing.assert_array_equal(KT, want.T)
                np.testing.assert_array_equal(H[p], mass * want[at[:, None], at])
                tops.append(np.abs(K).max())
            # every sign pattern is enumerated here, so the bound is attained
            assert max(tops) == objective.entry_bound
            if k == 1:
                assert const == 0.0 and objective.linear is None
            else:
                second = 0.0  # the measure where exactly one side has the colour
                for colour in range(k):
                    second += float(w[(ca[src] == colour) != (cb[tgt] == colour)].sum())
                assert const == second
                assert abs(c.ravel() @ objective.linear - second) <= 1e-15

    def test_one_part_side_is_evaluated_once(self):
        u = _random_graphon(np.random.default_rng(39), 5)
        v = make_step_graphon([1.0], [[0.5]])
        # one part on a side leaves the single coupling outer(rows, cols)
        est = cut_distance_search(u, v, restarts=16, seed=0)
        assert (est.restarts_used, est.evaluations, est.pruned) == (1, 1, 0)
        np.testing.assert_array_equal(est.witness.matrix, np.outer(u.parts.weights, [1.0]))
        assert est.upper == cut_distance_upper(u, v, est.witness)
        flipped = cut_distance_search(v, u, restarts=16, seed=0)
        assert (flipped.restarts_used, flipped.evaluations) == (1, 1)
        assert repr(flipped.upper) == repr(est.upper)
        assert set(est.to_json()) == {"upper", "witness", "restartsUsed"}
        a = ColouredStepGraphon(u, [0, 1, 1, 0, 1], num_colours=2)
        b = ColouredStepGraphon(v, [1], num_colours=2)
        est = dk_distance_search(a, b, restarts=16, seed=0)
        assert (est.restarts_used, est.evaluations, est.pruned) == (1, 1, 0)

    def test_a_zero_retires_the_rest_of_its_block(self):
        rng = np.random.default_rng(46)
        u = _random_graphon(rng, 4)
        perm = [2, 0, 3, 1]
        w = make_step_graphon(u.parts.weights[perm], u.values[np.ix_(perm, perm)])
        est = cut_distance_search(u, w, restarts=64, seed=0)
        assert (est.upper, est.restarts_used) == (0.0, 1)
        # the block's other walks stop with the zero, and no later block starts
        block = cut_distance_search(u, w, restarts=cutmetric._LOCKSTEP_WALKS, seed=0)
        assert (block.upper, block.restarts_used) == (0.0, 1)
        assert est.evaluations == block.evaluations


class _OfferWalk(cutmetric._Walk):
    """``_Walk`` as it was before the walks' stops were built together: its
    scan keeps every move's edge ends, and ``offer`` picks the next chunk and
    builds that chunk's stops for this walk alone.  ``capped`` counts the
    walks ended by the sweep cap while still improving."""

    capped = 0

    def _scan(self, nxt):
        a, b, i, j = self.moves.T
        self.lo = -np.minimum(self.c[a, i], self.c[b, j])
        self.hi = np.minimum(self.c[a, j], self.c[b, i])
        live = np.flatnonzero(self.hi - self.lo > 0.0)
        self.live = live[live >= nxt]
        self.pos = 0

    def offer(self, support_cap):
        while self.pos >= self.live.size:
            self.sweep += 1
            if not self.improved or self.sweep == cutmetric._POLISH_SWEEPS:
                _OfferWalk.capped += self.improved
                return None
            self.improved = False
            self._scan(0)
        chunk = self.live[self.pos:self.pos + cutmetric._SCREEN_MOVES]
        self.pos += cutmetric._SCREEN_MOVES
        hi, lo = self.hi[chunk], self.lo[chunk]
        theta = np.stack([hi, lo, hi / 2.0, lo / 2.0], axis=1).ravel()
        move = np.repeat(chunk, 4)
        keep = theta != 0.0
        theta, move = theta[keep], move[keep]
        a, b, i, j = self.moves[move].T
        stops = np.repeat(self.c[None], theta.size, axis=0)
        rows = np.arange(theta.size)
        stops[rows, a, i] += theta
        stops[rows, a, j] -= theta
        stops[rows, b, i] -= theta
        stops[rows, b, j] += theta
        np.maximum(stops, 0.0, out=stops)
        fits = np.count_nonzero(stops.reshape(theta.size, -1), axis=1) <= support_cap
        return stops[fits], move[fits] + 1


def offer_lockstep_polish(starts, objective, moves, support_cap, empty):
    """``_lockstep_polish`` as it was, each walk offering its own stops;
    ``empty`` collects the number of offers that left no stop."""
    walks = [_OfferWalk(c, objective, moves) for c in starts]
    live = range(len(walks))
    while True:
        offers = []
        for w in live:
            if w >= len(walks):  # retired
                break
            offer = walks[w].offer(support_cap)
            if offer is not None:
                offers.append((w, offer))
            elif walks[w].best <= 0.0:
                del walks[w + 1:]
        if not offers:
            break
        live = [w for w, _ in offers]
        stops = np.concatenate([stop for _, (stop, _) in offers])
        counts = [len(stop) for _, (stop, _) in offers]
        empty.append(counts.count(0))
        thresholds = np.repeat([walks[w].best - cutmetric._POLISH_TOL for w, _ in offers],
                               counts)
        own = np.repeat([walks[w].own for w, _ in offers], counts)
        skip = objective.screen(stops, thresholds, own)
        at = 0
        for w, (stop, after) in offers:
            walks[w].take(stop, after, skip[at:at + len(stop)], objective)
            at += len(stop)
    return [(walk.c, walk.best) for walk in walks]


def _recorded_polish(polish, u, v, starts, moves, support_cap, *extra):
    """Run one polish on a fresh objective of u against v; returns every
    screen call's (stops, thresholds, own) bytes, the walks' results and
    the objective's counts."""
    objective = cutmetric._CutObjective(u.values, v.values)
    screen = objective.screen
    calls = []

    def recording(stops, thresholds, own):
        calls.append((stops.shape, stops.tobytes(), thresholds.tobytes(), own.tobytes()))
        return screen(stops, thresholds, own)

    objective.screen = recording
    results = polish([c.copy() for c in starts], objective, moves, support_cap, *extra)
    results = [(c.tobytes(), repr(best)) for c, best in results]
    return calls, results, (objective.evaluations, objective.pruned)


class TestSharedStopBuilding:
    """The walks' stops built together, against each walk building its own.

    The oracle is a copy of ``_Walk.offer`` and the lockstep loop as they
    were; every screen call must see the same stops, thresholds and cuts,
    byte for byte, so the walks accept the same moves and the shared memo
    and pool count the same evaluations and skips.
    """

    @staticmethod
    def _starts(rng, u, v, count):
        rows, cols = u.parts.weights, v.parts.weights
        cells = rows.size * cols.size
        return [cutmetric._greedy_fill(rows, cols, rng.permutation(cells)) for _ in range(count)]

    def _compare(self, u, v, starts, support_cap):
        m, k = u.parts.size, v.parts.size
        moves = np.array(cutmetric._cycle_moves(m, k), dtype=np.intp).reshape(-1, 4)
        empty = []
        want = _recorded_polish(offer_lockstep_polish, u, v, starts, moves, support_cap, empty)
        got = _recorded_polish(cutmetric._lockstep_polish, u, v, starts, moves, support_cap)
        assert got[0] == want[0]
        assert got[1:] == want[1:]
        return want[1], sum(empty)

    def test_matches_walks_building_their_own(self, monkeypatch):
        rng = np.random.default_rng(53)
        u, v = _random_graphon(rng, 5), _random_graphon(rng, 4)
        starts = self._starts(rng, u, v, cutmetric._LOCKSTEP_WALKS)
        results, empty = self._compare(u, v, starts, 12)
        assert len(results) == len(starts)
        # a vertex's own support as the cap drops every midpoint, so some
        # offers keep no stop at all
        results, empty = self._compare(u, v, starts, 8)
        assert empty > 0
        # walks that are still improving when the sweep cap ends them
        monkeypatch.setattr(cutmetric, "_POLISH_SWEEPS", 2)
        _OfferWalk.capped = 0
        self._compare(u, v, starts, 12)
        assert _OfferWalk.capped > 0

    def test_matches_with_retired_walks(self):
        rng = np.random.default_rng(46)
        u = _random_graphon(rng, 4)
        perm = [2, 0, 3, 1]
        w = make_step_graphon(u.parts.weights[perm], u.values[np.ix_(perm, perm)])
        starts = self._starts(rng, u, w, cutmetric._LOCKSTEP_WALKS)
        results, _ = self._compare(u, w, starts, 12)
        # a walk that reached zero retired the walks after it
        assert len(results) < len(starts)
        assert results[-1][1] == "0.0"

    def test_builder_keeps_empty_chunks_empty(self):
        rng = np.random.default_rng(54)
        u, v = _random_graphon(rng, 3), _random_graphon(rng, 4)
        moves = np.array(cutmetric._cycle_moves(3, 4), dtype=np.intp).reshape(-1, 4)
        objective = cutmetric._CutObjective(u.values, v.values)
        walks = [_OfferWalk(c, objective, moves) for c in self._starts(rng, u, v, 3)]
        chunks = [walk.live[:cutmetric._SCREEN_MOVES] for walk in walks]
        offers = [walk.offer(10) for walk in walks]
        empty = np.empty(0, dtype=np.intp)
        couplings = [walks[0].c, walks[0].c, walks[1].c, walks[2].c, walks[2].c]
        stops, after, owner = cutmetric._chunk_stops(
            couplings, [empty, chunks[0], chunks[1], empty, chunks[2]], moves, 10)
        assert owner.tolist() == sorted(owner.tolist())
        want = [(np.empty((0, 3, 4)), empty), offers[0], offers[1],
                (np.empty((0, 3, 4)), empty), offers[2]]
        for slot, (want_stops, want_after) in enumerate(want):
            at = owner == slot
            assert stops[at].tobytes() == want_stops.tobytes()
            assert after[at].tolist() == want_after.tolist()
        alone = cutmetric._chunk_stops(couplings[:1], [empty], moves, 10)
        assert [x.shape for x in alone] == [(0, 3, 4), (0,), (0,)]

    def test_no_stop_has_its_sign_bit_set(self, monkeypatch):
        # every stop entry is c + theta with theta bounded by the cells it
        # moves, so no entry is negative or -0.0 and no clamp is needed
        built = []
        chunk_stops = cutmetric._chunk_stops

        def recording(*args):
            got = chunk_stops(*args)
            built.append(got[0])
            return got

        monkeypatch.setattr(cutmetric, "_chunk_stops", recording)
        rng = np.random.default_rng(53)
        u, v = _random_graphon(rng, 5), _random_graphon(rng, 4)
        starts = self._starts(rng, u, v, cutmetric._LOCKSTEP_WALKS)
        for cap in (12, 8):
            self._compare(u, v, starts, cap)
        rng = np.random.default_rng(46)
        u = _random_graphon(rng, 4)
        perm = [2, 0, 3, 1]
        w = make_step_graphon(u.parts.weights[perm], u.values[np.ix_(perm, perm)])
        self._compare(u, w, self._starts(rng, u, w, cutmetric._LOCKSTEP_WALKS), 12)
        stops = np.concatenate([s.ravel() for s in built])
        assert len(built) > 10 and stops.size > 1000
        assert not np.signbit(stops).any()

    def test_seeded_search_counts(self):
        """Pinned at the lockstep polish with per-walk stop building."""
        rng = np.random.default_rng(52)
        u, v = _random_graphon(rng, 5), _random_graphon(rng, 5)
        est = cut_distance_search(u, v, restarts=16, seed=0)
        assert (repr(est.upper), est.restarts_used) == ("0.11078979593848445", 16)
        assert (est.evaluations, est.pruned) == (73, 1411)


_TWO_PART_TARGET = make_step_graphon([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])


@functools.lru_cache(maxsize=4)
def _graph_search(n, graph_seed):
    g = sample_block([n], [[0.4]], graph_seed)
    return cut_distance_search(graph_to_graphon(g), _TWO_PART_TARGET, restarts=16, seed=0)


class TestFrozenBoundedSearch:
    """Digests of searches whose candidates are mostly skipped by the bound.

    Recorded before the searches bounded their candidates: G(n, 0.4) samples
    against a two-part target (the G(12, 0.4) search took 33 s then), and a
    4-colour coloured search, whose polish evaluates the alternating
    heuristic and is never pruned.  The 4-colour digest was re-derived when
    that heuristic became the stacked ascent of the cut norm: the three
    values are unchanged, and the third search returns another witness of
    the same value.
    """

    def test_graph_against_two_part_target_n8(self):
        results = []
        for graph_seed in range(3):
            est = _graph_search(8, graph_seed)
            results.append((est.upper, est.witness.matrix, est.restarts_used))
        assert _search_digest(results) == (
            "7ae5a7cb1ec31b5e4653fa54e3321eec2e5965e5be7d79e684ca5d66119082c5")

    def test_graph_against_two_part_target_n12(self):
        est = _graph_search(12, 0)
        results = [(est.upper, est.witness.matrix, est.restarts_used)]
        assert _search_digest(results) == (
            "f3751cbee3b8714316d954d0e9f636357bda5be7eb7ea7d4eff4f7d18295526f")

    def test_graph_against_two_part_target_n12_evaluations(self):
        est = _graph_search(12, 0)
        assert est.evaluations < 200
        assert est.pruned > 10 * est.evaluations

    def test_dk_four_colours(self):
        rng = np.random.default_rng(36)
        results = []
        for trial, (ca, cb) in enumerate([([0, 1, 2, 3], [3, 2, 1, 0]),
                                          ([0, 1, 2, 3], [0, 0, 1, 2, 3]),
                                          ([0, 1, 1, 2, 3], [3, 1, 2, 0])]):
            a = ColouredStepGraphon(_random_graphon(rng, len(ca)), ca, num_colours=4)
            b = ColouredStepGraphon(_random_graphon(rng, len(cb)), cb, num_colours=4)
            est = dk_distance_search(a, b, restarts=4, seed=trial)
            assert est.pruned == 0
            results.append((est.upper, est.witness.matrix, est.restarts_used))
        assert _search_digest(results) == (
            "80779dd319697a8aabf15efb86918c0bdba8b2a1c885ab118f92bde8f14d1fd2")
