import hashlib
import itertools

import numpy as np
import pytest

from stepldp import cutmetric
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
    LabeledGraph,
    OverlapCoupling,
    PartWeights,
    coupling_pieces,
    graph_to_graphon,
    make_step_graphon,
)
from stepldp.rates import rate_J, rate_R


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
    the shared ``_coupling_search``, so they pin its behaviour exactly.
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
            "12e9ab4cb50b200864bd7a6045027d24e537a8b84c157081af28dfcde132eddb")

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
            "3ebd5516d06a0fac00f23972dc49ea8aa479e61eb7711a82f44aabf4eeac9cab")

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
        assert _search_digest(results) == (
            "2c25e6a3ff4f0f6017149ae8ca3dd912d085b9e9f018437b20f678262a99b879")

    def test_graph_cut_distance_exact(self):
        rng = np.random.default_rng(34)
        results = []
        for _ in range(2):
            g, h = (LabeledGraph(7, [(i, j) for i in range(7) for j in range(i + 1, 7)
                                     if rng.random() < 0.5]) for _ in range(2))
            results.append((graph_cut_distance_exact(g, h), None, None))
        assert _search_digest(results) == (
            "0d112ea6da5eece0726451d8bb737740c035a482a93c023fc20da19041d58145")
