import hashlib
import tracemalloc

import numpy as np
import pytest

from stepldp import samplers
from stepldp.graphon import (LabeledGraph, dump_edgelist, graph_from_edgelist,
                             graph_to_edgelist, make_step_graphon)
from stepldp.samplers import (
    _bernoulli_pairs,
    _same_rows,
    alignment_distance_bound,
    apportion_counts,
    coupled_block_sample,
    sample_block,
    sample_wrandom,
)


def oracle_bernoulli_pairs(types, p, rng, aligned=None, shared=None):
    """The per-pair formula: triu index arrays, one gathered threshold per pair.

    ``shared`` is a generator; all c(c-1)/2 shared coins are drawn from it at once.
    """
    n = types.size
    iu, ju = np.triu_indices(n, k=1)
    coins = rng.random(iu.size)
    if shared is not None:
        c = aligned.size
        shared_coins = shared.random(c * (c - 1) // 2)
        pos = np.full(n, -1, dtype=int)
        pos[aligned] = np.arange(c)
        pi, pj = pos[iu], pos[ju]
        both = (pi >= 0) & (pj >= 0)
        # row-major rank of the aligned pair (s, t), s < t, among c(c-1)/2 pairs
        s_idx = pi[both]
        t_idx = pj[both]
        rank = s_idx * (2 * c - s_idx - 1) // 2 + (t_idx - s_idx - 1)
        coins[both] = shared_coins[rank]
    hit = coins < p[types[iu], types[ju]]
    return np.column_stack((iu[hit], ju[hit]))


class TestBernoulliPairsOracle:
    """The row-slice kernel draws the same coins and edges as the per-pair formula."""

    @staticmethod
    def _case(rng):
        k = int(rng.integers(1, 5))
        n = int(rng.choice([rng.integers(0, 12), rng.integers(12, 301)]))
        types = rng.integers(0, k, n)
        if rng.random() < 0.5:
            types = np.sort(types)
        p = rng.random((k, k))
        p = np.triu(p) + np.triu(p, 1).T
        p[p < 0.15] = 0.0
        p[p > 0.85] = 1.0
        return types, p

    @staticmethod
    def _aligned(rng, n):
        size = int(rng.choice([0, 1, 2, rng.integers(0, n + 1)]))
        size = min(size, n)
        if rng.random() < 0.3:
            return np.arange(size)
        return np.sort(rng.choice(n, size, replace=False))

    @staticmethod
    def _assert_same(types, p, seed, aligned=None, shared_seed=None):
        """Same edges and end states; the two shared generators start alike."""
        rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
        shared_got = shared_want = None
        if shared_seed is not None:
            shared_got = np.random.default_rng(shared_seed)
            shared_want = np.random.default_rng(shared_seed)
        got = _bernoulli_pairs(types, p, rng_got, aligned, shared_got)
        want = oracle_bernoulli_pairs(types, p, rng_want, aligned, shared_want)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want.astype(np.int32))
        assert rng_got.bit_generator.state == rng_want.bit_generator.state
        if shared_seed is not None:
            assert shared_got.bit_generator.state == shared_want.bit_generator.state

    def test_independent_pairs(self):
        rng = np.random.default_rng(101)
        for trial in range(200):
            types, p = self._case(rng)
            self._assert_same(types, p, trial)

    def test_shared_coins(self):
        rng = np.random.default_rng(202)
        for trial in range(200):
            types, p = self._case(rng)
            aligned = self._aligned(rng, types.size)
            self._assert_same(types, p, trial, aligned, 1000 + trial)

    def test_all_zero_and_all_one(self):
        types = np.array([0, 1, 1, 0, 2, 2, 1])
        for value in (0.0, 1.0):
            self._assert_same(types, np.full((3, 3), value), 7)
        complete = _bernoulli_pairs(types, np.ones((3, 3)), np.random.default_rng(0))
        assert len(complete) == types.size * (types.size - 1) // 2


class TestPairChunks:
    """Chunks of a few pairs start and end inside rows and draw the oracle's edges."""

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64])
    def test_oracle_cases_in_small_chunks(self, monkeypatch, chunk):
        monkeypatch.setattr(samplers, "_PAIR_CHUNK", chunk)
        case = TestBernoulliPairsOracle
        rng = np.random.default_rng(303 + chunk)
        for trial in range(60):
            types, p = case._case(rng)
            if chunk < 64:
                types = types[:40]  # a chunk per pair or three: keep the loop short
            case._assert_same(types, p, trial)
            aligned = case._aligned(rng, types.size)
            case._assert_same(types, p, trial, aligned, 1000 + trial)

    def test_edges_past_the_reserved_rows(self, monkeypatch):
        # no room reserved: every chunk with a hit grows the edge array
        monkeypatch.setattr(samplers, "_PAIR_CHUNK", 7)
        monkeypatch.setattr(samplers, "_edge_room", lambda types, p, total: 0)
        case = TestBernoulliPairsOracle
        rng = np.random.default_rng(404)
        for trial in range(20):
            types, p = case._case(rng)
            types = types[:40]
            case._assert_same(types, p, trial)
            case._assert_same(types, p, trial, case._aligned(rng, types.size), 1000 + trial)

    def test_reserved_rows_cover_a_typical_draw(self):
        p = np.array([[0.45, 0.25], [0.25, 0.4]])
        types = np.repeat([0, 1], [1156, 844])
        room = samplers._edge_room(types, p, 1999000)
        assert 686389 < room < 1.01 * 686389

    def test_rows_longer_than_a_chunk(self, monkeypatch):
        monkeypatch.setattr(samplers, "_PAIR_CHUNK", 5)
        types = np.array([0, 1] * 9)
        p = np.array([[0.5, 0.2], [0.2, 0.7]])
        aligned = np.array([0, 2, 3, 4, 9, 16, 17])
        TestBernoulliPairsOracle._assert_same(types, p, 11)
        TestBernoulliPairsOracle._assert_same(types, p, 12, aligned, 9)


class TestSmallInputs:
    def test_one_vertex_draws_no_coin(self):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        edges = _bernoulli_pairs(np.zeros(1, dtype=int), np.array([[0.5]]), rng)
        assert edges.shape == (0, 2)
        assert rng.bit_generator.state == state
        assert sample_block([1], [[1.0]], seed=5).edge_count() == 0

    def test_wrandom_without_vertices_names_the_graph(self):
        u = make_step_graphon([0.5, 0.5], [[0.8, 0.1], [0.1, 0.6]])
        with pytest.raises(ValueError, match="^graph needs at least one vertex$"):
            sample_wrandom(0, u, seed=0)

    def test_coupled_with_one_aligned_vertex(self):
        p = [[0.5, 0.3], [0.3, 0.6]]
        frozen = [[[0, 2]], [[0, 1], [0, 2], [1, 2]], [], [[0, 1], [0, 2]], [[0, 1]],
                  [[0, 2], [1, 2]]]
        for seed, edges_b in enumerate(frozen):
            pair = coupled_block_sample([1, 0], [1, 2], p, seed=seed)
            assert pair.graph_a.edge_count() == 0
            assert pair.graph_b.edges.tolist() == edges_b
            assert pair.aligned_a.tolist() == pair.aligned_b.tolist() == [0]
            assert (pair.epsilon, pair.bound) == (2.0, 4.0)


def _traced_peak_mib(fn):
    """Peak bytes (in MiB) that fn allocates; numpy reports its buffers to tracemalloc."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if started:
            tracemalloc.stop()


class TestSamplerMemory:
    """Memory is O(n + E): no array of all n(n-1)/2 coins, thresholds or ranks.

    The bounds are the traced peaks, 10.5, 5.4, 12.0, 2.8, 1.15 and 15.7 MiB,
    plus 25 %, and never above 18, 7, 12.5, 8, 2 and 40 MiB.  Holding every
    coin at once took 27.5, 16.2 and 140 MiB in the three samplings, the
    one-take edge list 22.6 MiB, comparing the whole aligned subgraphs at
    once 9.1 MiB, and reading every line and id into lists 101.7 MiB.
    """

    P = np.array([[0.45, 0.25], [0.25, 0.4]])

    def test_sample_block_peak(self):
        assert _traced_peak_mib(lambda: sample_block([1156, 844], self.P, 1)) <= 13.2

    def test_coupled_block_sample_peak(self):
        # 6.1 MiB on a process's first coupled draw; the aligned-subgraph
        # check holds one block of relabelled rows of each graph
        peak = _traced_peak_mib(
            lambda: coupled_block_sample([586, 592], [576, 602], self.P, 1))
        assert peak <= 6.8

    def test_graph_to_edgelist_peak(self):
        # the text itself is 5.8 MiB, and the joined str is a second copy
        g = sample_block([1156, 844], self.P, 1)
        assert g.edge_count() == 686389
        assert _traced_peak_mib(lambda: graph_to_edgelist(g)) <= 12.5

    def test_sparse_sample_block_peak(self):
        # 18 million pairs, 181 thousand edges
        assert _traced_peak_mib(lambda: sample_block([6000], [[0.01]], 1)) <= 3.5

    @pytest.fixture(scope="class")
    def dense(self):
        return sample_block([1156, 844], self.P, 1)

    def test_dump_edgelist_peak(self, dense, tmp_path):
        # one block of 2^15 edges: its gathered labels and its text
        assert _traced_peak_mib(lambda: dump_edgelist(dense, tmp_path / "g.edges")) <= 1.45

    def test_dump_edgelist_table_covers_the_labels_in_use(self, tmp_path):
        # a label table of every vertex of 10^6 took 107.5 MiB for two lines
        path = tmp_path / "g.edges"
        g = LabeledGraph(10**6, [(0, 1)])
        assert _traced_peak_mib(lambda: dump_edgelist(g, path)) <= 1.0
        assert path.read_bytes() == b"1000000\n0 1\n"

    def test_graph_from_edgelist_peak(self, dense):
        # the int32 ids of every block, their concatenation and the graph's rows
        text = graph_to_edgelist(dense)
        graph = []
        assert _traced_peak_mib(lambda: graph.append(graph_from_edgelist(text))) <= 19.7
        assert np.array_equal(graph[0].edges, dense.edges)


class _CountingGenerator:
    """A generator's ``random`` that records how many coins each call draws."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.draws = []

    def random(self, size=None, out=None):
        self.draws.append(size if out is None else out.size)
        return self.rng.random(size, out=out)


class TestChunkedDraws:
    """No call draws more than ``_PAIR_CHUNK`` coins, own or shared, and together they
    draw every pair's coin once, as the one-block oracle does."""

    @pytest.mark.parametrize("chunk", [None, 7, 64])
    def test_each_draw_is_at_most_a_chunk(self, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(samplers, "_PAIR_CHUNK", chunk)
        n = 300 if chunk is None else 40  # 44,850 pairs span two default chunks
        types = np.repeat([0, 1], [n // 2, n - n // 2])
        p = np.array([[0.5, 0.2], [0.2, 0.7]])
        aligned = np.arange(0, n, 3)
        c = aligned.size
        own, shared = _CountingGenerator(4), _CountingGenerator(5)
        got = _bernoulli_pairs(types, p, own, aligned, shared)
        want = oracle_bernoulli_pairs(types, p, np.random.default_rng(4), aligned,
                                      np.random.default_rng(5))
        np.testing.assert_array_equal(got, want.astype(np.int32))
        assert max(own.draws + shared.draws) <= samplers._PAIR_CHUNK
        assert sum(own.draws) == n * (n - 1) // 2
        assert sum(shared.draws) == c * (c - 1) // 2


class TestGraphsAreChecked:
    def test_samplers_build_graphs_through_the_constructor(self, monkeypatch):
        # every sampled graph passes LabeledGraph's checks; none is built around them
        calls = []
        init = LabeledGraph.__init__

        def counted(self, n, edges=()):
            calls.append(n)
            init(self, n, edges)

        monkeypatch.setattr(LabeledGraph, "__init__", counted)
        p = [[0.5, 0.2], [0.2, 0.6]]
        g = sample_block([5, 6], p, 0)
        assert calls == [11]
        s = sample_wrandom(9, make_step_graphon([0.5, 0.5], p), 0)
        assert calls == [11, 9]
        pair = coupled_block_sample([4, 5], [5, 4], p, 0)
        assert calls == [11, 9, 9, 9]
        for graph in (g, s.graph, pair.graph_a, pair.graph_b):
            assert type(graph) is LabeledGraph


class TestApportionCounts:
    def test_sums_and_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            m = int(rng.integers(1, 7))
            w = rng.dirichlet(np.ones(m))
            n = int(rng.integers(0, 200))
            c = apportion_counts(n, w)
            assert c.sum() == n
            assert np.all(c >= np.floor(n * w).astype(int))
            assert np.all(c <= np.floor(n * w).astype(int) + 1)

    def test_exact_when_divisible(self):
        np.testing.assert_array_equal(apportion_counts(10, [0.2, 0.3, 0.5]),
                                      [2, 3, 5])

    def test_tie_goes_to_lower_index(self):
        np.testing.assert_array_equal(apportion_counts(1, [0.5, 0.5]), [1, 0])
        np.testing.assert_array_equal(apportion_counts(3, [0.5, 0.5]), [2, 1])

    def test_zero_weight_part_gets_nothing(self):
        np.testing.assert_array_equal(apportion_counts(7, [0.0, 1.0]), [0, 7])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            apportion_counts(-1, [1.0])


class TestSampleBlock:
    def test_shape_and_determinism(self):
        p = np.array([[0.7, 0.2], [0.2, 0.4]])
        g1 = sample_block([3, 4], p, seed=42)
        g2 = sample_block([3, 4], p, seed=42)
        assert g1.n == 7
        assert np.array_equal(g1.edges, g2.edges)
        g3 = sample_block([3, 4], p, seed=43)
        assert not np.array_equal(g1.edges, g3.edges)  # overwhelmingly likely

    def test_probability_zero_and_one_exact(self):
        p = np.array([[1.0, 0.0], [0.0, 1.0]])
        g = sample_block([4, 5], p, seed=0)
        adj = g.adjacency()
        # first four vertices form a clique, last five form a clique,
        # nothing crosses
        assert np.all(adj[:4, :4][np.triu_indices(4, 1)] == 1)
        assert np.all(adj[4:, 4:][np.triu_indices(5, 1)] == 1)
        assert np.all(adj[:4, 4:] == 0)

    def test_no_loops(self):
        g = sample_block([6], [[1.0]], seed=1)
        assert np.all(np.diag(g.adjacency()) == 0)

    def test_empirical_frequency(self):
        p = np.array([[0.3]])
        total = edges = 0
        for s in range(200):
            g = sample_block([12], p, seed=s)
            edges += len(g.edges)
            total += 12 * 11 // 2
        freq = edges / total
        assert abs(freq - 0.3) < 0.02

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            sample_block([-1, 2], np.full((2, 2), 0.5), seed=0)
        with pytest.raises(ValueError):
            sample_block([1, 2, 3], np.full((2, 2), 0.5), seed=0)


class TestSampleWRandom:
    def test_counts_match_graph(self):
        u = make_step_graphon([0.3, 0.7], [[0.9, 0.1], [0.1, 0.5]])
        s = sample_wrandom(25, u, seed=7)
        assert s.counts.sum() == 25
        assert s.graph.n == 25

    def test_zero_weight_part_never_sampled(self):
        u = make_step_graphon(np.array([0.0, 1.0]), [[0.9, 0.1], [0.1, 0.5]])
        for seed in range(10):
            s = sample_wrandom(30, u, seed=seed)
            assert s.counts[0] == 0

    def test_determinism(self):
        u = make_step_graphon([0.5, 0.5], [[0.8, 0.1], [0.1, 0.6]])
        a = sample_wrandom(20, u, seed=3)
        b = sample_wrandom(20, u, seed=3)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_type_frequencies(self):
        u = make_step_graphon([0.25, 0.75], [[0.5, 0.5], [0.5, 0.5]])
        totals = np.zeros(2)
        for seed in range(100):
            totals += sample_wrandom(40, u, seed=seed).counts
        props = totals / totals.sum()
        assert abs(props[0] - 0.25) < 0.03


class TestAlignmentBound:
    def test_identical_counts(self):
        assert alignment_distance_bound([5, 5], [5, 5]) == 0.0

    def test_frozen_example(self):
        # shares min(3,4)+min(3,3) = 6 of max 7 vertices on one side:
        # s_a = 6/6, s_b = 6/7 -> 2(7/6 - 1) = 1/3
        assert abs(alignment_distance_bound([3, 3], [4, 3]) - 1.0 / 3.0) < 1e-15

    def test_disjoint_supports(self):
        assert alignment_distance_bound([5, 0], [0, 5]) == float("inf")


class TestCoupledBlockSample:
    def test_frozen_small_example(self):
        p = np.full((2, 2), 0.5)
        pair = coupled_block_sample([3, 3], [4, 3], p, seed=11)
        assert abs(pair.epsilon - 1.0 / 6.0) < 1e-15
        assert abs(pair.bound - 1.0 / 3.0) < 1e-15
        np.testing.assert_array_equal(pair.aligned_a, list(range(6)))
        np.testing.assert_array_equal(pair.aligned_b, [0, 1, 2, 4, 5, 6])

    def test_shared_part_isomorphic(self):
        p = np.array([[0.6, 0.2], [0.2, 0.7]])
        for seed in range(50):
            pair = coupled_block_sample([5, 7], [6, 6], p, seed=seed)
            a = pair.graph_a.adjacency()[np.ix_(pair.aligned_a, pair.aligned_a)]
            b = pair.graph_b.adjacency()[np.ix_(pair.aligned_b, pair.aligned_b)]
            np.testing.assert_array_equal(a, b)

    def test_epsilon_formula(self):
        pair = coupled_block_sample([10, 10], [8, 12], np.full((2, 2), 0.5), seed=0)
        # unaligned mass is |10-8| + |10-12| = 4 over min(20, 20)
        assert abs(pair.epsilon - 4.0 / 20.0) < 1e-15

    def test_marginal_law(self):
        # each coupled graph, viewed alone, has the block-model law
        p = np.array([[0.6]])
        edges = trials = 0
        for seed in range(300):
            pair = coupled_block_sample([8], [10], p, seed=seed)
            edges += len(pair.graph_a.edges)
            trials += 8 * 7 // 2
        assert abs(edges / trials - 0.6) < 0.02

    def test_determinism(self):
        p = np.full((2, 2), 0.4)
        x = coupled_block_sample([4, 5], [5, 4], p, seed=9)
        y = coupled_block_sample([4, 5], [5, 4], p, seed=9)
        assert np.array_equal(x.graph_a.edges, y.graph_a.edges)
        assert np.array_equal(x.graph_b.edges, y.graph_b.edges)

    def test_broken_coupling_is_caught(self, monkeypatch):
        def ignore_shared(types, p, rng, aligned=None, shared_coins=None):
            return _bernoulli_pairs(types, p, rng)

        monkeypatch.setattr(samplers, "_bernoulli_pairs", ignore_shared)
        with pytest.raises(RuntimeError, match="aligned subgraphs disagree"):
            coupled_block_sample([5, 7], [6, 6], np.full((2, 2), 0.5), seed=0)

    def test_identical_counts_identical_graphs(self):
        p = np.full((2, 2), 0.5)
        pair = coupled_block_sample([6, 6], [6, 6], p, seed=4)
        assert pair.epsilon == 0.0
        assert pair.bound == 0.0
        assert np.array_equal(pair.graph_a.edges, pair.graph_b.edges)


class _FlippedCoin:
    """A generator whose coin number ``index``, counted over all its draws, is 1 - u."""

    def __init__(self, rng, index):
        self.rng, self.index, self.drawn = rng, index, 0

    def random(self, size=None, out=None):
        coins = self.rng.random(size, out=out)
        k = self.index - self.drawn
        if 0 <= k < coins.size:
            coins[k] = 1.0 - coins[k]
        self.drawn += coins.size
        return coins


class TestAlignedCheck:
    """The aligned subgraphs are compared block by block, and a mismatch in any block is caught."""

    @pytest.mark.parametrize("chunk", [None, 1, 3])
    @pytest.mark.parametrize("index", [0, 27, 54])  # of the 55 shared coins
    def test_a_flipped_shared_coin_is_caught(self, monkeypatch, chunk, index):
        if chunk is not None:
            monkeypatch.setattr(samplers, "_ROW_CHUNK", chunk)
        graphs = []

        def flip_in_second_graph(types, p, rng, aligned=None, shared=None):
            graphs.append(types.size)
            if len(graphs) == 2:
                shared = _FlippedCoin(shared, index)
            return _bernoulli_pairs(types, p, rng, aligned, shared)

        monkeypatch.setattr(samplers, "_bernoulli_pairs", flip_in_second_graph)
        # coins at p = 1/2: a flipped coin flips its pair's edge
        with pytest.raises(RuntimeError, match="^aligned subgraphs disagree; coupling is broken$"):
            coupled_block_sample([5, 7], [6, 6], np.full((2, 2), 0.5), seed=0)
        assert graphs == [12, 12]

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_small_blocks_pass_a_sound_pair(self, monkeypatch, chunk):
        want = coupled_block_sample([40, 30], [36, 35], np.full((2, 2), 0.3), seed=2)
        monkeypatch.setattr(samplers, "_ROW_CHUNK", chunk)
        got = coupled_block_sample([40, 30], [36, 35], np.full((2, 2), 0.3), seed=2)
        assert np.array_equal(got.graph_a.edges, want.graph_a.edges)
        assert np.array_equal(got.graph_b.edges, want.graph_b.edges)

    def test_same_rows_ignores_how_the_rows_are_split(self):
        rows = np.arange(12, dtype=np.int32).reshape(6, 2)
        changed = rows.copy()
        changed[5, 1] += 1
        assert _same_rows(iter([rows[:1], rows[1:4], rows[4:]]), iter([rows[:3], rows[3:]]))
        assert _same_rows(iter([]), iter([]))
        assert not _same_rows(iter([rows[:5]]), iter([rows[:2], rows[2:]]))  # a row more
        assert not _same_rows(iter([rows]), iter([rows[:3], rows[3:5]]))  # a row fewer
        assert not _same_rows(iter([]), iter([rows[:1]]))
        assert not _same_rows(iter([rows[:2], rows[2:]]), iter([changed[:3], changed[3:]]))


def _edgelist_sha256(graph):
    return hashlib.sha256(graph_to_edgelist(graph).encode()).hexdigest()


class TestFrozenStreams:
    """Edge-list digests at fixed seeds; any change to a coin stream shows here.

    The digests were recorded from the frozenset-backed graphs that preceded
    the array-backed ones, so they pin the streams and the output bytes.
    """

    def test_sample_block(self):
        p = [[0.6, 0.1, 0.3], [0.1, 0.5, 0.2], [0.3, 0.2, 0.7]]
        g = sample_block([100, 120, 80], p, seed=2024)
        assert (g.n, g.edge_count()) == (300, 14243)
        assert _edgelist_sha256(g) == (
            "3c8f462e087b1deee6fec21308f0bd1660a00fd9e914ab9b6767fe7b7cf0eb81")

    def test_sample_wrandom(self):
        u = make_step_graphon([0.2, 0.5, 0.3],
                              [[0.9, 0.1, 0.4], [0.1, 0.3, 0.6], [0.4, 0.6, 0.05]])
        s = sample_wrandom(300, u, seed=2025)
        assert s.counts.tolist() == [56, 163, 81]
        assert s.graph.edge_count() == 16223
        assert _edgelist_sha256(s.graph) == (
            "f36c5b3fac43680a3225bd149b117c4a79efdb61c4c12236f162701ef446ef47")

    def test_coupled_block_sample(self):
        pair = coupled_block_sample([150, 140], [145, 155],
                                    [[0.55, 0.2], [0.2, 0.45]], seed=2026)
        assert (pair.graph_a.edge_count(), pair.graph_b.edge_count()) == (14784, 15597)
        assert _edgelist_sha256(pair.graph_a) == (
            "91e68ebf3a757a624d08dbb974aff3a42f5473feaad99f2122aaa26b5dc950db")
        assert _edgelist_sha256(pair.graph_b) == (
            "63eb3686cc4b9714cb465c22c2ded234ca3d0a9506d6961ec660d7ea992ac254")
