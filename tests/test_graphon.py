import json

import numpy as np
import pytest

from stepldp import graphon
from stepldp.graphon import (
    LabeledGraph,
    OverlapCoupling,
    PartWeights,
    StepGraphon,
    apply_coupling,
    common_refinement,
    coupling_pieces,
    dump_edgelist,
    dump_graphon,
    edge_density,
    graph_from_edgelist,
    graph_to_edgelist,
    graph_to_graphon,
    graphon_from_json,
    graphon_to_json,
    load_graphon,
    make_step_graphon,
    overlay_partitions,
    project_steps,
    stretch_pullback,
)


class TestPartWeights:
    def test_exact_weights_kept_bitwise(self):
        w = PartWeights([0.3, 0.7])
        assert w.weights[0] == 0.3 and w.weights[1] == 0.7

    def test_zero_weight_parts_retained(self):
        w = PartWeights([0.5, 0.0, 0.5])
        assert w.size == 3
        assert w.weights[1] == 0.0

    def test_normalizes_only_when_off(self):
        w = PartWeights([1.0, 3.0])
        np.testing.assert_allclose(w.weights, [0.25, 0.75])
        assert w.total == 4.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            PartWeights([0.5, -0.1, 0.6])

    def test_rejects_zero_total(self):
        with pytest.raises(ValueError):
            PartWeights([0.0, 0.0])

    def test_boundaries(self):
        w = PartWeights([0.3, 0.2, 0.5])
        np.testing.assert_allclose(w.boundaries(), [0.3, 0.5, 1.0])

    def test_read_only(self):
        w = PartWeights([0.5, 0.5])
        with pytest.raises(ValueError):
            w.weights[0] = 0.9

    def test_approx_equal(self):
        assert PartWeights([0.5, 0.5]).approx_equal(PartWeights([0.5, 0.5 + 1e-12]))
        assert not PartWeights([0.5, 0.5]).approx_equal(PartWeights([0.4, 0.6]))


class TestStepGraphon:
    def test_symmetrizes_tiny_drift(self):
        vals = np.array([[0.5, 0.3], [0.3 + 1e-13, 0.5]])
        u = StepGraphon(PartWeights([0.5, 0.5]), vals)
        assert u.values[0, 1] == u.values[1, 0]

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            StepGraphon(PartWeights([0.5, 0.5]), [[0.5, 0.1], [0.9, 0.5]])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            make_step_graphon([1.0], [[1.5]])
        with pytest.raises(ValueError):
            make_step_graphon([1.0], [[-0.5]])

    def test_graph_embedding(self):
        g = LabeledGraph(3, [(0, 1), (1, 2)])
        u = graph_to_graphon(g)
        np.testing.assert_allclose(u.parts.weights, [1 / 3] * 3)
        assert u.values[0, 1] == 1.0 and u.values[0, 2] == 0.0
        assert np.all(np.diag(u.values) == 0.0)

    def test_edge_density(self):
        u = make_step_graphon([0.5, 0.5], [[1.0, 0.0], [0.0, 1.0]])
        assert edge_density(u) == 0.5


class TestLabeledGraph:
    def test_canonical_edges(self):
        g = LabeledGraph(3, [(2, 0), (0, 2), (1, 2)])
        assert g.edge_count() == 2
        assert g.has_edge(0, 2) and g.has_edge(2, 0)

    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            LabeledGraph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LabeledGraph(3, [(0, 3)])

    def test_adjacency_symmetric(self):
        g = LabeledGraph(4, [(0, 1), (2, 3)])
        adj = g.adjacency()
        assert np.array_equal(adj, adj.T)
        assert adj[0, 1] == 1 and adj[0, 2] == 0

    def test_density(self):
        g = LabeledGraph(4, [(0, 1), (2, 3), (0, 3)])
        assert g.density() == 0.5

    def test_canonical_array_ignores_orientation_repeats_and_order(self):
        canon = [[0, 2], [0, 3], [1, 2], [2, 4]]
        inputs = [
            [(0, 2), (0, 3), (1, 2), (2, 4)],
            [(2, 0), (3, 0), (2, 1), (4, 2)],
            [(0, 2), (2, 0), (0, 3), (1, 2), (2, 1), (2, 4), (0, 2)],
            [(0, 2), (0, 2), (0, 3), (1, 2), (2, 4), (2, 4)],
            [(2, 4), (1, 2), (0, 3), (0, 2)],
            [(4, 2), (0, 3), (2, 1), (0, 2), (3, 0)],
        ]
        for edges in inputs:
            np.testing.assert_array_equal(LabeledGraph(5, edges).edges, canon)

    def test_array_generator_and_empty_inputs(self):
        canon = [[0, 1], [1, 2], [2, 3]]
        arr = np.array([[3, 2], [0, 1], [1, 2]])
        np.testing.assert_array_equal(LabeledGraph(4, arr).edges, canon)
        np.testing.assert_array_equal(LabeledGraph(4, arr.astype(np.int32)).edges, canon)
        gen = ((i, i + 1) for i in range(3))
        np.testing.assert_array_equal(LabeledGraph(4, gen).edges, canon)
        for empty in [(), [], np.empty((0, 2), dtype=int), iter([])]:
            g = LabeledGraph(4, empty)
            assert g.edges.shape == (0, 2)
            assert g.edge_count() == 0
            assert g.density() == 0.0

    def test_input_array_is_not_aliased(self):
        arr = np.array([[0, 1], [1, 2]], dtype=np.int32)
        g = LabeledGraph(3, arr)
        arr[0, 1] = 2
        assert arr.flags.writeable
        np.testing.assert_array_equal(g.edges, [[0, 1], [1, 2]])

    def test_edges_int32_and_read_only(self):
        g = LabeledGraph(4, [(3, 0), (1, 2)])
        assert g.edges.dtype == np.int32
        assert g.edges.shape == (2, 2)
        assert not g.edges.flags.writeable
        with pytest.raises(ValueError):
            g.edges[0, 0] = 1

    def test_has_edge_both_orientations(self):
        g = LabeledGraph(6, [(0, 5), (4, 1), (2, 3), (1, 2)])
        for u, v in [(0, 5), (1, 4), (2, 3), (1, 2)]:
            assert g.has_edge(u, v) and g.has_edge(v, u)
        for u, v in [(0, 1), (0, 4), (3, 5), (2, 4), (1, 3), (2, 2), (0, 6), (-1, 0)]:
            assert not g.has_edge(u, v) and not g.has_edge(v, u)
        assert not LabeledGraph(3).has_edge(0, 1)

    def test_error_messages(self):
        with pytest.raises(ValueError, match=r"^loops are not allowed \(vertex 1\)$"):
            LabeledGraph(3, [(0, 2), (1, 1)])
        with pytest.raises(ValueError,
                           match=r"^edge \(0, 3\) outside vertex range 0\.\.2$"):
            LabeledGraph(3, [(0, 1), (0, 3), (2, 2)])
        with pytest.raises(ValueError,
                           match=r"^edge \(-1, 2\) outside vertex range 0\.\.2$"):
            LabeledGraph(3, np.array([[-1, 2]]))
        # a loop is reported as a loop even when it is out of range
        with pytest.raises(ValueError, match=r"^loops are not allowed \(vertex 7\)$"):
            LabeledGraph(3, [(7, 7)])
        with pytest.raises(ValueError, match=r"^edge \(0, %d\) outside" % 2 ** 70):
            LabeledGraph(3, [(0, 2 ** 70)])
        with pytest.raises(ValueError, match="^graph needs at least one vertex$"):
            LabeledGraph(0)

    def test_first_offender_named_after_many_good_pairs(self):
        n = 50
        good = [(u, v) for u in range(n) for v in range(u + 1, n)][:900]
        cases = [
            (good + [(7, 7)] + good[:5] + [(0, n)], r"^loops are not allowed \(vertex 7\)$"),
            (good + [(n + 2, 3), (4, 4)], r"^edge \(52, 3\) outside vertex range 0\.\.49$"),
            (good + [(3, -1), (5, 5)], r"^edge \(3, -1\) outside vertex range 0\.\.49$"),
        ]
        for edges, message in cases:
            for dtype in (np.int32, np.int64):
                with pytest.raises(ValueError, match=message):
                    LabeledGraph(n, np.array(edges, dtype=dtype))
            # a label past int64 makes an object array; it comes after the first offender
            with pytest.raises(ValueError, match=message):
                LabeledGraph(n, edges + [(1, 2 ** 70)])
        with pytest.raises(ValueError, match=r"^edge \(%d, 1\) outside" % 2 ** 70):
            LabeledGraph(n, good + [(2 ** 70, 1), (6, 6)])

    def test_adjacency_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(5)
        n = 9
        edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
        g = LabeledGraph(n, edges)
        adj = g.adjacency()
        assert adj.dtype == float
        assert np.array_equal(adj, adj.T)
        assert np.all(np.diag(adj) == 0.0)
        expected = np.zeros((n, n))
        for u, v in edges:
            expected[u, v] = expected[v, u] = 1.0
        assert np.array_equal(adj, expected)
        assert adj[np.triu_indices(n, 1)].sum() == g.edge_count()


class TestOverlay:
    def test_frozen_example(self):
        w, src, tgt = overlay_partitions(PartWeights([0.3, 0.7]), PartWeights([0.5, 0.5]))
        np.testing.assert_array_equal(w, [0.3, 0.2, 0.5])
        np.testing.assert_array_equal(src, [0, 1, 1])
        np.testing.assert_array_equal(tgt, [0, 0, 1])
        assert w.sum() == 1.0

    def test_identical_partitions(self):
        p = PartWeights([0.25, 0.25, 0.5])
        w, src, tgt = overlay_partitions(p, p)
        # zero-width bridge pieces may appear where both sides advance
        np.testing.assert_array_equal(w[w > 0], p.weights)
        np.testing.assert_array_equal(src[w > 0], tgt[w > 0])
        assert w.sum() == 1.0

    def test_zero_weight_parts_show_up(self):
        w, src, tgt = overlay_partitions(PartWeights([0.5, 0.0, 0.5]), PartWeights([1.0]))
        assert 1 in src
        assert w[src == 1].sum() == 0.0

    def test_weights_partition_both_sides(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = PartWeights(rng.dirichlet(np.ones(rng.integers(1, 7))))
            b = PartWeights(rng.dirichlet(np.ones(rng.integers(1, 7))))
            w, src, tgt = overlay_partitions(a, b)
            for i in range(a.size):
                np.testing.assert_allclose(w[src == i].sum(), a.weights[i], atol=1e-12)
            for j in range(b.size):
                np.testing.assert_allclose(w[tgt == j].sum(), b.weights[j], atol=1e-12)

    def test_common_refinement_reproduces_values(self):
        u = make_step_graphon([0.3, 0.7], [[0.9, 0.2], [0.2, 0.5]])
        v = make_step_graphon([0.5, 0.5], [[0.1, 0.8], [0.8, 0.4]])
        parts, vu, vv = common_refinement(u, v)
        # same function, finer steps: total mass must match
        ru = StepGraphon(parts, vu)
        rv = StepGraphon(parts, vv)
        np.testing.assert_allclose(edge_density(ru), edge_density(u), atol=1e-12)
        np.testing.assert_allclose(edge_density(rv), edge_density(v), atol=1e-12)


class TestCouplings:
    def test_marginal_validation(self):
        with pytest.raises(ValueError):
            OverlapCoupling(
                np.array([[0.5, 0.0], [0.0, 0.4]]),
                PartWeights([0.5, 0.5]),
                PartWeights([0.5, 0.5]),
            )

    def test_identity_coupling_is_noop(self):
        u = make_step_graphon([0.4, 0.6], [[0.9, 0.2], [0.2, 0.5]])
        c = OverlapCoupling(np.diag(u.parts.weights), u.parts, u.parts)
        v = apply_coupling(u, u.parts, c)
        np.testing.assert_allclose(edge_density(v), edge_density(u), atol=1e-14)

    def test_coupling_pieces_grouped_by_target(self):
        c = OverlapCoupling(
            np.array([[0.25, 0.25], [0.25, 0.25]]),
            PartWeights([0.5, 0.5]),
            PartWeights([0.5, 0.5]),
        )
        w, src, tgt = coupling_pieces(c)
        assert list(tgt) == [0, 0, 1, 1]
        assert list(src) == [0, 1, 0, 1]
        np.testing.assert_allclose(w, 0.25)

    def test_transpose(self):
        c = OverlapCoupling(
            np.array([[0.3, 0.0], [0.2, 0.5]]),
            PartWeights([0.3, 0.7]),
            PartWeights([0.5, 0.5]),
        )
        t = c.transpose()
        np.testing.assert_array_equal(t.matrix, c.matrix.T)


class TestStretchAndProject:
    def test_stretch_frozen_example(self):
        u = make_step_graphon([0.3, 0.7], [[0.9, 0.2], [0.2, 0.5]])
        v = stretch_pullback(u, 0.75)
        np.testing.assert_allclose(v.parts.weights, [0.4, 0.6])
        np.testing.assert_array_equal(v.values, u.values)

    def test_stretch_identity(self):
        u = make_step_graphon([0.3, 0.7], [[0.9, 0.2], [0.2, 0.5]])
        v = stretch_pullback(u, 1.0)
        np.testing.assert_allclose(v.parts.weights, u.parts.weights)

    def test_stretch_drops_far_parts(self):
        u = make_step_graphon([0.5, 0.5], [[0.9, 0.2], [0.2, 0.5]])
        v = stretch_pullback(u, 0.5)
        np.testing.assert_allclose(v.parts.weights, [1.0, 0.0])

    def test_stretch_validates(self):
        u = make_step_graphon([1.0], [[0.5]])
        with pytest.raises(ValueError):
            stretch_pullback(u, 0.0)
        with pytest.raises(ValueError):
            stretch_pullback(u, 1.5)

    def test_project_identity_grouping(self):
        u = make_step_graphon([0.3, 0.7], [[0.9, 0.2], [0.2, 0.5]])
        v = project_steps(u, [0, 1])
        np.testing.assert_allclose(v.values, u.values)

    def test_project_to_constant(self):
        u = make_step_graphon([0.3, 0.7], [[0.9, 0.2], [0.2, 0.5]])
        v = project_steps(u, [0, 0])
        np.testing.assert_allclose(v.values[0, 0], edge_density(u), atol=1e-14)

    def test_project_requires_all_groups(self):
        u = make_step_graphon([0.5, 0.5], [[0.9, 0.2], [0.2, 0.5]])
        with pytest.raises(ValueError):
            project_steps(u, [0, 2])


class TestSerialization:
    def test_graphon_json_roundtrip_bitexact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = int(rng.integers(1, 6))
            w = rng.dirichlet(np.ones(m))
            vals = rng.uniform(0, 1, (m, m))
            vals = (vals + vals.T) / 2
            u = StepGraphon(PartWeights(w), vals)
            text = json.dumps(graphon_to_json(u))
            v = graphon_from_json(json.loads(text))
            assert np.array_equal(u.parts.weights, v.parts.weights)
            assert np.array_equal(u.values, v.values)

    def test_dump_graphon_roundtrip_bitexact(self, tmp_path):
        rng = np.random.default_rng(12)
        for idx in range(10):
            m = int(rng.integers(1, 6))
            vals = rng.uniform(0, 1, (m, m))
            u = StepGraphon(PartWeights(rng.dirichlet(np.ones(m))), (vals + vals.T) / 2)
            path = tmp_path / ("u%d.json" % idx)
            dump_graphon(u, path)
            v = load_graphon(path)
            assert u.parts.weights.tobytes() == v.parts.weights.tobytes()
            assert u.values.tobytes() == v.values.tobytes()
            # sorted-key JSON of graphon_to_json, ending in one newline
            text = path.read_text()
            assert text.endswith("}\n") and not text.endswith("\n\n")
            obj = json.loads(text)
            assert list(obj) == ["values", "weights"]
            assert obj == graphon_to_json(u)
            assert text == json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def test_load_graphon_names_the_path_of_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"weights": [1.0], "values": [[0.4]], "note": "caf\u00e9"}'
                         .encode("latin-1"))
        with pytest.raises(ValueError) as info:
            load_graphon(path)
        assert str(info.value).startswith("%s: not valid JSON (" % path)

    def test_load_graphon_names_the_path_of_a_shape_fault(self, tmp_path):
        path = tmp_path / "shape.json"
        path.write_text(json.dumps({"weights": [1.0]}))
        with pytest.raises(ValueError) as info:
            load_graphon(path)
        assert str(info.value) == "%s: graphon JSON missing field 'values'" % path

    def test_graphon_json_rejects_garbage(self):
        with pytest.raises(ValueError):
            graphon_from_json([1, 2, 3])
        with pytest.raises(ValueError):
            graphon_from_json({"weights": [1.0]})

    def test_edgelist_roundtrip(self):
        g = LabeledGraph(5, [(0, 1), (3, 4), (1, 4)])
        h = graph_from_edgelist(graph_to_edgelist(g))
        assert h.n == g.n and np.array_equal(h.edges, g.edges)

    def test_edgelist_text_is_canonical(self):
        g = LabeledGraph(12, [(11, 3), (3, 10), (0, 11), (2, 0), (10, 3)])
        assert graph_to_edgelist(g) == "12\n0 2\n0 11\n3 10\n3 11\n"
        assert graph_to_edgelist(LabeledGraph(1)) == "1\n"

    def test_edgelist_matches_the_per_row_format(self):
        # label widths change at 10, 100 and 1000 vertices
        rng = np.random.default_rng(31)
        for n in (1, 2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001):
            iu, ju = np.triu_indices(n, 1)
            keep = rng.random(iu.size) < 3000 / max(iu.size, 1)
            keep[:1] = keep[-1:] = True  # the pairs (0, 1) and (n - 2, n - 1)
            g = LabeledGraph(n, np.column_stack((iu[keep], ju[keep])))
            text = graph_to_edgelist(g)
            assert text == "%d\n" % n + "".join("%d %d\n" % (u, v) for u, v in g.edges.tolist())
            h = graph_from_edgelist(text)
            assert h.n == n and np.array_equal(h.edges, g.edges)

    def test_edgelist_errors_name_the_line(self):
        with pytest.raises(ValueError, match="^line 3: expected 'u v', got '1 2 3'$"):
            graph_from_edgelist("4\n0 1\n1 2 3\n")
        with pytest.raises(ValueError, match="^line 2: vertex ids must be integers$"):
            graph_from_edgelist("4\n0 x\n")
        with pytest.raises(ValueError, match=r"^edge \(1, 4\) outside vertex range 0\.\.3$"):
            graph_from_edgelist("4\n0 1\n1 4\n")

    def test_edgelist_rejects_garbage(self):
        with pytest.raises(ValueError):
            graph_from_edgelist("")
        with pytest.raises(ValueError):
            graph_from_edgelist("3\n1 2 3\n")


def _per_row_text(g):
    return "%d\n" % g.n + "".join("%d %d\n" % (u, v) for u, v in g.edges.tolist())


def _line_loop_reader(text):
    """The reader before block reading: every line at once, each field through int()."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("edge list is empty: expected a vertex count line")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError("first line must be the vertex count, got %r" % lines[0]) from exc
    ends = []
    for lineno, ln in enumerate(lines[1:], start=2):
        fields = ln.split()
        if len(fields) != 2:
            raise ValueError("line %d: expected 'u v', got %r" % (lineno, ln))
        try:
            ends.extend(map(int, fields))
        except ValueError as exc:
            raise ValueError("line %d: vertex ids must be integers" % lineno) from exc
    return LabeledGraph(n, np.reshape(ends, (-1, 2)))


def _outcome(read, text):
    try:
        g = read(text)
    except ValueError as exc:
        return str(exc)
    return g.n, g.edges.tolist()


# what int() and splitlines() accept beside plain "u v\n" lines, and faults
READER_TEXTS = [
    "4\n+1 2\n0 3\n", "8\n 7 1\n0 1\n", "11\n1_0 2\n0 1\n", "4\n\u0663 1\n0 1\n",
    "4\r\n0 1\r\n2 3\r\n", "\n\n4\n\n0 1\n   \n\n2 3\n\n", "4\n0 1\n2 3",
    "4\n0 1\r2 3\n1 2\n", "4\n0 1\x852 3\n1 2\n", "4\n0\t1\n1 2\n", " +4 \n0 1\n",
    "4\r0 1\n1 2\n", "12\n0 0011\n", "4\n3 2\n1 0\n0 1\n0 1\n", "4\n0 1\n1 2\n2 3\n",
    "4\n0 1\n1 2 3\n", "4\n0 1\n1 2\n\n\n0 x\n", "4\n0 1\n1 4\n", "4\n0 1\n2 2\n",
    "4\n0 1\n-1 2\n", "3\n0 1000000000\n", "3\n0 99999999999999999999\n",
    "%d\n0 1\n" % 2**31, "4 4\n0 1\n", "x\n0 1\n", "", "  \n\n", "4\n", "4\n\n",
]


class TestEdgeListFiles:
    @pytest.mark.parametrize("chunk", [None, 1, 2, 7])
    def test_dump_writes_the_edgelist_bytes(self, tmp_path, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(graphon, "_ROW_CHUNK", chunk)
        rng = np.random.default_rng(8)
        graphs = [LabeledGraph(1), LabeledGraph(6)]  # one vertex; no edges
        for n in (2, 9, 10, 11, 99, 100, 101, 999, 1000, 1001):  # every label width
            iu, ju = np.triu_indices(n, 1)
            keep = rng.random(iu.size) < 30 / iu.size
            keep[:1] = keep[-1:] = True
            graphs.append(LabeledGraph(n, np.column_stack((iu[keep], ju[keep]))))
        path = tmp_path / "g.edges"
        for g in graphs:
            dump_edgelist(g, path)
            want = _per_row_text(g)
            assert graph_to_edgelist(g) == want
            assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("top", [0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10**4, 99999,
                                     10**5, 999999, 10**6, 1234567])
    def test_label_table_is_the_bytes_table(self, top):
        # the table as it was built, one bytes object per label: in full up to
        # 10^5, and past it on the labels near each width change
        def bytes_table(labels):
            return np.array([b"%d " % u for u in labels] + [b"%d\n" % v for v in labels])

        table = graphon._label_table(top)
        if top <= 10**5:
            want = bytes_table(range(top + 1))
            assert table.dtype == want.dtype and table.tobytes() == want.tobytes()
        else:
            near = {10**d + s for d in range(1, 7) for s in (-1, 0, 1)}
            rows = sorted({*range(12), top} | {u for u in near if u <= top})
            want = bytes_table(rows)
            assert table.dtype == want.dtype
            got = table[np.concatenate([rows, np.add(rows, top + 1)])]
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, edges", [(1, []), (7, []), (1234568, [(0, 9), (99, 1234567)])])
    def test_dump_without_a_table_past_the_labels(self, tmp_path, n, edges):
        # one vertex, no edges, and seven-digit labels
        g = LabeledGraph(n, edges)
        dump_edgelist(g, tmp_path / "g.edges")
        assert (tmp_path / "g.edges").read_bytes() == _per_row_text(g).encode()

    @pytest.mark.parametrize("chunk", [None, 1, 2, 3, 5, 8])
    @pytest.mark.parametrize("text", READER_TEXTS)
    def test_blocks_read_as_the_line_loop(self, monkeypatch, chunk, text):
        # a block boundary falls after every "\n" in turn at the small chunks
        if chunk is not None:
            monkeypatch.setattr(graphon, "_TEXT_CHUNK", chunk)
        assert _outcome(graph_from_edgelist, text) == _outcome(_line_loop_reader, text)

    @pytest.mark.parametrize("chunk", [None, 40])
    def test_plain_blocks_read_as_the_line_loop(self, monkeypatch, chunk):
        # one text through numpy's parse of plain blocks and through the line loop
        if chunk is not None:
            monkeypatch.setattr(graphon, "_TEXT_CHUNK", chunk)
        rng = np.random.default_rng(3)
        iu, ju = np.triu_indices(1500, 1)
        keep = rng.random(iu.size) < 0.02
        g = LabeledGraph(1500, np.column_stack((iu[keep], ju[keep])))
        text = graph_to_edgelist(g)
        looped = []
        line_ends = graphon._line_ends

        def counting(lines, lineno):
            looped.append(lineno)
            return line_ends(lines, lineno)

        monkeypatch.setattr(graphon, "_line_ends", counting)
        parsed = graph_from_edgelist(text)
        assert looped == [1]  # the count line's remainder only
        monkeypatch.setattr(graphon, "_PLAIN_LINES", "(?!)")  # matches no block
        looped.clear()
        read = graph_from_edgelist(text)
        assert len(looped) > 1
        for h in (parsed, read):
            assert h.n == g.n and np.array_equal(h.edges, g.edges)
        assert parsed.edges.dtype == np.int32

    def test_ids_past_int64_are_named_exactly(self):
        # the line loop read 2^63 as a float and named it -2^63
        with pytest.raises(ValueError, match=r"^edge \(0, 9223372036854775808\) outside vertex"):
            graph_from_edgelist("3\n0 %d\n" % 2**63)
