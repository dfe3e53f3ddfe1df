import itertools
import json

import numpy as np
import pytest
from test_cutmetric import _random_graphon

from stepldp.coloured import (
    ColouredStepGraphon,
    coloured_from_json,
    coloured_refinement,
    coloured_to_json,
    dk_distance_search,
    dk_norm,
    gamma_block,
)
from stepldp import cutmetric
from stepldp.cutmetric import (
    SignedStepFn,
    aligned_cut_distance,
    cut_distance_search,
    cut_norm_exact,
)
from stepldp.graphon import LabeledGraph, PartWeights, graph_to_graphon, make_step_graphon


def brute_dk_norm(a, b):
    """Independent oracle: enumerate all subset pairs (C, D) directly.

    The sup term picks a single pair of measurable sets and sums the
    absolute coloured cut integrals over all ordered colour pairs; on a
    common refinement, sets are unions of pieces.
    """
    parts, va, vb, ca, cb = coloured_refinement(a, b)
    w = parts.weights
    m = w.size
    k = a.num_colours
    mass = np.outer(w, w)
    best = 0.0
    for c_bits in itertools.product([0, 1], repeat=m):
        c = np.array(c_bits, dtype=bool)
        for d_bits in itertools.product([0, 1], repeat=m):
            d = np.array(d_bits, dtype=bool)
            total = 0.0
            for i in range(k):
                rows_a = c & (ca == i)
                rows_b = c & (cb == i)
                for j in range(k):
                    cols_a = d & (ca == j)
                    cols_b = d & (cb == j)
                    term = (mass[np.ix_(rows_a, cols_a)] * va[np.ix_(rows_a, cols_a)]).sum() \
                        - (mass[np.ix_(rows_b, cols_b)] * vb[np.ix_(rows_b, cols_b)]).sum()
                    total += abs(term)
            best = max(best, total)
    sym = 0.0
    for i in range(k):
        sym += w[(ca == i) != (cb == i)].sum()
    return best + sym


def random_coloured(rng, max_parts=4, k=2):
    m = int(rng.integers(1, max_parts + 1))
    w = rng.dirichlet(np.ones(m))
    vals = rng.uniform(0, 1, (m, m))
    vals = (vals + vals.T) / 2
    colours = rng.integers(0, k, m)
    return ColouredStepGraphon(make_step_graphon(w, vals), colours, num_colours=k)


class TestColouredStepGraphon:
    def test_colour_validation(self):
        u = make_step_graphon([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError):
            ColouredStepGraphon(u, [0, 2], num_colours=2)
        with pytest.raises(ValueError):
            ColouredStepGraphon(u, [0, -1])

    def test_class_measures(self):
        u = make_step_graphon([0.3, 0.2, 0.5], np.full((3, 3), 0.5))
        a = ColouredStepGraphon(u, [0, 1, 0], num_colours=3)
        np.testing.assert_allclose(a.class_measures(), [0.8, 0.2, 0.0])


class TestDkNorm:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a = random_coloured(rng)
            assert dk_norm(a, a) == 0.0

    def test_measure_mismatch_frozen(self):
        zero = make_step_graphon([0.5, 0.5], np.zeros((2, 2)))
        a = ColouredStepGraphon(zero, [0, 0], num_colours=2)
        b = ColouredStepGraphon(zero, [0, 1], num_colours=2)
        # same (zero) graphon, but colour classes disagree on half the line:
        # each of the two classes contributes 0.5 of symmetric difference
        assert abs(dk_norm(a, b) - 1.0) < 1e-15

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            k = int(rng.integers(1, 3))
            a = random_coloured(rng, max_parts=3, k=k)
            b = random_coloured(rng, max_parts=3, k=k)
            got = dk_norm(a, b)
            want = brute_dk_norm(a, b)
            assert abs(got - want) < 1e-10, (trial, got, want)

    def test_single_colour_reduces_to_cut_norm(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a = random_coloured(rng, k=1)
            b = random_coloured(rng, k=1)
            parts, va, vb, _, _ = coloured_refinement(a, b)
            plain = cut_norm_exact(SignedStepFn.difference(parts, va, vb))
            assert abs(dk_norm(a, b) - plain) < 1e-12

    def test_colour_count_mismatch_rejected(self):
        u = make_step_graphon([1.0], [[0.5]])
        a = ColouredStepGraphon(u, [0], num_colours=1)
        b = ColouredStepGraphon(u, [0], num_colours=2)
        with pytest.raises(ValueError):
            dk_norm(a, b)


class TestDkSearch:
    def test_permuted_copy_found(self):
        rng = np.random.default_rng(12)
        for trial in range(8):
            m = int(rng.integers(2, 5))
            w = rng.dirichlet(np.ones(m))
            vals = rng.uniform(0, 1, (m, m))
            vals = (vals + vals.T) / 2
            colours = rng.integers(0, 2, m)
            a = ColouredStepGraphon(make_step_graphon(w, vals), colours, num_colours=2)
            perm = rng.permutation(m)
            b = ColouredStepGraphon(
                make_step_graphon(w[perm], vals[np.ix_(perm, perm)]),
                colours[perm], num_colours=2)
            est = dk_distance_search(a, b, restarts=16, seed=trial)
            assert est.upper < 1e-9

    def test_search_never_exceeds_aligned(self):
        rng = np.random.default_rng(15)
        for trial in range(10):
            a = random_coloured(rng, max_parts=4, k=2)
            b = random_coloured(rng, max_parts=4, k=2)
            aligned = dk_norm(a, b)
            est = dk_distance_search(a, b, restarts=8, seed=trial)
            assert est.upper <= aligned + 1e-10

    def test_monotone_in_restarts(self):
        rng = np.random.default_rng(21)
        a = random_coloured(rng, max_parts=4, k=2)
        b = random_coloured(rng, max_parts=4, k=2)
        vals = [dk_distance_search(a, b, restarts=r, seed=3).upper for r in (1, 4, 16)]
        assert vals[1] <= vals[0] + 1e-15 and vals[2] <= vals[1] + 1e-15


def one_colour(u):
    return ColouredStepGraphon(u, np.zeros(u.parts.size, dtype=int), num_colours=1)


class TestOneColourIsTheCutNorm:
    """With one colour the coloured objective is the cut norm's, so the
    coloured search and norm are the plain ones, bit for bit."""

    def test_search_matches_the_plain_search(self):
        rng = np.random.default_rng(50)
        pairs = [(_random_graphon(rng, m), _random_graphon(rng, k))
                 for m, k in [(2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 2)]]
        pairs += [(_random_graphon(rng, 1), _random_graphon(rng, 3)),
                  (_random_graphon(rng, 4), _random_graphon(rng, 1))]
        w = rng.dirichlet(np.ones(3))
        w[1] = 0.0
        vals = rng.uniform(0.0, 1.0, (3, 3))
        pairs.append((make_step_graphon(w / w.sum(), (vals + vals.T) / 2.0),
                      _random_graphon(rng, 3)))
        # every start of a 30-vertex graph against two parts is past 22 pieces
        g = LabeledGraph(30, [(i, j) for i in range(30) for j in range(i + 1, 30)
                              if rng.random() < 0.4])
        pairs.append((graph_to_graphon(g),
                      make_step_graphon([0.4, 0.6], [[0.7, 0.2], [0.2, 0.5]])))
        past = 0
        for trial, (u, v) in enumerate(pairs):
            if cutmetric._canonical_key(v) < cutmetric._canonical_key(u):
                u, v = v, u
            restarts = 4 if trial < len(pairs) - 1 else 2
            plain = cut_distance_search(u, v, restarts=restarts, seed=trial)
            est = dk_distance_search(one_colour(u), one_colour(v), restarts=restarts,
                                     seed=trial)
            assert repr(est.upper) == repr(plain.upper), trial
            assert est.witness.matrix.tobytes() == plain.witness.matrix.tobytes(), trial
            assert ((est.restarts_used, est.evaluations, est.pruned)
                    == (plain.restarts_used, plain.evaluations, plain.pruned)), trial
            past += np.count_nonzero(est.witness.matrix) > cutmetric.EXACT_PART_LIMIT
        assert past == 1

    def test_norm_is_exact_up_to_22_pieces(self):
        rng = np.random.default_rng(51)
        for m, k in [(10, 10), (12, 8)]:  # refinements of 19 pieces
            a = one_colour(_random_graphon(rng, m))
            b = one_colour(_random_graphon(rng, k))
            assert coloured_refinement(a, b)[0].size == 19
            assert repr(dk_norm(a, b)) == repr(aligned_cut_distance(a.graphon, b.graphon))


def exact_sup(w, U, V, ca, cb, k):
    """The sup term by the sign-stack enumeration: every sign pattern's
    kernel, each enumerated exactly."""
    objective = cutmetric._CutObjective(U, V, ca, cb, k)
    at = np.arange(w.size)
    H = (w[:, None] * w[None, :]) * objective.diff(at, at, None)
    return cutmetric._stack_value(0.0, H)[0]


class TestStackedAscent:
    def test_never_above_the_exact_sup(self):
        rng = np.random.default_rng(52)
        short = 0
        for k, sizes in [(2, (4, 8, 12)), (3, (4, 7, 10)), (4, (3, 5, 6))]:
            pairs = np.eye(k * k).reshape(-1, k, k)
            for m in sizes:
                for _ in range(12):
                    w = rng.dirichlet(np.ones(m))
                    U, V = _random_graphon(rng, m).values, _random_graphon(rng, m).values
                    ca, cb = rng.integers(0, k, m), rng.integers(0, k, m)
                    exact = exact_sup(w, U, V, ca, cb, k)
                    objective = cutmetric._CutObjective(U, V, ca, cb, k)
                    at = np.arange(m)
                    K = (w[:, None] * w[None, :]) * objective._read(at, at, pairs)
                    assert K.shape == (k * k, m, m)
                    got = cutmetric._alternating_cut_norm(K)
                    assert got <= exact * (1.0 + 1e-12), (k, m)
                    short += got < exact * (1.0 - 1e-9)
                    # past the piece limit the objective is the ascent plus const
                    sym = objective.const(w, at, at)
                    assert objective.heuristic(w, at, at) == got + sym
        # and it reaches the sup in nearly every case (all 108 when recorded)
        assert short <= 3


class TestGammaMaps:
    def test_block_frozen_example(self):
        u = make_step_graphon([0.5, 0.5], [[0.3, 0.9], [0.9, 0.7]])
        a = ColouredStepGraphon(u, [0, 1], num_colours=2)
        p = np.full((2, 2), 0.9)
        v = gamma_block(a, 0, 0, p)
        np.testing.assert_allclose(v.values, [[0.3, 0.9], [0.9, 0.9]])

    def test_block_symmetric_keep(self):
        u = make_step_graphon([0.5, 0.5], [[0.3, 0.8], [0.8, 0.7]])
        a = ColouredStepGraphon(u, [0, 1], num_colours=2)
        v = gamma_block(a, 0, 1, np.zeros((2, 2)))
        np.testing.assert_allclose(v.values, [[0.0, 0.8], [0.8, 0.0]])

    def test_block_validates(self):
        u = make_step_graphon([1.0], [[0.5]])
        a = ColouredStepGraphon(u, [0], num_colours=1)
        with pytest.raises(ValueError):
            gamma_block(a, 0, 1, np.zeros((1, 1)))

    def test_lipschitz_on_random_pairs(self):
        # the colour-forgetting and block-restriction maps contract the
        # colour-aware discrepancy into the plain cut norm
        rng = np.random.default_rng(30)
        for trial in range(30):
            k = int(rng.integers(1, 3))
            a = random_coloured(rng, max_parts=3, k=k)
            b = random_coloured(rng, max_parts=3, k=k)
            d = dk_norm(a, b)
            zero = np.zeros((k, k))
            assert aligned_cut_distance(a.graphon, b.graphon) <= d + 1e-12
            for i in range(k):
                for j in range(i, k):
                    lhs = aligned_cut_distance(gamma_block(a, i, j, zero),
                                               gamma_block(b, i, j, zero))
                    assert lhs <= d + 1e-12


class TestColouredJson:
    def test_roundtrip_one_based(self):
        u = make_step_graphon([0.25, 0.75], [[0.9, 0.1], [0.1, 0.4]])
        a = ColouredStepGraphon(u, [1, 0], num_colours=3)
        obj = coloured_to_json(a)
        assert obj["colours"] == [2, 1]
        assert obj["numColours"] == 3
        back = coloured_from_json(json.loads(json.dumps(obj)))
        assert np.array_equal(back.colours, a.colours)
        assert back.num_colours == 3
        assert np.array_equal(back.graphon.values, u.values)

    def test_rejects_zero_based(self):
        with pytest.raises(ValueError):
            coloured_from_json({"weights": [1.0], "values": [[0.5]], "colours": [0]})
