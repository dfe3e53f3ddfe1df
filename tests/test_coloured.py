import itertools
import json

import numpy as np
import pytest

from stepldp.coloured import (
    ColouredStepGraphon,
    coloured_from_json,
    coloured_refinement,
    coloured_to_json,
    dk_distance_search,
    dk_norm,
    gamma_block,
)
from stepldp.cutmetric import (
    SignedStepFn,
    aligned_cut_distance,
    cut_norm_exact,
)
from stepldp.graphon import PartWeights, make_step_graphon


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
