"""Random graph samplers for block models and step graphons.

Both samplers draw edges independently with blockwise probabilities; the
coupled sampler additionally shares the edge coins between two block models
with slightly different block counts, so that the samples agree on a large
common vertex set.  All randomness flows through numpy generators seeded
explicitly; a fixed seed reproduces the exact same graphs.
"""

from collections import namedtuple

import numpy as np

from .graphon import LabeledGraph, StepGraphon, _check_prob_matrix, _check_weights

__all__ = [
    "apportion_counts",
    "sample_block",
    "sample_wrandom",
    "coupled_block_sample",
    "alignment_distance_bound",
    "WRandomSample",
    "CoupledPair",
]


def _as_rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _check_counts(counts, size=None):
    """Block counts as a nonempty vector of nonnegative ints, optionally of ``size`` blocks."""
    a = np.asarray(counts)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("block counts must form a nonempty vector")
    if size is not None and a.size != size:
        raise ValueError("count vectors must have the same number of blocks")
    if not np.issubdtype(a.dtype, np.integer):
        if not np.all(np.isfinite(a) & (a == np.floor(a))):
            raise ValueError("block counts must be integers")
        a = a.astype(int)
    if np.any(a < 0):
        raise ValueError("block counts must be nonnegative")
    return a.astype(int)


def _check_coupled(counts_a, counts_b, p):
    """``coupled_block_sample``'s inputs: equal block numbers, a vertex each, p to match."""
    a = _check_counts(counts_a)
    b = _check_counts(counts_b, a.size)
    if a.sum() == 0 or b.sum() == 0:
        raise ValueError("both graphs need at least one vertex")
    return a, b, _check_prob_matrix(p, a.size)


def apportion_counts(n, weights):
    """Integer block counts summing to n, off from n*weights by less than 1.

    Largest-remainder rounding: floors first, then the leftover units go to
    the largest fractional parts (ties broken by block index).
    """
    w = _check_weights(weights, "weights")
    if n < 0:
        raise ValueError("n must be nonnegative")
    target = n * (w / w.sum())
    base = np.floor(target).astype(int)
    leftover = n - int(base.sum())
    if leftover > 0:
        remainders = target - base
        order = np.lexsort((np.arange(w.size), -remainders))
        base[order[:leftover]] += 1
    return base


def _bernoulli_pairs(types, p, rng, aligned=None, shared_coins=None):
    """Independent Bernoulli edges on vertices with the given block types.

    Each unordered pair {s, t}, s < t, takes one uniform coin from rng, drawn
    as one block of n(n-1)/2 coins in row-major upper-triangular order, and
    is an edge iff its coin is strictly below p[types[s], types[t]], so
    probabilities 0 and 1 are exact.  With ``aligned`` (increasing vertex
    indices) and ``shared_coins`` (one coin per pair of aligned positions, in
    the same row-major order), the pairs of two aligned vertices use the
    shared coin instead of their own.  Returns the edges as an (E, 2) array
    of rows (s, t) in lexicographic order.

    Row s of the triangle starts at rank start[s] = s(2n - s - 1)/2, and its
    thresholds are the slice P[types[s], s+1:] of P = p[:, types]; the slices
    are joined once and compared once, so no per-pair index or probability
    array is formed.  A hit at rank r in row s is the pair
    (s, r - start[s] + s + 1).  Fewer than two vertices draw no coin.
    """
    n = types.size
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    rows = np.arange(n + 1)
    start = rows * (2 * n - rows - 1) // 2  # start[n] is the number of pairs
    shift = start[:n] - rows[:n] - 1  # pair (s, t) has rank t + shift[s]
    coins = rng.random(start[n])
    if shared_coins is not None and shared_coins.size:
        # aligned row i's shared coins pair it with aligned[i+1:], in order
        ranks = [aligned[i + 1:] + o for i, o in enumerate(shift[aligned[:-1]].tolist())]
        coins[np.concatenate(ranks)] = shared_coins
    by_type = list(p[:, types])
    hit = coins < np.concatenate([by_type[t][s:]
                                  for s, t in enumerate(types[:-1].tolist(), 1)])
    # drop the O(n²) arrays before the O(E) edge rows are built
    del coins
    r = np.flatnonzero(hit)
    del hit
    s = np.repeat(rows[:n], np.diff(np.searchsorted(r, start)))
    return np.column_stack((s, r - shift[s]))


def sample_block(counts, p, seed):
    """One sample of the block model with the given per-block vertex counts.

    Vertices are laid out block by block (all of block 0 first, then block 1,
    and so on).  Each unordered pair {u, v} gets an independent uniform coin
    and the edge is present iff the coin is strictly below the blockwise
    probability, so probabilities 0 and 1 are exact.
    """
    a = _check_counts(counts)
    k = a.size
    p = _check_prob_matrix(p, k)
    rng = _as_rng(seed)
    n = int(a.sum())
    types = np.repeat(np.arange(k), a)
    return LabeledGraph(n, _bernoulli_pairs(types, p, rng))


WRandomSample = namedtuple("WRandomSample", ["graph", "counts"])


def sample_wrandom(n, u: StepGraphon, seed):
    """One n-vertex sample of the step-graphon random graph.

    Each vertex first draws a uniform position that selects its part (the
    dividing points belong to the part on their right); each unordered pair
    then draws an independent coin and the edge appears iff the coin is
    strictly below the value of the graphon at the two parts.  Returns the
    graph together with the per-part vertex counts.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    rng = _as_rng(seed)
    m = u.parts.size
    boundaries = np.cumsum(u.parts.weights)
    x = rng.random(n)
    types = np.minimum(np.searchsorted(boundaries, x, side="right"), m - 1)
    graph = LabeledGraph(n, _bernoulli_pairs(types, u.values, rng))
    return WRandomSample(graph, np.bincount(types, minlength=m))


def alignment_distance_bound(counts_a, counts_b):
    """Cut-distance bound certified by aligning two block-count vectors.

    With A the aligned share of the first graph's vertices and B of the
    second, the two empirical graphons each sit within 2(1/share - 1) of the
    common aligned pattern, giving the bound
    2(1/s_a - 1) + 2(1/s_b - 1).  Infinite when nothing aligns.
    """
    a = _check_counts(counts_a)
    b = _check_counts(counts_b, a.size)
    na, nb = int(a.sum()), int(b.sum())
    common = int(np.minimum(a, b).sum())
    if common == 0 or na == 0 or nb == 0:
        return float("inf")
    s_a = common / na
    s_b = common / nb
    return 2.0 * (1.0 / s_a - 1.0) + 2.0 * (1.0 / s_b - 1.0)


def _aligned_edges(graph, aligned):
    """Edges of the subgraph induced on ``aligned``, relabelled by position.

    ``aligned`` is increasing, so the relabelling keeps the rows in
    lexicographic order.
    """
    pos = np.full(graph.n, -1)
    pos[aligned] = np.arange(aligned.size)
    e = pos[graph.edges]
    return e[(e >= 0).all(axis=1)]


CoupledPair = namedtuple(
    "CoupledPair",
    ["graph_a", "graph_b", "aligned_a", "aligned_b", "epsilon", "bound"],
)


def coupled_block_sample(counts_a, counts_b, p, seed):
    """Sample two block models so they agree on a large common vertex set.

    Within each block, the first min(a_i, b_i) vertices of the two graphs are
    paired off in index order; every pair of aligned vertices uses one shared
    coin in both graphs, and since paired vertices carry the same block label
    the two edge indicators coincide, making the induced subgraphs on the
    aligned sets equal under the pairing (this is verified before returning).
    All remaining pairs draw independent coins per graph.

    epsilon is the count discrepancy |a - b|_1 / min(|a|_1, |b|_1); bound is
    the certified cut-distance bound between the two empirical graphons from
    the aligned shares (at most 4 eps / (1 - eps) when eps < 1).
    """
    a, b, p = _check_coupled(counts_a, counts_b, p)
    k = a.size
    na, nb = int(a.sum()), int(b.sum())

    off_a = np.concatenate([[0], np.cumsum(a)])
    off_b = np.concatenate([[0], np.cumsum(b)])
    common = np.minimum(a, b)
    aligned_a = np.concatenate(
        [np.arange(off_a[i], off_a[i] + common[i]) for i in range(k)]
    ).astype(int)
    aligned_b = np.concatenate(
        [np.arange(off_b[i], off_b[i] + common[i]) for i in range(k)]
    ).astype(int)
    c = aligned_a.size

    ss = np.random.SeedSequence(seed)
    s_shared, s_a, s_b = ss.spawn(3)
    rng_shared = np.random.default_rng(s_shared)
    shared_coins = rng_shared.random(c * (c - 1) // 2) if c > 1 else None

    def build(counts, aligned, rng):
        types = np.repeat(np.arange(k), counts)
        edges = _bernoulli_pairs(types, p, rng, aligned, shared_coins)
        return LabeledGraph(int(counts.sum()), edges)

    g_a = build(a, aligned_a, np.random.default_rng(s_a))
    g_b = build(b, aligned_b, np.random.default_rng(s_b))

    if c > 1 and not np.array_equal(_aligned_edges(g_a, aligned_a),
                                    _aligned_edges(g_b, aligned_b)):
        raise RuntimeError("aligned subgraphs disagree; coupling is broken")

    diff = int(np.abs(a - b).sum())
    epsilon = diff / min(na, nb)
    bound = alignment_distance_bound(a, b)
    return CoupledPair(
        graph_a=g_a,
        graph_b=g_b,
        aligned_a=aligned_a,
        aligned_b=aligned_b,
        epsilon=epsilon,
        bound=bound,
    )
