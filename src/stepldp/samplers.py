"""Random graph samplers for block models and step graphons.

Both samplers draw edges independently with blockwise probabilities; the
coupled sampler additionally shares the edge coins between two block models
with slightly different block counts, so that the samples agree on a large
common vertex set.  All randomness flows through numpy generators seeded
explicitly; a fixed seed reproduces the exact same graphs.
"""

from bisect import bisect_right
from collections import namedtuple

import numpy as np

from .graphon import (_ROW_CHUNK, LabeledGraph, StepGraphon, _check_prob_matrix,
                      _check_vertex_count, _check_weights)

__all__ = [
    "apportion_counts",
    "sample_block",
    "sample_wrandom",
    "coupled_block_sample",
    "alignment_distance_bound",
    "WRandomSample",
    "CoupledPair",
]


def _check_counts(counts, size=None):
    """Block counts as a nonempty vector of nonnegative ints, optionally of ``size`` blocks."""
    a = np.asarray(counts)
    if a.ndim != 1 or a.size == 0:
        raise ValueError("block counts must form a nonempty vector")
    if size is not None and a.size != size:
        raise ValueError("count vectors must have the same number of blocks")
    if a.dtype.kind not in "biuf":
        # Python ints past int64 form an object array
        raise ValueError("block counts must be integers below 2^63")
    if a.dtype.kind == "f" and not np.all(np.isfinite(a) & (a == np.floor(a))):
        raise ValueError("block counts must be integers")
    if np.any(a < 0):
        raise ValueError("block counts must be nonnegative")
    exact = [int(x) for x in a.tolist()]
    if max(exact) >= 2 ** 63:
        raise ValueError("block counts must be integers below 2^63")
    if sum(exact) >= 2 ** 63:
        raise ValueError("block counts must sum below 2^63")
    return a.astype(int)


def _check_coupled(counts_a, counts_b, p):
    """``coupled_block_sample``'s inputs: equal block numbers, a vertex each, p to match."""
    a = _check_counts(counts_a)
    b = _check_counts(counts_b, a.size)
    if a.sum() == 0 or b.sum() == 0:
        raise ValueError("both graphs need at least one vertex")
    _check_vertex_count(a.sum())
    _check_vertex_count(b.sum())
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


# coins are drawn and compared with their thresholds this many pairs at a
# time, so no array of all n(n-1)/2 coins or thresholds is ever formed
_PAIR_CHUNK = 1 << 15


def _join_rows(table, s0, s1, lo, hi, out):
    """table[s][s+1:] over rows s0..s1, from lo into row s0 to hi into row s1, into out."""
    pieces = [table[s][s + 1:] for s in range(s0, s1 + 1)]
    pieces[-1] = pieces[-1][:hi]
    pieces[0] = pieces[0][lo:]
    return np.concatenate(pieces, out=out)


def _edge_room(types, p, total):
    """Rows to reserve for the edges that ``total`` pairs of the given types draw.

    One chunk of pairs reserves a row per pair.  More chunks reserve the
    expected edge count plus six standard deviations (the count is a sum of
    independent coins, so its variance is at most its mean) and 64.
    """
    if total <= _PAIR_CHUNK:
        return total
    size = np.bincount(types, minlength=len(p))
    mean = max(float(size @ p @ size - size @ p.diagonal()) / 2.0, 0.0)
    return min(total, int(mean + 6.0 * mean ** 0.5) + 64)


def _bernoulli_pairs(types, p, rng, aligned=None, shared=None):
    """Independent Bernoulli edges on vertices with the given block types.

    Each unordered pair {s, t}, s < t, takes one uniform coin from rng, in
    row-major upper-triangular order, and is an edge iff its coin is
    strictly below p[types[s], types[t]], so probabilities 0 and 1 are
    exact.  With ``aligned`` (increasing vertex indices) and ``shared`` (a
    generator), the pairs of two aligned vertices use the next coin of
    ``shared`` instead of their own, so two graphs whose shared generators
    start alike read the same coin at the k-th aligned pair of each.
    Returns the edges as an (E, 2) int32 array of rows (s, t) in
    lexicographic order.

    The coins are drawn ``_PAIR_CHUNK`` ranks at a time into one reused
    buffer; a PCG64 generator gives the same doubles, and ends in the same
    state, as one draw of all n(n-1)/2 coins.  Row s of the triangle starts
    at rank start[s] = s(2n - s - 1)/2, and its thresholds are the slice
    P[types[s], s+1:] of P = p[:, types].  A chunk may start or end inside
    a row: the threshold slices of the rows it covers are joined into one
    buffer and compared with its coins, so no per-pair index or probability
    array is formed.  The chunk's aligned pairs are marked the same way,
    from the aligned-vertex mask in aligned rows and an all-False row in
    the others, and their coins are overwritten in order by ``shared``.  A
    hit at rank r in row s is the pair (s, r - start[s] + s + 1); each
    chunk's hits are written at once as int32 rows into one edge array,
    reserved by ``_edge_room`` and grown only by a draw past it.  Fewer than
    two vertices draw no coin.
    """
    n = types.size
    if n < 2:
        return np.empty((0, 2), dtype=np.int32)
    rows = np.arange(n + 1)
    start = rows * (2 * n - rows - 1) // 2  # start[n] is the number of pairs
    shift = start[:n] - rows[:n] - 1  # pair (s, t) has rank t + shift[s]
    total = int(start[n])
    by_type = list(p[:, types])
    thresholds = [by_type[t] for t in types.tolist()]  # row s reads thresholds[s][s+1:]
    size = min(total, _PAIR_CHUNK)
    if shared is not None:
        is_aligned = np.zeros(n, dtype=bool)
        is_aligned[aligned] = True
        rows_of = (np.zeros(n, dtype=bool), is_aligned)  # by whether row s is aligned
        marks = [rows_of[f] for f in is_aligned.tolist()]  # row s reads marks[s][s+1:]
        mark_buf = np.empty(size, dtype=bool)
    offsets = start.tolist()
    coin_buf = np.empty(size)
    buf = np.empty(size)
    edges = np.empty((_edge_room(types, p, total), 2), dtype=np.int32)
    count = 0
    for a in range(0, total, _PAIR_CHUNK):
        b = min(a + _PAIR_CHUNK, total)
        s0 = bisect_right(offsets, a) - 1
        s1 = bisect_right(offsets, b - 1, s0) - 1
        lo, hi = a - offsets[s0], b - offsets[s1]
        coins = rng.random(out=coin_buf[:b - a])
        if shared is not None:
            mark = _join_rows(marks, s0, s1, lo, hi, mark_buf[:b - a])
            coins[mark] = shared.random(np.count_nonzero(mark))
        r = np.flatnonzero(coins < _join_rows(thresholds, s0, s1, lo, hi, buf[:b - a]))
        r += a
        cuts = np.searchsorted(r, start[s0:s1 + 2])  # where each row's hits begin
        s = np.repeat(rows[s0:s1 + 1], cuts[1:] - cuts[:-1])
        if count + r.size > len(edges):  # more edges than reserved: grow
            edges = np.concatenate(
                (edges[:count], np.empty((len(edges) + r.size, 2), dtype=np.int32)))
        out = edges[count:count + r.size]
        out[:, 0] = s
        np.subtract(r, shift[s], out=out[:, 1])
        count += r.size
    return edges[:count]


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
    rng = np.random.default_rng(seed)
    n = int(a.sum())
    _check_vertex_count(n)
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
    _check_vertex_count(n)
    rng = np.random.default_rng(seed)
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
    if common == 0:
        return float("inf")
    s_a = common / na
    s_b = common / nb
    return 2.0 * (1.0 / s_a - 1.0) + 2.0 * (1.0 / s_b - 1.0)


def _aligned_rows(graph, aligned):
    """Rows of the subgraph induced on ``aligned``, relabelled by position.

    Yields the nonempty int32 arrays of them that each block of
    ``_ROW_CHUNK`` edge rows holds.  ``aligned`` is increasing, so the
    relabelled rows stay in lexicographic order.
    """
    pos = np.full(graph.n, -1, dtype=np.int32)
    pos[aligned] = np.arange(aligned.size)
    for i in range(0, len(graph.edges), _ROW_CHUNK):
        block = graph.edges[i:i + _ROW_CHUNK]
        first, second = pos.take(block[:, 0]), pos.take(block[:, 1])
        keep = (first >= 0) & (second >= 0)
        if keep.any():
            yield np.column_stack((first[keep], second[keep]))


def _same_rows(xs, ys):
    """Whether two streams of nonempty row arrays hold the same rows in order.

    One cursor walks each stream; each step compares the rows both have in
    hand and keeps the rest of the longer array for the next step.
    """
    x = y = np.empty((0, 2), dtype=np.int32)
    while True:
        if not x.size:
            x = next(xs, None)
        if not y.size:
            y = next(ys, None)
        if x is None or y is None:
            return x is y
        m = min(len(x), len(y))
        if not np.array_equal(x[:m], y[:m]):
            return False
        x, y = x[m:], y[m:]


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

    def build(counts, aligned, s_own):
        # each graph reads the shared coins from its own generator on s_shared
        types = np.repeat(np.arange(k), counts)
        edges = _bernoulli_pairs(types, p, np.random.default_rng(s_own), aligned,
                                 np.random.default_rng(s_shared))
        return LabeledGraph(int(counts.sum()), edges)

    g_a = build(a, aligned_a, s_a)
    g_b = build(b, aligned_b, s_b)

    if c > 1 and not _same_rows(_aligned_rows(g_a, aligned_a), _aligned_rows(g_b, aligned_b)):
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
