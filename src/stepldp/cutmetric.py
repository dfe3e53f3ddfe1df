"""Cut norms and cut distances for signed step functions and step graphons.

The cut norm of a step function is the largest |integral over A x B| over
measurable A, B; for a step function the optimum is attained on unions of
whole parts, so for small part counts it is computed exactly by subset
enumeration.  The cut distance between two step graphons additionally
minimizes over rearrangements, parameterized here by overlap couplings; the
search bounds the distance from above, certified while its witness has at
most EXACT_PART_LIMIT pieces.  The search objective also carries part
colours, so the coloured metric of ``coloured`` is the same objective with
more than one colour.
"""

import functools
import math

import numpy as np

from .graphon import (
    MARGINAL_TOL,
    NORMALIZATION_TOL,
    OverlapCoupling,
    PartWeights,
    StepGraphon,
    _check_values,
    _matrix_pieces,
    _normalized,
    common_refinement,
    coupling_pieces,
    overlay_partitions,
)

__all__ = [
    "SignedStepFn", "DistanceEstimate", "cut_norm_exact",
    "cut_norm_alternating", "cut_distance_upper", "aligned_cut_distance",
    "overlay_coupling", "cut_distance_search", "graph_cut_distance_exact",
]

# Exact subset enumeration is used up to this many parts; past it the
# alternating heuristic takes over.
EXACT_PART_LIMIT = 22

# Rows of the subset-indicator matrix materialized per chunk.
_ENUM_CHUNK = 1 << 16

DEFAULT_ALTERNATING_RESTARTS = 32
_ALTERNATING_BLOCK = 32  # starts one alternating block advances together
DEFAULT_SEARCH_RESTARTS = 64
_POLISH_TOL = 1e-12  # least improvement a cycle move must bring
_POLISH_SWEEPS = 60
_CUT_POOL_SIZE = 32  # recent best cuts a coupling search bounds candidates with
_POOL_SCREEN_ROWS = 32  # candidates per whole-pool screen call (measured on solve)
_BIJECTION_VERTEX_LIMIT = 8  # of graph_cut_distance_exact's n! search


class SignedStepFn:
    """Symmetric step function on the unit square with values in [-1, 1]."""

    def __init__(self, parts, values):
        self.parts = parts if isinstance(parts, PartWeights) else PartWeights(parts)
        self.values = _check_values(self.parts, values, -1.0)

    @classmethod
    def difference(cls, parts, values_a, values_b):
        return cls(parts, np.asarray(values_a, dtype=float) - np.asarray(values_b, dtype=float))

    def __repr__(self):
        return "SignedStepFn(parts=%d)" % self.parts.size


class DistanceEstimate:
    """A coupling search's best value plus the coupling that witnesses it.

    ``evaluations`` counts the objective values the search computed (memo
    hits excluded) and ``pruned`` the candidates its polish walked past
    because the batched screen certified, from the pooled cuts, that they
    could not improve; neither is part of the JSON form.  The restarts of a
    block share one memo and one pool, in the order their lockstep walks
    evaluate, so both counts depend on that order (unlike the value, the
    witness and ``restarts_used``); they are deterministic for a given
    input, seed and restart count.
    """

    def __init__(self, upper, witness, restarts_used, evaluations=0, pruned=0):
        self.upper = float(upper)
        self.witness = witness
        self.restarts_used = int(restarts_used)
        self.evaluations = int(evaluations)
        self.pruned = int(pruned)

    def transposed(self):
        return DistanceEstimate(self.upper, self.witness.transpose(), self.restarts_used,
                                self.evaluations, self.pruned)

    def to_json(self) -> dict:
        return {
            "upper": self.upper,
            "witness": [[float(x) for x in row] for row in self.witness.matrix],
            "restartsUsed": self.restarts_used,
        }

    def __repr__(self):
        return "DistanceEstimate(upper=%.6g, restarts=%d)" % (self.upper, self.restarts_used)


def _mass_matrix(f: SignedStepFn):
    w = f.parts.weights
    return (w[:, None] * w[None, :]) * f.values


# Full subset tables of at most _ENUM_CHUNK rows, keyed by part count; filled
# on first use and read-only, so every caller can share them.
_FULL_SUBSET_BITS = {}


def _subset_bits(m, start, stop):
    """0/1 indicator rows of the subsets numbered start..stop-1 of m parts."""
    full = start == 0 and stop == 1 << m and stop <= _ENUM_CHUNK
    if full and m in _FULL_SUBSET_BITS:
        return _FULL_SUBSET_BITS[m]
    masks = np.arange(start, stop, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(m, dtype=np.int64)[None, :]) & 1).astype(float)
    if full:
        bits.flags.writeable = False
        _FULL_SUBSET_BITS[m] = bits
    return bits


# The work rows of the enumeration and of the screen's cut steps, and a zeros
# row their products are compared with: grown on first need, then reused by
# every call (the package runs one search at a time per process).  numpy
# compares an array with a zeros row broadcast on its leading axes about
# twice as fast as with the scalar 0.0.
_ENUM_WORK = np.empty(0)
_ENUM_ZEROS = np.zeros(0)


def _enum_work(size, rows):
    """``size`` work doubles and a zeros row of length ``rows``."""
    global _ENUM_WORK, _ENUM_ZEROS
    if _ENUM_WORK.size < size:
        _ENUM_WORK = np.empty(size)
    if _ENUM_ZEROS.size < rows:
        _ENUM_ZEROS = np.zeros(rows)
    return _ENUM_WORK[:size], _ENUM_ZEROS[:rows]


def _row_sums(c):
    """``c.sum(axis=1)`` of a (q, n, r) array, byte for byte; overwrites c.

    numpy adds the n < 8 terms of a row left to right, and longer rows (up
    to 128 terms) into eight interleaved partial sums, which it adds in
    pairs before the tail; the reduction returns 0.0 plus that sum.  Here
    each step runs on whole columns, so all q r rows take O(n) array
    operations, not one reduction each.
    """
    n = c.shape[1]
    head = 1
    if n >= 8:
        head = n - n % 8
        for i in range(8, head, 8):
            c[:, :8] += c[:, i:i + 8]
        np.add(c[:, 0:8:2], c[:, 1:8:2], out=c[:, 0:8:2])
        np.add(c[:, 0:8:4], c[:, 2:8:4], out=c[:, 0:8:4])
        c[:, 0] += c[:, 4]
    s = c[:, 0]
    for j in range(head, n):
        s += c[:, j]
    s += 0.0
    return s


def _kernel_cuts(H):
    """Exact max over subset pairs of |sum over A x B| for each kernel of a stack.

    H has shape (P, n, n).  Returns the values, shape (P,), and for each the
    number of a row set A attaining it (bit i set when part i is in A).  For
    each A the best B takes every positive (or every negative) column sum, so
    only one side is enumerated; each product serves a chunk of kernels and
    subsets at once, at most ``_ENUM_CHUNK`` (kernel, subset) rows.  Column
    sums and row sums, ties (the first subset, positive side first) and
    zeros (``+ 0.0``: numpy does not fix which zero ``maximum``/``minimum``
    return for -0.0) are those of one ``bits @ H[p]`` product per kernel
    and subset chunk, reduced by ``.sum(axis=1)``.

    The product fills the second half of the work rows; the positive side
    goes to the first half and the negative side stays in place, so one
    ``_row_sums`` pass sums both signs of every kernel.
    """
    P, n = H.shape[:2]
    total = 1 << n
    rows = min(total, _ENUM_CHUNK)
    per = max(1, _ENUM_CHUNK // rows)
    values = np.empty(P)
    masks = np.empty(P, dtype=np.int64)
    for first in range(0, P, per):
        q = min(per, P - first)
        lhs = np.ascontiguousarray(H[first:first + q].transpose(0, 2, 1)).reshape(q * n, n)
        work, zeros = _enum_work(2 * q * n * rows, rows)
        both = work.reshape(2 * q, n, rows)
        t = both[q:]
        at = np.arange(q)
        for start in range(0, total, rows):
            np.matmul(lhs, _subset_bits(n, start, start + rows).T, out=t.reshape(q * n, rows))
            np.maximum(t, zeros, out=both[:q])
            np.minimum(t, zeros, out=t)
            sums = _row_sums(both)
            top = sums[:q].argmax(axis=1)
            pos = sums[at, top]
            low = sums[q:].argmin(axis=1)
            neg = -sums[q + at, low]
            use = neg > pos
            val = np.where(use, neg, pos) + 0.0
            row = np.where(use, low, top) + start
            if start:
                keep = val > values[first:first + q]
                val = np.where(keep, val, values[first:first + q])
                row = np.where(keep, row, masks[first:first + q])
            values[first:first + q] = val
            masks[first:first + q] = row
    return values, masks


def _enumerate_cut_norm(M):
    """Exact max over subset pairs of |sum over A x B| for a mass matrix."""
    return float(_kernel_cuts(M[None])[0][0])


def _stack_value(const, H):
    """Exact const + max_p ||H[p]||_cut of a kernel stack H of shape (P, n, n).

    Returns the value and the (kernel index, row set) of a maximizing cut,
    the first kernel's on ties; the row set is a boolean vector.
    """
    values, masks = _kernel_cuts(H)
    p = int(values.argmax())
    row = (int(masks[p]) >> np.arange(H.shape[1])) & 1 > 0
    return float(values[p]) + const, (p, row)


def _objective_value(stack):
    """Value of an objective stack ``(const, H)``; with H None, const is it."""
    const, H = stack
    return const if H is None else _stack_value(const, H)[0]


def cut_norm_exact(f: SignedStepFn) -> float:
    """Exact cut norm by subset enumeration (at most 22 parts).

    For each subset A of parts the optimal B follows by taking the positive
    (or negative) column sums, so one side is enumerated and the other read
    off by sign.
    """
    if f.parts.size > EXACT_PART_LIMIT:
        raise ValueError(
            "exact cut norm limited to %d parts, got %d"
            % (EXACT_PART_LIMIT, f.parts.size)
        )
    return _enumerate_cut_norm(_mass_matrix(f))


def cut_norm_alternating(f: SignedStepFn, restarts=DEFAULT_ALTERNATING_RESTARTS, seed=0) -> float:
    """Monotone lower bound on the cut norm from alternating maximization.

    Each restart fixes one side, optimizes the other exactly by the sign of
    its summed contribution, and alternates until no improvement; the first
    restart always starts from the full part set (so constant functions are
    solved at any restart count), the rest from random 0/1 inclusion vectors.
    The starts ascend together in blocks of 32, so memory is O(n) and does
    not grow with ``restarts``.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    return _alternating_cut_norm(_mass_matrix(f)[None], restarts, seed)


def _alternating_cut_norm(K, restarts=DEFAULT_ALTERNATING_RESTARTS, seed=0, stop=math.inf):
    """Lower bound on the max over 0/1 vectors x, y of sum_p |x^T K[p] y|.

    K is a (P, n, n) stack: one mass matrix for ``cut_norm_alternating``,
    one kernel per ordered colour pair for the coloured metric.  An ascent
    holds y and a sign S_p per kernel.  Its x half-step takes the best x,
    [sum_p S_p K[p] y > 0], and re-reads each S_p as the sign of x^T K[p] y
    (a zero sum keeps it); its y half-step does the same on the stored
    transposes, and its value is sum_p S_p x^T K[p] y under the signs it
    maximized.  A lone kernel keeps its sign (a half-step takes the rows
    of that sign), so with P = 1 no sign is read.

    The starts, the full part set and then random 0/1 vectors, run in
    blocks of ``_ALTERNATING_BLOCK``; each ascends from S0 and from -S0, S0
    the signs of y^T K[p] y (ties +), the copy with first sign + in the
    first half of the block (BLAS rounds a column by its place).  A column
    leaves the block once it improves by at most 1e-15.  One (k, n)
    ``rng.integers`` draw yields the same starts as k draws of n.

    The result is the largest value computed (or 0.0): a column's values
    rise while it stays, and the last two are read as it leaves.  So once
    one value exceeds ``stop`` the result will too, and that value is
    returned at once.
    """
    rng = np.random.default_rng(seed)
    n = K.shape[1]
    KT = np.ascontiguousarray(K.transpose(0, 2, 1))
    best = 0.0
    for first in range(0, restarts, _ALTERNATING_BLOCK):
        count = min(_ALTERNATING_BLOCK, restarts - first)
        starts = rng.integers(0, 2, size=(count - (first == 0), n)).astype(float)
        if first == 0:
            starts = np.vstack([np.ones(n), starts])
        Y = np.hstack([starts.T, starts.T])
        KY = K @ Y
        S = np.ones((1, 2 * count))
        if len(K) > 1:
            S = np.where(np.einsum("ij,pij->pj", Y, KY) >= 0.0, 1.0, -1.0)
        S *= S[0]
        S[:, count:] = -S[:, :count]
        prev = np.zeros(2 * count)
        while prev.size:
            X = (_signed_sum(S, KY) > 0.0).astype(float)
            if len(K) > 1:
                sums = np.einsum("ij,pij->pj", X, KY)
                S = np.where(sums == 0.0, S, np.sign(sums))
            KY = K @ (_signed_sum(S, KT @ X) > 0.0).astype(float)
            sums = np.einsum("ij,pij->pj", X, KY)
            val = _signed_sum(S, sums)
            if val.max() > stop:
                return float(val.max())
            if len(K) > 1:
                S = np.where(sums == 0.0, S, np.sign(sums))
            done = val <= prev + 1e-15
            if done.any():
                best = max(best, float(np.maximum(prev[done], val[done]).max()))
                live = ~done
                KY, S, val = KY[:, :, live], S[:, live], val[live]
            prev = val
    return best


def _signed_sum(S, T):
    """sum_p S[p] T[p] for S of shape (P, cols) and T of shape (P, ..., cols)."""
    return T[0] * S[0] if len(T) == 1 else np.einsum("pj,p...j->...j", S, T)


def cut_distance_upper(u: StepGraphon, v: StepGraphon, coupling: OverlapCoupling) -> float:
    """Cut norm of the difference after rearranging u along one coupling.

    Exact (hence a certified upper bound on the cut distance) while the
    coupled refinement has at most 22 pieces; beyond that the alternating
    heuristic evaluates the same objective best-effort.  The marginals are
    checked here; the coupling search calls the kernel past these checks.
    """
    if not coupling.row_parts.approx_equal(u.parts):
        raise ValueError("coupling row marginals do not match the first graphon")
    if not coupling.col_parts.approx_equal(v.parts):
        raise ValueError("coupling column marginals do not match the second graphon")
    return _objective_value(_CutObjective(u.values, v.values).stack(*coupling_pieces(coupling)))


def aligned_cut_distance(u: StepGraphon, v: StepGraphon) -> float:
    """Exact cut norm of u - v on the common refinement (no rearrangement)."""
    parts, vu, vv = common_refinement(u, v)
    return cut_norm_exact(SignedStepFn.difference(parts, vu, vv))


def overlay_coupling(u: StepGraphon, v: StepGraphon) -> OverlapCoupling:
    """The coupling realizing the identity map between the two part lists."""
    w, iu, iv = overlay_partitions(u.parts, v.parts)
    c = np.zeros((u.parts.size, v.parts.size))
    np.add.at(c, (iu, iv), w)
    return OverlapCoupling(c, u.parts, v.parts)


# ---------------------------------------------------------------------------
# coupling search


def _greedy_fill(rows, cols, order):
    """Greedy fill along a cell priority order, then repair any drift.

    Every prefix respects the marginals, so the result is feasible up to
    float drift, which lands in the final visited cells.  The row-major
    order gives the classic northwest-corner vertex.
    """
    m, k = rows.size, cols.size
    c = np.zeros((m, k))
    rr = rows.copy()
    cc = cols.copy()
    for cell in order:
        a, i = divmod(int(cell), k)
        d = min(rr[a], cc[i])
        if d > 0.0:
            c[a, i] += d
            rr[a] -= d
            cc[i] -= d
    # greedy over a full cell order always terminates with matching residuals
    if rr.sum() > MARGINAL_TOL:
        ia = int(np.argmax(rr))
        ii = int(np.argmax(cc))
        c[ia, ii] += min(float(rr[ia]), float(cc[ii]))
    return c


def _profile_distance(vals_a, wts_a, vals_b, wts_b):
    """1-Wasserstein distance between two weighted value distributions."""
    pts = np.concatenate([vals_a, vals_b])
    order = np.argsort(pts, kind="stable")
    pts = pts[order]
    delta = np.concatenate([wts_a, -wts_b])[order]
    cdf_gap = np.cumsum(delta)[:-1]
    gaps = np.diff(pts)
    return float(np.abs(cdf_gap) @ gaps)


def _profile_cost(u: StepGraphon, v: StepGraphon):
    """Cost matrix of how unlike the two parts' value profiles look.

    A part's profile is the distribution of its neighbour values, weighted
    by part mass.  Matching parts that play the same structural role first
    tends to start the search near a good rearrangement (for weakly
    isomorphic inputs it reconstructs the permutation outright).
    """
    m, k = u.parts.size, v.parts.size
    cost = np.empty((m, k))
    for a in range(m):
        for i in range(k):
            cost[a, i] = _profile_distance(u.values[a], u.parts.weights,
                                           v.values[i], v.parts.weights)
    return cost


def _degree_bound(u: StepGraphon, v: StepGraphon):
    """A lower bound on every value ``cut_distance_search(u, v)`` can return.

    For any coupling the cut S x [0,1], S the pieces whose degree in u
    exceeds (or falls short of) their degree in v, has the value
    (sum |d_u - d_v| +- (e_u - e_v)) / 2 integrated over the coupling, which
    is at least (W1(deg u, deg v) + |e_u - e_v|) / 2, W1 the 1-Wasserstein
    distance of the weighted degree distributions (``_profile_distance``)
    and e the edge densities.  No coupling is searched.  Returns that bound
    less its margin.
    """
    wu, wv = u.parts.weights, v.parts.weights
    du, dv = u.values @ wu, v.values @ wv
    bound = (_profile_distance(du, wu, dv, wv) + abs(float(wu @ du) - float(wv @ dv))) / 2.0
    # Margin.  Let u = 2^-53 and N = m k the grid's cells.  The search
    # returns the value of its witness x, whose marginals OverlapCoupling
    # holds within MARGINAL_TOL of the part weights per part (the stack's
    # rescaling to mass one moves them by as much again), so the real value
    # of x's best S x [0,1] cut is the bound above, taken on x's marginals:
    # each marginal defect moves a degree, the W1 dual's term and the edge
    # term by at most its size, as values lie in [0, 1], so the real cut
    # value is at least the real bound less 6 (m + k) MARGINAL_TOL.  The
    # search's value of x is at least that cut's value up to rounding.  An
    # enumeration's sup is within gamma_(2N+2) S of the real maximum (see
    # ``screen_bounds``), here with S = (sum x)^2 max|U - V| <= 2.  The
    # heuristic's ascent starts from all pieces: its first value, computed
    # within gamma_(2N+2) S, is the cut of the columns of one sign and then
    # the best rows for them, whose real value falls short of the best
    # S x [0,1] cut only by the sums whose computed sign is wrong, each
    # within gamma_N of zero; the ascent reports at least that value.  The
    # bound is computed from nested sums of at most m + k terms of size at
    # most one, within gamma_(4(m+k)+4).  So the margin 8 (m + k)
    # MARGINAL_TOL + (8N + 8(m + k) + 16) eps covers every loss.
    m, k = wu.size, wv.size
    margin = 8 * (m + k) * MARGINAL_TOL + (8 * m * k + 8 * (m + k) + 16) * np.finfo(float).eps
    return bound - margin


@functools.lru_cache(maxsize=64)
def _cycle_moves(m, k):
    """All 2x2 cycle moves (a, b, i, j), a < b, i < j, in lexicographic order."""
    return tuple((a, b, i, j)
                 for a in range(m) for b in range(a + 1, m)
                 for i in range(k) for j in range(i + 1, k))


def _canonical_key(u: StepGraphon):
    return (
        u.parts.size,
        tuple(u.parts.weights.tolist()),
        tuple(u.values.ravel().tolist()),
    )


def _support_key(c):
    rows, cols = np.nonzero(c > 0.0)
    return tuple(zip(rows.tolist(), cols.tolist()))


class _SearchObjective:
    """Objective values of one coupling search's candidates, read on coupling cells.

    A subclass states its formula once, as ``diff(a, i, p)``: for cells
    (a[r], i[r]) and (a[s], i[s]) of the m x k coupling grid, the value
    difference of kernel p, or the stack of every kernel's when p is None.
    It also gives ``heuristic(w, src, tgt)``, the whole value past
    ``piece_limit`` pieces, and ``entry_bound``, a bound on |diff| for every
    p.  It may give ``const(w, src, tgt)``, the objective's term outside the
    cut (zero by default), with ``linear``, the same term as a linear form on
    the grid (None for zero).  ``_CutObjective`` is the one subclass the
    package searches with; the tests fake others.

    ``stack(w, src, tgt)`` reads the formula on a candidate's pieces, as the
    kernel stack ``(const, H)`` whose exact value is const + max_p of the cut
    norm of H[p], or as ``(value, None)`` past the piece limit; values are
    memoized by the coupling's bytes.  ``kernel(p)`` reads it on all m k
    cells in row-major order, with its transpose, both C-ordered and built
    on first use.  A candidate c, flattened to x = c.ravel(), has there the
    masses x_r x_s K[r, s]; zero-mass cells add exact zeros, so on c's
    pieces this is the stack itself.

    The maximizing row set A of every exact enumeration joins a first-in
    first-out pool of recent best cuts, kept as indicators on the grid (with
    its kernel index), so any later candidate, in any restart, can read it
    as a cut of its own pieces; ``screen`` bounds candidates with the pool.
    Building an objective computes no kernel: the screen builds what it
    reads once the pool holds a cut.

    ``stop``, None unless set, turns a search into the decision ``value <=
    stop`` (see ``_coupling_search``); ``settle`` evaluates a lone coupling
    for it.
    """

    linear = None
    stop = None

    def __init__(self, U, V):
        self.U, self.V = U, V
        m, k = len(U), len(V)
        self.cols = k
        self.memo = {}
        self.pool = np.zeros((_CUT_POOL_SIZE, m * k))
        self.pool_kernel = np.zeros(_CUT_POOL_SIZE, dtype=np.intp)
        self.pooled = 0
        self.evaluations = 0
        self.pruned = 0
        self._kernels = {}

    def stack(self, w, src, tgt, stop=math.inf):
        """The objective on the pieces (w, src, tgt) of a trusted coupling;
        past the piece limit ``stop`` goes to the heuristic."""
        if w.size > self.piece_limit:
            return self.heuristic(w, src, tgt, stop), None
        return self.const(w, src, tgt), (w[:, None] * w[None, :]) * self.diff(src, tgt, None)

    def const(self, w, src, tgt):
        return 0.0

    def kernel(self, p):
        """``diff`` on the whole grid, and its transpose (see above)."""
        pair = self._kernels.get(p)
        if pair is None:
            m, k = len(self.U), self.cols
            K = self.diff(np.repeat(np.arange(m), k), np.tile(np.arange(k), m), p)
            pair = self._kernels[p] = (K, np.ascontiguousarray(K.T))
        return pair

    def __call__(self, c):
        """Objective value of coupling c."""
        key = c.tobytes()
        val = self.memo.get(key)
        if val is not None:
            return val
        w, src, tgt = _matrix_pieces(c)
        const, H = self.stack(w, src, tgt)
        if H is None:
            val = const
        else:
            val, (p, row) = _stack_value(const, H)
            self._pool_cut(src[row] * self.cols + tgt[row], p)
        self.evaluations += 1
        self.memo[key] = val
        return val

    def _pool_cut(self, cells, p):
        """Pool the cut of kernel p on the grid ``cells`` over the oldest; its slot."""
        slot = self.pooled % _CUT_POOL_SIZE
        self.pool[slot] = 0.0
        self.pool[slot, cells] = 1.0
        self.pool_kernel[slot] = p
        self.pooled += 1
        return slot

    def settle(self, c):
        """The value of coupling c, or, with ``stop`` set, a value on the same
        side of stop, for a search whose one coupling is c.

        Past the piece limit the heuristic returns once a computed value
        exceeds stop.  Within it, the cut of every cell, read by
        ``screen_bounds`` with its best B and one alternating step, bounds the
        exact value from below; past stop by more than its margin, the bound
        is returned and nothing is enumerated.
        """
        if self.stop is None:
            return self(c)
        w, src, tgt = _matrix_pieces(c)
        if w.size > self.piece_limit:
            return self.stack(w, src, tgt, self.stop)[0]
        x = c.reshape(1, -1)
        total = x.sum(axis=1)
        if abs(total[0] - 1.0) <= NORMALIZATION_TOL / 2.0:  # as ``screen`` asks
            bound, margin = self.screen_bounds(x, total, np.array([self._pool_cut(slice(None), 0)]))
            if bound[0] - margin[0] > self.stop:
                return float(bound[0] - margin[0])
        return self(c)

    def screen(self, cands, threshold, own):
        """Flags the couplings cands[r] whose value is certified >= threshold[r].

        A flagged candidate could not pass a ``< threshold[r]`` test, so a
        caller may skip it.  Memoized candidates and those past the piece
        limit are never flagged, nor is a candidate whose mass is not within
        half of NORMALIZATION_TOL of one, so that a stack that rescales its
        pieces (``_CutObjective.stack``) keeps the grid's masses.
        ``own[r]`` numbers a pooled cut (``pooled - 1`` when it joined) that
        likely bounds cands[r] well, such as the latest of the walk that
        offers it: that cut alone certifies most skips in polish, so each
        candidate is screened with its own first and with the whole pool
        after, at most _POOL_SCREEN_ROWS x _CUT_POOL_SIZE (cut, candidate)
        pairs per ``screen_bounds`` call, so its work rows do not grow with
        the number of candidates.
        """
        skip = np.zeros(len(cands), dtype=bool)
        if not len(cands) or not self.pooled:
            return skip
        X = cands.reshape(len(cands), -1)
        total = X.sum(axis=1)
        open_ = np.count_nonzero(X, axis=1) <= self.piece_limit
        open_ &= np.abs(total - 1.0) <= NORMALIZATION_TOL / 2.0
        open_ &= [x.tobytes() not in self.memo for x in X]
        rows = np.flatnonzero(open_)
        if rows.size:
            bound, margin = self.screen_bounds(X[rows], total[rows], own[rows] % _CUT_POOL_SIZE,
                                               paired=True)
            skip[rows[bound - margin >= threshold[rows]]] = True
            rows = rows[~skip[rows]]
        used = min(self.pooled, _CUT_POOL_SIZE)
        step = _POOL_SCREEN_ROWS * _CUT_POOL_SIZE // used
        for first in range(0, rows.size if used > 1 else 0, step):
            part = rows[first:first + step]
            bound, margin = self.screen_bounds(X[part], total[part], np.arange(used))
            skip[part[bound - margin >= threshold[part]]] = True
        return skip

    def screen_bounds(self, X, total, slots, paired=False):
        """Lower bounds from the cuts in pool ``slots`` on candidates X, and
        their margins.

        X holds one flattened coupling per row and ``total`` its row sums.
        Each pooled row set A, read on a candidate's cells, gets its best B
        for either sign, then one alternating step (the best A' for that B);
        every value is |H[p](A', B)| of a real cut of the candidate, so their
        maximum plus the linear term bounds its exact value from below, up to
        the margin.  Every candidate is read with every cut in ``slots``, or,
        if ``paired``, row r with the cut in slots[r] alone.  The cuts that
        share a kernel take each step in one product, with the candidates
        folded into its rows.
        """
        n, cells = X.shape
        kernels = self.pool_kernel[slots]
        found = np.zeros(n)  # the empty cut's value
        for p in sorted(set(kernels.tolist())):  # np.unique would import numpy.ma
            if paired:
                at = np.flatnonzero(kernels == p)
                found[at] = self._cut_steps(X[at], self.pool[slots[at]][None], int(p))
            else:
                A = self.pool[slots[kernels == p]][:, None, :]
                np.maximum(found, self._cut_steps(X, A, int(p)), out=found)
        const = 0.0 if self.linear is None else X @ self.linear
        bound = found + const
        # Rounding margin.  Let u = 2^-53, N the cell count, n <= N the piece
        # count and S = (sum x)^2 max|K| >= sum_rs x_r x_s |K_rs|.  The
        # enumeration forms each mass x_r x_s K_rs with two roundings and each
        # row value by two nested sums of at most n terms, so every value it
        # computes lies within gamma_(2n+2) S of the real value of its cut,
        # gamma_j = ju / (1 - ju) (Higham, Accuracy and Stability, 2002, sec.
        # 3.1), and its sup is >= M - gamma_(2n+2) S, where M <= S is the real
        # maximum.  Here each value nests two sums of N products and one
        # scaling, so ``found`` <= M + gamma_(2N+2) S.  The linear term C and
        # the stack's const sum the same nonnegative terms (the stack per
        # colour, with k <= 4 colours in the exact regime), so they agree
        # within 2 gamma_(N+4) C.  Adding each to its sup, and forming ``bound
        # - margin``, round by u each; so a skip test ``bound - margin >= t``
        # that passes leaves the enumerated value >= t + margin - (4N + 5) u S
        # - (2N + 9) u C - 2u bound (all up to O(u^2)).  The margin (4N + 8) u
        # (S + C + bound) exceeds that loss with room for its own rounding, so
        # the enumeration of a skipped candidate would not come out below t.
        scale = total * total * self.entry_bound + np.abs(const) + np.abs(bound)
        return bound, (2 * cells + 4) * np.finfo(float).eps * scale

    def _cut_steps(self, X, A, p):
        """The best value of the cuts A, of kernel p, each with its best B and
        one alternating step, on each candidate X[r]: A is (q, 1, cells) to
        read every cut on every candidate, or (1, n, cells) for one each."""
        n, cells = X.shape
        K, KT = self.kernel(p)
        q = A.shape[0]
        size = q * n * cells
        # the enumeration's work rows: fresh arrays of this size cost more
        # in page faults than the arithmetic.  X is copied out to (q, n,
        # cells) since A * X, both operands broadcast, runs at about two
        # thirds of the speed; one operand broadcast on the leading axes,
        # such as the zeros row, is nearly as fast as a same-shape one, a
        # scalar is not
        work, zeros = _enum_work(5 * size, cells)
        b = work[:2 * size].reshape(2, q, n, cells)
        s = work[2 * size:4 * size].reshape(2, q, n, cells)
        xq = work[4 * size:].reshape(q, n, cells)
        np.copyto(xq, X)
        np.multiply(A, xq, out=b[0])
        # column sums of each A, short of the column's own mass
        t = s[0]
        np.matmul(b[0].reshape(-1, cells), K, out=t.reshape(-1, cells))
        # B = the positive (then the negative) columns, as masses
        np.multiply(t > 0.0, xq, out=b[0])
        np.multiply(t < 0.0, xq, out=b[1])
        # row sums over B; the best A' for each B takes the rows of its sign
        np.matmul(b.reshape(-1, cells), KT, out=s.reshape(-1, cells))
        np.multiply(s, xq, out=s)
        np.maximum(s[0], zeros, out=s[0])
        np.minimum(s[1], zeros, out=s[1])
        r = (s.reshape(-1, cells) @ np.ones(cells)).reshape(2, q, n)
        return np.maximum(r[0].max(axis=0), -r[1].min(axis=0))


class _CutObjective(_SearchObjective):
    """The cut norm of U - V, U rearranged along a coupling, with part colours.

    U's parts carry colours ca and V's cb, below ``colours`` (by default one
    colour: the plain cut norm).  The colour-aware sup term sums |cut| over
    the k^2 ordered colour pairs; for one sign per pair, a k x k matrix sig,
    that is the cut norm of

        diff = sig[ca, ca'] U - sig[cb, cb'] V,

    so the stack holds one kernel per sign matrix, the first sign pinned
    (2^(k^2 - 1) kernels; 1.0 U - 1.0 V with one colour).  The const term is
    the colour-class symmetric difference: a cell of two colours adds twice
    its mass.  The sign patterns share the enumeration budget from two
    colours on, so the piece limit is 22 with one colour and 22 - k^2 after.
    Past it the alternating ascent reads diff with sig each pair's 0/1
    indicator, one kernel per pair.
    """

    def __init__(self, U, V, ca=None, cb=None, colours=1):
        super().__init__(U, V)
        self.ca = np.zeros(len(U), dtype=np.intp) if ca is None else ca
        self.cb = np.zeros(len(V), dtype=np.intp) if cb is None else cb
        k = self.colours = colours
        self.piece_limit = EXACT_PART_LIMIT - (k * k if k > 1 else 0)
        if k > 1:
            self.linear = 2.0 * (self.ca[:, None] != self.cb[None, :]).ravel()

    def stack(self, w, src, tgt, stop=math.inf):
        """The base stack on the pieces rescaled to mass one (unless their
        mass is within NORMALIZATION_TOL of it)."""
        return super().stack(_normalized(w, float(w.sum())), src, tgt, stop)

    def _read(self, a, i, sig):
        """sig[ca, ca'] U - sig[cb, cb'] V on the cells (a, i), for each
        matrix of a (..., k, k) stack sig."""
        if self.colours == 1:  # sig is 1.0, and 1.0 U - 1.0 V is 1.0 (U - V)
            return sig[..., :1, :1] * (self.U[a[:, None], a] - self.V[i[:, None], i])
        ca, cb = self.ca[a], self.cb[i]
        return (sig[..., ca[:, None], ca] * self.U[a[:, None], a]
                - sig[..., cb[:, None], cb] * self.V[i[:, None], i])

    def diff(self, a, i, p):
        signs = _sign_matrices(self.colours)
        return self._read(a, i, signs if p is None else signs[p])

    def const(self, w, src, tgt):
        if self.linear is None:
            return 0.0
        ca, cb = self.ca[src], self.cb[tgt]
        total = 0.0
        for colour in range(self.colours):
            total += float(w[(ca == colour) != (cb == colour)].sum())
        return total

    def heuristic(self, w, src, tgt, stop=math.inf):
        """The ascent's sup plus const; past ``stop`` the ascent may return
        early, and const >= 0 keeps the sum past it."""
        k = self.colours
        pairs = np.eye(k * k).reshape(-1, k, k)
        sup = _alternating_cut_norm((w[:, None] * w[None, :]) * self._read(src, tgt, pairs),
                                    stop=stop)
        return sup + self.const(w, src, tgt)

    @functools.cached_property
    def entry_bound(self):
        """The largest |diff| over every sign matrix: on a pair of grid cells
        whose colour pairs agree the signs are equal, so |U - V|, and
        elsewhere independent, so |U| + |V|."""
        U, V = self.U[:, None, :, None], self.V[None, :, None, :]
        agree = self.ca[:, None] == self.cb[None, :]
        same = agree[:, :, None, None] & agree[None, None, :, :]
        return float(np.where(same, np.abs(U - V), np.abs(U) + np.abs(V)).max())


@functools.lru_cache(maxsize=None)
def _sign_matrices(k):
    """Sign matrices of the even masks below 2^(k^2), shape (2^(k^2-1), k, k).

    Mask bits are read row-major; a set bit means -1.  Read-only, and built
    on first use per colour count (4 MB at 4 colours).
    """
    signs = (1.0 - 2.0 * _subset_bits(k * k, 0, 1 << (k * k))[::2]).reshape(-1, k, k)
    signs.flags.writeable = False
    return signs


# live cycle moves whose stops a walk offers to one screen call (measured on solve)
_SCREEN_MOVES = 16
# restarts whose polish walks advance in lockstep, sharing each screen call
_LOCKSTEP_WALKS = 16


class _Walk:
    """One restart's first-improvement sweeps over 2x2 cycle moves.

    Each accepted move walks along a transportation-polytope edge; candidate
    stops are the two endpoints and their midpoints, accepted when their
    objective value lies ``_POLISH_TOL`` below the current best.  Moves are
    walked in order, and after an accepted move the walk goes on from the
    following move; a sweep that accepts nothing ends the walk, as does the
    ``_POLISH_SWEEPS``-th.  The walk picks its next ``_SCREEN_MOVES`` live
    moves at a time (``chunk``), ``_chunk_stops`` builds their stops, and
    ``take`` then evaluates those the screen left unflagged, in order, up to
    the first improvement, so it accepts the stop a walk evaluating every
    stop would.  Stops that spread mass over more cells than the support cap
    are dropped.  The cap keeps every candidate within the objective's piece
    limit up to 3 colours (the cut search is the one-colour case); from 4
    colours on, the cap admits 8 pieces and the limit is 22 - k^2, so the
    walk compares the values the alternating ascent gives past the limit,
    lower bounds (see ``dk_distance_search``).
    """

    def __init__(self, c, objective, moves):
        self.c, self.best = c, objective(c)
        self.own = objective.pooled - 1  # the latest pooled cut as it evaluated
        self.sweep, self.improved = 0, False
        self.moves = moves
        self._scan(0)

    def _scan(self, nxt):
        """Line up the live moves from move nxt on, on the current coupling."""
        a, b, i, j = self.moves.T
        lo = -np.minimum(self.c[a, i], self.c[b, j])
        hi = np.minimum(self.c[a, j], self.c[b, i])
        live = np.flatnonzero(hi - lo > 0.0)
        self.live = live[live >= nxt]
        self.pos = 0

    def chunk(self):
        """The next chunk of live moves; None once the walk has ended."""
        while self.pos >= self.live.size:
            self.sweep += 1
            if not self.improved or self.sweep == _POLISH_SWEEPS:
                return None
            self.improved = False
            self._scan(0)
        chunk = self.live[self.pos:self.pos + _SCREEN_MOVES]
        self.pos += _SCREEN_MOVES
        return chunk

    def take(self, stops, after, skip, objective):
        """Evaluate the unflagged stops in order and accept the first that
        improves; ``objective.pruned`` counts the flagged stops walked past."""
        threshold = self.best - _POLISH_TOL
        for stop, nxt, certified in zip(stops, after, skip):
            if certified:
                objective.pruned += 1
                continue
            val = objective(stop)
            self.own = objective.pooled - 1
            if val < threshold:
                self.c, self.best, self.improved = stop.copy(), val, True
                self._scan(int(nxt))
                return


def _chunk_stops(couplings, chunks, moves, support_cap):
    """The stops of each walk's chunk of moves, built together.

    couplings[w] is walk w's current coupling and chunks[w] its chunk.  Each
    move gives the stops theta = hi, lo, hi / 2, lo / 2 (the zero ones
    dropped), hi and lo the ends of its edge on the coupling; those within
    the support cap are returned, walk by walk in move order, with the move
    after each stop's own and the walk it belongs to.
    """
    C = np.stack(couplings)
    owner = np.repeat(np.arange(len(chunks)), [len(chunk) for chunk in chunks])
    move = np.concatenate(chunks)
    a, b, i, j = moves[move].T
    lo = -np.minimum(C[owner, a, i], C[owner, b, j])
    hi = np.minimum(C[owner, a, j], C[owner, b, i])
    theta = np.stack([hi, lo, hi / 2.0, lo / 2.0], axis=1).ravel()
    keep = np.flatnonzero(theta != 0.0)
    theta, move, owner = theta[keep], move[keep // 4], owner[keep // 4]
    a, b, i, j = moves[move].T
    stops = C[owner]
    rows = np.arange(theta.size)
    stops[rows, a, i] += theta
    stops[rows, a, j] -= theta
    stops[rows, b, i] -= theta
    stops[rows, b, j] += theta
    fits = np.count_nonzero(stops.reshape(theta.size, C[0].size), axis=1) <= support_cap
    return stops[fits], move[fits] + 1, owner[fits]


def _lockstep_polish(starts, objective, moves, support_cap):
    """Polish the starts of a block of restarts together.

    Each step every live walk (see ``_Walk``) picks its next chunk of moves,
    ``_chunk_stops`` builds all their stops at once, one ``objective.screen``
    call bounds them, each row against its own walk's threshold and first
    with its walk's latest cut, and the walks then take their own stops in
    restart order.  The screen only flags stops certified to be no
    improvement, so every walk accepts the moves it would accept alone; the
    pool and memo the walks share change only ``evaluations`` and
    ``pruned``.  A walk that ends at a value <= 0 retires every later walk,
    since the restart loop stops there.  Returns the (coupling, value) of
    each walk up to the first that ended at <= 0, in restart order.

    With ``objective.stop`` set, the polish ends as soon as a walk's best
    value is at most stop, whether at its start or after a move, and
    returns the walks up to that one: walks only descend, so the search
    value is at most stop whatever the other walks would reach.
    """
    stop = -math.inf if objective.stop is None else objective.stop
    walks = []
    for c in starts:
        walks.append(_Walk(c, objective, moves))
        if walks[-1].best <= stop:
            return [(walk.c, walk.best) for walk in walks]
    live = range(len(walks))
    while True:
        stepping, chunks = [], []
        for w in live:
            if w >= len(walks):  # retired
                break
            chunk = walks[w].chunk()
            if chunk is not None:
                stepping.append(w)
                chunks.append(chunk)
            elif walks[w].best <= 0.0:
                del walks[w + 1:]
        if not stepping:
            break
        live = stepping
        stops, after, owner = _chunk_stops([walks[w].c for w in live], chunks, moves,
                                           support_cap)
        thresholds = np.array([walks[w].best - _POLISH_TOL for w in live])[owner]
        own = np.array([walks[w].own for w in live])[owner]
        skip = objective.screen(stops, thresholds, own)
        ends = np.searchsorted(owner, np.arange(len(live) + 1))
        for slot, w in enumerate(live):
            at = slice(ends[slot], ends[slot + 1])
            walks[w].take(stops[at], after[at], skip[at], objective)
            if walks[w].best <= stop:
                return [(walk.c, walk.best) for walk in walks[:w + 1]]
    return [(walk.c, walk.best) for walk in walks]


def _seed_list(seed):
    """A seed (an integer or a list of them) as a list to extend."""
    return list(seed) if isinstance(seed, (list, tuple)) else [seed]


def _derived_rng(seed, *extra):
    """Deterministic generator from a seed plus distinguishing integers."""
    return np.random.default_rng(_seed_list(seed) + list(extra))


def _multistart(results, stop=0.0):
    """The best of a sequence of local searches over a transportation polytope.

    ``results`` yields each restart's (coupling matrix, value) in restart
    order, restart r drawing from its own ``_derived_rng(seed, r)``.  Ties in
    value go to the lexicographically smallest support, and the loop stops
    reading once the value is at most ``stop``: 0, below which no value
    lies, unless a decision search sets a higher stop.  Returns (value,
    coupling matrix, restarts used).  This one loop drives the cut,
    coloured, J and R searches.
    """
    best_val = best_c = best_support = None
    used = 0
    for c, val in results:
        used += 1
        key = _support_key(c)
        if best_val is None or val < best_val or (val == best_val and key < best_support):
            best_val, best_c, best_support = val, c, key
        if best_val <= stop:
            break
    return best_val, best_c, used


def _coupling_search(u: StepGraphon, v: StepGraphon, objective, start_cost,
                     restarts, seed) -> DistanceEstimate:
    """Multi-start cycle-move search for the coupling minimizing an objective.

    Starts: a greedy fill along the cost matrix ``start_cost()`` (cheapest
    cells first), the northwest corner, the independent product when its
    support fits the support cap, then random greedy vertices, restart r
    permuting the cells with ``_derived_rng(seed, r)`` (built only there, as
    the other starts draw nothing).  The starts of each block of
    ``_LOCKSTEP_WALKS`` restarts are polished together
    (``_lockstep_polish``), and ``_multistart`` keeps the best; a later
    block starts only if the restart loop reads on.  A one-part side leaves
    one coupling, ``np.outer(rows, cols)``, evaluated once.  Starts and
    moves keep the marginals, so candidates go unvalidated: ``objective``
    (a ``_SearchObjective`` of u against v) reads its formula on their
    cells, and only the witness is checked.  Candidates spread over at most
    the support cap's cells: the objective's piece limit, but at least 8 so
    that small exact regimes (4 colours on) leave moves room, and at most
    max(m + k + 2, 12), a few more than a polytope vertex's m + k - 1.

    The value, witness and restarts used do not depend on the blocks.  The
    ``evaluations`` and ``pruned`` counts do, since the walks share one
    memo and one pool of cuts in the order they evaluate; they are
    deterministic for a given input, seed and restart count.

    With ``objective.stop`` set the search decides ``value <= stop``: the
    one coupling is ``settle``d, the polish ends at the first walk at or
    below stop, and so does the restart loop.  The returned value then lies
    on the same side of stop as the full search's, and the rest of the
    estimate is partial.
    """
    rows = u.parts.weights
    cols = v.parts.weights
    m, k = rows.size, cols.size
    if m == 1 or k == 1:
        c = np.outer(rows, cols)
        return DistanceEstimate(objective.settle(c), OverlapCoupling(c, u.parts, v.parts), 1,
                                objective.evaluations, objective.pruned)
    support_cap = min(max(objective.piece_limit, 8), m * k, max(m + k + 2, 12))
    moves = np.array(_cycle_moves(m, k), dtype=np.intp).reshape(-1, 4)

    def start(r):
        if r == 0:
            return _greedy_fill(rows, cols, np.argsort(start_cost(), axis=None, kind="stable"))
        if r == 1:
            return _greedy_fill(rows, cols, np.arange(m * k))
        if r == 2 and m * k <= support_cap:
            return np.outer(rows, cols)
        return _greedy_fill(rows, cols, _derived_rng(seed, r).permutation(m * k))

    def results():
        for first in range(0, restarts, _LOCKSTEP_WALKS):
            block = range(first, min(first + _LOCKSTEP_WALKS, restarts))
            starts = [start(r) for r in block]
            yield from _lockstep_polish(starts, objective, moves, support_cap)

    stop = 0.0 if objective.stop is None else max(objective.stop, 0.0)
    best_val, best_c, used = _multistart(results(), stop)
    witness = OverlapCoupling(best_c, u.parts, v.parts)
    return DistanceEstimate(best_val, witness, used, objective.evaluations, objective.pruned)


def cut_distance_search(u: StepGraphon, v: StepGraphon,
                        restarts=DEFAULT_SEARCH_RESTARTS, seed=0) -> DistanceEstimate:
    """Search couplings for the smallest rearranged cut norm.

    Multi-start local search over the transportation polytope of the two
    part-weight vectors: deterministic starts (profile-matching greedy,
    northwest corner, independent product) plus random greedy vertices, each
    polished by cycle moves accepted when the evaluated cut norm drops.  The
    stops of several moves are screened at once against recent best cuts,
    and a stop is enumerated only when its certified lower bound leaves room
    for an improvement; ``pruned`` on the result counts the others.  The
    reported value is the cut norm of the returned coupling, so an upper
    bound on the distance, whenever the witness has at most
    EXACT_PART_LIMIT pieces; past that (only a start can be that large) it
    is the alternating heuristic's value.  Ties prefer the
    lexicographically smallest support.  Results are deterministic given
    the seed, identical under swapping u and v (the pair is canonically
    oriented internally), and never worsen as the restart budget grows.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if _canonical_key(v) < _canonical_key(u):
        return cut_distance_search(v, u, restarts=restarts, seed=seed).transposed()
    return _coupling_search(u, v, _CutObjective(u.values, v.values),
                            functools.partial(_profile_cost, u, v), restarts, seed)


def _within(u: StepGraphon, v: StepGraphon, eta, restarts=DEFAULT_SEARCH_RESTARTS,
            seed=0) -> bool:
    """Whether ``cut_distance_search(u, v, restarts, seed).upper <= eta``.

    The same search, run as a decision with stop eta (see
    ``_coupling_search``), so it settles as soon as the answer is known: a
    one-part side's coupling is ``settle``d (its screen bound or the cut
    short ascent can certify a miss), other pairs first try
    ``_degree_bound``, a miss without any search when it exceeds eta, and
    the search ends at the first walk at or below eta, a hit.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if _canonical_key(v) < _canonical_key(u):
        u, v = v, u
    if u.parts.size > 1 and v.parts.size > 1 and _degree_bound(u, v) > eta:
        return False
    objective = _CutObjective(u.values, v.values)
    objective.stop = eta
    est = _coupling_search(u, v, objective, functools.partial(_profile_cost, u, v), restarts, seed)
    return est.upper <= eta


def graph_cut_distance_exact(g, h) -> float:
    """Smallest aligned cut norm over all vertex bijections of two graphs.

    Exhaustive over the n! relabelings (n at most 8), evaluating each
    difference exactly; an upper bound on the cut distance of the embedded
    graphons.
    """
    if g.n != h.n:
        raise ValueError("graphs must have the same number of vertices")
    n = g.n
    if n > _BIJECTION_VERTEX_LIMIT:
        raise ValueError("exhaustive bijection search limited to %d vertices"
                         % _BIJECTION_VERTEX_LIMIT)
    import itertools

    A = g.adjacency()
    B = h.adjacency()
    scale = 1.0 / (n * n)
    perms = itertools.permutations(range(n))
    per = max(1, _ENUM_CHUNK >> n)  # relabelings enumerated together
    best = np.inf
    while best > 0.0:
        pi = np.array(list(itertools.islice(perms, per)), dtype=np.intp)
        if not pi.size:
            break
        H = (A - B[pi[:, :, None], pi[:, None, :]]) * scale
        best = min(best, float(_kernel_cuts(H)[0].min()))
    return best
