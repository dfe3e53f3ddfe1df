"""Cut norms and cut distances for signed step functions and step graphons.

The cut norm of a step function is the largest |integral over A x B| over
measurable A, B; for a step function the optimum is attained on unions of
whole parts, so for small part counts it is computed exactly by subset
enumeration.  The cut distance between two step graphons additionally
minimizes over rearrangements, parameterized here by overlap couplings; the
search bounds the distance from above, certified while its witness has at
most EXACT_PART_LIMIT pieces.
"""

import functools

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
    could not improve; neither is part of the JSON form.
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


def _best_cut(t):
    """Largest |sum over A x B| given t[A, j] = sum_{i in A} M[i, j].

    Returns the value and the index of a row A attaining it.  For each
    subset A the best B takes every positive (or every negative) column sum,
    so only one side is enumerated.  numpy does not fix which zero
    ``maximum``/``minimum`` return for a -0.0 entry; the sign of a zero
    changes no nonzero row sum, and the final ``+ 0.0`` returns 0.0 for the
    zero function.
    """
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


def _enumerate_cut(M):
    """Exact max over subset pairs of |sum over A x B| for a mass matrix.

    Returns the value and a row set A attaining it, as a boolean vector.
    """
    m = M.shape[0]
    total = 1 << m
    best, arg = 0.0, None
    for start in range(0, total, _ENUM_CHUNK):
        bits = _subset_bits(m, start, min(start + _ENUM_CHUNK, total))
        val, row = _best_cut(bits @ M)
        if arg is None or val > best:
            best, arg = val, bits[row] > 0.0
    return best, arg


def _enumerate_cut_norm(M):
    """The value of ``_enumerate_cut``."""
    return _enumerate_cut(M)[0]


def _stack_value(const, H):
    """Exact const + max_p ||H[p]||_cut of a kernel stack H of shape (P, n, n).

    Returns the value and the (kernel index, row set) of a maximizing cut.
    """
    best, arg = 0.0, None
    for p in range(H.shape[0]):
        val, row = _enumerate_cut(H[p])
        if arg is None or val > best:
            best, arg = val, (p, row)
    return best + const, arg


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
    return _alternating_cut_norm(_mass_matrix(f), restarts, seed)


def _alternating_cut_norm(M, restarts=DEFAULT_ALTERNATING_RESTARTS, seed=0):
    """``cut_norm_alternating`` on a mass matrix, unvalidated.

    The starts run in blocks of ``_ALTERNATING_BLOCK``.  Column j of the block
    is one (start, sign) ascent, so each half-step is one product with M for
    every live ascent; an ascent leaves the block when it stops improving.
    One (k, n) ``rng.integers`` draw yields the same starts as k draws of n.
    """
    rng = np.random.default_rng(seed)
    n = len(M)
    best = 0.0
    for first in range(0, restarts, _ALTERNATING_BLOCK):
        count = min(_ALTERNATING_BLOCK, restarts - first)
        starts = rng.integers(0, 2, size=(count - (first == 0), n)).astype(float)
        if first == 0:
            starts = np.vstack([np.ones(n), starts])
        sign = np.repeat([1.0, -1.0], count)
        prev = np.zeros(2 * count)
        MB = M @ np.hstack([starts.T, starts.T])
        while sign.size:
            A = (MB * sign > 0.0).astype(float)
            MB = M @ ((M @ A) * sign > 0.0).astype(float)
            val = sign * np.einsum("ij,ij->j", A, MB)
            done = val <= prev + 1e-15
            if done.any():
                best = max(best, float(np.maximum(prev[done], val[done]).max()))
                live = ~done
                MB, sign, val = MB[:, live], sign[live], val[live]
            prev = val
    return best


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
    the grid (None for zero), and ``normalized``, which says that pieces
    whose mass is not one are rescaled.

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
    """

    normalized = False
    linear = None

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
        self._work = np.empty((3, 0))

    def stack(self, w, src, tgt):
        """The objective on the pieces (w, src, tgt) of a trusted coupling."""
        if self.normalized:
            w = _normalized(w, float(w.sum()))
        if w.size > self.piece_limit:
            return self.heuristic(w, src, tgt), None
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
            slot = self.pooled % _CUT_POOL_SIZE
            self.pool[slot] = 0.0
            self.pool[slot, src[row] * self.cols + tgt[row]] = 1.0
            self.pool_kernel[slot] = p
            self.pooled += 1
        self.evaluations += 1
        self.memo[key] = val
        return val

    def screen(self, cands, threshold):
        """Flags the couplings cands[r] whose value is certified >= threshold.

        A flagged candidate could not pass a ``< threshold`` test, so a
        caller may skip it.  Memoized candidates and those past the piece
        limit are never flagged.  A normalized objective also leaves
        unflagged a candidate whose mass is not within half of
        NORMALIZATION_TOL of one, so that its stack keeps the grid's masses.
        The latest pooled cut alone certifies most skips in polish, so it
        screens every candidate first and the whole pool the rest.
        """
        skip = np.zeros(len(cands), dtype=bool)
        if not len(cands) or not self.pooled:
            return skip
        X = cands.reshape(len(cands), -1)
        total = X.sum(axis=1)
        open_ = np.count_nonzero(X, axis=1) <= self.piece_limit
        if self.normalized:
            open_ &= np.abs(total - 1.0) <= NORMALIZATION_TOL / 2.0
        open_ &= [x.tobytes() not in self.memo for x in X]
        rows = np.flatnonzero(open_)
        used = min(self.pooled, _CUT_POOL_SIZE)
        stages = [np.array([(self.pooled - 1) % _CUT_POOL_SIZE])]
        if used > 1:
            stages.append(np.arange(used))
        for slots in stages:
            if not rows.size:
                break
            bound, margin = self.screen_bounds(X[rows], total[rows], slots)
            certified = bound - margin >= threshold
            skip[rows[certified]] = True
            rows = rows[~certified]
        return skip

    def screen_bounds(self, X, total, slots):
        """Lower bounds from the cuts in pool ``slots`` on candidates X, and
        their margins.

        X holds one flattened coupling per row and ``total`` its row sums.
        Each pooled row set A, read on a candidate's cells, gets its best B
        for either sign, then one alternating step (the best A' for that B);
        every value is |H[p](A', B)| of a real cut of the candidate, so their
        maximum plus the linear term bounds its exact value from below, up to
        the margin.  The pooled cuts that share a kernel take each step in one
        product, with the candidates folded into its rows.
        """
        n, cells = X.shape
        pool, pool_kernel = self.pool[slots], self.pool_kernel[slots]
        ones = np.ones(cells)
        found = np.zeros(n)  # the empty cut's value
        for p in np.unique(pool_kernel):
            K, KT = self.kernel(int(p))
            A = pool[pool_kernel == p]
            q = A.shape[0]
            size = q * n * cells
            # reused work rows: fresh arrays of this size cost more in page
            # faults than the arithmetic, and same-shape operands beat
            # broadcast ones
            if self._work.shape[1] < 2 * size:
                self._work = np.empty((3, 2 * size))
            xq = self._work[2, :size].reshape(q, n, cells)
            np.copyto(xq, X)
            y = self._work[0, :size].reshape(q, n, cells)
            np.multiply(A[:, None, :], xq, out=y)
            # column sums of each pooled A, short of the column's own mass
            t = self._work[1, :size].reshape(q * n, cells)
            np.matmul(y.reshape(-1, cells), K, out=t)
            t = t.reshape(q, n, cells)
            # B = the positive (then the negative) columns, as masses
            b = self._work[0, :2 * size].reshape(2, q, n, cells)
            np.multiply(t > 0.0, xq, out=b[0])
            np.multiply(t < 0.0, xq, out=b[1])
            # row sums over B; the best A' for each B takes the rows of its sign
            s = self._work[1, :2 * size].reshape(2 * q * n, cells)
            np.matmul(b.reshape(-1, cells), KT, out=s)
            s = s.reshape(2, q, n, cells)
            np.multiply(s, xq, out=s)
            np.maximum(s[0], 0.0, out=s[0])
            np.minimum(s[1], 0.0, out=s[1])
            r = (s.reshape(-1, cells) @ ones).reshape(2, q, n)
            np.maximum(found, r[0].max(axis=0), out=found)
            np.maximum(found, -r[1].min(axis=0), out=found)
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


class _CutObjective(_SearchObjective):
    """The cut norm of U - V, U rearranged along a coupling.

    One kernel, U[a, a'] - V[i, i'], on pieces rescaled to mass one; past
    EXACT_PART_LIMIT pieces the alternating heuristic evaluates it.
    """

    piece_limit = EXACT_PART_LIMIT
    normalized = True

    def diff(self, a, i, p):
        d = self.U[a[:, None], a] - self.V[i[:, None], i]
        return d[None] if p is None else d

    def heuristic(self, w, src, tgt):
        return _alternating_cut_norm((w[:, None] * w[None, :]) * self.diff(src, tgt, 0))

    @functools.cached_property
    def entry_bound(self):
        return float(np.abs(self.kernel(0)[0]).max())


# live cycle moves whose stops one screen call bounds (measured on solve)
_SCREEN_MOVES = 16


def _polish(c, objective, moves, support_cap):
    """First-improvement sweeps over 2x2 cycle moves.

    Each accepted move walks along a transportation-polytope edge; candidate
    stops are the two endpoints and their midpoints, accepted when their
    objective value lies ``_POLISH_TOL`` below the current best.  ``moves``
    holds one (a, b, i, j) row per move, walked in order; after an accepted
    move the walk goes on from the following move.  ``_first_improvement``
    screens the stops in batches, and ``objective.pruned`` counts the stops
    it skips as certified to be no improvement.  Candidates that would
    spread mass over more cells than ``support_cap`` are skipped.  The cap
    keeps every cut-search candidate exact; coloured searches from 4 colours
    on still evaluate some candidates by a heuristic (see
    ``dk_distance_search``), so their polish compares heuristic values.
    """
    best = objective(c)
    for _ in range(_POLISH_SWEEPS):
        improved = False
        nxt = 0
        while nxt < len(moves):
            found = _first_improvement(c, best, objective, moves[nxt:], support_cap)
            if found is None:
                break
            c, best, after = found
            nxt += after
            improved = True
        if not improved:
            break
    return c, best


def _first_improvement(c, best, objective, moves, support_cap):
    """The first stop of the moves on coupling c whose value is below best.

    The stops of the next ``_SCREEN_MOVES`` live moves are built on c at
    once and screened in one call; the walk then takes them in order and
    evaluates only those the screen could not certify to be no improvement,
    so the stop it finds is the one a walk evaluating every stop would find.
    ``objective.pruned`` counts the stops the walk skips.  Returns (stop,
    value, index of the move after its own), or None.
    """
    a, b, i, j = moves.T
    lo = -np.minimum(c[a, i], c[b, j])
    hi = np.minimum(c[a, j], c[b, i])
    live = np.flatnonzero(hi - lo > 0.0)
    threshold = best - _POLISH_TOL
    for start in range(0, live.size, _SCREEN_MOVES):
        chunk = live[start:start + _SCREEN_MOVES]
        theta = np.stack([hi[chunk], lo[chunk], hi[chunk] / 2.0, lo[chunk] / 2.0], axis=1).ravel()
        move = np.repeat(chunk, 4)
        keep = theta != 0.0
        theta, move = theta[keep], move[keep]
        stops = np.repeat(c[None], theta.size, axis=0)
        rows = np.arange(theta.size)
        stops[rows, a[move], i[move]] += theta
        stops[rows, a[move], j[move]] -= theta
        stops[rows, b[move], i[move]] -= theta
        stops[rows, b[move], j[move]] += theta
        np.maximum(stops, 0.0, out=stops)
        fits = np.count_nonzero(stops.reshape(theta.size, -1), axis=1) <= support_cap
        stops, move = stops[fits], move[fits]
        skip = objective.screen(stops, threshold)
        for stop, after, certified in zip(stops, move + 1, skip):
            if certified:
                objective.pruned += 1
                continue
            val = objective(stop)
            if val < threshold:
                return stop.copy(), val, int(after)
    return None


def _seed_list(seed):
    """A seed (an integer or a list of them) as a list to extend."""
    return list(seed) if isinstance(seed, (list, tuple)) else [seed]


def _derived_rng(seed, *extra):
    """Deterministic generator from a seed plus distinguishing integers."""
    return np.random.default_rng(_seed_list(seed) + list(extra))


def _multistart(restarts, seed, run):
    """The best of ``restarts`` local searches over a transportation polytope.

    Start r calls ``run(r, _derived_rng(seed, r))``, which builds its start,
    runs its local step and returns (coupling matrix, value).  Ties in value
    go to the lexicographically smallest support, and the search stops once
    the value is at most 0.  Returns (value, coupling matrix, starts used).
    This one loop drives the cut, coloured, J and R searches.
    """
    best_val = best_c = best_support = None
    used = 0
    for r in range(restarts):
        c, val = run(r, _derived_rng(seed, r))
        used = r + 1
        key = _support_key(c)
        if best_val is None or val < best_val or (val == best_val and key < best_support):
            best_val, best_c, best_support = val, c, key
        if best_val <= 0.0:
            break
    return best_val, best_c, used


def _coupling_search(u: StepGraphon, v: StepGraphon, objective, start_cost,
                     restarts, seed) -> DistanceEstimate:
    """Multi-start cycle-move search for the coupling minimizing an objective.

    Starts: a greedy fill along the cost matrix ``start_cost()`` (cheapest
    cells first), the northwest corner, the independent product when its
    support fits the support cap, then random greedy vertices; each is
    polished and ``_multistart`` keeps the best.  A one-part side leaves one
    coupling, ``np.outer(rows, cols)``, evaluated once.  Starts and moves
    keep the marginals, so candidates go unvalidated: ``objective`` (a
    ``_SearchObjective`` of u against v) reads its formula on their cells,
    and only the witness is checked.  Candidates spread over at most the
    support cap's cells: the objective's piece limit, but at least 8 so that
    small exact regimes (4 colours on) leave moves room, and at most
    max(m + k + 2, 12), a few more than a polytope vertex's m + k - 1.
    """
    rows = u.parts.weights
    cols = v.parts.weights
    m, k = rows.size, cols.size
    support_cap = min(max(objective.piece_limit, 8), m * k, max(m + k + 2, 12))
    moves = np.array(_cycle_moves(m, k), dtype=np.intp).reshape(-1, 4)
    one_point = m == 1 or k == 1

    def run(r, rng):
        if one_point:
            c0 = np.outer(rows, cols)
        elif r == 0:
            c0 = _greedy_fill(rows, cols, np.argsort(start_cost(), axis=None, kind="stable"))
        elif r == 1:
            c0 = _greedy_fill(rows, cols, np.arange(m * k))
        elif r == 2 and m * k <= support_cap:
            c0 = np.outer(rows, cols)
        else:
            c0 = _greedy_fill(rows, cols, rng.permutation(m * k))
        return _polish(c0, objective, moves, support_cap)

    best_val, best_c, used = _multistart(1 if one_point else restarts, seed, run)
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
    bits = _subset_bits(n, 0, 1 << n)
    best = np.inf
    for perm in itertools.permutations(range(n)):
        pi = np.asarray(perm)
        val = _best_cut(bits @ ((A - B[np.ix_(pi, pi)]) * scale))[0]
        if val < best:
            best = val
            if best == 0.0:
                break
    return best
