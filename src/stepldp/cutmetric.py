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
    OverlapCoupling,
    PartWeights,
    StepGraphon,
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
DEFAULT_SEARCH_RESTARTS = 64
_POLISH_TOL = 1e-12  # least improvement a cycle move must bring
_POLISH_SWEEPS = 60
_CUT_POOL_SIZE = 32  # recent best cuts a coupling search bounds candidates with
_BIJECTION_VERTEX_LIMIT = 8  # of graph_cut_distance_exact's n! search


class SignedStepFn:
    """Symmetric step function on the unit square with values in [-1, 1]."""

    def __init__(self, parts, values):
        if not isinstance(parts, PartWeights):
            parts = PartWeights(parts)
        v = np.array(values, dtype=float)
        m = parts.size
        if v.shape != (m, m):
            raise ValueError("value matrix must be %dx%d, got %r" % (m, m, v.shape))
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if v.size and np.max(np.abs(v - v.T)) > 1e-12:
            raise ValueError("value matrix must be symmetric within 1e-12")
        v = (v + v.T) / 2.0
        if float(np.max(np.abs(v))) > 1.0:
            raise ValueError("values must lie in [-1, 1]")
        v.flags.writeable = False
        self.parts = parts
        self.values = v

    @classmethod
    def difference(cls, parts, values_a, values_b):
        return cls(parts, np.asarray(values_a, dtype=float) - np.asarray(values_b, dtype=float))

    def __repr__(self):
        return "SignedStepFn(parts=%d)" % self.parts.size


class DistanceEstimate:
    """A coupling search's best value plus the coupling that witnesses it.

    ``evaluations`` counts the objective values the search computed (memo
    hits excluded) and ``pruned`` the candidates a certified lower bound
    rejected without one; neither is part of the JSON form.
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


def _alternate(M, b, sign):
    """Alternating ascent from inclusion vector b; returns the signed value."""
    prev = 0.0
    while True:
        a = ((M @ b) * sign > 0.0).astype(float)
        b = ((M @ a) * sign > 0.0).astype(float)
        val = sign * float(a @ M @ b)
        if val <= prev + 1e-15:
            return max(prev, val, 0.0)
        prev = val


def cut_norm_alternating(f: SignedStepFn, restarts=DEFAULT_ALTERNATING_RESTARTS, seed=0) -> float:
    """Monotone lower bound on the cut norm from alternating maximization.

    Each restart fixes one side, optimizes the other exactly by the sign of
    its summed contribution, and alternates until no improvement; the first
    restart always starts from the full part set (so constant functions are
    solved at any restart count), the rest from random 0/1 inclusion vectors.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    return _alternating_cut_norm(_mass_matrix(f), restarts, seed)


def _alternating_cut_norm(M, restarts=DEFAULT_ALTERNATING_RESTARTS, seed=0):
    """``cut_norm_alternating`` on a mass matrix, unvalidated."""
    rng = np.random.default_rng(seed)
    best = 0.0
    for r in range(restarts):
        b = np.ones(len(M)) if r == 0 else rng.integers(0, 2, size=len(M)).astype(float)
        for sign in (1.0, -1.0):
            best = max(best, _alternate(M, b.copy(), sign))
    return best


def _cut_stack(u: StepGraphon, v: StepGraphon, w, src, tgt):
    """The cut objective on the pieces (w, src, tgt) of a trusted coupling.

    Up to EXACT_PART_LIMIT pieces this is the one-kernel stack (0.0, [M]) of
    the difference's mass matrix M; past it, (alternating value on M, None).
    """
    diff = u.values[src[:, None], src] - v.values[tgt[:, None], tgt]
    w = _normalized(w, float(w.sum()))
    M = (w[:, None] * w[None, :]) * diff
    if w.size > EXACT_PART_LIMIT:
        return _alternating_cut_norm(M), None
    return 0.0, M[None]


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
    return _objective_value(_cut_stack(u, v, *coupling_pieces(coupling)))


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
    """Objective values of one coupling search's candidates.

    ``stack(w, src, tgt)`` gives the objective on a candidate's pieces as a
    kernel stack ``(const, H)`` whose exact value is const + max_p of the cut
    norm of H[p], or as ``(value, None)`` past the exact regime.  Values are
    memoized by the coupling's bytes.  The maximizing row set A of every
    exact enumeration joins a first-in first-out pool of recent best cuts,
    kept as indicators on the m x k coupling-cell grid (with its kernel
    index), so any later candidate, in any restart, can read it as a cut of
    its own pieces.
    """

    def __init__(self, stack, m, k):
        self.stack = stack
        self.memo = {}
        self.cols = k
        self.pool = np.zeros((_CUT_POOL_SIZE, m * k))
        self.pool_kernel = np.zeros(_CUT_POOL_SIZE, dtype=np.intp)
        self.pooled = 0
        self.evaluations = 0
        self.pruned = 0

    def __call__(self, c, threshold=None):
        """Objective value of coupling c, or None when its value is certified
        to be at least ``threshold`` (so no caller testing ``< threshold``
        could take it); exact stacks are bounded before they are enumerated.
        """
        key = c.tobytes()
        val = self.memo.get(key)
        if val is not None:
            return val
        w, src, tgt = _matrix_pieces(c)
        const, H = self.stack(w, src, tgt)
        if H is None:
            val = const
        else:
            if threshold is not None and self.pooled:
                bound, margin = self.bound(const, H, src, tgt)
                if bound - margin >= threshold:
                    self.pruned += 1
                    return None
            val, (p, row) = _stack_value(const, H)
            slot = self.pooled % _CUT_POOL_SIZE
            self.pool[slot] = 0.0
            self.pool[slot, src[row] * self.cols + tgt[row]] = 1.0
            self.pool_kernel[slot] = p
            self.pooled += 1
        self.evaluations += 1
        self.memo[key] = val
        return val

    def bound(self, const, H, src, tgt):
        """Lower bound from the pooled cuts, and its rounding margin.

        Each pooled row set A, read on these pieces, gets its best B for
        either sign, then one alternating step (the best A' for that B);
        every value is |H[p](A', B)| of a real cut, so their maximum plus
        const bounds the exact value from below, up to the margin.
        """
        used = min(self.pooled, _CUT_POOL_SIZE)
        x = self.pool[:used].take(src * self.cols + tgt, axis=1)
        kernel = np.concatenate([self.pool_kernel[:used]] * 2)
        entry = np.arange(2 * used)
        # column sums of each pooled A under its own kernel
        t = np.matmul(x, H)[kernel[:used], entry[:used]]
        # B = the positive (then the negative) columns; row sums over B
        b = np.concatenate([t > 0.0, t < 0.0]).astype(float)
        s = np.matmul(b, H.transpose(0, 2, 1))[kernel, entry]
        s[used:] *= -1.0
        # the best A' for each B, which does at least as well as A itself
        found = float(np.maximum(s, 0.0).sum(axis=1).max())
        bound = found + const
        # Rounding margin.  Let S be the largest sum of |entries| of a kernel,
        # n the piece count and u = 2^-53.  Each row value, in the
        # enumeration or here, nests two sums of at most n terms (a matrix
        # product, then a row sum) in any order, so it lies within
        # gamma_2n * S of the real value of its cut, gamma_2n = 2nu / (1 -
        # 2nu) (Higham, Accuracy and Stability, 2002, sec. 3.1).  So the
        # enumerated sup is >= N - gamma S and ``found`` <= N + gamma S,
        # where N <= S is the real maximum.  Adding const >= 0, and forming
        # ``bound - margin`` round by u each, and a skip test ``bound -
        # margin >= t`` that passes implies t <= bound; so it leaves the
        # enumerated value >= t + margin - 2 gamma S - 2u (S + const) -
        # u bound (all up to O(u^2 S)).  The margin (4n + 4) u (S + const +
        # bound) exceeds that loss with room for its own rounding, so the
        # enumeration of a skipped candidate would not come out below t.
        scale = float(np.abs(H).sum(axis=(1, 2)).max()) + abs(const) + abs(bound)
        return bound, (2 * src.size + 2) * np.finfo(float).eps * scale


def _polish(c, objective, moves, support_cap):
    """First-improvement sweeps over 2x2 cycle moves.

    Each accepted move walks along a transportation-polytope edge; candidate
    stops are the two endpoints and their midpoints, accepted when their
    objective value lies ``_POLISH_TOL`` below the current best.  The
    objective may decline a candidate whose certified lower bound already
    rules that out, which changes no accepted move.  Candidates that would
    spread mass over more cells than ``support_cap`` are skipped.  The cap
    keeps every cut-search candidate exact; coloured searches from 4 colours
    on still evaluate some candidates by a heuristic (see
    ``dk_distance_search``), so their polish compares heuristic values.
    """
    best = objective(c)
    for _ in range(_POLISH_SWEEPS):
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
                val = objective(cand, best - _POLISH_TOL)
                if val is not None and val < best - _POLISH_TOL:
                    c = cand
                    best = val
                    improved = True
                    break
        if not improved:
            break
    return c, best


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


def _coupling_search(u: StepGraphon, v: StepGraphon, stack, start_cost,
                     support_cap, restarts, seed) -> DistanceEstimate:
    """Multi-start cycle-move search for the coupling minimizing an objective.

    Starts: a greedy fill along the cost matrix ``start_cost()`` (cheapest
    cells first), the northwest corner, the independent product when its
    support fits ``support_cap``, then random greedy vertices; each is
    polished and ``_multistart`` keeps the best.  A one-part side leaves one
    coupling, ``np.outer(rows, cols)``, evaluated once.  Starts and
    moves keep the marginals, so candidates go unvalidated: ``stack`` gets
    their pieces ``(w, src, tgt)`` and returns the objective as a kernel
    stack (see ``_SearchObjective``), and only the witness is checked.
    """
    rows = u.parts.weights
    cols = v.parts.weights
    m, k = rows.size, cols.size
    objective = _SearchObjective(stack, m, k)
    moves = _cycle_moves(m, k)
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
    polished by cycle moves accepted when the evaluated cut norm drops.  A
    candidate move is first bounded from below by recent best cuts, and it
    is enumerated only when that bound leaves room for an improvement.  The
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
    m, k = u.parts.size, v.parts.size
    # keep every evaluated coupling inside the exact cut-norm regime
    support_cap = min(EXACT_PART_LIMIT, m * k, max(m + k + 2, 12))
    return _coupling_search(u, v, functools.partial(_cut_stack, u, v),
                            functools.partial(_profile_cost, u, v), support_cap, restarts, seed)


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
