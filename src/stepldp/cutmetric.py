"""Cut norms and cut distances for signed step functions and step graphons.

The cut norm of a step function is the largest |integral over A x B| over
measurable A, B; for a step function the optimum is attained on unions of
whole parts, so for small part counts it is computed exactly by subset
enumeration.  The cut distance between two step graphons additionally
minimizes over rearrangements, parameterized here by overlap couplings; the
search only ever certifies the distance from above.
"""

import functools

import numpy as np

from .graphon import (
    MARGINAL_TOL,
    OverlapCoupling,
    PartWeights,
    StepGraphon,
    _matrix_pieces,
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
    """An upper bound on a cut distance plus the coupling that witnesses it."""

    def __init__(self, upper, witness, restarts_used):
        self.upper = float(upper)
        self.witness = witness
        self.restarts_used = int(restarts_used)

    def transposed(self):
        return DistanceEstimate(self.upper, self.witness.transpose(), self.restarts_used)

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

    For each subset A the best B takes every positive (or every negative)
    column sum, so only one side is enumerated.  numpy does not fix which
    zero ``maximum``/``minimum`` return for a -0.0 entry; the sign of a zero
    changes no nonzero row sum, and the final ``+ 0.0`` returns 0.0 for the
    zero function.
    """
    buf = np.maximum(t, 0.0)
    pos = float(buf.sum(axis=1).max())
    np.minimum(t, 0.0, out=buf)
    neg = float(buf.sum(axis=1).min())
    return max(pos, -neg) + 0.0


def _enumerate_cut_norm(M):
    """Exact max over subset pairs of |sum over A x B| for a mass matrix."""
    m = M.shape[0]
    total = 1 << m
    best = 0.0
    for start in range(0, total, _ENUM_CHUNK):
        bits = _subset_bits(m, start, min(start + _ENUM_CHUNK, total))
        best = max(best, _best_cut(bits @ M))
    return best


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
    M = _mass_matrix(f)
    m = f.parts.size
    rng = np.random.default_rng(seed)
    best = 0.0
    for r in range(restarts):
        b = np.ones(m) if r == 0 else rng.integers(0, 2, size=m).astype(float)
        for sign in (1.0, -1.0):
            best = max(best, _alternate(M, b.copy(), sign))
    return best


def _coupled_cut_norm(u: StepGraphon, v: StepGraphon, w, src, tgt) -> float:
    """``cut_distance_upper`` on the pieces (w, src, tgt) of a trusted coupling."""
    parts = PartWeights(w)
    diff = u.values[np.ix_(src, src)] - v.values[np.ix_(tgt, tgt)]
    if parts.size > EXACT_PART_LIMIT:
        return cut_norm_alternating(SignedStepFn(parts, diff))
    w = parts.weights
    return _enumerate_cut_norm((w[:, None] * w[None, :]) * diff)


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
    return _coupled_cut_norm(u, v, *coupling_pieces(coupling))


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


def _polish(c, objective, moves, support_cap):
    """First-improvement sweeps over 2x2 cycle moves.

    Each accepted move walks along a transportation-polytope edge; candidate
    stops are the two endpoints and their midpoints, evaluated through the
    full objective.  Candidates that would spread mass over more cells than
    ``support_cap`` are skipped so every evaluation stays in the exact
    cut-norm regime.
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
                val = objective(cand)
                if val < best - _POLISH_TOL:
                    c = cand
                    best = val
                    improved = True
                    break
        if not improved:
            break
    return c, best


def _coupling_search(u: StepGraphon, v: StepGraphon, objective, start_cost,
                     support_cap, restarts, seed) -> DistanceEstimate:
    """Multi-start cycle-move search for the coupling minimizing ``objective``.

    Starts: a greedy fill along ``start_cost`` (cheapest cells first), the
    northwest corner, the independent product when its support fits
    ``support_cap``, then random greedy vertices from ``[seed, r]``.  Each
    start is polished; ties prefer the lexicographically smallest support,
    and the search stops early once the objective reaches zero.  Starts and
    moves keep the marginals, so candidates go unvalidated: the objective
    gets their pieces ``(w, src, tgt)``, and only the witness is checked.
    """
    rows = u.parts.weights
    cols = v.parts.weights
    m, k = rows.size, cols.size

    def evaluate(c):
        return objective(*_matrix_pieces(c))

    moves = _cycle_moves(m, k)
    best_val = None
    best_c = None
    best_support = None
    used = 0
    for r in range(restarts):
        if r == 0:
            c0 = _greedy_fill(rows, cols, np.argsort(start_cost, axis=None, kind="stable"))
        elif r == 1:
            c0 = _greedy_fill(rows, cols, np.arange(m * k))
        elif r == 2 and m * k <= support_cap:
            c0 = np.outer(rows, cols)
        else:
            c0 = _greedy_fill(rows, cols, np.random.default_rng([seed, r]).permutation(m * k))
        c, val = _polish(c0, evaluate, moves, support_cap)
        used = r + 1
        key = _support_key(c)
        if best_val is None or val < best_val or (val == best_val and key < best_support):
            best_val, best_c, best_support = val, c, key
        if best_val == 0.0:
            break
    witness = OverlapCoupling(best_c, u.parts, v.parts)
    return DistanceEstimate(best_val, witness, used)


def cut_distance_search(u: StepGraphon, v: StepGraphon,
                        restarts=DEFAULT_SEARCH_RESTARTS, seed=0) -> DistanceEstimate:
    """Search couplings for the smallest rearranged cut norm.

    Multi-start local search over the transportation polytope of the two
    part-weight vectors: deterministic starts (profile-matching greedy,
    northwest corner, independent product) plus random greedy vertices, each
    polished by cycle moves accepted when the evaluated cut norm drops.  The
    reported value is always an upper bound witnessed by the returned
    coupling; ties prefer the lexicographically smallest support.  Results
    are deterministic given the seed, identical under swapping u and v (the
    pair is canonically oriented internally), and never worsen as the
    restart budget grows.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    if _canonical_key(v) < _canonical_key(u):
        return cut_distance_search(v, u, restarts=restarts, seed=seed).transposed()
    m, k = u.parts.size, v.parts.size
    # keep every evaluated coupling inside the exact cut-norm regime
    support_cap = min(EXACT_PART_LIMIT, m * k, max(m + k + 2, 12))
    return _coupling_search(u, v, functools.partial(_coupled_cut_norm, u, v),
                            _profile_cost(u, v), support_cap, restarts, seed)


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
        val = _best_cut(bits @ ((A - B[np.ix_(pi, pi)]) * scale))
        if val < best:
            best = val
            if best == 0.0:
                break
    return best
