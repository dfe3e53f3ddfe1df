"""Entropy rate functions for block and step-graphon random graph models.

Everything here reduces to the Bernoulli relative entropy h_p(rho) summed
over cells with the right weights.  The interesting work is the J
functional: the infimum, over rearrangements of a step graphon onto a
prescribed block partition, of the blockwise entropy cost.  Rearrangements
are parameterized by transportation couplings, the cost is a quadratic form
in the coupling, and infinite entries (cells forced impossible by a 0/1
block probability) cut the feasible set down to supports that must be
certified before any numeric search starts.  Reported finite values are
upper bounds on the true infima; +infinity answers are exact whenever the
support enumeration is exhaustive (always, below 24 cells).
"""

import math
from collections import namedtuple

import numpy as np

from .graphon import (
    OverlapCoupling,
    PartWeights,
    StepGraphon,
    _check_prob_matrix,
    make_step_graphon,
    overlay_partitions,
)
from .coloured import ColouredStepGraphon
from .cutmetric import _cycle_moves, _subset_bits

DEFAULT_RATE_RESTARTS = 64

# Objective decrease below this ends a polish pass.
CONVERGENCE_TOL = 1e-9

# Exhaustive support-pattern enumeration up to this many coupling cells.
SUPPORT_ENUM_LIMIT = 24

_SIMPLEX_GRID = 20

Inf = math.inf


def rel_entropy(p: float, rho: float) -> float:
    """Relative entropy of Bernoulli(rho) with respect to Bernoulli(p).

    Natural logarithm; 0 log 0 = 0; against p = 0 (or 1) any other rho costs
    +infinity.  Returns exactly 0.0 at rho == p.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1], got %r" % (p,))
    if not (0.0 <= rho <= 1.0):
        raise ValueError("rho must lie in [0, 1], got %r" % (rho,))
    if p == 0.0:
        return 0.0 if rho == 0.0 else Inf
    if p == 1.0:
        return 0.0 if rho == 1.0 else Inf
    first = rho * math.log(rho / p) if rho > 0.0 else 0.0
    second = (1.0 - rho) * math.log((1.0 - rho) / (1.0 - p)) if rho < 1.0 else 0.0
    return first + second


def _h_array(p: float, rho):
    """Vectorized rel_entropy for scalar p against an array of rho values."""
    rho = np.asarray(rho, dtype=float)
    if p == 0.0:
        return np.where(rho == 0.0, 0.0, Inf)
    if p == 1.0:
        return np.where(rho == 1.0, 0.0, Inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        first = np.where(rho > 0.0, rho * np.log(rho / p), 0.0)
        second = np.where(rho < 1.0, (1.0 - rho) * np.log((1.0 - rho) / (1.0 - p)), 0.0)
    return first + second


def _weighted_entropy_sum(mass, h):
    """Sum of mass * h with the 0 * inf = 0 convention; inf if any live cell is."""
    live = mass > 0.0
    if np.any(live & np.isinf(h)):
        return Inf
    return float(np.where(live, mass * np.where(np.isinf(h), 0.0, h), 0.0).sum())


def rate_Ip(p: float, u: StepGraphon) -> float:
    """Mean relative-entropy cost of a graphon against the constant p.

    Half the mass-weighted sum of h_p over cells; zero-weight cells never
    contribute, even when their entropy value is infinite.
    """
    w = u.parts.weights
    mass = w[:, None] * w[None, :]
    return 0.5 * _weighted_entropy_sum(mass, _h_array(p, u.values))


def _entropy_tensor(p, values):
    """Q[(a,i),(b,j)] = h_{p[i,j]}(values[a,b]) as a flat (m k) x (m k) matrix."""
    m = values.shape[0]
    k = p.shape[0]
    q = np.empty((m, k, m, k))
    for i in range(k):
        for j in range(k):
            q[:, i, :, j] = _h_array(p[i, j], values)
    return q.reshape(m * k, m * k)


def _pairwise_entropy(p, values, colours):
    """h_{p[colours[a], colours[b]]}(values[a, b]) cellwise, read off the tensor."""
    m = values.shape[0]
    k = p.shape[0]
    a = np.arange(m)
    q = _entropy_tensor(p, values).reshape(m, k, m, k)
    return q[a[:, None], colours[:, None], a[None, :], colours[None, :]]


def rate_Ik(p, a: ColouredStepGraphon) -> float:
    """Blockwise entropy cost of a coloured graphon against a colour matrix.

    Each cell is charged with h at the probability selected by its endpoint
    colours; equals the sum over colour blocks of rate_Ip on the flattened
    graphons (the decomposition exercised in the tests).
    """
    p = _check_prob_matrix(p, a.num_colours)
    w = a.graphon.parts.weights
    mass = w[:, None] * w[None, :]
    h = _pairwise_entropy(p, a.graphon.values, a.colours)
    return 0.5 * _weighted_entropy_sum(mass, h)


class RateReport:
    """Value of a rate-function evaluation plus the witnesses behind it."""

    def __init__(self, value, witness_coupling=None, witness_alpha=None, budget_used=0):
        self.value = float(value)
        self.witness_coupling = witness_coupling
        self.witness_alpha = witness_alpha
        self.budget_used = int(budget_used)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def to_json(self) -> dict:
        out = {"value": self.value if self.is_finite else "inf",
               "budgetUsed": self.budget_used}
        if self.witness_coupling is not None:
            out["witnessCoupling"] = [
                [float(x) for x in row] for row in self.witness_coupling.matrix
            ]
        if self.witness_alpha is not None:
            out["witnessAlpha"] = [float(x) for x in self.witness_alpha.weights]
        return out

    def __repr__(self):
        return "RateReport(value=%s, budget=%d)" % (
            "inf" if not self.is_finite else "%.6g" % self.value,
            self.budget_used,
        )


def coupling_entropy_objective(coupling: OverlapCoupling, p, u: StepGraphon) -> float:
    """The J objective at one coupling: half the quadratic entropy form.

    F(C) = 1/2 sum over (part a, column i), (part b, column j) of
    C[a,i] C[b,j] h_{p[i,j]}(u.values[a,b]), with 0 * inf = 0.
    """
    p = _check_prob_matrix(p)
    c = coupling.matrix
    m, k = c.shape
    if p.shape[0] != k:
        raise ValueError("probability matrix does not match coupling columns")
    if u.parts.size != m:
        raise ValueError("graphon parts do not match coupling rows")
    return _coupling_cost(c, _entropy_tensor(p, u.values))


def _coupling_cost(c, q):
    """F(C) for a coupling matrix against its entropy tensor, unvalidated."""
    m, k = c.shape
    mass = np.einsum("ai,bj->aibj", c, c).reshape(m * k, m * k)
    return 0.5 * _weighted_entropy_sum(mass, q)


def block_entropy_objective(u: StepGraphon, beta, p) -> float:
    """Entropy cost of a graphon read against the interval partition beta.

    Overlays u's parts with the consecutive-interval partition of weights
    beta and charges each refined cell with h at the probability of its
    beta-block pair.  This is the aligned (identity-rearrangement) value of
    the J objective.
    """
    beta = beta if isinstance(beta, PartWeights) else PartWeights(beta)
    p = _check_prob_matrix(p, beta.size)
    mass, h, _ = _overlay_entropy(u, beta, p)
    return 0.5 * _weighted_entropy_sum(mass, h)


def _overlay_entropy(u: StepGraphon, beta: PartWeights, p):
    """Cell masses, cell entropies and beta-block labels of u overlaid with beta."""
    w, src, tgt = overlay_partitions(u.parts, beta)
    mass = w[:, None] * w[None, :]
    return mass, _pairwise_entropy(p, u.values[np.ix_(src, src)], tgt), tgt


# ---------------------------------------------------------------------------
# the J functional


def _maximal_cliques(compatible):
    """All maximal cliques of a small compatibility graph (Bron-Kerbosch)."""
    n = compatible.shape[0]
    neighbours = [frozenset(np.nonzero(compatible[v])[0].tolist()) - {v} for v in range(n)]
    cliques = []

    def expand(r, p, x):
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(neighbours[v] & p))
        for v in sorted(p - neighbours[pivot]):
            expand(r | {v}, p & neighbours[v], x & neighbours[v])
            p = p - {v}
            x = x | {v}

    expand(frozenset(), frozenset(range(n)), frozenset())
    return cliques


def _hall_feasible(w, alpha, allowed):
    """Transportation feasibility of supplies w to demands alpha on a mask.

    Checks the cut condition over subsets of the smaller side; infeasibility
    certifies that no coupling confined to ``allowed`` has the marginals.
    """
    m, k = allowed.shape
    if k > m:
        return _hall_feasible(alpha, w, allowed.T)
    tol = 1e-12
    live_rows = w > 0.0
    live_cols = alpha > 0.0
    if np.any(live_rows & ~allowed.any(axis=1)):
        return False
    if np.any(live_cols & ~allowed.any(axis=0)):
        return False
    for t in _subset_bits(k, 0, 1 << k)[1:] > 0.0:
        stuck = allowed[:, ~t].sum(axis=1) == 0
        if w[stuck & live_rows].sum() > alpha[t].sum() + tol:
            return False
    return True


def _transport_fill(w, alpha, allowed, rng=None):
    """A feasible coupling on the allowed mask via augmenting paths.

    Breadth-first augmentation between supplies and demands; the neighbour
    scan order is shuffled when an rng is given, which varies the vertex of
    the restricted polytope that comes out.  Assumes feasibility has been
    certified.
    """
    m, k = allowed.shape
    c = np.zeros((m, k))
    need_row = w.copy()
    need_col = alpha.copy()
    cols_of = [np.nonzero(allowed[a])[0].tolist() for a in range(m)]
    rows_of = [np.nonzero(allowed[:, i])[0].tolist() for i in range(k)]
    if rng is not None:
        for lst in cols_of:
            rng.shuffle(lst)
        for lst in rows_of:
            rng.shuffle(lst)
    guard = 4 * (m + k) * (m * k + 1)
    while guard > 0:
        guard -= 1
        sources = [a for a in range(m) if need_row[a] > 1e-15]
        if not sources:
            break
        # BFS from unfilled rows to unfilled columns through residual edges
        prev = {}
        frontier = [("r", a) for a in sources]
        seen = set(frontier)
        goal = None
        while frontier and goal is None:
            nxt = []
            for node in frontier:
                kind, idx = node
                if kind == "r":
                    for i in cols_of[idx]:
                        cell = ("c", i)
                        if cell in seen:
                            continue
                        prev[cell] = node
                        if need_col[i] > 1e-15:
                            goal = cell
                            break
                        seen.add(cell)
                        nxt.append(cell)
                else:
                    for a in rows_of[idx]:
                        if c[a, idx] <= 0.0:
                            continue
                        cell = ("r", a)
                        if cell in seen:
                            continue
                        prev[cell] = node
                        seen.add(cell)
                        nxt.append(cell)
                if goal is not None:
                    break
            frontier = nxt
        if goal is None:
            break
        # reconstruct path, find bottleneck, push
        path = [goal]
        while path[-1] in prev:
            path.append(prev[path[-1]])
        path.reverse()
        start = path[0][1]
        push = min(need_row[start], need_col[goal[1]])
        for s in range(0, len(path) - 1, 2):
            a = path[s][1]
            i = path[s + 1][1]
            if s + 2 < len(path):
                push = min(push, c[path[s + 2][1], i])
        for s in range(0, len(path) - 1, 2):
            a = path[s][1]
            i = path[s + 1][1]
            c[a, i] += push
            if s + 2 < len(path):
                c[path[s + 2][1], i] -= push
        need_row[start] -= push
        need_col[goal[1]] -= push
    if float(need_row.sum()) > 1e-9:
        raise RuntimeError("transport fill failed on a feasible support")
    return c


def _quadratic_descent(c, q, mask, rng, walk_steps):
    """Minimize the entropy quadratic with exact line searches on cycle moves.

    Works in coordinates compressed to the support (the full matrix q holds
    +inf outside it, which must never enter any product).  The objective is
    F(x) = x^T Q_S x / 2; each 2x2 cycle move whose four cells lie in the
    support is a line in the polytope along which F is an explicit
    quadratic, so the one-dimensional minimum is solved in closed form.  A
    short random walk first shakes the start; the gradient is maintained
    incrementally.
    """
    m, k = c.shape
    sup = np.flatnonzero(mask.reshape(-1))
    pos = {int(cell): t for t, cell in enumerate(sup)}
    qs = q[np.ix_(sup, sup)]
    x = c.reshape(-1)[sup].copy()
    grad = qs @ x

    moves = [(pos[a * k + i], pos[a * k + j], pos[b * k + i], pos[b * k + j])
             for a, b, i, j in _cycle_moves(m, k)
             if mask[a, i] and mask[a, j] and mask[b, i] and mask[b, j]]
    # the curvature of F along each move depends on qs alone
    curvs = [qs[ai, ai] + qs[aj, aj] + qs[bi, bi] + qs[bj, bj]
             + 2.0 * (-qs[ai, aj] - qs[ai, bi] + qs[ai, bj]
                      + qs[aj, bi] - qs[aj, bj] - qs[bi, bj])
             for ai, aj, bi, bj in moves]

    def apply(ai, aj, bi, bj, theta):
        x[ai] += theta
        x[aj] -= theta
        x[bi] -= theta
        x[bj] += theta
        np.maximum(x, 0.0, out=x)
        grad[:] += theta * (qs[:, ai] - qs[:, aj] - qs[:, bi] + qs[:, bj])

    if walk_steps and moves:
        for _ in range(walk_steps):
            ai, aj, bi, bj = moves[rng.integers(len(moves))]
            lo = -min(x[ai], x[bj])
            hi = min(x[aj], x[bi])
            if hi - lo <= 0.0:
                continue
            apply(ai, aj, bi, bj, float(rng.uniform(lo, hi)))

    for _ in range(400):
        drop = 0.0
        for (ai, aj, bi, bj), curv in zip(moves, curvs):
            lo = -min(x[ai], x[bj])
            hi = min(x[aj], x[bi])
            if hi - lo <= 0.0:
                continue
            gd = grad[ai] - grad[aj] - grad[bi] + grad[bj]
            candidates = [lo, hi]
            if curv > 0.0:
                candidates.append(min(hi, max(lo, -gd / curv)))
            best_theta, best_delta = 0.0, 0.0
            for theta in candidates:
                delta = gd * theta + 0.5 * curv * theta * theta
                if delta < best_delta:
                    best_theta, best_delta = theta, delta
            if best_delta < -1e-15:
                apply(ai, aj, bi, bj, best_theta)
                drop += -best_delta
        if drop < CONVERGENCE_TOL:
            break
    full = np.zeros(m * k)
    full[sup] = x
    value = 0.5 * float(x @ qs @ x)
    return full.reshape(m, k), value


def _seed_list(seed):
    """A seed (an integer or a list of them) as a list to extend."""
    return list(seed) if isinstance(seed, (list, tuple)) else [seed]


def _derived_rng(seed, *extra):
    """Deterministic generator from a seed plus distinguishing integers."""
    return np.random.default_rng(_seed_list(seed) + list(extra))


def _support_masks(q, allowed, seed=None):
    """Maximal supports within ``allowed`` with no pairwise-infinite entry of q.

    Up to SUPPORT_ENUM_LIMIT cells every maximal support is listed; beyond
    it only the full allowed pattern, when it is compatible, or else the
    greedy completions of 64 cell orders drawn from ``seed``.
    """
    cells = np.flatnonzero(allowed.reshape(-1))
    if cells.size == 0:
        return []
    compatible = np.isfinite(q[np.ix_(cells, cells)])
    if compatible.all():
        supports = [list(range(cells.size))]
    elif cells.size <= SUPPORT_ENUM_LIMIT:
        supports = [sorted(cl) for cl in _maximal_cliques(compatible)]
    else:
        supports = []
        seen = set()
        rng = _derived_rng(seed, 0x5EED)
        for _ in range(64):
            order = rng.permutation(cells.size)
            chosen = []
            for v in order:
                if all(compatible[v, c] for c in chosen):
                    chosen.append(int(v))
            key = frozenset(chosen)
            if key not in seen:
                seen.add(key)
                supports.append(sorted(chosen))
    masks = []
    for sup in supports:
        mask = np.zeros(allowed.shape, dtype=bool)
        mask.reshape(-1)[cells[sup]] = True
        masks.append(mask)
    return masks


def _prepare_alpha(alpha):
    a = np.asarray(alpha, dtype=float).ravel()
    if a.size == 0 or np.any(a < 0.0) or not np.all(np.isfinite(a)):
        raise ValueError("alpha must be a nonnegative vector")
    total = float(a.sum())
    if total <= 0.0:
        raise ValueError("alpha must not be the zero vector")
    return a / total


def rate_J(alpha, p, u: StepGraphon, budget=DEFAULT_RATE_RESTARTS, seed=0) -> RateReport:
    """Best found blockwise entropy cost of rearranging u onto blocks alpha.

    Phase one certifies finiteness: a coupling has finite cost only if its
    support is pairwise compatible (no two used cells meet an infinite
    entropy entry), so all maximal compatible supports are enumerated and
    tested for transportation feasibility; if none passes, the value is
    +infinity, exactly.  Phase two runs a multi-start quadratic descent over
    each feasible support and reports the best coupling found.  Scaling
    alpha by a positive constant does not change anything: the vector is
    normalized by its sum before any arithmetic.

    ``budget`` counts restarts; values never increase as it grows.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    alpha_hat = _prepare_alpha(alpha)
    p = _check_prob_matrix(p, alpha_hat.size)
    value, c, used = _search_J(u.parts.weights, alpha_hat, _entropy_tensor(p, u.values),
                               budget, seed)
    if c is None:
        return RateReport(Inf, budget_used=0)
    return RateReport(value, OverlapCoupling(c, u.parts, PartWeights(alpha_hat)), budget_used=used)


def _search_J(w, alpha_hat, q, budget, seed):
    """Both phases of ``rate_J`` on checked inputs and their entropy tensor.

    Returns (value, coupling matrix, restarts used); the matrix is None, and
    the value +infinity, when no support is feasible.
    """
    m, k = w.size, alpha_hat.size
    live = (w[:, None] > 0.0) & (alpha_hat[None, :] > 0.0)
    self_ok = np.isfinite(np.diag(q)).reshape(m, k)
    allowed = live & self_ok
    feasible = [mask for mask in _support_masks(q, allowed, seed)
                if _hall_feasible(w, alpha_hat, mask)]
    if not feasible:
        return Inf, None, 0

    best_val = None
    best_c = None
    best_support = None
    used = 0
    for r in range(budget):
        mask = feasible[r % len(feasible)]
        rng = _derived_rng(seed, r)
        c0 = _transport_fill(w, alpha_hat, mask, rng=None if r == 0 else rng)
        c, val = _quadratic_descent(c0, q, mask, rng, walk_steps=0 if r == 0 else 2 * (m + k))
        used = r + 1
        key = tuple(map(tuple, (c > 0.0).tolist()))
        if best_val is None or val < best_val or (val == best_val and key < best_support):
            best_val, best_c, best_support = val, c, key
        if best_val <= 0.0:
            break
    # scrubbed as OverlapCoupling stores it, so the value is the witness's
    best_c = np.maximum(best_c, 0.0)
    return _coupling_cost(best_c, q), best_c, used


# ---------------------------------------------------------------------------
# the R functional: minimize J over the block-fraction simplex


def _simplex_grid(k, resolution):
    """All nonnegative integer compositions of ``resolution`` into k parts."""
    if k == 1:
        return [(resolution,)]
    out = []
    for head in range(resolution + 1):
        for rest in _simplex_grid(k - 1, resolution - head):
            out.append((head,) + rest)
    return out


def _support_candidate_alphas(q, w, k):
    """Block fractions forced by rigid compatible supports.

    When 0/1 entries of p make the support pattern rigid (each part has few
    compatible columns), the only alphas with finite J may form a measure
    zero set that no grid hits; splitting each part's mass equally across
    its compatible columns in every maximal support recovers exactly those
    candidates for the rigid cases.  q is the entropy tensor of k blocks
    against a graphon with part weights w.
    """
    m = w.size
    self_ok = np.isfinite(np.diag(q)).reshape(m, k)
    allowed = (w[:, None] > 0.0) & self_ok
    if np.count_nonzero(allowed) > SUPPORT_ENUM_LIMIT:
        return []
    out = []
    for mask in _support_masks(q, allowed):
        counts = mask.sum(axis=1)
        if np.any((counts == 0) & (w > 0.0)):
            continue
        c = np.where(mask, (w / np.maximum(counts, 1))[:, None], 0.0)
        alpha = c.sum(axis=0)
        if alpha.sum() > 0.0:
            out.append(tuple((alpha / alpha.sum()).tolist()))
    return out


def rate_R(p, u: StepGraphon, budget=DEFAULT_RATE_RESTARTS, seed=0) -> RateReport:
    """Minimize the J functional over block fractions on the simplex.

    A coarse simplex grid (plus candidate fractions read off rigid support
    patterns) is scanned with a small fixed per-point budget, the best point
    is refined by deterministic pairwise mass transfers, and the winner is
    re-evaluated with the full budget.  The reported value is the smallest
    objective seen anywhere, so it never increases with a larger budget.
    p is checked and its entropy tensor built once; every probe reuses it.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    p = _check_prob_matrix(p)
    k = p.shape[0]
    w = u.parts.weights
    q = _entropy_tensor(p, u.values)
    resolution = _SIMPLEX_GRID if k <= 3 else 8
    probe_budget = 4

    grid = [tuple(x / resolution for x in comp) for comp in _simplex_grid(k, resolution)]
    # first occurrences, in order: a candidate's index seeds its probe
    candidates = list(dict.fromkeys(grid + _support_candidate_alphas(q, w, k)))

    evaluations = 0
    seed_base = _seed_list(seed)

    def probe(alpha, idx, restarts):
        nonlocal evaluations
        evaluations += restarts
        value, c, _ = _search_J(w, _prepare_alpha(alpha), q, restarts, seed_base + [idx])
        return value, alpha, c

    # (value, alpha, coupling matrix); the first of equal values wins
    best = min((probe(alpha, idx, probe_budget) for idx, alpha in enumerate(candidates)),
               key=lambda got: got[0])
    if not math.isfinite(best[0]):
        return RateReport(Inf, budget_used=evaluations)

    # deterministic local refinement by pairwise transfers
    step = 1.0 / (2 * resolution)
    alpha = np.asarray(best[1], dtype=float)
    for round_no in range(6):
        improved = False
        for i in range(k):
            for j in range(k):
                if i == j or alpha[j] < step - 1e-15:
                    continue
                cand = alpha.copy()
                cand[i] += step
                cand[j] -= step
                if cand[j] < 0.0:
                    continue
                got = probe(tuple(cand.tolist()), len(candidates) + round_no * k * k + i * k + j,
                            probe_budget)
                if got[0] < best[0] - 1e-12:
                    best = got
                    alpha = cand
                    improved = True
        if not improved:
            step /= 2.0

    final = probe(best[1], 0x0F1A, budget)
    value, alpha, c = final if final[0] <= best[0] else best
    return RateReport(
        value,
        witness_coupling=OverlapCoupling(c, u.parts, PartWeights(_prepare_alpha(alpha))),
        witness_alpha=PartWeights(np.asarray(alpha, dtype=float)),
        budget_used=evaluations,
    )


# ---------------------------------------------------------------------------
# reweighting witness


ReweightWitness = namedtuple("ReweightWitness", ["graphon", "epsilon", "bound"])


def _partition_entropy_terms(u: StepGraphon, beta: PartWeights, p):
    """Per block pair (i, j): the integral of h_{p[i,j]}(u) over the block."""
    k = beta.size
    mass, h, tgt = _overlay_entropy(u, beta, p)
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            block = np.ix_(tgt == i, tgt == j)
            out[i, j] = _weighted_entropy_sum(mass[block], h[block])
    return out


def reweight_witness(gamma, kappa, p, u: StepGraphon) -> ReweightWitness:
    """Pull a graphon from one block-fraction vector to a nearby one.

    The map sends the i-th kappa-interval linearly onto the i-th
    gamma-interval; the pulled-back graphon V keeps u's values but stretches
    each gamma-block's content to kappa proportions.  Epsilon is the
    smallest number with kappa <= (1 + epsilon) gamma entrywise and the
    certified cut-distance bound between u and V is 2 epsilon.  The
    blockwise entropy cost of V on the kappa partition equals the
    kappa/gamma-reweighted cost of u on the gamma partition, which is
    verified before returning.
    """
    g = gamma if isinstance(gamma, PartWeights) else PartWeights(gamma)
    kp = kappa if isinstance(kappa, PartWeights) else PartWeights(kappa)
    if g.size != kp.size:
        raise ValueError("gamma and kappa must have the same length")
    p = _check_prob_matrix(p, g.size)
    gw = g.weights
    kw = kp.weights
    bad = (kw > 0.0) & (gw == 0.0)
    if np.any(bad):
        raise ValueError(
            "kappa is positive on block %d where gamma vanishes" % int(np.flatnonzero(bad)[0])
        )
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(kw > 0.0, kw / np.where(gw > 0.0, gw, 1.0), 0.0)
    epsilon = max(0.0, float(ratios.max()) - 1.0)

    # slice u's parts against the gamma intervals, then rescale each gamma
    # interval's pieces to kappa proportions
    ubounds = np.concatenate([[0.0], np.cumsum(u.parts.weights)])
    gbounds = np.concatenate([[0.0], np.cumsum(gw)])
    weights = []
    src = []
    for i in range(g.size):
        if kw[i] <= 0.0:
            continue
        lo, hi = gbounds[i], gbounds[i + 1]
        scale = ratios[i]
        for a in range(u.parts.size):
            alo, ahi = ubounds[a], ubounds[a + 1]
            seg = min(ahi, hi) - max(alo, lo)
            if seg > 0.0:
                weights.append(seg * scale)
                src.append(a)
    src = np.asarray(src, dtype=int)
    v = make_step_graphon(PartWeights(np.asarray(weights)), u.values[np.ix_(src, src)])

    # the defining identity: entropy cost of V per kappa blocks equals the
    # reweighted per-gamma-block cost of u
    terms = _partition_entropy_terms(u, g, p)
    factor = np.outer(kw, kw) / np.outer(np.where(gw > 0.0, gw, 1.0),
                                         np.where(gw > 0.0, gw, 1.0))
    live = np.outer(kw, kw) > 0.0
    expected = 0.5 * _weighted_entropy_sum(np.where(live, factor, 0.0), terms)
    # V is built from the kappa-positive blocks only; reading it against the
    # dead blocks too would charge the overlay's rounding slivers there
    keep = kw > 0.0
    actual = block_entropy_objective(v, kw[keep], p[np.ix_(keep, keep)])
    if math.isfinite(expected) != math.isfinite(actual) or (
        math.isfinite(expected) and abs(expected - actual) > 1e-8 * (1.0 + abs(expected))
    ):
        raise RuntimeError(
            "reweighting identity failed: expected %r, got %r" % (expected, actual)
        )
    return ReweightWitness(graphon=v, epsilon=epsilon, bound=2.0 * epsilon)
