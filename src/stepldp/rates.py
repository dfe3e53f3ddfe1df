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
    _check_weights,
    make_step_graphon,
    overlay_partitions,
)
from .coloured import ColouredStepGraphon
from .cutmetric import _cycle_moves, _derived_rng, _multistart

__all__ = [
    "rel_entropy", "rate_Ip", "rate_Ik", "rate_J", "rate_R", "RateReport",
    "coupling_entropy_objective", "block_entropy_objective",
    "reweight_witness", "ReweightWitness",
]

DEFAULT_RATE_RESTARTS = 64

# Objective decrease below this ends a polish pass.
CONVERGENCE_TOL = 1e-9

# Exhaustive support-pattern enumeration up to this many coupling cells.
SUPPORT_ENUM_LIMIT = 24

# Supply a transport fill may leave unmet on a feasible support.
_HALL_TOL = 1e-12

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

    The one-colour case of ``rate_Ik``: every part gets colour 0 and the
    colour matrix is [[p]], so p is checked as a probability matrix and
    zero-weight cells never contribute, even when their entropy is infinite.
    """
    return rate_Ik([[p]], ColouredStepGraphon(u, np.zeros(u.parts.size, dtype=int)))


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
    c = coupling.matrix
    m, k = c.shape
    p = _check_prob_matrix(p, k)
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


def _transport_fill(w, alpha, allowed, rng=None):
    """A coupling of supplies w to demands alpha on the allowed mask, or None.

    A max-flow by breadth-first augmenting paths on nodes 0..m-1 (rows,
    supplies w) and m..m+k-1 (columns, demands alpha): a row reaches its
    allowed columns, and a column reaches back the rows that send it mass.
    An rng shuffles each node's scan order, which varies the vertex of the
    restricted polytope that comes out.  The supply left unmet is the mask's
    largest Hall deficit, so the mask is certified infeasible, and None
    returned, when it exceeds _HALL_TOL.
    """
    m, k = allowed.shape
    c = np.zeros((m, k))
    need = w.tolist() + alpha.tolist()
    ok = allowed.tolist()
    reach = ([[m + i for i in range(k) if ok[a][i]] for a in range(m)]
             + [[a for a in range(m) if ok[a][i]] for i in range(k)])
    if rng is not None:
        for lst in reach:
            rng.shuffle(lst)

    def cell(v, x):
        """The coupling cell under the edge between nodes v and x."""
        return (v, x - m) if v < m else (x, v - m)

    def augmenting_path():
        """The first augmenting path found, from its column back to its row, or None."""
        queue = [a for a in range(m) if need[a] > 1e-15]
        prev = dict.fromkeys(queue)
        for v in queue:  # also visits what the scan appends: first in, first out
            for x in reach[v]:
                if x in prev or (v >= m and c[x, v - m] <= 0.0):
                    continue
                prev[x] = v
                if x >= m and need[x] > 1e-15:
                    path = [x]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return path
                queue.append(x)
        return None

    for _ in range(4 * (m + k) * (m * k + 1)):
        path = augmenting_path()
        if path is None:
            break
        edges = list(zip(path[1:], path))
        push = min([need[path[-1]], need[path[0]]]
                   + [c[cell(v, x)] for v, x in edges if v >= m])
        for v, x in edges:
            c[cell(v, x)] += push if v < m else -push
        need[path[-1]] -= push
        need[path[0]] -= push
    else:
        raise RuntimeError("transport fill did not finish within its guard")
    return c if float(np.sum(need[:m])) <= _HALL_TOL else None


def _cycle_directions(m, k):
    """J's moves: the 2x2 cycles (a,i)+ (a,j)- (b,i)- (b,j)+, which keep both marginals."""
    cells = [(a * k + i, a * k + j, b * k + i, b * k + j) for a, b, i, j in _cycle_moves(m, k)]
    return np.array(cells, dtype=int).reshape(-1, 4), (1, -1, -1, 1)


def _row_transfers(m, k):
    """R's moves: mass from cell (a,j) to cell (a,i), which keeps the row sums only."""
    cells = [(a * k + i, a * k + j) for a in range(m) for i in range(k) for j in range(i + 1, k)]
    return np.array(cells, dtype=int).reshape(-1, 2), (1, -1)


def _signed_sum(terms, signs):
    """terms[0] +- terms[1] +- ... with the given signs, summed in order."""
    total = terms[0] if signs[0] > 0 else -terms[0]
    for term, s in zip(terms[1:], signs[1:]):
        total = total + term if s > 0 else total - term
    return total


def _support_lines(q, mask, moves):
    """The moves of ``moves`` that stay inside one support, as descent lines.

    ``moves`` is ``(cells, signs)``: each row of ``cells`` lists the flat
    cells a*k + i of one move, which adds theta to its plus cells (sign +1)
    and takes it from its minus cells.  Returns the support's cells, its
    block qs of q (q is +inf outside it), the signs, and per line its cells,
    plus and minus positions in the support, its curvature and its column of
    qs (the gradient's change per unit step), each summed in cell order.
    """
    cells, signs = moves
    flat = mask.reshape(-1)
    sup = np.flatnonzero(flat)
    qs = q[np.ix_(sup, sup)]
    inside = (np.cumsum(flat) - 1)[cells[flat[cells].all(axis=1)]]
    width = len(signs)
    diag = _signed_sum([qs[inside[:, s], inside[:, s]] for s in range(width)], [1] * width)
    pairs = [(s, t) for s in range(width) for t in range(s + 1, width)]
    off = _signed_sum([qs[inside[:, s], inside[:, t]] for s, t in pairs],
                      [signs[s] * signs[t] for s, t in pairs])
    steps = _signed_sum([qs[:, inside[:, s]] for s in range(width)], signs)
    plus = [s for s in range(width) if signs[s] > 0]
    minus = [s for s in range(width) if signs[s] < 0]
    lines = list(zip(inside.tolist(), inside[:, plus].tolist(), inside[:, minus].tolist(),
                     (diag + 2.0 * off).tolist(), steps.T.tolist()))
    return sup, qs, signs, lines


def _quadratic_descent(c, support, rng, walk_steps):
    """Minimize the entropy quadratic with exact line searches.

    Works in coordinates compressed to the support, whose lines come from
    ``_support_lines``.  The objective is F(x) = x^T Q_S x / 2; along each
    line it is an explicit quadratic, so the one-dimensional minimum is
    solved in closed form.  A short random walk first shakes the start; the
    gradient is maintained incrementally.
    """
    m, k = c.shape
    sup, qs, signs, lines = support
    x = c.reshape(-1)[sup].copy()
    grad = (qs @ x).tolist()
    x = x.tolist()

    def apply(plus, minus, step, theta):
        for t in plus:
            v = x[t] + theta
            x[t] = v if v > 0.0 else 0.0
        for t in minus:
            v = x[t] - theta
            x[t] = v if v > 0.0 else 0.0
        grad[:] = [g + theta * d for g, d in zip(grad, step)]

    if walk_steps and lines:
        for _ in range(walk_steps):
            _, plus, minus, _, step = lines[rng.integers(len(lines))]
            lo = -min([x[t] for t in plus])
            hi = min([x[t] for t in minus])
            if hi - lo <= 0.0:
                continue
            apply(plus, minus, step, float(rng.uniform(lo, hi)))

    for _ in range(400):
        drop = 0.0
        for cell, plus, minus, curv, step in lines:
            lo = -min([x[t] for t in plus])
            hi = min([x[t] for t in minus])
            if hi - lo <= 0.0:
                continue
            gd = _signed_sum([grad[t] for t in cell], signs)
            candidates = [lo, hi]
            if curv > 0.0:
                candidates.append(min(hi, max(lo, -gd / curv)))
            best_theta, best_delta = 0.0, 0.0
            for theta in candidates:
                delta = gd * theta + 0.5 * curv * theta * theta
                if delta < best_delta:
                    best_theta, best_delta = theta, delta
            if best_delta < -1e-15:
                apply(plus, minus, step, best_theta)
                drop += -best_delta
        if drop < CONVERGENCE_TOL:
            break
    x = np.array(x)
    full = np.zeros(m * k)
    full[sup] = x
    value = 0.5 * float(x @ qs @ x)
    return full.reshape(m, k), value


def _descend_supports(q, feasible, moves, budget, seed, start):
    """J and R's search: the best of ``budget`` descents over the supports.

    Start r descends on support r modulo their count from ``start(r, mask,
    rng)``, after 2(m + k) random-walk moves if r > 0.  Returns (value,
    coupling matrix, starts used); the value is the cost of the scrubbed
    matrix, as ``OverlapCoupling`` stores it, so it is the witness's.
    """
    if all(mask.sum(axis=1).max() == 1 for mask in feasible):
        # one cell per live part forces each support's coupling: one start each
        budget = min(budget, len(feasible))
    walk = sum(feasible[0].shape)
    lines = {}  # each support's lines, built on its first start

    def run(r, rng):
        idx = r % len(feasible)
        if idx not in lines:
            lines[idx] = _support_lines(q, feasible[idx], moves)
        return _quadratic_descent(start(r, feasible[idx], rng), lines[idx], rng,
                                  walk_steps=0 if r == 0 else 2 * walk)

    _, c, used = _multistart(run(r, _derived_rng(seed, r)) for r in range(budget))
    c = np.maximum(c, 0.0)
    return _coupling_cost(c, q), c, used


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
    """alpha checked and divided by its sum."""
    a = _check_weights(alpha, "alpha")
    return a / float(a.sum())


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

    ``budget`` counts restarts (one per support when all are forced, with
    one cell per part); values never increase as it grows.
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
    self_ok = np.isfinite(np.diag(q)).reshape(m, k)
    allowed = (w[:, None] > 0.0) & (alpha_hat[None, :] > 0.0) & self_ok
    feasible = [mask for mask in _support_masks(q, allowed, seed)
                if _transport_fill(w, alpha_hat, mask) is not None]
    if not feasible:
        return Inf, None, 0

    def start(r, mask, rng):
        return _transport_fill(w, alpha_hat, mask, rng=None if r == 0 else rng)

    return _descend_supports(q, feasible, _cycle_directions(m, k), budget, seed, start)


# ---------------------------------------------------------------------------
# the R functional: one descent over row simplices


def _simplex_grid(k, resolution):
    """All nonnegative integer compositions of ``resolution`` into k parts.

    They come one at a time in lexicographic order, so a walk that stops
    early never builds the rest.
    """
    if k == 1:
        yield (resolution,)
        return
    for head in range(resolution + 1):
        for rest in _simplex_grid(k - 1, resolution - head):
            yield (head,) + rest


def rate_R(p, u: StepGraphon, budget=DEFAULT_RATE_RESTARTS, seed=0) -> RateReport:
    """Minimize the J functional over block fractions on the simplex.

    R = inf over alpha of J(alpha) is one problem: minimize the J objective
    over couplings whose rows sum to u's part weights and whose column sums
    are free.  The feasible set is one simplex per part, and the witness
    alpha is the column sums of the witness coupling.  Finiteness is
    certified as in ``rate_J``: with free columns, a maximal compatible
    support is feasible when every part of positive weight has a cell in
    it, and when none is the value is +infinity, exactly.  A multi-start
    descent then moves mass within rows: start 0 splits each row evenly over
    its support cells, later starts split it at random.  ``budget`` counts
    starts, as in ``rate_J``; values never increase as it grows.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1")
    p = _check_prob_matrix(p)
    w = u.parts.weights
    m, k = w.size, p.shape[0]
    q = _entropy_tensor(p, u.values)
    allowed = (w[:, None] > 0.0) & np.isfinite(np.diag(q)).reshape(m, k)
    feasible = [mask for mask in _support_masks(q, allowed, seed)
                if mask.any(axis=1)[w > 0.0].all()]
    if not feasible:
        return RateReport(Inf, budget_used=0)

    def start(r, mask, rng):
        share = mask if r == 0 else np.where(mask, rng.exponential(size=mask.shape), 0.0)
        total = share.sum(axis=1, keepdims=True)
        return w[:, None] * share / np.where(total > 0.0, total, 1.0)

    value, c, used = _descend_supports(q, feasible, _row_transfers(m, k), budget, seed, start)
    alpha = PartWeights(c.sum(axis=0))
    return RateReport(value, witness_coupling=OverlapCoupling(c, u.parts, alpha),
                      witness_alpha=alpha, budget_used=used)


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
