"""Independent reference computations used by the output checks.

Nothing here imports stepldp: each function recomputes a quantity the
program reports, by a different route, so a wrong answer in the program
cannot be reproduced by the check.
"""

import math

import numpy as np


def pair_classes(counts, p):
    """(probability, number of vertex pairs) for every block pair with pairs."""
    out = []
    k = len(counts)
    for i in range(k):
        for j in range(i, k):
            mult = counts[i] * (counts[i] - 1) // 2 if i == j else counts[i] * counts[j]
            if mult:
                out.append((float(p[i][j]), int(mult)))
    return out


def density_ge_logprob(counts, p, r):
    """log P(edges / (n choose 2) >= r) for a block model, by a tilted FFT.

    The edge count S is a sum of independent binomials.  Every coin is tilted
    by a common theta chosen so that E_theta[S] sits at the threshold count,
    the tilted laws are convolved in linear space with an FFT (the mass that
    matters is then O(1), far from underflow), and the tail is mapped back by
    log P(S = s) = log P_theta(S = s) - theta s + sum_c mult_c log M_c(theta).
    The threshold predicate is the float comparison the program documents.
    """
    from scipy import optimize, signal, special, stats  # only checks pay the import

    classes = pair_classes(counts, p)
    total = sum(mult for _, mult in classes)
    k0 = next((e for e in range(total + 1) if e / total >= r), None)
    if k0 is None:
        return -math.inf
    if k0 == 0:
        return 0.0
    free = [(q, m) for q, m in classes if 0.0 < q < 1.0]
    forced = sum(m for q, m in classes if q >= 1.0)
    span = sum(m for _, m in free)
    target = k0 - forced
    if target > span:
        return -math.inf
    if target <= 0:
        return 0.0

    def tilted_mean(theta):
        return sum(m * special.expit(special.logit(q) + theta) for q, m in free) - target

    theta = 0.0
    if target < span:
        theta = optimize.brentq(tilted_mean, -60.0, 60.0, xtol=1e-14)
    law = np.ones(1)
    log_norm = 0.0
    for q, m in free:
        rho = special.expit(special.logit(q) + theta)
        law = signal.fftconvolve(law, stats.binom.pmf(np.arange(m + 1), m, rho))
        log_norm += m * np.logaddexp(math.log1p(-q), math.log(q) + theta)
    law = np.clip(law[target:], 0.0, None)
    s = np.arange(target, span + 1)
    with np.errstate(divide="ignore"):
        terms = np.log(law) - theta * s
    return float(special.logsumexp(terms) + log_norm)


def rel_entropy(p, rho):
    """Bernoulli relative entropy h_p(rho), elementwise over rho; inf off support."""
    rho = np.asarray(rho, dtype=float)
    if p <= 0.0 or p >= 1.0:
        return np.where(rho == p, 0.0, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        a = np.where(rho > 0.0, rho * np.log(rho / p), 0.0)
        b = np.where(rho < 1.0, (1.0 - rho) * np.log((1.0 - rho) / (1.0 - p)), 0.0)
    return a + b


def coupling_entropy(coupling, p, values):
    """1/2 sum over (a,i),(b,j) of C[a,i] C[b,j] h_{p[i,j]}(u[a,b]), 0 * inf = 0."""
    c = np.asarray(coupling, dtype=float)
    p = np.asarray(p, dtype=float)
    total = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[0]):
            mass = np.outer(c[:, i], c[:, j])
            h = rel_entropy(p[i, j], values)
            total += float((mass * np.where(mass > 0.0, h, 0.0)).sum())
    return 0.5 * total


def cut_norm(weights, values):
    """max over part subsets S, T of |sum_{S x T} w_s w_t f(s, t)|, by brute force."""
    w = np.asarray(weights, dtype=float)
    mass = np.outer(w, w) * np.asarray(values, dtype=float)
    m = w.size
    best = 0.0
    for mask in range(1 << m):
        rows = [i for i in range(m) if mask >> i & 1]
        if not rows:
            continue
        col = mass[rows].sum(axis=0)
        best = max(best, float(col[col > 0.0].sum()), float(-col[col < 0.0].sum()))
    return best


def coupled_cut_norm(coupling, u_values, v_values):
    """Cut norm of u rearranged along a coupling minus v, on the coupled pieces."""
    c = np.asarray(coupling, dtype=float)
    tgt, src = np.nonzero(c.T > 0.0)  # pieces ordered by target, then source
    w = c[src, tgt]
    u = np.asarray(u_values)[np.ix_(src, src)]
    v = np.asarray(v_values)[np.ix_(tgt, tgt)]
    return cut_norm(w, u - v)
