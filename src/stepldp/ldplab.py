"""Measuring rare-event probabilities of block-model and step-graphon graphs.

The harness computes log probabilities of graph events three ways: exactly
(edge-density events by binomial tails, or by one exponentially shifted FFT
convolution of the pair classes while a layout has fewer than
``FFT_LENGTH_CAP`` = 2^21 free pairs, i.e. up to n = 2048 when every pair
is free; general events by enumerating edge subsets at tiny sizes), by
exponentially tilted importance sampling (density events past the cap), and
by plain Monte Carlo.
``ldp_curve`` sweeps the graph size and reports the decay of
-log P(event) against the speed n^2, which is the quantity the rate
functions predict.

Conventions.  Densities compare with plain float comparisons, no tolerance:
an event "density >= r" holds iff edge_count / (n choose 2) >= r in floats,
and every exact routine reproduces exactly that predicate.  Ball events test
membership by the cut-distance search's value, a certified upper bound while
its witness has at most 22 pieces, so a graph counts only once proved within
eta.  Past 22 pieces (every graph on more than 22 vertices against a one-part
target) the value is the alternating heuristic's, a lower bound on the
witness's cut norm, and such points are not certified lower bounds.
"""

import bisect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import gammaln, logsumexp

from .graphon import (LabeledGraph, StepGraphon, _check_prob_matrix, _check_weights,
                      graph_to_graphon)
from .cutmetric import _ENUM_CHUNK, _seed_list, _subset_bits, cut_distance_search
from .rates import _prepare_alpha, _simplex_grid, rate_J, rate_R, rel_entropy
from .samplers import apportion_counts, sample_block, sample_wrandom

__all__ = [
    "EventSpec",
    "GnpFamily",
    "BlockFamily",
    "WRandomFamily",
    "binomial_tail_logprob",
    "density_logprob_block",
    "exact_event_logprob_block",
    "exact_event_logprob_wrandom",
    "mc_event_logprob",
    "tilted_density_logprob_block",
    "gnp_density_rate",
    "block_density_rate",
    "predicted_rate",
    "check_method",
    "ldp_curve",
]

ENUM_FREE_LIMIT = 21  # at most 2^21 edge subsets are ever enumerated
# the FFT of an exact multi-class density law is at most this long, so a
# layout has at most 2^21 - 1 free pairs (n = 2048 when every pair is free)
# and each transform array stays near 16 MB
FFT_LENGTH_CAP = 1 << 21
# the 3^b 5^c factors of the fast transform lengths ``_fft_length`` picks from
_FFT_FACTORS = tuple(3**b * 5**c for b in range(14) for c in range(10))


# ---------------------------------------------------------------------------
# events


@dataclass(frozen=True)
class EventSpec:
    """A graph event: an edge-density threshold or a cut-metric ball.

    kind is "density-ge", "density-le", or "ball".  Density events carry the
    threshold r; ball events carry a target step graphon and radius eta, and
    hold when the distance search's value is at most eta.  The event never
    over-counts while the witness has at most 22 pieces; past that (every
    graph on more than 22 vertices against a one-part target) the value is
    the alternating heuristic's.
    """

    kind: str
    r: Optional[float] = None
    target: Optional[StepGraphon] = None
    eta: Optional[float] = None
    search_restarts: int = 16

    def __post_init__(self):
        if self.kind in ("density-ge", "density-le"):
            if self.r is None or not (0.0 <= self.r <= 1.0):
                raise ValueError("density events need a threshold r in [0, 1]")
        elif self.kind == "ball":
            if self.target is None or self.eta is None or not self.eta >= 0.0:
                raise ValueError("ball events need a target graphon and eta >= 0")
        else:
            raise ValueError("unknown event kind %r" % (self.kind,))

    @property
    def is_density(self):
        return self.kind in ("density-ge", "density-le")

    def check_density(self, density):
        if self.kind == "density-ge":
            return density >= self.r
        if self.kind == "density-le":
            return density <= self.r
        raise ValueError("not a density event")

    def check_graph(self, graph: LabeledGraph):
        if self.is_density:
            return self.check_density(graph.density())
        d = cut_distance_search(
            graph_to_graphon(graph),
            self.target,
            restarts=self.search_restarts,
            seed=0,
        )
        return d.upper <= self.eta


# ---------------------------------------------------------------------------
# families of graph laws, one per size n


class _BlockLayout:
    """A fixed block layout per n: the block-model law, whose rate is J."""

    def __post_init__(self):
        """Reject block ratios or a probability matrix that define no block model."""
        alpha, p = self.layout()
        _check_prob_matrix(p, _check_weights(alpha, "alpha").size)

    def counts_for(self, n):
        alpha, p = self.layout()
        return apportion_counts(n, alpha), p

    def draw(self, n, seed):
        """One n-vertex sample and its block counts."""
        counts, p = self.counts_for(n)
        return sample_block(counts, p, seed), counts


@dataclass(frozen=True)
class GnpFamily(_BlockLayout):
    """Erdos-Renyi: every pair is an edge with the same probability."""

    p: float

    def layout(self):
        """Block ratios and block probability matrix: one block."""
        return np.array([1.0]), np.array([[float(self.p)]])


@dataclass(frozen=True)
class BlockFamily(_BlockLayout):
    """Block models with counts apportioned from fixed block fractions."""

    alpha: tuple
    p: tuple  # nested tuple, symmetric

    def layout(self):
        """Block ratios and block probability matrix."""
        return np.asarray(self.alpha, dtype=float), np.asarray(self.p, dtype=float)


@dataclass(frozen=True)
class WRandomFamily:
    """Step-graphon random graphs: vertex types drawn from the part weights.

    Its law mixes block laws over the type counts, and its rate is R.
    """

    u: StepGraphon

    def draw(self, n, seed):
        """One n-vertex sample and its per-part vertex counts."""
        return sample_wrandom(n, self.u, seed)


# ---------------------------------------------------------------------------
# exact density laws via binomial tails and one exponentially shifted FFT


def _log_mgf(p, theta):
    """log(1 - p + p e^theta), the log moment generating function of one coin.

    It is exactly 0 at theta = 0, so untilted laws keep their bits.
    """
    if theta == 0.0:
        return 0.0
    a, b = math.log1p(-p), math.log(p) + theta
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


def _tilted_prob(p, theta):
    """The coin p tilted by theta: p e^theta / (1 - p + p e^theta)."""
    return p if theta == 0.0 else math.exp(math.log(p) + theta - _log_mgf(p, theta))


def _binomial_logpmf(m, p, theta=0.0):
    """Vector of log P(Bin(m, p) = k) for k = 0..m, exact at p in {0, 1}.

    A nonzero theta gives the law of the tilted coin ``_tilted_prob(p,
    theta)``, with its log probabilities formed from log p + theta and the
    log moment generating function rather than from the rounded coin.
    """
    k = np.arange(m + 1)
    if p <= 0.0:
        out = np.full(m + 1, -np.inf)
        out[0] = 0.0
        return out
    if p >= 1.0:
        out = np.full(m + 1, -np.inf)
        out[m] = 0.0
        return out
    lm = _log_mgf(p, theta)
    return (
        gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)
        + k * (math.log(p) + theta - lm) + (m - k) * (math.log1p(-p) - lm)
    )


def binomial_tail_logprob(m, p, k_min):
    """log P(Bin(m, p) >= k_min); exact 0.0 when k_min <= 0, -inf past m."""
    if k_min <= 0:
        return 0.0
    if k_min > m:
        return -math.inf
    logpmf = _binomial_logpmf(m, p)
    tail = logpmf[k_min:]
    if np.all(np.isneginf(tail)):
        return -math.inf
    return float(logsumexp(tail))


def _pair_classes(counts, p):
    """Pair probabilities grouped by value: list of (prob, multiplicity).

    Covers all n(n-1)/2 unordered pairs of a block layout: within-block
    pairs of block i have probability p[i,i], cross pairs p[i,j].
    """
    a = np.asarray(counts, dtype=int)
    k = a.size
    classes = {}
    for i in range(k):
        m_ii = a[i] * (a[i] - 1) // 2
        if m_ii:
            classes[float(p[i, i])] = classes.get(float(p[i, i]), 0) + int(m_ii)
        for j in range(i + 1, k):
            m_ij = a[i] * a[j]
            if m_ij:
                classes[float(p[i, j])] = classes.get(float(p[i, j]), 0) + int(m_ij)
    return sorted(classes.items())


def _density_window(counts, p, event: EventSpec):
    """The free pair classes of a block layout and a density event's window.

    Returns ``(free, window)``: ``free`` lists (prob, mult) for the pair
    classes strictly between 0 and 1, and ``window`` is the range [lo, hi]
    of free edge counts S whose graph density passes the event (pairs at
    probability 1 add to every count), or None when no count passes.  The
    window holds exactly the counts e (forced included) with
    ``event.check_density(e / total_pairs)``.
    """
    if not event.is_density:
        raise ValueError("edge-count laws need a density event")
    a = np.asarray(counts, dtype=int)
    n = int(a.sum())
    total_pairs = n * (n - 1) // 2
    if total_pairs == 0:
        raise ValueError("density events need at least two vertices")
    classes = _pair_classes(a, np.asarray(p, dtype=float))
    forced_on = sum(mult for prob, mult in classes if prob >= 1.0)
    free = [(prob, mult) for prob, mult in classes if 0.0 < prob < 1.0]
    span = sum(mult for _, mult in free)

    def passes(s):
        return event.check_density((forced_on + s) / total_pairs)

    # the float density is monotone in the count, so the passing counts are
    # a suffix (>=) or a prefix (<=), and bisection finds where it begins
    if event.kind == "density-ge":
        lo, hi = bisect.bisect_left(range(span + 1), True, key=passes), span
    else:
        lo, hi = 0, bisect.bisect_left(range(span + 1), True, key=lambda s: not passes(s)) - 1
    return free, ((lo, hi) if lo <= hi else None)


def _closed_form_logprob(free, window):
    """log P(S in window) when it needs no convolution, else None.

    Empty and full windows are impossible and certain events; a window
    that is only S = 0 or only S = span fixes every free pair.
    """
    if window is None:
        return -math.inf
    lo, hi = window
    span = sum(mult for _, mult in free)
    if lo == 0 and hi == span:
        return 0.0
    if hi == 0:
        return float(sum(mult * math.log1p(-prob) for prob, mult in free))
    if lo == span:
        return float(sum(mult * math.log(prob) for prob, mult in free))
    return None


def _window_tilt(free, lo, hi):
    """The common theta that moves the mean of S to the point of [lo, hi] nearest it.

    ``free`` lists (prob, weight) pairs, S = sum_c weight_c * Bernoulli
    coins, and 0 <= lo <= hi <= the total weight.  Theta is 0 when the
    untilted mean lies in the window; otherwise the tilted mean sum_c
    weight_c rho_c(theta), which increases in theta, meets the nearer end
    by bisection.  At theta = +-B, with B 40 past the largest |logit prob|,
    every tilted coin is within e^-40 of 1 or 0, so [-B, B] brackets every
    integer end strictly inside (0, total) below 2^53.
    """
    mean = sum(prob * w for prob, w in free)
    if lo <= mean <= hi:
        return 0.0
    target = lo if mean < lo else hi
    bound = max(abs(math.log(prob) - math.log1p(-prob)) for prob, _ in free) + 40.0
    below, above = -bound, bound
    for _ in range(100):
        mid = 0.5 * (below + above)
        if sum(w * _tilted_prob(prob, mid) for prob, w in free) < target:
            below = mid
        else:
            above = mid
    return 0.5 * (below + above)


def _fft_length(span):
    """The least 2^a 3^b 5^c above span: a fast length, at most 25 % longer."""
    return min((1 << (span // d).bit_length()) * d for d in _FFT_FACTORS)


def _pairs_past_fft_cap(counts, p, event: EventSpec):
    """The free pair count when ``density_logprob_block`` refuses a layout, else 0.

    A layout is refused when its transform would be longer than
    ``FFT_LENGTH_CAP``.  Closed forms and a single free class need no
    transform, so only a convolution of two or more classes counts.
    """
    span = _free_pair_count(counts, p)
    if _fft_length(span) <= FFT_LENGTH_CAP:
        return 0
    free, window = _density_window(counts, p, event)
    return span if len(free) > 1 and _closed_form_logprob(free, window) is None else 0


def _fft_window_logprob(free, lo, hi):
    """log P(lo <= S <= hi) for S a sum of independent binomials, by one FFT.

    Every class is tilted by the common theta of ``_window_tilt``, so the
    tilted law of S puts its mass at the window's edge, where the answer
    lives, instead of underflowing there.  The tilted laws are multiplied
    as ``rfft`` spectra and inverted once, and the window maps back by
    log P(S = s) = log P_theta(S = s) - theta s + sum_c mult_c log M_c(theta).
    The identity holds for every theta; theta only decides which masses
    the transform's rounding spares.
    """
    span = sum(mult for _, mult in free)
    length = _fft_length(span)
    if length > FFT_LENGTH_CAP:
        raise ValueError(
            "exact density law: %d free pairs exceed the FFT cap of %d; use tilted or mc"
            % (span, FFT_LENGTH_CAP - 1)
        )
    theta = _window_tilt(free, lo, hi)
    spec = np.ones(length // 2 + 1, dtype=complex)
    for prob, mult in free:
        spec *= np.fft.rfft(np.exp(_binomial_logpmf(mult, prob, theta)), length)
    law = np.maximum(np.fft.irfft(spec, length)[lo : hi + 1], 0.0)
    # anchor the shift at the window's heavy edge, so no weight exceeds 1
    anchor = lo if theta > 0.0 else hi
    mass = float(law @ np.exp(-theta * np.arange(lo - anchor, hi - anchor + 1)))
    log_norm = sum(mult * _log_mgf(prob, theta) for prob, mult in free)
    # a window holding nearly all the mass can round just above 0
    return min(math.log(mass) - theta * anchor + log_norm, 0.0)


def density_logprob_block(counts, p, event: EventSpec):
    """Exact log probability of a density event under a block model.

    The edge count is a sum of independent binomials, one per distinct
    pair probability, and the event holds on a range of counts: precisely
    those whose float density passes the event's comparison.  One free
    class is a binomial tail; more are convolved by ``_fft_window_logprob``,
    which refuses layouts of ``FFT_LENGTH_CAP`` or more free pairs.
    """
    free, window = _density_window(counts, p, event)
    closed = _closed_form_logprob(free, window)
    if closed is not None:
        return closed
    lo, hi = window
    if len(free) == 1:
        prob, mult = free[0]
        return float(logsumexp(_binomial_logpmf(mult, prob)[lo : hi + 1]))
    return _fft_window_logprob(free, lo, hi)


# ---------------------------------------------------------------------------
# exact general events by enumerating edge subsets


def exact_event_logprob_block(counts, p, event: EventSpec):
    """Exact log probability of an event under a block model.

    Density events go through the closed-form edge-count distribution.  Any
    other event enumerates all subsets of the undetermined pairs (those with
    probability strictly between 0 and 1; pairs at 0 or 1 are fixed), so it
    is only usable while the undetermined pair count stays at most 21.
    """
    if event.is_density:
        return density_logprob_block(counts, p, event)
    a = np.asarray(counts, dtype=int)
    n = int(a.sum())
    types = np.repeat(np.arange(a.size), a)
    iu, ju = np.triu_indices(n, k=1)
    q = np.asarray(p, dtype=float)[types[iu], types[ju]]
    forced_on = q >= 1.0
    free = (q > 0.0) & (q < 1.0)
    f = int(free.sum())
    if f > ENUM_FREE_LIMIT:
        raise ValueError(
            "event enumeration needs at most %d undetermined pairs, got %d"
            % (ENUM_FREE_LIMIT, f)
        )
    pairs = np.column_stack((iu, ju))
    free_idx = np.flatnonzero(free)
    logq = np.log(q[free])
    log1mq = np.log1p(-q[free])

    total = -math.inf
    for start in range(0, 1 << f, _ENUM_CHUNK):
        bits = _subset_bits(f, start, min(start + _ENUM_CHUNK, 1 << f))
        logp_masks = bits @ logq + (1 - bits) @ log1mq
        for row in range(bits.shape[0]):
            present = forced_on.copy()
            present[free_idx[bits[row] == 1]] = True
            if event.check_graph(LabeledGraph(n, pairs[present])):
                total = np.logaddexp(total, logp_masks[row])
    # a certain event sums every mask, which can round just above 0
    return min(float(total), 0.0)


def _compositions(n, w):
    """Block counts of n vertices over parts of weights w, none in a part of weight 0."""
    for comp in _simplex_grid(w.size, n):
        a = np.asarray(comp, dtype=int)
        if not np.any((a > 0) & (w <= 0.0)):
            yield a


def exact_event_logprob_wrandom(n, u: StepGraphon, event: EventSpec):
    """Exact log probability under the step-graphon law, by conditioning.

    The vertex-type vector is multinomial; conditioned on the per-part
    counts the graph is exactly the block model with those counts, so the
    law is the multinomial mixture of block laws and the probability is the
    corresponding convex combination, evaluated term by term.
    """
    w = u.parts.weights
    logw = np.where(w > 0.0, np.log(np.where(w > 0.0, w, 1.0)), -np.inf)
    terms = []
    for a in _compositions(n, w):
        log_mult = float(gammaln(n + 1) - gammaln(a + 1).sum() + (a * np.where(a > 0, logw, 0.0)).sum())
        log_cond = exact_event_logprob_block(a, u.values, event)
        if log_cond != -math.inf:
            terms.append(log_mult + log_cond)
    if not terms:
        return -math.inf
    # the mixture of a certain event can round just above 0
    return min(float(logsumexp(np.asarray(terms))), 0.0)


# ---------------------------------------------------------------------------
# sampling estimators


def _estimate(logprob, stderr_log, samples, hits, method):
    return {
        "logprob": logprob,
        "stderrLog": stderr_log,
        "samples": samples,
        "hits": hits,
        "method": method,
    }


def mc_event_logprob(draw, event: EventSpec, num_samples, seed):
    """Plain Monte Carlo: log of the hit fraction over num_samples draws.

    ``draw`` maps a numpy Generator to a LabeledGraph.  The standard error
    of the log estimate uses the delta method, sqrt((1 - f) / (f N)); with
    zero hits the log probability is -inf and the error infinite.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(num_samples):
        if event.check_graph(draw(rng)):
            hits += 1
    if hits == 0:
        return _estimate(-math.inf, math.inf, num_samples, 0, "mc")
    f = hits / num_samples
    stderr = math.sqrt((1.0 - f) / (f * num_samples))
    return _estimate(math.log(f), stderr, num_samples, hits, "mc")


def tilted_density_logprob_block(counts, p, event: EventSpec, num_samples, seed):
    """Importance sampling of a density event by tilting the edge coins.

    Every undetermined pair class is tilted by one common theta, the one
    the exact law uses: it moves the mean edge count to the nearest passing
    count, which makes the event typical under the proposal and is the
    asymptotically efficient choice (Sadowsky & Bucklew 1990).  The
    estimator averages the likelihood ratios over proposal samples that hit;
    the ratio of a sample with S free edges is
    exp(-theta S) prod_c M_c(theta)^mult_c.  Only the per-class edge counts
    matter, so they are drawn directly as binomials (identical in law to
    tilting individual edges).  Events whose exact law is a closed form are
    returned exactly.  Returns the log estimate with a log-scale
    delta-method standard error.
    """
    if num_samples < 1:
        raise ValueError("num_samples must be positive")
    free, window = _density_window(counts, p, event)
    closed = _closed_form_logprob(free, window)
    if closed is not None:
        return _estimate(closed, 0.0, 0, 0, "exact")
    lo, hi = window
    theta = _window_tilt(free, lo, hi)

    rng = np.random.default_rng(seed)
    total = np.zeros(num_samples, dtype=np.int64)
    for prob, mult in free:
        total += rng.binomial(mult, _tilted_prob(prob, theta), size=num_samples)
    logw = sum(mult * _log_mgf(prob, theta) for prob, mult in free) - theta * total
    hit = (total >= lo) & (total <= hi)
    hits = int(hit.sum())
    if hits == 0:
        return _estimate(-math.inf, math.inf, num_samples, 0, "tilted")
    lw = logw[hit]
    l1 = float(logsumexp(lw)) - math.log(num_samples)
    l2 = float(logsumexp(2.0 * lw)) - math.log(num_samples)
    rel_var = max(math.exp(l2 - 2.0 * l1) - 1.0, 0.0)
    stderr = math.sqrt(rel_var / num_samples)
    return _estimate(l1, stderr, num_samples, hits, "tilted")


# ---------------------------------------------------------------------------
# rate predictions and the size sweep


def gnp_density_rate(p, r, kind="density-ge"):
    """Limiting normalized decay rate of a density event: h_p(r) / 2.

    Zero when the event is typical (the threshold sits on the likely side
    of p); the relative-entropy cost halves because there are n^2 / 2
    pairs at speed n^2.
    """
    if kind == "density-ge":
        if r <= p:
            return 0.0
    elif kind == "density-le":
        if r >= p:
            return 0.0
    else:
        raise ValueError("rate predictions cover density events only")
    return 0.5 * rel_entropy(p, r)


def block_density_rate(alpha, p, r, kind="density-ge"):
    """Limiting normalized decay rate of a density event at block ratios alpha.

    The cheapest graphons in the event are constant on each block pair and
    tilt every pair probability by one common theta, which sets the mean
    density to r: the rate is 1/2 sum_ij alpha_i alpha_j h_p_ij(rho_ij(theta)).
    Zero when the event is typical, inf when no graphon supported on p
    reaches r; one pair probability is ``gnp_density_rate``.
    """
    if kind not in ("density-ge", "density-le"):
        raise ValueError("rate predictions cover density events only")
    a = _prepare_alpha(alpha)
    probs, cls = np.unique(_check_prob_matrix(p, a.size), return_inverse=True)
    w = np.bincount(cls.ravel(), weights=np.outer(a, a).ravel(), minlength=probs.size)
    classes = [(float(q), float(wc)) for q, wc in zip(probs, w) if wc > 0.0]
    if len(classes) == 1:
        return gnp_density_rate(classes[0][0], r, kind)
    forced_on = sum(wc for q, wc in classes if q >= 1.0)
    free = [(q, wc) for q, wc in classes if 0.0 < q < 1.0]
    reach = sum(wc for _, wc in free)
    lo, hi = (r - forced_on, reach) if kind == "density-ge" else (0.0, r - forced_on)
    if lo > reach or hi < 0.0:
        return math.inf
    if lo >= reach:  # every free pair is an edge
        rho = [1.0] * len(free)
    elif hi <= 0.0:  # no free pair is an edge
        rho = [0.0] * len(free)
    else:
        theta = _window_tilt(free, max(lo, 0.0), min(hi, reach))
        rho = [_tilted_prob(q, theta) for q, _ in free]
    return 0.5 * sum(wc * rel_entropy(q, x) for (q, wc), x in zip(free, rho))


def predicted_rate(family, event: EventSpec, budget, seed):
    """The rate a curve's normalized values approach, or None if unknown.

    A density event at a fixed block layout gets ``block_density_rate``;
    under random vertex types it has none here.  A ball event gets J of its
    target at the family's block layout, or R, the infimum of J over block
    ratios, when vertex types are random.  Those ratios range over the parts
    of positive weight only: no vertex lands in a part of weight 0.
    """
    if isinstance(family, WRandomFamily):
        if event.is_density:
            return None
        keep = family.u.parts.weights > 0.0
        p = family.u.values[np.ix_(keep, keep)]
        return rate_R(p, event.target, budget=budget, seed=seed).value
    alpha, p = family.layout()
    if event.is_density:
        return block_density_rate(alpha, p, event.r, event.kind)
    return rate_J(alpha, p, event.target, budget=budget, seed=seed).value


# ---------------------------------------------------------------------------
# the size sweep

# auto enumerates a ball event on a block layout up to 2^16 edge subsets
AUTO_ENUM_FREE_PAIRS = 16

# the keys of a curve point, in the order of the curve.csv columns
CURVE_COLUMNS = ("n", "speed", "logprob", "normalized", "stderrLog", "samples", "hits",
                 "method")


def _free_pair_count(counts, p):
    a = np.asarray(counts, dtype=int)
    return sum(mult for prob, mult in _pair_classes(a, p) if 0.0 < prob < 1.0)


def check_method(family, event: EventSpec, method, n_values=()):
    """Reject a method that ``ldp_curve`` cannot run on the family, event and sizes.

    Tilted sampling reweights the coins of one block layout, so it needs a
    fixed layout and a density event.  The exact law of a fixed block
    layout covers density events only (enum reads the same law for them),
    at sizes whose transform fits ``FFT_LENGTH_CAP``; the step-graphon law
    enumerates block counts, so it covers every event.  Enumerating a
    non-density event needs at most ``ENUM_FREE_LIMIT`` free pairs in the
    layout of each size, or in every block-count layout of it under random
    vertex types.  A density needs at least two vertices.
    """
    if method not in ("auto", "exact", "enum", "tilted", "mc"):
        raise ValueError("method must be auto, exact, enum, tilted, or mc")
    random_types = isinstance(family, WRandomFamily)
    if method == "tilted" and random_types:
        raise ValueError("tilted sampling requires a fixed block layout")
    if method == "tilted" and not event.is_density:
        raise ValueError("tilted sampling handles density events only")
    if method == "exact" and not event.is_density and not random_types:
        raise ValueError("method exact covers density events only; "
                         "use enum or mc for ball events")
    if event.is_density and any(n < 2 for n in n_values):
        raise ValueError("density events need at least two vertices, got n=%d"
                         % min(n_values))
    if method in ("exact", "enum") and event.is_density and not random_types:
        for n in n_values:
            span = _pairs_past_fft_cap(*family.counts_for(n), event)
            if span:
                raise ValueError("exact density law: %d free pairs exceed the FFT cap of %d "
                                 "at n=%d; use tilted or mc" % (span, FFT_LENGTH_CAP - 1, n))
    if method in ("exact", "enum") and not event.is_density:
        for n in n_values:
            if random_types:
                layouts = ((a, family.u.values) for a in _compositions(n, family.u.parts.weights))
            else:
                layouts = [family.counts_for(n)]
            for counts, p in layouts:
                free = _free_pair_count(counts, p)
                if free > ENUM_FREE_LIMIT:
                    raise ValueError("event enumeration needs at most %d undetermined pairs, "
                                     "got %d at n=%d" % (ENUM_FREE_LIMIT, free, n))


def ldp_curve(family, event: EventSpec, n_values, method="auto",
              num_samples=10000, seed=0):
    """Sweep graph sizes and measure -log P(event) / speed at each size.

    ``method`` is "auto", "exact", "enum", "tilted", or "mc".  Auto picks
    the exact law for density events whenever its FFT fits
    ``FFT_LENGTH_CAP``, falling back to tilted importance sampling; ball events
    enumerate edge subsets while they fit and switch to Monte Carlo above
    that.  The speed is the squared vertex count.  Each point derives its
    own generator seed, so curves are reproducible end to end.  A point is
    a dict with the keys ``CURVE_COLUMNS``.
    """
    n_values = [int(n) for n in n_values]
    check_method(family, event, method, n_values)
    base = _seed_list(seed)
    points = []
    for idx, n in enumerate(n_values):
        est = _point(family, n, event, method, num_samples, base + [idx])
        # 0.0 - x, unlike -x, maps logprob 0 to +0.0
        normalized = (0.0 - est["logprob"] / (n * n)) if n > 0 else math.nan
        points.append(dict(est, n=n, speed=n * n, normalized=normalized))
    return points


def _point(family, n, event, method, num_samples, seed):
    """Estimate of log P(event) at size n by a method check_method allows."""
    if isinstance(family, WRandomFamily):
        if method == "auto":
            # the exact law sums one block law per composition of n
            m = family.u.parts.size
            affordable = n <= 40 and math.comb(n + m - 1, m - 1) <= 3000
            method = "exact" if event.is_density and affordable else "mc"
        if method != "mc":
            return _estimate(exact_event_logprob_wrandom(n, family.u, event), 0.0, 0, 0, "exact")
    else:
        counts, p = family.counts_for(n)
        if method == "auto" and event.is_density:
            method = "tilted" if _pairs_past_fft_cap(counts, p, event) else "exact"
        elif method == "auto":
            method = "enum" if _free_pair_count(counts, p) <= AUTO_ENUM_FREE_PAIRS else "mc"
        if method in ("exact", "enum"):
            return _estimate(exact_event_logprob_block(counts, p, event), 0.0, 0, 0, method)
        if method == "tilted":
            return tilted_density_logprob_block(counts, p, event, num_samples, seed)
    return mc_event_logprob(lambda rng: family.draw(n, rng)[0], event, num_samples, seed)
