"""Measuring rare-event probabilities of block-model and step-graphon graphs.

The harness computes log probabilities of graph events three ways: exactly
(edge-density events by a binomial tail while one pair probability has
fewer than ``BINOMIAL_LENGTH_CAP`` = 2^26 free pairs, or by one
exponentially shifted FFT convolution of the pair classes while a layout
has fewer than ``FFT_LENGTH_CAP`` = 2^21 free pairs, i.e. up to n = 2048
when every pair is free; general events by enumerating edge subsets at tiny
sizes), by exponentially tilted importance sampling (density events past
the caps), and by plain Monte Carlo.
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

Only the exact binomial and density laws, the w-random exact law and the
tilted estimator use ``scipy.special``, and each imports it where it needs
it: a process that evaluates none of them never loads scipy.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphon import (LabeledGraph, StepGraphon, _check_prob_matrix, _check_vertex_count,
                      _check_weights, graph_to_graphon)
from .cutmetric import _ENUM_CHUNK, _seed_list, _subset_bits, _within
from .rates import _prepare_alpha, _simplex_grid, rate_J, rate_R, rel_entropy
from .samplers import _check_counts, apportion_counts, sample_block, sample_wrandom

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
# ball events are enumerated on at most this many vertices: one check of a
# 200-vertex graph takes about 1.3 s, growing about as n^2
ENUM_VERTEX_LIMIT = 200
# Monte Carlo samples ball events on at most this many vertices: one check
# takes about 3.3 s at n = 400 and 18 s at n = 800 (peak RSS 83 and 219 MB),
# so a 16-sample point stays within a minute
MC_VERTEX_LIMIT = 400
# the FFT of an exact multi-class density law is at most this long, so a
# layout has at most 2^21 - 1 free pairs (n = 2048 when every pair is free)
# and each transform array stays near 16 MB
FFT_LENGTH_CAP = 1 << 21
# the binomial law of a single free pair class has at most this many
# entries, so a layout of one pair probability has at most 2^26 - 1 free
# pairs (n = 11585 when every pair is free), about 2 GB of working arrays
BINOMIAL_LENGTH_CAP = 1 << 26
# the 3^b 5^c factors of the fast transform lengths ``_fft_length`` picks from
_FFT_FACTORS = tuple(3**b * 5**c for b in range(14) for c in range(10))
# ``_fft_length``'s memo, int span -> int length, cleared when it reaches 4096 spans
_FFT_LENGTHS = {}


# ---------------------------------------------------------------------------
# events


def _check_threshold(r):
    """Raise unless r is a density threshold in [0, 1]."""
    if r is None or not 0.0 <= r <= 1.0:
        raise ValueError("density events need a threshold r in [0, 1]")


@dataclass(frozen=True)
class EventSpec:
    """A graph event: an edge-density threshold or a cut-metric ball.

    kind is "density-ge", "density-le", or "ball".  Density events carry the
    threshold r; ball events carry a target step graphon and radius eta, and
    hold when the distance search's value, from 16 restarts at seed 0, is at
    most eta.  The event never over-counts while the witness has at most 22
    pieces; past that (every graph on more than 22 vertices against a
    one-part target) the value is the alternating heuristic's.

    ``check_graph`` decides that rule without computing the whole value
    (``cutmetric._within``), and agrees with it on every graph.  A miss is
    certified before any search: by the degree bound when both sides have
    several parts, and by the forced coupling's screen bound when one side
    has one part.  Past 22 pieces the ascent stops at its first cut above
    eta, and the search stops at its first walk at or below eta.
    """

    kind: str
    r: Optional[float] = None
    target: Optional[StepGraphon] = None
    eta: Optional[float] = None

    def __post_init__(self):
        if self.kind in ("density-ge", "density-le"):
            _check_threshold(self.r)
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
        return _within(graph_to_graphon(graph), self.target, self.eta, restarts=16, seed=0)


# ---------------------------------------------------------------------------
# families of graph laws, one per size n


@dataclass(frozen=True)
class BlockFamily:
    """Block models with counts apportioned from fixed block fractions.

    A fixed block layout per n: the block-model law, whose rate is J.
    ``GnpFamily(p)`` is its one-block case.
    """

    alpha: tuple
    p: tuple  # nested tuple, symmetric
    instead = "tilted or mc"  # the methods to run where the exact law is refused

    def __post_init__(self):
        """Reject block ratios or a probability matrix that define no block model."""
        alpha, p = self.layout()
        _check_prob_matrix(p, _check_weights(alpha, "alpha").size)

    @property
    def values(self):
        """The block probability matrix."""
        return np.asarray(self.p, dtype=float)

    def layout(self):
        """Block ratios and block probability matrix."""
        return np.asarray(self.alpha, dtype=float), self.values

    def counts_for(self, n):
        alpha, p = self.layout()
        return apportion_counts(n, alpha), p

    def layouts(self, n):
        """The block counts of n vertices, one array per layout: this family's one."""
        return [self.counts_for(n)[0]]

    def draw(self, n, seed):
        """One n-vertex sample and its block counts."""
        counts, p = self.counts_for(n)
        return sample_block(counts, p, seed), counts


def GnpFamily(p):
    """Erdos-Renyi: every pair is an edge with probability p, the one-block family."""
    return BlockFamily((1.0,), ((p,),))


@dataclass(frozen=True)
class WRandomFamily:
    """Step-graphon random graphs: vertex types drawn from the part weights.

    Its law mixes block laws over the type counts, and its rate is R.
    """

    u: StepGraphon
    instead = "mc"  # where the exact law is refused: tilted sampling needs a fixed layout

    @property
    def values(self):
        """The part value matrix."""
        return self.u.values

    def draw(self, n, seed):
        """One n-vertex sample and its per-part vertex counts."""
        return sample_wrandom(n, self.u, seed)

    def layouts(self, n):
        """The block counts of n vertices, one array per layout: each composition of n."""
        return _compositions(n, self.u.parts.weights)

    def layout_logweight(self, counts):
        """log P(the vertex types fall in these block counts): the multinomial weight."""
        from scipy.special import gammaln

        n = int(counts.sum())
        w = self.u.parts.weights
        return float(gammaln(n + 1) - gammaln(counts + 1).sum()
                     + (counts * np.log(np.where(counts > 0, w, 1.0))).sum())


# ---------------------------------------------------------------------------
# exact density laws via binomial tails and one exponentially shifted FFT


def _coin_logs(p):
    """log p and log(1 - p) of a coin strictly inside (0, 1): all a tilt of it reads."""
    return math.log(p), math.log1p(-p)


def _log_mgf(logs, theta):
    """log(1 - p + p e^theta), the log moment generating function of one coin.

    ``logs`` is the coin's ``_coin_logs``.  It is exactly 0 at theta = 0, so
    untilted laws keep their bits.
    """
    if theta == 0.0:
        return 0.0
    lq, b = logs[1], logs[0] + theta
    return max(lq, b) + math.log1p(math.exp(-abs(lq - b)))


def _tilted_prob(p, logs, theta):
    """The coin p tilted by theta: p e^theta / (1 - p + p e^theta)."""
    return p if theta == 0.0 else math.exp(logs[0] + theta - _log_mgf(logs, theta))


def _log_norm(free, theta):
    """sum_c mult_c log M_c(theta): the log normaliser of every free class tilted by theta."""
    return sum(mult * _log_mgf(_coin_logs(prob), theta) for prob, mult in free)


def _log_choose(m, k):
    """log C(m, k) at each count of the int array k."""
    from scipy.special import gammaln

    return gammaln(m + 1) - gammaln(k + 1) - gammaln(m - k + 1)


def _binomial_logpmf(m, p, theta=0.0, k=None, log_choose=None):
    """Vector of log P(Bin(m, p) = k) over the counts k, 0..m by default; exact at p in {0, 1}.

    A nonzero theta gives the law of the tilted coin ``_tilted_prob(p, logs,
    theta)``, with its log probabilities formed from log p + theta and the
    log moment generating function rather than from the rounded coin.
    ``log_choose`` is ``_log_choose(m, k)``, passed by callers that share it
    between classes of one multiplicity.
    """
    k = np.arange(m + 1) if k is None else k
    if p <= 0.0 or p >= 1.0:
        return np.where(k == (0 if p <= 0.0 else m), 0.0, -np.inf)
    logs = _coin_logs(p)
    lm = _log_mgf(logs, theta)
    if log_choose is None:
        log_choose = _log_choose(m, k)
    return log_choose + k * (logs[0] + theta - lm) + (m - k) * (logs[1] - lm)


def _pair_classes(counts, p):
    """Pair probabilities grouped by value: list of (prob, multiplicity).

    Covers all n(n-1)/2 unordered pairs of a block layout: within-block
    pairs of block i have probability p[i,i], cross pairs p[i,j].  The
    multiplicities are Python ints, since n(n-1) passes 2^63 at n = 2^32.
    """
    a = [int(x) for x in counts]
    k = len(a)
    classes = {}
    for i in range(k):
        m_ii = a[i] * (a[i] - 1) // 2
        if m_ii:
            classes[float(p[i, i])] = classes.get(float(p[i, i]), 0) + m_ii
        for j in range(i + 1, k):
            m_ij = a[i] * a[j]
            if m_ij:
                classes[float(p[i, j])] = classes.get(float(p[i, j]), 0) + m_ij
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

    def first(pred):
        """The least s in 0..span with pred(s), else span + 1, by bisection."""
        # bisect.bisect_left's steps, but on Python ints: span can pass 2^63
        lo, hi = 0, span + 1
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if pred(mid) else (mid + 1, hi)
        return lo

    # the float density is monotone in the count, so the passing counts are
    # a suffix (>=) or a prefix (<=), and bisection finds where it begins
    if event.kind == "density-ge":
        lo, hi = first(passes), span
    else:
        lo, hi = 0, first(lambda s: not passes(s)) - 1
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
    coins = [(prob, w, _coin_logs(prob)) for prob, w in free]
    bound = max(abs(lp - lq) for _, _, (lp, lq) in coins) + 40.0
    below, above = -bound, bound
    # each step is a function of (below, above) alone, so the first step
    # that changes neither is a fixed point and every later one would repeat it
    for _ in range(100):
        mid = 0.5 * (below + above)
        if sum(w * _tilted_prob(prob, logs, mid) for prob, w, logs in coins) < target:
            step = mid, above
        else:
            step = below, mid
        if step == (below, above):
            break
        below, above = step
    return 0.5 * (below + above)


def _fft_length(span):
    """The least 2^a 3^b 5^c above span: a fast length, at most 25 % longer."""
    length = _FFT_LENGTHS.get(span)
    if length is None:
        if len(_FFT_LENGTHS) >= 4096:
            _FFT_LENGTHS.clear()
        length = _FFT_LENGTHS[span] = min((1 << (span // d).bit_length()) * d
                                          for d in _FFT_FACTORS)
    return length


def _exact_law_refusal(free, window):
    """Why ``density_logprob_block`` refuses these free classes, or None.

    Two or more classes are refused when their transform would be longer
    than ``FFT_LENGTH_CAP``, and one class when its law would have
    ``BINOMIAL_LENGTH_CAP`` or more entries.  Closed forms build no array.
    """
    if _closed_form_logprob(free, window) is not None:
        return None
    span = sum(mult for _, mult in free)
    if len(free) > 1 and _fft_length(span) > FFT_LENGTH_CAP:
        return "%d free pairs exceed the FFT cap of %d" % (span, FFT_LENGTH_CAP - 1)
    if len(free) == 1 and span >= BINOMIAL_LENGTH_CAP:
        return "%d free pairs exceed the binomial cap of %d" % (span, BINOMIAL_LENGTH_CAP - 1)
    return None


def _check_exact_law(free, window, at="", instead=BlockFamily.instead):
    """Raise the refusal of ``_exact_law_refusal``; ``at`` names the size after
    it, and ``instead`` the methods that would run."""
    refusal = _exact_law_refusal(free, window)
    if refusal:
        raise ValueError("exact density law: %s%s; use %s" % (refusal, at, instead))


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
    length = _fft_length(sum(mult for _, mult in free))
    theta = _window_tilt(free, lo, hi)
    spec = np.ones(length // 2 + 1, dtype=complex)
    log_chooses = {}  # one table per distinct multiplicity, for this call only
    for prob, mult in free:
        if mult not in log_chooses:
            log_chooses[mult] = _log_choose(mult, np.arange(mult + 1))
        pmf = _binomial_logpmf(mult, prob, theta, log_choose=log_chooses[mult])
        spec *= np.fft.rfft(np.exp(pmf), length)
    law = np.maximum(np.fft.irfft(spec, length)[lo : hi + 1], 0.0)
    # anchor the shift at the window's heavy edge, so no weight exceeds 1
    anchor = lo if theta > 0.0 else hi
    mass = float(law @ np.exp(-theta * np.arange(lo - anchor, hi - anchor + 1)))
    # a window holding nearly all the mass can round just above 0
    return min(math.log(mass) - theta * anchor + _log_norm(free, theta), 0.0)


def _check_block_law(counts, p):
    """Block counts and their probability matrix, checked as ``sample_block`` checks them."""
    a = _check_counts(counts)
    return a, _check_prob_matrix(p, a.size)


def _window_logprob(free, window):
    """log P(S in window) for S the free edge count of ``free``'s classes.

    A closed form where ``_closed_form_logprob`` has one, else the binomial
    law of one class summed over the window, else ``_fft_window_logprob``.
    Refusals are the caller's: this law has no cap of its own.
    """
    closed = _closed_form_logprob(free, window)
    if closed is not None:
        return closed
    lo, hi = window
    if len(free) == 1:
        from scipy.special import logsumexp

        prob, mult = free[0]
        # a window holding nearly all the mass can round just above 0
        return min(float(logsumexp(_binomial_logpmf(mult, prob, k=np.arange(lo, hi + 1)))), 0.0)
    return _fft_window_logprob(free, lo, hi)


def density_logprob_block(counts, p, event: EventSpec):
    """Exact log probability of a density event under a block model.

    The edge count is a sum of independent binomials, one per distinct
    pair probability, and the event holds on a range of counts: precisely
    those whose float density passes the event's comparison.  One free
    class is a binomial tail; more are convolved by ``_fft_window_logprob``.
    Layouts whose law would need arrays past ``FFT_LENGTH_CAP`` or
    ``BINOMIAL_LENGTH_CAP`` are refused (``_exact_law_refusal``).
    """
    free, window = _density_window(*_check_block_law(counts, p), event)
    _check_exact_law(free, window)
    return _window_logprob(free, window)


def binomial_tail_logprob(m, p, k_min):
    """log P(Bin(m, p) >= k_min); exact 0.0 when k_min <= 0, -inf past m.

    The window law of one class of m trials: at p = 1 all of them are
    forced on, at p = 0 none is, and otherwise they are free.
    """
    q = float(_check_prob_matrix([[p]])[0, 0])
    free = [(q, m)] if 0.0 < q < 1.0 else []
    span = m if free else 0
    lo = max(k_min - (m if q >= 1.0 else 0), 0)  # forced trials count toward k_min
    return _window_logprob(free, (lo, span) if lo <= span else None)


# ---------------------------------------------------------------------------
# exact general events by enumerating edge subsets


def exact_event_logprob_block(counts, p, event: EventSpec):
    """Exact log probability of an event under a block model.

    Density events go through the closed-form edge-count distribution.  Any
    other event enumerates all subsets of the undetermined pairs (those with
    probability strictly between 0 and 1; pairs at 0 or 1 are fixed), so it
    is only usable while the undetermined pair count stays at most 21 and
    the graphs have at most ``ENUM_VERTEX_LIMIT`` vertices.
    """
    if event.is_density:
        return density_logprob_block(counts, p, event)
    a, p = _check_block_law(counts, p)
    f = _check_enumerable(a, p)
    n = int(a.sum())
    types = np.repeat(np.arange(a.size), a)
    iu, ju = np.triu_indices(n, k=1)
    q = p[types[iu], types[ju]]
    forced_on = q >= 1.0
    free = (q > 0.0) & (q < 1.0)
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


def _free_pair_count(counts, p):
    a = np.asarray(counts, dtype=int)
    return sum(mult for prob, mult in _pair_classes(a, p) if 0.0 < prob < 1.0)


def _check_enumerable(counts, p, at=""):
    """The undetermined pair count of a block layout that enumeration takes.

    Raises past ``ENUM_FREE_LIMIT`` undetermined pairs, then past
    ``ENUM_VERTEX_LIMIT`` vertices; ``at`` names the size after the pair count.
    """
    f = _free_pair_count(counts, p)
    if f > ENUM_FREE_LIMIT:
        raise ValueError("event enumeration needs at most %d undetermined pairs, got %d%s"
                         % (ENUM_FREE_LIMIT, f, at))
    n = int(np.sum(counts))
    if n > ENUM_VERTEX_LIMIT:
        raise ValueError("event enumeration checks graphs of at most %d vertices, got n=%d"
                         % (ENUM_VERTEX_LIMIT, n))
    return f


def _compositions(n, w):
    """Block counts of n vertices over parts of weights w, none in a part of weight 0."""
    for comp in _simplex_grid(w.size, n):
        a = np.asarray(comp, dtype=int)
        if not np.any((a > 0) & (w <= 0.0)):
            yield a


def _refusable(family, n, event):
    """False when no block layout of n can be refused, so none needs a check.

    A layout's free pairs are among all n(n-1)/2 and ``_fft_length`` never
    decreases, so no layout is refused while all the pairs would pass.  A
    layout with at most one free pair class (every layout, when the family
    has at most one value strictly between 0 and 1) is refused only from
    ``BINOMIAL_LENGTH_CAP`` free pairs on.
    """
    pairs = n * (n - 1) // 2
    if not event.is_density:
        return pairs > ENUM_FREE_LIMIT or n > ENUM_VERTEX_LIMIT
    if _fft_length(pairs) <= FFT_LENGTH_CAP:
        return False
    v = family.values
    return pairs >= BINOMIAL_LENGTH_CAP or np.unique(v[(v > 0.0) & (v < 1.0)]).size > 1


def _check_layouts(family, n, event, at=""):
    """Raise the first refusal among the block laws of the family's layouts of n.

    A density layout is held to the exact law's caps, with the family's
    ``instead`` as advice, and a ball layout to enumeration's; ``at`` names
    the size after the count.  The walk reads block counts only, and runs
    only where ``_refusable`` admits a refusal.
    """
    if not _refusable(family, n, event):
        return
    p = family.values
    for counts in family.layouts(n):
        if event.is_density:
            _check_exact_law(*_density_window(counts, p, event), at, family.instead)
        else:
            _check_enumerable(counts, p, at)


def _mixture_logprob(family, n, event):
    """Exact log P(event) at size n: the block laws of the family's layouts, mixed.

    Conditioned on its per-part vertex counts a graph is exactly the block
    model of those counts, so the law is the mixture of the layouts' laws
    ``exact_event_logprob_block`` under their multinomial weights
    (``layout_logweight``).  A family of one layout (a block family, or a
    graphon with one part of positive weight) is certain to take it, and
    that layout's law is returned unchanged.  Every layout is checked by
    ``_check_layouts`` before any law is built.
    """
    _check_layouts(family, n, event)
    p, layouts = family.values, list(family.layouts(n))
    if len(layouts) == 1:
        return exact_event_logprob_block(layouts[0], p, event)
    from scipy.special import logsumexp

    terms = []
    for counts in layouts:
        law = exact_event_logprob_block(counts, p, event)
        if law != -math.inf:
            terms.append(family.layout_logweight(counts) + law)
    if not terms:
        return -math.inf
    # the mixture of a certain event can round just above 0
    return min(float(logsumexp(np.asarray(terms))), 0.0)


def exact_event_logprob_wrandom(n, u: StepGraphon, event: EventSpec):
    """Exact log probability under the step-graphon law, by conditioning.

    The vertex-type vector is multinomial, so the law is the mixture of
    block laws over the block counts of ``WRandomFamily(u)``.  Past the
    block law's caps it is refused, with the advice to sample by mc (tilted
    sampling needs a fixed layout), before any layout's law is built.
    """
    return _mixture_logprob(WRandomFamily(u), n, event)


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


def _check_tilt_span(free, window):
    """Raise unless tilted sampling can draw the law's free edge counts as int64.

    A law with a closed form is returned exactly and draws nothing.
    """
    if _closed_form_logprob(free, window) is None and sum(mult for _, mult in free) >= 2 ** 63:
        raise ValueError("tilted sampling needs fewer than 2^63 free pairs")


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
    free, window = _density_window(*_check_block_law(counts, p), event)
    closed = _closed_form_logprob(free, window)
    if closed is not None:
        return _estimate(closed, 0.0, 0, 0, "exact")
    _check_tilt_span(free, window)
    lo, hi = window
    theta = _window_tilt(free, lo, hi)

    rng = np.random.default_rng(seed)
    total = np.zeros(num_samples, dtype=np.int64)
    for prob, mult in free:
        total += rng.binomial(mult, _tilted_prob(prob, _coin_logs(prob), theta), size=num_samples)
    logw = _log_norm(free, theta) - theta * total
    hit = (total >= lo) & (total <= hi)
    hits = int(hit.sum())
    if hits == 0:
        return _estimate(-math.inf, math.inf, num_samples, 0, "tilted")
    from scipy.special import logsumexp

    l1 = float(logsumexp(logw[hit])) - math.log(num_samples)
    # The relative variance N sum w^2 / (sum w)^2 - 1 does not depend on the
    # common factor of the weights, so take them relative to one hit: exact
    # up to one product, where the log weights themselves may be so large
    # (about -1.9e17 at n = 2^32) that log N is below one ulp of them.
    rel = -theta * (total[hit] - total[hit].min())
    log_ratio = float(logsumexp(2.0 * rel)) - 2.0 * float(logsumexp(rel)) + math.log(num_samples)
    rel_var = max(math.exp(log_ratio) - 1.0, 0.0)
    stderr = math.sqrt(rel_var / num_samples)
    return _estimate(l1, stderr, num_samples, hits, "tilted")


# ---------------------------------------------------------------------------
# rate predictions and the size sweep


def gnp_density_rate(p, r, kind="density-ge"):
    """Limiting normalized decay rate of a density event: h_p(r) / 2.

    The one-block case of ``block_density_rate``.
    """
    return block_density_rate([1.0], [[p]], r, kind)


def block_density_rate(alpha, p, r, kind="density-ge"):
    """Limiting normalized decay rate of a density event at block ratios alpha.

    The cheapest graphons in the event are constant on each block pair and
    tilt every pair probability by one common theta, which sets the mean
    density to r: the rate is 1/2 sum_ij alpha_i alpha_j h_p_ij(rho_ij(theta)).
    Zero when the event is typical (the threshold sits on the likely side of
    the mean), inf when no graphon supported on p reaches r.  With one pair
    probability q it is h_q(r) / 2: the relative-entropy cost halves because
    there are n^2 / 2 pairs at speed n^2.
    """
    if kind not in ("density-ge", "density-le"):
        raise ValueError("rate predictions cover density events only")
    _check_threshold(r)
    a = _prepare_alpha(alpha)
    probs, cls = np.unique(_check_prob_matrix(p, a.size), return_inverse=True)
    w = np.bincount(cls.ravel(), weights=np.outer(a, a).ravel(), minlength=probs.size)
    classes = [(float(q), float(wc)) for q, wc in zip(probs, w) if wc > 0.0]
    if len(classes) == 1:
        q = classes[0][0]
        if (r <= q) if kind == "density-ge" else (r >= q):
            return 0.0
        return 0.5 * rel_entropy(q, r)
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
        rho = [_tilted_prob(q, _coin_logs(q), theta) for q, _ in free]
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

# auto enumerates a ball event on a block layout up to 2^16 edge subsets and
# ENUM_VERTEX_LIMIT vertices
AUTO_ENUM_FREE_PAIRS = 16

# the keys of a curve point, in the order of the curve.csv columns
CURVE_COLUMNS = ("n", "speed", "logprob", "normalized", "stderrLog", "samples", "hits",
                 "method")


def check_method(family, event: EventSpec, method, n_values=()):
    """The method ``ldp_curve`` runs at each size; raises what it cannot run.

    Tilted sampling reweights the coins of one block layout, so it needs a
    fixed layout and a density event.  The exact law of a fixed block
    layout covers density events only (enum reads the same law for them);
    the step-graphon law enumerates block counts, so it covers every event.
    A density needs at least two vertices.  Then ``_point_method`` picks
    and checks the method of every size, in order, so a curve is refused
    before any of its points is computed.
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
    return [_point_method(family, event, method, n) for n in n_values]


def _point_method(family, event, method, n):
    """The method a point of size n runs: ``method``, or auto's pick.

    Raises the ValueError the point would hit, by the guard of the code
    that would hit it.  On a fixed block layout auto takes the exact law of
    a density event whenever ``_exact_law_refusal`` admits it, else tilted
    sampling, and enumerates a ball event on at most ``ENUM_VERTEX_LIMIT``
    vertices and ``AUTO_ENUM_FREE_PAIRS`` free pairs, else samples it.
    Under random vertex types auto takes the exact law of a density event
    while n <= 40 and the law sums at most 3,000 block laws, and samples
    otherwise; the step-graphon law is labelled exact, asked as exact or
    enum.  An exact or enum point checks every layout of its family by
    ``_check_layouts``.  Sampling needs a graph it can label, and a ball
    event at most ``MC_VERTEX_LIMIT`` vertices.
    """
    if isinstance(family, WRandomFamily):
        if method == "auto":
            # the exact law sums one block law per composition of n
            affordable = n <= 40 and math.comb(n + family.u.parts.size - 1, n) <= 3000
            method = "exact" if event.is_density and affordable else "mc"
        method = "exact" if method == "enum" else method
    else:
        counts, p = family.counts_for(n)
        if method == "auto" and event.is_density:
            refused = (_refusable(family, n, event)
                       and _exact_law_refusal(*_density_window(counts, p, event)))
            method = "tilted" if refused else "exact"
        elif method == "auto":
            enum = n <= ENUM_VERTEX_LIMIT and _free_pair_count(counts, p) <= AUTO_ENUM_FREE_PAIRS
            method = "enum" if enum else "mc"
        if method == "tilted":
            _check_tilt_span(*_density_window(counts, p, event))
    if method in ("exact", "enum"):
        _check_layouts(family, n, event, " at n=%d" % n)
    if method == "mc":
        if not event.is_density and n > MC_VERTEX_LIMIT:
            raise ValueError("Monte Carlo checks ball events on at most %d vertices, got n=%d"
                             % (MC_VERTEX_LIMIT, n))
        _check_vertex_count(n)
    return method


def ldp_curve(family, event: EventSpec, n_values, method="auto",
              num_samples=10000, seed=0):
    """Sweep graph sizes and measure -log P(event) / speed at each size.

    ``method`` is "auto", "exact", "enum", "tilted", or "mc";
    ``check_method`` picks the method of each size (auto's pick is
    described at ``_point_method``) and refuses what cannot run before any
    point is computed.  The speed is the squared vertex count.  Each point
    derives its own generator seed, so curves are reproducible end to end.
    A point is a dict with the keys ``CURVE_COLUMNS``.
    """
    n_values = [int(n) for n in n_values]
    methods = check_method(family, event, method, n_values)
    return _curve(family, event, n_values, methods, num_samples, seed)


def _curve(family, event, n_values, methods, num_samples, seed):
    """The points of ``ldp_curve`` at n_values, by the methods ``check_method`` returned."""
    base = _seed_list(seed)
    points = []
    for idx, (n, method) in enumerate(zip(n_values, methods)):
        est = _point(family, n, event, method, num_samples, base + [idx])
        # 0.0 - x, unlike -x, maps logprob 0 to +0.0
        normalized = (0.0 - est["logprob"] / (n * n)) if n > 0 else math.nan
        points.append(dict(est, n=n, speed=n * n, normalized=normalized))
    return points


def _point(family, n, event, method, num_samples, seed):
    """Estimate of log P(event) at size n by the method ``_point_method`` picked."""
    if method == "mc":
        return mc_event_logprob(lambda rng: family.draw(n, rng)[0], event, num_samples, seed)
    if method == "tilted":
        return tilted_density_logprob_block(*family.counts_for(n), event, num_samples, seed)
    return _estimate(_mixture_logprob(family, n, event), 0.0, 0, 0, method)
