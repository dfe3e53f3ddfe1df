"""Step graphons whose parts carry colours, and the colour-aware cut metric.

A coloured step graphon pairs a step graphon with a colour label per part
(equivalently, an ordered measurable partition of [0,1] into colour classes).
The metric adds two ingredients on a common refinement of the two part
lists: the worst cut discrepancy summed over ordered colour pairs, and the
total measure of the colour-class symmetric differences.  Forgetting the
colours, or flattening everything outside one colour block to a reference
value, never increases distances (both maps are 1-Lipschitz), which is what
makes the colour layer useful for rate-function bookkeeping.
"""

import functools

import numpy as np

from .graphon import (
    PartWeights,
    StepGraphon,
    _check_prob_matrix,
    graphon_from_json,
    graphon_to_json,
    make_step_graphon,
    overlay_partitions,
)
from .cutmetric import (
    DEFAULT_ALTERNATING_RESTARTS,
    DEFAULT_SEARCH_RESTARTS,
    DistanceEstimate,
    _SearchObjective,
    _coupling_search,
    _objective_value,
    _profile_cost,
    _subset_bits,
)

# The sup term enumerates sign patterns (one per ordered colour pair) on top
# of part subsets, so exactness is budgeted jointly: 2^(k^2 + m) work.
DK_EXACT_PART_LIMIT = 18
_DK_ENUM_BUDGET = 22


class ColouredStepGraphon:
    """A step graphon whose parts each carry a colour index.

    Colours are 0-based integers below ``num_colours``; empty colour classes
    are allowed (``num_colours`` may exceed the largest label in use).  The
    JSON form uses 1-based colour indices.
    """

    def __init__(self, graphon: StepGraphon, colours, num_colours=None):
        if not isinstance(graphon, StepGraphon):
            raise TypeError("expected a StepGraphon")
        c = np.array(colours, dtype=int)
        if c.shape != (graphon.parts.size,):
            raise ValueError(
                "need one colour per part: %d parts, %d colours"
                % (graphon.parts.size, c.size)
            )
        if c.size and int(c.min()) < 0:
            raise ValueError("colour indices must be nonnegative")
        k = int(c.max()) + 1 if c.size else 1
        if num_colours is not None:
            if int(num_colours) < k:
                raise ValueError(
                    "num_colours=%d but a colour index %d is used"
                    % (num_colours, k - 1)
                )
            k = int(num_colours)
        c.flags.writeable = False
        self.graphon = graphon
        self.colours = c
        self.num_colours = k

    def class_measures(self):
        """Total weight of each colour class, as a length-k vector."""
        return np.bincount(
            self.colours, weights=self.graphon.parts.weights, minlength=self.num_colours
        )

    def __repr__(self):
        return "ColouredStepGraphon(parts=%d, colours=%d)" % (
            self.graphon.parts.size,
            self.num_colours,
        )


def coloured_refinement(a: ColouredStepGraphon, b: ColouredStepGraphon):
    """Both coloured graphons re-expressed on one common part list.

    Returns (weights, values_a, values_b, colours_a, colours_b); the colour
    vectors are inherited from the parts each refined piece came from.
    """
    w, ia, ib = overlay_partitions(a.graphon.parts, b.graphon.parts)
    va = a.graphon.values[np.ix_(ia, ia)]
    vb = b.graphon.values[np.ix_(ib, ib)]
    return PartWeights(w), va, vb, a.colours[ia], b.colours[ib]


def _class_symmetric_difference(w, ca, cb, k):
    """Sum over colours of the measure where exactly one side has the colour."""
    total = 0.0
    for i in range(k):
        total += float(w[(ca == i) != (cb == i)].sum())
    return total


def _dk_sup_alternating(w, va, vb, ca, cb, k, restarts, seed):
    """Monotone lower bound on the sup term for large refinements.

    State is a pair of part-inclusion vectors; each pass re-reads the per
    colour-pair signs from the current sums (exact), then re-optimizes one
    side against those signs (exact), so the tracked value never decreases.
    """
    m = w.size
    mass = w[:, None] * w[None, :]
    # per ordered colour pair (i,j), the bilinear kernel restricted to it
    kernels = np.zeros((k, k, m, m))
    for i in range(k):
        for j in range(k):
            term = np.where((ca[:, None] == i) & (ca[None, :] == j), va, 0.0)
            term -= np.where((cb[:, None] == i) & (cb[None, :] == j), vb, 0.0)
            kernels[i, j] = mass * term
    flat = kernels.reshape(k * k, m, m)

    def pair_sums(x, y):
        return np.einsum("pst,s,t->p", flat, x, y)

    rng = np.random.default_rng(seed)
    best = 0.0
    for r in range(restarts):
        if r == 0:
            x = np.ones(m)
            y = np.ones(m)
        else:
            x = rng.integers(0, 2, size=m).astype(float)
            y = rng.integers(0, 2, size=m).astype(float)
        prev = -1.0
        while True:
            s = pair_sums(x, y)
            val = float(np.abs(s).sum())
            if val <= prev + 1e-15:
                break
            prev = val
            sig = np.where(s >= 0.0, 1.0, -1.0)
            h = np.einsum("p,pst->st", sig, flat)
            y = (x @ h > 0.0).astype(float)
            s = pair_sums(x, y)
            sig = np.where(s >= 0.0, 1.0, -1.0)
            h = np.einsum("p,pst->st", sig, flat)
            x = (h @ y > 0.0).astype(float)
        best = max(best, prev)
    return best


class _DkObjective(_SearchObjective):
    """The coloured objective of a coupling of a's parts with b's.

    In the exact regime the sup term is the largest cut norm over the
    sign-pattern kernels: for a fixed assignment of signs sig_p to ordered
    colour pairs the objective is a plain bilinear cut problem, with kernel
    sig_p[ca, ca'] U - sig_p[cb, cb'] V, and maximizing over sign
    assignments recovers the sum of absolute values.  Negating every sign
    yields the same cut norm, so the first sign is pinned, halving the
    pattern count.  The symmetric difference is the const term, linear in
    the coupling: a cell of two colours adds twice its mass.  Past the exact
    regime, ``heuristic_restarts`` alternating starts bound the sup term
    from below.
    """

    def __init__(self, a: ColouredStepGraphon, b: ColouredStepGraphon, heuristic_restarts):
        if a.num_colours != b.num_colours:
            raise ValueError(
                "colour counts differ: %d vs %d" % (a.num_colours, b.num_colours)
            )
        super().__init__(a.graphon.values, b.graphon.values)
        k = self.num_colours = a.num_colours
        self.ca, self.cb = a.colours, b.colours
        self.piece_limit = min(DK_EXACT_PART_LIMIT, _DK_ENUM_BUDGET - k * k)
        self.linear = 2.0 * (self.ca[:, None] != self.cb[None, :]).ravel()
        self.heuristic_restarts = heuristic_restarts

    @functools.cached_property
    def signs(self):
        """Sign matrices of the even masks below 2^(k^2), shape (2^(k^2-1), k, k).

        Mask bits are read row-major; a set bit means -1.
        """
        k = self.num_colours
        return (1.0 - 2.0 * _subset_bits(k * k, 0, 1 << (k * k))[::2]).reshape(-1, k, k)

    @functools.cached_property
    def entry_bound(self):
        return float(np.abs(self.U).max() + np.abs(self.V).max())

    def diff(self, a, i, p):
        sig = self.signs if p is None else self.signs[p]
        ca, cb = self.ca[a], self.cb[i]
        return (sig[..., ca[:, None], ca] * self.U[a[:, None], a]
                - sig[..., cb[:, None], cb] * self.V[i[:, None], i])

    def const(self, w, src, tgt):
        return _class_symmetric_difference(w, self.ca[src], self.cb[tgt], self.num_colours)

    def heuristic(self, w, src, tgt):
        sup = _dk_sup_alternating(w, self.U[src[:, None], src], self.V[tgt[:, None], tgt],
                                  self.ca[src], self.cb[tgt], self.num_colours,
                                  self.heuristic_restarts, 0)
        return sup + self.const(w, src, tgt)


def dk_norm(a: ColouredStepGraphon, b: ColouredStepGraphon) -> float:
    """Colour-aware cut discrepancy between two coloured step graphons.

    The sup term scans subset pairs of the common refinement, summing the
    absolute coloured cut integrals over ordered colour pairs; the second
    term adds the symmetric-difference measure of the colour classes.  Exact
    while the refinement is small (at most 18 parts, jointly budgeted with
    the 2^(k^2) sign patterns); beyond that 32 alternating starts from seed
    0 give a lower bound.
    """
    objective = _DkObjective(a, b, DEFAULT_ALTERNATING_RESTARTS)
    w, ia, ib = overlay_partitions(a.graphon.parts, b.graphon.parts)
    return _objective_value(objective.stack(PartWeights(w).weights, ia, ib))


def dk_distance_search(a: ColouredStepGraphon, b: ColouredStepGraphon,
                       restarts=DEFAULT_SEARCH_RESTARTS, seed=0) -> DistanceEstimate:
    """Search couplings for the smallest colour-aware discrepancy.

    Same scheme as the plain cut-distance search: multi-start local search
    over the transportation polytope of the two part-weight vectors, with
    colours travelling along with their parts.  Starts include a greedy
    matching that prefers parts with similar value profiles *and* equal
    colours (a mismatched unit of mass costs 2 in the symmetric-difference
    term).  Deterministic given the seed, and never worse under a larger
    restart budget.

    Up to 3 colours the support cap keeps every evaluated coupling in the
    exact regime (k^2 + pieces <= 22), so the value is the exact discrepancy
    of the returned coupling and an upper bound on the coloured cut
    distance.  From 4 colours on the cap is 8 pieces, and couplings with
    more than 22 - k^2 pieces are evaluated by the alternating heuristic
    alone (8 starts), a lower bound on that coupling's discrepancy, so the
    value is then neither exact nor a certified upper bound.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    u, v = a.graphon, b.graphon

    def start_cost():
        return _profile_cost(u, v) + 2.0 * (a.colours[:, None] != b.colours[None, :])

    return _coupling_search(u, v, _DkObjective(a, b, 8), start_cost, restarts, seed)


def gamma_block(a: ColouredStepGraphon, i: int, j: int, p) -> StepGraphon:
    """Keep the graphon on the (i, j) colour block, flatten the rest to p[i][j].

    Cells whose endpoint colours are {i, j} in either order keep their
    values; every other cell is set to the reference value.  The part list
    is unchanged.
    """
    k = a.num_colours
    if not (0 <= i < k and 0 <= j < k):
        raise ValueError("colour index out of range")
    p = _check_prob_matrix(p, k)
    cs = a.colours[:, None]
    ct = a.colours[None, :]
    keep = ((cs == i) & (ct == j)) | ((cs == j) & (ct == i))
    values = np.where(keep, a.graphon.values, p[i, j])
    return make_step_graphon(a.graphon.parts, values)


def coloured_to_json(a: ColouredStepGraphon) -> dict:
    """JSON form: the graphon fields plus 1-based part colours."""
    out = graphon_to_json(a.graphon)
    out["colours"] = [int(c) + 1 for c in a.colours]
    if a.num_colours > int(a.colours.max()) + 1:
        out["numColours"] = a.num_colours
    return out


def coloured_from_json(data: dict) -> ColouredStepGraphon:
    g = graphon_from_json(data)
    if "colours" not in data:
        raise ValueError("missing field: colours")
    raw = np.array(data["colours"], dtype=int)
    if raw.size and int(raw.min()) < 1:
        raise ValueError("JSON colour indices are 1-based")
    return ColouredStepGraphon(g, raw - 1, num_colours=data.get("numColours"))
