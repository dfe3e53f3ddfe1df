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
    DEFAULT_SEARCH_RESTARTS,
    DistanceEstimate,
    _CutObjective,
    _coupling_search,
    _objective_value,
    _profile_cost,
)

__all__ = [
    "ColouredStepGraphon", "coloured_refinement", "dk_norm",
    "dk_distance_search", "gamma_block",
    "coloured_to_json", "coloured_from_json",
]


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


def _objective(a: ColouredStepGraphon, b: ColouredStepGraphon):
    """The colour-aware search objective of a's parts against b's."""
    if a.num_colours != b.num_colours:
        raise ValueError(
            "colour counts differ: %d vs %d" % (a.num_colours, b.num_colours)
        )
    return _CutObjective(a.graphon.values, b.graphon.values, a.colours, b.colours,
                         a.num_colours)


def dk_norm(a: ColouredStepGraphon, b: ColouredStepGraphon) -> float:
    """Colour-aware cut discrepancy between two coloured step graphons.

    The sup term scans subset pairs of the common refinement, summing the
    absolute coloured cut integrals over ordered colour pairs; the second
    term adds the symmetric-difference measure of the colour classes.  This
    is ``cutmetric._CutObjective`` on the refinement's pieces: exact up to
    22 pieces with one colour (where it is the aligned cut norm) and up to
    22 - k^2 from k = 2 colours on; past that, 32 alternating starts from
    seed 0 bound the sup term from below.
    """
    w, ia, ib = overlay_partitions(a.graphon.parts, b.graphon.parts)
    return _objective_value(_objective(a, b).stack(w, ia, ib))


def dk_distance_search(a: ColouredStepGraphon, b: ColouredStepGraphon,
                       restarts=DEFAULT_SEARCH_RESTARTS, seed=0) -> DistanceEstimate:
    """Search couplings for the smallest colour-aware discrepancy.

    The plain cut-distance search, run on the coloured objective (with one
    colour it is that search, bit for bit, on a canonically ordered pair):
    multi-start local search over the transportation polytope of the two
    part-weight vectors, with colours travelling along with their parts.
    Starts include a greedy matching that prefers parts with similar value
    profiles *and* equal colours (a mismatched unit of mass costs 2 in the
    symmetric-difference term).  Deterministic given the seed, and never
    worse under a larger restart budget.

    Up to 3 colours the support cap keeps every evaluated coupling in the
    exact regime (k^2 + pieces <= 22), so the value is the exact discrepancy
    of the returned coupling and an upper bound on the coloured cut
    distance.  From 4 colours on the cap is 8 pieces, and couplings with
    more than 22 - k^2 pieces are evaluated by the alternating ascent alone
    (32 starts on the k^2 colour-pair kernels), a lower bound on that
    coupling's discrepancy, so the value is then neither exact nor a
    certified upper bound.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    u, v = a.graphon, b.graphon

    def start_cost():
        return _profile_cost(u, v) + 2.0 * (a.colours[:, None] != b.colours[None, :])

    return _coupling_search(u, v, _objective(a, b), start_cost, restarts, seed)


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
