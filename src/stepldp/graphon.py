"""Step graphon algebra: weighted interval partitions, value matrices, couplings.

A step graphon is a symmetric [0,1]-valued step function on the unit square,
stored as a vector of part weights (consecutive intervals of [0,1]) together
with one value per pair of parts.  Finite graphs embed by splitting [0,1]
into n equal parts with 0/1 values and a zero diagonal.  All rearrangement
machinery (couplings, stretches, reweightings) lives here; metrics and rate
functions build on it.
"""

import json

import numpy as np

# Tolerance for "weights sum to one" checks.  Inputs already normalized this
# tightly are kept bit-for-bit so JSON round trips are exact.
NORMALIZATION_TOL = 1e-12

# Tolerance for matching coupling marginals against part weights.
MARGINAL_TOL = 1e-10

SYMMETRY_TOL = 1e-12


def _check_weights(w, name):
    """w as a float vector: nonempty, 1-D, finite and nonnegative with a positive finite sum.

    ``name`` opens every message.  The vector is a copy and is not rescaled.
    """
    w = np.array(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("%s must form a nonempty vector" % name)
    if not np.all(np.isfinite(w)):
        raise ValueError("%s must be finite" % name)
    if np.any(w < 0.0):
        raise ValueError("%s must be nonnegative" % name)
    with np.errstate(over="ignore"):
        if not 0.0 < float(w.sum()) < np.inf:
            raise ValueError("%s must have a positive finite sum" % name)
    return w


def _check_values(parts, values, lo):
    """A read-only value matrix on ``parts``: finite, symmetric, entries in [lo, 1].

    Asymmetry within SYMMETRY_TOL is averaged away; a symmetric matrix keeps its bits.
    """
    v = np.array(values, dtype=float)
    m = parts.size
    if v.shape != (m, m):
        raise ValueError("value matrix must be %dx%d to match the parts, got %r"
                         % (m, m, v.shape))
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    if np.max(np.abs(v - v.T)) > SYMMETRY_TOL:
        raise ValueError("value matrix must be symmetric within 1e-12")
    v = (v + v.T) / 2.0
    if float(v.min()) < lo or float(v.max()) > 1.0:
        raise ValueError("values must lie in [%g, 1]" % lo)
    v.flags.writeable = False
    return v


def _normalized(w, total):
    """w rescaled by its 1-norm ``total`` unless that is within NORMALIZATION_TOL of one."""
    return w / total if abs(total - 1.0) > NORMALIZATION_TOL else w


class PartWeights:
    """Nonnegative part masses normalized to total one.

    The vector describes consecutive intervals of [0,1] in order.  Inputs may
    be unnormalized; construction rescales by the 1-norm unless the sum is
    already within NORMALIZATION_TOL of one, and records the raw 1-norm in
    ``total``.  Zero-weight parts are legal and are kept: metrics must ignore
    them rather than relying on their absence.
    """

    def __init__(self, weights):
        w = _check_weights(weights, "part weights")
        total = float(w.sum())
        w = _normalized(w, total)
        w.flags.writeable = False
        self.weights = w
        self.total = total

    @property
    def size(self) -> int:
        return int(self.weights.size)

    def boundaries(self):
        """Cumulative right endpoints of the parts' intervals."""
        return np.cumsum(self.weights)

    def approx_equal(self, other, tol=MARGINAL_TOL) -> bool:
        return self.size == other.size and bool(
            np.all(np.abs(self.weights - other.weights) <= tol)
        )

    def __len__(self):
        return self.size

    def __repr__(self):
        return "PartWeights(%r)" % (self.weights.tolist(),)


class StepGraphon:
    """Symmetric step function on the unit square with values in [0, 1]."""

    def __init__(self, parts, values):
        self.parts = parts if isinstance(parts, PartWeights) else PartWeights(parts)
        self.values = _check_values(self.parts, values, 0.0)

    def __repr__(self):
        return "StepGraphon(parts=%d)" % self.parts.size


class LabeledGraph:
    """Finite simple graph on vertices 0..n-1.

    ``edges`` is a read-only int32 array of shape (E, 2): each edge appears
    once as a row (u, v) with u < v, and the rows are in lexicographic order.
    The constructor accepts any iterable of vertex pairs (or an (E, 2) array)
    in any orientation and order, with repeats; it canonicalizes them.
    """

    def __init__(self, n, edges=()):
        n = int(n)
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if n > np.iinfo(np.int32).max:
            raise ValueError("graph has too many vertices for int32 labels")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        try:
            e = np.asarray(edges, dtype=np.int64)
        except OverflowError:
            # labels beyond int64: the range check below rejects them
            e = np.asarray(edges, dtype=object)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be (u, v) pairs")
        u, v = e[:, 0], e[:, 1]
        bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            i = int(np.argmax(bad))
            a, b = int(u[i]), int(v[i])
            if a == b:
                raise ValueError("loops are not allowed (vertex %d)" % a)
            raise ValueError("edge (%d, %d) outside vertex range 0..%d" % (a, b, n - 1))
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        key = lo * n + hi
        if np.any(key[1:] <= key[:-1]):
            key = np.unique(key)
            lo, hi = np.divmod(key, n)
        canon = np.empty((key.size, 2), dtype=np.int32)
        canon[:, 0] = lo
        canon[:, 1] = hi
        canon.flags.writeable = False
        self.n = n
        self.edges = canon

    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u, v) -> bool:
        lo, hi = min(u, v), max(u, v)
        if lo < 0 or hi >= self.n:
            return False
        start, stop = np.searchsorted(self.edges[:, 0], np.array([lo, lo + 1], dtype=np.int32))
        return bool(np.any(self.edges[start:stop, 1] == hi))

    def adjacency(self):
        a = np.zeros((self.n, self.n))
        a[self.edges[:, 0], self.edges[:, 1]] = 1.0
        a[self.edges[:, 1], self.edges[:, 0]] = 1.0
        return a

    def density(self) -> float:
        pairs = self.n * (self.n - 1) // 2
        return len(self.edges) / pairs if pairs else 0.0

    def __repr__(self):
        return "LabeledGraph(n=%d, edges=%d)" % (self.n, len(self.edges))


class OverlapCoupling:
    """Joint mass matrix between two part lists with prescribed marginals.

    Entry [a, i] is the mass shared between source part a and target part i;
    rows must sum to the source weights and columns to the target weights
    within MARGINAL_TOL.  Couplings encode measure-preserving rearrangements
    at step-function resolution.
    """

    def __init__(self, matrix, row_parts, col_parts):
        if not isinstance(row_parts, PartWeights):
            row_parts = PartWeights(row_parts)
        if not isinstance(col_parts, PartWeights):
            col_parts = PartWeights(col_parts)
        c = np.array(matrix, dtype=float)
        if c.shape != (row_parts.size, col_parts.size):
            raise ValueError(
                "coupling must be %dx%d, got %r"
                % (row_parts.size, col_parts.size, c.shape)
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coupling entries must be finite")
        if float(c.min()) < -MARGINAL_TOL:
            raise ValueError("coupling entries must be nonnegative")
        c = np.maximum(c, 0.0)  # scrub arithmetic dust
        row_err = np.max(np.abs(c.sum(axis=1) - row_parts.weights))
        if row_err > MARGINAL_TOL:
            raise ValueError("row marginal mismatch %.3g beyond 1e-10" % row_err)
        col_err = np.max(np.abs(c.sum(axis=0) - col_parts.weights))
        if col_err > MARGINAL_TOL:
            raise ValueError("column marginal mismatch %.3g beyond 1e-10" % col_err)
        c.flags.writeable = False
        self.matrix = c
        self.row_parts = row_parts
        self.col_parts = col_parts

    def transpose(self):
        return OverlapCoupling(self.matrix.T, self.col_parts, self.row_parts)

    def __repr__(self):
        return "OverlapCoupling(%dx%d)" % self.matrix.shape


def make_step_graphon(weights, values) -> StepGraphon:
    """Validated construction of a step graphon from raw weights and values."""
    return StepGraphon(weights, values)


def _check_prob_matrix(p, k=None):
    """A symmetric matrix of probabilities as floats, optionally k x k."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError("probability matrix must be square")
    if k is not None and p.shape[0] != k:
        raise ValueError("probability matrix must be %dx%d, got %r" % (k, k, p.shape))
    if not np.all(np.isfinite(p)):
        raise ValueError("probabilities must be finite")
    if np.max(np.abs(p - p.T)) > SYMMETRY_TOL:
        raise ValueError("probability matrix must be symmetric")
    if float(p.min()) < 0.0 or float(p.max()) > 1.0:
        raise ValueError("probabilities must lie in [0, 1]")
    return p


def graph_to_graphon(g: LabeledGraph) -> StepGraphon:
    """Embed a labeled graph: n equal parts, adjacency values, zero diagonal."""
    w = np.full(g.n, 1.0 / g.n)
    return StepGraphon(PartWeights(w), g.adjacency())


def edge_density(u: StepGraphon) -> float:
    """Total mass of the graphon: sum of w_i * w_j * value[i, j]."""
    w = u.parts.weights
    return float(w @ u.values @ w)


def overlay_partitions(pu: PartWeights, pv: PartWeights):
    """Overlay two interval partitions of [0,1].

    Returns (weights, src, tgt): refined piece widths in left-to-right order
    plus, for each piece, the index of the part of pu and of pv it falls in.
    Every part of both inputs is represented; zero-weight parts yield
    zero-weight pieces.  Residual float drift (the two partitions' sums may
    disagree by up to the normalization tolerance) is merged into the final
    piece.
    """
    wu, wv = pu.weights, pv.weights
    mu, mv = wu.size, wv.size
    weights, src, tgt = [], [], []
    i = j = 0
    ru, rv = float(wu[0]), float(wv[0])
    while True:
        d = min(ru, rv)
        weights.append(d)
        src.append(i)
        tgt.append(j)
        ru -= d  # at least one residual is now exactly zero
        rv -= d
        can_u = i < mu - 1
        can_v = j < mv - 1
        if ru == 0.0 and can_u:
            i += 1
            ru = float(wu[i])
        elif rv == 0.0 and can_v:
            j += 1
            rv = float(wv[j])
        elif not can_u and not can_v:
            leftover = max(ru, rv)
            if leftover > 0.0:
                weights[-1] += leftover  # merge drift into the final piece
            break
        elif rv == 0.0 and not can_v:
            # v exhausted while u still has (zero or drift-sized) parts
            i += 1
            ru += float(wu[i])
        else:
            # mirror case: u exhausted while v has parts left
            j += 1
            rv += float(wv[j])
    return np.array(weights), np.array(src, dtype=int), np.array(tgt, dtype=int)


def common_refinement(u: StepGraphon, v: StepGraphon):
    """Re-express two step graphons on the overlay of their partitions.

    Returns (parts, values_u, values_v); both value matrices reproduce their
    original graphon (same function, finer steps).
    """
    w, iu, iv = overlay_partitions(u.parts, v.parts)
    vu = u.values[np.ix_(iu, iu)]
    vv = v.values[np.ix_(iv, iv)]
    return PartWeights(w), vu, vv


def coupling_pieces(coupling: OverlapCoupling):
    """Pieces of the coupled refinement, grouped inside target intervals.

    Returns (weights, src, tgt) for the cells with positive mass, ordered by
    target part then source part: the refinement of the target partition on
    which a pulled-back graphon lives.
    """
    return _matrix_pieces(coupling.matrix)


def _matrix_pieces(c):
    """``coupling_pieces`` of a bare coupling matrix, trusted to be feasible."""
    tgt, src = np.nonzero(c.T > 0.0)
    return c[src, tgt], src, tgt


def apply_coupling(u: StepGraphon, target: PartWeights, coupling: OverlapCoupling) -> StepGraphon:
    """Pull a step graphon onto a target partition along an overlap coupling.

    The coupling's rows must carry u's part weights and its columns the
    target weights.  Each target interval is split internally following its
    column of the coupling (sub-pieces in source-part order), and every piece
    keeps the value row of the source part it came from, so the result is the
    rearranged graphon expressed on a refinement of the target partition.
    """
    if not coupling.row_parts.approx_equal(u.parts):
        raise ValueError("coupling row marginals do not match the graphon parts")
    if not coupling.col_parts.approx_equal(target):
        raise ValueError("coupling column marginals do not match the target parts")
    w, src, _ = coupling_pieces(coupling)
    if w.size == 0:
        raise ValueError("coupling carries no mass")
    vals = u.values[np.ix_(src, src)]
    return StepGraphon(PartWeights(w), vals)


def stretch_pullback(u: StepGraphon, s: float) -> StepGraphon:
    """Restrict a graphon to [0, s]^2 and rescale back to the unit square.

    This is the pull-back along x -> s*x: part i keeps the intersection of
    its interval with [0, s], rescaled by 1/s; parts entirely beyond s stay
    with weight zero.  The cut distance between u and the result is at most
    2*(1/s - 1).
    """
    s = float(s)
    if not (0.0 < s <= 1.0):
        raise ValueError("stretch factor must lie in (0, 1]")
    hi = np.cumsum(u.parts.weights)
    lo = np.concatenate(([0.0], hi[:-1]))
    w = (np.minimum(hi, s) - np.minimum(lo, s)) / s
    w = np.maximum(w, 0.0)
    return StepGraphon(PartWeights(w), u.values)


def project_steps(u: StepGraphon, grouping) -> StepGraphon:
    """Average a step graphon over groups of parts.

    ``grouping`` assigns each part of u a coarse index 0..m'-1; every coarse
    index must be hit.  Coarse cell values are mass-weighted averages of the
    constituent cells; cells with no mass get value 0.
    """
    g = np.asarray(grouping, dtype=int)
    m = u.parts.size
    if g.shape != (m,):
        raise ValueError("grouping must assign one coarse index per part")
    if g.size and g.min() < 0:
        raise ValueError("coarse indices must be nonnegative")
    mp = int(g.max()) + 1
    present = np.zeros(mp, dtype=bool)
    present[g] = True
    if not present.all():
        missing = int(np.nonzero(~present)[0][0])
        raise ValueError("coarse part %d has no constituent parts" % missing)
    w = u.parts.weights
    basis = np.zeros((mp, m))
    basis[g, np.arange(m)] = w
    cw = basis.sum(axis=1)
    num = basis @ u.values @ basis.T
    den = np.outer(cw, cw)
    vals = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
    vals = np.clip(vals, 0.0, 1.0)
    return StepGraphon(PartWeights(cw), vals)


# ---------------------------------------------------------------------------
# serialization


def graphon_to_json(u: StepGraphon) -> dict:
    return {
        "weights": [float(x) for x in u.parts.weights],
        "values": [[float(x) for x in row] for row in u.values],
    }


def graphon_from_json(obj) -> StepGraphon:
    if not isinstance(obj, dict):
        raise ValueError("graphon JSON must be an object")
    for key in ("weights", "values"):
        if key not in obj:
            raise ValueError("graphon JSON missing field %r" % key)
    return make_step_graphon(obj["weights"], obj["values"])


def dump_graphon(u: StepGraphon, path) -> None:
    with open(path, "w") as fh:
        json.dump(graphon_to_json(u), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graphon(path) -> StepGraphon:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError("%s: not valid JSON (%s)" % (path, exc)) from exc
    return graphon_from_json(obj)


def graph_to_edgelist(g: LabeledGraph) -> str:
    """Plain-text edge list: first line the vertex count, then "u v" pairs.

    Each edge appears once with u < v, and the pairs are in lexicographic
    order, so a graph has exactly one edge-list text.
    """
    # one label string per vertex, looked up per edge end and joined once
    heads = np.array(["%d " % u for u in range(g.n)], dtype=object)
    tails = np.array(["%d\n" % v for v in range(g.n)], dtype=object)
    pieces = np.empty((len(g.edges), 2), dtype=object)
    pieces[:, 0] = heads[g.edges[:, 0]]
    pieces[:, 1] = tails[g.edges[:, 1]]
    return "%d\n" % g.n + "".join(pieces.ravel().tolist())


def graph_from_edgelist(text: str) -> LabeledGraph:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("edge list is empty: expected a vertex count line")
    try:
        n = int(lines[0])
    except ValueError as exc:
        raise ValueError("first line must be the vertex count, got %r" % lines[0]) from exc
    ends = []
    for lineno, ln in enumerate(lines[1:], start=2):
        fields = ln.split()
        if len(fields) != 2:
            raise ValueError("line %d: expected 'u v', got %r" % (lineno, ln))
        try:
            ends.extend(map(int, fields))
        except ValueError as exc:
            raise ValueError("line %d: vertex ids must be integers" % lineno) from exc
    return LabeledGraph(n, np.reshape(ends, (-1, 2)))
