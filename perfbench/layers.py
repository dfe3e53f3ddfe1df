"""Per-layer metrics of a traced run, computed from the tracer's spans and counters.

Layers are the package modules.  Every metric below is reported for every
workload; a layer a workload bypasses reads 0, which is the prediction for
that workload.  Per-round quantities are medians over the traced rounds;
ratios are taken over the totals of all traced rounds.  The comment after
each group names the end-to-end op it should move and on which workload.
"""

import statistics

from spans import LAYERS, self_times

# (metric, unit)
PER_LAYER = [
    # -> sample_s, coupling_demo_s, peak_rss_mb on sample-io; ldp_curve_n*_s on ball-mc
    ("samplers.sample_block.calls", "count"),
    ("samplers.sample_block.self_s", "s"),
    ("samplers.sample_block.pairs", "count"),
    ("samplers.coupled_block_sample.self_s", "s"),
    ("samplers.coupled_block_sample.pairs", "count"),
    ("graphon.LabeledGraph.calls", "count"),
    ("graphon.LabeledGraph.self_s", "s"),
    ("graphon.LabeledGraph.edges", "count"),
    # -> sample_s, coupling_demo_s on sample-io
    ("graphon.graph_to_edgelist.self_s", "s"),
    ("cli.out_bytes", "B"),
    # -> distance_s on solve; ldp_curve_n12_s on ball-mc
    ("cutmetric.cut_distance_search.calls", "count"),
    ("cutmetric.cut_distance_search.self_s", "s"),
    ("cutmetric.cut_distance_search.restarts_used_ratio", "ratio"),
    ("cutmetric.cut_distance_upper.calls", "count"),
    ("cutmetric.cut_distance_upper.self_s", "s"),
    ("cutmetric.cut_norm_exact.calls", "count"),
    ("cutmetric.cut_norm_exact.self_s", "s"),
    ("cutmetric.cut_norm_exact.subsets", "count"),
    ("graphon.OverlapCoupling.calls", "count"),
    ("graphon.OverlapCoupling.self_s", "s"),
    ("cutmetric.SignedStepFn.calls", "count"),
    ("cutmetric.SignedStepFn.self_s", "s"),
    # -> ldp_curve_n40_s on ball-mc
    ("cutmetric.cut_norm_alternating.calls", "count"),
    ("cutmetric.cut_norm_alternating.self_s", "s"),
    ("graphon.graph_to_graphon.calls", "count"),
    ("graphon.graph_to_graphon.self_s", "s"),
    # -> dk_search_s on solve
    ("coloured.dk_distance_search.calls", "count"),
    ("coloured.dk_distance_search.self_s", "s"),
    ("coloured.dk_distance_search.restarts_used_ratio", "ratio"),
    # -> rate_R_s, rate_J_s on solve; predicted-rate share of ldp_curve_n*_s on ball-mc
    ("rates.rate_R.calls", "count"),
    ("rates.rate_R.self_s", "s"),
    ("rates.rate_J.calls", "count"),
    ("rates.rate_J.self_s", "s"),
    ("rates.rate_J.budget_used", "count"),
    ("rates.rate_J.inf_ratio", "ratio"),
    # -> ldp_curve_s on density-curve
    ("ldplab.density_logprob_block.calls", "count"),
    ("ldplab.density_logprob_block.self_s", "s"),
    ("ldplab.tilted_density_logprob_block.calls", "count"),
    ("ldplab.tilted_density_logprob_block.self_s", "s"),
    ("ldplab.ldp_curve.self_s", "s"),
    ("ldplab.points.exact", "count"),
    ("ldplab.points.enum", "count"),
    ("ldplab.points.tilted", "count"),
    ("ldplab.points.mc", "count"),
    # -> ldp_curve_n*_s on ball-mc
    ("ldplab.mc_event_logprob.self_s", "s"),
    ("ldplab.EventSpec.check_graph.calls", "count"),
    ("ldplab.EventSpec.check_graph.self_s", "s"),
    ("ldplab.mc.samples", "count"),
    ("ldplab.mc.hit_ratio", "ratio"),
] + [("%s.self_s" % layer, "s") for layer in LAYERS] + [  # cli.self_s among them
    # the tracer itself
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_ratio", "ratio"),
    ("trace.spans", "count"),
]

# ratio metric -> (numerator counter, denominator counter)
RATIOS = {
    "cutmetric.cut_distance_search.restarts_used_ratio":
        ("cutmetric.cut_distance_search.restarts_used", "cutmetric.cut_distance_search.restarts"),
    "coloured.dk_distance_search.restarts_used_ratio":
        ("coloured.dk_distance_search.restarts_used", "coloured.dk_distance_search.restarts"),
    "rates.rate_J.inf_ratio": ("rates.rate_J.inf", "rates.rate_J.calls"),
    "ldplab.mc.hit_ratio": ("ldplab.mc.hits", "ldplab.mc.samples"),
}


def _round_of(op):
    return int(op.split(".")[0])


def per_layer(tracer, untraced, traced, out_bytes):
    """Every PER_LAYER metric from one traced run (see the module docstring)."""
    spans = tracer.spans
    selfs = self_times(spans)
    rounds = sorted({_round_of(op) for op in tracer.counters} | {_round_of(s[4]) for s in spans})
    per_round = {r: {} for r in rounds}

    def add(r, key, value):
        per_round[r][key] = per_round[r].get(key, 0) + value

    for span, own in zip(spans, selfs):
        r = _round_of(span[4])
        add(r, span[0] + ".self_s", own)
        add(r, span[0].split(".")[0] + ".self_s", own)
        add(r, "trace.spans", 1)
    totals = {}
    for op, counters in tracer.counters.items():
        for key, value in counters.items():
            add(_round_of(op), key, value)
            totals[key] = totals.get(key, 0) + value

    out = {}
    for name, _ in PER_LAYER:
        if name in RATIOS:
            num, den = RATIOS[name]
            out[name] = totals.get(num, 0) / totals[den] if totals.get(den) else 0.0
        else:
            out[name] = statistics.median(per_round[r].get(name, 0) for r in rounds)
    out["cli.out_bytes"] = sum(out_bytes.values())
    # in calibration-kernel units, so that host speed drift between the halves cancels
    plain = statistics.median(r["rel"] for r in untraced)
    out["trace.overhead_ratio"] = statistics.median(r["rel"] for r in traced) / plain - 1.0
    roots = sum(own for own in selfs)
    out["trace.accounted_ratio"] = roots / sum(r["wall"] for r in traced)
    return out
