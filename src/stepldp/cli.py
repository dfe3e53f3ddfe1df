"""Command-line interface: sample, distance, rate, coupling-demo, ldp-curve.

Every invocation first prints one JSON line with the fully resolved
configuration (defaults, config-file entries, and flags merged, flags
winning), then its results; given the same arguments and seed, both the
stdout stream and every artifact written under --out are byte for byte
identical across runs.  Exit codes: 0 on success, 2 on invalid usage or
inputs, 1 on runtime failures.

Artifact layout under --out: report.json always; curve.csv for ldp-curve;
samples/*.edges for the samplers.  Every report embeds the resolved
configuration and a formatVersion marker.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .graphon import _check_prob_matrix, graph_to_edgelist, load_graphon
from .cutmetric import aligned_cut_distance, cut_distance_search
from .rates import rate_J, rate_R
from .samplers import coupled_block_sample, sample_block, sample_wrandom
from .ldplab import (
    BlockFamily,
    EventSpec,
    GnpFamily,
    WRandomFamily,
    gnp_density_rate,
    ldp_curve,
)

FORMAT_VERSION = 1

__all__ = ["main", "entry", "CliError"]


class CliError(Exception):
    """Invalid usage or invalid input files; exits with status 2."""


# ---------------------------------------------------------------------------
# small grammars shared by several subcommands


def parse_prob_matrix(text):
    """Probability matrix grammar: identityK | scalar | rows | @file.json.

    "identity3" is the 3x3 identity; "0.4" the 1x1 matrix; rows use commas
    within a row and semicolons between rows ("0.7,0.2;0.2,0.5"); "@p.json"
    loads a JSON array of arrays.
    """
    text = text.strip()
    if text.startswith("@"):
        try:
            with open(text[1:]) as fh:
                rows = json.load(fh)
        except OSError as exc:
            raise CliError("cannot read %s: %s" % (text[1:], exc))
        except json.JSONDecodeError as exc:
            raise CliError("%s: not valid JSON (%s)" % (text[1:], exc))
    elif text.startswith("identity"):
        try:
            k = int(text[len("identity"):])
        except ValueError:
            raise CliError("bad identity size in %r" % text)
        if k < 1:
            raise CliError("identity size must be positive")
        rows = np.eye(k).tolist()
    elif ";" in text or "," in text:
        try:
            rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
        except ValueError:
            raise CliError("bad probability matrix %r" % text)
    else:
        try:
            rows = [[float(text)]]
        except ValueError:
            raise CliError("bad probability matrix %r" % text)
    try:
        p = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise CliError("probability matrix rows must have equal length "
                       "and hold only numbers")
    try:
        return _check_prob_matrix(p)
    except ValueError as exc:
        raise CliError(str(exc))


def parse_weights(text):
    try:
        w = [float(x) for x in text.split(",")]
    except ValueError:
        raise CliError("bad weight vector %r" % text)
    if not w or any(x < 0 for x in w) or sum(w) <= 0:
        raise CliError("weights must be nonnegative with a positive sum")
    return np.asarray(w, dtype=float)


def parse_counts(text):
    try:
        c = [int(x) for x in text.split(",")]
    except ValueError:
        raise CliError("bad count vector %r" % text)
    if not c or any(x < 0 for x in c):
        raise CliError("counts must be nonnegative integers")
    return np.asarray(c, dtype=int)


def parse_model(text):
    """Model grammar: gnp:p | block:alpha:p | wrandom:file.json."""
    head, _, rest = text.partition(":")
    if head == "gnp":
        try:
            p = float(rest)
        except ValueError:
            raise CliError("gnp needs a probability, got %r" % rest)
        if not 0.0 <= p <= 1.0:
            raise CliError("gnp probability must lie in [0, 1]")
        return GnpFamily(p)
    if head == "block":
        alpha_text, _, p_text = rest.partition(":")
        if not alpha_text or not p_text:
            raise CliError("block model grammar is block:<alpha>:<p>")
        alpha = parse_weights(alpha_text)
        p = parse_prob_matrix(p_text)
        if p.shape[0] != alpha.size:
            raise CliError("alpha has %d blocks but p is %dx%d"
                           % (alpha.size, p.shape[0], p.shape[0]))
        return BlockFamily(alpha=tuple(alpha.tolist()),
                           p=tuple(tuple(row) for row in p.tolist()))
    if head == "wrandom":
        if not rest:
            raise CliError("wrandom needs a graphon JSON file")
        try:
            u = load_graphon(rest)
        except OSError as exc:
            raise CliError("cannot read %s: %s" % (rest, exc))
        except ValueError as exc:
            raise CliError(str(exc))
        return WRandomFamily(u)
    raise CliError("unknown model %r (expected gnp:, block:, or wrandom:)" % text)


def parse_sizes(text):
    """Size grammar: "n", "a,b,c", or "lo..hi" (doubling, capped at hi)."""
    text = text.strip()
    if ".." in text:
        lo_text, _, hi_text = text.partition("..")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise CliError("bad size range %r" % text)
        if lo < 1 or hi < lo:
            raise CliError("size range needs 1 <= lo <= hi")
        sizes = []
        n = lo
        while n < hi:
            sizes.append(n)
            n *= 2
        sizes.append(hi)
        return sizes
    try:
        sizes = [int(x) for x in text.split(",")]
    except ValueError:
        raise CliError("bad size list %r" % text)
    if not sizes or any(n < 1 for n in sizes):
        raise CliError("sizes must be positive integers")
    return sizes


def parse_event(text):
    """Event grammar: density-ge:r | density-le:r | ball:file.json:eta."""
    head, _, rest = text.partition(":")
    if head in ("density-ge", "density-le"):
        try:
            r = float(rest)
        except ValueError:
            raise CliError("%s needs a threshold, got %r" % (head, rest))
        try:
            return EventSpec(head, r=r)
        except ValueError as exc:
            raise CliError(str(exc))
    if head == "ball":
        path, _, eta_text = rest.rpartition(":")
        if not path or not eta_text:
            raise CliError("ball event grammar is ball:<target.json>:<eta>")
        try:
            target = load_graphon(path)
        except OSError as exc:
            raise CliError("cannot read %s: %s" % (path, exc))
        except ValueError as exc:
            raise CliError(str(exc))
        try:
            eta = float(eta_text)
        except ValueError:
            raise CliError("bad ball radius %r" % eta_text)
        try:
            return EventSpec("ball", target=target, eta=eta)
        except ValueError as exc:
            raise CliError(str(exc))
    raise CliError("unknown event %r (expected density-ge:, density-le:, or ball:)" % text)


def parse_seed(value):
    if value is None:
        return None
    try:
        seed = int(value)
    except (TypeError, ValueError):
        raise CliError("seed must be a nonnegative integer, got %r" % (value,))
    if seed < 0:
        raise CliError("seed must be a nonnegative integer, got %r" % (value,))
    return seed


# ---------------------------------------------------------------------------
# config resolution and output plumbing


DEFAULTS = {
    "sample": {"num-samples": 1, "out": None},
    "distance": {"restarts": 64, "seed": 0, "exact": False, "out": None},
    "rate": {"alpha": None, "budget": 64, "seed": 0, "out": None},
    "coupling-demo": {"out": None},
    "ldp-curve": {"method": "auto", "num-samples": 10000, "out": None},
}

REQUIRED = {
    "sample": ["model", "n", "seed"],
    "distance": ["u", "v"],
    "rate": ["p", "u"],
    "coupling-demo": ["counts-a", "counts-b", "p", "seed"],
    "ldp-curve": ["model", "event", "n", "seed"],
}


def resolve_config(command, args, flag_names):
    """Merge defaults, the --config file, and explicit flags (flags win)."""
    resolved = dict(DEFAULTS[command])
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise CliError("cannot read %s: %s" % (config_path, exc))
        except json.JSONDecodeError as exc:
            raise CliError("%s: not valid JSON (%s)" % (config_path, exc))
        if not isinstance(loaded, dict):
            raise CliError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in flag_names:
                raise CliError("config key %r is not a flag of %r" % (key, command))
            resolved[key] = value
    for name in flag_names:
        value = getattr(args, name.replace("-", "_"))
        if value is not None:
            resolved[name] = value
    missing = [name for name in REQUIRED[command] if resolved.get(name) is None]
    if missing:
        raise CliError("missing required flag(s): %s"
                       % ", ".join("--" + name for name in missing))
    return resolved


def _json_value(x):
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
    return x


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _json_value(float(obj))
    return _json_value(obj)


def emit_config(command, resolved, stream):
    payload = {"command": command, "resolvedConfig": _jsonable(resolved)}
    stream.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def write_report(out_dir, command, resolved, body):
    report = {
        "formatVersion": FORMAT_VERSION,
        "command": command,
        "resolvedConfig": _jsonable(resolved),
    }
    report.update(_jsonable(body))
    path = os.path.join(out_dir, "report.json")
    with open(path, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n")


def ensure_out(resolved):
    out = resolved.get("out")
    if out is None:
        return None
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_sample(args):
    flags = ["model", "n", "num-samples", "seed", "out"]
    resolved = resolve_config("sample", args, flags)
    family = parse_model(str(resolved["model"]))
    try:
        n = int(resolved["n"])
    except (TypeError, ValueError):
        raise CliError("n must be an integer")
    if n < 0:
        raise CliError("n must be nonnegative")
    count = int(resolved["num-samples"])
    if count < 1:
        raise CliError("num-samples must be positive")
    seed = parse_seed(resolved["seed"])
    resolved.update({"n": n, "num-samples": count, "seed": seed})
    emit_config("sample", resolved, sys.stdout)

    out = ensure_out(resolved)
    records = []
    graphs = []
    for idx in range(count):
        sample_seed = [seed, idx]
        if isinstance(family, WRandomFamily):
            drawn = sample_wrandom(n, family.u, sample_seed)
            graph, counts = drawn.graph, drawn.counts
        else:
            counts_vec, pmat = family.counts_for(n)
            graph = sample_block(counts_vec, pmat, sample_seed)
            counts = counts_vec
        graphs.append(graph)
        records.append({
            "index": idx,
            "n": graph.n,
            "edges": graph.edge_count(),
            "density": graph.density() if graph.n > 1 else 0.0,
            "blockCounts": [int(c) for c in counts],
        })
        sys.stdout.write("sample %03d: n=%d edges=%d density=%.6f\n"
                         % (idx, graph.n, graph.edge_count(),
                            records[-1]["density"]))
    if out:
        sample_dir = os.path.join(out, "samples")
        os.makedirs(sample_dir, exist_ok=True)
        for idx, graph in enumerate(graphs):
            with open(os.path.join(sample_dir, "sample_%03d.edges" % idx), "w") as fh:
                fh.write(graph_to_edgelist(graph))
        write_report(out, "sample", resolved, {"samples": records})
    return 0


def cmd_distance(args):
    flags = ["u", "v", "restarts", "seed", "exact", "out"]
    resolved = resolve_config("distance", args, flags)
    try:
        u = load_graphon(str(resolved["u"]))
        v = load_graphon(str(resolved["v"]))
    except OSError as exc:
        raise CliError("cannot read graphon: %s" % exc)
    except ValueError as exc:
        raise CliError(str(exc))
    seed = parse_seed(resolved["seed"])
    restarts = int(resolved["restarts"])
    if restarts < 1:
        raise CliError("restarts must be positive")
    resolved.update({"seed": seed, "restarts": restarts, "exact": bool(resolved["exact"])})
    emit_config("distance", resolved, sys.stdout)

    if resolved["exact"]:
        value = aligned_cut_distance(u, v)
        body = {"mode": "aligned", "upper": value}
        sys.stdout.write("aligned cut norm: %.12g\n" % value)
    else:
        est = cut_distance_search(u, v, restarts=restarts, seed=seed)
        body = {"mode": "search", "upper": est.upper,
                "restartsUsed": est.restarts_used,
                "witness": _jsonable(est.to_json()["witness"])}
        sys.stdout.write("cut distance upper bound: %.12g (restarts %d)\n"
                         % (est.upper, est.restarts_used))
    out = ensure_out(resolved)
    if out:
        write_report(out, "distance", resolved, body)
    return 0


def cmd_rate(args):
    flags = ["p", "u", "alpha", "budget", "seed", "out"]
    resolved = resolve_config("rate", args, flags)
    p = parse_prob_matrix(str(resolved["p"]))
    try:
        u = load_graphon(str(resolved["u"]))
    except OSError as exc:
        raise CliError("cannot read graphon: %s" % exc)
    except ValueError as exc:
        raise CliError(str(exc))
    seed = parse_seed(resolved["seed"])
    budget = int(resolved["budget"])
    if budget < 1:
        raise CliError("budget must be positive")
    alpha = None
    if resolved["alpha"] is not None:
        alpha = parse_weights(str(resolved["alpha"]))
        if alpha.size != p.shape[0]:
            raise CliError("alpha has %d blocks but p is %dx%d"
                           % (alpha.size, p.shape[0], p.shape[0]))
    resolved.update({"seed": seed, "budget": budget})
    emit_config("rate", resolved, sys.stdout)

    if alpha is not None:
        report = rate_J(alpha, p, u, budget=budget, seed=seed)
        kind = "J"
    else:
        report = rate_R(p, u, budget=budget, seed=seed)
        kind = "R"
    body = {"kind": kind}
    body.update(report.to_json())
    value_text = "inf" if not report.is_finite else "%.12g" % report.value
    sys.stdout.write("%s = %s (budget used %d)\n" % (kind, value_text, report.budget_used))
    if kind == "R" and report.witness_alpha is not None:
        sys.stdout.write("witness alpha: %s\n"
                         % ",".join("%.12g" % x for x in report.witness_alpha.weights))
    out = ensure_out(resolved)
    if out:
        write_report(out, "rate", resolved, body)
    return 0


def cmd_coupling_demo(args):
    flags = ["counts-a", "counts-b", "p", "seed", "out"]
    resolved = resolve_config("coupling-demo", args, flags)
    counts_a = parse_counts(str(resolved["counts-a"]))
    counts_b = parse_counts(str(resolved["counts-b"]))
    p = parse_prob_matrix(str(resolved["p"]))
    if counts_a.size != counts_b.size:
        raise CliError("count vectors must have the same number of blocks")
    if p.shape[0] != counts_a.size:
        raise CliError("p is %dx%d but there are %d blocks"
                       % (p.shape[0], p.shape[0], counts_a.size))
    seed = parse_seed(resolved["seed"])
    resolved.update({"seed": seed})
    emit_config("coupling-demo", resolved, sys.stdout)

    try:
        pair = coupled_block_sample(counts_a, counts_b, p, seed)
    except ValueError as exc:
        raise CliError(str(exc))
    sys.stdout.write("epsilon: %.12g\n" % pair.epsilon)
    sys.stdout.write("certified distance bound: %.12g\n" % pair.bound)
    sys.stdout.write("aligned vertices: %d of %d and %d\n"
                     % (len(pair.aligned_a), pair.graph_a.n, pair.graph_b.n))
    sys.stdout.write("aligned subgraphs isomorphic: true\n")
    out = ensure_out(resolved)
    if out:
        sample_dir = os.path.join(out, "samples")
        os.makedirs(sample_dir, exist_ok=True)
        with open(os.path.join(sample_dir, "graph_a.edges"), "w") as fh:
            fh.write(graph_to_edgelist(pair.graph_a))
        with open(os.path.join(sample_dir, "graph_b.edges"), "w") as fh:
            fh.write(graph_to_edgelist(pair.graph_b))
        write_report(out, "coupling-demo", resolved, {
            "epsilon": pair.epsilon,
            "bound": pair.bound,
            "alignedA": [int(x) for x in pair.aligned_a],
            "alignedB": [int(x) for x in pair.aligned_b],
            "edgesA": pair.graph_a.edge_count(),
            "edgesB": pair.graph_b.edge_count(),
        })
    return 0


def _predicted_rate(family, event, budget, seed):
    """Model-predicted decay rate for the event, when one is computable."""
    if event.is_density and isinstance(family, GnpFamily):
        return gnp_density_rate(family.p, event.r, event.kind)
    if event.kind == "ball":
        if isinstance(family, GnpFamily):
            rep = rate_J([1.0], np.array([[family.p]]), event.target,
                         budget=budget, seed=seed)
        elif isinstance(family, BlockFamily):
            rep = rate_J(np.asarray(family.alpha), np.asarray(family.p),
                         event.target, budget=budget, seed=seed)
        else:
            rep = rate_R(family.u.values, event.target, budget=budget, seed=seed)
        return rep.value
    return None


def cmd_ldp_curve(args):
    flags = ["model", "event", "n", "method", "num-samples", "seed", "out"]
    resolved = resolve_config("ldp-curve", args, flags)
    family = parse_model(str(resolved["model"]))
    event = parse_event(str(resolved["event"]))
    sizes = parse_sizes(str(resolved["n"]))
    method = str(resolved["method"])
    if method not in ("auto", "exact", "enum", "tilted", "mc"):
        raise CliError("method must be auto, exact, enum, tilted, or mc")
    if method == "exact" and not event.is_density and not isinstance(family, WRandomFamily):
        raise CliError("method exact covers density events only; "
                       "use enum or mc for ball events")
    num_samples = int(resolved["num-samples"])
    if num_samples < 1:
        raise CliError("num-samples must be positive")
    seed = parse_seed(resolved["seed"])
    resolved.update({"num-samples": num_samples, "seed": seed, "method": method})
    emit_config("ldp-curve", resolved, sys.stdout)

    try:
        points = ldp_curve(family, event, sizes, method=method,
                           num_samples=num_samples, seed=seed)
    except ValueError as exc:
        raise CliError(str(exc))
    predicted = _predicted_rate(family, event, budget=16, seed=seed)
    for pt in points:
        sys.stdout.write(
            "n=%d speed=%d logprob=%.8g normalized=%.8g method=%s\n"
            % (pt["n"], pt["speed"], pt["logprob"], pt["normalized"], pt["method"])
        )
    if predicted is not None:
        sys.stdout.write("predicted rate: %s\n"
                         % ("inf" if math.isinf(predicted) else "%.8g" % predicted))
    out = ensure_out(resolved)
    if out:
        csv_lines = ["n,speed,logprob,normalized,stderrLog,samples,hits,method"]
        for pt in points:
            csv_lines.append("%d,%d,%r,%r,%r,%d,%d,%s" % (
                pt["n"], pt["speed"], pt["logprob"], pt["normalized"],
                pt["stderrLog"], pt["samples"], pt["hits"], pt["method"]))
        with open(os.path.join(out, "curve.csv"), "w") as fh:
            fh.write("\n".join(csv_lines) + "\n")
        write_report(out, "ldp-curve", resolved, {
            "points": points,
            "predictedRate": predicted,
        })
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stepldp",
        description="Block-model and step-graphon sampling, cut distances, "
                    "entropy rate functions, and rare-event decay curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="JSON file of flag defaults")
        sp.add_argument("--out", help="directory for report.json and artifacts")

    sp = sub.add_parser("sample", help="draw graphs from a model")
    sp.add_argument("--model", help="gnp:p | block:<alpha>:<p> | wrandom:<graphon.json>")
    sp.add_argument("--n", help="number of vertices")
    sp.add_argument("--num-samples", type=int, help="how many graphs to draw")
    sp.add_argument("--seed", help="RNG seed (required)")
    add_common(sp)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("distance", help="cut distance between two step graphons")
    sp.add_argument("--u", help="first graphon JSON file")
    sp.add_argument("--v", help="second graphon JSON file")
    sp.add_argument("--restarts", type=int, help="search restarts")
    sp.add_argument("--seed", help="search seed (default 0)")
    sp.add_argument("--exact", action="store_const", const=True,
                    help="aligned cut norm on the common refinement, no rearrangement search")
    add_common(sp)
    sp.set_defaults(func=cmd_distance)

    sp = sub.add_parser("rate", help="entropy rate functionals J and R")
    sp.add_argument("--p", help="probability matrix (identityK | scalar | rows | @file)")
    sp.add_argument("--u", help="target graphon JSON file")
    sp.add_argument("--alpha", help="block fractions; if omitted, minimize over them")
    sp.add_argument("--budget", type=int, help="optimizer restarts")
    sp.add_argument("--seed", help="optimizer seed (default 0)")
    add_common(sp)
    sp.set_defaults(func=cmd_rate)

    sp = sub.add_parser("coupling-demo", help="coupled block samples sharing aligned coins")
    sp.add_argument("--counts-a", help="block counts of the first graph, e.g. 3,3")
    sp.add_argument("--counts-b", help="block counts of the second graph")
    sp.add_argument("--p", help="probability matrix")
    sp.add_argument("--seed", help="RNG seed (required)")
    add_common(sp)
    sp.set_defaults(func=cmd_coupling_demo)

    sp = sub.add_parser("ldp-curve", help="decay of -log P(event) across sizes")
    sp.add_argument("--model", help="gnp:p | block:<alpha>:<p> | wrandom:<graphon.json>")
    sp.add_argument("--event", help="density-ge:r | density-le:r | ball:<target.json>:<eta>")
    sp.add_argument("--n", help="sizes: single, comma list, or lo..hi doubling range")
    sp.add_argument("--method", help="auto | exact | enum | tilted | mc")
    sp.add_argument("--num-samples", type=int, help="samples per point for mc/tilted")
    sp.add_argument("--seed", help="RNG seed (required)")
    add_common(sp)
    sp.set_defaults(func=cmd_ldp_curve)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except BrokenPipeError:
        return 1
    except Exception as exc:  # runtime failures distinct from bad usage
        sys.stderr.write("error: %s\n" % exc)
        return 1


def entry():
    sys.exit(main())
