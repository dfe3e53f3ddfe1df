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
from typing import Callable, NamedTuple

import numpy as np

from .graphon import (_check_prob_matrix, _check_vertex_count, _check_weights, _load_json,
                      dump_edgelist, load_graphon, overlay_partitions)
from .cutmetric import EXACT_PART_LIMIT, aligned_cut_distance, cut_distance_search
from .rates import rate_J, rate_R
from .samplers import _check_counts, _check_coupled, coupled_block_sample
from .ldplab import (
    CURVE_COLUMNS,
    BlockFamily,
    EventSpec,
    GnpFamily,
    WRandomFamily,
    _curve,
    check_method,
    predicted_rate,
)

FORMAT_VERSION = 1

__all__ = ["main", "entry", "CliError"]


class CliError(Exception):
    """Invalid usage or invalid input files; exits with status 2."""


# ---------------------------------------------------------------------------
# small grammars shared by several subcommands


def _checked(check, *args, **kwargs):
    """``check(*args, **kwargs)``, its ValueError turned into a usage error."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        raise CliError(str(exc))


def _read(load, path):
    """``load(path)`` of a file reader, with every failure a usage error."""
    try:
        return _checked(load, path)
    except OSError as exc:
        raise CliError("cannot read %s: %s" % (path, exc))


def parse_prob_matrix(text):
    """Probability matrix grammar: identityK | scalar | rows | @file.json.

    "identity3" is the 3x3 identity; "0.4" the 1x1 matrix; rows use commas
    within a row and semicolons between rows ("0.7,0.2;0.2,0.5"); "@p.json"
    loads a JSON array of arrays.
    """
    text = text.strip()
    if text.startswith("@"):
        rows = _read(_load_json, text[1:])
    elif text.startswith("identity"):
        try:
            k = int(text[len("identity"):])
        except ValueError:
            raise CliError("bad identity size in %r" % text)
        if k < 1:
            raise CliError("identity size must be positive")
        rows = np.eye(k).tolist()
    else:
        try:
            rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
        except ValueError:
            raise CliError("bad probability matrix %r" % text)
    try:
        p = np.asarray(rows, dtype=float)
    except (TypeError, ValueError):
        raise CliError("probability matrix rows must have equal length "
                       "and hold only numbers")
    return _checked(_check_prob_matrix, p)


def _numbers(text, kind, what):
    """The comma-separated numbers of ``text``, each read by ``kind``."""
    try:
        return [kind(x) for x in text.split(",")]
    except ValueError:
        raise CliError("bad %s %r" % (what, text))


def parse_weights(text):
    return _checked(_check_weights, _numbers(text, float, "weight vector"), "weights")


def parse_counts(text):
    return _checked(_check_counts, _numbers(text, int, "count vector"))


def parse_graphon(path):
    """A step graphon JSON file, read by ``graphon.load_graphon``."""
    return _read(load_graphon, path)


def parse_model(text):
    """Model grammar: gnp:p | block:alpha:p | wrandom:file.json."""
    head, _, rest = text.partition(":")
    if head == "gnp":
        try:
            p = float(rest)
        except ValueError:
            raise CliError("gnp needs a probability, got %r" % rest)
        return _checked(GnpFamily, p)
    if head == "block":
        alpha_text, _, p_text = rest.partition(":")
        if not alpha_text or not p_text:
            raise CliError("block model grammar is block:<alpha>:<p>")
        alpha = tuple(_numbers(alpha_text, float, "weight vector"))
        p = tuple(tuple(row) for row in parse_prob_matrix(p_text).tolist())
        return _checked(BlockFamily, alpha, p)
    if head == "wrandom":
        if not rest:
            raise CliError("wrandom needs a graphon JSON file")
        return WRandomFamily(parse_graphon(rest))
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
    sizes = _numbers(text, int, "size list")
    if not sizes or any(n < 1 for n in sizes):
        raise CliError("sizes must be positive integers")
    return sizes


def parse_event(text):
    """Event grammar: density-ge:r | density-le:r | ball:file.json:eta."""
    head, _, rest = text.partition(":")
    if head in ("density-ge", "density-le"):
        try:
            spec = {"r": float(rest)}
        except ValueError:
            raise CliError("%s needs a threshold, got %r" % (head, rest))
    elif head == "ball":
        path, _, eta_text = rest.rpartition(":")
        if not path or not eta_text:
            raise CliError("ball event grammar is ball:<target.json>:<eta>")
        spec = {"target": parse_graphon(path)}
        try:
            spec["eta"] = float(eta_text)
        except ValueError:
            raise CliError("bad ball radius %r" % eta_text)
    else:
        raise CliError("unknown event %r (expected density-ge:, density-le:, or ball:)" % text)
    return _checked(EventSpec, head, **spec)


def _integer(name, minimum):
    """Parser of an integer flag that must be at least ``minimum`` (0 or 1).

    It takes an int, an integral float or integer text; bools and fractions
    are refused rather than rounded.
    """
    def parse(value):
        try:
            if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
                raise ValueError(value)
            n = int(value)
        except (TypeError, ValueError):
            raise CliError("%s must be an integer" % name)
        if n < minimum:
            raise CliError("%s must be %s" % (name, "positive" if minimum else "nonnegative"))
        return n
    return parse


def parse_seed(value):
    try:
        return _integer("seed", 0)(value)
    except CliError:
        raise CliError("seed must be a nonnegative integer, got %r" % (value,))


def _switch(name):
    """Parser of an on/off flag: only true or false."""
    def parse(value):
        if not isinstance(value, bool):
            raise CliError("%s must be true or false, got %r" % (name, value))
        return value
    return parse


# ---------------------------------------------------------------------------
# the flag tables: each flag of each subcommand is declared once


class Flag(NamedTuple):
    """One flag: argparse, --config merging and validation all read it.

    ``parse`` checks and normalises the merged value, whether it came from
    the command line or from the config file.  A text flag's parser gets
    the value as text, and the resolved config echoes the value as given; a
    scalar flag's parser gets the value itself (command-line text or the
    config file's JSON value, one parser for both), and the echo is the
    parsed number or switch.  ``argparse_kw`` holds extra add_argument
    keywords.
    """

    name: str
    help: str
    parse: Callable
    default: object = None
    required: bool = False
    scalar: bool = False
    argparse_kw: dict = {}


_MODEL = Flag("model", "gnp:p | block:<alpha>:<p> | wrandom:<graphon.json>", parse_model,
              required=True)
_SEED = Flag("seed", "RNG seed (required)", parse_seed, required=True, scalar=True)
_OUT = Flag("out", "directory for report.json and artifacts", str)


def resolve_config(command, args):
    """Merge defaults, the --config file, and explicit flags (flags win).

    Returns the resolved config, echoed on stdout and in the report, and
    the parsed value of every flag (None for a text flag with no value).
    """
    flags = COMMANDS[command].flags
    resolved = {flag.name: flag.default for flag in flags}
    if args.config:
        loaded = _read(_load_json, args.config)
        if not isinstance(loaded, dict):
            raise CliError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in resolved:
                raise CliError("config key %r is not a flag of %r" % (key, command))
            resolved[key] = value
    for flag in flags:
        value = getattr(args, flag.name.replace("-", "_"))
        if value is not None:
            resolved[flag.name] = value
    missing = [flag.name for flag in flags if flag.required and resolved[flag.name] is None]
    if missing:
        raise CliError("missing required flag(s): %s"
                       % ", ".join("--" + name for name in missing))
    values = {}
    for flag in flags:
        value = resolved[flag.name]
        if flag.scalar:
            values[flag.name] = resolved[flag.name] = flag.parse(value)
        else:
            values[flag.name] = None if value is None else flag.parse(str(value))
    return resolved, values


# ---------------------------------------------------------------------------
# output plumbing


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
        if obj.dtype.kind in "biu":  # tolist gives Python ints and bools already
            return obj.tolist()
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return _json_value(float(obj))
    return _json_value(obj)


def _canonical(obj):
    """The one canonical JSON line of obj: sorted keys, no spaces, a newline."""
    return json.dumps(_jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


def emit_config(command, resolved, stream):
    stream.write(_canonical({"command": command, "resolvedConfig": resolved}))


def _out_path(out_dir, name):
    """The relative path name under out_dir, its directory made."""
    path = os.path.join(out_dir, name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return path


def write_file(out_dir, name, text):
    """Write text to the relative path name under out_dir."""
    with open(_out_path(out_dir, name), "w") as fh:
        fh.write(text)


def write_report(out_dir, command, resolved, body, files=()):
    """Write report.json, and each (relative path, text) of ``files``, under out_dir."""
    for name, text in files:
        write_file(out_dir, name, text)
    report = {"formatVersion": FORMAT_VERSION, "command": command, "resolvedConfig": resolved}
    report.update(body)
    write_file(out_dir, "report.json", _canonical(report))


# ---------------------------------------------------------------------------
# subcommands: each gets the resolved config and the parsed flag values


def cmd_sample(resolved, values):
    family, n, count, seed = (values[k] for k in ("model", "n", "num-samples", "seed"))
    _checked(_check_vertex_count, n)
    emit_config("sample", resolved, sys.stdout)

    # each edge list is written as its graph is drawn, so one graph is held
    # at a time
    records = [_draw_sample(family, n, seed, idx, values["out"]) for idx in range(count)]
    if values["out"]:
        write_report(values["out"], "sample", resolved, {"samples": records})
    return 0


def _draw_sample(family, n, seed, idx, out_dir):
    """Draw sample idx of the seed, print its line, write its edge list
    under out_dir (if given) and return its report record."""
    graph, counts = family.draw(n, [seed, idx])
    record = {
        "index": idx,
        "n": graph.n,
        "edges": graph.edge_count(),
        "density": graph.density(),
        "blockCounts": [int(c) for c in counts],
    }
    sys.stdout.write("sample %03d: n=%d edges=%d density=%.6f\n"
                     % (idx, graph.n, graph.edge_count(), record["density"]))
    if out_dir:
        dump_edgelist(graph, _out_path(out_dir, "samples/sample_%03d.edges" % idx))
    return record


def cmd_distance(resolved, values):
    u, v = values["u"], values["v"]
    if values["exact"]:
        pieces = overlay_partitions(u.parts, v.parts)[0].size
        if pieces > EXACT_PART_LIMIT:
            raise CliError("--exact enumerates at most %d parts of the common refinement, "
                           "got %d; drop --exact to search couplings instead"
                           % (EXACT_PART_LIMIT, pieces))
    emit_config("distance", resolved, sys.stdout)

    if values["exact"]:
        value = aligned_cut_distance(u, v)
        body = {"mode": "aligned", "upper": value}
        sys.stdout.write("aligned cut norm: %.12g\n" % value)
    else:
        est = cut_distance_search(u, v, restarts=values["restarts"], seed=values["seed"])
        body = {"mode": "search"}
        body.update(est.to_json())
        sys.stdout.write("cut distance upper bound: %.12g (restarts %d)\n"
                         % (est.upper, est.restarts_used))
    if values["out"]:
        write_report(values["out"], "distance", resolved, body)
    return 0


def cmd_rate(resolved, values):
    p, u, alpha = values["p"], values["u"], values["alpha"]
    if alpha is not None:
        _checked(_check_prob_matrix, p, alpha.size)
    emit_config("rate", resolved, sys.stdout)

    budget, seed = values["budget"], values["seed"]
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
    if values["out"]:
        write_report(values["out"], "rate", resolved, body)
    return 0


def cmd_coupling_demo(resolved, values):
    counts_a, counts_b, p = values["counts-a"], values["counts-b"], values["p"]
    _checked(_check_coupled, counts_a, counts_b, p)
    emit_config("coupling-demo", resolved, sys.stdout)

    pair = coupled_block_sample(counts_a, counts_b, p, values["seed"])
    sys.stdout.write("epsilon: %.12g\n" % pair.epsilon)
    sys.stdout.write("certified distance bound: %.12g\n" % pair.bound)
    sys.stdout.write("aligned vertices: %d of %d and %d\n"
                     % (len(pair.aligned_a), pair.graph_a.n, pair.graph_b.n))
    sys.stdout.write("aligned subgraphs isomorphic: true\n")
    if values["out"]:
        for name, graph in (("graph_a", pair.graph_a), ("graph_b", pair.graph_b)):
            dump_edgelist(graph, _out_path(values["out"], "samples/%s.edges" % name))
        write_report(values["out"], "coupling-demo", resolved, {
            "epsilon": pair.epsilon,
            "bound": pair.bound,
            "alignedA": pair.aligned_a,
            "alignedB": pair.aligned_b,
            "edgesA": pair.graph_a.edge_count(),
            "edgesB": pair.graph_b.edge_count(),
        })
    return 0


def cmd_ldp_curve(resolved, values):
    family, event, method, seed = (values[k] for k in ("model", "event", "method", "seed"))
    methods = _checked(check_method, family, event, method, values["n"])
    emit_config("ldp-curve", resolved, sys.stdout)

    points = _checked(_curve, family, event, values["n"], methods, values["num-samples"], seed)
    predicted = predicted_rate(family, event, budget=16, seed=seed)
    for pt in points:
        sys.stdout.write(
            "n=%d speed=%d logprob=%.8g normalized=%.8g method=%s\n"
            % (pt["n"], pt["speed"], pt["logprob"], pt["normalized"], pt["method"])
        )
    if predicted is not None:
        sys.stdout.write("predicted rate: %s\n"
                         % ("inf" if math.isinf(predicted) else "%.8g" % predicted))
    if values["out"]:
        # str of a float is its repr, so the floats round-trip
        csv_lines = [",".join(CURVE_COLUMNS)]
        csv_lines += [",".join(str(pt[key]) for key in CURVE_COLUMNS) for pt in points]
        write_report(values["out"], "ldp-curve", resolved, {
            "points": points,
            "predictedRate": predicted,
        }, [("curve.csv", "\n".join(csv_lines) + "\n")])
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch


class Command(NamedTuple):
    run: Callable
    help: str
    flags: tuple  # every flag but --config, in --help order


COMMANDS = {
    "sample": Command(cmd_sample, "draw graphs from a model", (
        _MODEL,
        Flag("n", "number of vertices", _integer("n", 1), required=True, scalar=True),
        Flag("num-samples", "how many graphs to draw", _integer("num-samples", 1),
             default=1, scalar=True),
        _SEED,
        _OUT,
    )),
    "distance": Command(cmd_distance, "cut distance between two step graphons", (
        Flag("u", "first graphon JSON file", parse_graphon, required=True),
        Flag("v", "second graphon JSON file", parse_graphon, required=True),
        Flag("restarts", "search restarts", _integer("restarts", 1), default=64, scalar=True),
        Flag("seed", "search seed (default 0)", parse_seed, default=0, scalar=True),
        Flag("exact", "aligned cut norm on the common refinement, no rearrangement search",
             _switch("exact"), default=False, scalar=True,
             argparse_kw={"action": "store_const", "const": True}),
        _OUT,
    )),
    "rate": Command(cmd_rate, "entropy rate functionals J and R", (
        Flag("p", "probability matrix (identityK | scalar | rows | @file)", parse_prob_matrix,
             required=True),
        Flag("u", "target graphon JSON file", parse_graphon, required=True),
        Flag("alpha", "block fractions; if omitted, minimize over them", parse_weights),
        Flag("budget", "optimizer restarts", _integer("budget", 1), default=64, scalar=True),
        Flag("seed", "optimizer seed (default 0)", parse_seed, default=0, scalar=True),
        _OUT,
    )),
    "coupling-demo": Command(cmd_coupling_demo, "coupled block samples sharing aligned coins", (
        Flag("counts-a", "block counts of the first graph, e.g. 3,3", parse_counts,
             required=True),
        Flag("counts-b", "block counts of the second graph", parse_counts, required=True),
        Flag("p", "probability matrix", parse_prob_matrix, required=True),
        _SEED,
        _OUT,
    )),
    "ldp-curve": Command(cmd_ldp_curve, "decay of -log P(event) across sizes", (
        _MODEL,
        Flag("event", "density-ge:r | density-le:r | ball:<target.json>:<eta>", parse_event,
             required=True),
        Flag("n", "sizes: single, comma list, or lo..hi doubling range", parse_sizes,
             required=True),
        Flag("method", "auto | exact | enum | tilted | mc", str, default="auto"),
        Flag("num-samples", "samples per point for mc/tilted", _integer("num-samples", 1),
             default=10000, scalar=True),
        _SEED,
        _OUT,
    )),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stepldp",
        description="Block-model and step-graphon sampling, cut distances, "
                    "entropy rate functions, and rare-event decay curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            if flag is _OUT:  # --help lists --config just before --out
                sp.add_argument("--config", help="JSON file of flag defaults")
            sp.add_argument("--" + flag.name, help=flag.help, **flag.argparse_kw)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        resolved, values = resolve_config(args.command, args)
        return COMMANDS[args.command].run(resolved, values)
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


if __name__ == "__main__":
    entry()
