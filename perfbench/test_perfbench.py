"""Self-tests of the benchmark: span arithmetic, tracer restore, output checks.

Run from the root of the checkout:  python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
import stepldp  # noqa: E402
import stepldp.cli  # noqa: E402


def test_self_times_on_a_synthetic_tree():
    tree = [
        ("root", 0.0, 10.0, -1, "0.0"),
        ("a", 1.0, 4.0, 0, "0.0"),
        ("b", 3.0, 6.0, 0, "0.0"),  # overlaps a: the overlap counts once
        ("a.child", 2.0, 3.0, 1, "0.0"),
        ("late", 9.0, 12.0, 0, "0.0"),  # runs past the parent: clipped
        ("other", 20.0, 21.0, -1, "1.0"),
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0, 1.0])


def test_tracer_records_nested_spans_and_restores_every_binding():
    before = {name: getattr(stepldp.cli, name) for name in ("rate_J", "parse_weights", "main")}
    init = stepldp.graphon.LabeledGraph.__init__
    tracer = spans.Tracer(stepldp)
    with pytest.raises(RuntimeError):
        with tracer.installed():
            tracer.op = "0.0"
            assert stepldp.cli.rate_J is not before["rate_J"]
            stepldp.cli.parse_weights("1,2")
            stepldp.sample_block([3, 3], [[0.5, 0.1], [0.1, 0.5]], 0)
            raise RuntimeError("leave the block early")
    assert tracer.leftovers() == []
    for name, value in before.items():
        assert getattr(stepldp.cli, name) is value
    assert stepldp.graphon.LabeledGraph.__init__ is init
    names = [s[0] for s in tracer.spans]
    assert names == ["cli.parse_weights", "samplers.sample_block", "graphon.LabeledGraph"]
    assert tracer.spans[2][3] == 1  # the graph span is a child of the sampler span
    assert tracer.counters["0.0"]["samplers.sample_block.pairs"] == 15


def test_per_layer_reports_every_declared_metric():
    u = stepldp.make_step_graphon([0.5, 0.5], [[0.2, 0.4], [0.4, 0.2]])
    v = stepldp.make_step_graphon([1.0], [[0.3]])  # orders before u: search re-orients
    tracer = spans.Tracer(stepldp)
    with tracer.installed():
        tracer.op = "0.0"
        stepldp.cut_distance_search(u, v, restarts=2)
    root = tracer.spans[0]
    assert root[0] == "cutmetric.cut_distance_search" and root[3] == -1
    rounds = [{"wall": root[2] - root[1], "rel": 1.0, "ops": {}}]
    out = layers.per_layer(tracer, rounds, rounds, {"x": 5})
    assert set(out) == {name for name, _ in layers.PER_LAYER}
    assert out["cutmetric.cut_distance_search.calls"] == 1  # re-orientation folded
    assert out["trace.accounted_ratio"] == pytest.approx(1.0)


@pytest.fixture
def curve_op(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (op,) = workloads.build("density-curve", 7)
    return op


def test_checks_pass_on_real_output_and_fail_on_corrupted_output(curve_op):
    wall, res = worker.run_op(curve_op, stepldp)
    assert wall > 0.0
    assert worker.check_op(curve_op, res, None) == []
    first = (res.digest(), [])

    _, again = worker.run_op(curve_op, stepldp)
    assert worker.check_op(curve_op, again, first) == []

    report = json.loads(again.files["report.json"])
    exact = next(pt for pt in report["points"] if pt["method"] == "exact")
    exact["logprob"] += 1e-3
    again.files["report.json"] = json.dumps(report).encode()
    assert worker.check_op(curve_op, again, first)  # differs from the first run
    assert worker.check_op(curve_op, again, None)  # and from the reference

    again.stdout = "not a config line\n"
    assert any("resolved config" in p for p in worker.check_op(curve_op, again, None))
    again.rc = 1
    assert worker.check_op(curve_op, again, None)


def test_round_counts_each_op_in_the_kernel_times_around_it(tmp_path, monkeypatch):
    import calibrate

    monkeypatch.chdir(tmp_path)
    kernel_times = iter([1.0, 3.0, 2.0, 9.0])  # before op a, after a, after b, spare
    monkeypatch.setattr(calibrate, "kernel", lambda: next(kernel_times))
    walls = iter([4.0, 10.0])
    monkeypatch.setattr(worker, "run_op", lambda op, _: (next(walls), worker.Result(0, "", "")))
    ops = [workloads.Op(name, call=None, check=lambda res: []) for name in ("a", "b")]
    state = {"round": 0, "attempted": 0, "failures": [], "notes": [],
             "firsts": {}, "out_bytes": {}}
    (record,) = worker.run_rounds(ops, stepldp, 0.0, state)
    assert record["wall"] == 14.0 and record["cal"] == 5.0
    assert record["rel"] == pytest.approx(4.0 / 2.0 + 10.0 / 2.5)


def test_density_reference_matches_a_direct_sum():
    counts, p, r = [3, 4], [[0.6, 0.2], [0.2, 0.5]], 0.5
    pairs = reference.pair_classes(counts, p)
    law = [1.0]
    for q, m in pairs:
        law = [sum(law[s - e] * math.comb(m, e) * q ** e * (1 - q) ** (m - e)
                   for e in range(m + 1) if 0 <= s - e < len(law))
               for s in range(len(law) + m)]
    total = sum(m for _, m in pairs)
    direct = math.log(sum(x for s, x in enumerate(law) if s / total >= r))
    assert reference.density_ge_logprob(counts, p, r) == pytest.approx(direct, rel=1e-10)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert [w["why"] for w in spec["workloads"]] == [workloads.WHY[n] for n in workloads.NAMES]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
