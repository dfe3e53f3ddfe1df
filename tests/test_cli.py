import json
import math
import os

import numpy as np
import pytest

import stepldp.cli as cli
from stepldp.graphon import (
    graph_from_edgelist,
    graphon_to_json,
    make_step_graphon,
)
from stepldp.ldplab import block_density_rate, gnp_density_rate


def write_graphon(path, weights, values):
    u = make_step_graphon(weights, values)
    with open(path, "w") as fh:
        json.dump(graphon_to_json(u), fh)
    return str(path)


def first_line_config(out):
    line = out.splitlines()[0]
    obj = json.loads(line)
    assert set(obj) == {"command", "resolvedConfig"}
    # canonical form: sorted keys, no spaces
    assert line == json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return obj


class TestParseHelpers:
    def test_prob_matrix_forms(self, tmp_path):
        np.testing.assert_array_equal(cli.parse_prob_matrix("identity3"), np.eye(3))
        np.testing.assert_array_equal(cli.parse_prob_matrix("0.4"), [[0.4]])
        np.testing.assert_array_equal(
            cli.parse_prob_matrix("0.7,0.2;0.2,0.5"), [[0.7, 0.2], [0.2, 0.5]])
        pfile = tmp_path / "p.json"
        pfile.write_text("[[0.5,0.1],[0.1,0.5]]")
        np.testing.assert_array_equal(
            cli.parse_prob_matrix("@" + str(pfile)), [[0.5, 0.1], [0.1, 0.5]])

    def test_prob_matrix_rejections(self):
        for bad in ["identity0", "1.5", "0.5,0.2;0.3,0.5", "0.1,0.2,0.3", "pqr"]:
            with pytest.raises(cli.CliError):
                cli.parse_prob_matrix(bad)

    def test_prob_matrix_messages(self):
        for bad, message in [("0.1,0.2,0.3", "probability matrix must be square"),
                             ("0.5,0.2;0.3,0.5", "probability matrix must be symmetric"),
                             ("1.5", "probabilities must lie in [0, 1]")]:
            with pytest.raises(cli.CliError) as info:
                cli.parse_prob_matrix(bad)
            assert str(info.value) == message

    def test_sizes(self):
        assert cli.parse_sizes("12") == [12]
        assert cli.parse_sizes("6,10,14") == [6, 10, 14]
        assert cli.parse_sizes("4..32") == [4, 8, 16, 32]
        assert cli.parse_sizes("4..33") == [4, 8, 16, 32, 33]
        with pytest.raises(cli.CliError):
            cli.parse_sizes("8..4")
        with pytest.raises(cli.CliError):
            cli.parse_sizes("0")

    def test_event_ball_path_with_colons(self, tmp_path):
        path = write_graphon(tmp_path / "t.json", [1.0], [[0.5]])
        ev = cli.parse_event("ball:%s:0.3" % path)
        assert ev.kind == "ball" and ev.eta == 0.3

    def test_seed(self):
        assert cli.parse_seed("17") == 17
        for bad in (None, "-1", "x"):
            with pytest.raises(cli.CliError):
                cli.parse_seed(bad)


class TestSampleCommand:
    def test_happy_path(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = cli.main(["sample", "--model", "gnp:0.5", "--n", "10",
                       "--num-samples", "3", "--seed", "7",
                       "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        cfg = first_line_config(stdout)
        assert cfg["command"] == "sample"
        assert cfg["resolvedConfig"]["seed"] == 7
        assert cfg["resolvedConfig"]["num-samples"] == 3
        lines = stdout.splitlines()[1:]
        assert len(lines) == 3 and all(l.startswith("sample ") for l in lines)

        report = json.loads((out / "report.json").read_text())
        assert report["formatVersion"] == 1
        assert report["resolvedConfig"] == cfg["resolvedConfig"]
        assert len(report["samples"]) == 3
        for idx in range(3):
            text = (out / "samples" / ("sample_%03d.edges" % idx)).read_text()
            g = graph_from_edgelist(text)
            assert g.n == 10
            assert g.edge_count() == report["samples"][idx]["edges"]

    def test_distinct_samples_differ(self, tmp_path, capsys):
        out = tmp_path / "run"
        cli.main(["sample", "--model", "gnp:0.5", "--n", "12",
                  "--num-samples", "2", "--seed", "0", "--out", str(out)])
        capsys.readouterr()
        a = (out / "samples" / "sample_000.edges").read_text()
        b = (out / "samples" / "sample_001.edges").read_text()
        assert a != b

    def test_byte_identical_rerun(self, tmp_path, capsys):
        argv = ["sample", "--model", "block:1,1:0.9,0.1;0.1,0.6", "--n", "9",
                "--num-samples", "2", "--seed", "5", "--out", str(tmp_path / "o")]
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        snap = {p.name: p.read_bytes()
                for p in sorted((tmp_path / "o").rglob("*")) if p.is_file()}
        assert cli.main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        for p in sorted((tmp_path / "o").rglob("*")):
            if p.is_file():
                assert p.read_bytes() == snap[p.name]

    def test_zero_vertices_exit_before_the_config_line(self, capsys):
        for model in ["gnp:0.4", "block:1,1:0.9,0.1;0.1,0.6"]:
            rc = cli.main(["sample", "--model", model, "--n", "0", "--seed", "5"])
            assert rc == 2
            assert capsys.readouterr() == ("", "error: n must be positive\n")

    def test_seed_required(self, capsys):
        rc = cli.main(["sample", "--model", "gnp:0.5", "--n", "5"])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err

    def test_wrandom_model(self, tmp_path, capsys):
        path = write_graphon(tmp_path / "u.json", [0.5, 0.5],
                             [[0.9, 0.1], [0.1, 0.7]])
        rc = cli.main(["sample", "--model", "wrandom:" + path, "--n", "8",
                       "--seed", "1"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "sample 000" in stdout


    def test_malformed_matrix_file_exits_2(self, tmp_path, capsys):
        pfile = tmp_path / "p.json"
        for text in ['[[0.5],[0.1,0.2]]', '[["a"]]', '{"p": 1}']:
            pfile.write_text(text)
            rc = cli.main(["sample", "--model", "block:0.5,0.5:@%s" % pfile,
                           "--n", "10", "--seed", "1"])
            assert rc == 2
            assert "rows must have equal length" in capsys.readouterr().err


class TestDistanceCommand:
    def test_search_and_exact_modes(self, tmp_path, capsys):
        ua = write_graphon(tmp_path / "a.json", [0.5, 0.5],
                           [[0.9, 0.1], [0.1, 0.6]])
        ub = write_graphon(tmp_path / "b.json", [0.5, 0.5],
                           [[0.6, 0.1], [0.1, 0.9]])  # swapped blocks
        out = tmp_path / "o1"
        rc = cli.main(["distance", "--u", ua, "--v", ub, "--restarts", "16",
                       "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        cfg = first_line_config(stdout)
        assert cfg["resolvedConfig"]["seed"] == 0  # defaulted
        report = json.loads((out / "report.json").read_text())
        assert report["mode"] == "search"
        assert report["upper"] < 1e-9  # a permuted copy
        assert isinstance(report["witness"], list)

        rc = cli.main(["distance", "--u", ua, "--v", ub, "--exact"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "aligned cut norm" in stdout
        # without rearrangement the swapped copy is far away
        val = float(stdout.splitlines()[1].split(":")[1])
        assert val > 0.05

    def test_bad_file(self, tmp_path, capsys):
        rc = cli.main(["distance", "--u", str(tmp_path / "no.json"),
                       "--v", str(tmp_path / "no.json")])
        assert rc == 2

    def test_unexpected_error_exits_1(self, tmp_path, capsys, monkeypatch):
        ua = write_graphon(tmp_path / "a.json", [1.0], [[0.5]])

        def boom(*a, **k):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(cli, "cut_distance_search", boom)
        rc = cli.main(["distance", "--u", ua, "--v", ua])
        assert rc == 1
        assert "synthetic failure" in capsys.readouterr().err


    def test_exact_past_the_part_limit_exits_2(self, tmp_path, capsys):
        # two 12-part graphons with interleaved cuts refine into 23 parts
        rng = np.random.default_rng(5)
        paths = []
        for name in ("a", "b"):
            vals = rng.uniform(0.0, 1.0, (12, 12))
            paths.append(write_graphon(tmp_path / ("%s.json" % name),
                                       rng.dirichlet(np.ones(12)), (vals + vals.T) / 2.0))
        rc = cli.main(["distance", "--u", paths[0], "--v", paths[1], "--exact"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "at most 22 parts of the common refinement, got 23" in captured.err
        assert "drop --exact to search couplings" in captured.err
        # the search mode handles the same pair
        assert cli.main(["distance", "--u", paths[0], "--v", paths[1], "--restarts", "1"]) == 0


class TestRateCommand:
    def test_rate_J_two_clique(self, tmp_path, capsys):
        u = write_graphon(tmp_path / "u.json", [0.5, 0.5],
                          [[1.0, 0.0], [0.0, 1.0]])
        out = tmp_path / "o"
        rc = cli.main(["rate", "--p", "identity2", "--u", u,
                       "--alpha", "0.5,0.5", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[1].startswith("J = ")
        report = json.loads((out / "report.json").read_text())
        assert report["kind"] == "J"
        assert report["value"] <= 1e-9
        assert isinstance(report["witnessCoupling"], list)

    def test_rate_J_infinite(self, tmp_path, capsys):
        u = write_graphon(tmp_path / "u.json", [0.5, 0.5],
                          [[1.0, 0.0], [0.0, 1.0]])
        out = tmp_path / "o"
        rc = cli.main(["rate", "--p", "identity2", "--u", u,
                       "--alpha", "0.3,0.7", "--out", str(out)])
        assert rc == 0
        assert "J = inf" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["value"] == "inf"

    def test_rate_R_reports_witness(self, tmp_path, capsys):
        u = write_graphon(tmp_path / "u.json", [0.5, 0.5],
                          [[1.0, 0.0], [0.0, 1.0]])
        out = tmp_path / "o"
        rc = cli.main(["rate", "--p", "identity2", "--u", u, "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[1].startswith("R = ")
        witness = stdout.splitlines()[2]
        assert witness.startswith("witness alpha:")
        parts = [float(x) for x in witness.split(":")[1].split(",")]
        assert abs(sum(parts) - 1.0) < 1e-9
        # the witness fractions are the witness coupling's column sums
        report = json.loads((out / "report.json").read_text())
        cols = np.asarray(report["witnessCoupling"]).sum(axis=0)
        assert np.abs(np.asarray(report["witnessAlpha"]) - cols).max() <= 1e-12

    def test_alpha_size_mismatch(self, tmp_path, capsys):
        u = write_graphon(tmp_path / "u.json", [1.0], [[0.5]])
        rc = cli.main(["rate", "--p", "identity2", "--u", u,
                       "--alpha", "0.2,0.3,0.5"])
        assert rc == 2


class TestCouplingDemoCommand:
    def test_frozen_example(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["coupling-demo", "--counts-a", "3,3",
                       "--counts-b", "4,3", "--p", "0.5,0.5;0.5,0.5",
                       "--seed", "11", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        eps = float(stdout.splitlines()[1].split(":")[1])
        assert abs(eps - 1.0 / 6.0) < 1e-12
        assert "aligned subgraphs isomorphic: true" in stdout
        report = json.loads((out / "report.json").read_text())
        assert abs(report["bound"] - 1.0 / 3.0) < 1e-12
        assert report["alignedB"] == [0, 1, 2, 4, 5, 6]
        ga = graph_from_edgelist((out / "samples" / "graph_a.edges").read_text())
        gb = graph_from_edgelist((out / "samples" / "graph_b.edges").read_text())
        assert ga.n == 6 and gb.n == 7
        assert ga.edge_count() == report["edgesA"]
        assert gb.edge_count() == report["edgesB"]

    def test_block_count_mismatch(self, capsys):
        rc = cli.main(["coupling-demo", "--counts-a", "3,3",
                       "--counts-b", "4", "--p", "0.5", "--seed", "0"])
        assert rc == 2


class TestLdpCurveCommand:
    def test_exact_curve_with_artifacts(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["ldp-curve", "--model", "gnp:0.5",
                       "--event", "density-ge:0.8", "--n", "6,10",
                       "--method", "exact", "--seed", "0", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        cfg = first_line_config(stdout)
        assert cfg["resolvedConfig"]["method"] == "exact"
        assert "predicted rate:" in stdout

        csv = (out / "curve.csv").read_text().splitlines()
        assert csv[0] == "n,speed,logprob,normalized,stderrLog,samples,hits,method"
        assert len(csv) == 3
        row = csv[1].split(",")
        assert int(row[0]) == 6 and row[7] == "exact"
        float(row[2])  # logprob parses

        report = json.loads((out / "report.json").read_text())
        assert report["predictedRate"] == gnp_density_rate(0.5, 0.8)
        assert len(report["points"]) == 2

    def test_block_density_curve_predicts_its_rate(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["ldp-curve", "--model", "block:1,1:0.7,0.1;0.1,0.7",
                       "--event", "density-ge:0.55", "--n", "20,120",
                       "--method", "auto", "--seed", "0", "--out", str(out)])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert stdout.count("method=exact") == 2
        report = json.loads((out / "report.json").read_text())
        want = block_density_rate([0.5, 0.5], [[0.7, 0.1], [0.1, 0.7]], 0.55)
        assert report["predictedRate"] == want
        assert "predicted rate: %.8g\n" % want in stdout

    def test_exact_past_the_fft_cap_exits_2(self, capsys):
        rc = cli.main(["ldp-curve", "--model", "block:1,1:0.7,0.1;0.1,0.7",
                       "--event", "density-ge:0.55", "--n", "2050",
                       "--method", "exact", "--seed", "0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: exact density law: 2100225 free pairs exceed the FFT cap")
        assert "use tilted or mc" in err

    def test_exact_checks_every_size_before_the_config_line(self, capsys):
        # n=4 fits the FFT cap and n=2050 does not: nothing is computed or printed
        for method in ("exact", "enum"):
            rc = cli.main(["ldp-curve", "--model", "block:1,1:0.7,0.1;0.1,0.7",
                           "--event", "density-ge:0.55", "--n", "4,2050",
                           "--method", method, "--seed", "0"])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "exceed the FFT cap of 2097151 at n=2050" in captured.err
            assert "use tilted or mc" in captured.err

    def test_density_sizes_below_two_exit_before_the_config_line(self, tmp_path, capsys):
        u = write_graphon(tmp_path / "u.json", [0.5, 0.5], [[0.7, 0.1], [0.1, 0.7]])
        models = ["gnp:0.5", "block:1,1:0.7,0.1;0.1,0.7", "wrandom:%s" % u]
        for model in models:
            for method in ("auto", "exact", "enum", "tilted", "mc"):
                rc = cli.main(["ldp-curve", "--model", model, "--event", "density-ge:0.6",
                               "--n", "1,4", "--method", method, "--num-samples", "20",
                               "--seed", "0"])
                assert rc == 2, (model, method)
                captured = capsys.readouterr()
                assert captured.out == "", (model, method)
                if not (model.startswith("wrandom") and method == "tilted"):
                    assert "at least two vertices, got n=1" in captured.err

    def test_impossible_event_writes_inf(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = cli.main(["ldp-curve", "--model", "gnp:0.0",
                       "--event", "density-ge:0.5", "--n", "5",
                       "--method", "exact", "--seed", "0", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        csv = (out / "curve.csv").read_text().splitlines()
        assert csv[1].split(",")[2] == "-inf"
        report = json.loads((out / "report.json").read_text())
        assert report["points"][0]["logprob"] == "-inf"

    def test_ball_event_end_to_end(self, tmp_path, capsys):
        target = write_graphon(tmp_path / "t.json", [0.5, 0.5],
                               [[1.0, 0.0], [0.0, 1.0]])
        rc = cli.main(["ldp-curve", "--model", "gnp:0.5",
                       "--event", "ball:%s:0.4" % target, "--n", "4",
                       "--method", "enum", "--seed", "0"])
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "method=enum" in stdout
        # the predicted decay of hitting a two-clique shape from a fair
        # coin model is log(2)/2
        pred = float(stdout.splitlines()[-1].split(":")[1])
        assert abs(pred - math.log(2) / 2) < 1e-6

    def test_deterministic_stdout(self, capsys):
        argv = ["ldp-curve", "--model", "gnp:0.4",
                "--event", "density-ge:0.7", "--n", "10,14",
                "--method", "tilted", "--num-samples", "400", "--seed", "3"]
        assert cli.main(argv) == 0
        a = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == a

    def test_bad_method(self, capsys):
        rc = cli.main(["ldp-curve", "--model", "gnp:0.5",
                       "--event", "density-ge:0.8", "--n", "6",
                       "--method", "magic", "--seed", "0"])
        assert rc == 2


    def test_exact_rejects_ball_event(self, tmp_path, capsys):
        target = write_graphon(tmp_path / "t.json", [0.5, 0.5],
                               [[1.0, 0.0], [0.0, 1.0]])
        for model in ["gnp:0.5", "block:0.5,0.5:0.5,0.1;0.1,0.5"]:
            rc = cli.main(["ldp-curve", "--model", model,
                           "--event", "ball:%s:0.3" % target, "--n", "4",
                           "--method", "exact", "--seed", "0"])
            assert rc == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "density events only" in captured.err
            assert "enum" in captured.err
        # the wrandom exact law enumerates block counts, so it covers balls
        rc = cli.main(["ldp-curve", "--model", "wrandom:%s" % target,
                       "--event", "ball:%s:0.3" % target, "--n", "4",
                       "--method", "exact", "--seed", "0"])
        assert rc == 0
        assert "method=exact" in capsys.readouterr().out

    def test_tilted_rules_exit_before_the_config_line(self, tmp_path, capsys):
        target = write_graphon(tmp_path / "t.json", [0.5, 0.5],
                               [[1.0, 0.0], [0.0, 1.0]])
        # tilted sampling needs a fixed block layout and a density event
        cases = [("wrandom:%s" % target, "density-ge:0.8",
                  "tilted sampling requires a fixed block layout"),
                 ("gnp:0.5", "ball:%s:0.3" % target,
                  "tilted sampling handles density events only")]
        for model, event, message in cases:
            rc = cli.main(["ldp-curve", "--model", model, "--event", event, "--n", "6",
                           "--method", "tilted", "--seed", "0"])
            assert rc == 2
            assert capsys.readouterr() == ("", "error: %s\n" % message)


class TestConfigFile:
    def test_merge_and_precedence(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "gnp:0.5", "n": 8,
                                   "num-samples": 5, "seed": 2}))
        rc = cli.main(["sample", "--config", str(cfg), "--num-samples", "2"])
        assert rc == 0
        stdout = capsys.readouterr().out
        resolved = first_line_config(stdout)["resolvedConfig"]
        assert resolved["num-samples"] == 2  # flag beats config
        assert resolved["n"] == 8
        assert len(stdout.splitlines()) == 3

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "gnp:0.5", "n": 8, "seed": 2,
                                   "wat": 1}))
        rc = cli.main(["sample", "--config", str(cfg)])
        assert rc == 2
        assert "wat" in capsys.readouterr().err

    def test_jobs_flag_removed(self, tmp_path, capsys):
        rc = cli.main(["sample", "--model", "gnp:0.5", "--n", "6",
                       "--seed", "0", "--jobs", "4"])
        assert rc == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "gnp:0.5", "n": 6, "seed": 0,
                                   "jobs": 1}))
        capsys.readouterr()
        rc = cli.main(["sample", "--config", str(cfg)])
        assert rc == 2
        assert "jobs" in capsys.readouterr().err

    def test_wrong_type_exits_2_naming_the_flag(self, tmp_path, capsys):
        u = write_graphon(tmp_path / "u.json", [0.5, 0.5], [[0.9, 0.1], [0.1, 0.6]])
        curve = {"model": "gnp:0.5", "event": "density-ge:0.8", "n": 6, "seed": 0}
        cases = [
            ("distance", {"u": u, "v": u, "restarts": "many"}, "restarts must be an integer"),
            ("distance", {"u": u, "v": u, "restarts": None}, "restarts must be an integer"),
            ("sample", {"model": "gnp:0.5", "n": 6, "seed": 0, "num-samples": "x"},
             "num-samples must be an integer"),
            ("ldp-curve", dict(curve, **{"num-samples": "x"}), "num-samples must be an integer"),
            ("rate", {"p": "identity2", "u": u, "budget": "x"}, "budget must be an integer"),
            ("distance", {"u": u, "v": u, "exact": "false"},
             "exact must be true or false, got 'false'"),
            ("sample", {"model": "gnp:0.5", "n": 6.5, "seed": 0}, "n must be an integer"),
            ("sample", {"model": "gnp:0.5", "n": 6, "seed": True},
             "seed must be a nonnegative integer, got True"),
            ("distance", {"u": u, "v": u, "seed": None},
             "seed must be a nonnegative integer, got None"),
            ("rate", {"p": "identity2", "u": u, "seed": None},
             "seed must be a nonnegative integer, got None"),
        ]
        cfg = tmp_path / "cfg.json"
        for command, values, message in cases:
            cfg.write_text(json.dumps(values))
            assert cli.main([command, "--config", str(cfg)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: %s\n" % message

    def test_accepted_values_keep_their_echo(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "gnp:0.5", "n": "8", "num-samples": 2.0,
                                   "seed": "2"}))
        assert cli.main(["sample", "--config", str(cfg)]) == 0
        resolved = first_line_config(capsys.readouterr().out)["resolvedConfig"]
        assert (resolved["n"], resolved["num-samples"], resolved["seed"]) == (8, 2, 2)

        # text flags echo the value as given
        cfg.write_text(json.dumps({"model": "gnp:0.5", "event": "density-ge:0.8",
                                   "n": 12, "seed": 0, "method": "exact"}))
        assert cli.main(["ldp-curve", "--config", str(cfg)]) == 0
        stdout = capsys.readouterr().out
        assert first_line_config(stdout)["resolvedConfig"]["n"] == 12
        assert "n=12 " in stdout

    def test_exact_takes_json_booleans(self, tmp_path, capsys):
        u = write_graphon(tmp_path / "u.json", [0.5, 0.5], [[0.9, 0.1], [0.1, 0.6]])
        cfg = tmp_path / "cfg.json"
        for exact, mode in [(True, "aligned cut norm"), (False, "cut distance upper bound")]:
            cfg.write_text(json.dumps({"u": u, "v": u, "exact": exact}))
            assert cli.main(["distance", "--config", str(cfg)]) == 0
            stdout = capsys.readouterr().out
            assert first_line_config(stdout)["resolvedConfig"]["exact"] is exact
            assert stdout.splitlines()[1].startswith(mode)


class TestArgparseBehaviour:
    def test_unknown_flag_exits_2(self, capsys):
        assert cli.main(["sample", "--bogus", "1"]) == 2

    def test_missing_command_exits_2(self, capsys):
        assert cli.main([]) == 2


class TestInvalidInputExitsBeforeTheConfigLine:
    CURVE = ["ldp-curve", "--event", "density-ge:0.5", "--n", "10", "--model"]

    @pytest.mark.parametrize("argv, message", [
        (CURVE + ["block:nan,1:0.5,0.1;0.1,0.5"], "alpha must be finite"),
        (CURVE + ["block:inf,1:0.5,0.1;0.1,0.5"], "alpha must be finite"),
        (CURVE + ["block:1,1:nan,0.1;0.1,0.5"], "probabilities must be finite"),
        (CURVE + ["block:1,1,1:0.5,0.1;0.1,0.5"], "probability matrix must be 3x3, got (2, 2)"),
        (CURVE + ["gnp:1.5"], "probabilities must lie in [0, 1]"),
        (CURVE + ["block:0,0:identity2"], "alpha must have a positive finite sum"),
        (CURVE + ["block:1e308,1e308:identity2"], "alpha must have a positive finite sum"),
        (["rate", "--p", "identity2", "--u", "{t1}", "--alpha", "inf,1"],
         "weights must be finite"),
        (["rate", "--p", "identity2", "--u", "{t1}", "--alpha", "0.2,0.3,0.5"],
         "probability matrix must be 3x3, got (2, 2)"),
        (["ldp-curve", "--model", "gnp:0.5", "--event", "ball:{t1}:nan", "--n", "4"],
         "ball events need a target graphon and eta >= 0"),
        (["coupling-demo", "--counts-a", "3,-1", "--counts-b", "3,3", "--p", "identity2"],
         "block counts must be nonnegative"),
        (["coupling-demo", "--counts-a", "3,3", "--counts-b", "4,3", "--p", "0.5"],
         "probability matrix must be 2x2, got (1, 1)"),
        (["coupling-demo", "--counts-a", "0,0", "--counts-b", "4,3", "--p", "identity2"],
         "both graphs need at least one vertex"),
        (["ldp-curve", "--model", "gnp:0.4", "--event", "ball:{t1}:0.3", "--n", "3,8",
          "--method", "enum"],
         "event enumeration needs at most 21 undetermined pairs, got 28 at n=8"),
        (["ldp-curve", "--model", "wrandom:{t1}", "--event", "ball:{t1}:0.3", "--n", "8",
          "--method", "exact"],
         "event enumeration needs at most 21 undetermined pairs, got 28 at n=8"),
    ])
    def test_exits_2_with_the_validators_message(self, tmp_path, capsys, argv, message):
        t1 = write_graphon(tmp_path / "t1.json", [1.0], [[0.4]])
        argv = [arg.format(t1=t1) for arg in argv] + ["--seed", "0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)
