import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from test_samplers import _traced_peak_mib

import stepldp.cli as cli
from stepldp import ldplab
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

    def test_memory_holds_one_graph_at_a_time(self, tmp_path, monkeypatch, capsys):
        """Each edge list is written as its graph is drawn, so the traced peak
        with four samples stays within 1.3 times the peak with one."""
        monkeypatch.chdir(tmp_path)
        codes = []

        def peak(count):
            argv = ["sample", "--model", "gnp:0.35", "--n", "2000", "--seed", "1",
                    "--num-samples", str(count), "--out", "o%d" % count]
            return _traced_peak_mib(lambda: codes.append(cli.main(argv)))

        one, four = peak(1), peak(4)
        assert codes == [0, 0]
        assert four <= 1.3 * one
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == lines[3]  # the first sample of each run
        assert ((tmp_path / "o1" / "samples" / "sample_000.edges").read_bytes()
                == (tmp_path / "o4" / "samples" / "sample_000.edges").read_bytes())
        assert len(list((tmp_path / "o4" / "samples").iterdir())) == 4

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


class TestFrozenSamplingArtifacts:
    """sha256 of every file the sampling commands write at fixed seeds.

    Recorded before the sampler compared its coins in chunks and the edge
    lists were gathered from byte labels: any change to a coin, an edge or
    a byte of the report shows here.
    """

    @pytest.mark.parametrize("argv, digests", [
        (["sample", "--model", "block:0.55,0.45:0.45,0.25;0.25,0.4", "--n", "2000",
          "--seed", "7"], {
            "report.json": "9da2114f779dc6069bb7e094c89fc743894145fa0a20793e7219c830d488ae5f",
            "samples/sample_000.edges":
                "49d1a36ed90539b1c6a528b953d9c86e8147005d77631897e4fafb70edc42111",
        }),
        (["coupling-demo", "--counts-a", "600,590", "--counts-b", "588,607",
          "--p", "0.45,0.25;0.25,0.4", "--seed", "7"], {
            "report.json": "3c6babd262fe858adea0b116842d9d15f0c47bc29572cf0621bbeeb9270f0ceb",
            "samples/graph_a.edges":
                "faafb8cf952a63aa79fa395cd1a0eaef14172a6a2d694df5a2be35a8265287ad",
            "samples/graph_b.edges":
                "a2132250fafa8f524539e05d6d8e51c338e19571af4f29c01f5bbf52848706c5",
        }),
    ])
    def test_digests(self, tmp_path, monkeypatch, capsys, argv, digests):
        monkeypatch.chdir(tmp_path)  # the report echoes --out, so it is relative
        assert cli.main(argv + ["--out", "out"]) == 0
        out = tmp_path / "out"
        got = {path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.rglob("*") if path.is_file()}
        assert got == digests


class TestFrozenCommandOutputs:
    """sha256 of stdout and of every --out file of distance, rate and ldp-curve.

    The inputs are written under relative names in a fresh working
    directory, so the echoed config is the same wherever the test runs: any
    change to a printed number, a report byte or a curve row shows here.
    """

    GRAPHONS = {
        "u.json": {"weights": [0.5, 0.5], "values": [[0.7, 0.2], [0.2, 0.5]]},
        "v.json": {"weights": [0.3, 0.3, 0.4],
                   "values": [[0.6, 0.1, 0.3], [0.1, 0.4, 0.2], [0.3, 0.2, 0.5]]},
        "t.json": {"weights": [1.0], "values": [[0.5]]},
    }

    @pytest.mark.parametrize("argv, digests", [
        (["distance", "--u", "u.json", "--v", "v.json", "--restarts", "8", "--seed", "3"], {
            "stdout": "34af8a9ff4b6e97b37ea5e402725d2feaabef5adc5875b75da329eb3397945dd",
            "report.json": "b00af0f611065795e964954e04340f42f29ca45e01ccc53e4ba99355c7c158d9",
        }),
        (["distance", "--u", "u.json", "--v", "v.json", "--exact"], {
            "stdout": "cf6355e7881b8a6052677df6ebbe4ff465521b5aeac9a88c2683ea26b4472653",
            "report.json": "c10aec2c8fe383465b9393e9ae93dcb20a707c4c7a570322eedb694569100109",
        }),
        (["rate", "--p", "0.7,0.2;0.2,0.5", "--u", "v.json", "--alpha", "0.5,0.5",
          "--budget", "8", "--seed", "1"], {
            "stdout": "6ff41e46d3521283765bc33a5a1ef25f172fb4f42349ff1055ae32abf7db8f3d",
            "report.json": "9f0d34d29323d930dbf8ceedd79f2516c269b2395ad936ffce335ebbe979ce44",
        }),
        (["rate", "--p", "0.7,0.2;0.2,0.5", "--u", "v.json", "--budget", "8", "--seed", "1"], {
            "stdout": "7e21943e1cc257be179842baf4a494da61c34e657ca38b00da36d74f6e42539e",
            "report.json": "d9c69b838d3dbf37d072d521cb4d2503a8e0bff8f2db21336fe276a5e71b7769",
        }),
        (["ldp-curve", "--model", "block:1,1:0.7,0.1;0.1,0.7", "--event", "density-ge:0.55",
          "--n", "12..96", "--seed", "0"], {
            "stdout": "a2b2e4b4ea7ba97a9b86bbc58db8451abb36455caa41890cde10426ed09e5c98",
            "report.json": "8c667fa2f8c7e98febe6eda84eb548b871ad84077e406958f33865135ce00310",
            "curve.csv": "ba3ab8468aad008ba4d26aabce8d8d808f67fc1622f3ea7b232c44bc89ba197b",
        }),
        (["ldp-curve", "--model", "gnp:0.5", "--event", "ball:t.json:0.2", "--n", "12",
          "--method", "mc", "--num-samples", "30", "--seed", "5"], {
            "stdout": "740d194ce504cd5d8b2a8575719f14f56da0f7a6eaadcba7174c1042534d360b",
            "report.json": "0c5b132941bfefc34cc4160e7578be48c22d8b121315d418c2cbb0abe3e16eaa",
            "curve.csv": "9db0b3b06fb186e7d76aed0dd311afec5e08ffd2b3fae50d71a8ae71897adcf3",
        }),
        (["ldp-curve", "--model", "gnp:0.3", "--event", "density-ge:0.6", "--n", "6,10,40",
          "--method", "exact", "--seed", "0"], {
            "stdout": "dbd445320dacc514336414a69dc2490cc4c6fd7ce4f4d3357143d8046aa0e5c0",
            "report.json": "f8df3d05deeb7ca19290ea772f325f0b700b062001e9d9517fea7ba46bdd96c1",
            "curve.csv": "4aaf87a2764b43a7ac233b8d4050d41576472564b8625155fa079ca29a48dd93",
        }),
        (["ldp-curve", "--model", "wrandom:u.json", "--event", "density-le:0.3",
          "--n", "5,20", "--method", "exact", "--seed", "0"], {
            "stdout": "3eaa1b250a9366fddd3dbd0aa8954b64e7165d486e546362c768a2a1798addd6",
            "report.json": "3337073c5bb86c1d7839fac229bebe8b41124c7c3e7730ccfab2bc84d63652c7",
            "curve.csv": "c3de766f7782e233d0dbd19e14472ae96ca6b3a41871c83a66232d22a07f4b56",
        }),
        (["ldp-curve", "--model", "block:1,1:1,0.5;0.5,0", "--event", "ball:u.json:0.3",
          "--n", "4", "--method", "enum", "--seed", "0"], {
            "stdout": "a688d92fd5efc7a1ea1542e7f3caf9517639c65a8501ff9e51a130171184af6e",
            "report.json": "a739fa39d169ff36e157a89e6705502fc44521b3670443bde69bcc1c4f5b6253",
            "curve.csv": "0e65157afa09e2d1762b3c3cc39fdfc2354f4726fc52308f70a9884b9a265739",
        }),
    ])
    def test_digests(self, tmp_path, monkeypatch, capsys, argv, digests):
        monkeypatch.chdir(tmp_path)  # inputs and --out are echoed, so they are relative
        for name, obj in self.GRAPHONS.items():
            (tmp_path / name).write_text(json.dumps(obj))
        assert cli.main(argv + ["--out", "out"]) == 0
        got = {"stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
        out = tmp_path / "out"
        got.update((path.relative_to(out).as_posix(), hashlib.sha256(path.read_bytes()).hexdigest())
                   for path in out.rglob("*") if path.is_file())
        assert got == digests


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

    def test_one_pair_probability_past_the_binomial_cap(self, tmp_path, capsys):
        # n(n-1) passes 2^63 at n = 2^32, so the pairs are counted in Python ints;
        # exact refuses that many and auto samples under the tilt
        argv = ["ldp-curve", "--model", "gnp:0.4", "--event", "density-ge:0.5",
                "--n", "4294967296", "--num-samples", "10", "--seed", "0"]
        assert cli.main(argv + ["--method", "auto", "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "method=tilted" in out and "-inf" not in out
        assert cli.main(argv + ["--method", "exact"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("9223372034707292160 free pairs exceed the binomial cap of 67108863 "
                "at n=4294967296; use tilted or mc") in captured.err

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

    def test_each_size_is_picked_once(self, monkeypatch, capsys):
        # the CLI checks every size before the config line and then runs the
        # methods it picked, without picking them again
        sizes = []
        pick = ldplab._point_method

        def counted(family, event, method, n):
            sizes.append(n)
            return pick(family, event, method, n)

        monkeypatch.setattr(ldplab, "_point_method", counted)
        assert cli.main(["ldp-curve", "--model", "gnp:0.4", "--event", "density-ge:0.6",
                         "--n", "4,8", "--seed", "0"]) == 0
        assert sizes == [4, 8]

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

    def test_command_line_integers_read_like_config_ones(self, tmp_path, capsys):
        # one parser reads an integer flag, so a bad value on the command line
        # gets the config file's message, not an argparse usage error
        u = write_graphon(tmp_path / "u.json", [0.5, 0.5], [[0.9, 0.1], [0.1, 0.6]])
        curve = ["ldp-curve", "--model", "gnp:0.5", "--event", "density-ge:0.8", "--n", "6"]
        cases = [
            (["distance", "--u", u, "--v", u, "--restarts", "abc"],
             "restarts must be an integer"),
            (["distance", "--u", u, "--v", u, "--restarts", "0"], "restarts must be positive"),
            (["rate", "--p", "identity2", "--u", u, "--budget", "1.5"],
             "budget must be an integer"),
            (["sample", "--model", "gnp:0.5", "--n", "6", "--seed", "0", "--num-samples", "x"],
             "num-samples must be an integer"),
            (curve + ["--seed", "0", "--num-samples", "x"], "num-samples must be an integer"),
        ]
        for argv, message in cases:
            assert cli.main(argv) == 2
            assert capsys.readouterr() == ("", "error: %s\n" % message)
        # an accepted value echoes as the number it parses to
        assert cli.main(["sample", "--model", "gnp:0.5", "--n", "6", "--seed", "0",
                         "--num-samples", "2"]) == 0
        resolved = first_line_config(capsys.readouterr().out)["resolvedConfig"]
        assert resolved["num-samples"] == 2 and isinstance(resolved["num-samples"], int)


class TestModuleEntryPoints:
    SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

    @pytest.mark.parametrize("module", ["stepldp", "stepldp.cli"])
    def test_python_dash_m_runs_the_cli(self, tmp_path, module):
        env = dict(os.environ, PYTHONPATH=str(self.SRC))
        proc = subprocess.run(
            [sys.executable, "-m", module, "sample", "--model", "gnp:0.5", "--n", "3",
             "--seed", "1"], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        config = first_line_config(proc.stdout)
        assert config["command"] == "sample"
        assert config["resolvedConfig"]["seed"] == 1
        assert proc.stdout.splitlines()[1] == "sample 000: n=3 edges=1 density=0.333333"


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
        (["coupling-demo", "--counts-a", "99999999999999999999,1", "--counts-b", "3,3",
          "--p", "identity2"],
         "block counts must be integers below 2^63"),
        (["coupling-demo", "--counts-a", "9223372036854775807,0", "--counts-b", "3,3",
          "--p", "identity2"],
         "a graph holds at most 2147483647 vertices (int32 labels), got 9223372036854775807"),
        (["sample", "--model", "gnp:0.4", "--n", "3000000000"],
         "a graph holds at most 2147483647 vertices (int32 labels), got 3000000000"),
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
        # no free pair, but 9.3 GiB of pair arrays once the enumeration ran
        (["ldp-curve", "--model", "gnp:0", "--event", "ball:{t1}:0.3", "--n", "100000",
          "--method", "enum"],
         "event enumeration checks graphs of at most 200 vertices, got n=100000"),
        # auto samples past the enumeration bound: 37 GiB of coins once it ran
        (["ldp-curve", "--model", "gnp:0", "--event", "ball:{t1}:0.3", "--n", "100000"],
         "Monte Carlo checks ball events on at most 400 vertices, got n=100000"),
        (["ldp-curve", "--model", "wrandom:{t1}", "--event", "ball:{t1}:0.3", "--n", "12,401",
          "--method", "mc"],
         "Monte Carlo checks ball events on at most 400 vertices, got n=401"),
    ])
    def test_exits_2_with_the_validators_message(self, tmp_path, capsys, argv, message):
        t1 = write_graphon(tmp_path / "t1.json", [1.0], [[0.4]])
        argv = [arg.format(t1=t1) for arg in argv] + ["--seed", "0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)

    # every input file goes through one reader: a file that cannot be read,
    # parsed, or decoded as UTF-8 is a usage error that names its path
    @pytest.mark.parametrize("contents, message", [
        (None, "cannot read {path}: "),
        (b'{"weights": [1.0],', "{path}: not valid JSON ("),
        ('{"weights": [1.0], "values": [[0.4]], "note": "caf\u00e9"}'.encode("latin-1"),
         "{path}: not valid JSON ('utf-8' codec can't decode byte 0xe9"),
    ], ids=["missing", "malformed", "not-utf8"])
    @pytest.mark.parametrize("argv", [
        ["rate", "--p", "@{path}", "--u", "{t1}"],
        ["rate", "--p", "identity1", "--u", "{t1}", "--config", "{path}"],
        ["rate", "--p", "identity1", "--u", "{path}"],
    ], ids=["p-file", "config", "graphon"])
    def test_input_files_exit_2_naming_the_path(self, tmp_path, capsys, argv, contents,
                                                message):
        t1 = write_graphon(tmp_path / "t1.json", [1.0], [[0.4]])
        path = tmp_path / "input.json"
        if contents is not None:
            path.write_bytes(contents)
        argv = [arg.format(t1=t1, path=path) for arg in argv] + ["--seed", "0"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: " + message.format(path=path))

    # a graphon file that parses but is not a step graphon is named too, by
    # the reader the library's load_graphon is
    @pytest.mark.parametrize("contents, message", [
        ({"weights": [1.0]}, "graphon JSON missing field 'values'"),
        ({"weights": [1.0], "values": [[1.5]]}, "values must lie in [0, 1]"),
    ], ids=["missing-field", "out-of-range"])
    @pytest.mark.parametrize("argv", [
        ["distance", "--u", "{path}", "--v", "{t1}"],
        ["distance", "--u", "{t1}", "--v", "{path}"],
        ["ldp-curve", "--model", "gnp:0.5", "--event", "ball:{path}:0.2", "--n", "4"],
        ["ldp-curve", "--model", "wrandom:{path}", "--event", "density-ge:0.5", "--n", "4"],
    ], ids=["u", "v", "ball-target", "wrandom-model"])
    def test_graphon_faults_exit_2_naming_the_path(self, tmp_path, capsys, argv, contents,
                                                   message):
        t1 = write_graphon(tmp_path / "t1.json", [1.0], [[0.4]])
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(contents))
        argv = [arg.format(t1=t1, path=path) for arg in argv] + ["--seed", "0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: %s: %s\n" % (path, message))


class TestPointRuleRefusesBeforeTheConfigLine:
    """Sizes that a curve's point would refuse exit 2 with nothing on stdout.

    Each message is the one the point's own code raises; the checks run on
    every size before the config line is printed.
    """

    BIG = "5000000000"  # past the int32 vertex labels, and 2^63 pairs
    DENSITY = ["ldp-curve", "--event", "density-ge:0.5", "--n", BIG, "--model"]

    @pytest.mark.parametrize("argv, message", [
        (["ldp-curve", "--model", "wrandom:{u2}", "--event", "density-ge:0.7", "--n", "3000",
          "--method", "exact"],
         "exact density law: 4498500 free pairs exceed the FFT cap of 2097151 at n=3000; "
         "use mc"),
        (DENSITY + ["gnp:0.4", "--method", "tilted"],
         "tilted sampling needs fewer than 2^63 free pairs"),
        (DENSITY + ["gnp:0.4", "--method", "auto"],
         "tilted sampling needs fewer than 2^63 free pairs"),
        (DENSITY + ["gnp:0.4", "--method", "mc"],
         "a graph holds at most 2147483647 vertices (int32 labels), got 5000000000"),
        (DENSITY + ["wrandom:{u2}", "--method", "mc"],
         "a graph holds at most 2147483647 vertices (int32 labels), got 5000000000"),
    ], ids=["wrandom-exact-fft-cap", "gnp-tilted-2^63", "gnp-auto-2^63", "gnp-mc-vertices",
            "wrandom-mc-vertices"])
    def test_exits_2_before_the_config_line(self, tmp_path, capsys, argv, message):
        u2 = write_graphon(tmp_path / "u2.json", [0.5, 0.5], [[0.8, 0.2], [0.2, 0.8]])
        argv = [arg.format(u2=u2) for arg in argv] + ["--seed", "0"]
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)
