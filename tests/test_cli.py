"""Command line: config validation, subcommands, exit codes, CSV stability."""

import json
import math

import pytest

from lorcone.cli import main, parse_config, parse_point
from lorcone.errors import ConfigError

FLAT = {
    "interval": {"a": "-inf", "b": "inf"},
    "warp": {"kind": "constant", "c": 1},
    "fiber": {"kind": "euclidean", "n": 2},
}

TRIPOD = {
    "interval": {"a": 0, "b": "inf"},
    "warp": {"kind": "identity"},
    "fiber": {"kind": "graph",
              "edges": "o a 1\no b 1\no c 1",
              "vertex_sample_weight": 0.5},
    "seed": 123,
}

SIN = {
    "interval": {"a": 0, "b": math.pi},
    "warp": {"kind": "sin"},
    "fiber": {"kind": "real_line"},
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_minimal_flat(self):
        cfg = parse_config(json.dumps(FLAT))
        cone = cfg.build_cone()
        assert cone.fiber.kind == "euclidean"
        assert cone.warp(0.0) == 1.0

    def test_unknown_field_rejected(self):
        doc = dict(FLAT)
        doc["extra"] = 1
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))
        doc = json.loads(json.dumps(FLAT))
        doc["warp"]["mystery"] = 2
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(doc))
        assert "warp" in str(err.value)

    def test_sin_positivity_scan(self):
        doc = {"interval": {"a": 0, "b": 7}, "warp": {"kind": "sin"},
               "fiber": {"kind": "real_line"}}
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    def test_disconnected_graph_rejected(self):
        doc = {"interval": {"a": 0, "b": "inf"},
               "warp": {"kind": "identity"},
               "fiber": {"kind": "graph", "edges": "a b 1\nc d 1"}}
        with pytest.raises(ConfigError):
            parse_config(json.dumps(doc))

    def test_json_error_location(self):
        with pytest.raises(ConfigError) as err:
            parse_config("{ not json }")
        assert "line" in str(err.value)

    def test_point_parsing(self):
        cfg = parse_config(json.dumps(FLAT))
        cone = cfg.build_cone()
        p = parse_point(cone, "-1.5;0.5,-2.0")
        assert p.t == -1.5
        assert list(p.x) == [0.5, -2.0]


class TestCommands:
    def test_tau_flat(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FLAT)
        code = main(["--config", cfg, "tau", "0;0,0", "2;1,0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tau = 1.73205081" in out
        assert "relation = chronological" in out

    def test_geodesic_roundtrip(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FLAT)
        out_csv = str(tmp_path / "geo.csv")
        code = main(["--config", cfg, "geodesic", "0;0,0", "2;1,0",
                     "--out", out_csv, "--samples", "65"])
        out = capsys.readouterr().out
        assert code == 0
        printed = [ln for ln in out.splitlines() if ln.startswith("length")][0]
        printed_len = float(printed.split("=")[1])
        cone = parse_config(json.dumps(FLAT)).build_cone()
        back = cone.import_path_csv(out_csv)
        assert cone.classify_path(back) in ("timelike", "null")
        assert abs(cone.path_length(back) - printed_len) <= 1e-6

    def test_certify_consistent_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FLAT)
        out_csv = str(tmp_path / "rep.csv")
        code = main(["--config", cfg, "certify", "--K", "0", "--dir", "below",
                     "--n", "10", "--out", out_csv])
        assert code == 0
        assert "verdict: consistent" in capsys.readouterr().out

    def test_certify_tripod_violation_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TRIPOD)
        out_csv = str(tmp_path / "rep.csv")
        code = main(["--config", cfg, "certify", "--K", "0", "--dir", "below",
                     "--n", "200", "--out", out_csv])
        assert code == 2
        out = capsys.readouterr().out
        assert "verdict: violated" in out
        assert "worst witness" in out

    def test_certify_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TRIPOD)
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        main(["--config", cfg, "certify", "--K", "0", "--dir", "below",
              "--n", "25", "--out", str(out1)])
        main(["--config", cfg, "certify", "--K", "0", "--dir", "below",
              "--n", "25", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_singularity_sin(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SIN)
        code = main(["--config", cfg, "singularity", "--K", "-1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "tau_diameter_bound = 3.14159265" in out
        assert "lower_bound_K_consistent = True" in out

    def test_singularity_sampled_inconclusive(self, tmp_path, capsys):
        doc = {"interval": {"a": 0.1, "b": 3.0},
               "warp": {"kind": "sampled", "interpolation": "cubic",
                        "samples": [[0.1 * k, 1.0 + 0.1 * k] for k in range(31)]},
               "fiber": {"kind": "real_line"}}
        cfg = write_config(tmp_path, doc)
        assert main(["--config", cfg, "singularity", "--K", "0"]) == 0
        out = capsys.readouterr().out
        assert "upper_bound_possible = inconclusive" in out
        assert "verdict: endpoint limit at a inconclusive" in out

    def test_llcheck(self, tmp_path, capsys):
        catalog = tmp_path / "cat.txt"
        catalog.write_text("curve x y 1.0 timelike\ncurve y z 2.0 causal\n")
        code = main(["llcheck", str(catalog)])
        out = capsys.readouterr().out
        assert code == 0
        assert "checks pass" in out

    def test_error_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path, FLAT)
        code = main(["--config", cfg, "tau", "0;0,0", "badpoint"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")

    def test_missing_config(self, capsys):
        code = main(["tau", "0;0", "1;0"])
        assert code == 1
        assert "error:" in capsys.readouterr().err
