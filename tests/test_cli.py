import json
import math

import pytest

from rankmatch.analysis import ThreeIntervalError
from rankmatch.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_emits_valid_instance(capsys):
    code, out, _ = run_cli(capsys, "generate", "--gen", "upper_triangular", "--n", "3")
    assert code == 0
    data = json.loads(out)
    assert len(data["offline"]) == 3
    assert data["online"][2]["neighbors"] == ["v3"]


def test_generate_to_file_then_simulate(tmp_path, capsys):
    path = tmp_path / "inst.json"
    code, _, _ = run_cli(capsys, "generate", "--gen", "complete", "--n", "2",
                         "--out", str(path))
    assert code == 0 and path.exists()
    code, out, _ = run_cli(capsys, "simulate", "--instance", str(path),
                           "--trials", "50", "--seed", "3")
    assert code == 0
    report = json.loads(out)
    assert report["mean_ratio"] == 1.0
    assert report["trials"] == 50


def test_simulate_byte_identical_modulo_timestamp(capsys):
    args = ("simulate", "--gen", "upper_triangular", "--n", "6",
            "--trials", "40", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timestamp")
    b.pop("timestamp")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_bounds_minimize_simple(capsys):
    code, out, _ = run_cli(capsys, "bounds", "minimize",
                           "--spec", "simple-exp", "--which", "simple")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - (1.25 - math.exp(-0.5))) < 1e-4


def test_bounds_evaluate(capsys):
    code, out, _ = run_cli(capsys, "bounds", "evaluate", "--spec", "half-exp",
                           "--which", "improved", "--tau", "0", "--gamma", "1")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"] - (1.0 - math.log(2.0) / 2.0)) < 1e-7


def test_bounds_heatmap_csv(capsys):
    code, out, _ = run_cli(capsys, "bounds", "heatmap", "--spec", "half-exp",
                           "--which", "simple", "--grid", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tau,gamma,value"
    assert len(lines) == 17


def test_thresholds_csv(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--gen", "complete", "--n", "2",
                           "--grid", "4", "--refine-tol", "1e-6",
                           "--seed", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y_u,beta,theta"
    assert len(lines) == 5


def test_pair_gain_json(capsys):
    code, out, _ = run_cli(capsys, "pair-gain", "--gen", "complete", "--n", "1",
                           "--grid", "20", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["estimate"] == 1.0
    assert data["online"] == "u1" and data["offline"] == "v1"


def test_integral_profiles_file(tmp_path, capsys):
    prof = {"theta": {"kind": "step", "x": [0.0, 1.0], "y": [1.0]},
            "beta": {"kind": "step", "x": [0.0, 1.0], "y": [0.0]}}
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(prof))
    code, out, _ = run_cli(capsys, "integral", "--spec", "half-exp",
                           "--profiles", str(path))
    assert code == 0
    assert abs(json.loads(out)["value"] - 1.0) < 1e-8


def test_verify_small_scale_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--scale", "0.002",
                           "--format", "text")
    assert code == 0
    assert "overall: pass" in out


def test_config_errors_exit_two(capsys):
    code, _, err = run_cli(capsys, "simulate", "--gen", "nope", "--n", "3")
    assert code == 2 and "error:" in err
    code, _, err = run_cli(capsys, "simulate", "--gen", "random", "--n", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "simulate", "--instance", "/does/not/exist.json")
    assert code == 2
    code, _, err = run_cli(capsys, "pair-gain", "--gen", "complete", "--n", "2",
                           "--edge", "u1v1")
    assert code == 2
    code, _, err = run_cli(capsys, "simulate", "--gen", "complete", "--n", "2",
                           "--trials", "0")
    assert code == 2
    code, _, err = run_cli(capsys, "pair-gain", "--gen", "upper_triangular",
                           "--n", "3", "--edge", "u3,v1")
    assert code == 2 and "not an edge" in err


def test_degenerate_instance_exits_two(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"offline": [{"id": "v1", "weight": 1.0}],
                                "online": [{"id": "u1", "neighbors": []}]}))
    code, _, err = run_cli(capsys, "simulate", "--instance", str(path))
    assert code == 2 and "ratio undefined" in err


def test_spec_from_json_file(tmp_path, capsys):
    spec_path = tmp_path / "table.json"
    spec_path.write_text(json.dumps({"kind": "table",
                                     "breakpoints": [0.0, 1.0],
                                     "values": [0.5, 0.9]}))
    code, out, _ = run_cli(capsys, "bounds", "evaluate", "--spec", str(spec_path),
                           "--which", "simple", "--tau", "0", "--gamma", "0")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(1.0, abs=1e-10)


def test_malformed_input_files_exit_two_naming_the_entry(tmp_path, capsys):
    step = {"kind": "step", "x": [0.0, 1.0], "y": [1.0]}
    cases = (("simulate", "--instance", {"offline": [{"id": "v1"}], "online": []},
              "{'id': 'v1'}"),
             ("simulate", "--instance", {"offline": [["v1", 1.0]], "online": [7]}, "7"),
             ("integral", "--profiles", {"theta": step}, "beta"))
    path = tmp_path / "input.json"
    for command, flag, payload, named in cases:
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, command, flag, str(path))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and named in err


def test_three_interval_violation_exits_one(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ThreeIntervalError("status interleaving at y_u=0.5")

    monkeypatch.setattr("rankmatch.cli.compute_thresholds", broken)
    code, out, err = run_cli(capsys, "thresholds", "--gen", "complete", "--n", "2")
    assert (code, out, err) == (1, "", "error: status interleaving at y_u=0.5\n")
