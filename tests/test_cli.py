import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rankmatch
from rankmatch.analysis import ThreeIntervalError
from rankmatch.cli import build_parser, main
from rankmatch.experiments import LaneCheckError


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


@pytest.mark.parametrize("action", [("evaluate", "--tau", "1", "--gamma", "0.9553532634660223"),
                                    ("minimize",), ("heatmap", "--grid", "3")],
                         ids=lambda action: action[0])
@pytest.mark.parametrize("which", ["simple", "improved"])
def test_bounds_refuse_the_adversarial_spec(capsys, action, which):
    # the surfaces hold only where a + b = 1/2: exit 2 and one error line
    code, out, err = run_cli(capsys, "bounds", action[0], "--spec", "adversarial",
                             "--which", which, *action[1:])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "no weight split" in err


def test_thresholds_csv(capsys):
    code, out, _ = run_cli(capsys, "thresholds", "--gen", "complete", "--n", "2",
                           "--grid", "4", "--seed", "2", "--format", "csv")
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
    # a profile without a kind is read as a step profile
    for side in prof.values():
        del side["kind"]
    path.write_text(json.dumps(prof))
    assert run_cli(capsys, "integral", "--spec", "half-exp",
                   "--profiles", str(path)) == (0, out, "")


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
             ("integral", "--profiles", {"theta": step}, "beta"),
             # a JSON string where an array belongs is not read character by character
             ("simulate", "--instance",
              {"offline": ["v1", "w2"], "online": [{"id": "u", "neighbors": "vw"}]}, "'v1'"),
             ("simulate", "--instance",
              {"offline": [["v", 1.0]], "online": [{"id": "u", "neighbors": "v"}]},
              "{'id': 'u', 'neighbors': 'v'}"),
             ("integral", "--profiles",
              {"theta": {"kind": "step", "x": "01", "y": "1"}, "beta": step}, "'x': '01'"),
             # profiles are step functions only
             ("integral", "--profiles",
              {"theta": step, "beta": {"kind": "linear", "x": [0.0, 1.0], "y": [0.0, 0.5]}},
              "unknown profile kind 'linear'"),
             ("integral", "--profiles",
              {"theta": {"kind": 7, "x": [0.0, 1.0], "y": [1.0]}, "beta": step},
              "unknown profile kind 7"))
    path = tmp_path / "input.json"
    for command, flag, payload, named in cases:
        path.write_text(json.dumps(payload))
        code, _, err = run_cli(capsys, command, flag, str(path))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("argv", [
    ("simulate", "--gen", "complete", "--n", "2"),
    ("pair-gain", "--gen", "complete", "--n", "2"),
    ("thresholds", "--gen", "complete", "--n", "2"),
    ("verify",),
    ("generate", "--gen", "random", "--n", "3"),
    ("generate", "--gen", "upper_triangular", "--n", "3"),
], ids=["simulate", "pair-gain", "thresholds", "verify", "generate-random",
        "generate-upper-triangular"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_exits_two_naming_the_flag(capsys, argv, seed):
    # numpy's own error named no flag, and upper_triangular took -1 silently
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", seed])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("error:") == 1
    assert (f"error: argument --seed: must be a non-negative integer, got '{seed}'\n"
            in out.err)


@pytest.mark.parametrize("payload, named", [
    ("", "gain spec file {path} is not valid JSON"),
    ("[1]", 'gain spec must be an object {"kind": ...}, got [1]'),
    ('{"kind": "table", "breakpoints": 5}',
     "table spec breakpoints must be a list of numbers, got 5"),
    ('{"kind": "table", "breakpoints": "01", "values": "11"}',
     "table spec breakpoints must be a list of numbers, got '01'"),
    ('{"kind": "table", "breakpoints": [0, 0.5, 0.55, 1], "values": [0.2, 0.2, 0.9, 0.9]}',
     "table slope 14 exceeds curve value 0.2 on [0.5, 0.55]"),
], ids=["not-json", "not-an-object", "table-breakpoints-not-a-list",
        "table-breakpoints-a-string", "table-too-steep"])
def test_malformed_spec_files_exit_two_with_one_error_line(tmp_path, capsys,
                                                           payload, named):
    path = tmp_path / "spec.json"
    path.write_text(payload)
    code, out, err = run_cli(capsys, "bounds", "evaluate", "--spec", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + named.replace("{path}", str(path)))
    assert err.count("\n") == 1 and err.count("error:") == 1


_STEP = {"kind": "step", "x": [0.0, 1.0], "y": [1.0]}


@pytest.mark.parametrize("argv, payload, named", [
    (("generate", "--instance"),
     {"offline": [{"id": "v1", "weight": "2.5"}], "online": []},
     "malformed offline entry {'id': 'v1', 'weight': '2.5'}"),
    (("generate", "--instance"), {"offline": [["v1", True]], "online": []},
     "malformed offline entry ['v1', True]"),
    (("generate", "--instance"), {"offline": [["v1", 10 ** 400]], "online": []},
     "malformed offline entry ['v1', 1000"),
    (("generate", "--instance"), {"offline": [{"id": 7, "weight": 1.0}], "online": []},
     "malformed offline entry {'id': 7, 'weight': 1.0}"),
    (("generate", "--instance"), {"offline": [], "online": [[7, []]]},
     "malformed online entry [7, []]"),
    (("generate", "--instance"),
     {"offline": [["7", 1.0]], "online": [{"id": "u1", "neighbors": [7]}]},
     "malformed online entry {'id': 'u1', 'neighbors': [7]}"),
    (("bounds", "evaluate", "--spec"),
     {"kind": "table", "breakpoints": ["0", "1"], "values": [0.5, 0.9]},
     "table spec breakpoints must be a list of numbers, got ['0', '1']"),
    (("bounds", "evaluate", "--spec"),
     {"kind": "table", "breakpoints": [0.0, 1.0], "values": [0.5, "0.9"]},
     "table spec values must be a list of numbers, got [0.5, '0.9']"),
    (("integral", "--profiles"),
     {"theta": {"kind": "step", "x": ["0", 1.0], "y": [1.0]}, "beta": _STEP},
     "malformed profile {'kind': 'step', 'x': ['0', 1.0], 'y': [1.0]}"),
    (("integral", "--profiles"),
     {"theta": _STEP, "beta": {"kind": "step", "x": [0.0, 1.0], "y": [False]}},
     "malformed profile {'kind': 'step', 'x': [0.0, 1.0], 'y': [False]}"),
], ids=["weight-text", "weight-bool", "weight-beyond-float", "offline-id-number", "online-id-number",
        "neighbor-id-number", "table-breakpoint-text", "table-value-text",
        "profile-x-text", "profile-y-bool"])
def test_numeric_text_and_numeric_ids_exit_two(tmp_path, capsys, argv, payload, named):
    # float() parses "2.5" and str() turns 7 into "7"; neither is accepted
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + named)
    assert err.count("\n") == 1 and err.count("error:") == 1


@pytest.mark.parametrize("argv, payload, named", [
    (("bounds", "evaluate", "--tau", "0.2", "--gamma", "0.7", "--spec"),
     {"kind": "half-exp", "breakpoints": [0, 0.5, 1], "values": [0.1, 0.6, 1.0]},
     "a half-exp spec reads only kind, not 'breakpoints'"),
    (("simulate", "--instance"),
     {"offline": [{"id": "v1", "weight": 1.0}], "onlin": [{"id": "u1", "neighbors": ["v1"]}]},
     "an instance reads only offline and online, not 'onlin'"),
], ids=["spec-named-with-knots", "instance-misspelled-side"])
def test_input_keys_that_are_not_read_exit_two(tmp_path, capsys, argv, payload, named):
    # a key no reader reads is refused, not dropped: the half-exp value, or
    # an instance without an online side, would come out instead
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out, err) == (2, "", f"error: {named}\n")


@pytest.mark.parametrize("argv, named", [
    (("bounds", "evaluate", "--spec"), 'gain spec must be an object {"kind": ...}'),
    (("simulate", "--instance"), "instance description must be a mapping"),
    (("integral", "--profiles"), "profiles must be a mapping"),
], ids=["spec", "instance", "profiles"])
@pytest.mark.parametrize("document", [
    "half-exp",
    '{"kind": "half-exp", "offline": [], "online": [], "theta": {}, "beta": {}}',
], ids=["string", "string-holding-an-object"])
def test_input_files_holding_a_json_string_are_rejected(tmp_path, capsys, argv,
                                                        named, document):
    # the file is parsed once; a top-level string is never parsed again
    path = tmp_path / "input.json"
    path.write_text(json.dumps(document))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: " + named)
    assert err.count("\n") == 1 and err.count("error:") == 1


@pytest.mark.parametrize("command, flag, what", [
    ("integral", "--profiles", "profiles"),
    ("generate", "--instance", "instance"),
])
def test_input_files_that_are_not_json_are_named(tmp_path, capsys, command, flag,
                                                 what):
    path = tmp_path / "empty.json"
    path.write_text("")
    code, out, err = run_cli(capsys, command, flag, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {what} file {path} is not valid JSON: ")
    assert err.count("\n") == 1 and err.count("error:") == 1


@pytest.mark.parametrize("argv", [
    ("generate", "--gen", "complete", "--n", "2", "--spec", "half-exp"),
    ("generate", "--gen", "complete", "--n", "2", "--format", "json"),
    ("bounds", "evaluate", "--seed", "1"),
    ("bounds", "evaluate", "--format", "json"),
    ("integral", "--profiles", "profiles.json", "--seed", "1"),
    ("integral", "--profiles", "profiles.json", "--format", "json"),
    ("bounds", "minimize", "--tau", "0.3"),
    ("bounds", "minimize", "--gamma", "0.9"),
    ("bounds", "minimize", "--grid", "7"),
    ("bounds", "evaluate", "--grid", "5"),
    ("bounds", "heatmap", "--tau", "0.3"),
    ("bounds", "heatmap", "--gamma", "0.9"),
    ("thresholds", "--gen", "complete", "--n", "2", "--refine-tol", "1e-9"),
], ids=["generate-spec", "generate-format", "bounds-seed", "bounds-format",
        "integral-seed", "integral-format", "minimize-tau", "minimize-gamma",
        "minimize-grid", "evaluate-grid", "heatmap-tau", "heatmap-gamma",
        "thresholds-refine-tol"])
def test_flags_a_command_ignores_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[-2:]) in capsys.readouterr().err


def _parser_flags(parser, name=""):
    """{subcommand: its long flags}, nested ones named like "bounds evaluate"."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return {name: {o for a in parser._actions for o in a.option_strings
                       if o.startswith("--") and o != "--help"}}
    out = {}
    for child, sub in subs[0].choices.items():
        out.update(_parser_flags(sub, f"{name} {child}".strip()))
    return out


def test_readme_flag_table_lists_exactly_the_parser_flags():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = text.split("| subcommand | flags (default) |\n|---|---|\n")[1].split("\n\n")[0]
    instance = set(re.findall(r"--[a-z-]+", text.split("Instance flags:")[1].split(". ")[0]))
    assert "Every subcommand takes `--out FILE`" in text
    readme = {}
    for row in table.splitlines():
        name, flags = re.fullmatch(r"\| `([a-z -]+)` \| (.*) \|", row).groups()
        readme[name] = set(re.findall(r"--[a-z-]+", flags)) | {"--out"}
        if "instance flags" in flags:
            readme[name] |= instance
    assert readme == _parser_flags(build_parser())


def test_three_interval_violation_exits_one(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ThreeIntervalError("status interleaving at y_u=0.5")

    monkeypatch.setattr("rankmatch.cli.compute_thresholds", broken)
    code, out, err = run_cli(capsys, "thresholds", "--gen", "complete", "--n", "2")
    assert (code, out, err) == (1, "", "error: status interleaving at y_u=0.5\n")


def test_lane_check_error_exits_one_with_its_message(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise LaneCheckError("trial 0 (seed=4): u1 took v1 in run_lanes but None in run_ranking")

    monkeypatch.setattr("rankmatch.cli.run_ratio_experiment", broken)
    code, out, err = run_cli(capsys, "simulate", "--gen", "complete", "--n", "2")
    assert (code, out) == (1, "")
    assert err == "error: trial 0 (seed=4): u1 took v1 in run_lanes but None in run_ranking\n"


def test_lane_check_guards_the_rank_order_lanes(monkeypatch, capsys):
    # unit weights: the lanes go by rank order on the spec's word, so a
    # scalar a that rises with y makes run_ranking take other partners
    from rankmatch.gains import GainSpec

    parts = GainSpec.offer_parts_scalar
    monkeypatch.setattr(GainSpec, "offer_parts_scalar", lambda self, y: (y, parts(self, y)[1]))
    code, out, err = run_cli(capsys, "simulate", "--gen", "upper_triangular", "--n", "8")
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: trial 0 \(seed=0\): u\d+ took v\d+ in run_lanes "
                        r"but v\d+ in run_ranking\n", err), err


def test_lane_check_failure_exits_one(monkeypatch, capsys):
    from rankmatch import experiments
    from rankmatch.core import matching_result

    engine = experiments.run_ranking

    def drop_last_match(instance, spec, ranks, collect_offers=True):
        result, trace = engine(instance, spec, ranks, collect_offers)
        return matching_result(instance, result.pairs[:-1]), trace

    monkeypatch.setattr(experiments, "run_ranking", drop_last_match)
    code, out, err = run_cli(capsys, "simulate", "--gen", "complete", "--n", "2",
                             "--trials", "5", "--seed", "4")
    assert (code, out) == (1, "")
    assert err.startswith("error: trial 0 (seed=4): ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, named", [
    (("bounds", "heatmap", "--grid", "1"), "grid_n must be >= 2, got 1"),
    (("bounds", "heatmap", "--grid", "0"), "grid_n must be >= 2, got 0"),
    (("verify", "--scale", "inf"), "scale must be positive and finite, got inf"),
    (("verify", "--scale", "nan"), "scale must be positive and finite, got nan"),
    (("pair-gain", "--gen", "complete", "--n", "2", "--grid", "100000"),
     "grid_n = 100000 makes 10000000000 cells, more than MAX_CELLS = 10000000"),
    (("thresholds", "--gen", "complete", "--n", "2", "--grid", "0"),
     "y_u grid must be nonempty and inside [0, 1]"),
    # 3163^2 is the first square above MAX_CELLS; refused before any point
    (("bounds", "heatmap", "--grid", "3163"),
     "grid_n = 3163 makes 10004569 points, more than MAX_CELLS = 10000000"),
], ids=["heatmap-grid-1", "heatmap-grid-0", "verify-scale-inf", "verify-scale-nan",
        "pair-gain-grid-cells", "thresholds-grid-0", "heatmap-grid-cells"])
def test_bad_numeric_flags_exit_two_with_one_error_line(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {named}\n"


@pytest.mark.parametrize("argv, named", [
    (("--grid", "1"), "grid_n must be >= 2, got 1"),
    (("--grid", "3163"), "grid_n = 3163 makes 10004569 points, more than MAX_CELLS = 10000000"),
    (("--spec", "adversarial", "--grid", "3"), "the adversarial spec is no weight split"),
], ids=["grid-1", "grid-cells", "adversarial"])
def test_heatmap_refusals_create_no_out_file(tmp_path, capsys, argv, named):
    # the rows stream to the file as they are evaluated, so every refusal
    # must come before the file is opened
    out = tmp_path / "heatmap.csv"
    code, stdout, err = run_cli(capsys, "bounds", "heatmap", *argv, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and named in err
    assert not out.exists()


@pytest.mark.parametrize("gen", ["complete", "upper_triangular"])
def test_edge_probability_on_a_kind_without_edges_to_draw_exits_two(capsys, gen):
    code, out, err = run_cli(capsys, "generate", "--gen", gen, "--n", "2", "--p", "0.3")
    assert (code, out) == (2, "")
    assert err == f"error: {gen} reads only n, not 'p'\n"


def _scipy_modules_after(tmp_path, *commands):
    """Run cli.main on each argv in a fresh interpreter.

    Returns the exit codes and the names of the scipy modules loaded by
    then; the child imports rankmatch from the same source tree.
    """
    script = ("import json, sys\n"
              "import rankmatch, rankmatch.cli\n"
              "codes = [rankmatch.cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
              "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
              "print(json.dumps([codes, loaded]))\n")
    src = str(Path(rankmatch.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_paths_without_an_offline_optimum_never_import_scipy(tmp_path):
    profiles = {"theta": {"kind": "step", "x": [0.0, 1.0], "y": [1.0]},
                "beta": {"kind": "step", "x": [0.0, 0.5, 1.0], "y": [0.0, 0.5]}}
    (tmp_path / "profiles.json").write_text(json.dumps(profiles))
    codes, loaded = _scipy_modules_after(
        tmp_path,
        ["generate", "--gen", "upper_triangular", "--n", "3", "--out", "inst.json"],
        ["bounds", "evaluate", "--tau", "0.5", "--gamma", "0.5", "--out", "b.json"],
        ["pair-gain", "--instance", "inst.json", "--grid", "8", "--out", "pg.json"],
        ["thresholds", "--instance", "inst.json", "--grid", "2", "--out", "th.csv"],
        ["integral", "--profiles", "profiles.json", "--out", "int.json"],
        ["verify", "--scale", "0.002", "--out", "verify.json"])
    assert codes == [0] * 6
    assert loaded == []


def test_simulate_computes_the_offline_optimum_without_scipy(tmp_path):
    codes, loaded = _scipy_modules_after(
        tmp_path, ["simulate", "--gen", "complete", "--n", "3", "--trials", "5",
                   "--out", "sim.json"])
    assert codes == [0]
    assert loaded == []
    assert json.loads((tmp_path / "sim.json").read_text())["opt_value"] == 3.0


def test_main_builds_the_parser_once(monkeypatch, capsys):
    used = []
    parse_args = argparse.ArgumentParser.parse_args

    def spy(self, *args, **kwargs):
        used.append(self)
        return parse_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
    for n in ("2", "3"):
        assert run_cli(capsys, "generate", "--gen", "complete", "--n", n)[0] == 0
    assert len(used) == 2 and used[0] is used[1] is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--gen", "complete", "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert run_cli(capsys, "generate", "--gen", "complete", "--n", "2")[0] == 0


def _cli_in_subprocess(tmp_path, *argv):
    """Run the CLI in a fresh interpreter with a timeout, so that a hang
    fails the test; returns (exit code, stdout, stderr)."""
    src = str(Path(rankmatch.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    proc = subprocess.run([sys.executable, "-m", "rankmatch.cli", *argv],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("argv", [
    ("bounds", "evaluate", "--which", "improved", "--tau", "0.5", "--gamma", "0.9"),
    ("bounds", "evaluate", "--which", "simple", "--tau", "0.5", "--gamma", "0.9"),
    ("simulate", "--gen", "complete", "--n", "3"),
], ids=["bounds-improved", "bounds-simple", "simulate"])
def test_table_spec_with_a_nan_knot_exits_two(tmp_path, argv):
    # json parses NaN, and NaN passes every ordering check on the knots
    (tmp_path / "spec.json").write_text(json.dumps(
        {"kind": "table", "breakpoints": [0.0, math.nan, 1.0], "values": [0.5, 0.5, 1.0]}))
    code, out, err = _cli_in_subprocess(tmp_path, *argv, "--spec", "spec.json")
    assert (code, out) == (2, "")
    assert err == "error: table breakpoints must be finite, got (0.0, nan, 1.0)\n"


@pytest.mark.parametrize("side", ["theta", "beta"])
def test_profiles_with_a_nan_knot_exit_two(tmp_path, side):
    profiles = {"theta": {"kind": "step", "x": [0.0, 0.5, 1.0], "y": [1.0, 1.0]},
                "beta": {"kind": "step", "x": [0.0, 0.5, 1.0], "y": [0.0, 0.0]}}
    profiles[side]["x"][1] = math.nan
    (tmp_path / "profiles.json").write_text(json.dumps(profiles))
    code, out, err = _cli_in_subprocess(tmp_path, "integral", "--profiles", "profiles.json")
    assert (code, out) == (2, "")
    assert err == "error: profile knots must be finite, got (0.0, nan, 1.0)\n"


OVERFLOWING = {
    # the sum of the two weights overflows: fsum raises OverflowError
    "two-huge": {"offline": [["v1", 1e308], ["v2", 1e308]],
                 "online": [["u1", ["v1"]], ["u2", ["v2"]]]},
    # one weight near the float maximum: pair gain sums reach inf and nan
    "heavy-light": {"offline": [["v1", 1.7e308], ["v2", 2.0]],
                    "online": [["u1", ["v1", "v2"]], ["u2", ["v1", "v2"]]]},
}


@pytest.mark.parametrize("argv", [
    ("simulate", "--trials", "5"), ("pair-gain", "--grid", "4"),
    ("thresholds", "--grid", "4", "--format", "json"),
], ids=["simulate", "pair-gain", "thresholds"])
@pytest.mark.parametrize("name", sorted(OVERFLOWING))
def test_finite_weights_that_overflow_exit_two_with_one_error_line(tmp_path, argv, name):
    (tmp_path / "inst.json").write_text(json.dumps(OVERFLOWING[name]))
    code, out, err = _cli_in_subprocess(tmp_path, *argv, "--instance", "inst.json")
    if (name, argv[0]) == ("heavy-light", "thresholds"):
        # beta and theta are ranks, and no sum of weights overflows: a
        # valid profile, in JSON without NaN or Infinity
        assert (code, err) == (0, "")
        json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in JSON output"))
        return
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


INSTANCE_COMMANDS = ("generate", "simulate", "pair-gain", "thresholds")


@pytest.mark.parametrize("command", INSTANCE_COMMANDS)
def test_instance_and_gen_together_are_refused(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--instance", "inst.json", "--gen", "complete"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("error:") == 1
    assert "error: argument --gen: not allowed with argument --instance\n" in out.err


@pytest.mark.parametrize("command", INSTANCE_COMMANDS)
def test_an_instance_source_is_required(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "3"])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("error:") == 1
    assert "error: one of the arguments --instance --gen is required\n" in out.err


@pytest.mark.parametrize("flag", [("--n", "50"), ("--p", "0.3")], ids=["n", "p"])
def test_generator_flags_with_an_instance_file_exit_two(tmp_path, capsys, flag):
    path = tmp_path / "inst.json"
    assert run_cli(capsys, "generate", "--gen", "complete", "--out", str(path))[0] == 0
    assert len(json.loads(path.read_text())["offline"]) == 10    # --n defaults to 10
    code, out, err = run_cli(capsys, "simulate", "--instance", str(path), *flag,
                             "--trials", "3")
    assert (code, out) == (2, "")
    assert err == ("error: --n and --p size a generated instance; "
                   "they do not go with --instance\n")
    code, out, _ = run_cli(capsys, "simulate", "--instance", str(path), "--trials", "3")
    assert code == 0 and json.loads(out)["config"]["label"] == str(path)


_PROFILES = {"theta": {"kind": "step", "x": [0.0, 1.0], "y": [1.0]},
             "beta": {"kind": "step", "x": [0.0, 1.0], "y": [0.0]}}


@pytest.mark.parametrize("argv", [
    ("generate", "--gen", "complete", "--n", "2"),
    ("simulate", "--gen", "complete", "--n", "2", "--trials", "5"),
    ("pair-gain", "--gen", "complete", "--n", "2", "--grid", "4"),
    ("thresholds", "--gen", "complete", "--n", "2", "--grid", "4"),
    ("bounds", "evaluate", "--tau", "0.5", "--gamma", "0.5"),
    ("bounds", "minimize", "--spec", "simple-exp", "--which", "simple"),
    ("bounds", "heatmap", "--grid", "3"),
    ("integral", "--profiles", "profiles.json"),
    ("verify", "--scale", "0.002"),
], ids=lambda argv: argv[0] if argv[0] != "bounds" else f"bounds-{argv[1]}")
def test_out_file_gets_the_bytes_stdout_gets(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "profiles.json").write_text(json.dumps(_PROFILES))

    def kept(text):
        return "".join(line for line in text.splitlines(keepends=True)
                       if '"timestamp"' not in line)

    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "") and out
    assert run_cli(capsys, *argv, "--out", "out.txt") == (0, "", "")
    assert kept((tmp_path / "out.txt").read_bytes().decode()) == kept(out)
