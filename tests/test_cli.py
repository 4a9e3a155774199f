import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flagflows
from flagflows import cli, limitcurve
from flagflows.cli import emit_summary, main, write_csv, write_json_artifact
from flagflows.devmaps import LeafPoint


def run(tmp_path, *args):
    return main(["--outdir", str(tmp_path)] + list(args))


def load_summary(tmp_path, name):
    return json.loads((tmp_path / f"{name}_summary.json").read_text())


def test_build_rep_writes_artifact_and_summary(tmp_path):
    assert run(tmp_path, "build-rep") == 0
    assert (tmp_path / "rep.json").exists()
    summary = load_summary(tmp_path, "build_rep")
    assert summary["genus"] == 2
    assert summary["n"] == 3
    assert summary["relator_distance"] < 1e-8


def test_sample_curve_writes_csv(tmp_path):
    assert run(tmp_path, "sample-curve") == 0
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "theta,chart_x,chart_y"
    assert len(lines) == load_summary(tmp_path, "sample_curve")["num_samples"] + 1


def test_frenet_check_passes_on_default_config(tmp_path):
    assert run(tmp_path, "frenet-check") == 0
    assert load_summary(tmp_path, "frenet_check")["passed"] is True


def test_dev_image_csv_has_documented_columns(tmp_path):
    assert run(tmp_path, "dev-image", "--map", "tr", "--num", "8") == 0
    header = (tmp_path / "dev_image.csv").read_text().splitlines()[0]
    assert header == "y,p0,p1,p2,line0,line1,line2"
    assert run(tmp_path, "dev-image", "--map", "alpha:1,3", "--num", "4") == 0
    header = (tmp_path / "dev_image.csv").read_text().splitlines()[0]
    assert header == "y,p0,p1,p2"
    # the root realizations need no n=3 map
    assert run(tmp_path, "--n", "4", "dev-image", "--map", "alpha:1,4", "--num", "4") == 0
    header = (tmp_path / "dev_image.csv").read_text().splitlines()[0]
    assert header == "y,p0,p1,p2,p3"


def test_flow_reports_period_matching_root_length(tmp_path):
    assert run(tmp_path, "flow", "--alpha", "2,3", "--word", "a1 b1",
               "--t-max", "1", "--steps", "4") == 0
    summary = load_summary(tmp_path, "flow")
    assert summary["rel_error"] < 1e-8
    orbit = (tmp_path / "flow_orbit.csv").read_text().splitlines()
    assert orbit[0] == "t,y,p0,p1,p2"
    assert len(orbit) == 6


@pytest.mark.parametrize("n, alpha", [("3", "1,3"), ("4", "2,4")])
def test_flow_reports_its_words_periods_row(tmp_path, n, alpha):
    """flow's period, root length and relative error are those of the word's periods.csv row."""
    assert run(tmp_path, "--n", n, "flow", "--alpha", alpha, "--word", "a1 b1") == 0
    flow = load_summary(tmp_path, "flow")
    assert run(tmp_path, "--n", n, "periods", "--alpha", alpha, "--max-len", "2") == 0
    with open(tmp_path / "periods.csv", newline="") as fh:
        [row] = [r for r in csv.DictReader(fh) if r["word"] == "a1 b1"]
    assert [flow["period"], flow["root_length"], flow["rel_error"]] == \
        [float(row["flow_period"]), float(row["root_length"]), float(row["rel_error"])]


@pytest.mark.parametrize("alpha", ["1,2", "1,3", "2,3"])
def test_flow_runs_at_n_4(tmp_path, alpha):
    assert run(tmp_path, "--n", "4", "flow", "--alpha", alpha, "--word", "a1") == 0
    assert len((tmp_path / "flow_orbit.csv").read_text().splitlines()) == 52


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 7: the float64 product of this word has condition "
                          "about 1/eps, so its determinant guard fails after load")
def test_flow_at_n_4_on_an_ill_conditioned_word(tmp_path):
    assert run(tmp_path, "--n", "4", "flow", "--alpha", "1,2", "--word", "A1 a2 A1 a2") == 0


@pytest.mark.parametrize("word, message", [
    ("e", "word image is not hyperbolic in the reference"),
    ("a", "unknown generator 'a'"),
], ids=["identity", "malformed"])
def test_flow_refuses_a_word_without_a_closed_orbit(tmp_path, capsys, monkeypatch, word,
                                                   message):
    """The identity parses and is refused as not hyperbolic; a malformed token is named.
    Both are refused before the curve is built."""
    monkeypatch.setattr(cli, "build_curve", _no_curve)
    assert run(tmp_path, "flow", "--alpha", "1,2", "--word", word) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == {"type": "ValueError", "message": message, "subcommand": "flow"}
    assert not any(tmp_path.iterdir())


def test_backward_flow_writes_its_orbit(tmp_path):
    assert run(tmp_path, "flow", "--alpha", "2,3", "--word", "a1",
               "--t-max", "-1", "--steps", "2") == 0
    orbit = (tmp_path / "flow_orbit.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in orbit[1:]] == ["0", "-0.5", "-1"]


def test_backward_decay_starts_at_time_zero(tmp_path):
    run(tmp_path, "decay", "--t-max", "-1", "--steps", "2")
    rows = (tmp_path / "decay.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["0", "-0.5", "-1"]


def test_periods_at_small_depth(tmp_path):
    assert run(tmp_path, "periods", "--alpha", "2,3", "--max-len", "2") == 0
    summary = load_summary(tmp_path, "periods")
    assert summary["passed"] is True
    assert summary["worst_rel_error"] < 1e-6


def test_render_emits_svg(tmp_path):
    assert run(tmp_path, "render", "--figure", "boundary") == 0
    svg = (tmp_path / "boundary.svg").read_text()
    assert svg.startswith("<svg") and svg.endswith("</svg>")


def test_module_errors_become_structured_json(tmp_path, capsys):
    code = run(tmp_path, "dev-image", "--map", "bogus")
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["subcommand"] == "dev-image"
    assert "bogus" in err["error"]["message"]


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"schema_version": 1, "bulge": 0.3, "word_ball": 3}))
    assert main(["--config", str(cfg), "--outdir", str(tmp_path), "build-rep"]) == 0
    assert load_summary(tmp_path, "build_rep")["bulge"] == 0.3


def test_config_file_accepts_an_integer_bulge(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"bulge": 0}))
    assert main(["--config", str(cfg), "--outdir", str(tmp_path), "build-rep"]) == 0
    assert '"bulge": 0.0,' in (tmp_path / "build_rep_summary.json").read_text()


def test_config_file_refuses_a_bulge_too_large_for_a_float(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"bulge": 1%s}' % ("0" * 400))
    assert main(["--config", str(cfg), "--outdir", str(tmp_path / "out"), "build-rep"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    assert err["message"].startswith("config key 'bulge' does not convert to a float")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("config", [(), ("--bulge", "0.3")], ids=["fuchsian", "bulged"])
def test_rep_and_curve_artifacts_hold_the_built_arrays(tmp_path, config):
    """rep.json holds the generator images, and curve.json each sample's theta and the
    levels of its flag frame, float for float."""
    assert run(tmp_path, *config, "build-rep") == 0
    assert run(tmp_path, *config, "sample-curve") == 0
    cfg = cli.load_config(cli.make_parser().parse_args([*config, "sample-curve"]))
    rep, _ = cli.build_rep(cfg)
    images = json.loads((tmp_path / "rep.json").read_text())["images"]
    assert list(images) == [str(k) for k in sorted(rep.images)]
    for k, image in rep.images.items():
        assert np.array_equal(images[str(k)], image)
    curve = cli.build_curve(cfg)
    samples = json.loads((tmp_path / "curve.json").read_text())["samples"]
    assert [sample["theta"] for sample in samples] == curve.thetas.tolist()
    for sample, frame in zip(samples, curve.frames):
        levels = sample["flag"]["subspaces"]
        assert [level["ambient_dim"] for level in levels] == [curve.n] * (curve.n - 1)
        for k, level in enumerate(levels):
            assert np.array_equal(level["basis"], frame[:, :k + 1])


def test_genus_is_neither_an_option_nor_a_config_key(tmp_path, capsys):
    """Only the genus-2 group is built, so nothing may name another genus."""
    with pytest.raises(SystemExit) as exc:
        main(["--outdir", str(tmp_path / "out"), "--genus", "2", "build-rep"])
    assert exc.value.code == 2
    usage = capsys.readouterr().err  # "2" is read as the subcommand
    assert "flagflows: error:" in usage and "--genus" not in usage
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"genus": 2}))
    assert main(["--config", str(cfg), "--outdir", str(tmp_path / "out"), "build-rep"]) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "ValueError"
    unknown, known = err["message"].split("; known keys are ")
    assert unknown == "unknown config keys ['genus']"
    assert "genus" not in known
    assert not (tmp_path / "out").exists()


def test_unsupported_schema_version_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"schema_version": 99}))
    assert main(["--config", str(cfg), "--outdir", str(tmp_path), "build-rep"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "schema" in err["error"]["message"]


@pytest.mark.parametrize("data, word", [({"schema_version": 1, "word-ball": 4}, "word-ball"),
                                        ([1], "JSON object"),
                                        ({"n": 3.5}, "'n'"),
                                        ({"bulge": True}, "'bulge'"),
                                        ({"word_ball": 3.9, "bulge": 0.3}, "'word_ball'"),
                                        ({"seed": 1.5}, "'seed'"),
                                        ({"n": "3"}, "'n'")],
                         ids=["unknown-key", "not-an-object", "float-n", "bool-bulge",
                              "float-word-ball", "float-seed", "string-n"])
def test_malformed_config_is_rejected(tmp_path, capsys, data, word):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    assert main(["--config", str(cfg), "--outdir", str(tmp_path), "build-rep"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert word in err["error"]["message"]
    assert not (tmp_path / "build_rep_summary.json").exists()


@pytest.mark.parametrize("config", [(), ("--bulge", "0.3")], ids=["fuchsian", "bulged"])
@pytest.mark.parametrize("word_ball", ["0", "-1"])
def test_word_ball_below_one_is_refused_at_load_time(tmp_path, capsys, config, word_ball):
    """Also on the Fuchsian config, whose closed-form curve never reads the word ball."""
    assert run(tmp_path, *config, "--word-ball", word_ball, "sample-curve") == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert "word_ball must be at least 1" in err["error"]["message"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("config", [("--bulge", "0.3"), ("--n", "2")], ids=["bulged", "n2"])
@pytest.mark.parametrize("command", [("periods", "--max-len", "3"), ("build-rep",)])
def test_word_ball_too_small_to_sample_is_refused_at_load_time(tmp_path, capsys, config,
                                                               command):
    """A sampled curve needs MIN_SAMPLES samples, and word_ball 2 holds 40 classes."""
    assert run(tmp_path, *config, "--word-ball", "2", *command) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert "MIN_SAMPLES" in err["error"]["message"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    (("--bulge", "nan", "build-rep"), "bulge must be finite; got nan"),
    (("--bulge", "inf", "verify-all"), "bulge must be finite; got inf"),
    (("--n", "4", "--bulge", "0.3", "sample-curve"), "needs n=3; got n=4 with bulge 0.3"),
    (("--n", "2", "--bulge", "0.3", "build-rep"), "needs n=3; got n=2 with bulge 0.3"),
    (("--n", "1", "build-rep"), "n must be at least 2"),
    (("--n", "0", "--bulge", "0.3", "periods"), "n must be at least 2"),
    (("--seed", "-1", "build-rep"), "seed must be non-negative; got -1"),
], ids=["nan-bulge", "infinite-bulge", "bulge-n4", "bulge-n2", "n1", "n0", "negative-seed"])
def test_configs_outside_the_limits_are_refused_at_load_time(tmp_path, capsys, args, message):
    assert run(tmp_path, *args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert message in err["error"]["message"]
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_config_file_refuses_a_non_finite_bulge(tmp_path, capsys, value):
    """Python's json reads NaN and Infinity, so the file needs the same check as the flag."""
    cfg = tmp_path / "config.json"
    cfg.write_text('{"bulge": %s}' % value)
    assert main(["--config", str(cfg), "--outdir", str(tmp_path / "out"), "build-rep"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert "bulge must be finite" in err["error"]["message"]
    assert not (tmp_path / "out").exists()


def test_word_balls_large_enough_to_sample_are_accepted(tmp_path):
    assert run(tmp_path, "--bulge", "0.3", "--word-ball", "3", "build-rep") == 0
    # the closed-form Fuchsian curve reads no word ball
    assert run(tmp_path, "--word-ball", "1", "build-rep") == 0


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(flagflows.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "flagflows", "--outdir", str(tmp_path),
                           "build-rep"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (tmp_path / "build_rep_summary.json").read_text()


def _no_curve(cfg):
    raise AssertionError("the curve was built")


N3_ONLY = [("verify-all",), ("decay",), ("dev-image", "--map", "tan+"),
           ("render", "--figure", "dev-tan+")]


@pytest.mark.parametrize("command,n", [
    pytest.param(command, n, id=n if command[0] == "verify-all" else f"{command[0]}-{n}")
    for command in N3_ONLY for n in ("2", "4", "5")
] + [
    pytest.param(("render", "--figure", "boundary"), n, id=f"render-boundary-{n}")
    for n in ("2", "4")
] + [
    pytest.param(("dev-image", "--map", "alpha:1,2"), "2", id="dev-image-alpha-2"),
    pytest.param(("flow", "--alpha", "1,2", "--word", "a1"), "2", id="flow-2"),
])
def test_verify_all_refuses_n_other_than_3(tmp_path, capsys, monkeypatch, command, n):
    """Subcommands refuse an n they cannot run at, naming it, before building a curve.

    Those that need the n=3 developing maps refuse any other n,
    `render --figure boundary` refuses even n (no affine chart), and the
    root realizations refuse n=2.
    """
    monkeypatch.setattr(cli, "build_curve", _no_curve)
    assert run(tmp_path, "--n", n, *command) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert f"n={n}" in err["error"]["message"]
    assert not any(tmp_path.iterdir())


MAPS = "choose from ['psi1', 'psi2', 'psi3', 'psi4', 'tan+', 'tan-', 'tr']"


@pytest.mark.parametrize("args, message", [
    (("dev-image", "--map", "bogus"), f"unknown map 'bogus'; {MAPS}"),
    (("render", "--figure", "bogus"), "unknown figure 'bogus'"),
    (("render", "--figure", "dev-bogus"), f"unknown map 'bogus'; {MAPS}"),
], ids=["dev-image-map", "render-figure", "render-dev-figure"])
def test_unknown_names_are_refused_before_the_curve_is_built(tmp_path, capsys, monkeypatch,
                                                             args, message):
    monkeypatch.setattr(cli, "build_curve", _no_curve)
    assert run(tmp_path, *args) == 2
    err = json.loads(capsys.readouterr().err)["error"]
    assert (err["type"], err["message"]) == ("ValueError", message)
    assert not any(tmp_path.iterdir())


def test_verify_all_evaluates_its_curve_in_few_stacked_calls(tmp_path, monkeypatch):
    """A count, not a time: every check passes its parameters to `interpolate` in stacks.

    The command line makes 67 calls, with 1,911 parameters in all; when each
    distinct parameter was evaluated alone it made 1,009.
    """
    interpolate = limitcurve.interpolate
    sizes = []
    monkeypatch.setattr(limitcurve, "interpolate", lambda curve, thetas: sizes.append(
        np.size(thetas)) or interpolate(curve, thetas))
    run(tmp_path, "--bulge", "0.3", "--seed", "0", "verify-all")
    assert load_summary(tmp_path, "verify_all")["checks"]["decay"]  # it ran to the end
    assert sum(sizes) > 1000
    assert len(sizes) <= 80


def test_verify_all_checks_leaf_points_in_stacks(tmp_path, monkeypatch):
    """A count, not a time: stacked triples are checked as arrays, not one `LeafPoint` each.

    The command line builds 100 `LeafPoint`s; checking each stacked triple
    as its own `LeafPoint` built 482.
    """
    built = []
    post_init = LeafPoint.__post_init__
    monkeypatch.setattr(LeafPoint, "__post_init__", lambda p: built.append(1) or post_init(p))
    run(tmp_path, "--bulge", "0.3", "--seed", "0", "verify-all")
    assert load_summary(tmp_path, "verify_all")["checks"]["decay"]  # it ran to the end
    assert len(built) <= 120


def test_decay_on_default_config(tmp_path):
    assert run(tmp_path, "decay", "--t-max", "4", "--steps", "12") == 0
    summary = load_summary(tmp_path, "decay")
    assert abs(summary["slope"] + 1.0) < 0.05


FLOW = ("flow", "--alpha", "2,3", "--word", "a1")
STEPS, T_MAX = "steps must be at least 1", "t_max must be finite and nonzero"
NUM, ALPHA = "num must be at least 1", "alpha expects two integers i,j"


@pytest.mark.parametrize("command, message", [
    (FLOW + ("--steps", "0"), STEPS),
    (FLOW + ("--steps", "-2"), STEPS),
    (("decay", "--steps", "0"), STEPS),
] + [
    (command + ("--t-max", t_max, "--steps", "2"), T_MAX)
    for command in (FLOW, ("decay",)) for t_max in ("0", "nan", "inf")
] + [
    (("dev-image", "--map", "tr", "--num", "0"), NUM),
    (("dev-image", "--map", "alpha:1,2", "--num", "-3"), NUM),
    (("flow", "--alpha", "1", "--word", "a1"), ALPHA),
    (("periods", "--alpha", "1,2,3"), ALPHA),
], ids=["flow-0", "flow-negative", "decay-0"] + [
    f"{command}-t-max-{t_max}" for command in ("flow", "decay") for t_max in ("0", "nan", "inf")
] + ["dev-image-num-0", "dev-image-num-negative", "flow-alpha-1", "periods-alpha-3"])
def test_fewer_than_one_step_is_refused(tmp_path, capsys, command, message):
    """An orbit of fewer than one step, or to a zero or non-finite time, is refused, and
    so are a leaf sweep of fewer than one point and a root that is not two integers."""
    assert run(tmp_path, *command) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert message in err["error"]["message"]
    assert not any(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, message", [
    (("dev-image", "--map", "tan+", "--x", "nan"), "parameter x must be finite; got nan"),
    (("--bulge", "0.3", "dev-image", "--map", "tan+", "--x", "nan"),
     "parameter x must be finite; got nan"),
    (("dev-image", "--map", "alpha:1,2", "--z", "inf"), "theta must be finite; got inf"),
], ids=["exact", "sampled", "root-realization"])
def test_non_finite_leaf_parameters_are_refused(tmp_path, capsys, args, message):
    """One JSON diagnostic and no numpy warning on stderr, and no file written."""
    assert run(tmp_path, *args) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "ValueError"
    assert message in err["error"]["message"]
    assert not any(tmp_path.iterdir())


NAN = float("nan")


@pytest.mark.parametrize("write, name", [
    (lambda cfg: emit_summary(cfg, "check", {"values": {"worst": [0.5, NAN]}}),
     "check_summary.json"),
    (lambda cfg: write_csv(cfg, "rows.csv", ["t", "d"], [[0.0, 1.0], [0.5, np.inf]]), "rows.csv"),
    (lambda cfg: write_json_artifact(cfg, "data.json", {"vector": [1.0, np.float64(NAN)]}),
     "data.json"),
], ids=["summary", "csv", "json"])
def test_non_finite_values_are_refused_before_anything_is_written(tmp_path, capsys, write, name):
    """Each writer names the artifact and writes no file, not even the rows before the bad one."""
    outdir = tmp_path / "out"
    with pytest.raises(ValueError, match=re.escape(name)):
        write({"outdir": str(outdir)})
    assert not outdir.exists()
    assert capsys.readouterr().out == ""
