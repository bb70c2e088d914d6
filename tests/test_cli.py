import argparse
import concurrent.futures
import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from morandim import attractor, cli, linalg, symbolic
from morandim.errors import ConfigError
from morandim.linalg import log_singular_values, op_norm
from morandim.system import fixture, fixture_document, fixture_names, parse_structure

CLI = [sys.executable, "-m", "morandim.cli"]


def run_cli(*args, check=False):
    proc = subprocess.run(CLI + list(args), capture_output=True, text=True)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.returncode}\n{proc.stderr}")
    return proc


def test_validate_exit_codes():
    assert run_cli("validate", "--fixture", "middle_thirds").returncode == 0
    assert run_cli("validate", "--fixture", "example_5_1").returncode == 2
    assert run_cli("validate", "--fixture", "example_5_2").returncode == 2


def test_validate_output_is_json_with_findings():
    proc = run_cli("validate", "--fixture", "example_5_1")
    obj = json.loads(proc.stdout.strip())
    codes = {f["code"] for f in obj["findings"]}
    assert "DiameterNotVanishing" in codes


def test_validate_unreadable_config_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("validate", str(bad)).returncode == 1
    missing = tmp_path / "missing.json"
    assert run_cli("validate", str(missing)).returncode == 1


def test_dims_middle_thirds_falconer():
    proc = run_cli("dims", "--fixture", "middle_thirds", "--which", "falconer",
                   check=True)
    rep = json.loads(proc.stdout.strip().splitlines()[0])
    assert rep["quantity"] == "falconer"
    assert abs(rep["estimate"] - 0.630930) < 1e-5


def test_dims_moran_rejects_nonscalar():
    proc = run_cli("dims", "--fixture", "example_5_4", "--which", "moran")
    assert proc.returncode == 2
    err = json.loads(proc.stderr.strip())
    assert "levels[0].maps[0]" in err["message"]


def test_dims_reports_schema():
    proc = run_cli("dims", "--fixture", "middle_thirds", "--which", "sstar,sa",
                   check=True)
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        rep = json.loads(line)
        assert set(rep) == {"quantity", "estimate", "bracket", "schedule",
                            "flags", "trace"}
        lo, hi = rep["bracket"]
        assert lo <= rep["estimate"] <= hi


def test_dims_unknown_which_exit_1():
    assert run_cli("dims", "--fixture", "middle_thirds",
                   "--which", "nope").returncode == 1


def test_render_wrong_dimension_exit_2(tmp_path):
    proc = run_cli("render", "--fixture", "middle_thirds",
                   "--out", str(tmp_path / "x.pgm"))
    assert proc.returncode == 2


def test_render_example_5_3_nonempty(tmp_path):
    out = tmp_path / "e53.pgm"
    proc = run_cli("render", "--fixture", "example_5_3", "--depth", "8",
                   "--resolution", "128", "--out", str(out), check=True)
    info = json.loads(proc.stdout.strip())
    assert info["occupied_pixels"] > 0
    assert out.read_bytes().startswith(b"P5\n128 128\n255\n")


def test_render_sierpinski_occupancy(tmp_path):
    out = tmp_path / "sc.pgm"
    proc = run_cli("render", "--fixture", "sierpinski_carpet", "--depth", "5",
                   "--resolution", "243", "--out", str(out), check=True)
    info = json.loads(proc.stdout.strip())
    assert info["occupied_pixels"] == 8 ** 5


def test_boxdim_writes_curve_and_manifest(tmp_path):
    out = tmp_path / "run"
    proc = run_cli("boxdim", "--fixture", "middle_thirds", "--depth", "10",
                   "--out", str(out), check=True)
    rep = json.loads(proc.stdout.strip())
    assert rep["quantity"] == "boxdim_slope"
    csv = (out / "curve.csv").read_text().splitlines()
    assert csv[0] == "epsilon,count,log_inv_eps,log_count"
    assert len(csv) >= 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "boxdim"
    assert manifest["outputs"]


def test_cutset_dump_columns(tmp_path):
    out = tmp_path / "cut.csv"
    proc = run_cli("cutset", "--fixture", "middle_thirds", "--s", "0.5",
                   "--epsilon", "0.012", "--out", str(out), check=True)
    info = json.loads(proc.stdout.strip())
    assert info["word_count"] == 32
    lines = out.read_text().splitlines()
    assert lines[0] == "word,depth,log_phi"
    assert len(lines) == 33


def test_boxdim_deterministic_bytes(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_cli("boxdim", "--fixture", "example_5_4", "--depth", "8",
                "--count", "20000", "--seed", "5", "--out", str(out), check=True)
        outs.append((out / "curve.csv").read_bytes())
    assert outs[0] == outs[1]


def test_threads_flag_does_not_change_output():
    a = run_cli("dims", "--fixture", "middle_thirds", "--which", "sstar,sa",
                "--threads", "1", check=True).stdout
    b = run_cli("dims", "--fixture", "middle_thirds", "--which", "sstar,sa",
                "--threads", "8", check=True).stdout
    assert a == b


def test_pretty_flag_still_json():
    proc = run_cli("validate", "--fixture", "middle_thirds", "--pretty", check=True)
    assert json.loads(proc.stdout)["errors"] == 0


def test_dims_indeterminate_exit_3():
    proc = run_cli("dims", "--fixture", "example_5_1", "--which", "sstar")
    assert proc.returncode == 3
    rep = json.loads(proc.stdout.strip().splitlines()[0])
    assert rep["estimate"] is None
    assert "indeterminate_trend" in rep["flags"]


def test_env_var_thread_fallback():
    # MORAN_DIM_THREADS is read by nothing: the estimators run in sequence
    import os
    argv = ["dims", "--fixture", "middle_thirds", "--which", "sstar,sa"]
    env = dict(os.environ, MORAN_DIM_THREADS="2")
    with_var = subprocess.run(CLI + argv, capture_output=True, text=True, env=env)
    assert with_var.returncode == 0
    assert with_var.stdout == run_cli(*argv, check=True).stdout


def test_boxdim_middle_thirds_cli_slope():
    proc = run_cli("boxdim", "--fixture", "middle_thirds", "--depth", "12",
                   check=True)
    rep = json.loads(proc.stdout.strip())
    assert abs(rep["estimate"] - 0.630930) <= 0.03
    assert rep["schedule"]["mode"] == "full_enumeration"


def test_cutset_over_word_cap_leaves_no_file(tmp_path):
    out = tmp_path / "f.csv"
    proc = run_cli("cutset", "--fixture", "example_5_4", "--s", "1.2",
                   "--epsilon", "1e-9", "--out", str(out))
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "budget"
    assert not out.exists()


@pytest.mark.parametrize("args,code,error", [
    (("--fixture", "example_5_2", "--s", "1", "--epsilon", "0.1"), 2, "inapplicable"),
    (("--fixture", "middle_thirds", "--s", "1", "--epsilon", "2"), 1, "config"),
    (("--fixture", "middle_thirds", "--s", "0", "--epsilon", "0.1"), 1, "config"),
    (("--fixture", "middle_thirds", "--s", "1", "--epsilon", "0.1",
      "--node-budget", "-3"), 1, "config"),
    (("--fixture", "middle_thirds", "--s", "1", "--epsilon", "0.1",
      "--node-budget", "0"), 1, "config"),
])
def test_cutset_bad_input_exits_with_one_json_line(args, code, error):
    proc = run_cli("cutset", *args)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


def test_cutset_out_writes_manifest_beside_the_csv(tmp_path):
    out = tmp_path / "dump" / "cut.csv"
    run_cli("cutset", "--fixture", "middle_thirds", "--s", "0.5",
            "--epsilon", "0.012", "--out", str(out), check=True)
    manifest = json.loads((out.parent / "manifest.json").read_text())
    assert manifest["command"] == "cutset"
    assert manifest["outputs"] == [str(out)]
    assert manifest["overrides"] == {"s": 0.5, "epsilon": 0.012, "node_budget": 10_000_000}
    over_cap = tmp_path / "over" / "cut.csv"
    proc = run_cli("cutset", "--fixture", "example_5_4", "--s", "1.2",
                   "--epsilon", "1e-9", "--out", str(over_cap))
    assert proc.returncode == 3
    assert not over_cap.parent.exists()


@pytest.mark.parametrize("budget,code,error", [
    ("-5", 1, "config"),
    ("0", 1, "config"),
    ("2", 3, "budget"),  # too small for any net-measure depth window
])
def test_dims_bad_node_budget_exits_with_one_json_line(budget, code, error):
    proc = run_cli("dims", "--fixture", "example_5_3", "--which", "sa",
                   "--node-budget", budget)
    assert proc.returncode == code
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


TRUNCATED_CUTSET = ("cutset", "--fixture", "example_5_3", "--s", "1.1",
                    "--epsilon", "1e-6", "--node-budget", "200")


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_truncated_cutset_dump_leaves_no_file(tmp_path):
    out = tmp_path / "f.csv"
    proc = run_cli(*TRUNCATED_CUTSET, "--out", str(out))
    assert proc.returncode == 3
    assert proc.stdout == ""
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "budget"
    assert not out.exists()


def test_truncated_cutset_summary_is_strict_json():
    proc = run_cli(*TRUNCATED_CUTSET)
    assert proc.returncode == 3
    summary = _strict_json(proc.stdout)
    assert summary["truncated"] is True
    assert summary["word_count"] == 0
    assert summary["log_sum"] is None


def test_dims_manifest_times_the_estimators(tmp_path, monkeypatch):
    real = cli.estimate_sstar

    def slow(*args, **kwargs):
        time.sleep(0.2)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_sstar", slow)
    out = tmp_path / "run"
    assert cli.main(["dims", "--fixture", "middle_thirds", "--which", "sstar",
                     "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["wall_time_s"] >= 0.2


def _set_period(doc):
    doc["schedule"]["period"] = "1"


def _null_maps(doc):
    doc["schedule"]["levels"][0]["maps"] = None


def _list_table(doc):
    doc["translations"]["table"] = [1]


def _bool_dim(doc):
    doc["dim"] = True


def _string_corner(doc):
    doc["seed_region"]["lo"] = "ab"


def _float_block_base(doc):
    doc["schedule"]["block_base"] = 2.5


def _string_seed(doc):
    doc["translations"]["seed"] = "x"


@pytest.mark.parametrize("fixture_name,mutate", [
    ("example_5_3", _set_period),
    ("middle_thirds", _null_maps),
    ("middle_thirds", _list_table),
    ("middle_thirds", _bool_dim),
    ("middle_thirds", _string_corner),
    ("example_5_4", _float_block_base),
    ("random_affine", _string_seed),
])
def test_mistyped_config_field_exit_1(tmp_path, fixture_name, mutate):
    doc = fixture_document(fixture_name)
    mutate(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"


def _main(capsys, *argv):
    started = time.monotonic()
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err, time.monotonic() - started


@pytest.mark.parametrize("argv", [
    ("dims", "--fixture", "example_5_4", "--which", "sstar", "--tol", "nan"),
    ("dims", "--fixture", "example_5_4", "--which", "sstar", "--tol", "0"),
    ("dims", "--fixture", "example_5_4", "--which", "sstar", "--tol", "-1"),
    ("dims", "--fixture", "scalar_blocks", "--which", "moran", "--depth", "-3"),
    ("dims", "--fixture", "scalar_blocks", "--which", "moran", "--depth", "0"),
    ("dims", "--fixture", "scalar_blocks", "--which", "moran", "--depth", "abc"),
    ("dims", "--fixture", "middle_thirds", "--which", ""),
    ("dims", "--fixture", "middle_thirds", "--which", " , "),
    ("boxdim", "--fixture", "middle_thirds", "--depth", "-2"),
    ("boxdim", "--fixture", "middle_thirds", "--count", "0"),
    ("boxdim", "--fixture", "middle_thirds", "--scales", "0.5,abc"),
    ("boxdim", "--fixture", "middle_thirds", "--scales", "0.5,0.5"),
    ("boxdim", "--fixture", "middle_thirds", "--scales", "-1,0.5"),
    ("boxdim", "--fixture", "middle_thirds", "--scales=-1,0.5"),
    ("boxdim", "--fixture", "middle_thirds", "--seed", "-1"),
    ("boxdim", "--fixture", "middle_thirds", "--depth", "2"),  # too shallow for two scales
    ("boxdim", "--fixture", "middle_thirds", "--depth", "4", "--scales", "1e-300,1e-301"),
    ("render", "--fixture", "sierpinski_carpet", "--resolution", "-5"),
    ("render", "--fixture", "sierpinski_carpet", "--resolution", "0"),
    ("validate", "--fixture", "middle_thirds", "--tol", "7"),
    ("validate", "--fixture", "middle_thirds", "--depth", "3"),
    ("dims", "--fixture", "middle_thirds", "--which", "falconer", "--s", "1"),
    ("cutset", "--fixture", "middle_thirds", "--s", "1", "--eps", "0.1"),
    ("cutset", "--fixture", "middle_thirds", "--s", "1"),
    ("cutset", "--fixture", "middle_thirds", "--s", "inf", "--epsilon", "0.1"),
    ("nope",),
    (),
])
def test_bad_argument_exits_1_with_one_json_config_line(capsys, argv):
    code, out, err, elapsed = _main(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"
    assert elapsed < 10.0


def test_tiny_tol_finishes(capsys):
    code, out, err, elapsed = _main(capsys, "dims", "--fixture", "example_5_4",
                                    "--which", "sstar", "--tol", "1e-300")
    assert code in (0, 3)
    assert err == ""
    rep = json.loads(out)
    assert rep["bracket"][0] <= 4 / 3 + 0.05 and rep["bracket"][1] >= 4 / 3 - 0.05
    assert elapsed < 10.0


def test_each_subcommand_declares_only_the_flags_it_reads():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, cli.argparse._SubParsersAction))
    declared = {name: {a.dest for a in parser._actions if a.dest != "help"}
                for name, parser in sub.choices.items()}
    common = {"config", "fixture", "pretty"}
    assert declared == {
        "validate": common,
        "dims": common | {"which", "tol", "depth", "seed", "threads", "node_budget", "out"},
        "boxdim": common | {"depth", "count", "seed", "scales", "threads", "out"},
        "render": common | {"depth", "count", "seed", "resolution", "threads", "out"},
        "cutset": common | {"s", "epsilon", "node_budget", "seed", "out"},
    }
    assert sum(len(flags) for flags in declared.values()) == 39


def test_unexpected_exception_exits_4_with_one_json_line(capsys, monkeypatch):
    def boom(spec):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "validate", boom)
    code, out, err, _ = _main(capsys, "validate", "--fixture", "middle_thirds")
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "internal", "message": "RuntimeError: boom"}


@pytest.mark.parametrize("command", [
    ("boxdim", "--depth", "6"),
    ("render", "--depth", "6", "--resolution", "8"),
])
def test_sampling_a_non_contracting_map_is_inapplicable(tmp_path, capsys, command):
    doc = fixture_document("similarity_pair")
    doc["schedule"]["levels"][0]["maps"][1][0][0] = 1e308
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err, _ = _main(capsys, *command, str(path), "--out", str(tmp_path / "o.pgm"))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "inapplicable"


def test_unusable_out_path_is_a_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, out, err, _ = _main(capsys, "boxdim", "--fixture", "middle_thirds", "--depth", "8",
                              "--out", str(taken))
    assert code == 1
    assert json.loads(err.splitlines()[-1])["error"] == "config"


def test_a_moran_depth_above_the_chain_cap_exits_3_at_once(capsys):
    code, out, err, elapsed = _main(capsys, "dims", "--fixture", "scalar_blocks",
                                    "--which", "moran", "--depth", "1000000000")
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "budget"
    assert elapsed < 1.0


def test_cutset_whose_diameters_never_vanish_stops_at_the_chain_cap(capsys):
    code, out, err, elapsed = _main(capsys, "cutset", "--fixture", "example_5_1",
                                    "--s", "0.7", "--epsilon", "0.05")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "budget"
    assert elapsed < 10.0


@pytest.mark.parametrize("fixture_name, flags", [
    ("example_5_4", []),
    # 139,818 and 198,787 of 200k samples occupied at the two finest kept scales
    ("sierpinski_carpet", ["sample_saturated"]),
])
def test_boxdim_counts_each_scale_once_and_flags_saturation(capsys, box_count_calls,
                                                            fixture_name, flags):
    code, out, err, _ = _main(capsys, "boxdim", "--fixture", fixture_name, "--seed", "7")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["flags"] == flags
    assert len(box_count_calls) == len(set(box_count_calls))
    assert set(rep["schedule"]["scales"]) <= set(box_count_calls)


def test_full_enumeration_boxdim_is_never_flagged(capsys):
    code, out, _, _ = _main(capsys, "boxdim", "--fixture", "random_affine", "--seed", "7")
    rep = json.loads(out)
    assert code == 0 and rep["schedule"]["mode"] == "full_enumeration"
    assert rep["flags"] == []


WIDE_LEVEL = 70_000


def _wide_level_config(tmp_path):
    """middle_thirds with one constant level of WIDE_LEVEL equal maps x -> 1e-5 x."""
    n = WIDE_LEVEL
    return _config(tmp_path, "middle_thirds", [
        {"branch_count": n, "maps": [[[1e-5]]] * n, "digits": [[j / n] for j in range(n)]}])


def test_boxdim_enumerates_a_level_wider_than_uint16(tmp_path, capsys):
    # 70,000 depth-1 words fit the enumeration budget; their digits do not fit uint16
    code, out, err, _ = _main(capsys, "boxdim", _wide_level_config(tmp_path), "--depth", "1",
                              "--count", "5000")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["schedule"]["mode"] == "full_enumeration"
    assert rep["schedule"]["count"] == WIDE_LEVEL


def test_default_scales_stops_at_the_first_non_ternary_map(tmp_path, capsys, monkeypatch):
    # 1e-5 is no power of 1/3, so the first map already makes the scales dyadic
    calls = []
    monkeypatch.setattr(attractor, "log_singular_values",
                        lambda m: calls.append(m) or log_singular_values(m))
    code, out, err, _ = _main(capsys, "boxdim", _wide_level_config(tmp_path), "--depth", "1",
                              "--count", "5000")
    assert code == 0 and err == ""
    assert len(calls) == 1


TWO_D_FIXTURES = [name for name in fixture_names() if fixture_document(name)["dim"] == 2]


@pytest.mark.parametrize("name", TWO_D_FIXTURES)
def test_boxdim_takes_each_map_norm_once(monkeypatch, capsys, name):
    # validate, the truncation error and the default scales all read the
    # parsed levels' norms; every name the package binds op_norm to is counted
    calls = []
    bound = [(module, attr) for module_name, module in list(sys.modules.items())
             if module_name.split(".")[0] == "morandim"
             for attr, value in vars(module).items() if value is linalg.op_norm]
    assert (linalg, "op_norm") in bound
    for module, attr in bound:
        monkeypatch.setattr(module, attr, lambda m: calls.append(m) or op_norm(m))
    code, _, _, _ = _main(capsys, "boxdim", "--fixture", name)
    assert code in (0, 1)  # example_5_1 and example_5_3 refuse depth 10 as too shallow
    levels = fixture(name).schedule.levels
    assert len(calls) == sum(lvl.branch_count for lvl in levels)


@pytest.mark.parametrize("argv, blocked", [
    (("boxdim", "--fixture", "middle_thirds", "--depth", "8"), "report.json"),
    (("boxdim", "--fixture", "middle_thirds", "--depth", "8"), "manifest.json"),
    (("dims", "--fixture", "middle_thirds", "--which", "falconer"), "falconer.json"),
])
def test_unwritable_out_file_leaves_no_stdout_and_no_temp_file(tmp_path, capsys, argv, blocked):
    out_dir = tmp_path / "out"
    (out_dir / blocked).mkdir(parents=True)  # a directory where a file must go
    code, out, err, _ = _main(capsys, *argv, "--out", str(out_dir))
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "config"
    assert all(not p.name.endswith(".tmp") for p in out_dir.iterdir())


def test_stale_temp_file_from_a_killed_run_is_overwritten(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    monkeypatch.setattr(cli.os, "getpid", lambda: 4242)
    (out_dir / "report.json.4242.tmp").write_text("partial")
    code, out, _, _ = _main(capsys, "boxdim", "--fixture", "middle_thirds", "--depth", "8",
                            "--out", str(out_dir))
    assert code == 0
    assert json.loads((out_dir / "report.json").read_text()) == json.loads(out)
    assert all(not p.name.endswith(".tmp") for p in out_dir.iterdir())


def test_too_fine_scales_are_blamed_on_scales(capsys):
    code, out, err, _ = _main(capsys, "boxdim", "--fixture", "middle_thirds", "--depth", "4",
                              "--scales", "1e-300,1e-301")
    assert code == 1 and out == ""
    message = json.loads(err)["message"]
    assert message.startswith("boxdim --scales 1e-300,1e-301:") and "int64" in message


def test_out_files_are_complete_and_alone(tmp_path, capsys):
    out_dir = tmp_path / "out"
    code, out, _, _ = _main(capsys, "boxdim", "--fixture", "middle_thirds", "--depth", "8",
                            "--out", str(out_dir))
    assert code == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["curve.csv", "manifest.json",
                                                         "report.json"]
    assert json.loads((out_dir / "report.json").read_text()) == json.loads(out)
    rows = (out_dir / "curve.csv").read_text().splitlines()
    assert len(rows) == 1 + len(json.loads(out)["trace"])


@pytest.mark.parametrize("argv", [
    ("cutset", "--fixture", "middle_thirds", "--s", "0.5", "--epsilon", "0.012"),
    ("render", "--fixture", "sierpinski_carpet", "--depth", "3", "--resolution", "27"),
])
def test_unusable_out_file_leaves_no_stdout_and_no_temp_file(tmp_path, capsys, argv):
    taken = tmp_path / "taken"
    taken.mkdir()  # a directory where the file must go
    code, out, err, _ = _main(capsys, *argv, "--out", str(taken))
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "config"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert list(taken.iterdir()) == []


def _dims_lines(capsys, source, which, *extra):
    """Exit code and stdout lines of one ``dims`` run on ``source``, its config argv."""
    code, out, err, _ = _main(capsys, "dims", *source, "--which", which, *extra)
    assert code in (0, 3) and err == ""
    return code, out.splitlines()


# a constant family of three positive, non-diagonal maps: the generic walker
POS3 = [[[0.45, 0.15], [0.1, 0.3]], [[0.25, 0.2], [0.05, 0.5]], [[0.3, 0.1], [0.12, 0.2]]]
S_SA_FALCONER = ("sstar", "sa", "falconer")


@pytest.mark.parametrize("fixture_name, names, extra", [
    ("middle_thirds", S_SA_FALCONER, ()),  # the chain
    ("random_diag_pair", S_SA_FALCONER, ()),  # the composition lattice
    ("pos3", S_SA_FALCONER, ("--node-budget", "20000")),  # the generic walker
    ("example_5_3", ("sstar", "sa"), ("--node-budget", "3000")),
])
def test_dims_prints_reports_in_which_order(tmp_path, capsys, fixture_name, names, extra):
    # s*, s_A and falconer share one engine, yet each report keeps the bytes
    # of its lone run, whatever runs before it on that engine
    source = ([_config(tmp_path, "random_affine", [{"branch_count": 3, "maps": POS3}])]
              if fixture_name == "pos3" else ["--fixture", fixture_name])
    alone = {name: _dims_lines(capsys, source, name, *extra) for name in names}
    for order in itertools.permutations(names):
        code, got = _dims_lines(capsys, source, ",".join(order), *extra)
        assert got == [line for name in order for line in alone[name][1]]
        assert code == max(alone[name][0] for name in order)


@pytest.mark.parametrize("which", ["sstar,sa,falconer", "falconer,sstar", "sa,falconer",
                                   "falconer", "falconer,moran,sa"])
def test_a_dims_job_builds_one_engine(monkeypatch, capsys, which):
    import morandim.dims as dims

    built = []

    def counted(spec):
        built.append(spec)
        return symbolic.make_engine(spec)

    monkeypatch.setattr(dims, "make_engine", counted)
    code, _, err, _ = _main(capsys, "dims", "--fixture", "middle_thirds", "--which", which)
    assert code == 0 and err == ""
    assert len(built) == 1


@pytest.mark.parametrize("which, error", [
    ("falconer", "the pressure root needs a stationary (constant) schedule"),
    ("falconer,sa", "the pressure root needs a stationary (constant) schedule"),
    ("sa,falconer", "levels[1].maps[0]: op_norm 1.5 >= 1"),
    ("sstar,falconer", "levels[1].maps[0]: op_norm 1.5 >= 1"),
])
def test_falconer_blames_the_schedule_before_the_invariant(tmp_path, capsys, which, error):
    # a non-constant schedule with a map that does not contract: each name
    # fails as it would alone, and the first in --which order is reported
    level = fixture_document("middle_thirds")["schedule"]["levels"][0]
    config = _config(tmp_path, "middle_thirds", [level, {**level, "maps": [[[1.5]]] * 2}],
                     kind="periodic")
    code, out, err, _ = _main(capsys, "dims", config, "--which", which)
    assert code == 2 and out == ""
    assert [json.loads(line)["message"] for line in err.splitlines()] == [error]


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("budget", ["3000", "400000"])
def test_generic_dims_reports_match_the_golden_bytes(capsys, budget, threads):
    # example_5_3 repeats I/3 three times on level 1; its walker merges the
    # copies into one class but still budgets words, so windows, horizons
    # and flags, and so these bytes, are those of the per-word tree.  The
    # larger budget's deepest levels hold 2^16 classes, so two threads split them
    code, out, err, _ = _main(capsys, "dims", "--fixture", "example_5_3",
                              "--which", "sstar,sa", "--node-budget", budget,
                              "--threads", threads)
    assert code == 0 and err == ""
    want = (GOLDEN / f"dims_example_5_3_sstar_sa_budget_{budget}.txt").read_text()
    assert out == want


class _RecordingPool:
    """Stands in for the thread pool: records ``max_workers`` and runs every
    submitted call at once, in the calling thread."""

    def __init__(self, created, max_workers):
        created.append(max_workers)

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self):
        pass


@pytest.mark.parametrize("threads", ["64", "2", "1", "0", "-3"])
def test_threads_are_capped_at_the_usable_cpus(capsys, monkeypatch, threads):
    created = []
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor",
                        lambda max_workers: _RecordingPool(created, max_workers))
    monkeypatch.setattr(symbolic, "_CHUNK", 8)  # the tree's levels past depth 4 split
    argv = ("dims", "--fixture", "example_5_3", "--which", "sstar,sa", "--node-budget", "3000")
    code, out, err, _ = _main(capsys, *argv, "--threads", threads)
    assert code == 0 and err == ""
    assert out == (GOLDEN / "dims_example_5_3_sstar_sa_budget_3000.txt").read_text()
    workers = min(int(threads), len(os.sched_getaffinity(0)))
    assert created == ([workers] if workers > 1 else [])


@pytest.mark.parametrize("fixture,which", [
    ("scalar_blocks", "moran"),
    *((f, "falconer") for f in ("similarity_pair", "diag_triple", "middle_thirds",
                                "random_affine", "random_diag_pair", "sierpinski_carpet")),
    *((f, "sstar,sa") for f in ("example_5_4", "middle_thirds", "random_diag_pair",
                                "sierpinski_carpet", "similarity_pair", "diag_triple",
                                "scalar_blocks", "random_affine")),
])
def test_root_reports_match_the_golden_bytes(capsys, fixture, which):
    # the falconer trace lists every probe, the first at s = d + 1; the s* and
    # s_A reports pin the chain (d = 1 and 2, constant and block schedules)
    # and the composition lattice
    code, out, err, _ = _main(capsys, "dims", "--fixture", fixture, "--which", which)
    assert code == 0 and err == ""
    name = which.replace(",", "_")
    assert out == (GOLDEN / f"dims_{fixture}_{name}.txt").read_text()


# sha256 and row count of each CSV, written by the depth-first word walk
# before the level-by-level one replaced it; example_5_3 at s = 0.4 pins
# the order, which is depth-first, not lexicographic.  The chain and lattice
# cases pin their stdout summary too (example_5_3's log_sum is pinned below)
CUTSET_DIGESTS = json.loads((GOLDEN / "cutset_digests.json").read_text())


@pytest.mark.parametrize("case", sorted(CUTSET_DIGESTS))
def test_cutset_dumps_match_the_golden_digests(tmp_path, capsys, case):
    out = tmp_path / "cut.csv"
    code, stdout, err, _ = _main(capsys, "cutset", *case.split(), "--out", str(out))
    assert code == 0 and err == ""
    data = out.read_bytes()
    got = {"sha256": hashlib.sha256(data).hexdigest(), "rows": data.count(b"\n") - 1}
    if "stdout" in CUTSET_DIGESTS[case]:
        got["stdout"] = stdout
    assert got == CUTSET_DIGESTS[case]


# example_5_3's cut-sets, with the summaries its unmerged word-class tree
# printed: (s, epsilon) -> (word_count, node_budget_used, log_sum)
EXAMPLE_5_3_CUTSETS = {
    ("1.1", "0.01"): (42, 81, 1.104561269439379),
    ("0.4", "0.02"): (6510, 13017, 7.14857372180052),
    ("1.37", "1e-4"): (768, 1533, -0.344725973262602),
}


@pytest.mark.parametrize("s, eps", sorted(EXAMPLE_5_3_CUTSETS))
def test_cutset_on_the_quotiented_tree_keeps_its_counts(tmp_path, capsys, s, eps):
    """The generic walker merges example_5_3's mirror-image subtrees, so a
    cut-set's groups stand for the words of both.  Its counts and its dump
    keep their values; ``log_sum`` adds a merged group once with log 2 in
    its count instead of two equal groups, so it may move by rounding only,
    within 4 u * max(1, |log_sum|), u = 2^-53."""
    out = tmp_path / "cut.csv"
    code, stdout, err, _ = _main(capsys, "cutset", "--fixture", "example_5_3", "--s", s,
                                 "--epsilon", eps, "--out", str(out))
    assert code == 0 and err == ""
    rep = json.loads(stdout)
    words, nodes, log_sum = EXAMPLE_5_3_CUTSETS[s, eps]
    assert (rep["word_count"], rep["node_budget_used"], rep["truncated"]) == (words, nodes, False)
    assert abs(rep["log_sum"] - log_sum) <= 4 * 2.0 ** -53 * max(1.0, abs(log_sum))
    data = out.read_bytes()
    assert data.count(b"\n") - 1 == words
    case = f"--fixture example_5_3 --s {s} --epsilon {eps}"
    if case in CUTSET_DIGESTS:
        assert hashlib.sha256(data).hexdigest() == CUTSET_DIGESTS[case]["sha256"]


# a 1-D periodic schedule of distinct scalar maps, one of them negative:
# the generic walker's reports and the cut-set lister's rows at d = 1
PERIODIC_D1 = GOLDEN / "periodic_scalar_d1.json"


def test_d1_periodic_dims_reports_match_the_golden_bytes(capsys):
    code, out, err, _ = _main(capsys, "dims", str(PERIODIC_D1), "--which", "sstar,sa")
    assert code == 0 and err == ""
    assert out == (GOLDEN / "dims_periodic_scalar_d1_sstar_sa.txt").read_text()


def test_d1_periodic_cutset_dump_matches_the_golden_digest(tmp_path, capsys):
    want = json.loads((GOLDEN / "cutset_periodic_scalar_d1.json").read_text())
    out = tmp_path / "cut.csv"
    code, stdout, err, _ = _main(capsys, "cutset", str(PERIODIC_D1), *want["argv"].split(),
                                 "--out", str(out))
    assert code == 0 and err == ""
    data = out.read_bytes()
    summary = json.loads(stdout)
    assert summary.pop("config") == str(PERIODIC_D1)
    assert {"argv": want["argv"], "sha256": hashlib.sha256(data).hexdigest(),
            "rows": data.count(b"\n") - 1, "summary": summary} == want


@pytest.mark.parametrize("argv, name", [
    (("--fixture", "example_5_1"), "example_5_1"),
    (("--fixture", "example_5_2"), "example_5_2"),
    (("--fixture", "middle_thirds"), "middle_thirds"),
    (("--fixture", "example_5_2", "--pretty"), "example_5_2_pretty"),
])
def test_validate_findings_match_the_golden_bytes(capsys, argv, name):
    code, out, err, _ = _main(capsys, "validate", *argv)
    assert code == (0 if name == "middle_thirds" else 2) and err == ""
    assert out == (GOLDEN / f"validate_{name}.txt").read_text()


def test_a_repeated_which_name_runs_prints_and_writes_once(tmp_path, capsys):
    out = tmp_path / "d"
    code, stdout, err, _ = _main(capsys, "dims", "--fixture", "middle_thirds",
                                 "--which", "sstar,sstar", "--out", str(out))
    assert code == 0 and err == ""
    assert [json.loads(line)["quantity"] for line in stdout.splitlines()] == ["s_star"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == [str(out / "s_star.json")]
    assert manifest["overrides"]["which"] == "sstar,sstar"


def test_a_double_encoded_config_is_a_config_error(tmp_path, capsys):
    # a JSON string holding a config is not a config: the file is decoded once
    path = tmp_path / "double.json"
    path.write_text(json.dumps(json.dumps(fixture_document("middle_thirds"))))
    code, out, err, _ = _main(capsys, "validate", str(path))
    assert code == 1 and out == ""
    assert [json.loads(line) for line in err.splitlines()] == [
        {"error": "config", "message": "$: expected an object"}]


@pytest.mark.parametrize("which,quantities", [("falconer", ["falconer"]),
                                              ("moran", ["moran_lower", "moran_upper"])])
def test_a_root_above_64_exits_3_with_null_estimates(tmp_path, capsys, which, quantities):
    # two copies of 0.99: every root is log 2 / -log 0.99 = 68.97
    config = _config(tmp_path, "middle_thirds", [
        {"branch_count": 2, "maps": [[[0.99]], [[0.99]]], "digits": [[0.0], [0.01]]}])
    code, out, err, _ = _main(capsys, "dims", config, "--which", which)
    assert code == 3 and err == ""
    reports = [json.loads(line) for line in out.splitlines()]
    assert [rep["quantity"] for rep in reports] == quantities
    for rep in reports:
        assert rep["estimate"] is None and "upper_endpoint_below" in rep["flags"]


def test_a_dims_job_validates_once(monkeypatch, capsys):
    import morandim.dims as dims
    import morandim.symbolic as symbolic
    from morandim.system import validate

    calls = []

    def counted(spec):
        calls.append(spec)
        return validate(spec)

    for module in (cli, dims, symbolic):
        monkeypatch.setattr(module, "validate", counted, raising=False)
    code, _, err, _ = _main(capsys, "dims", "--fixture", "example_5_4", "--which", "sstar,sa")
    assert code == 0 and err == ""
    assert len(calls) == 1


@pytest.mark.parametrize("which", ["sstar", "sa", "sstar,sa", "sa,sstar"])
def test_dims_on_a_singular_system_is_inapplicable(capsys, which):
    code, out, err, _ = _main(capsys, "dims", "--fixture", "example_5_2", "--which", which)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "inapplicable"


def _config(tmp_path, fixture_name, levels, kind="constant"):
    """A fixture's document with a ``kind`` schedule over ``levels``, written to tmp_path."""
    doc = fixture_document(fixture_name)
    doc["schedule"] = {"kind": kind, "levels": levels}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_falconer_honours_the_node_budget(tmp_path, capsys):
    # example_5_3's shear level: 2 maps, so 2 + 4 + ... + 32 = 62 nodes through depth 5
    shear = _config(tmp_path, "example_5_3", [fixture_document("example_5_3")["schedule"]
                                              ["levels"][1]])
    code, out, err, seconds = _main(capsys, "dims", shear, "--which", "falconer",
                                    "--node-budget", "100")
    assert code == 0 and err == ""
    assert json.loads(out)["schedule"]["depths"] == [2, 5]
    assert seconds < 1.0
    code, out, err, _ = _main(capsys, "dims", shear, "--which", "falconer", "--node-budget", "2")
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "budget"


def test_lattice_net_measure_builds_only_the_levels_that_fit(tmp_path, capsys):
    # four distinct diagonal maps: C(t + 3, 3) classes at depth t, so a budget
    # of 10^5 reaches depth 36, short of every default window's horizon
    maps = [[[a, 0.0], [0.0, b]] for a, b in ((0.3, 0.2), (0.25, 0.3), (0.2, 0.25), (0.3, 0.3))]
    digits = [[0.0, 0.0], [0.7, 0.0], [0.0, 0.7], [0.7, 0.7]]
    config = _config(tmp_path, "random_diag_pair",
                     [{"branch_count": 4, "maps": maps, "digits": digits}])
    code, out, err, seconds = _main(capsys, "dims", config, "--which", "sa",
                                    "--node-budget", "100000")
    assert code == 3 and err == ""
    rep = json.loads(out)
    assert rep["schedule"]["engine"] == "diagonal"
    assert rep["estimate"] is None and "budget_truncated" in rep["flags"]
    assert seconds < 10.0


# ---------------------------------------------------------------------------
# the parser is built once per process
# ---------------------------------------------------------------------------

# a valid value of every flag, none of them the default
FLAG_VALUES = {"which": "sa,moran", "tol": "0.5", "depth": "3", "count": "7", "seed": "4",
               "scales": "0.5,0.25", "resolution": "9", "threads": "-2", "node_budget": "11",
               "out": "somewhere", "s": "1.5", "epsilon": "0.25"}
PARSER_ARGVS = [
    *([name] for name in cli._COMMANDS),
    *([name, "c.json", "--fixture", "middle_thirds", "--pretty",
       *itertools.chain.from_iterable((cli._FLAGS[dest][0], FLAG_VALUES[dest])
                                      for dest in defaults)]
      for name, (_, defaults) in cli._COMMANDS.items()),
    ["cutset", "--s", "1", "--eps", "0.1"],  # an abbreviation of --epsilon
    ["dims", "--fixture", "middle_thirds", "--nope"],
    ["boxdim", "--count", "0"],
    ["cutset", "--epsilon", "0.1"],
    [],
]


def _parse(parser, argv):
    """The Namespace ``parser`` gives ``argv``, or its ConfigError text."""
    try:
        return parser.parse_args(argv)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def test_the_reused_parser_parses_as_a_fresh_one():
    assert cli.build_parser() is cli.build_parser()
    reused = [_parse(cli.build_parser(), argv) for argv in PARSER_ARGVS]
    fresh = [_parse(cli.build_parser.__wrapped__(), argv) for argv in PARSER_ARGVS]
    assert reused == fresh
    # bare cutset lacks --s; each full argv parses; the last five are errors
    assert [i for i, got in enumerate(reused) if isinstance(got, str)] == [4, 10, 11, 12, 13, 14]


def test_two_main_calls_build_the_parser_once(monkeypatch, capsys):
    added = []
    real = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        added.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    cli.build_parser.cache_clear()
    try:
        for _ in range(2):
            assert _main(capsys, "validate", "--fixture", "middle_thirds")[0] == 0
        once = len(added)
        cli.build_parser.__wrapped__()
    finally:
        cli.build_parser.cache_clear()
    assert once == len(added) - once == 45  # 39 flags and 6 --help


# ---------------------------------------------------------------------------
# cut-set dumps are formatted from the word walk's arrays
# ---------------------------------------------------------------------------

def _generated_document(d, seed):
    """A periodic config whose first level has 12 maps: the first three with
    singular values in [0.02, 0.05], which stop at depth 1 at epsilon 0.1,
    the others in [0.3, 0.5], as are the second level's three."""
    rng = np.random.default_rng(seed)

    def make(lo, hi):
        u, _ = np.linalg.qr(rng.normal(size=(d, d)))
        v, _ = np.linalg.qr(rng.normal(size=(d, d)))
        return (u @ np.diag(rng.uniform(lo, hi, d)) @ v.T).tolist()

    levels = [[make(0.02, 0.05) for _ in range(3)] + [make(0.3, 0.5) for _ in range(9)],
              [make(0.3, 0.5) for _ in range(3)]]
    return {"dim": d, "seed_region": {"lo": [0.0] * d, "hi": [1.0] * d},
            "schedule": {"kind": "periodic",
                         "levels": [{"branch_count": len(maps), "maps": maps}
                                    for maps in levels]},
            "translations": {"kind": "explicit", "table": {}}}


@pytest.mark.parametrize("s", [0.5, 1.5, 2.5])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_cutset_dump_is_the_word_walk_formatted_row_by_row(tmp_path, capsys, d, s):
    doc = _generated_document(d, seed=d)
    config, out = tmp_path / "config.json", tmp_path / "cut.csv"
    config.write_text(json.dumps(doc))
    code, _, err, _ = _main(capsys, "cutset", str(config), "--s", repr(s), "--epsilon", "0.1",
                            "--out", str(out))
    assert code == 0 and err == ""
    words = list(symbolic.iter_cutset_words(parse_structure(doc), s, 0.1))
    assert out.read_text() == "word,depth,log_phi\n" + "".join(
        f"{w},{len(w)},{lph!r}\n" for w, lph in words)
    assert min(len(w) for w, _ in words) == 1 < max(len(w) for w, _ in words)
    assert max(max(w.digits) for w, _ in words) >= 10


def test_cutset_dump_over_a_lowered_word_cap_leaves_no_file(tmp_path, capsys, monkeypatch):
    # middle_thirds at s = 0.7, epsilon 0.01 stops all 32 words at depth 5
    monkeypatch.setattr(symbolic, "_WORD_ENUM_CAP", 20)
    out = tmp_path / "dump" / "cut.csv"
    code, stdout, err, _ = _main(capsys, "cutset", "--fixture", "middle_thirds", "--s", "0.7",
                                 "--epsilon", "0.01", "--out", str(out))
    assert code == 3 and stdout == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "budget",
                                    "message": "cut-set enumeration exceeds 20 words"}
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# degenerate levels end in a documented exit code
# ---------------------------------------------------------------------------

ZERO_LEVEL = ("periodic", [(0.0, 0.0), (0.3, 0.3)])


@pytest.mark.parametrize("config, argv, code, message", [
    (ZERO_LEVEL, ["validate"], 2, None),
    (ZERO_LEVEL, ["dims", "--which", "sstar"], 2, "levels[0].maps[0]: matrix is singular"),
    (ZERO_LEVEL, ["dims", "--which", "moran"], 2, "levels[0].maps[0]: matrix is singular"),
    (ZERO_LEVEL, ["cutset", "--s", "0.5", "--epsilon", "0.1"], 2,
     "levels[0].maps[0]: matrix is singular"),
    (("constant", [(0.0, 0.0)]), ["boxdim", "--depth", "3"], 0, None),
    (("constant", [(1.2, 0.3)]), ["dims", "--which", "moran"], 2,
     "levels[0].maps[0]: op_norm 1.2 >= 1"),
    (("constant", [(0.0, 0.3)]), ["dims", "--which", "moran"], 2,
     "levels[0].maps[0]: matrix is singular"),
])
def test_degenerate_levels_end_in_a_documented_exit_code(tmp_path, config, argv, code,
                                                         message):
    kind, levels = config  # 1-D levels of two maps x -> a x and x -> b x
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "dim": 1, "seed_region": {"lo": [0.0], "hi": [1.0]},
        "schedule": {"kind": kind, "levels": [
            {"branch_count": 2, "maps": [[[a]], [[b]]], "digits": [[0.0], [0.5]]}
            for a, b in levels]},
        "translations": {"kind": "digit_grid"}}))
    # a fresh process, so a loop that never ends fails this test instead of hanging the run
    proc = subprocess.run(CLI + [argv[0], str(path), *argv[1:]], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    if message:
        assert proc.stdout == ""
        assert [json.loads(line) for line in proc.stderr.splitlines()] == [
            {"error": "inapplicable", "message": message}]
        return
    assert proc.stderr == ""
    (report,) = [json.loads(line) for line in proc.stdout.splitlines()]
    if argv[0] == "validate":  # the zero level vanishes: no DiameterNotVanishing
        assert [(f["code"], f["where"]) for f in report["findings"]] == [
            ("NonsingularityViolated", "levels[0].maps[0]"),
            ("NonsingularityViolated", "levels[0].maps[1]")]
    else:  # two points: the box-counting slope is 0
        assert abs(report["estimate"]) < 1e-9
        assert len(report["schedule"]["scales"]) == attractor._MAX_SCALES
