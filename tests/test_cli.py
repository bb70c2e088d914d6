import json
import subprocess
import sys
import time

import pytest

from morandim import cli
from morandim.system import fixture_document

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


def test_env_var_thread_fallback(monkeypatch):
    import os
    env = dict(os.environ, MORAN_DIM_THREADS="2")
    proc = subprocess.run(CLI + ["dims", "--fixture", "middle_thirds",
                                 "--which", "falconer"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0


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
