import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sigma_align import cli

S1_CONFIG = {
    "cfg": {"n1": 1, "n2": 1, "la": 0, "lb": 2, "lc": 0},
    "d": {"db1": ["1/3", "1/3"], "db2": ["1/3", "1/3"]},
    "n": 1,
    "seed": 7,
    "trials": 2,
    "mode": "float",
}


@pytest.fixture
def s1_config_file(tmp_path):
    p = tmp_path / "s1.json"
    p.write_text(json.dumps(S1_CONFIG))
    return str(p)


def run_cli(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def test_region_check_feasible(s1_config_file, capsys):
    code, out = run_cli(["region", "check", "--config", s1_config_file],
                        capsys)
    doc = json.loads(out)
    assert code == 0
    assert doc["feasible"] is True
    assert doc["mu0"] == 3
    assert doc["config"]["seed"] == 7


def test_region_check_infeasible(tmp_path, capsys):
    cfg = dict(S1_CONFIG)
    cfg["cfg"] = {"n1": 2, "n2": 2, "la": 0, "lb": 3, "lc": 0}
    cfg["d"] = {"db1": ["1/2"] * 3, "db2": ["1/2"] * 3}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    code, out = run_cli(["region", "check", "--config", str(p)], capsys)
    assert code == 2
    doc = json.loads(out)
    assert any(v["label"].startswith("mac:") for v in doc["violated"])


def run_cli_process(argv, **env):
    """Run the CLI in a fresh interpreter, as a user would."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    return subprocess.run([sys.executable, "-m", "sigma_align.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=120)


def assert_error_line(proc):
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_ia_run_rational_slot_cap_is_an_error(tmp_path):
    # BIG at n=2 needs mu_n = 486 slots, past rational mode's 97-slot cap.
    cfg = dict(S1_CONFIG, n=2, trials=1, mode="rational")
    cfg["cfg"] = {"n1": 2, "n2": 2, "la": 0, "lb": 3, "lc": 0}
    cfg["d"] = {"db1": ["1/6"] * 3, "db2": ["1/6"] * 3}
    p = tmp_path / "big.json"
    p.write_text(json.dumps(cfg))
    proc = run_cli_process(["ia", "run", "--config", str(p)])
    assert_error_line(proc)
    assert "mu_n = 486" in proc.stderr and "97" in proc.stderr


@pytest.mark.parametrize("fields, flags", [
    ({"mode": "exact"}, []),
    ({"n": "two"}, []),
    ({"n": 0}, []),
    ({"trials": 0}, []),
    ({}, ["--trials", "0"]),
    ({}, ["--mode", "exact"]),
    ({}, ["--bogus"]),
    ({}, ["--tol-rank", "1e-18"]),
    ({"subset_cap": 1}, []),
    ({"mdoe": "rational"}, []),
    ({"cfg": {**S1_CONFIG["cfg"], "n2": 1.9}}, []),
    ({"n": 1.7}, []),
    ({"n_max": 2.0}, []),
    ({"seed": 7.9}, []),
    ({"trials": True}, []),
    ({"seed": "7"}, []),
], ids=["mode-exact", "n-two", "n-zero", "trials-zero", "flag-trials-zero",
        "flag-mode-exact", "flag-unknown", "flag-removed-tol-rank",
        "removed-subset-cap", "misspelt-mode", "cfg-n2-float", "n-float",
        "n-max-float", "seed-float", "trials-bool", "seed-string"])
def test_bad_config_is_an_error_line(tmp_path, fields, flags):
    # int() would run 1.9 antennas as 1, seed 7.9 as 7 and trials true as 1
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({**S1_CONFIG, "trials": 1, **fields}))
    proc = run_cli_process(["ia", "run", "--config", str(p), *flags])
    assert_error_line(proc)
    for name in set(fields) - set(cli.CONFIG_FIELDS):   # named in the error
        assert repr(name) in proc.stderr
    ints = {f"cfg.{k}": v for k, v in fields.get("cfg", {}).items()}
    ints.update((k, fields[k]) for k in ("n", "n_max", "seed", "trials")
                if k in fields)
    for name, value in ints.items():
        if type(value) is not int:
            assert f"config field {name!r} must be an integer" in proc.stderr


def test_help_exits_0():
    proc = run_cli_process(["ia", "run", "--help"])
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: sigma-align ia run")


def test_removed_tol_config_field_is_an_error_line(tmp_path):
    # float Lambda1 has rank 53/56 at a 1e-16 cutoff here and 56/56 at
    # 1e-18, so a settable cutoff turned a float fail into a "pass"
    p = tmp_path / "s1n4.json"
    p.write_text(json.dumps({k: v for k, v in S1_CONFIG.items()
                             if k != "mode"}
                            | {"n": 4, "seed": 31, "trials": 1,
                               "tol": {"rank": 1e-18}}))
    proc = run_cli_process(["ia", "run", "--config", str(p)])
    assert_error_line(proc)
    assert '"tol"' in proc.stderr


@pytest.mark.parametrize("argv", [
    ["region", "check", "--config", "CONFIG"],
    ["ia", "run", "--config", "CONFIG"],
    ["lemma1", "--m", "2", "--trials", "1"],
], ids=["region", "ia", "lemma1"])
def test_bad_seed_env_is_an_error_line(tmp_path, argv):
    p = tmp_path / "noseed.json"
    p.write_text(json.dumps({k: v for k, v in S1_CONFIG.items()
                             if k != "seed"}))
    argv = [str(p) if a == "CONFIG" else a for a in argv]
    proc = run_cli_process(argv, SIGMA_ALIGN_SEED="abc")
    assert_error_line(proc)
    assert "abc" in proc.stderr


@pytest.mark.parametrize("argv, fields, env", [
    (["ia", "run", "--config", "CONFIG", "--seed", "-5"], {}, {}),
    (["ia", "run", "--config", "CONFIG"], {"seed": -3}, {}),
    (["ia", "run", "--config", "CONFIG"], {"seed": None},
     {"SIGMA_ALIGN_SEED": "-1"}),
    (["ia", "sweep", "--config", "CONFIG", "--seed", "-5"], {}, {}),
    (["ia", "sweep", "--config", "CONFIG"], {"seed": -3}, {}),
    (["ia", "sweep", "--config", "CONFIG"], {"seed": None},
     {"SIGMA_ALIGN_SEED": "-1"}),
    (["lemma1", "--m", "2", "--trials", "1", "--seed", "-5"], {}, {}),
    (["lemma1", "--m", "2", "--trials", "1"], {},
     {"SIGMA_ALIGN_SEED": "-1"}),
], ids=["run-flag", "run-config", "run-env", "sweep-flag", "sweep-config",
        "sweep-env", "lemma1-flag", "lemma1-env"])
def test_negative_seed_is_an_error_line(tmp_path, argv, fields, env):
    # numpy's generators refuse a negative seed with a ValueError
    cfg = {k: v for k, v in {**S1_CONFIG, **fields}.items() if v is not None}
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    proc = run_cli_process([str(p) if a == "CONFIG" else a for a in argv],
                           **env)
    assert_error_line(proc)
    assert "seed must be nonnegative" in proc.stderr


def test_float_overflow_is_an_error_line(tmp_path):
    # S1 at n = 23: the float monomials overflow in the power table; the
    # run stops there with one error line, no numpy warning, no traceback
    p = tmp_path / "s1n23.json"
    p.write_text(json.dumps(dict(S1_CONFIG, n=23, seed=31, trials=1)))
    proc = run_cli_process(["ia", "run", "--config", str(p), "--mode",
                            "float"])
    assert_error_line(proc)
    assert "n = 23, mu_n = 1728" in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["lemma1", "--m", "3", "--trials", "0"],
    ["ia", "sweep", "--config", "CONFIG", "--n", "3", "--n-max", "2"],
    ["ia", "run", "--config", "CONFIG", "--n-max", "0"],
    ["lemma1", "--m", "2", "--k", "0"],
    ["lemma1", "--m", "-1"],
    ["lemma1", "--m", "3", "--k", "-1"],
    ["region", "max-sum", "--config", "CONFIG", "--weights=-1,1,1,1"],
], ids=["lemma1-trials-zero", "sweep-n-max-below-n", "run-n-max-below-n",
        "lemma1-k-zero", "lemma1-m-negative", "lemma1-k-negative",
        "max-sum-negative-weight"])
def test_vacuous_runs_are_an_error_line(tmp_path, argv):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(S1_CONFIG))
    proc = run_cli_process([str(p) if a == "CONFIG" else a for a in argv])
    assert_error_line(proc)


def test_ia_run_without_mode_is_certified(tmp_path):
    # float reports Lambda rank 29/33 here; the modp rerun decides
    p = tmp_path / "s1n3.json"
    p.write_text(json.dumps({k: v for k, v in S1_CONFIG.items()
                             if k != "mode"} | {"n": 3, "seed": 31,
                                                "trials": 1}))
    proc = run_cli_process(["ia", "run", "--config", str(p)])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["all_pass"] is True
    assert [t["mode"] for t in doc["trials"]] == ["modp"]
    assert doc["trials"][0]["lambda1"]["rank"] == 33
    assert doc["config"]["mode"] is None
    assert set(doc["config"]["distributions"]) == {"float", "rational",
                                                   "modp"}
    explicit = run_cli_process(["ia", "run", "--config", str(p),
                                "--mode", "float"])
    assert explicit.returncode == 2
    assert json.loads(explicit.stdout)["trials"][0]["mode"] == "float"


def test_ia_sweep_without_mode_is_certified(tmp_path, capsys):
    p = tmp_path / "s1.json"
    p.write_text(json.dumps({k: v for k, v in S1_CONFIG.items()
                             if k != "mode"} | {"seed": 31, "trials": 1}))
    code, out = run_cli(["ia", "sweep", "--config", str(p), "--n", "2",
                         "--n-max", "3"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["pass"] for r in rows] == ["True", "True"]
    assert [r["sum_per_slot"] for r in rows] == ["20/27", "7/8"]


def test_region_check_bad_rational(tmp_path, capsys):
    cfg = dict(S1_CONFIG)
    cfg["d"] = {"db1": ["1/0", "1/3"], "db2": ["1/3", "1/3"]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    code, _ = run_cli(["region", "check", "--config", str(p)], capsys)
    assert code == 1


@pytest.mark.parametrize("argv", [["region", "check"], ["ia", "run"]])
def test_float_dof_entry_is_an_error_line(tmp_path, argv):
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(
        {**S1_CONFIG, "d": {"db1": ["1/3", 0.1], "db2": ["1/3", "1/3"]}}))
    proc = run_cli_process([*argv, "--config", str(p)])
    assert_error_line(proc)
    assert "'d.db1[1]'" in proc.stderr and "0.1" in proc.stderr


def test_dof_entries_as_strings_and_integers(tmp_path, capsys):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(
        {**S1_CONFIG, "d": {"db1": ["0.1", 0], "db2": ["1/3", "1/3"]}}))
    code, out = run_cli(["region", "check", "--config", str(p)], capsys)
    doc = json.loads(out)
    assert code == 0 and doc["feasible"] and doc["mu0"] == 30
    assert doc["config"]["d"]["db1"] == ["1/10", "0/1"]


def test_region_maxsum(s1_config_file, capsys):
    code, out = run_cli(["region", "max-sum", "--config", s1_config_file],
                        capsys)
    assert code == 0
    assert json.loads(out)["optimum"] == "4/3"


def test_region_maxsum_zero_weights(s1_config_file, capsys):
    code, out = run_cli(["region", "max-sum", "--config", s1_config_file,
                         "--weights", "0,0,0,0"], capsys)
    assert code == 0
    assert json.loads(out)["optimum"] == "0/1"


def test_region_maxsum_lb10_ignores_subset_cap(tmp_path, capsys):
    # max_sum_dof has no subset cap; a config naming one is an error
    # (test_bad_config_is_an_error_line), and the report names none
    cfg = dict(S1_CONFIG)
    cfg["cfg"] = {"n1": 2, "n2": 2, "la": 0, "lb": 10, "lc": 0}
    cfg["d"] = {"db1": ["0"] * 10, "db2": ["0"] * 10}
    p = tmp_path / "lb10.json"
    p.write_text(json.dumps(cfg))
    code, out = run_cli(["region", "max-sum", "--config", str(p)], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["optimum"] == "10/3"
    assert "subset_cap" not in doc["config"]


def test_ia_run(s1_config_file, capsys):
    code, out = run_cli(["ia", "run", "--config", s1_config_file], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert len(doc["trials"]) == 2
    assert doc["trials"][0]["sum_per_slot"] == "1/2"


def test_ia_run_infeasible_exits_2(tmp_path, capsys):
    cfg = dict(S1_CONFIG)
    cfg["d"] = {"db1": ["1", "1"], "db2": ["1", "1"]}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(cfg))
    code = cli.main(["ia", "run", "--config", str(p)])
    assert code == 2
    assert capsys.readouterr().err == (
        "infeasible: violated: ['pair:b1<=1', 'pair:b2<=1', "
        "'mac:bs1:J={1}', 'mac:bs2:J={1}']\n")


def test_ia_run_modp_with_an_empty_structured_matrix(tmp_path):
    # a zero-DoF message leaves a structured matrix with no columns
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({
        "cfg": {"n1": 2, "n2": 2, "la": 0, "lb": 3, "lc": 0},
        "d": {"db1": ["0", "1", "0"], "db2": ["1", "0", "0"]},
        "n": 1, "seed": 3, "trials": 1}))
    proc = run_cli_process(["ia", "run", "--config", str(p),
                            "--mode", "modp"])
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["all_pass"] is True
    assert doc["trials"][0]["mode"] == "modp"


def test_ia_run_rational_mode(s1_config_file, capsys):
    code, out = run_cli(["ia", "run", "--config", s1_config_file,
                         "--mode", "rational", "--trials", "1"], capsys)
    assert code == 0
    assert json.loads(out)["trials"][0]["mode"] == "rational"


def test_ia_sweep_csv(s1_config_file, capsys):
    code, out = run_cli(["ia", "sweep", "--config", s1_config_file,
                         "--n", "1", "--n-max", "2", "--trials", "1"],
                        capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert rows[0]["sum_per_slot"] == "1/2"
    assert rows[1]["sum_per_slot"] == "20/27"
    assert rows[0]["ratio_b1_1"] == "1/2"


def test_ia_sweep_single_n(s1_config_file, capsys):
    code, out = run_cli(["ia", "sweep", "--config", s1_config_file,
                         "--trials", "1"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_lemma1_command(tmp_path, capsys):
    code, out = run_cli(["lemma1", "--m", "6", "--k", "2", "--trials", "50",
                         "--seed", "3"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["valid_full_rank"] == 50
    assert doc["negative_full_rank"] == 0


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    cfg = {k: v for k, v in S1_CONFIG.items() if k != "seed"}
    p = tmp_path / "noseed.json"
    p.write_text(json.dumps(cfg))
    monkeypatch.setenv("SIGMA_ALIGN_SEED", "123")
    code, out = run_cli(["region", "check", "--config", str(p)], capsys)
    assert code == 0
    assert json.loads(out)["config"]["seed"] == 123


def test_reports_reproducible(s1_config_file, capsys):
    _, out1 = run_cli(["ia", "run", "--config", s1_config_file,
                       "--mode", "rational", "--trials", "1"], capsys)
    _, out2 = run_cli(["ia", "run", "--config", s1_config_file,
                       "--mode", "rational", "--trials", "1"], capsys)
    assert out1 == out2


def test_out_file(s1_config_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out = run_cli(["region", "check", "--config", s1_config_file,
                         "--out", str(out_path)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["feasible"] is True
