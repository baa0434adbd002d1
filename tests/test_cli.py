"""Tests for the ura command line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uracs
from uracs import harness
from uracs.cli import THREAD_VARIABLES, build_parser, main

SISO_DATA = {
    "scenario": "siso",
    "profile": {"m": [3, 2, 2], "l": [0, 2, 2]},
    "K": 1,
    "trials": 1,
    "ebn0_db": 10.0,
    "n": 12,
}
# an ebn0_search picks its own Eb/N0 points, so its config has no ebn0_db
SEARCH_DATA = {k: v for k, v in SISO_DATA.items() if k != "ebn0_db"}


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_parser_requires_subcommand_and_config():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])
    with pytest.raises(SystemExit):
        parser.parse_args(["siso"])
    ns = parser.parse_args(["siso", "--config", "x.json", "--trials", "5"])
    assert ns.config == "x.json"
    assert ns.trials == 5


def test_main_runs_and_prints_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SISO_DATA)
    assert main(["siso", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert out.startswith("K,ebn0_db,mode,")
    assert len(out.splitlines()) == 3


def test_main_writes_out_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SISO_DATA)
    dest = tmp_path / "rows.csv"
    assert main(["siso", "--config", cfg, "--out", str(dest)]) == 0
    assert dest.read_text().startswith("K,ebn0_db,mode,")
    # Nothing goes to stdout when an output path is given.
    assert capsys.readouterr().out == ""


def test_main_refuses_unwritable_out_before_any_trial(tmp_path, capsys, monkeypatch):
    trials = []
    real = harness.run_siso_trial

    def counting(*args, **kwargs):
        trials.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(harness, "run_siso_trial", counting)
    cfg = write_cfg(tmp_path, SISO_DATA)
    missing = tmp_path / "missing" / "dir" / "x.csv"
    for out in (missing, tmp_path):
        assert main(["siso", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: out: cannot write {str(out)!r}")
        assert captured.out == ""
    assert trials == []
    assert not missing.parent.exists()
    predict = write_cfg(tmp_path, {"scenario": "predict", "profile": "siso-default", "K": 25},
                        name="predict.json")
    assert main(["predict", "--config", predict, "--out", str(missing)]) == 2
    assert capsys.readouterr().err.startswith("config error: out: cannot write")
    # a writable path still runs the trials
    assert main(["siso", "--config", cfg, "--out", str(tmp_path / "rows.csv")]) == 0
    assert len(trials) == SISO_DATA["trials"]


def test_main_scenario_mismatch_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SISO_DATA)
    assert main(["mimo", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")


def test_main_bad_config_returns_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert main(["siso", "--config", str(bad)]) == 2
    assert "config error:" in capsys.readouterr().err
    bad.write_text(json.dumps([SISO_DATA]))
    assert main(["siso", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == "config error: config root must be an object\n"
    assert main(["siso", "--config", str(tmp_path / "absent.json")]) == 2
    capsys.readouterr()
    cfg = write_cfg(tmp_path, {**SISO_DATA, "trials": 0})
    assert main(["siso", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: trials")


def test_main_config_not_utf8_is_config_error(tmp_path, capsys):
    # a byte that is not UTF-8 once escaped as a UnicodeDecodeError
    # traceback, and an integer literal of over 4300 digits as a ValueError
    text = json.dumps(SISO_DATA).encode()
    path = tmp_path / "cfg.json"
    for body in (text.replace(b"siso", b"s\xffso"),
                 text.replace(b'"n": 12', b'"n": 1' + b"0" * 5000)):
        path.write_bytes(body)
        assert main(["siso", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: config is not valid UTF-8 JSON: ")
        assert captured.out == ""


def test_main_refuses_sections_wider_than_63_bits(tmp_path, capsys):
    # A fragment is an int64 column index, so a section may have at most 63
    # coded bits. Wider ones once crashed: at m = 20000 the memory-budget
    # message overflowed int-to-string conversion (ValueError), and a
    # predict section of 2000 parity bits overflowed a float (OverflowError).
    predict = {"scenario": "predict", "K": 2}
    mimo = {**SISO_DATA, "scenario": "mimo", "n": 8, "M": 4}
    for scenario, data, profile in [
            ("siso", SISO_DATA, {"m": [20000, 2], "l": [0, 2]}),
            ("siso", SISO_DATA, {"m": [64, 2], "l": [0, 2]}),
            ("mimo", mimo, {"m": [2, 60], "l": [0, 4]}),
            ("predict", predict, {"m": [3, 2], "l": [0, 2000]}),
            ("predict", predict, {"m": [3, 2], "l": [0, 62]})]:
        cfg = write_cfg(tmp_path, {**data, "profile": profile})
        assert main([scenario, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: profile: sections may have at most 63 coded bits")
    # 63 bits is accepted: predict runs, and a matrix of 2^63 columns is a
    # resource refusal
    cfg = write_cfg(tmp_path, {**predict, "profile": {"m": [3, 2], "l": [0, 61]}})
    assert main(["predict", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("K,slot,variant,")
    cfg = write_cfg(tmp_path, {**SISO_DATA, "profile": {"m": [61, 2], "l": [0, 2]}})
    assert main(["siso", "--config", cfg]) == 3
    assert capsys.readouterr().err.startswith("resource refusal:")


def test_main_overrides_take_effect(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SISO_DATA)
    assert main(["siso", "--config", cfg, "--seed", "3", "--trials", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["siso", "--config", cfg, "--seed", "3", "--trials", "2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert main(["siso", "--config", cfg, "--seed", "4", "--trials", "2"]) == 0
    assert capsys.readouterr().out != first
    assert main(["siso", "--config", cfg, "--trials", "0"]) == 2
    assert main(["siso", "--config", cfg, "--workers", "0"]) == 2


def test_main_predict_subcommand(tmp_path, capsys):
    data = {
        "scenario": "predict",
        "profile": {"m": [3, 2, 2], "l": [0, 2, 2]},
        "K": 2,
    }
    cfg = write_cfg(tmp_path, data)
    assert main(["predict", "--config", cfg]) == 0
    assert capsys.readouterr().out.startswith("K,slot,variant,")


def test_main_resource_refusal_returns_3(tmp_path, capsys):
    data = dict(SISO_DATA)
    data["memory_budget"] = 16
    cfg = write_cfg(tmp_path, data)
    assert main(["siso", "--config", cfg]) == 3
    assert "resource refusal:" in capsys.readouterr().err


def test_main_bad_ebn0_search_is_config_error(tmp_path, capsys):
    search = {"target_pupe": 0.5, "lo_db": 0.0, "hi_db": 8.0, "resolution_db": 1.0}
    for key, value in [("target_pupe", "abc"), ("target_pupe", None),
                       ("resolution_db", float("nan"))]:
        data = {**SEARCH_DATA, "ebn0_search": {**search, key: value}}
        cfg = write_cfg(tmp_path, data)
        assert main(["siso", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ebn0_search")
    # keys the search would leave unread are refused beside it
    for key, value in [("ebn0_db", 10.0), ("timing", "wall")]:
        cfg = write_cfg(tmp_path, {**SEARCH_DATA, "ebn0_search": search, key: value})
        assert main(["siso", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {key}: not used with ebn0_search")


def test_main_refuses_non_finite_numbers_negative_seed_and_zero_path_cap(tmp_path, capsys):
    # a config file holds NaN and Infinity as bare JSON literals
    text = json.dumps(SISO_DATA)
    for literal in ("NaN", "Infinity", "-Infinity"):
        path = tmp_path / f"{literal}.json"
        path.write_text(text.replace("10.0", literal))
        assert main(["siso", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ebn0_db")
    cfg = write_cfg(tmp_path, SISO_DATA)
    assert main(["siso", "--config", cfg, "--seed", "-3"]) == 2
    assert capsys.readouterr().err.startswith("config error: master_seed")
    cfg = write_cfg(tmp_path, {**SISO_DATA, "path_cap": 0})
    assert main(["siso", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error: path_cap")


def test_main_refuses_ebn0_beyond_the_limit(tmp_path, capsys):
    # 10 ** (4000 / 10) overflows a float; such values are a config error
    # naming the key, not a traceback from the Eb/N0 conversion
    mimo = {**SISO_DATA, "scenario": "mimo", "n": 8, "M": 4}
    for scenario, data in [("siso", {**SISO_DATA, "ebn0_db": 4000}),
                           ("siso", {**SISO_DATA, "ebn0_db": [10.0, -4000]}),
                           ("mimo", {**mimo, "ebn0_db": 4000}),
                           ("mimo", {**mimo, "ebn0_db": -4000})]:
        assert main([scenario, "--config", write_cfg(tmp_path, data)]) == 2
        assert capsys.readouterr().err.startswith("config error: ebn0_db")
    search = {"target_pupe": 0.5, "lo_db": 0.0, "hi_db": 8.0, "resolution_db": 1.0}
    for key, value in [("hi_db", 5000), ("lo_db", -5000)]:
        data = {**SEARCH_DATA, "ebn0_search": {**search, key: value}}
        assert main(["siso", "--config", write_cfg(tmp_path, data)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: ebn0_search: {key}")
    # the limit itself is accepted
    assert main(["siso", "--config", write_cfg(tmp_path, {**SISO_DATA, "ebn0_db": 300})]) == 0
    capsys.readouterr()


def test_search_below_the_float_gap_ends(tmp_path):
    # A resolution_db finer than the gap between adjacent floats at the
    # threshold once made the bisection loop forever; it now stops when the
    # midpoint equals an end, within 1e-12 dB of a 1e-12 dB search.
    data = {**SEARCH_DATA, "trials": 2, "master_seed": 97, "mode": "original",
            "ebn0_search": {"target_pupe": 0.5, "lo_db": 0.0, "hi_db": 24.0,
                            "resolution_db": 1e-12}}
    env = {**os.environ, "PYTHONPATH": str(Path(uracs.__file__).parents[1])}

    def required(resolution_db):
        data["ebn0_search"]["resolution_db"] = resolution_db
        run = subprocess.run(
            [sys.executable, "-m", "uracs.cli", "siso", "--config",
             write_cfg(tmp_path, data)],
            capture_output=True, text=True, env=env, timeout=60, check=True)
        return [float(row.split(",")[3]) for row in run.stdout.splitlines()[1:]]

    (coarse,), (fine,) = required(1e-12), required(1e-300)
    assert 0.0 < fine < 24.0  # found by bisection
    assert abs(fine - coarse) <= 1e-12


def test_ura_runs_the_blas_on_one_thread_unless_told_otherwise(tmp_path):
    # A fresh process runs ura's entry point, uracs.cli.main, with no BLAS
    # thread variable set, then with OMP_NUM_THREADS=2: uracs.cli sets each
    # unset one to 1 before numpy is imported and keeps the user's value.
    code = ("import json, os, sys\n"
            "from uracs.cli import main\n"
            "status = main(sys.argv[1:])\n"
            f"print(json.dumps({{name: os.environ.get(name) for name in {THREAD_VARIABLES!r}}}))\n"
            "sys.exit(status)")
    env = {key: value for key, value in os.environ.items() if key not in THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(uracs.__file__).parents[1])
    args = [sys.executable, "-c", code, "siso", "--config", write_cfg(tmp_path, SISO_DATA),
            "--out", str(tmp_path / "rows.csv")]
    for user, expected in (({}, ["1", "1", "1"]), ({"OMP_NUM_THREADS": "2"}, ["1", "2", "1"])):
        run = subprocess.run(args, capture_output=True, text=True, env={**env, **user},
                             timeout=60, check=True)
        assert list(json.loads(run.stdout).values()) == expected
        assert (tmp_path / "rows.csv").read_text().startswith("K,ebn0_db,mode,")
