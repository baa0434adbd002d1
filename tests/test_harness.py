"""Tests for the experiment harness: configs, seeding, metrics, CSV output."""

import concurrent.futures
import functools
import importlib
import json
import math
import os
import pkgutil
import re
import signal
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from uracs import ccs, harness, mimo
from uracs.errors import ConfigError, ResourceRefusalError
from uracs.harness import (
    CODEBOOK,
    MESSAGES,
    NAMED_PROFILES,
    ExperimentConfig,
    csv_text,
    derive_seed,
    genie_path_stats,
    genie_tree_trial,
    load_config,
    parse_config,
    pupe,
    run_experiment,
    run_mimo_trial,
    run_siso_trial,
)
from uracs.predictors import expected_erroneous_paths
from uracs.tree import (DEFAULT_MIMO_PROFILE, DEFAULT_SISO_PROFILE, ParityProfile,
                         PathTracker)

SMALL_PROFILE = {"m": [3, 2, 2], "l": [0, 2, 2]}


def siso_config(**extra):
    data = {
        "scenario": "siso",
        "profile": SMALL_PROFILE,
        "K": 1,
        "trials": 2,
        "ebn0_db": 10.0,
        "n": 12,
    }
    data.update(extra)
    return data


def test_pupe_hand_examples():
    assert pupe([1, 2, 3], [3, 1, 9], 3) == pytest.approx(1 / 3)
    assert pupe([1, 2], [1, 2], 2) == 0.0
    assert pupe([1, 2], [], 2) == 1.0
    # The decoded list is truncated to K entries before matching.
    assert pupe([1, 2], [3, 1, 2], 2) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        pupe([1], [1], 0)
    with pytest.raises(ValueError):
        pupe([1, 2], [1], 1)


def test_derive_seed_streams_are_stable_and_distinct():
    a = derive_seed(7, 0, MESSAGES)
    assert a == derive_seed(7, 0, MESSAGES)
    assert a != derive_seed(7, 1, MESSAGES)
    assert a != derive_seed(7, 0, CODEBOOK)
    assert a != derive_seed(8, 0, MESSAGES)
    assert 0 <= a < 2 ** 64


def test_parse_config_minimal_siso():
    cfg = parse_config(siso_config())
    assert cfg.scenario == "siso"
    assert cfg.K == (1,)
    assert cfg.ebn0_db == (10.0,)
    assert cfg.profile.B == 7
    assert cfg.modes == ("original", "enhanced")


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown keys.*sweeps"):
        parse_config(siso_config(sweeps=3))
    with pytest.raises(ConfigError, match="scenario"):
        parse_config({"scenario": "warp"})
    with pytest.raises(ConfigError, match="profile"):
        parse_config({"scenario": "siso", "K": 1, "ebn0_db": 1.0, "n": 4})


def test_parse_config_refuses_keys_that_would_not_change_the_run():
    # Solver tolerances and sweep counts are constants of the solvers, not
    # config keys, and a predict run decodes nothing, so it takes no decode
    # mode, timing or list size. Each key a scenario accepts changes its run.
    predict = {"scenario": "predict", "profile": SMALL_PROFILE, "K": 2}
    configs = {"siso": siso_config(), "mimo": MIMO_SMALL, "predict": predict}
    cases = [(scenario, key, value) for scenario in configs
             for key, value in [("nnls_tol", 1e-8), ("sweeps", 10), ("cd_tol", 1e-6)]]
    cases += [("predict", "mode", "both"), ("predict", "timing", "model"),
              ("predict", "list_size", 2)]
    for scenario, key, value in cases:
        with pytest.raises(ConfigError, match=f"^unknown keys for scenario {scenario}: "
                                              rf"\['{key}'\]$"):
            parse_config({**configs[scenario], key: value})
    # the keys the command line sets stay on every scenario
    cfg = parse_config({**predict, "trials": 3, "master_seed": 5, "workers": 2})
    assert (cfg.trials, cfg.master_seed, cfg.workers) == (3, 5, 2)


def test_parse_config_field_errors_name_the_field():
    # keys outside the siso scenario are set on a config of theirs
    base = {"M": MIMO_SMALL,
            "variant": {"scenario": "predict", "profile": SMALL_PROFILE, "K": 2}}
    for key, value, frag in [
        ("K", [0], "K"),
        ("trials", 0, "trials"),
        ("mode", "turbo", "mode"),
        ("timing", "cpu", "timing"),
        ("n", 0, "n"),
        ("list_size", 0, "list_size"),
        # once truncated by int(): K 2.7 ran K=2, K true ran K=1
        ("K", 2.7, "K"),
        ("K", [2, 2.7], "K"),
        ("trials", 2.5, "trials"),
        ("n", 12.9, "n"),
        ("K", True, "K"),
        ("profile", {"m": [3, 2.5, 2], "l": [0, 2, 2]}, "profile"),
        ("profile", {"m": [3, 2, 2], "l": [0, True, 2]}, "profile"),
        ("workers", True, "workers"),
        ("master_seed", float("nan"), "master_seed"),
        ("ebn0_db", "high", "ebn0_db"),
        # memory_budget 0 once refused every trial as a resource refusal
        ("memory_budget", 0, "memory_budget"),
        ("M", [0], "M"),
        ("workers", 0, "workers"),
        ("variant", "x", "variant"),
        # out null once wrote the CSV to a file named None
        ("out", None, "out"),
    ]:
        with pytest.raises(ConfigError, match=f"^{frag}: "):
            parse_config({**base.get(key, siso_config()), key: value})
    # each of these is refused by its own rule
    for key, value, message in [
        ("K", [], "need at least one value"),
        ("profile", {"m": [3, 2], "parity": [0, 2]}, "expected a name or an object with keys m, l"),
        ("profile", {"m": [], "l": []}, "profile needs at least one section"),
        ("profile", {"m": [3, -1, 2], "l": [0, 2, 2]}, "section lengths must be nonnegative"),
    ]:
        with pytest.raises(ConfigError, match=f"^{key}: {message}$"):
            parse_config(siso_config(**{key: value}))
    # Integral floats are integers.
    assert parse_config(siso_config(K=2.0, n=12.0)).K == (2,)


def test_parse_config_refuses_non_finite_numbers():
    # JSON readers accept NaN and Infinity. NaN or Infinity Eb/N0 once ran
    # with PUPE 1 in every row, a MIMO -Infinity died in a traceback, and
    # an ebn0_search lo_db of -Infinity made the bisection loop forever.
    mimo_data = {"scenario": "mimo", "profile": SMALL_PROFILE, "K": 2,
                 "M": 16, "ebn0_db": 0.0, "n": 8}
    search = {"target_pupe": 0.5, "lo_db": 0.0, "hi_db": 8.0, "resolution_db": 1.0}
    cases = [
        (siso_config(ebn0_db=float("nan")), "ebn0_db"),
        (siso_config(ebn0_db=float("inf")), "ebn0_db"),
        (siso_config(ebn0_db=[10.0, float("-inf")]), "ebn0_db"),
        ({**mimo_data, "ebn0_db": float("-inf")}, "ebn0_db"),
        (siso_config(ebn0_search={**search, "lo_db": float("-inf")}), "ebn0_search"),
        (siso_config(ebn0_search={**search, "hi_db": float("inf")}), "ebn0_search"),
        (siso_config(ebn0_search={**search, "target_pupe": float("nan")}), "ebn0_search"),
    ]
    for data, key in cases:
        with pytest.raises(ConfigError, match=f"^{key}: expected a finite number"):
            parse_config(data)
    # an integer too large for a float once raised OverflowError
    with pytest.raises(ConfigError, match="^ebn0_db: "):
        parse_config(siso_config(ebn0_db=10 ** 400))
    # the literals a JSON config file can hold are refused the same way
    assert math.isnan(json.loads('{"x": NaN}')["x"])
    with pytest.raises(ConfigError, match="^ebn0_db"):
        parse_config(json.loads(json.dumps(siso_config()).replace("10.0", "Infinity")))


def test_parse_config_refuses_negative_seed_and_path_cap_below_1():
    # a negative seed once died in numpy's seeding, and path_cap 0 capped
    # every root, so every decode failed silently
    for key, value in [("master_seed", -1), ("path_cap", 0), ("path_cap", -5)]:
        with pytest.raises(ConfigError, match=f"^{key}: "):
            parse_config(siso_config(**{key: value}))
    cfg = parse_config(siso_config(master_seed=0, path_cap=1))
    assert (cfg.master_seed, cfg.path_cap) == (0, 1)


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_configs_parse():
    # every JSON config block in README.md's CLI section is a valid config
    cli = README.read_text(encoding="utf-8").split("\n## CLI\n")[1].split("\n## ")[0]
    blocks = re.findall(r"```json\n(.*?)```", cli, flags=re.S)
    assert len(blocks) == 3
    assert sorted(parse_config(json.loads(b)).scenario for b in blocks) == \
        ["mimo", "predict", "siso"]


def layout_rows() -> dict[str, str]:
    """README's Layout table as {module: contents cell}."""
    section = README.read_text(encoding="utf-8").split("\n## Layout\n")[1].split("\n## ")[0]
    rows = [line.strip().strip("|").split(" | ") for line in section.splitlines()
            if line.startswith("| `")]
    table = {module.strip().strip("`"): cell.strip() for module, cell in rows}
    assert len(table) == len(rows), "a module has two rows"
    return table


def test_readme_layout_has_one_row_per_module():
    package = Path(harness.__file__).parent
    assert set(layout_rows()) == {f"uracs.{path.stem}" for path in package.glob("*.py")
                                  if path.name != "__init__.py"}


def test_readme_layout_cells_are_short():
    # a cell names the entry points, what they refuse and the docstring that
    # holds the rules; the rules themselves live in that docstring
    for module, cell in layout_rows().items():
        assert len(cell) <= 400, (module, len(cell))


def test_readme_layout_names_exist():
    # every backticked call `name(...)` or dotted name in a row resolves on
    # that row's module, or by import when it starts with uracs.
    names = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)(\(.*\))?")
    for module_name, cell in layout_rows().items():
        module = importlib.import_module(module_name)
        for code in re.findall(r"`([^`]+)`", cell):
            match = names.fullmatch(code)
            if not match or not (match.group(2) or "." in match.group(1)):
                continue
            name = match.group(1)
            if name.startswith("uracs."):
                pkgutil.resolve_name(name)
            else:
                functools.reduce(getattr, name.split("."), module)


def test_readme_config_keys_match_the_key_table():
    # README's "Config keys" bullets name, per scenario, the ExperimentConfig
    # fields it accepts; a bullet's label names its scenarios, and words in
    # parentheses describe values rather than name keys
    text = README.read_text(encoding="utf-8")
    section = text.split("\nConfig keys (unknown keys are rejected):\n\n")[1].split("\n\n")[0]
    labels = {"every scenario": ("siso", "mimo", "predict"),
              "siso and mimo": ("siso", "mimo"),
              "siso": ("siso",), "mimo": ("mimo",), "predict": ("predict",)}
    listed: dict[str, set] = {"siso": set(), "mimo": set(), "predict": set()}
    for bullet in section.split("\n- "):
        label, keys = bullet.lstrip("- ").split(": ", 1)
        names = re.findall(r"`(\w+)`", re.sub(r"\([^()]*\)", "", keys))
        for scenario in labels[label]:
            listed[scenario].update(names)
    for scenario, keys in listed.items():
        assert keys == {f.name for f in fields(ExperimentConfig)
                        if scenario in f.metadata["scenarios"]}, scenario


def test_every_config_field_holds_its_rule():
    # each field is one config key: a parser, the scenarios that accept it,
    # and whether they require it
    for f in fields(ExperimentConfig):
        rule = f.metadata
        assert callable(rule["parse"]), f.name
        assert rule["scenarios"] and set(rule["scenarios"]) <= set(harness.RUNNERS), f.name
        assert isinstance(rule["required"], bool), f.name


@pytest.mark.parametrize("scenario,order", [
    ("siso", ["profile", "K", "n", "ebn0_db"]),
    ("mimo", ["profile", "K", "n", "M", "ebn0_db"]),
    ("predict", ["profile", "K"]),
])
def test_missing_keys_are_reported_in_field_order(scenario, order):
    # the first missing key is named, and supplying it names the next one:
    # so a siso config with neither n nor ebn0_db names n, and a mimo config
    # with neither M nor ebn0_db names M
    values = {"profile": SMALL_PROFILE, "K": 2, "n": 8, "M": 4, "ebn0_db": 6.0}
    data = {"scenario": scenario}
    for key in order:
        with pytest.raises(ConfigError, match=f"^{key}: required$"):
            parse_config(data)
        data[key] = values[key]
    assert parse_config(data).scenario == scenario


def test_parse_config_named_profile_and_search():
    data = {
        "scenario": "siso",
        "profile": "siso-default",
        "K": [25, 50],
        "n": 128,
        "ebn0_search": {"target_pupe": 0.1, "lo_db": 0.0, "hi_db": 8.0,
                        "resolution_db": 0.25},
    }
    cfg = parse_config(data)
    assert cfg.profile is NAMED_PROFILES["siso-default"]
    assert cfg.ebn0_search["target_pupe"] == 0.1
    with pytest.raises(ConfigError, match="ebn0_search"):
        parse_config({**data, "ebn0_search": {"target_pupe": 0.1}})
    search = data["ebn0_search"]
    for key, value in [("target_pupe", "abc"), ("target_pupe", None),
                       ("target_pupe", 1.0), ("lo_db", float("nan")),
                       ("hi_db", -1.0), ("resolution_db", float("nan")),
                       ("resolution_db", 0.0)]:
        with pytest.raises(ConfigError, match="ebn0_search"):
            parse_config({**data, "ebn0_search": {**search, key: value}})
    with pytest.raises(ConfigError, match="profile"):
        parse_config({**data, "profile": "bogus"})


SEARCH_PROFILE = {"m": [4, 3, 3], "l": [0, 3, 3]}


@pytest.mark.parametrize("extra,search,required", [
    # bisection: both modes start above the target at lo_db
    ({}, {"lo_db": 0.0, "hi_db": 24.0}, (16.5, 4.5)),
    # lo_db already meets the target in both modes
    ({}, {"lo_db": 18.0, "hi_db": 24.0}, (18.0, 18.0)),
    # out of reach: at 14 dB the PUPE is still 0.275 (original), 0.35 (enhanced)
    ({"n": 20, "trials": 20}, {"target_pupe": 0.2, "lo_db": 2.0, "hi_db": 14.0},
     (float("nan"), float("nan"))),
])
def test_ebn0_search_rows(extra, search, required):
    data = {
        "scenario": "siso", "profile": SEARCH_PROFILE, "K": [2], "n": 32,
        "trials": 8, "master_seed": 97, **extra,
        "ebn0_search": {"target_pupe": 0.5, "resolution_db": 2.0, **search}}
    cfg = parse_config(data)
    text = run_experiment(cfg)
    # the search sets its own Eb/N0 points and its CSV has no cost column,
    # so an ebn0_db grid or a timing beside it is refused
    for key, value in [("ebn0_db", 0.0), ("timing", "model")]:
        with pytest.raises(ConfigError, match=f"^{key}: not used with ebn0_search$"):
            parse_config({**data, key: value})
    lines = text.splitlines()
    assert lines[0] == "K,mode,target_pupe,required_ebn0_db,trials"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[:2] for r in rows] == [["2", "original"], ["2", "enhanced"]]
    got = tuple(float(r[3]) for r in rows)
    np.testing.assert_array_equal(got, required)
    assert all(r[4] == str(cfg.trials) for r in rows)


def test_ebn0_search_stops_at_adjacent_floats():
    # A resolution_db below the gap between adjacent doubles is never met:
    # the bisection stops once the midpoint equals an end, so lo and hi are
    # adjacent floats, hi meets the target and lo does not. A SIGALRM turns
    # a bisection that never stops into a failure.
    cfg = parse_config({
        "scenario": "siso", "profile": SMALL_PROFILE, "K": 1, "n": 12, "trials": 1,
        "master_seed": 0, "mode": "original",
        "ebn0_search": {"target_pupe": 0.5, "lo_db": 0.0, "hi_db": 24.0,
                        "resolution_db": 1e-300}})

    def stuck(*_):
        raise TimeoutError("the bisection did not stop")
    old = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(60)
    try:
        row = run_experiment(cfg).splitlines()[1].split(",")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    required = float(row[3])
    assert 0.0 < required <= 24.0

    def pupe_at(ebn0_db):
        return run_siso_trial(cfg, 1, ebn0_db, 0).outcomes["original"].pupe
    assert pupe_at(required) <= 0.5 < pupe_at(np.nextafter(required, -np.inf))


def test_parse_config_mimo_constraints():
    data = {
        "scenario": "mimo",
        "profile": SMALL_PROFILE,
        "K": 2,
        "M": [16, 64],
        "ebn0_db": 0.0,
        "n": 8,
    }
    cfg = parse_config(data)
    assert cfg.M == (16, 64)
    with pytest.raises(ConfigError, match="ebn0_db"):
        parse_config({**data, "ebn0_db": [0.0, 2.0]})
    with pytest.raises(ConfigError, match="M"):
        parse_config({k: v for k, v in data.items() if k != "M"})
    # Eb/N0 alone sets the SNR: neither channel takes a noise level.
    with pytest.raises(ConfigError, match="unknown keys.*N0"):
        parse_config({**data, "N0": 2.0})
    with pytest.raises(ConfigError, match="unknown keys.*noise_std"):
        parse_config(siso_config(noise_std=2.0))


def test_load_config_reads_json(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(siso_config()))
    cfg = load_config(str(path))
    assert cfg.scenario == "siso"
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(bad))
    bad.write_text(json.dumps([siso_config()]))
    with pytest.raises(ConfigError, match="^config root must be an object$"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.json"))


def test_csv_text_formatting():
    text = csv_text(["a", "b", "c"], [[1, 0.5, "x"], [2, 1 / 3, "y"]])
    lines = text.splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,0.5,x"
    # 17 significant digits round-trip doubles exactly.
    assert lines[2] == f"2,{1/3:.17g},y"
    assert text.endswith("\n")


def test_siso_trial_is_deterministic_and_paired():
    cfg = parse_config(siso_config(trials=1))
    a = run_siso_trial(cfg, 1, 10.0, 0)
    b = run_siso_trial(cfg, 1, 10.0, 0)
    assert a.sent == b.sent
    for mode in ("original", "enhanced"):
        assert a.outcomes[mode].decoded == b.outcomes[mode].decoded
        assert a.outcomes[mode].pupe == b.outcomes[mode].pupe
        assert a.outcomes[mode].work_units == b.outcomes[mode].work_units
    # Single-mode runs see the same messages and channel as the both-run.
    only = parse_config(siso_config(trials=1, mode="original"))
    c = run_siso_trial(only, 1, 10.0, 0)
    assert c.sent == a.sent
    assert c.outcomes["original"].decoded == a.outcomes["original"].decoded
    # Different trials draw different messages almost surely at B=7.
    d = run_siso_trial(cfg, 1, 10.0, 1)
    assert d.sent != a.sent or d.outcomes["original"].decoded != a.outcomes["original"].decoded


def test_mimo_trial_runs_both_modes_always():
    data = {
        "scenario": "mimo",
        "profile": SMALL_PROFILE,
        "K": 2,
        "M": 32,
        "ebn0_db": 6.0,
        "n": 8,
        "mode": "enhanced",
        "trials": 1,
    }
    cfg = parse_config(data)
    r = run_mimo_trial(cfg, 2, 32, 0)
    assert set(r.outcomes) == {"original", "enhanced"}
    assert len(r.outcomes["enhanced"].per_slot) == 3


MIMO_SMALL = {"scenario": "mimo", "profile": SMALL_PROFILE, "K": 2, "M": 32,
              "ebn0_db": 6.0, "n": 8, "trials": 1}


def trial_runner(kind):
    """(trial function, its extra argument, config, (module, name) of its
    slot solver) for a small paired trial of ``kind``."""
    if kind == "siso":
        return run_siso_trial, 10.0, parse_config(siso_config(K=2)), (ccs, "nnls_solve")
    return run_mimo_trial, 32, parse_config(MIMO_SMALL), (mimo, "activity_detect")


@pytest.mark.parametrize("kind", ["siso", "mimo"])
def test_paired_trial_solves_each_distinct_slot_problem_once(kind, monkeypatch):
    trial_fn, x, cfg, solver = trial_runner(kind)
    module, name = solver
    real, calls = getattr(module, name), []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, counting)
    full = [1 << v for v in cfg.profile.v]
    reused = 0
    for t in range(4):
        calls.clear()
        r = trial_fn(cfg, 2, x, t)
        # original solves every slot on its full set; enhanced solves only
        # the slots whose index set is neither full nor empty
        enh = r.outcomes["enhanced"].per_slot
        assert len(calls) == cfg.profile.L + sum(0 < c < f for c, f in zip(enh, full))
        reused += sum(c == f for c, f in zip(enh, full))
    assert reused >= 4  # slot 1 at least


@pytest.mark.parametrize("kind", ["siso", "mimo"])
def test_reused_solves_report_what_cold_solves_report(kind, monkeypatch):
    trial_fn, x, cfg, _ = trial_runner(kind)
    decoder = "decode_siso" if kind == "siso" else "decode_mimo"
    real, calls = getattr(harness, decoder), []

    def keeping(*args, **kwargs):
        calls.append((args, kwargs, real(*args, **kwargs)))
        return calls[-1][2]
    monkeypatch.setattr(harness, decoder, keeping)
    for t in range(3):
        calls.clear()
        trial_fn(cfg, 2, x, t)
        assert [c[1]["mode"] for c in calls] == ["original", "enhanced"]
        args, kwargs, warm = calls[1]
        # the enhanced decode again, on the same observations, with no memo
        cold = real(*args, **{**kwargs, "memo": None})
        assert warm.messages == cold.messages
        for name in ("cols", "iterations", "work_units", "live_paths"):
            assert getattr(warm.diagnostics, name) == getattr(cold.diagnostics, name)


@pytest.mark.parametrize("data", [siso_config(K=2), MIMO_SMALL], ids=["siso", "mimo"])
def test_wall_timing_changes_only_the_cost_column(data):
    model = run_experiment(parse_config({**data, "timing": "model"})).splitlines()
    wall = run_experiment(parse_config({**data, "timing": "wall"})).splitlines()
    assert wall[0] == model[0]
    assert len(wall) == len(model) == 3
    for w, m in zip(wall[1:], model[1:]):
        assert w.split(",")[:-1] == m.split(",")[:-1]
        cost = float(w.split(",")[-1])
        assert math.isfinite(cost)
        if data["scenario"] == "siso":
            assert cost > 0  # mean decode wall ms
    if data["scenario"] == "mimo":  # the enhanced/original wall-time ratio
        assert float(wall[1].split(",")[-1]) > 0


def test_mimo_lists_filled_outside_s_match_recorded_outcomes():
    # Acceptance criterion 7's config. In these two trials a restricted slot
    # has fewer positive gammas than list entries, and the list fills up
    # with zero-gamma columns ranked over all columns, some outside S.
    # Ranking inside S alone found 1 message instead of 3 in K=3 trial 49.
    cfg = parse_config({"scenario": "mimo", "profile": {"m": [5, 4, 2, 1], "l": [0, 1, 3, 4]},
                        "K": [2, 3], "M": [64], "trials": 100, "ebn0_db": 0.0,
                        "n": 16, "master_seed": 2026})
    expected = {
        (2, 68): ([1421, 748], {"original": ([748, 1421], [32, 32, 32, 32], 262144),
                                "enhanced": ([748, 1421], [32, 32, 4, 4], 129024)}),
        (3, 49): ([3708, 3567, 173], {"original": ([173, 3567, 3708], [32, 32, 32, 32], 262144),
                                      "enhanced": ([173, 3567, 3708], [32, 32, 20, 4], 176128)}),
    }
    for (K, t), (sent, outcomes) in expected.items():
        r = run_mimo_trial(cfg, K, 64, t)
        assert r.sent == sent
        for mode, (decoded, per_slot, work) in outcomes.items():
            o = r.outcomes[mode]
            assert (o.decoded, o.per_slot, o.work_units, o.pupe) == (decoded, per_slot, work, 0.0)


def test_siso_decodes_at_200_db_converge_and_match_16_db(monkeypatch):
    # nnls_solve's default tolerance, 1e-8, lies below the rounding noise of
    # the gradient A^T r once ||y|| exceeds about 1e5. At 200 dB half of
    # this config's slot solves then cycled to the 10 c iteration cap, and
    # PUPE rose from 0.25 to 0.75 (original) and 0.5 (enhanced). decode_siso
    # floors the tolerance at the slot's rounding level.
    real, solves = ccs.nnls_solve, []

    def recording(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]
    monkeypatch.setattr(ccs, "nnls_solve", recording)
    data = {"scenario": "siso", "profile": {"m": [6, 4, 3], "l": [0, 2, 3]},
            "K": 2, "n": 24}

    def pupe_by_mode(ebn0_db):
        cfg = parse_config({**data, "ebn0_db": ebn0_db})
        results = [run_siso_trial(cfg, 2, ebn0_db, t) for t in range(4)]
        return {mode: [r.outcomes[mode].pupe for r in results] for mode in cfg.modes}

    low = pupe_by_mode(16.0)
    solves.clear()
    assert pupe_by_mode(200.0) == low
    assert solves
    assert all(s.converged and s.iterations < 10 * s.x.size for s in solves)


def test_memory_budget_bounds_the_whole_trial(monkeypatch):
    # Four MIMO blocks of 4-bit fragments (B = 10 info, 6 parity bits), K = 2,
    # M = 16, n = 8: four 8 x 16 complex matrices take 8192 bytes; messages
    # and fragments 2 x (10 + 16) bytes plus a 2 x 6 float32 parity product,
    # 100 bytes; 2 x 8 user signals, one 8 x 16 block in flight with two
    # more beside it and three 2 x 16 arrays of its fading draw, and four
    # 8 x 8 sample covariances, 752 complex numbers or 12032 bytes; one
    # block's activity detection, one 8 x 16 row copy, three more in its
    # drift check, and 3 + 3 8 x 8 matrices, 896 complex numbers or 14336
    # bytes; and one complex ufunc buffer of np.getbufsize() = 8192 (numpy's
    # default) elements, 131072 bytes: 165732 bytes. Beside them the plan
    # counts the codebook's 10 x 6 float32 G, 240 bytes; its build layout,
    # six blocks of one output and 36 bits: 8 x 6 per output, 8 x 36 per
    # bit, 16 x 6 per block and 16 x 5 for the offsets, 512 bytes; the
    # build's working set, 256 x 6 per block, 16 x 6 per output and G as
    # uint8 (60), 1692 bytes; per message its Python int (192), its bits as
    # float32 (40) and its uint8 parity bits (6), 476 more bytes for two;
    # and per column of a solve, its index set, gamma, the sweep's Python
    # int (40) and the top-K sort's three int64 vectors, 16 x 80 = 1280
    # bytes. 165732 + 240 + 512 + 1692 + 476 + 1280 = 169932 bytes in all,
    # and one byte less refuses the trial before any matrix is built. A
    # block's sample covariance (the
    # block, its conjugate copy and two 8 x 8 matrices, 6144 bytes) holds
    # less than its transmission, and building a matrix (its norms' two
    # 8 x 16 complex temporaries and three 16-vectors, 4480 bytes) less than
    # a slot, and neither is held beside the other, so neither adds to the
    # plan.
    data = {"scenario": "mimo", "profile": {"m": [4, 2, 2, 2], "l": [0, 2, 2, 2]},
            "K": 2, "M": 16, "ebn0_db": 6.0, "n": 8, "memory_budget": 169931}
    cfg = parse_config(data)

    def no_build(*args, **kwargs):
        raise AssertionError("a matrix was built before the refusal")

    with monkeypatch.context() as m:
        m.setattr(harness, "build_complex_sensing_matrix", no_build)
        with pytest.raises(ResourceRefusalError,
                           match="need 169932 bytes, budget is 169931"):
            run_mimo_trial(cfg, 2, 16, 0)
    run_mimo_trial(replace(cfg, memory_budget=169932), 2, 16, 0)
    # The scalar trial builds one matrix per distinct width (3 and 4 bits
    # here): 12 x (8 + 16) doubles, 2304 bytes. With K = 1, B = 7, 11 coded
    # and 4 parity bits, messages and fragments take 7 + 11 + 4 x 4 = 34
    # bytes (4 x 4 the float32 parity product) and the user signals 12 doubles, 96 bytes. One slot solve at the
    # 4-bit width holds a pruned 12 x 16 copy of its matrix and NNLS's
    # passive set for min(12, 16) = 12 columns, 12 x (3 x 12 + 4 x 12 + 3):
    # Q, which a re-factor fills with the passive columns, and the
    # re-factor's two 12 x 12 blocks (qr's copy and new Q), R^-1 and a
    # re-factor's three 12 x 12 blocks, and three vectors. 1236 doubles,
    # 9888 bytes. With the 131072-byte ufunc buffer, 143394. Beside them:
    # the codebook's 7 x 4 float32 G, 112 bytes; its
    # build layout and working set for three blocks of one output and 16
    # bits, (8 + 16) x 3 per output, 8 x 16 per bit, (16 + 256) x 3 per
    # block, 16 x 4 for the offsets and G as uint8 (28), 1108 bytes; the
    # message's Python int (192), its bits as float32 (28) and its uint8
    # parity bits (4), 224 bytes; and per column of the solve, NNLS's
    # gradient and x (16) and the index set and the top-K sort's two
    # vectors (24), 16 x 40 = 640 bytes. 143394 + 112 + 1108 + 224 + 640 =
    # 145478 in all. Building the 4-bit matrix (its norms' 12 x 16 product
    # and three 16-vectors, 1920 bytes) holds less than the slot, and comes
    # before it, so it adds nothing.
    siso = parse_config(siso_config(memory_budget=145477))
    with pytest.raises(ResourceRefusalError, match="need 145478 bytes, budget is 145477"):
        run_siso_trial(siso, 1, 10.0, 0)
    run_siso_trial(replace(siso, memory_budget=145478), 1, 10.0, 0)


def test_default_budget_reaches_as_far_as_its_docstring_says():
    # _check_trial_memory's docstring states the largest n that the default
    # budget plans for siso-default at every K <= 100; the plan grows with K
    reach = re.search(r"up to n = (\d+) at every K <= 100", harness._check_trial_memory.__doc__)
    n = int(reach.group(1))

    def fits(n):
        cfg = parse_config({"scenario": "siso", "profile": "siso-default", "K": 100,
                            "n": n, "ebn0_db": 0.0})
        try:
            harness._check_trial_memory(cfg, 100)
        except ResourceRefusalError:
            return False
        return True

    assert fits(n) and not fits(n + 1)


def test_memory_budget_refuses_huge_m_and_k_before_any_allocation(monkeypatch):
    # Matrices of a few KiB, but one MIMO block of 16 x 1e8 complex numbers
    # in flight with two more beside it and three 2 x 1e8 arrays of its
    # fading draw take 8.64e10 bytes; with 68 bytes of messages and
    # fragments, three matrices (640 complex numbers), three 16 x 16 sample
    # covariances (768), one block's activity detection (2560), the 2 x 16
    # user signals (32) and the 131072-byte ufunc buffer, 86400195140 bytes.
    # The plan's other terms add 112 + 1108 + 448 + 1280 = 2948: the
    # codebook's float32 G (112), its build layout and working set (1108),
    # two messages' ints and encoding copies (2 x 224) and a 16-column
    # solve's vectors (1280), 86400198088 in all; a matrix build's norms
    # (8576) are held before any block and are fewer, so they add nothing.
    # 1e8 scalar-channel users' messages and fragments (34 bytes each), the
    # same 224 more each, and signals (12 doubles each) take 1e8 x 354 =
    # 35400000000 bytes, and 14052 more for the codebook, its build, the
    # matrices and one 16-column slot solve (its NNLS figure holds three
    # 12 x 12 blocks, not four), with the ufunc buffer 35400145124. Both trials are refused under the default 256 MiB budget
    # before a message is drawn.
    def no_alloc(*args, **kwargs):
        raise AssertionError("the trial allocated before the refusal")

    for name in ("random_bits", "build_sensing_matrix",
                 "build_complex_sensing_matrix", "mimo_block_transmit"):
        monkeypatch.setattr(harness, name, no_alloc)
    mimo_cfg = parse_config({**MIMO_SMALL, "M": 1e8, "n": 16})
    with pytest.raises(ResourceRefusalError, match="need 86400198088 bytes"):
        run_mimo_trial(mimo_cfg, 2, 10 ** 8, 0)
    siso = parse_config(siso_config(K=10 ** 8))
    with pytest.raises(ResourceRefusalError, match="need 35400145124 bytes"):
        run_siso_trial(siso, 10 ** 8, 10.0, 0)


@pytest.mark.parametrize("data", [
    # 8 x 20000 blocks: the last block's transmission holds two more of them
    {"scenario": "mimo", "profile": {"m": [4, 2, 2, 2], "l": [0, 2, 2, 2]},
     "K": 2, "M": 20000, "ebn0_db": 6.0, "n": 8},
    # 16 x 64 blocks: the drift checks' copies of the dictionary rows count
    {"scenario": "mimo", "profile": {"m": [5, 4, 2, 1], "l": [0, 1, 3, 4]},
     "K": 4, "M": 64, "ebn0_db": 0.0, "n": 16},
    {"scenario": "siso", "profile": {"m": [8, 7, 5, 4], "l": [0, 1, 3, 4]},
     "K": 8, "ebn0_db": 16.0, "n": 64},
    # 1 x 300 blocks: numpy's ufunc cast buffer outweighs them
    {"scenario": "mimo", "profile": {"m": [2, 1], "l": [0, 1]},
     "K": 40, "M": 300, "ebn0_db": 6.0, "n": 1},
    # 15-bit fragments: at small n the slot solve's 2^15-vectors and the
    # matrix build's norms outweigh the matrix
    *({"scenario": "siso", "profile": {"m": [15, 13], "l": [0, 2]},
       "K": 2, "ebn0_db": 14.0, "n": n} for n in (1, 4, 16)),
], ids=["mimo-wide-m", "mimo-desk", "siso-desk", "mimo-one-row",
        "siso-v15-n1", "siso-v15-n4", "siso-v15-n16"])
def test_memory_plan_covers_the_traced_peak_of_a_trial(data):
    # A budget one byte below what a trial really allocates refuses it. The
    # path search is not in the plan; these profiles keep it small.
    cfg = parse_config(data)
    K, M = cfg.K[0], cfg.M[0] if cfg.M else 0

    def run(cfg, trial):
        if M:
            return run_mimo_trial(cfg, K, M, trial)
        return run_siso_trial(cfg, K, cfg.ebn0_db[0], trial)

    # the first trial also pays one-off costs of numpy and of the imports
    run(cfg, 0)
    peak = 0
    for trial in (1, 2):
        tracemalloc.start()
        try:
            run(cfg, trial)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    with pytest.raises(ResourceRefusalError):
        run(replace(cfg, memory_budget=peak - 1), 1)


def test_mimo_trial_forms_one_covariance_per_block_and_drops_the_block(monkeypatch):
    # The decoder sees a block only through its sample covariance, so a trial
    # forms each block's covariance once and keeps no block past it: at
    # n = 8, M = 20000 its traced peak stays under three 8 x 20000 blocks.
    cfg = parse_config({"scenario": "mimo",
                        "profile": {"m": [4, 2, 2, 2], "l": [0, 2, 2, 2]},
                        "K": 2, "M": 20000, "ebn0_db": 6.0, "n": 8})
    real, shapes = mimo.sample_covariance, []

    def counting(Y):
        shapes.append(Y.shape)
        return real(Y)
    monkeypatch.setattr(mimo, "sample_covariance", counting)
    # the first trial also pays one-off costs of numpy and of the imports
    run_mimo_trial(cfg, 2, 20000, 0)
    for trial in (1, 2):
        shapes.clear()
        tracemalloc.start()
        try:
            run_mimo_trial(cfg, 2, 20000, trial)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(8, 20000)] * cfg.profile.L
        assert peak < 3 * 8 * 20000 * np.dtype(np.complex128).itemsize


def test_run_experiment_siso_csv_shape_and_determinism(tmp_path):
    out = tmp_path / "res.csv"
    cfg = parse_config(siso_config(out=str(out)))
    text = run_experiment(cfg)
    assert out.read_text() == text
    lines = text.splitlines()
    header = lines[0].split(",")
    assert header == ["K", "ebn0_db", "mode", "trials", "pupe",
                      "mean_cols_slot_1", "mean_cols_slot_2",
                      "mean_cols_slot_3", "mean_decode_ms"]
    assert len(lines) == 1 + 2  # one row per mode
    assert lines[1].split(",")[2] == "original"
    assert lines[2].split(",")[2] == "enhanced"
    # Byte-identical on rerun with the same master seed.
    assert run_experiment(cfg) == text


def test_run_experiment_predict_matches_predictors():
    cfg = parse_config({
        "scenario": "predict",
        "profile": SMALL_PROFILE,
        "K": 4,
        "variant": "full",
    })
    lines = run_experiment(cfg).splitlines()
    assert lines[0] == "K,slot,variant,E_L,P,P_patterns,R"
    assert len(lines) == 4
    row = lines[2].split(",")
    profile = ParityProfile(m=(3, 2, 2), l=(0, 2, 2))
    assert row[:3] == ["4", "2", "full"]
    assert float(row[3]) == pytest.approx(
        expected_erroneous_paths(4, profile, 2, "full"))


def test_run_experiment_predict_both_variants():
    cfg = parse_config({
        "scenario": "predict",
        "profile": SMALL_PROFILE,
        "K": [2, 3],
    })
    lines = run_experiment(cfg).splitlines()
    # 2 K values x 2 variants x 3 slots.
    assert len(lines) == 1 + 12


def test_genie_tree_trial_enforces_distinct_fragments():
    profile = ParityProfile(m=(3, 2, 2), l=(0, 2, 2))
    live, patterns = genie_tree_trial(profile, K=4, master_seed=0, trial=0)
    assert live[0] == 4
    assert len(live) == 3
    assert len(patterns) == 2
    assert all(p >= 1 for p in patterns)
    # A 1-bit section cannot hold 3 distinct fragments.
    tiny = ParityProfile(m=(1, 1), l=(0, 0))
    with pytest.raises(RuntimeError, match="distinct"):
        genie_tree_trial(tiny, K=3, master_seed=0, trial=0)
    # fragment values are float32 up to 24 bits and float64, still exact, up
    # to 53 bits
    with pytest.raises(ValueError, match="53 bits"):
        genie_tree_trial(ParityProfile(m=(54,), l=(0,)), K=2, master_seed=0, trial=0)


def reference_genie_tree_trial(profile: ParityProfile, K: int, master_seed: int, trial: int,
                               accepted: list | None = None):
    """genie_tree_trial with each redraw an ``integers`` call of its own; the
    index of the draw it takes is appended to ``accepted``."""
    codebook, rng = harness._trial_source(profile, master_seed, trial)
    for attempt in range(100):
        frags = harness.fragment_values(rng.integers(0, 2, (K, profile.B), np.uint8), codebook)
        values = np.sort(frags, axis=0)
        if (values[1:] != values[:-1]).all():
            break
    else:
        raise RuntimeError("could not draw distinct fragments; sections too small")
    if accepted is not None:
        accepted.append(attempt)
    sections = frags.T.astype(np.int64, order="C")
    tracker = PathTracker(codebook)
    tracker.start(sections[0])
    patterns = []
    for ell in range(2, profile.L + 1):
        patterns.append(int(tracker.admissible().size))
        tracker.advance(sections[ell - 1])
    return tracker.diagnostics.live_paths, patterns


def genie_outcome(trial_fn, *args):
    """What a genie trial returns, or the type and text of what it raises."""
    try:
        return trial_fn(*args)
    except (RuntimeError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("profile, K, both_halves", [
    (DEFAULT_SISO_PROFILE, 100, True),
    # K * B = 1, 3 and 2 (mod 4), each pair an odd number of outputs
    (DEFAULT_SISO_PROFILE, 99, True),
    (ParityProfile(m=(2, 3, 4), l=(0, 2, 2)), 3, True),
    (ParityProfile(m=(2, 3, 4), l=(0, 2, 2)), 2, False),
    (DEFAULT_MIMO_PROFILE, 20, True),
    (ParityProfile(m=(12, 12, 12, 12), l=(0, 4, 6, 8)), 10, False),  # acceptance 3's
    # ten distinct fragments of 3 bits cannot be drawn: 100 attempts, then
    # RuntimeError; and no messages at all
    (ParityProfile(m=(3, 3, 3), l=(0, 1, 2)), 10, False),
    (ParityProfile(m=(3, 3, 3), l=(0, 1, 2)), 0, False),
], ids=["siso-default-K100", "siso-default-K99", "odd-B-K3", "odd-B-K2", "mimo-96-K20",
        "acceptance-3-K10", "impossible-K10", "K0"])
def test_genie_tree_trial_draws_as_integers_would(profile, K, both_halves):
    # the redraws read the PCG64 stream two at a time; the messages, and so
    # every count, are those of one integers call per redraw, and the draw
    # taken is the reference's, whether it is the first or second of its pair
    accepted = []
    for master_seed in (0, 1, 314):
        for trial in range(4):
            assert (genie_outcome(genie_tree_trial, profile, K, master_seed, trial)
                    == genie_outcome(reference_genie_tree_trial, profile, K, master_seed,
                                     trial, accepted))
    if both_halves:
        assert {a % 2 for a in accepted} == {0, 1}
    if K == 0:
        assert genie_tree_trial(profile, 0, 0, 0) == ([0] * profile.L, [0] * (profile.L - 1))


@pytest.mark.parametrize("repeats", [98, 99, 100])
def test_genie_tree_trial_takes_the_last_of_100_draws(monkeypatch, repeats):
    # fragment values in which the first ``repeats`` draws repeat a fragment:
    # the 99th draw (first of the last pair) or the 100th (second) is taken,
    # and a trial whose 100 draws all repeat raises, as in the reference
    profile, K = ParityProfile(m=(12, 12, 12, 12), l=(0, 4, 6, 8)), 10
    real = harness.fragment_values

    def repeating(W, codebook):
        nonlocal drawn
        frags = real(W, codebook)
        frags[drawn + np.arange(len(W)) // K < repeats] = 0
        drawn += len(W) // K
        return frags

    monkeypatch.setattr(harness, "fragment_values", repeating)
    outcomes = []
    for trial_fn in (genie_tree_trial, reference_genie_tree_trial):
        drawn = 0
        outcomes.append(genie_outcome(trial_fn, profile, K, 0, 0))
        # the genie reads whole pairs, and 50 pairs at most
        assert drawn == (100 if trial_fn is genie_tree_trial else min(repeats + 1, 100))
    assert outcomes[0] == outcomes[1]
    assert (outcomes[0][0] is RuntimeError) == (repeats == 100)


def test_genie_path_stats_tracks_recursion():
    # The measured wrong-path mean should sit near the closed-form value.
    profile = ParityProfile(m=(6, 4, 4), l=(0, 3, 2))
    K = 3
    stats = genie_path_stats(profile, K, trials=1500, master_seed=1)
    assert stats["wrong_mean"].shape == (3,)
    assert stats["wrong_mean"][0] == 0.0
    for ell in (2, 3):
        want = expected_erroneous_paths(K, profile, ell, "full")
        got = stats["wrong_mean"][ell - 1]
        se = stats["wrong_se"][ell - 1]
        assert abs(got - want) < 4 * max(se, 1e-12)


def test_workers_do_not_change_results():
    cfg1 = parse_config(siso_config(trials=3))
    cfg2 = parse_config(siso_config(trials=3, workers=2))
    text1 = run_experiment(cfg1)
    text2 = run_experiment(cfg2)
    assert text1 == text2


def test_import_leaves_the_process_pool_unloaded():
    # only a pooled _map_trials needs concurrent.futures.process, which costs
    # every import of the harness milliseconds
    code = "import sys, uracs.harness; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])})
    assert out.stdout.strip() == "False"


def test_worker_pool_is_bounded_by_trials_and_cpus(monkeypatch):
    # A forking pool starts all its processes at the first submit, so the
    # pool gets at most one process per trial and per CPU, whatever
    # ``workers`` asks for. An inline stand-in records the size it is asked
    # for and starts no process.
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    # _map_trials imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)

    def trial(cfg, x, t):
        return x, t
    for workers, trials, pool in [(100000, 2, [2]), (100000, 10, [4]), (3, 10, [3]),
                                  (1, 10, []), (100000, 1, [])]:
        sizes.clear()
        cfg = parse_config(siso_config(workers=workers, trials=trials))
        assert harness._map_trials(trial, cfg, "x") == [("x", t) for t in range(trials)]
        assert sizes == pool
    # an unknown CPU count runs the trials in this process
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    sizes.clear()
    harness._map_trials(trial, parse_config(siso_config(workers=8, trials=5)), "x")
    assert sizes == []
    # merged by trial index, the pooled results are the serial ones
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    assert (run_experiment(parse_config(siso_config(trials=3, workers=100000)))
            == run_experiment(parse_config(siso_config(trials=3))))
    assert sizes == [3]
