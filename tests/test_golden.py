"""Golden decode outcomes for a few seeded trials.

The expected values were recorded from the trial harness before the scalar
and MIMO decoders shared one slot-interleaved loop; any change to the decode
path that alters decoded messages, per-slot column counts or the work model
fails here. The cases cover both channels, low SNR, ``list_size > K``, and an
enhanced decode in which every path dies before the last slot.
"""

import pytest

from uracs.harness import parse_config, run_mimo_trial, run_siso_trial

# (runner, config, runner args before the trial index,
#  {trial: (sent, {mode: (decoded, per_slot, work_units)})})
CASES = [
    ("siso", {"scenario": "siso", "profile": {"m": [4, 3, 3], "l": [0, 3, 3]},
              "K": 2, "ebn0_db": 10.0, "n": 20, "master_seed": 97}, (2, 10.0), {
        0: ([303, 111], {"original": ([111, 303], [16, 64, 64], 54400),
                         "enhanced": ([111, 303], [16, 16, 16], 9280)}),
        1: ([652, 537], {"original": ([], [16, 64, 64], 54080),
                         "enhanced": ([], [16, 16, 8], 6400)}),
        2: ([774, 733], {"original": ([733, 774], [16, 64, 64], 56000),
                         "enhanced": ([733, 774], [16, 16, 16], 8640)}),
    }),
    ("siso", {"scenario": "siso", "profile": {"m": [6, 4, 3], "l": [0, 3, 4]},
              "K": 3, "ebn0_db": 2.0, "n": 24, "master_seed": 5,
              "list_size": 5}, (3, 2.0), {
        0: ([8124, 3852, 2137], {"original": ([], [64, 128, 128], 193536),
                                 "enhanced": ([8168], [64, 64, 40], 106176)}),
        1: ([7474, 2788, 2809], {"original": ([], [64, 128, 128], 190464),
                                 "enhanced": ([2788, 1386], [64, 64, 48], 108288)}),
    }),
    ("siso", {"scenario": "siso", "profile": {"m": [2, 2, 2], "l": [0, 0, 2]},
              "K": 1, "ebn0_db": 12.0, "n": 16, "master_seed": 3,
              "list_size": 4, "path_cap": 3}, (1, 12.0), {
        0: ([62], {"original": ([], [4, 4, 16], 2432),
                   "enhanced": ([], [4, 4, 0], 384)}),
    }),
    ("mimo", {"scenario": "mimo", "profile": {"m": [4, 3, 3], "l": [0, 2, 2]},
              "K": 2, "M": 16, "ebn0_db": 4.0, "n": 8, "master_seed": 97}, (2, 16), {
        0: ([303, 111], {"original": ([111, 303], [16, 32, 32], 47104),
                         "enhanced": ([111, 303], [16, 8, 32], 32256)}),
        1: ([652, 537], {"original": ([], [16, 32, 32], 49152),
                         "enhanced": ([], [16, 16, 8], 19968)}),
        2: ([774, 733], {"original": ([733, 774], [16, 32, 32], 49152),
                         "enhanced": ([733, 774], [16, 8, 32], 32768)}),
    }),
    ("mimo", {"scenario": "mimo", "profile": {"m": [5, 4, 2, 1], "l": [0, 1, 3, 4]},
              "K": 3, "M": 32, "ebn0_db": 0.0, "n": 16, "master_seed": 7,
              "list_size": 4}, (3, 32), {
        0: ([2969, 3923, 416],
            {"original": ([15, 2969, 3923], [32, 32, 32, 32], 286720),
             "enhanced": ([15, 2969, 3923], [32, 32, 28, 10], 226816)}),
        1: ([2905, 2636, 3297],
            {"original": ([2636, 2905, 3297], [32, 32, 32, 32], 253952),
             "enhanced": ([2636, 2905, 3297], [32, 32, 20, 10], 187904)}),
    }),
    ("mimo", {"scenario": "mimo", "profile": {"m": [2, 2, 2], "l": [0, 0, 2]},
              "K": 1, "M": 16, "ebn0_db": 6.0, "n": 8, "master_seed": 3,
              "list_size": 4, "path_cap": 3}, (1, 16), {
        0: ([62], {"original": ([], [4, 4, 16], 9984),
                   "enhanced": ([], [4, 4, 0], 1792)}),
        1: ([6], {"original": ([], [4, 4, 16], 12032),
                  "enhanced": ([], [4, 4, 0], 1792)}),
    }),
]

RUNNERS = {"siso": run_siso_trial, "mimo": run_mimo_trial}


@pytest.mark.parametrize("kind,data,args,expected", CASES)
def test_trials_match_recorded_outcomes(kind, data, args, expected):
    cfg = parse_config(data)
    for trial, (sent, outcomes) in expected.items():
        r = RUNNERS[kind](cfg, *args, trial)
        assert r.sent == sent
        got = {mode: (o.decoded, o.per_slot, o.work_units)
               for mode, o in r.outcomes.items()}
        assert got == outcomes, f"trial {trial}"
