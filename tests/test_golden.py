"""Golden decode outcomes for a few seeded trials.

The trial values were recorded from the trial harness before the scalar
and MIMO decoders shared one slot-interleaved loop; any change to the decode
path that alters decoded messages, per-slot column counts or the work model
fails here. The cases cover both channels, low SNR, ``list_size > K``, and an
enhanced decode in which every path dies before the last slot.

The tree-search values (genie live-path and pattern counts, list decodes
with repeated parity buckets and with capped roots) were recorded before
``PathTracker`` extended its paths in one vectorised step.

The whole-CSV texts were recorded before the scenario runners shared one
row loop; they guard the row layout, averaging and number formatting that
a rerun-equals-rerun check cannot see.
"""

import numpy as np
import pytest

from uracs.bits import random_bits
from uracs.harness import (genie_tree_trial, parse_config, run_experiment,
                           run_mimo_trial, run_siso_trial)
from uracs.tree import (DEFAULT_SISO_PROFILE, ParityProfile, TreeCodebook,
                        encode_messages, tree_decode)

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


# (profile, K, master_seed, trial, live paths per stage, patterns per stage 2..L)
GENIE_CASES = [
    (DEFAULT_SISO_PROFILE, 100, 1, 0,
     [100, 250, 192, 180, 175, 165, 163, 159, 164, 104, 100],
     [50, 162, 133, 125, 121, 123, 122, 114, 161, 104]),
    (DEFAULT_SISO_PROFILE, 100, 2, 0,
     [100, 254, 190, 187, 194, 177, 161, 159, 176, 100, 100],
     [49, 158, 130, 124, 133, 133, 121, 113, 176, 100]),
    (DEFAULT_SISO_PROFILE, 100, 3, 0,
     [100, 230, 171, 162, 151, 157, 159, 160, 162, 100, 100],
     [51, 160, 124, 123, 116, 114, 123, 119, 162, 100]),
    (ParityProfile(m=(6, 4, 2), l=(0, 3, 4)), 4, 11, 0, [4, 8, 9], [2, 5]),
    (ParityProfile(m=(6, 4, 2), l=(0, 3, 4)), 4, 11, 2, [4, 4, 6], [4, 3]),
]


@pytest.mark.parametrize("profile,K,seed,trial,live,patterns", GENIE_CASES)
def test_genie_tree_trial_matches_recorded_counts(profile, K, seed, trial,
                                                  live, patterns):
    assert genie_tree_trial(profile, K, seed, trial) == (live, patterns)


def genie_with_decoys(profile, seed, K, decoys):
    """Codebook ``seed``; the encoded fragments of K random messages, each
    list followed by ``decoys[l]`` random fragments."""
    cb = TreeCodebook(profile, seed=seed)
    rng = np.random.default_rng(seed)
    W = random_bits(rng, (K, profile.B))
    lists = [np.vstack([f, random_bits(rng, (n, v))])
             for f, n, v in zip(encode_messages(W, cb), decoys, profile.v)]
    return lists, cb


# (profile, seed, K, decoys, path_cap,
#  (messages, failures, live paths per stage, capped roots))
TREE_DECODE_CASES = [
    # up to three (seed 0) and four (seed 5) rows of a list share one parity
    (ParityProfile(m=(4, 3, 3, 2), l=(0, 2, 3, 4)), 0, 4, (0, 3, 3, 2), 1 << 16,
     ([3304, 275], 2, [4, 8, 12, 9], 0)),
    (ParityProfile(m=(4, 3, 3, 2), l=(0, 2, 3, 4)), 5, 4, (0, 3, 3, 2), 1 << 16,
     ([4062, 267], 2, [4, 11, 13, 13], 0)),
    # two roots exceed the cap and fail; the third still decodes
    (ParityProfile(m=(3, 2, 2), l=(0, 1, 3)), 6, 3, (0, 4, 1), 3,
     ([111], 2, [3, 1, 2], 2)),
    (ParityProfile(m=(3, 2, 2), l=(0, 1, 3)), 6, 3, (0, 4, 1), 1 << 16,
     ([117, 111, 83], 0, [3, 13, 7], 0)),
]


@pytest.mark.parametrize("profile,seed,K,decoys,path_cap,expected",
                         TREE_DECODE_CASES)
def test_tree_decode_matches_recorded_outcomes(profile, seed, K, decoys,
                                               path_cap, expected):
    lists, cb = genie_with_decoys(profile, seed, K, decoys)
    r = tree_decode(lists, cb, path_cap=path_cap)
    assert (r.messages, r.failures, r.diagnostics.live_paths,
            r.diagnostics.capped_roots) == expected


# (config, the exact CSV text of run_experiment)
CSV_CASES = [
    ({"scenario": "siso", "profile": {"m": [4, 3, 3], "l": [0, 3, 3]},
      "K": [2], "trials": 3, "ebn0_db": [10.0], "n": 20, "master_seed": 97},
     "K,ebn0_db,mode,trials,pupe,mean_cols_slot_1,mean_cols_slot_2,"
     "mean_cols_slot_3,mean_decode_ms\n"
     "2,10,original,3,0.33333333333333331,16,64,64,0.054826666666666662\n"
     "2,10,enhanced,3,0.33333333333333331,16,16,13.333333333333334,"
     "0.0081066666666666665\n"),
    ({"scenario": "mimo", "profile": {"m": [4, 3, 3], "l": [0, 2, 2]},
      "K": [2], "M": [16], "trials": 3, "ebn0_db": 4.0, "n": 8, "master_seed": 97},
     "K,M,mode,trials,pupe,mean_S_1,mean_S_2,mean_S_3,runtime_ratio\n"
     "2,16,original,3,0.33333333333333331,16,32,32,0.58450704225352113\n"
     "2,16,enhanced,3,0.33333333333333331,16,10.666666666666666,24,"
     "0.58450704225352113\n"),
    ({"scenario": "predict", "profile": {"m": [4, 3, 3], "l": [0, 3, 3]},
      "K": [2, 4]},
     "K,slot,variant,E_L,P,P_patterns,R\n"
     "2,1,full,0,2,1,1\n"
     "2,2,full,0.125,2.25,2.0760947129302632,0.25951183911628289\n"
     "2,3,full,0.15625,2.3125,2.125328190626175,0.26566602382827187\n"
     "2,1,one_step,0,2,1,1\n"
     "2,2,one_step,0.125,2.25,2.0760947129302632,0.25951183911628289\n"
     "2,3,one_step,0.125,2.25,2.0760947129302632,0.25951183911628289\n"
     "4,1,full,0,4,1,1\n"
     "4,2,full,0.375,5.5,4.1617409851373512,0.52021762314216891\n"
     "4,3,full,0.5625,6.25,4.5275154799183497,0.56593943498979371\n"
     "4,1,one_step,0,4,1,1\n"
     "4,2,one_step,0.375,5.5,4.1617409851373512,0.52021762314216891\n"
     "4,3,one_step,0.375,5.5,4.1617409851373512,0.52021762314216891\n"),
]


@pytest.mark.parametrize("data,text", CSV_CASES,
                         ids=[c[0]["scenario"] for c in CSV_CASES])
def test_csv_matches_recorded_text(data, text):
    assert run_experiment(parse_config(data)) == text
