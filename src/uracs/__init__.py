"""Coded-compressed-sensing simulation toolkit for unsourced random access."""

from .channel import (MimoChannelConfig, SisoChannelConfig, ebn0_to_amplitude,
                      ebn0_to_power, gmac_transmit, mimo_block_transmit)
from .ccs import (SensingMatrix, build_complex_sensing_matrix,
                  build_sensing_matrix, decode_siso, prune_columns,
                  top_k_support, user_signals)
from .errors import ConfigError, ResourceRefusalError
from .harness import (ExperimentConfig, genie_path_stats, genie_tree_trial,
                      load_config, parse_config, pupe, run_experiment,
                      run_mimo_trial, run_siso_trial)
from .mimo import (CovarianceState, activity_detect, decode_mimo,
                   sample_covariance, support_from_gamma)
from .nnls import NnlsResult, nnls_solve
from .predictors import (PredictorInput, expected_admissible_patterns,
                         expected_column_reduction_ratio,
                         expected_erroneous_paths, expected_partial_paths)
from .tree import (DEFAULT_MIMO_PROFILE, DEFAULT_SISO_PROFILE,
                   AdmissibleIndexSet, DecodeResult, ParityProfile,
                   PathTracker, TreeCodebook, encode_messages,
                   interleaved_decode, tree_decode)

__all__ = [
    # channel
    "MimoChannelConfig", "SisoChannelConfig", "ebn0_to_amplitude",
    "ebn0_to_power", "gmac_transmit", "mimo_block_transmit",
    # scalar inner code
    "SensingMatrix", "build_complex_sensing_matrix", "build_sensing_matrix",
    "decode_siso", "prune_columns", "top_k_support", "user_signals",
    # errors
    "ConfigError", "ResourceRefusalError",
    # experiments
    "ExperimentConfig", "genie_path_stats", "genie_tree_trial", "load_config",
    "parse_config", "pupe", "run_experiment", "run_mimo_trial",
    "run_siso_trial",
    # MIMO inner code
    "CovarianceState", "activity_detect", "decode_mimo", "sample_covariance",
    "support_from_gamma",
    # NNLS
    "NnlsResult", "nnls_solve",
    # predictors
    "PredictorInput", "expected_admissible_patterns",
    "expected_column_reduction_ratio", "expected_erroneous_paths",
    "expected_partial_paths",
    # outer tree code and the interleaved decode loop
    "DEFAULT_MIMO_PROFILE", "DEFAULT_SISO_PROFILE", "AdmissibleIndexSet",
    "DecodeResult", "ParityProfile", "PathTracker", "TreeCodebook",
    "encode_messages", "interleaved_decode", "tree_decode",
]
