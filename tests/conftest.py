"""Shared pytest hooks: the report header states the numerical environment.

At n >= 384 NNLS's bits can depend on the BLAS thread count, so every test
log says which numpy, which BLAS and which thread settings it came from.
"""

import os

import numpy as np

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pytest_report_header(config):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES)
    return [f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}",
            f"BLAS threads: {threads}"]
