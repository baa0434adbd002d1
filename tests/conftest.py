"""Shared pytest hooks: the report header states the numerical environment
and the size of the source.

At n >= 384 NNLS's bits can depend on the BLAS thread count, so every test
log says which numpy, which BLAS and which thread settings it came from. It
also counts the lines of ``src/``, in total and per file, the figure that
the project's line-count aim is stated in.
"""

import os
from pathlib import Path

import numpy as np

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = Path(__file__).resolve().parent.parent / "src"


def pytest_report_header(config):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES)
    lines = {path.relative_to(SRC).as_posix(): len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted(SRC.rglob("*.py"))}
    files = ", ".join(f"{name} {count}" for name, count in
                        sorted(lines.items(), key=lambda item: (-item[1], item[0])))
    return [f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}",
            f"BLAS threads: {threads}",
            f"src lines: {sum(lines.values())} ({files})"]
