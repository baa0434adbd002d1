"""Shared pytest hooks: the BLAS runs on one thread by default, and the report
header states the numerical environment and the size of the source.

At n >= 384 NNLS's bits can depend on the BLAS thread count, so the tests take
``ura``'s default, one BLAS thread, by importing ``uracs.cli`` first, and every
test log says which numpy, which BLAS and which thread settings it came from.
The BLAS reads the variables when numpy is first imported, and a pytest plugin
may import numpy before this file runs, so the header also says whether numpy
came first and how many threads the BLAS reports. It also counts the lines of
``src/``, in total and per file, the figure that the project's line-count aim
is stated in.
"""

import ctypes
import os
import sys
from pathlib import Path

NUMPY_FIRST = "numpy" in sys.modules
# importing uracs.cli sets each unset thread variable to 1, then imports numpy
from uracs.cli import THREAD_VARIABLES  # noqa: E402

import numpy as np  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"


def blas_threads():
    """The thread count numpy's bundled OpenBLAS reports, or None."""
    for path in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.argtypes, function.restype = [], ctypes.c_int
                return function()
    return None


def pytest_report_header(config):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{name}={os.environ.get(name, 'unset')}" for name in THREAD_VARIABLES)
    threads += (" (numpy was imported before conftest set these)" if NUMPY_FIRST else
                " (set before numpy was imported)")
    threads += f", threads the BLAS reports: {blas_threads() or 'unknown'}"
    lines = {path.relative_to(SRC).as_posix(): len(path.read_text(encoding="utf-8").splitlines())
             for path in sorted(SRC.rglob("*.py"))}
    files = ", ".join(f"{name} {count}" for name, count in
                        sorted(lines.items(), key=lambda item: (-item[1], item[0])))
    return [f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}",
            f"BLAS threads: {threads}",
            f"src lines: {sum(lines.values())} ({files})"]
