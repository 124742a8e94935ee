"""Locate the package source in this checkout and describe the environment.

The benchmark always measures the ``src/ridgesvm`` next to it, never an
installed copy, and refuses to run when that source is missing.
"""
from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ridgesvm"

# BLAS threads per benchmark process.  On a 2-core machine a second
# OpenBLAS thread made svm_trickle slower and noisier (update_ms_p90 about
# 43 ms against 31 ms with one thread).
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout holds no importable ``src/ridgesvm``."""


def pin_threads() -> None:
    """Fix the BLAS thread count; must run before numpy is imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("pin_threads() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def use_checkout_source() -> None:
    """Put this checkout's ``src`` first on the import path and verify it."""
    init = PACKAGE / "__init__.py"
    if not init.is_file():
        raise MissingSource(f"no package source at {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    import ridgesvm

    if Path(ridgesvm.__file__).resolve() != init.resolve():
        raise MissingSource(f"ridgesvm imported from {ridgesvm.__file__}, not {init}")


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted(PACKAGE.glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in _THREAD_VARS},
        "worker_processes": 0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256_16": _source_digest(),
    }
