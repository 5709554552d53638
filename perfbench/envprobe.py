"""Print the benchmark's environment as one JSON object.

Runs in the same environment as the measured commands, so the BLAS settings
it reports are theirs.  Importing `triscar.cli` here also warms the file
cache and writes the bytecode cache before anything is timed.
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy
import scipy

import triscar
import triscar.cli  # noqa: F401

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas() -> dict:
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    return {key: {k: deps[key].get(k) for k in ("name", "version", "openblas configuration")}
            for key in ("blas", "lapack") if key in deps}


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    """Data and unified cache sizes seen by CPU 0, by level."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def main() -> None:
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "triscar": triscar.__version__,
        "triscar_path": os.path.dirname(os.path.abspath(triscar.__file__)),
        "blas": _blas(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
    }))


if __name__ == "__main__":
    main()
