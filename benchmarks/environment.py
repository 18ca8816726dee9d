"""Machine and library block that goes next to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import re

__all__ = ["environment"]


def _loaded_openblas():
    """Paths of the OpenBLAS libraries loaded into this process (Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            maps = fh.read()
    except OSError:
        return []
    return sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps)))


def _blas_call(lib, stem, restype):
    """Call ``openblas_<stem>`` under any of the prefixes and suffixes that
    SciPy's and NumPy's bundled builds give their symbols."""
    for prefix in ("scipy_", ""):
        for suffix in ("64_", "", "_"):
            fn = getattr(lib, f"{prefix}openblas_{stem}{suffix}", None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = restype
                return fn()
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment():
    """Python, NumPy and SciPy versions, BLAS name, version and threads,
    processor count and CPU model of this process."""
    import numpy
    import scipy

    blas = []
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        config = _blas_call(lib, "get_config", ctypes.c_char_p)
        blas.append({
            "library": os.path.basename(path),
            "config": config.decode() if config else None,
            "threads": _blas_call(lib, "get_num_threads", ctypes.c_int),
        })
    builds = {}
    for module in (numpy, scipy):
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        builds[module.__name__] = f"{info.get('name')} {info.get('version')}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": builds,
        "blas_loaded": blas,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }
