"""Machine notes recorded with every result set."""

import ctypes
import os
import platform


def _read(path):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return ""


def _field(text, key):
    for line in text.splitlines():
        if line.startswith(key):
            return line.split(":", 1)[1].strip()
    return None


def _l3_size():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return None
    for entry in entries:
        if _read(f"{base}/{entry}/level").strip() == "3":
            return _read(f"{base}/{entry}/size").strip() or None
    return None


def _blas_runtime_threads():
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    libs = sorted({line.split()[-1] for line in
                   _read("/proc/self/maps").splitlines()
                   if "openblas" in line and line.split()[-1].startswith("/")})
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def notes(workload, seed, blas_threads):
    """nproc, memory, CPU, library versions, BLAS and its threads."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpuinfo = _read("/proc/cpuinfo")
    mem = _field(_read("/proc/meminfo"), "MemTotal")
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "mem_total": mem,
        "cpu_model": _field(cpuinfo, "model name"),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": blas_threads,
        "blas_threads_runtime": _blas_runtime_threads(),
    }
