"""Machine block attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict:
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            def read(name, entry=entry):
                with open(os.path.join(base, entry, name), encoding="utf-8") as fh:
                    return fh.read().strip()

            kind = {"Data": "d", "Instruction": "i", "Unified": ""}.get(read("type"), "")
            out[f"L{read('level')}{kind}"] = read("size")
        except OSError:
            continue
    return out


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS that NumPy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            getter = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if getter is None or config is None:
                continue
            getter.restype = ctypes.c_int
            config.restype = ctypes.c_char_p
            return {"config": config().decode(), "threads": int(getter())}
    return {}


def _git_commit(root: str) -> str | None:
    """``git rev-parse HEAD`` in ``root``, or None when it fails.

    Git does not look for a repository above ``root``, so a checkout
    without ``.git`` reports None rather than an enclosing repository's
    commit.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False, env=env,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_block(root: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = _openblas()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas.get("config"),
        "blas_threads": blas.get("threads"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
        "git_commit": _git_commit(root),
    }
