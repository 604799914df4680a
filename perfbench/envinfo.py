"""Environment manifest recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path


def pin_to_one_cpu() -> int:
    """Restrict this process (only) to the lowest CPU it may run on; return that CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _git_commit(root: Path) -> str | None:
    """HEAD of ``root`` read from .git directly; None where the tree is not a git checkout."""
    git = root / ".git"
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


def source_digest(package_dir: Path) -> str:
    """sha256 over the package's .py files (relative path and bytes), in path order."""
    h = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        h.update(str(path.relative_to(package_dir)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _openblas_runtime() -> dict:
    """Thread count and core type reported by the OpenBLAS library numpy has loaded, if any."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is None or get_config is None:
                    continue
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                return {"threads": get_threads(), "config": get_config().decode()}
    return {}


def manifest(root: Path, package_dir: Path, cpu: int, affinity_before: set[int]) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _git_commit(root),
        "source_sha256": source_digest(package_dir),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": {k: blas.get(k) for k in ("name", "version", "openblas configuration") if k in blas},
        "blas_runtime": _openblas_runtime(),
        "nproc": os.cpu_count(),
        "affinity_at_start": sorted(affinity_before),
        "pinned_cpu": cpu,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
    }
