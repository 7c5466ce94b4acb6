"""Machine and environment record attached to every benchmark result."""

import hashlib
import os
import platform
import subprocess
from pathlib import Path

# BLAS threads used by every benchmark process (capped at the usable CPUs).
BLAS_THREADS = 1

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def pin_blas_threads():
    """Fix the BLAS thread count in this process's environment, which the
    processes it starts inherit.  Must run before numpy is imported.
    Returns the count."""
    threads = min(BLAS_THREADS, nproc())
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches():
    """Per-core L2 and shared L3 sizes as the kernel reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and level in ("2", "3"):
            out[f"l{level}"] = size
    return out


def _blas():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def _git_commit(root):
    if not (Path(root) / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src):
    """sha256 over the program's .py files (path and bytes), so a result
    names the code it measured even outside a git checkout."""
    h = hashlib.sha256()
    for path in sorted(Path(src).rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def record(root, src, seed, threads):
    import numpy as np

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "cache": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": threads,
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(src),
        "seed": seed,
    }
