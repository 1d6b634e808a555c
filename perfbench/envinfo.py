"""Environment record printed with every result: run as a script, prints JSON.

    python perfbench/envinfo.py <checkout root> <output dir>
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path


def _filesystem(path: Path) -> str:
    """Type and mount point of the filesystem holding path, from /proc/self/mounts."""
    best = ("", "unknown")
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[0]):
                    best = (mount, parts[2])
    except OSError:
        pass
    return f"{best[1]} on {best[0] or '?'}"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() or "unknown"


def record(root: Path, out_dir: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
        "output_filesystem": _filesystem(out_dir.resolve()),
    }


if __name__ == "__main__":
    print(json.dumps(record(Path(sys.argv[1]), Path(sys.argv[2]))))
