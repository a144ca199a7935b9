"""What every workload shares: the checkout, the host, results, checks.

The benchmark runs from the root of a source checkout and imports the
``repro`` package from its ``src/`` directory -- never from an
installed copy -- so it always measures the code it was shipped with.
Everything it writes goes under ``.perfbench_tmp/`` in that checkout
and is removed when the run ends.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from stats import MIN_BEYOND, median, percentile

__all__ = ["BLAS_ENV", "CheckFailed", "MissingSource", "ROOT", "RUN_PY",
           "emit", "end_to_end", "host_info", "import_repro", "peak_rss_mb",
           "run_child", "scratch_dir", "setup_samples", "worker_count"]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_PY = HERE / "run.py"
TMP = ROOT / ".perfbench_tmp"

#: BLAS/OpenMP pools pinned to one thread: the engine's arrays are
#: small, and a second BLAS thread would only fight the service's
#: worker pool for the same cores.  Set before numpy is imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

#: Children get this long before the run counts as failed (seconds).
CHILD_TIMEOUT = 150


class CheckFailed(Exception):
    """An output check failed: the run reports no numbers."""


class MissingSource(Exception):
    """The checkout holds no ``src/repro`` package to measure."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/``, or refuse."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingSource(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise MissingSource(
            f"imported repro from {repro.__file__}, not from {SRC}")
    return repro


def worker_count(wanted: int) -> int:
    """A fixed worker count, capped at the host's CPUs."""
    return max(1, min(wanted, os.cpu_count() or 1))


def scratch_dir(name: str) -> Path:
    """A fresh empty directory under ``.perfbench_tmp/``."""
    path = TMP / f"{os.getpid()}-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def clean_scratch() -> None:
    """Remove this process's scratch directories (and the root if empty)."""
    if not TMP.is_dir():
        return
    for path in TMP.glob(f"{os.getpid()}-*"):
        shutil.rmtree(path, ignore_errors=True)
    try:
        TMP.rmdir()
    except OSError:
        pass  # other runs' directories, or already gone


def peak_rss_mb() -> float:
    """Peak resident memory of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_child(args: List[str], env: Optional[Dict[str, str]] = None
              ) -> dict:
    """Run ``run.py`` with ``args`` in a fresh interpreter; return the
    JSON object it prints last.  The child is waited for, always."""
    child_env = dict(os.environ)
    child_env.update(BLAS_ENV)
    if env:
        child_env.update(env)
    proc = subprocess.run(
        [sys.executable, str(RUN_PY)] + args, cwd=str(ROOT),
        env=child_env, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT)
    if proc.returncode != 0:
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-5:]
        raise CheckFailed(f"child {' '.join(args)} exited "
                          f"{proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples(workload: str, seed: int, count: int) -> List[float]:
    """Set-up time of ``count`` fresh processes doing only set-up."""
    return [run_child(["--setup-only", "--workload", workload,
                       "--seed", str(seed)])["setup_s"]
            for _ in range(count)]


def host_info(**workers: int) -> Dict[str, object]:
    """What the numbers were measured on, with the fixed worker counts."""
    import numpy

    info: Dict[str, object] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    info.update(workers)
    return info


#: name -> (value, unit, samples)
Metrics = Dict[str, Tuple[float, str, int]]


def end_to_end(steps_per_s: float, rate_samples: int,
               latencies: List[float], setups: List[float],
               rss_mb: float, rss_samples: int) -> Metrics:
    """The five end-to-end metrics every workload prints.

    ``latencies`` are seconds per step (or step request); the p99 is
    refused unless ten of them lie beyond it.
    """
    n = len(latencies)
    return {
        "steps_per_s": (steps_per_s, "steps/s", rate_samples),
        "step_p50_ms": (1e3 * percentile(latencies, 50), "ms", n),
        "step_p99_ms": (1e3 * percentile(latencies, 99, MIN_BEYOND), "ms",
                        n),
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (rss_mb, "MiB", rss_samples),
    }


def emit(metrics: Metrics, attempted: int, host: Dict[str, object]
         ) -> None:
    """Print the metric table, then the result object as the last line.

    The table gives each metric with its unit and sample count; the
    JSON line carries value and unit only.  ``failed`` is always 0: a
    failed or refused operation fails its run's checks before this.
    """
    print("host: " + " ".join(f"{k}={v}" for k, v in host.items()))
    width = max(len(name) for name in metrics)
    print(f"{'metric':<{width}}  {'value':>14}  {'unit':<10} samples")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {unit:<10} {samples}")
    print(json.dumps({
        "correct": True,
        "attempted": int(attempted),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
