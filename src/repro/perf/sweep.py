"""Parallel sweep execution over experiment grids.

Every expensive consumer in this reproduction — the Table 1 grid of
minimum-precision searches, the Table 4 census runs, the scalability
sweeps, the design search's evaluations, the ``health`` fault
campaigns — iterates an embarrassingly parallel grid of independent
cells; each cell itself runs serially.  The
:class:`SweepRunner` fans such grids out over a
:class:`concurrent.futures.ProcessPoolExecutor` with deterministic job
keys and per-job wall-time/op-count metrics, falling back to in-process
serial execution when one worker is requested (or the platform cannot
spawn a pool), so results are identical either way.

Worker count resolution: an explicit ``workers`` argument wins, then the
``REPRO_WORKERS`` environment variable, then ``os.cpu_count()``.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = [
    "SweepJob",
    "JobResult",
    "SweepMetrics",
    "SweepOutcome",
    "SweepRunner",
    "resolve_workers",
]

#: Environment variable overriding the auto-detected worker count.
WORKERS_ENV = "REPRO_WORKERS"


def resolve_workers(workers: Optional[int] = None,
                    jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``REPRO_WORKERS`` > ``os.cpu_count()``.

    Never exceeds the job count (spawning idle processes is pure cost)
    and never drops below one.
    """
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"{WORKERS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    workers = max(1, int(workers))
    if jobs is not None:
        workers = min(workers, max(1, int(jobs)))
    return workers


@dataclass(frozen=True)
class SweepJob:
    """One unit of sweep work.

    ``key`` is a caller-chosen deterministic identifier (e.g.
    ``("ragdoll", "lcp", "jam")``) used to route results back regardless
    of completion order; ``fn`` must be a module-level callable so it
    pickles across the process boundary.
    """

    key: Tuple
    fn: Callable
    args: Tuple = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class SweepOutcome:
    """Optional rich return for workers that report an op/work count."""

    value: Any
    ops: int = 0


@dataclass
class JobResult:
    """One job's result with its execution metrics."""

    key: Tuple
    value: Any = None
    wall_time: float = 0.0
    #: job-defined work counter (simulation steps, FP ops, ...)
    ops: int = 0
    error: Optional[str] = None
    worker_pid: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepMetrics:
    """Aggregate metrics for one :meth:`SweepRunner.run` call."""

    jobs: int
    workers: int
    elapsed: float
    busy_time: float
    ops: int

    @property
    def speedup(self) -> float:
        """Sum of per-job wall times over the sweep's elapsed time."""
        return self.busy_time / self.elapsed if self.elapsed > 0 else 1.0


def _execute_job(job: SweepJob) -> JobResult:
    """Run one job, timing it and capturing any exception.

    Never raises: errors travel back as data so one bad cell cannot
    take down a whole grid (the runner re-raises by default).
    """
    start = time.perf_counter()
    try:
        value = job.fn(*job.args, **job.kwargs)
        ops = 0
        if isinstance(value, SweepOutcome):
            ops = int(value.ops)
            value = value.value
        return JobResult(job.key, value, time.perf_counter() - start,
                         ops, None, os.getpid())
    except Exception as exc:  # noqa: BLE001 - marshalled to the parent
        return JobResult(job.key, None, time.perf_counter() - start,
                         0, f"{type(exc).__name__}: {exc}", os.getpid())


class SweepRunner:
    """Fan jobs out over worker processes (or run them serially).

    The runner is stateless between calls apart from
    :attr:`last_metrics`; a single instance can execute many sweeps.
    """

    def __init__(self, workers: Optional[int] = None) -> None:
        self.requested_workers = workers
        self.last_metrics: Optional[SweepMetrics] = None

    def resolved_workers(self, jobs: Optional[int] = None) -> int:
        return resolve_workers(self.requested_workers, jobs)

    def run(self, jobs: Iterable[SweepJob],
            reraise: bool = True) -> List[JobResult]:
        """Execute all jobs; results come back in submission order.

        With ``reraise`` (the default) the first failed job raises a
        ``RuntimeError`` naming every failing key; pass ``False`` to
        inspect per-job errors instead.
        """
        jobs = list(jobs)
        workers = self.resolved_workers(len(jobs))
        start = time.perf_counter()
        results: List[JobResult]
        if workers <= 1 or len(jobs) <= 1:
            workers = 1
            results = [_execute_job(job) for job in jobs]
        else:
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(_execute_job, jobs))
            except Exception:
                # Pool creation (or its IPC) can fail on restricted
                # platforms; the jobs themselves never raise, so this is
                # infrastructure failure — fall back to serial.
                workers = 1
                results = [_execute_job(job) for job in jobs]
        elapsed = time.perf_counter() - start
        self.last_metrics = SweepMetrics(
            jobs=len(jobs),
            workers=workers,
            elapsed=elapsed,
            busy_time=sum(r.wall_time for r in results),
            ops=sum(r.ops for r in results),
        )
        if reraise:
            failed = [r for r in results if not r.ok]
            if failed:
                detail = "; ".join(
                    f"{r.key}: {r.error}" for r in failed[:5])
                raise RuntimeError(
                    f"{len(failed)}/{len(results)} sweep jobs failed: "
                    f"{detail}")
        return results
