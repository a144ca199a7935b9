"""Performance subsystem: parallel sweeps and ``repro bench``.

``repro.perf.sweep`` is import-light (stdlib only) so experiment modules
can pull :class:`SweepRunner` without cycles.  ``repro.perf.bench``
times the census vs census-free steps/s pair and the tracing overhead
(the two measurements behind gates); it pulls in the workloads and is
imported on demand by the CLI.
"""

from .sweep import (
    JobResult,
    SweepJob,
    SweepMetrics,
    SweepOutcome,
    SweepRunner,
    resolve_workers,
)

__all__ = [
    "JobResult",
    "SweepJob",
    "SweepMetrics",
    "SweepOutcome",
    "SweepRunner",
    "resolve_workers",
]
