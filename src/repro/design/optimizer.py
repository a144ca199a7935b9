"""The closed-loop search: seeded enumeration + evolutionary refinement.

The loop is deliberately boring — the determinism guarantees do the
work:

1. **Seed** the archive with the paper's fixed design points plus a
   seeded random sample (so every front provably covers Table 8).
2. For each generation, **breed** candidates from the current front by
   seeded mutate/crossover and **evaluate** the unseen ones, fanned
   through a :class:`~repro.perf.sweep.SweepRunner`.
3. **Verify** the resulting front: every member's precision policy is
   re-priced with a coupled cold :func:`minimum_precision` search, the
   front re-pruned, and the loop repeated until every member is
   verified (a corrected margin can demote a member and promote an
   estimated one, which then gets verified too).

Evaluations are pure functions of the design point, the breeding RNG is
keyed on ``(seed, generation)`` and draws only from the sorted archive
— never from evaluation completion order — so the emitted front is
bit-identical across worker counts, evaluation shuffles, and reruns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..perf.sweep import SweepJob, SweepRunner
from .evaluate import DesignEval, evaluate_point
from .pareto import ARTIFACT_VERSION, ParetoFront
from .space import DesignPoint, DesignQuery, DesignSpace

__all__ = ["SearchStats", "DesignResult", "run_search"]

#: hard stop for the verification fixpoint loop (each round verifies at
#: least one new point, so this is a safety net, not a tuning knob)
MAX_VERIFY_ROUNDS = 64

def _eval_job(space: DesignSpace, point: DesignPoint, verify: bool,
              use_cache: bool) -> DesignEval:
    """Module-level so it pickles into SweepRunner worker processes."""
    return evaluate_point(space, point, verify=verify, use_cache=use_cache)


@dataclass
class SearchStats:
    """Deterministic search accounting (goes into the artifact)."""

    evaluations: int = 0
    verifications: int = 0
    verify_rounds: int = 0
    generations: int = 0


@dataclass
class DesignResult:
    """One finished search: the verified front plus its provenance."""

    query: DesignQuery
    front: ParetoFront
    #: paper fixed points with their front status
    paper: List[dict] = field(default_factory=list)
    stats: SearchStats = field(default_factory=SearchStats)
    archive_size: int = 0

    def payload(self) -> dict:
        """The full artifact — deterministic for a canonical query, so
        the served response and the CLI file compare byte-identical.
        Wall-clock and stamps live outside this payload (CLI stdout,
        ``serve.design`` events, the artifact *filename*)."""
        return {
            "version": ARTIFACT_VERSION,
            "query": self.query.canonical(),
            "query_key": self.query.cache_key(),
            "result": {
                "front": self.front.to_payload(),
                "front_size": len(self.front),
                "paper_points": self.paper,
                "workload_digest": self.query.space.workload_digest(),
                "archive_size": self.archive_size,
                "evaluations": self.stats.evaluations,
                "verifications": self.stats.verifications,
                "verify_rounds": self.stats.verify_rounds,
                "generations": self.stats.generations,
            },
        }

    def write_artifact(self, out_dir) -> str:
        """Write ``DESIGN_<stamp>.json`` (collision-proof stamp)."""
        import os

        from ..experiments.runcache import bench_stamp

        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"DESIGN_{bench_stamp()}.json")
        ParetoFront.write_artifact(path, self.payload())
        return path


def _front_of(archive: Dict[Tuple, DesignEval]) -> ParetoFront:
    """Non-dominated feasible subset of the archive (verified evals
    override estimated ones per point before this is called)."""
    return ParetoFront(e for _, e in sorted(archive.items())
                       if e.feasible)


def run_search(
    query: DesignQuery,
    workers: Optional[int] = None,
    use_cache: bool = True,
) -> DesignResult:
    """Execute one canonicalized design query end to end."""
    space = query.space
    runner = SweepRunner(workers)
    stats = SearchStats()
    #: point key -> best-known eval (verified wins over estimated)
    archive: Dict[Tuple, DesignEval] = {}

    def evaluate(points: List[DesignPoint], verify: bool) -> None:
        todo = []
        seen = set()
        for point in points:
            key = point.key()
            if key in seen:
                continue
            if key in archive and (archive[key].verified or not verify):
                continue
            seen.add(key)
            todo.append(point)
        if not todo:
            return
        jobs = [SweepJob(
            key=point.key(), fn=_eval_job,
            args=(space, point, verify, use_cache),
        ) for point in todo]
        for result in runner.run(jobs):
            archive[result.key] = result.value
        if verify:
            stats.verifications += len(todo)
        else:
            stats.evaluations += len(todo)

    # Generation 0: the paper's fixed points + a seeded random sample.
    seeds = space.seed_points()
    rng = random.Random(f"design:{query.seed}:init")
    population = seeds + space.sample(
        rng, max(0, query.population - len(seeds)))
    evaluate(population, verify=False)

    for generation in range(1, query.generations + 1):
        stats.generations = generation
        front = _front_of(archive)
        parents = front.members()
        if not parents:
            # Nothing feasible yet: keep exploring from scratch.
            parents = [archive[k] for k in sorted(archive)]
        rng = random.Random(f"design:{query.seed}:gen{generation}")
        children = []
        for _ in range(query.population):
            a = rng.choice(parents).point
            b = rng.choice(parents).point
            child = space.crossover(a, b, rng)
            if rng.random() < 0.75:
                child = space.mutate(child, rng)
            children.append(child)
        evaluate(children, verify=False)

    # Verification fixpoint: the reported front is measured, not
    # predicted.  Corrected margins can reshape the front, so iterate.
    for _ in range(MAX_VERIFY_ROUNDS):
        front = _front_of(archive)
        unverified = [m.point for m in front.members()
                      if not m.verified]
        if not unverified:
            break
        stats.verify_rounds += 1
        evaluate(unverified, verify=True)
    front = _front_of(archive)

    # Paper-point report: each seed point is on the front or dominated
    # by it (or infeasible under the user's budgets).
    paper = []
    for point in seeds:
        entry = archive[point.key()]
        if not entry.feasible:
            status = "infeasible"
        elif point.key() in front:
            status = "on_front"
        elif front.covers(entry.objectives()):
            status = "dominated"
        else:  # pragma: no cover - impossible by construction
            status = "uncovered"
        paper.append({"point": point.to_dict(), "status": status,
                      "objectives": list(entry.objectives()),
                      "verified": entry.verified})

    return DesignResult(query=query, front=front, paper=paper,
                        stats=stats, archive_size=len(archive))
