"""Offline trace analysis: ``repro trace --summarize``.

Reads a JSONL trace back, validates it against the schema, and reduces
it to the operator-facing numbers: step-time percentiles, per-phase
precision histograms (which mantissa widths actually executed, and for
how many steps), believability-violation counts, the census rates the
paper's Table 4 argument needs, and the controller/recovery activity
timeline totals.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from typing import Dict, List, Optional, Sequence

from .schema import validate_events
from .trace import read_events

__all__ = ["summarize", "summarize_file", "render"]


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = q * (len(sorted_values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = rank - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def summarize(events: List[dict], skipped_lines: int = 0) -> dict:
    """Aggregate a parsed event stream into one report dict."""
    invalid, problems = validate_events(events)
    meta = next((e for e in events if e.get("kind") == "meta"), None)

    steps = [e for e in events if e.get("kind") == "step"]
    walls = sorted(float(e["wall"]) for e in steps
                   if isinstance(e.get("wall"), (int, float)))
    phase_seconds: Dict[str, float] = {}
    phase_bits: Dict[str, TallyCounter] = {}
    census = {"total": 0, "trivial": 0, "memo_hits": 0, "lut_hits": 0,
              "nontrivial": 0}
    violations = 0
    max_delta: Optional[float] = None
    for event in steps:
        for name, phase in event.get("phases", {}).items():
            phase_seconds[name] = (phase_seconds.get(name, 0.0)
                                   + float(phase.get("seconds", 0.0)))
            phase_bits.setdefault(name, TallyCounter())[
                int(phase.get("bits", -1))] += 1
        for field in census:
            census[field] += int(event.get("census", {}).get(field, 0))
        energy = event.get("energy", {})
        if energy.get("violation"):
            violations += 1
        delta = energy.get("delta_rel")
        if delta is not None:
            max_delta = delta if max_delta is None else max(max_delta,
                                                            delta)

    controller = TallyCounter(
        e["action"] for e in events
        if e.get("kind") == "controller" and "action" in e)
    detections = sum(1 for e in events if e.get("kind") == "detection")
    recovery = TallyCounter(
        (e.get("rung"), e.get("outcome")) for e in events
        if e.get("kind") == "recovery")

    return {
        "meta": meta,
        "events": len(events),
        "skipped_lines": skipped_lines,
        "invalid_events": invalid,
        "schema_problems": problems,
        "steps": len(steps),
        "step_seconds": {
            "p50": round(_percentile(walls, 0.50), 6),
            "p95": round(_percentile(walls, 0.95), 6),
            "max": round(walls[-1], 6) if walls else 0.0,
            "total": round(sum(walls), 6),
        },
        "phase_seconds": {k: round(v, 6)
                          for k, v in sorted(phase_seconds.items())},
        "phase_bits": {k: dict(sorted(v.items()))
                       for k, v in sorted(phase_bits.items())},
        "violations": violations,
        "max_delta_rel": max_delta,
        "census": census,
        "controller_actions": dict(sorted(controller.items())),
        "detections": detections,
        "recovery_actions": {
            f"rung{rung}:{outcome}": count
            for (rung, outcome), count in sorted(recovery.items())
        },
    }


def summarize_file(path) -> dict:
    events, skipped = read_events(path)
    return summarize(events, skipped_lines=skipped)


def render(summary: dict) -> str:
    """Human-readable report for the CLI."""
    from ..experiments.report import render_table

    meta = summary.get("meta") or {}
    title = "trace summary"
    if meta.get("scenario"):
        title += f": {meta['scenario']}"
    lines = [title]
    lines.append(
        f"  events: {summary['events']}"
        f" ({summary['steps']} steps, {summary['invalid_events']} invalid,"
        f" {summary['skipped_lines']} unparseable lines)")
    for problem in summary["schema_problems"]:
        lines.append(f"    schema: {problem}")

    st = summary["step_seconds"]
    lines.append(
        f"  step time: p50 {st['p50'] * 1e3:.2f} ms,"
        f" p95 {st['p95'] * 1e3:.2f} ms, max {st['max'] * 1e3:.2f} ms"
        f" (total {st['total']:.3f} s)")

    if summary["phase_bits"]:
        rows = []
        for phase, bits in summary["phase_bits"].items():
            hist = ", ".join(f"{b} bits x{n}" for b, n in bits.items())
            rows.append([phase,
                         f"{summary['phase_seconds'].get(phase, 0.0):.3f}",
                         hist])
        lines.append(render_table(
            ["phase", "seconds", "precision histogram (steps at width)"],
            rows))

    max_delta = summary["max_delta_rel"]
    lines.append(
        f"  energy: {summary['violations']} violation(s)"
        + (f", max |dE|/E {max_delta:.4f}" if max_delta is not None
           else ""))

    census = summary["census"]
    if census["total"]:
        total = census["total"]
        lines.append(
            f"  census: {total} FP ops, "
            f"{100.0 * census['trivial'] / total:.1f}% trivial, "
            f"{census['memo_hits']} memo hits, "
            f"{census['lut_hits']} LUT-covered, "
            f"{census['nontrivial']} nontrivial")

    if summary["controller_actions"]:
        acts = ", ".join(f"{k}={v}" for k, v in
                         summary["controller_actions"].items())
        lines.append(f"  controller: {acts}")
    if summary["detections"] or summary["recovery_actions"]:
        recs = ", ".join(f"{k}={v}" for k, v in
                         summary["recovery_actions"].items()) or "none"
        lines.append(f"  recovery: {summary['detections']} detection(s), "
                     f"actions: {recs}")
    return "\n".join(lines)
