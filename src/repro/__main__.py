"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``scenarios``
    List the PhysicsBench-equivalent workloads.
``run SCENARIO``
    Simulate a scenario and print its energy/contact/trivialization
    summary (optionally at reduced precision).
``tune SCENARIO``
    Search the minimum believable precision for a scenario phase.
``health SCENARIO``
    Run a seeded fault-injection campaign with guarded recovery and
    print the incident/health report (``--seeds N`` fans a multi-seed
    sweep over worker processes).
``bench``
    Time the census-free and census step loops per scenario and the
    tracing overhead on one, and write them to a ``BENCH_<stamp>.json``
    (perfbench measures every other speed number).
``trace SCENARIO``
    Run a scenario with the ``repro.obs`` tracer attached and stream
    per-step telemetry (precision, energy delta, census totals,
    controller actions) to a JSONL file; ``trace --summarize FILE``
    renders the offline report (p50/p95 step time, precision histogram
    per phase, violation counts).
``serve``
    Run the multi-session simulation service: independently-tuned
    sessions behind an NDJSON TCP/UNIX socket, with batched stepping,
    admission control, and snapshot/restore (see ``repro.serve``).
    With ``--shards N`` it runs the scale-out topology instead: a
    gateway routing sessions by consistent hash over N worker-shard
    subprocesses, with live migration and shard-crash recovery.
``serve-bench``
    Drive an in-process service with N concurrent synthetic clients;
    reports p50/p95 step latency, aggregate steps/sec, and the
    snapshot-fidelity check into a ``BENCH_<stamp>_serve.json``.
    ``--shards N`` benchmarks the gateway topology (scaling ratio vs
    a 1-shard baseline, live migration under load).
``design``
    Closed-loop HFPU design-space search (``repro.design``): sharing
    degree × L1 design × per-phase precision policy under area/energy
    budgets, emitting a verified Pareto front as
    ``DESIGN_<stamp>.json`` (the same query is servable through
    ``repro serve`` as the ``design`` op, cached server-side).
``table1`` / ``table3`` / ``table4`` / ``table5`` / ``table8`` /
``figure5`` / ``figure6`` / ``figure7`` / ``figure8``
    Regenerate one paper artifact and print it (``table1`` reads the
    run cache unless ``--no-cache`` is given).
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def mantissa_bits(text: str) -> int:
    """``--lcp-bits``/``--narrow-bits``: mantissa bits in 0-23, where
    23 is full precision."""
    bits = int(text)
    if not 0 <= bits <= 23:
        raise argparse.ArgumentTypeError(f"must be in [0, 23], got {bits}")
    return bits


def _add_run_parser(sub) -> None:
    p = sub.add_parser("run", help="simulate one scenario")
    p.add_argument("scenario")
    p.add_argument("--steps", type=int, default=90)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--lcp-bits", type=mantissa_bits, default=23)
    p.add_argument("--narrow-bits", type=mantissa_bits, default=23)
    p.add_argument("--mode", default="jam",
                   choices=["rn", "jam", "trunc"])
    p.add_argument("--census", action="store_true",
                   help="collect the trivialization census (slower)")
    p.add_argument("--seed", type=int, default=None,
                   help="scenario-construction seed (default: built-in)")


def _add_tune_parser(sub) -> None:
    p = sub.add_parser("tune", help="minimum believable precision search")
    p.add_argument("scenario")
    p.add_argument("--phase", default="lcp", choices=["lcp", "narrow"])
    p.add_argument("--mode", default="jam",
                   choices=["rn", "jam", "trunc"])
    p.add_argument("--steps", type=int, default=90)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None,
                   help="scenario-construction seed (default: built-in)")


def _add_design_parser(sub) -> None:
    p = sub.add_parser(
        "design",
        help="closed-loop HFPU design-space search -> verified Pareto "
             "front (repro.design)")
    p.add_argument("scenario", nargs="?", default="continuous")
    p.add_argument("--budget-area", type=float, default=None,
                   metavar="MM2",
                   help="per-core area cap in mm^2 (core + router + L2 "
                        "share + L1 overhead); omit for unconstrained")
    p.add_argument("--budget-energy", type=float, default=None,
                   metavar="NJ",
                   help="average per-FP-op energy cap in nJ; omit for "
                        "unconstrained")
    p.add_argument("--generations", type=int, default=3,
                   help="evolutionary refinement generations")
    p.add_argument("--population", type=int, default=12,
                   help="candidates bred per generation")
    p.add_argument("--seed", type=int, default=0,
                   help="search RNG seed (fronts are bit-reproducible "
                        "for a fixed seed, any worker count)")
    p.add_argument("--workers", type=int, default=None,
                   help="evaluate candidates in parallel "
                        "(default: REPRO_WORKERS, else cpu count)")
    p.add_argument("--steps", type=int, default=30,
                   help="simulation steps per believability run")
    p.add_argument("--scale", type=float, default=1.0,
                   help="scenario size multiplier")
    p.add_argument("--mode", default="jam", choices=["rn", "jam", "trunc"])
    p.add_argument("--trace-length", type=int, default=4000,
                   help="synthetic trace length for the cycle simulator")
    p.add_argument("--designs", nargs="+", default=None, metavar="NAME",
                   help="restrict the L1 design axis (default: all)")
    p.add_argument("--sharing", nargs="+", type=int, default=None,
                   metavar="N", help="restrict the cores-per-FPU axis")
    p.add_argument("--no-cache", action="store_true",
                   help="re-simulate even when the run cache has the "
                        "evaluation")
    p.add_argument("--out", default="design-out", metavar="DIR",
                   help="directory for the DESIGN_<stamp>.json artifact")


def _add_health_parser(sub) -> None:
    p = sub.add_parser(
        "health",
        help="seeded fault-injection campaign with guarded recovery")
    p.add_argument("scenario")
    p.add_argument("--steps", type=int, default=90)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--inject-rate", type=float, default=1e-4,
                   help="per-element soft-error probability in the "
                        "precision-tuned phases")
    p.add_argument("--seed", type=int, default=0,
                   help="campaign seed (faults AND scenario layout)")
    p.add_argument("--lcp-bits", type=mantissa_bits, default=10)
    p.add_argument("--narrow-bits", type=mantissa_bits, default=12)
    p.add_argument("--mode", default="jam",
                   choices=["rn", "jam", "trunc"])
    p.add_argument("--max-log-lines", type=int, default=None,
                   help="truncate the printed incident log")
    p.add_argument("--seeds", type=int, default=1,
                   help="run this many consecutive seeds starting at "
                        "--seed and print the aggregate")
    p.add_argument("--workers", type=int, default=None,
                   help="fan the multi-seed sweep over worker processes "
                        "(default: REPRO_WORKERS, else serial)")


def _add_bench_parser(sub) -> None:
    p = sub.add_parser(
        "bench", help="census/census-free steps/s and tracing overhead "
                      "(BENCH_*.json)")
    p.add_argument("--quick", action="store_true",
                   help="only the smoke subset of scenarios")
    p.add_argument("--scenarios", nargs="+", default=None,
                   help="explicit scenario list (overrides --quick)")
    p.add_argument("--steps", type=int, default=None,
                   help="timed census-free steps per scenario")
    p.add_argument("--census-steps", type=int, default=None,
                   help="timed census steps per scenario")
    p.add_argument("--output", default="results",
                   help="directory for BENCH_<stamp>.json")
    p.add_argument("--no-obs-overhead", action="store_true",
                   help="skip the metrics-overhead assertion")


def _add_trace_parser(sub) -> None:
    p = sub.add_parser(
        "trace",
        help="per-step telemetry stream (JSONL) and its summary report")
    p.add_argument("scenario", nargs="?", default=None,
                   help="scenario to trace (omit with --summarize FILE "
                        "to analyse an existing trace)")
    p.add_argument("--steps", type=int, default=90)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=None,
                   help="scenario-construction seed (default: built-in)")
    p.add_argument("--mode", default="jam",
                   choices=["rn", "jam", "trunc"])
    p.add_argument("--lcp-bits", type=mantissa_bits, default=None,
                   help="override the preset LCP precision")
    p.add_argument("--narrow-bits", type=mantissa_bits, default=None,
                   help="override the preset narrowphase precision")
    p.add_argument("--out", default="trace.jsonl",
                   help="JSONL output path (default: trace.jsonl)")
    p.add_argument("--no-census", action="store_true",
                   help="skip the trivialization census (faster, but "
                        "step events carry zero census totals)")
    p.add_argument("--no-adaptive", action="store_true",
                   help="disable the dynamic precision controller")
    p.add_argument("--guarded", action="store_true",
                   help="wrap the run in the guarded recovery ladder "
                        "(recovery events join the trace)")
    p.add_argument("--inject-rate", type=float, default=0.0,
                   help="with --guarded: soft-error injection rate")
    p.add_argument("--summarize", nargs="?", const="", default=None,
                   metavar="FILE",
                   help="render the summary report (of FILE, or of the "
                        "trace just written)")


def _add_serve_parser(sub) -> None:
    p = sub.add_parser(
        "serve", help="multi-session simulation service (repro.serve)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7070,
                   help="TCP port (0 picks an ephemeral port)")
    p.add_argument("--unix", default=None, metavar="PATH",
                   help="serve on a UNIX socket instead of TCP")
    p.add_argument("--max-sessions", type=int, default=32,
                   help="session-table capacity (admission control)")
    p.add_argument("--workers", type=int, default=None,
                   help="batch-dispatch worker threads "
                        "(default: REPRO_WORKERS, else cpu count)")
    p.add_argument("--batch-window", type=float, default=0.002,
                   help="seconds one tick waits for requests to "
                        "coalesce into a batch")
    p.add_argument("--max-pending", type=int, default=4,
                   help="queued requests allowed per session "
                        "(single-process service only)")
    p.add_argument("--max-queue", type=int, default=256,
                   help="queued requests allowed service-wide "
                        "(single-process service only)")
    p.add_argument("--step-budget", type=float, default=30.0,
                   help="wall seconds one step request may take before "
                        "its session is evicted")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="stream serve.* + step telemetry to this JSONL")
    p.add_argument("--journal-dir", default=None, metavar="DIR",
                   help="per-session snapshot journals for crash-safe "
                        "restart recovery (omit to disable durability; "
                        "single-process service only, shards journal "
                        "under --runtime-dir)")
    p.add_argument("--journal-every", type=int, default=32,
                   help="steps a session may advance between journal "
                        "entries")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   help="seconds a SIGTERM/SIGINT drain waits for "
                        "in-flight batches")
    p.add_argument("--allow-chaos", action="store_true",
                   help="permit fault-drill session fields "
                        "(inject_rate, chaos_slow_*)")
    p.add_argument("--no-fleet-step", action="store_true",
                   help="disable coalescing compatible same-tick step "
                        "requests into one vectorized WorldBatch pass "
                        "(single-process service only)")
    p.add_argument("--shards", type=int, default=0, metavar="N",
                   help="scale out: run a gateway over N worker-shard "
                        "subprocesses instead of a single-process "
                        "service (sessions routed by consistent hash, "
                        "live migration, shard-crash recovery)")
    p.add_argument("--runtime-dir", default=None, metavar="DIR",
                   help="shard sockets + per-shard journals live here "
                        "(--shards only; default: a fresh temp dir, pass "
                        "a fixed path to survive gateway restarts)")


def _add_serve_bench_parser(sub) -> None:
    p = sub.add_parser(
        "serve-bench",
        help="concurrent-client service benchmark "
             "(BENCH_<stamp>_serve.json)")
    p.add_argument("--clients", type=int, default=8,
                   help="concurrent synthetic clients")
    p.add_argument("--steps", type=int, default=30,
                   help="step requests per client")
    p.add_argument("--scenario", default="continuous")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workers", type=int, default=None,
                   help="service worker threads")
    p.add_argument("--batch-window", type=float, default=0.002)
    p.add_argument("--fidelity-steps", type=int, default=10,
                   help="steps on each side of the snapshot-fidelity "
                        "check")
    p.add_argument("--no-fleet-step", action="store_true",
                   help="disable WorldBatch fleet coalescing for the "
                        "load run")
    p.add_argument("--fleet-compare", action="store_true",
                   help="also run the load with fleet stepping "
                        "disabled and report the batched/unbatched "
                        "speedup ratio")
    p.add_argument("--fleet-min-speedup", type=float, default=0.0,
                   help="fail unless the batched run's steps/sec is "
                        "at least this multiple of the unbatched run "
                        "(implies --fleet-compare; 0 = report only)")
    p.add_argument("--output", default="results",
                   help="directory for BENCH_<stamp>_serve.json")
    p.add_argument("--chaos", action="store_true",
                   help="run the fault drill after the load phase: "
                        "injected soft errors, killed connections, "
                        "slow steps, one mid-run server restart "
                        "recovered from journals")
    p.add_argument("--chaos-inject-rate", type=float, default=0.02,
                   help="soft-error rate for the guarded chaos "
                        "sessions")
    p.add_argument("--chaos-kill-every", type=int, default=10,
                   help="client RSTs its connection every N steps")
    p.add_argument("--chaos-recovery-p95", type=float, default=5.0,
                   help="p95 recovery-time gate in seconds")
    p.add_argument("--shards", type=int, default=0, metavar="N",
                   help="benchmark the gateway + N worker-shard "
                        "topology instead of the single-process "
                        "service (includes a forced live migration "
                        "under load)")
    p.add_argument("--shard-min-scaling", type=float, default=0.0,
                   help="fail unless N-shard steps/sec is at least "
                        "this multiple of the 1-shard gateway "
                        "baseline (0 = report only)")
    p.add_argument("--shard-migrations", type=int, default=1,
                   help="forced live migrations during the load phase")
    p.add_argument("--no-shard-baseline", action="store_true",
                   help="skip the 1-shard baseline run (no scaling "
                        "ratio; faster CI smoke)")


def _cmd_scenarios() -> int:
    from .workloads import SCENARIO_ABBREVIATIONS, SCENARIO_NAMES, build

    print("PhysicsBench-equivalent scenarios:")
    for name in SCENARIO_NAMES:
        world = build(name)
        particles = sum(c.particle_count for c in world.cloths)
        extras = []
        if world.joints.ball_joints or world.joints.hinge_joints:
            extras.append(f"{len(world.joints)} joints")
        if particles:
            extras.append(f"{particles} cloth particles")
        if world.explosions:
            extras.append("explosion")
        detail = f" ({', '.join(extras)})" if extras else ""
        print(f"  {SCENARIO_ABBREVIATIONS[name]:4s} {name:12s} "
              f"{world.bodies.count:3d} bodies{detail}")
    return 0


def _cmd_run(args) -> int:
    from .fp import FPContext
    from .workloads import build

    precision = {}
    if args.lcp_bits < 23:
        precision["lcp"] = args.lcp_bits
    if args.narrow_bits < 23:
        precision["narrow"] = args.narrow_bits
    ctx = FPContext(precision, mode=args.mode, census=args.census)
    world = build(args.scenario, ctx=ctx, scale=args.scale,
                  seed=args.seed)
    for _ in range(args.steps):
        world.step()

    energy = world.monitor.totals()
    print(f"{args.scenario}: {args.steps} steps, "
          f"{world.bodies.count} bodies")
    print(f"  energy: {energy[0]:.2f} J -> {energy[-1]:.2f} J "
          f"(injected {world.monitor.injected_total:.2f} J)")
    print(f"  final contacts: {world.last_contact_count}, "
          f"islands: {world.island_count}, max penetration: "
          f"{world.penetration_series.maximum(default=0.0):.4f} m")
    if args.census:
        for phase in ("narrow", "lcp"):
            totals = ctx.phase_totals(phase)
            if totals.total:
                pct = 100 * totals.extended_trivial / totals.total
                print(f"  {phase}: {totals.total} FP ops, "
                      f"{pct:.0f}% trivial (all conditions)")
    return 0


def _cmd_tune(args) -> int:
    from .tuning import minimum_precision

    stats = {}
    bits = minimum_precision(args.scenario, phases=(args.phase,),
                             mode=args.mode, steps=args.steps,
                             scale=args.scale, seed=args.seed,
                             stats=stats)
    print(f"{args.scenario} / {args.phase} / {args.mode}: "
          f"minimum believable precision = {bits} mantissa bits")
    print(f"  probes: {stats['probes']} candidate widths")
    return 0


def _cmd_health_sweep(args, precision) -> int:
    """Multi-seed fault campaign fanned over worker processes."""
    from .experiments.report import render_table
    from .perf.sweep import WORKERS_ENV, SweepJob, SweepRunner
    from .robustness.recovery import campaign_summary

    # Serial unless --workers or REPRO_WORKERS asks for processes.
    workers = args.workers
    if workers is None and not os.environ.get(WORKERS_ENV, "").strip():
        workers = 1
    runner = SweepRunner(workers)
    seeds = list(range(args.seed, args.seed + args.seeds))
    jobs = [SweepJob(
        key=(args.scenario, seed), fn=campaign_summary,
        args=(args.scenario,),
        kwargs=dict(steps=args.steps, scale=args.scale,
                    inject_rate=args.inject_rate, seed=seed,
                    phase_precision=precision, mode=args.mode),
    ) for seed in seeds]
    summaries = [r.value for r in runner.run(jobs)]

    rows = [[s["seed"], s["faults"], s["detections"], s["recoveries"],
             s["quarantined"],
             "yes" if s["final_finite"] else "NO",
             "ABORTED" if s["aborted"] else "ok"] for s in summaries]
    print(render_table(
        ["seed", "faults", "detections", "recoveries", "quarantined",
         "finite", "outcome"],
        rows,
        title=f"health sweep: {args.scenario}, {args.seeds} seeds, "
              f"{args.steps} steps"))
    aborted = [s for s in summaries if s["aborted"]]
    healthy = [s for s in summaries if s["final_finite"]]
    metrics = runner.last_metrics
    print(f"aggregate: {len(healthy)}/{len(summaries)} seeds finite, "
          f"{len(aborted)} aborted, "
          f"{sum(s['recoveries'] for s in summaries)} recoveries "
          f"({metrics.workers} workers, {metrics.elapsed:.1f}s)")
    for s in aborted:
        print(f"  seed {s['seed']}: {s['post_mortem']}")
    return 0 if len(healthy) == len(summaries) else 1


def _cmd_health(args) -> int:
    from .robustness import SimulationAborted, run_campaign

    precision = {}
    if args.lcp_bits < 23:
        precision["lcp"] = args.lcp_bits
    if args.narrow_bits < 23:
        precision["narrow"] = args.narrow_bits
    if args.seeds > 1:
        return _cmd_health_sweep(args, precision)
    try:
        sim = run_campaign(
            args.scenario,
            steps=args.steps,
            scale=args.scale,
            inject_rate=args.inject_rate,
            seed=args.seed,
            phase_precision=precision,
            mode=args.mode,
        )
    except SimulationAborted as aborted:
        print(aborted.post_mortem())
        return 1
    report = sim.health_report(args.scenario)
    print(report.render(max_log_lines=args.max_log_lines))
    return 0 if report.final_state_finite else 1


def _cmd_bench(args) -> int:
    import dataclasses

    from .perf.bench import BenchProtocol, render_summary, run_bench

    overrides = {}
    if args.steps is not None:
        overrides["census_free_steps"] = args.steps
        overrides["census_free_warmup"] = max(1, args.steps // 4)
    if args.census_steps is not None:
        overrides["census_steps"] = args.census_steps
        overrides["census_warmup"] = max(1, args.census_steps // 4)
    payload = run_bench(
        scenarios=args.scenarios,
        quick=args.quick,
        protocol=dataclasses.replace(BenchProtocol(), **overrides),
        output_dir=args.output,
        obs_overhead=not args.no_obs_overhead,
    )
    print(render_summary(payload))
    return 0


def _cmd_trace(args) -> int:
    from .obs import JsonlWriter, Tracer, render_summary, summarize_file

    if args.scenario is None:
        if not args.summarize:
            print("trace: give a SCENARIO to record, or --summarize FILE "
                  "to analyse an existing trace", file=sys.stderr)
            return 2
        print(render_summary(summarize_file(args.summarize)))
        return 0

    from .experiments.table1 import PRESET_PRECISIONS
    from .fp import FPContext
    from .tuning import ControlledSimulation, PrecisionController
    from .workloads import build

    precision = dict(PRESET_PRECISIONS.get(args.scenario, {}))
    if args.lcp_bits is not None:
        precision["lcp"] = args.lcp_bits
    if args.narrow_bits is not None:
        precision["narrow"] = args.narrow_bits
    precision = {k: v for k, v in precision.items() if v < 23}

    census = not args.no_census
    ctx = FPContext(dict(precision), mode=args.mode, census=census)
    world = build(args.scenario, ctx=ctx, scale=args.scale,
                  seed=args.seed)
    tracer = Tracer(JsonlWriter(args.out))
    tracer.meta(scenario=args.scenario, steps=args.steps,
                precision=dict(precision), mode=args.mode, census=census)
    controller = (PrecisionController(ctx, precision)
                  if not args.no_adaptive and precision else None)
    exit_code = 0
    try:
        if args.guarded:
            from .robustness import (
                FaultInjector,
                GuardedSimulation,
                SimulationAborted,
            )

            injector = (FaultInjector(rate=args.inject_rate,
                                      seed=args.seed or 0)
                        if args.inject_rate > 0 else None)
            sim = GuardedSimulation(world, injector=injector,
                                    controller=controller,
                                    observer=tracer)
            try:
                sim.run(args.steps)
            except SimulationAborted as aborted:
                print(aborted.post_mortem())
                exit_code = 1
        else:
            tracer.attach(world=world, controller=controller)
            if controller is not None:
                ControlledSimulation(world, controller).run(args.steps)
            else:
                for _ in range(args.steps):
                    world.step()
    finally:
        tracer.close()
    print(f"trace: {tracer.sink.events} events -> {args.out}")
    if args.summarize is not None:
        print(render_summary(summarize_file(args.summarize or args.out)))
    return exit_code


def _cmd_design(args) -> int:
    from .design import DesignQuery, run_search

    mapping = {
        "scenario": args.scenario,
        "budget_area": args.budget_area,
        "budget_energy": args.budget_energy,
        "generations": args.generations,
        "population": args.population,
        "seed": args.seed,
        "steps": args.steps,
        "scale": args.scale,
        "mode": args.mode,
        "trace_length": args.trace_length,
    }
    if args.designs:
        mapping["designs"] = args.designs
    if args.sharing:
        mapping["sharing"] = args.sharing
    query = DesignQuery.from_mapping(
        {k: v for k, v in mapping.items() if v is not None})

    start = time.perf_counter()
    result = run_search(query, workers=args.workers,
                        use_cache=not args.no_cache)
    wall = time.perf_counter() - start
    payload = result.payload()
    section = payload["result"]

    budgets = query.space.budgets
    caps = ", ".join(filter(None, [
        f"area <= {budgets.area_mm2} mm^2" if budgets.area_mm2 else "",
        f"energy <= {budgets.energy_nj} nJ" if budgets.energy_nj else "",
    ])) or "unconstrained"
    print(f"design search: {query.space.scenario}, {caps}, "
          f"seed {query.seed}, {query.generations} generation(s) x "
          f"{query.population}")
    print(f"  {section['evaluations']} evaluation(s), "
          f"{section['verifications']} cold-search verification(s) in "
          f"{wall:.1f}s (query {payload['query_key']})")
    headers = ["design", "share", "lcp", "narrow", "area mm^2",
               "energy nJ", "thr x", "margin"]
    rows = [[
        m["point"]["design"], m["point"]["cores_per_fpu"],
        m["point"]["lcp_bits"], m["point"]["narrow_bits"],
        f"{m['area_mm2']:.3f}", f"{m['energy_nj']:.4f}",
        f"{1 + m['throughput']:.3f}", m["margin"],
    ] for m in section["front"]]
    from .experiments.report import render_table

    print(render_table(
        headers, rows,
        title=f"Pareto front ({section['front_size']} verified "
              f"member(s))"))
    for pp in section["paper_points"]:
        point = pp["point"]
        print(f"  paper {point['design']} x{point['cores_per_fpu']} "
              f"@({point['lcp_bits']},{point['narrow_bits']}): "
              f"{pp['status']}")
    path = result.write_artifact(args.out)
    print(f"front artifact: {path}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import ServiceConfig, serve_forever
    from .serve.frontend import ListenError

    # Refuse, rather than silently drop, flags the chosen topology never
    # reads.  Shards run ServiceConfig defaults for the fields
    # GatewayConfig does not forward, so only a non-default value is lost.
    if args.shards:
        unread = {
            "--journal-dir": args.journal_dir is not None,
            "--max-pending": (args.max_pending
                              != ServiceConfig.max_pending_per_session),
            "--max-queue": args.max_queue != ServiceConfig.max_queue_depth,
            "--no-fleet-step": args.no_fleet_step,
        }
    else:
        unread = {"--runtime-dir": args.runtime_dir is not None}
    given = [flag for flag, dropped in unread.items() if dropped]
    if given:
        mode = "--shards" if args.shards else "without --shards"
        print(f"error: repro serve {mode} does not read "
              f"{', '.join(given)}", file=sys.stderr)
        return 2

    observer = None
    if args.trace:
        from .obs import JsonlWriter, Tracer

        observer = Tracer(JsonlWriter(args.trace))
        observer.meta(scenario="serve", steps=0, precision={},
                      mode="service", census=False)
    if args.shards:
        from .serve import GatewayConfig, gateway_forever

        run = gateway_forever(GatewayConfig(
            host=args.host,
            port=args.port,
            unix_path=args.unix,
            shards=args.shards,
            runtime_dir=args.runtime_dir,
            max_sessions=args.max_sessions,
            workers=args.workers,
            batch_window=args.batch_window,
            step_budget=args.step_budget,
            journal_every=args.journal_every,
            drain_grace=args.drain_grace,
            allow_chaos=args.allow_chaos,
        ), observer=observer)
    else:
        run = serve_forever(ServiceConfig(
            host=args.host,
            port=args.port,
            unix_path=args.unix,
            max_sessions=args.max_sessions,
            workers=args.workers,
            batch_window=args.batch_window,
            max_pending_per_session=args.max_pending,
            max_queue_depth=args.max_queue,
            step_budget=args.step_budget,
            journal_dir=args.journal_dir,
            journal_every=args.journal_every,
            drain_grace=args.drain_grace,
            allow_chaos=args.allow_chaos,
            fleet_step=not args.no_fleet_step,
        ), observer=observer)
    try:
        asyncio.run(run)
    except KeyboardInterrupt:
        print("repro-serve: shutting down")
    except ListenError as exc:
        # A busy port or bad socket path is a one-line usage failure;
        # the run loop has already stopped the front end (and shards).
        print(f"error: repro serve {exc}", file=sys.stderr)
        return 1
    finally:
        if observer is not None:
            observer.close()
    return 0


def _cmd_serve_bench(args) -> int:
    from .serve import (
        ServeBenchConfig,
        render_serve_summary,
        run_serve_bench,
    )

    payload = run_serve_bench(ServeBenchConfig(
        clients=args.clients,
        steps_per_client=args.steps,
        scenario=args.scenario,
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
        batch_window=args.batch_window,
        fidelity_steps=args.fidelity_steps,
        output_dir=args.output,
        fleet_step=not args.no_fleet_step,
        fleet_compare=args.fleet_compare or args.fleet_min_speedup > 0,
        fleet_min_speedup=args.fleet_min_speedup,
        chaos=args.chaos,
        chaos_inject_rate=args.chaos_inject_rate,
        chaos_kill_every=args.chaos_kill_every,
        chaos_recovery_p95_s=args.chaos_recovery_p95,
        shards=args.shards,
        shard_baseline=not args.no_shard_baseline,
        shard_min_scaling=args.shard_min_scaling,
        shard_migrations=args.shard_migrations,
    ))
    print(render_serve_summary(payload))
    return 0 if payload["ok"] else 1


def _cmd_artifact(name: str, args=None) -> int:
    from .experiments import (
        figure5,
        figure6,
        figure7,
        figure8,
        table1,
        table3,
        table4,
        table5,
        table8,
    )

    if name == "table1":
        result = table1.compute_table1(
            use_cache=not getattr(args, "no_cache", False))
        print(table1.render(result))
        if result.probes is not None:
            print(f"search probes: {result.probes} candidate widths")
    elif name == "table3":
        print(table3.render(table3.compute_table3()))
    elif name == "table4":
        print(table4.render(table4.compute_table4()))
    elif name == "table5":
        print(table5.render(table5.compute_table5()))
    elif name == "table8":
        print(table8.render(table8.compute_table8()))
    elif name == "figure5":
        result = figure5.compute_figure5()
        print(figure5.render(result, "lcp"))
        print()
        print(figure5.render(result, "narrow"))
        print()
        print(figure5.paper_summary(result))
    elif name == "figure6":
        print(figure6.render_cores(figure6.compute_core_counts()))
        print()
        print(figure6.render_energy(figure6.compute_energy()))
    elif name == "figure7":
        result = figure7.compute_figure7()
        print(figure7.render(result, "lcp"))
        print()
        print(figure7.render(result, "narrow"))
    elif name == "figure8":
        result = figure8.compute_figure8()
        print(figure8.render(result, "lcp"))
        print()
        print(figure8.render(result, "narrow"))
    else:  # pragma: no cover - argparse restricts choices
        return 1
    return 0


ARTIFACTS = ["table1", "table3", "table4", "table5", "table8",
             "figure5", "figure6", "figure7", "figure8"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Adaptive precision reduction for physics "
                    "acceleration (MICRO 2007) - reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("scenarios", help="list the workloads")
    _add_run_parser(sub)
    _add_tune_parser(sub)
    _add_health_parser(sub)
    _add_bench_parser(sub)
    _add_trace_parser(sub)
    _add_serve_parser(sub)
    _add_serve_bench_parser(sub)
    _add_design_parser(sub)
    for artifact in ARTIFACTS:
        p = sub.add_parser(artifact, help=f"regenerate paper {artifact}")
        if artifact == "table1":
            p.add_argument("--no-cache", action="store_true",
                           help="recompute even if the grid is cached")

    args = parser.parse_args(argv)
    from .design.space import DesignSpaceError
    from .workloads import UnknownScenarioError

    try:
        if args.command == "scenarios":
            return _cmd_scenarios()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "tune":
            return _cmd_tune(args)
        if args.command == "health":
            return _cmd_health(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "serve-bench":
            return _cmd_serve_bench(args)
        if args.command == "design":
            return _cmd_design(args)
        return _cmd_artifact(args.command, args)
    except UnknownScenarioError as exc:
        # A typo'd scenario is usage error 2 (and one clean line), not a
        # traceback — remote serve clients get the same message inline.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DesignSpaceError as exc:
        # Nonsense design inputs (negative budget, unknown L1 design,
        # zero generations) are usage error 2 with the same typed
        # message the serve layer returns as bad_request.
        print(f"error: {exc.detail}", file=sys.stderr)
        return 2


def console() -> int:
    """Console-script entry: exits quietly when the pipe closes early."""
    try:
        return main()
    except BrokenPipeError:
        import os

        # Piping into `head` is normal CLI usage, not an error.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(console())
