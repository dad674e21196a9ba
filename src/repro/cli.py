"""Command-line interface for the reproduction harnesses.

Usage (any of)::

    python -m repro run "etx://a3.d1.c1?fd=heartbeat&seed=7"
    python -m repro run "etx://a3.d1.c8?rate=50&arrival=poisson&seed=7"
    python -m repro run "2pc://?workload=bank&timing=paper" --requests 3
    python -m repro run "etx://a3.d1.c2?runtime=asyncio&pace=0.2" --settle 500
    python -m repro serve "etx://a3.d1.c1?runtime=asyncio&port=7400" --only a1,a2
    python -m repro sweep "etx://d1?workload=bank" \
        --axis protocol=etx,2pc,pb --axis clients=1,4,8 --workers 4
    python -m repro figure8 --requests 5
    python -m repro figure7
    python -m repro figure1
    python -m repro ablations
    python -m repro fault-sweep --runs 20
    python -m repro soak --requests 100000
    python -m repro kernelbench --out benchmarks/out/kernel.json
    python -m repro kernelbench --alloc-only --out benchmarks/out/alloc.json
    python -m repro run "etx://a3.d1.c4?rate=40&workload=bank" --profile
    python -m repro quickstart

``run`` executes any scenario DSN (scheme = protocol: ``etx``, ``2pc``,
``pb``, ``baseline``) through the unified scenario API; ``sweep`` expands
``--axis`` grids around a base DSN and fans the grid out over worker
processes; the other sub-commands run the corresponding experiment harness
and print the regenerated table(s) to stdout.  Exit status is non-zero if the
result does not have the paper's shape (useful in CI).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import api, campaign
from repro.core import Request
from repro.experiments import (fault_sweep, figure1, figure7, figure8,
                               reshard, scaleout, soak)
from repro.experiments.ablations import asynchrony_sweep, log_cost_sweep, scaling_sweep


def _profiled(profile_arg, label: str, call):
    """Run ``call()`` under cProfile when ``--profile`` was given.

    ``profile_arg`` is ``None`` (profiling off), an empty string (write to
    the default ``benchmarks/out/<label>.pstats``), or an explicit path.
    The stats file loads with :mod:`pstats`; the top of the cumulative
    profile is printed so a quick look needs no second tool.
    """
    if profile_arg is None:
        return call()
    import cProfile
    import io
    import os
    import pstats

    path = profile_arg or os.path.join("benchmarks", "out", f"{label}.pstats")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return call()
    finally:
        profiler.disable()
        profiler.dump_stats(path)
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(20)
        print(stream.getvalue().rstrip())
        print(f"PROFILE pstats written to {path} "
              f"(inspect with: python -m pstats {path})")


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        scenario = api.Scenario.from_dsn(args.dsn)
        if args.seed is not None:
            scenario = scenario.with_(seed=_seed(args))
        run_kwargs: dict = {}
        if args.settle is not None:
            run_kwargs["settle"] = args.settle
        if args.only:
            run_kwargs["runtime"] = _restrict_runtime(scenario, args.only)
        result = _profiled(
            args.profile, "run",
            lambda: api.run_scenario(scenario, requests=args.requests,
                                     **run_kwargs))
    except api.ScenarioError as error:
        # Bad DSNs, protocol constraints, unknown workloads: user input,
        # reported cleanly.  Anything else is a genuine bug and tracebacks.
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.summary())
    return 0 if result.ok else 1


def _parse_only(text: str, scenario: "api.Scenario") -> tuple[str, ...]:
    """Validate a ``--only a1,a2`` process-name list against the scenario."""
    names = tuple(name.strip() for name in text.split(",") if name.strip())
    if not names:
        raise api.ScenarioError("--only needs at least one process name")
    known = scenario.process_names
    unknown = [name for name in names if name not in known]
    if unknown:
        raise api.ScenarioError(
            f"--only names not in this scenario: {', '.join(unknown)} "
            f"(processes: {', '.join(known)})")
    return names


def _restrict_runtime(scenario: "api.Scenario", only: str):
    """The scenario's runtime spec narrowed to locally hosted processes."""
    from dataclasses import replace

    from repro.runtime.base import RUNTIME_ASYNCIO

    spec = scenario.runtime_spec
    if spec.kind != RUNTIME_ASYNCIO:
        raise api.ScenarioError(
            "--only needs runtime=asyncio in the DSN: a simulated run always "
            "hosts every process in one OS process")
    if spec.port == 0:
        raise api.ScenarioError(
            "--only needs an explicit port=N in the DSN so every OS process "
            "computes the same endpoint map (port=0 picks ephemeral ports)")
    return replace(spec, only=_parse_only(only, scenario))


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        scenario = api.Scenario.from_dsn(args.dsn)
        if args.seed is not None:
            scenario = scenario.with_(seed=_seed(args))
        runtime = _restrict_runtime(scenario, args.only)
        system = api.build(scenario, runtime=runtime)
    except api.ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    kernel = system.sim
    kernel.max_wall = None  # a server process has no per-run wall budget
    try:
        system.run(until=None)  # bind the local listeners before printing
        for name, host, port in system.network.endpoints.table():
            marker = "*" if name in runtime.only else " "
            print(f"{marker} {name:<6} {host}:{port}")
        print(f"serving {', '.join(runtime.only)}"
              + (f" for {args.run_for:g}s" if args.run_for else " (ctrl-c to stop)"),
              flush=True)
        horizon = (kernel.now + args.run_for * 1000.0 / runtime.pace
                   if args.run_for else None)
        while True:
            target = kernel.now + 60_000.0
            if horizon is not None and target >= horizon:
                system.run(until=horizon)
                break
            system.run(until=target)
    except KeyboardInterrupt:
        print("\ninterrupted; shutting down", file=sys.stderr)
    finally:
        system.close()
    return 0


def _seed(args: argparse.Namespace) -> int:
    return args.seed if args.seed is not None else 0


def _parse_axis(text: str) -> tuple[str, list]:
    """Parse one ``--axis name=v1,v2,...`` argument."""
    name, separator, tail = text.partition("=")
    name = name.strip()
    if not separator or not name or not tail:
        raise api.ScenarioError(
            f"bad axis {text!r} (expected name=value[,value...])")
    return name, [_coerce(value) for value in tail.split(",")]


def _coerce(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        base = api.Scenario.from_dsn(args.dsn)
        if args.seed is not None:
            base = base.with_(seed=_seed(args))
        axes: dict = {}
        for axis in args.axis or []:
            name, values = _parse_axis(axis)
            if name in axes:
                raise api.ScenarioError(
                    f"axis {name!r} given twice; list all its values in one "
                    f"--axis {name}=v1,v2,...")
            axes[name] = values
        sweep = api.Sweep.over(base, **axes)
        workers = 1 if args.serial else args.workers
        result = api.run_sweep(sweep, requests=args.requests, workers=workers)
    except api.ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.to_table())
    print(f"\n{len(result)} scenario(s), "
          f"{sum(row.delivered for row in result)} requests delivered, "
          f"all ok: {result.ok}")
    return 0 if result.ok else 1


def _cmd_quickstart(args: argparse.Namespace) -> int:
    scenario = api.Scenario(protocol="etx", num_app_servers=args.app_servers,
                            num_db_servers=args.db_servers, seed=_seed(args))
    system = api.build(scenario)
    issued = system.run_request(Request("quickstart", {"n": 1}))
    report = system.check_spec()
    print(f"delivered={issued.delivered} latency={issued.latency:.1f} ms "
          f"attempts={issued.attempts}")
    print(report.summary())
    return 0 if issued.delivered and report.ok else 1


def _cmd_figure8(args: argparse.Namespace) -> int:
    report = figure8.run(requests_per_protocol=args.requests, seed=_seed(args),
                         num_app_servers=args.app_servers)
    print(report.to_table())
    print()
    print(report.compare_with_paper())
    shape = report.shape_holds()
    print(f"\nshape holds (baseline < AR < 2PC, overheads near 16%/23%): {shape}")
    return 0 if shape else 1


def _cmd_figure7(args: argparse.Namespace) -> int:
    report = figure7.run(seed=_seed(args))
    print(report.to_table())
    print()
    print("client latencies (ms):",
          {protocol: round(latency, 1) for protocol, latency in report.latencies.items()})
    if args.diagrams:
        print()
        print(report.sequence_diagrams())
    ok = report.expected_structure_holds()
    print(f"\nstructure matches the paper's diagrams: {ok}")
    return 0 if ok else 1


def _cmd_figure1(args: argparse.Namespace) -> int:
    report = figure1.run(seed=_seed(args))
    print(report.to_text())
    ok = report.all_spec_ok()
    print(f"\nall scenarios satisfy the e-Transaction specification: {ok}")
    return 0 if ok else 1


def _cmd_ablations(args: argparse.Namespace) -> int:
    print("== E5: asynchrony of the replication scheme ==")
    for point in asynchrony_sweep(seed=_seed(args)):
        print(f"  {point.label:<40} claimers={point.distinct_claimers} "
              f"aborted={point.aborted_results} safe={point.spec_ok}")
    print("\n== E7: forced-log cost sweep (AR vs 2PC) ==")
    for point in log_cost_sweep(seed=_seed(args), requests=1):
        winner = "AR" if point.ar_wins else "2PC"
        print(f"  log={point.forced_write_latency:5.1f} ms   AR={point.ar_total:6.1f}   "
              f"2PC={point.twopc_total:6.1f}   winner={winner}")
    print("\n== E8: replication-degree scaling ==")
    for point in scaling_sweep(seed=_seed(args), requests=1):
        print(f"  n={point.num_app_servers}   latency={point.mean_latency:6.1f} ms   "
              f"messages={point.total_messages}")
    return 0


def _cmd_scaleout(args: argparse.Namespace) -> int:
    report = scaleout.run(
        db_counts=tuple(args.db_counts),
        xshard_fractions=tuple(args.xshard),
        rate=args.rate, clients=args.clients, requests=args.requests,
        seed=_seed(args), workers=args.workers)
    print(f"scale-out: offered load {report.rate:g}/s over {report.clients} "
          f"client(s), {report.requests_per_client} request(s)/client")
    print()
    print(report.to_table())
    speedups = report.speedup(0.0)
    if speedups:
        print()
        print("speed-up vs d=1 at xshard=0: "
              + "   ".join(f"d={d} {s:.2f}x" for d, s in sorted(speedups.items())))
    return 0 if report.ok else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    try:
        dsn = args.dsn if args.dsn is not None else soak.DEFAULT_SOAK_DSN
        scenario = api.Scenario.from_dsn(dsn)
        if args.seed is not None:
            scenario = scenario.with_(seed=_seed(args))
        report = _profiled(
            args.profile, "soak",
            lambda: soak.run(scenario, requests=args.requests,
                             checkpoints=args.checkpoints))
    except (api.ScenarioError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        print(f"BENCH json written to {args.json}")
    return 0 if report.ok else 1


def _cmd_reshard(args: argparse.Namespace) -> int:
    try:
        dsn = args.dsn if args.dsn is not None else reshard.DEFAULT_RESHARD_DSN
        scenario = api.Scenario.from_dsn(dsn)
        if args.seed is not None:
            scenario = scenario.with_(seed=_seed(args))
        report = reshard.run(scenario, requests=args.requests,
                             window_ms=args.window)
        if args.campaign_runs > 0:
            report.campaign = reshard.run_campaign(
                scenario, runs=args.campaign_runs, seed=args.campaign_seed,
                workers=args.workers)
    except (api.ScenarioError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.json:
        import json
        import os

        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
        print(f"BENCH json written to {args.json}")
    return 0 if report.ok else 1


def _artifact_name(example: campaign.Counterexample, index: int) -> str:
    scenario = example.scenario()
    if example.kind == "certificate":
        return f"{scenario.protocol}-certificate-{index + 1}.json"
    signature = example.provenance.get("signature") or ["violation"]
    slug = "-".join(p.lower().replace(".", "") for p in signature)
    return f"{scenario.protocol}-{slug}.json"


def _cmd_campaign(args: argparse.Namespace) -> int:
    try:
        scenario = api.Scenario.from_dsn(args.dsn)
        if args.seed is not None:
            scenario = scenario.with_(seed=_seed(args))
        budget = campaign.CampaignBudget(
            max_runs=args.budget, population=args.population,
            stop_after=args.stop_after, shrink_checks=args.shrink_checks,
            horizon=args.horizon, settle=args.settle)
        report = campaign.run_campaign(scenario, budget=budget,
                                       seed=args.campaign_seed,
                                       workers=args.workers)
    except (api.ScenarioError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    if args.out:
        import os

        try:
            os.makedirs(args.out, exist_ok=True)
            written = []
            for index, example in enumerate(report.counterexamples
                                            + report.certificates):
                path = os.path.join(args.out, _artifact_name(example, index))
                written.append(example.save(path))
        except OSError as error:
            # The search results are already printed above; the write
            # failure must not traceback over them.
            print(f"error: cannot write artifacts: {error}", file=sys.stderr)
            return 2
        print(f"\n{len(written)} artifact(s) written to {args.out}")
    if args.expect == "violation":
        return 0 if report.counterexamples else 1
    if args.expect == "clean":
        return 0 if report.clean else 1
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        if "://" in args.source:
            # A scenario DSN (possibly referencing a faults=@sidecar): treat
            # it as a certificate claim -- the run must be spec-clean.
            example = campaign.Counterexample(
                dsn=args.source, kind="certificate",
                requests=args.requests, horizon=args.horizon,
                settle=args.settle)
            result = campaign.replay(example)
        else:
            result = campaign.replay(args.source)
    except (api.ScenarioError, ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(result.summary())
    return 0 if result.matches else 1


def _cmd_kernelbench(args: argparse.Namespace) -> int:
    from repro.sim import bench

    if args.alloc_only:
        payload = {}
    else:
        payload = bench.run_kernel_bench(ops=args.ops, repeats=args.repeats)
        print(bench.format_report(payload))
    if args.alloc or args.alloc_only:
        alloc = bench.run_alloc_bench()
        payload["alloc"] = alloc
        print(bench.format_alloc_report(alloc))
    if args.out:
        import json
        import os

        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"BENCH json written to {args.out}")
    return 0


def _cmd_fault_sweep(args: argparse.Namespace) -> int:
    result = fault_sweep.run(num_runs=args.runs, seed=_seed(args),
                             allow_client_crash=args.client_crashes)
    print(result.summary())
    for violation in result.violations:
        print(" ", violation)
    return 0 if result.all_safe else 1


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harnesses for 'Implementing e-Transactions with "
                    "Asynchronous Replication' (DSN 2000)")
    parser.add_argument("--seed", type=int, default=None,
                        help="simulation seed (for `run`, overrides the DSN's seed)")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run any scenario DSN "
                                     "(e.g. etx://a3.d1.c1?fd=heartbeat&seed=7)")
    run.add_argument("dsn", help="scenario DSN; schemes: "
                                 + ", ".join(api.known_schemes()))
    run.add_argument("--requests", type=int, default=1,
                     help="requests to issue per client (default 1)")
    run.add_argument("--settle", type=float, default=None,
                     help="virtual ms of cleanup time after the last delivery "
                          "(default 5000; lower it for paced asyncio runs)")
    run.add_argument("--only", default=None, metavar="NAME[,NAME...]",
                     help="host only these processes locally (distributed "
                          "runtime=asyncio runs; peers must be served "
                          "elsewhere with `repro serve`)")
    run.add_argument("--profile", nargs="?", const="", default=None,
                     metavar="PATH",
                     help="run under cProfile; write pstats to PATH (default "
                          "benchmarks/out/run.pstats) and print the top of "
                          "the cumulative profile")
    run.set_defaults(func=_cmd_run)

    serve = sub.add_parser(
        "serve", help="host a subset of a runtime=asyncio scenario's processes "
                      "over TCP (one OS process per subset)")
    serve.add_argument("dsn", help="scenario DSN with runtime=asyncio and an "
                                   "explicit port=N")
    serve.add_argument("--only", required=True, metavar="NAME[,NAME...]",
                       help="process names this OS process hosts, e.g. a1,a2")
    serve.add_argument("--for", dest="run_for", type=float, default=None,
                       metavar="SECONDS",
                       help="serve for this many wall seconds, then exit "
                            "(default: until interrupted)")
    serve.set_defaults(func=_cmd_serve)

    sweep = sub.add_parser(
        "sweep", help="expand --axis grids around a base DSN and run them "
                      "on a worker-process pool")
    sweep.add_argument("dsn", help="base scenario DSN the axes are applied to")
    sweep.add_argument("--axis", action="append", metavar="NAME=V1,V2,...",
                       help="one sweep axis (repeatable), e.g. "
                            "protocol=etx,2pc,pb or clients=1,4,8")
    sweep.add_argument("--requests", type=int, default=1,
                       help="requests per client and scenario (default 1)")
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: one per scenario, "
                            "capped at the core count)")
    sweep.add_argument("--serial", action="store_true",
                       help="run in-process, single worker (same results)")
    sweep.set_defaults(func=_cmd_sweep)

    quickstart = sub.add_parser("quickstart", help="run one e-Transaction and check the spec")
    quickstart.add_argument("--app-servers", type=int, default=3)
    quickstart.add_argument("--db-servers", type=int, default=1)
    quickstart.set_defaults(func=_cmd_quickstart)

    fig8 = sub.add_parser("figure8", help="latency table (baseline / AR / 2PC)")
    fig8.add_argument("--requests", type=int, default=5,
                      help="closed-loop transactions per protocol")
    fig8.add_argument("--app-servers", type=int, default=3)
    fig8.set_defaults(func=_cmd_figure8)

    fig7 = sub.add_parser("figure7", help="communication steps of the four protocols")
    fig7.add_argument("--diagrams", action="store_true",
                      help="also print the message-sequence listings")
    fig7.set_defaults(func=_cmd_figure7)

    fig1 = sub.add_parser("figure1", help="the four e-Transaction executions")
    fig1.set_defaults(func=_cmd_figure1)

    ablations = sub.add_parser("ablations", help="asynchrony, log-cost and scaling sweeps")
    ablations.set_defaults(func=_cmd_ablations)

    scale = sub.add_parser(
        "scaleout", help="throughput vs database-tier size at fixed offered "
                         "load (partitioned placement)")
    scale.add_argument("--db-counts", type=int, nargs="+", default=[1, 2, 4, 8],
                       help="database-tier sizes to measure (default 1 2 4 8)")
    scale.add_argument("--xshard", type=float, nargs="+", default=[0.0, 0.25],
                       help="cross-shard fractions, one curve each")
    scale.add_argument("--rate", type=float, default=16.0,
                       help="offered load in requests/s of virtual time")
    scale.add_argument("--clients", type=int, default=12)
    scale.add_argument("--requests", type=int, default=4,
                       help="arrivals per client and grid point")
    scale.add_argument("--workers", type=int, default=1,
                       help="worker processes for the grid")
    scale.set_defaults(func=_cmd_scaleout)

    soak_cmd = sub.add_parser(
        "soak", help="sustained open-loop run, spec-checked online, with "
                     "bounded observability memory (trace=ring:N/off)")
    soak_cmd.add_argument("dsn", nargs="?", default=None,
                          help="open-loop scenario DSN (default: the standard "
                               "sharded soak deployment)")
    soak_cmd.add_argument("--requests", type=int, default=100_000,
                          help="total offered requests (default 100000)")
    soak_cmd.add_argument("--checkpoints", type=int, default=20,
                          help="observability samples taken during the run")
    soak_cmd.add_argument("--json", default=None, metavar="PATH",
                          help="also write the machine-readable report here")
    soak_cmd.add_argument("--profile", nargs="?", const="", default=None,
                          metavar="PATH",
                          help="run under cProfile; write pstats to PATH "
                               "(default benchmarks/out/soak.pstats) and "
                               "print the top of the cumulative profile")
    soak_cmd.set_defaults(func=_cmd_soak)

    reshard_cmd = sub.add_parser(
        "reshard", help="grow the data tier online under open-loop load, "
                        "then aim a fault campaign at the migration window")
    reshard_cmd.add_argument("dsn", nargs="?", default=None,
                             help="open-loop scenario DSN with a "
                                  "reshard@T:dX->dY fault (default: the "
                                  "standard d4->d8 growth)")
    reshard_cmd.add_argument("--requests", type=int, default=15,
                             help="arrivals per client (default 15)")
    reshard_cmd.add_argument("--window", type=float, default=2_000.0,
                             help="throughput window width in virtual ms "
                                  "(default 2000)")
    reshard_cmd.add_argument("--campaign-runs", type=int, default=0,
                             help="fault schedules to aim at the migration "
                                  "window (default 0: skip the campaign)")
    reshard_cmd.add_argument("--campaign-seed", type=int, default=0,
                             help="master seed of the schedule search")
    reshard_cmd.add_argument("--workers", type=int, default=1,
                             help="worker processes for the campaign")
    reshard_cmd.add_argument("--json", default=None, metavar="PATH",
                             help="also write the machine-readable report here")
    reshard_cmd.set_defaults(func=_cmd_reshard)

    kbench = sub.add_parser(
        "kernelbench", help="event-queue microbenchmarks: timer-wheel kernel "
                            "vs the frozen heap kernel")
    kbench.add_argument("--ops", type=int, default=200_000,
                        help="scheduler operations per scenario (default 200000)")
    kbench.add_argument("--repeats", type=int, default=3,
                        help="measurements per scenario, best kept (default 3)")
    kbench.add_argument("--out", default=None, metavar="PATH",
                        help="also write the machine-readable BENCH json here")
    kbench.add_argument("--alloc", action="store_true",
                        help="also measure allocated-blocks-per-event on the "
                             "traffic and soak shapes (sys.getallocatedblocks "
                             "deltas, gc disabled)")
    kbench.add_argument("--alloc-only", action="store_true",
                        help="measure only the allocation benchmark (skip "
                             "the scheduler microbenchmarks)")
    kbench.set_defaults(func=_cmd_kernelbench)

    sweep = sub.add_parser("fault-sweep", help="random fault schedules, spec-checked")
    sweep.add_argument("--runs", type=int, default=10)
    sweep.add_argument("--client-crashes", action="store_true",
                       help="let the client crash too (at-most-once runs)")
    sweep.set_defaults(func=_cmd_fault_sweep)

    camp = sub.add_parser(
        "campaign", help="adversarial fault-space search: window-targeted "
                         "schedules, spec-checked, counterexamples shrunk")
    camp.add_argument("dsn", help="base scenario DSN (its faults are ignored; "
                                  "the campaign generates its own)")
    camp.add_argument("--budget", type=int, default=200,
                      help="max search evaluations (default 200)")
    camp.add_argument("--population", type=int, default=12,
                      help="schedules per generation (default 12)")
    camp.add_argument("--stop-after", type=int, default=2,
                      help="distinct violation signatures before the search "
                           "stops early (default 2)")
    camp.add_argument("--shrink-checks", type=int, default=60,
                      help="oracle re-runs allowed per counterexample shrink")
    camp.add_argument("--horizon", type=float, default=120_000.0,
                      help="virtual-ms horizon per request (default 120000)")
    camp.add_argument("--settle", type=float, default=20_000.0,
                      help="virtual ms of cleanup time after the last delivery")
    camp.add_argument("--workers", type=int, default=1,
                      help="worker processes for each generation (default 1)")
    camp.add_argument("--campaign-seed", type=int, default=0,
                      help="master seed of the schedule search (default 0)")
    camp.add_argument("--out", default=None, metavar="DIR",
                      help="write counterexample/certificate artifacts here")
    camp.add_argument("--expect", choices=["violation", "clean"], default=None,
                      help="exit non-zero unless the campaign found a "
                           "violation / stayed clean (for CI)")
    camp.set_defaults(func=_cmd_campaign)

    rep = sub.add_parser(
        "replay", help="re-run a saved campaign artifact (or assert a DSN "
                       "runs spec-clean) deterministically")
    rep.add_argument("source", help="a .json artifact path, or a scenario DSN "
                                    "to assert clean")
    rep.add_argument("--requests", type=int, default=1,
                     help="requests per client (bare-DSN replays only; an "
                          "artifact replays with its recorded parameters)")
    rep.add_argument("--horizon", type=float, default=120_000.0,
                     help="virtual-ms horizon per request (bare-DSN replays "
                          "only)")
    rep.add_argument("--settle", type=float, default=20_000.0,
                     help="virtual ms of post-delivery cleanup time "
                          "(bare-DSN replays only)")
    rep.set_defaults(func=_cmd_replay)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
