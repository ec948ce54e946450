"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``models``
    List the Table-I model zoo with measured graph statistics.
``socs``
    List the Table-II platforms.
``run``
    Simulate one pipeline configuration and print its AI-tax breakdown.
``experiment``
    Regenerate one paper table/figure by id (``fig5``, ``table1``, ...).
``fleet``
    Simulate a device population in parallel and print fleet-level
    AI-tax percentiles.
``chaos``
    Sweep deterministic FastRPC fault injection over the chaos
    population and print AI-tax inflation plus the recovery ledger
    (see docs/faults.md).
``serve``
    Run the inference service tier: open-loop traffic over a backend
    pool calibrated from the device fleet, reporting goodput against
    raw throughput plus SLO-miss attribution (see docs/service.md).
``trace``
    Record a named scenario with full instrumentation, print the
    self-time rollup, and export Chrome trace-event JSON for
    chrome://tracing / Perfetto (see docs/tracing.md).
``check``
    Static analysis: the determinism linter, the semantic checker
    (units and the resource request/release protocol), the
    whole-program architecture checker (``.repro-arch.toml``) and the
    yield-point race checker over the same paths, or only each
    ``--tool NAME``. Exit 1 on findings, 2 on configuration errors
    (unknown rule ids, stale baseline entries); ``--sanitize TARGET``
    folds dual-run replay digests in as well (see docs/analysis.md).
``sanitize``
    Replay a scenario, experiment, or small fleet twice with the
    runtime sanitizer attached and diff the event-stream sha256
    digests; a divergence pinpoints the first event where the replays
    disagree.
``report``
    Regenerate everything (the EXPERIMENTS.md content).
"""

import argparse
import pathlib
import sys

# Each handler and each ``_*_arguments`` function imports what it uses:
# ``check`` and ``--help`` never load numpy or the simulator.


def _cmd_models(_args):
    from repro.experiments import run_experiment

    print(run_experiment("table1").render())
    return 0


def _cmd_socs(_args):
    from repro.experiments import run_experiment

    print(run_experiment("table2").render())
    return 0


def _enable_sanitizer_if_requested(args):
    """Honor a ``--sanitize`` flag for every simulator the command makes."""
    if getattr(args, "sanitize", False):
        from repro.sim import set_sanitize_default

        set_sanitize_default(True)
        print("sanitizer: on (invariant violations raise immediately)")


def _cmd_run(args):
    from repro.apps import PipelineConfig, run_pipeline
    from repro.core import VariabilityStats, breakdown
    from repro.core.report import render_breakdown

    _enable_sanitizer_if_requested(args)
    if args.config is not None:
        import json

        from repro.apps.harness import config_from_dict

        with open(args.config) as handle:
            config = config_from_dict(json.load(handle))
    else:
        config = PipelineConfig(
            model_key=args.model,
            dtype=args.dtype,
            context=args.context,
            target=args.target,
            runs=args.runs,
            soc=args.soc,
            seed=args.seed,
        )
    records = run_pipeline(config)
    result = breakdown(records)
    print(render_breakdown(result))
    stats = VariabilityStats.from_collection(records)
    print(
        f"\nlatency: median {stats.median_ms:.2f} ms, "
        f"p95 {stats.p95_ms:.2f} ms, CV {stats.cv:.1%}, "
        f"max |dev| from median {stats.max_deviation_from_median:.1%}"
    )
    print(f"AI tax fraction: {result.tax_fraction:.1%}")
    return 0


def _cmd_experiment(args):
    from repro.experiments import run_experiment

    _enable_sanitizer_if_requested(args)
    kwargs = {}
    if args.runs is not None:
        kwargs["runs"] = args.runs
    result = run_experiment(args.id, **kwargs)
    print(result.render())
    if args.chart:
        from repro.experiments.charts import render_chart

        chart = render_chart(result)
        if chart is None:
            print("(no chart defined for this experiment)")
        else:
            print()
            print(chart)
    if args.json is not None:
        from repro.core.export import experiment_to_json

        experiment_to_json(result, path=args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_summary(_args):
    """Re-validate the paper's takeaways and show the repo inventory."""
    from repro.experiments import REGISTRY, run_experiment
    from repro.models import MODEL_CARDS
    from repro.soc import SOC_SPECS

    result = run_experiment("takeaways", runs=8)
    print(result.render())
    print()
    print(f"models in the zoo:        {len(MODEL_CARDS)}")
    print(f"simulated platforms:      {len(SOC_SPECS)}")
    print(f"registered experiments:   {len(REGISTRY)}")
    holds = all(row[3] for row in result.rows)
    print(f"all takeaways hold:       {'yes' if holds else 'NO'}")
    return 0 if holds else 1


def _check_failure_rate(failure_rate, max_failure_rate):
    """Shared ``--max-failure-rate`` gate for fleet-shaped commands."""
    if max_failure_rate is None or failure_rate <= max_failure_rate:
        return 0
    print(
        f"error: failure rate {failure_rate:.1%} exceeds "
        f"--max-failure-rate {max_failure_rate:.1%}"
    )
    return 1


def _cmd_fleet(args):
    from repro.fleet import aggregate_fleet, run_fleet

    fleet = run_fleet(
        sessions=args.sessions,
        workers=args.workers,
        seed=args.seed,
        cache_dir=args.cache_dir,
        runs=args.runs,
        verify_cache=args.verify_cache,
        journal=args.journal,
        session_timeout_s=args.session_timeout,
    )
    print(aggregate_fleet(fleet).to_experiment_result().render())
    print(
        f"\nsessions: {len(fleet)}  simulated: {fleet.simulated}  "
        f"cache hits: {fleet.cache_hits}  "
        f"journal hits: {fleet.journal_hits}  workers: {fleet.workers}"
    )
    supervision = fleet.supervision
    if supervision and any(supervision.values()):
        print(
            "supervision: "
            + "  ".join(
                f"{key}: {value}"
                for key, value in sorted(supervision.items())
                if value
            )
        )
    return _check_failure_rate(fleet.failure_rate, args.max_failure_rate)


def _cmd_chaos(args):
    from repro.experiments import run_experiment

    rates = args.fault_rate if args.fault_rate else None
    kwargs = {
        "sessions": args.sessions,
        "workers": args.workers,
        "seed": args.seed,
        "runs": args.runs,
    }
    if rates is not None:
        kwargs["fault_rates"] = tuple(rates)
    result = run_experiment("chaos", **kwargs)
    print(result.render())
    ok_counts = result.column("ok")
    failed_counts = result.column("failed")
    print(
        f"\nrates swept: {len(result.rows)}  "
        f"completed sessions: {sum(ok_counts)}  "
        f"failed sessions: {sum(failed_counts)}"
    )
    # Partial results are expected under faults; an *empty* rate — every
    # session dead — is a recovery regression and fails the command.
    if any(count == 0 for count in ok_counts):
        print("error: a swept rate produced zero completed sessions")
        return 1
    total = sum(ok_counts) + sum(failed_counts)
    failure_rate = sum(failed_counts) / total if total else 0.0
    return _check_failure_rate(failure_rate, args.max_failure_rate)


def _cmd_serve(args):
    from repro.service import ServiceConfig, run_service

    population = None
    if args.fault_rate:
        # Fault injection only bites a pool that contains the
        # no-recovery vendor slice; the paper population has none.
        from repro.fleet import chaos_population

        population = chaos_population()
    config = ServiceConfig(
        rate_rps=args.rate,
        duration_s=args.duration,
        arrivals=args.arrivals,
        slo_ms=args.slo,
        queue_capacity=args.capacity,
        policy=args.policy,
        max_batch=args.batch,
        max_delay_ms=args.delay,
        devices=args.devices,
        fault_rate=args.fault_rate,
        backend_fault_rate=args.backend_fault_rate,
        ssr_storm_ms=args.ssr_storm,
        ssr_storm_backends=args.ssr_storm_backends,
        breakers=not args.no_breakers,
        brownout_high=args.brownout_high,
        brownout_low=args.brownout_low,
        seed=args.seed,
    )
    result = run_service(config, population=population)
    print(result.render())
    if args.export is not None:
        result.write_json(args.export)
        print(f"\nwrote {args.export} (sha256 {result.digest()[:16]}...)")
    # A pool with zero completions means the service never answered
    # anyone — under fault injection that is the collapse signal.
    return 0 if result.completed else 1


def _cmd_trace(args):
    from repro.observability import (
        record_trace,
        summarize_trace,
        write_chrome_trace,
    )
    from repro.sim import units

    _enable_sanitizer_if_requested(args)
    session = record_trace(
        args.scenario, runs=args.runs, seed=args.seed, soc=args.soc
    )
    trace = session.sim.trace
    if session.sim.sanitizer is not None:
        audit = session.sim.sanitizer.audit()
        print(
            f"sanitizer: {audit['events']} events, {audit['ties']} tie "
            f"groups, digest {audit['digest'][:16]}..., "
            f"{len(audit['tracks'])} hardware tracks conserve busy+idle"
        )
    print(summarize_trace(trace).render(top=args.top))
    events = write_chrome_trace(
        trace,
        args.out,
        process_name=f"repro:{args.scenario}",
        min_dur_us=args.min_dur_us,
    )
    print(
        f"\nwrote {args.out} ({events} events, "
        f"{units.to_ms(session.sim.now):.1f} ms simulated)"
    )
    print("open it at https://ui.perfetto.dev or chrome://tracing")
    return 0


def _default_paths(args):
    import repro

    return args.paths or [pathlib.Path(repro.__file__).parent]


def _checker_outcome(paths, check_paths, known_rules, default_baseline,
                     baseline=None, strict=False):
    """Run one checker plus its baseline handling; no printing.

    Returns a dict with the post-baseline ``findings``, the ``errors``
    (configuration problems: exit 2), the ``stale_warnings``
    (human-readable; promoted into ``errors`` when ``strict``), and the
    ``suppressed`` count.
    """
    from repro.analysis import baseline as baseline_mod
    from repro.analysis.common import LintError

    findings, errors = check_paths(paths)
    errors = list(errors)

    baseline_path = baseline
    if baseline_path is None:
        default = pathlib.Path(default_baseline)
        baseline_path = default if default.exists() else None
    entries = []
    if baseline_path is not None:
        entries, baseline_errors = baseline_mod.load_baseline(
            baseline_path, known_rules=known_rules
        )
        errors.extend(baseline_errors)
    new_findings, stale = baseline_mod.apply_baseline(findings, entries)

    stale_warnings = []
    for entry in stale:
        message = (
            f"{entry.path}:{entry.line}: stale baseline entry "
            f"[{entry.rule}] — the finding no longer exists; remove it"
        )
        if strict:
            errors.append(LintError(entry.path, entry.line, message))
        else:
            stale_warnings.append(message)
    return {
        "findings": new_findings,
        "errors": errors,
        "stale_warnings": stale_warnings,
        "suppressed": len(findings) - len(new_findings),
    }


def _print_outcome(outcome, render, clean_label, as_json, diag):
    """The printing half of one checker run; returns the exit code.

    In json mode the findings go into the caller's payload, so only the
    warnings and errors are printed, to ``diag``.
    """
    if not as_json:
        for line in render(outcome["findings"]):
            print(line)
    for message in outcome["stale_warnings"]:
        print(f"warning: {message}", file=diag)
    for error in outcome["errors"]:
        print(error.render(), file=diag)
    if outcome["errors"]:
        return 2
    if outcome["findings"]:
        if not as_json:
            print(
                f"\n{len(outcome['findings'])} finding(s); suppress a "
                "true positive with `# repro: allow[rule-id]`, see "
                "docs/analysis.md",
                file=diag,
            )
        return 1
    suppressed = outcome["suppressed"]
    if not as_json:
        print(
            f"{clean_label}: clean"
            + (f" ({suppressed} baselined)" if suppressed else ""),
            file=diag,
        )
    return 0


def _print_inventory(args, records, errors, render, summary):
    """Print a ``--list-*`` inventory; json mode prints the records."""
    as_json = args.format == "json"
    diag = sys.stderr if as_json else sys.stdout
    if as_json:
        import json

        print(json.dumps(records, indent=2))
    else:
        for record in records:
            print(render(record))
        print(summary, file=diag)
    for error in errors:
        print(error.render(), file=diag)
    return 2 if errors else 0


def _list_pragmas(args):
    """The ``--list-pragmas`` audit: one merged, deduplicated table.

    Rows are keyed by ``file:line`` — the same table whichever tools
    ``check`` runs, since pragmas are a shared namespace. Each rule is
    annotated with the checker that owns it; a rule no tool recognizes
    is flagged inline and is an error, exactly as it would be during a
    check run.
    """
    from repro.analysis.common import inventory_pragmas, rule_owners

    records, errors = inventory_pragmas(_default_paths(args))
    owners = rule_owners()
    merged = {}
    for record in records:
        key = (record["path"], record["line"], record["kind"])
        row = merged.setdefault(key, [])
        for rule in record["rules"]:
            if rule not in row:
                row.append(rule)
    rows = []
    for (path, line, kind), rules in sorted(merged.items()):
        tools = sorted({owners[rule] for rule in rules if rule in owners})
        unrecognized = [rule for rule in rules if rule not in owners]
        rows.append({
            "path": path,
            "line": line,
            "kind": kind,
            "rules": rules,
            "tools": tools,
            "unrecognized": unrecognized,
        })

    def render(row):
        rules = ", ".join(row["rules"])
        line = f"{row['path']}:{row['line']}: {row['kind']}[{rules}]"
        if row["tools"]:
            line += f" ({', '.join(row['tools'])})"
        if row["unrecognized"]:
            line += (
                " — unrecognized by every tool: "
                + ", ".join(row["unrecognized"])
            )
        return line

    return _print_inventory(
        args, rows, errors, render, f"{len(rows)} pragma(s)"
    )


def _list_locks(args):
    """The ``--list-locks`` inventory: every yield made holding a grant."""
    from repro.analysis.racecheck import lock_inventory

    records, errors = lock_inventory(_default_paths(args))
    return _print_inventory(
        args, records, errors,
        lambda record: (
            f"{record['path']}:{record['line']}: {record['function']} "
            f"yields holding [{', '.join(record['locks'])}]"
        ),
        f"{len(records)} yield(s) while holding",
    )


#: The static checkers ``check`` runs, in report order.
CHECK_TOOLS = ("lint", "semcheck", "archcheck", "racecheck")


def _checker_table(args):
    """(name, check_paths, render, known_rules, baseline, label) rows.

    The entry points are looked up on their modules at call time, so a
    wrapper installed on ``lint_paths`` (say) sees every run.
    """
    from repro.analysis import archcheck as archcheck_mod
    from repro.analysis import baseline as baseline_mod
    from repro.analysis import lint as lint_mod
    from repro.analysis import racecheck as racecheck_mod
    from repro.analysis import semcheck as semcheck_mod

    return (
        (
            "lint", lint_mod.lint_paths, lint_mod.render_findings,
            lint_mod.RULES_BY_ID, baseline_mod.BASELINE_NAME,
            "determinism lint",
        ),
        (
            "semcheck", semcheck_mod.semcheck_paths,
            semcheck_mod.render_findings, semcheck_mod.RULES_BY_ID,
            baseline_mod.SEMCHECK_BASELINE_NAME, "semcheck",
        ),
        (
            "archcheck",
            lambda paths: archcheck_mod.archcheck_paths(
                paths, contract_path=args.contract
            ),
            archcheck_mod.render_findings, archcheck_mod.RULES_BY_ID,
            baseline_mod.ARCHCHECK_BASELINE_NAME, "archcheck",
        ),
        (
            "racecheck", racecheck_mod.racecheck_paths,
            racecheck_mod.render_findings, racecheck_mod.RULES_BY_ID,
            baseline_mod.RACECHECK_BASELINE_NAME, "racecheck",
        ),
    )


def _edit_baseline(args, paths, tool, diag):
    """``--write-baseline`` / ``--update-baseline`` for one tool.

    A run with errors (a file that does not parse, say) cannot tell
    which findings still exist, so it leaves the baseline untouched.
    """
    from repro.analysis import baseline as baseline_mod

    _name, check_paths, _render, known_rules, default_baseline, _label = tool
    findings, errors = check_paths(paths)
    target = args.baseline or default_baseline
    if not errors and args.write_baseline:
        count = baseline_mod.write_baseline(target, findings)
        print(f"wrote {target} ({count} acknowledged findings)", file=diag)
    elif not errors:
        kept, pruned, errors = baseline_mod.prune_baseline(
            target, findings, known_rules=known_rules
        )
        for entry in pruned:
            print(
                f"pruned {entry.path}:{entry.line} [{entry.rule}]", file=diag
            )
        print(
            f"{target}: pruned {len(pruned)} stale entr"
            f"{'y' if len(pruned) == 1 else 'ies'}, "
            f"{len(kept)} kept",
            file=diag,
        )
    for error in errors:
        print(error.render(), file=diag)
    return 2 if errors else 0


def _cmd_check(args):
    """The static checkers over the same paths, with a merged exit code.

    Runs every tool, or each one named by ``--tool``. They share one
    contract: pragma suppression, an acknowledged-findings baseline
    (``--check`` makes stale entries errors), a ``--format=json``
    object keyed by tool, and exit codes 0 (clean) / 1 (findings) / 2
    (the run cannot be trusted), the worst over the tools run.
    ``--sanitize`` folds dual-run replay digests in as well.
    """
    if args.list_pragmas:
        return _list_pragmas(args)
    if args.list_locks:
        return _list_locks(args)
    as_json = args.format == "json"
    # In json mode stdout carries the findings object and nothing else;
    # diagnostics move to stderr so the output stays machine-readable.
    diag = sys.stderr if as_json else sys.stdout
    tools = [
        tool for tool in _checker_table(args)
        if not args.tool or tool[0] in args.tool
    ]
    if len(tools) != 1 and (
        args.write_baseline or args.update_baseline or args.baseline
    ):
        print(
            "error: a baseline belongs to one tool; name exactly one "
            "--tool to write, prune, or point at one",
            file=diag,
        )
        return 2
    paths = _default_paths(args)
    if args.write_baseline or args.update_baseline:
        return _edit_baseline(args, paths, tools[0], diag)
    from repro.analysis.common import findings_to_json, load_sources

    # Every tool reads the same modules: each file is read, decoded and
    # parsed once for the whole run.
    sources = load_sources(paths)
    payload = {}
    exit_code = 0
    for name, check_paths, render, known_rules, default_baseline, label in (
        tools
    ):
        outcome = _checker_outcome(
            sources, check_paths, known_rules, default_baseline,
            baseline=args.baseline, strict=args.check,
        )
        if as_json:
            payload[name] = findings_to_json(outcome["findings"])
        else:
            print(f"== {name} ==")
        code = _print_outcome(outcome, render, label, as_json, diag)
        exit_code = max(exit_code, code)

    if args.sanitize:
        from repro.analysis.sanitize import dual_run

        reports = []
        for target in args.sanitize:
            scenario, unknown = _sanitize_scenario(target)
            if scenario is None:
                print(unknown, file=diag)
                exit_code = max(exit_code, 2)
                continue
            report = dual_run(scenario)
            reports.append({"target": target, **report.to_json()})
            if not as_json:
                print(f"== sanitize {target} ==")
                print(report.render())
            if not report.identical:
                exit_code = max(exit_code, 1)
        if as_json:
            payload["sanitize"] = reports

    if as_json:
        import json

        print(json.dumps(payload, indent=2))
    elif exit_code == 0:
        print("check: all clean")
    return exit_code


def _sanitize_scenario(name, runs=None, seed=None, sessions=4):
    """Resolve a sanitize target to a zero-argument scenario callable.

    Returns ``(callable, None)``, or ``(None, message)`` naming the
    known targets when ``name`` matches nothing.
    """
    from repro.experiments import REGISTRY, run_experiment
    from repro.observability.scenarios import SCENARIOS, record_trace

    if name == "serve":
        from repro.service import run_service

        def scenario():
            run_service(
                rate_rps=120.0, duration_s=0.5,
                devices=sessions, seed=seed or 0,
                calibration_runs=runs or 2,
            )
    elif name == "fleet":
        from repro.fleet import run_fleet

        def scenario():
            run_fleet(
                sessions=sessions, workers=1, seed=seed or 0,
                runs=runs or 3,
            )
    elif name in SCENARIOS:
        def scenario():
            record_trace(name, runs=runs, seed=seed)
    elif name in REGISTRY:
        def scenario():
            run_experiment(name)
    else:
        known = sorted(set(SCENARIOS) | set(REGISTRY) | {"fleet", "serve"})
        return None, f"unknown sanitize target {name!r}; known: {known}"
    return scenario, None


def _cmd_sanitize(args):
    from repro.analysis.sanitize import dual_run

    scenario, unknown = _sanitize_scenario(
        args.target, runs=args.runs, seed=args.seed, sessions=args.sessions
    )
    if scenario is None:
        print(unknown)
        return 2

    report = dual_run(scenario)
    if args.format == "json":
        import json

        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0 if report.identical else 1


def _cmd_report(args):
    from repro.experiments import REGISTRY, run_experiment

    order = sorted(REGISTRY)
    for experiment_id in order:
        kwargs = {}
        if args.fast and "runs" in _runs_parameter(experiment_id):
            kwargs["runs"] = 5
        result = run_experiment(experiment_id, **kwargs)
        print(result.render())
        print()
    return 0


def _runs_parameter(experiment_id):
    import inspect

    from repro.experiments import REGISTRY

    return inspect.signature(REGISTRY[experiment_id]).parameters


def _run_arguments(parser):
    from repro.apps.harness import CONTEXTS
    from repro.apps.sessions import TARGETS
    from repro.models import MODEL_CARDS
    from repro.soc import SOC_SPECS

    parser.add_argument("--model", default="mobilenet_v1",
                        choices=sorted(MODEL_CARDS))
    parser.add_argument("--dtype", default="fp32",
                        choices=("fp32", "int8", "fp16"))
    parser.add_argument("--context", default="app", choices=CONTEXTS)
    parser.add_argument("--target", default="nnapi", choices=TARGETS)
    parser.add_argument("--runs", type=int, default=20)
    parser.add_argument("--soc", default="sd845", choices=sorted(SOC_SPECS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--config", default=None, metavar="PATH",
        help="load the full PipelineConfig from a JSON file "
             "(overrides the other run flags)",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="attach the runtime sanitizer (docs/determinism.md)",
    )


def _experiment_arguments(parser):
    from repro.experiments import REGISTRY

    parser.add_argument("id", choices=sorted(REGISTRY))
    parser.add_argument("--runs", type=int, default=None)
    parser.add_argument(
        "--chart", action="store_true",
        help="render a terminal chart shaped like the paper's figure",
    )
    parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the result as JSON",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="attach the runtime sanitizer (docs/determinism.md)",
    )


def _fleet_arguments(parser):
    parser.add_argument(
        "--sessions", type=int, default=64,
        help="number of device sessions to expand from the population",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size (results are identical for any value)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--cache-dir", default=None, metavar="PATH",
        help="on-disk result cache; re-runs skip simulated sessions",
    )
    parser.add_argument(
        "--runs", type=int, default=None,
        help="inference iterations per session (default: population's)",
    )
    parser.add_argument(
        "--verify-cache", action="store_true", default=None,
        help="re-simulate cache hits and require identical result "
             "digests (also on under REPRO_SANITIZE=1)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="append-only run journal; an interrupted run resumed with "
             "the same journal re-simulates nothing it finished",
    )
    parser.add_argument(
        "--session-timeout", type=float, default=None, metavar="SECONDS",
        help="wall-clock deadline per session; a hung worker is killed "
             "and the session retried (docs/faults.md)",
    )
    parser.add_argument(
        "--max-failure-rate", type=float, default=None, metavar="FRACTION",
        help="exit non-zero when more than this fraction of sessions "
             "finish with a structured error",
    )


def _chaos_arguments(parser):
    parser.add_argument(
        "--sessions", type=int, default=16,
        help="device sessions expanded per swept rate",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="process-pool size (results are identical for any value)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--runs", type=int, default=4,
        help="inference iterations per session",
    )
    parser.add_argument(
        "--fault-rate", type=float, action="append", default=None,
        metavar="RATE",
        help="per-call fault probability to sweep (repeatable; the 0.0 "
             "baseline is always included)",
    )
    parser.add_argument(
        "--max-failure-rate", type=float, default=None, metavar="FRACTION",
        help="exit non-zero when more than this fraction of sessions "
             "across the sweep failed",
    )


def _serve_arguments(parser):
    from repro.service import ARRIVAL_KINDS, POLICIES

    parser.add_argument(
        "--rate", type=float, default=200.0,
        help="mean offered load, requests per second",
    )
    parser.add_argument(
        "--duration", type=float, default=1.0,
        help="simulated traffic window, seconds",
    )
    parser.add_argument(
        "--arrivals", default="poisson", choices=ARRIVAL_KINDS,
        help="arrival process shape",
    )
    parser.add_argument(
        "--slo", type=float, default=50.0, metavar="MS",
        help="per-request latency budget in ms (goodput bound)",
    )
    parser.add_argument(
        "--capacity", type=int, default=64,
        help="admission bound on outstanding requests",
    )
    parser.add_argument(
        "--policy", default="reject", choices=POLICIES,
        help="what to do with over-capacity arrivals",
    )
    parser.add_argument(
        "--batch", type=int, default=4,
        help="dynamic batcher: flush at this many requests",
    )
    parser.add_argument(
        "--delay", type=float, default=5.0, metavar="MS",
        help="dynamic batcher: flush once the oldest waited this long",
    )
    parser.add_argument(
        "--devices", type=int, default=4,
        help="population devices calibrated into the backend pool",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=0.0, metavar="RATE",
        help="per-call fault probability during calibration; nonzero "
             "switches to the chaos population so the no-recovery "
             "vendor slice is in the pool (docs/faults.md)",
    )
    parser.add_argument(
        "--backend-fault-rate", type=float, default=0.0, metavar="RATE",
        help="per-batch fault probability at each serving backend "
             "(failed batches redispatch; breakers eject repeat "
             "offenders, docs/service.md)",
    )
    parser.add_argument(
        "--ssr-storm", type=float, default=None, metavar="MS",
        help="inject a subsystem-restart storm at this simulated time",
    )
    parser.add_argument(
        "--ssr-storm-backends", type=int, default=None, metavar="N",
        help="how many backends the storm hits (default: all)",
    )
    parser.add_argument(
        "--no-breakers", action="store_true",
        help="disable the per-backend circuit breakers",
    )
    parser.add_argument(
        "--brownout-high", type=int, default=None, metavar="N",
        help="enter brownout (degraded-model execution) at this many "
             "outstanding requests",
    )
    parser.add_argument(
        "--brownout-low", type=int, default=None, metavar="N",
        help="exit brownout at this many outstanding requests "
             "(default: half of --brownout-high)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--export", default=None, metavar="PATH",
        help="write the canonical ServiceResult JSON (byte-identical "
             "for same config+seed)",
    )


def _trace_arguments(parser):
    from repro.observability.scenarios import SCENARIOS
    from repro.soc import SOC_SPECS

    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument(
        "--out", default="trace.json", metavar="PATH",
        help="Chrome trace-event JSON output path (default: trace.json)",
    )
    parser.add_argument(
        "--runs", type=int, default=None,
        help="override the scenario's iteration count",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--soc", default=None, choices=sorted(SOC_SPECS),
        help="override the scenario's platform",
    )
    parser.add_argument(
        "--top", type=int, default=5,
        help="labels shown per track in the self-time rollup",
    )
    parser.add_argument(
        "--min-dur-us", type=float, default=0.0,
        help="drop spans shorter than this from the export",
    )
    parser.add_argument(
        "--sanitize", action="store_true",
        help="attach the runtime sanitizer and print its audit",
    )


def _check_arguments(parser):
    parser.add_argument(
        "paths", nargs="*", default=None, metavar="PATH",
        help="files or directories to check (default: the installed "
             "repro package)",
    )
    parser.add_argument(
        "--tool", action="append", default=None, choices=CHECK_TOOLS,
        help="run only this checker (repeatable; default: all four)",
    )
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline of acknowledged findings for the one --tool "
             "(default: each tool's .repro-<tool>-baseline.json if "
             "present)",
    )
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="acknowledge all current findings of the one --tool into "
             "its baseline",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="prune stale entries (acknowledged findings that no longer "
             "exist) from the one --tool's baseline; never adds entries",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="CI mode: stale baseline entries are errors",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (json: one object keyed by tool)",
    )
    parser.add_argument(
        "--list-pragmas", action="store_true",
        help="inventory every `# repro: allow[...]` suppression under "
             "the checked paths instead of running rules",
    )
    parser.add_argument(
        "--list-locks", action="store_true",
        help="inventory every yield executed while a Resource grant is "
             "held instead of running rules",
    )
    parser.add_argument(
        "--contract", default=None, metavar="PATH",
        help="archcheck layering contract (default: .repro-arch.toml)",
    )
    parser.add_argument(
        "--sanitize", action="append", default=None, metavar="TARGET",
        help="also dual-run this sanitize target (repeatable); a "
             "divergence fails the check",
    )


def _sanitize_arguments(parser):
    parser.add_argument(
        "target",
        help="a trace scenario (e.g. quickstart, chaos), an experiment "
             "id (e.g. fig7), 'fleet', or 'serve'",
    )
    parser.add_argument(
        "--runs", type=int, default=None,
        help="iteration override for scenario/fleet targets",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--sessions", type=int, default=4,
        help="fleet target: sessions per replay",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report output format (json mirrors the other checkers)",
    )


def _report_arguments(parser):
    parser.add_argument("--fast", action="store_true")


#: Every subcommand in ``--help`` order: name -> (help, handler,
#: add_arguments). ``add_arguments`` imports what its ``choices`` need,
#: so a run registers, and pays for, the invoked command's alone.
COMMANDS = {
    "models": ("list the Table-I model zoo", _cmd_models, None),
    "socs": ("list the Table-II platforms", _cmd_socs, None),
    "summary": (
        "re-validate the paper takeaways + inventory", _cmd_summary, None,
    ),
    "run": ("simulate one configuration", _cmd_run, _run_arguments),
    "experiment": (
        "regenerate one table/figure", _cmd_experiment, _experiment_arguments,
    ),
    "fleet": (
        "simulate a device population in parallel", _cmd_fleet,
        _fleet_arguments,
    ),
    "chaos": (
        "sweep FastRPC fault injection over a device fleet "
        "(docs/faults.md)",
        _cmd_chaos, _chaos_arguments,
    ),
    "serve": (
        "run the inference service tier over a fleet-calibrated "
        "backend pool (docs/service.md)",
        _cmd_serve, _serve_arguments,
    ),
    "trace": (
        "record a scenario and export a Chrome trace (docs/tracing.md)",
        _cmd_trace, _trace_arguments,
    ),
    "check": (
        "static analysis: lint + semcheck + archcheck + racecheck "
        "over the same paths with a merged exit code (docs/analysis.md)",
        _cmd_check, _check_arguments,
    ),
    "sanitize": (
        "dual-run replay digest: run a target twice with invariant "
        "checks and diff event-stream sha256s",
        _cmd_sanitize, _sanitize_arguments,
    ),
    "report": ("regenerate everything", _cmd_report, _report_arguments),
}


def build_parser(command=None):
    """The argument parser; every subcommand's arguments, or ``command``'s.

    Every subcommand is registered with its help either way, so usage
    and the top-level help are the same; a name that is no command
    registers no arguments at all.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AI Tax in Mobile SoCs (ISPASS 2021) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _handler, add_arguments) in COMMANDS.items():
        command_parser = sub.add_parser(name, help=help_text)
        if add_arguments is not None and command in (None, name):
            add_arguments(command_parser)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    # The first non-option token names the command ("" matches none).
    command = next((arg for arg in argv if not arg.startswith("-")), "")
    args = build_parser(command).parse_args(argv)
    return COMMANDS[args.command][1](args)


if __name__ == "__main__":
    raise SystemExit(main())
