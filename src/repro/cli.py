"""Command-line interface: ``repro-dsav <command>``.

Subcommands:

* ``scan``   — run a full campaign and print every table of the paper.
* ``audit``  — the Section 6 "public testing tool" against one AS.
* ``lab``    — the controlled-lab artifacts (Tables 5/6, Figure 3a fit).
* ``attack`` — the exposure demonstrations (poisoning, NXNS, reflection).
* ``obs``    — render a run directory's ``telemetry.json`` (from
  ``scan --metrics``): span timings, counters, histograms.
* ``watch``  — live dashboard over a running (or finished) campaign's
  telemetry stream (from ``scan --snapshots``): per-shard rates and
  health, ``--json`` event stream, Prometheus textfile.
* ``explain`` — reconstruct per-probe causal chains from a run
  directory's ``events.ndjson`` (from ``scan --journal``), or audit
  that every classification is backed by journal evidence.
* ``ledger`` — index run directories into a cross-run ``ledger.json``
  (rows auto-appended by ``scan --ledger``; ``--rebuild`` re-derives
  the whole file from the run artifacts).
* ``diff``   — structural comparison of two run directories: per-AS
  DSAV flips with journal evidence, penetration-rate / drop-reason /
  telemetry deltas, with comparability gating.
* ``trend``  — longitudinal report over a ledger: per-AS flip
  timelines, metric trajectories, remediation vs whac-a-mole counts.

All commands are deterministic for a given ``--seed``.  Reports and
JSON go to stdout; progress and status chatter go to stderr (suppress
with ``--quiet``), so stdout stays machine-parseable.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from .core import ScanConfig, resolver_ranges
from .scenarios import ScenarioParams, build_internet


def _banner(title: str) -> None:
    print(f"\n{'=' * 70}\n{title}\n{'=' * 70}")


#: Defaults for the scan flags that identify a campaign.  The argparse
#: defaults are ``None`` sentinels so ``--resume`` can tell "flag left
#: at its default" apart from "flag explicitly repeated" and refuse
#: flags that contradict the recorded spec.
_SCAN_DEFAULTS = {
    "seed": 2019,
    "n_ases": 120,
    "duration": 180.0,
    "shards": 1,
    "retries": 0,
    "topology": "star",
}


def _resume_mismatches(
    args: argparse.Namespace, spec, faults_payload
) -> list[str]:
    """Explicitly-passed scan flags that contradict the recorded *spec*."""
    recorded = {
        "seed": spec.seed,
        "n_ases": spec.n_ases,
        "duration": spec.scan.get("duration"),
        "shards": spec.shards,
        "retries": spec.scan.get("max_retries", 0),
        "topology": "tiered" if spec.topology is not None else "star",
    }
    mismatches = [
        f"{name}: run has {recorded_value}, flag says "
        f"{getattr(args, name)}"
        for name, recorded_value in recorded.items()
        if getattr(args, name) is not None
        and getattr(args, name) != recorded_value
    ]
    if faults_payload is not None and faults_payload != spec.faults:
        mismatches.append(
            f"faults: run has "
            f"{'a different plan' if spec.faults else 'no fault plan'}, "
            f"flag says {args.faults}"
        )
    # store_true flags: only the explicit-True direction is detectable.
    if args.metrics and not spec.metrics:
        mismatches.append("metrics: run has False, flag says True")
    if args.journal and not spec.journal:
        mismatches.append("journal: run has False, flag says True")
    if args.snapshots and not spec.stream:
        mismatches.append("snapshots: run has False, flag says True")
    return mismatches


def cmd_scan(args: argparse.Namespace) -> int:
    import json as _json
    from pathlib import Path

    from .core.pipeline import CampaignSpec, PipelineError, run_pipeline
    from .rundir import RunDirectory

    def status(message: str) -> None:
        # Status chatter goes to stderr so stdout carries only the
        # report / JSON and stays machine-parseable.
        if not args.quiet:
            print(message, file=sys.stderr)

    topology_payload = None
    if args.topology == "tiered":
        from .netsim.topology import TopologySpec

        topology_payload = TopologySpec().to_payload()

    faults_payload = None
    if args.faults is not None:
        from .netsim.faults import FaultPlan

        try:
            faults_payload = FaultPlan.load(args.faults).to_payload()
        except (OSError, ValueError) as exc:
            print(f"error: --faults {args.faults}: {exc}", file=sys.stderr)
            return 2

    for name in ("run_dir", "resume", "scenario_cache", "ledger"):
        value = getattr(args, name)
        if value is not None and Path(value).is_file():
            flag = "--" + name.replace("_", "-")
            print(
                f"error: {flag} {value} is a file, not a directory",
                file=sys.stderr,
            )
            return 2
    # --json is written after the whole scan, so it is vetted before.
    json_path = Path(args.json) if args.json is not None else None
    if json_path is not None and (
        json_path.is_dir() or not json_path.parent.is_dir()
    ):
        print(
            f"error: --json {args.json} must name a file in an existing "
            "directory",
            file=sys.stderr,
        )
        return 2

    spec = None
    if args.resume is not None:
        try:
            spec = RunDirectory.open(args.resume).read_spec()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        mismatches = _resume_mismatches(args, spec, faults_payload)
        if mismatches:
            print(
                "error: --resume spec mismatch — "
                + "; ".join(mismatches)
                + " (drop the flag or start a fresh --run-dir)",
                file=sys.stderr,
            )
            return 2
    for name, default in _SCAN_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)

    if spec is None:
        try:
            spec = CampaignSpec.from_scan_config(
                seed=args.seed,
                n_ases=args.n_ases,
                shards=args.shards,
                config=ScanConfig(
                    duration=args.duration, max_retries=args.retries
                ),
                metrics=args.metrics,
                journal=args.journal,
                stream=args.snapshots,
                faults=faults_payload,
                topology=topology_payload,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    progress = None
    if not args.quiet:
        from .obs.progress import ProgressReporter

        progress = ProgressReporter()

    options = dict(
        workers=args.workers,
        progress=progress,
        hang_timeout=args.hang_timeout,
        scenario_cache=args.scenario_cache,
        profile=args.profile,
        ledger=args.ledger,
    )
    try:
        outcome = run_pipeline(
            spec, run_dir=args.resume or args.run_dir, **options
        )
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if progress is not None:
        progress.finish()
    if outcome.scenario_source == "cache":
        status("scenario served from the compiled-scenario cache")
    if outcome.stages_skipped:
        status(
            f"stages skipped (resumed): {', '.join(outcome.stages_skipped)}"
        )
    if outcome.stages_run:
        status(f"stages run: {', '.join(outcome.stages_run)}")
    if outcome.campaign is not None:
        print(outcome.campaign.summary())
    print()
    print(outcome.report)
    if outcome.campaign is not None:
        from .core.paper import comparison_report

        _banner("Paper shape-claim verdicts")
        print(comparison_report(outcome.campaign))
    else:
        print(
            "(analysis served from run-directory artifacts; "
            "paper-claim verdicts need a live campaign)"
        )
    if args.json is not None:
        Path(args.json).write_text(
            _json.dumps(outcome.results, indent=2)
        )
        status(f"structured results written to {args.json}")
    if outcome.telemetry is not None:
        from .obs.export import render_telemetry

        _banner("Campaign telemetry")
        print(render_telemetry(outcome.telemetry))
        if outcome.run_dir is not None:
            status(
                f"telemetry written to {outcome.run_dir}/telemetry.json"
            )
    if outcome.run_dir is not None:
        rd = RunDirectory(outcome.run_dir)
        if rd.events_path.exists():
            status(f"probe journal written to {rd.events_path}")
        if rd.stream_path.exists():
            status(
                f"telemetry stream in {outcome.run_dir} — replay with "
                f"`repro-dsav watch {outcome.run_dir}`"
            )
    if args.ledger is not None:
        status(
            f"run recorded in {args.ledger}/ledger.json — compare "
            f"epochs with `repro-dsav trend {args.ledger}`"
        )
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    import json as _json

    from .obs.export import (
        obs_json_payload,
        payload_to_prometheus,
        render_telemetry,
    )
    from .rundir import RunDirectory

    rd = RunDirectory.open(args.run_dir)
    try:
        payload = rd.telemetry()
    except ValueError as exc:  # fails its digest, or is of another version
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if payload is None:
        print(
            f"error: {rd.path} has no committed telemetry.json — run "
            f"`repro-dsav scan --metrics --run-dir {rd.path}`, or finish "
            f"the run with `repro-dsav scan --resume {rd.path}`",
            file=sys.stderr,
        )
        return 1
    if args.prom:
        print(payload_to_prometheus(payload), end="")
    elif args.json:
        print(_json.dumps(obs_json_payload(payload), indent=2))
    else:
        print(render_telemetry(payload))
    return 0


def cmd_watch(args: argparse.Namespace) -> int:
    from .obs.watch import run_watch
    from .rundir import RunDirectory

    run_dir = RunDirectory.open(args.run_dir).path
    try:
        return run_watch(
            run_dir,
            json_mode=args.json,
            prom_textfile=args.prom_textfile,
            interval=args.interval,
            once=args.once,
            timeout=args.timeout,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


def cmd_ledger(args: argparse.Namespace) -> int:
    from .obs.ledger import Ledger, render_ledger

    ledger = Ledger(args.ledger_dir)
    if args.rebuild:
        payload = ledger.rebuild()
        print(
            f"ledger rebuilt: {len(payload['rows'])} run(s) -> "
            f"{ledger.path}",
            file=sys.stderr,
        )
    else:
        payload = ledger.require()
    if args.json:
        from .obs.export import dump_envelope

        print(dump_envelope(payload), end="")
    else:
        print(render_ledger(payload))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from .obs.diff import render_diff, run_diff

    envelope = run_diff(args.run_a, args.run_b, advisory=args.advisory)
    if args.json:
        from .obs.export import dump_envelope

        print(dump_envelope(envelope), end="")
    else:
        text = render_diff(envelope)
        if text:
            print(text)
    return 0


def cmd_trend(args: argparse.Namespace) -> int:
    from .obs.trend import build_trend, render_trend

    envelope = build_trend(args.ledger_dir, metric=args.metric)
    if args.json:
        from .obs.export import dump_envelope

        print(dump_envelope(envelope), end="")
    else:
        print(render_trend(envelope))
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    import json as _json

    from .campaigns import (
        CampaignError,
        CampaignPolicy,
        EvolutionPlan,
        campaign_status,
        render_status,
        resume_campaign,
        run_campaign,
    )
    from .core.pipeline import CampaignSpec, PipelineError

    def echo(message: str) -> None:
        if not getattr(args, "quiet", False):
            print(message, file=sys.stderr)

    try:
        if args.campaign_cmd == "status":
            payload = campaign_status(args.campaign_dir)
            if args.json:
                print(_json.dumps(payload, indent=2, sort_keys=True))
            else:
                print(render_status(payload))
            return 0
        if args.campaign_cmd == "resume":
            payload = resume_campaign(
                args.campaign_dir, workers=args.workers, echo=echo
            )
            print(render_status(payload))
            return 0
        try:
            plan = EvolutionPlan.load(args.plan)
        except (OSError, ValueError) as exc:
            print(f"error: --plan {args.plan}: {exc}", file=sys.stderr)
            return 2
        faults_payload = None
        if args.faults is not None:
            from .netsim.faults import FaultPlan

            try:
                faults_payload = FaultPlan.load(args.faults).to_payload()
            except (OSError, ValueError) as exc:
                print(
                    f"error: --faults {args.faults}: {exc}",
                    file=sys.stderr,
                )
                return 2
        topology_payload = None
        if args.topology == "tiered":
            from .netsim.topology import TopologySpec

            topology_payload = TopologySpec().to_payload()
        spec = CampaignSpec.from_scan_config(
            seed=args.seed,
            n_ases=args.n_ases,
            shards=args.shards,
            config=ScanConfig(duration=args.duration),
            partition=args.partition,
            faults=faults_payload,
            topology=topology_payload,
        )
        policy = CampaignPolicy(
            failure_policy=args.failure_policy,
            max_attempts=args.max_attempts,
            backoff=args.backoff,
            deadline=args.deadline,
            degrade_rate=args.degrade_rate,
            incremental=not args.no_incremental,
        )
        payload = run_campaign(
            spec,
            plan,
            args.epochs,
            args.campaign_dir,
            policy=policy,
            workers=args.workers,
            echo=echo,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CampaignError, PipelineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    print(render_status(payload))
    echo(
        f"compare epochs with `repro-dsav trend {args.campaign_dir}` "
        f"or `repro-dsav diff {args.campaign_dir}/epoch-000 "
        f"{args.campaign_dir}/epoch-001`"
    )
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    import json as _json

    from .obs.explain import (
        audit as journal_audit,
        load_index,
        render_asn_summary,
        render_narrative,
    )
    from .rundir import RunDirectory

    # A run directory, file or journal line refused: one line, exit 2.
    try:
        rd = RunDirectory.open(args.run_dir)
        events_path = rd.journal()
        if events_path is None:
            print(
                f"error: {rd.path} has no committed events.ndjson — run "
                f"`repro-dsav scan --journal --run-dir {rd.path}`, or "
                f"finish the run with `repro-dsav scan --resume {rd.path}`",
                file=sys.stderr,
            )
            return 1
        index = load_index(events_path)
        results = rd.results() if args.audit else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.audit:
        problems = journal_audit(index, results)
        if problems:
            for problem in problems:
                print(f"audit: {problem}", file=sys.stderr)
            print(
                f"audit FAILED: {len(problems)} problem(s)",
                file=sys.stderr,
            )
            return 1
        print(
            f"audit OK: {len(index.classifications)} classifications "
            "backed by journal evidence, headline counts match "
            "results.json"
        )
        return 0

    if args.asn is not None:
        if args.json:
            chains = [
                index.chain(pid) for pid in index.probes_for_asn(args.asn)
            ]
            print(_json.dumps(chains, indent=2))
        else:
            print(render_asn_summary(index, args.asn))
        return 0

    if args.probe is not None:
        pid = args.probe
    elif args.qname is not None:
        pid = index.probe_for_qname(args.qname)
        if pid is None:
            print(
                f"error: qname {args.qname} not in journal",
                file=sys.stderr,
            )
            return 1
    else:
        print(
            "error: choose one of --probe, --qname, --asn, --audit",
            file=sys.stderr,
        )
        return 2

    chain = index.chain(pid)
    if chain is None:
        print(f"error: probe {pid} not in journal", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(chain, indent=2))
    else:
        print(render_narrative(chain))
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    from .attacks import expected_windows
    from .core.targets import TargetSet
    from .fingerprint.p0f import P0fDatabase

    scenario = build_internet(
        ScenarioParams(seed=args.seed, n_ases=args.n_ases)
    )
    if args.asn is None:
        counts: dict[int, int] = {}
        for info in scenario.truth.resolvers:
            if info.alive and info.asn in scenario.truth.dsav_lacking_asns:
                counts[info.asn] = counts.get(info.asn, 0) + 1
        if not counts:
            print("no auditable AS in this scenario")
            return 1
        args.asn = max(counts, key=counts.get)  # type: ignore[arg-type]
    full = scenario.target_set()
    scoped = TargetSet(
        targets=[t for t in full.targets if t.asn == args.asn],
        stats=full.stats,
    )
    print(f"Auditing AS{args.asn}: {len(scoped)} candidate resolvers")
    scanner, collector = scenario.make_scanner(
        ScanConfig(duration=60.0), targets=scoped
    )
    scanner.run()
    reachable = collector.reachable_targets()
    if not reachable:
        print("verdict: no spoofed-source infiltration observed")
        return 0
    print(f"verdict: DSAV ABSENT — {len(reachable)} resolver(s) reached")
    ranges = {
        r.observation.target: r
        for r in resolver_ranges(collector, P0fDatabase.default())
    }
    for obs in sorted(reachable, key=lambda o: str(o.target)):
        line = (
            f"  {obs.target}: "
            f"{'open' if obs.open_ else 'closed'}, "
            f"categories={{{','.join(sorted(c.value for c in obs.categories))}}}"
        )
        item = ranges.get(obs.target)
        if item is not None:
            line += f", port-range={item.range} ({item.bucket.label})"
            if item.range == 0:
                cost = expected_windows(1, 65536)
                line += f" *** poisonable in ~{cost:.0f} race window"
        elif obs.forwarded:
            line += ", forwards upstream"
        print(line)
    return 0


def cmd_lab(args: argparse.Namespace) -> int:
    from .oskernel.profiles import SOFTWARE_PROFILES
    from .scenarios.lab import lab_port_study, os_acceptance_matrix

    _banner("Table 5: port pools per software")
    for result in lab_port_study(n_queries=args.queries):
        profile = SOFTWARE_PROFILES.get(result.software)
        print(
            f"{result.os_name:>16} / {result.software:<26} "
            f"distinct={result.distinct_ports:<6} "
            f"span={result.pool_span:<6} "
            f"[{profile.pool_description if profile else 'custom'}]"
        )
    _banner("Table 6: spoofed-local packet acceptance")
    for row in os_acceptance_matrix():
        marks = "".join(
            "x" if flag else "-"
            for flag in (row.ds_v4, row.lb_v4, row.ds_v6, row.lb_v6)
        )
        print(f"{row.os_name:>18}  DS4/LB4/DS6/LB6 = {marks}")
    return 0


def cmd_attack(args: argparse.Namespace) -> int:
    from .attacks import (
        build_nxns_world,
        build_reflection_world,
        guess_space,
        run_nxns_attack,
        run_reflection_attack,
    )

    if args.kind in ("nxns", "all"):
        _banner("NXNS amplification")
        unpatched = run_nxns_attack(
            build_nxns_world(fanout=30, max_glueless_ns=50)
        )
        patched = run_nxns_attack(
            build_nxns_world(fanout=30, max_glueless_ns=2)
        )
        print(
            f"unpatched resolver: x{unpatched.amplification:.0f} "
            f"victim queries per trigger; NXNS-patched: "
            f"x{patched.amplification:.0f}"
        )
    if args.kind in ("reflection", "all"):
        _banner("Reflection / RRL")
        open_ = run_reflection_attack(build_reflection_world(), queries=40)
        limited = run_reflection_attack(
            build_reflection_world(rrl_limit=2.0), queries=40
        )
        print(
            f"no RRL: x{open_.amplification:.1f} byte amplification; "
            f"RRL 2/s: x{limited.amplification:.1f}"
        )
    if args.kind in ("poisoning", "all"):
        _banner("Poisoning search space")
        for label, pool in (("fixed port", 1), ("Windows DNS", 2500),
                            ("Linux", 28232), ("full range", 64511)):
            print(f"{label:>12}: {guess_space(pool):,} combinations")
    if args.kind in ("zone", "all"):
        _banner("Zone poisoning via spoofed dynamic update")
        from ipaddress import ip_address as _ip

        from .attacks.zone_poisoning import (
            build_zone_poisoning_world,
            spoofed_zone_update,
        )

        for dsav in (False, True):
            world = build_zone_poisoning_world(dsav=dsav)
            result = spoofed_zone_update(
                world.fabric, world.attacker, world.server,
                world.server_address, world.zone_origin,
                spoofed_source=_ip("30.0.44.44"),
                victim_owner=world.victim_owner,
                malicious_address=_ip("66.6.6.6"),
            )
            label = "with DSAV" if dsav else "without DSAV"
            print(
                f"{label}: update "
                f"{'ACCEPTED - zone rewritten' if result.poisoned else 'blocked'}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-dsav",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="full campaign + all tables")
    # Campaign-identity flags default to None sentinels (resolved to
    # _SCAN_DEFAULTS in cmd_scan) so --resume can detect explicit
    # flags that contradict the recorded spec.
    scan.add_argument("--n-ases", type=int, default=None)
    scan.add_argument("--seed", type=int, default=None)
    scan.add_argument("--duration", type=float, default=None)
    scan.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write structured results as JSON",
    )
    scan.add_argument(
        "--shards", type=int, default=None,
        help="partition target ASes across this many scan worker "
        "processes; results are byte-identical to --shards 1",
    )
    scan.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retransmit unanswered probes up to N times with "
        "exponential backoff (default 0: single-shot probes, "
        "byte-identical to earlier releases)",
    )
    scan.add_argument(
        "--faults", default=None, metavar="PLAN",
        help="inject the deterministic fault plan (JSON, see "
        "examples/faultplans/) into the packet fabric; stored as "
        "faults.json in the run directory",
    )
    scan.add_argument(
        "--topology", choices=("star", "tiered"), default=None,
        help="inter-AS topology: 'star' (default) keeps the legacy "
        "hub-and-spoke fabric, 'tiered' builds a policy-aware AS "
        "graph with valley-free routing and per-hop border filtering",
    )
    scan.add_argument(
        "--hang-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and re-execute a scan shard worker that sends no "
        "report for this long, at least 2 (default: no hang "
        "detection; a fault plan with a hang-mode shard-crash clause "
        "needs it)",
    )
    scan.add_argument(
        "--workers", type=int, default=None,
        help="max shard worker processes (default: one per shard, "
        "capped at CPU count; 0 runs shards inline)",
    )
    scan.add_argument(
        "--run-dir", default=None, metavar="DIR",
        help="persist stage artifacts (shard scans, merged "
        "observations, results, report) into DIR",
    )
    scan.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume the campaign recorded in DIR's manifest, "
        "skipping stages whose artifacts already exist",
    )
    scan.add_argument(
        "--metrics", action="store_true",
        help="collect campaign telemetry (metrics + span traces); "
        "written to telemetry.json when --run-dir is set.  Results "
        "are byte-identical with or without this flag",
    )
    scan.add_argument(
        "--journal", action="store_true",
        help="record the per-probe event journal (flight recorder) to "
        "events.ndjson in --run-dir; explore it with `repro-dsav "
        "explain`.  Results are byte-identical with or without this "
        "flag",
    )
    scan.add_argument(
        "--snapshots", action="store_true",
        help="stream every shard's telemetry snapshots (shard health "
        "+ metric deltas, every 0.5 s) to telemetry-stream.ndjson in "
        "--run-dir; tail it live with `repro-dsav watch`.  Results are "
        "byte-identical with or without this flag",
    )
    scan.add_argument(
        "--ledger", default=None, metavar="DIR",
        help="after the run completes, append (or refresh) its row in "
        "DIR/ledger.json — the cross-run index `repro-dsav diff` and "
        "`repro-dsav trend` consume.  Requires --run-dir; results are "
        "byte-identical with or without it",
    )
    scan.add_argument(
        "--scenario-cache", default=None, metavar="DIR",
        help="content-keyed cache of compiled scenarios: a repeated "
        "run of the same spec loads the built world from DIR instead "
        "of rebuilding it.  Results are byte-identical with or without "
        "a cache hit",
    )
    scan.add_argument(
        "--profile", action="store_true",
        help="dump per-shard cProfile stats to profile-NNN.pstats in "
        "the run directory (requires --run-dir or --resume)",
    )
    scan.add_argument(
        "--quiet", action="store_true",
        help="suppress the live progress line and status chatter "
        "(stderr); stdout output is unaffected",
    )
    scan.set_defaults(func=cmd_scan)

    obs = sub.add_parser(
        "obs", help="render a run directory's telemetry.json"
    )
    obs.add_argument("run_dir", metavar="RUN_DIR")
    obs.add_argument(
        "--prom", action="store_true",
        help="emit Prometheus text exposition format instead of the "
        "human-readable summary",
    )
    obs.add_argument(
        "--json", action="store_true",
        help="emit the telemetry payload as JSON, extended with "
        "derived histogram percentile summaries (p50/p95/p99)",
    )
    obs.set_defaults(func=cmd_obs)

    watch = sub.add_parser(
        "watch",
        help="live dashboard over a run's telemetry stream "
        "(scan --snapshots)",
    )
    watch.add_argument("run_dir", metavar="RUN_DIR")
    watch.add_argument(
        "--json", action="store_true",
        help="emit the run's event stream as NDJSON on stdout "
        "instead of the dashboard",
    )
    watch.add_argument(
        "--prom-textfile", default=None, metavar="PATH",
        help="continuously rewrite PATH with the run's accumulated "
        "metrics in Prometheus text format (node-exporter textfile "
        "collector compatible)",
    )
    watch.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="poll/redraw interval (default 1.0)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render (or emit) the current state once and exit — "
        "replays the full stream of a finished run",
    )
    watch.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="exit 2 if SECONDS pass without a stream event on a run "
        "that is not finished, counted from the last event (or from "
        "the start); like --hang-timeout, it must cover a shard's "
        "quiet phases (world build, the settle drain)",
    )
    watch.set_defaults(func=cmd_watch)

    ledger = sub.add_parser(
        "ledger",
        help="index run directories into a cross-run ledger.json",
    )
    ledger.add_argument("ledger_dir", metavar="LEDGER_DIR")
    ledger.add_argument(
        "--rebuild", action="store_true",
        help="re-derive every row by scanning LEDGER_DIR's run "
        "subdirectories; byte-identical to incremental --ledger "
        "appends over the same runs",
    )
    ledger.add_argument(
        "--json", action="store_true",
        help="emit the ledger payload as canonical JSON",
    )
    ledger.set_defaults(func=cmd_ledger)

    diff = sub.add_parser(
        "diff",
        help="structural diff between two run directories",
    )
    diff.add_argument("run_a", metavar="RUN_A")
    diff.add_argument("run_b", metavar="RUN_B")
    diff.add_argument(
        "--json", action="store_true",
        help="emit the versioned diff envelope as canonical JSON "
        "instead of the human rendering",
    )
    diff.add_argument(
        "--advisory", action="store_true",
        help="compare runs with different scenario/topology keys "
        "anyway, downgrading the envelope to advisory instead of "
        "refusing (exit 2)",
    )
    diff.set_defaults(func=cmd_diff)

    campaign = sub.add_parser(
        "campaign",
        help="crash-anywhere longitudinal campaigns: one evolved "
        "scenario per epoch, driven by a write-ahead schedule",
    )
    campaign_sub = campaign.add_subparsers(
        dest="campaign_cmd", required=True
    )
    camp_run = campaign_sub.add_parser(
        "run",
        help="run a longitudinal campaign: N epochs of an evolving "
        "scenario into one campaign/ledger directory",
    )
    camp_run.add_argument("campaign_dir", metavar="DIR")
    camp_run.add_argument(
        "--plan", required=True, metavar="FILE",
        help="evolution plan JSON (see examples/evolution/) — per-"
        "epoch resolver churn, SAV remediation/regression, software "
        "drift, address reassignment",
    )
    camp_run.add_argument(
        "--epochs", type=int, required=True, metavar="N",
        help="number of epochs to schedule",
    )
    camp_run.add_argument("--seed", type=int, default=2019)
    camp_run.add_argument("--n-ases", type=int, default=120)
    camp_run.add_argument(
        "--duration", type=float, default=180.0, metavar="SECONDS",
        help="simulated scan duration per epoch",
    )
    camp_run.add_argument("--shards", type=int, default=1)
    camp_run.add_argument(
        "--partition", choices=("weighted", "modulo"), default="weighted",
        help="shard partition scheme; 'modulo' keeps shard membership "
        "stable across epochs, maximizing incremental-rescan reuse",
    )
    camp_run.add_argument(
        "--topology", choices=("star", "tiered"), default="star",
    )
    camp_run.add_argument(
        "--faults", default=None, metavar="FILE",
        help="fault plan applied to every epoch (reseeded per epoch "
        "by any fault-cycle clause in the evolution plan)",
    )
    camp_run.add_argument("--workers", type=int, default=None)
    camp_run.add_argument(
        "--failure-policy", choices=("abort", "skip"), default="abort",
        help="what to do when an epoch exhausts its attempts: abort "
        "the campaign (resumable) or mark it skipped and continue",
    )
    camp_run.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts per epoch before the failure policy applies",
    )
    camp_run.add_argument(
        "--backoff", type=float, default=0.0, metavar="SECONDS",
        help="base retry delay, doubled per attempt",
    )
    camp_run.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget: once exceeded, later epochs degrade "
        "to a deterministic sampled-AS subset instead of running full "
        "(recorded in schedule and provenance)",
    )
    camp_run.add_argument(
        "--degrade-rate", type=float, default=0.25, metavar="RATE",
        help="fraction of ASes a degraded epoch still scans",
    )
    camp_run.add_argument(
        "--no-incremental", action="store_true",
        help="disable the content-keyed shard cache (every epoch "
        "re-executes every shard)",
    )
    camp_run.add_argument("--quiet", action="store_true")
    camp_run.set_defaults(func=cmd_campaign)
    camp_resume = campaign_sub.add_parser(
        "resume",
        help="resume a crashed or aborted campaign from its "
        "write-ahead schedule",
    )
    camp_resume.add_argument("campaign_dir", metavar="DIR")
    camp_resume.add_argument("--workers", type=int, default=None)
    camp_resume.add_argument("--quiet", action="store_true")
    camp_resume.set_defaults(func=cmd_campaign)
    camp_status = campaign_sub.add_parser(
        "status",
        help="show a campaign's schedule, per-epoch digests, and "
        "ledger digest",
    )
    camp_status.add_argument("campaign_dir", metavar="DIR")
    camp_status.add_argument(
        "--json", action="store_true",
        help="emit the status payload as JSON",
    )
    camp_status.set_defaults(func=cmd_campaign)

    trend = sub.add_parser(
        "trend",
        help="longitudinal flip timelines and metric trajectories "
        "over a ledger",
    )
    trend.add_argument("ledger_dir", metavar="LEDGER_DIR")
    trend.add_argument(
        "--metric", default="asn-rate-v4",
        help="ledger stat to plot per lineage (default asn-rate-v4; "
        "see repro.obs.trend.METRIC_PATHS for choices)",
    )
    trend.add_argument(
        "--json", action="store_true",
        help="emit the versioned trend envelope as canonical JSON",
    )
    trend.set_defaults(func=cmd_trend)

    explain = sub.add_parser(
        "explain",
        help="reconstruct per-probe causal chains from events.ndjson",
    )
    explain.add_argument("run_dir", metavar="RUN_DIR")
    selector = explain.add_mutually_exclusive_group()
    selector.add_argument(
        "--probe", default=None, metavar="ID",
        help="explain one probe by its 16-hex-digit id",
    )
    selector.add_argument(
        "--qname", default=None, metavar="NAME",
        help="explain the probe that sent this experiment query name",
    )
    selector.add_argument(
        "--asn", type=int, default=None,
        help="summarize every probe sent toward this target AS",
    )
    selector.add_argument(
        "--audit", action="store_true",
        help="verify every classification is backed by journal "
        "evidence and headline counts match results.json; exit 1 on "
        "orphans",
    )
    explain.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of the narrative",
    )
    explain.set_defaults(func=cmd_explain)

    audit = sub.add_parser("audit", help="audit one AS")
    audit.add_argument("--asn", type=int, default=None)
    audit.add_argument("--n-ases", type=int, default=80)
    audit.add_argument("--seed", type=int, default=1234)
    audit.set_defaults(func=cmd_audit)

    lab = sub.add_parser("lab", help="controlled-lab artifacts")
    lab.add_argument("--queries", type=int, default=10_000)
    lab.set_defaults(func=cmd_lab)

    attack = sub.add_parser("attack", help="exposure demonstrations")
    attack.add_argument(
        "kind",
        choices=("poisoning", "nxns", "reflection", "zone", "all"),
        default="all",
        nargs="?",
    )
    attack.set_defaults(func=cmd_attack)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    from .obs.ledger import ObservatoryError
    from .rundir import RunDirectoryError

    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ObservatoryError, RunDirectoryError) as exc:
        # A run directory, run file or ledger a command refuses.
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # Downstream consumer (head, jq -e …) closed stdout; that is a
        # normal way to stop reading any of our output.  Detach stdout
        # so the interpreter's exit-time flush doesn't error again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
