"""One benchmark for the DSAV pipeline.

    python3 perfbench/run.py --workload chaos-forensics --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it puts ``src/`` on the workload
processes' path itself.  It is a closed loop: one workload iteration at
a time, each in a fresh process spawned from here, with the workload's
one shard worker below it.

``--seed`` sets ``PYTHONHASHSEED`` of every workload process, so a
run is reproducible down to hash ordering, and runs with different
seeds take different hash orderings through the same fixed world (see
``workloads.Workload``).  The reference digests are one per workload,
so they also check that no output depends on hash ordering.

``--trace 0`` repeats untraced iterations for ``--seconds`` (at least
two) and reports the median of each end-to-end metric.  ``--trace 1``
runs three untraced iterations, one traced iteration and, on
``chaos-forensics``, one cProfile iteration; it prints where a probe's
time goes and reports the per-layer metrics.  Every iteration's outputs are
checked against the reference digests in ``reference.json``; an error,
a digest mismatch or a re-executed shard makes the run fail and exit 1.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--record`` instead runs one traced iteration and stores its output
digests as the workload's reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import tracer
from workloads import WORKERS, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
#: Where runs leave their work directories and result envelopes,
#: relative to the checkout root.
RUNS_DIR = ".perfbench-runs"
#: Timed iterations per run, at least.
MIN_ITERATIONS = 2
#: Untraced iterations a traced run compares its traced one with.
UNTRACED = 3
#: Seconds one workload iteration may take before it is killed.
ITERATION_TIMEOUT = 150.0

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "scan_s": "s",
    "probes_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Iteration:
    """One workload process: its record, resource use and checks."""

    mode: str
    work: Path
    t_spawn: float
    record: dict
    exit_code: int
    cpu_s: float
    peak_rss_mb: float
    errors: list[str] = field(default_factory=list)
    trace: tracer.Trace | None = None
    runs: list[tracer.PipelineRun] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.record["t_end"] - self.t_spawn

    @property
    def import_s(self) -> float:
        return self.record["t_imported"] - self.t_spawn

    def end_to_end(self) -> dict[str, float]:
        runs = self.runs
        setup = runs[0].start - self.t_spawn + sum(
            run.build_end - run.start for run in runs
        )
        scan = sum(run.collect_start - run.build_end for run in runs)
        return {
            "wall_s": self.wall_s,
            "setup_s": setup,
            "scan_s": scan,
            "probes_per_s": self.record["probes_sent"] / scan,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
        }


class Bench:
    """Spawns and checks the iterations of one workload run."""

    def __init__(self, root: Path, work_root: Path, workload, seed: int,
                 smoke: bool, expected: dict | None) -> None:
        self.root = root
        self.work_root = work_root
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.expected = expected
        self.cache = work_root / "scenario-cache"
        self.count = 0

    def spawn(self, mode: str) -> Iteration:
        self.count += 1
        work = self.work_root / f"{self.count:02d}-{mode}"
        work.mkdir(parents=True)
        job = {
            "workload": self.workload.name,
            "smoke": self.smoke,
            "mode": mode,
            "work": str(work),
            "cache": str(self.cache),
        }
        env = dict(os.environ)
        # An operator's cache must not turn a cold build into a hit;
        # chaos-forensics names the benchmark's own cache explicitly.
        env.pop("REPRO_SCENARIO_CACHE", None)
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = str(self.seed % 2**32)
        with open(work / "log.txt", "wb") as log:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "workloads.py"),
                 json.dumps(job)],
                cwd=self.root, env=env, stdout=log,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
            status, usage = _wait(proc, ITERATION_TIMEOUT)
        record_path = work / "record.json"
        record = (
            json.loads(record_path.read_text())
            if record_path.exists()
            else {"error": "the workload process wrote no record"}
        )
        it = Iteration(
            mode=mode,
            work=work,
            t_spawn=t_spawn,
            record=record,
            exit_code=status,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
        )
        if mode != "warm":
            self.check(it)
        elif status != 0 or record.get("error"):
            raise RuntimeError(
                f"set-up failed:\n{record.get('error') or _tail(work)}"
            )
        return it

    def check(self, it: Iteration) -> None:
        """Collect every reason *it* counts as a failed run."""
        if it.record.get("error") or it.exit_code != 0:
            it.errors.append(
                "raised: "
                + (it.record.get("error") or f"exit {it.exit_code}").strip()
                + f"\n{_tail(it.work)}"
            )
            return
        if it.mode in ("timed", "traced"):
            try:
                it.trace = tracer.load_trace(it.work / "spans")
                it.runs = tracer.pipeline_runs(it.trace)
            except (OSError, ValueError) as exc:
                it.errors.append(f"stage clock: {exc}")
                return
            for run in it.runs:
                stats = run.note["scan_stats"]
                again = {k: v for k, v in stats.items() if v > 1}
                if again:
                    it.errors.append(f"re-executed shards: {again}")
        for epoch in it.record.get("epochs", []):
            if epoch["status"] != "done" or epoch["attempts"] != 1:
                it.errors.append(f"epoch not clean: {epoch}")
        if self.expected is not None:
            for key, want in self.expected["digests"].items():
                got = it.record["digests"].get(key)
                if got != want:
                    it.errors.append(
                        f"digest mismatch: {key} {got!r} != {want!r}"
                    )


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap *proc* with its rusage (children it waited for included);
    kill its whole process group once *timeout* passes."""
    deadline = time.monotonic() + timeout
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                _killpg(proc.pid)
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
    except BaseException:
        # Interrupted (SIGTERM, Ctrl-C): the iteration goes down too.
        _killpg(proc.pid)
        os.wait4(proc.pid, 0)
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Stragglers of a crashed run (orphaned shard workers) share the
    # group; nothing of an iteration may outlive it.
    _killpg(proc.pid)
    return proc.returncode, usage


def _killpg(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _tail(work: Path, lines: int = 15) -> str:
    log = work / "log.txt"
    if not log.exists():
        return ""
    return "\n".join(log.read_text(errors="replace").splitlines()[-lines:])


# ---------------------------------------------------------------------------
# per-layer metrics from one traced iteration
# ---------------------------------------------------------------------------


class LayerView:
    """Counts, self and total seconds per point of one trace."""

    def __init__(self, trace: tracer.Trace) -> None:
        self.trace = trace
        selfs = tracer.self_times(trace.starts, trace.ends, trace.parents)
        n = len(trace.names)
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        for kind, start, end, own in zip(
            trace.kinds, trace.starts, trace.ends, selfs
        ):
            self.self_s[kind] += own
            self.total_s[kind] += end - start

    def _kinds(self, names):
        return [self.trace.names.index(name) for name in names]

    def count(self, *names: str) -> int:
        return sum(self.trace.counts[k] for k in self._kinds(names))

    def own(self, *names: str) -> float:
        return sum(self.self_s[k] for k in self._kinds(names))

    def total(self, *names: str) -> float:
        return sum(self.total_s[k] for k in self._kinds(names))

    def value(self, *names: str) -> float:
        return sum(self.trace.sums[k] for k in self._kinds(names))

    def layers(self) -> dict[str, tuple[int, float]]:
        """``{layer: (calls, self seconds)}`` over every span point."""
        out: dict[str, tuple[int, float]] = {}
        for kind, layer in enumerate(self.trace.layers):
            if layer not in tracer.LAYER_MODULES:
                continue
            calls, own = out.get(layer, (0, 0.0))
            out[layer] = (
                calls + self.trace.counts[kind], own + self.self_s[kind]
            )
        return out


def _per_call(seconds: float, calls: int) -> float:
    return seconds / calls * 1e6 if calls else 0.0


def layer_metrics(traced: Iteration, untraced_wall: float) -> dict:
    """Every per-layer metric, as ``{name: (value, unit)}``;
    *untraced_wall* is the median wall of the untraced iterations."""
    trace, rec = traced.trace, traced.record
    view = LayerView(trace)
    runs = traced.runs
    shards = [
        (start, note)
        for name, start, _end, note, _proc in trace.notes
        if name == "pipeline.run_scan_shard"
    ]
    shard_kind = trace.names.index("pipeline.run_scan_shard")
    shard_spans = [
        (start, end)
        for kind, start, end in zip(trace.kinds, trace.starts, trace.ends)
        if kind == shard_kind
    ]
    balances, overhead, acquire = [], 0.0, 0.0
    for run in runs:
        scans = [
            note["timings"].get("scan_seconds", 0.0)
            for start, note in shards
            if run.start <= start <= run.end
        ]
        acquire += sum(
            note["timings"].get("acquire_seconds", 0.0)
            for start, note in shards
            if run.start <= start <= run.end
        )
        if len(scans) >= 2 and max(scans) > 0:
            balances.append(min(scans) / max(scans))
        # The scan stage minus the time some shard was running, which
        # holds whether the shards ran in parallel, one after another
        # on one worker, or inline.
        running = tracer.union_length([
            (max(start, run.build_end), min(end, run.collect_start))
            for start, end in shard_spans
            if run.start <= start <= run.end
        ])
        overhead += run.collect_start - run.build_end - running
    builds = [
        (note, end - start)
        for name, start, end, note, _ in trace.notes
        if name == "scenarios.build_or_load"
    ]
    blobs = [note.get("bytes", 0) for note, _ in builds] + [
        note["bytes"]
        for name, _s, _e, note, _ in trace.notes
        if name == "scenarios.serialize_scenario"
    ]
    probes = rec["probes_sent"]
    sends = view.count("fabric.Fabric.send")
    delivered = view.count(
        "host.DNSHost.handle_packet", "host.Host.handle_packet"
    )
    processed = view.value("events.EventLoop.run", "events.EventLoop.run_until")
    events_self = view.own("events.EventLoop.run", "events.EventLoop.run_until")
    resolver = (
        "resolver.RecursiveResolver.handle_dns",
        "resolver.RecursiveResolver.handle_dns_response",
    )
    faults = (
        "faults.FaultInjector.drop_reason",
        "faults.FaultInjector.delivery_mods",
        "faults.FaultInjector.apply_route_events",
    )
    auth = "auth.AuthoritativeServer.handle_dns"
    roots = [
        (s, e)
        for s, e, p in zip(trace.starts, trace.ends, trace.parents)
        if p < 0
    ]
    covered = tracer.union_length(
        [(max(s, rec["t_imported"]), min(e, rec["t_end"])) for s, e in roots]
    )
    wall = traced.wall_s
    s, n, r, mb, us = "s", "count", "ratio", "MB", "us"
    return {
        "pipeline.import_s": (traced.import_s, s),
        "pipeline.build_s": (sum(x.build_end - x.start for x in runs), s),
        "pipeline.collect_s": (
            sum(x.analyze_start - x.collect_start for x in runs), s),
        "pipeline.analyze_s": (
            sum(x.report_start - x.analyze_start for x in runs), s),
        "pipeline.report_s": (sum(x.end - x.report_start for x in runs), s),
        "pipeline.shard_execs": (
            sum(sum(x.note["scan_stats"].values()) for x in runs), n),
        "pipeline.shard_balance": (
            statistics.fmean(balances) if balances else 1.0, r),
        "pipeline.scan_overhead_s": (overhead, s),
        "pipeline.shard_cache_hits": (
            sum(len(x.note["cache_hits"]) for x in runs), n),
        "pipeline.artifact_mb": (rec.get("artifact_bytes", 0) / 1e6, mb),
        "scenarios.build_s": (view.total("scenarios.build_internet"), s),
        "scenarios.load_s": (
            sum(t for note, t in builds if note["source"] == "cache"), s),
        "scenarios.serialize_s": (
            view.total("scenarios.serialize_scenario"), s),
        "scenarios.blob_mb": (max(blobs, default=0) / 1e6, mb),
        "scenarios.acquire_s": (acquire, s),
        "scanner.probes_sent": (probes, n),
        "scanner.retransmits": (rec["retransmits"], n),
        "scanner.packets_per_probe": (sends / probes if probes else 0.0, r),
        "scanner.schedule_s": (
            view.total("scanner.Scanner.schedule_campaign"), s),
        "scanner.send_self_s": (view.own("scanner.ScanClient.send_query"), s),
        "followup.launches": (view.count("followup.FollowUpEngine.launch"), n),
        "followup.self_s": (view.own("followup.FollowUpEngine.launch"), s),
        "events.processed": (processed, n),
        "events.self_s": (events_self, s),
        "events.us_per_event": (_per_call(events_self, int(processed)), us),
        "fabric.sends": (sends, n),
        "fabric.self_s": (view.own("fabric.Fabric.send"), s),
        "fabric.delivered_ratio": (delivered / sends if sends else 0.0, r),
        "routing.lookups": (view.count("routing.RoutingTable.lookup"), n),
        "routing.self_s": (view.own("routing.RoutingTable.lookup"), s),
        "faults.calls": (view.count(*faults), n),
        "faults.self_s": (view.own(*faults), s),
        "codec.encodes": (view.count("codec.Message.to_wire"), n),
        "codec.encode_s": (view.own("codec.Message.to_wire"), s),
        "codec.decodes": (view.count("codec.Message.from_wire"), n),
        "codec.decode_s": (view.own("codec.Message.from_wire"), s),
        "codec.bytes": (
            view.value("codec.Message.to_wire", "codec.Message.from_wire"), n),
        "host.packets": (delivered, n),
        "host.self_s": (
            view.own("host.DNSHost.handle_packet", "host.Host.handle_packet"),
            s),
        "resolver.calls": (view.count(*resolver), n),
        "resolver.self_s": (view.own(*resolver), s),
        "resolver.us_per_call": (
            _per_call(view.own(*resolver), view.count(*resolver)), us),
        "auth.queries": (view.count(auth), n),
        "auth.self_s": (view.own(auth), s),
        "auth.us_per_query": (_per_call(view.own(auth), view.count(auth)), us),
        "collector.records": (view.count("collector.Collector.on_record"), n),
        "collector.self_s": (view.own("collector.Collector.on_record"), s),
        "collector.merge_s": (
            view.total("collector.Collector.absorb_payload",
                       "collector.Collector.canonicalize"), s),
        "analyze.results_s": (view.total("analyze.Campaign.results_dict"), s),
        "report.render_s": (view.total("report.Campaign.full_report"), s),
        "journal.lines": (view.value("journal.Journal.flush"), n),
        "journal.mb": (rec.get("journal_bytes", 0) / 1e6, mb),
        "journal.flush_s": (view.total("journal.Journal.flush"), s),
        "journal.merge_s": (view.total("journal.merge_shard_journals"), s),
        "journal.classify_s": (
            view.total("journal.append_classifications"), s),
        "stream.snapshots": (
            view.value("stream.TelemetrySnapshotter.snapshot"), n),
        "stream.snapshot_s": (
            view.total("stream.TelemetrySnapshotter.snapshot"), s),
        "metrics.merge_s": (
            view.total("metrics.MetricsRegistry.merge_payload"), s),
        "campaign.epochs": (len(rec.get("epochs", [])), n),
        "campaign.schedule_write_s": (
            view.total("campaign.CampaignSupervisor.save_schedule"), s),
        "evolution.evolve_s": (view.total("evolution.evolve_spec"), s),
        "shardcache.load_s": (view.total("shardcache.ShardCache.load"), s),
        "shardcache.store_s": (view.total("shardcache.ShardCache.store"), s),
        "ledger.record_s": (view.total("ledger.Ledger.record"), s),
        "trace.overhead": (wall / untraced_wall, r),
        "trace.unattributed_share": (
            max(0.0, wall - traced.import_s - covered) / wall, r),
        "trace.spans": (len(trace.kinds), n),
    }


def layer_table(traced: Iteration) -> list[str]:
    """The "where a probe's time goes" table of one traced iteration."""
    view = LayerView(traced.trace)
    wall = traced.wall_s
    lines = [
        f"{'layer':<26}{'calls':>10}{'self s':>10}{'of wall':>9}"
        f"{'us/call':>10}"
    ]
    layers = view.layers()
    # The loop's spans are whole drain calls; count its events instead.
    layers["events"] = (
        int(view.value("events.EventLoop.run", "events.EventLoop.run_until")),
        layers["events"][1],
    )
    for layer, (calls, own) in sorted(
        layers.items(), key=lambda item: -item[1][1]
    ):
        if calls:
            lines.append(
                f"{tracer.LAYER_MODULES[layer]:<26}{calls:>10}{own:>10.3f}"
                f"{own / wall:>9.1%}{_per_call(own, calls):>10.2f}"
            )
    lines.append("(netsim.events calls are events processed)")
    return lines


def profile_comparison(traced: Iteration, profiled: Iteration) -> list[str]:
    """Span self-time shares beside cProfile shares, per layer."""
    view = LayerView(traced.trace)
    window = view.total("pipeline.run_scan_shard")
    shares = tracer.profile_shares(
        sorted((profiled.work / "run").glob("profile-*.pstats"))
    )
    lines = [f"{'layer':<26}{'spans':>8}{'cProfile':>10}{'diff':>8}"]
    for layer, share in shares.items():
        span_share = view.layers().get(layer, (0, 0.0))[1] / window
        lines.append(
            f"{tracer.LAYER_MODULES[layer]:<26}{span_share:>8.1%}"
            f"{share:>10.1%}{span_share - share:>+8.1%}"
        )
    return lines


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def timed_run(bench: Bench, seconds: float) -> tuple[list[Iteration], dict]:
    iterations: list[Iteration] = []
    start = time.perf_counter()
    while True:
        iterations.append(bench.spawn("timed"))
        elapsed = time.perf_counter() - start
        typical = elapsed / len(iterations)
        if (
            len(iterations) >= MIN_ITERATIONS
            and elapsed + typical > seconds
        ):
            break
    good = [it.end_to_end() for it in iterations if not it.errors]
    metrics = {}
    for name, unit in END_TO_END.items():
        values = [m[name] for m in good]
        if values:
            q1, median, q3 = _quartiles(values)
            metrics[name] = {
                "value": median, "unit": unit, "q1": q1, "q3": q3,
                "n": len(values),
            }
    return iterations, metrics


def traced_run(bench: Bench) -> tuple[list[Iteration], dict, list[str]]:
    # Untraced iterations on both sides of the traced one, so the
    # overhead ratio rests on a median, not on one sample.
    untraced = [bench.spawn("timed")]
    traced = bench.spawn("traced")
    untraced += [bench.spawn("timed") for _ in range(UNTRACED - 1)]
    iterations = [*untraced, traced]
    report: list[str] = []
    metrics = {}
    if not traced.errors and not any(it.errors for it in untraced):
        untraced_wall = statistics.median(it.wall_s for it in untraced)
        values = layer_metrics(traced, untraced_wall)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()
        }
        report += [f"where a probe's time goes ({bench.workload.name}, "
                   f"traced wall {traced.wall_s:.2f}s):"]
        report += layer_table(traced)
        for name in ("scanner.packets_per_probe", "pipeline.shard_balance",
                     "trace.overhead", "trace.unattributed_share"):
            report.append(f"{name} = {values[name][0]:.4g}")
        if traced.trace.missing:
            report.append(f"missing entry points: {traced.trace.missing}")
    if bench.workload.name == "chaos-forensics":
        profiled = bench.spawn("profiled")
        iterations.append(profiled)
        if not profiled.errors and traced.trace is not None:
            report += ["", "second opinion: span self time vs cProfile "
                       "own time, share of the shard scan (not gated):"]
            report += profile_comparison(traced, profiled)
    return iterations, metrics, report


def _source_identity(root: Path) -> dict:
    sha = None
    if (root / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True,
        )
        sha = done.stdout.strip() or None
    hasher = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        hasher.update(str(path.relative_to(root)).encode())
        hasher.update(path.read_bytes())
    return {"git_sha": sha, "source_sha256": hasher.hexdigest()}


def _versions() -> dict:
    out = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            out[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            out[package] = None
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="run the shrunken self-test size")
    parser.add_argument("--record", action="store_true",
                        help="store one traced iteration's digests as "
                        "the workload's reference")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: {root} has no src/repro; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    key = "smoke" if args.smoke else "full"
    reference = (
        json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    )
    expected = reference.get(args.workload, {}).get(key)
    if expected is None and not args.record:
        print(f"perfbench: {REFERENCE} has no {key} reference for "
              f"{args.workload}", file=sys.stderr)
        return 2
    runs = root / RUNS_DIR
    work_root = runs / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work_root, ignore_errors=True)
    bench = Bench(root, work_root, workload, args.seed, args.smoke,
                  None if args.record else expected)
    report: list[str] = []
    metrics: dict = {}
    try:
        try:
            bench.spawn("warm")
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        if args.record:
            iterations = [bench.spawn("traced")]
        elif args.trace:
            iterations, metrics, report = traced_run(bench)
        else:
            iterations, metrics = timed_run(bench, args.seconds)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    failed = [it for it in iterations if it.errors]
    for it in failed:
        print(f"FAILED {it.mode} iteration: " + "; ".join(it.errors),
              file=sys.stderr)
    if args.record:
        if failed:
            return 1
        reference.setdefault(args.workload, {})[key] = {
            "digests": iterations[0].record["digests"],
        }
        REFERENCE.write_text(
            json.dumps(reference, indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded {args.workload} {key}: "
              f"{reference[args.workload][key]}")
        return 0

    kind = "traced" if args.trace else "timed"
    envelope = {
        "benchmark": "perfbench",
        "kind": kind,
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        # The spec the product ran, as the workload process reported it.
        "spec": next(
            (it.record["spec"] for it in iterations if "spec" in it.record),
            None,
        ),
        **_source_identity(root),
        **_versions(),
        "nproc": os.cpu_count(),
        "workers": WORKERS,
        "seconds": args.seconds,
        "error_rate": len(failed) / len(iterations),
        "iterations": [
            {"mode": it.mode, "errors": it.errors,
             **({"end_to_end": it.end_to_end()}
                if it.mode == "timed" and not it.errors else {})}
            for it in iterations
        ],
        "metrics": metrics,
    }
    results_dir = runs / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    envelope_path = (
        results_dir / f"{args.workload}-{kind}-seed{args.seed}-{stamp}.json"
    )
    envelope_path.write_text(json.dumps(envelope, indent=1) + "\n")

    print(f"perfbench {args.workload} ({kind}), seed {args.seed}, "
          f"{len(iterations)} iteration(s), {WORKERS} worker(s)")
    for line in report:
        print(line)
    if not args.trace:
        print(f"{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}  n")
        for name, m in metrics.items():
            spread = (m["q3"] - m["q1"]) / m["value"] if m["value"] else 0
            print(f"{name:<16}{m['value']:>12.4f}{m['q1']:>12.4f}"
                  f"{m['q3']:>12.4f}{spread:>9.1%}  {m['n']}  {m['unit']}")
    print(f"error_rate = {envelope['error_rate']:.3f} ratio "
          f"({len(failed)} of {len(iterations)} iterations failed)")
    print(f"envelope: {envelope_path.relative_to(root)}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(iterations),
        "failed": len(failed),
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so the running iteration is killed and
    # the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    sys.exit(main())
