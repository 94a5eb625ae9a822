"""Benchmark of the CDC lake: one command, three workloads, oracles, tracing.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It starts Ray on this host's CPUs (``nproc``),
makes the workload's inputs from ``--seed`` (cached under ``.perfbench/``),
builds its starting state, runs warm-up and then timed operations back to
back (closed loop, one client) for ``--seconds`` seconds of operation time.
Every operation's output is checked against an independent oracle.

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are ``END_TO_END`` (tracing off), which every
workload reports:

- ``setup_s``: Ray start, input generation, the median of ``SETUP_REPS``
  builds of the starting state, and warm-up;
- ``op_cpu_s``: the median over operations of what one costs;
- ``rows_per_cpu_s``: the median over operations of rows of work (events
  applied, rows read, fact rows queried) per second of that cost;
- ``peak_rss_mb``: the driver plus its Ray processes, sampled twice a second.

Times here are CPU seconds of the driver and every Ray process below it
(``tracing.Clock``). The kernel leaves out the time the hypervisor gives to
other guests, so on a shared host they do not grow when a co-tenant takes the
core, as wall-clock times do. On one CPU with nothing else running they are
close to the wall time. Wall-clock figures (operation median and p90, the
workload's own figures such as ``round_p50_s``) are on the detail line and
among the per-layer metrics.

With ``--trace 1`` operations alternate between traced and untraced, and the
metrics are ``PER_LAYER``: span self times, the phase laps ``apply``
returns, counts, a layer-isolation pass over the worker-side kernels, the
tracing overhead (median traced minus median untraced operation), and the
workload's own figures (``WORKLOAD_FIGURES``) taken from its untraced
operations. A figure or layer the workload never touches reports 0. Spans
are written to ``.perfbench/traces/``. The line before the last one carries
detail (workload figures with sample counts, setup parts, host-noise probes,
versions) and is not a metric.

Workloads:

- ``backlog_replay``: full replays of a seeded change stream into a cold lake;
- ``tail_microbatch``: single-file tail rounds over a preloaded lake;
- ``read_mix``: scans, pruned lookups, change feeds, time travel, checksums
  and a warm pass over twelve registry queries.

Exit codes: 0 on success (even if the oracle found mismatches: ``correct``
says so), 2 if the package or its tools cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

END_TO_END = {
    "setup_s": "s",
    "op_cpu_s": "s",
    "rows_per_cpu_s": "rows/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "apply.plan_s": "s",
    "apply.scout_s": "s",
    "apply.merge_s": "s",
    "apply.commit_s": "s",
    "apply.self_s": "s",
    "tail.pending_inputs_s": "s",
    "manifest.read_s": "s",
    "manifest.bytes": "bytes",
    "manifest.versions": "count",
    "partitioner.salted_domains": "count",
    "partitioner.migrations": "count",
    "normalize.ns_per_row": "ns",
    "normalize.rows_in": "rows",
    "normalize.rows_out": "rows",
    "normalize.rows_quarantined": "rows",
    "text.extract_ns_per_row": "ns",
    "text.extract_mb_per_s": "MB/s",
    "hashing.assign_parts_ns_per_row": "ns",
    "taskshuffle.split_p50_s": "s",
    "taskshuffle.split_max_s": "s",
    "taskshuffle.bytes_out": "bytes",
    "taskshuffle.bucket_skew": "ratio",
    "merge.part_p50_s": "s",
    "merge.part_max_s": "s",
    "merge.slowest_part": "id",
    "merge.rows_delta": "rows",
    "merge.rows_carried": "rows",
    "merge.carry_per_delta": "ratio",
    "merge.bytes_written": "bytes",
    "merge.ns_per_row": "ns",
    "zonemaps.plan_s": "s",
    "zonemaps.files_kept_frac": "ratio",
    "changefeed.parts_pruned_frac": "ratio",
    "changefeed.rows_out": "rows",
    "trace.overhead_s": "s",
    "oracle.mismatch_rows": "rows",
}

#: each workload's own end-to-end figures, from untraced operations; one
#: workload reports a few of them and 0 for the rest
WORKLOAD_FIGURES = {
    "backlog_events_per_s": "events/s",
    "round_p50_s": "s",
    "round_p90_s": "s",
    "tail_events_per_s": "events/s",
    "write_amp": "ratio",
    "space_amp": "ratio",
    "scan_rows_per_s": "rows/s",
    "lookup_p50_s": "s",
    "lookup_p90_s": "s",
    "changefeed_p50_s": "s",
    "queries_s": "s",
}

#: the state-building part of set-up is repeated this often and the median
#: reported, so a single slow repetition does not move ``setup_s``
SETUP_REPS = 3


def _per_layer_names() -> dict[str, str]:
    from perfbench.workloads import QUERIES

    names = dict(PER_LAYER)
    names.update(WORKLOAD_FIGURES)
    names.update({f"relational.{q}_s": "s" for q in QUERIES})
    return names


class Ctx:
    def __init__(self, args, tracer):
        from perfbench.tracing import Clock

        self.seed = args.seed
        self.seconds = args.seconds
        self.size = args.size
        self.tracer = tracer
        #: times the timed parts of each operation
        self.clock = Clock()
        base = os.path.join(ROOT, ".perfbench")
        self.cache_dir = os.path.join(base, "inputs")
        self.work_dir = os.path.join(base, "work", str(os.getpid()))
        self.trace_dir = os.path.join(base, "traces")
        self.ray_dir = os.path.join(base, "ray")
        #: per timed operation: was it traced
        self.traced_ops: list[bool] = []


def nproc() -> int:
    """CPUs as GNU ``nproc`` counts them: ``OMP_NUM_THREADS`` when set, else
    the CPUs this process may run on."""
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return int(omp) if omp.isdigit() and int(omp) > 0 else len(os.sched_getaffinity(0))


def _ray_start(ctx) -> int:
    import logging

    import ray

    cpus = nproc()
    # workers import the package from the checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    kw = {}
    tmp = ctx.ray_dir
    # Ray's unix sockets live under <tmp>/session_<stamp>/sockets/ and a
    # socket path may not exceed 107 bytes; a deep checkout uses Ray's default
    if len(tmp) <= 40:
        kw["_temp_dir"] = tmp
    ray.init(
        address="local",
        num_cpus=cpus,
        object_store_memory=256 * 2**20,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        # keep the workers warm-up started: by default Ray stops a worker
        # idle for 1 s beyond one per CPU, and the next operation pays for a
        # new one's start-up, so that a third of read_mix's operations did
        _system_config={"idle_worker_killing_time_threshold_ms": 3_600_000},
        **kw,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    return cpus


def _probe() -> float:
    from tools import scaling_campaign

    try:
        return scaling_campaign.probe_once()
    finally:
        scaling_campaign._PROBE_BUFS = None  # give the 576 MiB back


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    try:
        import radiant_portal_pipeline_ray  # noqa: F401
        from tools import scaling_campaign  # noqa: F401

        from perfbench.tracing import Clock, PeakRss, Tracer, descendants, stop_all
        from perfbench.workloads import WORKLOADS, pctl
    except ImportError as e:
        print(f"perfbench: cannot import the program under test: {e}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    import pyarrow
    import ray

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    tracer = Tracer(run_id, enabled=False)
    ctx = Ctx(args, tracer)
    wl = WORKLOADS[args.workload](ctx)
    detail: dict = {"workload": args.workload, "seed": args.seed, "run": run_id}
    detail["probe_before_s"] = _probe()
    sessions_before = set(os.listdir(ctx.ray_dir)) if os.path.isdir(ctx.ray_dir) else set()

    ray_pids: list[int] = []
    cpus = None
    try:
        clock = ctx.clock
        with clock.part() as ray_t:
            cpus = _ray_start(ctx)
        ray_pids = descendants(os.getpid())
        with clock.part() as gen_t:
            wl.generate()
        reps = []
        for _ in range(SETUP_REPS):
            with clock.part() as t:
                wl.setup()
            reps.append(t)
        wl.prepare_oracle()
        with clock.part() as warm_t:
            wl.warmup()
        setup_s = (
            ray_t["cpu"] + gen_t["cpu"] + _median([t["cpu"] for t in reps]) + warm_t["cpu"]
        )

        lat_on, lat_off, cpu_off, rate_off, started, attempted, failed = [], [], [], [], [], 0, 0
        rows_off, busy = 0, 0.0
        with PeakRss() as rss:
            i = 0
            while busy < args.seconds and not wl.exhausted():
                traced = bool(args.trace) and i % 2 == 1
                tracer.enabled = traced
                ctx.traced_ops.append(traced)
                attempted += 1
                clock.reset()
                try:
                    dt, n, ok = wl.op(i + 1)
                except Exception as e:  # a failed operation is counted, not fatal
                    print(f"perfbench: operation {i + 1} failed: {e!r}", file=sys.stderr)
                    failed += 1
                    break
                tracer.enabled = False
                if traced:
                    lat_on.append(dt)
                else:
                    lat_off.append(dt)
                    cpu_off.append(clock.cpu)
                    started.append(clock.started)
                    rate_off.append(n / clock.cpu if clock.cpu > 0 else 0.0)
                    rows_off += n
                busy += dt
                failed += 0 if ok else 1
                i += 1
        tracer.enabled = False
        busy_off = sum(lat_off)
        figures = wl.finish(lat_off, rows_off)
        detail.update(
            {
                "figures": figures,
                "ops_untraced": len(lat_off),
                "ops_traced": len(lat_on),
                "op_p50_s": _median(lat_off),
                "op_p90_s": pctl(lat_off, 0.9),
                "rows_per_s": rows_off / busy_off if busy_off else 0.0,
                "op_cpu_s_all": cpu_off,
                "processes_started_per_op": started,
                "setup_parts": {"ray": ray_t, "generate": gen_t,
                                "generated_now": wl.generated,
                                "state": reps, "warmup": warm_t},
                "oracle_mismatch_rows": wl.mismatch_rows,
            }
        )
        metrics = {
            "setup_s": setup_s,
            "op_cpu_s": _median(cpu_off),
            "rows_per_cpu_s": _median(rate_off),
            "peak_rss_mb": rss.peak_mb,
        }
        if args.trace:
            metrics = layer_metrics(wl, ctx, lat_on, lat_off, detail)
            tracer.dump(os.path.join(ctx.trace_dir, f"{run_id}.json"))
    finally:
        ray.shutdown()
        left = stop_all(ray_pids + descendants(os.getpid()))
        if left:
            print(f"perfbench: processes would not stop: {left}", file=sys.stderr)
        shutil.rmtree(ctx.work_dir, ignore_errors=True)
        if os.path.isdir(ctx.ray_dir):
            for d in set(os.listdir(ctx.ray_dir)) - sessions_before:
                shutil.rmtree(os.path.join(ctx.ray_dir, d), ignore_errors=True)

    detail["probe_after_s"] = _probe()
    detail["host"] = {
        "nproc": nproc(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ray_cpus": cpus,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "python": platform.python_version(),
    }
    units = END_TO_END if not args.trace else _per_layer_names()
    failed += 1 if wl.mismatch_rows and not failed else 0
    print(json.dumps({"detail": detail}, default=str))
    print(
        json.dumps(
            {
                "correct": wl.mismatch_rows == 0 and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()
                },
            }
        )
    )
    return 0


def layer_metrics(wl, ctx, lat_on, lat_off, detail) -> dict:
    """Per-layer figures of a traced run (names in ``PER_LAYER``); a layer the
    workload never calls reports 0."""
    from perfbench.layers import isolation_pass

    tr = ctx.tracer
    out = {k: 0.0 for k in _per_layer_names()}
    out.update(wl.layer_metrics())

    apply_self = {}
    for s in tr.named("apply"):
        apply_self[s["id"]] = tr.self_time(s)
    out["apply.self_s"] = _median(list(apply_self.values()))
    out["manifest.read_s"] = _median(
        [s["end"] - s["start"] for s in tr.named("manifest.read")]
    )
    flat = [r for reps in wl.reports for r in (reps if isinstance(reps, list) else [reps])]
    out["partitioner.salted_domains"] = sum(len(r.get("salted_domains", [])) for r in flat)
    out["partitioner.migrations"] = sum(1 for r in flat if r.get("migrated_domains"))
    out.update({k: v for k, v in detail["figures"].items() if k in WORKLOAD_FIGURES})
    out["trace.overhead_s"] = (
        _median(lat_on) - _median(lat_off) if lat_on and lat_off else 0.0
    )
    out["oracle.mismatch_rows"] = wl.mismatch_rows

    engine, paths = wl.isolation_inputs()
    man = engine.lake.current_manifest()
    if man is not None:
        mdir = engine.lake.manifest_dir
        names = sorted(os.listdir(mdir))  # zero-padded: the last is current
        out["manifest.bytes"] = os.path.getsize(os.path.join(mdir, names[-1]))
        out["manifest.versions"] = len(engine.lake.versions())
    out.update(isolation_pass(engine, paths, os.path.join(ctx.work_dir, "isolation")))
    detail["spans"] = len(tr.spans)
    detail["self_s_by_span"] = tr.self_times_by_name()
    return out


if __name__ == "__main__":
    sys.exit(main())
