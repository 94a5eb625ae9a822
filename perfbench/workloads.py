"""The three workloads. Each is a closed loop with one client: an operation
starts when the previous one has returned.

A workload object goes through, in order:

- ``generate()``: make (or reuse) its seeded input files;
- ``setup()``: build the state its operations start from (called several
  times; each call starts from scratch and the last one is kept);
- ``prepare_oracle()``: compute the expected results (not timed);
- ``warmup()``: untimed operations;
- ``op()`` repeatedly, until the run's time is up or ``exhausted()``: one
  timed operation, returning its time, the rows of work it did, and whether
  its output passed the oracle;
- ``finish()``: final checks, and the workload's own figures (names in
  ``run.WORKLOAD_FIGURES``) from the untraced operations;
- ``layer_metrics()`` in a traced run.

Operations use only the public API of ``radiant_portal_pipeline_ray``.
"""

from __future__ import annotations

import math
import os
import shutil
import statistics

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import inputs, oracle

#: per-workload sizes; "tiny" is for the benchmark's own tests
SIZES = {
    "full": {
        "backlog_replay": dict(events=20_000, urls=2_000, files=16, rounds=4),
        "tail_microbatch": dict(urls=2_000, preload=3_000, round=200, warm=3),
        "read_mix": dict(urls=2_000, first=3_000, versions=6, delta=300,
                         lookups=6, rows_per_file=64, customers=400,
                         orders=4_000, lineitems=16_000, users=200, events=8_000),
    },
    "tiny": {
        "backlog_replay": dict(events=2_000, urls=200, files=4, rounds=2),
        "tail_microbatch": dict(urls=300, preload=400, round=50, warm=2),
        "read_mix": dict(urls=300, first=400, versions=4, delta=60,
                         lookups=2, rows_per_file=16, customers=40, orders=300,
                         lineitems=1_000, users=20, events=600),
    },
}

#: tail rounds are generated for rounds this fast (seconds), 2.5 times
#: faster than the 0.25 s a round takes on one CPU, so a faster engine still
#: fills a run; a run that uses them all up ends early
TAIL_FASTEST_ROUND_S = 0.1

#: the queries ROADMAP direction 3 rewrites, plus two reference shapes;
#: value = the fact table each one scans (rows of work per run)
QUERIES = {
    "q_ntile_user_quartiles": "events",
    "q_lead_next_event": "events",
    "q_event_gaps": "events",
    "q_running_total": "events",
    "q_moving_sum3": "events",
    "q_trailing_hour_sum": "events",
    "q_price_percent_ranks": "orders",
    "q_order_price_ranks": "orders",
    "q_top3_orders_per_customer": "orders",
    "q_latest_order_per_customer": "orders",
    "q1_pricing_summary": "lineitem",
    "q_region_revenue": "orders",
}

N_PARTS = 8


def materialize(ds) -> pa.Table:
    """A Dataset (or table) as one driver-side table; runs the whole plan."""
    import ray

    if isinstance(ds, pa.Table):
        return ds
    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    if not tabs:
        return ds.schema().base_schema.empty_table()
    return pa.concat_tables(tabs, promote_options="permissive")


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(r, f)) for r, _, fs in os.walk(path) for f in fs
    )


def pctl(xs: list[float], q: float) -> float:
    xs = sorted(xs)
    return xs[min(len(xs) - 1, int(q * len(xs)))] if xs else 0.0


def lake_amplification(engine, versions: list[int], applied_bytes: int) -> dict:
    """Delta-Lake cost model of copy-on-write, from the manifests alone.

    ``write_amp``: data-file bytes newly referenced by each of ``versions``,
    summed, over the change-file bytes those versions applied.
    ``space_amp``: bytes under the lake root over bytes of the files live in
    the current manifest.
    """
    lake = engine.lake

    def files(v):
        return {f for st in lake.read_manifest(v).partitions.values() for f in st.files}

    new_bytes = 0
    for v in versions:
        prev = files(v - 1) if v > 1 else set()
        new_bytes += sum(os.path.getsize(lake.abspath(f)) for f in files(v) - prev)
    cur = lake.current_manifest()
    live_bytes = sum(
        os.path.getsize(lake.abspath(f))
        for st in cur.partitions.values()
        for f in st.files
    )
    return {
        "write_amp": new_bytes / applied_bytes if applied_bytes else 0.0,
        "space_amp": _dir_bytes(lake.root) / live_bytes if live_bytes else 0.0,
    }


class Workload:
    name = ""
    why = ""

    def __init__(self, ctx):
        self.ctx = ctx
        self.size = SIZES[ctx.size][self.name]
        self.mismatch_rows = 0
        #: apply reports of timed operations (salting / migration counts)
        self.reports: list[dict] = []

    # -- helpers -------------------------------------------------------
    def work(self, *parts: str) -> str:
        return os.path.join(self.ctx.work_dir, *parts)

    def check(self, n_bad: int) -> bool:
        self.mismatch_rows += n_bad
        return n_bad == 0

    def trace_engine(self, engine) -> None:
        """Spans around the engine's apply and manifest reads, including the
        calls the package makes internally (tail → apply → manifest)."""
        tr = self.ctx.tracer
        tr.wrap(engine, "apply", "apply",
                annotate=lambda rep: {"timings": rep.get("timings", {})})
        tr.wrap(engine.lake, "current_manifest", "manifest.read")

    def apply_layers(self, ops: list[list[dict]]) -> dict:
        """Phase laps of the apply calls made by traced operations: per op the
        sum over its apply calls, then the median over ops."""
        out = {}
        for phase in ("plan", "scout", "merge", "commit"):
            per_op = [
                sum(r.get("timings", {}).get(phase, 0.0) for r in reps)
                for reps in ops
            ]
            out[f"apply.{phase}_s"] = statistics.median(per_op) if per_op else 0.0
        return out

    # -- interface -----------------------------------------------------
    def generate(self) -> None: ...
    def setup(self) -> None: ...
    def prepare_oracle(self) -> None: ...
    def warmup(self) -> None: ...
    def op(self, i: int) -> tuple[float, int, bool]: ...
    def exhausted(self) -> bool:
        return False
    def finish(self, lat: list[float], rows: int) -> dict: ...
    def isolation_inputs(self) -> tuple[object, list[str]]: ...
    def layer_metrics(self) -> dict:
        return {}


class BacklogReplay(Workload):
    """A cold lake takes a whole zipf-skewed change stream in a few large
    apply rounds. Each operation is one full replay into a fresh lake."""

    name = "backlog_replay"

    def generate(self):
        s = self.size
        per = s["events"] // s["files"]
        self.spec = inputs.StreamSpec(
            n_urls=s["urls"], n_domains=50, file_events=(per,) * s["files"],
            seed=self.ctx.seed,
        )
        key = f"{self.name}-{self.ctx.size}-s{self.ctx.seed}"
        d, self.generated = inputs.cached(
            self.ctx.cache_dir, key, inputs.write_stream, self.spec
        )
        self.paths = sorted(
            os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
        )
        step = len(self.paths) // s["rounds"]
        self.rounds = [self.paths[i : i + step] for i in range(0, len(self.paths), step)]
        self.n_events = sum(pq.ParquetFile(p).metadata.num_rows for p in self.paths)
        self.bytes_in = sum(os.path.getsize(p) for p in self.paths)

    def config(self):
        from radiant_portal_pipeline_ray import EngineConfig

        # hot domains cross the threshold, so the bootstrap pre-salts them
        ev = self.size["events"]
        return EngineConfig(
            n_parts=N_PARTS, salt_threshold_rows=ev // 8, salt_target_rows=ev // 4
        )

    def setup(self):
        pass  # every replay starts from an empty lake

    def prepare_oracle(self):
        self.state = oracle.lww_fold([pq.read_table(p) for p in self.paths])

    def replay(self):
        from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine

        lake = self.work("lake")
        shutil.rmtree(lake, ignore_errors=True)
        engine = CdcEngine(lake, self.config())
        self.trace_engine(engine)
        reps = []
        with self.ctx.clock.part() as t:
            for r in self.rounds:
                reps.append(engine.apply(r))
        dt = t["wall"]
        snap = engine.snapshot_table(columns=["url", "lsn", "html", "text"])
        self.engine = engine
        return dt, reps, snap

    def warmup(self):
        _, _, snap = self.replay()
        self.check(oracle.snapshot_mismatch(snap, self.state))

    def op(self, i):
        dt, reps, snap = self.replay()
        self.reports.append(reps)
        ok = self.check(oracle.snapshot_mismatch(snap, self.state))
        return dt, self.n_events, ok

    def finish(self, lat, rows):
        eng = self.engine
        return {
            "backlog_events_per_s": rows / sum(lat) if lat else 0.0,
            "replays": len(lat),
            **lake_amplification(eng, eng.lake.versions(), self.bytes_in),
        }

    def isolation_inputs(self):
        return self.engine, self.rounds[-1]

    def layer_metrics(self):
        traced = [r for r, t in zip(self.reports, self.ctx.traced_ops) if t]
        return self.apply_layers(traced)


class TailMicrobatch(Workload):
    """Single-file rounds land in a watched directory over a preloaded lake
    and are applied by ``tail(..., max_rounds=1)``. The salt threshold is set
    from the oracle so the hot domain is salted, then migrated, within the
    first timed rounds."""

    name = "tail_microbatch"

    def generate(self):
        s = self.size
        n_tail = s["warm"] + max(100, math.ceil(self.ctx.seconds / TAIL_FASTEST_ROUND_S))
        n_pre = 3
        self.spec = inputs.StreamSpec(
            n_urls=s["urls"], n_domains=50,
            file_events=(s["preload"] // n_pre,) * n_pre + (s["round"],) * n_tail,
            seed=self.ctx.seed,
        )
        key = f"{self.name}-{self.ctx.size}-s{self.ctx.seed}-n{n_tail}"
        d, self.generated = inputs.cached(
            self.ctx.cache_dir, key, inputs.write_stream, self.spec
        )
        paths = sorted(os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet"))
        self.preload_paths, self.tail_paths = paths[:n_pre], paths[n_pre:]
        self.urls, self.url_domain = inputs.stream_urls(self.spec)

    def setup(self):
        from radiant_portal_pipeline_ray import EngineConfig
        from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine

        self.lake = self.work("lake")
        self.watch = self.work("incoming")
        for d in (self.lake, self.watch):
            shutil.rmtree(d, ignore_errors=True)
        os.makedirs(self.watch)
        never = 10**12
        CdcEngine(
            self.lake,
            EngineConfig(n_parts=N_PARTS, salt_threshold_rows=never,
                         salt_target_rows=never),
        ).apply(self.preload_paths)
        self.landed = 0

    def prepare_oracle(self):
        from radiant_portal_pipeline_ray import EngineConfig
        from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine

        self.pre_events = [pq.read_table(p) for p in self.preload_paths]
        state = oracle.lww_fold(self.pre_events)
        # live rows of the hot domain after the preload and each tail file
        hot = set(self.urls[self.url_domain == 0])
        def hot_live(st):
            lv = oracle.live(st).column("url").to_pylist()
            return sum(1 for u in lv if u in hot)
        seen = [hot_live(state)]
        warm = self.size["warm"]
        for p in self.tail_paths[:warm]:
            state = oracle.lww_fold([pq.read_table(p)], state)
            seen.append(hot_live(state))
        threshold = max(seen) + 1
        self.engine = CdcEngine(
            self.lake,
            EngineConfig(n_parts=N_PARTS, salt_threshold_rows=threshold,
                         salt_target_rows=max(1, threshold // 2)),
        )
        self.salt_threshold = threshold

    def land(self) -> str:
        """Atomically publish the next change file; returns its path."""
        src = self.tail_paths[self.landed]
        dst = os.path.join(self.watch, os.path.basename(src))
        tmp = dst + ".part"
        shutil.copyfile(src, tmp)
        os.replace(tmp, dst)
        self.landed += 1
        return dst

    def round(self):
        from radiant_portal_pipeline_ray.pipelines.tail import tail

        if self.landed >= len(self.tail_paths):
            raise RuntimeError("tail_microbatch ran out of generated rounds")
        v0 = self.engine.lake.current_version()
        path = self.land()
        # timed from the file landing to tail returning its committed version
        with self.ctx.clock.part() as t, self.ctx.tracer.span("tail"):
            reps = tail(self.engine, self.watch, poll_s=0.0, max_rounds=1, idle_exit=1)
        dt = t["wall"]
        ok = (
            len(reps) == 1
            and reps[0].get("version") == v0 + 1
            and reps[0].get("consumed_files") == [os.path.basename(path)]
        )
        return dt, reps, ok, pq.ParquetFile(path).metadata.num_rows

    def warmup(self):
        self.trace_engine(self.engine)
        for _ in range(self.size["warm"]):
            _, _, ok, _ = self.round()
            self.check(0 if ok else 1)
        self.first_timed_version = self.engine.lake.current_version() + 1

    def exhausted(self):
        return self.landed >= len(self.tail_paths)

    def op(self, i):
        dt, reps, ok, n = self.round()
        self.reports.append(reps)
        return dt, n, self.check(0 if ok else 1)

    def finish(self, lat, rows):
        eng = self.engine
        events = self.pre_events + [pq.read_table(p) for p in self.tail_paths[: self.landed]]
        state = oracle.lww_fold(events)
        snap = eng.snapshot_table(columns=["url", "lsn", "html", "text"])
        self.check(oracle.snapshot_mismatch(snap, state))
        # the last round's change feed against the fold's diff
        v = eng.lake.current_version()
        before = oracle.lww_fold(events[:-1])
        self.check(
            oracle.changes_mismatch(materialize(eng.read_changes(v - 1, v)), before, state)
        )
        landed = self.tail_paths[self.size["warm"] : self.landed]
        amp = lake_amplification(
            eng,
            list(range(self.first_timed_version, v + 1)),
            sum(os.path.getsize(p) for p in landed),
        )
        flat = [r for reps in self.reports for r in reps]
        return {
            "round_p50_s": pctl(lat, 0.5),
            "round_p90_s": pctl(lat, 0.9),
            "round_samples": len(lat),
            "tail_events_per_s": rows / sum(lat) if lat else 0.0,
            "salt_threshold": self.salt_threshold,
            "salted_domains": sum(len(r.get("salted_domains", [])) for r in flat),
            "migrations": sum(1 for r in flat if r.get("migrated_domains")),
            **amp,
        }

    def isolation_inputs(self):
        # one round's change file against the lake it was merged into
        return self.engine, self.tail_paths[self.landed - 1 : self.landed]

    def layer_metrics(self):
        tr = self.ctx.tracer
        traced = [r for r, t in zip(self.reports, self.ctx.traced_ops) if t]
        out = self.apply_layers(traced)
        pend = [
            (s["end"] - s["start"])
            - sum(c["end"] - c["start"] for c in tr.children(s) if c["name"] == "apply")
            for s in tr.named("tail")
        ]
        out["tail.pending_inputs_s"] = statistics.median(pend) if pend else 0.0
        return out


class ReadMix(Workload):
    """Readers over a lake with many retained versions, and analytical
    queries beside them: a fixed cycle of a full live scan, zone-map-pruned
    url-range lookups, a change feed between the two newest versions, a
    time-travel read of the older one, incremental checksums from it to the
    newest, and one warm pass over the window queries (``QueryPass``)."""

    name = "read_mix"

    def generate(self):
        s = self.size
        self.spec = inputs.StreamSpec(
            n_urls=s["urls"], n_domains=50,
            file_events=(s["first"],) + (s["delta"],) * (s["versions"] - 1),
            seed=self.ctx.seed,
        )
        key = f"{self.name}-{self.ctx.size}-s{self.ctx.seed}"
        d, self.generated = inputs.cached(
            self.ctx.cache_dir, key, inputs.write_stream, self.spec
        )
        self.paths = sorted(
            os.path.join(d, f) for f in os.listdir(d) if f.endswith(".parquet")
        )
        self.sorted_urls = sorted(inputs.stream_urls(self.spec)[0])
        self.queries = QueryPass(self.ctx, s)
        self.generated = self.queries.generate() or self.generated

    def setup(self):
        from radiant_portal_pipeline_ray import EngineConfig
        from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine

        lake = self.work("lake")
        shutil.rmtree(lake, ignore_errors=True)
        # small files, so url-range lookups can skip most of them
        self.engine = CdcEngine(
            lake,
            EngineConfig(n_parts=N_PARTS,
                         target_rows_per_file=self.size["rows_per_file"]),
        )
        for p in self.paths:
            self.engine.apply([p])
        self.n_versions = self.engine.lake.current_version()
        self.prior = self.engine.snapshot_checksums(version=self.n_versions - 1)

    def prepare_oracle(self):
        self.states = {}
        state = None
        for v, p in enumerate(self.paths, start=1):
            state = oracle.lww_fold([pq.read_table(p)], state)
            self.states[v] = state
        self.final = self.states[self.n_versions]
        self.sub = {
            k: [] for k in ("scan", "lookup", "changes", "travel", "checksum", "queries")
        }
        self.queries.prepare_oracle()
        self.scan_rows = 0
        self.kept_frac: list[float] = []
        self.pruned_frac: list[float] = []
        self.change_rows: list[int] = []

    def warmup(self):
        self.trace_engine(self.engine)
        self.cycle(0, record=False)

    def _lookup_range(self, i: int, k: int) -> tuple[str, str]:
        rng = np.random.default_rng([self.ctx.seed, i, k])
        n = len(self.sorted_urls)
        a = int(rng.integers(0, n))
        return self.sorted_urls[a], self.sorted_urls[min(n - 1, a + n // 50)]

    def cycle(self, i: int, record: bool = True):
        from radiant_portal_pipeline_ray.state.zonemaps import plan_files

        eng, tr, clock = self.engine, self.ctx.tracer, self.ctx.clock
        # the newest pair of versions in every cycle: cycles do equal work,
        # so the median cycle does not depend on how many cycles a run fits
        v = self.n_versions
        lat: dict[str, list[float]] = {k: [] for k in self.sub}
        rows = 0
        bad = 0

        with clock.part() as t, tr.span("read_snapshot"):
            snap = materialize(eng.read_snapshot(columns=["url", "lsn", "html", "text"]))
        lat["scan"].append(t["wall"])
        rows += snap.num_rows
        bad += oracle.snapshot_mismatch(snap, self.final)

        for k in range(self.size["lookups"]):
            lo, hi = self._lookup_range(i, k)
            prune = {"url": (lo, hi)}
            if tr.enabled:
                # the plan read_snapshot makes internally, repeated untimed
                # so its time and pruning show as a layer of their own
                man = eng.lake.current_manifest()
                with tr.span("zonemaps.plan_files"):
                    kept, pruned = plan_files(man, prune)
                self.kept_frac.append(len(kept) / max(1, len(kept) + pruned))
            with clock.part() as t, tr.span("read_snapshot"):
                got = materialize(eng.read_snapshot(columns=["url", "lsn"], prune=prune))
            lat["lookup"].append(t["wall"])
            rows += got.num_rows
            u = self.final.column("url")
            in_range = pc.and_(pc.greater_equal(u, lo), pc.less_equal(u, hi))
            bad += oracle.key_mismatch(got, self.final.filter(in_range))

        with clock.part() as t, tr.span("read_changes"):
            ch = materialize(eng.read_changes(v - 1, v))
        lat["changes"].append(t["wall"])
        rows += ch.num_rows
        bad += oracle.changes_mismatch(ch, self.states[v - 1], self.states[v])
        if tr.enabled:
            self.change_rows.append(ch.num_rows)
            m_from, m_to = eng.lake.read_manifest(v - 1), eng.lake.read_manifest(v)
            all_parts = set(m_from.partitions) | set(m_to.partitions)
            same = sum(
                1 for p in all_parts
                if p in m_from.partitions and p in m_to.partitions
                and m_from.partitions[p].files == m_to.partitions[p].files
            )
            self.pruned_frac.append(same / max(1, len(all_parts)))

        with clock.part() as t, tr.span("read_snapshot"):
            old = materialize(eng.read_snapshot(columns=["url", "lsn"], version=v - 1))
        lat["travel"].append(t["wall"])
        rows += old.num_rows
        bad += oracle.key_mismatch(old, self.states[v - 1])

        with clock.part() as t:
            cks = eng.snapshot_checksums_incremental(v - 1, self.prior, version=v)
        lat["checksum"].append(t["wall"])
        want = oracle.live(self.states[v]).num_rows
        bad += abs(int(pc.sum(cks.column("n_rows")).as_py() or 0) - want)

        dt, n, q_bad = self.queries.run(record)
        lat["queries"].append(dt)
        rows += n
        bad += q_bad

        if record and not tr.enabled:
            for k, xs in lat.items():
                self.sub[k].extend(xs)
            self.scan_rows += snap.num_rows
        return sum(sum(xs) for xs in lat.values()), rows, self.check(bad)

    def op(self, i):
        return self.cycle(i)

    def finish(self, lat, rows):
        eng = self.engine
        amp = lake_amplification(
            eng, eng.lake.versions(), sum(os.path.getsize(p) for p in self.paths)
        )
        sub = self.sub
        return {
            "scan_rows_per_s": self.scan_rows / sum(sub["scan"]) if sub["scan"] else 0,
            "lookup_p50_s": pctl(sub["lookup"], 0.5),
            "lookup_p90_s": pctl(sub["lookup"], 0.9),
            "lookup_samples": len(sub["lookup"]),
            "changefeed_p50_s": pctl(sub["changes"], 0.5),
            "changefeed_samples": len(sub["changes"]),
            "travel_p50_s": pctl(sub["travel"], 0.5),
            "checksum_p50_s": pctl(sub["checksum"], 0.5),
            "queries_s": pctl(sub["queries"], 0.5),
            "query_passes": len(sub["queries"]),
            **amp,
        }

    def isolation_inputs(self):
        return self.engine, self.paths[-3:]

    def layer_metrics(self):
        tr = self.ctx.tracer
        plan = [s["end"] - s["start"] for s in tr.named("zonemaps.plan_files")]
        return {
            "zonemaps.plan_s": statistics.median(plan) if plan else 0.0,
            "zonemaps.files_kept_frac": statistics.fmean(self.kept_frac or [0.0]),
            "changefeed.parts_pruned_frac": statistics.fmean(self.pruned_frac or [0.0]),
            "changefeed.rows_out": statistics.median(self.change_rows or [0]),
            **self.queries.layer_metrics(),
        }


class QueryPass:
    """The window queries ROADMAP direction 3 rewrites, plus two reference
    shapes, run warm over a small seeded star schema and checked against the
    registry's DuckDB SQL, computed once before timing. It is the only path
    through ``pipelines.relational``, ``stages.aggregates`` and the exchange
    group-by."""

    def __init__(self, ctx, size: dict):
        self.ctx = ctx
        self.size = size

    def generate(self) -> bool:
        s = self.size
        spec = inputs.TablesSpec(
            n_customers=s["customers"], n_orders=s["orders"],
            n_lineitems=s["lineitems"], n_users=s["users"], n_events=s["events"],
            seed=self.ctx.seed,
        )
        key = f"tables-{self.ctx.size}-s{self.ctx.seed}"
        self.dir, generated = inputs.cached(
            self.ctx.cache_dir, key, inputs.write_tables, spec
        )
        rows = {
            t: pq.ParquetFile(os.path.join(self.dir, f"{t}.parquet")).metadata.num_rows
            for t in set(QUERIES.values())
        }
        self.rows_per_pass = sum(rows[t] for t in QUERIES.values())
        return generated

    def prepare_oracle(self):
        import duckdb

        from radiant_portal_pipeline_ray.pipelines import relational

        self.fns = {q: relational.QUERIES[q][0] for q in QUERIES}
        con = duckdb.connect()
        try:
            for t in ("region", "nation", "customer", "orders", "lineitem", "events"):
                path = os.path.join(self.dir, f"{t}.parquet")
                con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{path}')")
            self.want = {q: con.sql(relational.QUERIES[q][1]).arrow() for q in QUERIES}
        finally:
            con.close()
        self.query_times: dict[str, list[float]] = {q: [] for q in QUERIES}

    def run(self, record: bool) -> tuple[float, int, int]:
        """One pass: (timed seconds, fact rows scanned, mismatched rows)."""
        tr = self.ctx.tracer
        total, bad = 0.0, 0
        for q, fn in self.fns.items():
            with self.ctx.clock.part() as t, tr.span(f"relational.{q}"):
                got = materialize(fn(self.dir))
            total += t["wall"]
            if record and tr.enabled:
                self.query_times[q].append(t["wall"])
            bad += oracle.result_mismatch(got, self.want[q])
        return total, self.rows_per_pass, bad

    def layer_metrics(self) -> dict:
        return {
            f"relational.{q}_s": statistics.median(ts) if ts else 0.0
            for q, ts in self.query_times.items()
        }


WORKLOADS = {w.name: w for w in (BacklogReplay, TailMicrobatch, ReadMix)}
