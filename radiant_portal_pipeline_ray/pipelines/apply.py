"""The CDC apply loop — changelog tail → partitioned LWW upsert → COW commit.

One ``CdcEngine.apply(changelog)`` call is one incremental ingest round
(reference analogue: one `import-part` DAG run,
`radiant/dags/import_part.py:100-625`, plus the `import_radiant` control
loop `radiant/dags/import_radiant.py:48-210`):

  1. read the committed manifest (watermarks, salt map, schema, counters):
     the round's one manifest read, or none when the caller hands over the
     one it just read (the tail does)
  2. changed partitions are discovered BY the exchange itself: each split
     task reports the partitions it routed rows to (events above their
     partition's watermark), so there is no separate scout pass over the
     delta (salting decisions come from the merge's heavy-hitter counts,
     applied NEXT round)
  3. schema discovery over changelog footers → widen-only unification with
     the snapshot schema (add / widen / drop evolution)
  4. the delta exchange (stages/taskshuffle.py): fused
     read+normalize+split tasks — one per row-group chunk, with lsn
     row-group pruning — emit one plasma object per partition bucket; the
     delta is materialized exactly once, with no sort and no boundary
     sampling, and carries no ``text`` (the merge extracts it). Malformed
     events are split off with a ``reason`` and committed to the
     quarantine (dead-letter) file of the round — except those of an
     input an earlier commit already consumed, which are in the
     quarantine already
  5. carried-forward side: a STABLE changed partition's committed files are
     read locally INSIDE its merge task (the lake layout is already
     part-partitioned) — only partitions under a salt migration, whose
     routing is changing, shuffle their carried rows through the snapshot
     caster (``op='S'``)
  6. per-bucket merge tasks run the vectorized LWW merge kernel
     (stages/merge.py): ``text = extract_text(html)`` for the delta's LWW
     winners only, then each partition writes url-sorted staged Parquet
     and returns one metadata row
  7. two-phase commit: promote staged files, then ``Lake.commit_next``
     publishes manifest v+1 built on the step-1 manifest via atomic
     put-if-absent (idempotent by txn-id). Only a conflict re-reads the
     current manifest and rebases, failing fast if a concurrent writer
     advanced a merged partition or changed the routing state. The
     post-commit QA reads the committed version

Only tiny metadata ever reaches the driver; data flows Arrow-zero-copy
through the object store with ONE keyed exchange carrying the delta — at
steady state the change stream, never the table. The exception is a round
on a one-CPU cluster: it runs the same split and merge functions of
steps 4 and 6 in-process on the driver (``_apply_task_exchange``), and
records which path it took.
"""

from __future__ import annotations

import glob
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd
from pyarrow import fs as pafs

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.schemas import (
    CHANGELOG_SCHEMA,
    INTERNAL_FIELDS,
    unify_schemas,
)
from radiant_portal_pipeline_ray.stages.normalize import (
    make_event_normalizer,
    make_snapshot_caster,
)
from radiant_portal_pipeline_ray.stages.taskshuffle import local_dataset
from radiant_portal_pipeline_ray.state import lakescan
from radiant_portal_pipeline_ray.state.manifest import (
    CARRIED_FIELDS,
    Lake,
    Manifest,
    PartitionState,
)
from radiant_portal_pipeline_ray.state.partitioner import Partitioner
from radiant_portal_pipeline_ray.state.zonemaps import plan_files, prune_expression

_INTERNAL_NAMES = {f.name for f in INTERNAL_FIELDS}


class ConcurrentWriterConflict(Exception):
    """A concurrent writer advanced a partition this apply merged from —
    the staged merge output is stale (its carried-forward rows and doc-id
    ranges were computed against an older base). Fail fast and re-run the
    apply; silently committing would overwrite the other writer's rows and
    could collide doc_id ranges."""


def _resolve_paths(changelog: str | list[str]) -> list[str]:
    if isinstance(changelog, str):
        if os.path.isdir(changelog):
            return sorted(glob.glob(os.path.join(changelog, "*.parquet")))
        return [changelog]
    return list(changelog)


def _check_rebase(
    planned: Manifest | None,
    base: Manifest,
    merged_parts: set[int],
    txn_id: str,
    n_parts: int,
) -> None:
    """Refuse to rebase an apply round's commit from ``planned`` onto a
    newer ``base`` (analogue of the reference's Iceberg commit retry,
    `radiant/tasks/iceberg/utils.py:73-96`).

    The staged files embed carried-forward rows and doc_id ranges computed
    from ``planned``: if a concurrent writer advanced any merged partition,
    raise ``ConcurrentWriterConflict`` instead of silently overwriting its
    rows (single-writer is the supported mode, same as the reference's
    one-committer-per-part fan-in, `radiant/dags/import_snv_vcf.py:47-49`).
    The round also republishes salt_map / pending_migrations / next_part
    derived from ``planned``: if a concurrent writer changed that routing
    state (even on disjoint partitions), re-committing ours would drop its
    salting decisions or double-allocate a salt partition id, so refuse that
    too."""
    planned_v = planned.version if planned else None
    for p in merged_parts:
        old = (planned.partitions.get(p) if planned else None) or PartitionState()
        new = base.partitions.get(p) or PartitionState()
        if (old.files, old.watermark_lsn, old.next_doc_seq) != (
            new.files,
            new.watermark_lsn,
            new.next_doc_seq,
        ):
            raise ConcurrentWriterConflict(
                f"partition {p} advanced from v{planned_v} to v{base.version} "
                f"during apply txn {txn_id}; re-run apply"
            )

    def route(man: Manifest | None) -> tuple:
        # next_part=None (a pre-field manifest) routes identically to
        # n_parts, the partitioner's starting counter: coalesce, or an
        # empty-lake plan false-positives against a first concurrent commit
        # that published the default counter
        if man is None:
            return {}, {}, n_parts
        return (
            man.salt_map,
            man.pending_migrations,
            man.next_part if man.next_part is not None else n_parts,
        )

    if route(planned) != route(base):
        raise ConcurrentWriterConflict(
            f"partitioner routing state (salt_map/pending_migrations/"
            f"next_part) diverged between v{planned_v} and v{base.version} "
            f"during apply txn {txn_id}; re-run apply"
        )


class CdcEngine:
    def __init__(
        self,
        lake_root: str,
        config: EngineConfig | None = None,
        lake: Lake | None = None,
    ):
        # an explicit Lake carries its fsspec filesystem with it — required
        # when lake_root is an ALREADY-STRIPPED object-store path (e.g. the
        # '/lake' a memory:// root strips to), which Lake(root) would
        # otherwise mistake for a POSIX path and os.makedirs locally
        self.lake = lake if lake is not None else Lake(lake_root)
        self.cfg = config or EngineConfig()
        #: when True, this apply round makes NO routing-state changes: no
        #: bootstrap pre-salt, no new salting decisions (pending migrations
        #: already committed still execute — they move carried rows, not the
        #: url→part map). apply_backlog sets this on every writer so the
        #: partition-disjointness it scheduled under stays valid for the
        #: whole backlog; without it a mid-backlog re-salt re-routes urls
        #: into partitions another concurrent job owns, and the loser's
        #: events land below the winner's advanced watermark — silent loss.
        self.freeze_routing = False

    # ------------------------------------------------------------------
    def apply(
        self, changelog: str | list[str], base: Manifest | None = None
    ) -> dict:
        """One apply round over ``changelog``. ``base``: the lake's current
        manifest when the caller has just read it (the tail does), so the
        round does not read it again; a base another writer has since
        advanced costs the commit one rebase, as any concurrent commit
        does."""
        t0 = time.time()
        cfg = self.cfg
        paths = _resolve_paths(changelog)
        current = base if base is not None else self.lake.current_manifest()
        # Guard: the base hash-partition domain is baked into every committed
        # row's routing. Applying with a different n_parts would re-route urls
        # away from their carried state (duplicate live urls, corrupt
        # watermark domain). The manifest records n_parts; cross-check it.
        if current is not None and current.n_parts and current.n_parts != cfg.n_parts:
            raise ValueError(
                f"lake was committed with n_parts={current.n_parts} but config "
                f"requests n_parts={cfg.n_parts}; base partition count is "
                "immutable for an existing lake (salting splits hot domains "
                "instead — see Partitioner)"
            )
        # every lake routes salted urls with the v2 polars hash (a manifest
        # recording another version is refused when read); verify its
        # canary so a library upgrade can't silently re-route salted urls
        # away from their committed rows.
        from radiant_portal_pipeline_ray.functions.hashing import (
            salt_hash_fingerprint,
        )

        self._salt_fp = salt_hash_fingerprint()
        if (
            current is not None
            and current.salt_hash_fingerprint
            and current.salt_hash_fingerprint != self._salt_fp
        ):
            raise RuntimeError(
                "salt hash fingerprint mismatch: this host's polars hash "
                "differs from the one the lake's salted routing was "
                "committed under (polars upgrade?). Pin the old polars, or "
                "migrate: compact every salted partition after re-routing "
                "via pending_migrations."
            )

        def _noop_report(events_in: int) -> dict:
            return {
                "events_in": events_in,
                "noop": True,
                "version": current.version if current else None,
                "rows_upserted": 0,
                "rows_deleted": 0,
                "rows_carried": 0,
                "parts_changed": 0,
                "wall_s": time.time() - t0,
            }

        if not paths:
            return _noop_report(0)
        # consumption ledger for the tail loop (pipelines/tail.py): input
        # basename → max lsn, folded into the commit below so file
        # consumption is exactly-once with the manifest CAS
        from radiant_portal_pipeline_ray.pipelines.tail import input_max_lsn

        self._input_ledger = {
            os.path.basename(p): input_max_lsn(p) for p in paths
        }
        timings: dict[str, float] = {}
        t_mark = time.time()

        def _lap(name: str) -> None:
            nonlocal t_mark
            now = time.time()
            timings[name] = round(now - t_mark, 3)
            t_mark = now

        watermarks = current.watermarks() if current else {}
        min_wm = current.min_watermark() if current else -1

        partitioner = Partitioner(
            n_parts=cfg.n_parts,
            salt_map=dict(current.salt_map) if current else {},
            next_part=current.next_part if current else cfg.n_parts,
            hot_counts=dict(current.metrics.get("hot_counts", {})) if current else {},
            salt_threshold_rows=cfg.salt_threshold_rows,
            salt_target_rows=cfg.salt_target_rows,
            salt_headroom=cfg.salt_headroom,
        )
        # Bootstrap pre-salting: on an EMPTY lake every domain is new, so a
        # hot domain can be salted BEFORE any row routes — no committed rows
        # means no migration, killing both the first-round zipf-head merge
        # straggler and the next round's migration reshuffle. A column-pruned
        # url read (KBs per file) counts events per domain; the decisions'
        # migration lists are discarded (nothing to migrate). Deterministic
        # (exact counts), so a retried round re-derives the same salt map.
        if current is None and cfg.salt_threshold_rows and not self.freeze_routing:
            partitioner.observe_domain_rows(self._bootstrap_domain_counts(paths))

        # ---- schema discovery & unification (driver-side footer reads,
        # threaded: a binlog tail is many small files and serial footer
        # round-trips add a fixed per-round cost) -----------------------
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=16) as ex:
            file_metas = dict(zip(paths, ex.map(pq.read_metadata, paths)))
        file_schemas: dict[bytes, pa.Schema] = {}
        for p in paths:
            sch = file_metas[p].schema.to_arrow_schema()
            sch = pa.schema([pa.field(f.name, f.type) for f in sch])  # drop metadata
            file_schemas.setdefault(sch.serialize().to_pybytes(), sch)
        event_schema = unify_schemas([CHANGELOG_SCHEMA] + list(file_schemas.values()))
        new_data_fields = [
            f for f in event_schema if f.name not in ("op", "lsn")
        ]
        old_data_fields = (
            [f for f in current.schema if f.name not in _INTERNAL_NAMES]
            if current and current.schema
            else []
        )
        data_schema = unify_schemas(
            [pa.schema(old_data_fields), pa.schema(new_data_fields)]
        ) if old_data_fields else pa.schema(new_data_fields)
        snapshot_schema = pa.schema(list(data_schema) + INTERNAL_FIELDS)
        union_schema = pa.schema([pa.field("op", pa.string())] + list(snapshot_schema))

        return self._apply_task_exchange(
            t0,
            timings,
            _lap,
            current,
            partitioner,
            paths,
            file_metas,
            event_schema,
            union_schema,
            snapshot_schema,
            watermarks,
            min_wm,
            _noop_report,
        )

    # ------------------------------------------------------------------
    def apply_backlog(
        self, jobs: list[dict], max_concurrency: int = 1
    ) -> list[dict]:
        """Priority-ordered work-list (W4): a backlog of pending changelog
        work units applied in ascending ``priority`` (the reference's
        STAT < ASAP < URGENT < ROUTINE ordering of per-partition import
        runs, `radiant/tasks/starrocks/partition.py:234-256` /
        `radiant/dags/import_radiant.py:180-189`); ties keep submission
        order.

        Each job is ``{"paths": <changelog paths>, "priority": int}``. As in
        the reference, a work unit is partition-scoped (one import-part run
        per partition): reordering is only meaningful across jobs touching
        DIFFERENT partitions — two jobs tailing the same partition must run
        in submission (lsn) order, since the per-partition watermark drops
        any event at-or-below it (idempotence guard). That constraint is
        ENFORCED here: each job's touched partitions are probed with a
        column-pruned (url-only) read, and the scheduler picks the best
        (priority, submission) job whose earlier-submitted same-partition
        jobs have all run — priority ordering that can never reorder a
        partition's own stream. Returns the reports in EXECUTION order,
        each annotated with its submission index.

        ``max_concurrency > 1`` is the multi-writer mode (reference
        analogue: one concurrent import-part run per partition fanned in to
        a single committer, `radiant/dags/import_snv_vcf.py:47-49`): each
        wave dispatches up to that many PARTITION-DISJOINT runnable jobs,
        each through its own fresh ``CdcEngine`` writer, serialized only at
        the manifest commit — the put-if-absent CAS orders the commits and
        ``Lake.commit_next`` rebases each writer's manifest over the
        other's committed version (valid exactly because the wave is
        partition-disjoint). The one cross-partition coupling is routing
        state: if two writers both make salting decisions, the later commit
        raises ``ConcurrentWriterConflict``; that job's staged files become
        GC-able orphans (its watermark never advanced) and it is re-run
        sequentially after the wave — a pure re-execution, never a partial
        state.
        """
        from radiant_portal_pipeline_ray.functions.hashing import (
            assign_parts,
            extract_domain,
        )

        current = self.lake.current_manifest()
        partitioner = Partitioner(
            n_parts=self.cfg.n_parts,
            salt_map=dict(current.salt_map) if current else {},
            next_part=current.next_part if current else self.cfg.n_parts,
        )
        job_parts: list[set[int]] = []
        for j in jobs:
            parts: set[int] = set()
            for p in _resolve_paths(j["paths"]):
                urls = pq.read_table(p, columns=["url"]).column("url")
                doms = extract_domain(urls)
                pp = assign_parts(
                    urls, doms, self.cfg.n_parts, partitioner.salt_map
                )
                parts.update(
                    int(x) for x in pc.unique(pp).to_pylist() if x is not None
                )
            job_parts.append(parts)

        remaining = list(range(len(jobs)))
        out = []
        # Committed-but-unexecuted migrations run inside the FIRST apply of
        # the backlog and touch partitions the url-only scout cannot see
        # (the drained old parts and the salt targets receive carried rows).
        # Run that first job solo; afterwards pending is drained and — with
        # routing frozen below — stays empty for the rest of the backlog.
        first_solo = bool(current is not None and current.pending_migrations)

        def _fresh_writer() -> "CdcEngine":
            eng = CdcEngine(
                self.lake.root,
                self.cfg,
                lake=Lake(self.lake.root, self.lake.filesystem)
                if self.lake.filesystem is not None
                else None,
            )
            eng.freeze_routing = True
            return eng

        def _apply_frozen(paths) -> dict:
            prev, self.freeze_routing = self.freeze_routing, True
            try:
                return self.apply(paths)
            finally:
                self.freeze_routing = prev

        def _run_concurrent(wave: list[int]) -> list[dict]:
            from concurrent.futures import ThreadPoolExecutor

            def one(i: int):
                try:
                    return _fresh_writer().apply(jobs[i]["paths"])
                except ConcurrentWriterConflict:
                    # a concurrent writer advanced a merged-from partition;
                    # the failed writer's staged files are unreferenced
                    # orphans and its watermarks never advanced — safe to
                    # re-run sequentially after the wave.
                    return None

            with ThreadPoolExecutor(max_workers=len(wave)) as ex:
                reps = list(ex.map(one, wave))
            return [
                rep if rep is not None else _apply_frozen(jobs[i]["paths"])
                for i, rep in zip(wave, reps)
            ]

        while remaining:
            runnable = sorted(
                (
                    i
                    for i in remaining
                    if not any(
                        k < i and job_parts[k] & job_parts[i] for k in remaining
                    )
                ),
                key=lambda i: (jobs[i].get("priority", 1_000_000), i),
            )
            if max_concurrency <= 1 or first_solo:
                wave = runnable[:1]
                first_solo = False
            else:
                # greedy by (priority, submission): add a runnable job to the
                # wave only if its partitions are disjoint from every job
                # already in it — the invariant the commit rebase relies on
                wave, taken = [], set()
                for i in runnable:
                    if len(wave) >= max_concurrency:
                        break
                    if job_parts[i] & taken:
                        continue
                    wave.append(i)
                    taken |= job_parts[i]
            for i in wave:
                remaining.remove(i)
            reps = (
                [_apply_frozen(jobs[wave[0]]["paths"])]
                if len(wave) == 1
                else _run_concurrent(wave)
            )
            for i, rep in zip(wave, reps):
                rep["job_index"] = i
                rep["priority"] = jobs[i].get("priority", 1_000_000)
                out.append(rep)

        # routing decisions deferred by freeze_routing: fold the per-domain
        # live-row observations from every wave (max — they are absolute
        # counts, same semantic as Partitioner.observe_domain_rows) and make
        # the salting decision ONCE, now that no scheduled job depends on
        # the old map. Migrations execute on the next apply as usual.
        totals: dict[str, int] = {}
        for rep in out:
            for d, n in rep.get("domain_rows", {}).items():
                if int(n) > totals.get(d, 0):
                    totals[d] = int(n)
        routed = self.commit_routing_decisions(totals)
        if routed:
            for rep in out:
                rep.setdefault("post_backlog_salted", routed["salted_domains"])
        return out

    def commit_routing_decisions(self, domain_totals: dict[str, int]) -> dict | None:
        """Evaluate hot-domain salting from observed live-row counts and, if
        any domain crosses the threshold, publish a ROUTING-ONLY manifest
        version: identical partitions/watermarks/schema, updated salt_map /
        pending_migrations / next_part. Used by ``apply_backlog`` (whose
        waves run with ``freeze_routing`` set); a version conflict
        re-evaluates against the new current manifest, within
        ``commit_retries`` attempts."""
        if not domain_totals:
            return None
        current = self.lake.current_manifest()
        if current is None:
            return None
        decisions: list = []

        def build(base: Manifest) -> dict | None:
            nonlocal decisions
            partitioner = Partitioner(
                n_parts=self.cfg.n_parts,
                salt_map=dict(base.salt_map),
                next_part=(
                    base.next_part
                    if base.next_part is not None
                    else self.cfg.n_parts
                ),
                salt_threshold_rows=self.cfg.salt_threshold_rows,
                salt_target_rows=self.cfg.salt_target_rows,
                salt_headroom=self.cfg.salt_headroom,
            )
            decisions = partitioner.observe_domain_rows(domain_totals)
            if not decisions:
                return None
            pending = dict(base.pending_migrations)
            for d in decisions:
                pending[d.domain] = d.old_parts
            # carry the tracking state, with this observation folded in by
            # max as observe_domain_rows folds it
            hot = dict(base.metrics.get("hot_counts", {}))
            for d, n in partitioner.hot_counts.items():
                hot[d] = max(n, hot.get(d, 0))
            return {
                "salt_map": partitioner.salt_map,
                "pending_migrations": pending,
                "next_part": partitioner.next_part,
                "metrics": {
                    "op": "routing",
                    "routing_only": True,
                    "hot_counts": hot,
                },
            }

        committed, _ = self.lake.commit_next(
            current, self.lake.new_txn_id(), build, self.cfg.commit_retries
        )
        if committed is None:
            return None
        return {
            "version": committed.version,
            "salted_domains": [d.domain for d in decisions],
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _bootstrap_domain_counts(paths: list[str]) -> dict[str, int]:
        """Event counts per domain from a column-pruned ``url`` read
        (threaded; pyarrow releases the GIL for reads and kernels). Event
        count upper-bounds live rows — over-salting a duplicate-heavy
        domain just allocates headroom it would get anyway."""
        from concurrent.futures import ThreadPoolExecutor

        from radiant_portal_pipeline_ray.functions.hashing import (
            extract_domain,
        )

        def one(p: str) -> dict[str, int]:
            urls = pq.read_table(p, columns=["url"]).column("url")
            doms = extract_domain(urls)
            vc = pa.table({"d": doms}).group_by("d").aggregate([("d", "count")])
            return dict(
                zip(vc.column("d").to_pylist(), vc.column("d_count").to_pylist())
            )

        counts: dict[str, int] = {}
        with ThreadPoolExecutor(max_workers=16) as ex:
            for d in ex.map(one, paths):
                for k, v in d.items():
                    counts[k] = counts.get(k, 0) + int(v)
        return counts

    # ------------------------------------------------------------------
    def _apply_task_exchange(
        self,
        t0,
        timings,
        _lap,
        current,
        partitioner,
        paths,
        file_metas,
        event_schema,
        union_schema,
        snapshot_schema,
        watermarks,
        min_wm,
        noop_report,
    ) -> dict:
        """The apply round's exchange, merge and commit: fused
        read+normalize+split tasks emit one plasma object per (task,
        bucket); per-bucket merge tasks take their ref column as top-level
        args, which Ray resolves (zero-copy) before the task runs. No sort,
        no boundary sampling, no second pass over the delta — see
        stages/taskshuffle.py for the copy-count and retry/lineage
        contract.

        One decision per round: when Ray has one CPU, the same split and
        merge functions run in-process on the driver over one bucket
        (``path`` ``in_process``), since one CPU runs tasks one at a time
        anyway. Otherwise they run as Ray tasks (``tasks``)."""
        import ray

        from radiant_portal_pipeline_ray.pipelines.tail import is_consumed
        from radiant_portal_pipeline_ray.stages.taskshuffle import (
            MERGE_LAYERS,
            QUARANTINE_CAP,
            SCOUT_LAYERS,
            chunk_units,
            enumerate_units,
            fan_subsplit,
            layer_summary,
            merge_bucket,
            merge_bucket_count,
            merge_bucket_task,
            ray_cpus,
            split_chunk,
            split_task,
            two_level_plan,
        )

        cfg = self.cfg
        normalizer = make_event_normalizer(
            event_schema,
            union_schema,
            cfg.n_parts,
            partitioner.salt_map,
            watermarks,
            partitioner.max_part_id(),
        )
        cpus = ray_cpus()
        in_process = cpus == 1
        path = "in_process" if in_process else "tasks"

        pending = dict(current.pending_migrations) if current else {}
        migration_parts: set[int] = set()
        for d, old_parts in pending.items():
            migration_parts.update(old_parts)
            migration_parts.update(partitioner.salt_map.get(d, []))
        mig_files: list[str] = []
        mig_bytes = 0  # on-disk bytes, as the manifest records them
        if current:
            for p in sorted(migration_parts):
                st = current.partitions.get(p)
                if st:
                    mig_files.extend(self.lake.abspath(f) for f in st.files)
                    mig_bytes += st.bytes

        units = enumerate_units(paths, file_metas)
        delta_bytes = sum(
            md.row_group(i).total_byte_size
            for md in (file_metas[p] for p in paths)
            for i in range(md.num_row_groups)
        ) or (len(units) << 24)
        # migration rounds push the rewritten partitions' carried rows
        # through the SAME split/subsplit tasks — count their bytes too, or
        # a small-delta/big-migration round under-sizes n_groups and one
        # subsplit task concatenates far more than the per-group heap bound
        delta_bytes += mig_bytes

        # fused read+normalize+split fan-out (row-group-granular chunks);
        # migrating partitions' carried rows go through the same exchange
        # under the snapshot caster (their routing is changing). In-process:
        # one chunk per input kind and one bucket, whose merge writes the
        # same files as any bucket count
        n_chunks = 1 if in_process else 2 * cpus
        n_buckets = 1 if in_process else merge_bucket_count(
            cpus, partitioner.max_part_id() + 1
        )
        chunks = chunk_units(units, n_chunks)
        lake_fs = self.lake.filesystem
        mig_chunks: list = []
        if mig_files:
            mig_chunks = chunk_units(
                enumerate_units(mig_files, filesystem=lake_fs), n_chunks
            )
        # second-level split when the (tasks × buckets) ref matrix would
        # exceed the driver budget: split tasks emit G group objects, one
        # subsplit task per group fans them to the final buckets
        plan = two_level_plan(
            len(chunks) + len(mig_chunks), n_buckets, delta_bytes
        )
        n_groups = 0
        split_buckets = n_buckets
        if plan is not None:
            n_groups, n_buckets = plan
            split_buckets = n_groups
        if in_process:
            _lap("plan")  # the split calls below are the scout
            split = split_chunk
        else:
            split = split_task.options(num_returns=1 + split_buckets).remote
        min_lsn = min_wm if current else None
        # inputs an earlier commit consumed: their malformed rows are in
        # the quarantine already
        consumed = frozenset(
            p
            for p in paths
            if is_consumed(current, p, self._input_ledger[os.path.basename(p)])
        )
        # changelog reads prune the incoming text column at the decode —
        # the snapshot never trusts it (the merge extracts text from html),
        # so the ~40%-of-bytes text column is pure wasted I/O
        returns = [
            split(
                ch, normalizer, split_buckets, min_lsn, None, ("text",),
                fault_inject=cfg.fault_inject, consumed=consumed,
            )
            for ch in chunks
        ]
        if mig_chunks:
            caster = make_snapshot_caster(
                union_schema, cfg.n_parts, partitioner.salt_map
            )
            for ch in mig_chunks:
                returns.append(split(ch, caster, split_buckets, None, lake_fs))
        split_stats = [r[0] for r in returns]
        if n_groups:
            bucket_cols = fan_subsplit(
                [list(r[1:]) for r in returns], None, n_buckets, n_groups
            )
        else:
            bucket_cols = [[r[1 + b] for r in returns] for b in range(n_buckets)]
        if not in_process:
            _lap("plan")
            split_stats = ray.get(split_stats)

        parts_seen: set[int] = set()
        q_tabs: list = []
        q_dropped = 0
        scout_layers = layer_summary(
            SCOUT_LAYERS,
            list(range(len(split_stats))),
            [s["layers"] for s in split_stats],
            "task",
        )
        q_rows = 0
        for s in split_stats:
            parts_seen.update(int(p) for p in s["parts"])
            qt = s.get("quarantine")
            if qt is not None:
                # the round's cap, over the calls in chunk order
                take = min(qt.num_rows, QUARANTINE_CAP - q_rows)
                if take > 0:
                    q_tabs.append(qt.slice(0, take))
                    q_rows += take
                q_dropped += int(s.get("quarantine_dropped", 0)) + qt.num_rows - take
        changed_parts = set(parts_seen)
        for d, old_parts in pending.items():
            changed_parts.update(old_parts)
            changed_parts.update(partitioner.salt_map.get(d, []))
        if not changed_parts:
            if q_tabs:
                # the whole batch was malformed: commit a quarantine-only
                # version so the DLQ record survives
                return self._commit_quarantine_only(
                    current, q_tabs, q_dropped, noop_report
                )
            return noop_report(0)

        # stable changed partitions merge their committed files locally
        local_carry: dict[int, list[str]] = {}
        carry_bytes: dict[int, int] = {}
        if current:
            for p in sorted(changed_parts - migration_parts):
                st = current.partitions.get(p)
                if st and st.files:
                    local_carry[p] = [self.lake.abspath(f) for f in st.files]
                    carry_bytes[p] = st.bytes
        _lap("scout")

        from radiant_portal_pipeline_ray.stages.merge import MergeKernel

        txn_id = self.lake.new_txn_id()
        quarantine_info = self._write_quarantine(txn_id, q_tabs, q_dropped)
        staging = self.lake.staging_dir(txn_id)
        kernel = MergeKernel(
            txn_id=txn_id,
            staging_dir=staging,
            snapshot_schema=snapshot_schema,
            next_doc_seq={
                p: st.next_doc_seq
                for p, st in (current.partitions.items() if current else [])
            },
            doc_id_part_shift=cfg.doc_id_part_shift,
            target_rows_per_file=cfg.target_rows_per_file,
            compression=cfg.compression,
            local_carry_files=local_carry,
            union_schema=union_schema,
            filesystem=lake_fs,
            fault_inject=cfg.fault_inject,
            local_carry_bytes=carry_bytes,
        )
        # changed parts that shuffled no rows (local-carry-only partitions of
        # a migrating domain) still need a merge pass from an empty delta
        silent = changed_parts - parts_seen
        extra: dict[int, list[int]] = {}
        for p in silent:
            extra.setdefault(p % n_buckets, []).append(p)
        active = sorted(
            {p % n_buckets for p in changed_parts}
        )
        merge = merge_bucket if in_process else merge_bucket_task.remote
        results = [
            merge(kernel, sorted(extra.get(b, [])), *bucket_cols[b])
            for b in active
        ]
        if not in_process:
            results = ray.get(results)
        meta_rows = [m for metas, _ in results for m in metas]
        merge_layers = layer_summary(
            MERGE_LAYERS, active, [lay for _, lay in results], "bucket"
        )
        _lap("merge")
        # release the round's bucket tables (plasma objects on the task
        # path) before the commit; the refs form no cycles, so dropping
        # them frees the objects without a gc.collect()
        del bucket_cols, returns, split_stats, results
        exchange = {
            "path": path,
            "scout_layers": scout_layers,
            "merge_layers": merge_layers,
        }
        report = self._post_merge(
            t0,
            timings,
            _lap,
            current,
            partitioner,
            meta_rows,
            pending,
            txn_id,
            snapshot_schema,
            watermarks,
            noop_report,
            quarantine=quarantine_info,
            exchange=exchange,
        )
        report.update(exchange)
        return report

    # ------------------------------------------------------------------
    def _write_quarantine(
        self, txn_id: str, q_tabs: list, q_dropped: int
    ) -> dict | None:
        """Write one dead-letter file for this txn (malformed events +
        reason column). Same pre-commit contract as promoted data files: a
        crash before the commit leaves it unreferenced → gc_orphans
        reclaims it after quiescence."""
        if not q_tabs:
            return None
        qtable = pa.concat_tables(q_tabs, promote_options="permissive")
        rel = f"data/quarantine/{txn_id}.parquet"
        abspath = self.lake.abspath(rel)
        self.lake._makedirs(abspath.rsplit("/", 1)[0])
        pq.write_table(
            qtable,
            abspath,
            compression="zstd",
            filesystem=self.lake.pyarrow_fs()
            if self.lake.filesystem is not None
            else None,
        )
        u, c = np.unique(
            qtable.column("reason").to_numpy(zero_copy_only=False),
            return_counts=True,
        )
        by_reason = dict(zip(u.tolist(), c.tolist()))
        return {
            "file": rel,
            "rows": qtable.num_rows,
            "dropped_overflow": q_dropped,
            "by_reason": {k: int(v) for k, v in by_reason.items()},
        }

    def _commit_quarantine_only(
        self, current, q_tabs: list, q_dropped: int, noop_report
    ) -> dict:
        """Every event in the batch was malformed: no partition changes, but
        the DLQ record must still commit (a silent noop would lose it). The
        version touches no partition and no routing, so it rebases onto any
        concurrent commit."""
        txn_id = self.lake.new_txn_id()
        qinfo = self._write_quarantine(txn_id, q_tabs, q_dropped)

        def build(base: Manifest | None) -> dict:
            changed = {
                # no merge ran, so nothing re-observed the hot domains: the
                # next apply seeds its partitioner from the carried counts
                "metrics": {
                    "op": "quarantine_only",
                    "quarantine_only": True,
                    "quarantine": qinfo,
                },
                "consumed_inputs": {
                    **(base.consumed_inputs if base else {}),
                    **self._input_ledger,
                },
                "quarantine_files": (base.quarantine_files if base else [])
                + [qinfo["file"]],
            }
            if base is None:
                changed.update(
                    n_parts=self.cfg.n_parts,
                    salt_hash_fingerprint=self._salt_fp,
                    next_part=self.cfg.n_parts,
                )
            return changed

        committed, _ = self.lake.commit_next(
            current, txn_id, build, self.cfg.commit_retries
        )
        rep = noop_report(0)
        rep.update(
            {
                "noop": False,
                "version": committed.version,
                "rows_quarantined": qinfo["rows"],
                "quarantine": qinfo,
            }
        )
        return rep

    def read_quarantine(self, version: int | None = None) -> "rd.Dataset":
        """Dead-letter queue as a streaming Dataset (malformed change events
        with their ``reason``); empty Dataset when nothing was quarantined.
        Read through ``state/lakescan.py`` on the lake's filesystem, as the
        union of the quarantine files' schemas."""
        man = (
            self.lake.read_manifest(version)
            if version is not None
            else self.lake.current_manifest()
        )
        files = [self.lake.abspath(f) for f in (man.quarantine_files if man else [])]
        if not files:
            empty = pa.table({"reason": pa.array([], type=pa.string())})
            return local_dataset(empty)
        fs = self.lake.pyarrow_fs()
        if fs is None:
            files = [os.path.abspath(f) for f in files]
        sizes = [i.size for i in (fs or pafs.LocalFileSystem()).get_file_info(files)]
        schema = pa.unify_schemas([pq.read_schema(f, filesystem=fs) for f in files])
        return lakescan.read(list(zip(files, sizes)), schema, fs)

    def _post_merge(
        self,
        t0,
        timings,
        _lap,
        current,
        partitioner,
        meta_rows,
        pending,
        txn_id,
        snapshot_schema,
        watermarks,
        noop_report,
        quarantine: dict | None = None,
        exchange: dict | None = None,
    ) -> dict:
        """Tail of an apply round: salting decisions from merge metadata,
        watermark seeding, two-phase commit, report assembly, optional
        post-commit QA."""
        events_seen = sum(int(m["events_in"]) for m in meta_rows)
        if not meta_rows:
            return noop_report(events_seen)

        # ---- deferred salting: decide from the merge's heavy-hitter counts;
        # migrations execute on the NEXT apply via pending_migrations -------
        domain_totals: dict[str, int] = {}
        for m in meta_rows:
            for d, n in json.loads(m["top_domains"]).items():
                domain_totals[d] = domain_totals.get(d, 0) + int(n)
        if self.freeze_routing:
            # backlog mode: the scheduler's partition-disjointness was
            # computed under the CURRENT salt_map; deciding new salts here
            # would re-route urls mid-backlog (see __init__ docstring).
            # The observed counts flow back in the report so apply_backlog
            # can make the decision ONCE, after all waves complete.
            decisions = []
        else:
            decisions = partitioner.observe_domain_rows(domain_totals)
        pending_next = {d.domain: d.old_parts for d in decisions}

        # parts fully drained by THIS round's executed migrations
        migrated_empty = {
            p for old_parts in pending.values() for p in old_parts
        } - {int(m["part"]) for m in meta_rows}

        # ---- migration-target watermark seeding: a salt partition that
        # received only carried rows this round must inherit its source
        # partitions' watermark (those events are already folded into the
        # migrated state); otherwise it commits watermark_lsn=-1 and drags
        # min_watermark() down, forcing the next apply to re-read the whole
        # changelog history.
        wm_seed: dict[int, int] = {}
        for d, old_parts in pending.items():
            seed = max((watermarks.get(p, -1) for p in old_parts), default=-1)
            for tp in partitioner.salt_map.get(d, []):
                wm_seed[tp] = max(wm_seed.get(tp, -1), seed)

        # ---- phase 2: promote + commit (rebase on version conflict) -------
        self.lake.promote_staged_files(txn_id)
        totals = {
            k: sum(int(m[k]) for m in meta_rows)
            for k in ("events_in", "rows_upserted", "rows_deleted", "rows_carried")
        }
        metrics = {
            "op": "apply",
            "hot_counts": partitioner.hot_counts,
            "last_apply": dict(totals),
            # per-stage rows/bytes/time (T6 tracing parity,
            # reference `radiant/tasks/tracing/trace.py:12-29`)
            "stage_metrics": {
                "normalize": {"events_in": totals["events_in"]},
                "merge": {
                    "rows_in": totals["events_in"] + totals["rows_carried"],
                    "rows_out": sum(int(m["rows"]) for m in meta_rows),
                    "tombstones": sum(int(m["tombstones"]) for m in meta_rows),
                    "parts": len(meta_rows),
                },
                "write": {
                    "bytes": sum(int(m["bytes"]) for m in meta_rows),
                    "files": sum(len(m["files"]) for m in meta_rows),
                },
                "timings_s": dict(timings),
                # the exchange's path (in_process or tasks) and the split
                # and merge calls' layers (scout_layers, merge_layers);
                # kept out of timings_s, which holds only the phase laps
                **(exchange or {}),
            },
        }
        if quarantine is not None:
            metrics["last_apply"]["rows_quarantined"] = quarantine["rows"]
            metrics["quarantine"] = quarantine
        merged_parts = {int(m["part"]) for m in meta_rows} | migrated_empty

        def build(base: Manifest | None) -> dict:
            if base is not current:
                _check_rebase(current, base, merged_parts, txn_id, self.cfg.n_parts)
            parts = dict(base.partitions) if base else {}
            now = time.time()
            for m in meta_rows:
                p = int(m["part"])
                old_st = parts.get(p) or PartitionState()
                parts[p] = PartitionState(
                    files=[f"data/part={p}/{fn}" for fn in m["files"]],
                    rows=int(m["rows"]),
                    tombstones=int(m["tombstones"]),
                    bytes=int(m["bytes"]),
                    watermark_lsn=max(
                        old_st.watermark_lsn,
                        int(m["max_lsn"]),
                        wm_seed.get(p, -1),
                    ),
                    next_doc_seq=int(m["next_doc_seq"]),
                    lineage=old_st.next_lineage(
                        {
                            "txn_id": txn_id,
                            "ts": now,
                            **{k: int(m[k]) for k in totals},
                            "max_lsn": int(m["max_lsn"]),
                        }
                    ),
                    stats=json.loads(m["file_stats"]),
                )
            for p in migrated_empty:
                old_st = parts.get(p)
                if old_st:
                    parts[p] = PartitionState(
                        watermark_lsn=old_st.watermark_lsn,
                        next_doc_seq=old_st.next_doc_seq,
                        lineage=old_st.next_lineage(
                            {"txn_id": txn_id, "ts": now, "migrated_out": True}
                        ),
                    )
            return {
                "schema": snapshot_schema,
                "n_parts": self.cfg.n_parts,
                "partitions": parts,
                "salt_map": partitioner.salt_map,
                "salt_hash_fingerprint": self._salt_fp,
                "pending_migrations": pending_next,
                "next_part": partitioner.next_part,
                "metrics": metrics,
                "consumed_inputs": {
                    **(base.consumed_inputs if base else {}),
                    **self._input_ledger,
                },
                "quarantine_files": (base.quarantine_files if base else [])
                + ([quarantine["file"]] if quarantine is not None else []),
            }

        man, attempts = self.lake.commit_next(
            current, txn_id, build, self.cfg.commit_retries
        )
        _lap("commit")
        report = {
            "version": man.version,
            "txn_id": txn_id,
            "rows_upserted": totals["rows_upserted"],
            "rows_deleted": totals["rows_deleted"],
            "rows_carried": totals["rows_carried"],
            "commit_attempts": attempts,
        }
        if quarantine is not None:
            report["rows_quarantined"] = quarantine["rows"]
            report["quarantine"] = quarantine
        report.update(
            {
                "events_in": events_seen,
                "parts_changed": len(meta_rows),
                "salted_domains": [d.domain for d in decisions],
                "migrated_domains": sorted(pending.keys()),
                "timings": timings,
                "wall_s": time.time() - t0,
            }
        )
        if self.freeze_routing:
            report["domain_rows"] = domain_totals
        if self.cfg.run_qa:
            from radiant_portal_pipeline_ray.stages.qa import (
                cross_exclusive,
                generate_checks,
                run_checks,
                snapshot_checks,
            )

            # QA reads the version this round committed, not the lake's
            # current one
            checks = snapshot_checks()
            have = {c.name for c in checks}
            # pattern-driven coverage of the committed schema: any *_frac /
            # *_count / *_id column added later is auto-checked (VERDICT #7)
            checks += [
                c for c in generate_checks(man.schema) if c.name not in have
            ]
            files = lakescan.part_files(man)
            qa = run_checks(
                lakescan.scan(self.lake, man, files, None, ~pc.field("deleted")),
                checks,
            )
            if files:
                # cross-table exclusivity (A8 analogue): a url must never be
                # both live and tombstoned in one committed snapshot
                live = lakescan.scan(
                    self.lake, man, files, ["url"], ~pc.field("deleted")
                )
                tomb = lakescan.scan(
                    self.lake, man, files, ["url"], pc.field("deleted")
                )
                ce = cross_exclusive(live, tomb, "url")
                qa["checks"]["live_tombstone_exclusive"] = ce
                qa["passed"] = qa["passed"] and ce["ok"]
            report["qa"] = qa
        return report


    # ------------------------------------------------------------------
    def read_snapshot(
        self,
        columns: list[str] | None = None,
        include_tombstones: bool = False,
        version: int | None = None,
        prune: dict | None = None,
    ) -> "rd.Dataset":
        """Committed state as a streaming Dataset (live rows only by
        default — retained delete tombstones are engine-internal).

        ``version`` time-travels to any RETAINED manifest version (the
        Iceberg-snapshot analogue, reference `radiant/tasks/iceberg`;
        retention is governed by ``gc(keep_versions=...)``). Raises
        ``FileNotFoundError`` for a pruned/unknown version.

        ``prune`` is an interval spec ``{col: (lo, hi)}`` over the
        zone-mapped columns (``url``/``warc_ts``/``lsn``, endpoints
        inclusive, either side None = open). Files whose manifest zone maps
        prove emptiness are skipped WITHOUT touching storage (pure driver
        math, ``state/zonemaps.py``); the exact interval filter is then
        pushed into the surviving files' scan, so the result equals an
        unpruned read + filter. Files lacking stats are read, never
        dropped.

        Planning reads no parquet footer either: the read tasks come
        straight from the manifest's file list, bytes and schema
        (``state/lakescan.py``), and every block, zero-row ones included,
        carries the projected schema."""
        man = (
            self.lake.read_manifest(version)
            if version is not None
            else self.lake.current_manifest()
        )
        if not man or man.schema is None:
            return local_dataset(CHANGELOG_SCHEMA.empty_table())
        files = lakescan.part_files(man)
        filt = None if include_tombstones else ~pc.field("deleted")
        if prune:
            kept = set(plan_files(man, prune)[0])
            files = [fb for fb in files if fb[0] in kept]
            expr = prune_expression(prune)
            if expr is not None:
                filt = expr if filt is None else filt & expr
        return lakescan.scan(self.lake, man, files, columns, filt)

    def read_changes(
        self, v_from: int, v_to: int, n_buckets: int = 64
    ) -> "rd.Dataset":
        """Change-data-feed between two retained versions: streaming
        ``(change_op I/U/D, url, lsn_from, lsn_to)``. Partitions whose file
        lists are identical at both versions are pruned from the read
        entirely (see ``pipelines/changefeed.py``)."""
        from radiant_portal_pipeline_ray.pipelines.changefeed import (
            read_changes,
        )

        return read_changes(self, v_from, v_to, n_buckets)

    def rollback(self, to_version: int) -> dict:
        """Publish a NEW manifest whose state is a verbatim copy of retained
        version ``to_version`` (Iceberg rollback analogue): partitions,
        watermarks, salt map, consumed-inputs ledger all revert, so change
        events the rolled-back versions had consumed re-apply on the next
        tail round — exactly the recover-from-bad-apply semantics. Data
        files are immutable and shared between versions, so rollback moves
        no data; it is one manifest commit. The bad versions stay readable
        for forensics until GC (or a tag) decides otherwise."""
        current = self.lake.current_manifest()
        if current is None:
            raise FileNotFoundError("empty lake: nothing to roll back")
        if to_version == current.version:
            return {"version": current.version, "noop": True}
        old = self.lake.read_manifest(to_version)  # raises if pruned
        state = {f: getattr(old, f) for f in CARRIED_FIELDS}
        state["metrics"] = {
            "op": "rollback",
            "rollback_of": to_version,
            # the partitioner's tracking state reverts with the data
            "hot_counts": dict(old.metrics.get("hot_counts", {})),
        }
        # a concurrent commit makes the rollback target stale: no rebase
        committed, _ = self.lake.commit_next(
            current, self.lake.new_txn_id(), lambda base: state, retries=1
        )
        return {
            "version": committed.version,
            "rolled_back_to": to_version,
            "noop": False,
        }

    def snapshot_checksums(self, version: int | None = None) -> pa.Table:
        """Per-partition anti-entropy checksums of the committed live state
        (order-independent wrap-around uint64 sum of a vectorized 64-bit
        content hash over url|lsn|text, plus row count). Two lakes hold identical live rows iff this table
        matches — the cheap replay-equality / replica-verification
        primitive: the result is one row per partition and no data row
        ever moves (per-batch partials are O(partitions))."""
        from radiant_portal_pipeline_ray.stages.qa import partition_checksums

        ds = self.read_snapshot(
            columns=["part", "url", "lsn", "text"], version=version
        )
        return partition_checksums(ds, "part", ["url", "lsn", "text"])

    def snapshot_checksums_incremental(
        self, prior_version: int, prior: pa.Table, version: int | None = None
    ) -> pa.Table:
        """``snapshot_checksums(version)`` computed O(changed): a partition
        whose manifest file list is IDENTICAL at both versions cannot differ
        (commits rewrite a partition's files whenever any of its rows
        change — the same invariant the change feed prunes on,
        ``pipelines/changefeed.py``), so its row from ``prior`` is reused
        verbatim and its data is never read. Only changed/new partitions
        re-scan. Equality with the full recompute is pinned in
        ``tests/test_snapshot_checksums.py``."""
        from radiant_portal_pipeline_ray.stages.qa import (
            partition_checksums,
            verify_checksum_fingerprint,
        )

        # refuse a prior built by a different hash implementation (polars
        # upgrade): reusing its rows next to fresh ones would produce a
        # table matching neither full recompute (ADVICE r4)
        hash_fn = verify_checksum_fingerprint(prior)
        man_from = self.lake.read_manifest(prior_version)
        man_to = (
            self.lake.read_manifest(version)
            if version is not None
            else self.lake.current_manifest()
        )
        from_files = {
            p: list(st.files) for p, st in man_from.partitions.items()
        }
        changed, kept = [], []
        for p, st in man_to.partitions.items():
            if from_files.get(p) == list(st.files):
                kept.append(p)
            else:
                changed.append(p)
        prior_kept = prior.filter(
            pc.is_in(prior.column("part"), value_set=pa.array(kept, pa.int64()))
        )
        files = lakescan.part_files(man_to, changed)
        if not files:
            fresh = prior_kept.slice(0, 0)
        else:
            ds = lakescan.scan(
                self.lake, man_to, files,
                ["part", "url", "lsn", "text"], ~pc.field("deleted"),
            )
            fresh = partition_checksums(
                ds, "part", ["url", "lsn", "text"], hash_fn=hash_fn
            )
            # a changed partition can become empty (all rows tombstoned):
            # it then has files but zero live rows and no checksum row —
            # matching the full recompute, which also emits no row for it
        from radiant_portal_pipeline_ray.stages.qa import (
            stamp_checksum_fingerprint,
        )

        out = pa.concat_tables(
            [prior_kept.replace_schema_metadata(), fresh.replace_schema_metadata()]
        )
        out = out.take(
            pc.sort_indices(out, sort_keys=[("part", "ascending")])
        )
        # re-stamp so the result is itself reusable as next round's prior
        return stamp_checksum_fingerprint(out, hash_fn)

    def snapshot_table(
        self,
        columns: list[str] | None = None,
        include_tombstones: bool = False,
        version: int | None = None,
    ) -> pa.Table:
        """Driver-side pyarrow materialization — tests/small results only.
        ``version`` time-travels to a retained manifest (see read_snapshot)."""
        man = (
            self.lake.read_manifest(version)
            if version is not None
            else self.lake.current_manifest()
        )
        if not man or not any(st.files for st in man.partitions.values()):
            sch = man.schema if man and man.schema else CHANGELOG_SCHEMA
            return pa.Table.from_arrays(
                [pa.array([], type=f.type) for f in sch], schema=sch
            )
        tables = []
        for st in man.partitions.values():
            for f in st.files:
                t = pq.read_table(
                    self.lake.abspath(f), columns=columns,
                    filesystem=self.lake.filesystem,
                )
                tables.append(t)
        out = pa.concat_tables(tables, promote_options="permissive")
        if not include_tombstones:
            if columns is None or "deleted" in (columns or []):
                out = out.filter(pc.equal(out.column("deleted"), False))
            else:
                mask = pa.concat_tables(
                    [
                        pq.read_table(
                            self.lake.abspath(f), columns=["deleted"],
                            filesystem=self.lake.filesystem,
                        )
                        for st in man.partitions.values()
                        for f in st.files
                    ]
                ).column("deleted")
                out = out.filter(pc.equal(mask.combine_chunks(), False))
        return out
