"""Layer-isolation pass: each worker-side layer timed alone, in-process.

Every public function the apply round runs on workers is called directly on
inputs captured from the workload: the change files it applied and the lake
it committed. Nothing is committed; merged files go to a scratch staging
directory that is deleted afterwards. Timings are medians over ``reps``
repetitions in one process, so they resist co-tenant noise far better than
the end-to-end figures.
"""

from __future__ import annotations

import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _median_time(fn, reps: int) -> tuple[float, object]:
    times, out = [], None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def isolation_pass(engine, paths: list[str], scratch: str, reps: int = 3) -> dict:
    import ray

    from radiant_portal_pipeline_ray.functions.hashing import (
        assign_parts,
        extract_domain,
    )
    from radiant_portal_pipeline_ray.functions.text import extract_text
    from radiant_portal_pipeline_ray.schemas import (
        CHANGELOG_SCHEMA,
        INTERNAL_FIELDS,
        unify_schemas,
    )
    from radiant_portal_pipeline_ray.stages.merge import MergeKernel
    from radiant_portal_pipeline_ray.stages.normalize import make_event_normalizer
    from radiant_portal_pipeline_ray.stages.taskshuffle import (
        chunk_units,
        enumerate_units,
        split_task,
    )

    cfg = engine.cfg
    man = engine.lake.current_manifest()
    events = pa.concat_tables([pq.read_table(p) for p in paths])
    n = events.num_rows
    salt_map = dict(man.salt_map) if man else {}
    salt_v = man.salt_hash_version if man else cfg.salt_hash_version_default
    max_part = max([cfg.n_parts - 1] + [p for ps in salt_map.values() for p in ps])

    # schemas exactly as an apply round derives them
    event_schema = unify_schemas([CHANGELOG_SCHEMA, events.schema])
    data_fields = [f for f in event_schema if f.name not in ("op", "lsn")]
    snapshot_schema = pa.schema(data_fields + INTERNAL_FIELDS)
    union_schema = pa.schema([pa.field("op", pa.string())] + list(snapshot_schema))

    out: dict[str, float] = {}
    html = events.column("html").combine_chunks()
    html_bytes = html.nbytes
    t, _ = _median_time(lambda: extract_text(html), reps)
    out["text.extract_ns_per_row"] = t / n * 1e9
    out["text.extract_mb_per_s"] = html_bytes / t / 1e6

    urls = events.column("url")
    domains = extract_domain(urls)
    t, _ = _median_time(
        lambda: assign_parts(urls, domains, cfg.n_parts, salt_map, salt_v), reps
    )
    out["hashing.assign_parts_ns_per_row"] = t / n * 1e9

    # watermarks are left empty so every captured event flows through
    normalizer = make_event_normalizer(
        event_schema, union_schema, cfg.n_parts, salt_map, {}, max_part,
        salt_hash_version=salt_v, quarantine=True,
    )
    no_text = events.drop_columns(["text"])
    t, (valid, quarantined) = _median_time(lambda: normalizer(no_text), reps)
    out["normalize.ns_per_row"] = t / n * 1e9
    out["normalize.rows_in"] = n
    out["normalize.rows_out"] = valid.num_rows
    out["normalize.rows_quarantined"] = quarantined.num_rows if quarantined else 0

    # one split task per chunk, as an apply round on this many CPUs launches
    cpus = int(ray.cluster_resources().get("CPU", 1))
    n_buckets = max(8, min(2 * cpus, max_part + 1))
    chunks = chunk_units(enumerate_units(paths), 2 * cpus)
    split_times, buckets = [], [[] for _ in range(n_buckets)]
    for ch in chunks:
        t0 = time.perf_counter()
        res = ray.get(
            list(
                split_task.options(num_returns=1 + n_buckets).remote(
                    ch, normalizer, n_buckets, None, None, ("text",)
                )
            )
        )
        split_times.append(time.perf_counter() - t0)
        for b, tab in enumerate(res[1:]):
            if tab is not None:
                buckets[b].append(tab)
    bucket_bytes = [sum(t.nbytes for t in tabs) for tabs in buckets]
    out["taskshuffle.split_p50_s"] = statistics.median(split_times)
    out["taskshuffle.split_max_s"] = max(split_times)
    out["taskshuffle.bytes_out"] = sum(bucket_bytes)
    mean = sum(bucket_bytes) / len(bucket_bytes)
    out["taskshuffle.bucket_skew"] = max(bucket_bytes) / mean if mean else 0.0

    # each partition merged with its committed (carried) files
    staging = os.path.join(scratch, "staging")
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    carry = {
        p: [engine.lake.abspath(f) for f in st.files]
        for p, st in (man.partitions.items() if man else [])
        if st.files
    }
    kernel = MergeKernel(
        txn_id="isolation",
        staging_dir=staging,
        snapshot_schema=snapshot_schema,
        next_doc_seq={
            p: st.next_doc_seq for p, st in (man.partitions.items() if man else [])
        },
        doc_id_part_shift=cfg.doc_id_part_shift,
        target_rows_per_file=cfg.target_rows_per_file,
        compression=cfg.compression,
        local_carry_files=carry,
        union_schema=union_schema,
    )
    part_times: dict[int, float] = {}
    metas = []
    for tabs in buckets:
        if not tabs:
            continue
        rows = pa.concat_tables(tabs, promote_options="permissive")
        parts = rows.column("part").to_numpy(zero_copy_only=False)
        for p in np.unique(parts):
            group = rows.filter(pa.array(parts == p)).combine_chunks()
            t, meta = _median_time(lambda: kernel.merge_partition(group, int(p)), reps)
            part_times[int(p)] = t
            metas.append(meta)
    shutil.rmtree(staging, ignore_errors=True)
    times = list(part_times.values())
    delta = sum(int(m["events_in"]) for m in metas)
    carried = sum(int(m["rows_carried"]) for m in metas)
    out["merge.part_p50_s"] = statistics.median(times)
    out["merge.part_max_s"] = max(times)
    out["merge.slowest_part"] = max(part_times, key=part_times.get)
    out["merge.rows_delta"] = delta
    out["merge.rows_carried"] = carried
    out["merge.carry_per_delta"] = carried / delta if delta else 0.0
    out["merge.bytes_written"] = sum(int(m["bytes"]) for m in metas)
    out["merge.ns_per_row"] = sum(times) / max(1, delta + carried) * 1e9
    return out
