"""Changelog normalization: the transform of the apply round's split tasks
(stateless, vectorized, zero-copy Arrow in / Arrow out).

Per event batch:
  1. align to the unified changelog schema (schema evolution: add/widen/drop)
     and split malformed events off into a quarantine table,
  2. null the ``text`` column — the committed snapshot NEVER trusts the
     incoming ``text``; the merge computes ``text = extract_text(html)``
     for the LWW winners only (stages/merge.py), so the split tasks spend
     no extraction on events that lose and ship no text through the
     object store,
  3. extract ``domain(url)`` and assign the partition id (salt-aware),
  4. drop events at-or-below the partition's committed watermark
     (idempotent re-delivery / resume),
  5. append a null ``doc_id`` column so events union cleanly with carried
     snapshot rows.

Reference analogue: the per-record extraction front-end + partition routing
(`radiant/tasks/vcf/snv/common.py:38-56`,
`radiant/tasks/starrocks/partition.py:195-231`) re-expressed as one Arrow
batch kernel; the watermark predicate mirrors
``updated_at >= COALESCE(ingested_at, epoch)``
(`radiant/dags/sql/radiant/sequencing_experiment_partition_select.sql:25-27`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from radiant_portal_pipeline_ray.functions.hashing import assign_parts, extract_domain
from radiant_portal_pipeline_ray.schemas import align_table


def invalid_event_reasons(t: pa.Table) -> pa.Array | None:
    """Vectorized malformed-event detection over an aligned event batch.
    Returns a string array (null = valid row) or None when every row is
    valid (the overwhelmingly common case — one cheap any() pass).

    Classes (first match wins): ``null_url`` (missing/empty url), ``bad_op``
    (op outside I/U/D), ``bad_lsn`` (missing/negative lsn), ``null_html``
    (I/U event without a payload). The reference fails the whole task on a
    malformed record (cyvcf2 raise); at 10^10 events a poison row must not
    kill the round — it routes to the quarantine table instead."""
    url = t.column("url")
    op = t.column("op")
    lsn = t.column("lsn")
    html = t.column("html")
    url_bad = pc.or_(
        pc.is_null(url), pc.fill_null(pc.equal(url, ""), True)
    )
    op_bad = pc.fill_null(
        pc.invert(pc.is_in(op, value_set=pa.array(["I", "U", "D"]))), True
    )
    lsn_bad = pc.or_(
        pc.is_null(lsn),
        pc.fill_null(pc.less(lsn, 0), True),
    )
    html_bad = pc.and_(
        pc.is_null(html),
        pc.fill_null(pc.not_equal(op, "D"), True),
    )
    any_bad = pc.or_(pc.or_(url_bad, op_bad), pc.or_(lsn_bad, html_bad))
    if not pc.any(any_bad).as_py():
        return None
    u = url_bad.to_numpy(zero_copy_only=False)
    o = op_bad.to_numpy(zero_copy_only=False)
    ls = lsn_bad.to_numpy(zero_copy_only=False)
    h = html_bad.to_numpy(zero_copy_only=False)
    reason = np.select(
        [u, o, ls, h],
        ["null_url", "bad_op", "bad_lsn", "null_html"],
        default="",
    )
    return pa.array(
        [r if r else None for r in reason.tolist()], type=pa.string()
    )


def make_event_normalizer(
    event_schema: pa.Schema,
    union_schema: pa.Schema,
    n_parts: int,
    salt_map: dict[str, list[int]],
    watermarks: dict[int, int],
    max_part_id: int,
    salt_hash_version: int = 2,
    quarantine: bool = True,
):
    """Build the split tasks' transform. All captured state is small and
    immutable (schemas + salt map + watermark dict) — broadcast once per
    task by Ray's closure serialization.

    The fn returns ``(valid_table, quarantine_table | None)``: malformed
    events are split off with a ``reason`` column instead of crashing the
    round or silently corrupting routing. There is no other mode:
    ``quarantine=False`` is refused."""
    if not quarantine:
        raise ValueError("make_event_normalizer always quarantines")
    wm_arr = np.full(max_part_id + 1, -1, dtype=np.int64)
    for p, w in watermarks.items():
        if p <= max_part_id:
            wm_arr[p] = w

    def normalize(batch: pa.Table):
        # incoming text is never exchanged: align pads the dropped column
        # with typed nulls
        if "text" in batch.column_names:
            batch = batch.drop_columns(["text"])
        t = align_table(batch, event_schema)
        qt = None
        reasons = invalid_event_reasons(t)
        if reasons is not None:
            bad = pc.is_valid(reasons)
            qt = t.filter(bad).append_column(
                pa.field("reason", pa.string()), reasons.filter(bad)
            )
            t = t.filter(pc.invert(bad))
        return _normalize_valid(t), qt

    def _normalize_valid(t: pa.Table) -> pa.Table:
        urls = t.column("url")
        domains = extract_domain(urls)
        parts = assign_parts(
            urls, domains, n_parts, salt_map, salt_hash_version
        )
        t = t.append_column(pa.field("part", pa.int32()), parts)

        lsn = t.column("lsn").to_numpy(zero_copy_only=False)
        pnp = parts.to_numpy(zero_copy_only=False).astype(np.int64)
        keep = lsn > wm_arr[pnp]
        if not keep.all():
            t = t.filter(pa.array(keep))
        return align_table(t, union_schema)

    return normalize


def make_snapshot_caster(
    union_schema: pa.Schema,
    n_parts: int,
    salt_map: dict[str, list[int]],
    salt_hash_version: int = 2,
):
    """Cast carried-forward snapshot rows into the union (merge-input) layout.

    Sets ``op='S'`` (state) and — crucially — RECOMPUTES ``part`` from the
    *current* salt map, which is what migrates a freshly-salted hot domain's
    historical rows out of its base partition (SURVEY §7.5 "skewed domains":
    url→part stays a pure function of the persisted salt map, so carried
    rows and new events always co-locate).
    """

    def cast(batch: pa.Table) -> pa.Table:
        urls = batch.column("url")
        domains = extract_domain(urls)
        parts = assign_parts(
            urls, domains, n_parts, salt_map, salt_hash_version
        )
        idx = batch.schema.get_field_index("part")
        batch = batch.set_column(idx, pa.field("part", pa.int32()), parts)
        batch = batch.append_column(
            pa.field("op", pa.string()),
            pa.array(["S"] * batch.num_rows, type=pa.string()),
        )
        return align_table(batch, union_schema)

    return cast
