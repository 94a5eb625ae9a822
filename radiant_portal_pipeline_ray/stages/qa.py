"""Data-QA checks as a pipeline stage (dbt-test analogue).

Reference analogue: the dbt data-quality suite run post-import — generic
macros not-empty / not-all-null / unique / in-range-by-column-pattern /
cross-table exclusivity (`radiant/data_qa/macros/test_should_be_within_range.sql:1-38`,
`radiant/data_qa/tests/germline_snv_occurrence__validate_exclusive_with_somatic.sql:1-14`,
run from the DAG `radiant/dags/data_integrity_starrocks.py:141-185`).

Each check is a partial-then-fold aggregate over a Dataset: only the
per-batch partials reach the driver (a small input, already on the
driver, maps there: ``exchange_group``'s ``pre=``). The suite returns a
report dict the engine persists next to the manifest, and
``CdcEngine.apply(..)`` runs it post-commit when ``EngineConfig.run_qa``
is set. Failures are data, not exceptions — the caller decides to gate
(same known-failure-tolerance shape as the reference's Jira-tagged dbt
failures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pyarrow as pa
import pyarrow.compute as pc
from ray.data import Dataset


@dataclass
class QACheck:
    name: str
    #: batch → partial counters dict; partials are summed
    partial: Callable[[pa.Table], dict]
    #: summed counters → (ok, detail)
    verdict: Callable[[dict], tuple[bool, str]]


def run_checks(
    ds: Dataset,
    checks: list[QACheck],
    known_failures: dict[str, str] | None = None,
) -> dict:
    """One streaming pass computes every check's partial counters.

    ``known_failures`` maps check name → tracking-ticket tag (reference:
    dbt-test runs tolerate Jira-tagged known failures,
    `radiant/dags/data_integrity_starrocks.py:141-185`): a failing check
    listed there is reported with its tag under ``tolerated`` and does NOT
    flip ``passed``; a PASSING check listed there is surfaced under
    ``stale_known_failures`` so resolved tickets get cleaned up."""

    def partials(batch: pa.Table) -> pa.Table:
        rows = []
        for c in checks:
            d = c.partial(batch)
            for k, v in d.items():
                rows.append({"check": c.name, "key": k, "val": int(v)})
        return pa.Table.from_pylist(
            rows or [{"check": "_none", "key": "_", "val": 0}]
        )

    from radiant_portal_pipeline_ray.stages.taskshuffle import collect, exchange_group

    def fold(g: pa.Table) -> pa.Table:
        out = g.group_by(["check", "key"]).aggregate([("val", "sum")])
        return out.rename_columns(["check", "key", "val"])

    agg = exchange_group(ds, ["check", "key"], fold, pre=partials)
    counters: dict[str, dict] = {}
    for r in collect(agg).to_pylist():
        counters.setdefault(r["check"], {})[r["key"]] = r["val"]

    known = known_failures or {}
    report: dict = {
        "passed": True,
        "checks": {},
        "tolerated": {},
        "stale_known_failures": {},
    }
    for c in checks:
        ok, detail = c.verdict(counters.get(c.name, {}))
        report["checks"][c.name] = {"ok": ok, "detail": detail}
        if not ok and c.name in known:
            report["tolerated"][c.name] = known[c.name]
        elif ok and c.name in known:
            report["stale_known_failures"][c.name] = known[c.name]
        else:
            report["passed"] = report["passed"] and ok
    return report


# ---- generic check builders (dbt-macro analogues) -------------------------

def not_empty() -> QACheck:
    return QACheck(
        "not_empty",
        lambda b: {"rows": b.num_rows},
        lambda c: (c.get("rows", 0) > 0, f"rows={c.get('rows', 0)}"),
    )


def no_nulls(col: str) -> QACheck:
    return QACheck(
        f"no_nulls:{col}",
        lambda b: {"nulls": b.column(col).null_count},
        lambda c: (c.get("nulls", 0) == 0, f"nulls={c.get('nulls', 0)}"),
    )


def in_range(col: str, lo: float, hi: float) -> QACheck:
    def partial(b: pa.Table) -> dict:
        v = b.column(col)
        bad = pc.sum(
            pc.cast(
                pc.or_(pc.less(v, lo), pc.greater(v, hi)), pa.int64()
            )
        ).as_py() or 0
        return {"out_of_range": bad}

    return QACheck(
        f"in_range:{col}",
        partial,
        lambda c: (
            c.get("out_of_range", 0) == 0,
            f"out_of_range={c.get('out_of_range', 0)}",
        ),
    )


def accepted_values(col: str, allowed: list) -> QACheck:
    allowed_arr = pa.array(allowed)

    def partial(b: pa.Table) -> dict:
        v = pc.drop_null(b.column(col))
        bad = len(v) - pc.sum(
            pc.cast(pc.is_in(v, value_set=allowed_arr), pa.int64())
        ).as_py()
        return {"bad": int(bad)}

    return QACheck(
        f"accepted_values:{col}",
        partial,
        lambda c: (c.get("bad", 0) == 0, f"unexpected={c.get('bad', 0)}"),
    )


def unique_key_global(ds: Dataset, col: str) -> dict:
    """Exact global uniqueness: keyed task-shuffle, per-bucket duplicate
    count (every value of ``col`` lands in exactly one bucket). A separate
    shuffle — run on demand, not in the streaming pass."""
    from radiant_portal_pipeline_ray.stages.taskshuffle import collect, exchange_group

    def dup_count(g: pa.Table) -> pa.Table:
        counts = g.group_by(col).aggregate([(col, "count")])
        n_dup = int(
            pc.sum(
                pc.greater(counts.column(f"{col}_count"), 1).cast(pa.int64())
            ).as_py()
            or 0
        )
        return pa.table({"dups": pa.array([n_dup], type=pa.int64())})

    dups = collect(
        exchange_group(ds, [col], dup_count), pa.schema([("dups", pa.int64())])
    )
    dup = int(pc.sum(dups.column("dups")).as_py() or 0)
    return {"ok": dup == 0, "detail": f"duplicate_keys={dup}"}


def cross_exclusive(
    ds_a: Dataset,
    ds_b: Dataset,
    key_a: str,
    key_b: str | None = None,
) -> dict:
    """CROSS-TABLE exclusivity: keys present in BOTH datasets are
    violations. Distributed: per-batch distinct on each side, then a
    hash-partitioned semi join — only matching keys (the violations)
    survive, and only their count reaches the driver. Driver-local sides
    stay tables, so no count starts an execution.

    Reference analogue: the dbt cross-table test
    `radiant/data_qa/tests/germline_snv_occurrence__validate_exclusive_with_somatic.sql:1-14`
    (germline and somatic occurrences must not share (seq_id, locus_id)).
    """
    from radiant_portal_pipeline_ray.stages.joins import hash_partitioned_join
    from radiant_portal_pipeline_ray.stages.taskshuffle import map_blocks, num_rows

    key_b = key_b or key_a

    def distinct(col):
        def f(b: pa.Table) -> pa.Table:
            return b.select([col]).group_by(col).aggregate([])

        return f

    a = map_blocks(ds_a, distinct(key_a))
    b = map_blocks(ds_b, distinct(key_b))
    if num_rows(a) == 0 or num_rows(b) == 0:  # empty side ⇒ trivially exclusive
        return {"ok": True, "detail": "shared_keys=0"}
    n = num_rows(hash_partitioned_join(a, b, key_a, key_b, how="semi"))
    return {"ok": n == 0, "detail": f"shared_keys={n}"}


def snapshot_checks() -> list[QACheck]:
    """Default post-commit suite for the CDC snapshot."""
    return [
        not_empty(),
        no_nulls("url"),
        no_nulls("doc_id"),
        no_nulls("part"),
        in_range("lsn", 0, 2**62),
    ]


# ---- pattern-driven check generation (dbt dynamic-macro analogue) ---------


@dataclass
class CheckPattern:
    """One rule of the generator: columns whose NAME matches ``pattern``
    (fnmatch glob) get ``build(col_name, col_type)`` applied — return a
    QACheck, or None to skip (e.g. the rule only applies to numerics)."""

    pattern: str
    build: Callable[[str, pa.DataType], "QACheck | None"]
    description: str = ""


def _is_numeric(dt: pa.DataType) -> bool:
    return (
        pa.types.is_integer(dt)
        or pa.types.is_floating(dt)
        or pa.types.is_decimal(dt)
    )


def _numeric_range(lo: float, hi: float):
    def build(col: str, dt: pa.DataType):
        return in_range(col, lo, hi) if _is_numeric(dt) else None

    return build


def default_check_patterns() -> list[CheckPattern]:
    """Convention-over-registration rules, mirroring the reference's
    dynamic dbt macro (`radiant/data_qa/macros/test_should_be_within_range.sql:1-38`
    picks columns by `like '_pf_'` substring and bounds them to [0,1]):

    - ``*_frac`` / ``*_ratio`` / ``*_prob`` / ``*_score``: in [0, 1]
    - ``*_pct``: in [0, 100]
    - ``*_count`` / ``n_*`` / ``num_*``: non-negative
    - ``*_id`` / ``*_key``: no nulls
    """
    inf = float("inf")
    return [
        CheckPattern("*_frac", _numeric_range(0, 1), "fraction in [0,1]"),
        CheckPattern("*_ratio", _numeric_range(0, 1), "ratio in [0,1]"),
        CheckPattern("*_prob", _numeric_range(0, 1), "probability in [0,1]"),
        CheckPattern("*_score", _numeric_range(0, 1), "score in [0,1]"),
        CheckPattern("*_pct", _numeric_range(0, 100), "percent in [0,100]"),
        CheckPattern("*_count", _numeric_range(0, inf), "count >= 0"),
        CheckPattern("n_*", _numeric_range(0, inf), "count >= 0"),
        CheckPattern("num_*", _numeric_range(0, inf), "count >= 0"),
        CheckPattern("*_id", lambda c, t: no_nulls(c), "identifier not null"),
        CheckPattern("*_key", lambda c, t: no_nulls(c), "key not null"),
    ]


def generate_checks(
    schema: pa.Schema,
    patterns: "list[CheckPattern] | None" = None,
    exclude: tuple = (),
) -> list[QACheck]:
    """Walk a table SCHEMA and emit every check whose column-name pattern
    matches — so a newly added ``*_frac`` column is range-checked on the
    next run with zero hand registration (VERDICT r4 #7). Checks are
    deduped by name; pass ``exclude`` column names to opt columns out."""
    import fnmatch

    pats = default_check_patterns() if patterns is None else patterns
    out: list[QACheck] = []
    seen: set[str] = set()
    for fld in schema:
        if fld.name in exclude:
            continue
        for p in pats:
            if not fnmatch.fnmatch(fld.name, p.pattern):
                continue
            chk = p.build(fld.name, fld.type)
            if chk is not None and chk.name not in seen:
                seen.add(chk.name)
                out.append(chk)
    return out


def _row_fingerprint(key_arr, hash_fn: str):
    """Per-row 64-bit content hash used by partition_checksums."""
    if hash_fn == "md5":
        from radiant_portal_pipeline_ray.stages.dedup import md5_hash64

        return md5_hash64(key_arr)
    import polars as pl

    if isinstance(key_arr, pa.ChunkedArray):
        key_arr = key_arr.combine_chunks()
    return pl.from_arrow(key_arr).hash(seed=0xC0FFEE).to_numpy()


#: canary probes hashed to fingerprint the checksum hash IMPLEMENTATION —
#: the xx64 path is polars' hash, which is not contractually stable across
#: polars versions (same caveat as functions/hashing.py's salt hash, which
#: uses the manifest-persisted salt_hash_fingerprint the same way)
_CHECKSUM_PROBES = (
    "",
    "a",
    "abc|123",
    "é中文/\U0001f310",
    "graft-checksum-canary-0123456789",
)


def checksum_fingerprint(hash_fn: str = "xx64") -> list[int]:
    """Fingerprint of the active checksum-hash implementation: the canary
    probes' hashes. Two checksum tables are comparable iff their
    fingerprints match — otherwise one side was built by a different
    hash implementation (e.g. a polars upgrade changed xx64) and every
    'mismatch' it reports would be spurious."""
    import numpy as np

    h = _row_fingerprint(pa.array(_CHECKSUM_PROBES, pa.string()), hash_fn)
    return [int(x) for x in np.asarray(h, dtype=np.uint64).view(np.int64)]


class ChecksumFingerprintMismatch(RuntimeError):
    """A checksum table from a different hash implementation was offered
    for reuse/comparison — recompute it with the current build instead."""


def stamp_checksum_fingerprint(t: "pa.Table", hash_fn: str) -> "pa.Table":
    import json

    meta = dict(t.schema.metadata or {})
    meta[b"checksum_hash_fn"] = hash_fn.encode()
    meta[b"checksum_fingerprint"] = json.dumps(
        checksum_fingerprint(hash_fn)
    ).encode()
    return t.replace_schema_metadata(meta)


def verify_checksum_fingerprint(t: "pa.Table") -> str:
    """Refuse a checksum table whose recorded hash implementation differs
    from (or predates) the current build's. Returns the table's hash_fn.
    Raises ChecksumFingerprintMismatch — the caller must recompute from
    data rather than silently mix incomparable checksums (ADVICE r4)."""
    import json

    meta = t.schema.metadata or {}
    if b"checksum_fingerprint" not in meta:
        raise ChecksumFingerprintMismatch(
            "checksum table carries no hash-implementation fingerprint "
            "(built by an older build?) — recompute with "
            "snapshot_checksums() before incremental reuse"
        )
    hash_fn = meta.get(b"checksum_hash_fn", b"xx64").decode()
    recorded = json.loads(meta[b"checksum_fingerprint"])
    current = checksum_fingerprint(hash_fn)
    if recorded != current:
        raise ChecksumFingerprintMismatch(
            f"checksum table was built with a different {hash_fn!r} hash "
            "implementation (canary fingerprint differs — e.g. a polars "
            "upgrade); its rows are not comparable to this build's. "
            "Recompute with snapshot_checksums(), or use hash_fn='md5' "
            "for version-stable checksums."
        )
    return hash_fn


def partition_checksums(
    ds: Dataset, group_col: str, key_cols: list[str], hash_fn: str = "xx64"
) -> "pa.Table":
    """Anti-entropy checksums per ``group_col``: row count + an
    order-independent wrap-around uint64 sum of per-row fingerprints over
    ``key_cols`` (joined with '|'). Two replicas (or a lake and its
    replayed twin) hold identical rows in a group iff count AND checksum
    agree — without moving a single data row: per-batch partials are
    O(groups), the exchange moves only those, and the final table is one
    row per group (checksum split into two int64 halves).

    ``hash_fn``: ``"xx64"`` (default) is polars' vectorized 64-bit hash —
    no per-row Python, the engine-internal choice; both sides of a replica
    comparison must run the same build. ``"md5"`` is the SQL-reproducible
    fingerprint (``CAST('0x'||substr(md5(k),1,16) AS UBIGINT)``) for
    oracle-checked paths; it pays one hashlib call per unique key.
    Reference analogue: the post-import data-integrity dbt checks
    (`radiant/dags/import_radiant.py:191-197`), strengthened from counts
    to content hashes."""
    import numpy as np
    import pyarrow.compute as pc

    from radiant_portal_pipeline_ray.stages.taskshuffle import (
        collect,
        exchange_group,
        sort_table,
    )

    out_schema = pa.schema(
        [(c, pa.int64()) for c in (group_col, "n_rows", "checksum_lo", "checksum_hi")]
    )

    def _fingerprint(key_arr):
        return _row_fingerprint(key_arr, hash_fn)

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    group_col: pa.array([], pa.int64()),
                    "n_rows": pa.array([], pa.int64()),
                    "sum_bits": pa.array([], pa.int64()),
                }
            )
        parts = [pc.cast(b.column(c), pa.string()) for c in key_cols]
        key = parts[0] if len(parts) == 1 else pc.binary_join_element_wise(
            *parts, "|"
        )
        h = _fingerprint(pc.fill_null(key, ""))
        grp = pc.cast(b.column(group_col), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        order = np.argsort(grp, kind="stable")
        gs, hs = grp[order], h[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(gs[1:] != gs[:-1]) + 1, [len(gs)])
        )
        return pa.table(
            {
                group_col: pa.array(gs[starts[:-1]].astype(np.int64)),
                "n_rows": pa.array(np.diff(starts).astype(np.int64)),
                "sum_bits": pa.array(
                    np.add.reduceat(hs, starts[:-1]).view(np.int64)
                ),
            }
        )

    def final(group: pa.Table) -> pa.Table:
        if group.num_rows == 0:
            return out_schema.empty_table()
        g = group.column(group_col).to_numpy()
        n = group.column("n_rows").to_numpy()
        s = group.column("sum_bits").to_numpy().view(np.uint64)
        order = np.argsort(g, kind="stable")
        g, n, s = g[order], n[order], s[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(g[1:] != g[:-1]) + 1, [len(g)])
        )
        tot = np.add.reduceat(s, starts[:-1])
        return pa.table(
            {
                group_col: pa.array(g[starts[:-1]].astype(np.int64)),
                "n_rows": pa.array(
                    np.add.reduceat(n, starts[:-1]).astype(np.int64)
                ),
                "checksum_lo": pa.array(
                    (tot & np.uint64(0xFFFFFFFF)).astype(np.int64)
                ),
                "checksum_hi": pa.array((tot >> np.uint64(32)).astype(np.int64)),
            }
        )

    out = exchange_group(ds, [group_col], final, pre=partial)
    t = sort_table(collect(out, out_schema), group_col)
    return stamp_checksum_fingerprint(t, hash_fn)
