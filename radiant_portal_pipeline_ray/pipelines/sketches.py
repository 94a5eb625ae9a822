"""Sketch aggregates: distributed HyperLogLog distinct counting.

At 100 TB, ``count(distinct user_id) group by key`` is the aggregate whose
exact form forces an all-to-all shuffle of every raw value (the engine's
exact path, `q_event_type_stats`, ships per-batch-deduped values). The HLL
form ships a FIXED 2^p-byte register table per (batch, group) instead —
the classic mergeable-sketch shape:

  map_batches: per-batch per-group register table (vectorized numpy max)
  → exchange_group on the key: elementwise register max per group
  → estimate (linear counting below the small-range threshold, else the
    bias-corrected harmonic mean; Flajolet et al. 2007 / the standard
    small-range correction).

Deterministic: the value hash is a fixed splitmix64, so the estimate is a
pure function of the value SET — stable across cluster sizes, batch splits
and resumes (asserted in tests). Approximate ⇒ rows-only driver entry; the
pytest gate bounds error vs the exact count and proves merge associativity.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from radiant_portal_pipeline_ray.stages.bloom import _splitmix64

QUERIES: dict = {}


def _register(name: str, sql: str | None):
    def deco(fn):
        QUERIES[name] = (fn, sql)
        return fn

    return deco


class HllSketch:
    """Register-table helpers for precision ``p`` (m = 2^p buckets)."""

    def __init__(self, p: int = 14):
        self.p = p
        self.m = 1 << p

    def registers(self, values: np.ndarray) -> np.ndarray:
        """uint8[m] register table for one group's values (vectorized)."""
        h = _splitmix64(values)
        idx = (h >> np.uint64(64 - self.p)).astype(np.int64)
        rest = h << np.uint64(self.p)
        # rank = leading zeros of the remaining 64-p bits, +1, capped
        nz = rest != 0
        lz = np.full(len(h), 64 - self.p, dtype=np.uint8)
        # count leading zeros via bit_length: lz = 64 - bit_length(rest)
        bl = np.zeros(len(h), dtype=np.int64)
        r = rest[nz]
        # log2 on uint64 via float is unsafe near 2^64; use byte-wise scan
        bl_nz = np.zeros(len(r), dtype=np.int64)
        shift = np.uint64(32)
        cur = r.copy()
        step = 32
        while step >= 1:
            hi = cur >> np.uint64(step)
            has = hi != 0
            bl_nz[has] += step
            cur = np.where(has, hi, cur)
            step //= 2
        bl[nz] = bl_nz + 1  # bit_length
        lz_nz = 64 - bl[nz]
        lz[nz] = np.minimum(lz_nz, 64 - self.p).astype(np.uint8)
        rank = lz + 1  # leading zeros + 1, in [1, 64-p+1]
        regs = np.zeros(self.m, dtype=np.uint8)
        np.maximum.at(regs, idx, rank)
        return regs

    def estimate(self, regs: np.ndarray) -> float:
        m = float(self.m)
        zeros = int(np.count_nonzero(regs == 0))
        if zeros and (est_lc := m * np.log(m / zeros)) <= 2.5 * m:
            return float(est_lc)  # small-range linear counting
        alpha = 0.7213 / (1.0 + 1.079 / m)
        est = alpha * m * m / float(np.sum(np.exp2(-regs.astype(np.float64))))
        return float(est)


@_register("q_approx_distinct_users", None)  # approximate — rows-only
def q_approx_distinct_users(sf_dir: str, p: int = 14):
    """Per event_type approximate distinct user_id via mergeable HLL
    sketches; error gated <2% vs exact in pytest (HLL p=14 ≈ 0.81% typical,
    and linear counting is near-exact at test-scale cardinalities)."""
    import ray.data as rd

    from radiant_portal_pipeline_ray.sources.io import read_parquet_clean
    from radiant_portal_pipeline_ray.stages.taskshuffle import exchange_group, map_blocks

    hll = HllSketch(p)

    ds = read_parquet_clean(
        os.path.join(sf_dir, "events.parquet"), columns=["event_type", "user_id"]
    )

    def partial(b: pa.Table) -> pa.Table:
        """One register-table row per (batch, event_type)."""
        b = b.drop_null()  # a null user_id would poison the int64 cast
        if b.num_rows == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "regs": pa.array([], pa.binary()),
                }
            )
        b = b.sort_by([("event_type", "ascending")])
        et = b.column("event_type").to_numpy(zero_copy_only=False)
        uid = b.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        starts = np.r_[0, np.nonzero(et[1:] != et[:-1])[0] + 1, len(et)]
        keys, blobs = [], []
        for i in range(len(starts) - 1):
            lo, hi = int(starts[i]), int(starts[i + 1])
            keys.append(et[lo])
            blobs.append(hll.registers(uid[lo:hi]).tobytes())
        return pa.table(
            {
                "event_type": pa.array(keys, pa.string()),
                "regs": pa.array(blobs, pa.binary()),
            }
        )

    def merge(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "approx_users": pa.array([], pa.int64()),
                }
            )
        t = t.sort_by([("event_type", "ascending")])
        et = t.column("event_type").to_numpy(zero_copy_only=False)
        blobs = t.column("regs").to_pylist()
        starts = np.r_[0, np.nonzero(et[1:] != et[:-1])[0] + 1, len(et)]
        keys, ests = [], []
        for i in range(len(starts) - 1):
            lo, hi = int(starts[i]), int(starts[i + 1])
            regs = np.zeros(hll.m, dtype=np.uint8)
            for b in blobs[lo:hi]:
                np.maximum(regs, np.frombuffer(b, dtype=np.uint8), out=regs)
            keys.append(et[lo])
            ests.append(int(round(hll.estimate(regs))))
        return pa.table(
            {
                "event_type": pa.array(keys, pa.string()),
                "approx_users": pa.array(ests, pa.int64()),
            }
        )

    partials = map_blocks(ds, partial)
    return exchange_group(partials, ["event_type"], merge, sort_by="event_type")


# ---------------------------------------------------------------------------
# Deterministic stratified split: the standard train/val/test assignment of
# a training corpus — md5(doc_id) % 100 bands (90/5/5). Exactly
# SQL-reproducible, embarrassingly parallel (pure map_batches projection),
# stable across runs / cluster sizes / resumes, and a doc's split never
# changes when OTHER docs are added (hash-range, not rank, assignment).
# ---------------------------------------------------------------------------
@_register(
    "t_split_assign",
    """
    SELECT doc_id, lang,
           CASE
             WHEN h % 100 < 90 THEN 'train'
             WHEN h % 100 < 95 THEN 'val'
             ELSE 'test'
           END AS split
    FROM (
      SELECT doc_id, lang,
             CAST('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16)
                  AS UBIGINT) AS h
      FROM documents
    )
    ORDER BY doc_id
    """,
)
def t_split_assign(sf_dir: str, bands=(90, 95)):
    from radiant_portal_pipeline_ray.sources.io import read_parquet_clean
    from radiant_portal_pipeline_ray.stages.dedup import md5_hash64
    from radiant_portal_pipeline_ray.stages.taskshuffle import map_blocks, sort_table

    ds = read_parquet_clean(
        os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "lang"]
    )

    def assign(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.append_column(
                pa.field("split", pa.string()), pa.array([], pa.string())
            )
        ids = pc.cast(b.column("doc_id"), pa.string())
        mod = md5_hash64(ids) % np.uint64(100)
        split = np.where(
            mod < bands[0], "train", np.where(mod < bands[1], "val", "test")
        )
        return b.append_column(
            pa.field("split", pa.string()), pa.array(split, pa.string())
        )

    return sort_table(map_blocks(ds, assign), "doc_id")


# ---------------------------------------------------------------------------
# Table checksums per bucket — the anti-entropy / replica-verification op a
# CDC pipeline runs to prove source and target hold identical rows without
# moving them: per hash-bucket row count + order-independent wrap-around
# uint64 sum of per-row md5 fingerprints. Any single-row difference flips
# the checksum. Per-batch partials are 16 fixed rows, so the exchange moves
# O(buckets), never O(rows); the sum wraps mod 2^64 identically in numpy
# (native uint64 add) and the oracle (HUGEINT % 2^64), emitted as two
# BIGINT halves so both engines agree on type.
# ---------------------------------------------------------------------------
#: the checksum buckets, ``user_id % 16``: an output value the oracle SQL
#: below pins, not an exchange setting
_CHECKSUM_BUCKETS = 16


@_register(
    "cdc_bucket_checksums",
    """
    SELECT bucket,
           COUNT(*) AS n_rows,
           CAST((SUM(h) % 18446744073709551616) % 4294967296 AS BIGINT)
             AS checksum_lo,
           CAST((SUM(h) % 18446744073709551616) // 4294967296 AS BIGINT)
             AS checksum_hi
    FROM (
      SELECT ((user_id % 16) + 16) % 16 AS bucket,
             CAST(CAST('0x' || substr(md5(
               CAST(event_id AS VARCHAR) || '|' ||
               CAST(user_id AS VARCHAR) || '|' || event_type
             ), 1, 16) AS UBIGINT) AS HUGEINT) AS h
      FROM events
    )
    GROUP BY bucket
    ORDER BY bucket
    """,
)
def cdc_bucket_checksums(sf_dir: str):
    import pyarrow.compute as pc

    from radiant_portal_pipeline_ray.sources.io import read_parquet_clean
    from radiant_portal_pipeline_ray.stages.dedup import md5_hash64
    from radiant_portal_pipeline_ray.stages.taskshuffle import exchange_group, map_blocks

    ev = read_parquet_clean(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "user_id", "event_type"],
    )

    def partial(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return pa.table(
                {
                    "bucket": pa.array([], pa.int64()),
                    "n_rows": pa.array([], pa.int64()),
                    "sum_bits": pa.array([], pa.int64()),
                }
            )
        key = pc.binary_join_element_wise(
            pc.cast(b.column("event_id"), pa.string()),
            pc.cast(b.column("user_id"), pa.string()),
            b.column("event_type"),
            "|",
        )
        h = md5_hash64(key)  # uint64
        bucket = b.column("user_id").to_numpy() % _CHECKSUM_BUCKETS
        order = np.argsort(bucket, kind="stable")
        bs, hs = bucket[order], h[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(bs[1:] != bs[:-1]) + 1, [len(bs)])
        )
        sums = np.add.reduceat(hs, starts[:-1])  # uint64 wrap-add
        return pa.table(
            {
                "bucket": pa.array(bs[starts[:-1]].astype(np.int64)),
                "n_rows": pa.array(np.diff(starts).astype(np.int64)),
                "sum_bits": pa.array(sums.view(np.int64)),  # bit-carrier
            }
        )

    def final(group: pa.Table) -> pa.Table:
        bucket = group.column("bucket").to_numpy()
        n = group.column("n_rows").to_numpy()
        s = group.column("sum_bits").to_numpy().view(np.uint64)
        order = np.argsort(bucket, kind="stable")
        bucket, n, s = bucket[order], n[order], s[order]
        starts = np.concatenate(
            ([0], np.flatnonzero(bucket[1:] != bucket[:-1]) + 1, [len(bucket)])
        )
        tot = np.add.reduceat(s, starts[:-1])
        return pa.table(
            {
                "bucket": pa.array(bucket[starts[:-1]].astype(np.int64)),
                "n_rows": pa.array(
                    np.add.reduceat(n, starts[:-1]).astype(np.int64)
                ),
                "checksum_lo": pa.array(
                    (tot & np.uint64(0xFFFFFFFF)).astype(np.int64)
                ),
                "checksum_hi": pa.array((tot >> np.uint64(32)).astype(np.int64)),
            }
        )

    partials = map_blocks(ev, partial)
    return exchange_group(partials, ["bucket"], final, sort_by="bucket")
