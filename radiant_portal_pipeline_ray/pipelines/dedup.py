"""Deduplication queries over the ``documents`` table.

- ``dd_exact``: content-hash partitioned exact dedup (reference D4 shape).
- ``dd_ngram_jaccard``: exact near-dup pairs via shared-shingle inverted
  index + integer-threshold verification (2·inter ≥ union ⇔ J ≥ 0.5);
  SQL oracle reproduces it bit-for-bit.
- ``dd_minhash_lsh``: MinHash(64)+LSH(16×4) banded candidates, then exact
  verification — the 10^10-scale path (no all-pairs anywhere); the FULL
  pipeline (signatures, bands, candidates, verification) has an exact SQL
  oracle via md5 shingle hashes + HUGEINT wrap-around arithmetic, and is
  recall-tested against ``dd_ngram_jaccard`` in pytest.
- ``dd_simhash``: 64-bit SimHash, candidates from 4×16-bit chunk buckets
  (hamming ≤ small ⇒ some chunk equal), verified by exact hamming ≤ 6.

Scale shape (fixes the round-1 AND round-2 review findings):
- Verification is FULLY DISTRIBUTED above ``_DRIVER_PAIR_THRESHOLD``:
  candidate pairs ⋈ shingle rows on ``doc_a`` (hash-partitioned join), a
  composite semi-join on ``(doc_b, s)`` keeps exactly the SHARED shingles,
  and a pkey-partitioned count per pair yields ``inter`` — zero driver
  state of any kind (no shingle dict, no driver pair concat, no
  ``ray.put`` broadcast). Below the threshold a bounded driver fast path
  runs the SAME join plan as vectorized Arrow/Acero joins (no per-pair
  Python set intersections).
- Shingles shuffle as int64 hashes (8 bytes), never strings.
- Buckets above ``max_bucket`` (frequent shingles / degenerate bands) are
  dropped with a logged count instead of emitting O(m²) pairs; dropped
  buckets only lose candidate RECALL — surviving pairs' ``inter``/``uni``
  stay exact, because verification recounts against the full shingle
  table (round-2 advice: no undercounted ``inter`` on drops).
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from radiant_portal_pipeline_ray.functions.hashing import sha256_hex_array
from radiant_portal_pipeline_ray.sources.io import read_parquet_clean
from radiant_portal_pipeline_ray.stages.dedup import (
    MinHashStage,
    ShingleExplodeStage,
    SimHashStage,
    _expand_pairs,
    _run_bounds,
    make_band_exploder,
    make_partitioned_pair_generator,
)
from radiant_portal_pipeline_ray.stages.joins import hash_partitioned_join
from radiant_portal_pipeline_ray.stages.taskshuffle import collect, exchange_group

logger = logging.getLogger(__name__)

QUERIES: dict = {}


def _register(name: str, sql: str | None):
    def deco(fn):
        QUERIES[name] = (fn, sql)
        return fn

    return deco


def _docs(sf_dir: str, columns=None):
    return read_parquet_clean(
        os.path.join(sf_dir, "documents.parquet"), columns=columns
    )


# ---------------------------------------------------------------------------
@_register(
    "dd_exact",
    """
    SELECT MIN(doc_id) AS rep_doc_id, COUNT(*) AS n_copies
    FROM documents GROUP BY text ORDER BY rep_doc_id
    """,
)
def dd_exact(sf_dir: str):
    """Exact dedup: sha256(text) → hash-partitioned groupby → min doc_id.
    The shuffle moves 64-byte hashes + ids, never the text payload."""
    ds = _docs(sf_dir, ["doc_id", "text"])

    def hash_and_combine(b: pa.Table) -> pa.Table:
        h = sha256_hex_array(b.column("text"))
        t = pa.table({"h": h, "doc_id": b.column("doc_id")})
        g = t.group_by("h").aggregate([("doc_id", "min"), ("doc_id", "count")])
        return g.rename_columns(["h", "rep_doc_id", "n_copies"])

    def final_combine(g: pa.Table) -> pa.Table:
        out = g.group_by("h").aggregate(
            [("rep_doc_id", "min"), ("n_copies", "sum")]
        )
        return out.rename_columns(["h", "rep_doc_id", "n_copies"])

    def finish(g: pa.Table) -> pa.Table:
        out = final_combine(g)
        return pa.table(
            {
                "rep_doc_id": pc.cast(out.column("rep_doc_id"), pa.int64()),
                "n_copies": pc.cast(out.column("n_copies"), pa.int64()),
            }
        )

    return exchange_group(
        ds.map_batches(hash_and_combine, batch_format="pyarrow"),
        ["h"],
        64,
        finish,
        sort_by="rep_doc_id",
    )


# ---------------------------------------------------------------------------
def candidate_shingle_table(
    sf_dir: str, cand_ids: set[int], k: int = 3
) -> pa.Table:
    """Shingle-hash rows for CANDIDATE docs only: re-read the documents
    table with the candidate-id filter PUSHED INTO the parquet read (row
    groups without candidates never leave storage), shingle just those docs.
    Returns a plain ``(doc_id, s)`` Arrow table — bounded by the candidate
    count, never the corpus size. DRIVER FAST PATH ONLY (gated by
    ``_DRIVER_PAIR_THRESHOLD``); the scale path never builds driver state
    (see ``distributed_verify``)."""
    empty = pa.table(
        {"doc_id": pa.array([], pa.int64()), "s": pa.array([], pa.int64())}
    )
    if not cand_ids:
        return empty
    ids = sorted(cand_ids)
    ds = read_parquet_clean(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        filter=pc.field("doc_id").isin(ids),
    )
    sh = ds.map_batches(ShingleExplodeStage(k=k), batch_format="pyarrow")
    return collect(sh, empty.schema)


#: below this many bucket rows the pair generation runs as ONE vectorized
#: driver call instead of a distributed groupby — Ray's all-to-all has a
#: ~2 s fixed floor that dwarfs small inputs; above it, the hash-partitioned
#: groupby (the 10^10-scale path) takes over. Bucket rows are 20-byte
#: (key, id) tuples, so the driver path is bounded at ~40 MB.
_DRIVER_PAIR_THRESHOLD = 2_000_000


def _bucket_pairs(bucket_ds: "rd.Dataset", key_col: str, max_bucket: int):
    """(key, doc_id) bucket rows → candidate-pair table/Dataset, adaptively
    driver-local (small) or hash-partition-distributed (scale path)."""
    gen = make_partitioned_pair_generator(key_col, "doc_id", max_bucket)
    bucket_ds = bucket_ds.select_columns([key_col, "doc_id"]).materialize()
    if bucket_ds.count() <= _DRIVER_PAIR_THRESHOLD:
        return gen(collect(bucket_ds))
    return exchange_group(bucket_ds, [key_col], 64, gen)


def _verify_table_driver(
    pairs_t: pa.Table, sh_t: pa.Table, num: int, den: int
) -> pa.Table:
    """Exact-Jaccard verify of DISTINCT (doc_a, doc_b) pairs against a
    ``(doc_id, s)`` shingle table — the SAME join plan as
    ``distributed_verify``, run as vectorized Acero joins on the driver.
    No per-pair Python loop, no set objects. Returns the verified pairs
    sorted by (doc_a, doc_b)."""
    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "inter": pa.array([], pa.int64()),
            "uni": pa.array([], pa.int64()),
        }
    )
    if pairs_t.num_rows == 0 or sh_t.num_rows == 0:
        return empty
    sh_a = sh_t.rename_columns(["doc_a", "s"])
    sh_b = sh_t.rename_columns(["doc_b", "s"])
    # shared shingles: pairs ⋈ shingles(doc_a) → semi ⋈ shingles(doc_b, s)
    h1 = pairs_t.join(sh_a, keys=["doc_a"], join_type="inner")
    h2 = h1.join(sh_b, keys=["doc_b", "s"], join_type="left semi")
    inter = (
        h2.group_by(["doc_a", "doc_b"])
        .aggregate([("s", "count")])
        .rename_columns(["doc_a", "doc_b", "inter"])
    )
    sizes = (
        sh_t.group_by("doc_id").aggregate([("s", "count")])
        .rename_columns(["doc_id", "n"])
    )
    j = inter.join(sizes, keys=["doc_a"], right_keys=["doc_id"]).rename_columns(
        ["doc_a", "doc_b", "inter", "n_a"]
    )
    j = j.join(sizes, keys=["doc_b"], right_keys=["doc_id"]).rename_columns(
        ["doc_a", "doc_b", "inter", "n_a", "n_b"]
    )
    inter_c = pc.cast(j.column("inter"), pa.int64())
    uni = pc.subtract(pc.add(j.column("n_a"), j.column("n_b")), inter_c)
    uni = pc.cast(uni, pa.int64())
    keep = pc.and_(
        pc.greater(uni, 0),
        pc.greater_equal(
            pc.multiply(pa.scalar(den, pa.int64()), inter_c),
            pc.multiply(pa.scalar(num, pa.int64()), uni),
        ),
    )
    out = pa.table(
        {
            "doc_a": j.column("doc_a"),
            "doc_b": j.column("doc_b"),
            "inter": inter_c,
            "uni": uni,
        }
    ).filter(keep)
    return out.take(
        pc.sort_indices(
            out, sort_keys=[("doc_a", "ascending"), ("doc_b", "ascending")]
        )
    )


def _grouped_count(ds: "rd.Dataset", keys: list[str], out: str) -> "rd.Dataset":
    """Distributed COUNT(*) GROUP BY keys via partial-before-shuffle +
    coarse-pkey vectorized combine (stages/aggregates.partial_final_groupby)."""
    from radiant_portal_pipeline_ray.stages.aggregates import (
        partial_final_groupby,
    )

    def prep(b: pa.Table) -> pa.Table:
        return b.select(keys).append_column(
            "__one", pa.array(np.ones(b.num_rows, dtype=np.int64))
        )

    return partial_final_groupby(
        ds.map_batches(prep, batch_format="pyarrow"), keys,
        [("__one", "sum", out)],
    )


def distributed_verify(
    sh: "rd.Dataset",
    pairs: "rd.Dataset",
    num: int = 1,
    den: int = 2,
    query: str = "dedup",
) -> "rd.Dataset":
    """Fully distributed exact-Jaccard verification — ZERO driver state.

    Plan (every exchange is a hash-partitioned join or a pkey-partitioned
    count; nothing is collected to the driver):

    1. distinct candidate pairs (pkey-partitioned count; over-cap drop
       markers split off and logged as a count),
    2. semi-filter the corpus shingle table to docs that appear in any
       pair (two-sided id explode + composite-free semi join) — I/O and
       shuffle width bounded by the candidate set from here on,
    3. ``pairs ⋈ sh`` on ``doc_a`` (inner) attaches doc_a's shingles,
    4. composite semi-join on ``(doc_b, s)`` keeps exactly the SHARED
       shingles; count per (doc_a, doc_b) = ``inter``,
    5. two hash joins attach per-doc shingle counts → ``uni`` arithmetic
       and the integer threshold filter ``den·inter ≥ num·uni``.

    Because ``inter`` is recounted against the (candidate-filtered) full
    shingle table, dropped candidate buckets only cost recall — surviving
    pairs' values are exact (round-2 advice fix).

    Reference analogue: the any-size anti/semi-join shape of
    `radiant/dags/sql/radiant/variant_lookup_insert_hashes.sql:1-6`.
    """
    # 1. distinct pairs + drop-marker split ------------------------------
    dp_all = _grouped_count(pairs, ["doc_a", "doc_b"], "__mult").materialize()

    def only_markers(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b.column("doc_a"), -1))

    def only_real(b: pa.Table) -> pa.Table:
        return b.filter(pc.not_equal(b.column("doc_a"), -1)).select(
            ["doc_a", "doc_b"]
        )

    marker_rows = dp_all.map_batches(
        only_markers, batch_format="pyarrow"
    ).take_all()  # at most one distinct (-1, -1) row per pkey partition
    n_drops = int(sum(r["__mult"] for r in marker_rows))
    if n_drops:
        logger.warning(
            "%s: dropped %d over-cap candidate buckets (distributed path; "
            "recall-only loss, surviving pairs stay exact)",
            query,
            n_drops,
        )
    dp = dp_all.map_batches(only_real, batch_format="pyarrow").materialize()

    # 2. candidate-filter the shingle table ------------------------------
    def explode_ids(b: pa.Table) -> pa.Table:
        u = np.unique(
            np.concatenate(
                [
                    b.column("doc_a").to_numpy(zero_copy_only=False),
                    b.column("doc_b").to_numpy(zero_copy_only=False),
                ]
            )
        )
        return pa.table({"doc_id": pa.array(u, type=pa.int64())})

    cand_ids = dp.map_batches(explode_ids, batch_format="pyarrow")
    sh_cand = hash_partitioned_join(
        sh, cand_ids, left_on="doc_id", how="semi"
    ).materialize()

    # 3./4. shared-shingle count = inter ---------------------------------
    sh_a = sh_cand.map_batches(
        lambda b: b.rename_columns(["doc_a", "s"]), batch_format="pyarrow"
    )
    h1 = hash_partitioned_join(dp, sh_a, left_on="doc_a")
    h2 = hash_partitioned_join(
        h1, sh_cand, left_on=["doc_b", "s"], right_on=["doc_id", "s"],
        how="semi",
    )
    inter = _grouped_count(h2, ["doc_a", "doc_b"], "inter")

    # 5. sizes + threshold ----------------------------------------------
    sizes = _grouped_count(sh_cand, ["doc_id"], "n").materialize()
    sizes_a = sizes.map_batches(
        lambda b: b.rename_columns(["doc_id", "n_a"]), batch_format="pyarrow"
    )
    sizes_b = sizes.map_batches(
        lambda b: b.rename_columns(["doc_id", "n_b"]), batch_format="pyarrow"
    )
    ja = hash_partitioned_join(inter, sizes_a, left_on="doc_a", right_on="doc_id")

    def threshold(b: pa.Table) -> pa.Table:
        inter_c = pc.cast(b.column("inter"), pa.int64())
        uni = pc.cast(
            pc.subtract(pc.add(b.column("n_a"), b.column("n_b")), inter_c),
            pa.int64(),
        )
        keep = pc.and_(
            pc.greater(uni, 0),
            pc.greater_equal(
                pc.multiply(pa.scalar(den, pa.int64()), inter_c),
                pc.multiply(pa.scalar(num, pa.int64()), uni),
            ),
        )
        return pa.table(
            {
                "doc_a": b.column("doc_a"),
                "doc_b": b.column("doc_b"),
                "inter": inter_c,
                "uni": uni,
            }
        ).filter(keep)

    return hash_partitioned_join(
        ja, sizes_b, left_on="doc_b", right_on="doc_id",
        finish=threshold, sort_by=["doc_a", "doc_b"],
    )


def _verify_pairs(
    sf_dir: str,
    pairs_ds: "rd.Dataset",
    num: int = 1,
    den: int = 2,
    query: str = "dedup",
    shingle_ds: "rd.Dataset | None" = None,
):
    """Dedup candidate pairs, log dropped hot buckets, exact-verify.

    Small candidate sets (≤ ``_DRIVER_PAIR_THRESHOLD`` pair rows) take the
    bounded driver fast path: pushed-down re-read of just the candidate
    docs + one Acero join plan. Anything larger runs ``distributed_verify``
    end-to-end with zero driver state."""
    if isinstance(pairs_ds, pa.Table):
        pt = pairs_ds
    else:
        pairs_ds = pairs_ds.materialize()
        if pairs_ds.count() > _DRIVER_PAIR_THRESHOLD:
            if shingle_ds is None:
                shingle_ds = _docs(sf_dir, ["doc_id", "text"]).map_batches(
                    ShingleExplodeStage(k=3), batch_format="pyarrow"
                )
            return distributed_verify(
                shingle_ds, pairs_ds, num=num, den=den, query=query
            )
        pt = collect(
            pairs_ds,
            pa.schema(
                [(c, pa.int64()) for c in ("doc_a", "doc_b", "dropped_bucket")]
            ),
        )
    drops = pt.filter(pc.equal(pt.column("doc_a"), -1)).column(
        "dropped_bucket"
    ).to_pylist()
    if drops:
        logger.warning(
            "%s: dropped %d over-cap candidate buckets (sizes %s...)",
            query,
            len(drops),
            sorted(drops, reverse=True)[:5],
        )
    pairs_t = (
        pt.filter(pc.not_equal(pt.column("doc_a"), -1))
        .select(["doc_a", "doc_b"])
        .group_by(["doc_a", "doc_b"])
        .aggregate([])
    )
    cand_ids = set(pairs_t.column("doc_a").to_pylist()) | set(
        pairs_t.column("doc_b").to_pylist()
    )
    sh_t = candidate_shingle_table(sf_dir, cand_ids)
    return rd.from_arrow(_verify_table_driver(pairs_t, sh_t, num, den))


_NGRAM_SQL = """
    WITH w AS (
      SELECT doc_id,
             list_filter(string_split(trim(text), ' '), x -> x <> '') AS toks
      FROM documents
    ), sh AS (
      SELECT DISTINCT doc_id, toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] AS s
      FROM w, UNNEST(range(1, len(toks) - 1)) AS t(i)
      WHERE len(toks) >= 3
    ), sizes AS (
      SELECT doc_id, COUNT(*) AS n FROM sh GROUP BY doc_id
    ), inter AS (
      SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS inter
      FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
      GROUP BY 1, 2
    )
    SELECT i.doc_a, i.doc_b, i.inter, sa.n + sb.n - i.inter AS uni
    FROM inter i
    JOIN sizes sa ON sa.doc_id = i.doc_a
    JOIN sizes sb ON sb.doc_id = i.doc_b
    WHERE 2 * i.inter >= sa.n + sb.n - i.inter
    ORDER BY doc_a, doc_b
"""


@_register("dd_ngram_jaccard", _NGRAM_SQL)
def dd_ngram_jaccard(sf_dir: str, max_bucket: int = 4096):
    """Exact 3-gram Jaccard ≥ 0.5 pairs. Candidates = docs sharing ≥1
    shingle (inverted-index groupby over int64 shingle hashes — exact,
    since J ≥ 0.5 ⇒ shared shingle; a hash collision only adds a candidate
    that verification rejects). Verification joins back to the semi-filtered
    candidate shingle sets — no whole-corpus state anywhere."""
    sh = (
        _docs(sf_dir, ["doc_id", "text"])
        .map_batches(ShingleExplodeStage(k=3), batch_format="pyarrow")
        .materialize()
    )
    gen = make_partitioned_pair_generator("s", "doc_id", max_bucket)
    if sh.count() <= _DRIVER_PAIR_THRESHOLD:
        # exactness-anchor path: within-bucket pairs carry multiplicity =
        # number of shared shingles, so `inter` is ONE C-speed group_by
        # count — no per-pair set intersections at all
        t = collect(sh)
        pt = gen(t)
        drops = pt.filter(pc.equal(pt.column("doc_a"), -1)).column(
            "dropped_bucket"
        ).to_pylist()
        real = pt.filter(pc.not_equal(pt.column("doc_a"), -1))
        if drops:
            logger.warning(
                "dd_ngram_jaccard: dropped %d over-cap shingle buckets "
                "(sizes %s...) — recounting inter exactly for survivors",
                len(drops),
                sorted(drops, reverse=True)[:5],
            )
            # a dropped bucket's shingles are missing from the pair
            # multiplicities, so the count trick would UNDERCOUNT inter for
            # surviving pairs (round-2 advice); recount exactly against the
            # full shingle table with the same Acero join plan instead —
            # drops then cost candidate recall only, never wrong values
            cand = (
                real.select(["doc_a", "doc_b"])
                .group_by(["doc_a", "doc_b"])
                .aggregate([])
            )
            return rd.from_arrow(
                _verify_table_driver(cand, t, 1, 2)
            )
        inter = (
            real.group_by(["doc_a", "doc_b"])
            .aggregate([("doc_a", "count")])
            .rename_columns(["doc_a", "doc_b", "inter"])
        )
        sizes = (
            t.group_by("doc_id").aggregate([("s", "count")])
            .rename_columns(["doc_id", "n"])
        )
        j = inter.join(sizes, keys=["doc_a"], right_keys=["doc_id"]).rename_columns(
            ["doc_a", "doc_b", "inter", "n_a"]
        )
        j = j.join(sizes, keys=["doc_b"], right_keys=["doc_id"]).rename_columns(
            ["doc_a", "doc_b", "inter", "n_a", "n_b"]
        )
        uni = pc.subtract(
            pc.add(j.column("n_a"), j.column("n_b")), j.column("inter")
        )
        j = j.append_column("uni", pc.cast(uni, pa.int64()))
        keep = pc.greater_equal(
            pc.multiply(pa.scalar(2, pa.int64()), pc.cast(j.column("inter"), pa.int64())),
            j.column("uni"),
        )
        out = j.filter(keep).select(["doc_a", "doc_b", "inter", "uni"])
        out = out.set_column(
            2, "inter", pc.cast(out.column("inter"), pa.int64())
        )
        out = out.take(
            pc.sort_indices(
                out,
                sort_keys=[("doc_a", "ascending"), ("doc_b", "ascending")],
            )
        )
        return rd.from_arrow(out)
    # scale path: distributed pair generation + fully distributed verify
    # (the already-materialized shingle Dataset is reused — no re-shingle)
    pairs = _bucket_pairs(sh, "s", max_bucket)
    return _verify_pairs(
        sf_dir, pairs, num=1, den=2, query="dd_ngram_jaccard", shingle_ds=sh
    )


# ---------------------------------------------------------------------------
def minhash_sql_fragments(
    n_perm: int = 64, n_bands: int = 16, rows_per_band: int = 4, seed: int = 7
) -> dict[str, str]:
    """Reusable DuckDB fragments mirroring MinHashStage + make_band_exploder
    bit-for-bit: ``mins`` (the n_perm (a·h + b mod 2^64) mod (2^61-1)
    permutation-min select items, HUGEINT emulating uint64 wrap-around),
    ``bands`` (the golden-ratio band-mix select items h0..h{n_bands-1}) and
    ``band_match`` ("a.hI = b.hI OR ..."), plus ``sig_match`` (the
    component-agreement count a.mJ = b.mJ summed — the probe-side similarity
    estimate). Permutation constants come from the same seeded RNG as
    MinHashStage. Shared by dd_minhash_lsh and dd_incremental_neardup."""
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.integers(1, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
    b = rng.integers(0, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
    M = (1 << 61) - 1
    W = 1 << 64
    MIX = 0x9E3779B97F4A7C15

    mins = ",\n             ".join(
        f"MIN(CAST((CAST(h AS HUGEINT) * {int(a[j])} + {int(b[j])}) "
        f"% {W} % {M} AS UBIGINT)) AS m{j}"
        for j in range(n_perm)
    )

    def band_expr(bi: int) -> str:
        # (x * MIX) mod 2^64 in INT128-safe halves:
        #   = (x_lo*MIX mod 2^64 + (x_hi*MIX mod 2^32)*2^32) mod 2^64
        acc = f"CAST({2 * bi + 1} AS UBIGINT)"
        for r in range(rows_per_band):
            m = f"m{bi * rows_per_band + r}"
            x = f"CAST(xor({acc}, {m}) AS HUGEINT)"
            lo = f"(({x} % 4294967296) * {MIX}) % {W}"
            hi = f"((({x} // 4294967296) * {MIX}) % 4294967296) * 4294967296"
            acc = f"CAST(({lo} + {hi}) % {W} AS UBIGINT)"
        return acc

    bands = ",\n             ".join(
        f"{band_expr(bi)} AS h{bi}" for bi in range(n_bands)
    )
    band_match = " OR ".join(f"a.h{bi} = b.h{bi}" for bi in range(n_bands))
    sig_match = " + ".join(
        f"CASE WHEN a.m{j} = b.m{j} THEN 1 ELSE 0 END" for j in range(n_perm)
    )
    return {
        "mins": mins,
        "bands": bands,
        "band_match": band_match,
        "sig_match": sig_match,
    }


def _minhash_sql(
    n_perm: int = 64, n_bands: int = 16, rows_per_band: int = 4, seed: int = 7
) -> str:
    """DuckDB mirror of the ENTIRE dd_minhash_lsh pipeline: md5-derived
    shingle hashes, permutation mins, band mix, pairs sharing ANY band, then
    the exact ngram verification (fragments: minhash_sql_fragments)."""
    frags = minhash_sql_fragments(n_perm, n_bands, rows_per_band, seed)
    mins, bands, band_match = (
        frags["mins"],
        frags["bands"],
        frags["band_match"],
    )
    ngram_pairs = _NGRAM_SQL.replace("ORDER BY doc_a, doc_b", "")
    return f"""
    WITH base_pairs AS ({ngram_pairs}
    ), w0 AS (
      SELECT doc_id,
             list_filter(string_split(trim(text), ' '), x -> x <> '') AS toks
      FROM documents
    ), sh0 AS (
      SELECT DISTINCT doc_id,
             toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] AS s
      FROM w0, UNNEST(range(1, len(toks) - 1)) AS t(i)
      WHERE len(toks) >= 3
    ), hh AS (
      SELECT DISTINCT doc_id,
             CAST('0x' || substr(md5(s), 1, 16) AS UBIGINT) AS h
      FROM sh0
    ), sig AS (
      SELECT doc_id,
             {mins}
      FROM hh GROUP BY doc_id
    ), bands AS (
      SELECT doc_id,
             {bands}
      FROM sig
    ), cand AS (
      SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
      FROM bands a JOIN bands b
        ON a.doc_id < b.doc_id AND ({band_match})
    )
    SELECT p.doc_a, p.doc_b, p.inter, p.uni
    FROM base_pairs p JOIN cand USING (doc_a, doc_b)
    ORDER BY doc_a, doc_b
    """


@_register("dd_minhash_lsh", _minhash_sql())
def dd_minhash_lsh(sf_dir: str, max_bucket: int = 4096):
    """MinHash(64 perms) + LSH banding(16 bands × 4 rows) near-dup pairs,
    exact-verified at J ≥ 0.5. Scale path: vectorized signatures per batch,
    ONE groupby on (band, band_hash), candidate pairs per bucket, verify
    against semi-filtered candidate shingle sets."""
    docs = _docs(sf_dir, ["doc_id", "text"])
    sigs = docs.map_batches(MinHashStage(n_perm=64, shingle_k=3), batch_format="pyarrow")
    buckets = sigs.map_batches(
        make_band_exploder(n_bands=16, rows_per_band=4), batch_format="pyarrow"
    )
    # band identity is folded into band_hash (per-band seed), so the bucket
    # key is the single int64 hash; a cross-band collision only adds a
    # candidate pair that verification rejects
    pairs = _bucket_pairs(buckets, "band_hash", max_bucket)
    return _verify_pairs(sf_dir, pairs, num=1, den=2, query="dd_minhash_lsh")


# ---------------------------------------------------------------------------
def _simhash_sql() -> str:
    """DuckDB mirror of SimHashStage + the chunk-bucket candidate rule:
    md5-derived 64-bit token hashes, per-bit majority vote (ties → 0), bit
    packing, pigeonhole chunk match, exact hamming ≤ 6 via bit_count."""
    bitsum = ",\n             ".join(
        f"SUM(CAST((h >> {j}) & 1 AS BIGINT)) AS s{j}" for j in range(64)
    )
    pack = "\n             + ".join(
        f"(CASE WHEN 2*s{j} > cnt THEN CAST('{1 << j}' AS UBIGINT) "
        f"ELSE CAST(0 AS UBIGINT) END)"
        for j in range(64)
    )
    chunks = " OR ".join(
        f"((a.u >> {16 * c}) & 65535) = ((b.u >> {16 * c}) & 65535)"
        for c in range(4)
    )
    return f"""
    WITH tok AS (
      SELECT doc_id,
             unnest(list_filter(string_split(trim(text), ' '), x -> x <> '')) AS t
      FROM documents
    ), h AS (
      SELECT doc_id, CAST('0x' || substr(md5(t), 1, 16) AS UBIGINT) AS h
      FROM tok
    ), agg AS (
      SELECT doc_id, COUNT(*) AS cnt,
             {bitsum}
      FROM h GROUP BY doc_id
    ), sig AS (
      SELECT doc_id,
             {pack} AS u
      FROM agg
    )
    SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
           CAST(bit_count(xor(a.u, b.u)) AS BIGINT) AS hamming
    FROM sig a JOIN sig b ON a.doc_id < b.doc_id
    WHERE ({chunks}) AND bit_count(xor(a.u, b.u)) <= 6
    ORDER BY doc_a, doc_b
    """


@_register("dd_simhash", _simhash_sql())
def dd_simhash(sf_dir: str, max_bucket: int = 4096):
    """64-bit SimHash near-dup: candidates share one of four 16-bit chunks
    (pigeonhole: hamming ≤ 3 guarantees a shared chunk), verified at
    hamming ≤ 6. Chunk exploding, pair generation and hamming are all
    numpy-vectorized; over-cap chunk buckets are dropped and logged."""
    ds = _docs(sf_dir, ["doc_id", "text"])
    sigs = ds.map_batches(SimHashStage(), batch_format="pyarrow")

    def explode_chunks(b: pa.Table) -> pa.Table:
        sim = b.column("simhash")
        if isinstance(sim, pa.ChunkedArray):
            sim = sim.combine_chunks()
        valid = pc.is_valid(sim).to_numpy(zero_copy_only=False)
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)[valid]
        u = sim.to_numpy(zero_copy_only=False)[valid].astype(np.int64).view(
            np.uint64
        )
        n = len(ids)
        shifts = np.uint64(16) * np.arange(4, dtype=np.uint64)
        chunk_val = (
            (u[:, None] >> shifts[None, :]) & np.uint64(0xFFFF)
        ).astype(np.int64)
        # single int64 bucket key: chunk_no folded into the high bits
        key = chunk_val + (np.arange(4, dtype=np.int64) << 16)[None, :]
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids, 4), type=pa.int64()),
                "chunk_key": pa.array(key.ravel(), type=pa.int64()),
                "simhash": pa.array(
                    np.repeat(u.view(np.int64), 4), type=pa.int64()
                ),
            }
        )

    buckets = sigs.map_batches(explode_chunks, batch_format="pyarrow")

    def partition_pairs(group: pa.Table) -> pa.Table:
        """One pkey partition (many chunk buckets) → hamming-verified pairs,
        fully vectorized via run detection + arithmetic pair expansion."""
        k = group.column("chunk_key").to_numpy(zero_copy_only=False)
        i = group.column("doc_id").to_numpy(zero_copy_only=False)
        s = group.column("simhash").to_numpy(zero_copy_only=False)
        order = np.lexsort((i, k))
        k, i, s = k[order], i[order], s[order]
        if len(k):
            first = np.concatenate(
                [[True], (k[1:] != k[:-1]) | (i[1:] != i[:-1])]
            )
            k, i, s = k[first], i[first], s[first]
        empty = pa.table(
            {
                "doc_a": pa.array([], pa.int64()),
                "doc_b": pa.array([], pa.int64()),
                "hamming": pa.array([], pa.int64()),
            }
        )
        if len(k) == 0:
            return empty
        starts, lens = _run_bounds(k)
        dropped = lens[lens > max_bucket]
        keep_runs = (lens >= 2) & (lens <= max_bucket)
        a_idx, b_idx = _expand_pairs(starts[keep_runs], lens[keep_runs])
        x = (s[a_idx] ^ s[b_idx]).view(np.uint64)
        ham = (
            np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1)
            .sum(axis=1)
            .astype(np.int64)
            if len(x)
            else np.zeros(0, dtype=np.int64)
        )
        keep = ham <= 6
        doc_a = np.concatenate(
            [i[a_idx][keep], np.full(len(dropped), -1, np.int64)]
        )
        doc_b = np.concatenate(
            [i[b_idx][keep], np.full(len(dropped), -1, np.int64)]
        )
        hams = np.concatenate([ham[keep], dropped.astype(np.int64)])
        return pa.table(
            {
                "doc_a": pa.array(doc_a, type=pa.int64()),
                "doc_b": pa.array(doc_b, type=pa.int64()),
                "hamming": pa.array(hams, type=pa.int64()),
            }
        )

    buckets = buckets.materialize()
    if buckets.count() <= _DRIVER_PAIR_THRESHOLD:
        pt = partition_pairs(collect(buckets))
    else:
        pt = collect(exchange_group(buckets, ["chunk_key"], 64, partition_pairs))
    if pt.num_rows == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "hamming": pa.array([], pa.int64()),
                }
            )
        )
    drops = pt.filter(pc.equal(pt.column("doc_a"), -1)).column(
        "hamming"
    ).to_pylist()
    if drops:
        logger.warning(
            "dd_simhash: dropped %d over-cap chunk buckets (sizes %s...)",
            len(drops),
            sorted(drops, reverse=True)[:5],
        )
    uniq = (
        pt.filter(pc.not_equal(pt.column("doc_a"), -1))
        .group_by(["doc_a", "doc_b"])
        .aggregate([("hamming", "min")])
        .rename_columns(["doc_a", "doc_b", "hamming"])
    )
    return rd.from_arrow(uniq).sort(["doc_a", "doc_b"])


# ---------------------------------------------------------------------------
_DEDUP_CORPUS_SQL = (
    """
    WITH RECURSIVE base_pairs AS ("""
    + _NGRAM_SQL.replace("ORDER BY doc_a, doc_b", "")
    + """
    ), edges AS (
      SELECT doc_a AS a, doc_b AS b FROM base_pairs
      UNION ALL
      SELECT doc_b, doc_a FROM base_pairs
    ), reach(node, lbl) AS (
      SELECT DISTINCT a, a FROM edges
      UNION
      SELECT e.b, r.lbl FROM reach r JOIN edges e ON e.a = r.node
    )
    SELECT node AS doc_id, MIN(lbl) AS rep_doc_id
    FROM reach GROUP BY node ORDER BY doc_id
    """
)


#: below this many EDGES the component fold runs as driver union-find (a
#: pair graph of 5M edges is ~80 MB — trivial); above it, distributed
#: min-label propagation takes over. Monkeypatch to 0 in tests to force
#: the distributed path.
_CC_DRIVER_EDGE_THRESHOLD = 5_000_000


def _grouped_min(ds: "rd.Dataset", keys: list[str], col: str, out: str):
    from radiant_portal_pipeline_ray.stages.aggregates import (
        partial_final_groupby,
    )

    return partial_final_groupby(ds, keys, [(col, "min", out)])


def connected_components_distributed(
    pairs: "rd.Dataset", max_iters: int = 64
) -> "rd.Dataset":
    """Distributed connected components by iterated min-label propagation —
    zero driver state (the round-2 "what's missing #2" closure).

    Each round: labels ⋈ symmetric edges on the neighbor side (one
    hash-partitioned join), per-node min of neighbor labels (one
    pkey-partitioned grouped min), fold into the current labels (one left
    join + vectorized min), then a scalar changed-count decides
    convergence. Rounds needed = graph diameter; near-dup clusters are
    dense and shallow (dup groups share most shingles), so a handful of
    rounds suffices. Returns ``(doc_id, rep_doc_id)`` for every node of
    the pair graph, rep = component-min doc_id.
    """
    def sym(b: pa.Table) -> pa.Table:
        a = b.column("doc_a").to_numpy(zero_copy_only=False)
        bb = b.column("doc_b").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "node": pa.array(np.concatenate([a, bb]), type=pa.int64()),
                "nbr": pa.array(np.concatenate([bb, a]), type=pa.int64()),
            }
        )

    edges = pairs.map_batches(sym, batch_format="pyarrow").materialize()

    # round 0: label(node) = min(node, min neighbor id)
    def self_min(b: pa.Table) -> pa.Table:
        m = np.minimum(
            b.column("node").to_numpy(zero_copy_only=False),
            b.column("nbr").to_numpy(zero_copy_only=False),
        )
        return pa.table(
            {"node": b.column("node"), "lbl": pa.array(m, type=pa.int64())}
        )

    labels = _grouped_min(
        edges.map_batches(self_min, batch_format="pyarrow"),
        ["node"], "lbl", "label",
    ).materialize()

    for it in range(max_iters):
        nbr_labels = labels.map_batches(
            lambda b: b.rename_columns(["nbr", "nbr_lbl"]),
            batch_format="pyarrow",
        )
        prop = hash_partitioned_join(edges, nbr_labels, left_on="nbr")
        cand = _grouped_min(
            prop.map_batches(
                lambda b: b.select(["node", "nbr_lbl"]), batch_format="pyarrow"
            ),
            ["node"], "nbr_lbl", "m",
        )
        folded = hash_partitioned_join(labels, cand, left_on="node", how="left")

        def fold(b: pa.Table) -> pa.Table:
            lbl = b.column("label").to_numpy(zero_copy_only=False)
            m = pc.fill_null(
                b.column("m"), np.iinfo(np.int64).max
            ).to_numpy(zero_copy_only=False)
            new = np.minimum(lbl, m)
            return pa.table(
                {
                    "node": b.column("node"),
                    "label": pa.array(new, type=pa.int64()),
                    "__chg": pa.array(
                        (new < lbl).astype(np.int64), type=pa.int64()
                    ),
                }
            )

        folded = folded.map_batches(fold, batch_format="pyarrow").materialize()
        changed = int(folded.sum("__chg") or 0)
        labels = folded.drop_columns(["__chg"]).materialize()
        if not changed:
            # hook fixpoint: label(n) ≤ label(m) across every edge in both
            # directions ⇒ labels constant per component ⇒ correct reps
            break

        # pointer jump: label ← min(label, label(label)). Labels are always
        # node ids present in the table, so a self-join collapses label
        # chains by doubling each round — convergence scales with
        # log(diameter) instead of diameter (chain-shaped graphs were the
        # silent-wrong-answer case at max_iters).
        as_node = labels.map_batches(
            lambda b: b.rename_columns(["j_node", "j_label"]),
            batch_format="pyarrow",
        )
        jumped = hash_partitioned_join(
            labels, as_node, left_on="label", right_on="j_node", how="left"
        )

        def jump_fold(b: pa.Table) -> pa.Table:
            lbl = b.column("label").to_numpy(zero_copy_only=False)
            j = pc.fill_null(
                b.column("j_label"), np.iinfo(np.int64).max
            ).to_numpy(zero_copy_only=False)
            new = np.minimum(lbl, j)
            return pa.table(
                {"node": b.column("node"), "label": pa.array(new, type=pa.int64())}
            )

        labels = jumped.map_batches(jump_fold, batch_format="pyarrow").materialize()
    else:
        raise RuntimeError(
            f"connected_components: no fixpoint after max_iters={max_iters} "
            "rounds — raise max_iters (labels would be silently wrong)"
        )
    return labels.map_batches(
        lambda b: b.rename_columns(["doc_id", "rep_doc_id"]),
        batch_format="pyarrow",
    ).sort("doc_id")


@_register("dd_dedup_corpus", _DEDUP_CORPUS_SQL)
def dd_dedup_corpus(sf_dir: str, max_bucket: int = 4096):
    """Near-dup CLUSTER dedup: exact J ≥ 0.5 pairs → connected components →
    every clustered doc mapped to its component representative (min doc_id).
    Downstream, "keep rows whose doc_id ∉ mapping OR doc_id = rep_doc_id"
    yields the deduplicated corpus.

    Below ``_CC_DRIVER_EDGE_THRESHOLD`` edges the component fold runs
    driver-side union-find over the PAIR set (the near-dup graph, orders of
    magnitude smaller than the corpus). Above it — or when tests force it —
    ``connected_components_distributed`` computes the same mapping by
    iterated min-label propagation with zero driver state.
    """
    pairs = dd_ngram_jaccard(sf_dir, max_bucket=max_bucket).materialize()
    return fold_components(pairs)


def fold_components(pairs: "rd.Dataset") -> "rd.Dataset":
    """Pair graph → ``(doc_id, rep_doc_id)`` component mapping; driver
    union-find under ``_CC_DRIVER_EDGE_THRESHOLD`` edges, distributed
    min-label propagation above (both produce identical output). ``pairs``
    must be materialized with ``doc_a``/``doc_b`` int64 columns."""
    if pairs.count() > _CC_DRIVER_EDGE_THRESHOLD:
        return connected_components_distributed(
            pairs.map_batches(
                lambda b: b.select(["doc_a", "doc_b"]), batch_format="pyarrow"
            )
        )
    pt = collect(pairs)
    a = pt.column("doc_a").to_numpy()
    b = pt.column("doc_b").to_numpy()

    parent: dict[int, int] = {}

    def find(x: int) -> int:
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != x:  # path compression
            parent[x], x = r, parent[x]
        return r

    for x, y in zip(a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            if rx < ry:
                parent[ry] = rx
            else:
                parent[rx] = ry
        parent.setdefault(x, find(x))
        parent.setdefault(y, find(y))

    nodes = sorted(set(a.tolist()) | set(b.tolist()))
    reps = [find(n) for n in nodes]
    return rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array(nodes, type=pa.int64()),
                "rep_doc_id": pa.array(reps, type=pa.int64()),
            }
        )
    ).sort("doc_id")


# ---------------------------------------------------------------------------
# Corpus-wide exact passage dedup (MassiveText-style): explode every doc into
# non-overlapping WIDTH-word passages, canonical first occurrence by global
# (doc_id, passage_no), report per-doc passage/duplicate counts. Scale shape:
# the shuffle moves only (md5-hex, doc_id, packed order key) rows — never
# text — through the keyed task exchange; per-bucket dup attribution is one
# vectorized group-min + hash join; the per-doc fold is a second tiny
# exchange on pre-combined partials.
# ---------------------------------------------------------------------------
_PASSAGE_WIDTH = 8

_PASSAGE_SQL = f"""
    WITH words AS (
      SELECT doc_id, list_filter(string_split(trim(text), ' '), x -> x <> '') AS w
      FROM documents
    ), chunks AS (
      SELECT doc_id, CAST(i AS BIGINT) AS passage_no,
             array_to_string(
               w[(CAST(i AS BIGINT)*{_PASSAGE_WIDTH}+1):(CAST(i AS BIGINT)*{_PASSAGE_WIDTH}+{_PASSAGE_WIDTH})], ' '
             ) AS passage
      FROM words, UNNEST(range(CAST(len(w)//{_PASSAGE_WIDTH} AS BIGINT))) AS t(i)
    ), ranked AS (
      SELECT doc_id, passage_no,
             row_number() OVER (PARTITION BY passage ORDER BY doc_id, passage_no) AS rn
      FROM chunks
    )
    SELECT doc_id,
           CAST(COUNT(*) AS BIGINT) AS n_passages,
           CAST(SUM(CASE WHEN rn > 1 THEN 1 ELSE 0 END) AS BIGINT) AS n_dup_passages
    FROM ranked GROUP BY doc_id ORDER BY doc_id
"""


@_register("dd_passage_dedup", _PASSAGE_SQL)
def dd_passage_dedup(sf_dir: str, width: int = _PASSAGE_WIDTH):
    """Corpus-wide exact passage dedup; docs with fewer than ``width`` words
    contribute no passages (and no output row), matching the oracle."""
    from radiant_portal_pipeline_ray.stages.passages import explode_fixed_passages
    ds = _docs(sf_dir, ["doc_id", "text"])
    exploded = ds.map_batches(
        lambda b: explode_fixed_passages(b, width), batch_format="pyarrow"
    )

    def bucket_fn(t: pa.Table) -> pa.Table:
        mins = t.group_by(["h_hi", "h_lo"]).aggregate([("okey", "min")])
        j = t.join(mins, keys=["h_hi", "h_lo"])
        dup = pc.cast(
            pc.not_equal(j.column("okey"), j.column("okey_min")), pa.int64()
        )
        part = pa.table({"doc_id": j.column("doc_id"), "dup": dup})
        g = part.group_by("doc_id").aggregate([("dup", "count"), ("dup", "sum")])
        return pa.table(
            {
                "doc_id": g.column("doc_id"),
                "n_passages": pc.cast(g.column("dup_count"), pa.int64()),
                "n_dup_passages": pc.cast(g.column("dup_sum"), pa.int64()),
            }
        )

    partial = exchange_group(exploded, ["h_hi", "h_lo"], 64, bucket_fn)

    def fold(t: pa.Table) -> pa.Table:
        g = t.group_by("doc_id").aggregate(
            [("n_passages", "sum"), ("n_dup_passages", "sum")]
        )
        return pa.table(
            {
                "doc_id": g.column("doc_id"),
                "n_passages": pc.cast(g.column("n_passages_sum"), pa.int64()),
                "n_dup_passages": pc.cast(g.column("n_dup_passages_sum"), pa.int64()),
            }
        )

    return exchange_group(partial, ["doc_id"], 16, fold, sort_by="doc_id")


# ---------------------------------------------------------------------------
# Benchmark decontamination: flag training docs containing ANY n-gram of a
# (small) eval set — the classic train/test-overlap filter. Scale shape:
# the eval side is distinct 64-bit md5 n-gram hashes, collected once (eval
# benchmarks are small by definition), ``ray.put`` ONCE and searchsorted
# against inside every train task — a broadcast membership filter, no
# shuffle at all; the train side streams.
# ---------------------------------------------------------------------------
_DECON_WIDTH = 4
_DECON_EVAL_MOD = 13
#: eval n-gram sets beyond this are not "benchmarks" — refuse rather than
#: silently building an oversized broadcast object
_DECON_MAX_EVAL_GRAMS = 50_000_000

_DECON_SQL = f"""
    WITH words AS (
      SELECT doc_id, list_filter(string_split(trim(text), ' '), x -> x <> '') AS w
      FROM documents
    ), grams AS (
      SELECT doc_id,
             CAST('0x' || substr(md5(array_to_string(
               w[(CAST(i AS BIGINT)+1):(CAST(i AS BIGINT)+{_DECON_WIDTH})], ' '
             )), 1, 16) AS UBIGINT) AS g
      FROM words,
           UNNEST(range(CAST(greatest(len(w)-{_DECON_WIDTH - 1}, 0) AS BIGINT))) AS t(i)
    ), eval_grams AS (
      SELECT DISTINCT g FROM grams WHERE doc_id % {_DECON_EVAL_MOD} = 0
    )
    SELECT g.doc_id, CAST(COUNT(*) AS BIGINT) AS n_contaminated
    FROM grams g JOIN eval_grams e USING (g)
    WHERE g.doc_id % {_DECON_EVAL_MOD} <> 0
    GROUP BY g.doc_id ORDER BY g.doc_id
"""


@_register("dd_decontaminate", _DECON_SQL)
def dd_decontaminate(
    sf_dir: str, width: int = _DECON_WIDTH, eval_mod: int = _DECON_EVAL_MOD
):
    """Training docs whose text shares any sliding ``width``-gram with the
    eval split (``doc_id % eval_mod == 0``), with occurrence counts."""
    from radiant_portal_pipeline_ray.stages.passages import sliding_ngram_hashes
    docs = _docs(sf_dir, ["doc_id", "text"])

    def eval_grams(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        sub = b.filter(pa.array(ids % eval_mod == 0))
        g = sliding_ngram_hashes(sub, width)
        return pa.table({"g64": pc.unique(g.column("g64"))})

    gram_schema = pa.schema([pa.field("g64", pa.uint64())])
    grams = collect(docs.map_batches(eval_grams, batch_format="pyarrow"), gram_schema)
    eval_h = np.unique(grams.column("g64").to_numpy(zero_copy_only=False))
    if len(eval_h) > _DECON_MAX_EVAL_GRAMS:
        raise ValueError(
            f"eval n-gram set has {len(eval_h)} distinct grams; "
            "decontamination broadcasts the eval side — shrink the eval split"
        )
    eval_ref = ray.put(eval_h)

    def flag(b: pa.Table) -> pa.Table:
        ev = ray.get(eval_ref)  # plasma-cached per node, zero-copy numpy
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        sub = b.filter(pa.array(ids % eval_mod != 0))
        g = sliding_ngram_hashes(sub, width)
        gh = g.column("g64").to_numpy(zero_copy_only=False)
        pos = np.searchsorted(ev, gh)
        hit = (pos < len(ev)) & (ev[np.minimum(pos, len(ev) - 1)] == gh) if len(ev) else np.zeros(len(gh), bool)
        gd = g.column("doc_id").to_numpy(zero_copy_only=False)[hit]
        uids, counts = np.unique(gd, return_counts=True)
        return pa.table(
            {
                "doc_id": pa.array(uids, type=pa.int64()),
                "n_contaminated": pa.array(counts.astype(np.int64)),
            }
        )

    return docs.map_batches(flag, batch_format="pyarrow").sort("doc_id")
