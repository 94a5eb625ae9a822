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

Scale shape:
- Every pair generator is a keyed exchange (``taskshuffle.exchange_group``)
  over its bucket rows, so ``taskshuffle._DRIVER_LOCAL_BYTES`` alone
  decides driver or tasks: at most that many bytes run the kernel once on
  the driver, more run one task per bucket.
- ``dd_ngram_jaccard`` is two exchanges: per shingle bucket, the pair
  multiplicities (each doc's shingle count rides on its shingle rows);
  per pair, their sum is ``inter``, then the threshold and the sort.
- Candidate verification (``_verify_pairs``) checks pairs against the
  candidates' shingles. Pairs of at most ``_DRIVER_LOCAL_BYTES`` take one
  pushed-down re-read of the candidate docs and one Acero join plan on the
  driver (``_verify_table_driver``); more run the same plan as
  hash-partitioned joins (``distributed_verify``) with no driver state.
- Shingles shuffle as int64 hashes (8 bytes), never strings.
- Buckets above ``max_bucket`` (frequent shingles / degenerate bands) are
  dropped with a logged count instead of emitting O(m²) pairs; dropped
  buckets only lose candidate RECALL — surviving pairs' ``inter``/``uni``
  stay exact, because verification recounts against the full shingle
  table.
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
    shingle_hash_table,
)
from radiant_portal_pipeline_ray.pipelines.textops import _docs
from radiant_portal_pipeline_ray.stages import taskshuffle
from radiant_portal_pipeline_ray.stages.aggregates import partial_final_groupby
from radiant_portal_pipeline_ray.stages.joins import hash_partitioned_join
from radiant_portal_pipeline_ray.stages.taskshuffle import (
    collect,
    collect_where,
    exchange_group,
    map_blocks,
    materialized,
    select_columns,
    sort_table,
)

logger = logging.getLogger(__name__)

QUERIES: dict = {}


def _register(name: str, sql: str | None):
    def deco(fn):
        QUERIES[name] = (fn, sql)
        return fn

    return deco


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

    def hash_text(b: pa.Table) -> pa.Table:
        h = sha256_hex_array(b.column("text"))
        return pa.table({"h": h, "doc_id": b.column("doc_id")})

    return partial_final_groupby(
        map_blocks(ds, hash_text),
        ["h"],
        [("doc_id", "min", "rep_doc_id"), ([], "count_all", "n_copies")],
        finish=lambda g: g.select(["rep_doc_id", "n_copies"]),
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
    count, never the corpus size. Driver verification only (candidate pairs
    of at most ``taskshuffle._DRIVER_LOCAL_BYTES``); larger pair sets never
    build driver state (see ``distributed_verify``)."""
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
    sh = map_blocks(ds, ShingleExplodeStage(k=k))
    return collect(sh, empty.schema)


def _log_drops(pairs: "rd.Dataset", size_col: str, query: str) -> int:
    """Log the over-cap bucket markers (``doc_a = -1``, the bucket's size
    in ``size_col``) of a materialized pair Dataset; returns how many."""
    drops = collect_where(
        pairs, lambda t: pc.equal(t.column("doc_a"), -1)
    ).column(size_col).to_pylist()
    if drops:
        logger.warning(
            "%s: dropped %d over-cap candidate buckets (sizes %s...); "
            "recall-only loss, surviving pairs stay exact",
            query,
            len(drops),
            sorted(drops, reverse=True)[:5],
        )
    return len(drops)


def _real_pairs(t: pa.Table) -> pa.Table:
    """Distinct ``(doc_a, doc_b)`` of a pair table, markers dropped."""
    return (
        t.filter(pc.not_equal(t.column("doc_a"), -1))
        .select(["doc_a", "doc_b"])
        .group_by(["doc_a", "doc_b"])
        .aggregate([])
    )


def _jaccard_half(t: pa.Table) -> pa.Table:
    """``(doc_a, doc_b, inter, uni)`` of the pairs in ``t`` (columns
    ``doc_a``, ``doc_b``, ``inter``, ``n_a``, ``n_b``) whose Jaccard is at
    least 0.5, in integers: ``uni = n_a + n_b - inter``, ``2·inter ≥ uni``."""
    inter = pc.cast(t.column("inter"), pa.int64())
    uni = pc.cast(
        pc.subtract(pc.add(t.column("n_a"), t.column("n_b")), inter), pa.int64()
    )
    return pa.table(
        {
            "doc_a": t.column("doc_a"),
            "doc_b": t.column("doc_b"),
            "inter": inter,
            "uni": uni,
        }
    ).filter(pc.greater_equal(pc.multiply(inter, 2), uni))


def _verify_table_driver(pairs_t: pa.Table, sh_t: pa.Table) -> pa.Table:
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
    out = _jaccard_half(j)
    return out.take(
        pc.sort_indices(
            out, sort_keys=[("doc_a", "ascending"), ("doc_b", "ascending")]
        )
    )


def distributed_verify(sh: "rd.Dataset", pairs: "rd.Dataset") -> "rd.Dataset":
    """Fully distributed exact-Jaccard verification — ZERO driver state.

    Plan (every exchange is a hash-partitioned join or a pkey-partitioned
    count; nothing is collected to the driver):

    1. distinct candidate pairs, over-cap markers dropped (one keyed
       exchange on the pair),
    2. semi-filter the corpus shingle table to docs that appear in any
       pair (two-sided id explode + composite-free semi join) — I/O and
       shuffle width bounded by the candidate set from here on,
    3. ``pairs ⋈ sh`` on ``doc_a`` (inner) attaches doc_a's shingles,
    4. composite semi-join on ``(doc_b, s)`` keeps exactly the SHARED
       shingles; count per (doc_a, doc_b) = ``inter``,
    5. two hash joins attach per-doc shingle counts → ``uni`` arithmetic
       and the integer threshold ``2·inter ≥ uni``.

    Because ``inter`` is recounted against the (candidate-filtered) full
    shingle table, dropped candidate buckets only cost recall — surviving
    pairs' values are exact.

    Reference analogue: the any-size anti/semi-join shape of
    `radiant/dags/sql/radiant/variant_lookup_insert_hashes.sql:1-6`.
    """
    # 1. distinct real pairs ---------------------------------------------
    dp = exchange_group(pairs, ["doc_a", "doc_b"], _real_pairs)

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

    cand_ids = map_blocks(dp, explode_ids)
    sh_cand = materialized(
        hash_partitioned_join(sh, cand_ids, left_on="doc_id", how="semi")
    )

    # 3./4. shared-shingle count = inter ---------------------------------
    sh_a = map_blocks(sh_cand, lambda b: b.rename_columns(["doc_a", "s"]))
    h1 = hash_partitioned_join(dp, sh_a, left_on="doc_a")
    h2 = hash_partitioned_join(
        h1, sh_cand, left_on=["doc_b", "s"], right_on=["doc_id", "s"],
        how="semi",
    )
    inter = partial_final_groupby(h2, ["doc_a", "doc_b"], [([], "count_all", "inter")])

    # 5. sizes + threshold ----------------------------------------------
    sizes = materialized(
        partial_final_groupby(sh_cand, ["doc_id"], [([], "count_all", "n")])
    )
    sizes_a = map_blocks(sizes, lambda b: b.rename_columns(["doc_id", "n_a"]))
    sizes_b = map_blocks(sizes, lambda b: b.rename_columns(["doc_id", "n_b"]))
    ja = hash_partitioned_join(inter, sizes_a, left_on="doc_a", right_on="doc_id")
    return hash_partitioned_join(
        ja, sizes_b, left_on="doc_b", right_on="doc_id",
        finish=_jaccard_half, sort_by=["doc_a", "doc_b"],
    )


def _verify_pairs(
    sf_dir: str,
    pairs: "rd.Dataset",
    shingle_ds: "rd.Dataset | None" = None,
) -> "rd.Dataset":
    """Exact-verify the candidate pairs of a materialized pair Dataset
    (``doc_a``/``doc_b`` columns; ``doc_a = -1`` marker rows are skipped,
    their caller logs them).

    Pairs of at most ``taskshuffle._DRIVER_LOCAL_BYTES`` take the driver
    path: a pushed-down re-read of just the candidate docs and one Acero
    join plan. Larger pair sets run ``distributed_verify`` over
    ``shingle_ds`` (``(doc_id, s)`` rows; the corpus is shingled when it is
    None) with zero driver state."""
    if not taskshuffle._driver_local(pairs):
        if shingle_ds is None:
            shingle_ds = map_blocks(
                _docs(sf_dir, ["doc_id", "text"]), ShingleExplodeStage(k=3)
            )
        return distributed_verify(shingle_ds, pairs)
    pairs_t = _real_pairs(collect(pairs))
    cand_ids = set(pairs_t.column("doc_a").to_pylist()) | set(
        pairs_t.column("doc_b").to_pylist()
    )
    sh_t = candidate_shingle_table(sf_dir, cand_ids)
    return _verify_table_driver(pairs_t, sh_t)


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


def _shingles_with_sizes(b: pa.Table) -> pa.Table:
    """Documents batch → distinct ``(doc_id, s, n)`` shingle rows, ``n``
    the doc's shingle count (every doc lies in one batch)."""
    sh = shingle_hash_table(b, k=3)
    ids = sh.column("doc_id").to_numpy(zero_copy_only=False)
    _, inv, counts = np.unique(ids, return_inverse=True, return_counts=True)
    return sh.append_column("n", pa.array(counts[inv], type=pa.int64()))


@_register("dd_ngram_jaccard", _NGRAM_SQL)
def dd_ngram_jaccard(sf_dir: str, max_bucket: int = 4096):
    """Exact 3-gram Jaccard ≥ 0.5 pairs. Candidates = docs sharing ≥1
    shingle (exact, since J ≥ 0.5 ⇒ shared shingle; a hash collision only
    adds a candidate that the threshold rejects).

    Two keyed exchanges. On the shingle hash ``s``: every bucket's pairs
    with their multiplicity there (the number of the bucket's shingles both
    docs hold), each doc's shingle count ``n`` carried along. On the pair:
    the multiplicities sum to ``inter``, ``uni = n_a + n_b - inter``, then
    the threshold and the sort. When over-cap shingle buckets drop, the
    multiplicities undercount ``inter``, so the surviving candidates are
    recounted against the shingle table by ``_verify_pairs`` instead."""
    sh = materialized(
        map_blocks(_docs(sf_dir, ["doc_id", "text"]), _shingles_with_sizes)
    )

    def shingle_pairs(g: pa.Table) -> pa.Table:
        s = g.column("s").to_numpy(zero_copy_only=False)
        i = g.column("doc_id").to_numpy(zero_copy_only=False)
        n = g.column("n").to_numpy(zero_copy_only=False)
        order = np.lexsort((i, s))
        s, i, n = s[order], i[order], n[order]
        starts, lens = _run_bounds(s)
        dropped = lens[lens > max_bucket].astype(np.int64)
        keep = (lens >= 2) & (lens <= max_bucket)
        a, b = _expand_pairs(starts[keep], lens[keep])
        mult = (
            pa.table({"doc_a": i[a], "doc_b": i[b], "n_a": n[a], "n_b": n[b]})
            .group_by(["doc_a", "doc_b", "n_a", "n_b"])
            .aggregate([("doc_a", "count")])
        )
        marker = np.full(len(dropped), -1, np.int64)
        zero = np.zeros(len(dropped), np.int64)
        return pa.concat_tables(
            [
                mult.rename_columns(["doc_a", "doc_b", "n_a", "n_b", "inter"]),
                pa.table(
                    {
                        "doc_a": marker, "doc_b": marker, "n_a": zero,
                        "n_b": zero, "inter": dropped,
                    }
                ),
            ]
        )

    partial = exchange_group(sh, ["s"], shingle_pairs)
    if _log_drops(partial, "inter", "dd_ngram_jaccard"):
        return _verify_pairs(
            sf_dir, partial, shingle_ds=select_columns(sh, ["doc_id", "s"])
        )

    def threshold(t: pa.Table) -> pa.Table:
        g = t.group_by(["doc_a", "doc_b", "n_a", "n_b"]).aggregate(
            [("inter", "sum")]
        )
        return _jaccard_half(
            g.rename_columns(["doc_a", "doc_b", "n_a", "n_b", "inter"])
        )

    return exchange_group(
        partial, ["doc_a", "doc_b"], threshold, sort_by=["doc_a", "doc_b"]
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
    sigs = map_blocks(docs, MinHashStage(n_perm=64, shingle_k=3))
    buckets = map_blocks(sigs, make_band_exploder(n_bands=16, rows_per_band=4))
    # band identity is folded into band_hash (per-band seed), so the bucket
    # key is the single int64 hash; a cross-band collision only adds a
    # candidate pair that verification rejects
    pairs = exchange_group(
        select_columns(buckets, ["band_hash", "doc_id"]),
        ["band_hash"],
        make_partitioned_pair_generator("band_hash", "doc_id", max_bucket),
    )
    _log_drops(pairs, "dropped_bucket", "dd_minhash_lsh")
    return _verify_pairs(sf_dir, pairs)


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
    sigs = map_blocks(ds, SimHashStage())

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

    buckets = map_blocks(sigs, explode_chunks)

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

    pairs = exchange_group(buckets, ["chunk_key"], partition_pairs)
    _log_drops(pairs, "hamming", "dd_simhash")

    def distinct_pairs(t: pa.Table) -> pa.Table:
        # a pair sharing several chunks comes once per chunk bucket
        return (
            t.filter(pc.not_equal(t.column("doc_a"), -1))
            .group_by(["doc_a", "doc_b"])
            .aggregate([("hamming", "min")])
            .rename_columns(["doc_a", "doc_b", "hamming"])
        )

    return exchange_group(
        pairs, ["doc_a", "doc_b"], distinct_pairs, sort_by=["doc_a", "doc_b"]
    )


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

    edges = materialized(map_blocks(pairs, sym))

    # round 0: label(node) = min(node, min neighbor id)
    def self_min(b: pa.Table) -> pa.Table:
        m = np.minimum(
            b.column("node").to_numpy(zero_copy_only=False),
            b.column("nbr").to_numpy(zero_copy_only=False),
        )
        return pa.table(
            {"node": b.column("node"), "lbl": pa.array(m, type=pa.int64())}
        )

    labels = materialized(
        partial_final_groupby(
            map_blocks(edges, self_min), ["node"], [("lbl", "min", "label")]
        )
    )

    for it in range(max_iters):
        nbr_labels = map_blocks(
            labels, lambda b: b.rename_columns(["nbr", "nbr_lbl"])
        )
        prop = hash_partitioned_join(edges, nbr_labels, left_on="nbr")
        cand = partial_final_groupby(prop, ["node"], [("nbr_lbl", "min", "m")])
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

        folded = materialized(map_blocks(folded, fold))
        if isinstance(folded, pa.Table):
            changed = pc.sum(folded.column("__chg")).as_py()
        else:
            changed = folded.sum("__chg")
        labels = materialized(select_columns(folded, ["node", "label"]))
        if not changed:
            # hook fixpoint: label(n) ≤ label(m) across every edge in both
            # directions ⇒ labels constant per component ⇒ correct reps
            break

        # pointer jump: label ← min(label, label(label)). Labels are always
        # node ids present in the table, so a self-join collapses label
        # chains by doubling each round — convergence scales with
        # log(diameter) instead of diameter (chain-shaped graphs were the
        # silent-wrong-answer case at max_iters).
        as_node = map_blocks(
            labels, lambda b: b.rename_columns(["j_node", "j_label"])
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

        labels = materialized(map_blocks(jumped, jump_fold))
    else:
        raise RuntimeError(
            f"connected_components: no fixpoint after max_iters={max_iters} "
            "rounds — raise max_iters (labels would be silently wrong)"
        )
    labels = map_blocks(labels, lambda b: b.rename_columns(["doc_id", "rep_doc_id"]))
    return sort_table(labels, "doc_id")


@_register("dd_dedup_corpus", _DEDUP_CORPUS_SQL)
def dd_dedup_corpus(sf_dir: str, max_bucket: int = 4096):
    """Near-dup CLUSTER dedup: exact J ≥ 0.5 pairs → connected components →
    every clustered doc mapped to its component representative (min doc_id).
    Downstream, "keep rows whose doc_id ∉ mapping OR doc_id = rep_doc_id"
    yields the deduplicated corpus.

    The components come from ``fold_components``: driver union-find over
    the PAIR set (the near-dup graph, orders of magnitude smaller than the
    corpus) while it fits ``taskshuffle._DRIVER_LOCAL_BYTES``, else
    ``connected_components_distributed``, the same mapping by iterated
    min-label propagation with zero driver state.
    """
    pairs = materialized(dd_ngram_jaccard(sf_dir, max_bucket=max_bucket))
    return fold_components(pairs)


def fold_components(pairs: "rd.Dataset") -> "rd.Dataset":
    """Pair graph → ``(doc_id, rep_doc_id)`` component mapping sorted by
    ``doc_id``. Pairs of at most ``taskshuffle._DRIVER_LOCAL_BYTES`` fold
    by union-find on the driver, larger ones by
    ``connected_components_distributed`` (identical output; union-find is
    the faster of the two by far at small sizes). ``pairs`` must be
    materialized with ``doc_a``/``doc_b`` int64 columns."""
    if not taskshuffle._driver_local(pairs):
        return connected_components_distributed(
            select_columns(pairs, ["doc_a", "doc_b"])
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
    return pa.table(
        {
            "doc_id": pa.array(nodes, type=pa.int64()),
            "rep_doc_id": pa.array(reps, type=pa.int64()),
        }
    )


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
    exploded = map_blocks(ds, lambda b: explode_fixed_passages(b, width))

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

    partial = exchange_group(exploded, ["h_hi", "h_lo"], bucket_fn)

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

    return exchange_group(partial, ["doc_id"], fold, sort_by="doc_id")


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
    grams = collect(map_blocks(docs, eval_grams), gram_schema)
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

    return sort_table(map_blocks(docs, flag), "doc_id")
