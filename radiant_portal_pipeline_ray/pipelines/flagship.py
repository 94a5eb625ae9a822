"""Flagship demo pipeline: deterministic CDC replay over the test tables.

Derives a webtext changelog from the driver's ``documents`` table (urls from
doc_ids, html wrapping the text, an insert for every doc, updates for every
3rd, deletes for every 17th), applies it through the full CDC engine into a
throwaway lake, and returns the committed snapshot — i.e. it exercises
read → normalize → route → LWW merge → exactly-once commit end-to-end.
"""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.functions.text import extract_text
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine

_EPOCH_US = 1_704_067_200_000_000  # 2024-01-01


def documents_changelog(sf_dir: str, out_dir: str) -> list[str]:
    """Deterministic changelog derived from documents.parquet (no RNG)."""
    docs = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text", "lang", "source"],
    ).combine_chunks()
    ids = docs.column("doc_id").to_numpy(zero_copy_only=False)
    texts = docs.column("text").to_pylist()
    langs = docs.column("lang").to_pylist()
    srcs = docs.column("source").to_pylist()
    n = len(ids)

    urls = [f"https://{s}.example.net/doc/{i:08d}" for s, i in zip(srcs, ids)]

    def html_of(i: int, version: int) -> bytes:
        return (
            f"<html><head><title>{urls[i]}</title></head>"
            f"<body><h1>v{version}</h1><p>{texts[i]}</p></body></html>"
        ).encode("utf-8")

    rows = {"lsn": [], "op": [], "url": [], "warc_ts": [], "html": [], "lang": []}
    lsn = 0
    for i in range(n):  # inserts
        lsn += 1
        rows["lsn"].append(lsn)
        rows["op"].append("I")
        rows["url"].append(urls[i])
        rows["warc_ts"].append(_EPOCH_US + lsn * 60_000_000)
        rows["html"].append(html_of(i, 1))
        rows["lang"].append(langs[i])
    for i in range(n):  # updates for every 3rd doc
        if ids[i] % 3 == 0:
            lsn += 1
            rows["lsn"].append(lsn)
            rows["op"].append("U")
            rows["url"].append(urls[i])
            rows["warc_ts"].append(_EPOCH_US + lsn * 60_000_000)
            rows["html"].append(html_of(i, 2))
            rows["lang"].append(langs[i])
    for i in range(n):  # deletes for every 17th doc
        if ids[i] % 17 == 0:
            lsn += 1
            rows["lsn"].append(lsn)
            rows["op"].append("D")
            rows["url"].append(urls[i])
            rows["warc_ts"].append(_EPOCH_US + lsn * 60_000_000)
            rows["html"].append(None)
            rows["lang"].append(None)

    html_arr = pa.array(rows["html"], type=pa.binary())
    t = pa.table(
        {
            "lsn": pa.array(rows["lsn"], type=pa.int64()),
            "op": pa.array(rows["op"], type=pa.string()),
            "url": pa.array(rows["url"], type=pa.string()),
            "warc_ts": pa.array(
                np.array(rows["warc_ts"], dtype=np.int64)
            ).cast(pa.timestamp("us")),
            "html": html_arr,
            "text": extract_text(html_arr),
            "lang": pa.array(rows["lang"], type=pa.string()),
        }
    )
    os.makedirs(out_dir, exist_ok=True)
    mid = t.num_rows // 2
    p1 = os.path.join(out_dir, "batch-0000.parquet")
    p2 = os.path.join(out_dir, "batch-0001.parquet")
    pq.write_table(t.slice(0, mid), p1, compression="zstd")
    pq.write_table(t.slice(mid), p2, compression="zstd")
    return [p1, p2]


def run_flagship(sf_dir: str, work_dir: str | None = None, n_parts: int = 8):
    """Full CDC replay; returns the live-snapshot Dataset. Without a
    ``work_dir`` the replay runs in a temporary directory that is removed
    on return, so the snapshot comes back materialized."""
    work = work_dir or tempfile.mkdtemp(prefix="cdc_flagship_")
    try:
        cl_dir = os.path.join(work, "changelog")
        lake_dir = os.path.join(work, "lake")
        shutil.rmtree(lake_dir, ignore_errors=True)
        paths = documents_changelog(sf_dir, cl_dir)
        eng = CdcEngine(lake_dir, EngineConfig(n_parts=n_parts, run_qa=True))
        for p in paths:  # incremental: two apply rounds
            report = eng.apply([p])
        # post-commit QA gate (incl. cross-table live/tombstone exclusivity)
        assert report["qa"]["passed"], report["qa"]
        snap = eng.read_snapshot()
        return snap if work_dir else snap.materialize()
    finally:
        if not work_dir:
            shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# Oracle-checked ENGINE entry: the driver's correctness gate replays the
# full CDC pipeline (normalize → route → LWW merge → exactly-once commit)
# and compares the committed snapshot value-for-value against a pure-SQL
# reconstruction of the changelog outcome — inserts for every doc, v2
# updates for every 3rd, deletes for every 17th, last-writer-wins, text
# byte-identical to extract_text(html).
# ---------------------------------------------------------------------------
QUERIES: dict = {}

_FLAGSHIP_SQL = """
    WITH d AS (
      SELECT doc_id, source, text,
             'https://' || source || '.example.net/doc/' ||
               lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
             ROW_NUMBER() OVER (ORDER BY doc_id) AS rn,
             COUNT(*) OVER () AS n
      FROM documents
    ), upd AS (
      SELECT doc_id, ROW_NUMBER() OVER (ORDER BY doc_id) AS ur
      FROM documents WHERE doc_id % 3 = 0
    )
    SELECT d.url,
           CAST(CASE WHEN upd.doc_id IS NOT NULL THEN d.n + upd.ur
                     ELSE d.rn END AS BIGINT) AS lsn,
           d.url || CASE WHEN upd.doc_id IS NOT NULL THEN ' v2 '
                         ELSE ' v1 ' END || d.text AS text
    FROM d LEFT JOIN upd ON d.doc_id = upd.doc_id
    WHERE d.doc_id % 17 <> 0
    ORDER BY url
"""


def cdc_flagship_state(sf_dir: str):
    """Run the flagship CDC replay and return (url, lsn, text) of the
    committed snapshot — value-compared against the SQL oracle above."""
    ds = run_flagship(sf_dir)
    return ds.select_columns(["url", "lsn", "text"]).sort("url")


QUERIES["cdc_flagship_state"] = (cdc_flagship_state, _FLAGSHIP_SQL)
