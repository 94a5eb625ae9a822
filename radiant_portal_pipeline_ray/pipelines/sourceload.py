"""Source-format load queries (reference S8/S10: broker CSV load with
column mapping + computed columns + filter; raw NDJSON load).

Each query first materializes a deterministic CSV/NDJSON export of an sf
table into a per-``sf_dir`` cache under ``/tmp`` (duckdb ``COPY`` — exact
round-trip formatting, done once), then exercises the REAL load path:
``ray.data.read_csv`` / ``read_json`` → vectorized mapping stage. The
oracle SQL computes the same result straight from the Parquet view, so the
whole load+transform round-trip is value-checked.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc

from radiant_portal_pipeline_ray.sources.loaders import (
    read_csv_mapped,
    read_ndjson_mapped,
)

QUERIES: dict = {}


def _register(name: str, sql: str | None):
    def deco(fn):
        QUERIES[name] = (fn, sql)
        return fn

    return deco


def _export(sf_dir: str, name: str, copy_sql: str, ext: str) -> str:
    """Deterministic one-time export of an sf table to CSV/NDJSON. The
    cache key covers the source file's size and mtime, so a rewritten
    source gets a fresh export; the export is written under a temporary
    name and renamed into place, so a reader never sees a partial file."""
    import duckdb

    src = os.path.join(sf_dir, f"{name}.parquet")
    st = os.stat(src)
    ident = f"{os.path.abspath(sf_dir)}|{copy_sql}|{st.st_size}|{st.st_mtime_ns}"
    key = hashlib.sha256(ident.encode()).hexdigest()[:16]
    root = f"/tmp/graft_loads/{name}-{key}"
    path = os.path.join(root, f"data.{ext}")
    if not os.path.exists(path):
        os.makedirs(root, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with duckdb.connect() as con:
            con.execute(f"CREATE VIEW src AS SELECT * FROM read_parquet('{src}')")
            con.execute(copy_sql.format(path=tmp))
        os.replace(tmp, path)
    return path


# ---------------------------------------------------------------------------
# S8: CSV broker-load analog — column mapping (source→source_code), computed
# columns (upper, boolean flag), WHERE filter
# ref: radiant/dags/sql/radiant/staging_exomiser_load.sql:1-45
# ---------------------------------------------------------------------------
@_register(
    "s_csv_load",
    """
    SELECT doc_id, lang, upper(source) AS source_uc,
           n_chars, (n_chars > 500) AS is_long
    FROM documents WHERE n_chars > 200 ORDER BY doc_id
    """,
)
def s_csv_load(sf_dir: str):
    path = _export(
        sf_dir,
        "documents",
        "COPY (SELECT doc_id, lang, source AS src, n_chars FROM src ORDER BY doc_id)"
        " TO '{path}' (FORMAT CSV, HEADER)",
        "csv",
    )
    ds = read_csv_mapped(
        path,
        rename={"src": "source"},
        computed={
            "source_uc": lambda b: pc.utf8_upper(b.column("source")),
            "is_long": lambda b: pc.greater(b.column("n_chars"), 500),
        },
        where=lambda b: pc.greater(b.column("n_chars"), 200),
        select=["doc_id", "lang", "source_uc", "n_chars", "is_long"],
    )
    return ds.sort("doc_id")


# ---------------------------------------------------------------------------
# S10: NDJSON raw load (ClinVar-RCV shape) with filter + computed column
# ref: radiant/dags/import_open_data.py:84-109
# ---------------------------------------------------------------------------
@_register(
    "s_ndjson_load",
    """
    SELECT event_id, event_type,
           CAST(ROUND(value * 100) AS BIGINT) AS value_c
    FROM events WHERE value > 50 ORDER BY event_id
    """,
)
def s_ndjson_load(sf_dir: str):
    path = _export(
        sf_dir,
        "events",
        "COPY (SELECT event_id, event_type, value FROM src ORDER BY event_id)"
        " TO '{path}' (FORMAT JSON)",
        "jsonl",  # ray.data.read_json filters on .json/.jsonl extensions
    )
    ds = read_ndjson_mapped(
        path,
        computed={
            "value_c": lambda b: pc.cast(
                pc.round(pc.multiply(b.column("value"), 100.0)), pa.int64()
            ),
        },
        where=lambda b: pc.greater(b.column("value"), 50.0),
        select=["event_id", "event_type", "value_c"],
    )
    return ds.sort("event_id")
