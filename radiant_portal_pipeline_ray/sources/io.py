"""Parquet file reads through the one read planner (``state/lakescan.py``).

``read_parquet_clean`` plans from one driver-side ``pq.read_schema`` and
the files' sizes: no footer pass over every file and none of
``ray.data.read_parquet``'s plan-time sampling tasks. The sizes also pick
where the read runs: one threshold, ``taskshuffle._DRIVER_LOCAL_BYTES``,
sends small reads and small exchanges to the driver, so files of at most
that many bytes in all are read in-process, into one ``pa.Table``, and
larger ones by Ray read tasks, into a Dataset. The schema it reads
with is metadata-free. Pandas-written parquet carries a ``b'pandas'``
schema-metadata key, and a ``pa.Schema`` with schema-level metadata is
unhashable in this pyarrow version, which silently defeats Ray Data's
block-schema deduplication in every downstream shuffle ("Failed to hash
the schemas (for deduplication)" spam from reduce tasks + extra driver
memory); every block here carries the clean schema instead.
"""

from __future__ import annotations

import os

import pyarrow.parquet as pq

from radiant_portal_pipeline_ray.state import lakescan


def _parquet_files(paths: str | list[str]) -> list[tuple[str, int]]:
    """``(path, bytes)`` of each file: a directory stands for the
    ``*.parquet`` files under it, in path order."""
    out = []
    for p in [paths] if isinstance(paths, str) else paths:
        if os.path.isdir(p):
            found = sorted(
                os.path.join(root, f)
                for root, _, files in os.walk(p)
                for f in files
                if f.endswith(".parquet")
            )
        else:
            found = [p]
        out.extend((f, os.path.getsize(f)) for f in found)
    if not out:
        raise FileNotFoundError(f"no parquet files in {paths!r}")
    return out


def read_parquet_clean(
    paths: str | list[str], *, columns: list[str] | None = None, filter=None
):
    """Local parquet files (or directories of them) with a metadata-free
    schema, ``columns`` projected and ``filter`` (a ``pyarrow.compute``
    expression) pushed into the scan: a table when the read runs on the
    driver, else a Dataset (``lakescan.read``)."""
    files = _parquet_files(paths)
    schema = pq.read_schema(files[0][0])
    return lakescan.read(files, schema, None, columns, filter)
