"""Manifest-planned lake scans: a ``ray.data`` Datasource whose read tasks
come straight from a manifest's file list.

``ray.data.read_parquet`` plans a read by opening every file's footer and
launching sampling tasks to estimate the in-memory size. The manifest
already holds all of that: the file list, per-partition bytes and the
committed schema. So planning here is pure driver math, the same idea as
Delta Lake's file statistics in the log (PAPERS: *Delta Lake*, VLDB 2020).
Footers are opened only inside the read tasks, which push ``columns`` and
``filter`` into pyarrow and yield one block per row group. Every block,
zero-row ones included, carries the projected committed schema; files
written before a column was added read it as nulls.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
from pyarrow import fs as pafs
import ray.data as rd
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


def _read_files(paths, filesystem, schema, out, columns, filt):
    fmt = pads.ParquetFileFormat()
    n = 0
    for p in paths:
        frag = fmt.make_fragment(p, filesystem=filesystem)
        for rg in frag.split_by_row_group(filt, schema=schema):
            t = rg.to_table(schema=schema, columns=columns, filter=filt)
            if t.num_rows:
                n += 1
                yield t
    if not n:
        yield out.empty_table()


def part_files(man, parts=None) -> list[tuple[str, int]]:
    """``(path, bytes)`` of each file of ``parts`` of ``man`` (every
    partition when None): lake-relative paths, with the partition's bytes
    split evenly over its files. Costs O(files of ``parts``)."""
    sel = (
        man.partitions.values()
        if parts is None
        else [man.partitions[p] for p in parts if p in man.partitions]
    )
    return [(f, st.bytes // len(st.files)) for st in sel for f in st.files]


def _project(schema: pa.Schema, columns) -> pa.Schema:
    schema = schema.remove_metadata()
    if columns is None:
        return schema
    return pa.schema([schema.field(c) for c in columns])


class LakeScan(Datasource):
    """Read ``files``, ``(lake-relative path, bytes)`` pairs of ``man`` as
    :func:`part_files` gives them, without a plan-time footer pass."""

    def __init__(self, lake, man, files, columns=None, filter=None):
        self._schema = man.schema.remove_metadata()
        self.schema = _project(self._schema, columns)
        paths = [lake.abspath(f) for f, _ in files]
        if lake.filesystem is None:
            # read tasks may run in another working directory
            paths = [os.path.abspath(p) for p in paths]
        self._files = [(p, b) for p, (_, b) in zip(paths, files)]
        self._fs = lake.pyarrow_fs() or pafs.LocalFileSystem()
        self._columns = columns
        self._filter = filter

    def estimate_inmemory_data_size(self) -> int:
        return sum(b for _, b in self._files)

    def get_read_tasks(self, parallelism: int) -> list[ReadTask]:
        args = (self._fs, self._schema, self.schema, self._columns, self._filter)
        tasks = []
        for chunk in np.array_split(np.arange(len(self._files)), parallelism):
            if not len(chunk):
                continue
            paths = [self._files[i][0] for i in chunk]
            meta = BlockMetadata(
                num_rows=None,
                size_bytes=sum(self._files[i][1] for i in chunk),
                input_files=paths,
                exec_stats=None,
            )
            tasks.append(
                ReadTask(lambda p=paths: _read_files(p, *args), meta, self.schema)
            )
        return tasks


def scan(lake, man, files, columns=None, filter=None) -> "rd.Dataset":
    """Dataset over ``files`` (:func:`part_files` pairs) of manifest
    ``man``; an empty file list yields one empty block with the projected
    schema."""
    if not files:
        return rd.from_arrow(_project(man.schema, columns).empty_table())
    return rd.read_datasource(LakeScan(lake, man, files, columns, filter))
