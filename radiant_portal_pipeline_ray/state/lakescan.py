"""The one parquet read planner: a ``ray.data`` Datasource whose read
tasks come straight from a file list, its byte sizes and a schema, or, for
a small read, the same file reader run in-process.

``ray.data.read_parquet`` plans a read by opening every file's footer and
launching sampling tasks to estimate the in-memory size. A lake's manifest
already holds all of that: the file list, per-partition bytes and the
committed schema, so a lake scan (:func:`scan`) plans with pure driver
math, the same idea as Delta Lake's file statistics in the log (PAPERS:
*Delta Lake*, VLDB 2020). A plain file read (``sources/io.py``) uses the
same planner with one driver-side ``pq.read_schema`` and the files' sizes.
Footers are opened only inside the read tasks, which push ``columns`` and
``filter`` into pyarrow and yield one table per row group. Those tables are
not the blocks the consumer sees: Ray Data may split a read task's output
further (``ReadLakeScan->SplitBlocks`` when the read plans fewer tasks than
its parallelism target), so one file of five 100-row row groups can arrive
as eight blocks of 62-63 rows. Every block, zero-row ones included, carries
the projected, metadata-free schema; lake files written before a column
was added read it as nulls.

The file sizes also pick where the read runs. One threshold,
``taskshuffle._DRIVER_LOCAL_BYTES``, sends small reads and small exchanges
to the driver: a read planning at most that many bytes runs the read
tasks' reader in this process and returns its row groups as at most one
block per cluster CPU, already materialized (``taskshuffle.local_dataset``),
so neither the read nor its consumer starts a Ray Data execution for it,
and a later ``map_batches`` still runs on every CPU. The decision is
made from the sizes alone, without touching storage. Those sizes are
on-disk bytes of every column, so the decoded read can be several times
the threshold (BASELINE.md, "Read paths on both sides of the threshold").
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

from radiant_portal_pipeline_ray.stages import taskshuffle


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
    """Read ``files``, ``(path, bytes)`` pairs on ``filesystem`` (a pyarrow
    FileSystem; None = local paths), as blocks of ``schema`` projected to
    ``columns``, without a plan-time footer pass: ``bytes`` is the size
    estimate and the read tasks split the file list."""

    def __init__(self, files, schema, filesystem=None, columns=None, filter=None):
        self._schema = schema.remove_metadata()
        self.schema = _project(self._schema, columns)
        if filesystem is None:
            # read tasks may run in another working directory
            files = [(os.path.abspath(p), b) for p, b in files]
        self._files = list(files)
        self._fs = filesystem or pafs.LocalFileSystem()
        self._columns = columns
        self._filter = filter

    def estimate_inmemory_data_size(self) -> int:
        return sum(b for _, b in self._files)

    def read_local(self, n_blocks: int) -> list[pa.Table]:
        """Every file read in this process: the read tasks' row-group
        blocks, in file order, concatenated into at most ``n_blocks``."""
        paths = [p for p, _ in self._files]
        args = (self._fs, self._schema, self.schema, self._columns, self._filter)
        blocks = list(_read_files(paths, *args))
        return [
            pa.concat_tables(blocks[i[0] : i[-1] + 1])
            for i in np.array_split(np.arange(len(blocks)), n_blocks)
            if len(i)
        ]

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


def read(files, schema, filesystem=None, columns=None, filter=None) -> "rd.Dataset":
    """Dataset over ``files`` (``(path, bytes)`` pairs, at least one) read
    as ``schema``; see :class:`LakeScan`. At most
    ``taskshuffle._DRIVER_LOCAL_BYTES`` in all: read here, already
    materialized, as one block per cluster CPU at most, so a later
    ``map_batches`` can use every CPU and starts no more tasks than that."""
    src = LakeScan(files, schema, filesystem, columns, filter)
    if src.estimate_inmemory_data_size() <= taskshuffle._DRIVER_LOCAL_BYTES:
        cpus = taskshuffle.ray_cpus(default=1)
        return taskshuffle.local_dataset(*src.read_local(max(1, cpus)))
    return rd.read_datasource(src)


def scan(lake, man, files, columns=None, filter=None) -> "rd.Dataset":
    """Dataset over ``files`` (:func:`part_files` pairs) of manifest
    ``man``; an empty file list yields one empty block with the projected
    schema."""
    if not files:
        return taskshuffle.local_dataset(_project(man.schema, columns).empty_table())
    paths = [(lake.abspath(f), b) for f, b in files]
    return read(paths, man.schema, lake.pyarrow_fs(), columns, filter)
