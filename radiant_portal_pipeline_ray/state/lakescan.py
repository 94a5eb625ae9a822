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
``filter`` into pyarrow and yield one table per row group with rows; Ray
Data gathers a task's tables into its output blocks (one block per task
below ``DataContext.target_max_block_size``). The read asks Ray for one
block per read task, a task per file (at most
``DataContext.read_op_min_num_blocks`` tasks), or one per cluster CPU when
there are fewer files than CPUs. Without that, Ray would split every
task's output (``ReadLakeScan->SplitBlocks(k)``) toward twice the CPUs and
up to 200 blocks of 1 MB, and a later ``map_batches`` would start up to k
tasks per file, on one CPU too. Every block, zero-row ones
included, carries the projected, metadata-free schema; lake files written
before a column was added read it as nulls.

The file sizes also pick where the read runs. One threshold,
``taskshuffle._DRIVER_LOCAL_BYTES``, sends small reads and small exchanges
to the driver: a read planning at most that many bytes runs the read
tasks' reader in this process and returns its row groups, in file order,
as one ``pa.Table``, so the read starts no Ray Data execution and builds
no ``Dataset``. The data then stays on the driver: a row-wise map over the
table (``taskshuffle.map_blocks``), a sort (``taskshuffle.sort_table``) and
a keyed exchange of it take the table and return one. The decision is
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

    def read_local(self) -> pa.Table:
        """Every file read in this process: the read tasks' row groups, in
        file order, as one table."""
        args = (self._fs, self._schema, self.schema, self._columns, self._filter)
        return pa.concat_tables(_read_files([p for p, _ in self._files], *args))

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


def read(files, schema, filesystem=None, columns=None, filter=None):
    """``files`` (``(path, bytes)`` pairs, at least one) read as
    ``schema``; see :class:`LakeScan`. At most
    ``taskshuffle._DRIVER_LOCAL_BYTES`` in all: read here, as one table.
    Above it: a Dataset of one Ray read task per file (at most
    ``read_op_min_num_blocks``), one block each, split only while there are
    fewer blocks than cluster CPUs."""
    src = LakeScan(files, schema, filesystem, columns, filter)
    if src.estimate_inmemory_data_size() <= taskshuffle._DRIVER_LOCAL_BYTES:
        return src.read_local()
    n_tasks = min(len(src._files), rd.DataContext.get_current().read_op_min_num_blocks)
    n_blocks = max(n_tasks, taskshuffle.ray_cpus(default=1))
    return rd.read_datasource(src, override_num_blocks=n_blocks)


def scan(lake, man, files, columns=None, filter=None):
    """:func:`read` of ``files`` (:func:`part_files` pairs) of manifest
    ``man``; an empty file list yields the projected schema's empty
    table."""
    if not files:
        return _project(man.schema, columns).empty_table()
    paths = [(lake.abspath(f), b) for f, b in files]
    return read(paths, man.schema, lake.pyarrow_fs(), columns, filter)
