"""Small read-side queries run on the driver.

The keyed operators own a query's row-wise ``finish`` and its final
``sort_by``: below ``taskshuffle._DRIVER_LOCAL_BYTES`` both run on the
driver's table, and the result must equal the task path's, row order
included. Under the same threshold file reads and lake scans read
in-process into one table, and the operators hand that table on, so a
query that reads straight into its operator starts no Ray Data execution
and builds no ``Dataset`` at all. File reads plan through
``state/lakescan.py`` and never call ``ray.data.read_parquet``."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray
import ray.data as rd

import __ray_entry__
from radiant_portal_pipeline_ray.stages import taskshuffle
from radiant_portal_pipeline_ray.stages.aggregates import (
    partial_final_groupby,
    topk_per_key,
)
from tests.test_queries import SF_DIR

#: the twelve queries of the benchmark's read_mix pass, each with its
#: budget of Ray Data executions (the query plus its consumer's
#: ``to_arrow_refs``). Each reads in-process, maps its batches in-process
#: (``taskshuffle.map_blocks`` or ``exchange_group``'s ``pre=``) and
#: exchanges on the driver, so none makes one.
READ_MIX_BUDGET = {
    "q_ntile_user_quartiles": 0,
    "q_lead_next_event": 0,
    "q_event_gaps": 0,
    "q_running_total": 0,
    "q_moving_sum3": 0,
    "q_trailing_hour_sum": 0,
    "q_price_percent_ranks": 0,
    "q_order_price_ranks": 0,
    "q_top3_orders_per_customer": 0,
    "q_latest_order_per_customer": 0,
    "q1_pricing_summary": 0,
    "q_region_revenue": 0,
}


#: registry entries that make more than the default budget of 2 Ray Data
#: executions at sf0.001 (the entry plus its consumer's
#: ``to_arrow_refs``): (executions, why). Every other entry makes at most 2.
REGISTRY_EXCEPTIONS: dict[str, tuple[int, str]] = {}


def _collect(ds) -> pa.Table:
    if isinstance(ds, pa.Table):
        return ds.combine_chunks()
    tabs = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(tabs, promote_options="permissive").combine_chunks()


def count_executions(monkeypatch) -> list:
    """A list that grows by one per Ray Data streaming execution started
    from now on."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    calls = []
    execute = StreamingExecutor.execute

    def counted(self, *a, **kw):
        calls.append(1)
        return execute(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counted)
    return calls


@pytest.mark.parametrize("name", sorted(READ_MIX_BUDGET))
def test_query_runs_one_execution_before_its_consumer(ray_session, monkeypatch, name):
    """The query call plus its consumer's ``to_arrow_refs`` start exactly
    the executions of its budget: an input read as Ray tasks, a pre-pass
    that maps with ``map_batches``, a ``from_arrow`` result or a
    ``map_batches(finish).sort(...)`` after the exchange would each add
    one."""
    from radiant_portal_pipeline_ray.pipelines.relational import QUERIES

    calls = count_executions(monkeypatch)
    out = _collect(QUERIES[name][0](SF_DIR))
    assert out.num_rows > 0
    assert len(calls) == READ_MIX_BUDGET[name], (name, len(calls))


@pytest.mark.parametrize("name", sorted(__ray_entry__._registry()))
def test_registry_entry_execution_budget(ray_session, monkeypatch, name):
    """Every registry entry at sf0.001, counted on one call (a second call
    counts the same): at most 2 executions, or exactly its listed count, so
    a regression and a stale exception both fail by name."""
    fn = __ray_entry__._registry()[name][0]
    calls = count_executions(monkeypatch)
    out = fn(SF_DIR)
    if isinstance(out, rd.Dataset):
        ray.get(out.to_arrow_refs())
    if name in REGISTRY_EXCEPTIONS:
        assert len(calls) == REGISTRY_EXCEPTIONS[name][0], (name, len(calls))
    else:
        assert len(calls) <= 2, (name, len(calls))


@pytest.mark.parametrize("name", sorted(READ_MIX_BUDGET))
def test_read_mix_query_builds_one_dataset_at_the_boundary(ray_session, monkeypatch, name):
    """Driver-local operators hand tables to each other: a read_mix query
    called through the registry builds no ``Dataset``, and through the
    driver contract (``__ray_entry__.queries()``) exactly one, the wrap of
    its final table. On the task path it still returns a Dataset, with the
    same rows."""
    from radiant_portal_pipeline_ray.pipelines.relational import QUERIES

    datasets = count_datasets(monkeypatch)
    local = QUERIES[name][0](SF_DIR)
    assert isinstance(local, pa.Table) and local.num_rows > 0
    assert datasets == [], (name, len(datasets))
    wrapped = __ray_entry__.queries()[name](SF_DIR)
    assert isinstance(wrapped, rd.Dataset)
    assert len(datasets) == 1, (name, len(datasets))
    assert _collect(wrapped).equals(local.combine_chunks())
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    tasks = QUERIES[name][0](SF_DIR)
    assert isinstance(tasks, rd.Dataset)
    assert _collect(tasks).equals(local.combine_chunks())


def test_engine_reads_build_one_dataset(ray_session, monkeypatch, tmp_path):
    """On a driver-local lake the public reads hand out a ``Dataset``
    built once, at return, whose consumer starts no execution;
    ``snapshot_checksums_incremental`` and ``snapshot_checksums`` build
    none."""
    from ray.data.dataset import MaterializedDataset

    from radiant_portal_pipeline_ray import EngineConfig
    from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
    from radiant_portal_pipeline_ray.sources.generator import (
        ChangelogSpec,
        generate_changelog,
    )

    paths = generate_changelog(
        str(tmp_path / "cl"), ChangelogSpec(n_urls=300, n_events=1200, n_batches=2, seed=5)
    )
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    eng.apply(paths[:1])
    prior = eng.snapshot_checksums()
    eng.apply(paths[1:])
    datasets = count_datasets(monkeypatch)
    calls = count_executions(monkeypatch)
    for read in (lambda: eng.read_snapshot(["url", "lsn"]), lambda: eng.read_changes(1, 2)):
        before = len(datasets)
        out = read()
        assert isinstance(out, MaterializedDataset) and len(datasets) == before + 1
        assert sum(t.num_rows for t in ray.get(out.to_arrow_refs())) > 0
    cks = eng.snapshot_checksums_incremental(1, prior, version=2)
    assert len(datasets) == 2 and calls == []
    full = eng.snapshot_checksums(version=2)
    assert len(datasets) == 2 and calls == []
    assert cks.equals(full)


def _ties_and_nulls(n: int = 3000, seed: int = 5) -> rd.Dataset:
    """Many keys, values on a coarse grid (ties), some null values."""
    rng = np.random.default_rng(seed)
    v = rng.integers(0, 6, n).astype(float)
    v[rng.random(n) < 0.05] = np.nan
    t = pa.table(
        {
            "g": pa.array(rng.integers(0, 400, n), pa.int64()),
            "v": pa.array(v, pa.float64(), from_pandas=True),
            "id": pa.array(np.arange(n), pa.int64()),
        }
    )
    assert t.column("v").null_count > 0
    return rd.from_arrow([t.slice(i, 500) for i in range(0, n, 500)])


def _both_paths(monkeypatch, run) -> tuple[pa.Table, pa.Table]:
    local = _collect(run())
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", 0)
    tasks = _collect(run())
    assert taskshuffle.last_split_plan["n_buckets"] > 1
    return local, tasks


def test_topk_finish_and_sort_match_task_path(ray_session, monkeypatch):
    def run():
        return topk_per_key(
            _ties_and_nulls(),
            ["g"],
            [("v", "descending"), ("id", "ascending")],
            k=2,
            finish=lambda t: t.append_column("v2", pc.multiply(t.column("v"), 2.0)),
            sort_by=[("v", "descending"), "g", "id"],
        )

    local, tasks = _both_paths(monkeypatch, run)
    assert local.column_names == ["g", "v", "id", "v2"]
    assert local.column("v").null_count > 0  # nulls sort last
    assert local.column("v")[local.num_rows - 1].as_py() is None
    assert local.equals(tasks)


def test_groupby_finish_and_sort_match_task_path(ray_session, monkeypatch):
    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "g": t.column("g"),
                "n": pc.cast(t.column("n"), pa.int64()),
                "top": t.column("top"),
            }
        )

    def run():
        ds = _ties_and_nulls().map_batches(
            lambda b: b.append_column("one", pa.array(np.ones(b.num_rows, np.int64))),
            batch_format="pyarrow",
        )
        return partial_final_groupby(
            ds,
            ["g"],
            [("one", "sum", "n"), ("v", "max", "top")],
            finish=finish,
            sort_by=[("n", "descending"), ("top", "descending"), "g"],
        )

    local, tasks = _both_paths(monkeypatch, run)
    assert local.num_rows == 400
    assert len(set(local.column("n").to_pylist())) < 400  # ties in the sort key
    assert local.equals(tasks)


def _join_sides() -> tuple[rd.Dataset, rd.Dataset]:
    """``_ties_and_nulls`` on the left (keys 0-399); on the right two ``w``
    per key 100-499, one of them null for every tenth key, so the joined
    sort keys tie and hold nulls on both sides of a full join while (v, w,
    id) and (w, id, g) stay total orders."""
    rng = np.random.default_rng(7)
    g = np.repeat(np.arange(100, 500), 2)
    w = rng.permutation(len(g)).astype(float)
    w[(g % 10 == 0) & (np.arange(len(g)) % 2 == 0)] = np.nan
    right = pa.table(
        {"g": pa.array(g, pa.int64()), "w": pa.array(w, pa.float64(), from_pandas=True)}
    )
    return _ties_and_nulls(), rd.from_arrow([right.slice(0, 400), right.slice(400)])


def test_join_finish_and_sort_match_task_path(ray_session, monkeypatch):
    from radiant_portal_pipeline_ray.stages.joins import hash_partitioned_join

    left, right = _join_sides()

    def run():
        return hash_partitioned_join(
            left, right, "g", how="left",
            finish=lambda t: t.append_column("v2", pc.multiply(t.column("v"), 2.0)),
            sort_by=[("v", "descending"), "w", "id"],
        )

    local, tasks = _both_paths(monkeypatch, run)
    assert local.column_names == ["g", "v", "id", "w", "v2"]
    assert local.column("w").null_count > 0  # unmatched keys and null w
    assert local.column("v")[local.num_rows - 1].as_py() is None
    assert len(set(local.column("v").to_pylist())) < local.num_rows // 100  # ties
    assert local.equals(tasks)


def test_exchange_join_sort_matches_task_path(ray_session, monkeypatch):
    left, right = _join_sides()

    def kernel(lt: pa.Table, rt: pa.Table) -> pa.Table:
        j = lt.join(rt, keys="g", join_type="full outer")
        return j.select(["g", "id", "w"])

    def run():
        return taskshuffle.exchange_join(
            left, right, ["g"], ["g"], kernel, sort_by=["w", ("id", "descending"), "g"]
        )

    local, tasks = _both_paths(monkeypatch, run)
    assert local.column("w").null_count > 0 and local.column("id").null_count > 0
    assert local.column("w")[local.num_rows - 1].as_py() is None
    assert local.equals(tasks)


def test_collect_returns_typed_tables(ray_session):
    from radiant_portal_pipeline_ray.stages.taskshuffle import collect

    schema = pa.schema([("k", pa.int64()), ("s", pa.string())])
    # zero blocks: the given schema, or no columns without one
    assert collect(rd.from_arrow_refs([]), schema).equals(schema.empty_table())
    assert collect(rd.from_arrow_refs([])).num_columns == 0
    # zero-row typed blocks keep their type without a schema
    empty = rd.from_arrow([schema.empty_table(), schema.empty_table()])
    assert collect(empty).equals(schema.empty_table())
    # mixed chunks: chunked columns, an empty block, a null-typed column
    a = pa.concat_tables(
        [pa.table({"k": [1], "s": ["a"]}), pa.table({"k": [2], "s": ["b"]})]
    )
    assert a.column("k").num_chunks == 2
    b = pa.table({"k": pa.array([3], pa.int64()), "s": pa.nulls(1)})
    ds = rd.from_arrow([a, schema.empty_table(), b])
    got = collect(ds)
    assert got.schema == schema
    assert got.column("k").num_chunks == 1
    assert got.to_pydict() == {"k": [1, 2, 3], "s": ["a", "b", None]}
    # a lazy plan runs once
    calls = []
    lazy = ds.map_batches(lambda t: (calls.append(1), t)[1], batch_format="pyarrow")
    assert collect(lazy).equals(got)


def count_datasets(monkeypatch) -> list:
    """A list that grows by one per ``Dataset`` construction from now on
    (each one is a round trip to Ray Data's stats actor)."""
    calls = []
    init = rd.Dataset.__init__

    def counted(self, *a, **kw):
        calls.append(1)
        return init(self, *a, **kw)

    monkeypatch.setattr(rd.Dataset, "__init__", counted)
    return calls


def test_local_dataset_is_one_dataset_that_starts_no_execution(ray_session, monkeypatch):
    """``local_dataset`` builds one ``MaterializedDataset`` with its snapshot
    set through Ray Data internals; if a Ray upgrade moves them, its
    consumer would start an execution here, or the blocks would change."""
    from ray.data.dataset import MaterializedDataset

    schema = pa.schema([("k", pa.int64()), ("s", pa.string())])
    blocks = [
        pa.table({"k": [1, 2], "s": ["a", "b"]}),
        schema.empty_table(),
        pa.table({"k": [3], "s": ["c"]}),
    ]
    datasets = count_datasets(monkeypatch)
    ds = taskshuffle.local_dataset(*blocks)
    assert len(datasets) == 1
    calls = count_executions(monkeypatch)
    got = ray.get(ds.to_arrow_refs())
    assert isinstance(ds, MaterializedDataset)
    assert taskshuffle.materialized(ds) is ds
    assert ds.count() == 3 and ds.num_blocks() == 3
    assert pa.schema(ds.schema().base_schema) == schema
    assert [t.to_pydict() for t in got] == [t.to_pydict() for t in blocks]
    assert calls == [] and len(datasets) == 1
    # a Ray Data op on top still runs from the snapshot
    assert ds.map_batches(lambda t: t, batch_format="pyarrow").count() == 3
    empty = taskshuffle.local_dataset()
    assert empty.schema() is None and ray.get(empty.to_arrow_refs()) == []


def _double(seen: list):
    """A row-wise ``fn`` that records each batch's row count."""

    def fn(t: pa.Table) -> pa.Table:
        seen.append(t.num_rows)
        return t.append_column("k2", pc.multiply(t.column("k"), 2))

    return fn


@pytest.mark.parametrize("batch_size", [None, 2])
def test_map_blocks_matches_map_batches(ray_session, monkeypatch, batch_size):
    """``map_blocks`` returns ``map_batches``' rows on both sides of the
    threshold: in-process, as slices of at most ``batch_size`` rows that
    skip the typed zero-row block, into one table with no execution (a
    table input maps the same way); above it (and on a lazy input), as
    ``map_batches`` itself."""
    from ray.data.dataset import MaterializedDataset

    schema = pa.schema([("k", pa.int64())])
    blocks = [pa.table({"k": [1, 2, 3]}), schema.empty_table(), pa.table({"k": [4, 5]})]
    want = taskshuffle.collect(
        rd.from_arrow(blocks).map_batches(
            _double([]), batch_format="pyarrow", batch_size=batch_size
        )
    )
    assert want.column("k2").to_pylist() == [2, 4, 6, 8, 10]

    seen: list = []
    calls = count_executions(monkeypatch)
    local = taskshuffle.map_blocks(taskshuffle.local_dataset(*blocks), _double(seen), batch_size)
    assert isinstance(local, pa.Table) and calls == []
    assert local.equals(want)
    assert seen == ([3, 2] if batch_size is None else [2, 1, 2])
    table_seen: list = []
    table = taskshuffle.map_blocks(pa.concat_tables(blocks), _double(table_seen), batch_size)
    assert isinstance(table, pa.Table) and table.equals(want)
    assert table_seen == ([5] if batch_size is None else [2, 2, 1])

    lazy = rd.from_arrow(blocks).map_batches(lambda t: t, batch_format="pyarrow")
    lazy = taskshuffle.map_blocks(lazy, _double([]), batch_size)
    assert not isinstance(lazy, MaterializedDataset)
    assert taskshuffle.collect(lazy).equals(want)
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    tasks = taskshuffle.map_blocks(taskshuffle.local_dataset(*blocks), _double(seen), batch_size)
    assert not isinstance(tasks, MaterializedDataset)
    assert taskshuffle.collect(tasks).equals(want)
    assert len(seen) == (2 if batch_size is None else 3)  # ran in Ray tasks


def test_map_blocks_of_no_rows_has_no_schema(ray_session):
    """An input of typed zero-row blocks, or a typed empty table, maps to
    no rows and no schema on both paths, as ``map_batches`` does (``fn``
    never runs); on the driver that is a table of no columns."""
    schema = pa.schema([("k", pa.int64())])
    ds = taskshuffle.local_dataset(schema.empty_table())
    local = taskshuffle.map_blocks(ds, _double([]))
    table = taskshuffle.map_blocks(schema.empty_table(), _double([]))
    tasks = ds.map_batches(_double([]), batch_format="pyarrow").materialize()
    assert isinstance(local, pa.Table) and isinstance(table, pa.Table)
    for out in (local, table, tasks):
        assert taskshuffle.num_rows(out) == 0 and taskshuffle.schema_of(out) is None
    # a projection of it stays empty, as Dataset.select_columns' does
    assert taskshuffle.select_columns(table, ["k"]) is table


def _refuse_ray_cpus(default=8):
    raise AssertionError("ray_cpus called")


def _no_read_parquet(monkeypatch):
    def refuse(*a, **kw):
        raise AssertionError("ray.data.read_parquet called")

    monkeypatch.setattr(rd, "read_parquet", refuse)


def _blocks(ds) -> list[pa.Table]:
    return [ds] if isinstance(ds, pa.Table) else ray.get(ds.to_arrow_refs())


def test_read_parquet_clean_plans_without_read_parquet(ray_session, tmp_path, monkeypatch):
    """A directory of files, a pandas-written file and a pushed-down filter
    all read as ``pq.read_table`` does, with metadata-free block schemas."""
    from radiant_portal_pipeline_ray.sources.io import read_parquet_clean

    _no_read_parquet(monkeypatch)
    rng = np.random.default_rng(3)
    t = pa.table(
        {
            "k": pa.array(np.arange(1000), pa.int64()),
            "x": pa.array(rng.random(1000)),
            "s": pa.array([f"s{i % 7}" for i in range(1000)]),
        }
    )
    d = tmp_path / "dir"
    d.mkdir()
    for i in range(3):
        pq.write_table(t.slice(i * 400, 400), str(d / f"part-{i}.parquet"), row_group_size=150)
    (d / "_SUCCESS").write_text("")

    got = pa.concat_tables(_blocks(read_parquet_clean(str(d))))
    assert got.sort_by("k").equals(t)

    pandas_file = str(tmp_path / "pandas.parquet")
    pq.write_table(pa.Table.from_pandas(pd.DataFrame(t.to_pydict())), pandas_file)
    assert b"pandas" in pq.read_schema(pandas_file).metadata
    blocks = _blocks(read_parquet_clean(pandas_file, columns=["s", "k"]))
    assert all(b.schema.metadata is None for b in blocks)
    assert [f.name for f in blocks[0].schema] == ["s", "k"]
    assert pa.concat_tables(blocks).equals(
        pq.read_table(pandas_file, columns=["s", "k"]).replace_schema_metadata()
    )

    flt = (pc.field("k") >= 250) & (pc.field("s") == "s3")
    got = pa.concat_tables(
        _blocks(read_parquet_clean(str(d), columns=["k", "x"], filter=flt))
    )
    want = pq.read_table(str(d), columns=["k", "x"], filters=flt)
    assert 0 < got.num_rows < 1000
    assert got.sort_by("k").equals(want.sort_by("k"))
    (tmp_path / "empty").mkdir()
    with pytest.raises(FileNotFoundError):
        read_parquet_clean(str(tmp_path / "empty"))


def test_read_parquet_clean_relative_paths(ray_session, tmp_path, monkeypatch):
    """Read tasks may run in another working directory."""
    from radiant_portal_pipeline_ray.sources.io import read_parquet_clean

    _no_read_parquet(monkeypatch)
    pq.write_table(pa.table({"a": [1, 2, 3]}), str(tmp_path / "r.parquet"))
    monkeypatch.chdir(tmp_path)
    # the task path: read tasks carry absolute input files
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    got = pa.concat_tables(_blocks(read_parquet_clean("r.parquet")))
    assert got.column("a").to_pylist() == [1, 2, 3]
    assert os.path.isabs(read_parquet_clean(["r.parquet"]).input_files()[0])


def test_read_parquet_clean_relative_paths_driver_path(ray_session, tmp_path, monkeypatch):
    """A small read of a relative path runs in-process, from the caller's
    working directory: its row groups, in order, as one table, with no
    execution, no ``Dataset`` and no cluster-resources lookup."""
    from radiant_portal_pipeline_ray.sources.io import read_parquet_clean

    _no_read_parquet(monkeypatch)
    pq.write_table(
        pa.table({"a": [1, 2, 3, 4, 5, 6]}), str(tmp_path / "r.parquet"),
        row_group_size=1,
    )
    monkeypatch.chdir(tmp_path)
    calls = count_executions(monkeypatch)
    datasets = count_datasets(monkeypatch)
    monkeypatch.setattr(taskshuffle, "ray_cpus", _refuse_ray_cpus)
    got = read_parquet_clean(["r.parquet"])
    assert isinstance(got, pa.Table)
    assert [c.to_pylist() for c in got.column("a").chunks] == [[i] for i in range(1, 7)]
    assert calls == [] and datasets == []


def test_partition_checksums_task_path_with_empty_buckets(ray_session, monkeypatch):
    """One group on the task path leaves most exchange buckets empty; the
    result equals the driver-local one and is a typed Arrow table."""
    from radiant_portal_pipeline_ray.stages.qa import partition_checksums

    t = pa.table(
        {
            "part": pa.array([7] * 300, pa.int64()),
            "url": pa.array([f"u{i}" for i in range(300)]),
        }
    )
    ds = rd.from_arrow([t.slice(i, 100) for i in range(0, 300, 100)])
    local = partition_checksums(ds, "part", ["url"])
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", 0)
    tasks = partition_checksums(ds, "part", ["url"])
    assert taskshuffle.last_split_plan["n_buckets"] > 1
    assert local.column("n_rows").to_pylist() == [300]
    assert tasks.equals(local)
    assert all(f.type == pa.int64() for f in tasks.schema)
