"""Manifest-planned lake scans (``state/lakescan.py``).

Every read over a manifest's data files goes through the manifest-planned
Datasource: with ``ray.data.read_parquet`` patched to raise, snapshot
reads, the change feed, incremental checksums, compaction and reshard
must still return what an independent driver-side read
(``pq.read_table`` via ``snapshot_table``) gives, on local, fsspec
``file://`` and moto-S3 lakes. Also pins that every block of a pruned
scan carries the projected schema, and that a keyed exchange runs its
input plan once."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)

CFG = EngineConfig(n_parts=4, target_rows_per_file=60)


def _sorted(t: pa.Table, key: str = "url") -> pa.Table:
    return t.take(pc.sort_indices(t, sort_keys=[(key, "ascending")]))


def _collect(ds) -> pa.Table:
    if isinstance(ds, pa.Table):
        return ds
    tabs = ray.get(ds.to_arrow_refs())
    return pa.concat_tables(tabs, promote_options="permissive")


def _replay(root: str, tmp_path) -> CdcEngine:
    paths = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=300, n_events=1500, n_batches=3, seed=53),
    )
    eng = CdcEngine(root, CFG)
    for p in paths:
        eng.apply([p])
    return eng


def _lake_root(kind: str, tmp_path, request) -> str:
    if kind == "local":
        return str(tmp_path / "lake")
    if kind == "fsspec":
        return f"file://{tmp_path}/objstore"
    request.getfixturevalue("moto_s3")
    import boto3

    boto3.client(
        "s3", endpoint_url=os.environ["AWS_ENDPOINT_URL"], region_name="us-east-1"
    ).create_bucket(Bucket="lakescan")
    return "s3://lakescan/lake"


def _no_read_parquet(monkeypatch):
    def refuse(*_a, **_kw):
        raise AssertionError("lake read went through ray.data.read_parquet")

    monkeypatch.setattr(rd, "read_parquet", refuse)


def _expected_changes(eng: CdcEngine, v_from: int, v_to: int) -> list[tuple]:
    """I/U/D diff of two versions from driver-side reads (see
    ``pipelines/changefeed.py`` for the semantics)."""

    def rows(v):
        t = eng.snapshot_table(
            columns=["url", "lsn", "deleted"], include_tombstones=True, version=v
        )
        return {
            u: (lsn, d)
            for u, lsn, d in zip(*(t.column(c).to_pylist() for c in t.column_names))
        }

    a, b = rows(v_from), rows(v_to)
    out = []
    for u in sorted(set(a) | set(b)):
        la, da = a.get(u, (None, True))
        lb, db = b.get(u, (None, True))
        live_a, live_b = u in a and not da, u in b and not db
        op = (
            "I" if live_b and not live_a
            else "D" if live_a and not live_b
            else "U" if live_a and live_b and la != lb
            else None
        )
        if op:
            out.append((op, u, la, lb))
    return out


def _expected_checksums(eng: CdcEngine, version: int) -> pa.Table:
    from radiant_portal_pipeline_ray.stages.qa import partition_checksums

    t = eng.snapshot_table(columns=["part", "url", "lsn", "text"], version=version)
    return partition_checksums(rd.from_arrow(t), "part", ["url", "lsn", "text"])


@pytest.mark.parametrize("kind", ["local", "fsspec", "s3"])
def test_lake_reads_bypass_read_parquet(ray_session, tmp_path, request, monkeypatch, kind):
    from radiant_portal_pipeline_ray.pipelines.maintenance import compact, reshard

    root = _lake_root(kind, tmp_path, request)
    eng = _replay(root, tmp_path)
    assert eng.lake.current_version() == 3
    _no_read_parquet(monkeypatch)

    for version in (None, 2):
        for tomb in (False, True):
            got = _collect(eng.read_snapshot(include_tombstones=tomb, version=version))
            want = eng.snapshot_table(include_tombstones=tomb, version=version)
            assert got.num_rows > 0
            assert _sorted(got).equals(_sorted(want)), (version, tomb)

    urls = sorted(eng.snapshot_table(columns=["url"]).column("url").to_pylist())
    lo, hi = urls[len(urls) // 3], urls[len(urls) // 2]
    got = _collect(eng.read_snapshot(columns=["url", "lsn"], prune={"url": (lo, hi)}))
    live = eng.snapshot_table(columns=["url", "lsn"])
    u = live.column("url")
    want = live.filter(pc.and_(pc.greater_equal(u, lo), pc.less_equal(u, hi)))
    assert _sorted(got).equals(_sorted(want))

    ch = _sorted(_collect(eng.read_changes(2, 3)))
    got = list(zip(*(ch.column(c).to_pylist() for c in ch.column_names)))
    want = _expected_changes(eng, 2, 3)
    assert want and got == want

    prior = _expected_checksums(eng, 2)
    inc = eng.snapshot_checksums_incremental(2, prior, version=3)
    want = _expected_checksums(eng, 3)
    assert _sorted(inc, "part").replace_schema_metadata().equals(
        _sorted(want, "part").replace_schema_metadata()
    )

    before = _sorted(eng.snapshot_table(include_tombstones=True))
    assert not compact(root, CFG, min_files=1)["noop"]
    assert _sorted(eng.snapshot_table(include_tombstones=True)).equals(before)

    reshard(root, 6, CFG)
    assert eng.lake.current_manifest().n_parts == 6
    after = _sorted(eng.snapshot_table(include_tombstones=True))
    cols = [c for c in before.column_names if c != "part"]
    assert after.select(cols).equals(before.select(cols))
    assert _sorted(_collect(eng.read_snapshot())).equals(
        _sorted(eng.snapshot_table())
    )


def test_pruned_scan_blocks_carry_projected_schema(ray_session, tmp_path):
    """A url-range lookup over several files: every block, zero-row ones
    included, has exactly the projected columns (an empty-schema block made
    Ray warn about mixed RefBundle schemas)."""
    eng = _replay(str(tmp_path / "lake"), tmp_path)
    man = eng.lake.current_manifest()
    urls = sorted(eng.snapshot_table(columns=["url"]).column("url").to_pylist())
    lo, hi = urls[10], urls[20]
    ds = eng.read_snapshot(columns=["url", "lsn"], prune={"url": (lo, hi)})
    blocks = ray.get(ds.to_arrow_refs())
    want = pa.schema([man.schema.field("url"), man.schema.field("lsn")])
    assert blocks and sum(b.num_rows for b in blocks) == 11
    for b in blocks:
        assert b.schema.equals(want), b.schema
    # every file pruned away: still one typed empty block
    ds = eng.read_snapshot(columns=["url", "lsn"], prune={"url": ("~", None)})
    blocks = ray.get(ds.to_arrow_refs())
    assert [b.schema.equals(want) for b in blocks] == [True] * len(blocks)
    assert blocks and sum(b.num_rows for b in blocks) == 0


def test_lake_scan_plans_from_manifest_sizes(ray_session, tmp_path):
    """Planning touches no footer: the size estimate is the manifest's
    partition bytes, and the read tasks cover every planned file once."""
    from radiant_portal_pipeline_ray.state.lakescan import LakeScan, part_files

    eng = _replay(str(tmp_path / "lake"), tmp_path)
    man = eng.lake.current_manifest()
    files = [f for st in man.partitions.values() for f in st.files]
    paths = [(eng.lake.abspath(f), b) for f, b in part_files(man)]
    src = LakeScan(paths, man.schema, columns=["url"])
    total = sum(st.bytes for st in man.partitions.values())
    assert 0 < src.estimate_inmemory_data_size() <= total
    assert total - src.estimate_inmemory_data_size() < len(files)
    tasks = src.get_read_tasks(3)
    assert len(tasks) == 3
    planned = [p for t in tasks for p in t.metadata.input_files]
    assert sorted(planned) == sorted(
        os.path.abspath(eng.lake.abspath(f)) for f in files
    )
    assert all(t.schema == pa.schema([man.schema.field("url")]) for t in tasks)


def test_exchanges_run_their_input_once(ray_session, tmp_path):
    """A map_batches UDF in front of a keyed exchange runs once per input
    block: the exchange must not execute the plan for its schema and then
    again for its data."""
    from radiant_portal_pipeline_ray.stages.aggregates import partial_final_groupby
    from radiant_portal_pipeline_ray.stages.taskshuffle import exchange_join

    log = tmp_path / "calls"

    def tagged(tag):
        def udf(b: pa.Table) -> pa.Table:
            with open(log, "a") as f:
                f.write(tag + "\n")
            return b

        return udf

    def calls(tag):
        lines = log.read_text().split() if log.exists() else []
        return lines.count(tag)

    n_blocks = 4
    blocks = [
        pa.table({"k": np.arange(50) % 7, "v": np.arange(50) + 100 * i})
        for i in range(n_blocks)
    ]
    ds = rd.from_arrow(blocks).map_batches(
        tagged("g"), batch_format="pyarrow", batch_size=None
    )
    out = _collect(partial_final_groupby(ds, ["k"], [("v", "sum", "s")]))
    assert out.num_rows == 7
    assert calls("g") == n_blocks

    left = rd.from_arrow(blocks).map_batches(
        tagged("l"), batch_format="pyarrow", batch_size=None
    )
    right = rd.from_arrow(blocks[:2]).map_batches(
        tagged("r"), batch_format="pyarrow", batch_size=None
    )
    joined = exchange_join(
        left, right, ["k"], ["k"], lambda a, b: pa.table({"n": [a.num_rows]})
    )
    assert sum(_collect(joined).column("n").to_pylist()) == 50 * n_blocks
    assert (calls("l"), calls("r")) == (n_blocks, 2)


def test_change_feed_from_quarantine_only_first_commit(ray_session, tmp_path):
    """A first batch of only malformed events commits a manifest with no
    schema and no partitions; the change feed from that version must still
    equal the driver-side diff."""
    from radiant_portal_pipeline_ray.schemas import CHANGELOG_SCHEMA

    bad = pa.table(
        {
            "lsn": pa.array([1, 2], pa.int64()),
            "op": pa.array(["Z", "I"], pa.string()),
            "url": pa.array(["https://bad.org/a", None], pa.string()),
            "warc_ts": pa.array([0, 0], pa.timestamp("us")),
            "html": pa.array([b"x", b"y"], pa.binary()),
            "text": pa.array([None, None], pa.string()),
            "lang": pa.array(["en", "en"], pa.string()),
        },
        schema=CHANGELOG_SCHEMA,
    )
    import pyarrow.parquet as pq

    pq.write_table(bad, str(tmp_path / "bad.parquet"))
    good = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=100, n_events=300, n_batches=1, seed=7),
    )
    eng = CdcEngine(str(tmp_path / "lake"), CFG)
    assert eng.apply([str(tmp_path / "bad.parquet")])["rows_quarantined"] == 2
    assert eng.lake.read_manifest(1).schema is None
    eng.apply(good)

    ch = _sorted(_collect(eng.read_changes(1, 2)))
    got = list(zip(*(ch.column(c).to_pylist() for c in ch.column_names)))
    want = _expected_changes(eng, 1, 2)
    assert want and got == want


def _hot_batch(path, n: int, lsn0: int) -> str:
    import pyarrow.parquet as pq

    t = pa.table(
        {
            "url": [f"https://hot.org/p/{i:05d}" for i in range(n)]
            + [f"https://cold{i}.org/" for i in range(8)],
            "warc_ts": pa.array(
                [1_700_000_000 + lsn0 + i for i in range(n + 8)], pa.timestamp("us")
            ),
            "html": pa.array([b"<p>x</p>"] * (n + 8), pa.binary()),
            "op": ["I"] * (n + 8),
            "lsn": pa.array([lsn0 + i for i in range(n + 8)], pa.int64()),
        }
    )
    pq.write_table(t, str(path))
    return str(path)


# The case ids keep the names of the two former exchange paths this recipe
# was first run on. The cases now differ in how the rounds are driven:
# ``sort`` applies all three rounds through one engine, ``actor`` reopens
# the engine from the lake before every round, so the deferred migration
# must be picked up from the committed manifest alone.
@pytest.mark.parametrize("reopen", [False, True], ids=["sort", "actor"])
def test_migration_reads_bypass_read_parquet(ray_session, tmp_path, monkeypatch, reopen):
    """A salting migration's carried partitions are read by the apply
    round's split tasks, never through ``ray.data.read_parquet``, and the
    migrated state equals the LWW oracle."""
    from tests.test_apply import assert_tables_equal, oracle_final_state

    # round 1 stays under the salt threshold, round 2 crosses it (the
    # decision is deferred), round 3 executes the migration
    paths = [
        _hot_batch(tmp_path / f"b{i}.parquet", n, 1000 * i)
        for i, n in enumerate((10, 40, 40))
    ]
    root = str(tmp_path / "lake")
    read_parquet = rd.read_parquet

    def changelog_only(files, *a, **kw):
        assert not any(str(f).startswith(root) for f in files), files
        return read_parquet(files, *a, **kw)

    monkeypatch.setattr(rd, "read_parquet", changelog_only)
    cfg = EngineConfig(n_parts=4, salt_threshold_rows=20, salt_target_rows=10)
    eng = CdcEngine(root, cfg)
    for p in paths[:2]:
        eng = CdcEngine(root, cfg) if reopen else eng
        eng.apply([p])
    assert "hot.org" in eng.lake.current_manifest().pending_migrations
    eng = CdcEngine(root, cfg) if reopen else eng
    rep = eng.apply([paths[2]])
    assert rep["migrated_domains"] == ["hot.org"]
    assert not eng.lake.current_manifest().pending_migrations
    cols = ["url", "warc_ts", "html", "lsn"]
    got = _sorted(eng.snapshot_table()).select(cols)
    assert_tables_equal(got, oracle_final_state(paths, cols=cols))


@pytest.mark.parametrize("kind", ["local", "fsspec", "s3"])
def test_read_quarantine_bypasses_read_parquet(ray_session, tmp_path, request, monkeypatch, kind):
    """The dead-letter queue reads through the lake's filesystem with the
    same planner as snapshot reads, over every quarantine file of the
    version, and answers what a driver-side read of those files gives."""
    import pyarrow.parquet as pq

    from tests.test_quarantine import _mixed_rows, _write

    root = _lake_root(kind, tmp_path, request) + "_dlq"  # the s3 bucket is shared
    good, bad = _mixed_rows()
    eng = CdcEngine(root, EngineConfig(n_parts=4))
    eng.apply([_write(tmp_path / "a.parquet", good + bad)])
    more = [dict(r, lsn=None if r["lsn"] is None else r["lsn"] + 500) for r in bad]
    eng.apply([_write(tmp_path / "b.parquet", more)])
    man = eng.lake.current_manifest()
    assert len(man.quarantine_files) == 2
    _no_read_parquet(monkeypatch)

    got = _collect(eng.read_quarantine())
    fs = eng.lake.pyarrow_fs()
    want = pa.concat_tables(
        [
            pq.read_table(eng.lake.abspath(f), filesystem=fs).replace_schema_metadata()
            for f in man.quarantine_files
        ]
    )
    assert got.num_rows > len(bad)
    assert got.schema.metadata is None
    assert _sorted(got, "lsn").equals(_sorted(want, "lsn"))
    assert _collect(eng.read_quarantine(version=1)).num_rows == len(bad)


def test_small_lake_reads_start_no_execution(ray_session, tmp_path, monkeypatch):
    """Under ``taskshuffle._DRIVER_LOCAL_BYTES`` a snapshot read (pruned or
    not, current or time travel) and the change feed read in-process: with
    their consumer's ``to_arrow_refs`` they start no Ray Data execution."""
    from tests.test_driver_finish import count_executions

    eng = _replay(str(tmp_path / "lake"), tmp_path)
    urls = sorted(eng.snapshot_table(columns=["url"]).column("url").to_pylist())
    lo, hi = urls[10], urls[40]
    calls = count_executions(monkeypatch)
    full = _collect(eng.read_snapshot())
    pruned = _collect(eng.read_snapshot(columns=["url", "lsn"], prune={"url": (lo, hi)}))
    old = _collect(eng.read_snapshot(version=2))
    changes = _collect(eng.read_changes(2, 3))
    assert calls == []
    assert _sorted(full).equals(_sorted(eng.snapshot_table()))
    assert pruned.num_rows == 31
    assert _sorted(old).equals(_sorted(eng.snapshot_table(version=2)))
    assert changes.num_rows == len(_expected_changes(eng, 2, 3)) > 0


def _evolved_files(tmp_path) -> tuple[list, pa.Schema, pa.Table]:
    """Two local files, the first written before column ``x`` was added:
    (``(path, bytes)`` pairs, the later schema, every row as read)."""
    import pyarrow.parquet as pq

    old = pa.table({"k": pa.array(np.arange(300), pa.int64()), "s": [f"s{i % 5}" for i in range(300)]})
    new = pa.table(
        {
            "k": pa.array(np.arange(300, 500), pa.int64()),
            "s": [f"s{i % 5}" for i in range(200)],
            "x": pa.array(np.linspace(0, 1, 200)),
        }
    )
    paths = [str(tmp_path / "old.parquet"), str(tmp_path / "new.parquet")]
    pq.write_table(old, paths[0], row_group_size=100)
    pq.write_table(new, paths[1], row_group_size=100)
    files = [(p, os.path.getsize(p)) for p in paths]
    old_x = old.append_column("x", pa.nulls(300, pa.float64()))
    return files, new.schema, pa.concat_tables([old_x, new])


def _both_read_paths(monkeypatch, read) -> tuple[list, list]:
    """``read()``'s blocks on the driver path (one table), then on the task
    path."""
    from radiant_portal_pipeline_ray.stages import taskshuffle

    driver = read()
    assert isinstance(driver, pa.Table)
    with monkeypatch.context() as m:
        m.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
        tasks = ray.get(read().to_arrow_refs())
    return [driver], tasks


@pytest.mark.parametrize(
    "columns, keep",
    [
        (None, None),
        (["x", "k"], (pc.field("k") >= 250) & (pc.field("s") != "s2")),
        (["s", "x"], pc.field("k") < 0),
    ],
    ids=["all-columns", "projected-filtered", "filter-removes-every-row"],
)
def test_read_driver_path_matches_task_path(ray_session, tmp_path, monkeypatch, columns, keep):
    """``lakescan.read`` returns the same rows and block schema in-process
    as through its read tasks: projection, filter push-down, a file from
    before a column was added (read as nulls) and the zero-row rule."""
    from radiant_portal_pipeline_ray.state import lakescan

    files, schema, rows = _evolved_files(tmp_path)
    driver, tasks = _both_read_paths(
        monkeypatch, lambda: lakescan.read(files, schema, columns=columns, filter=keep)
    )
    assert len(tasks) > 1
    want = rows if keep is None else rows.filter(keep)
    want = want if columns is None else want.select(columns)
    for blocks in (driver, tasks):
        assert all(b.schema.equals(want.schema) for b in blocks)
    got_driver = pa.concat_tables(driver)
    got_tasks = pa.concat_tables(tasks)
    if want.num_rows:
        assert got_driver.column("x").null_count == want.column("x").null_count > 0
        got_driver, got_tasks, want = (
            t.sort_by("k") if "k" in t.column_names else t.sort_by("x")
            for t in (got_driver, got_tasks, want)
        )
    assert got_driver.equals(want)
    assert got_tasks.equals(want)


def test_task_path_read_splits_no_file_below_the_cpu_count(ray_session, tmp_path, monkeypatch):
    """On the task path each file is one read task and one block: with at
    least as many files as cluster CPUs (4 here), Ray does not split a
    task's output (``SplitBlocks``) toward its own parallelism target; with
    fewer, it splits them only up to one block per CPU."""
    import pyarrow.parquet as pq

    from radiant_portal_pipeline_ray.stages import taskshuffle
    from radiant_portal_pipeline_ray.state import lakescan

    rows = pa.table({"k": pa.array(np.arange(1000), pa.int64())})
    files = []
    for i in range(5):
        p = str(tmp_path / f"f{i}.parquet")
        pq.write_table(rows.slice(200 * i, 200), p, row_group_size=100)
        files.append((p, os.path.getsize(p)))
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    blocks = ray.get(lakescan.read(files, rows.schema).to_arrow_refs())
    assert [b.num_rows for b in blocks] == [200] * 5
    assert pa.concat_tables(blocks).sort_by("k").equals(rows)
    two = ray.get(lakescan.read(files[:2], rows.schema).to_arrow_refs())
    assert len(two) == ray.cluster_resources()["CPU"] == 4
    assert pa.concat_tables(two).sort_by("k").equals(rows.slice(0, 400))


def test_s3_read_driver_path_matches_task_path(ray_session, tmp_path, request, monkeypatch):
    """A moto-S3 lake read through ``lake.pyarrow_fs()`` returns the same
    rows on the driver path as through read tasks."""
    from radiant_portal_pipeline_ray.state import lakescan

    eng = _replay(_lake_root("s3", tmp_path, request) + "_paths", tmp_path)
    man = eng.lake.current_manifest()
    files = [(eng.lake.abspath(f), b) for f, b in lakescan.part_files(man)]
    cols = ["url", "lsn", "deleted"]
    driver, tasks = _both_read_paths(
        monkeypatch,
        lambda: lakescan.read(files, man.schema, eng.lake.pyarrow_fs(), cols, ~pc.field("deleted")),
    )
    assert len(tasks) > 1
    want = _sorted(eng.snapshot_table(columns=cols))
    assert want.num_rows > 0
    assert _sorted(pa.concat_tables(driver)).equals(want)
    assert _sorted(pa.concat_tables(tasks)).equals(want)
