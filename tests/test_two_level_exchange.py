"""Two-level task exchange (split → per-group subsplit → final buckets):
parity with the single-level exchange, driver-ref budget enforcement, and
the ADVICE r3 empty-input / schema-None guards."""

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from radiant_portal_pipeline_ray.stages import taskshuffle as ts


def _table(n=5000, seed=3):
    rng = np.random.default_rng(seed)
    return pa.table(
        {
            "k": pa.array(rng.integers(0, 500, n), type=pa.int64()),
            "v": pa.array(rng.integers(0, 1000, n), type=pa.int64()),
        }
    )


def _grouped_sum(ds):
    def fn(t: pa.Table) -> pa.Table:
        return t.group_by("k").aggregate([("v", "sum")])

    out = ts.exchange_group(ds, ["k"], fn)
    t = pa.concat_tables(ray.get(out.to_arrow_refs()))
    import pyarrow.compute as pc

    return t.take(pc.sort_indices(t, sort_keys=[("k", "ascending")]))


def test_exchange_group_two_level_parity(ray_session, monkeypatch):
    t = _table()
    ds = rd.from_arrow(t).repartition(8)
    monkeypatch.setattr(ts, "_DRIVER_LOCAL_BYTES", 0)
    single = _grouped_sum(ds)
    assert ts.last_split_plan["levels"] == 1
    monkeypatch.setattr(ts, "_REF_BUDGET", 1)
    double = _grouped_sum(ds)
    assert ts.last_split_plan["levels"] == 2
    assert ts.last_split_plan["n_groups"] >= 2
    plan = ts.last_split_plan
    assert (
        plan["driver_refs"]
        == plan["n_tasks"] * plan["n_groups"] + plan["n_buckets"]
    )
    assert single.equals(double)


def test_two_level_plan_ref_reduction():
    """At real scale (T=64 tasks, B=4096 byte-sized buckets, 1 TB exchanged)
    the two-level plan must land under budget and far below T×B refs."""
    t, b, nbytes = 64, 4096, 1 << 40
    n_groups, b_adj = ts.two_level_plan(t, b, nbytes)
    assert b_adj % n_groups == 0 and b_adj >= b
    two_level_refs = t * n_groups + b_adj
    assert two_level_refs < (t * b) // 2
    # one group's bytes stay within the level-2 worker heap bound
    assert nbytes / n_groups <= ts._MAX_GROUP_BYTES
    # under budget → no second level
    assert ts.two_level_plan(8, 16, 1 << 30) is None


def test_exchange_join_two_level_parity(ray_session, monkeypatch):
    from radiant_portal_pipeline_ray.stages.joins import hash_partitioned_join

    rng = np.random.default_rng(11)
    lt = pa.table(
        {
            "k": pa.array(rng.integers(0, 300, 4000), type=pa.int64()),
            "lv": pa.array(np.arange(4000), type=pa.int64()),
        }
    )
    rt = pa.table(
        {
            "k": pa.array(rng.integers(0, 300, 900), type=pa.int64()),
            "rv": pa.array(np.arange(900), type=pa.int64()),
        }
    )
    left = rd.from_arrow(lt).repartition(6)
    right = rd.from_arrow(rt).repartition(4)

    def run():
        out = hash_partitioned_join(left, right, left_on="k", how="inner")
        t = pa.concat_tables(ray.get(out.to_arrow_refs()))
        import pyarrow.compute as pc

        return t.take(
            pc.sort_indices(
                t,
                sort_keys=[
                    ("k", "ascending"),
                    ("lv", "ascending"),
                    ("rv", "ascending"),
                ],
            )
        )

    # both sides are below the driver-local bound: force the task path
    monkeypatch.setattr(ts, "_DRIVER_LOCAL_BYTES", 0)
    base = run()
    assert ts.last_split_plan["levels"] == 1
    monkeypatch.setattr(ts, "_REF_BUDGET", 1)
    forced = run()
    assert ts.last_split_plan["levels"] == 2
    assert base.equals(forced)


def test_cdc_apply_two_level_parity(ray_session, tmp_path, monkeypatch):
    """The replay fixture committed through the two-level CDC exchange must
    byte-match the single-level commit (VERDICT r3 'done' criterion)."""
    import pyarrow.compute as pc

    from radiant_portal_pipeline_ray.config import EngineConfig
    from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
    from radiant_portal_pipeline_ray.sources.generator import (
        ChangelogSpec,
        generate_changelog,
    )

    paths = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=900, n_events=4500, n_batches=3, seed=21),
    )

    def replay(lake):
        eng = CdcEngine(str(tmp_path / lake), EngineConfig(n_parts=16))
        for p in paths:
            eng.apply([p])
        t = eng.snapshot_table()
        return t.take(pc.sort_indices(t, sort_keys=[("url", "ascending")]))

    base = replay("single")
    calls = []
    orig = ts.fan_subsplit

    def spy(mat, keys, n_buckets, n_groups):
        calls.append((len(mat), n_buckets, n_groups))
        return orig(mat, keys, n_buckets, n_groups)

    monkeypatch.setattr(ts, "_REF_BUDGET", 1)
    monkeypatch.setattr(ts, "fan_subsplit", spy)
    forced = replay("double")
    assert calls, "two-level CDC exchange never activated under budget=1"
    for _n_tasks, n_buckets, n_groups in calls:
        assert n_buckets % n_groups == 0
    assert base.equals(forced)


def test_split_refs_empty_input(ray_session):
    cols = ts._split_refs([], ["k"], 8, 0)
    assert cols == [[] for _ in range(8)]
    # downstream kernel sees a typed empty table
    schema = pa.schema([("k", pa.int64()), ("v", pa.int64())])
    out = ray.get(ts.bucket_task.remote(lambda t: t, [schema], [0], *cols[0]))
    assert out.num_rows == 0 and out.schema == schema


def test_bucket_task_sides(ray_session):
    """One side or two, each possibly empty (no sub-table, or only None
    split outputs): every side reaches the kernel as one typed table, and
    the sub-tables are dealt out to the sides by ``counts``."""
    ls = pa.schema([("k", pa.int64()), ("lv", pa.int64())])
    rs = pa.schema([("k", pa.int64()), ("rv", pa.string())])
    lt = pa.table({"k": [1, 2], "lv": [10, 20]}, schema=ls)
    rt = pa.table({"k": [2, 3], "rv": ["b", "c"]}, schema=rs)

    def run(fn, schemas, counts, *tables):
        return ray.get(ts.bucket_task.remote(fn, schemas, counts, *tables))

    def shapes(*sides):
        return pa.table(
            {
                "side": list(range(len(sides))),
                "rows": [t.num_rows for t in sides],
                "schema": [str(t.schema) for t in sides],
            }
        )

    one = run(shapes, [ls], [2], lt.slice(0, 1), lt.slice(1))
    assert one.column("rows").to_pylist() == [2]
    empty_one = run(shapes, [ls], [1], None)
    assert empty_one.column("rows").to_pylist() == [0]
    assert empty_one.column("schema")[0].as_py() == str(ls)

    two = run(shapes, [ls, rs], [1, 2], lt, rt.slice(0, 1), rt.slice(1))
    assert two.column("rows").to_pylist() == [2, 2]
    empty_left = run(shapes, [ls, rs], [0, 1], rt)
    assert empty_left.column("rows").to_pylist() == [0, 2]
    assert empty_left.column("schema").to_pylist() == [str(ls), str(rs)]
    empty_right = run(shapes, [ls, rs], [1, 1], lt, None)
    assert empty_right.column("rows").to_pylist() == [2, 0]
    assert empty_right.column("schema").to_pylist() == [str(ls), str(rs)]
    joined = run(
        lambda a, b: a.join(b, keys="k", join_type="full outer").sort_by("k"),
        [ls, rs], [1, 1], lt, None,
    )
    assert joined.column("k").to_pylist() == [1, 2]
    assert joined.column("rv").null_count == 2


def test_exchange_join_schema_none_raises(ray_session):
    left = rd.from_arrow_refs([])  # zero blocks → no schema
    right = rd.from_arrow(_table(100))
    with pytest.raises(ValueError, match="zero blocks"):
        ts.exchange_join(left, right, ["k"], ["k"], lambda a, b: a)


def test_connected_components_chain_pointer_jumping(ray_session):
    """A 200-node path graph has diameter 200; pointer jumping must converge
    in O(log n) rounds (ADVICE r4: non-converged labels were silently wrong)."""
    from radiant_portal_pipeline_ray.pipelines.dedup import (
        connected_components_distributed,
    )

    n = 200
    pairs = rd.from_arrow(
        pa.table(
            {
                "doc_a": pa.array(np.arange(n - 1), type=pa.int64()),
                "doc_b": pa.array(np.arange(1, n), type=pa.int64()),
            }
        )
    )
    labels = connected_components_distributed(pairs, max_iters=12)
    t = ts.collect(labels)
    assert t.num_rows == n
    assert set(t.column("rep_doc_id").to_pylist()) == {0}

    with pytest.raises(RuntimeError, match="no fixpoint"):
        connected_components_distributed(pairs, max_iters=1)


def _sizes():
    """0 bytes to 1 TB: every power of two, one byte either side of it,
    and the multiples of the bucket target around the small counts."""
    t = ts._TARGET_BUCKET_BYTES
    out = {0, 1 << 40}
    for e in range(41):
        out.update({(1 << e) - 1, 1 << e, (1 << e) + 1})
    out.update(m * t + d for m in range(1, 20) for d in (-1, 0, 1))
    return sorted(s for s in out if 0 <= s <= 1 << 40)


def test_bucket_count_is_a_byte_sized_power_of_two():
    t = ts._TARGET_BUCKET_BYTES
    for size in _sizes():
        b = ts.bucket_count(size)
        assert b >= 4 and b & (b - 1) == 0, (size, b)
        assert size <= 2 * t * b, (size, b)  # one bucket: at most 2 targets
    assert ts.bucket_count(0) == 4
    assert ts.bucket_count(4 * t) == 4
    assert ts.bucket_count(16 * t) == 16
    assert ts.bucket_count(31 * t) == 16
    assert ts.bucket_count(1 << 40) == (1 << 40) // t


def test_two_level_plan_keeps_the_bucket_count():
    """``_split_refs`` ignores the count ``two_level_plan`` returns, which
    is safe only when that count is the one it was given: true for every
    ``bucket_count``, at any task count that forces two levels."""
    for size in _sizes():
        b = ts.bucket_count(size)
        for n_tasks in (1, 2, 8, 64, 1 << 10, 1 << 14):
            plan = ts.two_level_plan(n_tasks, b, size)
            if plan is not None:
                n_groups, b_adj = plan
                assert b_adj == b and b % n_groups == 0, (size, n_tasks, plan)
