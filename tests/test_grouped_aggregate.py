"""COUNT(*) in ``partial_final_groupby``'s spec: ``([], "count_all", out)``
counts every row of a group, null values and a null key's group included,
as SQL's ``COUNT(*) ... GROUP BY`` does, on the driver path and on the task
path; ``(col, "count", out)`` still counts only the non-null ``col``."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from radiant_portal_pipeline_ray.stages import taskshuffle
from radiant_portal_pipeline_ray.stages.aggregates import partial_final_groupby
from radiant_portal_pipeline_ray.stages.taskshuffle import collect, local_dataset


def _rows() -> pa.Table:
    rng = np.random.default_rng(7)
    n = 3000
    k = rng.integers(0, 6, n)
    j = rng.integers(0, 4, n)
    v = rng.integers(-50, 50, n)
    return pa.table(
        {
            "k": pa.array([f"k{x}" for x in k], mask=k == 0),
            "j": pa.array(j, pa.int64(), mask=j == 3),
            "v": pa.array(v, pa.int64(), mask=rng.random(n) < 0.3),
        }
    )


@pytest.mark.parametrize("path", ["driver", "tasks"])
def test_count_all_matches_sql_count_star(ray_session, monkeypatch, path):
    t = _rows()
    ds = t
    if path == "tasks":
        monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
        monkeypatch.setattr(taskshuffle, "_TARGET_BUCKET_BYTES", 1 << 10)
        ds = local_dataset(*(t.slice(i, 500) for i in range(0, t.num_rows, 500)))
    got = collect(
        partial_final_groupby(
            ds,
            ["k", "j"],
            [([], "count_all", "n"), ("v", "count", "n_v"), ("v", "sum", "s")],
            batch_size=700,
        )
    )
    got = taskshuffle.sort_table(got, ["k", "j"])
    assert got.column_names == ["k", "j", "n", "n_v", "s"]
    assert got.schema.field("n").type == pa.int64()
    assert got.schema.field("n_v").type == pa.int64()

    con = duckdb.connect()
    con.register("t", t)
    want = con.sql(
        "SELECT k, j, COUNT(*) AS n, COUNT(v) AS n_v, CAST(SUM(v) AS BIGINT) AS s "
        "FROM t GROUP BY k, j ORDER BY k NULLS LAST, j NULLS LAST"
    ).arrow()
    assert got.to_pylist() == want.to_pylist()
    # the null key's groups are counted, and null values count in n only
    assert any(r["k"] is None for r in got.to_pylist())
    assert sum(got.column("n").to_pylist()) == t.num_rows
    assert sum(got.column("n_v").to_pylist()) == t.num_rows - t.column("v").null_count
