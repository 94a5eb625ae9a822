"""Distributed join paths: composite-key/left/semi/anti hash-partitioned
joins, and the broadcast→partitioned fallback in the anti/semi queries."""

import duckdb
import pyarrow as pa
import pytest
import ray.data as rd

from radiant_portal_pipeline_ray.pipelines import relational
from radiant_portal_pipeline_ray.stages.joins import hash_partitioned_join

SF = "/root/testdata/sf0.001"


def _sorted_pylist(obj, cols):
    t = obj if isinstance(obj, pa.Table) else pa.Table.from_pandas(obj.to_pandas())
    return sorted(
        (tuple(r[c] for c in cols) for r in t.to_pylist()),
    )


@pytest.fixture()
def two_sides(ray_session):
    left = rd.from_arrow(
        pa.table(
            {
                "k1": [1, 1, 2, 2, 3, 4],
                "k2": ["a", "b", "a", "b", "a", "z"],
                "lv": [10, 11, 20, 21, 30, 40],
            }
        )
    )
    right = rd.from_arrow(
        pa.table(
            {
                "r1": [1, 2, 2, 5],
                "r2": ["a", "a", "b", "a"],
                "rv": [100, 200, 201, 500],
            }
        )
    )
    return left, right


def test_composite_left_outer_join(two_sides):
    left, right = two_sides
    out = hash_partitioned_join(left, right, ["k1", "k2"], ["r1", "r2"], how="left")
    rows = _sorted_pylist(out, ["k1", "k2", "lv", "rv"])
    assert rows == [
        (1, "a", 10, 100),
        (1, "b", 11, None),
        (2, "a", 20, 200),
        (2, "b", 21, 201),
        (3, "a", 30, None),
        (4, "z", 40, None),
    ]


def test_composite_semi_and_anti(two_sides):
    left, right = two_sides
    semi = hash_partitioned_join(left, right, ["k1", "k2"], ["r1", "r2"], how="semi")
    assert _sorted_pylist(semi, ["k1", "k2"]) == [(1, "a"), (2, "a"), (2, "b")]
    anti = hash_partitioned_join(left, right, ["k1", "k2"], ["r1", "r2"], how="anti")
    assert _sorted_pylist(anti, ["k1", "k2"]) == [(1, "b"), (3, "a"), (4, "z")]


def _oracle(sql):
    con = duckdb.connect()
    for t in ["customer", "orders", "part", "lineitem"]:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')"
        )
    return con.sql(sql).arrow()


def test_anti_query_partitioned_path_matches_broadcast(ray_session):
    """The hash-partitioned left anti join gives the oracle's result."""
    want = _oracle(relational.QUERIES["q_customers_without_orders"][1])
    got = relational.q_customers_without_orders(SF)
    assert _sorted_pylist(got, ["c_custkey", "c_name"]) == _sorted_pylist(
        want, ["c_custkey", "c_name"]
    )


def test_semi_query_partitioned_path_matches_broadcast(ray_session):
    want = _oracle(relational.QUERIES["q_parts_shipped_recently"][1])
    got = relational.q_parts_shipped_recently(SF)
    assert _sorted_pylist(got, ["p_partkey", "p_name"]) == _sorted_pylist(
        want, ["p_partkey", "p_name"]
    )
