"""Force the generic keyed exchange down its DISTRIBUTED path at test scale.

At sf0.001 every exchange is under the driver-local byte threshold, so
without this file the bucket_split_task/bucket_task
branch would only ever run at bench scale. Shrinking the thresholds to zero
forces multi-task, multi-bucket execution; results must stay value-identical
to the DuckDB oracles."""

import duckdb
import pandas as pd
import pytest

from radiant_portal_pipeline_ray.stages import taskshuffle

SF_DIR = "/root/testdata/sf0.001"
TABLES = ("region nation customer orders lineitem events documents").split()

#: representative users of exchange_group / exchange_join
CASES = [
    "q_shipped_within_60d",       # exchange_join (large-large hash join)
    "q_latest_order_per_customer",  # topk_per_key
    "q_hourly_user_activity",     # partial_final_groupby
    "q_event_type_stats",         # count_distinct_groupby
    "q_user_sessions",            # sessionization bucket kernel
    "q_asof_latest_order",        # as-of merged scan
    "dd_exact",                   # grouped min/sum fold
    "q_top_tokens",               # per-bucket top-k prune
]


@pytest.fixture()
def force_distributed(monkeypatch):
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    # tiny bucket target → several buckets + several split tasks even on KBs
    monkeypatch.setattr(taskshuffle, "_TARGET_BUCKET_BYTES", 1 << 10)


def _oracle(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    return con.sql(sql).df()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns)).reset_index(drop=True)


@pytest.mark.parametrize("name", CASES)
def test_distributed_exchange_matches_oracle(ray_session, force_distributed, name):
    import __ray_entry__ as e

    fn, sql = e._registry()[name]
    got = fn(SF_DIR)
    got = got if isinstance(got, pd.DataFrame) else got.to_pandas()
    want = _oracle(sql)
    got, want = _canon(got), _canon(want[got.columns.tolist()] if set(want.columns) == set(got.columns) else want)
    assert list(got.columns) == list(want.columns)
    assert len(got) == len(want)
    pd.testing.assert_frame_equal(
        got.astype(want.dtypes.to_dict()), want, check_dtype=False
    )


def test_bucket_ids_hash_uint64_key_bits():
    """A uint64 key at or above 2**63 buckets like the int64 with the same
    bits (a checked cast to int64 raised ``ArrowInvalid``)."""
    import numpy as np
    import pyarrow as pa

    bits = np.array([0, 5, 2**63, 2**64 - 1], dtype=np.uint64)
    u = pa.table({"k": pa.array(bits, pa.uint64())})
    i = pa.table({"k": pa.array(bits.view(np.int64), pa.int64())})
    got = taskshuffle.bucket_ids(u, ["k"], 16)
    assert got.tolist() == taskshuffle.bucket_ids(i, ["k"], 16).tolist()
    assert ((got >= 0) & (got < 16)).all()
