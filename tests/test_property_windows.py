"""Property-based fuzz of the window-function operators (hypothesis):
RANDOM tiny events/orders tables — engineered for heavy ties on the
window ORDER BY keys (duplicate timestamps → RANGE-frame peers, duplicate
prices → gaps-rank runs, group sizes straddling k for NTILE) — written to
a scratch sf_dir and run through the REAL distributed pipelines
(read → keyed exchange → vectorized kernel → sort) against the SAME
DuckDB oracle SQL the driver uses. This fuzzes exactly the paths the
fixed sf0.001 fixtures cannot: degenerate groups (n=1), all-tied runs,
windows longer than a key's whole history. The deterministic tests below
cover what every ``aggregates.window`` query shares: buckets with no rows,
inputs with no rows, and the segment-bounded ``Groups.searchsorted``.
"""

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from radiant_portal_pipeline_ray.pipelines import relational
from radiant_portal_pipeline_ray.stages import taskshuffle
from radiant_portal_pipeline_ray.stages.aggregates import Groups

# (user, half-hour bucket, value index) — tiny domains force ties
events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=40,
)

# (customer, price index, 45-day date step) — 3 price points force rank
# runs; dates exactly 90 days apart sit on the overlap window's edge
orders_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=40,
)

_VALUES = [0.57, 12.25, 3.14]
_PRICES = [100.0, 2499.99, 100.0]  # two indices COLLIDE on price → ties
_BASE_US = 1_700_000_000_000_000
_DAY_US = 86_400_000_000


def _write_events(rows, d):
    n = len(rows)
    t = pa.table(
        {
            "event_id": pa.array(range(1, n + 1), pa.int64()),
            "ts": pa.array(
                [_BASE_US + b * 1_800_000_000 for _, b, _ in rows],
                pa.timestamp("us"),
            ),
            "user_id": pa.array([u for u, _, _ in rows], pa.int64()),
            "event_type": pa.array(
                ["view" if v == 0 else "click" for _, _, v in rows], pa.string()
            ),
            "value": pa.array([_VALUES[v] for _, _, v in rows], pa.float64()),
        }
    )
    pq.write_table(t, os.path.join(d, "events.parquet"))


def _write_orders(rows, d):
    n = len(rows)
    t = pa.table(
        {
            "o_orderkey": pa.array(range(1, n + 1), pa.int64()),
            "o_custkey": pa.array([c for c, _, _ in rows], pa.int64()),
            "o_totalprice": pa.array([_PRICES[p] for _, p, _ in rows], pa.float64()),
            "o_orderdate": pa.array(
                [_BASE_US + d * 45 * _DAY_US for _, _, d in rows],
                pa.timestamp("us"),
            ),
        }
    )
    pq.write_table(t, os.path.join(d, "orders.parquet"))


def _oracle(sf_dir):
    """A DuckDB connection with a view of every table written to ``sf_dir``."""
    con = duckdb.connect()
    for fname in sorted(os.listdir(sf_dir)):
        con.sql(
            f"CREATE VIEW {fname.removesuffix('.parquet')} AS SELECT * FROM "
            f"read_parquet('{os.path.join(sf_dir, fname)}')"
        )
    return con


def _check(name, sf_dir):
    fn, sql = relational.QUERIES[name]
    got = fn(sf_dir)
    got = got.to_pandas() if not isinstance(got, pd.DataFrame) else got
    con = _oracle(sf_dir)
    want = con.sql(sql).df()
    got = got[sorted(got.columns)].sort_values(by=sorted(got.columns)).reset_index(drop=True)
    want = want[sorted(want.columns)].sort_values(by=sorted(want.columns)).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize(
    "name",
    [
        "q_ntile_user_quartiles",
        "q_lead_next_event",
        "q_moving_sum3",
        "q_trailing_hour_sum",
        "q_running_total",
        "q_event_gaps",
        "q_user_sessions",
        "q_hourly_ohlc",
        "q_value_percentiles_cont",
    ],
)
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rows=events_strategy)
def test_event_windows_fuzz(ray_session, tmp_path_factory, name, rows):
    d = str(tmp_path_factory.mktemp("fuzz_ev"))
    _write_events(rows, d)
    _check(name, d)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rows=orders_strategy)
def test_percent_rank_fuzz(ray_session, tmp_path_factory, rows):
    d = str(tmp_path_factory.mktemp("fuzz_ord"))
    _write_orders(rows, d)
    _check("q_price_percent_ranks", d)


@pytest.mark.parametrize("name", ["q_order_price_ranks", "q_order_overlap_windows"])
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rows=orders_strategy)
def test_order_windows_fuzz(ray_session, tmp_path_factory, name, rows):
    d = str(tmp_path_factory.mktemp("fuzz_ord"))
    _write_orders(rows, d)
    _check(name, d)


#: every query built on ``aggregates.window``
WINDOW_QUERIES = [
    "q_order_overlap_windows", "q_user_sessions", "q_running_total",
    "q_event_gaps", "q_value_percentiles_cont", "q_nation_customer_list",
    "q_hourly_ohlc", "q_order_price_ranks", "q_ntile_user_quartiles",
    "q_lead_next_event", "q_price_percent_ranks", "q_moving_sum3",
    "q_trailing_hour_sum",
]


def _write_nation_customers(d, n_rows):
    """One nation; ``n_rows`` customers, all above the 9000 balance cut."""
    pq.write_table(
        pa.table(
            {
                "n_nationkey": pa.array([7], pa.int32()),
                "n_name": pa.array(["PERU"], pa.string()),
                "n_regionkey": pa.array([1], pa.int32()),
            }
        ),
        os.path.join(d, "nation.parquet"),
    )
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array(range(n_rows), pa.int64()),
                "c_name": pa.array([f"Customer#{i % 3}" for i in range(n_rows)], pa.string()),
                "c_nationkey": pa.array([7] * n_rows, pa.int32()),
                "c_acctbal": pa.array([9000.5 + i for i in range(n_rows)], pa.float64()),
            }
        ),
        os.path.join(d, "customer.parquet"),
    )


@pytest.mark.parametrize("name", WINDOW_QUERIES)
def test_single_key_on_task_path(ray_session, tmp_path, monkeypatch, name):
    """One key (one user, event type, customer and nation) on the task
    path: the exchange's other buckets are empty, and an empty bucket must
    yield the typed empty table without running the query's kernel."""
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", 0)
    rows = [(3, b % 4, v) for b, v in zip(range(12), [0, 1, 2] * 4)]
    _write_events(rows, str(tmp_path))
    t = pq.read_table(tmp_path / "events.parquet")
    t = t.set_column(3, "event_type", pa.array(["view"] * t.num_rows))
    pq.write_table(t, tmp_path / "events.parquet")
    _write_orders([(2, p, d) for p, d in zip([0, 1, 2] * 3, range(9))], str(tmp_path))
    _write_nation_customers(str(tmp_path), 5)
    _check(name, str(tmp_path))
    assert taskshuffle.last_split_plan["n_buckets"] > 1


@pytest.mark.parametrize("name", WINDOW_QUERIES)
def test_zero_row_input_keeps_oracle_columns(ray_session, tmp_path, name):
    """Zero-row tables: the result is empty and carries the oracle's
    column names and types, like DuckDB's."""
    _write_events([], str(tmp_path))
    _write_orders([], str(tmp_path))
    _write_nation_customers(str(tmp_path), 0)
    fn, sql = relational.QUERIES[name]
    got = fn(str(tmp_path))
    con = _oracle(str(tmp_path))
    want = con.sql(sql).arrow()
    assert taskshuffle.num_rows(got) == 0
    schema = taskshuffle.schema_of(got)
    assert schema is not None
    assert schema.names == want.schema.names
    assert list(schema.types) == list(want.schema.types)


def _segment_searchsorted(starts, a, v, side):
    bounds = list(starts) + [len(a)]
    out = np.empty(len(a), dtype=np.int64)
    for s, e in zip(bounds[:-1], bounds[1:]):
        out[s:e] = s + np.searchsorted(a[s:e], v[s:e], side=side)
    return out


@pytest.mark.parametrize("spread", [1_000, 1 << 60, 1 << 62])
@pytest.mark.parametrize("side", ["left", "right"])
def test_groups_searchsorted_matches_per_segment(spread, side):
    """``Groups.searchsorted`` equals np.searchsorted run on each group's
    slice. A 2^60 spread packs three groups per search (the chunked
    axis); a 2^62 spread searches one group at a time."""
    rng = np.random.default_rng(spread % 9973)
    lens = rng.integers(1, 12, size=14)
    first = np.zeros(int(lens.sum()), dtype=bool)
    first[np.cumsum(lens) - lens] = True
    half = spread // 2
    a = rng.integers(-half, half, size=len(first))
    # targets: the group's own values (ties) and values just off them
    v = np.where(rng.random(len(a)) < 0.5, a, a + rng.integers(-3, 4, size=len(a)))
    g = Groups(first)
    a = np.concatenate([np.sort(a[s:s + n]) for s, n in zip(g.starts, g.lens)])
    # the axis' extremes meet at a group edge: group 0 ends on the largest
    # value and target, group 1 starts on the smallest
    lo, hi = min(a.min(), v.min()), max(a.max(), v.max())
    e0, s1 = g.ends[0], g.starts[1]
    a[e0], v[e0], a[s1], v[s1] = hi, hi, lo, lo
    want = _segment_searchsorted(g.starts, a, v, side)
    np.testing.assert_array_equal(g.searchsorted(a, v, side), want)
