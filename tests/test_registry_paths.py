"""Every registry entry returns the same table on both size paths.

Below ``taskshuffle._DRIVER_LOCAL_BYTES`` reads and exchanges run on the
driver, so at the test data's sizes almost nothing else reaches the task
path that runs at scale. Each ``__ray_entry__`` entry runs as is and with
the threshold at -1 (every read as read tasks, every exchange bucketed),
and the two results must be ``Table.equals``: in the returned order where
the entry's SQL ends in ``ORDER BY``, sorted on every column otherwise."""

import re

import pyarrow as pa
import pytest
from ray.data import DataContext

import __ray_entry__
from radiant_portal_pipeline_ray.stages import taskshuffle
from tests.test_queries import SF_DIR
from tools.registry_digest import _table

REGISTRY = __ray_entry__._registry()


def _sorts(sql: str | None) -> bool:
    """Whether ``sql`` has an ``ORDER BY`` outside every parenthesis (the
    final order, not a window's or a CTE's)."""
    if sql is None:
        return False
    flat = None
    while flat != sql:
        flat, sql = sql, re.sub(r"\([^()]*\)", "", sql)
    return re.search(r"\border\s+by\b", flat, re.IGNORECASE) is not None


def _all_columns_sorted(t: pa.Table) -> pa.Table:
    """Rows in the order of their ``repr``: one canonical order for every
    column type, lists and structs included, which Arrow cannot sort."""
    rows = [repr(tuple(r.values())) for r in t.to_pylist()]
    return t.take(pa.array(sorted(range(len(rows)), key=rows.__getitem__), pa.int64()))


def test_sorts_reads_only_the_final_order_by():
    assert _sorts("SELECT a FROM t ORDER BY a")
    assert not _sorts("SELECT row_number() OVER (PARTITION BY a ORDER BY b) FROM t")
    assert not _sorts("WITH s AS (SELECT a FROM t ORDER BY a) SELECT a FROM s")
    assert not _sorts(None)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_entry_equal_on_both_paths(ray_session, monkeypatch, name):
    fn, sql = REGISTRY[name]
    monkeypatch.setattr(DataContext.get_current().execution_options, "preserve_order", True)
    driver = _table(fn(SF_DIR))
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    tasks = _table(fn(SF_DIR))
    if not _sorts(sql):
        driver, tasks = _all_columns_sorted(driver), _all_columns_sorted(tasks)
    assert driver.schema.equals(tasks.schema), (driver.schema, tasks.schema)
    assert driver.num_rows == tasks.num_rows
    assert driver.equals(tasks)
