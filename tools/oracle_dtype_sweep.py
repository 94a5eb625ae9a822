"""Sweep every registry entry for oracle dtype-canonicalization hazards.

The correctness driver hashes result VALUES dtype-sensitively after sorting
columns by name — so a Ray result of int64 vs a DuckDB oracle returning
HUGEINT (e.g. `SUM(<bigint expr>)`) hash-mismatches even when every cell is
equal. CORRECTNESS_r04.json had five such reds. This tool mirrors that
comparison strictly: for each entry with an oracle it reports

  - rows / columns / value equality (like tests/test_queries.py), AND
  - pandas dtype equality per column, AND
  - a dtype-sensitive row-hash equality (pd.util.hash_pandas_object)

so any oracle whose SQL produces a different physical type than the engine
shows up BEFORE the driver runs.

Usage:  python tools/oracle_dtype_sweep.py [sf_dir] [name ...]
"""

import os
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

#: the checkout this tool lives in — its registry is the one swept
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings"
).split()


def _to_pandas(obj) -> pd.DataFrame:
    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)]
    sortable = [
        c
        for c in df.columns
        if not df[c]
        .map(lambda v: isinstance(v, (list, tuple, np.ndarray, dict)))
        .any()
    ]
    df = df.sort_values(by=sortable or list(df.columns)).reset_index(drop=True)
    return df


def _hash(df: pd.DataFrame):
    # dtype-sensitive: object-dtype int columns hash differently from int64
    try:
        return pd.util.hash_pandas_object(df, index=False).sum()
    except TypeError:
        return None  # unhashable cells (lists) — dtype check still applies


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.001"
    only = set(sys.argv[2:])
    # the driver and the Ray workers it starts import this checkout's package
    sys.path.insert(0, REPO_ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO_ROOT, os.environ.get("PYTHONPATH")) if p
    )
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=8, include_dashboard=False,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as e

    reg = e._registry()
    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    bad = []
    for name in sorted(reg):
        if only and name not in only:
            continue
        fn, sql = reg[name]
        if sql is None:
            continue
        try:
            got = _canon(_to_pandas(fn(sf_dir)))
            want = _canon(con.sql(sql).df())
        except Exception as ex:  # noqa: BLE001
            print(f"ERR   {name}: {type(ex).__name__}: {ex}")
            bad.append(name)
            continue
        problems = []
        if list(got.columns) != list(want.columns):
            problems.append(f"columns {list(got.columns)} vs {list(want.columns)}")
        elif len(got) != len(want):
            problems.append(f"rows {len(got)} vs {len(want)}")
        else:
            for c in got.columns:
                if got[c].dtype != want[c].dtype:
                    problems.append(
                        f"dtype[{c}] engine={got[c].dtype} oracle={want[c].dtype}"
                    )
            try:
                pd.testing.assert_frame_equal(got, want, check_dtype=False)
            except AssertionError as ex:
                problems.append(f"values: {str(ex).splitlines()[0]}")
            hg, hw = _hash(got), _hash(want)
            if hg is not None and hw is not None and hg != hw and not problems:
                problems.append("hash mismatch with equal dtypes+values (?)")
        if problems:
            bad.append(name)
            print(f"RED   {name}: " + "; ".join(problems))
        else:
            print(f"green {name}")
    print(f"\n{len(bad)} red / {len([n for n in reg if reg[n][1]])} with oracle")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
