"""Digest every registry entry's result, for byte-identity checks.

Prints one line per ``__ray_entry__`` entry, sorted by name:

    <name> <rows> <sha256 of the result's schema and values, in the order returned>

Each column is rebuilt from its values before it is hashed, so two results
that ``Table.equals`` calls equal get one digest whatever their buffer
layout: chunking, a slice over a longer buffer, a validity bitmap with no
nulls in it, or what a null slot holds. Row order and schema count. Ray
Data runs with ``preserve_order``, so an entry that does not sort its
output still returns a repeatable order. An entry that raises prints
``<name> ERR <exception type>``.

``--task-path`` sets ``taskshuffle._DRIVER_LOCAL_BYTES`` to -1: every read
runs as Ray read tasks and every exchange is bucketed, the path the engine
takes above the driver-local size. Without it, small inputs are read and
exchanged in the driver process.

``--oracle`` checks each entry that has DuckDB SQL against it instead of
digesting it, the way a correctness gate that hashes values after sorting
columns by name sees it: rows, column names, per-column pandas dtype,
values, and a dtype-sensitive row hash (an int64 result against a HUGEINT
oracle fails it even when every cell is equal). It prints ``green <name>``
or ``RED <name>: <problems>`` per entry, then ``<k> red / <m> with oracle``.
With ``--json PATH`` it also writes a correctness record: one object per
entry, keyed by name, with ``rows_match``, ``schema_match`` (column names
and dtypes), ``hash_match`` (values and the dtype-sensitive hash: no
problem at all), ``spark_rows`` (the entry's rows), ``oracle_rows`` and
``err`` (the exception, else null). An entry without SQL is rows-only: it
runs, and its three matches and ``oracle_rows`` are null.

A byte-identity claim between two checkouts is one ``diff`` of this tool's
output, run on the same input with one copy of the tool placed in each
checkout's ``tools/`` (it digests the registry of the checkout it sits in):

    python3 tools/registry_digest.py <sf_dir> > after.txt

Usage:  python3 tools/registry_digest.py <sf_dir> [--cpus N] [--task-path]
        [--oracle [--json PATH]] [name ...]
"""

import argparse
import hashlib
import json
import os
import sys

import pyarrow as pa

#: the checkout this tool lives in — its registry is the one digested
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TABLES = (
    "region nation customer supplier part orders lineitem events documents "
    "embeddings"
).split()


def _table(obj) -> pa.Table:
    import ray
    from ray.data import Dataset

    if isinstance(obj, pa.Table):
        return obj
    if isinstance(obj, Dataset):
        tabs = ray.get(obj.to_arrow_refs())
        if not tabs:
            sch = obj.schema()
            return (sch.base_schema if sch is not None else pa.schema([])).empty_table()
        return pa.concat_tables(tabs, promote_options="permissive")
    return pa.Table.from_pandas(obj, preserve_index=False)


def _rebuilt(arr: pa.Array) -> pa.Array:
    """``arr``'s values in freshly built buffers: one layout per value list."""
    if isinstance(arr.type, pa.ExtensionType):
        return pa.ExtensionArray.from_storage(arr.type, _rebuilt(arr.storage))
    return pa.array(arr.to_pylist(), type=arr.type)


def digest(t: pa.Table) -> str:
    schema = pa.schema([pa.field(f.name, f.type, f.nullable) for f in t.schema])
    t = pa.Table.from_arrays(
        [_rebuilt(c.combine_chunks()) for c in t.columns], schema=schema
    )
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def _to_pandas(obj):
    import pandas as pd

    return obj if isinstance(obj, pd.DataFrame) else obj.to_pandas()


def _canon(df):
    import numpy as np

    df = df[sorted(df.columns)]
    sortable = [
        c
        for c in df.columns
        if not df[c]
        .map(lambda v: isinstance(v, (list, tuple, np.ndarray, dict)))
        .any()
    ]
    return df.sort_values(by=sortable or list(df.columns)).reset_index(drop=True)


def _hash(df):
    import pandas as pd

    # dtype-sensitive: object-dtype int columns hash differently from int64
    try:
        return pd.util.hash_pandas_object(df, index=False).sum()
    except TypeError:
        return None  # unhashable cells (lists): the dtype check still applies


def _oracle_problems(got, want) -> list[str]:
    import pandas as pd

    if list(got.columns) != list(want.columns):
        return [f"columns {list(got.columns)} vs {list(want.columns)}"]
    if len(got) != len(want):
        return [f"rows {len(got)} vs {len(want)}"]
    problems = [
        f"dtype[{c}] engine={got[c].dtype} oracle={want[c].dtype}"
        for c in got.columns
        if got[c].dtype != want[c].dtype
    ]
    try:
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    except AssertionError as ex:
        problems.append(f"values: {str(ex).splitlines()[0]}")
    hg, hw = _hash(got), _hash(want)
    if hg is not None and hw is not None and hg != hw and not problems:
        problems.append("hash mismatch with equal dtypes and values")
    return problems


def _check(fn, sql, con, sf_dir: str) -> tuple[dict, list[str]]:
    """One entry's correctness record (see the module docstring) and its
    problems against the oracle."""
    rec = dict.fromkeys(
        ("rows_match", "schema_match", "hash_match", "spark_rows", "oracle_rows", "err")
    )
    problems: list[str] = []
    try:
        got = _canon(_to_pandas(fn(sf_dir)))
        rec["spark_rows"] = len(got)
        if sql is None:
            return rec, problems
        want = _canon(con.sql(sql).df())
        rec["oracle_rows"] = len(want)
        problems = _oracle_problems(got, want)
        rec["rows_match"] = len(got) == len(want)
        rec["schema_match"] = list(got.columns) == list(want.columns) and all(
            got[c].dtype == want[c].dtype for c in got.columns
        )
        rec["hash_match"] = not problems
    except Exception as ex:  # noqa: BLE001
        problems = [f"{type(ex).__name__}: {ex}"]
        rec["err"] = problems[0]
    return rec, problems


def _run_oracle(reg: dict, sf_dir: str, names: list[str], json_path: str | None) -> int:
    import duckdb

    con = duckdb.connect()
    for t in TABLES:
        con.sql(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )
    records: dict[str, dict] = {}
    checked = red = 0
    for name in sorted(reg):
        fn, sql = reg[name]
        if (names and name not in names) or (sql is None and json_path is None):
            continue
        records[name], problems = _check(fn, sql, con, sf_dir)
        checked += sql is not None
        red += bool(problems)
        if sql is not None or problems:  # a rows-only entry shows when it raises
            print(f"RED {name}: " + "; ".join(problems) if problems else f"green {name}", flush=True)
    print(f"{red} red / {checked} with oracle", flush=True)
    if json_path is not None:
        with open(json_path, "w") as f:
            json.dump(records, f, indent=2)
            f.write("\n")
    return red


def _run_digest(reg: dict, sf_dir: str, names: list[str]) -> int:
    errors = 0
    for name in sorted(reg):
        if names and name not in names:
            continue
        try:
            t = _table(reg[name][0](sf_dir))
        except Exception as ex:  # noqa: BLE001
            print(f"{name} ERR {type(ex).__name__}", flush=True)
            errors += 1
            continue
        print(f"{name} {t.num_rows} {digest(t)}", flush=True)
    return errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sf_dir")
    ap.add_argument("names", nargs="*", help="only these entries")
    ap.add_argument("--cpus", type=int, default=2, help="Ray CPUs (default 2)")
    ap.add_argument(
        "--task-path", action="store_true",
        help="run every read as read tasks and every exchange bucketed",
    )
    ap.add_argument(
        "--oracle", action="store_true",
        help="check entries against their DuckDB SQL instead of digesting",
    )
    ap.add_argument(
        "--json", metavar="PATH",
        help="with --oracle: also write the correctness record of every entry",
    )
    args = ap.parse_args()
    if args.json and not args.oracle:
        ap.error("--json needs --oracle")
    # the driver and the Ray workers it starts import this checkout's package
    sys.path.insert(0, REPO_ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO_ROOT, os.environ.get("PYTHONPATH")) if p
    )
    import ray

    ray.init(
        address="local", num_cpus=args.cpus, include_dashboard=False,
        logging_level="ERROR",
    )
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.preserve_order = True
        if args.task_path:
            from radiant_portal_pipeline_ray.stages import taskshuffle

            taskshuffle._DRIVER_LOCAL_BYTES = -1
        import __ray_entry__ as e

        reg = e._registry()
        if args.oracle:
            return 1 if _run_oracle(reg, args.sf_dir, args.names, args.json) else 0
        return 1 if _run_digest(reg, args.sf_dir, args.names) else 0
    finally:
        ray.shutdown()


if __name__ == "__main__":
    raise SystemExit(main())
