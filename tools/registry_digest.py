"""Digest every registry entry's result, for byte-identity checks.

Prints one line per ``__ray_entry__`` entry, sorted by name:

    <name> <rows> <sha256 of the result as Arrow IPC, in the order returned>

Chunk layout does not count (the result is one combined table before it is
written), row order and schema do. Ray Data runs with ``preserve_order``,
so an entry that does not sort its output still returns a repeatable order.
An entry that raises prints ``<name> ERR <exception type>``.

A byte-identity claim between two checkouts is one ``diff`` of this tool's
output, run from each checkout on the same input:

    python3 tools/registry_digest.py <sf_dir> > after.txt

Usage:  python3 tools/registry_digest.py <sf_dir> [--cpus N] [name ...]
"""

import argparse
import hashlib
import os
import sys

import pyarrow as pa

#: the checkout this tool lives in — its registry is the one digested
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def digest(t: pa.Table) -> str:
    t = t.combine_chunks()
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.sha256(sink.getvalue().to_pybytes()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sf_dir")
    ap.add_argument("names", nargs="*", help="only these entries")
    ap.add_argument("--cpus", type=int, default=2, help="Ray CPUs (default 2)")
    args = ap.parse_args()
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
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.preserve_order = True
    import __ray_entry__ as e

    reg = e._registry()
    errors = 0
    for name in sorted(reg):
        if args.names and name not in args.names:
            continue
        try:
            t = _table(reg[name][0](args.sf_dir))
        except Exception as ex:  # noqa: BLE001
            print(f"{name} ERR {type(ex).__name__}", flush=True)
            errors += 1
            continue
        print(f"{name} {t.num_rows} {digest(t)}", flush=True)
    ray.shutdown()
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
