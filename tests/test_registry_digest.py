"""``tools/registry_digest.digest`` hashes values, not buffer layouts: two
results that ``Table.equals`` calls equal must get one digest, or a
byte-identity diff between two checkouts (or two exchange paths) reports a
change where there is none."""

import numpy as np
import pyarrow as pa

from tools.registry_digest import digest


def test_head_slice_digests_like_rebuilt_array():
    # a slice at offset 0 keeps the longer parent buffers
    sliced = pa.table({"s": pa.array(["a", "bb", "ccc", "dddd"]).slice(0, 2),
                       "n": pa.array([1, 2, 3, 4]).slice(0, 2)})
    rebuilt = pa.table({"s": ["a", "bb"], "n": [1, 2]})
    assert sliced.equals(rebuilt)
    assert digest(sliced) == digest(rebuilt)


def test_null_slot_contents_do_not_count():
    validity = pa.py_buffer(np.packbits([1, 0, 1], bitorder="little").tobytes())
    stale = pa.Array.from_buffers(
        pa.int64(), 3, [validity, pa.py_buffer(np.array([1, 99, 3]).tobytes())]
    )
    a, b = pa.table({"x": stale}), pa.table({"x": pa.array([1, None, 3])})
    assert a.equals(b)
    assert digest(a) == digest(b)


def test_order_and_values_still_count():
    t = pa.table({"x": [1, 2]})
    assert digest(t) != digest(pa.table({"x": [2, 1]}))
    assert digest(t) != digest(pa.table({"y": [1, 2]}))
    assert digest(t) != digest(pa.table({"x": pa.array([1, 2], pa.int32())}))


def test_correctness_record_keys_and_matches():
    """``--json``'s record per entry: matches against the oracle, null
    matches for a rows-only entry, and the exception of one that raises."""
    import duckdb

    from tools.registry_digest import _check

    con = duckdb.connect()
    sql = "SELECT * FROM (VALUES (1::BIGINT), (2::BIGINT)) t(a)"
    rec, problems = _check(lambda sf: pa.table({"a": [2, 1]}), sql, con, "")
    assert problems == []
    assert rec == {"rows_match": True, "schema_match": True, "hash_match": True,
                   "spark_rows": 2, "oracle_rows": 2, "err": None}

    narrow = pa.table({"a": pa.array([1, 2], pa.int32())})
    rec, problems = _check(lambda sf: narrow, sql, con, "")
    assert rec["rows_match"] and not rec["schema_match"] and not rec["hash_match"]
    assert problems

    rec, _ = _check(lambda sf: pa.table({"a": [1, 2, 3]}), None, con, "")
    assert rec == {"rows_match": None, "schema_match": None, "hash_match": None,
                   "spark_rows": 3, "oracle_rows": None, "err": None}

    def boom(sf):
        raise KeyError("x")

    rec, problems = _check(boom, sql, con, "")
    assert rec["err"] == "KeyError: 'x'" and problems == [rec["err"]]
    assert rec["hash_match"] is None
