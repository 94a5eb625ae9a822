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
