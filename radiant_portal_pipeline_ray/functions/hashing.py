"""Stable hashing, domain extraction and partition routing kernels.

Reference analogue: ``locus = chrom-pos-ref-alt`` + ``sha256(locus)``
(`radiant/tasks/vcf/snv/common.py:38-56`) and the hash-bucketed
``DISTRIBUTED BY HASH(locus_id)`` serving layout
(`radiant/dags/sql/radiant/init/germline_snv_occurrence_create_table.sql`).
Here the natural key is ``url``; routing key is ``domain(url)`` with
url-level salting for hot domains.

All hashes are content-derived (sha256 prefixes), never Python's ``hash()``
or process-seeded hashes, so partition routing is stable across runs,
processes and machines — required for copy-on-write partitions to stay
consistent across incremental applies.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_DOMAIN_RE = r"^[a-zA-Z][a-zA-Z0-9+.-]*://(?P<domain>[^/?#]+)"


def extract_domain(urls: pa.ChunkedArray | pa.Array) -> pa.Array | pa.ChunkedArray:
    """Vectorized scheme://host extraction; falls back to the raw url."""
    m = pc.extract_regex(urls, pattern=_DOMAIN_RE)
    dom = pc.struct_field(m, "domain")
    return pc.coalesce(dom, urls)


def stable_hash64(s: str | bytes) -> int:
    """First 8 bytes of sha256 as an unsigned int — stable everywhere."""
    if isinstance(s, str):
        s = s.encode("utf-8")
    return int.from_bytes(hashlib.sha256(s).digest()[:8], "big")


def sha256_hex_array(arr: pa.ChunkedArray | pa.Array) -> pa.Array:
    """Per-row sha256 hexdigest of a string column (null-safe).

    sha256 has no vectorized Arrow kernel; this is a tight C-backed loop via
    hashlib over the batch. Used only where cryptographic identity is needed
    (url_hash for the dedup index), not for routing.
    """
    out = [
        None if v is None else hashlib.sha256(v.encode("utf-8")).hexdigest()
        for v in (arr.to_pylist() if isinstance(arr, (pa.ChunkedArray, pa.Array)) else arr)
    ]
    return pa.array(out, type=pa.string())


def hash_strings_to_parts(
    values: pa.ChunkedArray | pa.Array, n_parts: int
) -> pa.Array:
    """domain column → base partition ids (int32), vectorized via uniques.

    The number of distinct domains per batch is small, so we hash the
    dictionary once and broadcast back with ``index_in`` + ``take`` —
    O(uniques) Python, O(rows) Arrow.
    """
    uniq = pc.unique(pc.cast(values, pa.string()))
    part_of_uniq = pa.array(
        [
            None if d is None else stable_hash64(d) % n_parts
            for d in uniq.to_pylist()
        ],
        type=pa.int32(),
    )
    idx = pc.index_in(values, value_set=uniq)
    return pc.take(part_of_uniq, idx)


#: seed for the v2 vectorized slot hash (polars/xxhash over utf-8 bytes)
SALT_HASH_SEED = 7

#: canary strings whose v2 hashes are persisted in the manifest — a polars
#: upgrade that changes its hash output is detected BEFORE any row routes
#: with the new function (routing would silently diverge from committed
#: placements otherwise). Covers ascii, multibyte utf-8 and the empty string.
_SALT_HASH_PROBES = (
    "",
    "a",
    "https://example.com/path?q=1",
    "é中文/\U0001f310",
    "graft-salt-canary-0123456789",
)


def salt_hash_fingerprint() -> list[int]:
    """v2 hash of the canary probes (manifest-persisted; compared at apply)."""
    return [int(x) for x in salt_hash64_v2(pa.array(_SALT_HASH_PROBES))]


def salt_hash64_v2(urls: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Vectorized 64-bit url hash for salt-slot routing (v2). Polars' xxhash
    with a fixed seed. Not guaranteed stable across polars major upgrades,
    hence the persisted fingerprint guard."""
    import polars as pl

    arr = pc.cast(urls, pa.string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return pl.from_arrow(arr).hash(seed=SALT_HASH_SEED).to_numpy()


def assign_parts(
    urls: pa.ChunkedArray | pa.Array,
    domains: pa.ChunkedArray | pa.Array,
    n_parts: int,
    salt_map: dict[str, list[int]],
    salt_hash_version: int = 2,
) -> pa.Array:
    """Final partition assignment: base hash(domain) % n_parts, except salted
    (hot) domains, whose urls spread over their persisted salt-part list by
    stable url hash (``salt_hash64_v2``). Stable across runs because
    ``salt_map`` and the hash's fingerprint are persisted in the manifest
    (SURVEY §7.5 "skewed domains"). ``salt_hash_version`` accepts only 2,
    the one routing hash there is; a lake recording another version is
    refused when its manifest is read.
    """
    if salt_hash_version != 2:
        raise ValueError(f"unsupported salt_hash_version {salt_hash_version}")
    base = hash_strings_to_parts(domains, n_parts)
    if not salt_map:
        return pc.cast(base, pa.int32())
    doms = pc.cast(domains, pa.string())
    dom_keys = list(salt_map.keys())
    mask = pc.is_in(doms, value_set=pa.array(dom_keys, type=pa.string()))
    if not pc.any(mask).as_py():
        return pc.cast(base, pa.int32())
    out = base.to_numpy(zero_copy_only=False).astype(np.int32, copy=True)
    idxs = np.flatnonzero(mask.to_numpy(zero_copy_only=False))
    take_idx = pa.array(idxs)
    s_urls = pc.take(pc.cast(urls, pa.string()), take_idx)
    s_doms = pc.take(doms, take_idx)
    # one vectorized hash over all salted rows; per-domain modulo via
    # dictionary codes (salt_map is a handful of hot domains)
    h = salt_hash64_v2(s_urls)
    codes = pc.index_in(
        s_doms, value_set=pa.array(dom_keys, type=pa.string())
    ).to_numpy(zero_copy_only=False)
    for k, d in enumerate(dom_keys):
        sel = codes == k
        if sel.any():
            parts = np.asarray(salt_map[d], dtype=np.int32)
            out[idxs[sel]] = parts[h[sel] % np.uint64(len(parts))]
    return pa.array(out, type=pa.int32())
