"""Distributed Bloom filter: the broadcast-side scale hatch for semi/anti
joins.

The broadcast semi-join ships the build side's exact key set to every probe
task — fine to a few million keys, wrong at 100 TB where the "small" side
is itself billions of keys. The classic fix is a FIXED-SIZE bloom filter:
per-batch partial bitmaps OR-fold into one ``m``-bit array (size chosen
from the key estimate, independent of key width), broadcast once via
``ray.put``, and the probe side drops every row the filter rejects. False
positives (~0.8% at 10 bits/key, k=7) never corrupt results — the survivors
still flow through the EXACT hash-partitioned semi-join, whose shuffle now
carries only ``selectivity + fp`` of the probe side instead of all of it.

Reference analogue: StarRocks' runtime-filter pushdown on shuffle joins
(the engine the reference targets builds these automatically; here the
filter is an explicit, testable stage).

Hashing: k indexes derived from ONE splitmix64 pass via the standard
Kirsch–Mitzenmacher double hashing ``g_i = h1 + i*h2 (mod m)`` — one hash
evaluation per value, vectorized over the batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over int64/uint64 — the fixed value hash (the
    bloom probes here, the HLL registers in ``pipelines/sketches``)."""
    z = x.astype(np.uint64, copy=True)
    z += np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class BloomFilter:
    """Fixed-geometry bloom over int64/uint64 keys (strings: pre-hash with
    ``stages.dedup.md5_hash64``). ``log2_m`` bits, ``k`` probes."""

    def __init__(self, log2_m: int = 23, k: int = 7):
        self.log2_m = log2_m
        self.m = 1 << log2_m
        self.k = k
        self.mask = np.uint64(self.m - 1)

    def _indexes(self, values: np.ndarray) -> np.ndarray:
        """(k, n) bit indexes via Kirsch–Mitzenmacher double hashing."""
        h = _splitmix64(values)
        h1 = h & self.mask
        # odd h2 is coprime with the power-of-two m → k distinct strides
        h2 = ((h >> np.uint64(32)) | np.uint64(1)) & self.mask
        i = np.arange(self.k, dtype=np.uint64)[:, None]
        return (h1[None, :] + i * h2[None, :]) & self.mask

    def partial(self, values: np.ndarray) -> np.ndarray:
        """uint64[m/64] word array with this batch's bits set."""
        words = np.zeros(self.m >> 6, dtype=np.uint64)
        idx = self._indexes(values).ravel()
        np.bitwise_or.at(words, idx >> np.uint64(6), np.uint64(1) << (idx & np.uint64(63)))
        return words

    def might_contain(self, words: np.ndarray, values: np.ndarray) -> np.ndarray:
        """bool[n]: False ⇒ definitely absent (no false negatives)."""
        idx = self._indexes(values)
        hit = (words[idx >> np.uint64(6)] >> (idx & np.uint64(63))) & np.uint64(1)
        return hit.all(axis=0).astype(bool)


def build_bloom(ds, column: str, log2_m: int = 23, k: int = 7):
    """OR-fold per-batch partial bitmaps into one broadcastable blob.

    Returns ``(BloomFilter, ray.ObjectRef[np.ndarray])`` — put once, read
    zero-copy in every probe task. The fold here is a single linear task
    (bounded: one ``m/8``-byte blob per input batch); at cluster scale the
    same partials tree-reduce in log rounds — the partial/merge split is
    already associative and commutative, so only the fold topology changes.
    """
    import ray

    from radiant_portal_pipeline_ray.stages.taskshuffle import map_blocks, materialized

    bf = BloomFilter(log2_m, k)

    def partial_blob(b: pa.Table) -> pa.Table:
        vals = b.column(column).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"bits": pa.array([bf.partial(vals).tobytes()], pa.binary())})

    blobs = map_blocks(ds, partial_blob)

    @ray.remote(num_returns=1)
    def fold(*tables) -> np.ndarray:
        words = np.zeros(bf.m >> 6, dtype=np.uint64)
        for t in tables:
            for blob in t.column("bits").to_pylist():
                words |= np.frombuffer(blob, dtype=np.uint64)
        return words

    if isinstance(blobs, pa.Table):
        refs = [blobs] if blobs.num_rows else []
    else:
        refs = materialized(blobs).to_arrow_refs()
    return bf, fold.remote(*refs)
