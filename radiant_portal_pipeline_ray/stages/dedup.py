"""Deduplication stages: exact, MinHash+LSH, SimHash, n-gram Jaccard.

Training-data-pipeline operators (north rule "beyond the reference"):
- exact: content-hash → hash-partitioned groupby → first per group
  (reference D4 shape: dedup-agg by composite key,
  `radiant/dags/sql/radiant/snv_consequence_filter_insert.sql`).
- MinHash+LSH: shingle → minhash sig per batch (vectorized numpy) →
  explode to (band, band_hash, doc) rows → groupby band bucket →
  candidate pairs → exact-Jaccard verify over semi-filtered candidate
  shingle sets (never a whole-corpus broadcast).
- SimHash: 64-bit sign-of-weighted-token-hash signature; near-dup =
  small Hamming distance within LSH chunks.
- n-gram Jaccard: exact pairwise verification with INTEGER threshold
  arithmetic (``den*inter >= num*union``) so engine and SQL oracle agree
  bit-for-bit.

Every kernel is vectorized: tokenization/shingling via ``pyarrow.compute``
list kernels, 64-bit string hashing via polars (xxhash, fixed seed —
deterministic across worker processes), per-doc reductions via
``np.minimum.reduceat`` / ``np.bincount``. Shingles travel as int64
hashes, never strings — a hash collision can only ADD a candidate pair,
which exact verification then rejects, so results are unchanged while the
shuffle moves 8-byte keys. The only shuffles are the bucket groupbys
(candidates) — never an all-pairs cross join at scale; buckets above
``max_bucket`` are dropped and REPORTED (standard frequent-shingle drop).
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc

_MERSENNE = np.uint64((1 << 61) - 1)
_HASH_SEED = 7
_MIX = np.uint64(0x9E3779B97F4A7C15)  # golden-ratio odd constant


def hash64_strings(arr: pa.Array | pa.ChunkedArray | list[str]) -> np.ndarray:
    """Vectorized 64-bit string hash (polars/xxhash, fixed seed). Run-internal
    identity only — candidate bucketing and signatures, never persisted
    routing (that uses sha256 and the fingerprinted salt hash,
    functions/hashing.py)."""
    if isinstance(arr, list):
        arr = pa.array(arr, type=pa.string())
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    return pl.from_arrow(arr).hash(seed=_HASH_SEED).to_numpy()


def _token_shingles(text: str, k: int = 3) -> list[str]:
    """k-word shingles; docs shorter than k words have none (matches the
    SQL-oracle construction exactly). Reference implementation for tests;
    the batch path is `shingle_hash_table`."""
    w = [t for t in text.strip().split(" ") if t]
    if len(w) < k:
        return []
    return [" ".join(w[i : i + k]) for i in range(len(w) - k + 1)]


def _tokens_flat(
    text: pa.Array | pa.ChunkedArray, n_rows: int
) -> tuple[pa.Array, np.ndarray]:
    """Split on single spaces, drop empty tokens → (flat tokens, parent row
    index per token). Matches ``text.strip().split(' ')`` + empty filter."""
    toks = pc.split_pattern(text, " ")
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    ne = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    ne = np.asarray(ne, dtype=bool)
    return flat.filter(pa.array(ne)), parent[ne]


def shingle_hash_table(
    batch: pa.Table, k: int = 3, text_col: str = "text", id_col: str = "doc_id"
) -> pa.Table:
    """(id, text) batch → DISTINCT (id, s:int64) shingle-hash rows.

    Fully vectorized: arrow split → shifted-slice join (k-gram strings) →
    polars hash → per-doc distinct via lexsort."""
    ids = batch.column(id_col).to_numpy(zero_copy_only=False)
    flat, parent = _tokens_flat(batch.column(text_col), batch.num_rows)
    T = len(flat)
    if T < k:
        return pa.table(
            {id_col: pa.array([], type=pa.int64()), "s": pa.array([], type=pa.int64())}
        )
    # k-gram join over shifted views; valid where the window stays in one doc
    slices = [flat.slice(i, T - k + 1) for i in range(k)]
    grams = pc.binary_join_element_wise(*slices, " ")
    ok = parent[: T - k + 1] == parent[k - 1 :]
    grams = grams.filter(pa.array(ok))
    gram_parent = parent[: T - k + 1][ok]
    # md5-derived hashes (unique-shingle dictionary) so MinHash signatures
    # and LSH bands are exactly reproducible by the SQL oracle
    h = md5_hash64(grams).view(np.int64)
    doc = ids[gram_parent]
    # distinct (doc, hash)
    order = np.lexsort((h, doc))
    doc, h = doc[order], h[order]
    if len(doc):
        first = np.empty(len(doc), dtype=bool)
        first[0] = True
        first[1:] = (doc[1:] != doc[:-1]) | (h[1:] != h[:-1])
        doc, h = doc[first], h[first]
    return pa.table(
        {id_col: pa.array(doc, type=pa.int64()), "s": pa.array(h, type=pa.int64())}
    )


class ShingleExplodeStage:
    """Batch → distinct (doc_id, shingle-hash) rows (actor-pool stage)."""

    def __init__(self, k: int = 3, text_col: str = "text", id_col: str = "doc_id"):
        self.k = k
        self.text_col = text_col
        self.id_col = id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        return shingle_hash_table(batch, self.k, self.text_col, self.id_col)


class MinHashStage:
    """Per-batch MinHash signatures. Permutation params derived from a fixed
    seed in ``__init__`` (once per actor); per-doc mins via
    ``np.minimum.reduceat`` — no Python loop over docs or shingles."""

    def __init__(self, n_perm: int = 64, shingle_k: int = 3, seed: int = 7):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
        self.b = rng.integers(0, (1 << 61) - 1, size=n_perm, dtype=np.uint64)
        self.n_perm = n_perm
        self.k = shingle_k

    def _sig_matrix(
        self, sh_doc: np.ndarray, sh_hash: np.ndarray, n_docs: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """(doc idx per shingle [sorted], uint64 hash per shingle) →
        (row indices with ≥1 shingle, sig matrix [n_present × n_perm])."""
        present, starts = np.unique(sh_doc, return_index=True)
        sigs = np.empty((len(present), self.n_perm), dtype=np.uint64)
        for j in range(self.n_perm):
            v = (sh_hash * self.a[j] + self.b[j]) % _MERSENNE
            sigs[:, j] = np.minimum.reduceat(v, starts)
        return present, sigs

    def signature(self, text: str | None) -> np.ndarray | None:
        """Single-text convenience API (tests); same kernel as the batch."""
        if text is None:
            return None
        t = pa.table({"doc_id": pa.array([0], pa.int64()), "text": [text]})
        sh = shingle_hash_table(t, self.k)
        if sh.num_rows == 0:
            return None
        _, sigs = self._sig_matrix(
            sh.column("doc_id").to_numpy(),
            sh.column("s").to_numpy().view(np.uint64),
            1,
        )
        return sigs[0]

    def __call__(self, batch: pa.Table) -> pa.Table:
        sh = shingle_hash_table(batch, self.k)
        doc_idx = sh.column("doc_id").to_numpy()  # here: row indices? no — ids
        # shingle_hash_table emits doc IDs; recover row order via searchsorted
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        sigs_arr: pa.Array
        if sh.num_rows == 0:
            sigs_arr = pa.nulls(batch.num_rows, type=pa.list_(pa.int64()))
            return batch.append_column("minhash", sigs_arr)
        h = sh.column("s").to_numpy().view(np.uint64)
        present_ids, starts = np.unique(doc_idx, return_index=True)
        sigs = np.empty((len(present_ids), self.n_perm), dtype=np.uint64)
        for j in range(self.n_perm):
            v = (h * self.a[j] + self.b[j]) % _MERSENNE
            sigs[:, j] = np.minimum.reduceat(v, starts)
        # map present doc ids back to batch rows (ids unique per batch)
        order = np.argsort(ids, kind="stable")
        pos_in_sorted = np.searchsorted(ids, present_ids, sorter=order)
        rows = order[pos_in_sorted]
        flat = sigs.astype(np.int64).ravel()
        offsets = np.zeros(batch.num_rows + 1, dtype=np.int64)
        counts = np.zeros(batch.num_rows, dtype=np.int64)
        counts[rows] = self.n_perm
        np.cumsum(counts, out=offsets[1:])
        # rows without shingles → null signature
        validity = np.zeros(batch.num_rows, dtype=bool)
        validity[rows] = True
        # values must be laid out in ROW order; sigs rows follow present_ids
        # order — scatter them into row order first
        row_order = np.argsort(rows, kind="stable")
        values = sigs[row_order].astype(np.int64).ravel()
        sigs_arr = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()).cast(pa.int32()),
            pa.array(values, type=pa.int64()),
            mask=pa.array(~validity),
        )
        return batch.append_column("minhash", sigs_arr)


def make_band_exploder(n_bands: int, rows_per_band: int, id_col: str = "doc_id"):
    """signature rows → (band, band_hash, id) rows; the groupby on
    (band, band_hash) is the LSH bucketing shuffle. Band hashes are a
    vectorized 64-bit polynomial mix of the band's signature values."""

    def explode(batch: pa.Table) -> pa.Table:
        mh = batch.column("minhash")
        if isinstance(mh, pa.ChunkedArray):
            mh = mh.combine_chunks()
        valid = pc.is_valid(mh).to_numpy(zero_copy_only=False)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)[valid]
        n = len(ids)
        if n == 0:
            return pa.table(
                {
                    id_col: pa.array([], type=pa.int64()),
                    "band": pa.array([], type=pa.int32()),
                    "band_hash": pa.array([], type=pa.int64()),
                }
            )
        sig = (
            pc.list_flatten(mh.filter(pa.array(valid)))
            .to_numpy()
            .view(np.uint64)
            .reshape(n, n_bands * rows_per_band)
        )
        out_ids = np.repeat(ids, n_bands)
        out_band = np.tile(np.arange(n_bands, dtype=np.int32), n)
        bh = np.empty((n, n_bands), dtype=np.uint64)
        for b in range(n_bands):
            chunk = sig[:, b * rows_per_band : (b + 1) * rows_per_band]
            acc = np.full(n, np.uint64(b * 2 + 1), dtype=np.uint64)
            for r in range(rows_per_band):
                acc = (acc ^ chunk[:, r]) * _MIX
            bh[:, b] = acc
        return pa.table(
            {
                id_col: pa.array(out_ids, type=pa.int64()),
                "band": pa.array(out_band, type=pa.int32()),
                "band_hash": pa.array(bh.ravel().view(np.int64), type=pa.int64()),
            }
        )

    return explode


_PAIRS_SCHEMA = pa.schema(
    [
        pa.field("doc_a", pa.int64()),
        pa.field("doc_b", pa.int64()),
        #: -size of a dropped over-cap bucket, 0 for real pairs — lets the
        #: driver count/log frequent-shingle drops without a side channel
        pa.field("dropped_bucket", pa.int64()),
    ]
)


def _run_bounds(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    lens = np.diff(np.append(starts, len(keys)))
    return starts, lens


def _expand_pairs(starts: np.ndarray, lens: np.ndarray):
    """Vectorized all-unordered-pairs index generation for variable-length
    runs: returns (a_idx, b_idx) global indices with a < b within each run."""
    tot = int(lens.sum())
    if tot == 0:
        z = np.zeros(0, dtype=np.int64)
        return z, z
    run_off = np.cumsum(lens) - lens  # first element offset per run
    j = np.arange(tot) - np.repeat(run_off, lens)  # pos within run
    el = np.repeat(starts, lens) + j  # global element index
    rep = np.repeat(lens, lens) - 1 - j  # pairs per element
    a_idx = np.repeat(el, rep)
    pair_off = np.cumsum(rep) - rep
    off = np.arange(int(rep.sum())) - np.repeat(pair_off, rep)
    b_idx = a_idx + off + 1
    return a_idx, b_idx


def make_partitioned_pair_generator(
    key_col: str, id_col: str = "doc_id", max_bucket: int | None = None
):
    """One pkey partition (containing MANY buckets) → all within-bucket
    unordered id pairs, fully vectorized (lexsort → run detection →
    arithmetic pair expansion). Over-cap buckets emit a ``(-1, -1, m)``
    marker row each (frequent-shingle drop, logged by the caller)."""

    def gen(group: pa.Table) -> pa.Table:
        k = group.column(key_col).to_numpy(zero_copy_only=False)
        i = group.column(id_col).to_numpy(zero_copy_only=False)
        order = np.lexsort((i, k))
        k, i = k[order], i[order]
        if len(k):  # distinct (key, id)
            first = np.concatenate(
                [[True], (k[1:] != k[:-1]) | (i[1:] != i[:-1])]
            )
            k, i = k[first], i[first]
        if len(k) == 0:
            return pa.Table.from_pydict(
                {"doc_a": [], "doc_b": [], "dropped_bucket": []},
                schema=_PAIRS_SCHEMA,
            )
        starts, lens = _run_bounds(k)
        cap = max_bucket if max_bucket is not None else np.iinfo(np.int64).max
        dropped = lens[lens > cap]
        keep = (lens >= 2) & (lens <= cap)
        a_idx, b_idx = _expand_pairs(starts[keep], lens[keep])
        doc_a = np.concatenate([i[a_idx], np.full(len(dropped), -1, np.int64)])
        doc_b = np.concatenate([i[b_idx], np.full(len(dropped), -1, np.int64)])
        marker = np.concatenate(
            [np.zeros(len(a_idx), dtype=np.int64), dropped.astype(np.int64)]
        )
        return pa.table(
            {
                "doc_a": pa.array(doc_a, type=pa.int64()),
                "doc_b": pa.array(doc_b, type=pa.int64()),
                "dropped_bucket": pa.array(marker, type=pa.int64()),
            },
            schema=_PAIRS_SCHEMA,
        )

    return gen


def md5_hash64(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """First 8 bytes of md5 as uint64 — SQL-reproducible
    (``CAST('0x' || substr(md5(t), 1, 16) AS UBIGINT)``). Hashes UNIQUE
    values once (token vocabularies are small) and broadcasts back via
    dictionary indices, so cost is O(uniques) Python + O(rows) Arrow."""
    import hashlib

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    uniq = pc.unique(arr)
    hv = np.array(
        [
            int.from_bytes(hashlib.md5(u.encode("utf-8")).digest()[:8], "big")
            for u in uniq.to_pylist()
        ],
        dtype=np.uint64,
    )
    idx = pc.index_in(arr, value_set=uniq).to_numpy(zero_copy_only=False)
    return hv[idx.astype(np.int64)]


class SimHashStage:
    """64-bit SimHash over whitespace tokens — vectorized: md5-derived token
    hashes (SQL-reproducible, so the whole signature has an exact DuckDB
    oracle), per-bit per-doc vote via ``np.bincount`` (64 passes, no Python
    loop over rows or tokens)."""

    def __init__(self, text_col: str = "text", out_col: str = "simhash"):
        self.text_col = text_col
        self.out_col = out_col

    def _batch_simhash(self, text: pa.Array | pa.ChunkedArray, n: int) -> pa.Array:
        flat, parent = _tokens_flat(text, n)
        valid_text = pc.is_valid(text).to_numpy(zero_copy_only=False)
        h = md5_hash64(flat)
        has_tok = np.zeros(n, dtype=bool)
        has_tok[np.unique(parent)] = True
        acc_pos = np.zeros((n, 64), dtype=np.int64)
        ones = np.ones(len(h), dtype=np.float64)
        tok_per_doc = np.bincount(parent, minlength=n)
        for j in range(64):
            bit = ((h >> np.uint64(j)) & np.uint64(1)).astype(np.float64)
            acc_pos[:, j] = np.bincount(parent, weights=bit, minlength=n).astype(
                np.int64
            )
        # vote = ones_count - zeros_count > 0  ⇔  2*ones > n_tokens
        bits = (2 * acc_pos) > tok_per_doc[:, None]
        weights = np.uint64(1) << np.arange(64, dtype=np.uint64)
        out = (bits.astype(np.uint64) * weights[None, :]).sum(
            axis=1, dtype=np.uint64
        )
        signed = out.view(np.int64)
        mask_null = ~(valid_text & has_tok)
        return pa.array(signed, type=pa.int64(), mask=mask_null)

    def simhash(self, text: str | None) -> int | None:
        if text is None:
            return None
        out = self._batch_simhash(pa.array([text], type=pa.string()), 1)
        return out[0].as_py()

    def __call__(self, batch: pa.Table) -> pa.Table:
        vals = self._batch_simhash(batch.column(self.text_col), batch.num_rows)
        return batch.append_column(self.out_col, vals)


def jaccard_exact_int(a: set, b: set) -> tuple[int, int]:
    """(intersection, union) sizes — integer-exact for threshold checks."""
    inter = len(a & b)
    return inter, len(a) + len(b) - inter
