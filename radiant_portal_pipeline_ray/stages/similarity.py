"""Similarity search over an embedding column (``list<float>``).

- Brute-force cosine top-k: broadcast the (small) query matrix, numpy
  matmul per Arrow batch, per-batch top-k prune, final top-k merge — the
  baseline every ANN variant is checked against.
- LSH-bucketed variant (random-hyperplane signatures): candidates only
  probe vectors sharing a signature bucket — the scale path when the
  corpus is 10^10 rows (bucket groupby replaces the full scan).

Scores are also computed in QUANTIZED INTEGER space (round(x*1000) int64)
when exactness against a SQL oracle is required — integer dot products are
exact in both engines, so thresholds compare identically.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _emb_matrix(batch: pa.Table, col: str = "embedding") -> np.ndarray:
    lists = batch.column(col)
    flat = np.asarray(lists.combine_chunks().flatten(), dtype=np.float64)
    n = batch.num_rows
    if n == 0:  # empty bucket from a keyed exchange
        return flat.reshape(0, 1)
    return flat.reshape(n, -1)


class BruteForceTopK:
    """map_batches stage: per batch, cosine of every row against the
    broadcast query matrix; emits per-(query, batch) top-k rows. A query
    never matches its own row (``vec_id == query_id`` is dropped before the
    prune), so the result does not depend on how rows split into batches.
    A final per-query top-k merge (tiny) finishes the job."""

    def __init__(
        self,
        queries: np.ndarray,
        query_ids: list[int],
        k: int = 10,
        margin: float = 0.0,
    ):
        qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
        self.qn = qn
        self.qids = np.asarray(query_ids, dtype=np.int64)
        self.k = k
        #: keep everything within ``margin`` of the per-batch kth score so a
        #: downstream round-then-rank (e.g. 6-dp oracle comparison) can never
        #: lose a row to the batch-local prune.
        self.margin = margin

    def __call__(self, batch: pa.Table) -> pa.Table:
        E = _emb_matrix(batch)
        En = E / np.maximum(np.linalg.norm(E, axis=1, keepdims=True), 1e-30)
        S = self.qn @ En.T  # (Q, B)
        vec_ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        out_q, out_v, out_s = [], [], []
        for qi in range(S.shape[0]):
            cand = np.flatnonzero(vec_ids != self.qids[qi])
            s = S[qi][cand]
            k = min(self.k, len(s))
            if k:
                kth = np.partition(-s, k - 1)[k - 1]
                cand = cand[s >= -kth - self.margin]
            out_q.append(np.full(len(cand), self.qids[qi]))
            out_v.append(vec_ids[cand])
            out_s.append(S[qi][cand])
        return pa.table(
            {
                "query_id": pa.array(np.concatenate(out_q), type=pa.int64()),
                "vec_id": pa.array(np.concatenate(out_v), type=pa.int64()),
                "cosine": pa.array(np.concatenate(out_s), type=pa.float64()),
            }
        )


def finalize_topk(t: pa.Table, k: int, score_col: str = "cosine") -> pa.Table:
    """Merge per-batch partials → exact global top-k per query.
    Deterministic tie-break: (score desc, vec_id asc)."""
    import pyarrow.compute as pc

    t = t.take(
        pc.sort_indices(
            t,
            sort_keys=[
                ("query_id", "ascending"),
                (score_col, "descending"),
                ("vec_id", "ascending"),
            ],
        )
    ).combine_chunks()
    q = t.column("query_id").to_numpy(zero_copy_only=False)
    new_grp = np.empty(len(q), dtype=bool)
    if len(q):
        new_grp[0] = True
        new_grp[1:] = q[1:] != q[:-1]
        first = np.flatnonzero(new_grp)
        rank = np.arange(len(q)) - first[np.cumsum(new_grp) - 1]
        t = t.filter(pa.array(rank < k))
        t = t.append_column("rank", pa.array(rank[rank < k] + 1, type=pa.int64()))
    return t


class HyperplaneLSHStage:
    """MULTI-TABLE random-hyperplane LSH: ``n_tables`` independent
    ``n_planes``-bit signatures per vector; a pair is a candidate if it
    shares the bucket of ANY table (union-of-tables OR-amplification — a
    single table's recall collapses as the corpus grows; more tables trade
    shuffle volume for recall). Output: one row per (vector, table) with
    ``lsh_bucket = table_idx << n_planes | signature`` (single int64 key, so
    one groupby buckets all tables at once). Planes drawn once per actor
    from a fixed seed — identical across workers."""

    def __init__(
        self, dim: int, n_planes: int = 12, n_tables: int = 8, seed: int = 11
    ):
        rng = np.random.default_rng(seed)
        self.planes = rng.standard_normal((n_tables, n_planes, dim))
        self.n_planes = n_planes
        self.n_tables = n_tables

    def __call__(self, batch: pa.Table) -> pa.Table:
        E = _emb_matrix(batch)
        n = len(E)
        weights = (np.int64(1) << np.arange(self.n_planes)).astype(np.int64)
        sigs = np.empty((n, self.n_tables), dtype=np.int64)
        for t in range(self.n_tables):
            bits = (E @ self.planes[t].T) > 0
            sigs[:, t] = bits.astype(np.int64) @ weights + (
                np.int64(t) << np.int64(self.n_planes)
            )
        idx = np.repeat(np.arange(n), self.n_tables)
        out = batch.take(pa.array(idx))
        return out.append_column(
            "lsh_bucket", pa.array(sigs.ravel(), type=pa.int64())
        )


#: marker rows use vec_a = vec_b = -1 and carry the dropped bucket size in
#: ``cos_r`` (same drop-reporting convention as stages/dedup._PAIRS_SCHEMA)
ANN_PAIRS_SCHEMA = pa.schema(
    [
        pa.field("vec_a", pa.int64()),
        pa.field("vec_b", pa.int64()),
        pa.field("cos_r", pa.float64()),
    ]
)


def make_cosine_bucket_pairs(
    bucket_col: str,
    threshold: float,
    max_bucket: int | None = 4096,
    block: int = 2048,
    round_dp: int = 6,
):
    """One pkey partition (containing MANY ANN buckets/cells) → all
    within-bucket pairs with cosine ≥ ``threshold``.

    Scale shape (round-2 review fix for the ANN pair generators):
    - buckets above ``max_bucket`` emit a single ``(-1, -1, m)`` marker row
      instead of O(m²) pairs (hot-cell cap — clustered real embeddings
      concentrate mass in few cells);
    - the similarity matrix is computed in ``block``-row strips, so peak
      memory is O(block · m), never O(m²), even for buckets at the cap;
    - no per-pair Python loop — pair extraction is a vectorized
      ``np.nonzero`` over the strip mask.
    """

    def gen(group: pa.Table) -> pa.Table:
        k = group.column(bucket_col).to_numpy(zero_copy_only=False)
        ids = group.column("vec_id").to_numpy(zero_copy_only=False)
        E = _emb_matrix(group)
        order = np.lexsort((ids, k))
        k, ids, E = k[order], ids[order], E[order]
        if len(k):  # distinct (bucket, id) — multi-probe can duplicate
            first = np.concatenate(
                [[True], (k[1:] != k[:-1]) | (ids[1:] != ids[:-1])]
            )
            k, ids, E = k[first], ids[first], E[first]
        empty = pa.table(
            {
                "vec_a": pa.array([], pa.int64()),
                "vec_b": pa.array([], pa.int64()),
                "cos_r": pa.array([], pa.float64()),
            },
            schema=ANN_PAIRS_SCHEMA,
        )
        if len(k) == 0:
            return empty
        En = E / np.maximum(np.linalg.norm(E, axis=1, keepdims=True), 1e-30)
        starts = np.flatnonzero(np.concatenate([[True], k[1:] != k[:-1]]))
        lens = np.diff(np.append(starts, len(k)))
        cap = max_bucket if max_bucket is not None else np.iinfo(np.int64).max
        out_a, out_b, out_c = [], [], []
        for s, L in zip(starts.tolist(), lens.tolist()):
            if L < 2:
                continue
            if L > cap:
                out_a.append(np.array([-1], dtype=np.int64))
                out_b.append(np.array([-1], dtype=np.int64))
                out_c.append(np.array([float(L)]))
                continue
            sub_ids = ids[s : s + L]
            Sn = En[s : s + L]
            for b0 in range(0, L, block):
                b1 = min(b0 + block, L)
                S = Sn[b0:b1] @ Sn.T  # (strip, L)
                mask = (S >= threshold) & (
                    np.arange(L)[None, :] > np.arange(b0, b1)[:, None]
                )
                r, c = np.nonzero(mask)
                if len(r):
                    out_a.append(sub_ids[b0 + r])
                    out_b.append(sub_ids[c])
                    out_c.append(np.round(S[r, c], round_dp))
        if not out_a:
            return empty
        return pa.table(
            {
                "vec_a": pa.array(np.concatenate(out_a), type=pa.int64()),
                "vec_b": pa.array(np.concatenate(out_b), type=pa.int64()),
                "cos_r": pa.array(np.concatenate(out_c), type=pa.float64()),
            },
            schema=ANN_PAIRS_SCHEMA,
        )

    return gen
