"""Ingest-time incremental near-duplicate detection.

The batch near-dup pipelines (``pipelines/dedup.py``) answer "which pairs in
this CORPUS are near-dups" — O(corpus) per run. A CDC lake needs the
incremental question instead: *as each change batch commits, which of the
new/updated documents are near-duplicates of documents already in the lake?*
At 10^10 events, re-running corpus dedup per commit is impossible; the probe
must be O(changed), not O(lake).

Design — a persistent **LSH signature index** sidecar next to the lake:

- ``bands/b{bucket}/…``: ``(op, url, band_hash)`` — the 16 LSH band hashes
  per live document, hash-partitioned into ``n_buckets`` by ``band_hash``.
- ``sigs/b{bucket}/…``: ``(op, url, minhash)`` — the 64-permutation MinHash
  signature per live document, hash-partitioned by ``url``.
- ``index.json``: immutable params (perms/bands/seed/buckets) + the lake
  version the index reflects.

The index is **LSM-shaped and crash-safe**, mirroring the lake's own merge
semantics: every maintenance round appends one deterministically-named file
``v{version:06d}.parquet`` per touched bucket (op 0 = add, op 1 = delete by
url), and bumps ``index.json`` LAST via atomic replace. Readers fold a
bucket's files with last-writer-wins (an add at version v survives deletes
at versions ≤ v — an in-place update deletes old entries and adds new ones
in the SAME version) and ignore files newer than the acknowledged version,
so a crashed update is invisible and a retry overwrites its own partial
files (same deterministic names).

Per-commit flow (``probe`` + ``update``):

1. ``read_changes(v_from, v_to)`` → the I/U urls (O(changed), manifest-pruned
   — see ``pipelines/changefeed.py``).
2. Incoming docs' text is read from ONLY the partitions whose file lists
   changed between the two manifests (a changed row always rewrites its
   partition) and semi-joined to the changed urls — never a full-lake scan.
3. MinHash + band-explode the incoming docs (same kernels as dd_minhash_lsh:
   ``MinHashStage``, ``make_band_exploder``).
4. Probe reads ONLY the band-index buckets the incoming band hashes touch,
   joins on ``band_hash`` for candidates, then attaches both signatures
   (old side from the sig index — the base documents' TEXT is never read)
   and keeps pairs with ≥ ``SIG_MATCH_MIN``/64 agreeing components
   (estimated Jaccard ≥ 0.5).
5. ``update`` appends delete rows for U/D urls (routed to the buckets of
   their OLD band hashes, recovered from the sig index) and add rows for the
   I/U signatures, then bumps the version — index state == fresh rebuild at
   v_to (pytest-verified parity).

Driver state is bounded by O(n_buckets) bucket ids — candidate pairs, urls
and signatures all flow through keyed task exchanges / Ray tasks.

Reference analogue: the variant_lookup dictionary the reference maintains
incrementally per import round (`radiant/dags/sql/radiant/init/
variant_lookup_create_table.sql:1-7`, insert-if-absent population) — here
generalized to a similarity index with deletions; the probe-vs-oracle
construction reuses `_minhash_sql`'s bit-exact HUGEINT arithmetic
(``minhash_sql_fragments``).
"""

from __future__ import annotations

import json
import logging
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from radiant_portal_pipeline_ray.stages import taskshuffle
from radiant_portal_pipeline_ray.stages.dedup import MinHashStage, make_band_exploder
from radiant_portal_pipeline_ray.stages.taskshuffle import (
    bucket_ids,
    collect,
    exchange_group,
    exchange_join,
    local_dataset,
    materialized,
    sort_table,
)
from radiant_portal_pipeline_ray.state import lakescan

logger = logging.getLogger(__name__)

N_PERM = 64
N_BANDS = 16
ROWS_PER_BAND = 4
SHINGLE_K = 3
SEED = 7
#: minimum agreeing signature components (of N_PERM) — estimated J >= 0.5
SIG_MATCH_MIN = 32

_BANDS_SCHEMA = pa.schema(
    [
        pa.field("op", pa.int8()),  # 0 = add, 1 = delete-by-url
        pa.field("url", pa.string()),
        pa.field("band_hash", pa.int64()),
    ]
)
_SIGS_SCHEMA = pa.schema(
    [
        pa.field("op", pa.int8()),
        pa.field("url", pa.string()),
        pa.field("minhash", pa.list_(pa.int64())),
    ]
)

_PAIRS_SCHEMA = pa.schema(
    [
        pa.field("new_url", pa.string()),
        pa.field("old_url", pa.string()),
        pa.field("sig_match", pa.int64()),
        pa.field("est_sim", pa.float64()),
    ]
)


def _as_array(col):
    return col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col


def _arange(n: int) -> pa.Array:
    return pa.array(np.arange(n, dtype=np.int64), type=pa.int64())


def _join_take(
    left: pa.Table, right: pa.Table, lk: str, rk: str
) -> tuple[pa.Table, pa.Table]:
    """Inner equi-join that supports LIST payload columns (Acero rejects
    nested non-key fields): join key+row-index projections, then ``take``
    the matching rows from both originals. Returns the aligned row sets."""
    li = pa.table({"__k": _as_array(left.column(lk)), "__li": _arange(left.num_rows)})
    ri = pa.table({"__k": _as_array(right.column(rk)), "__ri": _arange(right.num_rows)})
    j = li.join(ri, keys="__k", join_type="inner")
    return left.take(j.column("__li")), right.take(j.column("__ri"))


class _UrlMinHash:
    """(url, text) batches → (url, minhash). Permutation state built once
    per actor/worker in ``__init__`` (T1 pattern); doc identity inside the
    MinHash kernel is the batch row index, so url stays a string column."""

    def __init__(self) -> None:
        self.mh = MinHashStage(n_perm=N_PERM, shingle_k=SHINGLE_K, seed=SEED)

    def __call__(self, b: pa.Table) -> pa.Table:
        tmp = pa.table(
            {
                "doc_id": _arange(b.num_rows),
                "text": b.column("text"),
            }
        )
        out = self.mh(tmp)
        return pa.table(
            {"url": b.column("url"), "minhash": out.column("minhash")}
        )


_EXPLODE = make_band_exploder(N_BANDS, ROWS_PER_BAND, id_col="doc_id")


def _explode_url_bands(b: pa.Table) -> pa.Table:
    """(url, minhash) → (url, band_hash): reuses make_band_exploder's exact
    band-mix arithmetic with row indices as the transient int64 id."""
    tmp = pa.table(
        {"doc_id": _arange(b.num_rows), "minhash": b.column("minhash")}
    )
    e = _EXPLODE(tmp)
    urls = pc.take(_as_array(b.column("url")), e.column("doc_id"))
    return pa.table({"url": urls, "band_hash": e.column("band_hash")})


def _fold_lww(t: pa.Table, payload: pa.Schema) -> pa.Table:
    """Fold (version, op, url, …payload) rows to the live entries: an add
    survives iff no delete for its url has a strictly NEWER version."""
    adds = t.filter(pc.equal(t.column("op"), pa.scalar(0, pa.int8())))
    dels = t.filter(pc.equal(t.column("op"), pa.scalar(1, pa.int8())))
    out_cols = [f.name for f in payload if f.name != "version"]
    if dels.num_rows == 0:
        return adds.select(out_cols)
    dmax = (
        dels.select(["url", "version"])
        .group_by("url")
        .aggregate([("version", "max")])
        .rename_columns(["url", "dv"])
    )
    # index-join: adds carries a list column (sigs), so key+index then take
    ai = pa.table(
        {
            "url": _as_array(adds.column("url")),
            "v": _as_array(adds.column("version")),
            "i": _arange(adds.num_rows),
        }
    )
    j = ai.join(dmax, keys="url", join_type="left outer")
    keep = pc.fill_null(
        pc.or_kleene(
            pc.is_null(j.column("dv")),
            pc.greater_equal(j.column("v"), j.column("dv")),
        ),
        False,
    )
    return adds.take(j.filter(keep).column("i")).select(out_cols)


def _fold_files(files: list[tuple[int, str]], kind: str) -> pa.Table:
    schema = _BANDS_SCHEMA if kind == "bands" else _SIGS_SCHEMA
    payload = pa.schema([f for f in schema if f.name != "op"])
    tabs = []
    for ver, path in files:
        t = pq.read_table(path)
        tabs.append(
            t.append_column(
                "version", pa.array(np.full(t.num_rows, ver), type=pa.int64())
            )
        )
    if not tabs:
        return payload.empty_table()
    all_rows = pa.concat_tables(tabs, promote_options="permissive")
    return _fold_lww(all_rows, payload).combine_chunks()


@ray.remote
def _read_bucket_task(files: list[tuple[int, str]], kind: str) -> pa.Table:
    """Read one bucket's (version, path) files and fold to live entries."""
    return _fold_files(files, kind)


@ray.remote
def _probe_bucket_task(
    files: list[tuple[int, str]], probe_bands: pa.Table
) -> pa.Table:
    """Small-increment probe: fold ONE band bucket and join the (broadcast)
    incoming band table against it → distinct candidate (new_url, old_url)."""
    live = _fold_files(files, "bands")
    pb = probe_bands.rename_columns(["new_url", "band_hash"])
    ib = live.rename_columns(["old_url", "band_hash"])
    j = pb.join(ib, keys="band_hash", join_type="inner")
    j = j.filter(pc.not_equal(j.column("new_url"), j.column("old_url")))
    return (
        j.select(["new_url", "old_url"])
        .group_by(["new_url", "old_url"])
        .aggregate([])
        .combine_chunks()
    )


@ray.remote
def _sig_fetch_task(
    files: list[tuple[int, str]], urls: pa.Array
) -> pa.Table:
    """Small-increment sig lookup: fold ONE sig bucket, keep rows whose url
    is in the (broadcast) lookup set."""
    live = _fold_files(files, "sigs")
    mask = pc.fill_null(pc.is_in(live.column("url"), value_set=urls), False)
    return live.filter(mask).combine_chunks()


class SignatureIndex:
    """Persistent, incrementally-maintained LSH+signature sidecar index
    (layout and crash-safety in the module docstring). ``root`` is a local /
    shared-POSIX directory at test scale; the file ops route through plain
    ``os``/pyarrow and are confined to this class, so pointing them at the
    lake's fsspec backend (state/manifest.Lake) is a drop-in swap."""

    def __init__(self, root: str, n_buckets: int = 32):
        self.root = root
        self.meta_path = os.path.join(root, "index.json")
        if os.path.exists(self.meta_path):
            with open(self.meta_path) as f:
                self.meta = json.load(f)
            if (
                self.meta["n_perm"] != N_PERM
                or self.meta["n_bands"] != N_BANDS
                or self.meta["seed"] != SEED
            ):
                raise ValueError(
                    f"index at {root} was built with different signature "
                    f"params: {self.meta}"
                )
        else:
            self.meta = {
                "n_perm": N_PERM,
                "n_bands": N_BANDS,
                "rows_per_band": ROWS_PER_BAND,
                "shingle_k": SHINGLE_K,
                "seed": SEED,
                "n_buckets": n_buckets,
                "version": None,  # lake version the index reflects
            }

    # -- bucket math (identical at build/probe/update time) ------------------
    @property
    def n_buckets(self) -> int:
        return int(self.meta["n_buckets"])

    @property
    def version(self) -> int | None:
        return self.meta["version"]

    # -- file layout ----------------------------------------------------------
    def _bucket_dir(self, kind: str, bucket: int) -> str:
        return os.path.join(self.root, kind, f"b{bucket:05d}")

    def _bucket_files(self, kind: str, bucket: int) -> list[tuple[int, str]]:
        """(version, path) of this bucket's files acknowledged by meta."""
        d = self._bucket_dir(kind, bucket)
        if not os.path.isdir(d) or self.version is None:
            return []
        out = []
        for name in sorted(os.listdir(d)):
            if not (name.startswith("v") and name.endswith(".parquet")):
                continue
            ver = int(name[1:-8])
            if ver <= self.version:
                out.append((ver, os.path.join(d, name)))
        return out

    def _commit_meta(self, version: int) -> None:
        self.meta["version"] = version
        tmp = self.meta_path + ".tmp"
        os.makedirs(self.root, exist_ok=True)
        with open(tmp, "w") as f:
            json.dump(self.meta, f)
        os.replace(tmp, self.meta_path)

    def _write_rows(self, kind: str, ds: "rd.Dataset", version: int) -> int:
        """Hash-partition add/del rows into the index buckets and append ONE
        deterministically-named file per touched bucket (idempotent retry).
        The exchange is keyed on the PRECOMPUTED bucket id so each logical
        bucket lands in exactly one writer — a raw-key exchange could split
        one bucket's keys across writers and have them overwrite each
        other's (deterministic) file."""
        keys = ["band_hash"] if kind == "bands" else ["url"]
        nb = self.n_buckets
        root = self.root

        def add_bucket(t: pa.Table) -> pa.Table:
            return t.append_column(
                "bucket", pa.array(bucket_ids(t, keys, nb), type=pa.int64())
            )

        ds = ds.map_batches(add_bucket, batch_format="pyarrow")
        if ds.schema(fetch_if_missing=True) is None:
            return 0

        def write_buckets(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table(
                    {"bucket": pa.array([], pa.int64()),
                     "rows": pa.array([], pa.int64())}
                )
            b = t.column("bucket").to_numpy(zero_copy_only=False)
            t = t.drop_columns(["bucket"])
            order = np.argsort(b, kind="stable")
            ts = t.take(pa.array(order))
            bs = b[order]
            cuts = np.flatnonzero(np.diff(bs)) + 1
            starts = np.concatenate(([0], cuts))
            ends = np.concatenate((cuts, [len(bs)]))
            got, cnt = [], []
            for s, e in zip(starts, ends):
                bid = int(bs[s])
                d = os.path.join(root, kind, f"b{bid:05d}")
                os.makedirs(d, exist_ok=True)
                sub = ts.slice(int(s), int(e - s)).combine_chunks()
                tmp_path = os.path.join(d, f".v{version:06d}.parquet.tmp")
                pq.write_table(sub, tmp_path, compression="zstd")
                os.replace(
                    tmp_path, os.path.join(d, f"v{version:06d}.parquet")
                )
                got.append(bid)
                cnt.append(sub.num_rows)
            return pa.table(
                {
                    "bucket": pa.array(got, pa.int64()),
                    "rows": pa.array(cnt, pa.int64()),
                }
            )

        markers = exchange_group(ds, ["bucket"], nb, write_buckets)
        return int(markers.sum("rows") or 0)

    def _read_buckets(self, kind: str, buckets: list[int]) -> "rd.Dataset":
        """Streaming Dataset of the LIVE entries in the given buckets only
        (one fold task per bucket)."""
        payload = pa.schema(
            [f for f in (_BANDS_SCHEMA if kind == "bands" else _SIGS_SCHEMA)
             if f.name != "op"]
        )
        refs = []
        for bkt in sorted(set(buckets)):
            files = self._bucket_files(kind, bkt)
            if files:
                refs.append(_read_bucket_task.remote(files, kind))
        if not refs:
            return rd.from_arrow(payload.empty_table())
        return rd.from_arrow_refs(refs)

    # -- signature computation --------------------------------------------------
    @staticmethod
    def signatures(docs: "rd.Dataset") -> "rd.Dataset":
        """(url, text) → (url, minhash); rows without a signature (< k
        tokens) are dropped — they can never band-collide."""
        sigs = docs.map_batches(_UrlMinHash(), batch_format="pyarrow")
        return sigs.map_batches(
            lambda b: b.filter(pc.is_valid(b.column("minhash"))),
            batch_format="pyarrow",
        )

    @staticmethod
    def _sig_rows(op_val: int):
        def fn(b: pa.Table) -> pa.Table:
            op = pa.array(np.full(b.num_rows, op_val, np.int8), type=pa.int8())
            mh = (
                b.column("minhash")
                if op_val == 0
                else pa.nulls(b.num_rows, pa.list_(pa.int64()))
            )
            return pa.table({"op": op, "url": b.column("url"), "minhash": mh})

        return fn

    @staticmethod
    def _band_rows(op_val: int):
        def fn(b: pa.Table) -> pa.Table:
            e = _explode_url_bands(b)
            op = pa.array(np.full(e.num_rows, op_val, np.int8), type=pa.int8())
            return pa.table(
                {"op": op, "url": e.column("url"),
                 "band_hash": e.column("band_hash")}
            )

        return fn

    # -- lifecycle ----------------------------------------------------------------
    def build(self, engine, version: int) -> dict:
        """Full build from the lake snapshot at ``version``."""
        docs = engine.read_snapshot(["url", "text"], version=version)
        sigs = self.signatures(docs).materialize()
        n_sig = self._write_rows(
            "sigs",
            sigs.map_batches(self._sig_rows(0), batch_format="pyarrow"),
            version,
        )
        n_band = self._write_rows(
            "bands",
            sigs.map_batches(self._band_rows(0), batch_format="pyarrow"),
            version,
        )
        self._commit_meta(version)
        return {"version": version, "sig_rows": n_sig, "band_rows": n_band}

    # -- per-commit incremental round -----------------------------------------------
    def _changed_docs(self, engine, v_from: int, v_to: int) -> "rd.Dataset":
        """(url, text) of the I/U urls at v_to, reading ONLY the partitions
        whose file lists differ between the two manifests; small increments
        push the url set into the scan filter itself."""
        m_from = engine.lake.read_manifest(v_from)
        m_to = engine.lake.read_manifest(v_to)

        def files_of(man, p):
            return man.partitions[p].files if p in man.partitions else []

        parts = set(m_from.partitions) | set(m_to.partitions)
        changed_parts = sorted(
            p for p in parts if files_of(m_from, p) != files_of(m_to, p)
        )
        files = lakescan.part_files(m_to, changed_parts)
        if not files:
            return rd.from_arrow(
                pa.schema([("url", pa.string()), ("text", pa.string())]).empty_table()
            )
        incoming = engine.read_changes(v_from, v_to).map_batches(
            lambda b: b.filter(
                pc.not_equal(b.column("change_op"), "D")
            ).select(["url"]),
            batch_format="pyarrow",
        ).materialize()
        small = self._gather_small(incoming)
        if small is not None:
            # small increment: push the url set into the changed-partition
            # scan itself — no exchange, no second pass
            urls = _as_array(small.column("url"))
            return lakescan.scan(
                engine.lake, m_to, files, ["url", "text"],
                (~pc.field("deleted")) & pc.field("url").isin(urls),
            )
        snap = lakescan.scan(
            engine.lake, m_to, files, ["url", "text"], ~pc.field("deleted")
        )

        def semi(left: pa.Table, right: pa.Table) -> pa.Table:
            # left = snapshot rows, right = changed urls (one row per url)
            return left.join(right, keys="url", join_type="inner")

        return exchange_join(
            snap, incoming, ["url"], ["url"], self.n_buckets, semi
        )

    def _touched(self, ds: "rd.Dataset", keys: list[str]) -> list[int]:
        """Distinct index buckets a dataset's keys touch (driver list,
        bounded by n_buckets)."""
        nb = self.n_buckets

        def per_batch(t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table({"bucket": pa.array([], pa.int64())})
            u = np.unique(bucket_ids(t, keys, nb))
            return pa.table({"bucket": pa.array(u, pa.int64())})

        out: set[int] = set()
        for row in ds.map_batches(per_batch, batch_format="pyarrow").take_all():
            out.add(int(row["bucket"]))
        return sorted(out)

    @staticmethod
    def _gather_small(ds: "rd.Dataset") -> pa.Table | None:
        """Materialized dataset → one driver table when it fits
        ``taskshuffle._DRIVER_LOCAL_BYTES``, else None (stay distributed).
        Increments that fit take the small-increment path: driver tables
        and one Ray task wave per index touch instead of keyed exchanges."""
        if int(ds.size_bytes() or 0) > taskshuffle._DRIVER_LOCAL_BYTES:
            return None
        sch = ds.schema(fetch_if_missing=True)
        if sch is None:
            return None
        return collect(ds, pa.schema(sch.base_schema))

    def _per_bucket_wave(
        self, kind: str, table: pa.Table, keys: list[str], task, payload_fn
    ) -> pa.Table:
        """Fan one task per index bucket the table's keys touch, shipping
        each task ONLY its bucket's slice; concat the results."""
        b = bucket_ids(table, keys, self.n_buckets)
        order = np.argsort(b, kind="stable")
        ts = table.take(pa.array(order))
        bs = b[order]
        cuts = np.flatnonzero(np.diff(bs)) + 1
        starts = np.concatenate(([0], cuts))
        ends = np.concatenate((cuts, [len(bs)]))
        refs = []
        for s, e in zip(starts, ends):
            files = self._bucket_files(kind, int(bs[s]))
            if files:
                refs.append(
                    task.remote(files, payload_fn(ts.slice(int(s), int(e - s))))
                )
        tabs = [t for t in ray.get(refs) if t.num_rows]
        return (
            pa.concat_tables(tabs, promote_options="permissive").combine_chunks()
            if tabs
            else None
        )

    def _probe_small(self, sigs_t: pa.Table) -> pa.Table:
        """Small-increment probe: the incoming signature table lives on the
        driver (bounded by _DRIVER_LOCAL_BYTES); two task waves — candidate
        generation per touched band bucket, signature fetch per touched sig
        bucket — then one vectorized local score."""
        empty = _PAIRS_SCHEMA.empty_table()
        if sigs_t.num_rows == 0:
            return empty
        bands_t = _explode_url_bands(sigs_t)
        if bands_t.num_rows == 0:
            return empty
        cands = self._per_bucket_wave(
            "bands", bands_t, ["band_hash"], _probe_bucket_task, lambda t: t
        )
        if cands is None:
            return empty
        cands = cands.group_by(["new_url", "old_url"]).aggregate([])
        old = self._per_bucket_wave(
            "sigs",
            cands,
            ["old_url"],
            _sig_fetch_task,
            lambda t: pc.unique(_as_array(t.column("old_url"))),
        )
        if old is None:
            return empty
        oi = pc.index_in(cands.column("old_url"), value_set=old.column("url"))
        ni = pc.index_in(cands.column("new_url"), value_set=sigs_t.column("url"))
        ok = pc.and_(pc.is_valid(oi), pc.is_valid(ni))
        cands = cands.filter(ok)
        oi = pc.filter(oi, ok).to_numpy(zero_copy_only=False).astype(np.int64)
        ni = pc.filter(ni, ok).to_numpy(zero_copy_only=False).astype(np.int64)
        if len(oi) == 0:
            return empty
        old_m = (
            pc.list_flatten(_as_array(old.column("minhash")))
            .to_numpy()
            .reshape(old.num_rows, N_PERM)[oi]
        )
        new_m = (
            pc.list_flatten(_as_array(sigs_t.column("minhash")))
            .to_numpy()
            .reshape(sigs_t.num_rows, N_PERM)[ni]
        )
        match = (old_m == new_m).sum(axis=1).astype(np.int64)
        keep = match >= SIG_MATCH_MIN
        out = pa.table(
            {
                "new_url": pc.filter(
                    _as_array(cands.column("new_url")), pa.array(keep)
                ),
                "old_url": pc.filter(
                    _as_array(cands.column("old_url")), pa.array(keep)
                ),
                "sig_match": pa.array(match[keep], pa.int64()),
                "est_sim": pa.array(match[keep] / float(N_PERM), pa.float64()),
            }
        )
        return out

    def probe(self, engine, v_from: int, v_to: int, *, sort_by=None) -> "rd.Dataset":
        """Near-dup pairs (new_url, old_url, sig_match, est_sim) between the
        v_from→v_to incoming documents and the indexed corpus (state v_from),
        in ``sort_by`` order when given (as in ``taskshuffle.exchange_join``).
        Self-pairs (an update colliding with its own old version) are
        excluded. The base documents' text is never read. Small increments
        (the common case) run on the broadcast fast path; large ones on
        keyed task exchanges."""
        if self.version != v_from:
            raise ValueError(
                f"index reflects version {self.version}, probe needs {v_from}"
            )
        incoming = self._changed_docs(engine, v_from, v_to)
        new_sigs = self.signatures(
            incoming.select_columns(["url", "text"])
        ).materialize()
        small = self._gather_small(new_sigs)
        if small is not None:
            t = self._probe_small(small)
            return local_dataset(t if sort_by is None else sort_table(t, sort_by))
        probe_bands = new_sigs.map_batches(
            _explode_url_bands, batch_format="pyarrow"
        ).materialize()

        idx_bands = self._read_buckets(
            "bands", self._touched(probe_bands, ["band_hash"])
        )

        def cand_kernel(pb: pa.Table, ib: pa.Table) -> pa.Table:
            pb = pb.rename_columns(["new_url", "band_hash"])
            ib = ib.rename_columns(["old_url", "band_hash"])
            j = pb.join(ib, keys="band_hash", join_type="inner")
            j = j.filter(
                pc.not_equal(j.column("new_url"), j.column("old_url"))
            )
            return (
                j.select(["new_url", "old_url"])
                .group_by(["new_url", "old_url"])
                .aggregate([])
            )

        cands = exchange_join(
            probe_bands,
            idx_bands,
            ["band_hash"],
            ["band_hash"],
            self.n_buckets,
            cand_kernel,
        )
        # the same pair can surface under several bands in different buckets
        # → one more keyed exchange for the global distinct
        cands = materialized(
            exchange_group(
                cands,
                ["new_url", "old_url"],
                self.n_buckets,
                lambda t: t.group_by(["new_url", "old_url"]).aggregate([]),
            )
        )

        if cands.count() == 0:
            return local_dataset(_PAIRS_SCHEMA.empty_table())

        old_sigs = self._read_buckets(
            "sigs", self._touched(cands, ["old_url"])
        )

        def attach_old(ct: pa.Table, st: pa.Table) -> pa.Table:
            c, s = _join_take(ct, st, "old_url", "url")
            return c.append_column("old_minhash", s.column("minhash"))

        with_old = exchange_join(
            cands, old_sigs, ["old_url"], ["url"], self.n_buckets, attach_old
        )

        def score(ct: pa.Table, st: pa.Table) -> pa.Table:
            c, s = _join_take(ct, st, "new_url", "url")
            if c.num_rows == 0:
                return _PAIRS_SCHEMA.empty_table()
            a = (
                pc.list_flatten(_as_array(s.column("minhash")))
                .to_numpy()
                .reshape(c.num_rows, N_PERM)
            )
            b = (
                pc.list_flatten(_as_array(c.column("old_minhash")))
                .to_numpy()
                .reshape(c.num_rows, N_PERM)
            )
            match = (a == b).sum(axis=1).astype(np.int64)
            out = pa.table(
                {
                    "new_url": c.column("new_url"),
                    "old_url": c.column("old_url"),
                    "sig_match": pa.array(match, pa.int64()),
                    "est_sim": pa.array(match / float(N_PERM), pa.float64()),
                }
            )
            return out.filter(
                pc.greater_equal(
                    out.column("sig_match"),
                    pa.scalar(SIG_MATCH_MIN, pa.int64()),
                )
            )

        return exchange_join(
            with_old, new_sigs, ["new_url"], ["url"], self.n_buckets, score,
            sort_by=sort_by,
        )

    def _update_small(
        self, sigs_t: pa.Table, removed_t: pa.Table, v_to: int
    ) -> dict:
        """Small-increment update: one sig-fetch task wave for the removed
        urls' old signatures, then a single driver-side grouped write per
        sidecar (rows bounded by _DRIVER_LOCAL_BYTES)."""
        band_parts = [self._band_rows(0)(sigs_t)]
        sig_parts = [self._sig_rows(0)(sigs_t)]
        n_del = 0
        if removed_t.num_rows:
            gone = self._per_bucket_wave(
                "sigs",
                removed_t,
                ["url"],
                _sig_fetch_task,
                lambda t: pc.unique(_as_array(t.column("url"))),
            )
            if gone is not None and gone.num_rows:
                n_del = gone.num_rows
                band_parts.append(self._band_rows(1)(gone))
                sig_parts.append(self._sig_rows(1)(gone))
        band_t = pa.concat_tables(band_parts, promote_options="permissive")
        sig_t = pa.concat_tables(sig_parts, promote_options="permissive")
        n_band = self._write_rows("bands", rd.from_arrow(band_t), v_to)
        n_sig = self._write_rows("sigs", rd.from_arrow(sig_t), v_to)
        self._commit_meta(v_to)
        return {
            "version": v_to,
            "band_adds": sigs_t.num_rows * N_BANDS,
            "band_dels": n_del * N_BANDS,
            "sig_adds": sigs_t.num_rows,
            "sig_dels": n_del,
            "band_rows_written": n_band,
            "sig_rows_written": n_sig,
        }

    def update(self, engine, v_from: int, v_to: int) -> dict:
        """Advance the index from v_from to v_to: delete rows for U/D urls
        (band deletes routed via their OLD signatures — read from the index,
        not the lake), add rows for the I/U signatures, commit the version
        bump LAST. Equivalent to a fresh build at v_to (pytest parity)."""
        if self.version != v_from:
            raise ValueError(
                f"index reflects version {self.version}, update needs {v_from}"
            )
        removed = engine.read_changes(v_from, v_to).map_batches(
            lambda b: b.filter(
                pc.not_equal(b.column("change_op"), "I")
            ).select(["url"]),
            batch_format="pyarrow",
        ).materialize()

        # del rows and add rows for one version MUST land in the same write
        # pass per kind — the per-(bucket, version) file name is
        # deterministic (idempotent retry), so two passes would overwrite
        # each other in any bucket both touch
        incoming = self._changed_docs(engine, v_from, v_to)
        new_sigs = self.signatures(
            incoming.select_columns(["url", "text"])
        ).materialize()
        small_sigs = self._gather_small(new_sigs)
        small_removed = self._gather_small(removed)
        if small_sigs is not None and small_removed is not None:
            return self._update_small(small_sigs, small_removed, v_to)
        band_ds = new_sigs.map_batches(self._band_rows(0), batch_format="pyarrow")
        sig_ds = new_sigs.map_batches(self._sig_rows(0), batch_format="pyarrow")
        n_del = 0
        if removed.count() > 0:
            old_sigs = self._read_buckets(
                "sigs", self._touched(removed, ["url"])
            )

            def semi(st: pa.Table, rt: pa.Table) -> pa.Table:
                c, _ = _join_take(st, rt, "url", "url")
                return c

            gone_sigs = materialized(
                exchange_join(old_sigs, removed, ["url"], ["url"], self.n_buckets, semi)
            )
            n_del = gone_sigs.count()
            band_ds = band_ds.union(
                gone_sigs.map_batches(self._band_rows(1), batch_format="pyarrow")
            )
            sig_ds = sig_ds.union(
                gone_sigs.map_batches(self._sig_rows(1), batch_format="pyarrow")
            )

        n_add = new_sigs.count()
        n_band = self._write_rows("bands", band_ds, v_to)
        n_sig = self._write_rows("sigs", sig_ds, v_to)
        self._commit_meta(v_to)
        return {
            "version": v_to,
            "band_adds": n_add * N_BANDS,
            "band_dels": n_del * N_BANDS,
            "sig_adds": n_add,
            "sig_dels": n_del,
            "band_rows_written": n_band,
            "sig_rows_written": n_sig,
        }

    def compact(self) -> dict:
        """Fold every bucket's version history into one file per bucket and
        drop the history — the index analogue of the lake's ``compact``.

        Crash-safety: the compacted file is written under the CURRENT
        version's deterministic name and contains (a) a delete row for
        EVERY url that ever appeared in the bucket and (b) add rows for the
        live entries. The dels shadow all older adds (add@v < del@ver) while
        the same-version adds survive (the >= fold rule), so a fold over the
        compacted file plus ANY subset of the superseded files — the state a
        crash between the write and the removals leaves behind — equals the
        live state. Removals can then proceed in any order."""
        if self.version is None:
            raise ValueError("compact before build")
        ver = int(self.version)
        root = self.root
        stats = {"buckets": 0, "files_removed": 0, "rows": 0}
        work = []
        for kind in ("bands", "sigs"):
            for bkt in range(self.n_buckets):
                files = self._bucket_files(kind, bkt)
                if len(files) < 2:
                    continue
                work.append((kind, bkt, files))

        @ray.remote
        def compact_bucket(kind: str, bkt: int, files) -> tuple[int, int]:
            schema = _BANDS_SCHEMA if kind == "bands" else _SIGS_SCHEMA
            tabs = []
            for fver, path in files:
                t = pq.read_table(path)
                tabs.append(
                    t.append_column(
                        "version",
                        pa.array(np.full(t.num_rows, fver), type=pa.int64()),
                    )
                )
            hist = pa.concat_tables(tabs, promote_options="permissive")
            payload = pa.schema([f for f in schema if f.name != "op"])
            live = _fold_lww(hist, payload)
            all_urls = pc.unique(_as_array(hist.column("url")))
            n_del, n_add = len(all_urls), live.num_rows
            cols = {
                "op": pa.concat_arrays(
                    [
                        pa.array(np.ones(n_del, np.int8), type=pa.int8()),
                        pa.array(np.zeros(n_add, np.int8), type=pa.int8()),
                    ]
                ),
                "url": pa.concat_arrays(
                    [all_urls, _as_array(live.column("url"))]
                ),
            }
            for f in schema:
                if f.name in ("op", "url"):
                    continue
                cols[f.name] = pa.concat_arrays(
                    [
                        pa.nulls(n_del, f.type),
                        _as_array(live.column(f.name)).cast(f.type),
                    ]
                )
            out = pa.table(cols).select([f.name for f in schema])
            d = os.path.join(root, kind, f"b{bkt:05d}")
            tmp = os.path.join(d, f".v{ver:06d}.parquet.tmp")
            pq.write_table(out, tmp, compression="zstd")
            os.replace(tmp, os.path.join(d, f"v{ver:06d}.parquet"))
            removed = 0
            for fver, path in files:
                if fver != ver:
                    os.remove(path)
                    removed += 1
            return live.num_rows, removed

        for rows, removed in ray.get(
            [compact_bucket.remote(k, b, f) for k, b, f in work]
        ):
            stats["buckets"] += 1
            stats["files_removed"] += removed
            stats["rows"] += rows
        return stats

    def ingest_round(self, engine, v_from: int, v_to: int):
        """The per-commit maintenance step: probe THEN update, sharing one
        changed-docs + signature pass on the small-increment path. Returns
        (pairs Dataset, update stats)."""
        if self.version != v_from:
            raise ValueError(
                f"index reflects version {self.version}, round needs {v_from}"
            )
        incoming = self._changed_docs(engine, v_from, v_to)
        new_sigs = self.signatures(
            incoming.select_columns(["url", "text"])
        ).materialize()
        small_sigs = self._gather_small(new_sigs)
        removed = engine.read_changes(v_from, v_to).map_batches(
            lambda b: b.filter(
                pc.not_equal(b.column("change_op"), "I")
            ).select(["url"]),
            batch_format="pyarrow",
        ).materialize()
        small_removed = self._gather_small(removed)
        if small_sigs is not None and small_removed is not None:
            pairs = local_dataset(self._probe_small(small_sigs))
            stats = self._update_small(small_sigs, small_removed, v_to)
            return pairs, stats
        # large increment: the extra pass of the sequential full paths is
        # amortized by the increment size itself
        pairs = materialized(self.probe(engine, v_from, v_to))
        stats = self.update(engine, v_from, v_to)
        return pairs, stats

    def snapshot_entries(self, kind: str) -> pa.Table:
        """All live entries of one sidecar (tests / parity checks only)."""
        payload = pa.schema(
            [f for f in (_BANDS_SCHEMA if kind == "bands" else _SIGS_SCHEMA)
             if f.name != "op"]
        )
        return collect(self._read_buckets(kind, list(range(self.n_buckets))), payload)


# ---------------------------------------------------------------------------
# Oracle-checked entry: replay the flagship changelog (two incremental
# commits), build the signature index at v1, probe the v1→v2 changes against
# it. The SQL oracle reconstructs BOTH corpora from the documents table
# alone — the v1-state texts (the indexed base) and the I/U incoming docs
# with their v2-state texts — and reruns the full MinHash/LSH arithmetic via
# the shared bit-exact HUGEINT fragments (pipelines/dedup.py).
# ---------------------------------------------------------------------------
QUERIES: dict = {}


def _incremental_sql() -> str:
    from radiant_portal_pipeline_ray.pipelines.dedup import (
        minhash_sql_fragments,
    )

    f = minhash_sql_fragments(N_PERM, N_BANDS, ROWS_PER_BAND, SEED)
    return f"""
    WITH d AS (
      SELECT doc_id, text,
             'https://' || source || '.example.net/doc/' ||
               lpad(CAST(doc_id AS VARCHAR), 8, '0') AS url,
             ROW_NUMBER() OVER (ORDER BY doc_id) AS rn,
             COUNT(*) OVER () AS n
      FROM documents
    ), upd AS (
      SELECT doc_id, ROW_NUMBER() OVER (ORDER BY doc_id) AS ur,
             COUNT(*) OVER () AS nu
      FROM documents WHERE doc_id % 3 = 0
    ), del AS (
      SELECT doc_id, ROW_NUMBER() OVER (ORDER BY doc_id) AS dr
      FROM documents WHERE doc_id % 17 = 0
    ), events AS (
      SELECT doc_id, url, rn AS lsn, 'I' AS op FROM d
      UNION ALL
      SELECT d.doc_id, d.url, d.n + upd.ur, 'U' FROM d JOIN upd USING (doc_id)
      UNION ALL
      SELECT d.doc_id, d.url, d.n + (SELECT max(nu) FROM upd) + del.dr, 'D'
      FROM d JOIN del USING (doc_id)
    ), bounds AS (
      SELECT CAST(COUNT(*) // 2 AS BIGINT) AS mid FROM events
    ), s1 AS (
      SELECT doc_id, url, lsn, op FROM (
        SELECT e.*, ROW_NUMBER() OVER (PARTITION BY url ORDER BY lsn DESC) AS k
        FROM events e, bounds WHERE lsn <= bounds.mid
      ) WHERE k = 1
    ), s2 AS (
      SELECT doc_id, url, lsn, op FROM (
        SELECT e.*, ROW_NUMBER() OVER (PARTITION BY url ORDER BY lsn DESC) AS k
        FROM events e
      ) WHERE k = 1
    ), corpus AS (
      -- base: live at v1, text as committed at v1 (an update already applied
      -- in batch 1 leaves the v2 text in the v1 snapshot)
      SELECT 'base' AS side, s1.url AS url,
             CASE WHEN s1.op = 'U' THEN 'v2' ELSE 'v1' END AS vtok,
             d.text AS text
      FROM s1 JOIN d ON s1.doc_id = d.doc_id WHERE s1.op <> 'D'
      UNION ALL
      -- inc: the I/U change-feed urls with their v2-state text
      SELECT 'inc', s2.url,
             CASE WHEN s2.op = 'U' THEN 'v2' ELSE 'v1' END,
             d.text
      FROM s2 JOIN d ON s2.doc_id = d.doc_id
      LEFT JOIN s1 ON s1.url = s2.url
      WHERE s2.op <> 'D'
        AND (s1.url IS NULL OR s1.op = 'D' OR s1.lsn <> s2.lsn)
    ), w0 AS (
      -- lake text = extract_text(html) = "<url> v<N> <doc text>"
      SELECT side, url,
             list_concat([url, vtok],
               list_filter(string_split(trim(text), ' '), x -> x <> '')) AS toks
      FROM corpus
    ), sh0 AS (
      SELECT DISTINCT side, url,
             toks[i] || ' ' || toks[i+1] || ' ' || toks[i+2] AS s
      FROM w0, UNNEST(range(1, len(toks) - 1)) AS t(i)
      WHERE len(toks) >= 3
    ), hh AS (
      SELECT DISTINCT side, url,
             CAST('0x' || substr(md5(s), 1, 16) AS UBIGINT) AS h
      FROM sh0
    ), sig AS (
      SELECT side, url,
             {f["mins"]}
      FROM hh GROUP BY side, url
    ), bands AS (
      SELECT side, url,
             {f["bands"]}
      FROM sig
    ), cand AS (
      SELECT DISTINCT a.url AS new_url, b.url AS old_url
      FROM bands a JOIN bands b
        ON a.url <> b.url AND ({f["band_match"]})
      WHERE a.side = 'inc' AND b.side = 'base'
    ), m AS (
      SELECT c.new_url, c.old_url,
             ({f["sig_match"]}) AS sig_match
      FROM cand c
      JOIN sig a ON a.side = 'inc' AND a.url = c.new_url
      JOIN sig b ON b.side = 'base' AND b.url = c.old_url
    )
    SELECT new_url, old_url,
           CAST(sig_match AS BIGINT) AS sig_match,
           sig_match / 64.0 AS est_sim
    FROM m WHERE sig_match >= {SIG_MATCH_MIN}
    ORDER BY new_url, old_url
    """


def dd_incremental_neardup(sf_dir: str):
    """Flagship replay → signature index at v1 → probe the v1→v2 changes.
    O(changed) end to end: manifest-pruned change feed, changed-partition
    text read, touched-bucket index reads; base text never read."""
    import shutil
    import tempfile

    from radiant_portal_pipeline_ray.config import EngineConfig
    from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
    from radiant_portal_pipeline_ray.pipelines.flagship import (
        documents_changelog,
    )

    work = tempfile.mkdtemp(prefix="dd_incr_")
    try:
        paths = documents_changelog(sf_dir, os.path.join(work, "changelog"))
        eng = CdcEngine(os.path.join(work, "lake"), EngineConfig(n_parts=8))
        for p in paths:
            eng.apply([p])
        idx = SignatureIndex(os.path.join(work, "sigindex"), n_buckets=32)
        idx.build(eng, 1)
        # materialized: the lake under /tmp is removed on return
        return materialized(idx.probe(eng, 1, 2, sort_by=["new_url", "old_url"]))
    finally:
        shutil.rmtree(work, ignore_errors=True)


QUERIES["dd_incremental_neardup"] = (dd_incremental_neardup, _incremental_sql())
