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
so a crashed update is invisible. The next update removes its files before
writing, whether it retries the same version or catches up past it.

Per-commit flow. ``probe``, ``update`` and ``ingest_round`` share one round
pass (``_round_inputs``, steps 1-3), at every increment size:

1. ``read_changes(v_from, v_to)`` → the I/U urls (to sign) and the U/D urls
   (to delete), O(changed) and manifest-pruned (``pipelines/changefeed.py``).
2. Incoming docs' text is read from ONLY the partitions whose file lists
   changed between the two manifests (a changed row always rewrites its
   partition) and semi-joined to the I/U urls — never a full-lake scan.
3. MinHash + band-explode the incoming docs (same kernels as dd_minhash_lsh:
   ``MinHashStage``, ``make_band_exploder``).
4. ``probe``: a bucket wave (``_wave``) routes the incoming band hashes to
   the band buckets they touch; each touched bucket's files are folded once
   and joined on ``band_hash`` for candidates. After a keyed distinct, a
   second wave attaches the old side's signature from the sig buckets (the base
   documents' TEXT is never read), and a keyed join with the incoming
   signatures keeps pairs with ≥ ``SIG_MATCH_MIN``/64 agreeing components
   (estimated Jaccard ≥ 0.5).
5. ``update``: a sig wave fetches the U/D urls' OLD signatures, whose band
   hashes route the delete rows; add rows carry the I/U signatures; both
   land in one write pass per sidecar, then the version bump — index state
   == fresh rebuild at v_to (pytest-verified parity).

Every step is a ``taskshuffle`` operator: ``map_blocks`` and the keyed
exchanges. A wave is an ``exchange_group`` on the rows' index bucket, whose
kernel folds the files of the buckets its rows reach. So an increment small
enough for the driver is routed, folded and written there, and a larger one
runs in the exchange's split and bucket tasks. The exchange sizes its own
bucket count from the bytes it moves; the index's ``n_buckets`` is only its
stored file layout, and an exchange bucket folds every index bucket whose
rows it gets. The index weighs no size of its own.

Catch-up: like any derived state, the index is tied to the lake version it
reflects (``version``), and ``read_changes`` diffs any two retained
versions, so one round may advance it over several lake commits. The tail
loop (``pipelines/tail.py``) does that after a lost update, and rebuilds
only when gc has pruned the index's base version.

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
import shutil
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from radiant_portal_pipeline_ray.stages.dedup import MinHashStage, make_band_exploder
from radiant_portal_pipeline_ray.stages.taskshuffle import (
    _driver_local,
    bucket_ids,
    collect,
    exchange_group,
    exchange_join,
    map_blocks,
    materialized,
    schema_of,
    split_blocks,
    union,
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

_CANDS_SCHEMA = pa.schema(
    [pa.field("new_url", pa.string()), pa.field("old_url", pa.string())]
)
_WITH_OLD_SCHEMA = _CANDS_SCHEMA.append(
    pa.field("old_minhash", pa.list_(pa.int64()))
)
_PAIRS_SCHEMA = pa.schema(
    [
        pa.field("new_url", pa.string()),
        pa.field("old_url", pa.string()),
        pa.field("sig_match", pa.int64()),
        pa.field("est_sim", pa.float64()),
    ]
)
#: one write task's marker per bucket file: its rows, of which deletes
_MARKERS_SCHEMA = pa.schema(
    [
        pa.field("bucket", pa.int64()),
        pa.field("rows", pa.int64()),
        pa.field("dels", pa.int64()),
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


def _payload(kind: str) -> pa.Schema:
    """A sidecar's live-entry columns: its file schema without ``op``."""
    schema = _BANDS_SCHEMA if kind == "bands" else _SIGS_SCHEMA
    return pa.schema([f for f in schema if f.name != "op"])


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


def _history(files: list[tuple[int, str]]) -> pa.Table | None:
    """One bucket's ``(version, path)`` files read into one table, each row
    tagged with its file's ``version``; None without files."""
    tabs = []
    for ver, path in files:
        t = pq.read_table(path)
        tabs.append(
            t.append_column(
                "version", pa.array(np.full(t.num_rows, ver), type=pa.int64())
            )
        )
    return pa.concat_tables(tabs, promote_options="permissive") if tabs else None


def _fold_files(files: list[tuple[int, str]], kind: str) -> pa.Table:
    """One bucket's live entries: its files' history folded by
    :func:`_fold_lww`."""
    hist = _history(files)
    if hist is None:
        return _payload(kind).empty_table()
    return _fold_lww(hist, _payload(kind)).combine_chunks()


def _split_by_bucket(keys: list[str], n_buckets: int, *tables) -> list:
    """``taskshuffle.split_blocks`` as a list: one table (or None) per
    index bucket, also when there is one bucket."""
    out = split_blocks(keys, n_buckets, *tables)
    return list(out) if n_buckets > 1 else [out]


def _with_bucket(keys: list[str], n_buckets: int, t: pa.Table) -> pa.Table:
    """``t`` with its rows' index bucket as a ``bucket`` column: the key an
    index exchange routes on, so each index bucket's rows meet in one
    kernel call whatever the exchange's own bucket count."""
    return t.append_column(
        "bucket", pa.array(bucket_ids(t, keys, n_buckets), type=pa.int64())
    )


# -- bucket kernels: ``kernel(live, rows)`` over one index bucket's live
# entries and the rows a wave routed to that bucket ---------------------------
def _candidates(live: pa.Table, bands: pa.Table) -> pa.Table:
    """Band bucket: incoming (url, band_hash) rows joined to the live
    entries on ``band_hash`` → distinct (new_url, old_url), self-pairs (an
    update colliding with its own old version) dropped."""
    pb = bands.rename_columns(["new_url", "band_hash"])
    ib = live.rename_columns(["old_url", "band_hash"])
    j = pb.join(ib, keys="band_hash", join_type="inner")
    j = j.filter(pc.not_equal(j.column("new_url"), j.column("old_url")))
    return (
        j.select(["new_url", "old_url"])
        .group_by(["new_url", "old_url"])
        .aggregate([])
    )


def _with_old_sigs(live: pa.Table, cands: pa.Table) -> pa.Table:
    """Sig bucket (probe): each candidate pair with its old url's live
    signature as ``old_minhash``."""
    c, s = _join_take(cands, live, "old_url", "url")
    return c.append_column("old_minhash", s.column("minhash"))


def _live_sigs(live: pa.Table, removed: pa.Table) -> pa.Table:
    """Sig bucket (update): the live (url, minhash) entries of the removed
    urls."""
    urls = _as_array(removed.column("url"))
    return live.filter(pc.fill_null(pc.is_in(live.column("url"), value_set=urls), False))


def _fold_buckets(
    kernel, kind: str, files: dict, keys: list[str], n_buckets: int,
    out: pa.Schema, rows: pa.Table,
) -> pa.Table:
    """A wave's exchange kernel: ``rows`` are one or more whole index
    buckets' rows (:func:`_with_bucket`). Each of those buckets that has
    ``kind`` files is folded (``files``: bucket → its files) and
    ``kernel(live, its rows)`` runs; ``out``'s empty table when none
    does. A bucket no row reached reads no file."""
    subs = _split_by_bucket(keys, n_buckets, rows.drop_columns(["bucket"]))
    res = [
        kernel(_fold_files(files[b], kind), sub)
        for b, sub in enumerate(subs)
        if sub is not None and b in files
    ]
    return pa.concat_tables(res, promote_options="permissive") if res else out.empty_table()


def _score(cands: pa.Table, sigs: pa.Table) -> pa.Table:
    """Candidate pairs with ``old_minhash`` × incoming (url, minhash) on
    ``new_url``: the agreeing components, kept at ≥ ``SIG_MATCH_MIN``."""
    c, s = _join_take(cands, sigs, "new_url", "url")
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
            out.column("sig_match"), pa.scalar(SIG_MATCH_MIN, pa.int64())
        )
    )


@ray.remote
def _compact_bucket(
    root: str, kind: str, bkt: int, ver: int, files: list[tuple[int, str]]
) -> tuple[int, int]:
    """Fold one bucket's history (two or more files) into one file at
    version ``ver`` (layout in ``SignatureIndex.compact``), then remove the
    superseded files. Returns (live rows, files removed)."""
    schema = _BANDS_SCHEMA if kind == "bands" else _SIGS_SCHEMA
    hist = _history(files)
    live = _fold_lww(hist, _payload(kind))
    all_urls = pc.unique(_as_array(hist.column("url")))
    n_del, n_add = len(all_urls), live.num_rows
    cols = {
        "op": pa.concat_arrays(
            [
                pa.array(np.ones(n_del, np.int8), type=pa.int8()),
                pa.array(np.zeros(n_add, np.int8), type=pa.int8()),
            ]
        ),
        "url": pa.concat_arrays([all_urls, _as_array(live.column("url"))]),
    }
    for f in schema:
        if f.name in ("op", "url"):
            continue
        cols[f.name] = pa.concat_arrays(
            [pa.nulls(n_del, f.type), _as_array(live.column(f.name)).cast(f.type)]
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


class SignatureIndex:
    """Persistent, incrementally-maintained LSH+signature sidecar index
    (layout, crash-safety and the one round path in the module docstring).
    ``version`` is the lake version it reflects; a round advances it from
    there to any later retained version. ``root`` is a local /
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

    def _all_files(self, kind: str, bucket: int) -> list[tuple[int, str]]:
        """(version, path) of every file in this bucket, acknowledged or
        not."""
        d = self._bucket_dir(kind, bucket)
        if not os.path.isdir(d):
            return []
        return [
            (int(name[1:-8]), os.path.join(d, name))
            for name in sorted(os.listdir(d))
            if name.startswith("v") and name.endswith(".parquet")
        ]

    def _bucket_files(self, kind: str, bucket: int) -> list[tuple[int, str]]:
        """(version, path) of this bucket's files acknowledged by meta."""
        if self.version is None:
            return []
        return [(v, p) for v, p in self._all_files(kind, bucket) if v <= self.version]

    def _drop_unacknowledged(self) -> None:
        """Remove every file newer than ``version``: a round that died
        before its version bump left them. Readers ignore them already,
        but a round that advances the version past theirs would fold them
        in, so each write pass starts by removing them."""
        for kind in ("bands", "sigs"):
            for bkt in range(self.n_buckets):
                for ver, path in self._all_files(kind, bkt):
                    if ver > self.version:
                        os.remove(path)

    def _commit_meta(self, version: int | None) -> None:
        self.meta["version"] = version
        tmp = self.meta_path + ".tmp"
        os.makedirs(self.root, exist_ok=True)
        with open(tmp, "w") as f:
            json.dump(self.meta, f)
        os.replace(tmp, self.meta_path)

    def _write_rows(self, kind: str, ds: "rd.Dataset", version: int) -> tuple[int, int]:
        """Hash-partition add/del rows into the index buckets and append ONE
        deterministically-named file per touched bucket (idempotent retry).
        The exchange is keyed on the PRECOMPUTED bucket id so each logical
        bucket lands in exactly one writer — a raw-key exchange could split
        one bucket's keys across writers and have them overwrite each
        other's (deterministic) file. Returns the rows written and, of
        those, the deletes, summed from the collected write markers."""
        keys = ["band_hash"] if kind == "bands" else ["url"]
        nb = self.n_buckets
        root = self.root

        def write_buckets(t: pa.Table) -> pa.Table:
            marks = {"bucket": [], "rows": [], "dels": []}
            subs = _split_by_bucket(keys, nb, t.drop_columns(["bucket"]))
            for bid, sub in enumerate(subs):
                if sub is None:
                    continue
                d = os.path.join(root, kind, f"b{bid:05d}")
                os.makedirs(d, exist_ok=True)
                tmp_path = os.path.join(d, f".v{version:06d}.parquet.tmp")
                pq.write_table(sub, tmp_path, compression="zstd")
                os.replace(tmp_path, os.path.join(d, f"v{version:06d}.parquet"))
                marks["bucket"].append(bid)
                marks["rows"].append(sub.num_rows)
                marks["dels"].append(int(np.count_nonzero(sub.column("op").to_numpy() == 1)))
            return pa.table(marks, schema=_MARKERS_SCHEMA)

        markers = collect(
            exchange_group(
                ds, ["bucket"], write_buckets, pre=partial(_with_bucket, keys, nb)
            ),
            _MARKERS_SCHEMA,
        )
        return (
            int(pc.sum(markers.column("rows")).as_py() or 0),
            int(pc.sum(markers.column("dels")).as_py() or 0),
        )

    def _wave(self, kind: str, ds: "rd.Dataset", keys: list[str], kernel, out: pa.Schema):
        """``kernel(live, rows)`` per index bucket that ``ds``'s ``keys``
        touch and that has ``kind`` files: one keyed exchange on the rows'
        index bucket (:func:`_with_bucket`), whose kernel folds each of its
        buckets' files (:func:`_fold_buckets`). ``out``'s empty table when
        ``ds`` has no rows."""
        nb = self.n_buckets
        files = {b: f for b in range(nb) if (f := self._bucket_files(kind, b))}
        res = exchange_group(
            ds, ["bucket"], partial(_fold_buckets, kernel, kind, files, keys, nb, out),
            pre=partial(_with_bucket, keys, nb),
        )
        return res if schema_of(res) is not None else out.empty_table()

    # -- signature computation --------------------------------------------------
    @staticmethod
    def signatures(docs: "rd.Dataset") -> "rd.Dataset":
        """(url, text) → (url, minhash); rows without a signature (< k
        tokens) are dropped — they can never band-collide."""
        sigs = map_blocks(docs, _UrlMinHash())
        return map_blocks(sigs, lambda b: b.filter(pc.is_valid(b.column("minhash"))))

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
        """Full build from the lake snapshot at ``version``, replacing
        whatever the root held: an old index's files would fold their stale
        adds back in. Until the build commits, the index reflects no
        version, so a crash leaves it to be built again."""
        self._commit_meta(None)
        for kind in ("bands", "sigs"):
            shutil.rmtree(os.path.join(self.root, kind), ignore_errors=True)
        docs = engine.read_snapshot(["url", "text"], version=version)
        sigs = materialized(self.signatures(docs))
        n_sig, _ = self._write_rows("sigs", map_blocks(sigs, self._sig_rows(0)), version)
        n_band, _ = self._write_rows("bands", map_blocks(sigs, self._band_rows(0)), version)
        self._commit_meta(version)
        return {"version": version, "sig_rows": n_sig, "band_rows": n_band}

    # -- per-commit incremental round -----------------------------------------------
    def _changed_docs(self, engine, v_from: int, v_to: int, incoming) -> "rd.Dataset":
        """(url, text) at v_to of the ``incoming`` urls, reading ONLY the
        partitions whose file lists differ between the two manifests; a url
        set already on the driver is pushed into the scan filter itself,
        a larger one semi-joins in a keyed exchange."""
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
            return pa.schema([("url", pa.string()), ("text", pa.string())]).empty_table()
        incoming = materialized(incoming)
        if _driver_local(incoming):
            urls = collect(incoming, pa.schema([("url", pa.string())])).column("url")
            return lakescan.scan(
                engine.lake, m_to, files, ["url", "text"],
                (~pc.field("deleted")) & pc.field("url").isin(_as_array(urls)),
            )
        snap = lakescan.scan(
            engine.lake, m_to, files, ["url", "text"], ~pc.field("deleted")
        )

        def semi(left: pa.Table, right: pa.Table) -> pa.Table:
            # left = snapshot rows, right = changed urls (one row per url)
            return left.join(right, keys="url", join_type="inner")

        return exchange_join(snap, incoming, ["url"], ["url"], semi)

    def _round_inputs(self, engine, v_from: int, v_to: int, op: str):
        """The round pass ``probe``, ``update`` and ``ingest_round`` share:
        the incoming (I/U) documents' signatures, materialized, and the
        removed (U/D) urls, from one ``read_changes``."""
        if self.version != v_from:
            raise ValueError(
                f"index reflects version {self.version}, {op} needs {v_from}"
            )
        changes = engine.read_changes(v_from, v_to)

        def urls_except(change_op: str):
            return lambda b: b.filter(
                pc.not_equal(b.column("change_op"), change_op)
            ).select(["url"])

        docs = self._changed_docs(
            engine, v_from, v_to, map_blocks(changes, urls_except("D"))
        )
        new_sigs = materialized(self.signatures(docs))
        return new_sigs, map_blocks(changes, urls_except("I"))

    def _pairs(self, new_sigs: "rd.Dataset", sort_by=None) -> "rd.Dataset":
        """Near-dup pairs of the incoming signatures against the index:
        candidates per band bucket, a keyed distinct (a pair can collide in
        several bands, in different buckets), the old signatures per sig
        bucket, then the score join on ``new_url``."""
        if schema_of(new_sigs) is None:  # no incoming document
            return _PAIRS_SCHEMA.empty_table()
        nb = self.n_buckets
        cands = self._wave(
            "bands", map_blocks(new_sigs, _explode_url_bands), ["band_hash"],
            _candidates, _CANDS_SCHEMA,
        )
        cands = exchange_group(
            cands, ["new_url", "old_url"],
            lambda t: t.group_by(["new_url", "old_url"]).aggregate([]),
        )
        with_old = self._wave(
            "sigs", cands, ["old_url"], _with_old_sigs, _WITH_OLD_SCHEMA
        )
        return exchange_join(
            with_old, new_sigs, ["new_url"], ["url"], _score, sort_by=sort_by
        )

    def _update(self, new_sigs: "rd.Dataset", removed: "rd.Dataset", v_to: int) -> dict:
        """Delete rows for the removed urls (band deletes routed via their
        OLD signatures — read from the index, not the lake), add rows for
        the incoming signatures, commit the version bump LAST. A crashed
        round's files are removed first (:meth:`_drop_unacknowledged`)."""
        self._drop_unacknowledged()
        gone = self._wave("sigs", removed, ["url"], _live_sigs, _payload("sigs"))
        # del rows and add rows for one version MUST land in the same write
        # pass per kind — the per-(bucket, version) file name is
        # deterministic (idempotent retry), so two passes would overwrite
        # each other in any bucket both touch
        def rows_of(kind_rows):
            return union(map_blocks(new_sigs, kind_rows(0)), map_blocks(gone, kind_rows(1)))

        n_band, _ = self._write_rows("bands", rows_of(self._band_rows), v_to)
        n_sig, n_del = self._write_rows("sigs", rows_of(self._sig_rows), v_to)
        self._commit_meta(v_to)
        n_add = n_sig - n_del
        return {
            "version": v_to,
            "band_adds": n_add * N_BANDS,
            "band_dels": n_del * N_BANDS,
            "sig_adds": n_add,
            "sig_dels": n_del,
            "band_rows_written": n_band,
            "sig_rows_written": n_sig,
        }

    def probe(self, engine, v_from: int, v_to: int, *, sort_by=None) -> "rd.Dataset":
        """Near-dup pairs (new_url, old_url, sig_match, est_sim) between the
        v_from→v_to incoming documents and the indexed corpus (state v_from),
        in ``sort_by`` order when given (as in ``taskshuffle.exchange_join``).
        Self-pairs (an update colliding with its own old version) are
        excluded. The base documents' text is never read."""
        new_sigs, _ = self._round_inputs(engine, v_from, v_to, "probe")
        return self._pairs(new_sigs, sort_by)

    def update(self, engine, v_from: int, v_to: int) -> dict:
        """Advance the index from v_from to v_to. Equivalent to a fresh
        build at v_to (pytest parity)."""
        new_sigs, removed = self._round_inputs(engine, v_from, v_to, "update")
        return self._update(new_sigs, removed, v_to)

    def ingest_round(self, engine, v_from: int, v_to: int):
        """The per-commit maintenance step: probe THEN update over one
        round pass. Returns (pairs Dataset, update stats)."""
        new_sigs, removed = self._round_inputs(engine, v_from, v_to, "round")
        pairs = self._pairs(new_sigs)
        return pairs, self._update(new_sigs, removed, v_to)

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
        work = [
            (kind, bkt, files)
            for kind in ("bands", "sigs")
            for bkt in range(self.n_buckets)
            if len(files := self._bucket_files(kind, bkt)) >= 2
        ]
        stats = {"buckets": 0, "files_removed": 0, "rows": 0}
        for rows, removed in ray.get(
            [_compact_bucket.remote(self.root, k, b, ver, f) for k, b, f in work]
        ):
            stats["buckets"] += 1
            stats["files_removed"] += removed
            stats["rows"] += rows
        return stats

    def snapshot_entries(self, kind: str) -> pa.Table:
        """All live entries of one sidecar, each bucket folded in this
        process (tests / parity checks only)."""
        return pa.concat_tables(
            [_fold_files(self._bucket_files(kind, b), kind) for b in range(self.n_buckets)],
            promote_options="permissive",
        )


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
