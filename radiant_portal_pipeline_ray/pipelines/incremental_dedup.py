"""Ingest-time incremental near-duplicate detection.

The batch near-dup pipelines (``pipelines/dedup.py``) answer "which pairs in
this CORPUS are near-dups" — O(corpus) per run. A CDC lake needs the
incremental question instead: *as each change batch commits, which of the
new/updated documents are near-duplicates of documents already in the lake?*
At 10^10 events, re-running corpus dedup per commit is impossible; the probe
must be O(changed), not O(lake).

Design — a persistent **LSH signature index**, a lake of its own
(``state/manifest.Lake`` at the index root) next to the data lake:

- bands bucket ``b`` is partition ``b``: ``(op, url, band_hash)``, the 16
  LSH band hashes per live document, hash-partitioned by ``band_hash``;
- sigs bucket ``b`` is partition ``n_buckets + b``: ``(op, url, minhash)``,
  the 64-permutation MinHash signature per live document, by ``url``;
- every index commit's ``metrics`` holds the signature params and the lake
  version the index reflects.

The index is **LSM-shaped**: a round writes one file per touched bucket
(op 0 = add, op 1 = delete by url) with the lake's writer at its final key,
appended to the partition's ``files``, oldest first. Readers fold a
bucket's files last-writer-wins by file position: an add survives deletes
in its own or an older file (an update deletes old entries and adds new
ones in the SAME file). Crash safety is the lake's rule: the manifest put
is the only commit step, so a round or compaction that dies before it
leaves files no reader sees, which ``Lake.gc_orphans`` reclaims; of two
maintainers advancing one version, the loser raises ``CommitConflict``.

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
   land in one write pass per sidecar, then one index commit — index state
   == fresh rebuild at v_to (pytest-verified parity).

Every step is a ``taskshuffle`` operator: ``map_blocks`` and the keyed
exchanges. A wave is an ``exchange_group`` on the rows' index bucket, whose
kernel folds the files of the buckets its rows reach. So an increment small
enough for the driver is routed, folded and written there, and a larger one
runs in the exchange's split and bucket tasks. The exchange sizes its own
bucket count from the bytes it moves; the index's ``n_buckets`` is only its
stored file layout, and an exchange bucket folds every index bucket whose
rows it gets. The index weighs no size of its own.

Catch-up: like any derived state, the index is snapshotted together with
the lake version it reflects (``version``), and ``read_changes`` diffs any
two retained versions, so one round may advance it over several lake
commits. The tail loop (``pipelines/tail.py``) does that after a lost
update, and rebuilds only when gc has pruned the index's base version.

Reference analogue: the variant_lookup dictionary the reference maintains
incrementally per import round (`radiant/dags/sql/radiant/init/
variant_lookup_create_table.sql:1-7`, insert-if-absent population) — here
generalized to a similarity index with deletions; the probe-vs-oracle
construction reuses `_minhash_sql`'s bit-exact HUGEINT arithmetic
(``minhash_sql_fragments``).
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from radiant_portal_pipeline_ray.stages.dedup import MinHashStage, make_band_exploder
from radiant_portal_pipeline_ray.stages.merge import write_snapshot_files
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
from radiant_portal_pipeline_ray.state.manifest import (
    CommitConflict,
    Lake,
    PartitionState,
    changed_partitions,
)

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
#: one write task's marker per file: its index partition, its lake-relative
#: path, its rows, of which deletes, and its bytes
_MARKERS_SCHEMA = pa.schema(
    [
        pa.field("part", pa.int64()),
        pa.field("file", pa.string()),
        pa.field("rows", pa.int64()),
        pa.field("dels", pa.int64()),
        pa.field("bytes", pa.int64()),
    ]
)
#: the signature params every index commit records; a root built with
#: other params is refused
_PARAMS = {"n_perm": N_PERM, "n_bands": N_BANDS, "rows_per_band": ROWS_PER_BAND,
           "shingle_k": SHINGLE_K, "seed": SEED}
_DOCS_SCHEMA = pa.schema([pa.field("url", pa.string()), pa.field("text", pa.string())])


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
    """Fold (seq, op, url, …payload) rows to the live entries: an add
    survives iff no delete for its url is in a strictly LATER file."""
    adds = t.filter(pc.equal(t.column("op"), pa.scalar(0, pa.int8())))
    dels = t.filter(pc.equal(t.column("op"), pa.scalar(1, pa.int8())))
    out_cols = [f.name for f in payload]
    if dels.num_rows == 0:
        return adds.select(out_cols)
    dmax = (
        dels.select(["url", "seq"])
        .group_by("url")
        .aggregate([("seq", "max")])
        .rename_columns(["url", "dseq"])
    )
    # index-join: adds carries a list column (sigs), so key+index then take
    ai = pa.table(
        {
            "url": _as_array(adds.column("url")),
            "seq": _as_array(adds.column("seq")),
            "i": _arange(adds.num_rows),
        }
    )
    j = ai.join(dmax, keys="url", join_type="left outer")
    keep = pc.fill_null(
        pc.or_kleene(
            pc.is_null(j.column("dseq")),
            pc.greater_equal(j.column("seq"), j.column("dseq")),
        ),
        False,
    )
    return adds.take(j.filter(keep).column("i")).select(out_cols)


def _fold_files(files: list[str], kind: str, filesystem) -> pa.Table:
    """One bucket's live entries: its files (paths on ``filesystem``, the
    index lake's fsspec filesystem or None for local paths; oldest first)
    read into one table, each row tagged with its file's position as
    ``seq``, folded by :func:`_fold_lww`."""
    tabs = []
    for seq, path in enumerate(files):
        # on an object store, one whole-object GET, as the merge reads a
        # carried file
        src = path if filesystem is None else pa.BufferReader(filesystem.cat_file(path))
        with pq.ParquetFile(src) as pf:
            t = pf.read()
        tabs.append(
            t.append_column("seq", pa.array(np.full(t.num_rows, seq), type=pa.int64()))
        )
    if not tabs:
        return _payload(kind).empty_table()
    hist = pa.concat_tables(tabs, promote_options="permissive")
    return _fold_lww(hist, _payload(kind)).combine_chunks()


def _appended(parts: dict, marks: pa.Table) -> dict:
    """``parts`` (index partition → ``PartitionState``) with each marked
    file appended to its partition's history: ``rows`` counts the add rows
    of its files, ``tombstones`` the delete rows."""
    out = dict(parts)
    for m in marks.to_pylist():
        old = out.get(m["part"]) or PartitionState()
        out[m["part"]] = PartitionState(
            files=[*old.files, m["file"]],
            rows=old.rows + m["rows"] - m["dels"],
            tombstones=old.tombstones + m["dels"],
            bytes=old.bytes + m["bytes"],
        )
    return out


def _total(marks: pa.Table, col: str) -> int:
    return int(pc.sum(marks.column(col)).as_py() or 0)


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
    kernel, kind: str, files: dict, filesystem, keys: list[str], n_buckets: int,
    out: pa.Schema, rows: pa.Table,
) -> pa.Table:
    """A wave's exchange kernel: ``rows`` are one or more whole index
    buckets' rows (:func:`_with_bucket`). Each of those buckets that has
    ``kind`` files is folded (``files``: bucket → its files' paths on
    ``filesystem``) and ``kernel(live, its rows)`` runs; ``out``'s empty
    table when none does. A bucket no row reached reads no file."""
    subs = _split_by_bucket(keys, n_buckets, rows.drop_columns(["bucket"]))
    res = [
        kernel(_fold_files(files[b], kind, filesystem), sub)
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
    data_dir: str, filesystem, txn: str, part: int, kind: str, files: list[str]
) -> tuple[int, list[str], int, int]:
    """Fold one index partition's files (two or more) into one file of its
    live entries at its final key in transaction ``txn``. Returns (part,
    file names, live rows, bytes); no file when nothing is live."""
    schema = _BANDS_SCHEMA if kind == "bands" else _SIGS_SCHEMA
    live = _fold_files(files, kind, filesystem)
    op = pa.array(np.zeros(live.num_rows, np.int8), type=pa.int8())
    out = live.append_column("op", op).select(schema.names).cast(schema)
    names, size, _ = write_snapshot_files(
        out, data_dir, txn, part, max(out.num_rows, 1), "zstd", filesystem
    )
    return part, names, live.num_rows, size


class SignatureIndex:
    """Persistent, incrementally-maintained LSH+signature sidecar index
    (layout, crash safety and the one round path in the module docstring):
    a ``Lake`` at ``root``, which may be a local path or any ``proto://``
    root the lake accepts. ``version`` is the lake version it reflects,
    None until built; a round advances it from there to any later retained
    version and publishes through ``Lake.commit_next``. An index written in
    a layout without a manifest reads as unbuilt."""

    def __init__(self, root: str, n_buckets: int = 32):
        self.root = root
        self.lake = Lake(root)
        #: the index's current manifest; None until built
        self.manifest = self.lake.current_manifest()
        self.params = (
            self.manifest.metrics["params"]
            if self.manifest is not None
            else {**_PARAMS, "n_buckets": n_buckets}
        )
        if {k: self.params.get(k) for k in _PARAMS} != _PARAMS:
            raise ValueError(
                f"index at {root} was built with different signature "
                f"params: {self.params}"
            )

    # -- bucket math (identical at build/probe/update time) ------------------
    @property
    def n_buckets(self) -> int:
        return int(self.params["n_buckets"])

    @property
    def version(self) -> int | None:
        return None if self.manifest is None else self.manifest.metrics["lake_version"]

    # -- file layout ----------------------------------------------------------
    def _part(self, kind: str, bucket: int) -> int:
        """The index partition of ``kind`` bucket ``bucket``."""
        return bucket + (self.n_buckets if kind == "sigs" else 0)

    def _bucket_files(self, kind: str) -> dict[int, list[str]]:
        """bucket → its files' paths, oldest first, for each ``kind``
        bucket that has files."""
        parts = self.manifest.partitions if self.manifest is not None else {}
        out = {}
        for b in range(self.n_buckets):
            st = parts.get(self._part(kind, b))
            if st is not None and st.files:
                out[b] = [self.lake.abspath(f) for f in st.files]
        return out

    def _publish(self, txn: str, parts: dict, lake_version: int, metrics: dict) -> None:
        """The index's one commit step: publish ``parts`` as the successor
        of ``self.manifest``, reflecting ``lake_version``, with the
        signature params. One attempt (``retries=1``): when another
        maintainer advanced the index first, this raises ``CommitConflict``
        and the round's files stay unreferenced."""
        v_from = self.version

        def build(base):
            if (None if base is None else base.metrics["lake_version"]) != v_from:
                raise CommitConflict(f"index no longer reflects lake version {v_from}")
            return {
                "partitions": parts,
                "metrics": {
                    **metrics, "params": self.params, "lake_version": lake_version,
                },
            }

        self.manifest, _ = self.lake.commit_next(self.manifest, txn, build, retries=1)

    def _write_rows(self, kind: str, ds: "rd.Dataset", txn: str) -> pa.Table:
        """Hash-partition add/del rows into the index buckets and write ONE
        file per touched bucket at its final key in transaction ``txn``
        (``stages/merge.write_snapshot_files``); a retried task rewrites the
        same name. The exchange is keyed on the PRECOMPUTED bucket id so
        each bucket lands in exactly one writer — a raw-key exchange could
        split one bucket's keys across writers and have them overwrite each
        other's file. Returns the collected write markers."""
        keys = ["band_hash"] if kind == "bands" else ["url"]
        nb, first = self.n_buckets, self._part(kind, 0)
        data_dir, fs = self.lake.data_dir, self.lake.filesystem

        def write_buckets(t: pa.Table) -> pa.Table:
            marks = {f.name: [] for f in _MARKERS_SCHEMA}
            subs = _split_by_bucket(keys, nb, t.drop_columns(["bucket"]))
            for bid, sub in enumerate(subs):
                if sub is None:
                    continue
                part = first + bid
                (name,), size, _ = write_snapshot_files(
                    sub, data_dir, txn, part, sub.num_rows, "zstd", fs
                )
                marks["part"].append(part)
                marks["file"].append(f"data/part={part}/{name}")
                marks["rows"].append(sub.num_rows)
                marks["dels"].append(int(np.count_nonzero(sub.column("op").to_numpy() == 1)))
                marks["bytes"].append(size)
            return pa.table(marks, schema=_MARKERS_SCHEMA)

        return collect(
            exchange_group(
                ds, ["bucket"], write_buckets, pre=partial(_with_bucket, keys, nb)
            ),
            _MARKERS_SCHEMA,
        )

    def _wave(self, kind: str, ds: "rd.Dataset", keys: list[str], kernel, out: pa.Schema):
        """``kernel(live, rows)`` per index bucket that ``ds``'s ``keys``
        touch and that has ``kind`` files: one keyed exchange on the rows'
        index bucket (:func:`_with_bucket`), whose kernel folds each of its
        buckets' files (:func:`_fold_buckets`). ``out``'s empty table when
        ``ds`` has no rows."""
        nb = self.n_buckets
        files = self._bucket_files(kind)
        res = exchange_group(
            ds, ["bucket"],
            partial(_fold_buckets, kernel, kind, files, self.lake.filesystem, keys, nb, out),
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
        """Full build from the lake snapshot at ``version``. Its commit
        starts every bucket's history over, so nothing the index held
        before stays referenced."""
        man = engine.lake.read_manifest(version)
        files = lakescan.part_files(man)
        docs = (
            lakescan.scan(engine.lake, man, files, ["url", "text"], ~pc.field("deleted"))
            if files
            else _DOCS_SCHEMA.empty_table()
        )
        sigs = materialized(self.signatures(docs))
        txn = self.lake.new_txn_id()
        sig_marks = self._write_rows("sigs", map_blocks(sigs, self._sig_rows(0)), txn)
        band_marks = self._write_rows("bands", map_blocks(sigs, self._band_rows(0)), txn)
        stats = {
            "version": version,
            "sig_rows": _total(sig_marks, "rows"),
            "band_rows": _total(band_marks, "rows"),
        }
        parts = _appended({}, pa.concat_tables([sig_marks, band_marks]))
        self._publish(txn, parts, version, {"op": "index_build", "stats": stats})
        return stats

    # -- per-commit incremental round -----------------------------------------------
    def _changed_docs(self, engine, v_from: int, v_to: int, incoming) -> "rd.Dataset":
        """(url, text) at v_to of the ``incoming`` urls, reading ONLY the
        partitions whose file lists differ between the two manifests; a url
        set already on the driver is pushed into the scan filter itself,
        a larger one semi-joins in a keyed exchange."""
        m_to = engine.lake.read_manifest(v_to)
        changed = changed_partitions(engine.lake.read_manifest(v_from), m_to)
        files = lakescan.part_files(m_to, changed)
        if not files:
            return _DOCS_SCHEMA.empty_table()
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
        the incoming signatures, then one index commit (:meth:`_publish`)."""
        gone = self._wave("sigs", removed, ["url"], _live_sigs, _payload("sigs"))
        # del rows and add rows MUST land in the same write pass per kind —
        # a bucket's file name in a txn is deterministic (idempotent
        # retry), so two passes would overwrite each other in any bucket
        # both touch
        def rows_of(kind_rows):
            return union(map_blocks(new_sigs, kind_rows(0)), map_blocks(gone, kind_rows(1)))

        txn = self.lake.new_txn_id()
        band_marks = self._write_rows("bands", rows_of(self._band_rows), txn)
        sig_marks = self._write_rows("sigs", rows_of(self._sig_rows), txn)
        n_sig, n_del = _total(sig_marks, "rows"), _total(sig_marks, "dels")
        n_add = n_sig - n_del
        stats = {
            "version": v_to,
            "band_adds": n_add * N_BANDS,
            "band_dels": n_del * N_BANDS,
            "sig_adds": n_add,
            "sig_dels": n_del,
            "band_rows_written": _total(band_marks, "rows"),
            "sig_rows_written": n_sig,
        }
        parts = _appended(self.manifest.partitions, pa.concat_tables([band_marks, sig_marks]))
        self._publish(txn, parts, v_to, {"op": "index_round", "stats": stats})
        return stats

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
        """Fold every bucket with two or more files into one file of its
        live entries, one Ray task per bucket, and publish the index with
        those files in place of their history: the index analogue of the
        lake's ``compact``. The live entries and ``version`` stay. The
        superseded files are unreferenced from the new index version on,
        and ``Lake.gc_orphans`` reclaims them."""
        if self.manifest is None:
            raise ValueError("compact before build")
        work = [
            (kind, self._part(kind, b), files)
            for kind in ("bands", "sigs")
            for b, files in self._bucket_files(kind).items()
            if len(files) >= 2
        ]
        stats = {"buckets": len(work), "files_removed": sum(len(f) for *_, f in work), "rows": 0}
        if not work:
            return stats
        txn = self.lake.new_txn_id()
        parts = dict(self.manifest.partitions)
        data_dir, fs = self.lake.data_dir, self.lake.filesystem
        for p, names, live, size in ray.get(
            [
                _compact_bucket.remote(data_dir, fs, txn, p, kind, files)
                for kind, p, files in work
            ]
        ):
            parts[p] = PartitionState(
                files=[f"data/part={p}/{n}" for n in names], rows=live, bytes=size
            )
            stats["rows"] += live
        self._publish(txn, parts, self.version, {"op": "index_compact", "stats": stats})
        return stats

    def snapshot_entries(self, kind: str) -> pa.Table:
        """All live entries of one sidecar, each bucket folded in this
        process (tests / parity checks only)."""
        files = self._bucket_files(kind)
        return pa.concat_tables(
            [
                _fold_files(files.get(b, []), kind, self.lake.filesystem)
                for b in range(self.n_buckets)
            ],
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
    import tempfile

    from radiant_portal_pipeline_ray.config import EngineConfig
    from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
    from radiant_portal_pipeline_ray.pipelines.flagship import (
        documents_changelog,
    )

    with tempfile.TemporaryDirectory(prefix="dd_incr_", ignore_cleanup_errors=True) as work:
        paths = documents_changelog(sf_dir, os.path.join(work, "changelog"))
        eng = CdcEngine(os.path.join(work, "lake"), EngineConfig(n_parts=8))
        for p in paths:
            eng.apply([p])
        idx = SignatureIndex(os.path.join(work, "sigindex"), n_buckets=32)
        idx.build(eng, 1)
        # materialized: the lake under /tmp is removed on return
        return materialized(idx.probe(eng, 1, 2, sort_by=["new_url", "old_url"]))


QUERIES["dd_incremental_neardup"] = (dd_incremental_neardup, _incremental_sql())
