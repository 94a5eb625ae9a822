"""Copy-on-write Parquet lake: manifests, exactly-once commit, GC.

The lake layout (SURVEY §7.1):

    <root>/
      data/part=<P>/<txn>-<part>-<i>.parquet  # immutable, inert until referenced
      data/quarantine/<txn>.parquet          # the round's dead-letter file
      manifests/manifest-v<K>.json           # atomic snapshot pointer

A snapshot version is ONE manifest file listing, per partition: data files,
row/byte counts, watermark lsn, doc-id counter, and the lineage entry of the
commit that last wrote it; the version's own operation metrics sit beside
them (``Manifest.metrics``), so history is the manifest chain. Writers put
each data file straight at its final key, named by the writing transaction;
the manifest put is the ONLY commit step: ``manifest-v{K+1}.json`` is
published via a put-if-absent that either atomically creates the version
or reports it taken, giving CAS semantics without any catalog service.
Retried commits are idempotent by txn-id (a found manifest with our
txn_id == success). Every writer (apply, routing, quarantine-only,
rollback, compact, reshard, and the signature index of
``pipelines/incremental_dedup.py``, itself a lake) publishes through
``Lake.commit_next``, the one base → successor → publish →
rebase-on-conflict loop.

The rule that keeps final-key writes safe: once a manifest references a
file name, nothing writes that name again. A transaction writes its files
only before its publish; a retried merge or rewrite task rewrites the same
deterministic names, also before the publish; ``clone_to`` writes only
into a lake with no manifest yet. Until its publish a transaction's files
are unreferenced and invisible to readers; ``gc_orphans`` removes them
once the transaction has been quiet for ``staging_age_s``.

Two storage backends share that contract:

- **POSIX** (``Lake("/path")``, the default): put-if-absent is fsync +
  hard-link (EEXIST = loser).
- **Object store** (``Lake("memory://lake")`` / any fsspec URL, or an
  explicit ``filesystem=``): uses ONLY object-store-safe primitives — no
  hard links, no rename, no directory mtimes. A data file is one PUT at
  its final key; manifest publish is the store's conditional put
  (``Lake._put_manifest_if_absent``).

Reference analogue: Iceberg ``commit_files`` (data files at their final
keys, only the catalog pointer swap atomic) with a 20-attempt backoff retry loop (`radiant/tasks/iceberg/utils.py:61-96`),
single-committer fan-in (`radiant/tasks/iceberg/utils.py:99-114`,
`radiant/dags/import_snv_vcf.py:47-49`) and the StarRocks temp-partition
atomic swap (`radiant/tasks/starrocks/operator.py:341-355`).
"""

from __future__ import annotations

import json
import logging
import os
import re
import threading
import time
import uuid
from dataclasses import dataclass, field as dc_field

import pyarrow as pa

from radiant_portal_pipeline_ray.schemas import (
    schema_from_b64,
    schema_summary,
    schema_to_b64,
)

_MANIFEST_RE = re.compile(r"^manifest-v(\d{12})\.json$")

logger = logging.getLogger(__name__)

# CAS for memory:// lakes: MemoryFileSystem state is per-process, so a
# process-wide lock around exists+put is a complete mutual exclusion
_MEMORY_CAS_LOCK = threading.Lock()


#: the error codes a lost conditional PUT carries: S3, GCS JSON API, Azure
_PRECONDITION_CODES = frozenset(
    {"PreconditionFailed", "conditionNotMet", "ConditionNotMet", "BlobAlreadyExists"}
)
#: text fallback for errors without a structured status: one of the codes
#: as a whole word, or an HTTP 412 at the start of the message
_PRECONDITION_TEXT = re.compile(
    r"\b(?:%s)\b|^\s*(?:HTTP\s*)?412\b" % "|".join(sorted(_PRECONDITION_CODES))
)


def _is_precondition_failure(e: Exception) -> bool:
    """Did a conditional PUT lose its race? Matched across backends without
    importing their SDKs, from the structured status first: botocore's
    ``response["Error"]["Code"]`` / HTTP status (S3 ``PreconditionFailed``),
    gcsfs ``HttpError.code`` (412, ``conditionNotMet``), azure-core's
    ``ResourceExistsError`` / ``error_code`` / ``status_code``
    (``BlobAlreadyExists``). Only an error with none of these falls back to
    its text, so a message that merely contains "412" (a key, a byte count)
    is not a lost race."""
    if type(e).__name__ == "ResourceExistsError":
        return True
    response = getattr(e, "response", None)
    if isinstance(response, dict):
        code = (response.get("Error") or {}).get("Code")
        status = (response.get("ResponseMetadata") or {}).get("HTTPStatusCode")
        return code in _PRECONDITION_CODES or status == 412
    for attr in ("error_code", "code", "status_code", "status"):
        v = getattr(e, attr, None)
        if v is None:
            continue
        if isinstance(v, str) and not v.isdigit():
            return v in _PRECONDITION_CODES
        try:
            return int(v) == 412
        except (TypeError, ValueError):
            continue
    return bool(_PRECONDITION_TEXT.search(str(e)))


class CommitConflict(Exception):
    """Another committer published this version first; rebuild and retry."""


#: the fields a version carries from its base unless its commit sets them
#: (``Lake.commit_next``). ``metrics`` is each version's own, apart from
#: ``metrics["hot_counts"]``, the partitioner's tracking state.
CARRIED_FIELDS = (
    "schema",
    "n_parts",
    "partitions",
    "salt_map",
    "salt_hash_fingerprint",
    "pending_migrations",
    "next_part",
    "consumed_inputs",
    "quarantine_files",
)


@dataclass
class PartitionState:
    files: list[str] = dc_field(default_factory=list)  # relative to lake root
    rows: int = 0  # live rows (tombstones excluded)
    tombstones: int = 0
    bytes: int = 0
    watermark_lsn: int = -1
    next_doc_seq: int = 0
    #: the entry of the commit that last wrote this partition, only: each
    #: version's history lives in its own manifest (``metrics``), and the
    #: chain of retained manifests is the lake's history, pruned by
    #: ``gc_orphans`` the way Delta Lake checkpoints prune its log. A longer
    #: list, from a manifest written before this rule, is trimmed on load,
    #: so the next commit writes it trimmed.
    lineage: list[dict] = dc_field(default_factory=list)
    #: zone maps: per-file column min/max aligned with ``files`` (see
    #: state/zonemaps.py). OPTIONAL — ``None`` (old manifests / writers
    #: that skip stats) means "never prune these files".
    stats: list | None = None

    def to_json(self) -> dict:
        d = {
            "files": self.files,
            "rows": self.rows,
            "tombstones": self.tombstones,
            "bytes": self.bytes,
            "watermark_lsn": self.watermark_lsn,
            "next_doc_seq": self.next_doc_seq,
            "lineage": self.lineage,
        }
        if self.stats is not None:
            d["stats"] = self.stats
        return d

    @staticmethod
    def from_json(d: dict) -> "PartitionState":
        lineage = d.get("lineage", [])
        if len(lineage) > 1:
            # written when lineage held every commit: the last entry, with
            # the purge marker of any earlier one
            lineage = PartitionState(lineage=lineage[:-1]).next_lineage(
                lineage[-1]
            )
        return PartitionState(
            files=list(d["files"]),
            rows=d["rows"],
            tombstones=d.get("tombstones", 0),
            bytes=d["bytes"],
            watermark_lsn=d["watermark_lsn"],
            next_doc_seq=d.get("next_doc_seq", 0),
            lineage=list(lineage),
            stats=d.get("stats"),
        )

    def next_lineage(self, entry: dict) -> list[dict]:
        """The lineage of this partition's next state: ``entry`` alone,
        with the tombstone-purge marker kept once any entry had it — a
        later reshard must still see that this partition's tombstones were
        purged (its rewind gate)."""
        if any(e.get("purged_tombstones") for e in self.lineage):
            entry = {**entry, "purged_tombstones": True}
        return [entry]

    def file_stats(self, i: int):
        """Zone map for ``files[i]`` or None (absent/misaligned stats)."""
        if self.stats is not None and i < len(self.stats):
            return self.stats[i]
        return None


@dataclass
class Manifest:
    version: int
    txn_id: str
    parent_version: int | None
    schema: pa.Schema | None
    #: size of the base hash-partition domain. min_watermark() must treat a
    #: base partition with NO committed state as watermark -1: the coarse
    #: changelog read filter ``lsn > min_watermark`` is only safe when every
    #: partition's events below the bound are truly committed — a
    #: yet-unseen partition may still receive arbitrarily old lsns (e.g. a
    #: priority-reordered backlog).
    n_parts: int = 0
    partitions: dict[int, PartitionState] = dc_field(default_factory=dict)
    salt_map: dict[str, list[int]] = dc_field(default_factory=dict)
    #: which url→salt-slot hash the committed rows were routed with. Only
    #: 2 (vectorized polars/xxhash) exists; ``from_json`` refuses any other
    #: recorded version, as routing new rows with a different hash would
    #: strand committed rows of salted domains in the wrong partition.
    salt_hash_version: int = 2
    #: canary hashes proving the host's hash impl still matches the
    #: one the lake committed under (guards against a polars upgrade
    #: silently changing xxhash output)
    salt_hash_fingerprint: list[int] | None = None
    #: domains salted at THIS commit whose historical rows still live in
    #: their old partitions; the next apply must rewrite those partitions so
    #: rows follow the new routing (deferred migration — keeps salting
    #: decisions off the apply hot path).
    pending_migrations: dict[str, list[int]] = dc_field(default_factory=dict)
    next_part: int = 0
    #: txn id of the version this one was built on (``Lake.commit`` tells
    #: a successor of its put from a slot ``gc_orphans`` pruned)
    parent_txn_id: str | None = None
    committed_at: float = 0.0
    metrics: dict = dc_field(default_factory=dict)
    #: changelog-file consumption ledger for the WAL tail loop: input
    #: basename → its max lsn, recorded atomically with the commit that
    #: consumed it. Bounded: entries whose max_lsn <= min_watermark() are
    #: pruned at commit — such a file is PROVABLY a no-op to re-apply
    #: (every partition's watermark drops all of its events), so the tail
    #: can skip it from its parquet footer alone even after pruning.
    consumed_inputs: dict[str, int] = dc_field(default_factory=dict)
    #: dead-letter queue: lake-relative parquet files holding malformed
    #: change events (original columns + reason), one file per txn that
    #: quarantined anything. Referenced here so gc_orphans keeps them.
    quarantine_files: list[str] = dc_field(default_factory=list)

    def watermarks(self) -> dict[int, int]:
        return {p: st.watermark_lsn for p, st in self.partitions.items()}

    def min_watermark(self) -> int:
        if not self.partitions:
            return -1
        if self.n_parts and any(
            p not in self.partitions for p in range(self.n_parts)
        ):
            return -1
        return min(st.watermark_lsn for st in self.partitions.values())

    def commit_info(self) -> dict:
        """What this version's commit did, from its own ``metrics`` (the
        Delta Lake ``commitInfo`` analogue): its op, counts, bytes written,
        the phase laps before its commit, the path its exchange took
        (``in_process`` or ``tasks``), the per-layer sums of its split and
        merge calls, its slowest merge bucket and rows quarantined. Ops
        that apply no events report zero counts, and ops with no exchange
        a None path and bucket and empty layer sums."""
        m = self.metrics
        counts = m.get("last_apply", {})
        stages = m.get("stage_metrics", {})
        merge = stages.get("merge_layers", {})

        def sums(layers: dict) -> dict:
            # a stored ``taskshuffle.layer_summary`` less its per-call
            # spreads (``*_p50*``, ``*_max*``) and ``slowest_*`` entries
            return {
                k: v
                for k, v in layers.items()
                if not k.startswith("slowest_") and "_p50" not in k and "_max" not in k
            }

        return {
            "version": self.version,
            "op": m.get("op"),
            "committed_at": self.committed_at,
            "events_in": counts.get("events_in", 0),
            "rows_upserted": counts.get("rows_upserted", 0),
            "rows_deleted": counts.get("rows_deleted", 0),
            "bytes": stages.get("write", {}).get("bytes", 0),
            "timings_s": stages.get("timings_s", {}),
            "path": stages.get("path"),
            "scout_layers": sums(stages.get("scout_layers", {})),
            "merge_layers": sums(merge),
            "slowest_bucket": merge.get("slowest_bucket"),
            "slowest_bucket_s": merge.get("slowest_bucket_s"),
            "rows_quarantined": (m.get("quarantine") or {}).get("rows", 0),
        }

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "txn_id": self.txn_id,
            "parent_version": self.parent_version,
            "n_parts": self.n_parts,
            "schema_b64": schema_to_b64(self.schema) if self.schema else None,
            "schema": schema_summary(self.schema) if self.schema else [],
            "partitions": {str(p): st.to_json() for p, st in self.partitions.items()},
            "salt_map": self.salt_map,
            "salt_hash_version": self.salt_hash_version,
            "salt_hash_fingerprint": self.salt_hash_fingerprint,
            "pending_migrations": self.pending_migrations,
            "next_part": self.next_part,
            "parent_txn_id": self.parent_txn_id,
            "committed_at": self.committed_at,
            "metrics": self.metrics,
            "consumed_inputs": self.consumed_inputs,
            "quarantine_files": self.quarantine_files,
        }

    @staticmethod
    def from_json(d: dict) -> "Manifest":
        salt_v = d.get("salt_hash_version")
        if salt_v != 2:
            raise ValueError(
                f"manifest v{d['version']} records salt_hash_version "
                f"{salt_v}; this engine routes salted urls only with "
                "salt_hash_version 2 and cannot continue or read this lake"
            )
        return Manifest(
            version=d["version"],
            txn_id=d["txn_id"],
            parent_version=d.get("parent_version"),
            n_parts=d.get("n_parts", 0),
            schema=schema_from_b64(d["schema_b64"]) if d.get("schema_b64") else None,
            partitions={
                int(p): PartitionState.from_json(st)
                for p, st in d["partitions"].items()
            },
            salt_map={k: list(v) for k, v in d.get("salt_map", {}).items()},
            salt_hash_fingerprint=d.get("salt_hash_fingerprint"),
            pending_migrations={
                k: list(v) for k, v in d.get("pending_migrations", {}).items()
            },
            next_part=d.get("next_part", 0),
            parent_txn_id=d.get("parent_txn_id"),
            committed_at=d.get("committed_at", 0.0),
            metrics=d.get("metrics", {}),
            consumed_inputs={
                str(k): int(v)
                for k, v in d.get("consumed_inputs", {}).items()
            },
            quarantine_files=list(d.get("quarantine_files", [])),
        )


def changed_partitions(m_from: Manifest, m_to: Manifest) -> list[int]:
    """The partitions whose file lists differ between two manifests, in
    order: added, dropped and rewritten ones. A commit rewrites a
    partition's files whenever any of its rows change, so a partition
    outside this list holds the same rows at both versions."""
    def files(man: Manifest, p: int) -> list[str]:
        return man.partitions[p].files if p in man.partitions else []

    parts = set(m_from.partitions) | set(m_to.partitions)
    return sorted(p for p in parts if files(m_from, p) != files(m_to, p))


class Lake:
    """Lake root with manifest CAS commit — POSIX by default, any fsspec
    object store via a ``proto://`` root or an explicit ``filesystem``."""

    def __init__(self, root: str, filesystem=None):
        if filesystem is None and "://" in root:
            if root.split("://", 1)[0] in ("s3", "s3a"):
                # self-contained boto3 driver when s3fs is not installed
                from radiant_portal_pipeline_ray.state import s3boto

                s3boto.ensure_registered()
            import fsspec

            # fsspec's LocalFileSystem (a file:// root) is POSIX underneath
            # but deliberately stays on the object-store code path: it is
            # how tests exercise the object-store commit semantics
            # cross-process without a real object store.
            filesystem, root = fsspec.core.url_to_fs(root)
        #: fsspec AbstractFileSystem, or None for the POSIX fast path
        self.filesystem = filesystem
        self.root = root
        join = self._join
        self.manifest_dir = join(root, "manifests")
        self.data_dir = join(root, "data")
        for d in (self.manifest_dir, self.data_dir):
            self._makedirs(d)

    # -- io primitives (the ONLY fs operations the lake performs) ---------
    def _join(self, *parts: str) -> str:
        if self.filesystem is not None:
            import posixpath

            return posixpath.join(*parts)
        return os.path.join(*parts)

    def _makedirs(self, path: str) -> None:
        if self.filesystem is not None:
            self.filesystem.makedirs(path, exist_ok=True)
        else:
            os.makedirs(path, exist_ok=True)

    def _listdir(self, path: str) -> list[str]:
        if self.filesystem is not None:
            try:
                import posixpath

                return sorted(
                    posixpath.basename(p.rstrip("/"))
                    for p in self.filesystem.ls(path, detail=False)
                )
            except FileNotFoundError:
                return []
        try:
            return sorted(os.listdir(path))
        except FileNotFoundError:
            return []

    def _exists(self, path: str) -> bool:
        if self.filesystem is not None:
            return self.filesystem.exists(path)
        return os.path.exists(path)

    def _isdir(self, path: str) -> bool:
        if self.filesystem is not None:
            return self.filesystem.isdir(path)
        return os.path.isdir(path)

    def _mtime(self, path: str, default: float = 0.0) -> float:
        """Modification time, or ``default`` when the backend can't say.

        Callers choose the conservative fallback: GC's quiescence check
        passes ``default=now`` (an unknown-age file must read as brand new,
        never as infinitely old — deleting an in-flight writer's freshly
        written file would publish a manifest referencing deleted data). On
        a backend with no ``modified()`` at all, GC therefore deletes
        nothing — inert, not unsafe.
        """
        if self.filesystem is not None:
            try:
                return self.filesystem.modified(path).timestamp()
            except (FileNotFoundError, IsADirectoryError, NotImplementedError):
                return default
        try:
            return os.path.getmtime(path)
        except OSError:
            # a concurrent gc can remove the path between listdir and this
            # stat — same contract as fsspec: the caller's conservative
            # default decides
            return default

    def _remove(self, path: str) -> None:
        if self.filesystem is not None:
            self.filesystem.rm_file(path)
        else:
            os.remove(path)

    def pyarrow_fs(self):
        """Wrapped pyarrow FileSystem for lake scans (``state/lakescan.py``)
        and Dataset writes, or None for local paths."""
        if self.filesystem is None:
            return None
        from pyarrow import fs as pafs

        return pafs.PyFileSystem(pafs.FSSpecHandler(self.filesystem))

    # -- paths -----------------------------------------------------------
    def abspath(self, rel: str) -> str:
        return self._join(self.root, rel)

    def new_txn_id(self) -> str:
        return uuid.uuid4().hex[:16]

    # -- manifest chain --------------------------------------------------
    def _manifest_path(self, version: int) -> str:
        return self._join(self.manifest_dir, f"manifest-v{version:012d}.json")

    def versions(self) -> list[int]:
        out = []
        for name in self._listdir(self.manifest_dir):
            m = _MANIFEST_RE.match(name)
            if m:
                out.append(int(m.group(1)))
        return sorted(out)

    def current_version(self) -> int | None:
        vs = self.versions()
        return vs[-1] if vs else None

    def read_manifest(self, version: int) -> Manifest:
        path = self._manifest_path(version)
        if self.filesystem is not None:
            data = self.filesystem.cat_file(path)
            return Manifest.from_json(json.loads(data))
        with open(path) as f:
            return Manifest.from_json(json.load(f))

    def current_manifest(self) -> Manifest | None:
        v = self.current_version()
        return self.read_manifest(v) if v is not None else None

    def history(self, n: int) -> list[dict]:
        """``commit_info`` of the newest ``n`` retained versions, oldest
        first. A version ``gc_orphans`` prunes meanwhile is left out."""
        out = []
        for v in self.versions()[-n:]:
            try:
                out.append(self.read_manifest(v).commit_info())
            except FileNotFoundError:
                continue
        return out

    # -- publish ----------------------------------------------------------
    @staticmethod
    def _fs_protocol(fs) -> str:
        p = getattr(fs, "protocol", "")
        return p if isinstance(p, str) else (p[0] if p else "")

    def _posix_link_cas(self, final: str, data: bytes, txn_id: str) -> bool:
        """fsync + hard-link put-if-absent on a real POSIX path — link(2) is
        atomic and fails with EEXIST if anyone else got there first."""
        tmp = os.path.join(
            os.path.dirname(final), f".tmp-{txn_id}-{os.path.basename(final)}"
        )
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        try:
            os.link(tmp, final)
        except FileExistsError:
            os.remove(tmp)
            return False
        os.remove(tmp)
        return True

    def _put_manifest_if_absent(self, final: str, data: bytes, txn_id: str) -> bool:
        """Atomic put-if-absent of one manifest object; True iff WE published
        it. This is the lake's ONLY concurrency primitive, so it must be a
        real compare-and-swap on every backend — an exists→put→read-back
        probe is NOT one (two racing writers can each read back their own
        bytes in an A-exists, B-exists, B-put, B-verify, A-put, A-verify
        interleaving, silently dropping B's commit). Per backend:

        - POSIX (no fsspec): fsync + hard-link CAS (link(2) is atomic).
        - ``file://`` via fsspec: same hard-link CAS — the stripped root is
          a real local path.
        - ``s3://``: conditional PUT with ``If-None-Match: *`` (S3 rejects
          with 412 PreconditionFailed if the key exists; strongly
          consistent since 2020).
        - ``gs://``: creation-only generation precondition
          (``ifGenerationMatch=0`` / ``x-goog-if-generation-match: 0``).
        - ``az://``/``abfs://``: blob upload with ``overwrite=False``
          (``If-None-Match: *`` → ResourceExistsError on conflict).
        - ``memory://``: a process-wide lock around exists+put.
          MemoryFileSystem state is per-process by construction, so the
          lock covers every writer that can possibly see the store.
        - anything else: refuse rather than run a known-unsafe probe.
        """
        if self.filesystem is None:
            return self._posix_link_cas(final, data, txn_id)
        fs = self.filesystem
        proto = self._fs_protocol(fs)
        if proto in ("file", "local"):
            return self._posix_link_cas(final, data, txn_id)
        if proto in ("s3", "s3a"):
            try:
                fs.pipe_file(final, data, IfNoneMatch="*")
                return True
            except FileExistsError:
                return False
            except OSError as e:
                if _is_precondition_failure(e):
                    return False
                raise
        if proto in ("gs", "gcs"):
            # GCS creation-only PUT: generation-match 0 means "only if no
            # live generation exists" (the JSON API's ifGenerationMatch=0,
            # wire header x-goog-if-generation-match: 0). gcsfs forwards
            # the kwarg; a lost race surfaces as 412 / conditionNotMet.
            try:
                fs.pipe_file(final, data, if_generation_match=0)
                return True
            except FileExistsError:
                return False
            except Exception as e:  # gcsfs HttpError is not an OSError
                if _is_precondition_failure(e):
                    return False
                raise
        if proto in ("az", "abfs", "abfss", "adl"):
            # Azure Blob creation-only PUT: upload with overwrite=False
            # sends If-None-Match: * ; a lost race is ResourceExistsError
            # (BlobAlreadyExists) from azure-core, which adlfs may or may
            # not translate to FileExistsError depending on version.
            try:
                fs.pipe_file(final, data, overwrite=False)
                return True
            except FileExistsError:
                return False
            except Exception as e:
                if _is_precondition_failure(e):
                    return False
                raise
        if proto == "memory":
            with _MEMORY_CAS_LOCK:
                if fs.exists(final):
                    return False
                fs.pipe_file(final, data)
                return True
        raise NotImplementedError(
            f"no atomic put-if-absent for fsspec protocol {proto!r}; "
            "add the backend's conditional-PUT here before running "
            "concurrent writers against it"
        )

    def commit(self, manifest: Manifest) -> Manifest:
        """Publish ``manifest`` as version ``manifest.version`` atomically.

        Put-if-absent: succeeds exactly once per version. If the version
        exists with our txn_id → idempotent success; with another txn_id →
        CommitConflict (``commit_next`` rebuilds against the new current and
        retries — same loop shape as the reference's Iceberg retry,
        `radiant/tasks/iceberg/utils.py:73-96`). A put into a slot
        ``gc_orphans`` pruned below the current version (a stale base) is
        withdrawn as a CommitConflict too: a newer version must be built on
        this one. Each version that stays published is logged as one JSON
        line: ``commit_info()`` plus ``txn_id``.
        """
        manifest.committed_at = time.time()
        # compact encoding: a wide lake's manifest is tens of thousands of
        # file entries and the dump is on the commit critical path
        data = json.dumps(manifest.to_json(), separators=(",", ":")).encode()
        final = self._manifest_path(manifest.version)
        if not self._put_manifest_if_absent(final, data, manifest.txn_id):
            existing = self.read_manifest(manifest.version)
            if existing.txn_id == manifest.txn_id:
                return existing
            raise CommitConflict(
                f"version {manifest.version} committed by txn {existing.txn_id}"
            )
        newer = [v for v in self.versions() if v > manifest.version]
        if newer and not self._built_on(newer[0], manifest):
            try:
                self._remove(final)
            except FileNotFoundError:
                pass
            raise CommitConflict(
                f"version {manifest.version} was a pruned slot below "
                f"current version {newer[-1]}"
            )
        if logger.isEnabledFor(logging.INFO):
            logger.info(
                json.dumps({**manifest.commit_info(), "txn_id": manifest.txn_id})
            )
        return manifest

    def _built_on(self, version: int, manifest: Manifest) -> bool:
        # a successor pruned before it is read counts as not built on it:
        # the put is then rebased, never reported as a false success
        if version != manifest.version + 1:
            return False
        try:
            return self.read_manifest(version).parent_txn_id == manifest.txn_id
        except FileNotFoundError:
            return False

    def commit_next(self, base: Manifest | None, txn_id: str, build, retries: int):
        """Publish the successor of ``base``: the one commit path of every
        writer (Delta Lake's optimistic concurrency — plan on version N,
        try N+1, and on a conflict check the winner and retry).

        ``build(base)`` returns the fields this commit changes, or None when
        nothing is left to commit. Each of ``CARRIED_FIELDS`` it leaves out,
        and ``metrics["hot_counts"]``, carries over from ``base``; version,
        parent version, parent txn id and txn id are set here, and the
        consumed-inputs ledger keeps only entries above the successor's min
        watermark (a file at or below it is provably a no-op to re-apply).
        The first attempt builds on the ``base`` the caller planned from,
        without re-reading it; only a ``CommitConflict`` re-reads the
        current manifest and calls ``build`` again, which raises to refuse
        that rebase. After
        ``retries`` attempts the conflict propagates (``retries=1`` refuses
        every rebase); attempts are ``min(0.05 * attempt, 1.0)`` s apart.

        Returns ``(committed manifest or None, attempts)``.
        """
        attempt = 0
        while True:
            attempt += 1
            changed = build(base)
            if changed is None:
                return None, attempt
            fields = {"schema": None}
            hot = {}
            if base is not None:
                fields = {f: getattr(base, f) for f in CARRIED_FIELDS}
                hot = base.metrics.get("hot_counts", {})
            fields.update(changed)
            fields["metrics"] = dict(fields["metrics"])
            fields["metrics"].setdefault("hot_counts", dict(hot))
            man = Manifest(
                version=base.version + 1 if base else 1,
                txn_id=txn_id,
                parent_version=base.version if base else None,
                parent_txn_id=base.txn_id if base else None,
                **fields,
            )
            mw = man.min_watermark()
            if mw >= 0:
                man.consumed_inputs = {
                    k: v for k, v in man.consumed_inputs.items() if v > mw
                }
            try:
                return self.commit(man), attempt
            except CommitConflict:
                if attempt >= retries:
                    raise
                time.sleep(min(0.05 * attempt, 1.0))
                base = self.current_manifest()

    # -- clone (instant writable fork) -------------------------------------
    def clone_to(self, dst_root: str, version: int | None = None) -> "Lake":
        """Instant writable fork of this lake at ``version`` (default
        current) — the Iceberg-branch analogue for a directory lake. Data
        files are immutable, so on POSIX the clone HARD-LINKS them (O(files)
        metadata ops, zero bytes copied); the two lakes then evolve fully
        independently — GC in one unlinks only its own directory entry, the
        shared inode lives until the last reference drops. On an fsspec
        backend files are server-side copied within the same filesystem.
        The clone starts with exactly one manifest (the chosen version, same
        number — lineage/time-travel semantics carry over), published after
        every file is in place: the target has no manifest until then, so
        its file writes precede any reference to them.
        Use case: dev/test forks of a production lake, A/B reprocessing."""
        man = (
            self.read_manifest(version)
            if version is not None
            else self.current_manifest()
        )
        if man is None:
            raise FileNotFoundError("empty lake: nothing to clone")
        dst = Lake(dst_root, filesystem=self.filesystem)
        if dst.versions():
            raise FileExistsError(f"clone target {dst_root!r} is not empty")
        rels = [f for st in man.partitions.values() for f in st.files]
        rels += list(man.quarantine_files)
        for rel in rels:
            src = self.abspath(rel)
            out = dst.abspath(rel)
            parent = out.rsplit("/", 1)[0]
            dst._makedirs(parent)
            if self.filesystem is not None:
                self.filesystem.copy(src, out)
            else:
                try:
                    os.link(src, out)  # zero-copy COW fork
                except OSError:
                    import shutil

                    shutil.copy2(src, out)  # cross-device fallback
        data = json.dumps(man.to_json(), separators=(",", ":")).encode()
        if not dst._put_manifest_if_absent(
            dst._manifest_path(man.version), data, man.txn_id
        ):
            raise FileExistsError("concurrent clone into the same target")
        return dst

    # -- tags (named version refs, Iceberg-style) --------------------------
    def _tags_path(self) -> str:
        return self._join(self.manifest_dir, "tags.json")

    def tags(self) -> dict[str, int]:
        """Named refs → manifest version (Iceberg tag analogue,
        `radiant/tasks/iceberg` catalog refs). Metadata-only; last writer
        wins (tags are operator commands, not data commits)."""
        path = self._tags_path()
        if not self._exists(path):
            return {}
        if self.filesystem is not None:
            return {k: int(v) for k, v in json.loads(self.filesystem.cat_file(path)).items()}
        with open(path) as f:
            return {k: int(v) for k, v in json.load(f).items()}

    def _write_tags(self, tags: dict[str, int]) -> None:
        data = json.dumps(tags, separators=(",", ":")).encode()
        path = self._tags_path()
        if self.filesystem is not None:
            self.filesystem.pipe_file(path, data)
            return
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)

    #: a tags.lock older than this is assumed crashed and broken open
    _TAG_LOCK_STALE_S = 15.0

    def _tag_lock(self, timeout_s: float = 10.0):
        """Advisory mutex over tags.json read-modify-write AND gc's
        manifest-pruning phase, built on the same put-if-absent CAS as
        manifest commits (ADVICE r4: two concurrent tag writes silently
        dropped one; set_tag's versions() check raced gc pruning).

        A lock left by a crashed process is broken after _TAG_LOCK_STALE_S,
        and only by the waiter that wins a put-if-absent claim keyed by the
        stale holder's token: two waiters that both saw the stale lock
        would otherwise both remove it, the second deleting the lock the
        first had just acquired. The winner removes the lock only if it
        still holds that token, then drops its claim."""
        import contextlib

        lake = self

        def _token(path: str) -> bytes | None:
            try:
                if lake.filesystem is not None:
                    return lake.filesystem.cat_file(path)
                with open(path, "rb") as f:
                    return f.read()
            except (FileNotFoundError, OSError):
                return None

        def _remove_quietly(path: str) -> None:
            try:
                lake._remove(path)
            except (FileNotFoundError, OSError):
                pass

        @contextlib.contextmanager
        def _held():
            lock_path = lake._join(lake.manifest_dir, "tags.lock")
            txn = uuid.uuid4().hex[:16]
            deadline = time.time() + timeout_s
            while not lake._put_manifest_if_absent(
                lock_path, txn.encode(), txn
            ):
                # the holder's token is read BEFORE the lock's age, so a
                # stale age never belongs to a lock newer than the token
                holder = _token(lock_path)
                age = time.time() - lake._mtime(lock_path, default=time.time())
                if holder is not None and age > lake._TAG_LOCK_STALE_S:
                    claim = f"{lock_path}.break-{holder.hex()[:64]}"
                    if lake._put_manifest_if_absent(claim, txn.encode(), txn):
                        if _token(lock_path) == holder:
                            _remove_quietly(lock_path)
                        _remove_quietly(claim)
                    continue
                if time.time() > deadline:
                    raise TimeoutError(
                        f"tags.lock held for {age:.1f}s; another tag/gc "
                        "operation is in flight"
                    )
                time.sleep(0.05)
            try:
                yield
            finally:
                # a holder slower than the stale threshold may have lost
                # the lock to a breaker: never remove a successor's lock
                if _token(lock_path) == txn.encode():
                    _remove_quietly(lock_path)

        return _held()

    def set_tag(self, name: str, version: int) -> None:
        """Pin ``name`` to ``version``. A tagged version is exempt from
        gc_orphans' manifest pruning, so its snapshot (and every data file
        it references) stays readable until the tag is deleted. The
        existence check runs under the tag lock, which gc's pruning phase
        also holds — so a tag can never land on a just-pruned manifest."""
        with self._tag_lock():
            if version not in self.versions():
                raise FileNotFoundError(
                    f"version {version} is not a retained manifest"
                )
            t = self.tags()
            t[name] = int(version)
            self._write_tags(t)

    def delete_tag(self, name: str) -> None:
        with self._tag_lock():
            t = self.tags()
            t.pop(name, None)
            self._write_tags(t)

    def resolve_tag(self, name: str) -> int:
        t = self.tags()
        if name not in t:
            raise KeyError(f"unknown tag {name!r}")
        return t[name]

    # -- GC ---------------------------------------------------------------
    def gc_orphans(
        self, keep_versions: int = 2, staging_age_s: float = 3600.0
    ) -> list[str]:
        """Prune old manifests, then delete unreferenced data files of
        QUIESCED transactions.

        - Manifests older than the newest ``keep_versions`` are removed
          first (time-travel window); data files are then deleted when no
          surviving manifest references them.
        - Unreferenced files are grouped by the transaction that wrote them
          (the ``<txn>`` prefix of ``<txn>-<part>-<i>.parquet`` and of the
          quarantine file ``<txn>.parquet``). A group is removed only when
          its NEWEST file is older than ``staging_age_s``: an in-flight
          apply/compact/reshard writes its files over the whole merge and
          references them only at its publish, so a long writer whose
          first file is old but whose latest is fresh keeps every file —
          deleting one would publish a manifest pointing at a missing file.

        Safe after a crash before the publish: the crashed transaction's
        files are inert; re-running the apply writes a new transaction.
        """
        removed: list[str] = []
        now = time.time()
        # manifest pruning runs under the tag lock: tags are re-read inside
        # it, and set_tag validates its target inside the same lock — no
        # window where a tag lands on a just-pruned manifest (ADVICE r4)
        with self._tag_lock():
            vs = self.versions()
            tagged = set(self.tags().values())  # tag-pinned never prune
            for v in vs[:-keep_versions] if keep_versions > 0 else vs[:-1]:
                if v in tagged:
                    continue
                path = self._manifest_path(v)
                self._remove(path)
                removed.append(f"manifests/manifest-v{v:012d}.json")
        referenced: set[str] = set()
        for v in self.versions():
            man = self.read_manifest(v)
            for st in man.partitions.values():
                referenced.update(st.files)
            referenced.update(man.quarantine_files)
        # unreferenced files by writing txn: (newest mtime, [(path, rel)])
        orphans: dict[str, tuple[float, list]] = {}
        for entry in self._listdir(self.data_dir):
            pdir = self._join(self.data_dir, entry)
            if not self._isdir(pdir):
                continue
            for fn in self._listdir(pdir):
                rel = f"data/{entry}/{fn}"
                if rel in referenced:
                    continue
                path = self._join(pdir, fn)
                txn = fn.split(".", 1)[0].split("-", 1)[0]
                newest, files = orphans.get(txn, (0.0, []))
                files.append((path, rel))
                orphans[txn] = (max(newest, self._mtime(path, default=now)), files)
        for newest, files in orphans.values():
            if now - newest < staging_age_s:
                continue
            for path, rel in files:
                self._remove(path)
                removed.append(rel)
        return removed
