"""WAL/binlog tail loop: continuous micro-batch ingest of a changelog
directory (the north-star's "tails a binlog/WAL-style change stream";
reference analogue: the Airflow-scheduled periodic import run,
`radiant/dags/import_radiant.py:48-210`, re-expressed as a driver loop over
the exactly-once apply).

Each poll reads parquet FOOTERS only, never data pages, and each distinct
footer is parsed once per process (``input_max_lsn``'s memo):

- The manifest carries a ``consumed_inputs`` ledger (input basename →
  max lsn) recorded ATOMICALLY with the commit that consumed it — file
  consumption inherits the lake's exactly-once CAS, no side-channel state.
  A file is consumed when its ledger entry matches its max lsn
  (``is_consumed``, the one rule the tail and the apply round share).
- The ledger is bounded: commits prune entries whose ``max_lsn`` is at or
  below the lake's min watermark, because such a file is PROVABLY a no-op
  to re-apply (every partition's watermark drops all of its events). The
  tail re-derives that proof for pruned/unknown files from the parquet
  FOOTER alone (row-group lsn statistics — no data pages read). A file
  with a null or negative lsn proves nothing by its lsns: its max lsn is
  ``UNPROVABLE``, so its entry is never pruned.
- A file that is neither in the ledger nor footer-provable is applied;
  if a crash happened after its commit but the ledger write raced, the
  re-apply is still a no-op by the LWW watermark (idempotence is the
  engine's, the ledger is the fast path).

Crash-resume therefore needs no recovery step: restart the loop and it
continues from the committed state.
"""

from __future__ import annotations

import glob
import hashlib
import logging
import os
import time

import pyarrow.compute as pc
import pyarrow.parquet as pq

logger = logging.getLogger(__name__)

#: ``input_max_lsn`` of a file nothing but an exact ledger match can prove
#: consumed (an unreadable footer, or a null or negative lsn)
UNPROVABLE = 1 << 62

#: ``input_max_lsn`` memo: absolute path → (digest of the raw footer bytes,
#: max lsn). Only values decided from row-group statistics enter it. Each
#: entry is one dict store, so concurrent writers (``apply_backlog``'s
#: threads) can lose an entry to a clear, never read a torn one.
_FOOTER_MEMO: dict[str, tuple[bytes, int]] = {}
#: entry bound; the memo is cleared when it is reached
_FOOTER_MEMO_MAX = 1 << 16


def _footer_digest(path: str) -> bytes | None:
    """blake2b of a Parquet file's raw footer (metadata, its length and the
    magic), or None when the file has no readable footer. Equal digests
    mean equal row-group statistics, so a file rewritten in place with
    other lsns gets a new digest."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    try:
        size = os.fstat(fd).st_size
        end = os.pread(fd, 8, max(size - 8, 0))
        n = int.from_bytes(end[:4], "little")
        if len(end) < 8 or end[4:] != b"PAR1" or n > size - 12:
            return None
        return hashlib.blake2b(
            os.pread(fd, n, size - 8 - n) + end, digest_size=16
        ).digest()
    except OSError:
        return None
    finally:
        os.close(fd)


def input_max_lsn(path: str) -> int:
    """Max lsn of a changelog file from row-group statistics (footer-only);
    falls back to a single-column read when stats are absent.

    Returns ``UNPROVABLE`` unless every lsn is valid (non-null, ≥ 0): a
    ``bad_lsn`` row says nothing about what was committed, so such a file
    must be neither skipped by the watermark nor pruned from the ledger —
    only an exact ledger match proves it consumed.

    A footer already parsed in this process, byte for byte, is not parsed
    again: a poll over an unchanged directory costs one raw footer read
    and hash per file."""
    from radiant_portal_pipeline_ray.stages.taskshuffle import (
        _lsn_col_index,
        valid_lsn_max,
    )

    key = os.path.abspath(path)
    digest = _footer_digest(key)
    hit = _FOOTER_MEMO.get(key)
    if digest is not None and hit is not None and hit[0] == digest:
        return hit[1]
    try:
        md = pq.ParquetFile(path).metadata
        idx = _lsn_col_index(md) if md.num_row_groups > 0 else -1
        if idx >= 0:
            mx = None
            for rg in range(md.num_row_groups):
                v = valid_lsn_max(md.row_group(rg).column(idx).statistics)
                if v is None:
                    mx = None
                    break
                mx = v if mx is None else max(mx, v)
            if mx is not None:
                if digest is not None:
                    if len(_FOOTER_MEMO) >= _FOOTER_MEMO_MAX:
                        _FOOTER_MEMO.clear()
                    _FOOTER_MEMO[key] = (digest, mx)
                return mx
        col = pq.read_table(path, columns=["lsn"]).column("lsn")
        if col.null_count or (len(col) and pc.min(col).as_py() < 0):
            return UNPROVABLE
        v = pc.max(col).as_py()
        return int(v) if v is not None else -1
    except Exception:  # unreadable footer → never skippable, never prunable
        return UNPROVABLE


def is_consumed(man, path: str, max_lsn: int | None = None) -> bool:
    """Whether a commit up to manifest ``man`` provably consumed the input
    at ``path``: its basename is in the ``consumed_inputs`` ledger with the
    same max lsn, or its every event is at or below the min watermark.
    ``max_lsn`` is the file's ``input_max_lsn`` when the caller has it; it
    is read from the footer otherwise. The tail skips such an input, and
    an apply round does not quarantine its malformed rows again."""
    if man is None:
        return False
    ledger = man.consumed_inputs
    min_wm = man.min_watermark()
    if os.path.basename(path) not in ledger and min_wm < 0:
        return False  # nothing can prove it; skip the footer read
    if max_lsn is None:
        max_lsn = input_max_lsn(path)
    return ledger.get(os.path.basename(path)) == max_lsn or (
        0 <= min_wm and max_lsn <= min_wm
    )


def pending_inputs(engine, changelog_dir: str) -> list[str]:
    """Changelog files not yet provably consumed, in name order (the
    generator emits lsn-ordered batch files, so name order is lsn order)."""
    return _unconsumed(engine.lake.current_manifest(), changelog_dir)


def _unconsumed(man, changelog_dir: str) -> list[str]:
    return [
        path
        for path in sorted(glob.glob(os.path.join(changelog_dir, "*.parquet")))
        if not is_consumed(man, path)
    ]


def tail(
    engine,
    changelog_dir: str,
    poll_s: float = 2.0,
    max_rounds: int | None = None,
    idle_exit: int | None = None,
    batch_files: int | None = None,
    on_report=None,
    sig_index=None,
) -> list[dict]:
    """Poll ``changelog_dir`` and apply new files as they appear.

    - ``max_rounds``: stop after this many apply rounds (None = unbounded).
    - ``idle_exit``: stop after this many consecutive empty polls (None =
      poll forever; set for tests/drain runs).
    - ``batch_files``: cap files per apply round (micro-batch sizing; a
      round's delta must fit the cluster's object-store budget —
      BASELINE.md large-scale note).
    - ``sig_index``: a ``SignatureIndex`` to maintain continuously — built
      from the first committed version, then probed+updated per commit
      (``ingest_round``), so near-duplicates of every incoming document are
      detected AT INGEST TIME in O(changed); each round's pairs persist to
      ``<index root>/pairs/v{version}.parquet`` and the report carries
      ``neardup_pairs``.
    Returns the apply reports in execution order.
    """
    from radiant_portal_pipeline_ray.stages.taskshuffle import collect

    reports: list[dict] = []
    rounds = 0
    idle = 0
    while True:
        # the round's one manifest read: the apply plans from it too, and
        # its commit rebases if another writer committed meanwhile
        man = engine.lake.current_manifest()
        new = _unconsumed(man, changelog_dir)
        if batch_files and len(new) > batch_files:
            new = new[:batch_files]
        if new:
            idle = 0
            v_prev = man.version if man is not None else None
            rep = engine.apply(new, base=man)
            rep["consumed_files"] = [os.path.basename(p) for p in new]
            v_new = rep.get("version")
            if sig_index is not None and v_new is not None:
                if sig_index.version is None:
                    sig_index.build(engine, v_new)
                    rep["sig_index"] = {"built_at": v_new}
                elif v_prev is not None and v_new != v_prev:
                    if sig_index.version != v_prev:
                        raise ValueError(
                            f"signature index at version {sig_index.version} "
                            f"cannot follow lake {v_prev}->{v_new}; rebuild it"
                        )
                    pairs, stats = sig_index.ingest_round(engine, v_prev, v_new)
                    pt = collect(pairs)
                    if pt.num_rows:
                        pdir = os.path.join(sig_index.root, "pairs")
                        os.makedirs(pdir, exist_ok=True)
                        pq.write_table(
                            pt,
                            os.path.join(pdir, f"v{v_new:06d}.parquet"),
                            compression="zstd",
                        )
                    rep["neardup_pairs"] = pt.num_rows
                    rep["sig_index"] = stats
            reports.append(rep)
            if on_report is not None:
                on_report(rep)
            rounds += 1
            if max_rounds is not None and rounds >= max_rounds:
                break
            continue  # drain the backlog before sleeping
        idle += 1
        if idle_exit is not None and idle >= idle_exit:
            break
        time.sleep(poll_s)
    return reports
