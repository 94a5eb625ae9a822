"""Regression tests for round-1 review findings: tombstone-purge
resurrection, GC vs in-flight writers, stale-base commit detection,
migration watermark seeding, and the run_qa hook."""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import (
    CdcEngine,
    ConcurrentWriterConflict,
)
from radiant_portal_pipeline_ray.pipelines.maintenance import compact
from radiant_portal_pipeline_ray.schemas import CHANGELOG_SCHEMA
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)

_US = 1_000_000
_T0 = 1_704_067_200 * _US  # 2024-01-01T00:00:00Z


def _write_events(path: str, rows: list[tuple]) -> str:
    """rows: (lsn, op, url, warc_ts_us)."""
    t = pa.Table.from_pydict(
        {
            "lsn": pa.array([r[0] for r in rows], pa.int64()),
            "op": pa.array([r[1] for r in rows], pa.string()),
            "url": pa.array([r[2] for r in rows], pa.string()),
            "warc_ts": pa.array([r[3] for r in rows], pa.timestamp("us")),
            "html": pa.array(
                [f"<html><body>{r[2]}</body></html>".encode() for r in rows],
                pa.binary(),
            ),
            "text": pa.array(["" for _ in rows], pa.string()),
            "lang": pa.array(["en" for _ in rows], pa.string()),
        },
        schema=CHANGELOG_SCHEMA,
    )
    pq.write_table(t, path)
    return path


def test_purge_horizon_blocks_late_event_resurrection(ray_session, tmp_path):
    """The ADVICE repro: insert+delete, purge, then a LATE update (new lsn,
    old warc_ts). The tombstone is inside the event-time horizon, so it must
    survive the purge and the late update must lose the LWW."""
    lake = str(tmp_path / "lake")
    day = 86400 * _US
    # url A: insert then delete recently; url B: insert+delete far in the
    # past (outside horizon); url C sets the event-time frontier.
    b1 = _write_events(
        str(tmp_path / "b1.parquet"),
        [
            (1, "I", "https://old.example.org/b", _T0),
            (2, "D", "https://old.example.org/b", _T0 + 1 * _US),
            (3, "I", "https://fresh.example.org/a", _T0 + 30 * day),
            (4, "D", "https://fresh.example.org/a", _T0 + 30 * day + 1 * _US),
            (5, "I", "https://live.example.org/c", _T0 + 30 * day + 2 * _US),
        ],
    )
    cfg = EngineConfig(n_parts=4, tombstone_horizon_lag_s=86400)
    eng = CdcEngine(lake, cfg)
    eng.apply([b1])

    r = compact(lake, cfg, min_files=1, purge_tombstones=True)
    assert r["noop"] is False
    man = eng.lake.current_manifest()
    # B's ancient tombstone purged, A's recent tombstone retained
    assert sum(st.tombstones for st in man.partitions.values()) == 1

    # late out-of-order update for A: lsn above every watermark, warc_ts
    # BEFORE the delete → must lose to the retained tombstone
    b2 = _write_events(
        str(tmp_path / "b2.parquet"),
        [(6, "U", "https://fresh.example.org/a", _T0 + 30 * day - 3600 * _US)],
    )
    eng.apply([b2])
    urls = set(eng.snapshot_table(["url"]).column("url").to_pylist())
    assert urls == {"https://live.example.org/c"}  # A stays deleted


def test_gc_spares_recent_staging_and_prunes_versions(ray_session, tmp_path):
    paths = generate_changelog(
        str(tmp_path / "cl"), ChangelogSpec(n_urls=200, n_events=1200, n_batches=3)
    )
    lake_root = str(tmp_path / "lake")
    eng = CdcEngine(lake_root, EngineConfig(n_parts=2))
    for p in paths:
        eng.apply([p])
    assert eng.lake.current_version() == 3

    # a fresh unreferenced data file = an in-flight writer; GC must not
    # touch it
    live_staged = os.path.join(
        eng.lake.data_dir, "part=0", "aaaa000011112222-0-0000.parquet"
    )
    with open(live_staged, "wb") as f:
        f.write(b"in-flight")

    removed = eng.lake.gc_orphans(keep_versions=1)
    assert os.path.exists(live_staged), "recent txn files must survive GC"
    # old manifests pruned to keep_versions=1
    assert eng.lake.versions() == [3]
    assert any("manifest-v" in r for r in removed)
    # current snapshot still fully readable
    assert eng.snapshot_table().num_rows > 0
    for st in eng.lake.current_manifest().partitions.values():
        for fp in st.files:
            assert os.path.exists(eng.lake.abspath(fp))

    # a quiesced txn (age threshold 0) is reclaimed
    eng.lake.gc_orphans(keep_versions=1, staging_age_s=0.0)
    assert not os.path.exists(live_staged)


def test_stale_base_commit_raises_concurrent_writer_conflict(
    ray_session, tmp_path, monkeypatch
):
    """If another writer advances a merged partition between the merge
    snapshot and the commit, the commit must fail fast instead of silently
    overwriting the other writer's rows."""
    import dataclasses

    from radiant_portal_pipeline_ray.state.manifest import Lake

    paths = generate_changelog(
        str(tmp_path / "cl"), ChangelogSpec(n_urls=200, n_events=1200, n_batches=2)
    )
    lake_root = str(tmp_path / "lake")
    eng = CdcEngine(lake_root, EngineConfig(n_parts=2))
    eng.apply(paths[:1])
    stale_base = eng.lake.current_manifest()  # v1 — our merge snapshot

    orig = Lake.commit
    raced = []

    def racing_commit(self, manifest):
        # a concurrent writer advances every partition just before this
        # round's first commit attempt
        if not raced:
            raced.append(manifest.txn_id)
            orig(
                self,
                dataclasses.replace(
                    stale_base,
                    version=stale_base.version + 1,
                    parent_version=stale_base.version,
                    txn_id="cafecafecafecafe",
                    partitions={
                        p: dataclasses.replace(
                            st, watermark_lsn=st.watermark_lsn + 1
                        )
                        for p, st in stale_base.partitions.items()
                    },
                ),
            )
        return orig(self, manifest)

    monkeypatch.setattr(Lake, "commit", racing_commit)
    with pytest.raises(ConcurrentWriterConflict):
        eng.apply(paths[1:])
    assert raced
    assert eng.lake.current_manifest().txn_id == "cafecafecafecafe"


def test_salting_migration_seeds_target_watermarks(ray_session, tmp_path):
    """A salt-target partition that received only carried rows must inherit
    its source partitions' watermark instead of committing -1 (which would
    drag min_watermark down and force a full-history re-read)."""
    spec = ChangelogSpec(n_urls=2000, n_events=6000, n_batches=3, seed=13, zipf_a=2.5)
    paths = generate_changelog(str(tmp_path / "hot"), spec)
    cfg = EngineConfig(n_parts=4, salt_threshold_rows=500, salt_target_rows=300)
    eng = CdcEngine(str(tmp_path / "lake"), cfg)
    for p in paths:
        eng.apply([p])
    man = eng.lake.current_manifest()
    assert man.salt_map, "hot domain should have been salted"
    salt_parts = {p for parts in man.salt_map.values() for p in parts}
    for p in salt_parts:
        st = man.partitions.get(p)
        if st is not None and (st.rows > 0 or st.files):
            assert st.watermark_lsn > -1, f"salt target {p} left at wm=-1"
    # and min_watermark did not collapse to -1
    populated = [
        st.watermark_lsn
        for st in man.partitions.values()
        if st.files or st.rows
    ]
    assert min(populated) > -1


def test_run_qa_hook_produces_report(ray_session, tmp_path):
    paths = generate_changelog(
        str(tmp_path / "cl"), ChangelogSpec(n_urls=100, n_events=500, n_batches=1)
    )
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=2, run_qa=True))
    rep = eng.apply(paths)
    assert rep["qa"]["passed"] is True
    assert "not_empty" in rep["qa"]["checks"]


def test_stage_metrics_persisted_in_manifest(ray_session, tmp_path):
    paths = generate_changelog(
        str(tmp_path / "cl"), ChangelogSpec(n_urls=100, n_events=500, n_batches=1)
    )
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=2))
    eng.apply(paths)
    sm = eng.lake.current_manifest().metrics["stage_metrics"]
    assert sm["normalize"]["events_in"] > 0
    assert sm["merge"]["rows_out"] > 0
    assert sm["merge"]["rows_in"] >= sm["merge"]["rows_out"]
    assert sm["write"]["bytes"] > 0 and sm["write"]["files"] > 0
    assert set(sm["timings_s"]) >= {"plan", "scout", "merge"}
