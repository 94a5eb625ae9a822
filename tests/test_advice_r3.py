"""Regression tests for round-2 review findings: routing-state divergence
on concurrent commit, n_parts immutability, GC data-file quiescence, and
the warc_ts missing-column purge-horizon guard."""

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
from radiant_portal_pipeline_ray.pipelines.maintenance import _max_warc_ts_us
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)
from radiant_portal_pipeline_ray.state.manifest import Lake


def test_n_parts_mismatch_fails_fast(ray_session, tmp_path):
    """Applying to an existing lake with a different n_parts would re-route
    urls away from their carried state; the engine must refuse."""
    paths = generate_changelog(
        str(tmp_path / "cl"), ChangelogSpec(n_urls=100, n_events=400, n_batches=2)
    )
    lake_root = str(tmp_path / "lake")
    CdcEngine(lake_root, EngineConfig(n_parts=4)).apply(paths[:1])
    eng8 = CdcEngine(lake_root, EngineConfig(n_parts=8))
    with pytest.raises(ValueError, match="n_parts"):
        eng8.apply(paths[1:])
    # same n_parts still applies fine
    CdcEngine(lake_root, EngineConfig(n_parts=4)).apply(paths[1:])


def test_routing_state_divergence_raises_conflict(
    ray_session, tmp_path, monkeypatch
):
    """A concurrent writer that changed salt_map/pending_migrations/
    next_part (even on DISJOINT partitions) must not have its routing
    decisions silently overwritten by a stale-base rebuild."""
    import dataclasses

    paths = generate_changelog(
        str(tmp_path / "cl"), ChangelogSpec(n_urls=200, n_events=1200, n_batches=2)
    )
    lake_root = str(tmp_path / "lake")
    eng = CdcEngine(lake_root, EngineConfig(n_parts=2))
    eng.apply(paths[:1])
    stale_base = eng.lake.current_manifest()

    orig = Lake.commit
    raced = []

    def racing_commit(self, manifest):
        # a concurrent writer advances the version changing ONLY routing
        # state (no data partitions touched) just before this round's
        # first commit attempt
        if not raced:
            raced.append(manifest.txn_id)
            orig(
                self,
                dataclasses.replace(
                    stale_base,
                    version=stale_base.version + 1,
                    parent_version=stale_base.version,
                    txn_id="cafecafecafecafe",
                    salt_map={"hot.example.org": [7, 8]},
                    next_part=9,
                ),
            )
        return orig(self, manifest)

    monkeypatch.setattr(Lake, "commit", racing_commit)
    with pytest.raises(ConcurrentWriterConflict, match="routing state"):
        eng.apply(paths[1:])
    assert raced
    assert eng.lake.current_manifest().txn_id == "cafecafecafecafe"


def test_gc_spares_fresh_promoted_data_files(tmp_path):
    """A freshly promoted but not-yet-referenced data file is in the
    promote→commit window of an in-flight apply; default-age GC must not
    delete it (only staging_age_s=0 reclaims it)."""
    lake = Lake(str(tmp_path / "lake"))  # no manifest committed at all
    os.makedirs(os.path.join(lake.data_dir, "part=0"), exist_ok=True)
    fresh = os.path.join(lake.data_dir, "part=0", "inflight.parquet")
    with open(fresh, "wb") as f:
        f.write(b"x")
    removed = lake.gc_orphans()
    assert os.path.exists(fresh)
    assert not any("inflight" in r for r in removed)
    removed = lake.gc_orphans(staging_age_s=0.0)
    assert not os.path.exists(fresh)
    assert any("inflight" in r for r in removed)


def test_max_warc_ts_skips_files_without_column(tmp_path):
    """A snapshot file without warc_ts must be SKIPPED, not read at
    column(-1) (pa.Schema.get_field_index returns -1, never raises)."""
    from radiant_portal_pipeline_ray.state.manifest import (
        Manifest,
        PartitionState,
    )

    lake = Lake(str(tmp_path / "lake"))
    os.makedirs(os.path.join(lake.data_dir, "part=0"), exist_ok=True)
    # file WITHOUT warc_ts whose last column holds a huge int64 — the old
    # bug would read its stats as the purge horizon
    p0 = os.path.join(lake.data_dir, "part=0", "nowarc.parquet")
    pq.write_table(
        pa.table({"url": ["a"], "big_last": pa.array([2**62], pa.int64())}), p0
    )
    p1 = os.path.join(lake.data_dir, "part=0", "warc.parquet")
    pq.write_table(
        pa.table({"warc_ts": pa.array([123_000_000], pa.timestamp("us"))}), p1
    )
    man = Manifest(
        version=1,
        txn_id="t",
        parent_version=None,
        schema=None,
        n_parts=1,
        partitions={
            0: PartitionState(
                files=["data/part=0/nowarc.parquet", "data/part=0/warc.parquet"]
            )
        },
    )
    assert _max_warc_ts_us(lake, man) == 123_000_000
