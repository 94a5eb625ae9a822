"""Ingest-time incremental near-dup: index update parity vs fresh rebuild,
crash-safety of the LSM sidecar, probe semantics."""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pytest

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.pipelines.flagship import documents_changelog
from radiant_portal_pipeline_ray.stages.taskshuffle import collect
from radiant_portal_pipeline_ray.pipelines.incremental_dedup import (
    SIG_MATCH_MIN,
    SignatureIndex,
)

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def lake(ray_session, tmp_path_factory):
    """Flagship replay: two incremental commits (v1, v2) shared by the
    module's tests."""
    work = tmp_path_factory.mktemp("incr_dedup")
    paths = documents_changelog(SF, str(work / "changelog"))
    eng = CdcEngine(str(work / "lake"), EngineConfig(n_parts=8))
    for p in paths:
        eng.apply([p])
    return eng, work


def _canon(t: pa.Table) -> list[tuple]:
    rows = []
    for r in t.to_pylist():
        mh = r.get("minhash")
        rows.append(
            (r["url"], r.get("band_hash"), tuple(mh) if mh is not None else None)
        )
    return sorted(rows)


def test_update_parity_with_fresh_build(lake):
    """build(v1) + update(v1→v2) must equal build(v2) entry-for-entry in
    both sidecars (the index's core invariant)."""
    eng, work = lake
    inc = SignatureIndex(str(work / "idx_inc"), n_buckets=8)
    inc.build(eng, 1)
    stats = inc.update(eng, 1, 2)
    assert stats["version"] == 2
    assert stats["band_adds"] > 0 and stats["band_dels"] > 0

    fresh = SignatureIndex(str(work / "idx_fresh"), n_buckets=8)
    fresh.build(eng, 2)

    for kind in ("bands", "sigs"):
        a = _canon(inc.snapshot_entries(kind))
        b = _canon(fresh.snapshot_entries(kind))
        assert a == b, f"{kind}: incremental != fresh ({len(a)} vs {len(b)})"


def test_probe_pairs_sane(lake):
    eng, work = lake
    idx = SignatureIndex(str(work / "idx_probe"), n_buckets=8)
    idx.build(eng, 1)
    t = collect(idx.probe(eng, 1, 2))
    assert t.num_rows > 0  # sf0.001 plants near-dup docs
    rows = t.to_pylist()
    for r in rows:
        assert r["new_url"] != r["old_url"]
        assert r["sig_match"] >= SIG_MATCH_MIN
        assert abs(r["est_sim"] - r["sig_match"] / 64.0) < 1e-12
    # probing at the wrong base version must fail fast
    with pytest.raises(ValueError, match="probe needs"):
        idx.probe(eng, 2, 2)


def test_crash_safety_and_idempotent_retry(lake):
    """Files written for an unacknowledged version are invisible to readers;
    re-running the update overwrites its own partial files and converges to
    the same state."""
    eng, work = lake
    root = str(work / "idx_crash")
    idx = SignatureIndex(root, n_buckets=8)
    idx.build(eng, 1)
    before = _canon(idx.snapshot_entries("bands"))

    # simulate a crashed update: run it fully, then roll the meta back
    idx.update(eng, 1, 2)
    meta_path = os.path.join(root, "index.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta["version"] = 1
    with open(meta_path, "w") as f:
        json.dump(meta, f)

    rolled = SignatureIndex(root, n_buckets=8)
    assert rolled.version == 1
    # v2 files exist on disk but are not acknowledged → reads see v1 state
    assert _canon(rolled.snapshot_entries("bands")) == before

    # retry the update: deterministic filenames overwrite the orphans
    rolled.update(eng, 1, 2)
    fresh = SignatureIndex(str(work / "idx_crash_fresh"), n_buckets=8)
    fresh.build(eng, 2)
    for kind in ("bands", "sigs"):
        assert _canon(rolled.snapshot_entries(kind)) == _canon(
            fresh.snapshot_entries(kind)
        )


def _pairs_sorted(ds) -> list[tuple]:
    return sorted(
        (r["new_url"], r["old_url"], r["sig_match"]) for r in collect(ds).to_pylist()
    )


def _count_split_tasks(monkeypatch) -> list:
    """A list that grows by one per ``bucket_split_task`` submission."""
    from radiant_portal_pipeline_ray.stages import taskshuffle

    calls = []
    orig = taskshuffle.bucket_split_task._remote

    def counted(*a, **kw):
        calls.append(1)
        return orig(*a, **kw)

    monkeypatch.setattr(taskshuffle.bucket_split_task, "_remote", counted)
    return calls


def test_distributed_path_parity(lake, monkeypatch):
    """``taskshuffle._DRIVER_LOCAL_BYTES = -1`` routes probe, update and
    the changed-doc read through split tasks; pairs and the maintained
    index must match the driver-split route exactly. Each leg's route is
    asserted by its split-task submissions: none by default, some in both
    probe and update at ``-1``."""
    from radiant_portal_pipeline_ray.stages import taskshuffle

    eng, work = lake
    splits = _count_split_tasks(monkeypatch)
    a = SignatureIndex(str(work / "idx_small_path"), n_buckets=8)
    a.build(eng, 1)
    pairs_small = _pairs_sorted(a.probe(eng, 1, 2))
    a.update(eng, 1, 2)
    assert len(splits) == 0

    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    b = SignatureIndex(str(work / "idx_dist_path"), n_buckets=8)
    b.build(eng, 1)
    splits.clear()
    pairs_dist = _pairs_sorted(b.probe(eng, 1, 2))
    probe_splits = len(splits)
    b.update(eng, 1, 2)
    assert probe_splits >= 1 and len(splits) > probe_splits

    assert pairs_small == pairs_dist and len(pairs_small) > 0
    for kind in ("bands", "sigs"):
        assert _canon(a.snapshot_entries(kind)) == _canon(
            b.snapshot_entries(kind)
        )


def test_any_bucket_count_on_the_two_level_split(lake, monkeypatch):
    """An index bucket count that is not a power of two (6), routed through
    split tasks on the two-level split (``_REF_BUDGET = 1``): no row is
    lost, so the round's pairs and the maintained index equal the driver
    route's."""
    from radiant_portal_pipeline_ray.stages import taskshuffle

    eng, work = lake
    a = SignatureIndex(str(work / "idx_b6_driver"), n_buckets=6)
    a.build(eng, 1)
    pairs_driver, _ = a.ingest_round(eng, 1, 2)
    pairs_driver = _pairs_sorted(pairs_driver)

    fans = []
    fan = taskshuffle.fan_subsplit
    monkeypatch.setattr(
        taskshuffle, "fan_subsplit", lambda *a, **kw: fans.append(1) or fan(*a, **kw)
    )
    monkeypatch.setattr(taskshuffle, "_DRIVER_LOCAL_BYTES", -1)
    monkeypatch.setattr(taskshuffle, "_REF_BUDGET", 1)
    b = SignatureIndex(str(work / "idx_b6_split"), n_buckets=6)
    b.build(eng, 1)
    fans.clear()
    pairs_split, _ = b.ingest_round(eng, 1, 2)
    assert len(fans) >= 4  # both waves and both write passes went two-level

    assert _pairs_sorted(pairs_split) == pairs_driver and len(pairs_driver) > 0
    for kind in ("bands", "sigs"):
        assert _canon(a.snapshot_entries(kind)) == _canon(
            b.snapshot_entries(kind)
        )


def test_ingest_round_equals_probe_then_update(lake):
    eng, work = lake
    a = SignatureIndex(str(work / "idx_round"), n_buckets=8)
    a.build(eng, 1)
    pairs, stats = a.ingest_round(eng, 1, 2)
    assert stats["version"] == 2 and a.version == 2

    b = SignatureIndex(str(work / "idx_round_ref"), n_buckets=8)
    b.build(eng, 1)
    ref_pairs = _pairs_sorted(b.probe(eng, 1, 2))
    b.update(eng, 1, 2)
    assert _pairs_sorted(pairs) == ref_pairs
    for kind in ("bands", "sigs"):
        assert _canon(a.snapshot_entries(kind)) == _canon(
            b.snapshot_entries(kind)
        )


def test_compact_preserves_state(lake):
    """compact() folds history to one file per bucket without changing the
    live entries; re-adding the superseded files (the crash window between
    the compacted write and the removals) must ALSO fold to the same state
    — the compacted file's url-level dels shadow every older add."""
    eng, work = lake
    root = str(work / "idx_compact")
    idx = SignatureIndex(root, n_buckets=8)
    idx.build(eng, 1)
    idx.update(eng, 1, 2)
    before = {k: _canon(idx.snapshot_entries(k)) for k in ("bands", "sigs")}

    # stash the pre-compaction files to replay the crash window later
    stash = {}
    for kind in ("bands", "sigs"):
        for bdir in sorted(os.listdir(os.path.join(root, kind))):
            d = os.path.join(root, kind, bdir)
            for name in os.listdir(d):
                with open(os.path.join(d, name), "rb") as f:
                    stash[(kind, bdir, name)] = f.read()

    stats = idx.compact()
    assert stats["files_removed"] > 0
    for kind in ("bands", "sigs"):
        assert _canon(idx.snapshot_entries(kind)) == before[kind]
        for bdir in os.listdir(os.path.join(root, kind)):
            files = os.listdir(os.path.join(root, kind, bdir))
            assert len(files) == 1, f"{kind}/{bdir} not compacted: {files}"

    # crash window: superseded files coexist with the compacted file
    for (kind, bdir, name), data in stash.items():
        path = os.path.join(root, kind, bdir, name)
        if not os.path.exists(path):
            with open(path, "wb") as f:
                f.write(data)
    reread = SignatureIndex(root, n_buckets=8)
    for kind in ("bands", "sigs"):
        assert _canon(reread.snapshot_entries(kind)) == before[kind]


def test_index_param_mismatch_rejected(lake, tmp_path):
    root = str(tmp_path / "idx_params")
    idx = SignatureIndex(root, n_buckets=8)
    idx.meta["n_perm"] = 32  # corrupt params, then persist
    idx._commit_meta(0)
    with pytest.raises(ValueError, match="different signature params"):
        SignatureIndex(root)
