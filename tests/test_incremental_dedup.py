"""Ingest-time incremental near-dup: index update parity vs fresh rebuild,
crash-safety of the LSM sidecar, probe semantics."""

from __future__ import annotations

import os

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
from radiant_portal_pipeline_ray.state.manifest import CommitConflict, Lake, Manifest

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


def crash_next_commit(monkeypatch, root: str) -> None:
    """``Lake.commit`` of the lake at ``root`` raises once: a round that
    dies after its file writes and before its publish."""
    orig = Lake.commit
    left = [1]

    def commit(self, manifest):
        if self.root == root and left:
            left.pop()
            raise RuntimeError("crash before the index commit")
        return orig(self, manifest)

    monkeypatch.setattr(Lake, "commit", commit)


def _data_files(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(d, f), root)
        for d, _, fs in os.walk(os.path.join(root, "data"))
        for f in fs
    }


def test_crash_safety_and_idempotent_retry(lake, monkeypatch):
    """Files a crashed round wrote are referenced by no index manifest, so
    readers do not see them; re-running the update converges to a fresh
    build, and gc reclaims the crashed round's files."""
    eng, work = lake
    root = str(work / "idx_crash")
    idx = SignatureIndex(root, n_buckets=8)
    idx.build(eng, 1)
    before = _canon(idx.snapshot_entries("bands"))
    built_files = _data_files(root)

    # simulate a crashed update: its writes land, its commit raises
    crash_next_commit(monkeypatch, root)
    with pytest.raises(RuntimeError, match="crash"):
        idx.update(eng, 1, 2)
    crashed = _data_files(root) - built_files
    assert crashed and idx.version == 1

    rolled = SignatureIndex(root, n_buckets=8)
    assert rolled.version == 1
    # the crashed round's files exist on disk but are unreferenced → reads
    # see the v1 state
    assert _canon(rolled.snapshot_entries("bands")) == before

    # retry the update: a new transaction, published once
    rolled.update(eng, 1, 2)
    fresh = SignatureIndex(str(work / "idx_crash_fresh"), n_buckets=8)
    fresh.build(eng, 2)
    for kind in ("bands", "sigs"):
        assert _canon(rolled.snapshot_entries(kind)) == _canon(
            fresh.snapshot_entries(kind)
        )
    removed = set(rolled.lake.gc_orphans(keep_versions=1, staging_age_s=0))
    assert crashed <= removed and not (removed & built_files)
    for kind in ("bands", "sigs"):
        assert _canon(SignatureIndex(root).snapshot_entries(kind)) == _canon(
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


def test_compact_preserves_state(lake, monkeypatch):
    """compact() folds history to one file per bucket in the index manifest
    without changing the live entries; a compaction that dies between its
    writes and its commit (the compacted files on disk beside the
    superseded ones) leaves readers the same state."""
    eng, work = lake
    root = str(work / "idx_compact")
    idx = SignatureIndex(root, n_buckets=8)
    idx.build(eng, 1)
    idx.update(eng, 1, 2)
    before = {k: _canon(idx.snapshot_entries(k)) for k in ("bands", "sigs")}

    # crash window: the compacted files are written, the commit is not
    crash_next_commit(monkeypatch, root)
    with pytest.raises(RuntimeError, match="crash"):
        idx.compact()
    reread = SignatureIndex(root, n_buckets=8)
    assert reread.version == 2
    for kind in ("bands", "sigs"):
        assert _canon(reread.snapshot_entries(kind)) == before[kind]

    stats = idx.compact()
    assert stats["files_removed"] > 0
    for kind in ("bands", "sigs"):
        assert _canon(idx.snapshot_entries(kind)) == before[kind]
    for p, st in SignatureIndex(root).manifest.partitions.items():
        assert len(st.files) == 1, f"partition {p} not compacted: {st.files}"


def test_index_param_mismatch_rejected(lake, tmp_path):
    root = str(tmp_path / "idx_params")
    params = {**SignatureIndex(root, n_buckets=8).params, "n_perm": 32}
    # an index manifest committed with other params
    Lake(root).commit(
        Manifest(
            version=1, txn_id="other-params", parent_version=None, schema=None,
            metrics={"params": params, "lake_version": 0},
        )
    )
    with pytest.raises(ValueError, match="different signature params"):
        SignatureIndex(root)


def test_two_maintainers_racing_one_version_leave_one_winner(lake):
    """Two index objects on one root advance it from the same version: the
    first commit wins, the other raises ``CommitConflict`` without
    publishing, and the index equals a fresh build at the new version."""
    eng, work = lake
    root = str(work / "idx_race")
    a = SignatureIndex(root, n_buckets=8)
    a.build(eng, 1)
    b = SignatureIndex(root, n_buckets=8)
    assert b.version == 1
    a.update(eng, 1, 2)
    with pytest.raises(CommitConflict):
        b.update(eng, 1, 2)
    assert b.version == 1

    winner = SignatureIndex(root, n_buckets=8)
    assert winner.version == 2 and winner.manifest.txn_id == a.manifest.txn_id
    fresh = SignatureIndex(str(work / "idx_race_fresh"), n_buckets=8)
    fresh.build(eng, 2)
    for kind in ("bands", "sigs"):
        assert _canon(winner.snapshot_entries(kind)) == _canon(
            fresh.snapshot_entries(kind)
        )


def test_s3_index_matches_a_posix_index(lake, moto_s3):
    """On the moto S3 server an ``s3://`` index goes through build →
    ingest_round → compact, with its manifests and files in the bucket,
    and holds the same pairs and entries as a POSIX index."""
    import boto3

    eng, work = lake
    client = boto3.client("s3", endpoint_url=moto_s3, region_name="us-east-1")
    client.create_bucket(Bucket="sigidx")
    s3 = SignatureIndex("s3://sigidx/idx", n_buckets=8)
    posix = SignatureIndex(str(work / "idx_posix_twin"), n_buckets=8)
    pairs = {}
    for name, idx in (("s3", s3), ("posix", posix)):
        idx.build(eng, 1)
        got, stats = idx.ingest_round(eng, 1, 2)
        pairs[name] = (_pairs_sorted(got), stats)
        assert idx.compact()["files_removed"] > 0
    assert pairs["s3"] == pairs["posix"] and pairs["s3"][0]

    keys = [o["Key"] for o in client.list_objects_v2(Bucket="sigidx")["Contents"]]
    assert any(k.startswith("idx/manifests/manifest-v") for k in keys)
    assert any(k.startswith("idx/data/part=") for k in keys)
    reopened = SignatureIndex("s3://sigidx/idx")
    assert reopened.version == 2
    for kind in ("bands", "sigs"):
        assert _canon(reopened.snapshot_entries(kind)) == _canon(
            posix.snapshot_entries(kind)
        )


def test_old_layout_reads_as_unbuilt(tmp_path):
    """A root holding an index written before the index was a lake
    (``index.json`` plus bucket directories) has no index manifest, so it
    reads as unbuilt and the tail rebuilds it."""
    root = tmp_path / "idx_old"
    (root / "bands" / "b00000").mkdir(parents=True)
    (root / "index.json").write_text('{"version": 3, "n_buckets": 8}')
    idx = SignatureIndex(str(root), n_buckets=8)
    assert idx.version is None and idx.manifest is None
