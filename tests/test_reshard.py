"""Reshard: change the lake's base hash-partition count in one exactly-once
transaction. Checks: live state identical across reshard, doc_ids stable,
post-reshard applies converge to a never-resharded lake built at the new
n_parts, allocation guards prevent doc_id reuse, preconditions enforced."""

import pytest

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.pipelines.maintenance import (
    ReshardPrecondition,
    reshard,
)
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)


def _spec():
    return ChangelogSpec(n_urls=800, n_events=4000, n_batches=4, seed=7)


def _live(eng) -> list[tuple]:
    t = eng.read_snapshot().to_arrow_refs()
    import pyarrow as pa
    import ray

    tabs = [x for x in ray.get(t) if x is not None and x.num_rows]
    tab = pa.concat_tables(tabs, promote_options="permissive") if tabs else None
    if tab is None:
        return []
    cols = ["url", "lsn", "text"]
    rows = list(zip(*(tab.column(c).to_pylist() for c in cols)))
    return sorted(rows)


def _doc_ids(eng) -> dict:
    import pyarrow as pa
    import ray

    tabs = [
        x
        for x in ray.get(eng.read_snapshot().to_arrow_refs())
        if x is not None and x.num_rows
    ]
    if not tabs:
        return {}
    tab = pa.concat_tables(tabs, promote_options="permissive")
    return dict(zip(tab.column("url").to_pylist(), tab.column("doc_id").to_pylist()))


def test_reshard_preserves_state_and_doc_ids(ray_session, tmp_path):
    paths = generate_changelog(str(tmp_path / "cl"), _spec())
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=8))
    eng.apply(paths)

    before, ids_before = _live(eng), _doc_ids(eng)
    man0 = eng.lake.current_manifest()
    rep = reshard(str(tmp_path / "lake"), 16, EngineConfig(n_parts=16))
    assert rep["n_parts"] == 16 and rep["version"] == man0.version + 1

    eng2 = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=16))
    assert _live(eng2) == before
    assert _doc_ids(eng2) == ids_before
    man = eng2.lake.current_manifest()
    assert man.n_parts == 16 and man.salt_map == {} and not man.pending_migrations
    # uniform watermark carried, every base partition present
    assert {st.watermark_lsn for st in man.partitions.values()} == {
        man0.min_watermark()
    }
    assert all(p in man.partitions for p in range(16))

    # old config now refuses (the n_parts guard reads the manifest)
    with pytest.raises(ValueError):
        CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=8)).apply(paths[:1])


def test_apply_after_reshard_converges(ray_session, tmp_path):
    spec = _spec()
    paths = generate_changelog(str(tmp_path / "cl"), spec)
    half = len(paths) // 2

    # lake A: apply half at 8 parts, reshard to 4, apply the rest at 4
    a = CdcEngine(str(tmp_path / "a"), EngineConfig(n_parts=8))
    a.apply(paths[:half])
    reshard(str(tmp_path / "a"), 4, EngineConfig(n_parts=4))
    a4 = CdcEngine(str(tmp_path / "a"), EngineConfig(n_parts=4))
    a4.apply(paths[half:])

    # lake B: the whole changelog at 4 parts from scratch
    b = CdcEngine(str(tmp_path / "b"), EngineConfig(n_parts=4))
    b.apply(paths)

    assert _live(a4) == _live(b)
    # doc_ids in A stay unique after post-reshard allocation
    ids = _doc_ids(a4)
    assert len(set(ids.values())) == len(ids)


def test_reshard_preconditions(ray_session, tmp_path):
    with pytest.raises(ReshardPrecondition):
        eng = CdcEngine(str(tmp_path / "empty"), EngineConfig(n_parts=4))
        eng.lake.current_manifest()  # no commit yet
        reshard(str(tmp_path / "empty"), 8)

    paths = generate_changelog(str(tmp_path / "cl"), _spec())
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=8))
    eng.apply(paths)
    # same n_parts, no salt → noop
    assert reshard(str(tmp_path / "lake"), 8, EngineConfig(n_parts=8))["noop"]

    # a tombstone purge in lineage gates the watermark rewind
    from radiant_portal_pipeline_ray.pipelines.maintenance import compact

    compact(
        str(tmp_path / "lake"),
        EngineConfig(n_parts=8),
        min_files=1,
        purge_tombstones=True,
    )
    man = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=8)).lake.current_manifest()
    assert any(
        e.get("purged_tombstones") for st in man.partitions.values() for e in st.lineage
    ), "compact(purge_tombstones=True) must leave the purge marker"
    with pytest.raises(ReshardPrecondition):
        reshard(str(tmp_path / "lake"), 16, EngineConfig(n_parts=16))
    rep = reshard(
        str(tmp_path / "lake"), 16, EngineConfig(n_parts=16), allow_rewind=True
    )
    assert rep["n_parts"] == 16
    # the purge marker survives the lineage reset: a LATER reshard is
    # still gated (its rewind window is still open)
    with pytest.raises(ReshardPrecondition):
        reshard(str(tmp_path / "lake"), 32, EngineConfig(n_parts=32))


def test_purge_gate_survives_apply_rewrite(ray_session, tmp_path):
    """Lineage keeps only a partition's last commit, so the purge marker
    must be carried by the apply that rewrites a purged partition — else
    the reshard gate would open once every purged partition was rewritten."""
    from radiant_portal_pipeline_ray.pipelines.maintenance import compact

    paths = generate_changelog(str(tmp_path / "cl"), _spec())
    root = str(tmp_path / "lake")
    eng = CdcEngine(root, EngineConfig(n_parts=8))
    eng.apply(paths[:-1])
    compact(root, EngineConfig(n_parts=8), min_files=1, purge_tombstones=True)
    purged = {
        p
        for p, st in eng.lake.current_manifest().partitions.items()
        if any(e.get("purged_tombstones") for e in st.lineage)
    }
    assert purged, "fixture must purge tombstones"

    rep = eng.apply(paths[-1:])
    man = eng.lake.current_manifest()
    rewritten = {
        p for p, st in man.partitions.items() if st.lineage[-1]["txn_id"] == rep["txn_id"]
    }
    assert purged <= rewritten, "the last batch must rewrite every purged partition"
    for p in purged:
        assert man.partitions[p].lineage == [
            {**man.partitions[p].lineage[0], "purged_tombstones": True}
        ]
    with pytest.raises(ReshardPrecondition):
        reshard(root, 16, EngineConfig(n_parts=16))


def test_reshard_drops_salt_map_and_keeps_alloc_guard(ray_session, tmp_path):
    """A salted lake reshards cleanly: salt map cleared, the salt
    partitions' doc-allocation counters survive as guard entries."""
    paths = generate_changelog(str(tmp_path / "cl"), _spec())
    cfg = EngineConfig(n_parts=8, salt_threshold_rows=50, salt_target_rows=25)
    eng = CdcEngine(str(tmp_path / "lake"), cfg)
    eng.apply(paths[:2])
    eng.apply(paths[2:])  # executes any pending migrations from round 1
    man = eng.lake.current_manifest()
    if man.pending_migrations:
        # drain with a no-op-sized round (re-apply is lsn-filtered)
        eng.apply(paths[-1:])
        man = eng.lake.current_manifest()
    assert man.salt_map, "fixture must actually salt a domain"
    salted_parts = {
        p for ps in man.salt_map.values() for p in ps if p >= man.n_parts
    }
    allocating = {
        p
        for p in salted_parts
        if p in man.partitions and man.partitions[p].next_doc_seq > 0
    }
    before = _live(eng)

    if man.pending_migrations:
        with pytest.raises(ReshardPrecondition):
            reshard(str(tmp_path / "lake"), 16, EngineConfig(n_parts=16))
        return

    reshard(str(tmp_path / "lake"), 16, EngineConfig(n_parts=16))
    eng2 = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=16))
    assert _live(eng2) == before
    man2 = eng2.lake.current_manifest()
    assert man2.salt_map == {}
    for p in allocating:
        # the allocation counter always survives; parts inside the new base
        # range legitimately hold re-routed rows, parts outside stay
        # fileless guard entries
        assert man2.partitions[p].next_doc_seq == man.partitions[p].next_doc_seq
        if p >= 16:
            assert man2.partitions[p].files == []
    assert man2.next_part >= (man.next_part or 16)


def test_old_long_lineage_trimmed_by_next_commit(ray_session, tmp_path):
    """A manifest written when lineage held every commit still loads; the
    next commit writes each partition's last entry only, and keeps an
    earlier entry's purge marker, so the reshard gate stays closed."""
    import json

    paths = generate_changelog(str(tmp_path / "cl"), _spec())
    root = str(tmp_path / "lake")
    eng = CdcEngine(root, EngineConfig(n_parts=8))
    eng.apply(paths[:-1])
    path = eng.lake._manifest_path(eng.lake.current_version())
    with open(path) as f:
        d = json.load(f)
    st0 = d["partitions"]["0"]
    last = st0["lineage"][-1]
    st0["lineage"] = [
        {"txn_id": "old-compact", "compacted": True, "purged_tombstones": True},
        {"txn_id": "old-apply", "events_in": 1},
        last,
    ]
    with open(path, "w") as f:
        json.dump(d, f)
    assert eng.lake.current_manifest().partitions[0].lineage == [
        {**last, "purged_tombstones": True}
    ]

    eng.apply(paths[-1:])
    with open(eng.lake._manifest_path(eng.lake.current_version())) as f:
        parts = json.load(f)["partitions"]
    assert all(len(st["lineage"]) == 1 for st in parts.values())
    assert parts["0"]["lineage"][0]["purged_tombstones"] is True
    with pytest.raises(ReshardPrecondition):
        reshard(root, 16, EngineConfig(n_parts=16))
