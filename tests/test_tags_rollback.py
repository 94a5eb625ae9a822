"""Iceberg-style named tags + rollback: tags pin versions through GC;
rollback reverts table state (and watermarks — consumed events re-apply)
with a single manifest commit and zero data movement."""

import pytest

from radiant_portal_pipeline_ray import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)


@pytest.fixture()
def lake(tmp_path, ray_session):
    cl = str(tmp_path / "cl")
    paths = generate_changelog(
        cl, ChangelogSpec(n_urls=400, n_events=2000, n_batches=4, seed=31)
    )
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    for p in paths:
        eng.apply([p])
    return eng, paths


def test_tag_pins_version_through_gc(lake):
    eng, _ = lake
    v2 = 2
    eng.lake.set_tag("audit-2026q3", v2)
    snap_v2 = eng.snapshot_table(version=v2)
    eng.lake.gc_orphans(keep_versions=1, staging_age_s=0.0)
    # v2 survives GC because the tag pins it; untagged old versions pruned
    assert v2 in eng.lake.versions()
    assert eng.lake.versions()[-1] == 4
    assert 1 not in eng.lake.versions() and 3 not in eng.lake.versions()
    after = eng.snapshot_table(version=eng.lake.resolve_tag("audit-2026q3"))
    assert after.sort_by("url").equals(snap_v2.sort_by("url"))
    # deleting the tag releases it for the next GC
    eng.lake.delete_tag("audit-2026q3")
    eng.lake.gc_orphans(keep_versions=1, staging_age_s=0.0)
    assert v2 not in eng.lake.versions()


def test_tag_unknown_version_rejected(lake):
    eng, _ = lake
    with pytest.raises(FileNotFoundError):
        eng.lake.set_tag("bad", 99)
    with pytest.raises(KeyError):
        eng.lake.resolve_tag("never-set")


def test_rollback_reverts_state_and_reapplies(lake):
    eng, paths = lake
    v_good = 2
    good = eng.snapshot_table(version=v_good).sort_by("url")
    res = eng.rollback(v_good)
    assert res["rolled_back_to"] == v_good and res["version"] == 5
    assert eng.snapshot_table().sort_by("url").equals(good)
    # watermarks reverted → the "bad" batches re-apply and land again
    r = eng.apply(paths[2:])
    assert r["version"] == 6 and r["rows_upserted"] > 0
    # re-applying the same events converges to the original head state
    # (doc_id is a dense per-lake surrogate: stable within one history,
    #  not comparable across different replay groupings — drop it)
    content = ["url", "lsn", "text", "lang", "part"]
    final = eng.snapshot_table().select(content).sort_by("url")
    head = CdcEngine(eng.lake.root + "_twin", EngineConfig(n_parts=4))
    for p in paths:
        head.apply([p])
    assert final.equals(head.snapshot_table().select(content).sort_by("url"))


def test_rollback_current_is_noop(lake):
    eng, _ = lake
    assert eng.rollback(eng.lake.current_manifest().version)["noop"]


def test_concurrent_tag_writes_drop_nothing(tmp_path):
    """ADVICE r4: set_tag is a locked read-modify-write — N racing writers
    on one tags.json must all land."""
    import threading

    from radiant_portal_pipeline_ray.state.manifest import (
        Lake,
        Manifest,
        PartitionState,
    )

    lake = Lake(str(tmp_path / "lk"))
    import pyarrow as pa

    lake.commit(
        Manifest(
            version=1,
            txn_id="t000000000000001",
            parent_version=None,
            schema=pa.schema([("url", pa.string())]),
            n_parts=1,
            partitions={0: PartitionState(files=[], watermark_lsn=1)},
        )
    )
    barrier = threading.Barrier(8)
    errs = []

    def w(i):
        try:
            barrier.wait()
            Lake(str(tmp_path / "lk")).set_tag(f"tag-{i}", 1)
        except Exception as e:  # surface, don't swallow
            errs.append(e)

    ts = [threading.Thread(target=w, args=(i,)) for i in range(8)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert not errs
    assert sorted(lake.tags()) == [f"tag-{i}" for i in range(8)]
    # lock released: the file is gone and the next write is immediate
    assert not lake._exists(lake._join(lake.manifest_dir, "tags.lock"))
    lake.delete_tag("tag-0")
    assert "tag-0" not in lake.tags()


def test_tag_gc_race_serialized(lake):
    """set_tag racing gc_orphans: the GC pruning phase holds the tag lock,
    so the tag either lands BEFORE pruning (version survives) or is
    refused AFTER (FileNotFoundError) — never a tag to a pruned manifest."""
    import threading

    eng, _ = lake
    results = {}
    barrier = threading.Barrier(2)

    def tagger():
        barrier.wait()
        try:
            eng.lake.set_tag("pin", 1)
            results["tag"] = "ok"
        except FileNotFoundError:
            results["tag"] = "refused"

    def collector():
        barrier.wait()
        eng.lake.gc_orphans(keep_versions=1, staging_age_s=0.0)

    ts = [threading.Thread(target=tagger), threading.Thread(target=collector)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    if results["tag"] == "ok":
        # tag won the lock first → v1 must still be resolvable and retained
        assert eng.lake.resolve_tag("pin") == 1
        assert 1 in eng.lake.versions()
    else:
        # gc won → v1 pruned and the tag was refused, tags.json untouched
        assert 1 not in eng.lake.versions()
        assert "pin" not in eng.lake.tags()


def test_stale_tag_lock_broken(tmp_path, monkeypatch):
    """A tags.lock left by a crashed process is broken after the stale
    threshold instead of deadlocking every future tag write."""
    from radiant_portal_pipeline_ray.state.manifest import (
        Lake,
        Manifest,
        PartitionState,
    )
    import pyarrow as pa

    lake = Lake(str(tmp_path / "lk"))
    lake.commit(
        Manifest(
            version=1,
            txn_id="t000000000000001",
            parent_version=None,
            schema=pa.schema([("url", pa.string())]),
            n_parts=1,
            partitions={0: PartitionState(files=[], watermark_lsn=1)},
        )
    )
    lock_path = lake._join(lake.manifest_dir, "tags.lock")
    assert lake._put_manifest_if_absent(lock_path, b"crashed", "deadtxn000000000")
    monkeypatch.setattr(Lake, "_TAG_LOCK_STALE_S", 0.0)
    lake.set_tag("recovered", 1)  # breaks the stale lock, then proceeds
    assert lake.tags() == {"recovered": 1}
    assert not lake._exists(lock_path)


def test_stale_tag_lock_break_admits_one_holder(tmp_path, monkeypatch):
    """Two waiters both read a stale tags.lock's age before either breaks
    it; the second reaches the break only after the first has acquired.
    At most one of them may ever be inside the critical section."""
    import threading
    import time

    from radiant_portal_pipeline_ray.state.manifest import Lake

    lake = Lake(str(tmp_path / "lk"))
    lock_path = lake._join(lake.manifest_dir, "tags.lock")
    assert lake._put_manifest_if_absent(lock_path, b"crashed", "deadtxn000000000")
    real_mtime = lake._mtime
    both_read_stale = threading.Barrier(2, timeout=10)
    a_inside = threading.Event()
    seen: set[str] = set()

    def mtime(path, default=0.0):
        me = threading.current_thread().name
        if path != lock_path or me in seen:
            return real_mtime(path, default)
        seen.add(me)
        both_read_stale.wait()
        if me == "B":
            assert a_inside.wait(10)
        return 0.0  # the crashed holder's age: far past the threshold

    monkeypatch.setattr(lake, "_mtime", mtime)
    count_lock = threading.Lock()
    inside, peak, errs = 0, 0, []

    def waiter():
        nonlocal inside, peak
        try:
            with lake._tag_lock():
                with count_lock:
                    inside += 1
                    peak = max(peak, inside)
                if threading.current_thread().name == "A":
                    a_inside.set()
                    time.sleep(0.5)  # hold while B reaches its break
                with count_lock:
                    inside -= 1
        except Exception as e:  # surface, don't swallow
            errs.append(e)

    ts = [threading.Thread(target=waiter, name=n) for n in ("A", "B")]
    for t in ts:
        t.start()
    for t in ts:
        t.join(30)
    assert not any(t.is_alive() for t in ts)
    assert not errs
    assert peak == 1
    assert not lake._exists(lock_path)
    assert [n for n in lake._listdir(lake.manifest_dir) if "tags.lock" in n] == []


def test_rollback_carries_target_hot_counts(tmp_path, ray_session):
    """The rolled-back-to version's heavy-hitter counts come back with its
    data; a rollback that drops them re-seeds the next apply from nothing."""
    paths = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=400, n_events=2000, n_batches=4, seed=31),
    )
    # no domain reaches 500 live rows; tracking starts at 62
    eng = CdcEngine(
        str(tmp_path / "lake"), EngineConfig(n_parts=4, salt_threshold_rows=500)
    )
    for p in paths:
        eng.apply([p])
    target = eng.lake.read_manifest(2).metrics["hot_counts"]
    assert target, "fixture must track a domain"
    eng.rollback(2)
    man = eng.lake.current_manifest()
    assert man.metrics.get("hot_counts") == target
    assert man.metrics["op"] == "rollback" and man.metrics["rollback_of"] == 2
    assert not man.salt_map
