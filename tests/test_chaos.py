"""Exactly-once under REAL worker death (chaos injection).

The reference gets this guarantee from Airflow task retries + Iceberg
optimistic commits (`radiant/tasks/iceberg/utils.py:61-96`; pod OOM-kills
are routine in its K8s profile, `radiant/dags/operators/k8s.py:34-65`).
Here the same claim rests on Ray's task retry (worker-death retries are
on by default), deterministic data-file names written at their final
keys (a retried merge task OVERWRITES its partial output, before the
publish, instead of duplicating it) and the manifest's put-if-absent
CAS. These tests force one worker to hard-exit
(`os._exit`, not an exception) mid-scout and mid-merge — the merge
injection fires AFTER a partition's files are written, the partial-write
case — and assert the committed snapshot is byte-identical to a no-fault
run, the version history is single-step, and no orphan data files leak
(the retried task's files land in data/, where that check looks).
"""

import glob
import os

import pytest

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)

from test_apply import assert_tables_equal, engine_state


@pytest.fixture(scope="module")
def chaos_changelog(tmp_path_factory):
    d = tmp_path_factory.mktemp("chaos_cl")
    spec = ChangelogSpec(n_urls=800, n_events=4000, n_batches=4, seed=77)
    return generate_changelog(str(d), spec)


@pytest.fixture(scope="module")
def reference_engine(ray_session, tmp_path_factory, chaos_changelog):
    """No-fault ground truth over the same changelog."""
    eng = CdcEngine(
        str(tmp_path_factory.mktemp("ref") / "lake"), EngineConfig(n_parts=8)
    )
    eng.apply(chaos_changelog[:2])
    eng.apply(chaos_changelog[2:])
    return eng


def _assert_no_orphan_data_files(eng: CdcEngine):
    """Every file under data/ must be listed by the current manifest
    (a crashed-then-retried writer must not leak unreferenced files)."""
    man = eng.lake.current_manifest()
    listed = {f for st in man.partitions.values() for f in st.files}
    on_disk = {
        os.path.relpath(p, os.path.join(eng.lake.root, "data"))
        for p in glob.glob(os.path.join(eng.lake.root, "data", "**", "*.parquet"),
                           recursive=True)
    }
    # manifest paths are stored relative to the lake root (data/...) or the
    # data dir — normalize both sides to basename-level comparison
    listed_base = {os.path.basename(f) for f in listed}
    disk_base = {os.path.basename(p) for p in on_disk}
    assert disk_base <= listed_base | _tombstoned_ok(eng), (
        f"orphan data files: {sorted(disk_base - listed_base)[:5]}"
    )


def _tombstoned_ok(eng: CdcEngine) -> set:
    """Files referenced by OLDER manifest versions are legitimate residents
    until gc prunes them — exclude every historically-listed file."""
    ok: set = set()
    for v in eng.lake.versions():
        m = eng.lake.read_manifest(v)
        for st in m.partitions.values():
            ok.update(os.path.basename(f) for f in st.files)
    return ok


@pytest.mark.parametrize("phase", ["scout", "merge"])
def test_worker_crash_is_exactly_once(
    ray_session, tmp_path, chaos_changelog, reference_engine, phase
):
    inj = tmp_path / f"inj_{phase}"
    inj.mkdir()
    cfg = EngineConfig(n_parts=8, fault_inject=(phase, str(inj)))
    eng = CdcEngine(str(tmp_path / f"lake_{phase}"), cfg)

    r1 = eng.apply(chaos_changelog[:2])
    # the injected worker death actually happened, exactly once
    sentinel = inj / "died"
    assert sentinel.exists(), "fault never fired — injection point not reached"
    assert sentinel.read_text().startswith(phase + ":")
    assert r1["version"] == 1
    assert r1["commit_attempts"] == 1  # retry happened below the commit layer

    # second incremental round on the already-wounded lake (sentinel present
    # → no further deaths): carries, deletes and LWW order must all survive
    r2 = eng.apply(chaos_changelog[2:])
    assert r2["version"] == 2
    assert r2["rows_carried"] > 0

    assert_tables_equal(engine_state(eng), engine_state(reference_engine))
    _assert_no_orphan_data_files(eng)

    # replay probe: everything is pre-watermark → noop, version unchanged
    r3 = eng.apply(chaos_changelog)
    assert r3.get("noop") is True and r3["version"] == 2


def test_fault_inject_default_off(ray_session, tmp_path, chaos_changelog):
    """Production config never dies: no sentinel dir, single clean apply."""
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=8))
    rep = eng.apply(chaos_changelog[:1])
    assert rep["version"] == 1


@pytest.mark.parametrize("phase", ["scout", "merge"])
def test_worker_crash_under_two_level_exchange(
    ray_session, tmp_path, chaos_changelog, reference_engine, phase, monkeypatch
):
    """Chaos × the two-level exchange: with the driver ref budget forced to
    1, the apply routes through split→subsplit→merge; a worker death in
    either bracketing phase must still be absorbed by task retry with the
    identical committed state."""
    from radiant_portal_pipeline_ray.stages import taskshuffle as ts

    monkeypatch.setattr(ts, "_REF_BUDGET", 1)
    inj = tmp_path / "inj"
    inj.mkdir()
    eng = CdcEngine(
        str(tmp_path / "lake"),
        EngineConfig(n_parts=8, fault_inject=(phase, str(inj))),
    )
    r1 = eng.apply(chaos_changelog[:2])
    assert (inj / "died").exists()
    assert r1["version"] == 1
    eng.apply(chaos_changelog[2:])
    assert_tables_equal(engine_state(eng), engine_state(reference_engine))


def test_worker_crash_during_compact(
    ray_session, tmp_path, chaos_changelog, monkeypatch
):
    """Chaos × compaction: the rewrite task dies AFTER writing a
    partition's compacted files; the retry overwrites the same names and the committed compacted state equals the pre-compact
    snapshot row-for-row. The driver-local fold threshold is forced to 0
    so the rewrite actually runs in Ray workers at fixture scale (the
    chaos hook refuses to kill a driver)."""
    from radiant_portal_pipeline_ray.pipelines.maintenance import compact
    from radiant_portal_pipeline_ray.stages import taskshuffle as ts

    monkeypatch.setattr(ts, "_DRIVER_LOCAL_BYTES", 0)

    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=8))
    for p in chaos_changelog:
        eng.apply([p])  # several small files per partition → compactable
    before = engine_state(eng)

    inj = tmp_path / "inj"
    inj.mkdir()
    rep = compact(
        str(tmp_path / "lake"),
        EngineConfig(n_parts=8, fault_inject=("compact", str(inj))),
        min_files=1,
    )
    assert (inj / "died").exists(), "compact fault never fired"
    assert not rep["noop"]
    assert_tables_equal(engine_state(eng), before)
    _assert_no_orphan_data_files(eng)
