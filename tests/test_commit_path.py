"""The one commit path, ``Lake.commit_next``: carried fields, the first
attempt on the planned base, bounded rebases, the publish check against a
slot gc pruned, the per-commit log line, and the writers that moved onto
it (routing, an apply round's manifest reads; the quarantine-only rebase
is in test_quarantine.py)."""

from __future__ import annotations

import json
import logging

import pytest

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.schemas import CHANGELOG_SCHEMA
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)
from radiant_portal_pipeline_ray.state.manifest import (
    CARRIED_FIELDS,
    CommitConflict,
    Lake,
    Manifest,
    PartitionState,
)


def _base_fields() -> dict:
    return {
        "schema": CHANGELOG_SCHEMA,
        "n_parts": 2,
        "partitions": {
            0: PartitionState(
                files=["data/part=0/a.parquet"], rows=3, watermark_lsn=7
            ),
            1: PartitionState(watermark_lsn=9),
        },
        "salt_map": {"hot.org": [2, 3]},
        "salt_hash_fingerprint": [1, 2, 3],
        "pending_migrations": {"hot.org": [0]},
        "next_part": 4,
        "consumed_inputs": {"old.parquet": 5, "new.parquet": 8},
        "quarantine_files": ["data/quarantine/q.parquet"],
        "metrics": {"op": "seed", "hot_counts": {"hot.org": 40}},
    }


def test_commit_next_carries_every_unchanged_field(tmp_path):
    lake = Lake(str(tmp_path / "lake"))
    base, attempts = lake.commit_next(None, "t1", lambda b: _base_fields(), 3)
    assert (base.version, base.parent_version, attempts) == (1, None, 1)
    # the ledger keeps only entries above the min watermark (7)
    assert base.consumed_inputs == {"new.parquet": 8}

    nxt, _ = lake.commit_next(
        base, "t2", lambda b: {"metrics": {"op": "noop_op"}}, 3
    )
    assert (nxt.version, nxt.parent_version, nxt.txn_id) == (2, 1, "t2")
    got = lake.read_manifest(2)
    for f in CARRIED_FIELDS:
        if f == "schema":
            assert got.schema.equals(base.schema)
        else:
            assert getattr(got, f) == getattr(base, f), f
    assert got.metrics == {"op": "noop_op", "hot_counts": {"hot.org": 40}}


def test_commit_next_first_attempt_reads_no_manifest(tmp_path, monkeypatch):
    """The first attempt builds on the caller's base without reading a
    manifest; the one listing is the publish check after the put."""
    lake = Lake(str(tmp_path / "lake"))
    base, _ = lake.commit_next(None, "t1", lambda b: _base_fields(), 3)
    calls = []
    for name in ("versions", "read_manifest"):
        orig = getattr(Lake, name)

        def counted(self, *a, _orig=orig, _name=name):
            calls.append(_name)
            return _orig(self, *a)

        monkeypatch.setattr(Lake, name, counted)
    seen = []

    def build(b):
        seen.append(b)
        return {"metrics": {"op": "x"}}

    committed, attempts = lake.commit_next(base, "t2", build, 3)
    assert (committed.version, attempts) == (2, 1)
    assert seen == [base] and calls == ["versions"]


def test_commit_next_rebases_only_on_conflict(tmp_path):
    """A conflict re-reads the current manifest and builds again on it;
    ``build`` raising refuses the rebase, and ``retries=1`` allows none."""
    lake = Lake(str(tmp_path / "lake"))
    base, _ = lake.commit_next(None, "t1", lambda b: _base_fields(), 3)
    lake.commit_next(base, "t2", lambda b: {"metrics": {}}, 3)  # the winner

    seen = []

    def build(b):
        seen.append(b.version)
        return {"metrics": {"op": "late"}}

    committed, attempts = lake.commit_next(base, "t3", build, 3)
    assert seen == [1, 2] and attempts == 2
    assert (committed.version, committed.parent_version) == (3, 2)

    calls = []

    def refuse(b):
        calls.append(b.version)
        if b is not base:
            raise RuntimeError("refused")
        return {"metrics": {}}

    with pytest.raises(RuntimeError, match="refused"):
        lake.commit_next(base, "t4", refuse, 3)
    calls.clear()
    with pytest.raises(CommitConflict):
        lake.commit_next(base, "t5", refuse, retries=1)
    assert calls == [1]
    assert lake.current_manifest().txn_id == "t3"


def test_put_into_a_pruned_slot_rebases_onto_the_current_version(tmp_path):
    """A writer planned from v1; v2 and v3 were committed and gc pruned v1
    and v2. Its put of v2 succeeds in the emptied slot, but v3 was not built
    on it: the put is withdrawn and the writer rebases onto v3, or with
    ``retries=1`` reports the conflict."""
    lake = Lake(str(tmp_path / "lake"))
    planned, _ = lake.commit_next(None, "t1", lambda b: _base_fields(), 3)
    v2, _ = lake.commit_next(planned, "t2", lambda b: {"metrics": {}}, 3)
    lake.commit_next(v2, "t3", lambda b: {"metrics": {}}, 3)
    lake.gc_orphans(keep_versions=1)
    assert lake.versions() == [3]

    with pytest.raises(CommitConflict, match="pruned slot"):
        lake.commit_next(planned, "t4", lambda b: {"metrics": {}}, retries=1)
    assert lake.versions() == [3]

    seen = []

    def build(b):
        seen.append(b.version)
        return {"metrics": {"op": "late"}}

    committed, attempts = lake.commit_next(planned, "t5", build, 3)
    assert seen == [1, 3] and attempts == 2
    assert (committed.version, committed.parent_txn_id) == (4, "t3")
    assert lake.versions() == [3, 4]
    assert lake.current_manifest().txn_id == "t5"


def test_successor_built_on_the_put_is_not_a_conflict(tmp_path, monkeypatch):
    """A writer that reads the new version as current and commits on top of
    it before the publish check lists the manifests: the first put stands."""
    lake = Lake(str(tmp_path / "lake"))
    base, _ = lake.commit_next(None, "t1", lambda b: _base_fields(), 3)
    orig = Lake._put_manifest_if_absent

    def put_then_successor(self, final, data, txn_id):
        ok = orig(self, final, data, txn_id)
        if ok and txn_id == "t2":
            cur = self.current_manifest()
            assert cur.txn_id == "t2"
            orig(
                self,
                self._manifest_path(3),
                json.dumps(
                    {**cur.to_json(), "version": 3, "txn_id": "t3",
                     "parent_version": 2, "parent_txn_id": "t2"}
                ).encode(),
                "t3",
            )
        return ok

    monkeypatch.setattr(Lake, "_put_manifest_if_absent", put_then_successor)
    committed, attempts = lake.commit_next(base, "t2", lambda b: {"metrics": {}}, 3)
    assert (committed.version, attempts) == (2, 1)
    assert lake.versions() == [1, 2, 3]


def test_commit_logs_one_json_line_per_published_version(tmp_path, caplog):
    lake = Lake(str(tmp_path / "lake"))
    caplog.set_level(
        logging.INFO, logger="radiant_portal_pipeline_ray.state.manifest"
    )
    base, _ = lake.commit_next(None, "t1", lambda b: _base_fields(), 3)
    nxt, _ = lake.commit_next(base, "t2", lambda b: {"metrics": {"op": "x"}}, 3)
    with pytest.raises(CommitConflict):  # a lost race publishes nothing
        lake.commit_next(base, "t3", lambda b: {"metrics": {}}, retries=1)
    lake.commit(nxt)  # an idempotent retry publishes nothing either
    lines = [
        json.loads(r.getMessage())
        for r in caplog.records
        if r.name == "radiant_portal_pipeline_ray.state.manifest"
    ]
    assert lines == [
        {**lake.read_manifest(1).commit_info(), "txn_id": "t1"},
        {**lake.read_manifest(2).commit_info(), "txn_id": "t2"},
    ]
    assert [d["op"] for d in lines] == ["seed", "x"]


def test_routing_commit_gives_up_after_commit_retries(tmp_path, monkeypatch):
    """A routing-only commit that always loses its race raises
    ``CommitConflict`` after ``commit_retries`` attempts; the sentinel turns
    an unbounded loop into a failure instead of a hang."""
    lake_root = str(tmp_path / "lake")
    fields = _base_fields()
    fields.update(salt_map={}, pending_migrations={}, next_part=2)
    Lake(lake_root).commit(
        Manifest(version=1, txn_id="t1", parent_version=None, **fields)
    )
    cfg = EngineConfig(
        n_parts=2, salt_threshold_rows=100, salt_target_rows=50, commit_retries=3
    )
    eng = CdcEngine(lake_root, cfg)
    calls = []

    def always_conflict(self, manifest):
        calls.append(manifest.version)
        if len(calls) > 100:
            raise RuntimeError("commit retried without bound")
        raise CommitConflict(f"version {manifest.version} taken")

    monkeypatch.setattr(Lake, "commit", always_conflict)
    with pytest.raises(CommitConflict):
        eng.commit_routing_decisions({"hot.org": 1000})
    assert calls == [2, 2, 2]


@pytest.mark.parametrize("run_qa", [False, True])
def test_apply_round_reads_the_manifest_once(
    ray_session, tmp_path, monkeypatch, run_qa
):
    """A round plans from one manifest and commits its successor without
    re-reading it; the post-commit QA reads the committed version. The
    second listing is the publish check after the put. A tail round plans
    from the manifest its pending-input check read."""
    import os

    from radiant_portal_pipeline_ray.pipelines.tail import tail

    paths = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=200, n_events=1200, n_batches=4, seed=3),
    )
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4, run_qa=run_qa))
    eng.apply(paths[:1])
    eng.apply(paths[1:2])
    assert eng.lake.versions() == [1, 2]
    calls = {"versions": 0, "read_manifest": 0}
    for name in calls:
        orig = getattr(Lake, name)

        def counted(self, *a, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(self, *a)

        monkeypatch.setattr(Lake, name, counted)
    rep = eng.apply(paths[2:3])
    assert rep["version"] == 3 and rep["commit_attempts"] == 1
    if run_qa:
        assert rep["qa"]["passed"] is True
    assert calls == {"versions": 2, "read_manifest": 1}
    calls.update(versions=0, read_manifest=0)
    (rep,) = tail(eng, str(tmp_path / "cl"), poll_s=0.0, max_rounds=1)
    assert rep["version"] == 4 and rep["commit_attempts"] == 1
    assert rep["consumed_files"] == [os.path.basename(paths[3])]
    if run_qa:
        assert rep["qa"]["passed"] is True
    assert calls == {"versions": 2, "read_manifest": 1}


def test_apply_on_a_base_pruned_before_its_commit_lands_on_current(
    ray_session, tmp_path, monkeypatch
):
    """A round plans from v2; before it commits, three competing versions
    land and ``gc_orphans(keep_versions=2)`` prunes v1 to v3. The round's
    put of v3 would fill the pruned slot; it must not report that version:
    it rebases and its rows reach the current snapshot."""
    import dataclasses

    paths = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=200, n_events=900, n_batches=3, seed=5),
    )
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    eng.apply(paths[:1])
    eng.apply(paths[1:2])
    orig = Lake.commit
    raced = []

    def competitors_then_gc(self, manifest):
        if not raced:
            raced.append(manifest.version)
            for txn in ("c3", "c4", "c5"):
                cur = self.current_manifest()
                orig(
                    self,
                    dataclasses.replace(
                        cur,
                        version=cur.version + 1,
                        txn_id=txn,
                        parent_version=cur.version,
                        parent_txn_id=cur.txn_id,
                        metrics={"op": "competitor"},
                    ),
                )
            self.gc_orphans(keep_versions=2)
            assert self.versions() == [4, 5]
        return orig(self, manifest)

    monkeypatch.setattr(Lake, "commit", competitors_then_gc)
    rep = eng.apply(paths[2:])
    assert raced == [3]
    assert rep["version"] == eng.lake.current_version() == 6
    assert rep["commit_attempts"] == 2
    assert eng.lake.versions() == [4, 5, 6]
    want = CdcEngine(str(tmp_path / "oracle"), EngineConfig(n_parts=4))
    want.apply(paths)
    cols = ["url", "lsn", "text"]
    got_t = eng.snapshot_table(columns=cols).sort_by("url")
    want_t = want.snapshot_table(columns=cols).sort_by("url")
    assert got_t.equals(want_t)
