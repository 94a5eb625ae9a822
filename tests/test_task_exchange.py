"""The apply round's task exchange (stages/taskshuffle.py) against the
independent DuckDB LWW oracle of ``tests/test_apply.py`` — plain, and under
schema evolution plus hot-domain salting — with the manifest's
per-partition invariants, and idempotent redelivery. (A salting migration
is replayed against the oracle in ``tests/test_lakescan.py``.)"""

import numpy as np
import pyarrow.compute as pc

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)
from tests.test_apply import (
    DATA_COLS,
    assert_tables_equal,
    engine_state,
    oracle_final_state,
)


def _state(eng):
    t = eng.snapshot_table()
    return t.take(pc.sort_indices(t, sort_keys=[("url", "ascending")]))


def _replay(lake, paths, **cfg_kw):
    eng = CdcEngine(lake, EngineConfig(**cfg_kw))
    for p in paths:
        eng.apply([p])
    return eng


def _assert_manifest_invariants(eng):
    """Every committed row, tombstones included: its lsn is at or below
    its partition's watermark, and its doc-id sequence is below the
    counter of the partition that allocated it (the id's high bits)."""
    man = eng.lake.current_manifest()
    t = eng.snapshot_table(["part", "lsn", "doc_id"], include_tombstones=True)
    part = t.column("part").to_numpy()
    lsn = t.column("lsn").to_numpy()
    for p in np.unique(part):
        assert lsn[part == p].max() <= man.partitions[int(p)].watermark_lsn, p
    shift = eng.cfg.doc_id_part_shift
    doc = t.column("doc_id").to_numpy()
    owner, seq = doc >> shift, doc & ((1 << shift) - 1)
    for p in np.unique(owner):
        assert seq[owner == p].max() < man.partitions[int(p)].next_doc_seq, p
    assert len(np.unique(doc)) == len(doc), "doc_id reused"


def test_task_exchange_matches_oracle(ray_session, tmp_path):
    paths = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=800, n_events=4000, n_batches=3, seed=77),
    )
    eng = _replay(str(tmp_path / "lake"), paths, n_parts=4)
    assert_tables_equal(engine_state(eng), oracle_final_state(paths))
    _assert_manifest_invariants(eng)


def test_task_exchange_with_salting_and_evolution(ray_session, tmp_path):
    spec = ChangelogSpec(
        n_urls=1500,
        n_events=5000,
        n_batches=4,
        seed=13,
        zipf_a=2.5,
        evolution=True,
    )
    paths = generate_changelog(str(tmp_path / "cl"), spec)
    kw = dict(n_parts=4, salt_threshold_rows=400, salt_target_rows=250)
    eng = _replay(str(tmp_path / "lake"), paths, **kw)
    assert eng.lake.current_manifest().salt_map, "salting never fired"
    cols = DATA_COLS + ["status_code"]
    assert_tables_equal(
        engine_state(eng, cols=cols),
        oracle_final_state(paths, extra_cols=["status_code"]),
    )
    _assert_manifest_invariants(eng)


def test_task_exchange_idempotent_redelivery(ray_session, tmp_path):
    """Re-applying an already-committed batch is a watermark no-op."""
    paths = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=300, n_events=1200, n_batches=2, seed=5),
    )
    eng = _replay(str(tmp_path / "lake"), paths, n_parts=4)
    before = _state(eng)
    v_before = eng.lake.current_manifest().version
    rep = eng.apply([paths[-1]])  # duplicate re-delivery of the last batch
    assert rep.get("noop") or rep["rows_upserted"] == 0
    assert _state(eng).equals(before)
    assert eng.lake.current_manifest().version in (v_before, v_before + 1)
