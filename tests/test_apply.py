"""End-to-end CDC replay tests against an independent DuckDB LWW oracle.

Modeled on the reference's golden-value integration tests
(`tests/integration/dags/sql/test_frequencies.py`,
`test_sequencing_experiment_select_delta.py`): deterministic fixtures, exact
final-state equality, watermark/delta semantics, exactly-once."""

import glob
import os

import duckdb
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.functions.text import extract_text
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)

DATA_COLS = ["url", "warc_ts", "html", "text", "lang", "lsn"]


def oracle_final_state(
    paths: list[str],
    extra_cols: list[str] | None = None,
    cols: list[str] | None = None,
):
    """Independent LWW oracle: last (warc_ts, lsn) writer per url, deletes
    drop. Projects ``cols``, default ``DATA_COLS`` plus ``extra_cols``."""
    cols = cols or DATA_COLS + (extra_cols or [])
    con = duckdb.connect()
    files = ",".join(f"'{p}'" for p in paths)
    q = f"""
      WITH dedup AS (
        SELECT DISTINCT * FROM read_parquet([{files}], union_by_name=true)
      ), ranked AS (
        SELECT *, row_number() OVER (
          PARTITION BY url ORDER BY warc_ts DESC, lsn DESC) AS rn
        FROM dedup
      )
      SELECT {', '.join(cols)} FROM ranked WHERE rn = 1 AND op <> 'D'
      ORDER BY url
    """
    return con.sql(q).arrow()


def engine_state(eng: CdcEngine, cols=None):
    t = eng.snapshot_table()
    t = t.take(pc.sort_indices(t, sort_keys=[("url", "ascending")]))
    return t.select(cols or DATA_COLS)


def assert_tables_equal(a: pa.Table, b: pa.Table):
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        ca = a.column(name).combine_chunks()
        cb = b.column(name).cast(ca.type).combine_chunks()
        if not ca.equals(cb):
            neq = [
                (i, ca[i].as_py(), cb[i].as_py())
                for i in range(len(ca))
                if ca[i].as_py() != cb[i].as_py()
            ][:5]
            raise AssertionError(f"column {name} differs: {neq}")


@pytest.fixture(scope="module")
def changelog_t1(tmp_path_factory):
    d = tmp_path_factory.mktemp("cl")
    spec = ChangelogSpec(n_urls=1000, n_events=5000, n_batches=4, seed=42)
    return generate_changelog(str(d), spec)


def test_full_replay_matches_oracle(ray_session, tmp_lake, changelog_t1):
    eng = CdcEngine(tmp_lake, EngineConfig(n_parts=8))
    report = eng.apply(changelog_t1)
    assert report["version"] == 1
    got = engine_state(eng)
    want = oracle_final_state(changelog_t1)
    assert_tables_equal(got, want)

    # per-row invariant: text byte-identical to extract_text(html)
    snap = eng.snapshot_table()
    rec = extract_text(snap.column("html")).combine_chunks()
    assert rec.to_pylist() == snap.column("text").to_pylist()

    # doc_id unique; part routing consistent with stored part column
    ids = snap.column("doc_id").to_pylist()
    assert len(ids) == len(set(ids))


def test_incremental_equals_full(ray_session, tmp_path, changelog_t1):
    full = CdcEngine(str(tmp_path / "full"), EngineConfig(n_parts=8))
    full.apply(changelog_t1)

    inc = CdcEngine(str(tmp_path / "inc"), EngineConfig(n_parts=8))
    for p in changelog_t1:
        inc.apply([p])
    assert_tables_equal(engine_state(inc), engine_state(full))

    man = inc.lake.current_manifest()
    assert man.version == len(changelog_t1)
    # watermarks advanced; lineage recorded per partition
    assert all(st.watermark_lsn > 0 for st in man.partitions.values())
    assert all(len(st.lineage) >= 1 for st in man.partitions.values())


def test_reapply_is_idempotent_noop(ray_session, tmp_lake, changelog_t1):
    eng = CdcEngine(tmp_lake, EngineConfig(n_parts=8))
    eng.apply(changelog_t1)
    v1 = eng.lake.current_version()
    s1 = engine_state(eng)
    # replay the same changelog: watermarks filter everything → no-op
    r = eng.apply(changelog_t1)
    assert r.get("noop") or r["rows_upserted"] == 0
    assert engine_state(eng).equals(s1)
    assert eng.lake.current_version() in (v1, v1 + 1)


def test_doc_ids_stable_across_applies(ray_session, tmp_lake, changelog_t1):
    eng = CdcEngine(tmp_lake, EngineConfig(n_parts=8))
    eng.apply(changelog_t1[:2])
    first = {
        r["url"]: r["doc_id"]
        for r in eng.snapshot_table(["url", "doc_id"]).to_pylist()
    }
    eng.apply(changelog_t1[2:])
    second = {
        r["url"]: r["doc_id"]
        for r in eng.snapshot_table(["url", "doc_id"]).to_pylist()
    }
    for url, did in first.items():
        if url in second:
            assert second[url] == did, url


def test_resume_after_crash_between_stage_and_commit(
    ray_session, tmp_lake, changelog_t1
):
    """Simulate a crash after writing files but before the manifest
    publish: the lake still serves the old version; re-running apply
    converges; GC removes the orphans."""
    eng = CdcEngine(tmp_lake, EngineConfig(n_parts=8))
    eng.apply(changelog_t1[:2])
    v = eng.lake.current_version()

    # fake a dead txn: a file at its final key that never got committed
    txn = "deadbeefdeadbeef"
    pdir = os.path.join(eng.lake.data_dir, "part=0")
    os.makedirs(pdir, exist_ok=True)
    with open(os.path.join(pdir, f"{txn}-0-0000.parquet"), "wb") as f:
        f.write(b"junk")
    assert eng.lake.current_version() == v  # uncommitted → invisible

    eng.apply(changelog_t1[2:])
    want = oracle_final_state(changelog_t1)
    assert_tables_equal(engine_state(eng), want)

    removed = eng.lake.gc_orphans(staging_age_s=0.0)
    assert any(txn in r for r in removed)
    # all referenced files still exist
    man = eng.lake.current_manifest()
    for st in man.partitions.values():
        for fp in st.files:
            assert os.path.exists(eng.lake.abspath(fp))


def _data_files(eng: CdcEngine) -> set[str]:
    root = eng.lake.root
    return {
        os.path.relpath(p, root)
        for p in glob.glob(os.path.join(root, "data", "**", "*.parquet"), recursive=True)
    }


def _referenced_files(eng: CdcEngine) -> set[str]:
    out: set[str] = set()
    for v in eng.lake.versions():
        man = eng.lake.read_manifest(v)
        out.update(f for st in man.partitions.values() for f in st.files)
        out.update(man.quarantine_files)
    return out


def test_round_crash_between_writes_and_publish(
    ray_session, tmp_lake, changelog_t1, monkeypatch
):
    """A real round dies after writing its files at their final keys and
    before its manifest put: the files sit under data/ unreferenced, the
    next round commits the oracle state, and gc leaves the crashed files
    alone until they pass the age."""
    from radiant_portal_pipeline_ray.state.manifest import Lake

    eng = CdcEngine(tmp_lake, EngineConfig(n_parts=8))
    eng.apply(changelog_t1[:2])
    v = eng.lake.current_version()
    before = _data_files(eng)

    real_commit = Lake.commit

    def crash_once(self, manifest):
        monkeypatch.setattr(Lake, "commit", real_commit)
        raise RuntimeError("crash before the manifest put")

    monkeypatch.setattr(Lake, "commit", crash_once)
    with pytest.raises(RuntimeError, match="crash before the manifest put"):
        eng.apply(changelog_t1[2:])
    assert eng.lake.current_version() == v
    crashed = _data_files(eng) - before
    assert crashed and not crashed & _referenced_files(eng)

    eng.apply(changelog_t1[2:])
    assert_tables_equal(engine_state(eng), oracle_final_state(changelog_t1))

    eng.lake.gc_orphans()
    assert all(os.path.exists(eng.lake.abspath(f)) for f in crashed)
    removed = eng.lake.gc_orphans(staging_age_s=0.0)
    assert crashed <= set(removed)
    assert not any(os.path.exists(eng.lake.abspath(f)) for f in crashed)
    for f in _referenced_files(eng):
        assert os.path.exists(eng.lake.abspath(f))


def test_schema_evolution_add_widen_drop(ray_session, tmp_lake, tmp_path):
    spec = ChangelogSpec(
        n_urls=300, n_events=2000, n_batches=4, seed=11, evolution=True
    )
    paths = generate_changelog(str(tmp_path / "evo"), spec)
    eng = CdcEngine(tmp_lake, EngineConfig(n_parts=8))
    for p in paths:  # apply batch-by-batch so schema actually evolves
        eng.apply([p])

    snap = eng.snapshot_table()
    assert snap.schema.field("status_code").type == pa.int64()  # widened
    assert "lang" in snap.schema.names  # drop retains column

    want = oracle_final_state(paths, extra_cols=["status_code"])
    got = engine_state(eng, cols=DATA_COLS + ["status_code"])
    assert_tables_equal(got, want)


def test_hot_domain_salting_preserves_correctness(ray_session, tmp_lake, tmp_path):
    spec = ChangelogSpec(
        n_urls=2000, n_events=6000, n_batches=3, seed=13, zipf_a=2.5
    )
    paths = generate_changelog(str(tmp_path / "hot"), spec)
    cfg = EngineConfig(n_parts=4, salt_threshold_rows=500, salt_target_rows=300)
    eng = CdcEngine(tmp_lake, cfg)
    for p in paths:
        eng.apply([p])
    man = eng.lake.current_manifest()
    assert man.salt_map, "hot domain should have been salted"
    assert man.next_part > cfg.n_parts

    got = engine_state(eng)
    want = oracle_final_state(paths)
    assert_tables_equal(got, want)

    # no url appears twice (salting must never split a url across parts)
    urls = eng.snapshot_table(["url"]).column("url").to_pylist()
    assert len(urls) == len(set(urls))


def test_bootstrap_presalt_on_empty_lake(ray_session, tmp_lake, tmp_path):
    """First apply on an EMPTY lake salts hot domains BEFORE routing (the
    column-pruned pre-pass) — version-1 manifest already carries the salt
    map, with NO pending migrations (nothing committed to migrate), and the
    final state still matches the oracle."""
    spec = ChangelogSpec(
        n_urls=2000, n_events=6000, n_batches=3, seed=13, zipf_a=2.5
    )
    paths = generate_changelog(str(tmp_path / "hot"), spec)
    cfg = EngineConfig(n_parts=4, salt_threshold_rows=500, salt_target_rows=300)
    eng = CdcEngine(tmp_lake, cfg)
    eng.apply([paths[0]])
    man = eng.lake.current_manifest()
    assert man.version == 1
    assert man.salt_map, "hot domain should pre-salt on the bootstrap round"
    assert not man.pending_migrations, "bootstrap pre-salt must not migrate"

    for p in paths[1:]:
        eng.apply([p])
    got = engine_state(eng)
    want = oracle_final_state(paths)
    assert_tables_equal(got, want)
    urls = eng.snapshot_table(["url"]).column("url").to_pylist()
    assert len(urls) == len(set(urls))
