"""The apply round's two paths: on a one-CPU Ray cluster a round runs the
split and merge functions in-process on the driver; otherwise they run as
Ray tasks. Both must commit the same lake.

The suite's Ray session has 4 CPUs, so the in-process rounds patch
``taskshuffle.ray_cpus``, the helper the round reads its CPU count from.
Task submissions are counted by wrapping ``_remote`` of ``split_task`` and
``merge_bucket_task``, which both ``.remote`` and ``.options().remote``
call."""

import hashlib
import json
import logging

import pyarrow as pa
import pyarrow.parquet as pq

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.stages import taskshuffle

CFG = dict(n_parts=4, salt_threshold_rows=20, salt_target_rows=10, run_qa=True)


def _batch(path, rows: list[tuple], lsn0: int) -> str:
    """rows: ``(op, url)``; lsns count up from ``lsn0``."""
    n = len(rows)
    t = pa.table(
        {
            "url": pa.array([u for _, u in rows], pa.string()),
            "warc_ts": pa.array(
                [1_700_000_000 + lsn0 + i for i in range(n)], pa.timestamp("us")
            ),
            "html": pa.array(
                [f"<p>{u} v{lsn0}</p>".encode() for _, u in rows], pa.binary()
            ),
            "op": pa.array([op for op, _ in rows], pa.string()),
            "lsn": pa.array([lsn0 + i for i in range(n)], pa.int64()),
        }
    )
    pq.write_table(t, str(path))
    return str(path)


def _replay_inputs(tmp_path) -> list[list[str]]:
    """One list of inputs per round: a preload under the salt threshold; a
    round that makes ``hot.org`` hot (salting decided, deferred); a round
    that migrates it, deletes three cold urls and carries one malformed row
    (a null url); an update of the salted domain; then two files with five
    malformed rows between them, two more than the tests'
    ``QUARANTINE_CAP`` of 3."""
    cold = [f"https://cold{i % 7}.org/p/{i}" for i in range(60)]
    hot = [f"https://hot.org/p/{i:04d}" for i in range(60)]
    rounds = [
        [("I", u) for u in cold] + [("I", u) for u in hot[:10]],
        [("I", u) for u in hot[10:50]] + [("U", u) for u in cold[:5]],
        [("D", u) for u in cold[5:8]]
        + [("I", None)]
        + [("U", u) for u in hot[:5]]
        + [("I", u) for u in hot[50:]],
        [("U", u) for u in hot[::3]] + [("U", u) for u in cold[20:30]],
    ]
    inputs = [
        [_batch(tmp_path / f"b{i}.parquet", rows, 1000 * (i + 1))]
        for i, rows in enumerate(rounds)
    ]
    inputs.append(
        [
            _batch(
                tmp_path / "b4a.parquet",
                [("I", None)] * 2 + [("U", u) for u in cold[30:35]],
                5000,
            ),
            _batch(
                tmp_path / "b4b.parquet",
                [("U", u) for u in hot[20:25]] + [("I", None)] * 3,
                6000,
            ),
        ]
    )
    return inputs


def _count_submissions(monkeypatch) -> dict:
    calls = {"split_task": 0, "merge_bucket_task": 0}
    for name in calls:
        fn = getattr(taskshuffle, name)
        orig = fn._remote

        def counted(*a, _orig=orig, _name=name, **kw):
            calls[_name] += 1
            return _orig(*a, **kw)

        monkeypatch.setattr(fn, "_remote", counted)
    return calls


def _state(eng) -> dict:
    """What a replay committed, free of txn ids and timestamps."""
    lake = eng.lake
    versions = lake.versions()
    man = lake.current_manifest()
    files = {}
    for p, st in sorted(man.partitions.items()):
        for i, f in enumerate(sorted(st.files)):
            with open(lake.abspath(f), "rb") as fh:
                files[f"part={p}/{i}"] = hashlib.sha256(fh.read()).hexdigest()
    quarantines = []
    for v in versions:
        q = dict(lake.read_manifest(v).metrics.get("quarantine") or {})
        q.pop("file", None)  # named after the txn id
        quarantines.append(q)
    parts = {}
    for p, st in man.partitions.items():
        d = st.to_json()
        d.pop("lineage")
        d["files"] = len(d["files"])
        parts[p] = d
    return {
        "checksums": [eng.snapshot_checksums(v) for v in versions],
        "files": files,
        "partitions": parts,
        "salt_map": man.salt_map,
        "pending_migrations": man.pending_migrations,
        "quarantines": quarantines,
        "quarantined": sorted(
            (r["lsn"], r["reason"]) for r in eng.read_quarantine().take_all()
        ),
    }


def _replay(
    root: str, inputs: list[list[str]], calls: dict
) -> tuple[list, list, dict]:
    """Apply each round's inputs; per round the report and the task
    submissions it made."""
    eng = CdcEngine(root, EngineConfig(**CFG))
    reps, subs = [], []
    for paths in inputs:
        before = dict(calls)
        reps.append(eng.apply(paths))
        subs.append({k: calls[k] - before[k] for k in calls})
    return reps, subs, _state(eng)


def test_in_process_rounds_commit_what_task_rounds_commit(
    ray_session, tmp_path, monkeypatch
):
    inputs = _replay_inputs(tmp_path)
    calls = _count_submissions(monkeypatch)
    # the round's cap; the task path's workers keep the default per call,
    # so only the round's cap can make the two paths keep the same rows
    monkeypatch.setattr(taskshuffle, "QUARANTINE_CAP", 3)

    # the session's 4 CPUs: tasks, one split task per input file
    t4_reps, t4_subs, t4 = _replay(str(tmp_path / "tasks4"), inputs, calls)
    monkeypatch.setattr(taskshuffle, "ray_cpus", lambda default=8: 1)
    in_reps, in_subs, inp = _replay(str(tmp_path / "in"), inputs, calls)

    # the replay exercised what it is meant to
    assert in_reps[1]["salted_domains"] == ["hot.org"]
    assert in_reps[2]["migrated_domains"] == ["hot.org"]
    assert in_reps[2]["rows_deleted"] == 3
    assert in_reps[2]["rows_quarantined"] == 1
    assert in_reps[4]["rows_quarantined"] == 3
    assert inp["quarantines"][4]["dropped_overflow"] == 2
    assert len(inp["salt_map"]["hot.org"]) > 1
    assert all(r["qa"]["passed"] for r in in_reps + t4_reps)

    assert [r["path"] for r in in_reps] == ["in_process"] * 5
    assert in_subs == [{"split_task": 0, "merge_bucket_task": 0}] * 5
    assert [r["path"] for r in t4_reps] == ["tasks"] * 5
    assert all(s["split_task"] > 0 and s["merge_bucket_task"] > 0 for s in t4_subs)
    assert t4_subs[4]["split_task"] == 2

    assert len(t4["checksums"]) == len(inp["checksums"]) == 5
    for v, (a, b) in enumerate(zip(inp["checksums"], t4["checksums"]), 1):
        assert a.equals(b), f"checksums differ at v{v}"
    for key in ("files", "partitions", "salt_map", "pending_migrations"):
        assert inp[key] == t4[key], f"{key} differ"
    assert inp["quarantines"] == t4["quarantines"]
    assert inp["quarantined"] == t4["quarantined"]
    assert len(inp["quarantined"]) == 4

    # the report keeps the phase laps and the layer summaries in-process
    rep = in_reps[2]
    assert set(rep["timings"]) == {"plan", "scout", "merge", "commit"}
    assert set(taskshuffle.SCOUT_LAYERS) <= set(rep["scout_layers"])
    assert rep["merge_layers"]["slowest_bucket"] == 0


def test_commit_line_names_the_path_and_layers(
    ray_session, tmp_path, monkeypatch, caplog
):
    """The commit's log line and ``show --history`` row (both
    ``commit_info``) carry the round's path, the phase laps before the
    commit, the scout and merge layer sums and the slowest bucket; a no-op
    round publishes and logs nothing."""
    inputs = _replay_inputs(tmp_path)
    caplog.set_level(logging.INFO, logger="radiant_portal_pipeline_ray.state.manifest")
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(**CFG))
    reps = [eng.apply(inputs[0])]
    assert eng.apply(inputs[0])["noop"] is True  # consumed: logs nothing
    monkeypatch.setattr(taskshuffle, "ray_cpus", lambda default=8: 1)
    reps.append(eng.apply(inputs[1]))
    lines = [
        json.loads(r.getMessage())
        for r in caplog.records
        if r.name == "radiant_portal_pipeline_ray.state.manifest"
    ]
    assert [(d["version"], d["path"]) for d in lines] == [
        (1, "tasks"),
        (2, "in_process"),
    ]
    for d, rep in zip(lines, reps):
        assert d["txn_id"] == rep["txn_id"]
        assert d["timings_s"] == {
            k: rep["timings"][k] for k in ("plan", "scout", "merge")
        }
        assert d["scout_layers"] == {
            n: rep["scout_layers"][n] for n in taskshuffle.SCOUT_LAYERS
        }
        assert d["merge_layers"] == {
            n: rep["merge_layers"][n] for n in taskshuffle.MERGE_LAYERS
        }
        assert d["slowest_bucket"] == rep["merge_layers"]["slowest_bucket"]
        assert d["slowest_bucket_s"] == rep["merge_layers"]["slowest_bucket_s"]
    assert eng.lake.history(2) == [
        {k: v for k, v in d.items() if k != "txn_id"} for d in lines
    ]


def test_two_cpus_take_the_task_path(ray_session, tmp_path, monkeypatch):
    """Only one CPU runs a round in-process: two can overlap tasks."""
    inputs = _replay_inputs(tmp_path)
    monkeypatch.setattr(taskshuffle, "ray_cpus", lambda default=8: 2)
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(**CFG))
    assert eng.apply(inputs[0])["path"] == "tasks"
