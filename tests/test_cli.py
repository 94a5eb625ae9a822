"""CLI surface: apply → compact → show → qa → gc through __main__.main()."""

import json

from radiant_portal_pipeline_ray.__main__ import main
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)
from radiant_portal_pipeline_ray.stages.merge import MERGE_LAYERS
from radiant_portal_pipeline_ray.stages.taskshuffle import SCOUT_LAYERS


def test_cli_lifecycle(ray_session, tmp_path, capsys):
    paths = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=200, n_events=1000, n_batches=2, seed=8),
    )
    lake = str(tmp_path / "lake")

    def run(*argv):
        assert main(list(argv)) == 0
        return json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    r1 = run("apply", "--lake", lake, "--changelog", *paths, "--n-parts", "4")
    assert r1["version"] == 1 and r1["rows_upserted"] > 0

    rc = run("compact", "--lake", lake, "--min-files", "1")
    assert rc["version"] == 2

    rs = run("show", "--lake", lake)
    assert rs["version"] == 2 and rs["rows"] > 0 and rs["n_parts"] == 4

    rq = run("qa", "--lake", lake)
    assert rq["passed"] is True

    rr = run("reshard", "--lake", lake, "--new-n-parts", "8")
    assert rr["n_parts"] == 8
    rs8 = run("show", "--lake", lake)
    assert rs8["n_parts"] == 8 and rs8["rows"] == rs["rows"]

    rg = run("gc", "--lake", lake, "--keep-versions", "1", "--staging-age-s", "0")
    assert isinstance(rg["removed"], list)

    # the session fixture's Ray must still be alive (CLI must not shut down
    # a session it did not create)
    import ray

    assert ray.is_initialized()


def test_show_history(ray_session, tmp_path, capsys):
    """``show --history N``: one JSON line per retained version among the
    newest N, each with what that commit alone did."""
    from tests.test_quarantine import _mixed_rows, _write

    good, bad = _mixed_rows()
    lake = str(tmp_path / "lake")
    for i, rows in enumerate((good[:10], good[10:])):
        p = _write(tmp_path / f"g{i}.parquet", rows)
        assert main(["apply", "--lake", lake, "--changelog", p, "--n-parts", "4"]) == 0
    p = _write(tmp_path / "bad.parquet", bad)
    assert main(["apply", "--lake", lake, "--changelog", p, "--n-parts", "4"]) == 0
    assert main(["compact", "--lake", lake, "--min-files", "1"]) == 0
    assert main(["rollback", "--lake", lake, "--to-version", "2"]) == 0
    capsys.readouterr()

    assert main(["show", "--lake", lake, "--history", "4"]) == 0
    lines = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    rows, summary = lines[:-1], lines[-1]
    assert summary == {"versions": 4}
    assert [r["version"] for r in rows] == [2, 3, 4, 5]
    assert [r["op"] for r in rows] == ["apply", "quarantine_only", "compact", "rollback"]
    assert [r["committed_at"] for r in rows] == sorted(r["committed_at"] for r in rows)
    apply_, quarantine, compacted, rollback = rows
    assert apply_["events_in"] == apply_["rows_upserted"] == 10
    assert apply_["rows_deleted"] == apply_["rows_quarantined"] == 0
    assert apply_["bytes"] > 0
    # the laps before the commit: the commit lap ends after the manifest
    # is published
    assert set(apply_["timings_s"]) == {"plan", "scout", "merge"}
    # the session's 4 CPUs: the round's exchange ran as Ray tasks
    assert apply_["path"] == "tasks"
    assert quarantine["path"] is compacted["path"] is rollback["path"] is None
    # the split and merge calls' layer sums and the slowest merge bucket
    assert set(apply_["scout_layers"]) == set(SCOUT_LAYERS)
    assert set(apply_["merge_layers"]) == set(MERGE_LAYERS)
    assert apply_["slowest_bucket"] is not None
    for row in (quarantine, compacted, rollback):
        assert row["scout_layers"] == row["merge_layers"] == {}
        assert row["slowest_bucket"] is row["slowest_bucket_s"] is None
    assert quarantine["rows_quarantined"] == len(bad)
    assert quarantine["events_in"] == quarantine["bytes"] == 0
    # the compaction reports its own rewrite, not the previous apply's
    assert compacted["bytes"] > 0 and compacted["events_in"] == 0
    assert set(compacted["timings_s"]) == {"rewrite"}
    assert rollback["events_in"] == rollback["bytes"] == 0
    assert rollback["rows_quarantined"] == 0
