"""Incremental view maintenance COMPOSES across versions: a derived
per-domain stats view seeded from the v1 snapshot and then maintained by
folding each consecutive change feed (v1→v2, v2→v3, …) — never re-reading
any later snapshot — must equal a full recompute at EVERY step. This is
the property that makes the change-feed consumer viable at 100 TB: the
registry entries (`cdc_incremental_agg`) prove one step; this proves the
induction, including steps whose feed mixes inserts, LWW updates and
deletes over a growing committed state.
"""

import pyarrow as pa
import ray.data as rd

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.pipelines.changefeed import (
    _delta_partials,
    _fold_stats,
    domain_stats_table,
)
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)
from radiant_portal_pipeline_ray.stages.taskshuffle import union


def test_incremental_agg_composes_across_versions(ray_session, tmp_path):
    paths = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=600, n_events=3000, n_batches=4, seed=31),
    )
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=8))
    eng.apply([paths[0]])

    # seed: ONE full recompute at v1 — the last time the snapshot is read
    view = domain_stats_table(eng.read_snapshot(["url", "lsn"], version=1))

    for k, p in enumerate(paths[1:], start=2):
        eng.apply([p])
        seed_ds = rd.from_arrow(
            view.rename_columns(["domain", "n", "s"])
        )
        deltas = _delta_partials(eng.read_changes(k - 1, k))
        view = _fold_stats(union(seed_ds, deltas))
        want = domain_stats_table(eng.read_snapshot(["url", "lsn"], version=k))
        assert view.equals(want), f"diverged at version {k}"

    # the maintained view must have seen real churn, not a trivial stream
    assert view.num_rows > 0
    man = eng.lake.current_manifest()
    assert man.version == len(paths)
