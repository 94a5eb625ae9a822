"""No ObjectRef outlives an apply round on the task exchange.

The round holds its split and merge refs in plain lists and drops them before
the commit, with no ``gc.collect()``. This test runs rounds with the cyclic
garbage collector disabled: a ref kept alive by a reference cycle would stay
in the driver's reference table and fail the check."""

import gc

import ray

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.pipelines.tail import tail
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)


def _driver_refs() -> int:
    return len(
        ray._private.worker.global_worker.core_worker.get_all_reference_counts()
    )


def test_no_object_ref_outlives_a_round(ray_session, tmp_path):
    paths = generate_changelog(
        str(tmp_path / "cl"),
        ChangelogSpec(n_urls=400, n_events=2000, n_batches=4, seed=21),
    )
    tail_dir = tmp_path / "tail"
    tail_dir.mkdir()
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    gc.collect()
    gc.disable()
    try:
        for p in paths[:3]:
            before = _driver_refs()
            rep = eng.apply([p])
            assert not rep.get("noop")
            assert _driver_refs() == before, f"apply of {p} leaked refs"
        (tail_dir / "batch.parquet").write_bytes(open(paths[3], "rb").read())
        before = _driver_refs()
        reports = tail(eng, str(tail_dir), poll_s=0.0, max_rounds=1)
        assert len(reports) == 1 and not reports[0].get("noop")
        assert _driver_refs() == before, "tail round leaked refs"
    finally:
        gc.enable()
