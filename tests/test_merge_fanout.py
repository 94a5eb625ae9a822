"""Merge fan-out of the task exchange: the bucket count follows 2×CPUs
(capped by the partition count), and it never changes what a round commits.

The suite's Ray session has 4 CPUs, where the fan-out rule gives 8 buckets
whichever way it is written, so the parity test monkeypatches the rule to
force 1, 2 and 8 buckets over the same salted, multi-round changelog."""

import hashlib

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)
from radiant_portal_pipeline_ray.stages import taskshuffle
from radiant_portal_pipeline_ray.stages.taskshuffle import merge_bucket_count


def test_merge_bucket_count_is_two_per_cpu():
    assert merge_bucket_count(1, 64) == 2
    assert merge_bucket_count(4, 64) == 8
    assert merge_bucket_count(32, 64) == 64


def test_merge_bucket_count_capped_by_parts():
    assert merge_bucket_count(4, 3) == 3
    assert merge_bucket_count(8, 1) == 1


def _file_bytes(eng) -> dict[str, str]:
    """{part=<p>/<index>: sha256 of the data file} for the live version —
    txn ids differ between lakes, so key by position within the partition."""
    man = eng.lake.current_manifest()
    out = {}
    for p, st in sorted(man.partitions.items()):
        for i, f in enumerate(sorted(st.files)):
            with open(eng.lake.abspath(f), "rb") as fh:
                out[f"part={p}/{i}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_bucket_count_does_not_change_output(ray_session, tmp_path, monkeypatch):
    spec = ChangelogSpec(
        n_urls=1500, n_events=5000, n_batches=3, seed=13, zipf_a=2.5
    )
    paths = generate_changelog(str(tmp_path / "cl"), spec)
    cfg = dict(n_parts=4, salt_threshold_rows=400, salt_target_rows=250)
    seen: list[int] = []
    results = {}
    for n in (1, 2, 8):

        def fixed(cpus, n_parts, n=n):
            seen.append(n)
            return n

        monkeypatch.setattr(taskshuffle, "merge_bucket_count", fixed)
        eng = CdcEngine(str(tmp_path / f"lake_{n}"), EngineConfig(**cfg))
        for p in paths:
            eng.apply([p])
        man = eng.lake.current_manifest()
        assert man.salt_map, "salting never fired"
        assert len(man.partitions) > 8, "too few partitions to spread over 8 buckets"
        results[n] = (eng.snapshot_checksums(), _file_bytes(eng))
    assert sorted(set(seen)) == [1, 2, 8], "the fan-out helper was not used"
    base_sums, base_files = results[1]
    for n in (2, 8):
        sums, files = results[n]
        assert sums.equals(base_sums), f"{n} buckets: checksums diverged"
        assert files == base_files, f"{n} buckets: data file bytes diverged"

