"""The bucket merge (``MergeKernel.merge_parts``: one LWW pass over many
partitions) against a per-partition reference merge (the kernel as it was
before it merged buckets), and the merge tasks' per-layer timers.

Two rounds are merged by the kernel alone, without Ray: round 1 stages
every partition in files of at most 40 rows and its files become round 2's
carried state. Round 1 predates the ``lang`` column, round 2 deletes urls
that are live in the carry, re-touches carried tombstones, adds new urls,
and leaves one carried partition without events (a silent partition, as
``extra_parts`` hands it over). Both rounds' changelogs carry a wrong
``text``: the reference merge extracts the delta winners' text from their
html, so a kernel that trusts or skips it fails."""

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from radiant_portal_pipeline_ray.config import EngineConfig
from radiant_portal_pipeline_ray.functions.text import extract_text
from radiant_portal_pipeline_ray.schemas import CHANGELOG_SCHEMA, INTERNAL_FIELDS
from radiant_portal_pipeline_ray.sources.generator import (
    ChangelogSpec,
    generate_changelog,
)
from radiant_portal_pipeline_ray.stages import merge, taskshuffle
from radiant_portal_pipeline_ray.stages.merge import (
    MERGE_LAYERS,
    MergeKernel,
    carry_batches,
)
from radiant_portal_pipeline_ray.stages.normalize import make_event_normalizer

N_PARTS = 6
ROWS_PER_FILE = 40


def _schemas(event_schema):
    data = [f for f in event_schema if f.name not in ("op", "lsn")]
    snapshot = pa.schema(data + INTERNAL_FIELDS)
    return snapshot, pa.schema([pa.field("op", pa.string())] + list(snapshot))


def _corrupt_text(path):
    """Rewrite a changelog file with a wrong ``text`` on every row."""
    t = pq.read_table(path)
    i = t.schema.get_field_index("text")
    wrong = pa.array(["wrong text"] * t.num_rows, pa.string())
    pq.write_table(t.set_column(i, "text", wrong), path)


def _normalize(path, event_schema, union_schema):
    norm = make_event_normalizer(
        event_schema, union_schema, N_PARTS, {}, {}, N_PARTS - 1
    )
    t = pq.read_table(path)
    valid, _ = norm(t.select([n for n in event_schema.names if n in t.column_names]))
    return valid


def _kernel(staging, snapshot, union, carry=None, seq=None, carry_bytes=None):
    cfg = EngineConfig()
    return MergeKernel(
        txn_id="t",
        staging_dir=str(staging),
        snapshot_schema=snapshot,
        next_doc_seq=seq or {},
        doc_id_part_shift=cfg.doc_id_part_shift,
        target_rows_per_file=ROWS_PER_FILE,
        compression=cfg.compression,
        local_carry_files=carry,
        union_schema=union,
        local_carry_bytes=carry_bytes,
    )


def _staged(staging) -> dict[str, str]:
    out = {}
    for root, _, files in os.walk(staging):
        for f in files:
            path = os.path.join(root, f)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path, staging)
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _reference_merge(k: MergeKernel, group: pa.Table, part: int) -> dict:
    """One partition merged on its own: carry read with ``pq.read_table``,
    sort by (url, warc_ts, lsn), last row per url wins, doc ids looked up
    by url among the carried rows, per-partition counts and top domains.
    Stages its files like the kernel, under ``k.staging_dir``."""
    import json

    from radiant_portal_pipeline_ray.functions.hashing import extract_domain
    from radiant_portal_pipeline_ray.schemas import align_table
    from radiant_portal_pipeline_ray.state.zonemaps import file_stats

    carry = k.local_carry_files.get(part)
    if carry:
        old = pa.concat_tables(
            [pq.read_table(f) for f in carry], promote_options="permissive"
        )
        old = align_table(old, k.union_schema)
        n_old = old.num_rows
        old = old.set_column(
            old.schema.get_field_index("op"), pa.field("op", pa.string()),
            pa.array(["S"] * n_old, type=pa.string()),
        )
        old = old.set_column(
            old.schema.get_field_index("part"), pa.field("part", pa.int32()),
            pa.array(np.full(n_old, part, dtype=np.int32)),
        )
        group = pa.concat_tables([align_table(group, old.schema), old])
    group = group.combine_chunks()
    idx = pc.sort_indices(
        group, sort_keys=[("url", "ascending"), ("warc_ts", "ascending"),
                          ("lsn", "ascending")],
    ).to_numpy()
    ops = group.column("op").to_numpy(zero_copy_only=False)
    is_state = ops == "S"
    lsn = group.column("lsn").to_numpy()
    urls = group.column("url").to_numpy(zero_copy_only=False)[idx]
    last = np.r_[urls[:-1] != urls[1:], True] if len(urls) else np.zeros(0, bool)
    win = idx[last]
    winners = group.take(pa.array(win))
    w_ops = ops[win]
    prev_del = pc.fill_null(winners.column("deleted"), False).to_numpy(
        zero_copy_only=False
    )
    deleted = np.where(w_ops == "D", True, np.where(w_ops == "S", prev_del, False))

    state = group.filter(pa.array(is_state))
    doc_of = {}
    for u, d in zip(state.column("url").to_pylist(), state.column("doc_id").to_pylist()):
        doc_of.setdefault(u, d)
    seq = k.next_doc_seq.get(part, 0)
    docs = []
    for u, d in zip(winners.column("url").to_pylist(), winners.column("doc_id").to_pylist()):
        if d is None:
            d = doc_of.get(u)
        if d is None:
            d = (part << k.doc_id_part_shift) + seq
            seq += 1
        docs.append(d)
    live_old = {
        u for u, d in zip(state.column("url").to_pylist(), state.column("deleted").to_pylist())
        if not d
    }
    extracted = extract_text(winners.column("html")).to_pylist()
    text = [
        t if o == "S" else x
        for t, x, o in zip(winners.column("text").to_pylist(), extracted, w_ops)
    ]
    w_urls = winners.column("url").to_pylist()
    live_urls = [u for u, d in zip(w_urls, deleted) if not d]
    dom_counts = {}
    for d in extract_domain(pa.array(live_urls, pa.string())).to_pylist():
        dom_counts[d] = dom_counts.get(d, 0) + 1
    top = sorted(dom_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:16]

    cols = []
    for f in k.snapshot_schema:
        if f.name == "doc_id":
            col = pa.array(docs, pa.int64())
        elif f.name == "deleted":
            col = pa.array(deleted, pa.bool_())
        elif f.name == "text":
            col = pa.array(text, pa.string())
        else:
            col = winners.column(f.name)
        cols.append(col.cast(f.type))
    out = pa.Table.from_arrays(cols, schema=k.snapshot_schema)
    part_dir = os.path.join(k.staging_dir, f"part={part}")
    os.makedirs(part_dir, exist_ok=True)
    files, nbytes, stats = [], 0, []
    tpf = k.target_rows_per_file
    for i in range(-(-out.num_rows // tpf)):
        chunk = out.slice(i * tpf, tpf)
        fn = f"{k.txn_id}-{part}-{i:04d}.parquet"
        pq.write_table(
            chunk, os.path.join(part_dir, fn), compression=k.compression,
            # snapshot files keep no min/max statistics for html and text
            write_statistics=[c for c in out.column_names if c not in ("html", "text")],
        )
        nbytes += os.path.getsize(os.path.join(part_dir, fn))
        files.append(fn)
        stats.append(file_stats(chunk))
    ev = ~is_state
    return {
        "part": part,
        "files": files,
        "rows": int((~deleted).sum()),
        "tombstones": int(deleted.sum()),
        "bytes": nbytes,
        "max_lsn": int(lsn[ev].max()) if ev.any() else -1,
        "rows_upserted": int(np.isin(w_ops, ["I", "U"]).sum()),
        "rows_deleted": sum(
            1 for u, o in zip(w_urls, w_ops) if o == "D" and u in live_old
        ),
        "rows_carried": int(((w_ops == "S") & ~deleted).sum()),
        "events_in": int(ev.sum()),
        "next_doc_seq": seq,
        "top_domains": json.dumps(dict(top)),
        "file_stats": json.dumps(stats),
    }


@pytest.fixture(scope="module")
def round2(tmp_path_factory):
    """Round 2's inputs: (delta, parts, carry files, carry bytes, next doc
    seqs, schemas), with round 1 already staged as the carry."""
    tmp = tmp_path_factory.mktemp("merge_parts")
    spec = ChangelogSpec(
        n_urls=400, n_events=1600, n_batches=2, n_domains=12, seed=23,
        delete_ratio=0.15,
    )
    paths = generate_changelog(str(tmp / "cl"), spec)
    for p in paths:
        _corrupt_text(p)

    # round 1: written before ``lang`` existed
    ev1 = pa.schema([f for f in CHANGELOG_SCHEMA if f.name != "lang"])
    snap1, union1 = _schemas(ev1)
    delta1 = _normalize(paths[0], ev1, union1)
    parts1 = sorted(set(delta1.column("part").to_pylist()))
    k1 = _kernel(tmp / "r1", snap1, union1)
    metas1 = k1.merge_parts(delta1, parts1)
    carry = {
        m["part"]: [str(tmp / "r1" / f"part={m['part']}" / f) for f in m["files"]]
        for m in metas1
    }
    carry_bytes = {m["part"]: m["bytes"] for m in metas1}
    seq = {m["part"]: m["next_doc_seq"] for m in metas1}
    assert sum(m["tombstones"] for m in metas1), "round 1 staged no tombstone"

    # round 2: the current schema; partition ``silent`` gets no events
    snap2, union2 = _schemas(CHANGELOG_SCHEMA)
    delta2 = _normalize(paths[1], CHANGELOG_SCHEMA, union2)
    silent = parts1[0]
    keep = np.asarray(delta2.column("part")) != silent
    delta2 = delta2.filter(pa.array(keep))
    seen = sorted(set(delta2.column("part").to_pylist()))
    parts = seen + [silent]
    return {
        "tmp": tmp,
        "paths": paths,
        "delta": delta2,
        "parts": parts,
        "silent": silent,
        "carry": carry,
        "carry_bytes": carry_bytes,
        "seq": seq,
        "schemas": (snap2, union2),
    }


def _bucket_vs_per_part(r, name, **merge_kw):
    snap, union = r["schemas"]
    kw = dict(carry=r["carry"], seq=r["seq"], carry_bytes=r["carry_bytes"])
    one = _kernel(r["tmp"] / f"{name}_bucket", snap, union, **kw)
    metas = one.merge_parts(r["delta"], r["parts"], **merge_kw)
    each = _kernel(r["tmp"] / f"{name}_each", snap, union, **kw)
    dp = np.asarray(r["delta"].column("part"))
    ref = [
        _reference_merge(each, r["delta"].filter(pa.array(dp == p)), p)
        for p in r["parts"]
    ]
    return metas, ref, _staged(one.staging_dir), _staged(each.staging_dir)


def test_round2_covers_the_cases(round2):
    r = round2
    assert any(len(f) >= 2 for f in r["carry"].values()), "no multi-file carry"
    carried_cols = pq.read_schema(next(iter(r["carry"].values()))[0]).names
    assert "lang" not in carried_cols and "lang" in r["delta"].column_names
    metas, _, _, _ = _bucket_vs_per_part(r, "cases")
    by_part = {m["part"]: m for m in metas}
    silent = by_part[r["silent"]]
    assert silent["events_in"] == 0 and silent["rows"] > 0 and silent["files"]
    assert sum(m["rows_deleted"] for m in metas), "no delete hit a live url"
    assert any(
        m["next_doc_seq"] > r["seq"].get(m["part"], 0) for m in metas
    ), "no new url"
    carried = pa.concat_tables(
        [pq.read_table(f) for fs in r["carry"].values() for f in fs]
    )
    tomb_urls = set(carried.filter(carried.column("deleted")).column("url").to_pylist())
    assert tomb_urls & set(r["delta"].column("url").to_pylist()), (
        "no event touches a carried tombstone"
    )
    assert sum(m["tombstones"] for m in metas)
    assert len(metas) == len(r["parts"]) >= 4


def test_bucket_merge_equals_per_partition_merges(round2):
    metas, ref, files, ref_files = _bucket_vs_per_part(round2, "whole")
    assert [m["part"] for m in metas] == round2["parts"]
    assert metas == ref
    assert files and files == ref_files


def test_small_batches_equal_per_partition_merges(round2):
    # a bound below every partition's carried bytes: one partition per pass
    metas, ref, files, ref_files = _bucket_vs_per_part(
        round2, "batched", batch_bytes=1
    )
    assert metas == ref
    assert files == ref_files


def test_carry_batches_never_split_a_partition():
    sizes = {1: 30, 2: 30, 3: 100, 4: 10, 5: 0}
    assert carry_batches([1, 2, 3, 4, 5], sizes, 64) == [[1, 2], [3], [4, 5]]
    assert carry_batches([1, 2], sizes, 1 << 30) == [[1, 2]]
    assert carry_batches([], sizes, 64) == []


def test_merge_bucket_task_splits_by_the_bucket_bound(round2, monkeypatch):
    """The task body under a monkeypatched ``_TARGET_BUCKET_BYTES`` small
    enough to split the bucket: same metas and files as one pass."""
    r = round2
    snap, union = r["schemas"]
    kw = dict(carry=r["carry"], seq=r["seq"], carry_bytes=r["carry_bytes"])
    dp = np.asarray(r["delta"].column("part"))
    tables = [r["delta"].filter(pa.array(dp % 2 == b)) for b in (0, 1)]
    body = taskshuffle.merge_bucket_task._function

    passes = []
    real = MergeKernel._merge_batch

    def spy(self, delta, parts, layers):
        passes.append(list(parts))
        return real(self, delta, parts, layers)

    monkeypatch.setattr(MergeKernel, "_merge_batch", spy)
    whole = _kernel(r["tmp"] / "task_whole", snap, union, **kw)
    metas, layers = body(whole, [r["silent"]], *tables, None)
    assert len(passes) == 1

    passes.clear()
    bound = max(r["carry_bytes"].values()) + 1
    monkeypatch.setattr(taskshuffle, "_TARGET_BUCKET_BYTES", bound)
    split = _kernel(r["tmp"] / "task_split", snap, union, **kw)
    metas_split, _ = body(split, [r["silent"]], *tables, None)
    assert len(passes) > 1, passes
    assert sorted(p for b in passes for p in b) == sorted(r["parts"])
    assert metas_split == metas
    assert _staged(split.staging_dir) == _staged(whole.staging_dir)
    assert set(layers) == set(MERGE_LAYERS)
    assert all(v >= 0 for v in layers.values())


def test_apply_reports_merge_layers(ray_session, tmp_path):
    from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine

    paths = generate_changelog(
        str(tmp_path / "cl"), ChangelogSpec(n_urls=300, n_events=1200, n_batches=2)
    )
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    for p in paths:
        rep = eng.apply([p])
        ml = rep["merge_layers"]
        for name in MERGE_LAYERS:
            assert ml[name] >= 0
            assert 0 <= ml[name.removesuffix("_s") + "_max_s"] <= ml[name]
        assert ml["slowest_bucket"] >= 0 and ml["slowest_bucket_s"] >= 0
        sl = rep["scout_layers"]
        for name in taskshuffle.SCOUT_LAYERS:
            stem = name.removesuffix("_s")
            mx = sl[stem + ("_max_s" if stem != name else "_max")]
            assert 0 <= mx <= sl[name]
        assert sl["bytes_out"] > 0
        assert sl["slowest_task"] >= 0 and sl["slowest_task_s"] >= 0
        # the phase laps stay plain numbers
        assert all(isinstance(v, float) for v in rep["timings"].values())


def test_manifest_records_merge_layers(ray_session, tmp_path):
    """Each merge commit's manifest carries the report's scout and merge
    layers in ``stage_metrics``, next to (not inside) the phase laps."""
    from radiant_portal_pipeline_ray.pipelines.apply import CdcEngine

    paths = generate_changelog(
        str(tmp_path / "cl"), ChangelogSpec(n_urls=300, n_events=1200, n_batches=2)
    )
    eng = CdcEngine(str(tmp_path / "lake"), EngineConfig(n_parts=4))
    for p in paths:
        rep = eng.apply([p])
        sm = eng.lake.current_manifest().metrics["stage_metrics"]
        assert sm["merge_layers"] == rep["merge_layers"]
        assert sm["scout_layers"] == rep["scout_layers"]
        assert "merge_layers" not in sm["timings_s"]
        assert "scout_layers" not in sm["timings_s"]


def _delta_winners(r) -> int:
    """Rows of ``r["delta"]`` that win LWW against each other and the
    carried rows: last by (warc_ts, lsn) per (part, url), delta rows
    before carried rows on a tie."""
    import pandas as pd

    cols = ["part", "url", "warc_ts", "lsn"]
    delta = r["delta"].select(cols).to_pandas().assign(carried=False)
    carried = [
        pq.read_table(f, columns=cols[1:]).to_pandas().assign(part=p, carried=True)
        for p in r["parts"]
        for f in r["carry"].get(p, ())
    ]
    rows = pd.concat([delta] + carried, ignore_index=True)
    rows = rows.sort_values(cols, kind="stable")
    last = rows.groupby(["part", "url"], sort=False).tail(1)
    return int((~last["carried"]).sum())


def test_merge_extracts_text_for_delta_winners_only(round2, monkeypatch):
    r = round2
    extracted = []

    def counting(html):
        extracted.append(len(html))
        return extract_text(html)

    monkeypatch.setattr(merge, "extract_text", counting)
    snap, union = r["schemas"]
    k = _kernel(
        r["tmp"] / "counted", snap, union,
        carry=r["carry"], seq=r["seq"], carry_bytes=r["carry_bytes"],
    )
    k.merge_parts(r["delta"], r["parts"])
    winners = _delta_winners(r)
    assert sum(extracted) == winners
    assert 0 < winners < r["delta"].num_rows


def test_carried_winner_text_survives_verbatim(round2, tmp_path):
    """Carried rows hold a sentinel text no html extracts to: every carried
    winner writes it verbatim, every delta winner writes its html's text."""
    r = round2
    carry = {}
    for p, files in r["carry"].items():
        carry[p] = []
        for i, f in enumerate(files):
            t = pq.read_table(f)
            sentinel = [f"SENTINEL {u}" for u in t.column("url").to_pylist()]
            t = t.set_column(
                t.schema.get_field_index("text"), "text",
                pa.array(sentinel, pa.string()),
            )
            path = str(tmp_path / f"carry-{p}-{i}.parquet")
            pq.write_table(t, path)
            carry[p].append(path)
    snap, union = r["schemas"]
    k = _kernel(
        tmp_path / "staged", snap, union,
        carry=carry, seq=r["seq"], carry_bytes=r["carry_bytes"],
    )
    metas = k.merge_parts(r["delta"], r["parts"])
    out = pa.concat_tables(
        [
            pq.read_table(os.path.join(k.staging_dir, f"part={m['part']}", f))
            for m in metas
            for f in m["files"]
        ]
    )
    live = out.filter(pc.invert(out.column("deleted")))
    urls = live.column("url").to_pylist()
    texts = live.column("text").to_pylist()
    fresh = extract_text(live.column("html")).to_pylist()
    kept = [t == f"SENTINEL {u}" for u, t in zip(urls, texts)]
    assert sum(kept) == sum(m["rows_carried"] for m in metas) > 0
    assert all(t == x for t, x, c in zip(texts, fresh, kept) if not c)
    assert not all(kept)


def test_split_output_carries_no_text(round2, tmp_path):
    """The split tasks ship events with a null ``text`` even when the
    caller reads the changelog's (wrong) text column, and report their
    in-task layers."""
    path = round2["paths"][1]
    assert pq.read_table(path).column("text").null_count == 0
    _, union = round2["schemas"]
    norm = make_event_normalizer(
        CHANGELOG_SCHEMA, union, N_PARTS, {}, {}, N_PARTS - 1
    )
    units = taskshuffle.enumerate_units([path])
    out = taskshuffle.split_task._function(units, norm, 3, None)
    stats, buckets = out[0], [b for b in out[1:] if b is not None]
    assert sum(b.num_rows for b in buckets) == stats["events"] > 0
    for b in buckets:
        assert b.column("text").null_count == b.num_rows
    assert set(stats["layers"]) == set(taskshuffle.SCOUT_LAYERS)
    assert stats["layers"]["bytes_out"] == sum(b.nbytes for b in buckets)
    assert all(v >= 0 for v in stats["layers"].values())
