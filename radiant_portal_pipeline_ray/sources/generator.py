"""Deterministic synthetic webtext changelog generator (FIXTURES.md §2).

Produces Parquet batches of CDC events over a Common-Crawl-style url space:
``(lsn:int64, op:I/U/D, url:string, warc_ts:timestamp[us], html:binary,
text:string, lang:string)`` with seeded knobs for update/delete ratio,
out-of-order warc_ts (exercises LWW), duplicate events (exercises
exactly-once) and zipf-skewed hot domains (exercises salting).

Reference analogue: the 13-VCF deterministic fixture corpus + staging delta
semantics (`tests/resources/*.vcf`,
`radiant/dags/sql/radiant/init/staging_sequencing_experiment_delta_create_table.sql`).

Everything is derived from ``numpy.random.default_rng(seed)`` — same seed,
same bytes, across processes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from radiant_portal_pipeline_ray.functions.text import extract_text

_WORDS = (
    "the of and to a in for is on that by this with you it not or be are "
    "from at as your all have new more an was we will home can us about if "
    "page my has search free but our one other do no information time they "
    "site he up may what which their news out use any there see only so his "
    "when contact here business who web also now help get view online first "
    "am been would how were me services some these click its like service "
    "than find price date back top people had list name just over state year"
).split()

_EPOCH_2024_US = 1_704_067_200_000_000  # 2024-01-01T00:00:00Z in microseconds


@dataclass
class ChangelogSpec:
    n_urls: int = 1_000
    n_events: int = 5_000
    n_domains: int = 50
    n_batches: int = 4
    delete_ratio: float = 0.05
    out_of_order_frac: float = 0.10
    #: fraction of events re-emitted verbatim later in the same batch
    dup_frac: float = 0.02
    #: zipf exponent over domains (domain 0 is the hot one)
    zipf_a: float = 1.3
    #: warc_ts step per lsn, and max backward jitter, in seconds
    ts_step_s: int = 60
    ts_jitter_s: int = 3600 * 24
    seed: int = 42
    #: parquet row-group size — KEEP SMALL relative to rows/file so
    #: ``read_parquet`` can split one file into many read tasks (Ray splits
    #: at row-group granularity; one giant row group caps read parallelism
    #: at n_files no matter how many CPUs the cluster has).
    row_group_size: int = 16_384
    #: body repetition factor — raise to make html payloads Common-Crawl-ish
    #: KB-scale (bench realism: per-row compute and shuffle bytes dominate
    #: task overhead) without slowing generation.
    html_repeat: int = 1
    langs: tuple = ("en", "de", "fr", "es", "zh", "ru")
    lang_weights: tuple = (0.60, 0.10, 0.10, 0.08, 0.07, 0.05)
    #: when True, batches evolve schema: B adds status_code:int32,
    #: C widens it to int64, D drops lang (FIXTURES.md §3).
    evolution: bool = False
    #: when True (with n_batches >= 4), NESTED types evolve too:
    #: B adds meta:struct<fetch_ms:int32> + embedding:list<float32>,
    #: C widens meta.fetch_ms to int64 and adds meta.crawler:string,
    #: D drops embedding (retained as nulls downstream). Values are
    #: lsn-derived so replay oracles can recompute them exactly.
    nested_evolution: bool = False
    extra: dict = field(default_factory=dict)


def _domain_of_url_idx(spec: ChangelogSpec, rng: np.random.Generator) -> np.ndarray:
    """url index → domain index, zipf-skewed so domain 0 is hot."""
    ranks = np.arange(1, spec.n_domains + 1, dtype=np.float64)
    w = ranks ** (-spec.zipf_a)
    w /= w.sum()
    return rng.choice(spec.n_domains, size=spec.n_urls, p=w)


def generate_changelog(out_dir: str, spec: ChangelogSpec) -> list[str]:
    """Write ``spec.n_batches`` Parquet files; returns the file paths in
    lsn order. lsn is globally strictly increasing over logical events
    (duplicate events re-use their original lsn, re-emitted later)."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(spec.seed)

    url_domain = _domain_of_url_idx(spec, rng)
    domains = np.array(
        [f"d{i:04d}.example.org" for i in range(spec.n_domains)], dtype=object
    )
    urls = np.array(
        [
            f"https://{domains[url_domain[j]]}/p/{j:08d}"
            for j in range(spec.n_urls)
        ],
        dtype=object,
    )

    # global event → url assignment; first touch of a url is an Insert
    target = rng.integers(0, spec.n_urls, size=spec.n_events)
    _, first_idx = np.unique(target, return_index=True)
    is_first = np.zeros(spec.n_events, dtype=bool)
    is_first[first_idx] = True
    is_delete = (~is_first) & (rng.random(spec.n_events) < spec.delete_ratio)
    op = np.where(is_first, "I", np.where(is_delete, "D", "U")).astype(object)

    lsn = np.arange(1, spec.n_events + 1, dtype=np.int64)
    jitter = np.where(
        rng.random(spec.n_events) < spec.out_of_order_frac,
        rng.integers(0, spec.ts_jitter_s * 1_000_000, size=spec.n_events),
        0,
    )
    warc_ts = _EPOCH_2024_US + lsn * (spec.ts_step_s * 1_000_000) - jitter

    lang_idx = rng.choice(
        len(spec.langs), size=spec.n_events, p=np.array(spec.lang_weights)
    )
    n_words = rng.integers(8, 40, size=spec.n_events)
    word_seed = rng.integers(0, 2**31, size=spec.n_events)

    bounds = np.linspace(0, spec.n_events, spec.n_batches + 1).astype(int)
    paths = []
    for b in range(spec.n_batches):
        lo, hi = bounds[b], bounds[b + 1]
        sl = slice(lo, hi)
        n = hi - lo
        htmls: list[bytes | None] = []
        texts_src: list[bytes | None] = []
        for k in range(lo, hi):
            if op[k] == "D":
                htmls.append(None)
                continue
            wrng = np.random.default_rng(int(word_seed[k]))
            body = " ".join(
                _WORDS[i] for i in wrng.integers(0, len(_WORDS), size=int(n_words[k]))
            )
            if spec.html_repeat > 1:
                body = " ".join([body] * spec.html_repeat)
            amp = " fish &amp; chips" if word_seed[k] % 7 == 0 else ""
            u = urls[target[k]]
            htmls.append(
                (
                    f"<html><head><title>{u}</title>"
                    f"<style>p {{margin:0}}</style></head>"
                    f"<body><h1>v{lsn[k]}</h1><p>{body}{amp}</p>"
                    f"<!-- lsn {lsn[k]} --><script>var x={lsn[k]};</script>"
                    f"</body></html>"
                ).encode("utf-8")
            )
        html_arr = pa.array(htmls, type=pa.binary())
        text_arr = extract_text(html_arr)
        cols = {
            "lsn": pa.array(lsn[sl]),
            "op": pa.array(op[sl], type=pa.string()),
            "url": pa.array(urls[target[sl]], type=pa.string()),
            "warc_ts": pa.array(warc_ts[sl]).cast(pa.timestamp("us")),
            "html": html_arr,
            "text": text_arr,
            "lang": pa.array(
                np.where(
                    op[sl] == "D", None, np.array(spec.langs, dtype=object)[lang_idx[sl]]
                ),
                type=pa.string(),
            ),
        }
        t = pa.table(cols)

        if spec.evolution and spec.n_batches >= 4:
            phase = (b * 4) // spec.n_batches  # 0=A base,1=B add,2=C widen,3=D drop
            if phase >= 1:
                status = pa.array(
                    (200 + (lsn[sl] % 5) * 100).astype(
                        np.int32 if phase == 1 else np.int64
                    )
                )
                t = t.append_column(
                    pa.field(
                        "status_code", pa.int32() if phase == 1 else pa.int64()
                    ),
                    status.cast(pa.int32() if phase == 1 else pa.int64()),
                )
            if phase >= 3:
                t = t.drop_columns(["lang"])

        if spec.nested_evolution and spec.n_batches >= 4:
            phase = (b * 4) // spec.n_batches
            ls = lsn[sl]
            if phase >= 1:
                fetch_t = pa.int32() if phase == 1 else pa.int64()
                meta_children = [pa.array(ls % 1000).cast(fetch_t)]
                meta_fields = [pa.field("fetch_ms", fetch_t)]
                if phase >= 2:
                    meta_children.append(
                        pa.array(
                            np.char.add("c", (ls % 3).astype(str)).astype(
                                object
                            ),
                            type=pa.string(),
                        )
                    )
                    meta_fields.append(pa.field("crawler", pa.string()))
                t = t.append_column(
                    pa.field("meta", pa.struct(meta_fields)),
                    pa.StructArray.from_arrays(
                        meta_children, fields=meta_fields
                    ),
                )
            if 1 <= phase <= 2:
                emb = np.stack(
                    [(ls % 7).astype(np.float32), (ls % 11).astype(np.float32)],
                    axis=1,
                )
                off = pa.array(
                    np.arange(0, 2 * (len(ls) + 1), 2, dtype=np.int32)[
                        : len(ls) + 1
                    ],
                    type=pa.int32(),
                )
                t = t.append_column(
                    pa.field("embedding", pa.list_(pa.float32())),
                    pa.ListArray.from_arrays(
                        off, pa.array(emb.ravel(), type=pa.float32())
                    ),
                )

        # duplicate events: re-emit verbatim copies of earlier rows in this
        # batch at the tail (same lsn → exactly-once must collapse them)
        n_dup = int(n * spec.dup_frac)
        if n_dup > 0:
            dup_idx = rng.integers(0, n, size=n_dup)
            t = pa.concat_tables([t, t.take(pa.array(dup_idx))])

        path = os.path.join(out_dir, f"batch-{b:04d}.parquet")
        pq.write_table(
            t, path, compression="zstd", row_group_size=spec.row_group_size
        )
        paths.append(path)
    return paths
