"""Seeded inputs: a webtext change stream and a small TPC-H-style star schema.

Everything comes from ``numpy.random.default_rng(seed)``: the same seed gives
the same files. The generator is the benchmark's own, so a change to the
package cannot change the inputs it is measured on.

The change stream carries the text each row's html must extract to in its
``text`` column. The engine never reads that column (it recomputes text from
html), so the oracle can check ``text == extract_text(html)`` without calling
the package.

Generated files are cached under ``<cache_root>/<key>/`` where the key names
the workload, size profile, seed and generator version.
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

#: bump when the generated bytes change, so stale caches are not reused
GEN_VERSION = 3

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: run by the child that builds a cache entry; stdin is pickled by
#: ``cached`` in this process
_BUILD_CHILD = (
    "import pickle, sys; write, spec, out = pickle.load(sys.stdin.buffer); "
    "write(spec, out)"
)

_WORDS = np.array(
    (
        "lake commit stream merge table query page index crawl fetch parse "
        "token vector shard replica batch window order region nation market "
        "price value event user click view store cache block file record "
        "column schema version change delta snapshot manifest partition salt "
        "domain host path link anchor title body header footer script style"
    ).split(),
    dtype=object,
)
_LANGS = np.array(["en", "de", "fr", "es", "zh", "ru"], dtype=object)
_LANG_P = np.array([0.60, 0.10, 0.10, 0.08, 0.07, 0.05])
_EPOCH_2024_US = 1_704_067_200_000_000
_AMP_HTML = " fish &amp; chips"
_AMP_TEXT = " fish & chips"


@dataclass(frozen=True)
class StreamSpec:
    """One change stream, cut into files of ``file_events`` events each.

    lsn is 1..N over logical events. The first event on a url is an insert,
    later ones are updates, or deletes with ``delete_ratio``. ``dup_frac`` of
    each file's rows are re-emitted verbatim at the file's end (same lsn), and
    ``out_of_order_frac`` of events carry a warc_ts up to a day in the past,
    so last-writer-wins by ``(warc_ts, lsn)`` differs from lsn order.
    """

    n_urls: int
    n_domains: int
    file_events: tuple
    seed: int
    words: tuple = (20, 60)
    body_repeat: int = 4
    zipf_a: float = 1.3
    delete_ratio: float = 0.05
    out_of_order_frac: float = 0.10
    dup_frac: float = 0.02
    row_group_size: int = 4096


def stream_urls(spec: StreamSpec) -> tuple[np.ndarray, np.ndarray]:
    """(url strings, domain index per url); domain 0 is the zipf head.

    Urls per domain follow the zipf weights exactly and only their order is
    drawn from the seed, so every seed gives the same partition sizes and the
    same hot domain: seeds vary the events, not the lake's shape.
    """
    rng = np.random.default_rng(spec.seed)
    w = np.arange(1, spec.n_domains + 1, dtype=np.float64) ** (-spec.zipf_a)
    counts = np.floor(w / w.sum() * spec.n_urls).astype(np.int64)
    counts[0] += spec.n_urls - counts.sum()
    dom = rng.permutation(np.repeat(np.arange(spec.n_domains), counts))
    urls = np.array(
        [f"https://d{d:04d}.example.org/p/{j:08d}" for j, d in enumerate(dom)],
        dtype=object,
    )
    return urls, dom


def generate_stream(spec: StreamSpec) -> list[pa.Table]:
    """The change stream as one table per file, in lsn order."""
    urls, _ = stream_urls(spec)
    rng = np.random.default_rng([spec.seed, 1])
    n = int(sum(spec.file_events))
    target = rng.integers(0, spec.n_urls, size=n)
    first = np.zeros(n, dtype=bool)
    first[np.unique(target, return_index=True)[1]] = True
    is_del = ~first & (rng.random(n) < spec.delete_ratio)
    op = np.where(first, "I", np.where(is_del, "D", "U")).astype(object)
    lsn = np.arange(1, n + 1, dtype=np.int64)
    late = rng.random(n) < spec.out_of_order_frac
    jitter = np.where(late, rng.integers(0, 86_400_000_000, size=n), 0)
    warc_ts = _EPOCH_2024_US + lsn * 60_000_000 - jitter
    n_words = rng.integers(spec.words[0], spec.words[1], size=n)
    offs = np.concatenate([[0], np.cumsum(n_words)])
    word_idx = rng.integers(0, len(_WORDS), size=int(offs[-1]))
    amp = rng.random(n) < 1 / 7
    lang = rng.choice(_LANGS, size=n, p=_LANG_P)

    html: list = [None] * n
    text: list = [None] * n
    for k in range(n):
        if op[k] == "D":
            continue
        body = " ".join(_WORDS[word_idx[offs[k] : offs[k + 1]]])
        body = " ".join([body] * spec.body_repeat)
        u = urls[target[k]]
        html[k] = (
            f"<html><head><title>{u}</title><style>p {{margin:0}}</style>"
            f"</head><body><h1>v{lsn[k]}</h1><p>{body}"
            f"{_AMP_HTML if amp[k] else ''}</p><!-- c{lsn[k]} -->"
            f"<script>var x={lsn[k]};</script></body></html>"
        ).encode()
        text[k] = f"{u} v{lsn[k]} {body}{_AMP_TEXT if amp[k] else ''}"

    tables = []
    lo = 0
    for i, m in enumerate(spec.file_events):
        hi = lo + int(m)
        t = pa.table(
            {
                "lsn": pa.array(lsn[lo:hi]),
                "op": pa.array(op[lo:hi], type=pa.string()),
                "url": pa.array(urls[target[lo:hi]], type=pa.string()),
                "warc_ts": pa.array(warc_ts[lo:hi]).cast(pa.timestamp("us")),
                "html": pa.array(html[lo:hi], type=pa.binary()),
                "text": pa.array(text[lo:hi], type=pa.string()),
                "lang": pa.array(
                    np.where(op[lo:hi] == "D", None, lang[lo:hi]), type=pa.string()
                ),
            }
        )
        n_dup = int(t.num_rows * spec.dup_frac)
        if n_dup:
            dup = np.random.default_rng([spec.seed, 2, i]).integers(
                0, t.num_rows, size=n_dup
            )
            t = pa.concat_tables([t, t.take(pa.array(dup))])
        tables.append(t)
        lo = hi
    return tables


def write_stream(spec: StreamSpec, out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for i, t in enumerate(generate_stream(spec)):
        p = os.path.join(out_dir, f"c-{i:05d}.parquet")
        pq.write_table(t, p, compression="zstd", row_group_size=spec.row_group_size)
        paths.append(p)
    return paths


# ---------------------------------------------------------------------------
# Star schema for read_mix's window queries. Line prices are whole numbers,
# discounts multiples of 1/16, other money and values multiples of 1/4. So
# every sum the queries take is exact in float64 whatever the summation
# order, and every scaled sum they round is a whole number: the engine's
# round-half-to-even and DuckDB's round-half-away-from-zero never meet a tie.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TablesSpec:
    n_customers: int
    n_orders: int
    n_lineitems: int
    n_users: int
    n_events: int
    seed: int


def _days_us(rng, n: int, start: str, n_days: int) -> pa.Array:
    d0 = np.datetime64(start, "D").astype(np.int64)
    days = d0 + rng.integers(0, n_days, size=n)
    return pa.array(days * 86_400_000_000).cast(pa.timestamp("us"))


def generate_tables(spec: TablesSpec) -> dict[str, pa.Table]:
    rng = np.random.default_rng([spec.seed, 3])
    region = pa.table(
        {
            "r_regionkey": pa.array(np.arange(5, dtype=np.int32)),
            "r_name": pa.array(
                ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
            ),
        }
    )
    nk = np.arange(25, dtype=np.int32)
    nation = pa.table(
        {
            "n_nationkey": pa.array(nk),
            "n_name": pa.array([f"NATION_{k}" for k in nk]),
            "n_regionkey": pa.array(nk % 5),
        }
    )
    c = spec.n_customers
    customer = pa.table(
        {
            "c_custkey": pa.array(np.arange(c, dtype=np.int64)),
            "c_name": pa.array([f"Customer#{k:09d}" for k in range(c)]),
            "c_nationkey": pa.array(rng.integers(0, 25, size=c).astype(np.int32)),
            "c_acctbal": pa.array(rng.integers(-4000, 40000, size=c) / 4.0),
            "c_mktsegment": pa.array(
                np.array(["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD",
                          "MACHINERY"], dtype=object)[rng.integers(0, 5, size=c)]
            ),
        }
    )
    o = spec.n_orders
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(o, dtype=np.int64)),
            "o_custkey": pa.array(rng.integers(0, c, size=o).astype(np.int64)),
            "o_orderstatus": pa.array(
                np.array(["F", "O", "P"], dtype=object)[rng.integers(0, 3, size=o)]
            ),
            # a narrow price grid makes ties, which the rank queries must break
            "o_totalprice": pa.array(rng.integers(4000, 4400, size=o) * 250 / 4.0),
            "o_orderdate": _days_us(rng, o, "1992-01-01", 2400),
            "o_orderpriority": pa.array(
                np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED",
                          "5-LOW"], dtype=object)[rng.integers(0, 5, size=o)]
            ),
        }
    )
    n_li = spec.n_lineitems
    lineitem = pa.table(
        {
            "l_orderkey": pa.array(rng.integers(0, o, size=n_li).astype(np.int64)),
            "l_partkey": pa.array(rng.integers(0, 2000, size=n_li).astype(np.int64)),
            "l_suppkey": pa.array(rng.integers(0, 100, size=n_li).astype(np.int64)),
            "l_linenumber": pa.array(rng.integers(1, 8, size=n_li).astype(np.int32)),
            "l_quantity": pa.array(rng.integers(1, 51, size=n_li).astype(np.float64)),
            "l_extendedprice": pa.array(
                rng.integers(1000, 100000, size=n_li).astype(np.float64)
            ),
            "l_discount": pa.array(rng.integers(0, 3, size=n_li) / 16.0),
            "l_tax": pa.array(rng.integers(0, 3, size=n_li) / 16.0),
            "l_returnflag": pa.array(
                np.array(["A", "N", "R"], dtype=object)[rng.integers(0, 3, size=n_li)]
            ),
            "l_linestatus": pa.array(
                np.array(["F", "O"], dtype=object)[rng.integers(0, 2, size=n_li)]
            ),
            "l_shipdate": _days_us(rng, n_li, "1995-01-01", 2500),
        }
    )
    e = spec.n_events
    gaps = rng.integers(1_000_000, 400_000_000, size=e)
    events = pa.table(
        {
            "event_id": pa.array(np.arange(e, dtype=np.int64)),
            "ts": pa.array(_EPOCH_2024_US + np.cumsum(gaps)).cast(
                pa.timestamp("us")
            ),
            "user_id": pa.array(rng.integers(0, spec.n_users, size=e).astype(np.int64)),
            "event_type": pa.array(
                np.array(["click", "error", "purchase", "signup", "view"],
                         dtype=object)[rng.integers(0, 5, size=e)]
            ),
            "value": pa.array(rng.integers(0, 8000, size=e) / 4.0),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, size=e)]),
        }
    )
    return {
        "region": region,
        "nation": nation,
        "customer": customer,
        "orders": orders,
        "lineitem": lineitem,
        "events": events,
    }


def write_tables(spec: TablesSpec, out_dir: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    for name, t in generate_tables(spec).items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"), row_group_size=8192)
    return out_dir


def cached(cache_root: str, key: str, write, spec) -> tuple[str, bool]:
    """Directory holding ``write(spec, dir)``'s output for ``key``; builds it
    once.

    Returns ``(dir, built_now)``. The build runs in a child interpreter, so the
    caller's memory afterwards is the same whether the inputs were cached or
    not. A partial build (crash) never counts as cached: the output is built
    in a temporary sibling and renamed into place.
    """
    final = os.path.join(cache_root, f"{key}-g{GEN_VERSION}")
    if os.path.isdir(final):
        return final, False
    tmp = f"{final}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    # a plain child interpreter: multiprocessing would leave its resource
    # tracker running until this process exits
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_ROOT] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _BUILD_CHILD],
        input=pickle.dumps((write, spec, tmp)),
        stdout=subprocess.DEVNULL,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise RuntimeError(f"generating {key} failed (exit code {proc.returncode})")
    try:
        os.replace(tmp, final)
    except OSError:  # a concurrent run won the rename
        shutil.rmtree(tmp, ignore_errors=True)
    return final, True
