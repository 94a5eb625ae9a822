"""Measure both read paths of ``lakescan.read`` on either side of the size
threshold that selects between them (``taskshuffle._DRIVER_LOCAL_BYTES``).

For each total size it writes text-heavy parquet files (a url, a
timestamp, about 2 KB of random words per row; ``--file-mb`` MB per file,
so a read has several files as a lake scan does), then reads them with
``sources.io.read_parquet_clean`` on each path: ``driver`` (threshold
raised above the size: read in-process) and ``tasks`` (threshold -1: Ray
read tasks). Each timed operation is the read plus a consumer that hashes
every ``text`` value through ``taskshuffle.map_blocks`` (the shape of
``dd_exact``'s sha256 pass: in-process over the driver path's table,
``map_batches`` tasks over the task path's Dataset) and collects the
result. Every (size, path) runs in its own process and Ray session, after
one untimed warm-up operation on the same files, and prints one JSON line:

    size_mb, path, files, rows, decoded_mb, cpu_s (median), wall_s
    (median), peak_rss_mb

CPU is that of the driver and every Ray process below it
(``perfbench.tracing.Clock``); ``peak_rss_mb`` is the largest resident
memory of the same processes, sampled every 0.1 s over the timed
operations (``perfbench.tracing.PeakRss``; shared object-store pages count
once per process that maps them).

Usage:  python3 tools/read_paths.py <work_dir> [--mb 4 16 64] [--reps 3]
        [--cpus 1] [--file-mb 2]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

#: the checkout this tool lives in — its package is the one measured
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_VOCAB = 5000
_WORDS_PER_ROW = 300


def write_files(out_dir: str, mb: float, file_mb: float) -> list[str]:
    """Parquet files of about ``mb`` MB on disk in all, ``file_mb`` each."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(int(mb * 1000))
    vocab = np.array([f"w{i:x}" for i in range(_VOCAB)])
    paths, written, n = [], 0, 0
    while written < mb * 2**20:
        rows, chars = [], 0
        while chars < file_mb * 2**20 * 2.5:
            ids = rng.zipf(1.3, _WORDS_PER_ROW) % _VOCAB
            rows.append(" ".join(vocab[ids]))
            chars += len(rows[-1])
        t = pa.table(
            {
                "url": [f"https://d{n}.example/{i}" for i in range(len(rows))],
                "warc_ts": pa.array(np.arange(len(rows)) + n, pa.timestamp("s")),
                "text": rows,
            }
        )
        p = os.path.join(out_dir, f"part-{n:04d}.parquet")
        pq.write_table(t, p, compression="zstd")
        paths.append(p)
        written += os.path.getsize(p)
        n += 1
    return paths


def _hash_texts(batch):
    import hashlib

    import pyarrow as pa

    digests = [
        hashlib.sha256(s.encode()).hexdigest()
        for s in batch.column("text").to_pylist()
    ]
    return pa.table({"url": batch.column("url"), "sha": digests})


def measure_one(paths: list[str], path: str, reps: int, cpus: int) -> dict:
    """The (size, path) measurement, in this process's own Ray session."""
    sys.path.insert(0, REPO_ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (REPO_ROOT, os.environ.get("PYTHONPATH")) if p
    )
    import ray
    from ray.data import DataContext

    from perfbench.tracing import Clock, PeakRss
    from radiant_portal_pipeline_ray.sources.io import read_parquet_clean
    from radiant_portal_pipeline_ray.stages import taskshuffle

    ray.init(
        address="local", num_cpus=cpus, include_dashboard=False,
        logging_level="ERROR",
    )
    DataContext.get_current().enable_progress_bars = False
    size = sum(os.path.getsize(p) for p in paths)
    taskshuffle._DRIVER_LOCAL_BYTES = size if path == "driver" else -1

    def op():
        out = taskshuffle.map_blocks(read_parquet_clean(paths), _hash_texts)
        return taskshuffle.collect(out).num_rows

    try:
        op()
        cpu, wall = [], []
        with PeakRss(interval=0.1) as rss:
            for _ in range(reps):
                clock = Clock()
                with clock.part():
                    rows = op()
                cpu.append(clock.cpu)
                wall.append(clock.wall)
        decoded = taskshuffle.collect(read_parquet_clean(paths)).nbytes
    finally:
        ray.shutdown()
    return {
        "size_mb": round(size / 2**20, 1),
        "path": path,
        "files": len(paths),
        "rows": rows,
        "decoded_mb": round(decoded / 2**20, 1),
        "cpu_s": round(statistics.median(cpu), 3),
        "wall_s": round(statistics.median(wall), 3),
        "peak_rss_mb": round(rss.peak_mb),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("work_dir")
    ap.add_argument("--mb", type=float, nargs="+", default=[4, 16, 64])
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--cpus", type=int, default=1, help="Ray CPUs (default 1)")
    ap.add_argument("--file-mb", type=float, default=2)
    ap.add_argument("--one", nargs=2, metavar=("DIR", "PATH"), help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.one:
        d, path = args.one
        paths = sorted(os.path.join(d, f) for f in os.listdir(d))
        print(json.dumps(measure_one(paths, path, args.reps, args.cpus)), flush=True)
        return 0
    for mb in args.mb:
        d = os.path.join(args.work_dir, f"read-{mb:g}mb")
        if not os.path.isdir(d):
            write_files(d, mb, args.file_mb)
        for path in ("driver", "tasks"):
            cmd = [
                sys.executable, os.path.abspath(__file__), args.work_dir,
                "--reps", str(args.reps), "--cpus", str(args.cpus), "--one", d, path,
            ]
            subprocess.run(cmd, check=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
