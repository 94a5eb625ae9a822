"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

- a tiny run of every workload, traced and untraced, prints every named
  metric with its unit and passes its oracle;
- the oracles report mismatches on deliberately corrupted outputs;
- in a traced run the apply phase laps account for each apply span's wall
  time within 10 % (+20 ms for the laps' millisecond rounding);
- in a directory holding only the benchmark, it exits non-zero.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import inputs, oracle  # noqa: E402
from perfbench.run import END_TO_END, WORKLOAD_FIGURES, _per_layer_names  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

_RUNS: dict = {}


def tiny_run(workload: str, trace: int) -> tuple[dict, dict]:
    """(result line, detail line) of one tiny run; each combination runs once."""
    key = (workload, trace)
    if key not in _RUNS:
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", "3", "--seconds", "1", "--trace", str(trace),
             "--size", "tiny"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert p.returncode == 0, p.stderr[-3000:]
        lines = p.stdout.strip().splitlines()
        _RUNS[key] = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    return _RUNS[key]


#: the workload figures each workload measures (the rest report 0)
OWN_FIGURES = {
    "backlog_replay": ["backlog_events_per_s", "write_amp", "space_amp"],
    "tail_microbatch": ["round_p50_s", "round_p90_s", "tail_events_per_s",
                        "write_amp", "space_amp"],
    "read_mix": ["scan_rows_per_s", "lookup_p50_s", "lookup_p90_s",
                 "changefeed_p50_s", "queries_s", "write_amp", "space_amp"],
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    result, detail = tiny_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = END_TO_END if trace == 0 else _per_layer_names()
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert set(OWN_FIGURES[workload]) <= set(WORKLOAD_FIGURES)
    assert all(detail["figures"][k] > 0 for k in OWN_FIGURES[workload])
    if trace == 1:
        for k in OWN_FIGURES[workload]:
            assert result["metrics"][k]["value"] == detail["figures"][k]


def test_traced_tail_migrates_a_salted_domain():
    result, _ = tiny_run("tail_microbatch", 1)
    assert result["metrics"]["partitioner.migrations"]["value"] >= 1


def test_apply_laps_account_for_traced_apply_wall():
    for workload in ("backlog_replay", "tail_microbatch"):
        _, detail = tiny_run(workload, 1)
        path = os.path.join(ROOT, ".perfbench", "traces", f"{detail['run']}.json")
        with open(path) as f:
            spans = [s for s in json.load(f)["spans"] if s["name"] == "apply"]
        assert spans
        for s in spans:
            wall = s["end"] - s["start"]
            laps = sum(s["timings"].values())
            assert abs(wall - laps) <= 0.10 * wall + 0.02, (workload, wall, s["timings"])


def test_self_time_subtracts_children():
    tr = Tracer("t", enabled=True)
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    outer, inner = tr.spans
    assert inner["parent"] == outer["id"]
    want = (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    assert tr.self_time(outer) == pytest.approx(want)


def _stream():
    spec = inputs.StreamSpec(n_urls=50, n_domains=5, file_events=(200, 100), seed=11)
    return inputs.generate_stream(spec)


def test_snapshot_oracle_fails_on_a_corrupted_snapshot():
    events = _stream()
    state = oracle.lww_fold(events)
    good = oracle.live(state).select(["url", "lsn", "html", "text"])
    assert oracle.snapshot_mismatch(good, state) == 0

    lsn = good.column("lsn").to_pylist()
    lsn[0] += 1
    text = good.column("text").to_pylist()
    text[1] = text[1] + " "
    bad = good.set_column(1, "lsn", pa.array(lsn)).set_column(
        3, "text", pa.array(text)
    ).slice(0, good.num_rows - 1)
    assert oracle.snapshot_mismatch(bad, state) == 3  # lsn, text, missing row
    dup = pa.concat_tables([good, good.slice(0, 1)])
    assert oracle.snapshot_mismatch(dup, state) > 0


def test_lww_fold_orders_by_event_time_then_lsn():
    t = pa.table(
        {
            "url": ["u", "u", "u"],
            "lsn": [1, 2, 3],
            "warc_ts": pa.array([10, 30, 20]).cast(pa.timestamp("us")),
            "op": ["I", "U", "U"],
            "html": pa.array([b"a", b"b", b"c"]),
            "text": ["a", "b", "c"],
        }
    )
    assert oracle.lww_fold([t]).column("lsn").to_pylist() == [2]


def test_change_oracle_fails_on_a_wrong_change():
    first, second = _stream()
    s1 = oracle.lww_fold([first])
    s2 = oracle.lww_fold([second], s1)
    want = oracle.expected_changes(s1, s2)
    assert want.num_rows > 0
    assert oracle.changes_mismatch(want, s1, s2) == 0
    ops = want.column("change_op").to_pylist()
    ops[0] = "D" if ops[0] != "D" else "U"
    assert oracle.changes_mismatch(want.set_column(0, "change_op", pa.array(ops)), s1, s2) == 1


def test_query_oracle_fails_on_a_changed_value():
    want = pa.table({"k": [1, 2, 3], "v": [10, 20, 30]})
    assert oracle.result_mismatch(want.take([2, 0, 1]), want) == 0
    got = want.set_column(1, "v", pc.add(want.column("v"), pa.array([0, 0, 1])))
    assert oracle.result_mismatch(got, want) == 1


def test_inputs_depend_only_on_the_seed():
    a, b = _stream(), _stream()
    assert all(x.equals(y) for x, y in zip(a, b))


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "backlog_replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180, env=env,
    )
    assert p.returncode != 0
    assert "metrics" not in p.stdout
