"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_benchmark_json_names_what_run_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    p = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
               "--scenes", "3", "--trace", str(trace))
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    p = _bench("--workload", "batch-ds4", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


@pytest.fixture(scope="module")
def reference():
    return corpus.Reference(corpus.make_corpus(7, 3), downsample=4)


def expected(reference):
    return lambda fid: reference.document(fid, fid % 3)


def test_output_check_catches_altered_missing_duplicate_and_reordered(reference):
    delivered = [(fid, reference.document(fid, fid % 3)) for fid in range(6)]
    assert corpus.check_delivery(delivered, 6, expected(reference)) == {}

    doc = delivered[4][1]
    at = doc.index(b'"area":') + len(b'"area":')
    altered = delivered[:4] + [(4, doc[:at] + b"9" + doc[at:])] + delivered[5:]
    assert list(corpus.check_delivery(altered, 6, expected(reference))) == [4]

    assert list(corpus.check_delivery(delivered[:5], 6, expected(reference))) == [5]
    assert list(corpus.check_delivery(delivered + delivered[:1], 6, expected(reference))) == [0]
    swapped = delivered[:2] + [delivered[3], delivered[2]] + delivered[4:]
    assert list(corpus.check_delivery(swapped, 6, expected(reference))) == [2]


def test_reference_documents_follow_the_frame_id(reference):
    # Frame 4 shows scene 1 again; only its frame id differs.
    again = json.loads(reference.document(4, 1))
    first = json.loads(reference.document(1, 1))
    assert again.pop("frame_id") == 4 and first.pop("frame_id") == 1
    assert again == first


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, s: float) -> None:
        self.now += s


def test_open_loop_counts_lateness_from_the_due_time():
    clock = FakeClock()
    sent = []

    def send(i: int) -> None:
        sent.append((i, clock.now))
        if i == 1:
            clock.now += 0.25  # frame 1's send stalls past frames 2 and 3's due times

    late = loadgen.open_loop(send, 5, rate=10.0, start=0.0, clock=clock, sleep=clock.sleep)
    assert late == pytest.approx([0.0, 0.0, 0.15, 0.05, 0.0])
    assert [t for _, t in sent] == pytest.approx([0.0, 0.1, 0.35, 0.35, 0.4])


def test_lockstep_counts_answers_released_by_the_next_send():
    sent = [0.0, 0.1, 0.2, 0.3, 0.4]
    # Frame 1's answer came 1 ms after frame 2 was sent; frame 4 has no next send.
    answered = {0: 0.05, 1: 0.201, 2: 0.28, 4: 0.45}
    assert loadgen.lockstep_ratio(answered, sent) == pytest.approx(1 / 3)
    assert loadgen.lockstep_ratio({}, sent) == 0.0


def test_self_time_subtracts_the_union_of_children():
    def span(sid, parent, start, end):
        return {"id": sid, "name": f"s{sid}", "start": start, "end": end,
                "frame": 0, "parent": parent, "thread": "t", "counts": None}

    # Two children overlap (as pool threads do): they cover 1..5, not 2 + 3.
    got = spans.self_times([span(0, None, 0, 10), span(1, 0, 1, 3), span(2, 0, 2, 5)])
    assert got == {0: 6, 1: 2, 2: 3}


def test_child_is_reaped_when_the_run_fails(tmp_path):
    with pytest.raises(RuntimeError):
        with run.spawn(["serve", "--downsample", "4", "--result", str(tmp_path / "r.json")],
                       tmp_path / "log", stdout=subprocess.PIPE) as proc:
            raise RuntimeError("load generator failed")
    assert proc.returncode is not None
