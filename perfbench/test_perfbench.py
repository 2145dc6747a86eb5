"""Smoke test of the benchmark itself, at its tiny size.

    python3 -m pytest perfbench -q

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is emitted with its unit, that spans are well-nested and that rebinding
reaches every module that imported a measured function.
"""

import json
import os
import random
import shutil
import statistics
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def well_nested(recorded):
    """True when every span lies inside its parent and siblings do not
    overlap (spans are stored in start order)."""
    last_end = {}
    for i, (_name, start, end, parent, _work) in enumerate(recorded):
        if end < start:
            return False
        if parent >= 0:
            p = recorded[parent]
            if parent >= i or start < p[1] or end > p[2]:
                return False
        if start < last_end.get(parent, float("-inf")):
            return False
        last_end[parent] = end
    return True


def _result(*argv, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *argv],
        cwd=root, capture_output=True, timeout=170,
    )
    return proc.returncode, proc.stdout.decode().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(workload, trace):
    code, lines = _result("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", str(trace), "--tiny")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in named}
    stamp = json.loads(next(l for l in lines if l.startswith("stamp "))[6:])
    assert stamp["seed"] == 3 and sum(stamp["items"].values()) == result["attempted"]


def test_spans_are_well_nested_and_bindings_restored():
    import conet.classify as classify
    import conet.spaces as spaces
    import workloads

    original = spaces.graded_quotient_report
    items = workloads.NetOrbits().cycle(random.Random(0), tiny=True)
    with spans.SpanRecorder() as recorder:
        assert classify.graded_quotient_report is not original
        for item in items:
            assert item.check(item.run())
    assert classify.graded_quotient_report is original
    assert well_nested(recorder.spans)
    names = {s[0] for s in recorder.spans}
    parents = {recorder.spans[s[3]][0] for s in recorder.spans if s[0] == "spaces.graded_quotient_report"}
    assert {"classify.classify_net", "linalg.rank", "cubics.aronhold"} <= names
    assert "classify.classify_net" in parents  # reached through classify's own import
    per_fn, root_s, _draws = spans.summarize(recorder.spans)
    assert sum(row["self_s"] for row in per_fn.values()) == pytest.approx(root_s)


def test_well_nested_rejects_overlap():
    assert well_nested([["a", 0.0, 2.0, -1, 0], ["b", 0.5, 1.0, 0, 0]])
    assert not well_nested([["a", 0.0, 2.0, -1, 0], ["b", 1.5, 2.5, 0, 0]])
    assert not well_nested([["a", 0.0, 2.0, -1, 0], ["b", 1.0, 3.0, -1, 0]])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100, 95) == 90
    assert run.tail_percentile(1000, 95) == 95
    assert run.tail_percentile(5, 95) == 100


def test_host_speed_scales_by_the_probes_around_an_interval():
    speed = hostspeed.HostSpeed()
    first = speed.add(1.0)
    assert len(speed.probes) == 2
    medians = [statistics.median(speed.probes[0][k] + speed.probes[1][k]) for k in (0, 1)]
    r = (medians[0] * medians[1]) ** 0.5
    assert speed.scaled(first) == pytest.approx(hostspeed.REFERENCE_S / r)
    second = speed.add(2.0)
    assert speed.speed(first) != r  # the next interval's probe joins the window
    assert speed.scaled(second) == pytest.approx(2 * hostspeed.REFERENCE_S / speed.speed(second))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    code, lines = _result("--workload", "net-orbits", "--seed", "1", "--seconds", "1",
                          "--trace", "0", root=tmp_path)
    assert code != 0 and not lines
