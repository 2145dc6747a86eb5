"""The rows of the ROADMAP baseline, measured the way the ROADMAP measured
them: untransformed normal forms, warm in-process calls and single cold
CLI processes.  Each row is printed as measured and at the reference host
speed (hostspeed.py), like the workloads' metrics.  Compare with the
workload figures in README.md.

    python3 perfbench/baseline.py
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from hostspeed import HostSpeed
from run import HERE, ROOT, SRC

sys.path.insert(0, SRC)

import conet.classify as classify  # noqa: E402
import workloads  # noqa: E402


def _timed(speed, call, repeat, unit=1.0):
    """Median time of `repeat` calls, as measured and at the reference
    speed, in seconds times `unit`."""
    index = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        call()
        index.append(speed.add(time.perf_counter() - t0))
    return (statistics.median(speed.intervals[j] * unit for j in index),
            statistics.median(speed.scaled(j) * unit for j in index))


def _cold(speed, argv, repeat):
    env = dict(os.environ, PYTHONPATH=SRC)
    return _timed(speed, lambda: subprocess.run(
        [sys.executable, "-m", "conet.cli", *argv], env=env, cwd=ROOT,
        check=True, capture_output=True, timeout=170), repeat)


def main():
    workdir = os.path.join(HERE, ".work", f"baseline-{os.getpid()}")
    os.makedirs(workdir)
    rows = {}
    speed = HostSpeed()
    try:
        for label in ("8b", "8a"):
            net = workloads._system(workloads.NETS[label])
            path = os.path.join(workdir, f"{label}.json")
            with open(path, "w") as fh:
                json.dump(net.to_json(), fh)
            rows[f"cold classify net {label} (s)"] = _cold(speed, ["classify", "net", "--file", path], 3)
            classify.classify_net(net)
            rows[f"warm classify_net {label} (ms)"] = _timed(
                speed, lambda: classify.classify_net(net), 5, 1000.0)
        rows["cold verify onr2 --r 5 (s)"] = _cold(
            speed, ["verify", "onr2", "--r", "5", "--lambdas", "2,3", "--t", "1"], 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{'':32s} {'measured':>10s} {'reference':>10s}")
    for name, (measured, scaled) in rows.items():
        print(f"{name:32s} {measured:10.3f} {scaled:10.3f}")
    print(json.dumps(rows))


if __name__ == "__main__":
    main()
