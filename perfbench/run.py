"""conet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this fresh process, as a closed loop with one client:
the next input is sent only after the previous answer is back, and every
answer is checked.  --trace 0 reports the end-to-end metrics; --trace 1
runs the same inputs untraced and traced in turn and reports the
per-layer metrics.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("net-orbits", "deform", "cli-cold")
SETUP_SAMPLES = 5  # fresh processes whose set-up time gives the setup_s median


def _parser():
    p = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0, help="service time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test size: one short cycle of items, two set-ups")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p


class Client:
    """Sends one item at a time and checks each answer."""

    def __init__(self):
        self.log = []  # (kind, seconds) per item, in order
        self.failed = 0

    @property
    def latencies(self):
        return [dt for _kind, dt in self.log]

    def send(self, item):
        err = None
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # a failing item is counted, never retried
            err = exc
        dt = time.perf_counter() - t0
        if err is None:
            try:
                ok = bool(item.check(out))
            except Exception as exc:
                err = exc
        if err is not None:
            ok = False
            print(f"perfbench: {item.kind} raised {type(err).__name__}: {err}", file=sys.stderr)
        elif not ok:
            print(f"perfbench: {item.kind} answered wrongly", file=sys.stderr)
        self.log.append((item.kind, dt))
        self.failed += not ok
        return dt

    def serve(self, items):
        return sum(self.send(item) for item in items)


def tail_percentile(n, cap):
    """The highest percentile, at most `cap`, with ten samples beyond it;
    100 (the maximum) when there are too few samples for that."""
    if n <= 10:
        return 100
    return min(cap, math.floor(100 * (n - 10) / n))


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def _commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def _stamp(args, log):
    try:
        sympy_version = metadata.version("sympy")
    except metadata.PackageNotFoundError:
        sympy_version = "absent"
    return {
        "python": platform.python_version(),
        "sympy": sympy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items": dict(sorted(Counter(kind for kind, _dt in log).items())),
    }


def _setup_samples(args, setup_main, speed):
    """Set-up times of fresh processes, raw and at the reference host
    speed, and the wall time of each process this starts.

    In-process workloads: this process's import and warm-up, plus fresh
    `run.py --setup-only` processes doing the same; each scales its own.
    cli-cold: the wall time of fresh processes that import the CLI, which
    every command pays first, scaled by `speed`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    count = 2 if args.tiny else SETUP_SAMPLES
    cli = args.workload == "cli-cold"
    if cli:
        cmd = [sys.executable, "-c", "import conet.cli"]
        raw, scaled = [], []
    else:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        count -= 1
        raw, scaled = [setup_main[0]], [setup_main[1]]
    walls = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, check=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if cli:
            raw.append(walls[-1])
            scaled.append(speed.add(walls[-1]))
        else:
            reported = json.loads(proc.stdout.decode().splitlines()[-1])
            raw.append(reported["setup_s"])
            scaled.append(reported["setup_ref_s"])
    if cli:
        scaled = [speed.scaled(j) for j in scaled]
    return raw, scaled, walls


def _untraced(wl, rng, args, setup_main, speed):
    """The closed loop.  Every time is taken as measured and at the
    reference host speed (hostspeed.py); the metrics are the latter."""
    client = Client()
    lat = []  # items' indices in `speed`, then their latencies at the reference speed
    busy = 0.0
    # a round sends every pooled input once, so the complete rounds have the
    # same mix of inputs on every run; the metrics are taken over them
    rounds, cycles, complete = 0, 0, 0
    while busy < args.seconds:
        for item in wl.cycle(rng, args.tiny):
            dt = client.send(item)
            lat.append(speed.add(dt))
            busy += dt
            if busy >= args.seconds and not args.tiny:
                break
        else:
            cycles += 1
            if cycles % wl.round_cycles == 0:
                rounds, complete = rounds + 1, len(lat)
        if args.tiny:
            break
    setups = _setup_samples(args, setup_main, speed)[:2]
    lat = [speed.scaled(j) for j in lat]
    counted = complete or len(lat)
    tail = tail_percentile(counted, wl.tail_percentile)

    def timings(latencies, setup):
        latencies = latencies[:counted]
        return {
            "setup_s": statistics.median(setup),
            "items_per_s": counted / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1000,
            "latency_tail_ms": percentile(latencies, tail) * 1000,
        }

    measured = timings(client.latencies, setups[0])
    units = {"setup_s": "s", "items_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    metrics = {k: (v, units[k]) for k, v in timings(lat, setups[1]).items()}
    metrics["peak_rss_mb"] = (wl.peak_rss_kb() / 1024, "MB")
    notes = [
        f"latencies and items_per_s are over n={counted} items, "
        + (f"those of the {rounds} complete rounds" if complete else "all (no complete round)"),
        f"latency_tail_ms is p{tail}",
        f"setup_s is the median of {len(setups[0])} set-ups",
        f"times are at the reference host speed, r = {hostspeed.REFERENCE_S * 1000:g} ms; "
        f"here r had a median {speed.median_speed() * 1000:.4g} ms",
        "as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()),
    ]
    return client, metrics, notes


def _traced(wl, rng, args, import_s, warm, setup_main):
    import spans as spanlib

    items = [item for _ in range(wl.round_cycles) for item in wl.cycle(rng, args.tiny)]
    client = Client()
    plain, traced, passes, reports, plain_latencies = [], [], [], [], []
    first_spans = None
    start = time.perf_counter()
    while True:
        # alternate the order (ABBA) so that drift does not bias the overhead
        recorder = spanlib.SpanRecorder()
        for traced_pass in (True, False) if len(passes) % 2 else (False, True):
            if traced_pass:
                with wl.tracing(recorder):
                    traced.append(client.serve(items))
            else:
                plain.append(client.serve(items))
                plain_latencies += client.latencies[-len(items):]
        passes.append(spanlib.summarize(recorder.spans))
        reports += recorder.processes
        if first_spans is None:
            first_spans = recorder.spans
        if args.tiny or time.perf_counter() - start >= args.seconds:
            break
    counter = spanlib.OpCounter()
    with wl.counting(counter):
        client.serve(items)

    def med(get):
        return statistics.median(get(p) for p in passes)

    metrics = {}
    for name in spanlib.MEASURED:
        metrics[f"{name}.calls"] = (med(lambda p: p[0][name]["calls"]), "count")
        metrics[f"{name}.busy_s"] = (med(lambda p: p[0][name]["busy_s"]), "s")
        metrics[f"{name}.self_s"] = (med(lambda p: p[0][name]["self_s"]), "s")
    for name, (suffix, _measure) in spanlib.WORK.items():
        metrics[f"{name}.{suffix}"] = (med(lambda p: p[0][name]["work"]), "count")
    support_calls = metrics["spaces.support_count.calls"][0]
    draws = med(lambda p: p[2])
    metrics["spaces.support_count.draws_per_call"] = (
        draws / support_calls if support_calls else 0.0, "count")
    metrics["scalar.ops"] = (counter.ops, "count")
    if args.workload == "cli-cold":
        cold = [r["invariant_setup_s"] for r in reports if r["invariant_setup_s"] is not None]
        import_s = statistics.median(r["import_s"] for r in reports)
        process_s = statistics.median(plain_latencies)
        sympy_frac = sum(r["sympy"] for r in reports) / len(reports)
    else:
        first = spanlib.cold_minus_warm(warm.spans + first_spans)
        cold = [] if first is None else [first]
        process_s = statistics.median(_setup_samples(args, setup_main, hostspeed.HostSpeed())[2])
        sympy_frac = float("sympy" in sys.modules)
    metrics["cubics.invariant_setup_s"] = (statistics.median(cold) if cold else 0.0, "s")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.process_s"] = (process_s, "s")
    metrics["cli.sympy_loaded_frac"] = (sympy_frac, "frac")
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(plain) - 1, "frac")
    metrics["trace.self_coverage_frac"] = (
        statistics.median(p[1] / t for p, t in zip(passes, traced)), "frac")
    notes = [
        f"{len(passes)} untraced and {len(passes)} traced passes over {len(items)} items, "
        "then one counting pass",
        f"span time covers {metrics['trace.self_coverage_frac'][0]:.1%} of the traced passes",
    ]
    return client, metrics, notes


def _run(args, workdir):
    speed = hostspeed.HostSpeed()
    t0 = time.perf_counter()
    import spans as spanlib
    import workloads

    import_s = time.perf_counter() - t0
    wl = workloads.make(args.workload, ROOT, workdir)
    try:
        warm = spanlib.SpanRecorder() if args.trace else contextlib.nullcontext()
        with warm:
            wl.warm_up()
        setup_main = time.perf_counter() - t0
        setup_main = (setup_main, speed.scaled(speed.add(setup_main)))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main[0], "setup_ref_s": setup_main[1]}))
            return 0
        rng = random.Random(args.seed)
        if args.trace:
            client, metrics, notes = _traced(wl, rng, args, import_s, warm, setup_main)
        else:
            client, metrics, notes = _untraced(wl, rng, args, setup_main, speed)
    finally:
        wl.close()
    attempted, failed = len(client.log), client.failed
    notes.append(f"failed_frac {failed}/{attempted} = {failed / attempted:.4g}")
    stamp = _stamp(args, client.log)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:>14.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    print("stamp " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = _parser().parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "conet", "__init__.py")):
        print(f"perfbench: no conet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


if __name__ == "__main__":
    sys.exit(main())
