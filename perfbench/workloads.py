"""The three workloads: seeded inputs, one-time warm-up, and the expected
answer of every item.

Nets are normal forms from the paper, moved by invertible coordinate
changes with entries a + b*w (a, b in {-1, 0, 1}).  Labels, duals, orbit
dimensions, scheme lengths and Aronhold keys do not change under a
coordinate change, so the expected answer of a transformed net is the
answer of its normal form, tabulated below.  An item that raises or
answers wrongly is counted as failed; no input is ever re-drawn or
filtered on its result.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import conet.classify as classify
import conet.cubics as cubics
import conet.deform as deform
import conet.spaces as spaces
from conet.forms import parse_form
from conet.scalar import Scalar

import spans as spanlib

# --------------------------------------------------------------------------
# normal forms and their answers
# --------------------------------------------------------------------------

NETS = {
    "8a": ("X*Y", "X^2+Y*Z", "Y^2+X*Z"),
    "8b": ("X^2+Y*Z", "Y^2+X*Z", "Z^2+X*Y"),
    "8c": ("Z^2", "X^2-Y*Z", "Y^2-X*Z"),
    "7a": ("X^2+Y*Z", "X*Y", "X*Z"),
    "7b": ("X*Y", "X^2+Y*Z", "Z^2"),
    "7c": ("X^2", "Y^2", "X*Y+Z^2"),
    "6a": ("X*Y", "X*Z", "Y*Z"),
    "6b": ("X*Y", "X^2", "Z^2+Y*Z"),
    "6c": ("X*Y", "X^2+Y*Z", "X^2+Y^2"),
    "6d": ("X^2", "Y^2", "Z^2"),
    "5a": ("X*Y", "X*Z", "Z^2"),
    "5b": ("Y^2", "X*Y", "Z^2"),
    "4": ("Y^2", "X*Y", "Y*Z-X^2"),
    "2a": ("X^2", "X*Y", "X*Z"),
    "2b": ("X^2", "Y^2", "(X+Y)^2"),
}

# label: (gamma, delta_support, orbit_dim, scheme_length, dual, preimage_dim)
NET_ANSWERS = {
    "8a": ("Node", 0, 8, 1, "8c", 1),
    "8b": ("Smooth", 0, 8, 0, "8b", 1),
    "8c": ("Node", 1, 8, 0, "8a", 1),
    "7a": ("ConicSecant", 0, 7, 2, "7c", 1),
    "7b": ("Cusp", 1, 7, 1, "7b", 1),
    "7c": ("ConicSecant", 2, 7, 0, "7a", 2),
    "6a": ("Triangle", 0, 6, 3, "6d", 1),
    "6b": ("ConicTangent", 1, 6, 2, "6c", 2),
    "6c": ("DoubleLinePlusLine", 2, 6, 2, "6b", 2),
    "6d": ("Triangle", 3, 6, 0, "6a", 3),
    "5a": ("DoubleLinePlusLine", 1, 5, 3, "5b", 2),
    "5b": ("DoubleLinePlusLine", 2, 5, 2, "5a", 3),
    "4": ("TripleLine", 1, 4, 3, "4", 3),
    "2a": ("Zero", 1, 2, "infinite", "2b", 3),
    "2b": ("Zero", "dim1", 2, 3, "2a", 4),
}

# the projective invariant (S^3 : T^2) of the Hesse net at lambda = 1
KEY_8B = ["1", "-584064/343"]


def net_answer(label):
    gamma, delta, dim, length, dual, pre = NET_ANSWERS[label]
    out = {
        "orbit": label,
        "gamma": gamma,
        "delta_support": delta,
        "orbit_dim": dim,
        "scheme_length": length,
        "dual": dual,
        "preimage_dim": pre,
    }
    if label == "8b":
        out["key"] = KEY_8B
    return out


# the CLI's cubic and pencil inputs: Fermat (smooth), nodal, pencil type a
CUBICS = {
    "X^3+Y^3+Z^3": {"kind": "Smooth", "key": ["0", "1"]},
    "X^3+Y^3+X*Y*Z": {"kind": "Node"},
}
PENCIL_A = ("X^2-Z^2", "Y^2-Z^2")

# --------------------------------------------------------------------------
# seeded inputs
# --------------------------------------------------------------------------


def _zw_mul(x, y):
    """Product in Z[w] of integer pairs (p, q) = p + q*w, with w^2 = -1 - w."""
    p, q = x
    r, s = y
    qs = q * s
    return (p * r - qs, p * s + q * r - qs)


def _zw_det3(m):
    def minor(i, j, k, l):
        a, b = _zw_mul(m[1][i], m[2][j]), _zw_mul(m[1][k], m[2][l])
        return (a[0] - b[0], a[1] - b[1])

    terms = [
        _zw_mul(m[0][0], minor(1, 2, 2, 1)),
        _zw_mul(m[0][1], minor(0, 2, 2, 0)),
        _zw_mul(m[0][2], minor(0, 1, 1, 0)),
    ]
    return (terms[0][0] - terms[1][0] + terms[2][0], terms[0][1] - terms[1][1] + terms[2][1])


def coordinate_change(rng):
    """An invertible 3x3 matrix with entries a + b*w, a, b in {-1, 0, 1};
    invertibility is checked without conet."""
    while True:
        m = [[(rng.randint(-1, 1), rng.randint(-1, 1)) for _ in range(3)] for _ in range(3)]
        if _zw_det3(m) != (0, 0):
            return [[Scalar(a, b) for a, b in row] for row in m]


# nonzero a + b*w with a, b in {-2, ..., 2}
DEFORM_VALUES = [(a, b) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)]
# lambda^3 = -1 exactly at lambda in {-1, -w, -w^2 = 1 + w}
_CUBE_ROOTS_OF_MINUS_ONE = {(-1, 0), (0, -1), (1, 1)}


def smoothing_parameters(rng):
    """(lambda, t) with lambda^3 != -1 and lambda, t nonzero."""
    lam = rng.choice([v for v in DEFORM_VALUES if v not in _CUBE_ROOTS_OF_MINUS_ONE])
    t = rng.choice(DEFORM_VALUES)
    return Scalar(*lam), Scalar(*t)


POOL_SEED = 2110


class Pool:
    """`size` inputs per kind, drawn once from a generator seeded with
    POOL_SEED and the kind, so the same inputs are measured on every
    commit.  `pick` hands each out once per round of `size` picks, in an
    order drawn from the run's generator."""

    def __init__(self, size):
        self.size = size
        self._inputs = {}
        self._order = {}

    def pick(self, kind, make, rng):
        if kind not in self._inputs:
            draw = random.Random(f"{POOL_SEED}:{kind}")
            self._inputs[kind] = [make(draw) for _ in range(self.size)]
        order = self._order.setdefault(kind, [])
        if not order:
            order.extend(range(self.size))
            rng.shuffle(order)
        return self._inputs[kind][order.pop()]


# --------------------------------------------------------------------------
# items and workloads
# --------------------------------------------------------------------------


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _system(strings):
    return spaces.LinearSystem([parse_form(s) for s in strings])


def _warm(items):
    for item in items:
        if not item.check(item.run()):
            raise RuntimeError(f"warm-up answer for {item.kind} is wrong")


class InProcess:
    """A workload whose items are calls into conet in this process, with
    pooled inputs: `cycle` returns the next items, and every round of
    `round_cycles` cycles sends each pooled input once.

    One input's cost varies with the draw (up to thirty-fold for a net
    under different coordinate changes, from coefficient growth in
    elimination), so fresh draws per run would make the run-to-run spread
    a property of the seed."""

    def __init__(self):
        self.pool = Pool(self.round_cycles)

    def close(self):
        pass

    @staticmethod
    def peak_rss_kb():
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    @contextlib.contextmanager
    def tracing(self, recorder):
        with recorder:
            yield

    counting = tracing


class NetOrbits(InProcess):
    """classify_net on the 15 corpus orbits, round-robin, each under one of
    its two pooled coordinate changes."""

    round_cycles = 2
    tail_percentile = 90

    @staticmethod
    def _item(label, net):
        def run():
            return classify.classify_net(net).to_json()

        return Item(f"net:{label}", run, lambda out: out == net_answer(label))

    def warm_up(self):
        # the S/T derivation (8b) and the sympy import (the dual of 8a)
        _warm([self._item(label, _system(NETS[label])) for label in ("8b", "8a")])

    def cycle(self, rng, tiny):
        def transformed(label):
            return lambda draw: _system(NETS[label]).substitute(coordinate_change(draw))

        labels = list(NETS)[: 3 if tiny else None]
        return [self._item(l, self.pool.pick(l, transformed(l), rng)) for l in labels]


class Deform(InProcess):
    """verify_smoothing_133 at a pooled (lambda, t), then
    verify_deformation_1r2 at r = 4 and r = 5 with pooled distinct nonzero
    lambdas and t = 1; three of each in the pool."""

    round_cycles = 3
    tail_percentile = 60

    def __init__(self):
        super().__init__()
        # verify_deformation_1r2 returns no syzygy count; keep the one its
        # build_1r2 call computes so that every item can be checked
        original = deform.build_1r2
        self._built = {}

        def keep(r, lambdas):
            self._built = original(r, lambdas)
            return self._built

        self._patches = spanlib.rebind(original, keep)

    def close(self):
        spanlib.restore(self._patches)

    @staticmethod
    def _smoothing_item(lam, t):
        def run():
            return deform.verify_smoothing_133(lam, t)

        return Item("smoothing", run, lambda out: out["pass"] and all(c["pass"] for c in out["clauses"]))

    def _onr2_item(self, r, lambdas):
        def run():
            self._built = {}
            report = deform.verify_deformation_1r2(r, lambdas, Scalar(1))
            return report, self._built.get("syzygy_dim"), self._built.get("syzygy_formula")

        def check(out):
            report, dim, formula = out
            ok = report["pass"] and all(c["pass"] for c in report["clauses"])
            return ok and dim is not None and dim == formula

        return Item(f"onr2:r={r}", run, check)

    def warm_up(self):
        _warm([self._smoothing_item(Scalar(1), Scalar(1))])

    def cycle(self, rng, tiny):
        def lambdas(r):
            return lambda draw: [Scalar(*v) for v in draw.sample(DEFORM_VALUES, r - 3)]

        items = [self._smoothing_item(*self.pool.pick("smoothing", smoothing_parameters, rng))]
        for r in (4,) if tiny else (4, 5):
            items.append(self._onr2_item(r, self.pool.pick(f"onr2:{r}", lambdas(r), rng)))
        return items


class CliCold:
    """One fresh `python -m conet.cli` process at a time: classify net on
    each corpus file, classify cubic on a smooth and a nodal cubic,
    classify pencil, and verify smoothing; each cycle in a seeded order.
    The processes are started by launch.py, so that their peak resident
    set is their own."""

    tail_percentile = 80
    round_cycles = 1
    COMMANDS = (
        [("net", label) for label in NETS]
        + [("cubic", text) for text in CUBICS]
        + [("pencil", "a"), ("smoothing", None)]
    )

    def __init__(self, root, workdir):
        self.root = root
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.prefix = [sys.executable, "-m", "conet.cli"]
        self.on_report = None
        self._argv = {}
        self._expected = {}
        self._launcher = None
        self._peak_rss_kb = 0

    def warm_up(self):
        """Write the input files and compute each command's expected stdout
        in this process (checked against the tables above).  This is the
        checker's preparation, not the system's set-up, so it is untimed."""
        os.makedirs(self.workdir, exist_ok=True)
        for i, (kind, name) in enumerate(self.COMMANDS):
            path = os.path.join(self.workdir, f"input_{i}.json")
            if kind == "net":
                net = _system(NETS[name])
                payload = net.to_json()
                argv = ["classify", "net", "--file", path]
                result = classify.classify_net(net).to_json()
                ok = result == net_answer(name)
            elif kind == "cubic":
                form = parse_form(name)
                payload = form.to_json()
                argv = ["classify", "cubic", "--file", path]
                result = cubics.classify_cubic(form).to_json()
                ok = result == CUBICS[name]
            elif kind == "pencil":
                pencil = _system(PENCIL_A)
                payload = pencil.to_json()
                argv = ["classify", "pencil", "--file", path]
                result = {"orbit": classify.classify_pencil(pencil)}
                ok = result == {"orbit": name}
            else:
                payload = None
                argv = ["verify", "smoothing", "--lambda", "1", "--t", "1"]
                result = deform.verify_smoothing_133(Scalar(1), Scalar(1))
                ok = result["pass"]
            if not ok:
                raise RuntimeError(f"in-process answer for {kind} {name} is wrong")
            if payload is not None:
                with open(path, "w") as fh:
                    json.dump(payload, fh)
            key = (kind, name)
            self._argv[key] = argv
            self._expected[key] = (json.dumps(result, sort_keys=True) + "\n").encode()
        launch = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
        self._launcher = subprocess.Popen(
            [sys.executable, launch], env=self.env, cwd=self.root,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        # one process so that later ones find compiled bytecode
        _warm([self._item(self.COMMANDS[0])])

    def close(self):
        if self._launcher is not None:
            self._launcher.stdin.close()
            try:
                self._launcher.wait(timeout=150)
            finally:
                if self._launcher.poll() is None:
                    self._launcher.kill()
                    self._launcher.wait()

    def peak_rss_kb(self):
        return self._peak_rss_kb

    def _item(self, key):
        def run():
            self._launcher.stdin.write(json.dumps(self.prefix + self._argv[key]) + "\n")
            self._launcher.stdin.flush()
            reply = json.loads(self._launcher.stdout.readline())
            self._peak_rss_kb = reply["peak_rss_kb"]
            return reply["code"], reply["stdout"].encode("latin-1"), reply["stderr"].encode("latin-1")

        def check(out):
            code, stdout, stderr = out
            if self.on_report is not None:
                self.on_report(json.loads(stderr.decode().splitlines()[-1]))
            return code == 0 and stdout == self._expected[key]

        kind, name = key
        return Item(f"cli:{kind}:{name}", run, check)

    def cycle(self, rng, tiny):
        keys = list(self.COMMANDS)
        rng.shuffle(keys)
        return [self._item(k) for k in keys[: 3 if tiny else None]]

    @contextlib.contextmanager
    def _child(self, mode, on_report):
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
        self.prefix, self.on_report = [sys.executable, child, mode], on_report
        try:
            yield
        finally:
            self.prefix, self.on_report = [sys.executable, "-m", "conet.cli"], None

    def tracing(self, recorder):
        return self._child("spans", recorder.merge)

    def counting(self, counter):
        def on_report(report):
            counter.ops += report["ops"]

        return self._child("ops", on_report)


def make(name, root, workdir):
    if name == "net-orbits":
        return NetOrbits()
    if name == "deform":
        return Deform()
    if name == "cli-cold":
        return CliCold(root, workdir)
    raise ValueError(f"unknown workload {name!r}")
