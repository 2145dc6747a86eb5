"""Outside-in instrumentation of the conet package, for the traced run.

`SpanRecorder` rebinds each measured function in every `conet` module
namespace that holds it (``from .spaces import graded_quotient_report``
makes a second reference in `classify` and `cubics`, so patching
`conet.spaces` alone would miss those calls) and records one span per
call.  `OpCounter` counts Q(w) field operations in a separate pass, so
that wrapping the cheapest and most frequent calls does not distort the
span times.  Both restore the original bindings on exit.
"""

from __future__ import annotations

import statistics
import sys
import time


def _entries(args, _result):
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


def _hilbert_degrees(_args, result):
    return len(result.hilbert)


MEASURED = (
    "linalg.rank", "linalg.rref", "linalg.kernel_basis", "linalg.solve", "linalg.char_poly",
    "upoly.roots_in_qw",
    "forms.form_det3", "forms.eliminate",
    "spaces.graded_quotient_report", "spaces.support_count", "spaces.rank_one_report",
    "spaces.orthogonal_complement", "spaces.orbit_dimension", "spaces.rational_points",
    "cubics.aronhold", "cubics.classify_cubic", "cubics.jacobian_preimage",
    "classify.classify_net", "classify._net_label_and_gamma", "classify.classify_pencil",
    "deform.build_1r2", "deform._correct_relation", "deform.stabilized_length",
    "deform.affine_support_count", "deform.graded_hilbert",
    "deform.verify_smoothing_133", "deform.verify_deformation_1r2",
)

# the work a span records besides its time: metric suffix and measure
WORK = {
    "linalg.rank": ("entries", _entries),
    "linalg.rref": ("entries", _entries),
    "linalg.kernel_basis": ("entries", _entries),
    "linalg.solve": ("entries", _entries),
    "spaces.graded_quotient_report": ("degrees", _hilbert_degrees),
}

# the Scalar methods counted as one field operation each
SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
)


def rebind(original, replacement):
    """Point every `conet` module attribute bound to `original` at
    `replacement`; returns the list of patches for `restore`."""
    patches = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "conet" or modname.startswith("conet.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patches.append((module, attr, original))
    return patches


def restore(patches):
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


class SpanRecorder:
    """Context manager recording [name, start, end, parent index, work]
    for every call of the MEASURED functions."""

    def __init__(self):
        self.spans = []
        self.processes = []  # reports of child processes merged in
        self._stack = []
        self._patches = []

    def __enter__(self):
        for name in MEASURED:
            modname, fname = name.split(".")
            original = getattr(sys.modules["conet." + modname], fname)
            measure = WORK[name][1] if name in WORK else None
            self._patches += rebind(original, self._wrap(name, original, measure))
        return self

    def __exit__(self, *exc):
        restore(self._patches)
        self._patches = []
        return False

    def _wrap(self, name, func, measure):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = func(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure is not None:
                rec[4] = measure(args, result)
            return result

        wrapper.__wrapped__ = func
        return wrapper

    def merge(self, report):
        """Add the report of a child process, re-basing its span parents."""
        self.processes.append(report)
        base = len(self.spans)
        for name, start, end, parent, work in report["spans"]:
            self.spans.append([name, start, end, parent + base if parent >= 0 else -1, work])


class OpCounter:
    """Context manager counting calls of Scalar's arithmetic methods."""

    def __init__(self):
        self.ops = 0
        self._patches = []

    def __enter__(self):
        cls = sys.modules["conet.scalar"].Scalar
        for attr in SCALAR_OPS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(original))
            self._patches.append((cls, attr, original))
        return self

    def __exit__(self, *exc):
        restore(self._patches)
        self._patches = []
        return False

    def _wrap(self, func):
        def wrapper(a, b):
            self.ops += 1
            return func(a, b)

        return wrapper


def summarize(spans):
    """Per function: calls, busy_s (inclusive, outermost call of a
    recursion only), self_s (inclusive minus child spans) and work; plus
    the root-span time and the char_poly calls made inside support_count."""
    child = [0.0] * len(spans)
    for _name, start, end, parent, _work in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0} for name in MEASURED}
    root_s = 0.0
    support_draws = 0
    for i, (name, start, end, parent, work) in enumerate(spans):
        d = end - start
        row = out[name]
        row["calls"] += 1
        row["self_s"] += d - child[i]
        row["work"] += work
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            row["busy_s"] += d
        if not ancestors:
            root_s += d
        if name == "linalg.char_poly" and "spaces.support_count" in ancestors:
            support_draws += 1
    return out, root_s, support_draws


def cold_minus_warm(spans, name="cubics.aronhold"):
    """Duration of the first call of `name` minus the median of the later
    ones, or None with fewer than two calls."""
    ds = [end - start for n, start, end, _p, _w in spans if n == name]
    if len(ds) < 2:
        return None
    return ds[0] - statistics.median(ds[1:])
