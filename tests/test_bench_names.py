"""The benchmark's span recorder looks up the functions it times by name;
a rename in the package must not break it silently.

The benchmark's own tests live under perfbench/ and are not collected by
the default test run, so this check runs here.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")


def test_every_measured_name_is_a_function_of_the_package():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name in spans.MEASURED:
        modname, fname = name.split(".")
        if not callable(getattr(importlib.import_module("conet." + modname), fname, None)):
            missing.append(name)
    assert spans.MEASURED and not missing
