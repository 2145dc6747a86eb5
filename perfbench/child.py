"""One conet CLI process under the span recorder or the op counter.

Usage: python3 perfbench/child.py spans|ops CLI-ARGS...

The CLI writes its own stdout unchanged; one JSON report follows as the
last line of stderr.  The traced cli-cold run starts this in place of
`python -m conet.cli`.
"""

import json
import sys
import time


def main():
    mode, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import conet.cli

    import_s = time.perf_counter() - t0
    import spans

    if mode == "spans":
        recorder = spans.SpanRecorder()
        with recorder:
            code = conet.cli.main(argv)
        report = {
            "spans": recorder.spans,
            "import_s": import_s,
            "sympy": "sympy" in sys.modules,
            "invariant_setup_s": spans.cold_minus_warm(recorder.spans),
        }
    else:
        counter = spans.OpCounter()
        with counter:
            code = conet.cli.main(argv)
        report = {"ops": counter.ops}
    sys.stdout.flush()
    sys.stderr.write(json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
