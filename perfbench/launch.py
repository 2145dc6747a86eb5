"""Starts conet CLI processes one at a time on behalf of run.py.

Usage: python3 perfbench/launch.py, then one JSON argv list per line on
stdin; each answer is one JSON line on stdout with the exit code, the
output and the peak resident set of the largest process started so far.

A process started from a large one inherits the large one's resident set
in its own peak (Linux records it when the process calls exec), so the
CLI's peak is only its own when its parent is this small process.
"""

import json
import resource
import subprocess
import sys


def main():
    for line in sys.stdin:
        proc = subprocess.run(json.loads(line), capture_output=True, timeout=120)
        reply = {
            "code": proc.returncode,
            "stdout": proc.stdout.decode("latin-1"),
            "stderr": proc.stderr.decode("latin-1"),
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
