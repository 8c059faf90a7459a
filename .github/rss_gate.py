"""Run `glcrystals verify ARGS...` in a child process and fail when it
fails or its peak RSS exceeds LIMIT_MB.

Usage: PYTHONPATH=src python .github/rss_gate.py LIMIT_MB ARGS...

Prints every line of the child's stdout except the PASS lines, its
stderr, and a summary line with the exit status and peak RSS.  Run one
gate per process, so that RUSAGE_CHILDREN sees the one child.
"""

import resource
import subprocess
import sys

limit, args = float(sys.argv[1]), sys.argv[2:]
cmd = [sys.executable, "-m", "glcrystals.cli", "verify", *args]
out = subprocess.run(cmd, capture_output=True, text=True)
print(*(line for line in out.stdout.splitlines()
        if not line.startswith("PASS ")), sep="\n")
print(out.stderr, end="")
# ru_maxrss of the waited-for child, in KiB on Linux
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"verify {' '.join(args)}: exit {out.returncode}, "
      f"peak RSS {peak:.1f} MB")
sys.exit(out.returncode != 0 or peak > limit)
