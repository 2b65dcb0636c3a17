"""Run a command with its stdout discarded and require exit 0 below a peak RSS.

    python .github/peak_rss.py LIMIT_MB COMMAND [ARG...]

The peak is read with ``resource.getrusage(RUSAGE_CHILDREN)``, which covers
every waited-for descendant, so ``timeout`` may wrap the command.  Exits 1
when the command fails or its peak resident set reaches LIMIT_MB.
"""
import resource
import subprocess
import sys

limit, cmd = float(sys.argv[1]), sys.argv[2:]
code = subprocess.call(cmd, stdout=subprocess.DEVNULL)
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
print(f"{' '.join(cmd)}: exit {code}, peak RSS {peak:.0f} MB (limit {limit:.0f} MB)")
sys.exit(0 if code == 0 and peak < limit else 1)
