"""Runs the cli workload's commands from a small process.

A child's ru_maxrss includes the resident set of the process that spawned
it, so commands spawned straight from the benchmark would report the
benchmark's memory.  This launcher stays small: it reads one JSON argv per
line on stdin, runs it, and answers ``[returncode, stdout, stderr]`` on one
line.  At end of input it prints its children's peak RSS in KiB and exits.
"""

import json
import resource
import subprocess
import sys

for line in sys.stdin:
    argv = json.loads(line)
    try:
        p = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        reply = [p.returncode, p.stdout, p.stderr]
    except subprocess.TimeoutExpired:
        reply = [-1, "", "timed out after 120 s"]
    sys.stdout.write(json.dumps(reply) + "\n")
    sys.stdout.flush()
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
