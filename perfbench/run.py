#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run it.

    python3 perfbench/run.py --workload migrate --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Builds perfbench/main.exe with dune
(shared dune cache off, so nothing is written outside the checkout), then
runs it with the same arguments and exits with its code.  A failed build
exits nonzero without printing a result.

The benchmark runs with glibc's malloc told never to hand memory back to
the system (GLIBC_TUNABLES below).  Each workload instance grows
hundreds of MB of guest memory; by default every instance maps it afresh
and takes about 65k page faults, a quarter to two fifths of its run time
spent in the kernel at a cost that drifts with the host's memory state.
With the memory kept, only the first instance faults it in, and the
medians measure the simulator's own work.  peak_rss_mb still shows how
much memory a run needs.
"""

import os
import subprocess
import sys

# no allocation below 1 GiB is mmapped, and the heap top is never trimmed
KEEP_MEMORY = ("glibc.malloc.mmap_threshold=1073741824:"
               "glibc.malloc.trim_threshold=4294967296")


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = subprocess.run(
        ["dune", "build", "--root", root, "--cache=disabled", "--display=quiet",
         "./perfbench/main.exe"],
        cwd=root, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    exe = os.path.join(root, "_build", "default", "perfbench", "main.exe")
    env = dict(os.environ, GLIBC_TUNABLES=KEEP_MEMORY)
    sys.exit(subprocess.run([exe] + sys.argv[1:], cwd=root, env=env).returncode)


if __name__ == "__main__":
    main()
