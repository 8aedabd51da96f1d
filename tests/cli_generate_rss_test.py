#!/usr/bin/env python3
"""`crf generate` of a 512-machine week stays under a peak-RSS budget.

Runs `crf generate --cell=a --machines=512 --days=7` (usage goes straight
into the mapped output file) at `--threads=1` and `--threads=4`, and reads
each child's peak resident set (`ru_maxrss`) from os.wait4. Every run must
stay at or under 120 MB. The trace itself is about 70 MB, so a generator
that holds a second copy of the usage samples (per-task row vectors or
unused per-task reservations next to the mapped file) fails. Exits 77 (skipped) where
os.wait4 or /proc is missing. Usage: cli_generate_rss_test.py <path to crf>.
"""

import os
import subprocess
import sys
import tempfile

BUDGET_MB = 120


def peak_rss_mb(argv):
    """Runs argv to completion; returns (exit status, stderr, peak RSS in MB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = proc.stderr.read().decode(errors="replace")
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is kilobytes on Linux.
    return proc.returncode, stderr, usage.ru_maxrss / 1024.0


def main():
    crf = sys.argv[1]
    if not hasattr(os, "wait4") or not os.path.isdir("/proc/self"):
        print("no os.wait4 or /proc; skipped")
        return 77
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "cell.crftrace")
        for threads in ["1", "4"]:
            args = ["generate", "--cell=a", "--machines=512", "--days=7",
                    "--threads=" + threads, "--out=" + out]
            status, stderr, peak = peak_rss_mb([crf] + args)
            print("%s: exit %d, peak %.1f MB" % (args[4], status, peak))
            if status != 0 or peak > BUDGET_MB:
                failures.append("%s: exit %d, peak %.1f MB (budget %d MB), stderr %r" %
                                (" ".join(args), status, peak, BUDGET_MB, stderr))
    for failure in failures:
        print(failure)
    print("%d failures" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
