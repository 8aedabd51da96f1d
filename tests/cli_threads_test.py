#!/usr/bin/env python3
"""`--threads=1` runs every stage of a command on one OS thread.

Runs `crf generate`, `crf simulate`, `crf serve` (local replay) and
`crf cluster` at `--threads=1`, each sized to run for about half a second or
more, and polls the `Threads:` line of /proc/<pid>/status while it runs. A
stage that falls back to the default thread pool shows up there: the pool's
workers live until the process exits. The count must never exceed 1. Exits
77 (skipped) where /proc/<pid>/status does not exist. Usage:
cli_threads_test.py <path to crf>.
"""

import os
import subprocess
import sys
import tempfile
import time


def peak_threads(argv):
    """Runs argv to completion; returns (exit status, stderr, peak threads, polls)."""
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    peak = 0
    polls = 0
    while proc.poll() is None:
        try:
            with open("/proc/%d/status" % proc.pid) as status:
                for line in status:
                    if line.startswith("Threads:"):
                        peak = max(peak, int(line.split()[1]))
                        polls += 1
        except OSError:
            pass  # The process exited between poll() and open().
        time.sleep(0.005)
    return proc.returncode, proc.stderr.read(), peak, polls


def main():
    crf = sys.argv[1]
    if not os.path.exists("/proc/%d/status" % os.getpid()):
        print("no /proc/<pid>/status; skipped")
        return 77
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        trace = os.path.join(scratch, "cell.crftrace")
        runs = [
            ["generate", "--cell=a", "--machines=512", "--days=2", "--out=" + trace],
            ["simulate", "--trace=" + trace],
            ["serve", "--replay=" + trace],
            ["cluster", "--machines=256", "--days=2"],
        ]
        for args in runs:
            argv = [crf] + args + ["--threads=1"]
            status, stderr, peak, polls = peak_threads(argv)
            print("%s: exit %d, peak %d threads over %d polls" % (args[0], status, peak, polls))
            if status != 0 or peak != 1 or polls == 0:
                failures.append("%s: exit %d, peak %d threads over %d polls, stderr %r" %
                                (" ".join(args), status, peak, polls, stderr))
    for failure in failures:
        print(failure)
    print("%d failures" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
