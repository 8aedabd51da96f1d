#!/usr/bin/env python3
"""Bad cell-synthesis flag values are usage errors, not crashes.

Runs `crf generate` (heap and --stream) and `crf simulate` with each bad
value of --cell, --machines, --days, --probes and --seed, and requires exit
status 2 with a message that names the flag. Usage: cli_flags_test.py <path to crf>.
"""

import os
import subprocess
import sys
import tempfile

BAD_VALUES = {
    "cell": ["z", "cell_z", "cell_", "production_0", "production_6", "production_1x", ""],
    "machines": ["0", "-3", "abc", "", "1e9", "99999999999999999999"],
    "days": ["0", "-1", "0.001", "nan", "inf", "1e9", "abc", ""],
    "probes": ["-1", "abc", "", "1e9"],
    "seed": ["abc", "", "1.5", "99999999999999999999"],
}


def main():
    crf = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "never_written.crftrace")
        commands = [
            ["generate", "--binary", "--out=" + out],
            ["generate", "--stream", "--out=" + out],
            ["simulate"],
        ]
        for flag, values in BAD_VALUES.items():
            for value in values:
                for command in commands:
                    argv = [crf] + command + ["--machines=2", "--days=1"]
                    argv.append("--%s=%s" % (flag, value))
                    run = subprocess.run(argv, capture_output=True, text=True, timeout=60)
                    if run.returncode != 2 or ("--" + flag) not in run.stderr:
                        failures.append("%s: exit %d, stderr %r" %
                                        (" ".join(argv[1:]), run.returncode, run.stderr))
                    if os.path.exists(out):
                        failures.append("%s: wrote %s" % (" ".join(argv[1:]), out))
                        os.remove(out)
    for failure in failures:
        print(failure)
    print("%d failures" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
