#!/usr/bin/env python3
"""Bad flag values and unwritable outputs are usage errors, not crashes.

Runs `crf generate` (heap and --stream), `crf simulate`, `crf serve`,
`crf loadgen` and `crf cluster` with each bad value of their numeric and
cell-synthesis flags, and requires exit status 2 with a message that names
the flag. Then runs `crf generate` (text, --binary and --stream) into a
directory that does not exist and requires exit status 2 with a message that
names the path; `crf serve` must reject such a --metrics-out or
--checkpoint-out before it replays anything (empty stdout). A directory
given where a checkpoint file is read (`crf checkpoint --file`, `crf serve
--resume`) must be rejected with exit status 2. Last, the removed placement
flags (`--placement-shards`, `--rebalance-interval`) must be unknown to
`crf generate` and `crf cluster`: exit status 2 naming the flag. Usage:
cli_flags_test.py <path to crf>.
"""

import os
import subprocess
import sys
import tempfile

CELL_FLAGS = {
    "cell": ["z", "cell_z", "cell_", "production_0", "production_6", "production_1x", ""],
    "machines": ["0", "-3", "abc", "", "1e9", "99999999999999999999"],
    "days": ["0", "-1", "0.001", "nan", "inf", "1e9", "abc", ""],
    "probes": ["-1", "abc", "", "1e9"],
    "seed": ["abc", "", "1.5", "99999999999999999999"],
}
HORIZON_FLAGS = {
    "horizon-hours": ["0", "-1", "0.01", "nan", "inf", "1e9", "abc", ""],
}
CHECKPOINT_FLAGS = {
    "checkpoint-at": ["abc", "", "-1", "1.5", "1e9", "99999999999"],
}
CLUSTER_FLAGS = {
    "machines": CELL_FLAGS["machines"],
    "days": CELL_FLAGS["days"],
    "seed": CELL_FLAGS["seed"],
}


def run(argv):
    return subprocess.run(argv, capture_output=True, text=True, timeout=60)


def main():
    crf = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "never_written.crftrace")
        cases = [
            (["generate", "--binary", "--out=" + out], CELL_FLAGS),
            (["generate", "--stream", "--out=" + out], CELL_FLAGS),
            (["simulate"], dict(CELL_FLAGS, **HORIZON_FLAGS)),
            (["serve", "--checkpoint-out=" + out], dict(HORIZON_FLAGS, **CHECKPOINT_FLAGS)),
            (["loadgen", "--connect=127.0.0.1:1"], HORIZON_FLAGS),
            (["cluster"], CLUSTER_FLAGS),
        ]
        for command, flags in cases:
            for flag, values in flags.items():
                for value in values:
                    argv = [crf] + command + ["--machines=2", "--days=1"]
                    argv.append("--%s=%s" % (flag, value))
                    result = run(argv)
                    if result.returncode != 2 or ("--" + flag) not in result.stderr:
                        failures.append("%s: exit %d, stderr %r" %
                                        (" ".join(argv[1:]), result.returncode, result.stderr))
                    if os.path.exists(out):
                        failures.append("%s: wrote %s" % (" ".join(argv[1:]), out))
                        os.remove(out)

        unwritable = os.path.join(scratch, "missing", "trace.crftrace")
        for mode in [[], ["--binary"], ["--stream"]]:
            argv = [crf, "generate", "--machines=2", "--days=1", "--out=" + unwritable] + mode
            result = run(argv)
            if result.returncode != 2 or unwritable not in result.stderr:
                failures.append("%s: exit %d, stderr %r" %
                                (" ".join(argv[1:]), result.returncode, result.stderr))
        for flag in ["metrics-out", "checkpoint-out"]:
            argv = [crf, "serve", "--machines=2", "--days=1", "--%s=%s" % (flag, unwritable)]
            result = run(argv)
            if result.returncode != 2 or result.stdout or ("--" + flag) not in result.stderr:
                failures.append("%s: exit %d, stdout %r, stderr %r" %
                                (" ".join(argv[1:]), result.returncode, result.stdout,
                                 result.stderr))

        for argv in [[crf, "checkpoint", "--file=" + scratch],
                     [crf, "serve", "--machines=2", "--days=1", "--resume=" + scratch]]:
            result = run(argv)
            if result.returncode != 2 or "not a regular file" not in result.stderr:
                failures.append("%s: exit %d, stderr %r" %
                                (" ".join(argv[1:]), result.returncode, result.stderr))

        for command in [["generate", "--binary", "--out=" + out], ["cluster"]]:
            for flag in ["placement-shards=4", "rebalance-interval=8"]:
                argv = [crf] + command + ["--machines=2", "--days=1", "--" + flag]
                result = run(argv)
                name = "--" + flag.split("=")[0]
                if result.returncode != 2 or ("unknown flag " + name) not in result.stderr:
                    failures.append("%s: exit %d, stderr %r" %
                                    (" ".join(argv[1:]), result.returncode, result.stderr))
                if os.path.exists(out):
                    failures.append("%s: wrote %s" % (" ".join(argv[1:]), out))
                    os.remove(out)
    for failure in failures:
        print(failure)
    print("%d failures" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
