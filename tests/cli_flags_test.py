#!/usr/bin/env python3
"""Every flag of every subcommand is checked before any work.

First a matrix read from the usage text `crf` prints with no arguments, so a
new flag is covered without editing this test. Every numeric flag of every
subcommand runs against {0, -1, nan, inf, 1e9, 2^63, garbage, empty}: each
run must exit 0, or exit 2 naming the flag, or fail exactly as the same
command without the flag does (loadgen has no server to reach); never a
signal. Every bool flag given a value, every other flag given an empty value
or none, and every output flag pointed into a directory that does not exist
must exit 2 naming the flag before any output. A typo must be rejected
before a 512-machine week is synthesized, `crf serve` must not take --trace
(it reads --replay), and `crf generate --rich=1` must be rejected even where
the usage text cannot be read.

Then fixed probes: `crf generate`, `crf simulate`, `crf serve`, `crf loadgen`
and `crf cluster` with each bad value of their numeric and cell-synthesis
flags must exit 2 with a message that names the flag; `crf generate` into a
directory that does not exist must exit 2 with a message that names the
path; `crf serve` must reject such a --metrics-out or --checkpoint-out
before it replays anything (empty stdout). A directory given where a checkpoint file is read (`crf
checkpoint --file`, `crf serve --resume`) must be rejected with exit status
2. The removed placement flags (`--placement-shards`,
`--rebalance-interval`) must be unknown to `crf generate` and `crf cluster`,
and the removed output flags (`--binary`, `--stream`, `generate --trace`)
unknown to `crf generate` and `crf convert`: exit status 2 naming the flag.
`crf convert --mmap` exporting a trace over its own file must exit 0 and
leave the whole text export there. `crf cluster` runs that place no task (one
interval on four machines; two intervals on one machine) must exit 0 with no
CHECK on stderr: a metric with no samples prints as n/a.

Every input-file flag the usage text lists (traces: --trace, --replay;
checkpoints: --resume, --file) given a missing file, a garbage file, a text
trace export, or a file of the other kind (wrong magic) must exit 2 naming
the flag within 0.1 s, before a 256-machine cell is synthesized; a trace flag
given a text export must also say that text is export-only. Last, `crf serve
--metrics-out` must write the file on every exit: a finished replay, a
`--stop-after-checkpoint` cut, and a local replay stopped by SIGINT.
Usage: cli_flags_test.py <path to crf>.
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

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
    "cell": CELL_FLAGS["cell"],
    "machines": CELL_FLAGS["machines"],
    "days": CELL_FLAGS["days"],
    "seed": CELL_FLAGS["seed"],
}
NUMERIC_VALUES = ["0", "-1", "nan", "inf", "1e9", str(2**63), "garbage", ""]
TRACE_INPUTS = ["trace", "replay"]
CHECKPOINT_INPUTS = ["resume", "file"]
INPUT_DEADLINE_S = 0.1
NUMERIC_METAVARS = ["INT", "NUMBER"]


def run(argv):
    return subprocess.run(argv, capture_output=True, text=True, timeout=60)


def describe(argv, result):
    return "%s: exit %d, stdout %r, stderr %r" % (" ".join(argv[1:]), result.returncode,
                                                  result.stdout, result.stderr)


def without(args, flag):
    return [arg for arg in args if arg.split("=")[0] != "--" + flag]


def read_usage(crf):
    """Returns {command: {flag: metavar}} from the usage text ("" for a bool)."""
    commands = {}
    for line in run([crf]).stderr.splitlines():
        section = re.match(r"crf (\w+):", line)
        if section:
            commands[section.group(1)] = {}
        row = re.match(r"  --([a-z0-9-]+)(?:=(\S+))?", line)
        if row and commands:
            commands[list(commands)[-1]][row.group(1)] = row.group(2) or ""
    return commands


def flag_matrix(crf, scratch, failures):
    """Probes every flag the usage text lists; see the module docstring."""
    small = os.path.join(scratch, "small.crftrace")
    checkpoint = os.path.join(scratch, "small.ckpt")
    run([crf, "generate", "--machines=2", "--days=1", "--out=" + small])
    run([crf, "serve", "--replay=" + small, "--checkpoint-out=" + checkpoint,
         "--stop-after-checkpoint"])
    synth = ["--machines=2", "--days=1"]
    base = {
        "generate": synth + ["--out=" + os.path.join(scratch, "matrix.crftrace")],
        "info": synth,
        "convert": ["--trace=" + small, "--out=" + os.path.join(scratch, "matrix.trace")],
        "simulate": synth,
        "cluster": synth,
        "serve": synth,
        "loadgen": synth + ["--connect=127.0.0.1:1"],
        "checkpoint": ["--file=" + checkpoint],
    }
    commands = read_usage(crf)
    if sorted(commands) != sorted(base):
        failures.append("usage lists commands %s" % sorted(commands))
    missing = os.path.join(scratch, "missing", "out")
    for command, flags in commands.items():
        args = base.get(command, [])
        plain = run([crf, command] + args)
        for flag, metavar in flags.items():
            # A numeric value may be valid (0, -1); every other probe must fail.
            if metavar in NUMERIC_METAVARS:
                lenient = ["--%s=%s" % (flag, value) for value in NUMERIC_VALUES]
                strict = []
            elif metavar == "":
                lenient, strict = [], ["--%s=1" % flag]
            else:
                lenient, strict = [], ["--%s=" % flag, "--" + flag]
            if metavar == "OUTPUT":
                strict.append("--%s=%s" % (flag, missing))
            for probe in lenient + strict:
                argv = [crf, command] + without(args, flag) + [probe]
                result = run(argv)
                named = result.returncode == 2 and ("--" + flag) in result.stderr
                as_plain = (result.returncode, result.stderr) == (plain.returncode, plain.stderr)
                if probe in strict:
                    ok = named and not result.stdout
                else:
                    ok = result.returncode == 0 or named or as_plain
                if not ok:
                    failures.append(describe(argv, result))

    typo = [crf, "simulate", "--cell=a", "--machines=512", "--days=7", "--predicter=limit-sum"]
    start = time.monotonic()
    result = run(typo)
    elapsed = time.monotonic() - start
    if result.returncode != 2 or "--predicter" not in result.stderr or elapsed > 1.0:
        failures.append("%s (%.2f s)" % (describe(typo, result), elapsed))
    argv = [crf, "serve", "--trace=" + small]
    result = run(argv)
    if result.returncode != 2 or "unknown flag --trace" not in result.stderr:
        failures.append(describe(argv, result))
    argv = [crf, "generate", "--rich=1"] + base["generate"]
    result = run(argv)
    if result.returncode != 2 or "--rich" not in result.stderr or result.stdout:
        failures.append(describe(argv, result))


def input_probes(crf, scratch, failures):
    """Bad files on every input flag fail at the parse; see the module docstring."""
    trace = os.path.join(scratch, "inputs.crftrace")
    checkpoint = os.path.join(scratch, "inputs.ckpt")
    garbage = os.path.join(scratch, "garbage.bin")
    text = os.path.join(scratch, "inputs.trace")
    run([crf, "generate", "--machines=2", "--days=1", "--out=" + trace])
    run([crf, "serve", "--replay=" + trace, "--checkpoint-out=" + checkpoint,
         "--stop-after-checkpoint"])
    run([crf, "convert", "--trace=" + trace, "--out=" + text])
    with open(garbage, "wb") as out:
        out.write(bytes((i * 151 + 7) % 256 for i in range(4096)))
    # A trace flag replaces cell synthesis; --resume must fail before it.
    base = {"convert": ["--out=" + os.path.join(scratch, "inputs_out.trace")],
            "loadgen": ["--connect=127.0.0.1:1"]}
    synth = ["--machines=256", "--days=3"]
    for command, flags in read_usage(crf).items():
        for flag, metavar in flags.items():
            if metavar != "FILE":
                continue
            if flag not in TRACE_INPUTS + CHECKPOINT_INPUTS:
                failures.append("%s --%s: input flag of unknown kind" % (command, flag))
                continue
            wrong = checkpoint if flag in TRACE_INPUTS else trace
            for path in [os.path.join(scratch, "missing.file"), garbage, text, wrong]:
                args = synth if flag == "resume" else base.get(command, [])
                argv = [crf, command] + args + ["--%s=%s" % (flag, path)]
                # The best of three runs, so a loaded host does not fail a fast check.
                elapsed = []
                for _ in range(3):
                    start = time.monotonic()
                    result = run(argv)
                    elapsed.append(time.monotonic() - start)
                    if elapsed[-1] <= INPUT_DEADLINE_S:
                        break
                export_only = path != text or flag not in TRACE_INPUTS or \
                    "text is export-only" in result.stderr
                if (result.returncode != 2 or ("--" + flag) not in result.stderr or
                        result.stdout or not export_only or min(elapsed) > INPUT_DEADLINE_S):
                    failures.append("%s (%.3f s)" % (describe(argv, result), min(elapsed)))
    return trace


def sigint_when_handled(argv):
    """Runs argv, sends SIGINT once its handler is installed; returns (result, sent)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    sent = False
    while proc.poll() is None and not sent:
        try:
            with open("/proc/%d/status" % proc.pid) as status:
                caught = [line for line in status if line.startswith("SigCgt:")]
            if caught and int(caught[0].split()[1], 16) & (1 << (signal.SIGINT - 1)):
                proc.send_signal(signal.SIGINT)
                sent = True
        except OSError:
            pass  # The process exited between poll() and open().
        time.sleep(0.001)
    stdout, stderr = proc.communicate(timeout=60)
    return subprocess.CompletedProcess(argv, proc.returncode, stdout, stderr), sent


def metrics_probes(crf, scratch, failures):
    """`crf serve --metrics-out` writes on every exit; see the module docstring."""
    trace = os.path.join(scratch, "metrics.crftrace")
    run([crf, "generate", "--machines=64", "--days=7", "--out=" + trace])
    metrics = os.path.join(scratch, "metrics.json")
    serve = [crf, "serve", "--replay=" + trace, "--metrics-out=" + metrics, "--threads=1"]
    cut = ["--checkpoint-out=" + os.path.join(scratch, "metrics.ckpt"), "--checkpoint-at=50",
           "--stop-after-checkpoint"]
    for argv in [serve, serve + cut]:
        result = run(argv)
        if result.returncode != 0 or not os.path.exists(metrics):
            failures.append("%s: no metrics file; %s" % (" ".join(argv[1:]),
                                                         describe(argv, result)))
        if os.path.exists(metrics):
            os.remove(metrics)
    if not os.path.exists("/proc/%d/status" % os.getpid()):
        print("no /proc/<pid>/status; SIGINT metrics probe skipped")
        return
    result, sent = sigint_when_handled(serve)
    if not sent or result.returncode != 0 or "stopped at tick" not in result.stderr or \
            not os.path.exists(metrics):
        failures.append("SIGINT %s (metrics file %s)" %
                        (describe(serve, result), os.path.exists(metrics)))


def main():
    crf = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        flag_matrix(crf, scratch, failures)
        trace = input_probes(crf, scratch, failures)
        metrics_probes(crf, scratch, failures)
        out = os.path.join(scratch, "never_written.crftrace")
        cases = [
            (["generate", "--out=" + out], CELL_FLAGS),
            (["simulate"], dict(CELL_FLAGS, **HORIZON_FLAGS)),
            (["serve", "--checkpoint-out=" + out], dict(HORIZON_FLAGS, **CHECKPOINT_FLAGS)),
            (["loadgen", "--connect=127.0.0.1:1"], HORIZON_FLAGS),
            (["cluster"], CLUSTER_FLAGS),
        ]
        for command, flags in cases:
            for flag, values in flags.items():
                for value in values:
                    argv = [crf] + command + without(["--machines=2", "--days=1"], flag)
                    argv.append("--%s=%s" % (flag, value))
                    result = run(argv)
                    if result.returncode != 2 or ("--" + flag) not in result.stderr:
                        failures.append("%s: exit %d, stderr %r" %
                                        (" ".join(argv[1:]), result.returncode, result.stderr))
                    if os.path.exists(out):
                        failures.append("%s: wrote %s" % (" ".join(argv[1:]), out))
                        os.remove(out)

        unwritable = os.path.join(scratch, "missing", "trace.crftrace")
        argv = [crf, "generate", "--machines=2", "--days=1", "--out=" + unwritable]
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

        removed = ["placement-shards=4", "rebalance-interval=8"]
        synth = ["--machines=2", "--days=1"]
        for command, flags in [(["generate", "--out=" + out] + synth,
                                removed + ["binary", "stream", "trace=" + trace]),
                               (["convert", "--trace=" + trace, "--out=" + out],
                                ["binary", "stream"]),
                               (["cluster"] + synth, removed)]:
            for flag in flags:
                argv = [crf] + command + ["--" + flag]
                result = run(argv)
                name = "--" + flag.split("=")[0]
                if result.returncode != 2 or ("unknown flag " + name) not in result.stderr:
                    failures.append("%s: exit %d, stderr %r" %
                                    (" ".join(argv[1:]), result.returncode, result.stderr))
                if os.path.exists(out):
                    failures.append("%s: wrote %s" % (" ".join(argv[1:]), out))
                    os.remove(out)

        in_place = os.path.join(scratch, "in_place.crftrace")
        generated = run([crf, "generate", "--machines=16", "--days=1", "--out=" + in_place])
        counts = re.search(r"(\d+) machines, (\d+) tasks", generated.stdout)
        argv = [crf, "convert", "--trace=" + in_place, "--mmap", "--out=" + in_place]
        result = run(argv)
        with open(in_place) as exported:
            lines = exported.read().splitlines()
        want = 2 + int(counts.group(1)) + int(counts.group(2)) if counts else -1
        leftovers = [name for name in os.listdir(scratch) if ".tmp." in name]
        if result.returncode != 0 or len(lines) != want or lines[0] != "# crf-trace v1" or \
                leftovers:
            failures.append("%s: %d lines (want %d), temp files %s; %s" %
                            (" ".join(argv[1:]), len(lines), want, leftovers,
                             describe(argv, result)))

        for args in [["--machines=4", "--days=0.0035"],
                     ["--machines=1", "--days=0.007", "--seed=2"]]:
            argv = [crf, "cluster"] + args
            result = run(argv)
            if result.returncode != 0 or "CHECK" in result.stderr:
                failures.append(describe(argv, result))
    for failure in failures:
        print(failure)
    print("%d failures" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
