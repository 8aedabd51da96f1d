#!/usr/bin/env python3
"""Validates a tracked BENCH_cluster.json thread-scaling matrix.

Usage: check_bench_cluster.py [path]   (default: BENCH_cluster.json)

Schema checks (field presence, types, sanity) plus the matrix rules of
schema v5. Older files are refused outright: v4 rows carry the columns of
the deleted sharded placement engine, and v3 rows lack the packing
columns — regenerate the file with the current bench instead of mixing
schemas.

Matrix rows (mode "short"/"full") and their rules:

- Rows carry the pool size actually used (`threads`) and whether the
  step loop ran in parallel (`parallel`). A `threads: 1` row must be serial
  (`parallel: false`, `parallel_speedup: 1.0`); every other row must be
  parallel.
- Rows group into matrices (`matrix` id), one row per pool size on the
  cell's one scheduler. The file must contain at least one complete matrix
  covering threads {1, 4, 8, 16}. Rows within a matrix must agree on the
  workload and on the placement counters: the determinism contract says
  every pool size places exactly the same tasks, so diverging counters
  mean the lanes timed different computations.
- Full-mode matrices must use the enlarged problem size (>= 2048 machines).
- Speedup target, checked only when the recording host had >= 8 cores
  (`host_cores`) — a waiver is printed otherwise, because a small host
  cannot measure 8-thread parallelism: the 8-thread row must reach
  parallel_speedup >= 4.0 on machine-steps (vs the serial row).
  Absolute-rate thresholds are deliberately absent: CI runners vary too
  much for them to gate a merge.
- Every row carries the memory columns: `peak_rss_bytes` (positive),
  `load_ms` (>= 0), `load_mode`. Matrix lanes generate their cell
  in-process, so their rows must say load_mode "generated" with load_ms 0.

`mode: "scale"` rows are the streamed-generation / mmap-load / streaming-
replay pipeline record (one row per run, never part of a thread matrix):

- They must cover >= 100000 machines, say load_mode "mmap" with a positive
  load_ms, and carry the full I/O story: gen_ms, file_bytes, events_per_sec,
  peak_rss_bytes, resident_after_load_bytes, resident_after_replay_bytes.
- They carry the placement story: `placement_probes`, `placement_ms`,
  `placement_attempts`, and `placements_per_sec`, so the tracked history
  shows what fraction of gen_ms the (serial, bounded-probe) placement
  phase is.
- The zero-copy claim is gated on the arena itself, in two steps. The open:
  resident_after_load_bytes (trace-file pages this process materialized)
  must be an order of magnitude under file_bytes — the mapped load touches
  only the metadata slabs the validator reads. The replay:
  resident_after_replay_bytes must stay within 4x of the open's footprint
  even though the replay read every byte of the file — that is what proves
  the blocked page drops return the bulk slabs to the kernel as machines
  finish (a replay that materialized them sits at ~file_bytes, 10-20x over
  this gate; the 4x covers the extra metadata columns a replay legitimately
  touches beyond what validation did). Whole-process peak_rss_bytes is
  recorded but not gated against the file: it is dominated by the replayer's
  per-machine predictor state, which scales with the cell no matter how the
  trace is loaded.
"""

import sys

from bench_check_lib import Checker

REQUIRED_SCHEMA = "crf-cluster-bench-v5"
REQUIRED_THREADS = {1, 4, 8, 16}
SPEEDUP_TARGET_THREADS = 8
SPEEDUP_TARGET = 4.0
FULL_MIN_MACHINES = 2048
SCALE_MIN_MACHINES = 100000
SCALE_RESIDENCY_FACTOR = 10
SCALE_REPLAY_FACTOR = 4

ENTRY_FIELDS = {
    "date": str,
    "mode": str,
    "matrix": str,
    "threads": int,
    "parallel": bool,
    "host_cores": int,
    "num_machines": int,
    "num_intervals": int,
    "machine_steps_per_sec": (int, float),
    "placements_per_sec": (int, float),
    "parallel_speedup": (int, float),
    "placement_attempts": int,
    "tasks_placed": int,
    "tasks_timed_out": int,
    "pending_task_intervals": int,
    "violation_rate_p90": (int, float),
    "peak_rss_bytes": int,
    "load_ms": (int, float),
    "load_mode": str,
}

POSITIVE_FIELDS = [
    "threads",
    "host_cores",
    "num_machines",
    "num_intervals",
    "machine_steps_per_sec",
    "placements_per_sec",
    "parallel_speedup",
    "peak_rss_bytes",
]

NON_NEGATIVE_FIELDS = [
    "tasks_timed_out",
    "pending_task_intervals",
    "violation_rate_p90",
    "load_ms",
]

# Deterministic at every pool size, so every row of a matrix must agree.
COUNTER_FIELDS = (
    "placement_attempts",
    "tasks_placed",
    "tasks_timed_out",
    "pending_task_intervals",
)

SCALE_FIELDS = {
    "date": str,
    "mode": str,
    "matrix": str,
    "threads": int,
    "parallel": bool,
    "host_cores": int,
    "num_machines": int,
    "num_intervals": int,
    "num_tasks": int,
    "placement_probes": int,
    "placement_ms": (int, float),
    "placement_attempts": int,
    "placements_per_sec": (int, float),
    "file_bytes": int,
    "gen_ms": (int, float),
    "gen_peak_rss_bytes": int,
    "load_ms": (int, float),
    "load_mode": str,
    "resident_after_load_bytes": int,
    "resident_after_replay_bytes": int,
    "events": int,
    "events_per_sec": (int, float),
    "peak_rss_bytes": int,
}

SCALE_POSITIVE_FIELDS = [
    "threads",
    "num_machines",
    "num_intervals",
    "num_tasks",
    "placement_probes",
    "placement_ms",
    "placement_attempts",
    "placements_per_sec",
    "file_bytes",
    "gen_ms",
    "gen_peak_rss_bytes",
    "load_ms",
    "resident_after_load_bytes",
    "resident_after_replay_bytes",
    "events",
    "events_per_sec",
    "peak_rss_bytes",
]

check = Checker("check_bench_cluster")


def check_scale_entry(i, entry):
    check.check_entry_fields(i, entry, SCALE_FIELDS)
    check.check_positive(i, entry, SCALE_POSITIVE_FIELDS)
    if entry["num_machines"] < SCALE_MIN_MACHINES:
        check.fail(
            f"entries[{i}]: scale rows must cover >= {SCALE_MIN_MACHINES} "
            f'machines, got {entry["num_machines"]}'
        )
    if entry["parallel"] != (entry["threads"] > 1):
        check.fail(
            f"entries[{i}]: parallel={entry['parallel']} inconsistent with "
            f"threads={entry['threads']}"
        )
    if entry["placement_attempts"] < entry["num_tasks"]:
        check.fail(
            f"entries[{i}]: placement_attempts ({entry['placement_attempts']}) "
            f"< num_tasks ({entry['num_tasks']}) — every streamed task took at "
            "least one attempt"
        )
    if entry["load_mode"] != "mmap":
        check.fail(
            f'entries[{i}]: scale rows must be mmap-loaded, got load_mode '
            f'{entry["load_mode"]!r}'
        )
    if entry["resident_after_load_bytes"] * SCALE_RESIDENCY_FACTOR > entry["file_bytes"]:
        check.fail(
            f'entries[{i}]: resident_after_load_bytes '
            f'({entry["resident_after_load_bytes"]}) is not an order of '
            f'magnitude under file_bytes ({entry["file_bytes"]}) — the '
            "mapped open materialized more than the metadata slabs"
        )
    if entry["resident_after_replay_bytes"] > (
        SCALE_REPLAY_FACTOR * entry["resident_after_load_bytes"]
    ):
        check.fail(
            f'entries[{i}]: resident_after_replay_bytes '
            f'({entry["resident_after_replay_bytes"]}) exceeds '
            f'{SCALE_REPLAY_FACTOR}x the open footprint '
            f'({entry["resident_after_load_bytes"]}) — the replay is not '
            "returning finished machines' bulk pages to the kernel"
        )


def check_entry(i, entry):
    check.reject_legacy_fields(
        i,
        entry,
        (
            "serial_machine_steps_per_sec",
            "sharded_machine_steps_per_sec",
            "speedup",
        ),
        "v2+ rows record one lane each",
    )
    check.check_entry_fields(i, entry, ENTRY_FIELDS)
    check.check_positive(i, entry, POSITIVE_FIELDS)
    check.check_non_negative(i, entry, NON_NEGATIVE_FIELDS)
    if entry["placement_attempts"] < entry["tasks_placed"]:
        check.fail(
            f"entries[{i}]: placement_attempts ({entry['placement_attempts']}) "
            f"< tasks_placed ({entry['tasks_placed']})"
        )
    if entry["threads"] == 1:
        if entry["parallel"]:
            check.fail(
                f"entries[{i}]: threads=1 labeled parallel — single-thread "
                "rows must be the serial baseline"
            )
        if entry["parallel_speedup"] != 1.0:
            check.fail(
                f"entries[{i}]: serial baseline must have parallel_speedup 1.0, "
                f'got {entry["parallel_speedup"]}'
            )
    elif not entry["parallel"]:
        check.fail(f"entries[{i}]: threads={entry['threads']} but parallel=false")
    if entry["load_mode"] != "generated" or entry["load_ms"] != 0:
        check.fail(
            f"entries[{i}]: matrix lanes generate their cell in-process — "
            f'expected load_mode "generated" with load_ms 0, got '
            f'{entry["load_mode"]!r} / {entry["load_ms"]}'
        )


def check_matrix(matrix_id, rows):
    first = rows[0]
    for row in rows[1:]:
        for field in ("mode", "num_machines", "num_intervals"):
            if row[field] != first[field]:
                check.fail(
                    f"matrix {matrix_id!r}: rows disagree on {field} "
                    f"({row[field]} vs {first[field]}) — lanes timed different workloads"
                )
        for field in COUNTER_FIELDS:
            if row[field] != first[field]:
                check.fail(
                    f"matrix {matrix_id!r}: rows disagree on {field} "
                    f"({row[field]} vs {first[field]}) — the determinism "
                    "contract requires identical placements at every pool size"
                )

    complete = REQUIRED_THREADS.issubset({row["threads"] for row in rows})
    if first["mode"] == "full" and complete:
        if first["num_machines"] < FULL_MIN_MACHINES:
            check.fail(
                f"matrix {matrix_id!r}: full mode requires >= {FULL_MIN_MACHINES} "
                f'machines, got {first["num_machines"]}'
            )
        for row in rows:
            if row["threads"] != SPEEDUP_TARGET_THREADS:
                continue
            if row["host_cores"] >= SPEEDUP_TARGET_THREADS:
                if row["parallel_speedup"] < SPEEDUP_TARGET:
                    check.fail(
                        f"matrix {matrix_id!r}: parallel_speedup at "
                        f"{SPEEDUP_TARGET_THREADS} threads is "
                        f'{row["parallel_speedup"]}, target >= {SPEEDUP_TARGET}'
                    )
            else:
                check.note(
                    f"matrix {matrix_id!r} speedup "
                    f"target waived — recorded on a {row['host_cores']}-core "
                    f"host, which cannot measure {SPEEDUP_TARGET_THREADS}-thread "
                    "scaling"
                )
    return complete


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_cluster.json"
    entries = check.load(
        path,
        REQUIRED_SCHEMA,
        "pre-v5 records carry the deleted sharded-engine columns; regenerate "
        "the file with the current bench",
    )

    matrices = {}
    scale_rows = 0
    for i, entry in enumerate(entries):
        check.require_object(i, entry)
        mode = entry.get("mode")
        if mode == "scale":
            check_scale_entry(i, entry)
            scale_rows += 1
        elif mode in ("short", "full"):
            check_entry(i, entry)
            matrices.setdefault(entry["matrix"], []).append(entry)
        else:
            check.fail(
                f'entries[{i}].mode must be "short", "full", or "scale", '
                f"got {mode!r}"
            )

    complete = sum(1 for mid, rows in matrices.items() if check_matrix(mid, rows))
    if complete == 0:
        required = sorted(REQUIRED_THREADS)
        check.fail(f"no complete thread matrix: need rows at threads {required}")

    check.ok(
        f"{path} has {len(entries)} well-formed entries "
        f"in {len(matrices)} matrices ({complete} complete, "
        f"{scale_rows} scale rows)"
    )


if __name__ == "__main__":
    main()
