#!/usr/bin/env python3
"""Validate the host-profiler and parallel-kernel exports.

Invariants the simulator promises (docs/OBSERVABILITY.md §9):

  * the folded file is non-empty; every line is "path self_ns" where
    path is semicolon-separated non-empty frames; lines are sorted and
    unique; every multi-frame path's parent path is present too (the
    profiler emits every interior node of the scope tree);
  * in the stats-JSON host_profile block: count >= 1, self <= wall,
    and self_ns is exactly wall minus the children's wall (clamped at
    zero) — the parent/child tiling invariant;
  * the stats-JSON host block reports peak_rss_kb as a positive integer
    (docs/OBSERVABILITY.md §4);
  * with --expect-pk: host.parallel_kernel exists, its partition list
    matches sim_threads, windows >= coupled_windows, the serial tail
    is within the run time, and per-partition event counts are
    positive; the telemetry CSV (when given) carries the pk.* columns
    with per-partition series for every partition.

Usage: check_host_profile.py --folded PROF.folded [--stats STATS.json]
                             [--telemetry TELEM.csv] [--expect-pk]
Exit status 0 when every invariant holds, 1 otherwise.
"""

import json
import re
import sys

FOLDED_RE = re.compile(r"^([^ ;][^ ]*) (\d+)$")


def fail(msg):
    print(f"check_host_profile: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def check_folded(path):
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    if not lines:
        fail(f"{path}: empty folded profile")
    paths = []
    for i, line in enumerate(lines, 1):
        m = FOLDED_RE.match(line)
        if not m:
            fail(f"{path}:{i}: not a 'stack self_ns' line: {line!r}")
        stack = m.group(1)
        frames = stack.split(";")
        if any(not f for f in frames):
            fail(f"{path}:{i}: empty frame in {stack!r}")
        paths.append(stack)
    if paths != sorted(paths):
        fail(f"{path}: stacks not sorted")
    if len(set(paths)) != len(paths):
        fail(f"{path}: duplicate stacks")
    present = set(paths)
    for stack in paths:
        frames = stack.split(";")
        if len(frames) > 1 and ";".join(frames[:-1]) not in present:
            fail(f"{path}: interior node missing for {stack!r}")
    return paths


def check_profile_block(stats_path, stats):
    host = stats.get("host")
    if host is None:
        fail(f"{stats_path}: no host block")
    rss = host.get("peak_rss_kb")
    if type(rss) is not int or rss <= 0:
        fail(f"{stats_path}: host.peak_rss_kb is {rss!r}, "
             "not a positive integer")
    prof = host.get("host_profile")
    if prof is None:
        fail(f"{stats_path}: no host.host_profile block")
    scopes = prof.get("scopes")
    if not scopes:
        fail(f"{stats_path}: host_profile has no scopes")
    by_path = {}
    for s in scopes:
        if s["count"] < 1:
            fail(f"{stats_path}: scope {s['path']}: count < 1")
        if s["self_ns"] > s["wall_ns"]:
            fail(f"{stats_path}: scope {s['path']}: self > inclusive")
        if s["path"] in by_path:
            fail(f"{stats_path}: duplicate scope {s['path']}")
        by_path[s["path"]] = s
    # Parent/child tiling: self is exactly wall minus children (>= 0).
    kids_wall = {}
    for path in by_path:
        frames = path.split(";")
        if len(frames) > 1:
            parent = ";".join(frames[:-1])
            if parent not in by_path:
                fail(f"{stats_path}: scope {path} has no parent scope")
            kids_wall[parent] = kids_wall.get(parent, 0) + \
                by_path[path]["wall_ns"]
    for path, s in by_path.items():
        want = max(s["wall_ns"] - kids_wall.get(path, 0), 0)
        if s["self_ns"] != want:
            fail(f"{stats_path}: scope {path}: self_ns {s['self_ns']} "
                 f"!= wall - children = {want}")
    return by_path


def check_pk_block(stats_path, stats):
    pk = stats.get("host", {}).get("parallel_kernel")
    if pk is None:
        fail(f"{stats_path}: no host.parallel_kernel block")
    parts = pk["partitions"]
    if len(parts) != pk["sim_threads"]:
        fail(f"{stats_path}: {len(parts)} partitions for "
             f"sim_threads {pk['sim_threads']}")
    if pk["coupled_windows"] > pk["windows"]:
        fail(f"{stats_path}: coupled_windows > windows")
    if pk["lookahead"] < 1:
        fail(f"{stats_path}: lookahead < 1")
    if pk["serial_tail_seconds"] > pk["run_seconds"]:
        fail(f"{stats_path}: serial tail exceeds run time")
    for p in parts:
        if p["events"] <= 0:
            fail(f"{stats_path}: partition {p['id']}: no events")
        if p["barrier_wait_seconds"] < 0:
            fail(f"{stats_path}: partition {p['id']}: negative wait")
    return len(parts)


def check_pk_telemetry(telem_path, nparts):
    try:
        with open(telem_path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        fail(f"cannot read {telem_path}: {e}")
    header = next((l for l in lines if l.startswith("tick,")), None)
    if header is None:
        fail(f"{telem_path}: no CSV header")
    cols = header.split(",")
    for want in ("pk.windows", "pk.coupled_windows", "pk.serial_tail_s"):
        if want not in cols:
            fail(f"{telem_path}: missing column {want}")
    for p in range(nparts):
        for want in (f"pk.part_events.{p}", f"pk.barrier_wait_s.{p}"):
            if want not in cols:
                fail(f"{telem_path}: missing column {want}")
    rows = [l.split(",") for l in lines
            if l and not l.startswith(("#", "tick,"))]
    if not rows:
        fail(f"{telem_path}: no data rows")
    for r in rows:
        if len(r) != len(cols):
            fail(f"{telem_path}: ragged row ({len(r)} fields, "
                 f"{len(cols)} columns)")
    ev_cols = [cols.index(f"pk.part_events.{p}") for p in range(nparts)]
    total = sum(float(r[c]) for r in rows for c in ev_cols)
    if total <= 0:
        fail(f"{telem_path}: pk.part_events columns sum to zero")


def main(argv):
    folded = stats_path = telem_path = None
    expect_pk = False
    args = argv[1:]
    while args:
        arg = args.pop(0)
        if arg == "--folded":
            folded = args.pop(0)
        elif arg == "--stats":
            stats_path = args.pop(0)
        elif arg == "--telemetry":
            telem_path = args.pop(0)
        elif arg == "--expect-pk":
            expect_pk = True
        elif arg in ("-h", "--help"):
            print(__doc__)
            return 0
        else:
            fail(f"unknown argument {arg!r}")
    if not folded:
        fail("--folded is required")

    stacks = check_folded(folded)
    summary = [f"{len(stacks)} folded stacks"]

    if stats_path:
        try:
            with open(stats_path) as f:
                stats = json.load(f)
        except (OSError, ValueError) as e:
            fail(f"cannot read {stats_path}: {e}")
        scopes = check_profile_block(stats_path, stats)
        summary.append(f"{len(scopes)} profile scopes")
        if expect_pk:
            nparts = check_pk_block(stats_path, stats)
            summary.append(f"{nparts} partitions")
            if telem_path:
                check_pk_telemetry(telem_path, nparts)
                summary.append("pk telemetry columns")
    print(f"check_host_profile: OK: {', '.join(summary)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
