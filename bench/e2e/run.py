#!/usr/bin/env python3
"""End-to-end benchmark of the limitless simulator.

Builds the limitless-bench program in build/bench-e2e, runs the five
workloads one process at a time, checks every rep's simulated outputs,
and prints each end-to-end metric (reported value, median, q1, q3, n)
and each per-layer metric by name with its unit. The reported value is
the best rep for the host-speed metrics and the median rep for set-up
time and memory (PICK below).

  python3 bench/e2e/run.py [--seed N] [--out results.json]
      All workloads round-robin: 30 untraced reps plus one traced rep
      each. Writes the results JSON, folded profiles and per-layer
      tables under build/bench-e2e/out/. Exits 1 on any failed rep.

  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
      One workload for about S seconds. The last stdout line is one JSON
      object: {"correct", "attempted", "failed", "metrics"}, with the
      end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
      metrics (--trace 1).

  python3 bench/e2e/run.py --compare BASE.json HEAD.json
      Verdict per workload and end-to-end metric; exits 1 on "worse".
"""

import argparse
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build" / "bench-e2e"
OUT = BUILD / "out"
BENCH = BUILD / "bench-e2e" / "limitless-bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())

WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# name -> (unit, better, bound); fail_frac is reported here but not in
# BENCHMARK.json, whose end-to-end metrics must never read 0.
E2E = {m["name"]: (m["unit"], m["better"], m["bound"])
       for m in SPEC["end_to_end"]}
E2E["fail_frac"] = ("ratio", "lower", 0.0)
# How a metric's reps become its one reported value. Host noise only ever
# slows a rep, and it comes in bursts of a few seconds, so the host-speed
# metrics take the run's best rep. Set-up time, where a change could hide
# work moved out of the run, and memory take the median rep.
PICK = {"run_s": min, "mrefs_per_s": max, "wall_s": min}
# torus1024-t4 runs the same machine as torus1024 on the parallel
# kernel: its simulated outputs must equal torus1024's exactly.
PINNED_AS = {"torus1024-t4": "torus1024"}
IDEAL_NETWORK = {"stress64-ideal"}
HIER = {"hier1024"}
THREADS = min(4, os.cpu_count() or 1)
REPS = 30  # untraced reps per workload in the full form
MIN_REPS = 3  # per run of the single-workload form
REP_TIMEOUT_S = 60


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure (once) and build only limitless-bench and its libraries."""
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = [["cmake", "--build", str(BUILD), "--target", "limitless-bench",
              f"-j{THREADS}"]]
    if not (BUILD / "CMakeCache.txt").exists():
        steps.insert(0, ["cmake", "-S", str(ROOT), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                         f"-DCMAKE_PROJECT_INCLUDE={HERE / 'register.cmake'}"])
    with open(log, "w") as f:
        for cmd in steps:
            if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-15:]
                fail("build failed:\n" + "\n".join(tail))


def rep(workload, seed, traced, tag):
    """Run one rep in its own process. Returns limitless-bench's JSON plus
    wall_s, or {"error": ...}; "traced" is set either way."""
    OUT.mkdir(parents=True, exist_ok=True)
    argv = [str(BENCH), "--workload", workload, "--seed", str(seed)]
    if traced:
        argv += ["--trace", "--folded", str(OUT / f"{workload}.folded")]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"timed out after {REP_TIMEOUT_S} s"}
    wall = time.perf_counter() - t0
    try:
        r = json.loads(proc.stdout) if proc.returncode == 0 else None
    except json.JSONDecodeError:
        r = None
    if r is None:
        err_path = OUT / f"{workload}.{tag}.err"
        err_path.write_text(proc.stderr)
        return {"traced": traced, "error": f"exit code {proc.returncode} "
                f"or unparsable output, stderr in {err_path}"}
    r["wall_s"] = wall
    return r


def check_pinned(workload, seed, reps):
    """Mark reps whose simulated outputs disagree with the first rep or,
    at the pinned seed, with expected.json."""
    good = [r for r in reps if "error" not in r]
    if not good:
        return
    ref = good[0]["pinned"]
    expected = EXPECTED["workloads"][PINNED_AS.get(workload, workload)]
    for r in good:
        if r["pinned"] != ref:
            r["error"] = "pinned outputs differ between reps"
        elif seed == EXPECTED["seed"] and r["pinned"] != expected:
            diff = sorted(k for k in expected
                          if r["pinned"].get(k) != expected[k])
            r["error"] = "pinned outputs differ from expected.json: " + \
                ", ".join(diff)


def self_checks(workload, layers):
    """Layer sanity: which fabric and which directory levels ran."""
    problems = []
    hops = layers["net.flit_hops"][1]
    if (hops > 0) == (workload in IDEAL_NETWORK):
        problems.append(f"net.flit_hops = {hops} on {workload}")
    chip = layers["chip.requests"][1]
    if (chip > 0) != (workload in HIER):
        problems.append(f"chip.requests = {chip} on {workload}")
    return problems


def e2e_values(r):
    t = r["time"]
    return {
        "run_s": t["run_s"],
        "mrefs_per_s": r["pinned"]["proc.ops"] / t["run_s"] / 1e6,
        "setup_s": t["machine.construct_s"] + t["workload.install_s"],
        "wall_s": r["wall_s"],
        "peak_rss_mb": r["host"]["peak_rss_kb"] / 1024,
    }


def fold(r):
    """Per-leaf-scope self seconds, inclusive seconds and calls, summed
    across threads and call paths."""
    self_s, wall_s, calls = {}, {}, {}
    for s in r["scopes"]:
        leaf = s["path"].split(";")[-1]
        self_s[leaf] = self_s.get(leaf, 0.0) + s["self_ns"] * 1e-9
        wall_s[leaf] = wall_s.get(leaf, 0.0) + s["wall_ns"] * 1e-9
        calls[leaf] = calls.get(leaf, 0) + s["count"]
    return self_s, wall_s, calls


def tiling_error(r):
    """|sum of self times under machine.run - machine.run| / machine.run."""
    top = [s for s in r["scopes"] if s["path"] == "machine.run"]
    if not top:
        return None
    inner = sum(s["self_ns"] for s in r["scopes"]
                if s["path"].split(";")[0] == "machine.run")
    return abs(inner - top[0]["wall_ns"]) / top[0]["wall_ns"]


def layer_metrics(plain, traced):
    """name -> (unit, value). Counts come from the untraced reps, host
    times from the traced ones (median per scope when there are several)."""
    p, h = plain[0]["pinned"], plain[0]["host"]

    def med(values):
        return statistics.median(values) if values else 0.0

    def tmed(key):
        return med([r["time"][key] for r in plain])

    folds = [fold(r) for r in traced]

    def self_s(*leaves):
        return med([sum(f[0].get(l, 0.0) for l in leaves) for f in folds])

    def wall_s(*leaves):
        return med([sum(f[1].get(l, 0.0) for l in leaves) for f in folds])

    def calls(leaf):
        return med([f[2].get(leaf, 0) for f in folds])

    def ratio(a, b):
        return a / b if b else 0.0

    run_s = tmed("run_s")
    best_run = min(r["time"]["run_s"] for r in plain)
    traced_run = med([r["time"]["run_s"] for r in traced])
    parts = h["partitions"]
    pk_t = [r["host"] for r in traced if "pk.windows" in r["host"]]
    windows = med([x["pk.windows"] for x in pk_t])
    fabric = ("pk.plan", "pk.apply", "pk.drain")
    accesses = p["cache.loads"] + p["cache.stores"]
    m = {
        "sim.events": ("count", h["sim.events"]),
        "sim.ns_per_event": ("ns", ratio(best_run * 1e9, h["sim.events"])),
        "sim.dispatch_self_s": ("s", self_s("eq.burst", "pk.exec")),
        "sim.loop_self_s": ("s", self_s("machine.run", "machine.run_parallel")),
        "pk.partitions": ("count", parts),
        "pk.windows": ("count", windows),
        "pk.ticks_per_window": ("ratio", ratio(p["model.cycles"], windows)),
        "pk.coupled_frac": ("ratio", ratio(
            med([x["pk.coupled_windows"] for x in pk_t]), windows)),
        "pk.barrier_wait_s": ("s", med([x["pk.barrier_wait_s"] for x in pk_t])),
        "pk.barrier_frac": ("ratio", ratio(
            med([x["pk.barrier_wait_s"] for x in pk_t]), parts * traced_run)),
        "pk.exec_s": ("s", wall_s("pk.exec")),
        "pk.fabric_s": ("s", wall_s(*fabric)),
        "pk.tail_s": ("s", wall_s("pk.tail")),
        "pk.imbalance": ("ratio", ratio(
            h.get("pk.max_part_events", 0) * parts,
            h.get("pk.sum_part_events", 0))),
        "net.tick_s": ("s", self_s("net.tick")),
        "net.host_frac": ("ratio", ratio(self_s("net.tick", *fabric),
                                         traced_run)),
        "net.calls": ("count", calls("net.tick")),
        "net.packets": ("count", p["net.packets"]),
        "net.flits": ("count", p["net.flits"]),
        "net.flit_hops": ("count", p["net.flit_hops"]),
        "net.blocked": ("count", p["net.blocked"]),
        "net.ns_per_flit_hop": ("ns", ratio(
            self_s("net.tick", *fabric) * 1e9, p["net.flit_hops"])),
        "mem.service_s": ("s", self_s("mem.service")),
        "mem.requests": ("count", p["mem.requests"]),
        "mem.busy_nacks": ("count", p["mem.busy_nacks"]),
        "mem.useful_frac": ("ratio", 1 - ratio(p["mem.busy_nacks"],
                                               p["mem.requests"])),
        "mem.invs_sent": ("count", p["mem.invs_sent"]),
        "mem.evictions": ("count", p["mem.evictions"]),
        "mem.ns_per_request": ("ns", ratio(self_s("mem.service") * 1e9,
                                           p["mem.requests"])),
        "cache.dispatch_s": ("s", self_s("cache.dispatch")),
        "cache.calls": ("count", calls("cache.dispatch")),
        "cache.accesses": ("count", accesses),
        "cache.hit_frac": ("ratio", ratio(p["cache.hits"], accesses)),
        "cache.misses": ("count", p["cache.misses"]),
        "cache.ns_per_packet": ("ns", ratio(self_s("cache.dispatch") * 1e9,
                                            calls("cache.dispatch"))),
        "trap.dispatch_s": ("s", self_s("trap.dispatch")),
        "trap.emulate_s": ("s", self_s("trap.emulate")),
        "trap.host_frac": ("ratio", ratio(
            self_s("trap.dispatch", "trap.emulate"), traced_run)),
        "handler.traps": ("count", p["handler.traps"]),
        "handler.cycles": ("cycles", p["handler.cycles"]),
        "ipi.diverted": ("count", p["ipi.diverted"]),
        "mem.read_traps": ("count", p["mem.read_traps"]),
        "mem.write_traps": ("count", p["mem.write_traps"]),
        "proc.ops": ("count", p["proc.ops"]),
        "proc.remote_misses": ("count", p["proc.remote_misses"]),
        "proc.stall_cycles": ("cycles", p["proc.stall_cycles"]),
        "chip.requests": ("count", p["chip.rreq"] + p["chip.wreq"]),
        "chip.local_grants": ("count", p["chip.local_grants"]),
        "chip.parent_reqs": ("count", p["chip.parent_reqs"]),
        "chip.read_traps": ("count", p["chip.read_traps"]),
        "machine.construct_s": ("s", tmed("machine.construct_s")),
        "workload.install_s": ("s", tmed("workload.install_s")),
        "workload.verify_s": ("s", tmed("workload.verify_s")),
        "check.quiescent_s": ("s", tmed("check.quiescent_s")),
        "machine.teardown_s": ("s", tmed("machine.teardown_s")),
        "model.cycles": ("cycles", p["model.cycles"]),
        "model.remote_miss_cycles": ("cycles", p["model.remote_miss_cycles"]),
        "obs.prof_overhead_frac": ("ratio", ratio(traced_run, run_s) - 1
                                   if traced else 0.0),
    }
    for k in ("req_net", "home", "trap", "inv", "reply_net"):
        m[f"model.phase.{k}"] = ("cycles", p[f"model.phase.{k}"])
    if parts == 1:
        m = {k: v for k, v in m.items() if not k.startswith("pk.")}
    return m


def stat(unit, values, pick=statistics.median, n=None):
    """The reported value (pick of the reps), median and quartiles, as
    statistics.quantiles(n=4) gives them, and "split": how far the pick
    of the even reps and that of the odd reps lie apart, over the value,
    as an estimate of the value's own run-to-run spread."""
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    value = pick(values)
    split = (abs(pick(values[0::2]) - pick(values[1::2])) / abs(value)
             if len(values) > 1 and value else 0.0)
    return {"unit": unit, "value": value, "split": split, "median": med,
            "q1": q1, "q3": q3, "n": n or len(values), "values": values}


def summarize(workload, seed, reps):
    """Statistics and checks for one workload's reps."""
    check_pinned(workload, seed, reps)
    good = [r for r in reps if "error" not in r]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    failed = len(reps) - len(good)
    # Kept even when the reps failed the pinned check, for re-pinning.
    ran = [r["pinned"] for r in reps if "pinned" in r]
    res = {"attempted": len(reps), "failed": failed,
           "failures": sorted({r["error"] for r in reps if "error" in r}),
           "end_to_end": {}, "per_layer": {},
           "pinned": ran[0] if ran else {}}
    if not plain:
        res["failures"].append("no successful untraced rep")
        return res
    for m in SPEC["end_to_end"]:
        res["end_to_end"][m["name"]] = stat(
            m["unit"], [e2e_values(r)[m["name"]] for r in plain],
            PICK.get(m["name"], statistics.median))
    res["end_to_end"]["fail_frac"] = stat("ratio", [failed / len(reps)],
                                          n=len(reps))
    layers = layer_metrics(plain, traced)
    res["per_layer"] = {k: {"unit": u, "value": v}
                        for k, (u, v) in layers.items()}
    res["failures"] += self_checks(workload, layers)
    serial = [r for r in traced if r["host"]["partitions"] == 1]
    if serial:
        err = tiling_error(serial[0])
        if err is None or err > 0.01:
            res["failures"].append(
                f"scope self times do not tile machine.run (error {err})")
    return res


def print_workload(workload, res, out=sys.stdout):
    print(f"\n== {workload}: {res['attempted']} reps, "
          f"{res['failed']} failed", file=out)
    print(f"  {'metric':<26}{'unit':>8}{'value':>14}{'median':>14}{'q1':>14}"
          f"{'q3':>14}{'n':>4}", file=out)
    for name, s in res["end_to_end"].items():
        print(f"  {name:<26}{s['unit']:>8}{s['value']:>14.6g}"
              f"{s['median']:>14.6g}{s['q1']:>14.6g}{s['q3']:>14.6g}"
              f"{s['n']:>4}", file=out)
    print(f"  {'per-layer':<26}{'unit':>8}{'value':>14}", file=out)
    for name, s in res["per_layer"].items():
        print(f"  {name:<26}{s['unit']:>8}{s['value']:>14.6g}", file=out)
    for f in res["failures"]:
        print(f"  FAIL: {f}", file=out)


def run_all(args):
    build()
    reps = {w: [] for w in WORKLOADS}
    # Round-robin, so drift in host speed spreads over every workload.
    for i in range(REPS + 1):
        for w in WORKLOADS:
            traced = i == REPS
            r = rep(w, args.seed, traced, f"rep{i}")
            reps[w].append(r)
            status = r.get("error") or f"run_s {r['time']['run_s']:.3f}"
            print(f"  {w} rep {i}{' (traced)' if traced else ''}: {status}",
                  file=sys.stderr)
    results = {"schema": "limitless-bench-e2e-v1", "seed": args.seed,
               "reps": REPS, "hostname": socket.gethostname(),
               "nproc": os.cpu_count(), "workloads": {}}
    for w in WORKLOADS:
        results["workloads"][w] = summarize(w, args.seed, reps[w])
    pinned = {w: results["workloads"][w]["pinned"] for w in WORKLOADS}
    for w, same in PINNED_AS.items():
        if pinned[w] and pinned[w] != pinned[same]:
            results["workloads"][w]["failures"].append(
                f"pinned outputs differ from {same}")
    for w in WORKLOADS:
        res = results["workloads"][w]
        print_workload(w, res)
        with open(OUT / f"{w}.layers.txt", "w") as f:
            print_workload(w, res, f)
    out = Path(args.out) if args.out else OUT / "results.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\nresults: {out}")
    return 1 if any(r["failures"] for r in results["workloads"].values()) \
        else 0


def run_one(args):
    """The fixed-duration, single-workload form."""
    if args.workload not in WORKLOADS:
        fail(f"unknown workload '{args.workload}'")
    build()
    reps, t0 = [], time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and \
                elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            break
        # With --trace 1 every second rep is traced: host times come from
        # those, counts and the overhead base from the others.
        traced = args.trace == 1 and len(reps) % 2 == 1
        reps.append(rep(args.workload, args.seed, traced,
                        f"rep{len(reps)}"))
    res = summarize(args.workload, args.seed, reps)
    metrics = {}
    if args.trace:
        # pk.* exist only on the parallel kernel; serial workloads read 0.
        for m in SPEC["per_layer"]:
            s = res["per_layer"].get(m["name"], {"value": 0.0})
            metrics[m["name"]] = {"value": s["value"], "unit": m["unit"]}
    else:
        for m in SPEC["end_to_end"]:
            s = res["end_to_end"].get(m["name"], {"value": 0.0})
            metrics[m["name"]] = {"value": s["value"], "unit": m["unit"]}
    print_workload(args.workload, res, sys.stderr)
    print(json.dumps({"correct": not res["failures"],
                      "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


def verdict(base, head, unit_better, bound):
    """worse / better / within bound, judged on the reported values, or
    unresolved when either side's split exceeds the bound (README.md,
    "Comparing")."""
    sign = 1 if unit_better == "lower" else -1  # sign * value: high = bad
    bm, hm = base["value"], head["value"]
    if bm == 0:
        return ("worse" if sign * hm > 0 else "within bound"), 0.0
    delta = sign * (hm - bm) / abs(bm)  # > 0 means worse
    spread = max(base["split"], head["split"])
    all_better = (max(sign * v for v in head["values"]) <
                  min(sign * v for v in base["values"]))
    if spread > bound:
        return ("better" if all_better else "unresolved"), delta
    if delta > bound:
        return "worse", delta
    return ("better" if -delta > spread and all_better
            else "within bound"), delta


def compare(base_path, head_path):
    base = json.loads(Path(base_path).read_text())["workloads"]
    head = json.loads(Path(head_path).read_text())["workloads"]
    worse = False
    for w in WORKLOADS:
        if w not in base or w not in head:
            print(f"\n== {w}: missing from one side")
            continue
        print(f"\n== {w}")
        print(f"  {'metric':<14}{'unit':>8}  {'base value [q1, q3]':<34}"
              f"{'head value [q1, q3]':<34}{'worse by':>9}  verdict")
        for name, (unit, better, bound) in E2E.items():
            b = base[w]["end_to_end"].get(name)
            h = head[w]["end_to_end"].get(name)
            if not b or not h:
                continue
            v, delta = verdict(b, h, better, bound)
            worse |= v == "worse"

            def cell(s):
                return f"{s['value']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
            print(f"  {name:<14}{unit:>8}  {cell(b):<34}{cell(h):<34}"
                  f"{delta:>+9.1%}  {v}")
        print(f"  {'per-layer':<26}{'base':>14}{'head':>14}{'change':>9}")
        for name, b in base[w]["per_layer"].items():
            h = head[w]["per_layer"].get(name)
            if h is None:
                continue
            change = (f"{(h['value'] - b['value']) / b['value']:+9.1%}"
                      if b["value"] else f"{'':>9}")
            print(f"  {name:<26}{b['value']:>14.6g}{h['value']:>14.6g}"
                  f"{change}")
    return 1 if worse else 0


def main():
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    # rep or build in flight instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
