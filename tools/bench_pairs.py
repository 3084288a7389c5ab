#!/usr/bin/env python3
"""Measure a parent commit against a change with perfbench, in pairs.

    python3 tools/bench_pairs.py --workload steady --pairs 10 \\
        [--seed 1] [--seconds 25] [--change REV] [--held-out-seed 7919] \\
        [--trace-pairs 3] [--claim sessions_per_cpu_s] [--what TEXT] \\
        [--parent REV] [--workdir DIR]

Measures --change (default HEAD) against its first parent, or against
--parent when the change spans several commits; for uncommitted work, pass
`--change $(git stash create)` after `git add -A`. Exports each
commit with `git archive` into its own directory under --workdir (default
`.bench_pairs/`), so the working tree is never touched and each side builds
its own `.bench_build/`. It then runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` as N
alternating pairs: the parent runs first in even pairs, the change in odd
ones. --held-out-seed runs N more pairs on that seed, and --trace-pairs
runs that many traced pairs (`--trace 1`) for the per-layer split.

Writes `BENCH_<workload>.json` at the repository root, in the
shape of `BENCH_loopback.json`: the machine, the command, both commits,
each side's runs with their median and quartiles, and how many pairs the
change won on every metric whose direction `BENCHMARK.json` declares. With
--claim it also states whether that metric's gain holds by the benchmark's
rule: the change wins at least nine pairs in ten and the medians differ by
more than the parent's interquartile range.

Keep the machine otherwise idle while it runs. Exits non-zero when a run
fails or reports `"correct": false`.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Metrics fixed by simulated time alone: on the simulated workloads they
# must read the same on both sides when a change claims to move no event.
SIM_TIME_METRICS = ["session_ok_frac", "startup_p50_ms", "startup_tail_ms",
                    "rebuffer_ratio", "interaction_p50_ms",
                    "interaction_tail_ms", "failovers_per_session"]


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def export(rev: str, workdir: Path) -> Path:
    """A checkout of \\p rev under \\p workdir, exported once and reused."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    dest = workdir / sha[:12]
    if not (dest / "perfbench" / "run.py").is_file():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            sys.exit(f"bench_pairs: git archive {sha} failed")
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.exit(f"bench_pairs: {' '.join(cmd)} failed in {checkout}")
    record, result = {}, None
    for line in proc.stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "record" in obj:
            record = obj["record"]
        if "metrics" in obj:
            result = obj
    if result is None:
        sys.exit(f"bench_pairs: no result line from {checkout}")
    if not result.get("correct", False):
        sys.exit(f"bench_pairs: run in {checkout} reported correct=false")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    units = {k: v.get("unit", "") for k, v in result["metrics"].items()}
    return {"values": values, "units": units, "record": record,
            "attempted": result.get("attempted"),
            "failed": result.get("failed")}


def run_pairs(sides: dict, n: int, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """n alternating pairs; returns each side's runs in pair order."""
    runs = {"parent": [], "change": []}
    for i in range(n):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run_once(sides[side], workload, seed, seconds, trace)
            runs[side].append(r)
            print(f"bench_pairs: seed {seed} trace {trace} pair {i + 1}/{n} "
                  f"{side}: " + ", ".join(
                      f"{k}={r['values'][k]:.4g}"
                      for k in ("sessions_per_cpu_s", "us_per_event",
                                "peak_rss_mb") if k in r["values"]),
                  file=sys.stderr, flush=True)
    return runs


def summary(runs: list) -> dict:
    out = {}
    for name in runs[0]["values"]:
        vals = [r["values"][name] for r in runs if name in r["values"]]
        if len(vals) != len(runs):
            continue
        q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                     else (vals[0], vals[0], vals[0]))
        out[name] = {"median": round(statistics.median(vals), 4),
                     "q1": round(q1, 4), "q3": round(q3, 4),
                     "unit": runs[0]["units"].get(name, ""),
                     "runs": [round(v, 4) for v in vals]}
    return out


def better(direction: str, change: float, parent: float) -> bool:
    return change < parent if direction == "lower" else change > parent


def pairs_won(runs: dict, directions: dict) -> dict:
    won = {}
    n = len(runs["parent"])
    for name, direction in directions.items():
        p = [r["values"].get(name) for r in runs["parent"]]
        c = [r["values"].get(name) for r in runs["change"]]
        if None in p or None in c:
            continue
        k = sum(better(direction, cv, pv) for pv, cv in zip(p, c))
        won[name] = f"{k}/{n}"
    return won


def identical(runs: dict) -> dict:
    """Whether each sim-time metric reads the same in every run of both
    sides, and events_fired in every run that ran as many simulations (a
    run repeats sub-seeds until its time is up, so the total follows the
    simulation count)."""
    out = {}
    every = runs["parent"] + runs["change"]
    for name in SIM_TIME_METRICS:
        vals = {r["values"].get(name) for r in every}
        out[name] = len(vals) == 1
    fired = {}
    for r in every:
        fired.setdefault(r["record"].get("simulations"), set()).add(
            r["record"].get("events_fired"))
    out["events_fired"] = all(len(v) == 1 for v in fired.values())
    return out


def claim_verdict(claim: str, direction: str, runs: dict) -> dict:
    p = [r["values"][claim] for r in runs["parent"]]
    c = [r["values"][claim] for r in runs["change"]]
    n = len(p)
    wins = sum(better(direction, cv, pv) for pv, cv in zip(p, c))
    q1, _, q3 = statistics.quantiles(p, n=4)
    gap = statistics.median(c) - statistics.median(p)
    if direction == "lower":
        gap = -gap
    met = wins * 10 >= 9 * n and gap > (q3 - q1)
    return {"metric": claim, "pairs_won": f"{wins}/{n}",
            "median_gain": round(gap, 4),
            "median_gain_pct": round(100 * gap / statistics.median(p), 2),
            "parent_iqr": round(q3 - q1, 4), "met": met}


def machine(record: dict) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": record.get("cpu_model", cpu),
            "vcpus": os.cpu_count(),
            "compiler": record.get("compiler", ""),
            "build_type": record.get("build_type", "")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: BENCHMARK.json's run_seconds")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--change", default="HEAD")
    ap.add_argument("--parent", default=None,
                    help="default: the change's first parent")
    ap.add_argument("--held-out-seed", type=int, default=None)
    ap.add_argument("--trace-pairs", type=int, default=0)
    ap.add_argument("--claim", default=None,
                    help="end-to-end metric whose gain the change claims")
    ap.add_argument("--what", default="", help="what the change does")
    ap.add_argument("--workdir", default=str(ROOT / ".bench_pairs"))
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    if args.claim and args.claim not in directions:
        sys.exit(f"bench_pairs: {args.claim} is not an end-to-end metric")

    change_rev = args.change
    parent_rev = args.parent or change_rev + "^"
    workdir = Path(args.workdir)
    sides = {"parent": export(parent_rev, workdir),
             "change": export(change_rev, workdir)}
    for side, checkout in sides.items():
        print(f"bench_pairs: building {side} in {checkout}", file=sys.stderr,
              flush=True)
        run_once(checkout, args.workload, args.seed, 1, 0)

    runs = run_pairs(sides, args.pairs, args.workload, args.seed, seconds, 0)
    command = (f"python3 perfbench/run.py --workload {args.workload} "
               f"--seed {args.seed} --seconds {seconds:g} --trace 0")
    out = {
        "workload": args.workload,
        "what": args.what,
        "command": command,
        "parent_commit": git("rev-parse", "--short", parent_rev),
        "change_commit": git("rev-parse", "--short", change_rev),
        "method": (f"tools/bench_pairs.py: {args.pairs} alternating pairs "
                   "(parent first in even pairs, change first in odd "
                   "pairs), each commit exported with git archive and "
                   "building its own .bench_build/; medians and quartiles "
                   "(statistics.quantiles, exclusive) over each side's "
                   "runs."),
        "date": datetime.date.today().isoformat(),
        "machine": machine(runs["parent"][0]["record"]),
        "parent": summary(runs["parent"]),
        "change": summary(runs["change"]),
        "pairs_change_better": pairs_won(runs, directions),
        "events_fired": {
            side: [[r["record"].get("simulations"),
                    r["record"].get("events_fired")] for r in runs[side]]
            for side in ("parent", "change")},
        "identical_across_sides": identical(runs),
        "correct": True,
    }
    if args.claim:
        out["claim"] = claim_verdict(args.claim, directions[args.claim], runs)

    if args.held_out_seed is not None:
        held = run_pairs(sides, args.pairs, args.workload, args.held_out_seed, seconds,
                         0)
        out["held_out"] = {
            "seed": args.held_out_seed,
            "pairs": args.pairs,
            "parent": summary(held["parent"]),
            "change": summary(held["change"]),
            "pairs_change_better": pairs_won(held, directions),
            "identical_across_sides": identical(held),
        }
        if args.claim:
            out["held_out"]["claim"] = claim_verdict(
                args.claim, directions[args.claim], held)

    if args.trace_pairs > 0:
        traced = run_pairs(sides, args.trace_pairs, args.workload, args.seed,
                           seconds, 1)
        parent, change = summary(traced["parent"]), summary(traced["change"])
        out["traced"] = {
            "command": command[:-1] + "1",
            "pairs": args.trace_pairs,
            "median": {name: {"parent": parent[name]["median"],
                              "change": change[name]["median"],
                              "unit": parent[name]["unit"]}
                       for name in parent if name in change},
        }

    dest = ROOT / f"BENCH_{args.workload}.json"
    dest.write_text(json.dumps(out, indent=2) + "\n")
    print(f"bench_pairs: wrote {dest}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
