#!/usr/bin/env python3
"""Run the benchmark over several seeds and report how steady it is.

Usage, from the repository root:

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--log PATH] [--against PATH]

Runs go seed by seed, and within a seed workload by workload, so a slow
drift of the host's speed reaches every workload alike instead of only the
one measured while it happened.

For every workload and end-to-end metric it prints the median over the
seeds and the quartile spread: the distance between the first and third
quartile (Python's statistics.quantiles(values, n=4)) as a share of the
median. A spread is flagged when it exceeds the metric's bound in
BENCHMARK.json, and noted when it exceeds a third of it. With --against,
each median is also compared with the median of an earlier log, and
flagged when it is worse by more than the bound.

Raw results are appended as JSON lines to --log (default
$CARGO_TARGET_DIR/steady.jsonl), with the share of CPU time a hypervisor
stole from the virtual machine during each run (from /proc/stat), since
stolen time inflates every wall-clock metric.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartile_spread(values):
    """(Q3 - Q1) / median of `values`, as statistics.quantiles gives them."""
    if len(values) < 2:
        raise ValueError("need at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        raise ValueError("median is zero")
    return (q3 - q1) / abs(med)


def last_json_line(text):
    """The JSON object on the last non-empty line of `text`."""
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise ValueError("no output")
    result = json.loads(lines[-1])
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise ValueError("result lacks " + key)
    return result


def per_seed(records):
    """{workload: {metric: [one value per seed, in seed order]}} from log
    records; a seed found several times (a log appended to by several
    sets) counts once, at its median."""
    runs = {}
    for r in records:
        for name, m in r["result"]["metrics"].items():
            by_seed = runs.setdefault(r["workload"], {}).setdefault(name, {})
            by_seed.setdefault(r["seed"], []).append(m["value"])
    return {
        wl: {name: [statistics.median(v) for _, v in sorted(by_seed.items())]
             for name, by_seed in metrics.items()}
        for wl, metrics in runs.items()
    }


def worsening(old, new, better):
    """How much worse `new` is than `old`, as a share of `old` (negative
    when it is better)."""
    change = (new - old) / abs(old)
    return -change if better == "higher" else change


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat, or None without /proc."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def seed_range(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(wl, seed, seconds):
    """One benchmark run: (result or None, exit code, steal share, stderr)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    before = cpu_ticks()
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    after = cpu_ticks()
    steal = None
    if before and after and after[1] > before[1]:
        steal = (after[0] - before[0]) / (after[1] - before[1])
    try:
        result = last_json_line(out.stdout)
    except ValueError as e:
        return None, out.returncode, steal, f"no result ({e})\n{out.stderr[-2000:]}"
    return result, out.returncode, steal, out.stderr


def main(argv):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--log")
    ap.add_argument("--against")
    args = ap.parse_args(argv)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    log_path = args.log or os.path.join(target, "steady.jsonl")
    os.makedirs(os.path.dirname(os.path.abspath(log_path)), exist_ok=True)
    workloads = args.workloads.split(",")
    ok = True
    records = []
    with open(log_path, "a") as log:
        for seed in seed_range(args.seeds):
            for wl in workloads:
                result, code, steal, err = run_once(wl, seed, bench["run_seconds"])
                if result is None:
                    print(f"{wl} seed {seed}: exit {code}, {err}")
                    ok = False
                    continue
                record = {"workload": wl, "seed": seed, "exit": code, "steal": steal,
                          "result": result}
                log.write(json.dumps(record) + "\n")
                log.flush()
                records.append(record)
                summary = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
                shown = steal if steal is None else round(steal, 3)
                print(f"{wl} seed {seed} steal={shown} {summary}", flush=True)
                if code != 0 or not result["correct"]:
                    print(f"{wl} seed {seed}: exit {code}, correct={result['correct']}")
                    ok = False
    earlier = {}
    if args.against:
        with open(args.against) as fh:
            earlier = per_seed(json.loads(l) for l in fh if l.strip())
    for wl, values in per_seed(records).items():
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            spread = quartile_spread(vals)
            med = statistics.median(vals)
            bound = metrics.get(name, {}).get("bound")
            flags = []
            if bound is not None and spread > bound:
                flags.append("SPREAD OVER BOUND")
                ok = False
            elif bound is not None and spread > bound / 3:
                flags.append("spread over a third of the bound")
            line = (f"{wl:12s} {name:22s} n={len(vals):2d} median={med:12.6g} "
                    f"spread={spread:7.4f} bound={bound}")
            old = earlier.get(wl, {}).get(name)
            if old and bound is not None:
                worse = worsening(statistics.median(old), med, metrics[name]["better"])
                line += f" worse_than_earlier={worse:+.4f}"
                if worse > bound:
                    flags.append("MEDIAN WORSE BY MORE THAN THE BOUND")
                    ok = False
            print(line, " ".join(flags))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
