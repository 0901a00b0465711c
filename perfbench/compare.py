#!/usr/bin/env python3
"""bench-diff: compare two sets of perfbench results.

Each set is a directory of captured standard outputs of
`perfbench` runs, one file per run (any name). A run's file holds a
`record: {...}` line naming its workload, seed and trace flag, and ends
with the result JSON line. Produce a set with, for example:

    for seed in 1 2 3 4 5 6 7 8 9 10; do
      cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload rank_batch --seed $seed --seconds 25 --trace 0 > runs/parent/rank_batch-$seed.log
    done

Then:

    python3 perfbench/compare.py runs/parent runs/change [--bench BENCHMARK.json]

Results are joined on (workload, metric). For each pair the script
prints both sides' median and quartiles, the share of runs the change
won (runs are paired by seed, or by file order when the sets share no
seed; ties count for neither side) and, for
end-to-end metrics, a verdict against the metric's bound in
BENCHMARK.json:

- improved:   the change wins at least 9/10 of the pairs and the
              medians differ, in the better direction, by more than
              the parent's own quartile spread;
- no worse:   the change's median is within the bound of the parent's,
              and the parent's spread is within the bound;
- worse:      the change's median is worse than the bound allows;
- unresolved: the parent's spread is wider than the bound (unless every
              change run beats every parent run), or too few runs.

Per-layer metrics (traced runs) have no bound; they get medians and the
ratio only. Measure both sides with the same benchmark code and
settings, alternating which side runs first.
"""

import argparse
import json
import os
import statistics
import sys


def load_set(directory):
    """{(workload, trace): {seed: metrics}} from a directory of logs."""
    out = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        record, result = None, None
        with open(path, encoding="utf-8", errors="replace") as f:
            for line in f:
                line = line.strip()
                if line.startswith("record: "):
                    record = json.loads(line[len("record: "):])
                elif line.startswith("{") and line.endswith("}"):
                    try:
                        result = json.loads(line)
                    except json.JSONDecodeError:
                        pass
        if record is None or result is None:
            print(f"skipping {path}: no record or result line", file=sys.stderr)
            continue
        if not result.get("correct", False):
            print(f"skipping {path}: run failed its correctness gates", file=sys.stderr)
            continue
        key = (record["workload"], bool(record["trace"]))
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        out.setdefault(key, {})[record["seed"]] = metrics
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a, b, bound, better, wins, pairs):
    """The verdict for one metric, as listed in the module docstring."""
    if len(a) < 2 or len(b) < 2:
        return "unresolved (too few runs)"
    q1, med_a, q3 = quartiles(a)
    med_b = statistics.median(b)
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (med_b - med_a)  # > 0 means the change is better
    spread = q3 - q1
    if pairs and wins >= 0.9 * pairs and gain > spread:
        return "improved"
    all_better = all(sign * (y - x) > 0 for x in a for y in b)
    if med_a and spread / abs(med_a) > bound and not all_better:
        return "unresolved (parent spread %.3f > bound %.3f)" % (spread / abs(med_a), bound)
    if -gain > bound * abs(med_a):
        return "worse (by %.3f of the parent median, bound %.3f)" % (-gain / abs(med_a), bound)
    return "no worse"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="directory of the parent's run logs")
    ap.add_argument("change", help="directory of the change's run logs")
    ap.add_argument("--bench", default="BENCHMARK.json", help="benchmark definition")
    args = ap.parse_args()

    with open(args.bench, encoding="utf-8") as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    parent, change = load_set(args.parent), load_set(args.change)

    header = f"{'workload':<15} {'metric':<28} {'parent q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>7}  verdict"
    print(header)
    print("-" * len(header))
    for key in sorted(set(parent) & set(change)):
        workload, traced = key
        pa, ch = parent[key], change[key]
        names = sorted({n for runs in pa.values() for n in runs} & {n for runs in ch.values() for n in runs})
        for name in names:
            spec = per_layer.get(name) if traced else e2e.get(name)
            if spec is None:
                continue
            a = [runs[name] for runs in pa.values() if name in runs]
            b = [runs[name] for runs in ch.values() if name in runs]
            better = spec["better"]
            sign = 1.0 if better == "higher" else -1.0
            seeds = sorted(set(pa) & set(ch))
            if seeds:
                pairs = [(pa[s][name], ch[s][name]) for s in seeds if name in pa[s] and name in ch[s]]
            else:  # no shared seeds: pair runs in file order
                pairs = list(zip(a, b))
            wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
            qa, qb = quartiles(a), quartiles(b)
            fa = "%.4g/%.4g/%.4g" % qa
            fb = "%.4g/%.4g/%.4g" % qb
            if traced:
                ratio = qb[1] / qa[1] if qa[1] else float("nan")
                v = "ratio %.3f (%s is better; no bound)" % (ratio, better)
            else:
                v = verdict(a, b, spec["bound"], better, wins, len(pairs))
            print(f"{workload:<15} {name:<28} {fa:>32} {fb:>32} {wins:>3}/{len(pairs):<3}  {v}")
    missing = set(parent) ^ set(change)
    for workload, traced in sorted(missing):
        print(f"{workload} (trace={int(traced)}): present on one side only", file=sys.stderr)


if __name__ == "__main__":
    main()
