"""Pair the benchmark runs of two checkouts into one committed record.

    python3 tools/bench_pairs.py --label NAME \
        --parent PARENT_DIR --parent-commit SHA \
        --change CHANGE_DIR --change-commit SHA

``benchmarks/bench.py`` leaves one JSON record per run under
``.bench_out/`` of the checkout it ran from.  Run the parent and the
change on the same seeds, alternating which side goes first, then point
this script at both checkouts.  It writes ``BENCH_<NAME>.json`` at the
root of this repository with, per workload:

- ``runs``: every untraced run's end-to-end metrics and correctness, by
  seed and side, with its place in the run order (the records'
  modification times, over both checkouts) and the machine state the
  run recorded: the one-minute load average before and after it
  (``loadavg_1m_before``, ``loadavg_1m_after``) and the process's CPU
  use over the timed work (``process.cpu_util``), null where a record
  lacks one.  A reading that moves with the load tells drift from a
  regression;
- ``summary``: per end-to-end metric, each side's median and quartiles,
  the change's wins, losses and ties over the seed pairs, judged by the
  metric's direction in ``BENCHMARK.json``, and a no-regression
  ``verdict`` against the metric's relative ``bound`` there: ``worse``
  when the change's median is worse than the parent's by more than the
  bound; else ``unresolved`` when the parent's quartile spread exceeds
  the bound times its median and not every change run beats every
  parent run; else ``ok``;
- ``traced``: the per-layer metrics of each side's ``--trace 1`` runs;
- ``traced_summary``: per per-layer metric that both sides report, its
  direction from ``BENCHMARK.json`` and each side's median and quartiles
  over that side's traced seeds.  One traced run per side cannot show a
  layer's change, as single readings move by tens of percent.

Only recipe-scale records are read, and only seeds that both checkouts
ran are paired.  A checkout with two records of the same workload, seed
and trace (a rerun, or a round of another commit) is refused, since the
script could not tell which one belongs to the commit it is given.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
SCALE = "recipe"
# env keys that describe the machine during one run, not the checkout
MACHINE = ("loadavg_1m_before", "loadavg_1m_after", "process.cpu_util")


class DuplicateRun(Exception):
    pass


def read_records(checkout: str) -> list[dict]:
    """Every run record of ``checkout`` at SCALE, with its mtime.

    Raises DuplicateRun naming the files when two records share a
    workload, seed and trace."""
    records, paths = [], {}
    for path in sorted(glob.glob(os.path.join(checkout, ".bench_out", "*.json"))):
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        if record.get("scale") != SCALE:
            continue
        key = (record["workload"], record["seed"], record["trace"])
        if key in paths:
            raise DuplicateRun(f"{paths[key]} and {path} are both a run of "
                               "workload {} seed {} trace {}".format(*key))
        paths[key] = path
        record["mtime"] = os.path.getmtime(path)
        records.append(record)
    return records


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def metrics_of(record: dict) -> dict:
    return {name: m["value"] for name, m in record["result"]["metrics"].items()}


def verdict(parent: list[float], change: list[float], sign: float,
            bound: float) -> str:
    """``worse``, ``unresolved`` or ``ok``: see the module docstring."""
    p, c = quartiles(parent), quartiles(change)
    scale = bound * abs(p["median"])
    if sign * (c["median"] - p["median"]) < -scale:
        return "worse"
    if p["q3"] - p["q1"] > scale and not (
            min(sign * x for x in change) > max(sign * x for x in parent)):
        return "unresolved"
    return "ok"


def summarize(runs: list[dict], spec: dict) -> dict:
    summary = {}
    for metric, m in spec.items():
        pairs = [(run["parent"]["metrics"][metric], run["change"]["metrics"][metric])
                 for run in runs
                 if metric in run["parent"]["metrics"] and metric in run["change"]["metrics"]]
        if not pairs:
            continue
        sign = 1.0 if m["better"] == "higher" else -1.0
        gains = [sign * (change - parent) for parent, change in pairs]
        parent, change = [p for p, _ in pairs], [c for _, c in pairs]
        summary[metric] = {
            "better": m["better"],
            "parent": quartiles(parent),
            "change": quartiles(change),
            "wins": sum(g > 0 for g in gains),
            "losses": sum(g < 0 for g in gains),
            "ties": sum(g == 0 for g in gains),
            "bound": m["bound"],
            "verdict": verdict(parent, change, sign, m["bound"]),
        }
    return summary


def summarize_traced(traced: dict, layers: dict) -> dict:
    summary = {}
    for metric, m in layers.items():
        values = {side: [run["metrics"][metric] for run in traced[side]
                         if metric in run["metrics"]] for side in SIDES}
        if all(values.values()):
            summary[metric] = {"better": m["better"],
                               **{side: quartiles(values[side]) for side in SIDES}}
    return summary


def pair_up(records: dict, spec: dict, layers: dict) -> dict:
    """Per workload: the paired untraced runs, their summary, the traced
    runs and theirs."""
    order = sorted((r["mtime"], side, r["workload"], r["seed"], r["trace"])
                   for side in SIDES for r in records[side])
    place = {key[1:]: i for i, key in enumerate(order)}
    out: dict = {}
    for workload in sorted({r["workload"] for side in SIDES for r in records[side]}):
        by_side = {side: {(r["seed"], r["trace"]): r for r in records[side]
                          if r["workload"] == workload} for side in SIDES}
        runs = []
        for seed, trace in sorted(set(by_side["parent"]) & set(by_side["change"])):
            if trace != 0:
                continue
            run = {"seed": seed}
            for side in SIDES:
                record = by_side[side][(seed, trace)]
                run[side] = {"order": place[(side, workload, seed, trace)],
                             "correct": record["result"]["correct"],
                             "attempted": record["result"]["attempted"],
                             "failed": record["result"]["failed"],
                             "metrics": metrics_of(record),
                             **{key: record["env"].get(key) for key in MACHINE}}
            run["first"] = min(SIDES, key=lambda s: run[s]["order"])
            runs.append(run)
        traced = {side: [{"seed": seed, "order": place[(side, workload, seed, 1)],
                          "correct": r["result"]["correct"], "metrics": metrics_of(r)}
                         for (seed, trace), r in sorted(by_side[side].items()) if trace == 1]
                  for side in SIDES}
        out[workload] = {"runs": runs, "summary": summarize(runs, spec),
                         "traced": traced,
                         "traced_summary": summarize_traced(traced, layers)}
    return out


def sides(s: dict) -> str:
    """Each side's median and quartiles from a summary entry, for printing."""
    return "  ".join(f"{side} {s[side]['median']:.4g} [{s[side]['q1']:.4g}, "
                     f"{s[side]['q3']:.4g}]" for side in SIDES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--parent", required=True, help="parent checkout directory")
    parser.add_argument("--change", required=True, help="change checkout directory")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change-commit", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    spec = {m["name"]: m for m in benchmark["end_to_end"]}
    layers = {m["name"]: m for m in benchmark["per_layer"]}
    try:
        records = {side: read_records(getattr(args, side)) for side in SIDES}
    except DuplicateRun as err:
        print(f"bench_pairs: {err}", file=sys.stderr)
        return 2
    for side in SIDES:
        if not records[side]:
            print(f"bench_pairs: no {SCALE} records under "
                  f"{getattr(args, side)}/.bench_out", file=sys.stderr)
            return 2
    environments = {side: sorted({json.dumps({k: v for k, v in r["env"].items()
                                              if k not in MACHINE},
                                             sort_keys=True) for r in records[side]})
                    for side in SIDES}
    seconds = sorted({r["seconds"] for side in SIDES for r in records[side]})
    result = {
        "label": args.label,
        "command": "python3 benchmarks/bench.py --workload W --seed S "
                   f"--seconds {'/'.join(f'{s:g}' for s in seconds)} --trace T",
        "scale": SCALE,
        "parent": {"commit": args.parent_commit,
                   "env": [json.loads(e) for e in environments["parent"]]},
        "change": {"commit": args.change_commit,
                   "env": [json.loads(e) for e in environments["change"]]},
        "workloads": pair_up(records, spec, layers),
    }
    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload, data in result["workloads"].items():
        print(f"{workload}: {len(data['runs'])} pairs")
        for metric, s in data["summary"].items():
            print(f"  {metric:<20} {sides(s)}  wins {s['wins']}/{len(data['runs'])}  "
                  f"{s['verdict']}")
        for metric, s in data["traced_summary"].items():
            print(f"  {metric:<34} {sides(s)}  traced {s['parent']['n']}/"
                  f"{s['change']['n']}  {s['better']} is better")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
