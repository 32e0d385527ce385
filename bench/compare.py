"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python bench/compare.py bench/out/parent/*.json bench/out/change/*.json

The files are split into sets by directory: the first directory named is
set A (the baseline), the second set B.  For every (workload, metric)
pair it prints each set's median and quartiles, the change B - A as a
share of A's median, the metric's bound from ``BENCHMARK.json`` and,
where both sets ran the same seeds, the share of those pairs B won (ties
count for neither).  Verdicts:

* ``REGRESSION`` — B is worse than A by more than the bound, and both
  sets' spreads (quartile distance over median) are within the bound;
* ``unresolved`` — a spread is wider than the bound, so the runs cannot
  tell, unless every B run beats every A run;
* ``better`` — B won at least 9 in 10 pairs and the medians differ by
  more than A's quartile distance;
* ``ok`` — none of the above; ``-`` for per-layer metrics, which have no bound.

Runs marked invalid (a late load generator) are left out and listed.
Exit status: 0, 1 if any pair is a regression or any run produced a
wrong output, 2 if the sets' environments differ or the input is unusable.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.stats import quartiles, relative_spread

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Environment fields that legitimately differ between the two sets.
UNCOMPARED_ENV = ("commit", "seed")

#: Share of pairs a set must win before it counts as better.
WIN_SHARE = 0.9


def load_sets(paths: list[Path]) -> tuple[list[dict], list[dict]]:
    by_dir: dict[Path, list[dict]] = {}
    for path in paths:
        result = json.loads(path.read_text())
        result["file"] = str(path)
        by_dir.setdefault(path.resolve().parent, []).append(result)
    if len(by_dir) != 2:
        raise ValueError(f"expected result files from exactly 2 directories, got {len(by_dir)}")
    first, second = by_dir.values()
    return first, second


def env_key(result: dict) -> str:
    env = {k: v for k, v in result["env"].items() if k not in UNCOMPARED_ENV}
    return json.dumps(env, sort_keys=True)


def env_differences(a: list[dict], b: list[dict]) -> list[str]:
    """One line per workload whose runs do not share one environment."""
    envs: dict[str, set[str]] = defaultdict(set)
    for result in a + b:
        envs[result["workload"]].add(env_key(result))
    return [
        f"{workload}: {len(keys)} different environments: " + " | ".join(sorted(keys))
        for workload, keys in sorted(envs.items())
        if len(keys) > 1
    ]


def verdict(
    a: dict[int, float], b: dict[int, float], better: str, bound: float | None
) -> tuple[float, str, str]:
    """``(relative change, pairs won, verdict)`` of B against A, values keyed by seed."""
    sign = 1.0 if better == "higher" else -1.0
    a_q1, a_med, a_q3 = quartiles(list(a.values()))
    _, b_med, _ = quartiles(list(b.values()))
    change = (b_med - a_med) / abs(a_med) if a_med else 0.0
    seeds = sorted(set(a) & set(b))
    wins = sum(sign * (b[s] - a[s]) > 0 for s in seeds)
    won = f"{wins}/{len(seeds)}" if seeds else "-"
    if bound is None:
        return change, won, "-"
    if better == "higher":
        all_better = min(b.values()) > max(a.values())
    else:
        all_better = max(b.values()) < min(a.values())
    spread = max(relative_spread(list(a.values())), relative_spread(list(b.values())))
    if spread > bound:
        return change, won, "better" if all_better else "unresolved"
    if -sign * change > bound:
        return change, won, "REGRESSION"
    if seeds and wins >= WIN_SHARE * len(seeds) and abs(b_med - a_med) > a_q3 - a_q1:
        return change, won, "better"
    return change, won, "ok"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", type=Path, help="result JSON files of both sets")
    args = parser.parse_args(argv)
    try:
        set_a, set_b = load_sets(args.results)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC.read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    differences = env_differences(set_a, set_b)
    if differences:
        print("error: the sets were measured in different environments:", file=sys.stderr)
        for line in differences:
            print(f"  {line}", file=sys.stderr)
        return 2

    status = 0
    values: dict[tuple[str, str], list[dict[int, float]]] = defaultdict(lambda: [{}, {}])
    for side, results in enumerate((set_a, set_b)):
        for result in results:
            if not result["valid"]:
                print(f"skipped invalid run {result['file']}: {'; '.join(result['notes'])}")
                continue
            if not result["correct"]:
                print(f"WRONG OUTPUT in {result['file']}: {result['failed']} failed, "
                      f"{'; '.join(result['errors'])}")
                status = 1
            for name, entry in result["metrics"].items():
                values[(result["workload"], name)][side][result["seed"]] = entry["value"]

    header = (f"{'workload':<18} {'metric':<28} {'A median [q1, q3]':>30} "
              f"{'B median [q1, q3]':>30} {'change':>8} {'bound':>6} {'won':>6}  verdict")
    print(header)
    for (workload, name), (a, b) in sorted(values.items()):
        if not a or not b or name not in declared:
            continue
        metric = declared[name]
        bound = metric.get("bound")
        change, won, outcome = verdict(a, b, metric["better"], bound)
        if outcome == "REGRESSION":
            status = 1
        cells = []
        for side in (a, b):
            q1, med, q3 = quartiles(list(side.values()))
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(side)}")
        print(f"{workload:<18} {name:<28} {cells[0]:>30} {cells[1]:>30} "
              f"{change:>+8.2%} {'' if bound is None else f'{bound:.0%}':>6} {won:>6}  {outcome}")
    return status


if __name__ == "__main__":
    sys.exit(main())
