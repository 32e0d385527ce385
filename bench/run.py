"""Run the benchmark: each workload in its own child process.

    python bench/run.py --seed 1                       # every workload, end-to-end metrics
    python bench/run.py --seed 1 --trace               # per-layer metrics instead
    python bench/run.py --workload serve_steady --seed 3 --seconds 10 --trace 0

Workloads, metrics, units and the run length come from ``BENCHMARK.json``
at the root of the checkout.  Each metric is printed as ``workload metric
value unit``; one result JSON per workload is written under ``--out``
(default ``bench/out/``), and a traced run also writes its spans to
``trace-<workload>-<seed>.json`` there.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
printed even when a workload's process crashed or timed out (that
workload then counts one failed operation and has no metrics).

Exit status: 0 when every output matched its reference, 1 when one did
not (or a traced run's span guards failed, or a workload's process
failed), 2 when the checkout has no ``src/repro`` or the arguments are
wrong.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"

#: A workload's child process is killed after this long.
CHILD_TIMEOUT_S = 170.0

#: Workloads whose own process runs at the BLAS thread count of a
#: scoring-pool worker (workers in the pool), so that in-process
#: comparisons and the GEMM ceiling match what each shard gets.
POOL_PINNED = {"classify_pool2": 2}


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def parse_args(argv: list[str] | None, spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workload", choices=names, help="run only this workload")
    parser.add_argument("--seed", type=int, default=0, help="input seed")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="measured seconds per workload (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): per-layer metrics from a traced run",
    )
    parser.add_argument("--out", type=Path, default=ROOT / "bench" / "out",
                        help="directory for result and trace JSON")
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# Child: measure one workload in this process
# ----------------------------------------------------------------------
def pin_blas(workers: int) -> None:
    """Pin this process's BLAS threads as the scoring pool pins a worker's.

    Must run before numpy is imported.  ``repro.nn.threads`` is loaded
    from its file so that importing it does not import numpy first.
    """
    location = SRC / "repro" / "nn" / "threads.py"
    module_spec = importlib.util.spec_from_file_location("_repro_threads", location)
    threads = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(threads)
    count = str(threads.blas_thread_plan(workers))
    for var in threads.BLAS_ENV_VARS:
        os.environ[var] = count


def assemble(spec: dict, produced: dict, trace: bool) -> tuple[dict, list[str]]:
    """Declared metrics with units; a layer the workload does not run reads 0."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    errors = [f"metric {name} is not declared in BENCHMARK.json"
              for name in produced if name not in {m["name"] for m in declared}]
    metrics = {}
    for metric in declared:
        if metric["name"] not in produced and not trace:
            errors.append(f"end-to-end metric {metric['name']} was not measured")
        value = float(produced.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return metrics, errors


def child(args: argparse.Namespace, spec: dict) -> int:
    work = args.out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.environ["TMPDIR"] = str(work)
    if args.workload in POOL_PINNED:
        pin_blas(POOL_PINNED[args.workload])
    sys.path[:0] = [str(SRC), str(ROOT)]
    from bench import workloads
    from bench.stats import tail_percentile

    try:
        ctx = workloads.Context(ROOT, work, args.seed, args.seconds, bool(args.trace))
        outcome = workloads.WORKLOADS[args.workload](ctx)
        metrics, errors = assemble(spec, outcome.metrics, bool(args.trace))
        errors = outcome.errors + errors
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "seconds": args.seconds,
            "env": workloads.environment(ROOT, args.seed),
            "correct": outcome.failed == 0 and not errors,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "valid": outcome.valid,
            "errors": errors,
            "notes": outcome.notes,
            "metrics": metrics,
            "latency_samples": len(outcome.latencies),
            "latency_tail_percentile": tail_percentile(len(outcome.latencies)),
            "latencies_ms": [round(s * 1e3, 3) for s in outcome.latencies],
        }
        if outcome.spans is not None:
            trace_path = args.out / f"trace-{args.workload}-{args.seed}.json"
            trace_path.write_text(json.dumps(outcome.spans.to_json()))
        args.child.write_text(json.dumps(result, indent=2))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


# ----------------------------------------------------------------------
# Parent: one child per workload, then report
# ----------------------------------------------------------------------
def run_child(args: argparse.Namespace, workload: str) -> dict:
    """The workload's result; a child that crashed or timed out counts as one failed operation."""
    mode = "traced" if args.trace else "plain"
    result_path = args.out / f"{workload}-s{args.seed}-{mode}.json"
    result_path.unlink(missing_ok=True)
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(args.out), "--child", str(result_path),
    ]
    # A session of its own lets a timeout take down the daemon or pool
    # workers the child started along with it.
    process = subprocess.Popen(command, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
    try:
        code = process.wait(timeout=CHILD_TIMEOUT_S)
        error = f"exited with status {code}"
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        code, error = None, f"did not finish within {CHILD_TIMEOUT_S:.0f}s"
    if code == 0 and result_path.exists():
        return json.loads(result_path.read_text())
    return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
            "errors": [error], "notes": []}


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    args.out = args.out.resolve()
    args.out.mkdir(parents=True, exist_ok=True)
    if args.child is not None:
        return child(args, spec)

    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        started = time.monotonic()
        result = results[name] = run_child(args, name)
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} {entry['value']!r} {entry['unit']}")
        for line in result["errors"] + result["notes"]:
            print(f"{name}: {line}", file=sys.stderr)
        print(f"{name}: run took {time.monotonic() - started:.1f}s", file=sys.stderr)

    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": (
            results[names[0]]["metrics"] if args.workload
            else {name: r["metrics"] for name, r in results.items()}
        ),
    }
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
