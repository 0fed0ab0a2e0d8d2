"""Benchmark of cnkit's three computations, end to end and per layer.

    python3 bench/run.py --workload {scan567,census,simulate30} \
        --seed N --seconds S --trace {0,1} [--record-digest]

Runs in one process with one worker, against the library under src/ of
the checkout that holds this file.  Untraced runs (--trace 0) print the
end-to-end metrics; traced runs (--trace 1) print the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A fuller record
of the run goes to .bench_out/ at the root of the checkout.
See bench/README.md for the workloads, the metrics and the seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "reference_digests.json"
SETUP_REPEATS = 5  # at least this many set-up samples per run
SHOW_PROBLEMS = 3  # the full list is in the .bench_out record

# Set-up as a fresh process sees it: importing cnkit, then constructing
# the workload (sieve, ensemble configurations).
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{bench!r}, {src!r}]
import workloads
workloads.WORKLOADS[{name!r}]({seed})
print(time.perf_counter() - t0)
"""


def import_cnkit():
    sys.path.insert(0, str(SRC))
    try:
        import cnkit
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import cnkit from {SRC}: {exc}")
    if Path(cnkit.__file__).resolve().parent != SRC / "cnkit":
        raise SystemExit(f"bench: cnkit imported from {cnkit.__file__}, not from {SRC}")


def setup_seconds(name: str, seed: int) -> float:
    """Set-up seconds of one fresh interpreter."""
    code = SETUP_CHILD.format(bench=str(BENCH), src=str(SRC), name=name, seed=seed)
    done = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise SystemExit(f"bench: set-up child failed:\n{done.stderr}")
    return float(done.stdout)


def run_rounds(wl, deadline: float, context=lambda index: nullcontext(), between=lambda: None):
    """Whole rounds until `deadline`, at least two: each round's outputs and
    the seconds each of its operations took.  Round i runs inside
    context(i); between() runs after every round, untimed."""
    out = []
    index = 0
    while index < 2 or perf_counter() < deadline:
        outputs, times = [], []
        with context(index):
            for op in wl.operations(index):
                t0 = perf_counter()
                outputs.append(op())
                times.append(perf_counter() - t0)
        out.append((outputs, times))
        between()
        index += 1
    return out


def mean_round(rounds) -> float:
    """Seconds per round: the time of all operations over the number of rounds."""
    return sum(sum(times) for _, times in rounds) / len(rounds)


def sieve_ms(limit: int) -> float:
    if not limit:
        return 0.0
    from cnkit.numtheory import sieve_init

    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        sieve_init(limit)
        times.append(perf_counter() - t0)
    return 1e3 * statistics.median(times)


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("scan567", "census", "simulate30"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--record-digest",
        action="store_true",
        help="store this run's output digest as the reference for its workload and seed",
    )
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    import_cnkit()
    import tracer
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    deadline = perf_counter() + args.seconds
    setups = []
    if args.trace:
        # Odd rounds traced, even rounds not: the tracing overhead compares
        # the two under the same machine load.
        tr = tracer.Tracer()
        rounds = run_rounds(
            wl, deadline, context=lambda i: tracer.installed(tr) if i % 2 else nullcontext()
        )
        traced = rounds[1::2]
        overhead_pct = 100.0 * (mean_round(traced) / mean_round(rounds[0::2]) - 1.0)
    else:
        # One fresh interpreter's set-up after every round spreads the
        # set-up samples over the run.
        def measure_setup():
            setups.append(setup_seconds(args.workload, args.seed))

        rounds = run_rounds(wl, deadline, between=measure_setup)
        while len(setups) < SETUP_REPEATS:
            measure_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks, untimed.
    problems = []
    failed = 0
    unexpected = 0
    for index, (outputs, _) in enumerate(rounds):
        for op, found in enumerate(wl.problems(outputs)):
            if found:
                failed += 1
                if op != wl.known_fault:
                    unexpected += 1
                problems.append({"round": index, "op": op, "problems": found})
    rows = [wl.rows(outputs) for outputs, _ in rounds]
    if wl.repeats_exactly and any(r != rows[0] for r in rows):
        unexpected += 1
        problems.append({"round": None, "op": None, "problems": ["rounds differ"]})
    digest = hashlib.sha256("\n".join(rows[0]).encode()).hexdigest()

    items = wl.items(rounds[0][0])
    round_s = mean_round(rounds)
    if args.trace:
        metrics = {"numtheory.sieve_ms": (sieve_ms(wl.sieve_limit), "ms")}
        metrics.update(tracer.layer_metrics(tr, len(traced), items))
        metrics["trace.overhead_pct"] = (overhead_pct, "%")
    else:
        metrics = {
            "throughput": (items / round_s, "1/s"),
            "wall_s": (statistics.median(setups) + round_s, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    key = args.workload if wl.repeats_exactly else f"{args.workload}@{args.seed}"
    reference = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if args.record_digest:
        reference[key] = digest
        DIGESTS.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    ref = reference.get(key)
    verdict = "no reference" if ref is None else "matches" if ref == digest else "differs"

    attempted = len(rounds) * len(rounds[0][0])
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "rounds": len(rounds),
        "op_seconds": [t for _, t in rounds],
        "setup_seconds": setups,
        "items_per_round": items,
        "digest": digest,
        "digest_reference": verdict,
        "problems": problems,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n")

    print(f"environment {json.dumps(record['environment'])}")
    print(f"rounds {len(rounds)}, {items} items per round, mean round {round_s:.4f} s")
    print(f"digest {digest} (reference: {verdict})")
    for p in problems[:SHOW_PROBLEMS]:
        print(f"failed: round {p['round']} op {p['op']}: {'; '.join(p['problems'])}")
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
