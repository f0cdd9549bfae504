"""Perf benchmark of the Kindle simulator: ``python3 perf/run.py``.

Usage::

    python3 perf/run.py [--workload NAME] [--seed N] [--seconds S]
                        [--trace 0|1] [--smoke] [--out DIR]

With ``--workload`` the named workload runs in this interpreter; without
it, each workload runs one after another in a fresh interpreter of its
own.  A run:

1. times set-up (input generation plus building one system) several
   times and keeps the median as ``setup_s``;
2. runs timed passes, each on a freshly built system over the same
   inputs with ``gc.collect()`` before it, until at least five passes and
   ``--seconds`` of pass time are done; ``ops_per_s`` is the median pass;
3. with ``--trace 1``, installs :class:`trace.LayerTracer` and runs one
   more set-up and pass under it for the per-layer metrics;
4. checks every pass (traced included) against the digest pinned in
   ``expected.json`` and against the other passes;
5. prints every metric with its unit, writes one JSON file per run under
   ``--out``, and prints a one-line JSON result last.

The exit status is 0 only when every pass was correct.  ``--smoke`` runs
one set-up and one pass at about 1/20 size.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from hashlib import sha256
from pathlib import Path
from typing import Dict, List, Optional

from trace import LAYERS, LayerTracer

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
SRC = ROOT / "src"
EXPECTED = PERF_DIR / "expected.json"

WORKLOADS = ("traffic", "nvm_stream", "churn_persistent", "churn_rebuild")
DEFAULT_SEED = 2024
DEFAULT_SECONDS = 20.0

MIN_PASSES = 5
#: Stop adding passes past this much pass time, so a slow host still
#: finishes a run well inside three minutes.
MAX_PASS_SECONDS = 100.0

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {"ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mib": "MiB"}

#: Simulated counters reported as per-layer metrics: metric -> stats key.
STAT_COUNTS = {
    "mem.nvm_writes": "nvm.writes",
    "gemos.faults": "fault.demand",
    "gemos.walk_aborts": "walk.aborted",
    "gemos.context_switches": "sched.context_switches",
    "persist.checkpoints": "checkpoint.taken",
    "persist.redo_appends": "redo.appends",
    "persist.reclaim_parked": "reclaim.parked",
}
SIM_RATIOS = ("replay.batched_frac", "arch.tlb_miss_ratio", "arch.llc_miss_ratio")

#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.share"] = "ratio"
    PER_LAYER[f"{_layer}.calls"] = "count"
PER_LAYER["unattributed.share"] = "ratio"
PER_LAYER["trace.overhead"] = "ratio"
PER_LAYER.update((name, "ratio") for name in SIM_RATIOS)
PER_LAYER.update((name, "count") for name in STAT_COUNTS)
PER_LAYER["persist.recovery_s"] = "s"

#: Threads a numpy import may start; the benchmark is single-threaded.
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# ----------------------------------------------------------------------
# host record
# ----------------------------------------------------------------------


def git_head() -> Optional[str]:
    """The commit checked out at the repo root, or None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_info() -> Dict[str, object]:
    nproc = os.cpu_count() or 1
    load = os.getloadavg()
    if load[0] > nproc - 1:
        print(
            f"warning: 1-minute load average {load[0]:.2f} is above "
            f"nproc - 1 = {nproc - 1}; timings from this run are noisy",
            file=sys.stderr,
        )
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_head": git_head(),
        "loadavg_start": list(load),
    }


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------


def _ratio(part: int, rest: int) -> float:
    return part / (part + rest) if part + rest else 0.0


def describe(outcome, ops: int, seconds: float) -> Dict[str, object]:
    """Pass record: timing, digest, and the simulated per-layer counts."""
    machine = outcome.machine
    counters = machine.stats.counters
    executed = counters.get("ops.reads", 0) + counters.get("ops.writes", 0)
    counts: Dict[str, float] = {
        "replay.batched_frac": _ratio(outcome.batched_ops, outcome.scalar_ops),
        "arch.tlb_miss_ratio": _ratio(
            counters.get("tlb.miss", 0), counters.get("tlb.hit", 0)
        ),
        "arch.llc_miss_ratio": _ratio(
            counters.get("llc.miss", 0), counters.get("llc.hit", 0)
        ),
    }
    for metric, key in STAT_COUNTS.items():
        counts[metric] = counters.get(key, 0)
    record: Dict[str, object] = {
        "ops": ops,
        "seconds": seconds,
        "final_clock": machine.clock,
        "stats_sha256": sha256(machine.stats.dump().encode("utf-8")).hexdigest(),
        "batched_ops": outcome.batched_ops,
        "scalar_ops": outcome.scalar_ops,
        "counts": counts,
    }
    if executed != ops:
        record["error"] = f"machine executed {executed} ops, expected {ops}"
    return record


def timed_pass(workload, inputs, ops: int) -> Dict[str, object]:
    """Build a fresh system, run the body, and time both."""
    gc.collect()
    start = time.perf_counter()
    try:
        outcome = workload.run(workload.build(inputs))
    except Exception as exc:  # a failing pass is counted, not fatal
        traceback.print_exc()
        return {
            "ops": ops,
            "seconds": time.perf_counter() - start,
            "error": f"raised {exc!r}",
        }
    return describe(outcome, ops, time.perf_counter() - start)


def time_setup(workload, seed: int, smoke: bool):
    """Set-up samples (``workload.setup_reps`` of them) and the inputs."""
    samples: List[float] = []
    gc.collect()
    for _ in range(1 if smoke else workload.setup_reps):
        start = time.perf_counter()
        inputs = workload.inputs(seed, smoke)
        workload.build(inputs)
        samples.append(time.perf_counter() - start)
    return samples, inputs


def check(passes: List[Dict[str, object]], pin: Optional[Dict[str, object]]) -> None:
    """Mark passes whose (final clock, stats digest) is wrong.

    The reference is the pinned value when there is one, otherwise the
    value most passes agree on.
    """
    done = [p for p in passes if "error" not in p]
    if pin is not None:
        reference = (pin["final_clock"], pin["stats_sha256"])
        reason = "differs from the pinned final_clock/stats_sha256"
    elif done:
        votes = Counter((p["final_clock"], p["stats_sha256"]) for p in done)
        reference = votes.most_common(1)[0][0]
        reason = "differs from the other passes"
    else:
        return
    for p in done:
        if (p["final_clock"], p["stats_sha256"]) != reference:
            p["error"] = reason


def pin_key(workload, seed: int, smoke: bool) -> str:
    key = f"{workload.name}/{'smoke' if smoke else 'full'}"
    return f"{key}/{seed}" if workload.seeded else key


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def traced_window(workload, args, ops: int, untraced_s: float):
    """One traced set-up plus one traced pass; returns (pass, metrics).

    Shares are of the window (set-up plus pass), so generation time in
    set-up shows as ``workloads``.  ``untraced_s`` is the untraced median
    pass, the base of ``trace.overhead``.
    """
    tracer = LayerTracer()
    gc.collect()
    with tracer:
        start = time.perf_counter()
        inputs = workload.inputs(args.seed, args.smoke)
        workload.build(inputs)
        setup_s = time.perf_counter() - start
        traced = timed_pass(workload, inputs, ops)
    traced["traced"] = True
    window = setup_s + traced["seconds"]
    metrics: Dict[str, float] = {}
    for layer, (self_s, calls) in tracer.layer_totals().items():
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.share"] = self_s / window
        metrics[f"{layer}.calls"] = calls
    attributed = sum(metrics[f"{layer}.share"] for layer in LAYERS)
    metrics["unattributed.share"] = max(0.0, 1.0 - attributed)
    metrics["trace.overhead"] = traced["seconds"] / untraced_s - 1.0
    counts = traced.get("counts", {})
    for name in SIM_RATIOS + tuple(STAT_COUNTS):
        metrics[name] = counts.get(name, 0)
    metrics["persist.recovery_s"] = tracer.inclusive_s("repro.platform:recover")
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "window_s": window,
        "setup_s": setup_s,
        "pass_s": traced["seconds"],
        **tracer.to_json(),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"trace_{workload.name}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    return traced, metrics


def run_one(args) -> int:
    from suite import WORKLOADS as SUITE

    workload = SUITE[args.workload]
    host = host_info()
    pins = json.loads(EXPECTED.read_text(encoding="utf-8"))["pins"]
    pin = pins.get(pin_key(workload, args.seed, args.smoke))
    started = time.time()

    setup_samples, inputs = time_setup(workload, args.seed, args.smoke)
    ops = workload.ops(inputs)
    passes: List[Dict[str, object]] = []
    spent = 0.0
    while True:
        passes.append(timed_pass(workload, inputs, ops))
        spent += passes[-1]["seconds"]
        if args.smoke or spent >= MAX_PASS_SECONDS:
            break
        if len(passes) >= MIN_PASSES and spent >= args.seconds:
            break
    if args.trace:
        untraced_s = statistics.median(p["seconds"] for p in passes)
        traced, metrics = traced_window(workload, args, ops, untraced_s)
        passes.append(traced)
        units = PER_LAYER
    else:
        metrics = {
            "ops_per_s": statistics.median(p["ops"] / p["seconds"] for p in passes),
            "setup_s": statistics.median(setup_samples),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    check(passes, pin)
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["ops"] for p in passes if "error" in p)
    error_rate = failed / attempted
    host["loadavg_end"] = list(os.getloadavg())
    reported = {
        name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
    }

    print(
        f"== {workload.name}: seed {args.seed}, {len(passes)} passes of "
        f"{ops:,} ops{' (smoke)' if args.smoke else ''}"
        f"{', traced' if args.trace else ''} =="
    )
    for name, unit in units.items():
        print(f"  {name:<26} {metrics[name]:>16.6g} {unit}")
    print(f"  {'error_rate':<26} {error_rate:>16.6g} ratio")
    for index, p in enumerate(passes):
        if "error" in p:
            print(f"  pass {index}: FAILED: {p['error']}", file=sys.stderr)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": bool(args.trace),
        "seconds": args.seconds,
        "started_unix": started,
        "host": host,
        "pin": pin_key(workload, args.seed, args.smoke) if pin else None,
        "setup_samples_s": setup_samples,
        "passes": passes,
        "error_rate": error_rate,
        "metrics": reported,
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    mode = "trace" if args.trace else "e2e"
    name = f"run_{workload.name}_{mode}_seed{args.seed}_{time.time_ns()}.json"
    (out / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


# ----------------------------------------------------------------------
# every workload, each in its own interpreter
# ----------------------------------------------------------------------


def run_all(args) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", args.out,
        ] + (["--smoke"] if args.smoke else [])
        child = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, timeout=170, check=False
        )
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = None
        if child.returncode != 0 or result is None:
            status = 1
            summary["correct"] = False
        if result is None:
            continue
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", default=str(PERF_DIR / "results"))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no simulator sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    for name in _THREAD_ENV:
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(SRC))
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
