#!/usr/bin/env python3
"""polydist benchmark runner.

    python3 perfbench/run.py --workload gol32-2x2 --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Every sample runs in a fresh
interpreter (``sample.py``) that imports polydist from the checkout's
``src``; this process never imports polydist.  A sample is one pipeline
process (plan, then verify for a few contents seeds) and one set-kernel
process, followed by three timed cold imports.  Samples repeat while
another one fits in ``--seconds``.  ``--workload all`` runs every
workload in turn.

With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics, taken from spans
recorded around every layer call, and ``trace.overhead_s``, the traced
minus the untraced measured time of the same sample.  Spans, machine
info and the full result are written to ``.perfbench/`` in the checkout.

Exit status is 0 when a result was printed (check ``correct`` and
``failed`` in it), and 2 for bad arguments or when the benchmark could
not run or measured nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import self_time_by_name, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

DEADLINE_S = 170  # every run must end within 180 s
SETUP_STARTS = 3  # cold interpreter starts timed for setup_s, per sample


@dataclass(frozen=True)
class Workload:
    name: str
    scop: str  # relative to the checkout root
    grid: tuple
    contents_seeds: int  # verified per plan sample
    cases: range  # set-kernel case seeds, fixed per workload (see README.md)
    iters: int | None = None


# The two kernel case ranges together are criterion 7's first 500 cases.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gol32-2x2", "scops/gol32.scop", (2, 2), 3, range(0, 250)),
        Workload("gol16_fused-8x8", "scops/gol16_fused.scop", (8, 8), 4, range(250, 500)),
    )
}

END_TO_END = {
    "setup_s": "s",
    "plan_s": "s",
    "verify_s": "s",
    "kernel_cases_per_s": "cases/s",
    "plan_messages": "count",
    "plan_events": "count",
    "peak_rss_mb": "MB",
}

PLAN_SPANS = (
    "scopio.parse",
    "scop.isolate",
    "deps.flow",
    "placement.distribute",
    "placement.place",
    "deps.enumerate",
    "chunking.chunk",
    "commgen.transfers",
    "commgen.emit",
    "commgen.dump",
)
VERIFY_SPANS = ("simrt.init", "simrt.run", "scop.sequential")  # reported per seed
KERNEL_SPANS = tuple(
    f"isets.{op}"
    for op in (
        "enumerate",
        "subtract",
        "intersect",
        "union",
        "is_empty",
        "lexmin",
        "lexmax",
        "apply",
        "compose",
        "inverse",
    )
)
COUNTS = (
    "deps.families",
    "deps.pairs",
    "chunking.identity",
    "commgen.transfers",
    "commgen.channels",
)

PER_LAYER = {
    **{f"{name}_s": "s" for name in PLAN_SPANS + VERIFY_SPANS + KERNEL_SPANS},
    **{name: "count" for name in COUNTS},
    "commgen.hull_fill": "ratio",
    "simrt.events_per_s": "events/s",
    "isets.points": "count",
    "isets.propagate_hit_ratio": "ratio",
    "plan.propagate_hit_ratio": "ratio",
    "error_rate": "ratio",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def run_child(cfg: dict, deadline: float) -> dict:
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError("out of time before a sample could start")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py")],
            input=json.dumps({"root": str(ROOT), **cfg}),
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{cfg['phase']} sample exceeded the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"{cfg['phase']} sample exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    import numpy  # noqa: F401  (version only; polydist is never imported here)

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


def run_samples(w: Workload, seed: int, seconds: float, trace: bool, deadline: float, tamper=False):
    """Yield (sample id, {(phase, traced): child result}); at least one sample,
    and no more than fit in `seconds` at the pace of the last one."""
    rng = random.Random(seed)
    run_child({"phase": "import", "trace": False, "sample": 0}, deadline)  # writes bytecode caches
    t_start = perf_counter()
    sample = 0
    while True:
        t0 = perf_counter()
        contents = [rng.getrandbits(32) for _ in range(w.contents_seeds)]
        pipeline = {
            "phase": "pipeline",
            "scop": w.scop,
            "grid": list(w.grid),
            "iters": w.iters,
            "contents_seeds": contents,
            "tamper": tamper,
            "sample": sample,
        }
        kernel = {"phase": "kernel", "cases": list(w.cases), "sample": sample}
        got = {}
        for traced in (False, True) if trace else (False,):
            got["pipeline", traced] = run_child({**pipeline, "trace": traced}, deadline)
            got["kernel", traced] = run_child({**kernel, "trace": traced}, deadline)
        if not trace:
            start = {"phase": "import", "trace": False, "sample": sample}
            got["import_s"] = [run_child(start, deadline)["import_s"] for _ in range(SETUP_STARTS)]
        yield sample, got
        sample += 1
        now = perf_counter()
        if now - t_start + (now - t0) > seconds:  # another sample would overrun
            return


def measured_time(pipe: dict, kern: dict) -> float:
    return (pipe["plan_s"] or 0.0) + sum(pipe["verify_s"]) + kern["kernel_s"]


def count_mismatches(results: list) -> list:
    """Counts and plan digests must repeat exactly; each differing sample fails."""
    planned = [r["counts"] for r in results if r.get("counts")]
    return [
        {"op": "plan counts", "detail": f"differ from the first sample: {diff}"}
        for counts in planned[1:]
        if (diff := {k: (planned[0][k], v) for k, v in counts.items() if planned[0][k] != v})
    ]


def span_log(samples: list) -> list:
    """Every traced span, tagged with its process, its index there and its self time."""
    out = []
    for _, got in samples:
        for phase in ("pipeline", "kernel"):
            spans = got[phase, True]["spans"] if (phase, True) in got else []
            for i, (span, own) in enumerate(zip(spans, self_times(spans))):
                out.append({**span, "id": i, "phase": phase, "self": own})
    return out


def med(values, what: str) -> float:
    values = list(values)
    if not values:
        raise BenchError(f"no successful measurement of {what}")
    return statistics.median(values)


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, tamper: bool = False) -> dict:
    deadline = perf_counter() + DEADLINE_S
    samples = list(run_samples(w, seed, seconds, trace, deadline, tamper))
    pipes = [got["pipeline", trace] for _, got in samples]
    kerns = [got["kernel", trace] for _, got in samples]
    attempted = sum(r["attempted"] for r in pipes + kerns)
    failures = [f for r in pipes + kerns for f in r["failures"]] + count_mismatches(pipes)
    counts = next((r["counts"] for r in pipes if r.get("counts")), None)
    if counts is None:
        raise BenchError("no plan sample succeeded:\n" + "\n".join(f["detail"] for f in failures[:3]))

    metrics: dict = {}
    if not trace:
        metrics["setup_s"] = med((t for _, got in samples for t in got["import_s"]), "setup_s")
        metrics["plan_s"] = med((r["plan_s"] for r in pipes if r["plan_s"] is not None), "plan_s")
        metrics["verify_s"] = med((v for r in pipes for v in r["verify_s"]), "verify_s")
        kernel_s = sum(r["kernel_s"] for r in kerns)
        if kernel_s <= 0:
            raise BenchError("no successful measurement of kernel_cases_per_s")
        metrics["kernel_cases_per_s"] = sum(r["passed"] for r in kerns) / kernel_s
        metrics["plan_messages"] = counts["plan_messages"]
        metrics["plan_events"] = counts["plan_events"]
        metrics["peak_rss_mb"] = med((r["rss_mb"] for r in pipes), "peak_rss_mb")
        units = END_TO_END
    else:
        per_sample = []
        for (_, got), pipe, kern in zip(samples, pipes, kerns):
            own = {}
            for r in (pipe, kern):
                own.update((n, t * r["speed"]) for n, t in self_time_by_name(r["spans"]).items())
            seeds = max(1, len(pipe["verify_s"]))
            row = {
                f"{n}_s": own.get(n, 0.0) / (seeds if n in VERIFY_SPANS else 1)
                for n in PLAN_SPANS + VERIFY_SPANS + KERNEL_SPANS
            }
            row["simrt.events_per_s"] = statistics.median(pipe.get("events_per_s") or [0.0])
            row["isets.points"] = kern["points"]
            row["isets.propagate_hit_ratio"] = kern["propagate_hit_ratio"]
            row["plan.propagate_hit_ratio"] = pipe.get("propagate_hit_ratio", 0.0)
            untraced = measured_time(got["pipeline", False], got["kernel", False])
            row["trace.overhead_s"] = measured_time(pipe, kern) - untraced
            per_sample.append(row)
        for name in per_sample[0]:
            metrics[name] = statistics.median(row[name] for row in per_sample)
        for name in COUNTS + ("commgen.hull_fill",):
            metrics[name] = counts[name]
        metrics["error_rate"] = len(failures) / attempted
        units = PER_LAYER
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "samples": len(samples),
        "per_sample": {
            "plan_s": [r["plan_s"] for r in pipes],
            "verify_s": [r["verify_s"] for r in pipes],
            "kernel_cases_per_s": [r["passed"] / r["kernel_s"] if r["kernel_s"] else None for r in kerns],
            "import_s": [got.get("import_s") for _, got in samples],
            "speed": [[r["speed"] for r in (got["pipeline", trace], got["kernel", trace])] for _, got in samples],
        },
        "failures": failures,
        "plan_sha256": counts["plan_sha256"],
        "spans": span_log(samples),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "polydist").is_dir():
        print(f"perfbench: no polydist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    machine = machine_info()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except BenchError as e:
            print(f"perfbench: {name}: {e}", file=sys.stderr)
            return 2
        OUT.mkdir(exist_ok=True)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        spans = result.pop("spans")
        if spans:
            (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))
        record = {"machine": machine, "args": {**vars(args), "workload": name}, **result}
        (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
        for f in result["failures"]:
            print(f"FAILED {name} {f['op']}: {f['detail'].strip().splitlines()[-1]}", file=sys.stderr)
        print("machine " + json.dumps(machine))
        print(f"workload {name} samples {result['samples']} plan_sha256 {result['plan_sha256']}")
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0

if __name__ == "__main__":
    sys.exit(main())
