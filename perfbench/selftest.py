#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny configuration.

    python3 perfbench/selftest.py

Runs gol16 capped to one iteration on a 2x2 grid, with a few kernel
cases, and checks that:
  * every metric in BENCHMARK.json is reported, with its unit, in the
    untraced and the traced run;
  * counts and the plan digest repeat exactly across runs;
  * the staged calls in sample.py build the same plan as
    ``polydist.pipeline.plan_scop``;
  * a plan with one send dropped is counted in ``failed`` and
    ``error_rate`` and does not crash the run.
Exits 0 when every check passes.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run

TINY = run.Workload("selftest", "scops/gol16.scop", (2, 2), 2, range(0, 6), iters=1)


def plan_scop_digest() -> str:
    sys.path.insert(0, str(run.ROOT / "src"))
    from polydist.commgen import dump_plan
    from polydist.pipeline import cap_iterations, override_grid, plan_scop
    from polydist.scopio import parse_scop_file

    scop = cap_iterations(override_grid(parse_scop_file(run.ROOT / TINY.scop), TINY.grid), TINY.iters)
    return hashlib.sha256(dump_plan(plan_scop(scop)[1]).encode()).hexdigest()


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    plain = [run.run_workload(TINY, seed, 0, trace=False) for seed in (1, 2)]
    traced = run.run_workload(TINY, 1, 0, trace=True)
    for mode, result, declared in (
        ("untraced", plain[0], spec["end_to_end"]),
        ("traced", traced, spec["per_layer"]),
    ):
        want = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == want, f"{mode} run reports exactly the declared metrics with their units")
        numbers = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        expect(numbers, f"{mode} run reports every metric as a number")
        expect(result["correct"] and result["failed"] == 0, f"{mode} run passes every correctness gate")

    repeated = ("plan_messages", "plan_events")
    expect(
        all(plain[0]["metrics"][k] == plain[1]["metrics"][k] for k in repeated)
        and plain[0]["plan_sha256"] == plain[1]["plan_sha256"] == traced["plan_sha256"],
        "counts and plan digest repeat exactly across runs",
    )
    expect(traced["metrics"]["deps.pairs"]["value"] > 0, "traced run counts dependence pairs")
    expect(plain[0]["plan_sha256"] == plan_scop_digest(), "staged calls build the plan that plan_scop builds")

    tampered = run.run_workload(TINY, 1, 0, trace=True, tamper=True)
    expect(
        not tampered["correct"]
        and tampered["failed"] == TINY.contents_seeds
        and tampered["metrics"]["error_rate"]["value"] > 0,
        "a plan with one send dropped fails every verified seed and shows in error_rate",
    )
    print("selftest: " + ("PASS" if not problems else f"FAIL ({len(problems)} checks)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
