"""One benchmark sample, run by ``run.py`` in a fresh interpreter.

Reads a JSON config on stdin and prints one JSON object on stdout.  A
fresh process per sample means every ``lru_cache`` in the kernel and every
memo stored on analysis objects starts cold, without this file having to
know which caches exist.

Phases:
  import    time ``import numpy, polydist`` in this fresh interpreter
  pipeline  what ``polydist plan`` does, then what ``polydist verify`` does
            once per contents seed, calling each module's public functions
  kernel    set-kernel cases through the ``polydist.isets`` API

Every time reported is in seconds at reference speed (see ``SpeedProbe``):
the host this benchmark was tuned on ran the same code up to twice as
fast in one second as in the next.

Operation failures (exceptions, divergences, wrong kernel results) are
reported in the output, not raised.  Failing to import polydist from the
checkout's ``src`` exits non-zero.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter


class SpeedProbe:
    """Measures the speed of the CPU this process runs on, while it runs.

    Every ``INTERVAL_S`` of wall time a SIGALRM handler runs a fixed
    pure-Python loop (the tick) in this process's only thread, so on the
    same CPU as the code being timed, and records how long it took.
    ``scaled`` converts a measured interval to seconds at reference
    speed: its length times the mean, over the ticks inside it, of
    ``REFERENCE_TICK_S`` over the tick.  That sums each inter-tick slice
    of wall time weighted by the speed measured in it.  The loop uses
    nothing from polydist, so a change to polydist cannot change the
    reference.  Ticks add about 1% to every timed interval, the same
    share on every commit.
    """

    INTERVAL_S = 0.025
    REFERENCE_TICK_S = 330e-6  # median tick on the 2-vCPU Xeon VM the bounds were set on

    def __init__(self):
        self.ticks: list[tuple[float, float]] = []  # (start, duration)
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def _tick(self, *_):
        t0 = perf_counter()
        s = 0
        for i in range(3000):
            s += i * i % 7
        self.ticks.append((t0, perf_counter() - t0))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def speed(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Reference seconds per wall second over the ticks started in
        [t0, t1]; over the whole process when no tick started there."""
        inside = [d for s, d in self.ticks if t0 <= s < t1] or [d for _, d in self.ticks]
        return statistics.fmean(self.REFERENCE_TICK_S / d for d in inside)

    def scaled(self, t0: float, t1: float) -> float:
        return (t1 - t0) * self.speed(t0, t1)


def _import_polydist(root: Path, probe: SpeedProbe) -> float:
    src = root / "src"
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import numpy  # noqa: F401
    import polydist

    elapsed = probe.scaled(t0, perf_counter())
    where = Path(polydist.__file__).resolve()
    if where.parent != (src / "polydist").resolve():
        raise SystemExit(f"polydist imported from {where}, not from {src}")
    return elapsed


def _failure(op: str, detail: str) -> dict:
    return {"op": op, "detail": detail}


def _drop_one_send(plan):
    """A copy of the plan without its first send on a cross-node channel."""
    events = {}
    dropped = False
    for node, evs in plan.events.items():
        kept = []
        for ev in evs:
            if not dropped and ev.kind == "send" and not plan.channels[ev.cid].loopback:
                dropped = True
                continue
            kept.append(ev)
        events[node] = kept
    return dataclasses.replace(plan, events=events)


def _plan_counts(plan, dep, chunkings, transfers, text: str) -> dict:
    """Sizes of the plan and its analysis; identical across samples of one commit."""
    sends = 0
    carried = 0
    capacity = 0
    for evs in plan.events.values():
        open_ranks: dict = {}
        for ev in evs:
            if ev.kind == "send_wait":
                open_ranks[ev.cid] = set()
            elif ev.kind == "buffer_fill":
                open_ranks.setdefault(ev.cid, set()).add(ev.rank)
            elif ev.kind == "compute":
                for w in ev.writes:
                    if w[0] == "buffer":
                        open_ranks.setdefault(w[1], set()).add(w[2])
            elif ev.kind == "send":
                channel = plan.channels[ev.cid]
                carried += len(open_ranks.pop(ev.cid, ()))
                capacity += channel.layout.size
                sends += not channel.loopback
    return {
        "plan_messages": sends,
        "plan_events": sum(len(evs) for evs in plan.events.values()),
        "deps.families": len(dep.families),
        "deps.pairs": sum(len(f.pairs()) for f in dep.families),
        "chunking.identity": sum(1 for phi in chunkings.values() if phi.is_identity),
        "commgen.transfers": sum(len(ts) for ts in transfers.values()),
        "commgen.channels": len(plan.channels),
        "commgen.hull_fill": carried / capacity if capacity else 1.0,
        "plan_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def _propagate_hit_ratio() -> float:
    """Hit ratio of ``isets.propagate``'s cache; 0.0 once that cache is gone."""
    from polydist import isets

    info = getattr(getattr(isets, "propagate", None), "cache_info", None)
    if info is None:
        return 0.0
    info = info()
    total = info.hits + info.misses
    return info.hits / total if total else 0.0


def run_pipeline(cfg: dict, root: Path, rec, probe: SpeedProbe) -> dict:
    from polydist import chunking, commgen, deps, fields, placement, scopio, simrt
    from polydist import scop as scop_mod
    from polydist.pipeline import cap_iterations, override_grid

    out = {"plan_s": None, "verify_s": [], "failures": [], "attempted": 1}
    try:
        with rec.span("plan"):
            t0 = perf_counter()
            with rec.span("scopio.parse"):
                scop = scopio.parse_scop_file(root / cfg["scop"])
            scop = override_grid(scop, cfg["grid"])
            scop.validate()
            if cfg.get("iters") is not None:
                scop = cap_iterations(scop, cfg["iters"])
            with rec.span("scop.isolate"):
                virt = deps.add_virtual_statements(scop_mod.isolate_accesses(scop))
            with rec.span("deps.flow"):
                dep = deps.compute_flow(virt)
            with rec.span("placement.distribute"):
                fp = placement.block_distribute(virt.fields, virt.grid)
            with rec.span("placement.place"):
                sp = placement.place_statements(virt, dep, fp)
            with rec.span("deps.enumerate"):
                for fam in dep.families:
                    fam.pairs()
            with rec.span("chunking.chunk"):
                chunkings = chunking.chunk_all(dep)
            with rec.span("commgen.transfers"):
                transfers = commgen.build_transfers(dep, sp, fp, chunkings)
            with rec.span("commgen.emit"):
                plan = commgen.emit_protocol(virt, dep, fp, sp, commgen.group_chunks(transfers))
            with rec.span("commgen.dump"):
                text = commgen.dump_plan(plan)
            out["plan_s"] = probe.scaled(t0, perf_counter())
    except Exception:
        out["failures"].append(_failure("plan", traceback.format_exc()))
        return out
    out["counts"] = _plan_counts(plan, dep, chunkings, transfers, text)
    out["propagate_hit_ratio"] = _propagate_hit_ratio()

    run_plan = _drop_one_send(plan) if cfg.get("tamper") else plan
    for seed in cfg["contents_seeds"]:
        out["attempted"] += 1
        try:
            with rec.span("verify"):
                t0 = perf_counter()
                init = fields.random_contents(scop, seed)
                with rec.span("scop.sequential"):
                    expected = scop_mod.sequential_execute(scop, init)
                with rec.span("simrt.init"):
                    sim = simrt.init_runtime(run_plan, virt.grid, init)
                with rec.span("simrt.run"):
                    t_run = perf_counter()
                    final, trace = simrt.run(sim, virt)
                    run_s = probe.scaled(t_run, perf_counter())
                divergence = fields.first_divergence(expected, final)
                verify_s = probe.scaled(t0, perf_counter())
        except Exception:
            # DeadlockDetected, BufferStateViolation or a crash: a failed seed
            out["failures"].append(_failure(f"verify seed {seed}", traceback.format_exc()))
            continue
        if divergence is not None:
            out["failures"].append(_failure(f"verify seed {seed}", f"first divergence {divergence!r}"))
            continue
        out["verify_s"].append(verify_s)
        out.setdefault("events_per_s", []).append(len(trace.entries) / run_s)
    return out


def run_kernel(cfg: dict, rec, probe: SpeedProbe) -> dict:
    """Kernel time is scaled by the mean tick over all cases: a case takes
    about 12 ms, less than the interval between two ticks."""
    import cases

    out = {"kernel_s": 0.0, "points": 0, "failures": [], "attempted": 0, "passed": 0}
    start = perf_counter()
    with rec.span("kernel"):
        for seed in cfg["cases"]:
            out["attempted"] += 1
            try:
                case = cases.make_case(seed)
                t0 = perf_counter()
                result = cases.kernel_calls(case, rec)
                elapsed = perf_counter() - t0
                wrong = cases.check(case, result)
            except Exception:
                out["failures"].append(_failure(f"kernel case {seed}", traceback.format_exc()))
                continue
            if wrong:
                out["failures"].append(_failure(f"kernel case {seed}", f"differs from reference: {wrong}"))
                continue
            out["kernel_s"] += elapsed
            out["points"] += cases.points(result)
            out["passed"] += 1
    out["kernel_s"] *= probe.speed(start, perf_counter())
    out["propagate_hit_ratio"] = _propagate_hit_ratio()
    return out


def main() -> None:
    cfg = json.loads(sys.stdin.read())
    root = Path(cfg["root"])
    probe = SpeedProbe()
    import_s = _import_polydist(root, probe)
    from spans import NullRecorder, Recorder

    rec = Recorder(cfg["sample"]) if cfg["trace"] else NullRecorder()
    if cfg["phase"] == "import":
        out = {"import_s": import_s}
    elif cfg["phase"] == "pipeline":
        out = run_pipeline(cfg, root, rec, probe)
    elif cfg["phase"] == "kernel":
        out = run_kernel(cfg, rec, probe)
    else:
        raise SystemExit(f"unknown phase {cfg['phase']!r}")
    probe.stop()
    out["speed"] = probe.speed()
    out["spans"] = list(rec.spans)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))


if __name__ == "__main__":
    main()
