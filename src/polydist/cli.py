"""Batch front door: analyze, plan, simulate, verify, print.

Exit codes: 0 success / verification passed, 1 parse error, 2 validation
error, 3 analysis error, 4 verification failure or simulation fault.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .commgen import dump_plan, parse_plan
from .deps import add_virtual_statements
from .errors import (
    AnalysisError,
    GeometryMismatch,
    ParseError,
    PolydistError,
    SimulationFault,
    ValidationError,
)
from .fields import dump_contents, first_divergence, load_contents, random_contents
from .pipeline import analyze_scop, cap_iterations, override_grid, plan_scop
from .scop import isolate_accesses, sequential_execute
from .scopio import parse_scop_file, print_scop, read_input
from .simrt import init_runtime, run

EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_ANALYSIS = 3
EXIT_VERIFY = 4

DUMPS = ("deps", "place", "chunk", "plan", "trace")


def _parse_grid(text: str):
    try:
        return tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ValidationError(f"bad grid spec {text!r}, expected e.g. 2x2")


def _load(args):
    scop = parse_scop_file(args.input)
    if args.grid:
        scop = override_grid(scop, _parse_grid(args.grid))
    if args.iters is not None:
        if args.iters < 0:
            raise ValidationError("--iters must be >= 0")
        scop = cap_iterations(scop, args.iters)
    return scop


def _check_outputs(args):
    """Reject dump kinds, an ``--out`` and the input options that the
    subcommand would ignore, and make the output directory, before any
    analysis runs."""
    for option in ("seed", "init", "plan"):
        if getattr(args, option) is not None and not args.runs:
            raise ValidationError(f"{args.command} takes no --{option} (only simulate and verify do)")
    if args.init is not None and args.seed is not None:
        raise ValidationError("--init and --seed cannot be given together")
    if args.dump:
        for kind in args.dump.split(","):
            if kind not in DUMPS:
                raise ValidationError(
                    f"unknown --dump kind {kind!r} (expected {','.join(DUMPS)})"
                )
            if kind not in args.dumps:
                writes = ",".join(args.dumps) or "none"
                raise ValidationError(f"{args.command} writes no {kind} dump (it writes: {writes})")
    if args.out:
        # simulate always writes fields.txt
        if args.command != "simulate" and not any(_wanted(args, k) for k in args.dumps):
            raise ValidationError(f"--out {args.out}: this {args.command} run writes no file")
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ValidationError(f"--out {args.out}: {e.strerror or e}") from None


def _emit(args, filename: str, text: str):
    if args.out:
        try:
            (Path(args.out) / filename).write_text(text)
        except OSError as e:
            raise ValidationError(
                f"--out {args.out}: cannot write {filename}: {e.strerror or e}"
            ) from None
    else:
        sys.stdout.write(f"# {filename}\n")
        sys.stdout.write(text)


def _wanted(args, kind: str) -> bool:
    if not args.dump:
        return kind in ("deps", "place", "chunk", "plan")
    return kind in args.dump.split(",")


def cmd_analyze(args) -> int:
    scop = _load(args)
    analysis = analyze_scop(scop)
    if _wanted(args, "deps"):
        _emit(args, "deps.txt", analysis.dump_deps())
    if _wanted(args, "place"):
        _emit(args, "placements.txt", analysis.dump_placements())
    if _wanted(args, "chunk"):
        _emit(args, "chunks.txt", analysis.dump_chunks())
    return 0


def cmd_plan(args) -> int:
    scop = _load(args)
    _, plan = plan_scop(scop)
    _emit(args, "plan.txt", dump_plan(plan))
    return 0


def _build_or_load_plan(args, scop):
    """(isolated scop with virtual statements, plan); a ``--plan`` file
    needs only the isolated statements, not the analysis."""
    if args.plan:
        plan = parse_plan(read_input(args.plan))
        return add_virtual_statements(isolate_accesses(scop)), plan
    analysis, plan = plan_scop(scop)
    return analysis.scop, plan


def _initial_contents(args, scop):
    if args.init:
        return load_contents(scop, read_input(args.init))
    return random_contents(scop, args.seed or 0)


def cmd_simulate(args) -> int:
    scop = _load(args)
    init = _initial_contents(args, scop)
    virt, plan = _build_or_load_plan(args, scop)
    sim = init_runtime(plan, virt.grid, init)
    final, trace = run(sim, virt)
    if _wanted(args, "plan"):
        _emit(args, "plan.txt", dump_plan(plan))
    if _wanted(args, "trace"):
        _emit(args, "trace.txt", trace.to_text())
    _emit(args, "fields.txt", dump_contents(scop, final))
    return 0


def cmd_verify(args) -> int:
    scop = _load(args)
    init = _initial_contents(args, scop)
    virt, plan = _build_or_load_plan(args, scop)
    expected = sequential_execute(scop, init)
    try:
        sim = init_runtime(plan, virt.grid, init)
        final, trace = run(sim, virt)
    except SimulationFault as e:
        print(f"verify: FAIL ({type(e).__name__}: {e})")
        return EXIT_VERIFY
    if _wanted(args, "trace"):
        _emit(args, "trace.txt", trace.to_text())
    div = first_divergence(expected, final)
    if div is None:
        source = f"init={args.init}" if args.init else f"seed={args.seed or 0}"
        print(f"verify: PASS (grid={'x'.join(map(str, virt.grid.extents))}, {source})")
        return 0
    name, idx, want, got = div
    print(f"verify: FAIL first divergence field={name} index={idx} expected={want} got={got}")
    return EXIT_VERIFY


def cmd_print(args) -> int:
    scop = _load(args)
    sys.stdout.write(print_scop(scop))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polydist",
        description="Polyhedral communication planner and SPMD simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, dumps, runs in (
        ("analyze", cmd_analyze, ("deps", "place", "chunk"), False),
        ("plan", cmd_plan, ("plan",), False),
        ("simulate", cmd_simulate, ("plan", "trace"), True),
        ("verify", cmd_verify, ("trace",), True),
        ("print", cmd_print, (), False),
    ):
        p = sub.add_parser(name)
        p.add_argument("input", help="scop document (JSON)")
        p.add_argument("--grid", help="node grid override, e.g. 2x2")
        p.add_argument("--iters", type=int, help="cap on the leading loop dimension")
        p.add_argument("--seed", type=int, help="PRNG seed for initial contents (default 0)")
        p.add_argument("--out", help="output directory (default: stdout)")
        p.add_argument("--dump", help=f"comma list of dumps: {','.join(dumps) or 'none'}")
        p.add_argument("--init", help="initial field contents file")
        p.add_argument("--plan", help="run a previously dumped plan file")
        p.set_defaults(fn=fn, dumps=dumps, runs=runs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except (ValidationError, GeometryMismatch) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except SimulationFault as e:
        print(f"simulation fault: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_VERIFY
    except (AnalysisError, PolydistError) as e:
        print(f"analysis error: {e}", file=sys.stderr)
        return EXIT_ANALYSIS


if __name__ == "__main__":
    sys.exit(main())
