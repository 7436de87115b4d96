"""polydist: polyhedral communication planning and SPMD simulation."""

from .chunking import ChunkingFn, chunk_all, chunk_heuristic
from .commgen import (
    BufferLayout,
    Channel,
    CommPlan,
    TransferTuple,
    build_transfers,
    compile_plan,
    dump_plan,
    group_chunks,
    parse_plan,
)
from .deps import DepGraph, FlowFamily, add_virtual_statements, compute_flow
from .isets import (
    AffineExpr,
    IntMap,
    IntSet,
    Space,
    apply,
    compose,
    enumerate_set,
    intersect,
    inverse,
    is_empty,
    lexmax,
    lexmin,
    subtract,
    union,
)
from .pipeline import Analysis, analyze_scop, plan_scop
from .placement import Placement, block_distribute, place_statements
from .scop import ClusterGrid, FieldDecl, Scop, Statement, isolate_accesses, sequential_execute
from .scopio import parse_scop, parse_scop_file, print_scop
from .simrt import SimState, Trace, init_runtime, run
from .syntax import format_map, format_set, parse_map, parse_set

__version__ = "0.1.0"

__all__ = [
    "AffineExpr",
    "Analysis",
    "BufferLayout",
    "Channel",
    "ChunkingFn",
    "ClusterGrid",
    "CommPlan",
    "DepGraph",
    "FieldDecl",
    "FlowFamily",
    "IntMap",
    "IntSet",
    "Placement",
    "Scop",
    "SimState",
    "Space",
    "Statement",
    "Trace",
    "TransferTuple",
    "add_virtual_statements",
    "analyze_scop",
    "apply",
    "block_distribute",
    "build_transfers",
    "chunk_all",
    "chunk_heuristic",
    "compile_plan",
    "compose",
    "compute_flow",
    "dump_plan",
    "enumerate_set",
    "format_map",
    "format_set",
    "group_chunks",
    "init_runtime",
    "intersect",
    "inverse",
    "is_empty",
    "isolate_accesses",
    "lexmax",
    "lexmin",
    "parse_map",
    "parse_plan",
    "parse_scop",
    "parse_scop_file",
    "parse_set",
    "place_statements",
    "plan_scop",
    "print_scop",
    "run",
    "sequential_execute",
    "subtract",
    "union",
]
