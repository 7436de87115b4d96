"""The output contract: plan, trace and final contents of the shipped
configurations below, and the analysis dumps of two of them, pinned by
sha256.  A change to any of them must say why."""

import hashlib
import importlib.util
import subprocess
import sys

import pytest

from conftest import REPO_ROOT
from polydist.cli import main
from polydist.commgen import dump_plan
from polydist.pipeline import cap_iterations, override_grid, plan_scop
from polydist.scopio import parse_scop_file

EXPECTED = {
    ("gol16", "2x2"): {
        "plan.txt": "4fd625f96d32d4f8448a15c7db946ebbfae23808025c617370369db6120ca277",
        "trace.txt": "7790f0e07275a685a8b131d773376486627fce14ced92a897fe5b94b4bfe8adf",
        "fields.txt": "8720dc71e6251c2ce067a8b9a4fdb5755e7571421572ff3d56a9528dea2dac82",
    },
    ("gol16", "4x4"): {
        "plan.txt": "0b7de626fcb452808841b15a59f360f8e6f66d0209fa708393eb3f8a57675088",
        "trace.txt": "1debe2df5320f44d891f40529cb3ac8decd4f35511d785cb10fe4076011390a1",
        "fields.txt": "8720dc71e6251c2ce067a8b9a4fdb5755e7571421572ff3d56a9528dea2dac82",
    },
    ("gol16_fused", "2x2"): {
        "plan.txt": "42ef8a1e07c76fcc0d3adc037b6536864daa9aa0e8e3bcda8bf6807b984e0d1a",
        "trace.txt": "7790f0e07275a685a8b131d773376486627fce14ced92a897fe5b94b4bfe8adf",
        "fields.txt": "8720dc71e6251c2ce067a8b9a4fdb5755e7571421572ff3d56a9528dea2dac82",
    },
    ("gol16_fused", "8x8"): {
        "plan.txt": "2f1cc752c3eac75b6a7d7a15b10be4ad1f1cea53c4055d2d0a4c4c627f93a76f",
        "trace.txt": "148485c1e9014cfd0179f7880cdbd426bed70ad69f7355c290c4be70bd882a5f",
    },
    ("gol16_fused", "16x16"): {
        "plan.txt": "f97b70a5fdf2b1c05c8560d765306210bcb928be401719bf2498830e46f83eba",
        "trace.txt": "364729817d1e097c25230e03a4431da22610ad5008bcc7a8e12d2f3ee4536f9f",
        "fields.txt": "8720dc71e6251c2ce067a8b9a4fdb5755e7571421572ff3d56a9528dea2dac82",
    },
    ("gol32", "2x2"): {
        "plan.txt": "a76534b7e7ec4f915372b9cb0e4fb55f7858b5ffc9aee78b7dc3a295a48c7898",
        "trace.txt": "3896b206d31afdf279bee3e3b2c7b3a9605d2b1ea4016919110facd33aa921b0",
        "fields.txt": "819ade320055e4b61c6d130a1f7d7274dec4410805a51ba3931f4c6a1743c2aa",
    },
    ("gol32", "4x4"): {
        "plan.txt": "cb2eb737bd67dca719c67c935e33c14e9e382c71ed9b5ecb7c1937724582bde3",
        "trace.txt": "ea595ff3ef31ac9d8752b0aff1e5d0528a18f9676e30eb20e22867dabd64e86f",
        "fields.txt": "819ade320055e4b61c6d130a1f7d7274dec4410805a51ba3931f4c6a1743c2aa",
    },
}


@pytest.mark.parametrize("scop, grid", sorted(EXPECTED))
def test_simulate_outputs_pinned(scops_dir, tmp_path, scop, grid):
    argv = ["simulate", str(scops_dir / f"{scop}.scop"), "--grid", grid,
            "--dump", "plan,trace", "--seed", "7", "--out", str(tmp_path)]
    assert main(argv) == 0
    for name, digest in EXPECTED[(scop, grid)].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


# gol16's dumps are golden files; these two configurations print the
# floor(k0/2) and floor(k0/16) placement maps and their own dependence splits.
ANALYSIS = {
    ("gol16_fused", "8x8"): {
        "deps.txt": "d33d7d1a5256e4799f0d236d6ac5b7a7464f59035cc2a45223925a658881cc8b",
        "placements.txt": "50a6e5975b5decf7bea021014b6bfbef59ab3f08ef94a2a8a0e91fd59192dd99",
        "chunks.txt": "4d9996f9d0cf5882095e77c58a5bd9b6f73aad09ae9d0b95c97606d961abc90a",
    },
    ("gol32", "2x2"): {
        "deps.txt": "9af5c7dfb665400ae8a63bbfb4c608fe56cdfd3968dc8658b45542b8660f6166",
        "placements.txt": "e48340ad0eabfa874847009de52dddad8c66da36ac6af282bf0cdbee810083db",
        "chunks.txt": "4d9996f9d0cf5882095e77c58a5bd9b6f73aad09ae9d0b95c97606d961abc90a",
    },
}


@pytest.mark.parametrize("scop, grid", sorted(ANALYSIS))
def test_analysis_dumps_pinned(scops_dir, tmp_path, scop, grid):
    argv = ["analyze", str(scops_dir / f"{scop}.scop"), "--grid", grid,
            "--dump", "deps,place,chunk", "--out", str(tmp_path)]
    assert main(argv) == 0
    for name, digest in ANALYSIS[(scop, grid)].items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", REPO_ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Probe:
    """Stands in for perfbench's SpeedProbe: wall time at reference speed."""

    def scaled(self, t0: float, t1: float) -> float:
        return t1 - t0

    def speed(self, *_) -> float:
        return 1.0


def test_perfbench_pipeline_runs(scops_dir):
    """perfbench/sample.py plans through the stage functions themselves
    (FlowFamily.pairs, build_transfers, len() of each transfers value,
    group_chunks, emit_protocol): it must run on them and plan what
    plan_scop plans."""
    sample, spans = _perfbench("sample"), _perfbench("spans")
    cfg = {"scop": "scops/gol16.scop", "grid": [2, 2], "iters": 1, "contents_seeds": [1]}
    out = sample.run_pipeline(cfg, REPO_ROOT, spans.NullRecorder(), _Probe())
    assert out["failures"] == []
    scop = cap_iterations(override_grid(parse_scop_file(scops_dir / "gol16.scop"), (2, 2)), 1)
    expected = hashlib.sha256(dump_plan(plan_scop(scop)[1]).encode()).hexdigest()
    assert out["counts"]["plan_sha256"] == expected


def test_perfbench_tampered_plan_fails_each_seed():
    """perfbench's tamper path rebuilds the per-node event lists without
    one cross-node send, swaps them in with dataclasses.replace and runs
    simrt on the result: planning succeeds and every contents seed fails
    verification once."""
    sample, spans = _perfbench("sample"), _perfbench("spans")
    cfg = {"scop": "scops/gol16.scop", "grid": [2, 2], "iters": 1, "contents_seeds": [1, 2],
           "tamper": True}
    out = sample.run_pipeline(cfg, REPO_ROOT, spans.NullRecorder(), _Probe())
    assert out["plan_s"] is not None and "counts" in out
    assert [f["op"] for f in out["failures"]] == ["verify seed 1", "verify seed 2"]


def test_perfbench_selftest_passes():
    """The benchmark's own self-test runs the staged pipeline, simulator
    included, in fresh processes: an API change that breaks it fails here."""
    done = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=REPO_ROOT,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: PASS" in done.stdout
