import dataclasses
import io
import json
import re
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polydist.cli import main
from polydist.commgen import CALLS, Event, dump_plan
from polydist.fields import dump_contents, first_divergence, random_contents
from polydist.pipeline import plan_scop
from polydist.scopio import parse_scop, parse_scop_file

from oracle import event_key, expand_plan


def invoke(*argv):
    return main(list(argv))


def test_analyze_matches_golden(gol16_path, golden_dir, tmp_path):
    assert invoke("analyze", str(gol16_path), "--out", str(tmp_path)) == 0
    assert (tmp_path / "deps.txt").read_text() == (golden_dir / "gol16_deps.txt").read_text()
    assert (tmp_path / "placements.txt").read_text() == (
        golden_dir / "gol16_placements.txt"
    ).read_text()
    assert (tmp_path / "chunks.txt").read_text() == (golden_dir / "gol16_chunks.txt").read_text()


def test_analyze_contains_first_field_flow(gol16_path, tmp_path):
    invoke("analyze", str(gol16_path), "--out", str(tmp_path), "--dump", "deps")
    text = (tmp_path / "deps.txt").read_text()
    assert "S1.7[i', x', y'] -> S2.1[i', x', y']" in text
    assert not (tmp_path / "placements.txt").exists()


def test_analyze_empty_scop(scops_dir, tmp_path):
    assert invoke("analyze", str(scops_dir / "empty.scop"), "--out", str(tmp_path)) == 0
    assert "0 families" in (tmp_path / "deps.txt").read_text()


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.scop"
    bad.write_text("{ not json\n")
    assert invoke("analyze", str(bad), "--out", str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_deeply_nested_document_is_a_parse_error(tmp_path, capsys):
    # deeper than the JSON reader can recurse
    doc = json.dumps({
        "name": "deep", "grid": [2], "scatter_arity": 1,
        "fields": [{"name": "a", "type": "int64", "extents": [2]}],
        "statements": [{"id": "S", "domain": "{ [x] : 0 <= x < 2 }", "schedule": "{ [x] -> [x] }",
                        "body": "BODY", "scalar_writes": ["t"]}],
    })
    path = tmp_path / "deep.scop"
    path.write_text(doc.replace('"BODY"', '["neg", ' * 3000 + '["int", 1]' + "]" * 3000))
    assert invoke("verify", str(path)) == 1
    err = capsys.readouterr().err
    assert err == "parse error: invalid JSON: the document nests too deep to read\n"


def test_validation_exit_code(gol16_path, tmp_path):
    doc = json.loads(gol16_path.read_text())
    doc["statements"][0]["accesses"][0]["index"] = ["x", "16"]
    bad = tmp_path / "oob.scop"
    bad.write_text(json.dumps(doc))
    assert invoke("analyze", str(bad), "--out", str(tmp_path)) == 2


def test_domain_bound_past_int64(gol16_path, tmp_path, capsys):
    # y runs past 2^63 in every statement: the domain is too large to
    # search, an analysis error naming the set and its size
    text = gol16_path.read_text()
    assert text.count("1 <= y < 15") == 9
    wide = tmp_path / "wide.scop"
    wide.write_text(text.replace("1 <= y < 15", "1 <= y < 9999999999999999999915"))
    assert invoke("verify", str(wide), "--grid", "2x2", "--iters", "1") == 3
    assert capsys.readouterr() == ("", (
        "analysis error: S1.1[i, x, y] holds a box of 419999999999999999996388 points to search, "
        f"more than {sys.maxsize}\n"))


def test_plan_boundary_channels(gol16_path, tmp_path):
    assert invoke("plan", str(gol16_path), "--grid", "2x2", "--out", str(tmp_path)) == 0
    text = (tmp_path / "plan.txt").read_text()
    # a 7-slot box: row 7 of the source block, columns 1-7 inside the border
    assert "family=flow:S2.2->S1.1:front src=(0,0) dst=(1,0) box=[7:7;1:7]" in text


def test_plan_single_node_has_no_channel(gol16_path, tmp_path):
    # one node homes every element: every read is a storage read, so no
    # execution is bound to a buffer and the plan lists no compute event
    assert invoke("plan", str(gol16_path), "--grid", "1x1", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "plan.txt").read_text().splitlines()
    assert not [ln for ln in lines if ln.startswith(("channel", "node="))]
    assert any(ln.startswith("stmtmap S1.1 ") for ln in lines)


def test_plan_indivisible_grid(gol16_path, tmp_path):
    assert invoke("plan", str(gol16_path), "--grid", "3x3", "--out", str(tmp_path)) == 2


def _no_analysis(monkeypatch):
    def boom(scop):
        raise AssertionError("analysis ran before the options were checked")

    monkeypatch.setattr("polydist.cli.analyze_scop", boom)
    monkeypatch.setattr("polydist.cli.plan_scop", boom)


@pytest.mark.parametrize("command", ["plan", "analyze"])
def test_out_under_a_regular_file(gol16_path, tmp_path, capsys, monkeypatch, command):
    _no_analysis(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "sub"
    assert invoke(command, str(gol16_path), "--out", str(out)) == 2
    assert capsys.readouterr().err == f"validation error: --out {out}: Not a directory\n"


@pytest.mark.parametrize("command, dump", [("plan", "plan.txt"), ("analyze", "deps.txt")])
def test_out_dump_write_fails(gol16_path, tmp_path, capsys, command, dump):
    (tmp_path / dump).mkdir()
    assert invoke(command, str(gol16_path), "--iters", "1", "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == f"validation error: --out {tmp_path}: cannot write {dump}: Is a directory\n"


@pytest.mark.parametrize(
    "command, dump, kind", [("analyze", "dep", "dep"), ("verify", "trace,bogus", "bogus")]
)
def test_unknown_dump_kind(gol16_path, tmp_path, capsys, monkeypatch, command, dump, kind):
    _no_analysis(monkeypatch)
    out = tmp_path / "out"
    assert invoke(command, str(gol16_path), "--dump", dump, "--out", str(out)) == 2
    assert capsys.readouterr().err == (
        f"validation error: unknown --dump kind {kind!r} "
        "(expected deps,place,chunk,plan,trace)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "command, dump, message",
    [
        ("plan", "deps", "plan writes no deps dump (it writes: plan)"),
        ("analyze", "plan", "analyze writes no plan dump (it writes: deps,place,chunk)"),
        ("verify", "plan", "verify writes no plan dump (it writes: trace)"),
        ("print", "deps", "print writes no deps dump (it writes: none)"),
        ("print", None, "--out {out}: this print run writes no file"),
        ("verify", None, "--out {out}: this verify run writes no file"),
    ],
    ids=["plan-deps", "analyze-plan", "verify-plan", "print-deps", "print-out", "verify-out"],
)
def test_dump_or_out_the_subcommand_ignores(
    gol16_path, tmp_path, capsys, monkeypatch, command, dump, message
):
    _no_analysis(monkeypatch)
    out = tmp_path / "out"
    options = ["--dump", dump] if dump else []
    assert invoke(command, str(gol16_path), *options, "--out", str(out)) == 2
    assert capsys.readouterr() == ("", f"validation error: {message.format(out=out)}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "plan", "print"])
@pytest.mark.parametrize("option, value", [("seed", "5"), ("init", "/nonexistent"),
                                           ("plan", "/nonexistent")])
def test_input_option_the_subcommand_ignores(
    gol16_path, capsys, monkeypatch, command, option, value
):
    _no_analysis(monkeypatch)
    assert invoke(command, str(gol16_path), f"--{option}", value) == 2
    assert capsys.readouterr() == (
        "", f"validation error: {command} takes no --{option} (only simulate and verify do)\n"
    )


def test_verify_pass(gol16_path, capsys):
    assert invoke("verify", str(gol16_path), "--seed", "42", "--grid", "2x2") == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_single_node(gol16_path, capsys):
    assert invoke("verify", str(gol16_path), "--grid", "1x1") == 0


def test_verify_tampered_plan(gol16_path, tmp_path, capsys):
    # without the first recv of a flow channel, that channel's next
    # recv_wait finds its window still open: a parse error at that line,
    # before anything runs
    invoke("plan", str(gol16_path), "--out", str(tmp_path))
    plan_text = (tmp_path / "plan.txt").read_text()
    lines = plan_text.splitlines()
    dropped = next(
        i for i, ln in enumerate(lines) if "kind=recv " in ln and "chunk=flow:" in ln
    )
    node, cid = lines[dropped].split()[0], lines[dropped].split()[-1]
    at = next(i for i in range(dropped + 1, len(lines)) if lines[i].startswith(f"{node} ")
              and " kind=recv_wait " in lines[i] and lines[i].endswith(f" {cid}"))
    tampered = "\n".join(lines[:dropped] + lines[dropped + 1 :]) + "\n"
    (tmp_path / "tampered.txt").write_text(tampered)
    rc = invoke("verify", str(gol16_path), "--plan", str(tmp_path / "tampered.txt"))
    out = capsys.readouterr()
    assert rc == 1 and out.out == ""
    coord = node.split("=")[1].replace(",", ", ")
    assert out.err == (f"parse error: recv_wait on node {coord} finds the dst window of channel "
                       f"{cid.split('=')[1]} open (line {at})\n")


def test_verify_plan_with_unreleased_message(gol16_path, tmp_path, capsys):
    # without the last recv on (0,1) -> (0,0), the plan passes the window
    # check, but the last message is never released: the run ends with that
    # channel received, whatever the values compute
    invoke("plan", str(gol16_path), "--out", str(tmp_path))
    lines = (tmp_path / "plan.txt").read_text().splitlines()
    tag = next(re.search(r" cid=(\d+) ", ln)[1] for ln in lines
               if ln.startswith("channel") and " family=flow:S2.2->S1.2:front src=(0,1) dst=(0,0) " in ln)
    dropped = max(i for i, ln in enumerate(lines) if " kind=recv " in ln and ln.endswith(f" cid={tag}"))
    (tmp_path / "unreleased.txt").write_text("\n".join(lines[:dropped] + lines[dropped + 1:]) + "\n")
    for seed in ("0", "2"):
        rc = invoke("verify", str(gol16_path), "--plan", str(tmp_path / "unreleased.txt"), "--seed", seed)
        assert rc == 4
        assert capsys.readouterr().out == (
            f"verify: FAIL (BufferStateViolation: run ended with channels not idle: {tag} received)\n")


def _without_lines(text, dropped):
    lines = text.splitlines()
    return "\n".join(ln for i, ln in enumerate(lines) if i not in dropped) + "\n"


def _recv_wait_lines(text):
    return [i for i, ln in enumerate(text.splitlines()) if " kind=recv_wait " in ln]


@pytest.mark.parametrize("name, grid", [("gol16", "2x2"), ("gol16_fused", "8x8")])
def test_verify_plan_without_recv_waits(scops_dir, tmp_path, capsys, name, grid):
    # a buffer read with no recv_wait before it lies outside its window:
    # a parse error at a line, although the one order the simulator runs
    # would read each value after its send
    scop = str(scops_dir / f"{name}.scop")
    invoke("plan", scop, "--grid", grid, "--out", str(tmp_path))
    text = (tmp_path / "plan.txt").read_text()
    (tmp_path / "stripped.txt").write_text(_without_lines(text, set(_recv_wait_lines(text))))
    capsys.readouterr()
    assert invoke("verify", scop, "--plan", str(tmp_path / "stripped.txt")) == 1
    out = capsys.readouterr()
    assert out.out == "" and re.fullmatch(r"parse error: .* \(line \d+\)\n", out.err)


def test_verify_plan_without_one_recv_wait(gol16_path, tmp_path, capsys):
    # each of gol16 2x2's 24 recv_waits, deleted alone, is a parse error
    invoke("plan", str(gol16_path), "--out", str(tmp_path))
    text = (tmp_path / "plan.txt").read_text()
    waits = _recv_wait_lines(text)
    assert len(waits) == 24
    for i in waits:
        (tmp_path / "cut.txt").write_text(_without_lines(text, {i}))
        capsys.readouterr()
        assert invoke("verify", str(gol16_path), "--plan", str(tmp_path / "cut.txt")) == 1
        out = capsys.readouterr()
        assert out.out == "" and re.fullmatch(r"parse error: .* \(line \d+\)\n", out.err)


def _simulate_with_plan_text(gol16_path, tmp_path, capsys, text):
    plan_file = tmp_path / "plan.txt"
    plan_file.write_text(text)
    rc = invoke("simulate", str(gol16_path), "--plan", str(plan_file))
    return rc, capsys.readouterr().err


def test_simulate_empty_plan_file(gol16_path, tmp_path, capsys):
    rc, err = _simulate_with_plan_text(gol16_path, tmp_path, capsys, "")
    assert rc == 1
    assert "empty plan file (line 1)" in err


def test_simulate_garbage_plan_file(gol16_path, tmp_path, capsys):
    rc, err = _simulate_with_plan_text(gol16_path, tmp_path, capsys, "garbage\n")
    assert rc == 1
    assert "not a plan file" in err


def test_simulate_edited_fieldmap_plan(gol16_path, tmp_path, capsys):
    # a fieldmap other than block distribution of the extents is rejected
    invoke("plan", str(gol16_path), "--out", str(tmp_path))
    lines = (tmp_path / "plan.txt").read_text().splitlines()
    assert lines[2].startswith("fieldmap front ")
    lines[2] = "fieldmap front { front[k0, k1] -> P[0, 0] : 0 <= k0 <= 15 and 0 <= k1 <= 15 }"
    rc, err = _simulate_with_plan_text(gol16_path, tmp_path, capsys, "\n".join(lines) + "\n")
    assert rc == 1
    assert "fieldmap front differs from block distribution" in err
    assert "(line 3)" in err


def test_simulate_dangling_channel_plan(gol16_path, tmp_path, capsys):
    # an event naming a channel the plan does not declare is a parse error
    invoke("plan", str(gol16_path), "--out", str(tmp_path))
    lines = (tmp_path / "plan.txt").read_text().splitlines()
    no = next(i for i, ln in enumerate(lines) if " kind=buffer_fill " in ln)
    lines[no] = re.sub(r" cid=\d+", " cid=9999", lines[no])
    rc, err = _simulate_with_plan_text(gol16_path, tmp_path, capsys, "\n".join(lines) + "\n")
    assert rc == 1
    assert f"unknown channel cid=9999 (line {no + 1})" in err


def test_simulate_plan_for_other_fields(gol16_path, tmp_path, capsys):
    # a plan whose fields are not the scop's is a validation error
    invoke("plan", str(gol16_path), "--out", str(tmp_path))
    text = (tmp_path / "plan.txt").read_text().replace("front", "fronx")
    rc, err = _simulate_with_plan_text(gol16_path, tmp_path, capsys, text)
    assert rc == 2
    assert "plan field fronx is not a field of the contents" in err


def _line_edit(pick, old, new):
    """Replace old by new in the first line that starts with pick."""
    def edit(lines):
        no = next(i for i, ln in enumerate(lines) if ln.startswith(pick))
        assert old in lines[no], lines[no]
        return lines[:no] + [lines[no].replace(old, new, 1)] + lines[no + 1:]
    return edit


def _add_after(pick, make):
    """Insert make(line) after the first line that starts with pick."""
    def edit(lines):
        no = next(i for i, ln in enumerate(lines) if ln.startswith(pick))
        return lines[:no + 1] + [make(lines[no])] + lines[no + 1:]
    return edit


def _t_down(lines):
    """The first buffer-reading compute line one step earlier: an odd t,
    where no execution runs, still after its recv_wait."""
    no = next(i for i, ln in enumerate(lines) if " kind=compute read=buf:" in ln)
    t = re.search(r" t=\(([-\d,]+)\) ", lines[no])[1].split(",")
    earlier = ",".join(t[:-1] + [str(int(t[-1]) - 1)])
    return lines[:no] + [lines[no].replace(f" t=({','.join(t)}) ", f" t=({earlier}) ")] + lines[no + 1:]


def _no_executions(lines):
    """Every stmtmap empty, every binding line kept."""
    return [ln.replace(" }", " and 0 = 1 }") if ln.startswith("stmtmap ") else ln for ln in lines]


S11 = "stmtmap S1.1 { S1.1[i, x, y] -> P[floor(x/8), floor(y/8)] : 0 <= i <= 2 and 1 <= x <= 14 and 1 <= y <= 14 }"


def _at_origin_up_to(y):
    """S1.1 placed on node (0,0) for 1 <= y <= the given bound."""
    return _line_edit("stmtmap S1.1 ", S11[S11.index("P["):], f"P[0, 0] : 0 <= i <= 2 and 1 <= x <= 14 and 1 <= y <= {y} }}")


S1_1_2D = "{ S1.1[i, x] -> P[floor(x/8), 0] : 0 <= i <= 2 and 1 <= x <= 14"

PR26_COMPUTE = "node=(0,0) t=(0,0,0,2,0,2,14,0) kind=compute stmt=S1.7 i=(0,1,1) read=storage write=storage"

# edits of the gol16 2x2 plan's stmtmap and compute lines -> (exit code, the
# start of the line its parse error names, message); validation errors come
# before the first step
BAD_PLACEMENTS = {
    "map-text": (_line_edit("stmtmap S1.1 ", "1 <= y <= 14 }", "1 <= y <= }"), 1, "stmtmap S1.1 ",
                 "unexpected token '}' (line 1, column 91)"),
    "stmtmap-twice": (_add_after("stmtmap S1.1 ", lambda ln: ln), 1, "stmtmap S1.1 ", "stmtmap S1.1 given twice"),
    "range-arity": (_line_edit("stmtmap S1.1 ", "P[floor(x/8), floor(y/8)]", "P[floor(x/8)]"), 1,
                    "stmtmap S1.1 ", "stmtmap S1.1 maps to 1 dims, the grid has 2"),
    "node-off-grid": (_line_edit("stmtmap S1.1 ", "P[floor(x/8), floor(y/8)]", "P[floor(x/8), 5]"), 1,
                      "stmtmap S1.1 ", "stmtmap S1.1 node=(0,5) outside grid (2,2)"),
    "unbounded": (_line_edit("stmtmap S1.1 ", "0 <= i <= 2", "0 <= i"), 1, "stmtmap S1.1 ",
                  "stmtmap S1.1 is unbounded"),
    "binds-nothing": (_line_edit("node=(0,0) t=(0,0,0,2,0,14,4,0) ", "read=buf:10@0", "read=none"), 1,
                      "node=(0,0) t=(0,0,0,2,0,14,4,0) ", "a compute line binds one buffer read, buffer writes or both"),
    "old-format": (_add_after("node=(0,0) t=(0,0,0,2,0,14,4,0) ", lambda ln: PR26_COMPUTE), 1, PR26_COMPUTE,
                   "compute line takes no stmt="),
    "old-storage-read": (_line_edit("node=(0,0) t=(0,0,0,2,0,14,4,0) ", "read=buf:10@0", "read=storage"), 1,
                         "node=(0,0) t=(0,0,0,2,0,14,4,0) ", "bad buffer reference 'storage'"),
    "missing-statement": (lambda lines: [ln for ln in lines if not ln.startswith("stmtmap S2.2 ")], 2, None,
                          "plan does not place statement S2.2"),
    "no-execution": (_t_down, 2, None,
                     "compute event on node (0, 0) at t=(0,0,0,2,0,14,4,-1) runs no execution"),
    "no-execution-anywhere": (_no_executions, 2, None,
                              "compute event on node (0, 0) at t=(0,0,0,2,0,14,4,0) runs no execution"),
    "instance-unplaced": (_line_edit("stmtmap S1.7 ", "1 <= x <= 14", "2 <= x <= 14"), 2, None,
                          "plan places S1.7(0,1,1) on no node"),
    # maps reaching far past the grid or the domain: the first stray point
    # is found without enumerating the map
    "overreach-grid": (_line_edit("stmtmap S1.1 ", "y <= 14 }", "y <= 100000000 }"), 1, "stmtmap S1.1 ",
                       "stmtmap S1.1 node=(0,2) outside grid (2,2)"),
    "overreach-grid-wide": (_line_edit("stmtmap S1.1 ", "y <= 14 }", "y <= 99999999999999999999 }"), 1,
                            "stmtmap S1.1 ", "stmtmap S1.1 node=(0,2) outside grid (2,2)"),
    "overreach-domain": (_at_origin_up_to(3000000), 2, None, "S1.1(0, 1, 15) is placed, but is not an instance of S1.1"),
    "overreach-domain-wide": (_at_origin_up_to(99999999999999999999), 2, None,
                              "S1.1(0, 1, 15) is placed, but is not an instance of S1.1"),
    # a map with one input dim too few: each of its points is a stray, and
    # an empty one places nothing
    "domain-arity": (_line_edit("stmtmap S1.1 ", S11[S11.index("{"):], S1_1_2D + " }"), 2, None,
                     "S1.1(0, 1) is placed, but is not an instance of S1.1"),
    "domain-arity-empty": (_line_edit("stmtmap S1.1 ", S11[S11.index("{"):], S1_1_2D + " and 0 = 1 }"), 2, None,
                           "compute event on node (1, 0) at t=(0,0,0,16,0,2,2,0) runs no execution"),
}


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("case", sorted(BAD_PLACEMENTS))
def test_verify_plan_with_bad_placement_or_binding(gol16_path, tmp_path, capsys, case):
    edit, code, at, message = BAD_PLACEMENTS[case]
    invoke("plan", str(gol16_path), "--out", str(tmp_path))
    lines = (tmp_path / "plan.txt").read_text().splitlines()
    assert S11 in lines
    lines = edit(lines)
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    argv = ["verify", str(gol16_path), "--plan", str(tmp_path / "bad.txt")]
    if case.startswith("overreach"):
        # enumerating such a map would run for minutes or exhaust memory:
        # run it in a child with a time and a memory limit
        capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "polydist.cli", *argv], capture_output=True, text=True,
                              timeout=10, preexec_fn=_limit_memory)
        got, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        got = invoke(*argv)
        out, err = capsys.readouterr()
    assert (got, out) == (code, ""), err
    if code == 2:
        assert err == f"validation error: {message}\n"
        return
    no = max(i for i, ln in enumerate(lines, 1) if ln.startswith(at))  # the second of a line given twice
    assert err.startswith(f"parse error: {message}") and err.endswith(f" (line {no})\n"), err


def _with_extra_binding(gol16_path, access):
    """A gol16 2x2 plan with one more compute event: a buffer read
    (access 'read') or write ('write') bound to an unbound execution of a
    statement that makes no such field access, while the node holds an
    open window of a channel at the right end; that node, scatter and
    execution."""
    analysis, plan = plan_scop(parse_scop_file(gol16_path))
    virt, end = analysis.scop, "dst" if access == "read" else "src"
    for node, steps in sorted(expand_plan(plan, virt).items()):
        open_at = set()  # the channels whose window at this end is open
        for st in steps:
            if st.kind in ("send_wait", "recv_wait") and CALLS[st.kind].end == end:
                open_at.add(st.cid)
            elif st.kind in ("send", "recv") and CALLS[st.kind].end == end:
                open_at.discard(st.cid)
            elif st.kind == "compute" and open_at and st.read_from is None and not st.writes:
                s = virt.statement(st.stmt)
                if not (s.reads() if access == "read" else s.writes()):
                    cid = min(open_at)
                    ev = Event(st.scatter, "compute", (cid, 0) if access == "read" else None,
                               () if access == "read" else (("buffer", cid, 0),))
                    events = {**plan.events, node: sorted(plan.events[node] + [ev], key=event_key)}
                    label = f"{st.stmt}({','.join(map(str, st.instance))})"
                    return dataclasses.replace(plan, events=events), node, st.scatter, label
    raise AssertionError(f"no execution to bind a {access} to")


def _verify_text(gol16_path, tmp_path, capsys, text):
    (tmp_path / "bad.txt").write_text(text)
    rc = invoke("verify", str(gol16_path), "--plan", str(tmp_path / "bad.txt"))
    return rc, capsys.readouterr()


def test_verify_plan_with_unknown_statement(gol16_path, tmp_path, capsys):
    # a stmtmap for a statement the scop lacks is a validation error
    invoke("plan", str(gol16_path), "--out", str(tmp_path))
    text = (tmp_path / "plan.txt").read_text()
    rc, out = _verify_text(gol16_path, tmp_path, capsys, text.replace(S11, S11 + "\n" + S11.replace("S1.1", "S9.9")))
    assert (rc, out.err) == (2, "validation error: plan places S9.9, which the scop lacks\n")


def test_verify_plan_with_out_of_domain_instance(gol16_path, tmp_path, capsys):
    # a stmtmap placing a point outside its statement's domain (i <= 2) is
    # a validation error, not a run of an instance that does not exist
    invoke("plan", str(gol16_path), "--out", str(tmp_path))
    text = (tmp_path / "plan.txt").read_text()
    rc, out = _verify_text(gol16_path, tmp_path, capsys, text.replace(S11, S11.replace("0 <= i <= 2", "0 <= i <= 7")))
    assert (rc, out.err) == (2, "validation error: S1.1(3, 1, 1) is placed, but is not an instance of S1.1\n")


@pytest.mark.parametrize("case", ["read_without_field_read", "virtual_statement", "write_without_field_write"])
def test_verify_plan_with_unrunnable_compute(gol16_path, tmp_path, capsys, case):
    # an execution placed for a virtual statement, or bound to a buffer read
    # or write its statement does not make: emitted plans hold none, and
    # verify rejects each before the first step
    if case == "virtual_statement":
        invoke("plan", str(gol16_path), "--out", str(tmp_path))
        text = (tmp_path / "plan.txt").read_text().replace(S11, S11 + "\nstmtmap Prologue { Prologue[] -> P[0, 0] }")
        message = "plan places Prologue, a virtual statement"
    else:
        access = case.split("_")[0]
        plan, node, scatter, label = _with_extra_binding(gol16_path, access)
        text = dump_plan(plan)
        message = (f"compute event on node {node} at t=({','.join(map(str, scatter))}) binds a field {access} "
                   f"for {label}, which {access}s no field")
    rc, out = _verify_text(gol16_path, tmp_path, capsys, text)
    assert (rc, out.out, out.err) == (2, "", f"validation error: {message}\n")


def test_verify_plan_with_binding_out_of_order(gol16_path, tmp_path, capsys):
    # a binding line whose t= names an execution before its chunk's
    # recv_wait, the line left in place: its read lies inside the window in
    # file order, but the run would read before the recv_wait, so the line
    # is out of (t, phase, cid, rank) order, a parse error at the line
    analysis, plan = plan_scop(parse_scop_file(gol16_path))
    lines = dump_plan(plan).splitlines()
    no = next(i for i, ln in enumerate(lines) if " kind=compute read=buf:" in ln)
    node, t = re.match(r"node=\(([\d,]+)\) t=\(([-\d,]+)\) ", lines[no]).groups()
    cid = re.search(r" read=buf:(\d+)@", lines[no])[1]
    wait = max(i for i, ln in enumerate(lines[:no])
               if ln.startswith(f"node=({node}) ") and " kind=recv_wait " in ln and ln.endswith(f" cid={cid}"))
    before = tuple(map(int, re.search(r" t=\(([-\d,]+)\) ", lines[wait])[1].split(",")))
    coord = tuple(map(int, node.split(",")))
    early = max(st.scatter for st in expand_plan(plan, analysis.scop)[coord]
                if st.kind == "compute" and st.scatter < before)
    lines[no] = lines[no].replace(f" t=({t}) ", f" t=({','.join(map(str, early))}) ")
    rc, out = _verify_text(gol16_path, tmp_path, capsys, "\n".join(lines) + "\n")
    assert (rc, out.out) == (1, "")
    assert out.err == (f"parse error: compute at t=({','.join(map(str, early))}) on node {coord} is not after "
                       f"the event before it in (t, phase, cid, rank) order (line {no + 1})\n")


def _faulty_plan(gol16_path, tmp_path, kind):
    """A gol16 2x2 plan that faults in the simulator: 'not_local' fills an
    element homed elsewhere, 'deadlock' drops a channel's last send."""
    invoke("plan", str(gol16_path), "--out", str(tmp_path))
    lines = (tmp_path / "plan.txt").read_text().splitlines()
    if kind == "not_local":
        no = next(i for i, ln in enumerate(lines) if " kind=buffer_fill " in ln)
        lines[no] = re.sub(r" elem=\(\d+,\d+\)", " elem=(15,15)", lines[no])
    else:
        cid = next(re.search(r" cid=\d+", ln)[0] for ln in lines if ln.startswith("channel"))
        del lines[max(i for i, ln in enumerate(lines) if " kind=send " in ln and ln.endswith(cid))]
    plan_file = tmp_path / f"{kind}.txt"
    plan_file.write_text("\n".join(lines) + "\n")
    return plan_file


@pytest.mark.parametrize("kind, fault", [("not_local", "NotLocal"), ("deadlock", "DeadlockDetected")])
def test_simulation_fault_exit_code(gol16_path, tmp_path, capsys, kind, fault):
    plan_file = _faulty_plan(gol16_path, tmp_path, kind)
    rc = invoke("simulate", str(gol16_path), "--plan", str(plan_file), "--out", str(tmp_path))
    out = capsys.readouterr()
    assert rc == 4
    assert out.err.startswith(f"simulation fault: {fault}: ")
    assert out.err.count("\n") == 1
    rc = invoke("verify", str(gol16_path), "--plan", str(plan_file))
    out = capsys.readouterr()
    assert rc == 4
    assert out.out.startswith(f"verify: FAIL ({fault}: ")


def test_simulate_writes_outputs(gol16_path, tmp_path):
    rc = invoke(
        "simulate", str(gol16_path), "--seed", "9", "--out", str(tmp_path),
        "--dump", "trace,plan",
    )
    assert rc == 0
    assert (tmp_path / "trace.txt").exists()
    assert (tmp_path / "plan.txt").exists()
    assert (tmp_path / "fields.txt").read_text().startswith("field front bool 16 16")


def test_simulate_matches_cli_roundtrip(gol16_path, tmp_path):
    # simulate from a dumped plan file gives the same fields as direct
    invoke("simulate", str(gol16_path), "--seed", "4", "--out", str(tmp_path / "a"))
    invoke("plan", str(gol16_path), "--out", str(tmp_path))
    invoke(
        "simulate", str(gol16_path), "--seed", "4",
        "--plan", str(tmp_path / "plan.txt"), "--out", str(tmp_path / "b"),
    )
    assert (tmp_path / "a" / "fields.txt").read_text() == (
        tmp_path / "b" / "fields.txt"
    ).read_text()


def test_iters_cap(gol16_path, tmp_path):
    rc = invoke("verify", str(gol16_path), "--iters", "1", "--seed", "3")
    assert rc == 0


def test_print_roundtrip(gol16_path, capsys):
    assert invoke("print", str(gol16_path)) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert [s["id"] for s in doc["statements"]][:3] == ["S1.1", "S1.2", "S1.3"]


def test_dumps_byte_stable(gol16_path, tmp_path):
    invoke("analyze", str(gol16_path), "--out", str(tmp_path / "a"))
    invoke("analyze", str(gol16_path), "--out", str(tmp_path / "b"))
    for name in ("deps.txt", "placements.txt", "chunks.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_console_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "polydist.cli", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "analyze" in proc.stdout


def test_empty_domains_every_subcommand(gol16_path, tmp_path, capsys):
    # --iters 0 empties every statement domain: each statement still gets a
    # (empty) placement, and the plan leaves the contents as they were
    scop = parse_scop_file(gol16_path)
    init = dump_contents(scop, random_contents(scop, 5))
    init_file = tmp_path / "init.txt"
    init_file.write_text(init)
    for cmd, extra in (("analyze", []), ("plan", []),
                       ("simulate", ["--init", str(init_file)]),
                       ("verify", ["--init", str(init_file), "--dump", "trace"])):
        rc = invoke(cmd, str(gol16_path), "--iters", "0", "--out", str(tmp_path / cmd), *extra)
        assert rc == 0, cmd
    assert "verify: PASS" in capsys.readouterr().out
    assert (tmp_path / "simulate" / "fields.txt").read_text() == init


def _unreadable(tmp_path, gol16_path, option, what):
    target = tmp_path / what
    if what == "dir":
        target.mkdir()
    elif what == "binary":
        target.write_bytes(b"\xff\xfe\x00")
    if option == "input":
        return [str(target)], target
    return [str(gol16_path), f"--{option}", str(target)], target


@pytest.mark.parametrize(
    "option, what, reason",
    [
        ("input", "missing", "No such file or directory"),
        ("input", "dir", "Is a directory"),
        ("input", "binary", "'utf-8' codec can't decode byte 0xff"),
        ("plan", "missing", "No such file or directory"),
        ("plan", "dir", "Is a directory"),
        ("init", "missing", "No such file or directory"),
        ("init", "dir", "Is a directory"),
    ],
)
def test_unreadable_file_is_a_parse_error(gol16_path, tmp_path, capsys, option, what, reason):
    args, target = _unreadable(tmp_path, gol16_path, option, what)
    assert invoke("simulate", *args) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"parse error: cannot read {target}: {reason}")
    assert err.count("\n") == 1


def _wide_scop(offset, coeff):
    """W[x] writes b[x-offset]; R[x] reads b in reverse and writes a[x-offset],
    both scheduled coeff*x, so the flows cross the two nodes."""
    dom = f"{{ [x] : {offset} <= x < {offset + 4} }}"
    return {
        "name": "wide", "grid": [2], "scatter_arity": 2,
        "fields": [{"name": "a", "type": "int64", "extents": [4]},
                   {"name": "b", "type": "int64", "extents": [4]}],
        "functions": {},
        "statements": [
            {"id": "W", "domain": dom, "schedule": f"{{ [x] -> [0, {coeff}*x] }}",
             "accesses": [{"field": "b", "kind": "write", "index": [f"x-{offset}"]}],
             "body": ["int", 7]},
            {"id": "R", "domain": dom, "schedule": f"{{ [x] -> [1, {coeff}*x] }}",
             "accesses": [{"field": "b", "kind": "read", "index": [f"{offset + 3}-x"]},
                          {"field": "a", "kind": "write", "index": [f"x-{offset}"]}],
             "body": ["access", 0]},
        ],
    }


@pytest.mark.parametrize(
    "offset, coeff", [(2**62, 1), (2**70, 1), (0, 2**62), (0, 2**70)],
    ids=["offset62", "offset70", "coeff62", "coeff70"],
)
def test_scatters_stay_exact_beyond_int64(tmp_path, capsys, offset, coeff):
    path = tmp_path / "wide.scop"
    path.write_text(json.dumps(_wide_scop(offset, coeff)))
    assert invoke("verify", str(path), "--seed", "1") == 0
    assert "verify: PASS" in capsys.readouterr().out
    assert invoke("plan", str(path), "--out", str(tmp_path)) == 0
    text = (tmp_path / "plan.txt").read_text()
    # W's writes and R.1's reads of b cross the nodes: a compute event at
    # each of their eight executions, at the exact dilated scatter
    computes = re.findall(r"t=\((\d+),(\d+),(\d+)\) kind=compute ", text)
    assert len(computes) == 8
    for t0, t1, t2 in computes:
        assert int(t0) in (0, 2) and int(t1) % (2 * coeff) == 0 and 0 <= int(t1) // (2 * coeff) - offset < 4
    assert f"stmtmap W {{ W[x] -> " in text and f"{offset} <= x <= {offset + 3}" in text
    first = 2 * coeff * offset
    assert f"node=(0) t=(0,{first},-1) kind=send_wait chunk=flow:W->R.1:b" in text


def _gol16_doc(gol16_path, edit):
    doc = json.loads(gol16_path.read_text())
    edit(doc)
    return doc


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["statements"][0].pop("domain"), "statement S1.1: missing key 'domain'"),
        (lambda d: d["fields"][1].pop("extents"), "field back: missing key 'extents'"),
        (lambda d: d.update(grid="2x2"), "scop: 'grid' must be a list of integers"),
        (
            lambda d: d["statements"][0]["accesses"][0].update(index=5),
            "statement S1.1 access 0: 'index' must be a list of strings",
        ),
        (lambda d: d.update(statements={}), "scop: 'statements' must be a list of objects"),
        # a shape error comes before the repeated parameter
        (lambda d: d["functions"].update(hasLife={"params": ["a", "a"]}), "function hasLife: missing key 'body'"),
        (
            lambda d: d["statements"][0]["accesses"][0].update(index=["floor(x/0)", "y"]),
            "statement S1.1 access 0: bad index: floordiv divisor must be positive "
            "(line 1, column 9)",
        ),
    ],
    ids=["no-domain", "no-extents", "grid-string", "index-int", "statements-object", "no-body", "index-div0"],
)
def test_malformed_scop_is_a_parse_error(gol16_path, tmp_path, edit, message):
    path = tmp_path / "bad.scop"
    path.write_text(json.dumps(_gol16_doc(gol16_path, edit)))
    proc = subprocess.run(
        [sys.executable, "-m", "polydist.cli", "print", str(path)], capture_output=True, text=True
    )
    assert proc.returncode == 1
    assert proc.stderr == f"parse error: {message}\n"


def test_unbounded_domain_is_a_validation_error(gol16_path, tmp_path, capsys):
    def unbound(doc):
        doc["statements"][1]["domain"] = "{ [i,x,y] : i >= 0 and 1 <= x < 15 and 1 <= y < 15 }"

    path = tmp_path / "unbounded.scop"
    path.write_text(json.dumps(_gol16_doc(gol16_path, unbound)))
    assert invoke("print", str(path)) == 2
    assert capsys.readouterr().err == (
        "validation error: statement S1.2: unbounded domain: dimension i is unbounded\n"
    )


def test_scop_validated_once_per_run(gol16_path, capsys, monkeypatch):
    from polydist.scop import Scop

    runs = []
    real = Scop.validate
    monkeypatch.setattr(Scop, "validate", lambda self: runs.append(self) or real(self))
    assert invoke("verify", str(gol16_path), "--grid", "2x2", "--seed", "3") == 0
    assert "verify: PASS" in capsys.readouterr().out
    assert len(runs) == 1


def _access0(**entries):
    return lambda d: d["statements"][0]["accesses"][0].update(entries)


def _domain0_with(condition):
    return lambda d: d["statements"][0].update(
        domain="{ [i,x,y] : 0 <= i < 3 and 1 <= x < 15 and 1 <= y < 15 and " + condition + " }")


_WRITE_FRONT = {"field": "front", "kind": "write", "index": ["x", "y"]}

# edits of gol16's document and the exit code and single stderr line each
# must end in: 2 for a documented invariant it breaks, 1 for a wrong shape
BAD_SCOPS = {
    "duplicate-field": (lambda d: d["fields"][1].update(name="front"), 2,
                        "validation error: duplicate field names"),
    "duplicate-statement": (lambda d: d["statements"][1].update(id="S1.1"), 2,
                            "validation error: duplicate statement ids"),
    "schedule-arity": (lambda d: d["statements"][0].update(schedule="{ [i,x,y] -> [0,i,0,x,0,y] }"), 2,
                       "validation error: S1.1: schedule arity 6 != scatter arity 7"),
    "two-writes": (lambda d: d["statements"][6]["accesses"].append(_WRITE_FRONT), 2,
                   "validation error: S1.7: more than one write access"),
    "undeclared-field": (_access0(field="ghost"), 2,
                         "validation error: S1.1: access to undeclared field 'ghost'"),
    "index-count": (_access0(index=["x"]), 2,
                    "validation error: S1.1: access to front has 1 indexes, field has 2 dimensions"),
    "index-floor": (_access0(index=["floor(x/2)", "y"]), 2,
                    "validation error: S1.1: access index expressions must be affine"),
    # a written floor term is not affine even when its coefficients cancel
    "index-floor-cancels": (_access0(index=["x + floor(y/2) - floor(y/2)", "y"]), 2,
                            "validation error: S1.1: access index expressions must be affine"),
    "index-floor-times-0": (_access0(index=["x + 0*floor(y/2)", "y"]), 2,
                            "validation error: S1.1: access index expressions must be affine"),
    "no-body": (lambda d: d["statements"][6].pop("body"), 2,
                "validation error: S1.7: writing statement has no body"),
    "element-type": (lambda d: d["fields"][0].update(type="int8"), 2,
                     "validation error: field front: unknown element type int8"),
    "extent-0": (lambda d: d["fields"][0].update(extents=[0, 16]), 2,
                 "validation error: field front: extents must all be >= 1"),
    "grid-0": (lambda d: d.update(grid=[0, 2]), 2, "validation error: grid extents must all be >= 1"),
    "access-kind": (_access0(kind="update"), 2,
                    "validation error: statement S1.1 access 0: access kind must be read or write, got 'update'"),
    "function-not-object": (lambda d: d["functions"].update(hasLife=5), 1,
                            "parse error: function hasLife: must be an object"),
    "bad-domain": (lambda d: d["statements"][0].update(domain="{ [i,x,y] : 0 <= i < }"), 1,
                   "parse error: statement S1.1: bad domain: unexpected token '}' (line 1, column 22)"),
    "bad-schedule": (lambda d: d["statements"][0].update(schedule="{ [i,x,y] -> [0,i }"), 1,
                     "parse error: statement S1.1: bad schedule: expected ']' (line 1, column 20)"),
    "product-floor-cancels": (_domain0_with("(floor(x/2) - floor(x/2))*y >= 0"), 1,
                              "parse error: statement S1.1: bad domain: products of two variables are not "
                              "affine (line 1, column 85)"),
    "product-floor-times-0": (_domain0_with("0*floor(x/2)*y >= 0"), 1,
                              "parse error: statement S1.1: bad domain: products of two variables are not "
                              "affine (line 1, column 72)"),
}


@pytest.mark.parametrize("case", sorted(BAD_SCOPS))
def test_bad_scop_document(gol16_path, tmp_path, capsys, case):
    edit, code, message = BAD_SCOPS[case]
    path = tmp_path / "bad.scop"
    path.write_text(json.dumps(_gol16_doc(gol16_path, edit)))
    assert invoke("print", str(path)) == code
    assert capsys.readouterr().err == message + "\n"


def test_scop_document_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.scop"
    path.write_text("[]")
    assert invoke("print", str(path)) == 1
    assert capsys.readouterr().err == "parse error: scop document must be a JSON object\n"


def test_floor_of_a_constant_in_a_subscript_validates(gol16_path, tmp_path, capsys):
    path = tmp_path / "const-floor.scop"
    path.write_text(json.dumps(_gol16_doc(gol16_path, _access0(index=["x + 1 - floor(4/2)", "y"]))))
    assert invoke("print", str(path)) == 0
    assert json.loads(capsys.readouterr().out)["statements"][0]["accesses"][0]["index"] == ["x - 1", "y"]


@pytest.mark.parametrize("options, message", [
    (["--grid", "2xx"], "bad grid spec '2xx', expected e.g. 2x2"),
    (["--iters", "-1"], "--iters must be >= 0"),
    (["--grid", "2x2x2"], "field front has 2 dims, grid has 3"),
    (["--grid", "3x3"], "field front dim 0: extent 16 not divisible by grid 3"),
], ids=["grid-spec", "iters", "grid-arity", "grid-indivisible"])
def test_bad_option_is_a_validation_error(gol16_path, capsys, options, message):
    assert invoke("verify", str(gol16_path), *options) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"


def test_verify_reports_the_first_divergence(gol16_path, tmp_path, capsys):
    """A plan that passes every check and runs without a fault, but whose
    S1.2(0,3,7) reads front(2,8), rank 1 of the message, in place of
    front(3,8), rank 2: simulate accepts it, verify names the first
    element that differs, back(3,7), which S1.7(0,3,7) stores."""
    invoke("plan", str(gol16_path), "--grid", "2x2", "--out", str(tmp_path))
    lines = (tmp_path / "plan.txt").read_text().splitlines()
    moved = _line_edit("node=(0,0) t=(0,0,0,6,0,14,4,0) ", "read=buf:10@2", "read=buf:10@1")(lines)
    assert "channel cid=10 family=pro:S1.2:front src=(0,1) dst=(0,0) box=[1:7;8:8]" in lines
    plan_file = tmp_path / "moved-read.txt"
    plan_file.write_text("\n".join(moved) + "\n")
    capsys.readouterr()
    argv = (str(gol16_path), "--grid", "2x2", "--seed", "7", "--plan", str(plan_file))
    assert invoke("verify", *argv) == 4
    assert capsys.readouterr().out == (
        "verify: FAIL first divergence field=back index=(3, 7) expected=True got=False\n")
    assert invoke("simulate", *argv) == 0


def _set_box0(box):
    return lambda lines: [re.sub(r" box=\[[^]]*\]", f" box={box}", ln) if ln.startswith("channel cid=0 ")
                          else ln for ln in lines]


def _append_to_first(pick, text):
    def edit(lines):
        no = next(i for i, ln in enumerate(lines) if pick(ln))
        return lines[:no] + [lines[no] + text] + lines[no + 1:]
    return edit


def _replace_in_first(pick, old, new):
    def edit(lines):
        no = next(i for i, ln in enumerate(lines) if pick(ln))
        assert old in lines[no]
        return lines[:no] + [lines[no].replace(old, new, 1)] + lines[no + 1:]
    return edit


def _is_channel0(ln):
    return ln.startswith("channel cid=0 ")


# edits of the gol16 2x2 plan that must fail to parse: (edit, the line
# the error names, message)
BAD_PLANS = {
    # a box this large would be allocated as the channel's buffer
    "huge-box": (_set_box0("[0:99999999999;0:99999999999]"), lambda ln: ln.startswith("channel cid=0 "),
                 "channel cid=0 box=[0:99999999999;0:99999999999] is reversed or outside field front (16,16)"),
    "box-off-field": (_set_box0("[70:70;1:7]"), lambda ln: ln.startswith("channel cid=0 "),
                      "channel cid=0 box=[70:70;1:7] is reversed or outside field front (16,16)"),
    "field-twice": (lambda lines: lines[:1] + ["field front int64 extents=(16,16)"] + lines[1:],
                    lambda ln: ln.startswith("field front bool "),
                    "field front declared twice"),
    "channel-derived-keys": (
        _append_to_first(lambda ln: ln.startswith("channel cid=0 "), " tag=3 size=999 elem=float64 block=(1,1)"),
        lambda ln: ln.startswith("channel cid=0 "), "channel line takes no tag="),
    "write-twice": (
        _append_to_first(lambda ln: " kind=compute " in ln and ln.endswith(" write=none"), " write=none"),
        lambda ln: ln.endswith(" write=none write=none"), "write= given twice"),
    # a bare token beyond the name (header) or the name and type (field)
    "channel-stray-token": (_append_to_first(_is_channel0, " stray"), _is_channel0,
                            "channel line takes no 'stray'"),
    "field-stray-token": (_append_to_first(lambda ln: ln.startswith("field "), " junk"),
                          lambda ln: ln.endswith(" junk"), "field line takes no 'junk'"),
    "compute-stray-token": (_append_to_first(lambda ln: " kind=compute " in ln, " extra"),
                            lambda ln: ln.endswith(" extra"), "compute line takes no 'extra'"),
    "fieldmap-undeclared": (_replace_in_first(lambda ln: ln.startswith("fieldmap front "), "front", "ghost"),
                            lambda ln: ln.startswith("fieldmap ghost "), "fieldmap for undeclared field ghost"),
    "channel-out-of-order": (_replace_in_first(_is_channel0, "cid=0", "cid=1"),
                             lambda ln: ln.startswith("channel cid=1 family=flow:S2.2->S1.1:"),
                             "channel cid=1 out of order, expected 0"),
    "channel-undeclared-field": (_replace_in_first(_is_channel0, ":front ", ":ghost "), _is_channel0,
                                 "channel for undeclared field ghost"),
    "bare-field": (lambda lines: lines[:1] + ["field"] + lines[1:], lambda ln: ln == "field",
                   "incomplete line 'field'"),
    "bad-buffer-ref": (_replace_in_first(lambda ln: " read=buf:" in ln, "read=buf:", "read=bf:"),
                       lambda ln: " read=bf:" in ln, "bad buffer reference 'bf:10@0'"),
}


@pytest.mark.parametrize("case", sorted(BAD_PLANS))
def test_verify_plan_parse_error(gol16_path, tmp_path, capsys, case):
    edit, at, message = BAD_PLANS[case]
    invoke("plan", str(gol16_path), "--out", str(tmp_path))
    lines = edit((tmp_path / "plan.txt").read_text().splitlines())
    no = next(i for i, ln in enumerate(lines, 1) if at(ln))
    (tmp_path / "bad.txt").write_text("\n".join(lines) + "\n")
    assert invoke("verify", str(gol16_path), "--plan", str(tmp_path / "bad.txt")) == 1
    assert capsys.readouterr().err == f"parse error: {message} (line {no})\n"


def _replace_line(n, text):
    return lambda lines: lines[:n - 1] + [text] + lines[n:]


# Mutations of a dumped gol16 contents file (front on lines 1-17, back on
# lines 18-34) and the message each must end in.
BAD_INIT = {
    "unknown-field": (_replace_line(1, "field ghost bool 16 16"), "unknown field 'ghost' (line 1)"),
    "bare-header": (lambda lines: lines + ["field"],
                    "expected 'field NAME TYPE EXTENTS...', got 'field' (line 35)"),
    "no-extents": (_replace_line(18, "field back bool"),
                   "expected 'field NAME TYPE EXTENTS...', got 'field back bool' (line 18)"),
    "text-extent": (_replace_line(1, "field front bool 16 x"),
                    "field front: extents must be integers (line 1)"),
    "cut-at-end": (lambda lines: lines[:-1], "field back: 16 rows expected, 15 given (line 18)"),
    "cut-in-middle": (lambda lines: lines[:16] + lines[17:],
                      "field front: row 15 has 5 values, not 16 (line 17)"),
    "bool-2": (lambda lines: lines[:1] + ["2" + lines[1][1:]] + lines[2:],
               "field front: bad bool value '2' (line 2)"),
    "bool-x0": (lambda lines: lines[:19] + [lines[19][:-1] + "x0"] + lines[20:],
                "field back: bad bool value 'x0' (line 20)"),
    "given-twice": (_replace_line(18, "field front bool 16 16"), "field front given twice (line 18)"),
}


@pytest.mark.parametrize("case", sorted(BAD_INIT))
def test_bad_init_file_is_a_parse_error(gol16_path, tmp_path, capsys, case):
    mutate, message = BAD_INIT[case]
    scop = parse_scop_file(gol16_path)
    init = tmp_path / "init.txt"
    init.write_text("\n".join(mutate(dump_contents(scop, random_contents(scop, 5)).splitlines())))
    assert invoke("verify", str(gol16_path), "--init", str(init)) == 1
    assert capsys.readouterr() == ("", f"parse error: {message}\n")


@pytest.mark.parametrize("header", ["field front int64 16 16", "field front bool 16 8"])
def test_init_header_unlike_the_declaration(gol16_path, tmp_path, capsys, header):
    scop = parse_scop_file(gol16_path)
    init = tmp_path / "init.txt"
    init.write_text("\n".join(_replace_line(1, header)(
        dump_contents(scop, random_contents(scop, 5)).splitlines())))
    assert invoke("verify", str(gol16_path), "--init", str(init)) == 2
    assert capsys.readouterr() == (
        "", "validation error: field front header does not match declaration\n")


NUMBERS_SCOP = {
    "name": "numbers", "grid": [2], "scatter_arity": 2,
    "fields": [{"name": "a", "type": "int64", "extents": [4]},
               {"name": "f", "type": "float64", "extents": [4]}],
    "functions": {},
    "statements": [{
        "id": "S", "domain": "{ [x] : 0 <= x < 4 }", "schedule": "{ [x] -> [0,x] }",
        "accesses": [{"field": "a", "kind": "read", "index": ["x"]},
                     {"field": "a", "kind": "write", "index": ["x"]}],
        "body": ["sub", ["access", 0], ["int", 1]]}],
}
NUMBERS_INIT = ["field a int64 4", "1 -9223372036854775807 9223372036854775807 0",
                "field f float64 4", "0.5 -0.0 1e300 inf"]


@pytest.mark.parametrize("line, word, message", [
    (2, "9223372036854775808", "field a: bad int64 value '9223372036854775808' (line 2)"),
    (2, "-9223372036854775809", "field a: bad int64 value '-9223372036854775809' (line 2)"),
    (2, "1.5", "field a: bad int64 value '1.5' (line 2)"),
    (4, "1e", "field f: bad float64 value '1e' (line 4)"),
    (4, "true", "field f: bad float64 value 'true' (line 4)"),
])
def test_bad_number_in_init_file(tmp_path, capsys, line, word, message):
    path = tmp_path / "numbers.scop"
    path.write_text(json.dumps(NUMBERS_SCOP))
    lines = list(NUMBERS_INIT)
    lines[line - 1] = word + lines[line - 1][lines[line - 1].index(" "):]
    init = tmp_path / "init.txt"
    init.write_text("\n".join(lines) + "\n")
    assert invoke("verify", str(path), "--init", str(init)) == 1
    assert capsys.readouterr() == ("", f"parse error: {message}\n")


def test_init_file_of_int64_and_float64(tmp_path, capsys):
    path, init = tmp_path / "numbers.scop", tmp_path / "init.txt"
    path.write_text(json.dumps(NUMBERS_SCOP))
    init.write_text("\n".join(NUMBERS_INIT) + "\n")
    assert invoke("verify", str(path), "--init", str(init)) == 0
    assert capsys.readouterr() == (f"verify: PASS (grid=2, init={init})\n", "")
    assert invoke("simulate", str(path), "--init", str(init), "--out", str(tmp_path)) == 0
    assert (tmp_path / "fields.txt").read_text().splitlines() == [
        "field a int64 4", "0 -9223372036854775808 9223372036854775806 -1",
        "field f float64 4", "0.5 -0.0 1e+300 inf"]


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_init_and_seed_together_rejected(gol16_path, tmp_path, capsys, monkeypatch, command):
    _no_analysis(monkeypatch)
    init = tmp_path / "init.txt"
    assert invoke(command, str(gol16_path), "--init", str(init), "--seed", "3") == 2
    assert capsys.readouterr() == (
        "", "validation error: --init and --seed cannot be given together\n")


def test_int64_store_out_of_range_exits_3(tmp_path, capsys):
    doc = dict(NUMBERS_SCOP, statements=[dict(
        NUMBERS_SCOP["statements"][0], accesses=NUMBERS_SCOP["statements"][0]["accesses"][1:],
        body=["mul", ["int", 4611686018427387904], ["int", 4]])])
    path = tmp_path / "overflow.scop"
    path.write_text(json.dumps(doc))
    assert invoke("verify", str(path)) == 3
    assert capsys.readouterr() == (
        "", "analysis error: field a stores int64, got 18446744073709551616, out of range\n")


def test_verify_is_bit_exact_on_float64(tmp_path, capsys):
    # a copied by its statement, b never written: nan matches the same nan
    doc = dict(NUMBERS_SCOP, fields=[{"name": "a", "type": "float64", "extents": [4]},
                                     {"name": "b", "type": "float64", "extents": [4]}],
               statements=[dict(NUMBERS_SCOP["statements"][0], body=["access", 0])])
    path, init = tmp_path / "copy.scop", tmp_path / "init.txt"
    path.write_text(json.dumps(doc))
    init.write_text("field a float64 4\n0.5 nan -0.0 1\nfield b float64 4\nnan 0.0 -0.0 inf\n")
    assert invoke("verify", str(path), "--init", str(init)) == 0
    assert capsys.readouterr() == (f"verify: PASS (grid=2, init={init})\n", "")


def test_first_divergence_tells_zero_from_negative_zero():
    name, index, want, got = first_divergence({"f": np.array([0.0])}, {"f": np.array([-0.0])})
    assert (name, index, str(want), str(got)) == ("f", (0,), "0.0", "-0.0")


# One field of each element type, each rewritten in place by one statement.
MIXED_SCOP = dict(NUMBERS_SCOP, name="mixed", fields=[
    {"name": "p", "type": "bool", "extents": [4]},
    {"name": "a", "type": "int64", "extents": [4]},
    {"name": "f", "type": "float64", "extents": [4]},
], statements=[
    {"id": sid, "domain": "{ [x] : 0 <= x < 4 }", "schedule": f"{{ [x] -> [{t},x] }}",
     "accesses": [{"field": name, "kind": kind, "index": ["x"]} for kind in ("read", "write")],
     "body": body}
    for t, (sid, name, body) in enumerate((
        ("P", "p", ["not", ["access", 0]]),
        ("A", "a", ["sub", ["access", 0], ["int", 1]]),
        ("F", "f", ["mul", ["access", 0], ["float", 2.0]]),
    ))
])
INIT_WORDS = ("0", "-1", str(2**63), str(-2**63 - 1), "nan", "x")


def _edit(draw, items: list, op: str) -> list:
    """items with one entry deleted, duplicated, swapped with another or
    replaced by one of INIT_WORDS."""
    if not items:
        return items
    i, j = (draw(st.integers(0, len(items) - 1)) for _ in range(2))
    items = list(items)
    if op == "delete":
        del items[i]
    elif op == "duplicate":
        items.insert(i, items[i])
    elif op == "swap":
        items[i], items[j] = items[j], items[i]
    else:
        items[i] = draw(st.sampled_from(INIT_WORDS))
    return items


@st.composite
def mutated_init(draw, text: str) -> str:
    """text with one to three token or line edits, or cut short."""
    lines = [ln.split() for ln in text.splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "replace", "truncate")))
        if op == "truncate":
            text = "\n".join(map(" ".join, lines))
            lines = [ln.split() for ln in text[:draw(st.integers(0, len(text)))].splitlines()]
        elif op != "replace" and draw(st.booleans()):
            lines = _edit(draw, lines, op)
        elif lines:
            k = draw(st.integers(0, len(lines) - 1))
            lines[k] = _edit(draw, lines[k], op)
    return "\n".join(map(" ".join, lines)) + "\n"


@pytest.fixture(scope="module")
def mixed_scop_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("mixed") / "mixed.scop"
    path.write_text(json.dumps(MIXED_SCOP))
    return path


def _mixed_init() -> str:
    scop = parse_scop(json.dumps(MIXED_SCOP))
    return dump_contents(scop, random_contents(scop, 3))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(text=mutated_init(_mixed_init()))
def test_mutated_init_file_fails_cleanly(mixed_scop_path, text):
    init = mixed_scop_path.with_name("init.txt")
    init.write_text(text)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(["simulate", str(mixed_scop_path), "--init", str(init)])
    err = err.getvalue()
    assert rc in range(5)
    assert "Traceback" not in err
    if rc == 0:
        assert err == ""
        return
    assert err.count("\n") == 1 and err.endswith("\n")
    assert err.startswith(("parse error: ", "validation error: ")), err
    for no in re.findall(r"\(line (\d+)\)", err):
        assert 1 <= int(no) <= len(text.splitlines()), err
