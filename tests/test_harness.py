"""Tests for the trace harness: parsing, generation, replay, and the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import dynacut.harness as harness
from dynacut.cli import main as cli_main
from dynacut.harness import (
    TraceError, TraceLine, gen_workload, parse_trace, render_trace,
    run_trace,
)

BARBELL_TRACE = [
    # two triangles {0,1,2} and {3,4,5} joined by the bridge 2-3
    TraceLine("insert", 0, 1), TraceLine("insert", 1, 2),
    TraceLine("insert", 0, 2), TraceLine("insert", 3, 4),
    TraceLine("insert", 4, 5), TraceLine("insert", 3, 5),
    TraceLine("insert", 2, 3),
]


def shadow_validate(lines):
    """Replay validator: every prefix must be applicable to a simple graph."""
    present, seen = set(), set()
    for tl in lines:
        if tl.kind == "comment":
            continue
        key = (min(tl.u, tl.v), max(tl.u, tl.v))
        if tl.kind == "insert":
            assert tl.u != tl.v and key not in present
            present.add(key)
            seen |= {tl.u, tl.v}
        elif tl.kind == "delete":
            assert key in present
            present.remove(key)
        else:
            assert tl.u in seen and tl.v in seen


# -- parse / render ----------------------------------------------------------

def test_round_trip():
    for seed in range(5):
        t = gen_workload(10, 80, seed=seed, query_rate=0.3)
        assert parse_trace(render_trace(t)) == t


def test_round_trip_with_comments():
    t = [TraceLine("comment", text="hello"), TraceLine("insert", 0, 1),
         TraceLine("query", 1, 0)]
    assert parse_trace(render_trace(t)) == t


def test_parse_skips_blank_lines():
    assert parse_trace("\n\ninsert 0 1\n\n") == [TraceLine("insert", 0, 1)]


@pytest.mark.parametrize("text,lineno", [
    ("frobnicate 0 1", 1),
    ("insert 0", 1),
    ("insert 0 1 2", 1),
    ("insert a b", 1),
    ("insert 0 -1", 1),
    ("insert 0 1\nquery x 2", 2),
])
def test_parse_errors_carry_line_numbers(text, lineno):
    with pytest.raises(TraceError) as exc:
        parse_trace(text)
    assert exc.value.lineno == lineno
    assert f"line {lineno}" in str(exc.value)


# -- gen_workload ------------------------------------------------------------

def test_gen_deterministic():
    a = gen_workload(12, 200, seed=7)
    b = gen_workload(12, 200, seed=7)
    assert a == b
    assert gen_workload(12, 200, seed=8) != a


def test_gen_zero_ops_is_empty():
    assert gen_workload(5, 0, seed=0) == []
    assert render_trace([]) == ""


def test_gen_prefix_validity_10k():
    shadow_validate(gen_workload(16, 10_000, seed=13, query_rate=0.3))


def test_gen_saturated_graph_still_valid():
    # n=2 has one possible edge, forcing constant insert/delete alternation
    shadow_validate(gen_workload(2, 50, seed=0, query_rate=0.0))


# -- run_trace ---------------------------------------------------------------

def test_empty_trace(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("")
    m = tmp_path / "m.json"
    assert run_trace(str(p), 2, metrics_path=str(m)) == 0
    doc = json.loads(m.read_text())
    assert doc["schema_version"] == 2
    assert set(doc["expander"]) == {"exact_limit", "conductance_limit"}
    assert doc["ops"] == {"insert": 0, "delete": 0, "query": 0}


def test_barbell_cross_bridge(tmp_path, capsys):
    lines = BARBELL_TRACE + [TraceLine("query", 0, 4),
                             TraceLine("query", 0, 1)]
    m = tmp_path / "m.json"
    assert run_trace(None, 2, oracle_check=True, metrics_path=str(m),
                     lines=lines) == 0
    doc = json.loads(m.read_text())
    assert doc["queries"]["checked"] == 2
    assert doc["mismatch"] is None
    assert doc["scheduler"]["max_batches"]["ok"]
    assert doc["scheduler"]["max_batch_size"]["ok"]
    assert doc["scheduler"]["work_smoothing"]["ok"]
    assert doc["repair_sets"]["all_ok"]


def test_parse_error_exit_code(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("insert 0 1\nbogus\n")
    assert run_trace(str(p), 2) == 2


def test_replay_error_exit_code():
    assert run_trace(None, 2, lines=[TraceLine("delete", 0, 1)]) == 2
    assert run_trace(None, 2, lines=[TraceLine("insert", 0, 1),
                                     TraceLine("insert", 1, 0)]) == 2
    assert run_trace(None, 2, lines=[TraceLine("query", 0, 1)]) == 2


def test_injected_bug_detected(tmp_path, capsys, monkeypatch):
    """A deterministic fault (flip the answer of one query pair) must be
    caught by the oracle diff and reported with a minimized prefix."""
    real = harness.engine_query

    def bugged(e, u, w):
        ans = real(e, u, w)
        return (not ans) if {u, w} == {0, 4} else ans

    monkeypatch.setattr(harness, "engine_query", bugged)
    lines = BARBELL_TRACE + [TraceLine("query", 0, 1),
                             TraceLine("query", 0, 4)]
    assert run_trace(None, 2, oracle_check=True, lines=lines) == 1
    out = capsys.readouterr().out
    assert "MISMATCH" in out
    repro = parse_trace(out.split("minimized reproduction trace:\n")[1])
    assert repro[-1] == TraceLine("query", 0, 4)
    # minimization drops at least the unrelated passing query
    assert len(repro) < len(lines)
    mism, _, _ = harness._replay(repro, 2, oracle_check=False)
    assert mism is None  # repro is replayable on the unbugged engine


def test_metrics_paper_validate(tmp_path):
    m = tmp_path / "m.json"
    assert run_trace(None, 2, profile="paper-validate", oracle_check=True,
                     metrics_path=str(m), lines=list(BARBELL_TRACE)) == 0
    doc = json.loads(m.read_text())
    assert doc["profile"] == "paper-validate"
    assert doc["paper_schedule"]["profile"] == "paper"
    assert doc["paper_schedule"]["table_kind"] == "multiplier"


def test_query_stats_in_metrics(tmp_path):
    lines = gen_workload(8, 60, seed=1, query_rate=0.3)
    m = tmp_path / "m.json"
    assert run_trace(None, 2, oracle_check=True, metrics_path=str(m),
                     lines=lines) == 0
    doc = json.loads(m.read_text())
    assert doc["queries"]["count"] == doc["queries"]["checked"] > 0
    assert doc["queries"]["max_h_vertices"] >= 2
    assert doc["levels"]["count"] >= 1
    assert len(doc["scheduler"]["steps_per_update"]) == \
        doc["ops"]["insert"] + doc["ops"]["delete"]


# -- CLI ---------------------------------------------------------------------

def test_cli_gen_and_run(tmp_path):
    runner = CliRunner()
    res = runner.invoke(cli_main, ["gen", "--n", "6", "--ops", "30",
                                   "--seed", "3", "--query-rate", "0.3"])
    assert res.exit_code == 0
    trace = tmp_path / "t.txt"
    trace.write_text(res.output)
    m = tmp_path / "m.json"
    res = runner.invoke(cli_main, ["run", "--trace", str(trace), "--c", "2",
                                   "--oracle-check", "--metrics", str(m)])
    assert res.exit_code == 0, res.output
    assert json.loads(m.read_text())["schema_version"] == 2


def test_cli_gen_deterministic():
    runner = CliRunner()
    args = ["gen", "--n", "8", "--ops", "50", "--seed", "9"]
    assert runner.invoke(cli_main, args).output == \
        runner.invoke(cli_main, args).output


def test_cli_usage_errors(tmp_path):
    runner = CliRunner()
    assert runner.invoke(cli_main, ["run"]).exit_code == 2
    assert runner.invoke(cli_main, ["gen", "--n", "1", "--ops", "5"]
                         ).exit_code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("nonsense\n")
    res = runner.invoke(cli_main, ["run", "--trace", str(bad), "--c", "1"])
    assert res.exit_code == 2


def test_cli_engine_refusal_exits_2(tmp_path):
    """A RejectedOp from the engine during the replay is a refusal, not a
    mismatch: `dynacut run` prints one line and exits 2, not 1.  Here the
    vertex id is past the 32-bit range the gadget's ids are built from."""
    runner = CliRunner()
    trace = tmp_path / "t.txt"
    trace.write_text("insert 0 1\ninsert 1 4294967296\nquery 0 1\n")
    res = runner.invoke(cli_main, ["run", "--trace", str(trace), "--c", "2"])
    assert res.exit_code == 2
    assert isinstance(res.exception, SystemExit)
    assert "engine refused: gadget-id" in res.output
    assert "Traceback" not in res.output


def test_fuzz_traces_script_runs_from_the_repository_root():
    """scripts/fuzz_traces.py puts the repository's src/ on sys.path, so it
    runs as its usage line says without an installed package."""
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "scripts/fuzz_traces.py", "--traces", "1", "--n", "6",
         "--ops", "20"],
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all 1 traces ok" in proc.stdout
