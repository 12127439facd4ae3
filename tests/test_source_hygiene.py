"""Source checks of the `dynacut` modules: every name a module imports is
used in it, no module has a `global` statement, and every function runs on
a short engine trace unless it is a documented test oracle or listed with
the reason it does not."""

import ast
import sys
from pathlib import Path

import pytest

from dynacut.harness import gen_workload, render_trace, run_trace

SRC = Path(__file__).resolve().parent.parent / "src" / "dynacut"


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported(tree)) - used)
    assert not unused, f"{path.name} imports unused names: {unused}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_global_statements(path):
    """No module rebinds a module-level name at run time, so no mutable
    setting is shared between engines or runs through one."""
    tree = ast.parse(path.read_text())
    names = sorted(name for node in ast.walk(tree)
                   if isinstance(node, ast.Global) for name in node.names)
    assert not names, f"{path.name} declares global: {names}"


# Functions no engine trace runs, each with the reason.  Item numbers are
# ROADMAP items; an entry leaves the list when that item makes it run.
UNREACHED = {
    "cli.main": "CLI entry point; the trace runs call run_trace directly",
    "cli.run_cmd": "CLI entry point; wraps run_trace",
    "cli.gen_cmd": "CLI entry point; wraps gen_workload and render_trace",
    "cli._setup_logging": "CLI entry point's logging set-up",
    "connectivity._Deferred.levels":
        "read only after a scheduler raise, which valid traces never give",
    "cutpartition.CutPartitionDS.clone":
        "paper object: the multi-level update off the flat schedule (item 4)",
    "errors.RejectedOp.__init__": "runs only when an op is refused",
    "errors.RejectedSchedule.__init__": "runs only when a schedule is refused",
    "expander._sparsest_cut":
        "paper object: clusters beyond the 2/vol certificate (item 4)",
    "expander.conductance":
        "paper object: clusters beyond the 2/vol certificate (item 4)",
    "expander.pruning":
        "paper object: decremental pruning of an uncertified cluster (item 4)",
    "expander.volume": "paper object: read only by pruning (item 4)",
    "harness.TraceError.__init__": "runs only when a trace is refused",
    "harness._minimize": "runs only on an oracle mismatch",
    "multigraph.MultiGraph.__eq__":
        "value equality for tests; the engine compares adjacency dicts",
    "multigraph.MultiGraph.__hash__": "refuses to hash a mutable graph",
    "multigraph.MultiGraph.__repr__": "debugging output",
    "multigraph.MultiGraph.from_edges":
        "constructor that tests, perfbench and scripts build graphs with",
    "multigraph.induced_subgraph":
        "paper object: read only by item 4's expander and IA steps",
    "multilevel.MultiLevelDS.clone":
        "paper object: the multi-level update off the flat schedule (item 4)",
    "multilevel._reframe":
        "paper object: the multi-level update off the flat schedule (item 4)",
    "multilevel._stall":
        "paper object: the multi-level update off the flat schedule (item 4)",
    "multilevel.update_multi_level":
        "paper object: the multi-level update off the flat schedule (item 4)",
    "onlinebatch.BatchableDS.batch_update": "Protocol method; StackDS runs",
    "onlinebatch.BatchableDS.clone": "Protocol method; StackDS runs",
    "onlinebatch.BatchableDS.initialize": "Protocol method; StackDS runs",
    "repair._separates":
        "paper object: type two and three's pairs, which need a T outside S "
        "(item 4)",
    "repair.initial_ia":
        "paper object: IA sets of witness layers (item 4)",
}


def _functions():
    """(file, first line) of each function defined in src/dynacut, decorator
    lines included as in a code object, mapped to its dotted name and
    whether it is exempt: a docstring starting "Test oracle:" or an
    UNREACHED entry exempts it and everything defined inside it."""
    out = {}

    def visit(node, path, prefix, exempt):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                doc = ast.get_docstring(child) or ""
                inner = (exempt or doc.startswith("Test oracle:")
                         or name in UNREACHED)
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] +
                                [d.lineno for d in child.decorator_list])
                    out[str(path), first] = (name, inner)
                visit(child, path, name, inner)
            else:
                visit(child, path, prefix, exempt)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, path.stem, False)
    return out


def test_every_src_function_is_reached(tmp_path):
    """Every function of src/dynacut runs on run_trace at c = 1, 2 and 3
    and on one paper-validate run, with the oracle check on, or is exempt
    (see _functions).  Every UNREACHED entry names a function that exists
    and does not run, so the list only holds what it has to."""
    ran = set()

    def profile(frame, event, arg):
        if event == "call":
            ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    trace = tmp_path / "trace.txt"
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        trace.write_text(render_trace(gen_workload(14, 150, seed=1)))
        status = [run_trace(str(trace), c, oracle_check=True)
                  for c in (1, 2, 3)]
        status.append(run_trace(str(trace), 2, "paper-validate",
                                oracle_check=True,
                                metrics_path=str(tmp_path / "m.json")))
    finally:
        sys.setprofile(previous)
    assert status == [0, 0, 0, 0]
    ran = {(str(Path(name).resolve()), line) for name, line in ran}
    functions = _functions()
    unreached = sorted(name for key, (name, exempt) in functions.items()
                       if key not in ran and not exempt)
    assert not unreached, f"functions no trace runs: {unreached}"
    names = {name: key in ran for key, (name, _) in functions.items()}
    assert sorted(set(UNREACHED) - set(names)) == []
    assert sorted(name for name in UNREACHED if names[name]) == []
