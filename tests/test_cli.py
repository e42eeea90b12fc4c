import contextlib
import copy
import csv
import io
import json
import logging
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from stabsim.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_INVALID, EXIT_OK, main
from stabsim.configs import config_to_json, random_config
from stabsim.graphs import graph_to_json, path_graph


def write_inputs(tmp_path, k=2, seed=1, max_steps=None, init=None, n=5):
    gpath = tmp_path / "graph.json"
    gpath.write_text(json.dumps(graph_to_json(path_graph(n))))
    desc = {
        "graph": str(gpath),
        "k": k,
        "daemon": {"kind": "random", "p": 0.5, "seed": seed},
        "init": init or {"mode": "zeroed"},
    }
    if max_steps is not None:
        desc["max_steps"] = max_steps
    dpath = tmp_path / "run.json"
    dpath.write_text(json.dumps(desc))
    return dpath


def test_cmd_run_p5(tmp_path, capsys):
    dpath = write_inputs(tmp_path)
    code = main(["run", str(dpath), "--out-dir", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    summary = json.loads(out.strip())
    assert summary["verdict"] == "terminated"
    assert summary["group_count"] == 2
    assert summary["groups"]["1"] == [1, 2, 3]
    trace_lines = (tmp_path / "out" / "run.trace.jsonl").read_text().splitlines()
    assert len(trace_lines) == summary["steps"] + 1  # every step, then the summary
    first = json.loads(trace_lines[0])
    assert first["step"] == 0 and "selected" in first and "fired" in first
    report = json.loads((tmp_path / "out" / "run.report.json").read_text())
    assert report["verdict"] is True


def test_cmd_run_fails_on_any_judged_criterion(tmp_path, capsys, monkeypatch):
    # The grouping itself is valid; an unsound stamp at a boundary must
    # still fail the run, naming criterion 6.
    from stabsim import experiments

    dpath = write_inputs(tmp_path)
    assert main(["run", str(dpath)]) == EXIT_OK
    clean = capsys.readouterr()
    assert clean.err == ""
    monkeypatch.setattr(experiments, "stamp_soundness_violations",
                        lambda cfg, graph, k: ["near groups 1,4 carry a stamp"])
    assert main(["run", str(dpath)]) == EXIT_INVALID
    judged = capsys.readouterr()
    assert judged.out == clean.out
    assert "6: unsound stamps at step" in judged.err


def test_cmd_run_rejects_k0(tmp_path, capsys):
    dpath = write_inputs(tmp_path, k=0)
    assert main(["run", str(dpath)]) == EXIT_INPUT


def test_cmd_run_budget_exhausted(tmp_path, capsys):
    dpath = write_inputs(tmp_path, max_steps=1, init={"mode": "random", "seed": 3})
    assert main(["run", str(dpath)]) == EXIT_BUDGET


def test_cmd_run_missing_descriptor(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == EXIT_INPUT


@pytest.mark.parametrize("name,value,command", [
    pytest.param("dist", [1, 2], "run", id="dist-value0"),
    pytest.param("domain", 5, "run", id="domain-5"),
    pytest.param("dist", [1, 2], "inject", id="inject-dist"),
    # identifiers above 2^32 - 1, which the graph loader refuses too
    pytest.param("root", 2**32, "run", id="root-above-32-bits"),
    pytest.param("domain", [1, 2**32], "run", id="domain-above-32-bits"),
    pytest.param("border", {str(2**32): 1}, "run", id="array-key-above-32-bits"),
])
def test_cmd_run_malformed_config_file_is_input_error(tmp_path, capsys, name, value,
                                                      command):
    # `inject` with a positive count reads the start configuration itself,
    # and reports it as `run` does.
    from stabsim.configs import config_to_json, random_config

    payload = config_to_json(random_config(path_graph(5), 2, seed=1))
    payload["1"][name] = value
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(payload))
    dpath = write_inputs(tmp_path, init={"mode": "adversarial-file", "path": str(cpath)})
    spec = json.dumps({"variables": ["color"], "count": 2, "seed": 0, "at_step": 5})
    args = ["--corrupt", spec] if command == "inject" else []
    assert main([command, str(dpath), *args]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: bad initial configuration: ") and name in err
    assert_one_error_line_last(err)


@pytest.mark.parametrize("override,named", [
    pytest.param({"init": 5}, "init", id="init-int"),
    pytest.param({"daemon": [1]}, "daemon", id="daemon-list"),
    pytest.param({"graph": 5}, "graph", id="graph-int"),
    pytest.param({"max_steps": "10"}, "max_steps", id="max_steps-str"),
    pytest.param({"max_steps": True}, "max_steps", id="max_steps-bool"),
    pytest.param({"init": {"mode": "random", "n_false": "3"}}, "n_false",
                 id="n_false-str"),
    pytest.param({"init": {"mode": "random", "n_false": -1}}, "n_false",
                 id="n_false-negative"),
    pytest.param({"init": {"mode": "random", "n_false": 10_001}}, "n_false",
                 id="n_false-above-bound"),
    pytest.param({"init": {"mode": "random", "seed": "x"}}, "seed", id="init_seed-str"),
    pytest.param({"init": {"mode": "adversarial-file", "path": 5}}, "path",
                 id="path-int"),
    pytest.param({"init": {"mode": ["random"]}}, "mode", id="mode-list"),
    pytest.param({"daemon": {"seed": "a"}}, "seed", id="daemon_seed-str"),
    pytest.param({"daemon": {"p": "0.5"}}, "'p'", id="p-str"),
    pytest.param({"daemon": {"fairness_aging": "no"}}, "fairness_aging",
                 id="fairness_aging-str"),
    pytest.param({"algorithm": "other"}, "algorithm", id="algorithm-other"),
])
def test_cmd_run_malformed_descriptor_is_input_error(tmp_path, capsys, override, named):
    dpath = write_inputs(tmp_path)
    desc = json.loads(dpath.read_text())
    desc.update(override)
    dpath.write_text(json.dumps(desc))
    assert main(["run", str(dpath)]) == EXIT_INPUT
    assert named in capsys.readouterr().err


def test_cmd_run_malformed_graph_file_is_input_error(tmp_path, capsys):
    dpath = write_inputs(tmp_path)
    gpath = tmp_path / "graph.json"
    gpath.write_text('{"vertices": [1, 2], "edges": [[1]]}')
    assert main(["run", str(dpath)]) == EXIT_INPUT
    assert capsys.readouterr().err == (
        f"error: malformed graph file {gpath}: edge [1] is not a pair of integers\n")


@pytest.mark.parametrize("command", ["run", "inject"])
@pytest.mark.parametrize("max_steps", [0, -3])
def test_nonpositive_max_steps_is_input_error(tmp_path, capsys, command, max_steps):
    dpath = write_inputs(tmp_path, max_steps=max_steps)
    spec = json.dumps({"variables": ["color"], "count": 2, "seed": 0, "at_step": 5})
    args = ["--corrupt", spec] if command == "inject" else []
    assert main([command, str(dpath), *args]) == EXIT_INPUT
    assert "max_steps" in capsys.readouterr().err


def test_cmd_inject_reconverges(tmp_path, capsys):
    dpath = write_inputs(tmp_path, init={"mode": "random", "seed": 7})
    spec = json.dumps({
        "variables": ["color", "mode", "reset", "in_group"],
        "count": 8,
        "seed": 5,
        "at_step": 40,
    })
    assert main(["inject", str(dpath), "--corrupt", spec]) == EXIT_OK


def test_cmd_inject_zero_corruptions_matches_run(tmp_path, capsys):
    dpath = write_inputs(tmp_path)
    spec = json.dumps({"variables": ["color"], "count": 0, "seed": 0})
    assert main(["inject", str(dpath), "--corrupt", spec]) == EXIT_OK
    run_summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert main(["run", str(dpath)]) == EXIT_OK
    base_summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(run_summary) == json.loads(base_summary)


@pytest.mark.parametrize("spec,named", [
    pytest.param({"variables": [["color"]]}, "variables", id="variables-nested"),
    pytest.param({"variables": "color"}, "variables", id="variables-str"),
    pytest.param({"variables": []}, "variables", id="variables-empty"),
    pytest.param({"variables": ["bogus"], "count": 0}, "variables",
                 id="variables-unknown-count-0"),
    pytest.param({"count": True}, "count", id="count-bool"),
    pytest.param({"count": "2"}, "count", id="count-str"),
    pytest.param({"count": -1}, "count", id="count-negative"),
    pytest.param({"seed": 1.5}, "seed", id="seed-float"),
    pytest.param({"at_step": 1.9}, "at_step", id="at_step-float"),
    pytest.param([1], "object", id="not-an-object"),
])
def test_cmd_inject_malformed_spec_is_input_error(tmp_path, capsys, spec, named):
    dpath = write_inputs(tmp_path)
    if isinstance(spec, dict):
        spec = {"variables": ["color"], "count": 2, "seed": 0, "at_step": 5, **spec}
    assert main(["inject", str(dpath), "--corrupt", json.dumps(spec)]) == EXIT_INPUT
    assert named in capsys.readouterr().err


def test_cmd_inject_mistyped_inline_spec_reports_its_json_error(tmp_path, capsys):
    # Text that starts with "{" is an inline spec, never read as a file path;
    # other text names a spec file.
    dpath = write_inputs(tmp_path)
    mistyped = '{"variables": ["color"], "count": 2'
    assert main(["inject", str(dpath), "--corrupt", mistyped]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: --corrupt: not valid JSON: ") and err.count("\n") == 1
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"variables": ["color"], "count": 0}))
    assert main(["inject", str(dpath), "--corrupt", str(spec)]) == EXIT_OK


def test_cmd_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--family", "path", "--n", "5,6", "--k", "2",
        "--seeds", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4
    for row in rows:
        assert row["verdict"] == "ok"
        assert int(row["groups"]) <= 2 * int(row["n"]) / int(row["k"]) + 1
        assert row["family"] == "path"
        assert int(row["D"]) == int(row["n"]) - 1


def test_cmd_sweep_exhausted_budget_is_marked_and_exits_2(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "path", "--n", "3", "--k", "1", "--seeds", "1",
                 "--max-steps", "1", "--out", str(out)])
    assert code == EXIT_BUDGET
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["verdict"] for row in rows] == ["budget"]


def test_cmd_sweep_budget_exit_comes_before_a_failed_verdict(monkeypatch):
    from stabsim import cli

    rows = [{"verdict": "FAIL"}, {"verdict": "budget"}, {"verdict": "ok"}]
    monkeypatch.setattr(cli, "sweep_rows", lambda *args: rows)
    monkeypatch.setattr(cli, "write_sweep_csv", lambda rows, stream: None)
    args = ["sweep", "--family", "path", "--n", "5", "--k", "2", "--seeds", "1"]
    assert main(args) == EXIT_BUDGET
    del rows[1]
    assert main(args) == EXIT_INVALID


def test_cmd_sweep_stdout_matches_out_file(tmp_path, capsys):
    args = ["sweep", "--family", "cycle", "--n", "5", "--k", "1,2", "--seeds", "1"]
    out = tmp_path / "sweep.csv"
    assert main([*args, "--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert main(args) == EXIT_OK
    printed = capsys.readouterr().out
    assert printed.encode() == out.read_bytes()
    assert len(list(csv.DictReader(printed.splitlines()))) == 2


def test_cmd_sweep_unwritable_out_fails_before_running(tmp_path, capsys, monkeypatch):
    from stabsim import cli

    calls = []
    monkeypatch.setattr(cli, "sweep_rows", lambda *args: calls.append(args) or [])
    out = tmp_path / "missing" / "sweep.csv"
    code = main(["sweep", "--family", "path", "--n", "5", "--k", "2", "--seeds", "1",
                 "--out", str(out)])
    assert code == EXIT_INPUT
    assert str(out) in capsys.readouterr().err
    assert calls == []


def test_cmd_sweep_failure_leaves_an_existing_out_file_unchanged(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    out.write_text("earlier results\n")
    code = main(["sweep", "--family", "grid", "--n", "1", "--k", "1", "--seeds", "1",
                 "--out", str(out)])
    assert code == EXIT_INPUT
    assert "need at least two processes" in capsys.readouterr().err
    assert out.read_text() == "earlier results\n"
    # A sweep that succeeds replaces the file's contents.
    code = main(["sweep", "--family", "path", "--n", "5", "--k", "2", "--seeds", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [row["family"] for row in rows] == ["path"]


def test_adversarial_file_mode(tmp_path, capsys):
    from stabsim.configs import config_to_json, random_config

    g = path_graph(5)
    cfg = random_config(g, 2, seed=11)
    cfg_path = tmp_path / "adversarial.json"
    cfg_path.write_text(json.dumps(config_to_json(cfg)))
    dpath = write_inputs(
        tmp_path, init={"mode": "adversarial-file", "path": str(cfg_path)}
    )
    assert main(["run", str(dpath)]) == EXIT_OK
    # out-of-range file is an input error
    payload = config_to_json(cfg)
    payload["1"]["color"] = 9
    cfg_path.write_text(json.dumps(payload))
    assert main(["run", str(dpath)]) == EXIT_INPUT


def test_cmd_sweep_other_families(tmp_path):
    out = tmp_path / "sweep2.csv"
    code = main([
        "sweep", "--family", "random-gnp", "--n", "6,8", "--k", "2",
        "--seeds", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert len(rows) == 4 and all(r["verdict"] == "ok" for r in rows)
    code = main([
        "sweep", "--family", "grid", "--n", "6", "--k", "2", "--seeds", "1",
        "--out", str(out),
    ])
    assert code == EXIT_OK


@pytest.mark.parametrize("override", [
    pytest.param(["--seeds", "0"], id="seeds-0"),
    pytest.param(["--seeds", "-1"], id="seeds-negative"),
    pytest.param(["--n", "6:3"], id="n-empty-range"),
    pytest.param(["--k", "3:1"], id="k-empty-range"),
])
def test_cmd_sweep_that_runs_nothing_is_input_error(tmp_path, capsys, override):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--family", "path", "--n", "5", "--k", "2", "--seeds", "1",
        "--out", str(out), *override,
    ])
    assert code == EXIT_INPUT
    assert override[0] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("max_steps", ["0", "-3"])
def test_cmd_sweep_nonpositive_max_steps_names_the_flag(tmp_path, capsys, max_steps):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "path", "--n", "5", "--k", "2", "--seeds", "1",
                 "--max-steps", max_steps, "--out", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"--max-steps {max_steps}" in err
    assert not out.exists()


def test_cmd_sweep_cycle_of_two_is_input_error(tmp_path, capsys):
    code = main(["sweep", "--family", "cycle", "--n", "2", "--k", "1", "--seeds", "1",
                 "--out", str(tmp_path / "sweep.csv")])
    assert code == EXIT_INPUT
    assert "a cycle needs at least 3 vertices" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["-4", "0"])
def test_cmd_sweep_grid_below_two_processes_is_input_error(tmp_path, capsys, n):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "grid", "--n", n, "--k", "1", "--seeds", "1",
                 "--out", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err == "error: need at least two processes\n"
    assert not out.exists()


@pytest.mark.parametrize("override", [
    pytest.param(["--n", "48:6:-6"], id="n-negative-step"),
    pytest.param(["--n", "6:12:0"], id="n-zero-step"),
    pytest.param(["--k", "1:3:-1"], id="k-negative-step"),
    pytest.param(["--n", "4:6:1:2"], id="n-four-parts"),
    pytest.param(["--k", "two"], id="k-not-a-number"),
])
def test_cmd_sweep_malformed_range_is_input_error(tmp_path, capsys, override):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--family", "path", "--n", "5", "--k", "2", "--seeds", "1",
        "--out", str(out), *override,
    ])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{override[0]} {override[1]}" in err
    assert not out.exists()


@pytest.mark.parametrize("name,level", [("info", logging.INFO), ("Debug", logging.DEBUG),
                                        ("WARNING", logging.WARNING)])
def test_log_level_names_in_any_case(tmp_path, monkeypatch, name, level):
    levels = []
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: levels.append(kw["level"]))
    monkeypatch.setenv("STABSIM_LOG", name)
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "path", "--n", "4", "--k", "1", "--seeds", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    assert levels == [level]


def test_unknown_log_level_is_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(logging, "basicConfig", lambda **kw: None)
    monkeypatch.setenv("STABSIM_LOG", "verbose")
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--family", "path", "--n", "4", "--k", "1", "--seeds", "1",
                 "--out", str(out)])
    assert code == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: STABSIM_LOG=verbose") and err.count("\n") == 1
    assert not out.exists()


# ---------------------------------------------------------------------------
# fuzzing: each CLI input is valid but for one field

FUZZ_INPUTS = ("descriptor", "graph", "config", "corrupt")
DELETE = object()  # the field is removed; at the root, the file is empty

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=4)
    | st.integers(-4, 40)
    | st.sampled_from([10**4 + 1, 10**6, 2**32, 2**63, 2**64, -2**63]),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=4)


def fuzz_inputs(directory, mode):
    """The four inputs of `run` and `inject` on a 3-vertex path with k=1, all
    valid, the descriptor's init in `mode`, and the file each is written to
    (None: --corrupt takes its text)."""
    g = path_graph(3)
    paths = {name: os.path.join(directory, f"{name}.json") for name in FUZZ_INPUTS}
    paths["corrupt"] = None
    docs = {
        "graph": graph_to_json(g),
        "config": config_to_json(random_config(g, 1, seed=1)),
        "descriptor": {
            "algorithm": "kgrouping", "graph": paths["graph"], "k": 1,
            "daemon": {"kind": "random", "p": 0.5, "seed": 1, "fairness_aging": True},
            "init": {"mode": mode, "path": paths["config"], "seed": 0,
                     "n_false": 3},
            "max_steps": 150,
        },
        "corrupt": {"variables": ["color", "dist"], "count": 2, "seed": 0, "at_step": 5},
    }
    return docs, paths


def fields(doc, path=()):
    """The path of every field of a JSON document, its root included."""
    yield path
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield from fields(value, path + (key,))


def with_field(doc, path, value):
    """A copy of `doc` with the field at `path` set to `value` (or deleted)."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return doc


def run_fuzzed(name, index, value):
    """Run the CLI with input `name` changed at its field number `index`
    (modulo their count; 0 is the root) to `value`; returns the exit code
    and standard error."""
    with tempfile.TemporaryDirectory() as directory:
        # a random start reads the descriptor's init seed and n_false; the
        # configuration file is read in adversarial-file mode only
        docs, paths = fuzz_inputs(directory, "random" if name == "descriptor"
                                  else "adversarial-file")
        every = sorted(fields(docs[name]), key=lambda field: (len(field), repr(field)))
        docs[name] = with_field(docs[name], every[index % len(every)], value)
        texts = {n: "" if doc is DELETE else json.dumps(doc) for n, doc in docs.items()}
        for n, file in paths.items():
            if file is not None:
                with open(file, "w", encoding="utf-8") as f:
                    f.write(texts[n])
        if name == "corrupt":
            return main_captured(["inject", paths["descriptor"], "--corrupt", texts["corrupt"]])
        return main_captured(["run", paths["descriptor"]])


def main_captured(argv):
    """The exit code and standard error of the CLI on `argv`."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_one_error_line_last(err):
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and err.endswith(errors[0] + "\n"), err


@pytest.mark.parametrize("name", FUZZ_INPUTS)
@settings(max_examples=100, deadline=None)
@given(index=st.integers(0, 10**4), value=st.just(DELETE) | JSON_VALUES)
# a --corrupt spec that reads as an option: argparse exited with status 2
@example(index=0, value=-1e16)
# the descriptor's k (field 5): a random start raised OverflowError
@example(index=5, value=2**63)
def test_fuzzed_input_gets_a_verdict_or_one_error_line(name, index, value):
    code, err = run_fuzzed(name, index, value)
    assert code in (EXIT_OK, EXIT_INVALID, EXIT_BUDGET, EXIT_INPUT)
    if code == EXIT_INPUT:
        assert_one_error_line_last(err)


# An edge-list graph file (`u v` per line) is mutated line by line, starting
# from the 3-vertex path: lines that are edges (self-loops, duplicates and
# vertices off the path among them), blank or comment lines, bad tokens and
# arbitrary text are inserted, or replace or delete a line.
EDGE_LINES = (
    st.tuples(st.integers(0, 6), st.integers(0, 6)).map(lambda e: b"%d %d" % e)
    | st.sampled_from([b"", b"  ", b"# comment", b"1", b"1 2 3", b"a b", b"1 2.0",
                       b"-1 2", b"4294967296 1", b"\xff\xfe 1"])
    | st.text(max_size=6).map(str.encode))
EDITS = st.lists(st.tuples(st.integers(0, 8), st.sampled_from(["insert", "replace", "delete"]),
                           EDGE_LINES), max_size=4)


def edit_lines(lines, edits):
    lines = list(lines)
    for at, op, line in edits:
        at %= len(lines) + 1
        if op == "insert":
            lines.insert(at, line)
        elif op == "replace":
            lines[at:at + 1] = [line]
        else:
            del lines[at:at + 1]
    return lines


@settings(max_examples=100, deadline=None)
@given(edits=EDITS)
@example(edits=[(0, "delete", b""), (0, "delete", b"")])  # an empty file
@example(edits=[(0, "replace", b"1 x")])  # a bad token
@example(edits=[(1, "insert", b""), (0, "insert", b"# c"), (3, "insert", b"  ")])
@example(edits=[(2, "insert", b"3 3")])  # a self-loop
@example(edits=[(2, "insert", b"2 1")])  # a duplicate edge
@example(edits=[(2, "insert", b"5 6")])  # a disconnected graph
def test_fuzzed_edge_list_gets_a_verdict_or_one_error_line(edits):
    data = b"\n".join(edit_lines([b"1 2", b"2 3"], edits))
    with tempfile.TemporaryDirectory() as directory:
        gpath = os.path.join(directory, "graph.txt")
        with open(gpath, "wb") as f:
            f.write(data)
        dpath = os.path.join(directory, "run.json")
        with open(dpath, "w", encoding="utf-8") as f:
            json.dump({"graph": gpath, "k": 1,
                       "daemon": {"kind": "random", "p": 0.5, "seed": 1},
                       "init": {"mode": "random", "seed": 0, "n_false": 3}}, f)
        code, err = main_captured(["run", dpath])
    assert code in (EXIT_OK, EXIT_INPUT), (data, err)
    if code == EXIT_INPUT:
        assert_one_error_line_last(err)
        assert f"error: malformed graph file {gpath}: " in err, (data, err)
    else:
        assert err == ""
