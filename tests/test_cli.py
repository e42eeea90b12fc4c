import csv
import json

import pytest

from stabsim.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main
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
    first = json.loads(trace_lines[0])
    assert first["step"] == 0 and "selected" in first and "fired" in first
    report = json.loads((tmp_path / "out" / "run.report.json").read_text())
    assert report["verdict"] is True


def test_cmd_run_rejects_k0(tmp_path, capsys):
    dpath = write_inputs(tmp_path, k=0)
    assert main(["run", str(dpath)]) == EXIT_INPUT


def test_cmd_run_budget_exhausted(tmp_path, capsys):
    dpath = write_inputs(tmp_path, max_steps=1, init={"mode": "random", "seed": 3})
    assert main(["run", str(dpath)]) == EXIT_BUDGET


def test_cmd_run_missing_descriptor(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == EXIT_INPUT


@pytest.mark.parametrize("name,value", [("dist", [1, 2]), ("domain", 5)])
def test_cmd_run_malformed_config_file_is_input_error(tmp_path, capsys, name, value):
    from stabsim.configs import config_to_json, random_config

    payload = config_to_json(random_config(path_graph(5), 2, seed=1))
    payload["1"][name] = value
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(payload))
    dpath = write_inputs(tmp_path, init={"mode": "adversarial-file", "path": str(cpath)})
    assert main(["run", str(dpath)]) == EXIT_INPUT
    assert name in capsys.readouterr().err


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


def test_cmd_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--family", "path", "--n", "5,6", "--k", "2",
        "--seeds", "2", "--out", str(out),
    ])
    assert code == EXIT_OK
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4
    for row in rows:
        assert row["verdict"] == "ok"
        assert int(row["groups"]) <= 2 * int(row["n"]) / int(row["k"]) + 1
        assert row["family"] == "path"
        assert int(row["D"]) == int(row["n"]) - 1


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
    rows = list(csv.DictReader(out.open()))
    assert len(rows) == 4 and all(r["verdict"] == "ok" for r in rows)
    code = main([
        "sweep", "--family", "grid", "--n", "6", "--k", "2", "--seeds", "1",
        "--out", str(out),
    ])
    assert code == EXIT_OK
