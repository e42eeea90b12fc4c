import ast
import random
from pathlib import Path

import pytest

from stabsim import oracle
from stabsim.configs import zeroed_config
from stabsim.graphs import make_graph, path_graph
from stabsim.kgrouping import GROUP, IN_GROUP, IN_PRIOR, IN_STAMP_ON
from stabsim.oracle import (
    OracleError,
    check_Lk,
    exhaustive_min_groups,
    groups_from,
    mergeable,
    near,
    potential,
    stamp_soundness_violations,
)
from stabsim.runtime import BOT

PACKAGE = Path(oracle.__file__).parent


def cfg_with_groups(graph, assignment):
    cfg = zeroed_config(graph, 2)
    everyone = frozenset(graph.vertices)
    for v, g in assignment.items():
        cfg[v][GROUP] = g
        cfg[v][IN_GROUP] = g
        cfg[v]["domain"] = everyone  # array reads are domain-scoped
    return cfg


def test_check_Lk_valid_p5(p5):
    cfg = cfg_with_groups(p5, {1: 1, 2: 1, 3: 1, 4: 4, 5: 4})
    report = check_Lk(cfg, p5, 2)
    assert report.verdict
    assert report.group_count == 2
    assert report.per_group_diameter[1] == 2
    assert report.mergeable_pairs == set()


def test_check_Lk_c6_two_arcs(c6):
    cfg = cfg_with_groups(c6, {1: 1, 2: 1, 3: 1, 4: 4, 5: 4, 6: 4})
    report = check_Lk(cfg, c6, 2)
    assert report.verdict  # arc union has diameter 3 > 2


def test_check_Lk_rejects_mergeable_partition(p5):
    cfg = cfg_with_groups(p5, {1: 1, 2: 2, 3: 2, 4: 4, 5: 4})
    report = check_Lk(cfg, p5, 2)
    assert not report.verdict
    assert (1, 2) in report.mergeable_pairs


def test_check_Lk_rejects_oversized_diameter(p5):
    cfg = cfg_with_groups(p5, {1: 1, 2: 1, 3: 1, 4: 1, 5: 5})
    report = check_Lk(cfg, p5, 2)
    assert not report.verdict
    assert any("diameter" in v for v in report.violations)


def test_check_Lk_flags_null_and_fake_groups(p5):
    cfg = cfg_with_groups(p5, {1: 1, 2: 1, 3: 1, 4: 4, 5: 4})
    cfg[5][GROUP] = BOT
    report = check_Lk(cfg, p5, 2)
    assert not report.verdict
    cfg[5][GROUP] = 999
    report = check_Lk(cfg, p5, 2)
    assert not report.verdict
    assert any("999" in v for v in report.violations)


def test_report_serialization(p5):
    cfg = cfg_with_groups(p5, {1: 1, 2: 1, 3: 1, 4: 4, 5: 4})
    payload = check_Lk(cfg, p5, 2).to_json()
    assert payload["verdict"] is True
    assert payload["groups"]["1"] == [1, 2, 3]


def test_exhaustive_min_groups_examples():
    assert exhaustive_min_groups(path_graph(2), 1) == 1
    assert exhaustive_min_groups(path_graph(5), 2) == 2
    star = make_graph(range(5), [(0, i) for i in range(1, 5)])
    assert exhaustive_min_groups(star, 2) == 1
    assert exhaustive_min_groups(path_graph(5), 1) == 3  # {1,2},{3,4},{5}


def test_exhaustive_min_groups_size_guard():
    with pytest.raises(OracleError):
        exhaustive_min_groups(path_graph(11), 2)


def test_potential_arithmetic(p5):
    # Three groups, all prior, none black: 2*3 + 3 + 0 = 9.
    cfg = cfg_with_groups(p5, {1: 1, 2: 2, 3: 2, 4: 4, 5: 4})
    for g in (1, 2, 4):
        cfg[g][IN_PRIOR] = {g: True}
    n_groups, n_prior, n_black, total = potential(cfg, p5, 2)
    assert (n_groups, n_prior, n_black, total) == (3, 3, 0, 9)


def test_potential_black_groups(p5):
    # No priors: groups 1 and 2 are near and unstamped, so both are black;
    # group 4 is not near anything unstamped... it is near group 2? distance
    # 2-4 pairs: d(2,4)=2 <= 2 and d(2,5)=3 -> not near. Black = {1, 2}.
    cfg = cfg_with_groups(p5, {1: 1, 2: 2, 3: 2, 4: 4, 5: 4})
    n_groups, n_prior, n_black, total = potential(cfg, p5, 2)
    assert n_groups == 3 and n_prior == 0
    assert n_black == 2
    assert total == 8


def test_stamp_soundness_checker(p5):
    cfg = cfg_with_groups(p5, {1: 1, 2: 2, 3: 2, 4: 4, 5: 4})
    # A stamp between the mergeable near pair (1, 2) is a lie.
    cfg[1][IN_STAMP_ON] = {2: True}
    problems = stamp_soundness_violations(cfg, p5, 2)
    assert problems and "1,2" in problems[0]
    # A stamp on the non-near pair (2, 4) is outside the lemma's scope.
    cfg[1][IN_STAMP_ON] = {}
    cfg[2][IN_STAMP_ON] = {4: True}
    assert stamp_soundness_violations(cfg, p5, 2) == []


def test_groups_from_reads_requested_variable(p5):
    cfg = cfg_with_groups(p5, {1: 1, 2: 1, 3: 1, 4: 4, 5: 4})
    cfg[3][IN_GROUP] = 4
    by_group = groups_from(cfg, IN_GROUP)
    assert by_group[4] == frozenset({3, 4, 5})


# ---------------------------------------------------------------------------
# pairwise group relations (ground truth side)

def test_near_and_mergeable_adjacent_singletons():
    g = make_graph([1, 2], [(1, 2)])
    assert near({1}, {2}, g, 1)
    assert mergeable({1}, {2}, g, 1)


def test_near_mergeable_p5_bands(p5):
    assert mergeable({1}, {2, 3}, p5, 2)
    assert not near({2, 3}, {4, 5}, p5, 2)
    assert not mergeable({2, 3}, {4, 5}, p5, 2)


def test_c6_antipodal_arcs(c6):
    assert not near({1, 2, 3}, {4, 5, 6}, c6, 2)
    assert not mergeable({1, 2, 3}, {4, 5, 6}, c6, 2)


def test_mergeable_implies_near_random():
    rng = random.Random(12)
    from stabsim.graphs import random_connected_graph

    for trial in range(40):
        g = random_connected_graph(rng.randrange(4, 11), 0.3, trial)
        k = rng.randrange(1, 4)
        nodes = sorted(g.vertices)
        rng.shuffle(nodes)
        cut = rng.randrange(1, len(nodes))
        g1, g2 = set(nodes[:cut]), set(nodes[cut:])
        if mergeable(g1, g2, g, k):
            assert near(g1, g2, g, k)


def test_group_pair_validation(p3):
    with pytest.raises(ValueError):
        near({1}, {1, 2}, p3, 1)
    with pytest.raises(ValueError):
        mergeable(set(), {1}, p3, 1)


# ---------------------------------------------------------------------------
# independence from the algorithm

def _stabsim_imports(module: str) -> list[tuple[str, str]]:
    """(source module, name) of every import `module` makes from stabsim;
    a whole-module import such as `from . import graphs` gives ("graphs", "*")."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("stabsim")):
            source = (node.module or "").removeprefix("stabsim").lstrip(".")
            out += [(source, a.name) if source else (a.name, "*") for a in node.names]
        elif isinstance(node, ast.Import):
            out += [(a.name.removeprefix("stabsim."), "*") for a in node.names
                    if a.name.startswith("stabsim.")]
    return out


def test_oracle_and_algorithm_share_only_variable_names():
    # The algorithm modules cannot reach a global graph metric, and the
    # oracle takes nothing from the algorithm but the names of its variables.
    for module in ("runtime", "bfs", "loop", "kgrouping"):
        from_graphs = {name for source, name in _stabsim_imports(module) if source == "graphs"}
        assert from_graphs <= {"Graph", "MAX_ID"}, (module, from_graphs)
    from_algorithm = [name for source, name in _stabsim_imports("oracle")
                      if source in ("bfs", "loop", "kgrouping")]
    assert from_algorithm and all(name.isupper() for name in from_algorithm), from_algorithm
