import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from stabsim.graphs import (
    GraphError,
    INF,
    cycle_graph,
    dist,
    graph_to_json,
    grid_graph,
    induced_diameter,
    k_neighborhood,
    load_graph,
    load_graph_edgelist,
    load_graph_json,
    make_graph,
    path_graph,
    random_connected_graph,
)

from conftest import floyd_warshall, fw_induced_diameter


def test_neighbors_on_path(p3):
    assert p3.neighbors_of(2) == (1, 3)
    assert p3.neighbors_of(1) == (2,)


def test_neighbors_on_cycle(c4):
    assert c4.neighbors_of(1) == (2, 4)


def test_neighbors_unknown_vertex(p3):
    with pytest.raises(GraphError):
        p3.neighbors_of(99)


def test_dist_path_ends(p4):
    assert dist(p4, 1, 4) == 3


def test_dist_identity(c6):
    for v in c6.vertices:
        assert dist(c6, v, v) == 0


def test_dist_c6_against_reference(c6):
    fw = floyd_warshall(c6)
    assert dist(c6, 1, 4) == fw[(1, 4)] == 3
    for u in c6.vertices:
        for v in c6.vertices:
            assert dist(c6, u, v) == fw[(u, v)]


def test_induced_diameter_middle_of_path(p5):
    assert induced_diameter(p5, {2, 3, 4}) == 2


def test_induced_diameter_disconnected(p3):
    assert induced_diameter(p3, {1, 3}) == INF


def test_induced_diameter_c6_full(c6):
    assert induced_diameter(c6, c6.vertices) == fw_induced_diameter(c6, c6.vertices) == 3


def test_induced_diameter_empty(p3):
    with pytest.raises(GraphError):
        induced_diameter(p3, set())


def test_k_neighborhood_zero(c6):
    assert k_neighborhood(c6, 3, 0) == {3}


def test_k_neighborhood_path(p4):
    assert k_neighborhood(p4, 1, 2) == {1, 2, 3}


def test_k_neighborhood_c6(c6):
    assert k_neighborhood(c6, 1, 2) == {1, 2, 3, 5, 6}


def test_dist_runs_one_bfs_per_source_asked(monkeypatch):
    # Verdicts ask the same pairs thousands of times; each source's row is
    # computed once and only for the sources asked, not for all n.
    from stabsim import graphs

    g = path_graph(6)  # before counting: make_graph runs a BFS of its own
    sources = []
    bfs = graphs._bfs_levels
    monkeypatch.setattr(graphs, "_bfs_levels",
                        lambda adj, source, *a: sources.append(source) or bfs(adj, source, *a))
    for _ in range(3):
        assert [dist(g, 2, v) for v in range(1, 7)] == [1, 0, 1, 2, 3, 4]
        assert dist(g, 6, 1) == 5
    assert sources == [2, 6]
    assert g == path_graph(6) and hash(g) == hash(path_graph(6))

@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 14),
       p=st.floats(0.0, 0.6))
def test_dist_is_a_metric(seed, n, p):
    g = random_connected_graph(n, p, seed)
    fw = floyd_warshall(g)
    nodes = sorted(g.vertices)
    for u in nodes:
        assert dist(g, u, u) == 0
        for v in nodes:
            duv = dist(g, u, v)
            assert duv == fw[(u, v)]
            assert duv == dist(g, v, u)
            for w in nodes:
                assert duv <= dist(g, u, w) + dist(g, w, v)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
def test_full_induced_diameter_is_max_pairwise(seed, n):
    g = random_connected_graph(n, 0.3, seed)
    expected = max(dist(g, u, v) for u in g.vertices for v in g.vertices)
    assert induced_diameter(g, g.vertices) == expected


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 12), i=st.integers(0, 4))
def test_k_neighborhood_monotone_and_spanning(seed, n, i):
    g = random_connected_graph(n, 0.25, seed)
    v = min(g.vertices)
    ball = k_neighborhood(g, v, i)
    assert ball <= k_neighborhood(g, v, i + 1)
    assert k_neighborhood(g, v, n - 1) == set(g.vertices)
    assert ball == {u for u in g.vertices if dist(g, v, u) <= i}


def test_make_graph_rejections():
    with pytest.raises(GraphError):
        make_graph([1], [])  # too small
    with pytest.raises(GraphError):
        make_graph([1, 2, 3], [(1, 2)])  # disconnected
    with pytest.raises(GraphError):
        make_graph([1, 2], [(1, 1)])  # self loop
    with pytest.raises(GraphError):
        make_graph([1, 2], [(1, 2), (2, 1)])  # parallel edge
    with pytest.raises(GraphError):
        make_graph([1, 2, 2], [(1, 2)])  # duplicate id
    with pytest.raises(GraphError):
        make_graph([1, 2, 2**40], [(1, 2), (2, 2**40)])  # id too wide
    with pytest.raises(GraphError):
        make_graph([1, 2, 3], [(1, 2), (2, 4)])  # unknown endpoint


def test_json_roundtrip(tmp_path, c6):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(c6)))
    loaded = load_graph_json(str(path))
    assert loaded.vertices == c6.vertices
    assert loaded.edges == c6.edges
    assert load_graph(str(path)).edges == c6.edges


def assert_malformed(load, path, text, fault):
    path.write_text(text)
    with pytest.raises(GraphError) as info:
        load(str(path))
    message = str(info.value)
    assert message.startswith(f"malformed graph file {path}: ") and fault in message


@pytest.mark.parametrize("text,fault", [
    ('{"vertices": [1, 2], "edges": [[1]]}', "edge [1] is not a pair of integers"),
    ('{"vertices": [1, 2], "edges": [[1, 2, 2]]}', "edge [1, 2, 2] is not a pair"),
    ('{"vertices": [1, 2], "edges": [[1, "2"]]}', "is not a pair of integers"),
    ('{"vertices": [1, 2], "edges": [[1, true]]}', "is not a pair of integers"),
    ('{"vertices": [1, 2], "edges": 5}', "'edges' must be a list"),
    ('{"vertices": null, "edges": []}', "'vertices' must be a list of integers"),
    ('{"vertices": [[1], 2], "edges": []}', "'vertices' must be a list of integers"),
    ('{"edges": [[1, 2]]}', "'vertices' must be a list"),
    ('[1, 2]', "not a JSON object"),
    ('{"vertices": [1, 2], ', "not JSON"),
    ('', "not JSON"),
    ('{"vertices": [1, 2, 3], "edges": [[1, 2]]}', "graph is not connected"),
])
def test_malformed_json_graph_file_names_the_file_and_the_fault(tmp_path, text, fault):
    assert_malformed(load_graph_json, tmp_path / "g.json", text, fault)


@pytest.mark.parametrize("text,fault", [
    ("1 x\n", "line 1: non-integer endpoint: '1 x'"),
    ("1 2\n1 2 3\n", "line 2: expected 'u v': '1 2 3'"),
    ("# c\n\n  1  \n", "line 3: expected 'u v': '1'"),
    ("1 2\n2 1\n", "duplicate edge (1, 2)"),
    ("1 2\n-1 2\n", "identifier -1 is not"),
    ("1 2\n3 4\n", "graph is not connected"),
])
def test_malformed_edge_list_names_the_file_and_the_fault(tmp_path, text, fault):
    assert_malformed(load_graph_edgelist, tmp_path / "g.txt", text, fault)


def test_edgelist_loader(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n1 2\n2 3\n")
    g = load_graph_edgelist(str(path))
    assert g.vertices == {1, 2, 3}
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3\n")
    with pytest.raises(GraphError):
        load_graph_edgelist(str(bad))
    bad.write_bytes(b"1 2\n\xff 3\n")
    with pytest.raises(GraphError, match="bad.txt: not UTF-8"):
        load_graph_edgelist(str(bad))
    bad.write_text("1 2\n3 4\n")
    with pytest.raises(GraphError, match="bad.txt: graph is not connected"):
        load_graph_edgelist(str(bad))


def test_families():
    assert grid_graph(2, 3).n == 6
    assert induced_diameter(grid_graph(2, 3), grid_graph(2, 3).vertices) == 3
    assert cycle_graph(5).n == 5
    g = random_connected_graph(9, 0.1, 3)
    assert g.n == 9
    assert g.edges == random_connected_graph(9, 0.1, 3).edges  # deterministic


@pytest.mark.parametrize("n", [0, 1, 2])
def test_cycle_needs_three_vertices(n):
    with pytest.raises(GraphError, match="a cycle needs at least 3 vertices"):
        cycle_graph(n)
    assert cycle_graph(3).n == 3


def test_path_math():
    assert math.isinf(INF)
    assert dist(path_graph(6), 1, 6) == 5
