import random

import pytest
from hypothesis import given, settings, strategies as st

from stabsim.bfs import LEVEL, PARENT, ROOT, bfs_actions, children, parent
from stabsim.graphs import dist, make_graph, random_connected_graph
from stabsim.oracle import check_tree
from stabsim.runtime import BOT, DaemonPolicy, Eval, run


def zero_bfs_cfg(graph):
    return {v: {ROOT: v, LEVEL: 0, PARENT: BOT} for v in graph.vertices}


def random_bfs_cfg(graph, seed):
    rng = random.Random(seed)
    cfg = {}
    for v in graph.vertices:
        nbrs = graph.neighbors_of(v)
        cfg[v] = {
            ROOT: rng.randrange(0, max(graph.vertices) + 3),
            LEVEL: rng.randrange(0, graph.n + 2),
            PARENT: rng.choice(list(nbrs) + [BOT]),
        }
    return cfg


def converge(graph, cfg, seed=0, max_steps=100_000):
    trace = run(graph, bfs_actions(graph), cfg,
                DaemonPolicy(kind="random", p=0.5, seed=seed), max_steps)
    assert trace.terminated
    return trace


def test_zeroed_path_builds_tree(p3):
    trace = converge(p3, zero_bfs_cfg(p3))
    final = trace.final
    assert check_tree(final, p3) == []
    assert [final[v][ROOT] for v in (1, 2, 3)] == [1, 1, 1]
    assert [final[v][PARENT] for v in (1, 2, 3)] == [BOT, 1, 2]
    assert [final[v][LEVEL] for v in (1, 2, 3)] == [0, 1, 2]


def test_single_edge_all_initial_states(single_edge):
    # Exhaust every in-range joint initial state of the two processes.
    g = single_edge
    states_5 = [(r, l, p) for r in (4, 5, 9) for l in (0, 1) for p in (BOT, 9)]
    states_9 = [(r, l, p) for r in (4, 5, 9) for l in (0, 1) for p in (BOT, 5)]
    for s5 in states_5:
        for s9 in states_9:
            cfg = {
                5: {ROOT: s5[0], LEVEL: s5[1], PARENT: s5[2]},
                9: {ROOT: s9[0], LEVEL: s9[1], PARENT: s9[2]},
            }
            trace = converge(g, cfg, seed=1)
            assert trace.final[5][PARENT] is BOT
            assert trace.final[5][ROOT] == 5
            assert trace.final[9][PARENT] == 5
            assert trace.final[9][LEVEL] == 1


def test_fake_root_flushed_on_c4():
    g = make_graph([3, 5, 7, 9], [(3, 5), (5, 7), (7, 9), (9, 3)])
    cfg = {
        3: {ROOT: 0, LEVEL: 2, PARENT: 5},
        5: {ROOT: 0, LEVEL: 1, PARENT: 7},
        7: {ROOT: 0, LEVEL: 3, PARENT: 9},
        9: {ROOT: 0, LEVEL: 2, PARENT: 3},
    }
    trace = converge(g, cfg, seed=3)
    assert check_tree(trace.final, g) == []
    assert all(trace.final[v][ROOT] == 3 for v in g.vertices)


def test_par_and_chi(p3):
    cfg = {
        1: {ROOT: 1, LEVEL: 0, PARENT: BOT},
        2: {ROOT: 1, LEVEL: 1, PARENT: 1},
        3: {ROOT: 1, LEVEL: 2, PARENT: 2},
    }
    # Par(v) and Chi(v) of the paper: the parent pointer and the children
    ev = {v: Eval(cfg, v, p3.neighbors_of(v)) for v in p3.vertices}
    assert parent(ev[1]) is BOT
    assert parent(ev[2]) == 1
    assert children(ev[2]) == (3,)
    assert children(ev[3]) == ()


def test_silence_and_closure(c6):
    trace = converge(c6, zero_bfs_cfg(c6))
    again = run(c6, bfs_actions(c6), trace.final,
                DaemonPolicy(kind="synchronous"), max_steps=5)
    assert again.terminated and again.num_steps == 0


@settings(max_examples=200, deadline=None)
@given(case=st.integers(0, 10_000_000))
def test_random_corruption_reaches_legitimacy(case):
    rng = random.Random(case)
    n = rng.randrange(2, 26)
    g = random_connected_graph(n, rng.random() * 0.4, case)
    cfg = random_bfs_cfg(g, case + 1)
    trace = run(g, bfs_actions(g), cfg,
                DaemonPolicy(kind="random", p=0.5, seed=case + 2),
                max_steps=200_000)
    assert trace.terminated
    assert check_tree(trace.final, g) == []
    r = min(g.vertices)
    for v in g.vertices:
        assert trace.final[v][LEVEL] == dist(g, r, v)


def test_round_budget_linear_in_n():
    # The stand-in stays within a small multiple of n rounds on random
    # corrupted instances; the constant here is generous but fixed.
    worst = 0.0
    for case in range(40):
        rng = random.Random(case * 31 + 7)
        n = rng.randrange(4, 26)
        g = random_connected_graph(n, 0.25, case)
        cfg = random_bfs_cfg(g, case)
        trace = run(g, bfs_actions(g), cfg,
                    DaemonPolicy(kind="synchronous"), max_steps=50_000)
        assert trace.terminated
        worst = max(worst, trace.num_rounds / n)
    assert worst <= 4.0, f"round/n ratio {worst}"
