import pytest

from stabsim.graphs import make_graph, path_graph
from stabsim.runtime import (
    BOT,
    Action,
    AlgorithmSpec,
    DaemonContractError,
    DaemonPolicy,
    Eval,
    ScheduleError,
    bot_inc,
    bot_min,
    enabled_actions,
    rounds,
    run,
    step,
)


def clear_to_zero():
    """x != 0 -> x := 0"""

    def evaluate(ev):
        return {"x": 0} if ev.store["x"] != 0 else None

    return AlgorithmSpec("clear", (Action("Z1", evaluate, frozenset("x"), frozenset("x")),))


def copy_nbr_plus_one():
    """x := max neighbor x + 1 whenever smaller (diverges; for snapshot tests)."""

    def evaluate(ev):
        target = max(ev.nbr(u)["x"] for u in ev.nbr_ids) + 1
        return {"x": target} if ev.store["x"] < target else None

    return AlgorithmSpec("chase", (Action("C1", evaluate, frozenset("x"), frozenset("x")),))


def two_actions():
    def low(ev):
        return {"x": ev.store["x"] - 1} if ev.store["x"] > 0 else None

    def high(ev):
        return {"x": ev.store["x"] + 10} if ev.store["x"] > 0 else None

    return AlgorithmSpec(
        "two",
        (
            Action("A1", low, frozenset("x"), frozenset("x")),
            Action("A2", high, frozenset("x"), frozenset("x")),
        ),
    )


def cfg_of(graph, values):
    return {v: {"x": values[v]} for v in graph.vertices}


def test_bot_helpers():
    assert bot_inc(BOT) is BOT
    assert bot_inc(3) == 4
    assert bot_min([]) is BOT
    assert bot_min([BOT, 5, 2, BOT]) == 2


def test_enabled_actions_empty_and_single(p3):
    alg = clear_to_zero()
    cfg = cfg_of(p3, {1: 0, 2: 0, 3: 0})
    assert enabled_actions(cfg, 2, alg, p3) == []
    cfg = cfg_of(p3, {1: 0, 2: 1, 3: 0})
    assert enabled_actions(cfg, 2, alg, p3) == ["Z1"]


def test_step_empty_selection_is_identity(p3):
    alg = clear_to_zero()
    cfg = cfg_of(p3, {1: 1, 2: 1, 3: 1})
    assert step(cfg, set(), alg, p3) == cfg


def test_step_snapshot_semantics():
    # Two adjacent processes chasing each other's value must read the same
    # pre-step snapshot: both land on 1, not (1, 2).
    g = make_graph([1, 2], [(1, 2)])
    alg = copy_nbr_plus_one()
    cfg = cfg_of(g, {1: 0, 2: 0})
    nxt = step(cfg, {1, 2}, alg, g)
    assert nxt[1]["x"] == 1 and nxt[2]["x"] == 1


def test_step_smallest_label_wins(p3):
    alg = two_actions()
    cfg = cfg_of(p3, {1: 5, 2: 0, 3: 0})
    assert enabled_actions(cfg, 1, alg, p3) == ["A1", "A2"]
    nxt = step(cfg, {1}, alg, p3)
    assert nxt[1]["x"] == 4  # A1, not A2


def test_step_rejects_non_enabled(p3):
    alg = clear_to_zero()
    cfg = cfg_of(p3, {1: 0, 2: 0, 3: 0})
    with pytest.raises(DaemonContractError):
        step(cfg, {1}, alg, p3)


def test_run_already_final(p3):
    alg = clear_to_zero()
    cfg = cfg_of(p3, {1: 0, 2: 0, 3: 0})
    trace = run(p3, alg, cfg, DaemonPolicy(kind="synchronous"), max_steps=10)
    assert trace.terminated and trace.num_steps == 0 and trace.num_rounds == 0


def test_run_single_fix():
    g = make_graph([7, 8], [(7, 8)])
    alg = clear_to_zero()
    cfg = cfg_of(g, {7: 5, 8: 0})
    trace = run(g, alg, cfg, DaemonPolicy(kind="synchronous"), max_steps=10)
    assert trace.terminated
    assert trace.num_steps == 1
    assert trace.final[7]["x"] == 0


def test_run_budget_exhausted():
    g = make_graph([1, 2], [(1, 2)])
    alg = copy_nbr_plus_one()
    cfg = cfg_of(g, {1: 0, 2: 0})
    trace = run(g, alg, cfg, DaemonPolicy(kind="synchronous"), max_steps=25)
    assert trace.verdict == "budget_exhausted"
    assert trace.num_steps == 25


def test_rounds_empty_trace(p3):
    alg = clear_to_zero()
    cfg = cfg_of(p3, {1: 0, 2: 0, 3: 0})
    trace = run(p3, alg, cfg, DaemonPolicy(kind="synchronous"), max_steps=5)
    assert rounds(trace) == 0


def test_rounds_synchronous_equals_steps(p5):
    alg = clear_to_zero()
    cfg = cfg_of(p5, {v: v for v in p5.vertices})
    trace = run(p5, alg, cfg, DaemonPolicy(kind="synchronous"), max_steps=10)
    assert trace.terminated
    assert rounds(trace) == trace.num_steps == 1


def test_rounds_central_three_independent():
    # Three simultaneously enabled processes served one per step: the first
    # round completes exactly when the third of them has acted.
    g = path_graph(3)
    alg = clear_to_zero()
    cfg = cfg_of(g, {1: 1, 2: 1, 3: 1})
    daemon = DaemonPolicy(kind="scripted", script=[{1}, {2}, {3}])
    trace = run(g, alg, cfg, daemon, max_steps=10)
    assert trace.terminated
    assert trace.round_boundaries == [3]
    assert rounds(trace) == 1


def test_rounds_neutralization():
    # 2 is enabled only while its neighbors hold nonzero: firing 1 and 3
    # neutralizes 2, ending the round without 2 acting.
    g = path_graph(3)

    def evaluate(ev):
        if ev.store["x"] != 0:
            return {"x": 0}
        if any(ev.nbr(u)["x"] != 0 for u in ev.nbr_ids):
            return {"x": 0}
        return None

    alg = AlgorithmSpec("n", (Action("N1", evaluate, frozenset("x"), frozenset("x")),))
    cfg = cfg_of(g, {1: 1, 2: 0, 3: 1})
    daemon = DaemonPolicy(kind="scripted", script=[{1, 3}])
    trace = run(g, alg, cfg, daemon, max_steps=5)
    assert trace.terminated
    assert rounds(trace) == 1


def test_determinism_same_seed(p5):
    alg = clear_to_zero()
    cfg = cfg_of(p5, {v: v for v in p5.vertices})
    t1 = run(p5, alg, cfg, DaemonPolicy(kind="random", p=0.4, seed=9), max_steps=100)
    t2 = run(p5, alg, cfg, DaemonPolicy(kind="random", p=0.4, seed=9), max_steps=100)
    assert [s.selected for s in t1.steps] == [s.selected for s in t2.steps]
    assert t1.final == t2.final


def test_locality_of_evaluation(p5):
    # A process's decision depends only on its 1-neighborhood: perturbing a
    # non-neighbor must not change what it does.
    alg = copy_nbr_plus_one()
    cfg = cfg_of(p5, {1: 0, 2: 3, 3: 0, 4: 0, 5: 0})
    before = alg.first_enabled(Eval(cfg, 1, p5.neighbors_of(1)))
    cfg_far = {v: dict(s) for v, s in cfg.items()}
    cfg_far[5]["x"] = 99
    after = alg.first_enabled(Eval(cfg_far, 1, p5.neighbors_of(1)))
    assert before == after


def test_weak_fairness_aging(p5):
    # With aging, no process stays continuously enabled longer than the
    # window plus one selection round.
    alg = clear_to_zero()
    cfg = cfg_of(p5, {v: 1 for v in p5.vertices})
    daemon = DaemonPolicy(kind="random", p=0.05, seed=2, aging_window=5)
    trace = run(p5, alg, cfg, daemon, max_steps=500)
    assert trace.terminated
    waits = {v: 0 for v in p5.vertices}
    cur = {v: dict(s) for v, s in cfg.items()}
    for rec in trace.steps:
        enabled = {v for v in p5.vertices if cur[v]["x"] != 0}
        for v in enabled:
            if v in rec.selected:
                waits[v] = 0
            else:
                waits[v] += 1
                assert waits[v] <= 6
        for v in rec.selected:
            cur[v]["x"] = 0
    assert all(trace.final[v]["x"] == 0 for v in p5.vertices)


def test_central_selects_one(p5):
    alg = clear_to_zero()
    cfg = cfg_of(p5, {v: 1 for v in p5.vertices})
    trace = run(p5, alg, cfg, DaemonPolicy(kind="central", seed=4), max_steps=50)
    assert trace.terminated
    assert all(len(s.selected) == 1 for s in trace.steps)
    assert trace.num_steps == 5


def test_scripted_validation(p3):
    alg = clear_to_zero()
    cfg = cfg_of(p3, {1: 1, 2: 1, 3: 1})
    with pytest.raises(DaemonContractError):
        run(p3, alg, cfg, DaemonPolicy(kind="scripted", script=[{1}, {1}]),
            max_steps=10)
    with pytest.raises(ScheduleError):
        run(p3, alg, cfg, DaemonPolicy(kind="scripted", script=[{1}]), max_steps=10)


def test_policy_validation():
    with pytest.raises(ScheduleError):
        DaemonPolicy(kind="nope").validate()
    with pytest.raises(ScheduleError):
        DaemonPolicy(kind="random", p=0.0).validate()
    with pytest.raises(ScheduleError):
        DaemonPolicy(kind="scripted").validate()


def test_domain_write_prunes_all_arrays():
    # When the domain shrinks, every array drops the departed keys in the
    # same atomic step; a key that later re-enters the domain starts
    # undefined instead of resurrecting an old value.
    from stabsim.runtime import apply_updates

    store = {
        "domain": frozenset({1, 2, 9}),
        "dist": {1: 0, 2: 1, 9: 3},
        "flags": {9: True},
        "x": 5,
    }
    new = apply_updates(store, {"domain": frozenset({1, 2})}, "domain")
    assert new["dist"] == {1: 0, 2: 1}
    assert new["flags"] == {}
    assert new["x"] == 5
    # non-domain writes leave other arrays alone
    same = apply_updates(store, {"x": 6}, "domain")
    assert same["dist"] == {1: 0, 2: 1, 9: 3}


def test_cached_layer_sees_arrays_pruned_by_a_domain_write():
    # Process 1 writes only its domain, which prunes its array `a`; process 2
    # caches a value under a layer that watches `a` alone.  The pruning must
    # invalidate that entry, so the cached run ends where the uncached
    # replay through step() ends.
    g = make_graph([1, 2], [(1, 2)])

    def shrink(ev):
        if ev.pid == 1 and ev.store["domain"] != frozenset({1}):
            return {"domain": frozenset({1})}
        return None

    def count(ev):
        seen = ev.cached("watch", lambda e: len(e.nbr(1)["a"]))
        if ev.pid == 2 and ev.store["seen"] != seen:
            return {"seen": seen}
        return None

    alg = AlgorithmSpec(
        "prune",
        (Action("D1", shrink, frozenset(("domain",)), frozenset(("domain",))),
         Action("D2", count, frozenset(("a", "seen")), frozenset(("seen",)))),
        layers=(("watch", frozenset(("a",))),),
        domain_var="domain",
    )
    cfg0 = {
        1: {"domain": frozenset({1, 2}), "a": {1: 0, 2: 0}, "seen": 0},
        2: {"domain": frozenset(), "a": {}, "seen": 2},
    }
    trace = run(g, alg, cfg0, DaemonPolicy(kind="scripted", script=[{1}, {2}]), 10)
    replay = cfg0
    for rec in trace.steps:
        replay = step(replay, set(rec.selected), alg, g)
    assert trace.terminated
    # silence judged without the cache: nothing is left enabled
    assert all(enabled_actions(trace.final, v, alg, g) == [] for v in g.vertices)
    assert trace.final[2]["seen"] == 1
    assert trace.final == replay
