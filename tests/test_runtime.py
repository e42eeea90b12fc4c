import pytest

from stabsim.graphs import make_graph, path_graph
from stabsim.runtime import (
    BOT,
    Action,
    AlgorithmSpec,
    DaemonContractError,
    DaemonPolicy,
    Eval,
    Keyed,
    ScheduleError,
    bot_inc,
    bot_min,
    enabled_actions,
    keyed_updates,
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
    daemon = DaemonPolicy(kind="random", p=0.05, seed=2)
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


def test_cached_action_sees_arrays_pruned_by_a_domain_write():
    # Process 1 writes only its domain, which prunes its array `a`; process 2
    # caches the result of an action that reads, of its neighbor, `a` alone:
    # as its only read, or as its only neighbor read next to its own domain.
    # The pruning must invalidate that entry, so the cached run ends where
    # the uncached replay through step() ends.
    g = make_graph([1, 2], [(1, 2)])
    watches = (
        Action("W", lambda e: len(e.nbr(1)["a"]), frozenset(("a",))),
        Action("W", lambda e: len(e.store["domain"]) + len(e.nbr(1)["a"]),
               frozenset(("domain", "a")), nbr_reads=frozenset(("a",))),
    )

    def shrink(ev):
        if ev.pid == 1 and ev.store["domain"] != frozenset({1}):
            return {"domain": frozenset({1})}
        return None

    for watch in watches:
        def count(ev, watch=watch):
            seen = ev.cached(watch)
            if ev.pid == 2 and ev.store["seen"] != seen:
                return {"seen": seen}
            return None

        alg = AlgorithmSpec(
            "prune",
            (Action("D1", shrink, frozenset(("domain",)), frozenset(("domain",))),
             Action("D2", count, watch.reads | {"seen"}, frozenset(("seen",)))),
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


def test_action_rejects_neighbor_reads_outside_reads():
    assert Action("A", lambda ev: None, frozenset("xy")).nbr_reads == frozenset("xy")
    with pytest.raises(ValueError, match="z"):
        Action("A", lambda ev: None, frozenset("xy"), nbr_reads=frozenset("xz"))


def test_cache_drops_entries_by_owner_and_neighbor_reads():
    # Each process caches `own`, which reads its own x and nothing of its
    # neighbors.  A neighbor's write of x keeps the entry; the owner's own
    # write of x drops it.
    g = make_graph([1, 2], [(1, 2)])
    misses = {1: 0, 2: 0}

    def own_x(ev):
        misses[ev.pid] += 1
        return ev.store["x"]

    own = Action("W", own_x, frozenset("x"), nbr_reads=frozenset())

    def note(ev):
        x = ev.cached(own)
        return {"seen": x} if ev.store["seen"] != x else None

    def bump(ev):
        s = ev.store
        return {"x": s["x"] + 1, "todo": 0} if s["todo"] else None

    alg = AlgorithmSpec("bump", (
        Action("B1", note, frozenset(("x", "seen")), frozenset(("seen",)), frozenset()),
        Action("B2", bump, frozenset(("x", "todo")), frozenset(("x", "todo")), frozenset()),
    ))
    cfg0 = {v: {"x": 0, "todo": 1, "seen": 0} for v in (1, 2)}
    before_step = []
    trace = run(g, alg, cfg0, DaemonPolicy(kind="scripted", script=[{2}, {2}, {1}, {1}]),
                10, observers=(lambda event: before_step.append(dict(misses)),))
    assert trace.terminated
    assert before_step + [misses] == [
        {1: 1, 2: 1},  # the initial guard scans
        {1: 1, 2: 2},  # 2 wrote x: its own entry went, 1's stayed
        {1: 1, 2: 2},  # 2 wrote seen, which `own` does not read
        {1: 2, 2: 2},  # 1 wrote x: its own entry went, 2's stayed
        {1: 2, 2: 2},
    ]
    replay = cfg0
    for rec in trace.steps:
        replay = step(replay, set(rec.selected), alg, g)
    assert trace.final == replay
    assert all(trace.final[v]["seen"] == 1 for v in (1, 2))



def test_guard_scan_resumes_at_the_first_action_a_change_reaches():
    # G1 reads only y, G2 x, todo and y, both from the owner's store alone.
    # A fire of G2 changes x and todo and rewrites y with its own value, no
    # change: nothing reaches G1, which is never evaluated again, nor the
    # neighbor, which keeps its first enabled action.
    g = make_graph([1, 2], [(1, 2)])
    evals = {1: 0, 2: 0}

    def guard_y(ev):
        evals[ev.pid] += 1
        return {"y": 0} if ev.store["y"] else None

    def bump(ev):
        s = ev.store
        return {"x": s["x"] + 1, "todo": s["todo"] - 1, "y": s["y"]} if s["todo"] else None

    names = frozenset(("x", "todo", "y"))
    alg = AlgorithmSpec("resume", (
        Action("G1", guard_y, frozenset("y"), frozenset("y"), frozenset()),
        Action("G2", bump, names, names, frozenset()),
    ))
    cfg0 = {v: {"x": 0, "todo": 2, "y": 0} for v in (1, 2)}
    trace = run(g, alg, cfg0, DaemonPolicy(kind="scripted", script=[{2}, {1}, {2}, {1}]),
                10)
    assert trace.terminated and trace.num_steps == 4
    assert evals == {1: 1, 2: 1}
    replay = cfg0
    for rec in trace.steps:
        replay = step(replay, set(rec.selected), alg, g)
    assert trace.final == replay


# ---------------------------------------------------------------------------
# kept rows of keyed actions

FULL_DOMAIN = frozenset({1, 2, 3})


def keyed_copy(script, calls, seen, handed=None, key_reads=frozenset(), marks=None):
    """Process 2 keeps the row u -> process 1's a[u] + its own t[u], plus 1
    at its own m (action K, keyed on `a`; the whole row depends on `domain`
    and `b`, `t` reaches it key by key if `key_reads` says so, and `m`
    through `marks`); W applies script[pid], one write per step.  `calls`
    records the keys of every row computation (None for a full row),
    `seen` the waiting keys of the kept row at the start of each evaluation
    at 2 (None when no row is kept), `handed` each row handed out as
    updates next to a copy of its content."""

    def row_of(ev, keys):
        calls.append(None if keys is None else sorted(keys))
        src, t, m = ev.nbr(1)["a"], ev.store["t"], ev.store["m"]
        return {u: None if src.get(u) is None else src[u] + t.get(u, 0) + (u == m)
                for u in (ev.store["domain"] if keys is None else keys)}

    def evaluate_k(ev):
        if ev.pid != 2:
            return None
        state = ev.caches.kept.get(keyed, {}).get(2)
        seen.append(None if state is None else set(state.waiting))
        updates = keyed_updates(ev, keyed)
        if updates is not None and handed is not None:
            handed.append((updates["a"], dict(updates["a"])))
        return updates

    def evaluate_w(ev):
        todo = script.get(ev.pid, ())
        i = ev.store["i"]
        return dict(todo[i], i=i + 1) if i < len(todo) else None

    keyed = Action("K", evaluate_k, frozenset({"domain", "a", "b", "t", "m"}),
                   frozenset({"a"}),
                   keyed=Keyed("a", row_of, frozenset({"domain", "b"}), key_reads, marks))
    write = Action("W", evaluate_w, frozenset({"i"}),
                   frozenset({"domain", "a", "b", "c", "t", "m", "i"}), frozenset())
    return AlgorithmSpec("keyed", (keyed, write), domain_var="domain")


def run_keyed_copy(script, selections, calls, seen, handed=None, observers=(),
                   **declared):
    g = make_graph([1, 2], [(1, 2)])
    cfg0 = {v: {"domain": FULL_DOMAIN, "a": {1: 5, 2: 5, 3: 5}, "b": 0, "c": 0,
                "t": {1: 0, 2: 0, 3: 0}, "m": None, "i": 0}
            for v in (1, 2)}
    alg = keyed_copy(script, calls, seen, handed, **declared)
    trace = run(g, alg, cfg0, DaemonPolicy(kind="scripted", script=selections),
                len(selections) + 1, observers=observers)
    assert trace.terminated
    recorded = [(log, len(log)) for log in (calls, seen, handed) if log is not None]
    replay = cfg0
    for rec in trace.steps:
        replay = step(replay, set(rec.selected), alg, g)
    assert trace.final == replay
    for log, n in recorded:  # drop what the uncached replay recorded
        del log[n:]
    return trace


def test_keyed_row_declaration_is_checked():
    def row(ev, keys):
        return {}

    def keyed_action(writes, fixed, key_reads=frozenset()):
        return Action("K", lambda ev: None, frozenset({"domain", "a", "b"}),
                      frozenset(writes), keyed=Keyed("a", row, frozenset(fixed),
                                                     frozenset(key_reads)))

    with pytest.raises(ValueError, match="keyed array 'a' is not written"):
        keyed_action("b", {"domain"})
    with pytest.raises(ValueError, match=r"\['c'\] outside reads"):
        keyed_action("a", {"domain", "c"})
    with pytest.raises(ValueError, match=r"\['t'\] outside reads"):
        keyed_action("a", {"domain"}, key_reads={"b", "t"})
    # An array the action does not read from neighbors is accepted.
    local = Action("K", lambda ev: None, frozenset({"domain", "a"}), frozenset("a"),
                   frozenset(), keyed=Keyed("a", row, frozenset({"domain"})))
    assert AlgorithmSpec("local", (local,), domain_var="domain").actions == (local,)
    # A row's keys are the domain, so a row not dropped by a domain write
    # is refused when the algorithm is declared.
    undomained = keyed_action("a", {"b"})
    assert AlgorithmSpec("plain", (undomained,)).actions == (undomained,)
    with pytest.raises(ValueError, match="fixed on 'domain'"):
        AlgorithmSpec("domained", (undomained,), domain_var="domain")


def test_kept_row_patches_the_changed_keys_only():
    calls, seen = [], []
    trace = run_keyed_copy({1: [{"a": {1: 5, 2: 7, 3: 5}}]}, [{1}, {2}], calls, seen)
    assert calls == [None, [2]]
    assert seen == [None, {2}, set()]
    assert trace.final[2]["a"] == {1: 5, 2: 7, 3: 5}


def test_domain_write_forces_a_full_recompute():
    # The owner's domain write, then a neighbor's: each prunes arrays, and
    # the next evaluation computes the whole row again.
    calls, seen = [], []
    trace = run_keyed_copy(
        {2: [{"domain": frozenset({1, 2})}], 1: [{"domain": frozenset({1})}]},
        [{2}, {1}, {2}], calls, seen)
    assert calls == [None, None, None]
    assert seen == [None, None, None, set()]
    assert trace.final[2]["a"] == {1: 5, 2: None}


def test_neighbor_write_of_another_neighbor_read_drops_the_kept_row():
    # `c` is not read by K: it does not reach process 2 and the row stays,
    # so the `a` write after it is patched at its one changed key; `b` is a
    # neighbor read of K besides the keyed array: the row is dropped and
    # recomputed in full.
    calls, seen = [], []
    run_keyed_copy({1: [{"c": 1}, {"a": {1: 5, 2: 7, 3: 5}}, {"b": 1}]},
                   [{1}, {1}, {1}, {2}], calls, seen)
    assert seen == [None, {2}, None, set()]
    assert calls == [None, [2], None]


def test_write_of_equal_values_adds_no_waiting_keys():
    # An equal array is no change: the row stays and waits for nothing, so
    # the next write of `a` is patched at its one changed key.
    calls, seen = [], []
    run_keyed_copy({1: [{"a": {1: 5, 2: 5, 3: 5}}, {"a": {1: 5, 2: 5, 3: 6}}]},
                   [{1}, {1}, {2}], calls, seen)
    assert seen == [None, {3}, set()]
    assert calls == [None, [3]]


def test_row_handed_out_as_updates_is_never_mutated():
    # Every array stored in any configuration of the run, and every row
    # handed out as updates, keeps its content to the end, although the
    # kept row is patched after each was handed out.
    calls, seen, handed, stored = [], [], [], []

    def snapshot(event):
        for s in event.post_cfg.values():
            stored.append((s["a"], dict(s["a"])))

    trace = run_keyed_copy(
        {1: [{"a": {1: 5, 2: 7, 3: 5}}, {"a": {1: 5, 2: 7, 3: 9}}]},
        [{1}, {2}, {1}, {2}], calls, seen, handed, observers=(snapshot,))
    assert calls == [None, [2], [3]]
    assert len(handed) == 2
    (first, first_copy), (second, second_copy) = handed
    assert first is not second
    assert first == first_copy == {1: 5, 2: 7, 3: 5}
    assert second == second_copy == {1: 5, 2: 7, 3: 9}
    assert trace.final[2]["a"] is second
    assert all(obj == copy for obj, copy in stored)


def test_owner_write_of_a_key_read_array_patches_its_changed_keys():
    # Process 2 changes its own t at key 3: the kept row waits for that key
    # alone, and the next evaluation recomputes only it.
    calls, seen = [], []
    trace = run_keyed_copy({2: [{"t": {1: 0, 2: 0, 3: 4}}]}, [{2}, {2}], calls, seen,
                           key_reads=frozenset({"t"}))
    assert calls == [None, [3]]
    assert seen == [None, {3}, set()]
    assert trace.final[2]["a"] == {1: 5, 2: 5, 3: 9}


def test_changed_marks_patch_the_keys_they_differ_at():
    # The row reads the owner's m through the mark {m: 1}: setting m to 1
    # recomputes key 1, moving it on to 3 keys 1 and 3; no key waits.
    calls, seen = [], []
    trace = run_keyed_copy({2: [{"m": 1}, {"m": 3}]}, [{2}, {2}, {2}, {2}], calls, seen,
                           marks=lambda ev: {ev.store["m"]: 1})
    assert calls == [None, [1], [1, 3]]
    assert seen[0] is None and all(keys == set() for keys in seen[1:])
    assert trace.final[2]["a"] == {1: 5, 2: 5, 3: 6}
