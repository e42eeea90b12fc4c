import dataclasses
import random
from collections import Counter

import pytest

from stabsim.bfs import LEVEL, PARENT, ROOT, children, parent
from stabsim.configs import random_config
from stabsim.graphs import grid_graph, make_graph, path_graph, random_connected_graph
from stabsim.kgrouping import kgrouping_binding
from stabsim.loop import (
    COLOR,
    ILLEGAL_PAIRS,
    MODE,
    MODE_BASE,
    MODE_INIT,
    RESET,
    BaseAlgorithmBinding,
    CompositionError,
    _copies_match,
    _copy_updates,
    check_Cfin,
    check_Cgoal,
    compose,
    copy_shift,
    disabled_everywhere,
)
from stabsim.runtime import (
    BOT,
    ID,
    Action,
    AlgorithmSpec,
    DaemonPolicy,
    Eval,
    Var,
    enabled_actions,
    plain_evals,
    run,
    step,
)


# A tiny base algorithm: flood the minimum of the input copies.  With the
# trivial error predicate this exercises the combinator with no grouping
# machinery at all.

def min_flood_base():
    def evaluate(ev):
        best = ev.store["m"]
        if ev.store["in_m"] < best:
            best = ev.store["in_m"]
        for u in ev.nbr_ids:
            if ev.cfg[u]["m"] < best:
                best = ev.cfg[u]["m"]
        return {"m": best} if best != ev.store["m"] else None

    return AlgorithmSpec((Action("F1", evaluate, frozenset(("m", "in_m")), frozenset(("m",))),))


def empty_init():
    return AlgorithmSpec(())


def toy_binding():
    return BaseAlgorithmBinding(
        base=min_flood_base(),
        init=empty_init(),
        error=lambda ev, init: False,
        outputs=(("m", "in_m"),),
    )


def toy_cfg(graph, values, colors=None, modes=None, resets=None):
    cfg = {}
    for v in graph.vertices:
        cfg[v] = {
            ROOT: v, LEVEL: 0, PARENT: BOT,
            COLOR: 0 if colors is None else colors[v],
            MODE: MODE_BASE if modes is None else modes[v],
            RESET: 0 if resets is None else resets[v],
            "m": values[v], "in_m": values[v],
        }
    return cfg


def test_illegal_pairs_membership():
    assert (2, 4) in ILLEGAL_PAIRS
    assert (1, 3) in ILLEGAL_PAIRS
    assert (0, 0) not in ILLEGAL_PAIRS
    assert ILLEGAL_PAIRS == {(1, 3), (1, 4), (2, 0), (2, 1), (2, 3),
                             (2, 4), (3, 0), (3, 1), (4, 1), (4, 2)}
    # L9 admits exactly the parent colors of some illegal pair.
    (l9,) = (a for a in compose(toy_binding(), path_graph(3)).actions if a.label == "L9")
    assert l9.when.keys() == {COLOR}
    assert set(l9.when[COLOR]) == {parent for parent, _ in ILLEGAL_PAIRS}


def test_binding_validation():
    # Write sets come from the actions: the base writes m (see F1).
    with pytest.raises(CompositionError):
        BaseAlgorithmBinding(
            base=min_flood_base(), init=empty_init(), error=lambda ev, init: False,
            outputs=(("m", "m"),),
        )
    init_writing_m = AlgorithmSpec((Action("P1", lambda ev: None, writes=frozenset(("m",))),))
    with pytest.raises(CompositionError):
        BaseAlgorithmBinding(
            base=min_flood_base(), init=init_writing_m, error=lambda ev, init: False,
            outputs=(("m", "in_m"),),
        )
    with pytest.raises(CompositionError):
        BaseAlgorithmBinding(
            base=min_flood_base(), init=empty_init(), error=lambda ev, init: False,
            outputs=(("q", "in_q"),),
        )


def test_binding_output_and_copy_kinds_must_agree():
    scalar, array = Var("m", "scalar", ID), Var("in_m", "array", ID)
    with pytest.raises(CompositionError):
        BaseAlgorithmBinding(
            base=min_flood_base(), init=empty_init(), error=lambda ev, init: False,
            outputs=(("m", "in_m"),), variables=(scalar, array),
        )


def test_binding_domain_is_the_one_set_variable():
    from stabsim.kgrouping import DOMAIN, kgrouping_binding

    assert kgrouping_binding(2).domain_var == DOMAIN
    assert toy_binding().domain_var is None
    with pytest.raises(CompositionError):
        BaseAlgorithmBinding(
            base=min_flood_base(), init=empty_init(), error=lambda ev, init: False,
            outputs=(("m", "in_m"),),
            variables=(Var("d1", "set", ID), Var("d2", "set", ID)),
        )


def test_l7_honours_a_module_action_when():
    # The flood fires only where the payload scalar `gate` is 1.  L7 scans
    # the base table through `admits`, so process 3 (gate 0) keeps its m
    # although the flood's body would lower it, and the verdicts, which
    # scan the same way, find the base disabled everywhere at the end.
    g = path_graph(5)
    (flood,) = min_flood_base().actions
    gated = dataclasses.replace(flood, reads=flood.reads | {"gate"}, when={"gate": (1,)})
    binding = BaseAlgorithmBinding(base=AlgorithmSpec((gated,)), init=empty_init(),
                                   error=lambda ev, init: False, outputs=(("m", "in_m"),))
    cfg = toy_cfg(g, {1: 9, 2: 4, 3: 8, 4: 3, 5: 7})
    for v in g.vertices:
        cfg[v]["gate"] = 0 if v == 3 else 1
    fired = []

    def observe(event):
        fired.extend(event.pre_cfg[v]["gate"] for v, label in event.fired.items()
                     if label == "L7")

    trace = run(g, compose(binding, g), cfg, DaemonPolicy(kind="random", p=0.5, seed=2),
                max_steps=200_000, observers=(observe,))
    assert trace.terminated and fired and set(fired) == {1}
    final = trace.final
    assert {v: final[v]["m"] for v in g.vertices} == {1: 4, 2: 4, 3: 8, 4: 3, 5: 3}
    assert flood.evaluate(Eval(final, 3, g.neighbors_of(3))) == {"m": 3}
    assert disabled_everywhere(plain_evals(final, g), binding.base)
    assert check_Cfin(plain_evals(final, g), binding)
    final[3]["gate"] = 1
    assert not disabled_everywhere(plain_evals(final, g), binding.base)


def test_root_down_move_with_vacuous_parent(p3):
    # A parentless root with all children at its own color starts the wave.
    alg = compose(toy_binding(), p3)
    cfg = toy_cfg(p3, {1: 0, 2: 0, 3: 0})
    cfg[1].update({ROOT: 1, LEVEL: 0, PARENT: BOT})
    cfg[2].update({ROOT: 1, LEVEL: 1, PARENT: 1})
    cfg[3].update({ROOT: 1, LEVEL: 2, PARENT: 2})
    labels = enabled_actions(cfg, 1, alg, p3)
    assert labels == ["L12"]
    nxt = step(cfg, {1}, alg, p3)
    assert nxt[1][COLOR] == 1


def test_color_reset_enabled_on_raised_flag(p3):
    alg = compose(toy_binding(), p3)
    cfg = toy_cfg(p3, {1: 0, 2: 0, 3: 0}, colors={1: 1, 2: 0, 3: 0},
                  resets={1: 1, 2: 0, 3: 0})
    cfg[1].update({ROOT: 1, LEVEL: 0, PARENT: BOT})
    cfg[2].update({ROOT: 1, LEVEL: 1, PARENT: 1})
    cfg[3].update({ROOT: 1, LEVEL: 2, PARENT: 2})
    assert "L2" in enabled_actions(cfg, 1, alg, p3)


def test_copy_shift_fixed_point_and_idempotence(p3):
    binding = toy_binding()
    cfg = toy_cfg(p3, {1: 4, 2: 7, 3: 1})
    assert copy_shift(cfg, binding) == cfg  # m == in_m everywhere already
    cfg[2]["m"] = 0
    shifted = copy_shift(cfg, binding)
    assert shifted[2]["in_m"] == 0
    assert copy_shift(shifted, binding) == shifted


def test_copy_shift_single_value():
    g = make_graph([1, 2], [(1, 2)])
    binding = toy_binding()
    cfg = toy_cfg(g, {1: 3, 2: 3})
    cfg[1]["m"] = 7
    shifted = copy_shift(cfg, binding)
    assert shifted[1]["in_m"] == 7
    assert shifted[2]["in_m"] == 3


def test_cgoal_cfin_relation(p3):
    binding = toy_binding()
    cfg = toy_cfg(p3, {1: 2, 2: 2, 3: 2}, colors={1: 3, 2: 3, 3: 3})
    cfg[1].update({ROOT: 1, LEVEL: 0, PARENT: BOT})
    cfg[2].update({ROOT: 1, LEVEL: 1, PARENT: 1})
    cfg[3].update({ROOT: 1, LEVEL: 2, PARENT: 2})
    assert check_Cgoal(plain_evals(cfg, p3), binding)
    assert check_Cfin(plain_evals(cfg, p3), binding)
    cfg[2][COLOR] = 2
    assert check_Cgoal(plain_evals(cfg, p3), binding)
    assert not check_Cfin(plain_evals(cfg, p3), binding)
    cfg[2]["in_m"] = 99  # breaks the copy fixed point
    assert not check_Cgoal(plain_evals(cfg, p3), binding)


def test_generic_loop_runs_toy_base_to_fixed_point():
    g = path_graph(6)
    alg = compose(toy_binding(), g)
    values = {1: 9, 2: 4, 3: 8, 4: 3, 5: 7, 6: 5}
    cfg = toy_cfg(g, values)
    trace = run(g, alg, cfg, DaemonPolicy(kind="random", p=0.5, seed=11),
                max_steps=200_000)
    assert trace.terminated
    assert check_Cfin(plain_evals(trace.final, g), toy_binding())
    assert all(trace.final[v]["m"] == 3 for v in g.vertices)
    assert all(trace.final[v]["in_m"] == 3 for v in g.vertices)


def test_generic_loop_from_corrupted_colors():
    g = path_graph(5)
    binding = toy_binding()
    alg = compose(binding, g)
    rng = random.Random(5)
    for trial in range(25):
        values = {v: rng.randrange(0, 50) for v in g.vertices}
        cfg = toy_cfg(
            g, values,
            colors={v: rng.randrange(5) for v in g.vertices},
            modes={v: rng.choice((MODE_BASE, MODE_INIT)) for v in g.vertices},
            resets={v: rng.randrange(2) for v in g.vertices},
        )
        for v in g.vertices:
            cfg[v]["m"] = rng.randrange(0, 50)
            cfg[v]["in_m"] = rng.randrange(0, 50)
        trace = run(g, alg, cfg, DaemonPolicy(kind="random", p=0.6, seed=trial),
                    max_steps=200_000)
        assert trace.terminated
        assert check_Cfin(plain_evals(trace.final, g), binding)
        final_values = {trace.final[v]["m"] for v in g.vertices}
        assert len(final_values) == 1


def replay_configs(trace):
    cfg = trace.initial
    yield cfg
    for rec in trace.steps:
        cfg = step(cfg, set(rec.selected), trace.algorithm, trace.graph)
        yield cfg


def test_wave_sanity_first_r2_after_r0():
    # Whenever the root completes a 0 -> 1 -> 2 climb, the snapshot at its
    # first color-2 moment has every process at color 2 with no flag raised,
    # a single common mode, and that mode's module disabled everywhere.
    g = random_connected_graph(7, 0.3, 2)
    binding = toy_binding()
    alg = compose(binding, g)
    rng = random.Random(3)
    values = {v: rng.randrange(9) for v in g.vertices}
    trace = run(g, alg, toy_cfg(g, values),
                DaemonPolicy(kind="random", p=0.5, seed=8), max_steps=200_000)
    assert trace.terminated
    root = min(g.vertices)
    configs = list(replay_configs(trace))
    seen_r0 = False
    checked = 0
    for i in range(1, len(configs)):
        cl = configs[i][root][COLOR]
        if cl == 0:
            seen_r0 = True
        if cl == 2 and configs[i - 1][root][COLOR] != 2 and seen_r0:
            seen_r0 = False
            checked += 1
            snap = configs[i]
            assert all(snap[v][COLOR] == 2 for v in g.vertices)
            assert all(snap[v][RESET] == 0 for v in g.vertices)
            modes = {snap[v][MODE] for v in g.vertices}
            assert len(modes) == 1
            module = binding.base if modes.pop() == MODE_BASE else binding.init
            for v in g.vertices:
                ev = Eval(snap, v, g.neighbors_of(v))
                assert module.first_enabled(ev) is None
    assert checked >= 1


def test_repair_reaches_root_zero_or_final_within_c_diameter_rounds():
    # From arbitrary configurations the root's color returns to 0 (or the
    # run ends silently) within a bounded number of rounds per unit of
    # diameter: fit the constant on short paths, validate with headroom on
    # longer ones.
    from stabsim.configs import random_config
    from stabsim.graphs import path_graph
    from stabsim.kgrouping import kgrouping_binding

    samples = []
    for n in (4, 6, 8, 10, 12, 14):
        g = path_graph(n)
        binding = kgrouping_binding(2)
        alg = compose(binding, g)
        root = min(g.vertices)
        for seed in range(3):
            cfg = random_config(g, 2, seed=seed + n)
            trace = run(g, alg, cfg, DaemonPolicy(kind="random", p=0.5, seed=seed),
                        max_steps=300_000)
            assert trace.terminated
            boundaries = set(trace.round_boundaries)
            rounds_seen = 0
            hit = None
            current = trace.initial
            for i, rec in enumerate(trace.steps):
                current = step(current, set(rec.selected), alg, trace.graph)
                if (i + 1) in boundaries:
                    rounds_seen += 1
                if current[root][COLOR] == 0:
                    hit = rounds_seen
                    break
            if hit is None:
                hit = rounds_seen  # silent before ever resetting: also fine
            samples.append((n, n, hit + 1))  # diameter ~ n on a path
    half = sorted(samples)[: len(samples) // 2]
    c = max(m / b for _, b, m in half)
    for _, b, m in sorted(samples)[len(samples) // 2:]:
        assert m <= 2 * max(c, 1.0) * b, (samples, c)


# ---------------------------------------------------------------------------
# owner preconditions (`when`) of the wave actions

def reference_guards(binding):
    """Differential oracle: the guards of L2-L16 written out in full, each
    testing the owner's own color, mode and reset flag in its body, as
    before the wave actions declared those tests once, in `when`.  Keep
    this copy as it is: the tests below hold the actions to it."""

    def wave_ok(ev, parent_color, child_color):
        p = parent(ev)
        if p is not BOT and ev.cfg[p][COLOR] != parent_color:
            return False
        return all(ev.cfg[u][COLOR] == child_color for u in children(ev))

    def in_base_off4(ev):
        s = ev.store
        return s[MODE] == MODE_BASE and s[COLOR] != 4

    def done_below(ev, mode):
        s = ev.store
        if s[COLOR] != 3 or s[MODE] != mode:
            return False
        return not any(ev.cfg[u][COLOR] == 2 for u in children(ev))

    def color_reset(ev):
        s = ev.store
        if s[COLOR] not in (0, 3, 4) and s[RESET] == 1:
            return {COLOR: 0}
        return None

    def restart_below(colors, updates):
        def evaluate(ev):
            if ev.store[COLOR] not in colors:
                return None
            p = parent(ev)
            if p is not BOT and ev.cfg[p][COLOR] == 0:
                return dict(updates)
            return None

        return evaluate

    def error_to_init(ev):
        if not in_base_off4(ev):
            return None
        if any(ev.cfg[u][COLOR] == 4 for u in ev.nbr_ids):
            return None
        if ev.cached(binding.error_check):
            return {MODE: MODE_INIT, RESET: 1}
        return None

    def follow_to_init(ev):
        if not in_base_off4(ev):
            return None
        if any(ev.cfg[u][MODE] == MODE_INIT for u in ev.nbr_ids):
            return {MODE: MODE_INIT, RESET: 1}
        return None

    def run_module(alg, mode):
        def evaluate(ev):
            for u in (ev.pid, *ev.nbr_ids):
                s = ev.cfg[u]
                if s[MODE] != mode or s[COLOR] == 4:
                    return None
            for action in alg.actions:
                updates = ev.cached(action)
                if updates is not None:
                    return {**updates, RESET: 1}
            return None

        return evaluate

    def illegal(ev):
        cl = ev.store[COLOR]
        for u in children(ev):
            if (cl, ev.cfg[u][COLOR]) in ILLEGAL_PAIRS:
                return {COLOR: 0, RESET: 1}
        return None

    def propagate_reset(ev):
        if ev.store[RESET] != 0:
            return None
        if any(ev.cfg[u][RESET] == 1 for u in children(ev)):
            return {RESET: 1}
        return None

    def del_reset(ev):
        if ev.store[RESET] != 1:
            return None
        p = parent(ev)
        if p is not BOT and ev.cfg[p][RESET] != 1:
            return None
        if any(ev.cfg[u][RESET] != 0 for u in children(ev)):
            return None
        return {RESET: 0}

    def down(ev):
        s = ev.store
        cl = s[COLOR]
        if cl in (0, 2) and s[RESET] == 0 and wave_ok(ev, cl + 1, cl):
            return {COLOR: cl + 1}
        return None

    def to2(ev):
        if ev.store[COLOR] == 1 and wave_ok(ev, 1, 2):
            return {COLOR: 2}
        return None

    def to4_base(ev):
        if not done_below(ev, MODE_BASE):
            return None
        in_sync = _copies_match(binding, ev.store)
        if in_sync and not any(ev.cfg[u][COLOR] == 4 for u in ev.nbr_ids):
            return None
        updates = _copy_updates(binding, ev.store)
        updates[COLOR] = 4
        return updates

    def to4_init(ev):
        if not done_below(ev, MODE_INIT):
            return None
        return {COLOR: 4, MODE: MODE_BASE}

    def to0(ev):
        if ev.store[COLOR] != 4 or not wave_ok(ev, 4, 0):
            return None
        if any(ev.cfg[u][COLOR] not in (0, 4) for u in ev.nbr_ids):
            return None
        return {COLOR: 0}

    return {
        "L2": color_reset,
        "L3": restart_below((1, 2), {COLOR: 0}),
        "L4": restart_below((3, 4), {COLOR: 0, RESET: 1}),
        "L5": error_to_init,
        "L6": follow_to_init,
        "L7": run_module(binding.base, MODE_BASE),
        "L8": run_module(binding.init, MODE_INIT),
        "L9": illegal,
        "L10": propagate_reset,
        "L11": del_reset,
        "L12": down,
        "L13": to2,
        "L14": to4_base,
        "L15": to4_init,
        "L16": to0,
    }


OWNER_STATES = [(c, m, r) for c in range(5) for m in (MODE_BASE, MODE_INIT) for r in (0, 1)]


def assert_wave_matches_reference(alg, reference, cfg, graph, evaluate=None):
    # At every process of cfg: where `when` holds, the action's evaluate
    # equals the full guard; where it fails, the full guard is disabled.
    # `evaluate(v)` gives the Evals the actions are asked through; the
    # reference always asks plain Evals.
    plain = {ev.pid: ev for ev in plain_evals(cfg, graph)}
    evals = plain_evals(cfg, graph) if evaluate is None else map(evaluate, graph.vertices)
    for ev in evals:
        for action in alg.actions[1:]:
            expected = reference[action.label](plain[ev.pid])
            if action.admits(ev.store):
                assert action.evaluate(ev) == expected, (action.label, ev.pid)
            else:
                assert expected is None, (action.label, ev.pid, ev.store)


@pytest.mark.parametrize("graph, k", [(grid_graph(3, 3), 2),
                                      (random_connected_graph(10, 0.3, 0), 3)],
                         ids=["grid3x3-k2", "gnp10-k3"])
def test_when_and_body_equal_the_full_guards_in_every_owner_state(graph, k):
    binding = kgrouping_binding(k)
    alg = compose(binding, graph)
    reference = reference_guards(binding)
    assert {a.label for a in alg.actions[1:]} == reference.keys()
    for seed in range(2):
        cfg = random_config(graph, k, seed=seed)
        for v in graph.vertices:
            for cl, mode, reset in OWNER_STATES:
                one = dict(cfg)
                one[v] = {**cfg[v], COLOR: cl, MODE: mode, RESET: reset}
                assert_wave_matches_reference(alg, reference, one, graph)


@pytest.mark.parametrize("daemon", [DaemonPolicy(kind="random", p=0.5, seed=4),
                                    DaemonPolicy(kind="synchronous"),
                                    DaemonPolicy(kind="central", seed=4)],
                         ids=["random", "synchronous", "central"])
def test_when_and_body_equal_the_full_guards_along_runs(daemon):
    # Every configuration of a run, each step's asked through the run's own
    # caches and the last one through plain Evals.  The run's RunCaches are
    # those of the first Eval its L1 is asked through.  Asking at a step's
    # pre-step configuration, before the step is applied, only adds or
    # patches entries valid there, which the step's changes then reach like
    # those of the guard scans.
    g, k = grid_graph(3, 3), 2
    binding = kgrouping_binding(k)
    alg = compose(binding, g)
    reference = reference_guards(binding)
    tree, run_caches = alg.actions[0], []

    def capturing(ev):
        if not run_caches:
            run_caches.append(ev.caches)
        return tree.evaluate(ev)

    alg = dataclasses.replace(alg, actions=(
        dataclasses.replace(tree, evaluate=capturing), *alg.actions[1:]))

    def observe(event):
        def evaluate(v):
            return Eval(event.pre_cfg, v, g.neighbors_of(v), run_caches[0])

        assert_wave_matches_reference(alg, reference, event.pre_cfg, g, evaluate)

    trace = run(g, alg, random_config(g, k, seed=1), daemon, max_steps=100_000,
                observers=(observe,))
    assert trace.terminated and alg.actions[0] in run_caches[0].results
    assert_wave_matches_reference(alg, reference, trace.final, g)


def test_run_asks_no_wave_action_its_when_rules_out():
    # A copy of the composed table with counting evaluates, made with
    # dataclasses.replace after the original has run (as perfbench's tracer
    # copies it): the copy dispatches to its own evaluates, asks none at a
    # process whose owner state fails its `when`, and runs the same trace.
    g, k = grid_graph(4, 4), 2
    alg = compose(kgrouping_binding(k), g)
    cfg0 = random_config(g, k, seed=3)
    daemon = DaemonPolicy(kind="random", p=0.5, seed=3)
    original = run(g, alg, cfg0, daemon, max_steps=200_000)
    assert original.terminated
    calls, ruled_out = Counter(), []

    def counting(action):
        def evaluate(ev):
            calls[action.label] += 1
            if not action.admits(ev.store):
                ruled_out.append((action.label, ev.pid))
            return action.evaluate(ev)

        return evaluate

    copy = dataclasses.replace(alg, actions=tuple(
        dataclasses.replace(a, evaluate=counting(a)) for a in alg.actions))
    counted = run(g, copy, cfg0, daemon, max_steps=200_000)
    assert not ruled_out
    assert all(calls[a.label] for a in alg.actions)
    assert counted.steps == original.steps and counted.final == original.final

    def fires(trace):
        return Counter(label for rec in trace.steps for label in rec.fired.values())

    assert fires(counted) == fires(original)
