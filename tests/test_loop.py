import random

import pytest

from stabsim.bfs import LEVEL, PARENT, ROOT
from stabsim.graphs import make_graph, path_graph, random_connected_graph
from stabsim.loop import (
    COLOR,
    ILLEGAL_PAIRS,
    MODE,
    MODE_BASE,
    MODE_INIT,
    RESET,
    BaseAlgorithmBinding,
    CompositionError,
    check_Cfin,
    check_Cgoal,
    compose,
    copy_shift,
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
            if ev.nbr(u)["m"] < best:
                best = ev.nbr(u)["m"]
        return {"m": best} if best != ev.store["m"] else None

    return AlgorithmSpec(
        "minflood",
        (Action("F1", evaluate, frozenset(("m", "in_m")), frozenset(("m",))),),
    )


def empty_init():
    return AlgorithmSpec("noinit", ())


def toy_binding():
    return BaseAlgorithmBinding(
        base=min_flood_base(),
        init=empty_init(),
        error=lambda ev: False,
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


def test_binding_validation():
    # Write sets come from the actions: the base writes m (see F1).
    with pytest.raises(CompositionError):
        BaseAlgorithmBinding(
            base=min_flood_base(), init=empty_init(), error=lambda ev: False,
            outputs=(("m", "m"),),
        ).validate()
    init_writing_m = AlgorithmSpec(
        "init_m", (Action("P1", lambda ev: None, writes=frozenset(("m",))),)
    )
    with pytest.raises(CompositionError):
        BaseAlgorithmBinding(
            base=min_flood_base(), init=init_writing_m, error=lambda ev: False,
            outputs=(("m", "in_m"),),
        ).validate()
    with pytest.raises(CompositionError):
        BaseAlgorithmBinding(
            base=min_flood_base(), init=empty_init(), error=lambda ev: False,
            outputs=(("q", "in_q"),),
        ).validate()


def test_binding_output_and_copy_kinds_must_agree():
    scalar, array = Var("m", "scalar", ID), Var("in_m", "array", ID)
    with pytest.raises(CompositionError):
        BaseAlgorithmBinding(
            base=min_flood_base(), init=empty_init(), error=lambda ev: False,
            outputs=(("m", "in_m"),), variables=(scalar, array),
        ).validate()


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
    assert check_Cgoal(cfg, binding, p3)
    assert check_Cfin(cfg, binding, p3)
    cfg[2][COLOR] = 2
    assert check_Cgoal(cfg, binding, p3)
    assert not check_Cfin(cfg, binding, p3)
    cfg[2]["in_m"] = 99  # breaks the copy fixed point
    assert not check_Cgoal(cfg, binding, p3)


def test_generic_loop_runs_toy_base_to_fixed_point():
    g = path_graph(6)
    alg = compose(toy_binding(), g)
    values = {1: 9, 2: 4, 3: 8, 4: 3, 5: 7, 6: 5}
    cfg = toy_cfg(g, values)
    trace = run(g, alg, cfg, DaemonPolicy(kind="random", p=0.5, seed=11),
                max_steps=200_000)
    assert trace.terminated
    assert check_Cfin(trace.final, toy_binding(), g)
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
        assert check_Cfin(trace.final, binding, g)
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
