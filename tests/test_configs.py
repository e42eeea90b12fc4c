import hashlib
import json
import random
import re

import pytest

from stabsim.bfs import PARENT
from stabsim.configs import (
    MODEL,
    ConfigError,
    _draw,
    config_from_json,
    config_to_json,
    corrupt_config,
    false_ids,
    random_config,
    stored_keys,
    validate_config,
    zeroed_config,
)
from stabsim.graphs import MAX_ID, grid_graph, path_graph, random_connected_graph
from stabsim.kgrouping import DIST, DOMAIN, GROUP
from stabsim.runtime import BOT, Var


def test_false_ids_avoid_real_ones(p5):
    ids = false_ids(p5, 4)
    assert len(ids) == 4
    assert not set(ids) & set(p5.vertices)
    assert 0 in ids  # below the real minimum, stressing root election


def test_zeroed_config_shape(p5):
    cfg = zeroed_config(p5, 2)
    assert set(cfg) == set(p5.vertices)
    assert cfg[3][DOMAIN] == frozenset()
    assert cfg[3][GROUP] == 3
    assert validate_config(cfg, p5, 2) == []


def test_random_config_in_range_and_deterministic(p5):
    c1 = random_config(p5, 2, seed=5)
    c2 = random_config(p5, 2, seed=5)
    assert c1 == c2
    assert validate_config(c1, p5, 2) == []
    assert c1 != random_config(p5, 2, seed=6)
    # arrays are keyed by the sampled domain
    for v in p5.vertices:
        assert set(c1[v][DIST]) == set(c1[v][DOMAIN])


def test_random_config_contains_false_ids_somewhere(p5):
    hit = False
    fakes = set(false_ids(p5, 3))
    for seed in range(5):
        cfg = random_config(p5, 2, seed=seed)
        if any(fakes & cfg[v][DOMAIN] for v in p5.vertices):
            hit = True
    assert hit


def test_config_json_roundtrip(p5):
    cfg = random_config(p5, 2, seed=9)
    payload = json.loads(json.dumps(config_to_json(cfg)))
    back = config_from_json(payload, p5, 2)
    assert back == cfg


def test_config_from_json_rejects_bad_input(p5):
    cfg = random_config(p5, 2, seed=9)
    payload = config_to_json(cfg)
    payload.pop("1")
    with pytest.raises(ConfigError):
        config_from_json(payload, p5, 2)
    payload = config_to_json(cfg)
    payload["1"]["color"] = 7
    with pytest.raises(ConfigError):
        config_from_json(payload, p5, 2)
    payload = config_to_json(cfg)
    payload["1"][PARENT] = 4  # not a neighbor of 1
    with pytest.raises(ConfigError):
        config_from_json(payload, p5, 2)
    # wrong container shapes, and bools where ints belong and vice versa
    for name, value in (
        (DIST, [1, 2]),
        (DOMAIN, 5),
        (DOMAIN, [[1]]),
        (DIST, {"one": 1}),
        ("color", True),
        ("reset", False),
        (DIST, {"1": True}),
        ("stamp_on", {"1": 1}),
        (PARENT, True),
        ("level", p5.n + 2),  # levels range over 0..n+1
    ):
        payload = config_to_json(cfg)
        payload["1"][name] = value
        with pytest.raises(ConfigError):
            config_from_json(payload, p5, 2)
    for payload in ([], {"1": 5}):
        with pytest.raises(ConfigError):
            config_from_json(payload, p5, 2)
    # keys are decimal identifiers, as config_to_json writes them: no two
    # keys may name one identifier
    for key in ("01", " 1", "+1", "1_0"):
        payload = config_to_json(cfg)
        payload[key] = payload["1"]
        with pytest.raises(ConfigError, match=re.escape(f"key {key!r}")):
            config_from_json(payload, p5, 2)
        payload = config_to_json(cfg)
        dist = payload["1"][DIST]
        dist[key] = dist[next(iter(dist))]
        with pytest.raises(ConfigError, match=re.escape(f"1.{DIST}: key {key!r}")):
            config_from_json(payload, p5, 2)


def test_corruption_touches_requested_count(p5):
    cfg = zeroed_config(p5, 2)
    out = corrupt_config(cfg, p5, 2, ("color", "mode", "reset"), count=6, seed=3)
    assert validate_config(out, p5, 2) == []
    diffs = sum(
        1
        for v in p5.vertices
        for name in ("color", "mode", "reset")
        if out[v][name] != cfg[v][name]
    )
    assert 0 < diffs <= 6
    assert corrupt_config(cfg, p5, 2, ("color",), count=0, seed=3) == cfg


def test_corruption_rejects_unknown_variable(p5):
    with pytest.raises(ConfigError):
        corrupt_config(zeroed_config(p5, 2), p5, 2, ("nope",), 1, 0)


def test_memory_proxy_counts(p5):
    cfg = random_config(p5, 2, seed=1)
    keys = stored_keys(cfg)
    n_slots = p5.n * len(MODEL)
    assert n_slots == p5.n * 31
    # every array is keyed by the domain: 20 arrays + the domain itself
    for v, count in keys.items():
        assert count == 21 * len(cfg[v][DOMAIN])


def _config_digest(cfg):
    text = json.dumps(config_to_json(cfg), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# Generated configurations are part of every recorded trace: the same seed
# must keep drawing the same values in the same order.
PINNED_RANDOM = {
    ("path5", 0): "90ea0c6189b965c16ed9f6760091f2ff014cd72ac1a1e6c48e15b8be037ae021",
    ("path5", 3): "e328d193b3e8438c36b0f0f581ef7a145b8b4c4795220e16a9e4338a186aa2b3",
    ("grid3x3", 0): "24d5d71fe63872c51883115ed6a04243587ae6829c2084e3c0ebfcb838adf0e2",
    ("grid3x3", 3): "23cb5c2aeabc15d71cec891918b34d9cb66829dacca3392f4c3202cbf409bd54",
    ("gnp12", 0): "4496653ca7da2e071bc273eaec7cc39d535efdd0929d6558448258083ee794bc",
    ("gnp12", 3): "b4e651109bbb5b822b16883ead3a95bfa3a7cc23dd6672120353776e5858885d",
}


@pytest.mark.parametrize("name,n_false", sorted(PINNED_RANDOM))
def test_random_config_digest_pinned(name, n_false):
    graph, k = {
        "path5": (path_graph(5), 2),
        "grid3x3": (grid_graph(3, 3), 3),
        "gnp12": (random_connected_graph(12, 0.3, 4), 1),
    }[name]
    cfg = random_config(graph, k, seed=11, n_false=n_false)
    assert _config_digest(cfg) == PINNED_RANDOM[(name, n_false)]


def test_zeroed_and_corrupted_config_digests_pinned():
    g = grid_graph(3, 3)
    assert _config_digest(zeroed_config(g, 3)) == (
        "61f046b2273dd90b351672a4718e0475d54ab70bfdf26263b11e071bae0fbfe1")
    names = ("level", "parent", "color", "mode", "domain", "height", "group",
             "dist", "border", "prior")  # every layer: tree, wave, payload
    out = corrupt_config(random_config(g, 3, seed=5), g, 3, names, 20, 7)
    assert _config_digest(out) == (
        "6355f1a5fb205bfcace61b17e394fab78e3c0c9a2beed361db1dcbb25a444819")


def test_value_ranges_of_the_largest_k_are_read_without_being_built():
    # The distance ranges are 0..2k: sampling, corrupting and validating
    # read them through their declared sequence, never as a tuple.
    g = path_graph(3)
    cfg = random_config(g, MAX_ID, seed=1)
    assert validate_config(cfg, g, MAX_ID) == []
    out = corrupt_config(cfg, g, MAX_ID, (DIST, "height"), 6, seed=2)
    assert validate_config(out, g, MAX_ID) == []
    with pytest.raises(ValueError, match="diameter bound k must be an integer in 1.."):
        random_config(g, MAX_ID + 1, seed=1)


def test_false_identifiers_fit_the_identifier_space():
    g = path_graph(3)
    assert len(false_ids(g, 5)) == 5
    with pytest.raises(ConfigError, match="only 4294967293 identifiers match no process"):
        random_config(g, 1, seed=1, n_false=MAX_ID - 1)


# _draw runs randrange's loop inline; every pinned digest above rests on it
# drawing what randrange draws.  1..130 covers each power of two up to 128
# and its neighbors, where getrandbits's width changes.
def _draws(rng, kind, top, bot, count=40):
    """`count` array entries (or one scalar) over `top` indices, BOT last."""
    var = Var("x", kind, None, bot)
    drawn = _draw(rng, var, range(top - bot), {DOMAIN: frozenset(range(count))})
    return [drawn[u] for u in range(count)] if kind == "array" else [drawn]


@pytest.mark.parametrize("seed", (0, 1, 11, 12345))
def test_draws_equal_randrange_draw_for_draw(seed):
    rng, ref = random.Random(seed), random.Random(seed)
    for top in range(1, 131):
        for kind, count in (("array", 40), ("scalar", 1)):
            for bot in (False, True):
                want = [ref.randrange(top) for _ in range(count)]
                if bot:
                    want = [BOT if i == top - 1 else i for i in want]
                assert _draws(rng, kind, top, bot, count) == want, (top, kind, bot)
    assert rng.getstate() == ref.getstate()


def test_draw_over_an_empty_range_raises_like_randrange():
    with pytest.raises(ValueError):
        random.Random(0).randrange(0)
    for kind in ("array", "scalar"):
        with pytest.raises(ValueError):
            _draws(random.Random(0), kind, 0, False)
    # no entry to draw, no draw
    assert _draw(random.Random(0), Var("x", "array", None), (), {DOMAIN: frozenset()}) == {}
