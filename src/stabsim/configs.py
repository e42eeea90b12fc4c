"""Initial configurations: zeroed, uniformly random, or loaded from file.

The variables that bfs, loop and kgrouping declare (`VARS`, see
`runtime.Var`) are the whole state space.  Random generation draws every
variable uniformly from its declared range, with identifier-valued slots
drawn from a pool that mixes in false identifiers (ids matching no process,
including ids below the real minimum, which stress root election).  The
same declarations drive mid-run corruption, the validation of adversarial
configuration files and the zeroed configuration.

Draw stream: a seed fixes every generated configuration, and the recorded
traces and digests depend on it.  Each array entry and scalar takes the same
value that `random.Random.randrange` would draw at that point of the stream,
and leaves the generator in the same state.  `_draw` gets it through
`getrandbits` directly, as `randrange` does on CPython 3.10-3.13:
`getrandbits(top.bit_length())` until the result is below `top`
(tests/test_configs.py checks this draw for draw).  Each domain keeps each
identifier of the pool on one `rng.random() < 0.5`.
"""

from __future__ import annotations

import random
from typing import Sequence

from . import bfs, kgrouping, loop
from .graphs import MAX_ID, Graph
from .runtime import BOT, ID, NEIGHBOR, Configuration, Var

MODEL = bfs.VARS + loop.VARS + kgrouping.VARS
# The one set variable: its identifiers key every array.
_DOMAIN = next(var.name for var in MODEL if var.kind == "set")
_JSON_SHAPE = {"set": list, "array": dict}


class ConfigError(ValueError):
    pass


def false_ids(graph: Graph, count: int) -> tuple[int, ...]:
    """The `count` smallest identifiers that match no process."""
    if count > MAX_ID + 1 - graph.n:
        raise ConfigError(f"{count} false identifiers: only {MAX_ID + 1 - graph.n}"
                          " identifiers match no process")
    out = []
    candidate = 0
    while len(out) < count:
        if candidate not in graph.vertices:
            out.append(candidate)
        candidate += 1
    return tuple(out)


def _is_id(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and 0 <= value <= MAX_ID


def _values(var: Var, graph: Graph, k: int, pool: tuple, pid: int) -> Sequence:
    """The values of `var` at process pid in draw order, BOT left out (see
    _draw): the declared sequence itself, never copied, so a range sized by
    k costs the same for any k."""
    if var.values == ID:
        return pool
    if var.values == NEIGHBOR:
        return graph.neighbors_of(pid)
    return var.values(graph.n, k)


def _in_range(var: Var, value, values: Sequence) -> bool:
    if value is BOT:
        return var.bot
    if var.values == ID:
        return _is_id(value)  # any identifier is storable, false ones included
    return value in values and type(value) is type(values[0])


def _draw(rng: random.Random, var: Var, values: Sequence, store: dict):
    """A value of `var`: a domain set, an array keyed by the owner's domain
    in sorted order, or a scalar (drawn as an array of one entry).  Each
    entry runs `randrange(top)`'s own loop inline, one call into C per draw
    instead of three Python frames around it."""
    if var.kind == "set":
        flip = rng.random
        return frozenset([x for x in values if flip() < 0.5])
    n = len(values)
    top = n + var.bot  # BOT, when in range, is drawn as one more value
    array = var.kind == "array"
    keys = sorted(store.get(_DOMAIN) or ()) if array else (None,)  # a scalar: one entry
    if keys and not top:
        raise ValueError("empty range for randrange()")
    getrandbits = rng.getrandbits
    bits = top.bit_length()
    out = {}
    for u in keys:
        i = getrandbits(bits)
        while i >= top:
            i = getrandbits(bits)
        out[u] = values[i] if i < n else BOT
    return out if array else out[None]


def _fresh(var: Var, graph: Graph, k: int, pid: int):
    if var.kind == "set":
        return frozenset()
    if var.kind == "array":
        return {}
    if var.values == ID:
        return pid
    return BOT if var.bot else var.values(graph.n, k)[0]


def _pool(graph: Graph, n_false: int) -> tuple[int, ...]:
    return tuple(sorted(graph.vertices)) + false_ids(graph, n_false)


def zeroed_config(graph: Graph, k: int) -> Configuration:
    """Clean but not legitimate: the initializer has to do all the work."""
    kgrouping.check_k(k)
    return {
        v: {var.name: _fresh(var, graph, k, v) for var in MODEL}
        for v in graph.vertices
    }


def random_config(graph: Graph, k: int, seed: int, n_false: int = 3) -> Configuration:
    """Uniformly random configuration, false identifiers included."""
    kgrouping.check_k(k)
    rng = random.Random(seed)
    pool = _pool(graph, n_false)
    cfg = {}
    for v in sorted(graph.vertices):
        store = {}
        for var in MODEL:
            store[var.name] = _draw(rng, var, _values(var, graph, k, pool, v), store)
        cfg[v] = store
    return cfg


def corrupt_config(
    cfg: Configuration,
    graph: Graph,
    k: int,
    variables: tuple[str, ...],
    count: int,
    seed: int,
    n_false: int = 3,
) -> Configuration:
    """Re-randomize `count` (process, variable) slots among the named variables."""
    rng = random.Random(seed)
    pool = _pool(graph, n_false)
    index = {var.name: var for var in MODEL}
    unknown = [name for name in variables if name not in index]
    if unknown:
        raise ConfigError(f"unknown variables: {unknown}")
    slots = [(v, name) for v in sorted(graph.vertices) for name in variables]
    rng.shuffle(slots)
    out = {v: dict(store) for v, store in cfg.items()}
    for v, name in slots[: max(0, count)]:
        var = index[name]
        out[v][name] = _draw(rng, var, _values(var, graph, k, pool, v), out[v])
    return out


# ---------------------------------------------------------------------------
# serialization

def config_to_json(cfg: Configuration) -> dict:
    payload = {}
    for v in sorted(cfg):
        store = cfg[v]
        entry = {}
        for name in sorted(store):
            value = store[name]
            if isinstance(value, frozenset):
                entry[name] = sorted(value)
            elif isinstance(value, dict):
                entry[name] = {str(u): value[u] for u in sorted(value)}
            else:
                entry[name] = value
        payload[str(v)] = entry
    return payload


def _id_key(key, where: str) -> int:
    """The identifier a JSON object key names.  Only its decimal text, as
    config_to_json writes it, is accepted, so no two keys of one object
    ("1" and "01") name the same identifier."""
    try:
        u = int(key)
    except (TypeError, ValueError):
        u = None
    if u is None or not isinstance(key, str) or str(u) != key:
        raise ConfigError(f"{where}: key {key!r} is not a decimal identifier")
    return u


def config_from_json(payload: dict, graph: Graph, k: int) -> Configuration:
    if not isinstance(payload, dict):
        raise ConfigError("configuration must be a JSON object")
    items = {_id_key(v, "configuration"): store for v, store in payload.items()}
    if set(items) != set(graph.vertices):
        raise ConfigError("configuration does not cover the vertex set")
    cfg = {}
    for v, raw in items.items():
        if not isinstance(raw, dict):
            raise ConfigError(f"process {v}: expected an object of variables")
        store = {}
        for var in MODEL:
            if var.name not in raw:
                raise ConfigError(f"process {v}: missing variable {var.name}")
            value = raw[var.name]
            shape = _JSON_SHAPE.get(var.kind)
            if shape is not None and not isinstance(value, shape):
                raise ConfigError(f"{v}.{var.name}: {value!r} is not a {var.kind}")
            try:
                if var.kind == "set":
                    value = frozenset(value)
                elif var.kind == "array":
                    value = {_id_key(u, f"{v}.{var.name}"): x for u, x in value.items()}
            except TypeError as exc:
                raise ConfigError(f"{v}.{var.name}: {exc}") from exc
            store[var.name] = value
        cfg[v] = store
    problems = validate_config(cfg, graph, k)
    if problems:
        raise ConfigError("; ".join(problems[:5]))
    return cfg


def validate_config(cfg: Configuration, graph: Graph, k: int) -> list[str]:
    """Range-check every slot; returns readable findings."""
    problems = []
    for v, store in cfg.items():
        for var in MODEL:
            name, value = var.name, store.get(var.name, BOT)
            values = _values(var, graph, k, (), v)
            if var.kind == "array":
                if not isinstance(value, dict):
                    problems.append(f"{v}.{name}: expected array")
                    continue
                for u, x in value.items():
                    if not _is_id(u):
                        problems.append(f"{v}.{name}[{u}]: bad key")
                    elif not _in_range(var, x, values):
                        problems.append(f"{v}.{name}[{u}]: {x!r} out of range")
            elif var.kind == "set":
                if not isinstance(value, frozenset) or not all(
                    _in_range(var, u, values) for u in value
                ):
                    problems.append(f"{v}.{name}: {value!r} out of range")
            elif not _in_range(var, value, values):
                problems.append(f"{v}.{name}: {value!r} out of range")
    return problems


def stored_keys(cfg: Configuration) -> dict[int, int]:
    """Per-process count of stored array keys plus domain size (memory proxy)."""
    out = {}
    for v, store in cfg.items():
        total = len(store.get(_DOMAIN) or ())
        for name, value in store.items():
            if isinstance(value, dict):
                total += len(value)
        out[v] = total
    return out
