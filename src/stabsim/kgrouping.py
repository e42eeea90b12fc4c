"""Diameter-bounded grouping payload: initial partition, pairwise merging,
and the local error predicate that guards both.

Each process keeps a `domain` of identifiers (its (k+1)-ball once stable) and
arrays keyed by that domain.  The initializer carves the spanning tree into
bands of height k/2; the merge phase repeatedly picks a target group, measures
the union's diameter by distributed relaxation, and either merges with the
target or lays down a stamp certifying a witnessed distance k+1.  Stamps keep
already-refuted pairs out of later rounds until one side merges away.

Array assignments follow the shared convention: the action is enabled when
some domain key disagrees with the computed value, the statement rewrites all
domain keys at once, results outside the declared range store as BOT, and
keys that left the domain are dropped on write.  Each declares its row on
its action (runtime.Keyed), computed one pass per array by row forms that
agree with the per-key macros share/min_macro/distance_macro, which are kept
as test oracles.  README's rule table lists every action's declarations.
The ground-truth group relations (`near`, `mergeable`) are the oracle's.
"""

from __future__ import annotations

from functools import wraps
from types import MappingProxyType

from .bfs import PARENT, children, parent
from .graphs import MAX_ID, Graph
from .loop import BaseAlgorithmBinding
from .runtime import (
    BOT,
    ID,
    Action,
    AlgorithmSpec,
    Configuration,
    Eval,
    Keyed,
    Var,
    bot_inc,
    bot_min,
)

DOMAIN = "domain"
DIST = "dist"
HEIGHT = "height"
INIT_GROUP = "init_group"
GROUP = "group"

BORDER = "border"
FAR = "far"
TARGET = "target"
MERGE_DIST = "merge_dist"
STAMP1 = "stamp1"
STAMP_DIST = "stamp_dist"
STAMP2 = "stamp2"
GROUP_OF = "group_of"
GROUP_DIST = "group_dist"
MERGING = "merging"
STAMP_ON = "stamp_on"
PRIOR = "prior"

IN_GROUP = "in_group"
IN_GROUP_OF = "in_group_of"
IN_GROUP_DIST = "in_group_dist"
IN_STAMP_ON = "in_stamp_on"
IN_PRIOR = "in_prior"
IN_STAMP1 = "in_stamp1"
IN_STAMP2 = "in_stamp2"
IN_STAMP_DIST = "in_stamp_dist"

# (output, copy) pairs shifted between consecutive merge executions.
COPY_PAIRS = (
    (GROUP, IN_GROUP),
    (GROUP_OF, IN_GROUP_OF),
    (GROUP_DIST, IN_GROUP_DIST),
    (STAMP_ON, IN_STAMP_ON),
    (PRIOR, IN_PRIOR),
    (STAMP1, IN_STAMP1),
    (STAMP2, IN_STAMP2),
    (STAMP_DIST, IN_STAMP_DIST),
)

# Distances count hops within 2k; BOT marks an entry not (yet) known.
VARS = (
    Var(DOMAIN, "set", ID),
    Var(HEIGHT, "scalar", lambda n, k: range(k // 2 + 1)),
    Var(INIT_GROUP, "scalar", ID),
    Var(GROUP, "scalar", ID),
    Var(IN_GROUP, "scalar", ID),
    *(Var(name, "array", lambda n, k: range(2 * k + 1), bot=True)
      for name in (DIST, GROUP_DIST, MERGE_DIST, STAMP_DIST, IN_GROUP_DIST,
                   IN_STAMP_DIST)),
    *(Var(name, "array", ID, bot=True)
      for name in (BORDER, FAR, TARGET, STAMP1, STAMP2, GROUP_OF, IN_GROUP_OF,
                   IN_STAMP1, IN_STAMP2)),
    *(Var(name, "array", lambda n, k: (False, True))
      for name in (MERGING, STAMP_ON, PRIOR, IN_STAMP_ON, IN_PRIOR)),
)


def check_k(k: int) -> int:
    # A diameter among 32-bit identifiers is at most MAX_ID, and the
    # distance ranges (0..2k) must stay sized in machine integers.
    if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= MAX_ID:
        raise ValueError(f"diameter bound k must be an integer in 1..{MAX_ID}, got {k!r}")
    return k


def _clamp_dist(x, k):
    if x is BOT or 0 <= x <= 2 * k:
        return x
    return BOT


# ---------------------------------------------------------------------------
# local views (memoized per evaluation)

_EMPTY: dict = {}


def _per_eval(fn):
    """Memoize fn(ev, ...) in ev.memo, keyed by fn: computed at most once per
    evaluation, BOT and False results included.  Extra arguments such as k
    are fixed for a run and are not part of the key."""
    @wraps(fn)
    def memoized(ev: Eval, *args):
        memo = ev.memo
        if fn in memo:
            return memo[fn]
        value = memo[fn] = fn(ev, *args)
        return value

    return memoized


def _entry(store, name: str, u):
    """Array read honoring the variable's domain of definition: entries for
    identifiers outside the owner's current domain do not exist, even if a
    stale physical key is still waiting to be overwritten."""
    dom = store.get(DOMAIN)
    if not dom or u not in dom:
        return BOT
    arr = store.get(name)
    if not arr:
        return BOT
    return arr.get(u, BOT)


def _lv(ev: Eval):
    return ev.store.get(IN_GROUP, BOT)


@_per_eval
def _all_nbrs(ev: Eval):
    cfg = ev.cfg
    return tuple((u, cfg[u]) for u in ev.nbr_ids)


@_per_eval
def _nbrs_by_group(ev: Eval) -> dict:
    by_group = {}
    for u, s in _all_nbrs(ev):
        by_group.setdefault(s.get(IN_GROUP, BOT), []).append((u, s))
    return by_group


def nbrs_in_group(ev: Eval, gid):
    """N_v(gid): neighbors whose shifted group value is gid."""
    if gid is BOT:
        return ()
    return _nbrs_by_group(ev).get(gid, ())


def same_group_nbrs(ev: Eval):
    """S_v: neighbors in our own (shifted) group."""
    return nbrs_in_group(ev, _lv(ev))


@_per_eval
def _members_by_group(ev: Eval) -> dict:
    members = {}
    arr = ev.store.get(IN_GROUP_OF) or _EMPTY
    for w in ev.store.get(DOMAIN) or ():
        members.setdefault(arr.get(w, BOT), []).append(w)
    return members


def members_of(ev: Eval, gid):
    """g_v(gid): domain identifiers the shifted group map assigns to gid."""
    if gid is BOT:
        return ()
    return _members_by_group(ev).get(gid, ())


# ---------------------------------------------------------------------------
# the three propagation macros (reference, per-key form)

def share(ev: Eval, u, x_name: str, own_value):
    """Pull the value published by process u along the dist[u] gradient.

    At v = u the value is the local one; elsewhere it is the minimum over
    neighbors one hop closer to u.  An empty candidate set yields BOT.
    Test oracle for `_share_row`; the action tables never call it.
    """
    if u == ev.pid:
        return own_value
    vd = _entry(ev.store, DIST, u)
    if vd is BOT:
        return BOT
    best = BOT
    for w, ws in _all_nbrs(ev):
        wd = _entry(ws, DIST, u)
        if wd is BOT or vd != wd + 1:
            continue
        val = _entry(ws, x_name, u)
        if val is BOT:
            continue
        if best is BOT or val < best:
            best = val
    return best


def min_macro(ev: Eval, x_name: str, key, q_holds: bool):
    """Group-wide minimum of the identifiers satisfying the local predicate.

    Candidate values flow between same-group neighbors only along a strict
    group-distance gradient toward the candidate, so spurious identifiers
    cannot sustain themselves.  Test oracle for `_min_row`; the action
    tables never call it.
    """
    best = BOT
    own = ev.store
    for w, ws in same_group_nbrs(ev):
        c = _entry(ws, x_name, key)
        if c is BOT:
            continue
        vd = _entry(own, IN_GROUP_DIST, c)
        if vd is BOT:
            continue
        wd = _entry(ws, IN_GROUP_DIST, c)
        if wd is BOT or vd != wd + 1:
            continue
        if best is BOT or c < best:
            best = c
    if q_holds:
        return ev.pid if best is BOT or ev.pid < best else best
    return best


def distance_macro(ev: Eval, u, x_name: str, sources):
    """0 at u itself, else 1 + the minimum of the neighbors' entries for u
    (1 + BOT = BOT, so an empty or all-null source set yields BOT).

    Test oracle for `_distance_row`; the action tables never call it.
    """
    if u == ev.pid:
        return 0
    return bot_inc(bot_min(_entry(ws, x_name, u) for _, ws in sources))


# ---------------------------------------------------------------------------
# row-at-a-time forms used by the action tables

def _domain_keys(ev: Eval, keys):
    """The keys a row form computes: `keys`, or the whole domain for None."""
    return ev.store.get(DOMAIN) or () if keys is None else keys


def _gradient(ev: Eval) -> MappingProxyType:
    """Per domain key u, in domain order, the positions in ev.nbr_ids of the
    neighbors one hop closer to u on dist; None at the owner's own key.
    Read-only, because a dict result reads as an action's updates."""
    pid = ev.pid
    own_dist = ev.store.get(DIST) or _EMPTY
    nbrs = [
        (ws.get(DOMAIN) or frozenset(), ws.get(DIST) or _EMPTY)
        for _, ws in _all_nbrs(ev)
    ]
    rows = {}
    for u in ev.store.get(DOMAIN) or ():
        if u == pid:
            rows[u] = None
            continue
        vd = own_dist.get(u, BOT)
        closer = []
        if vd is not BOT:
            for i, (wdom, wd_dict) in enumerate(nbrs):
                if u in wdom and wd_dict.get(u, BOT) == vd - 1:
                    closer.append(i)
        rows[u] = tuple(closer)
    return MappingProxyType(rows)


# A cached view: the initializer fixes `domain` and `dist` for good, so a
# run computes the gradient once per process per settled ball.
GRADIENT = Action("gradient", _gradient, frozenset((DOMAIN, DIST)))


def _share_row(ev: Eval, x_name: str, own_value, keys=None) -> dict:
    """share() at the domain keys `keys` (all of them for None)."""
    gradient = ev.cached(GRADIENT)
    nbr_x = [ws.get(x_name) or _EMPTY for _, ws in _all_nbrs(ev)]
    row = {}
    pairs = gradient.items() if keys is None else ((u, gradient[u]) for u in keys)
    for u, closer in pairs:
        if closer is None:
            row[u] = own_value
            continue
        best = BOT
        for i in closer:
            val = nbr_x[i].get(u, BOT)
            if val is not BOT and (best is BOT or val < best):
                best = val
        row[u] = best
    return row


def _min_row(ev: Eval, x_name: str, q_keys, keys=None) -> dict:
    """min_macro applied to the domain keys `keys` (all of them for None);
    q_keys holds the keys whose local predicate is true."""
    pid = ev.pid
    own_dom = ev.store.get(DOMAIN) or frozenset()
    own_gd = ev.store.get(IN_GROUP_DIST) or _EMPTY
    hoisted = [
        (ws.get(DOMAIN) or frozenset(), ws.get(x_name) or _EMPTY,
         ws.get(IN_GROUP_DIST) or _EMPTY)
        for _, ws in same_group_nbrs(ev)
    ]
    row = {}
    for u in _domain_keys(ev, keys):
        best = BOT
        for wdom, wx_dict, wgd_dict in hoisted:
            if u not in wdom:
                continue
            c = wx_dict.get(u, BOT)
            if c is BOT or c not in own_dom:
                continue
            vd = own_gd.get(c, BOT)
            if vd is BOT:
                continue
            wd = wgd_dict.get(c, BOT) if c in wdom else BOT
            if wd is BOT or vd != wd + 1:
                continue
            if best is BOT or c < best:
                best = c
        if u in q_keys and (best is BOT or pid < best):
            best = pid
        row[u] = best
    return row


def _distance_row(ev: Eval, x_name: str, sources, keys, k: int) -> dict:
    pid = ev.pid
    hoisted = [
        (ws.get(DOMAIN) or frozenset(), ws.get(x_name) or _EMPTY)
        for _, ws in sources
    ]
    row = {}
    for u in keys:
        if u == pid:
            row[u] = 0
            continue
        best = BOT
        for wdom, wx_dict in hoisted:
            if u not in wdom:
                continue
            d = wx_dict.get(u, BOT)
            if d is not BOT and (best is BOT or d < best):
                best = d
        row[u] = _clamp_dist(bot_inc(best), k)
    return row


# ---------------------------------------------------------------------------
# initializer value functions

@_per_eval
def _dist_mins(ev: Eval) -> dict:
    """Per identifier: the minimum neighbor distance claim among neighbors
    that carry the identifier in their domain."""
    mins = {}
    for _, ws in _all_nbrs(ev):
        wd = ws.get(DIST) or _EMPTY
        for u in ws.get(DOMAIN) or ():
            d = wd.get(u, BOT)
            if d is BOT:
                continue
            cur = mins.get(u)
            if cur is None or d < cur:
                mins[u] = d
    return mins


def _dist_row(ev: Eval, k: int, keys=None) -> dict:
    """I2's row, kept beside `_distance_row` on purpose: I1 and I2 share
    `_dist_mins`.  Moving I2 onto `_distance_row`, with or without I1 read
    as a set over the neighbors' rows, was slower (ROADMAP, "do not
    retry")."""
    mins = _dist_mins(ev)
    pid = ev.pid
    row = {}
    for u in _domain_keys(ev, keys):
        if u == pid:
            row[u] = 0
        else:
            row[u] = _clamp_dist(bot_inc(mins.get(u, BOT)), k)
    return row


def _domain_value(ev: Eval, k: int) -> frozenset:
    result = {ev.pid}
    for u, d in _dist_mins(ev).items():
        if d + 1 <= k + 1:
            result.add(u)
    return frozenset(result)


def _height_value(ev: Eval, k: int) -> int:
    modulus = k // 2 + 1
    return max(((ev.cfg[u].get(HEIGHT, 0) + 1) % modulus for u in children(ev)), default=0)


def _init_group_value(ev: Eval, k: int):
    p = parent(ev)
    if p is BOT or ev.store.get(HEIGHT) == k // 2:
        return ev.pid
    return ev.cfg[p].get(INIT_GROUP, BOT)


# ---------------------------------------------------------------------------
# merge value functions

def _eligible(ev: Eval) -> frozenset:
    """Other groups bordering ours that are not too far to merge with.

    Only identifiers that name a group in our view are eligible: a group id
    belongs to its own group.  Keys naming mere members would otherwise let
    a group elect itself (under a member's id) as its target through stale
    border values, and the merge flag would then flap across iterations
    instead of settling.  A group borders itself but is not eligible.
    """
    s = ev.store
    lv = _lv(ev)
    border = s.get(BORDER) or _EMPTY
    far = s.get(FAR) or _EMPTY
    groups = s.get(IN_GROUP_OF) or _EMPTY
    return frozenset(
        u for u in s.get(DOMAIN) or ()
        if u != lv
        and groups.get(u, BOT) == u
        and border.get(u, BOT) is not BOT
        and far.get(u, BOT) is BOT
    )


def _cand(ev: Eval) -> frozenset:
    stamped = ev.store.get(IN_STAMP_ON) or _EMPTY
    return frozenset(u for u in _eligible(ev) if not stamped.get(u, False))


def _target_value(ev: Eval):
    cand = _cand(ev)
    in_prior = ev.store.get(IN_PRIOR) or _EMPTY
    preferred = [u for u in cand if in_prior.get(u, False)]
    return bot_min(preferred) if preferred else bot_min(cand)


# The elected target group, a cached view of the owner's store alone.
TARGET_VIEW = Action(
    "target", _target_value,
    frozenset((DOMAIN, IN_GROUP, IN_GROUP_OF, BORDER, FAR, IN_STAMP_ON, IN_PRIOR)),
    nbr_reads=frozenset())


def _target(ev: Eval):
    return ev.cached(TARGET_VIEW)


def _merge_dist_row(ev: Eval, k: int, keys=None) -> dict:
    lv = _lv(ev)
    own_sources = list(same_group_nbrs(ev))
    target = _target(ev)
    if target is not BOT and target != lv:
        own_sources = own_sources + list(nbrs_in_group(ev, target))
    arr = ev.store.get(IN_GROUP_OF) or _EMPTY
    row = {}
    own_keys = []
    by_other: dict = {}
    for u in _domain_keys(ev, keys):
        gid = arr.get(u, BOT)
        if gid == lv and lv is not BOT:
            own_keys.append(u)
        else:
            by_other.setdefault(gid, []).append(u)
    row.update(_distance_row(ev, MERGE_DIST, own_sources, own_keys, k))
    base = list(same_group_nbrs(ev))
    for gid, keys in by_other.items():
        sources = base
        if gid is not BOT and gid != lv:
            sources = base + list(nbrs_in_group(ev, gid))
        row.update(_distance_row(ev, MERGE_DIST, sources, keys, k))
    return row


@_per_eval
def _witnessed_groups(ev: Eval, k: int) -> set:
    """The groups with a member at merge distance k+1 from ours: a union
    with them was witnessed to exceed the bound."""
    dom = ev.store.get(DOMAIN) or ()
    groups = ev.store.get(IN_GROUP_OF) or _EMPTY
    far = k + 1
    return {groups.get(w, BOT) for w, d in (ev.store.get(MERGE_DIST) or _EMPTY).items()
            if d == far and w in dom}


def _stamp1_row(ev: Eval, k: int, keys=None) -> dict:
    """The stamp1 row at the domain keys `keys` (all of them for None): the
    group minimum of the witnesses at the keys whose group targets ours,
    the kept stamp or BOT elsewhere."""
    s = ev.store
    target_arr = s.get(TARGET) or _EMPTY
    stamped = s.get(IN_STAMP_ON) or _EMPTY
    in_s1 = s.get(IN_STAMP1) or _EMPTY
    keys = _domain_keys(ev, keys)
    # The detectors: keys whose group targets ours, unless the two groups
    # target each other and theirs has the larger id.
    lv = _lv(ev)
    detector_keys = []
    if lv is not BOT:
        target = _target(ev)
        detector_keys = [u for u in keys
                         if target_arr.get(u, BOT) == lv and (lv <= u or target != u)]
    mins = _min_row(ev, STAMP1, _witnessed_groups(ev, k), detector_keys)
    row = {}
    for u in keys:
        if u in mins:
            row[u] = mins[u]
        elif stamped.get(u, False):
            row[u] = in_s1.get(u, BOT)
        else:
            row[u] = BOT
    return row


@_per_eval
def _toward(ev: Eval) -> dict:
    """Per neighboring group: the least stamp distance to our group that
    our neighbors in it claim (their stamp_dist at our group id)."""
    lv = _lv(ev)
    toward = {}
    for _, ws in _all_nbrs(ev):
        gid = ws.get(IN_GROUP, BOT)
        d = _entry(ws, STAMP_DIST, lv)
        if gid is not BOT and d is not BOT and (gid not in toward or d < toward[gid]):
            toward[gid] = d
    return toward


def _stamp_dist_row(ev: Eval, k: int, stamp1, keys=None) -> dict:
    """The stamp_dist row at the domain keys `keys` (all of them for None),
    given the owner's stored stamp1: 0 where it names us, else one more
    than the least distance our group's neighbors claim for the key or the
    key's group claims toward ours."""
    pid = ev.pid
    own_sources = [
        (ws.get(DOMAIN) or frozenset(), ws.get(STAMP_DIST) or _EMPTY)
        for _, ws in same_group_nbrs(ev)
    ]
    toward = _toward(ev)
    row = {}
    for u in _domain_keys(ev, keys):
        if stamp1.get(u, BOT) == pid:
            row[u] = 0
            continue
        best = toward.get(u, BOT)
        for wdom, sd in own_sources:
            if u not in wdom:
                continue
            d = sd.get(u, BOT)
            if d is not BOT and (best is BOT or d < best):
                best = d
        row[u] = _clamp_dist(bot_inc(best), k)
    return row


@_per_eval
def _merging(ev: Eval) -> bool:
    t = _target(ev)
    if t is BOT:
        return False
    return (
        _entry(ev.store, TARGET, t) == _lv(ev)
        and _entry(ev.store, STAMP_DIST, t) is BOT
    )


def _group_value(ev: Eval):
    # The printed rule reduces to the shifted own-group entry, merged with the
    # target id when a mutual merge is on.
    own = _entry(ev.store, IN_GROUP_OF, ev.pid)
    if _merging(ev):
        return bot_min((own, _target(ev)))
    return own


def _saturated(ev: Eval) -> bool:
    # Priority must be shed once every eligible group is stamped out.
    stamped = ev.store.get(STAMP_ON) or _EMPTY
    return all(stamped.get(u, False) for u in _eligible(ev))


@_per_eval
def _prior(ev: Eval) -> bool:
    if _merging(ev):
        return True
    return bool(_entry(ev.store, IN_PRIOR, ev.pid)) and not _saturated(ev)


# ---------------------------------------------------------------------------
# action tables

def _scalar_sub(label, name, value_fn, reads, nbr_reads):
    def evaluate(ev: Eval):
        new = value_fn(ev)
        if ev.store.get(name, BOT) == new:
            return None
        return {name: new}

    return Action(label, evaluate, frozenset(reads), frozenset((name,)),
                  frozenset(nbr_reads))


def _keyed(label, name, row_of, reads, nbr_reads, fixed=None, marks=None):
    """The substitution of the array `name` by the row row_of(ev, None),
    declared on the action (runtime.Keyed), which the engine evaluates from
    the row it keeps across steps; row_of(ev, keys) gives the row at the
    domain keys `keys`.  `fixed` is by default every read but `name`."""
    fixed = frozenset(reads) - {name} if fixed is None else frozenset(fixed)
    return Action(label, reads=frozenset(reads), writes=frozenset((name,)),
                  nbr_reads=frozenset(nbr_reads), keyed=Keyed(name, row_of, fixed, marks))


def _share_sub(label, name, own, own_reads):
    """The keyed share(name) row with the owner's value own(ev), which reads
    `own_reads` of the owner's store."""
    def own_mark(ev):
        """The owner's own value at its own key."""
        return {ev.pid: own(ev)}

    return _keyed(label, name, lambda ev, keys: _share_row(ev, name, own(ev), keys),
                  GRADIENT.reads | own_reads | {name}, GRADIENT.reads | {name},
                  fixed=GRADIENT.reads, marks=own_mark)


# What the min rows and group distances read from neighbors besides their
# array (the group view).
_GROUP_NBR = frozenset((DOMAIN, IN_GROUP, IN_GROUP_DIST))


def init_actions(k: int) -> AlgorithmSpec:
    """Initializer: (k+1)-ball discovery, tree-band partition, copy seeding."""
    check_k(k)

    tree_reads = (PARENT, HEIGHT, INIT_GROUP)

    def group_dist_row(ev, keys):
        return _distance_row(ev, IN_GROUP_DIST, same_group_nbrs(ev),
                             _domain_keys(ev, keys), k)

    def const_false_row(ev, keys):
        return dict.fromkeys(_domain_keys(ev, keys), False)

    actions = (
        _scalar_sub("I1", DOMAIN, lambda ev: _domain_value(ev, k), (DOMAIN, DIST),
                    (DOMAIN, DIST)),
        _keyed("I2", DIST, lambda ev, keys: _dist_row(ev, k, keys), (DOMAIN, DIST),
               (DOMAIN, DIST)),
        _scalar_sub("I3", HEIGHT, lambda ev: _height_value(ev, k), (PARENT, HEIGHT),
                    (PARENT, HEIGHT)),
        _scalar_sub("I4", INIT_GROUP, lambda ev: _init_group_value(ev, k), tree_reads,
                    (INIT_GROUP,)),
        _scalar_sub("I5", IN_GROUP, lambda ev: _init_group_value(ev, k),
                    (*tree_reads, IN_GROUP), (INIT_GROUP,)),
        _share_sub("I6", IN_GROUP_OF, _lv, {IN_GROUP}),
        _keyed("I7", IN_GROUP_DIST, group_dist_row, _GROUP_NBR, _GROUP_NBR),
        _keyed("I8", IN_STAMP_ON, const_false_row, (DOMAIN, IN_STAMP_ON), ()),
        _keyed("I9", IN_PRIOR, const_false_row, (DOMAIN, IN_PRIOR), ()),
    )
    return AlgorithmSpec(actions, domain_var=DOMAIN)


def merge_actions(k: int) -> AlgorithmSpec:
    """Merge phase: target election, union distances, stamps, regrouping."""
    check_k(k)

    def border_row(ev, keys):
        by_group = _nbrs_by_group(ev)
        q_keys = {u for u in _domain_keys(ev, keys) if by_group.get(u)}
        return _min_row(ev, BORDER, q_keys, keys)

    def far_row(ev, keys):
        d = ev.store.get(DIST) or _EMPTY
        q_keys = {
            u for u in _domain_keys(ev, keys)
            if any(d.get(w, BOT) == k + 1 for w in members_of(ev, u))
        }
        return _min_row(ev, FAR, q_keys, keys)

    def stamp1(ev):
        return ev.store.get(STAMP1) or _EMPTY

    def stamp_dist(ev):
        return ev.store.get(STAMP_DIST) or _EMPTY

    def stamp1_marks(ev):
        """Witnessed groups, the elected target, keys targeting us, kept stamps.

        Bit 1 at the groups with a member at merge distance k+1, bit 2 at
        the elected target, bit 4 where the `target` entry names our group;
        paired with the kept stamp where the key is stamped."""
        s, lv = ev.store, _lv(ev)
        marks = dict.fromkeys(_witnessed_groups(ev, k), 1)
        target = _target(ev)
        if target is not BOT:
            marks[target] = marks.get(target, 0) | 2
        for u, t in (s.get(TARGET) or _EMPTY).items():
            if t == lv and lv is not BOT:
                marks[u] = marks.get(u, 0) | 4
        in_s1 = s.get(IN_STAMP1) or _EMPTY
        for u, on in (s.get(IN_STAMP_ON) or _EMPTY).items():
            if on:
                marks[u] = (marks.get(u, 0), in_s1.get(u, BOT))
        return marks

    def stamp_dist_marks(ev):
        """Keys where the stored stamp1 names us; each group's claim toward us.

        -1 where the owner's stamp1 names it (this row is 0 there), else the
        least stamp distance the key's group claims toward ours, so a
        neighbor's `stamp_dist` write at our group id reaches the key of its
        group; no distance is negative."""
        pid = ev.pid
        return {**_toward(ev), **{u: -1 for u, s1 in stamp1(ev).items() if s1 == pid}}

    def stamp2_marks(ev):
        """The keys where the stored stamp_dist reads k+1."""
        return dict.fromkeys(u for u, d in stamp_dist(ev).items() if d == k + 1)

    def stamp2_row(ev, keys):
        sd = stamp_dist(ev)
        q_keys = {u for u in _domain_keys(ev, keys) if sd.get(u, BOT) == k + 1}
        return _min_row(ev, STAMP2, q_keys, keys)

    def group_dist_row(ev, keys):
        own = ev.store.get(GROUP, BOT)
        srcs = [(w, ws) for w, ws in _all_nbrs(ev) if ws.get(GROUP, BOT) == own]
        return _distance_row(ev, GROUP_DIST, srcs, _domain_keys(ev, keys), k)

    def stamp_on_row(ev, keys):
        sd = ev.store.get(STAMP_DIST) or _EMPTY
        mg = ev.store.get(MERGING) or _EMPTY
        merging_self = _merging(ev)
        return {u: sd.get(u, BOT) is not BOT and not merging_self and not mg.get(u, False)
                for u in _domain_keys(ev, keys)}

    def stamp_on_marks(ev):
        """Merging flags, the owner's too, at keys with a known stamp distance.

        The row is False elsewhere; the owner's flag is one mark repeated at
        every key, since every key reads it."""
        mg = ev.store.get(MERGING) or _EMPTY
        merging_self = _merging(ev)
        return {u: (mg.get(u, False), merging_self)
                for u, d in (ev.store.get(STAMP_DIST) or _EMPTY).items() if d is not BOT}

    # What the merge rules read of the owner's store besides their own
    # names: the elected target's reads, and for _merging the target entry
    # and the stamp distances.
    target_reads = TARGET_VIEW.reads
    merging_reads = target_reads | {TARGET, STAMP_DIST}

    actions = (
        _keyed("M1", BORDER, border_row, _GROUP_NBR | {BORDER}, _GROUP_NBR | {BORDER}),
        _keyed("M2", FAR, far_row, _GROUP_NBR | {DIST, IN_GROUP_OF, FAR},
               _GROUP_NBR | {FAR}),
        _share_sub("M3", TARGET, _target, target_reads),
        _keyed("M4", MERGE_DIST, lambda ev, keys: _merge_dist_row(ev, k, keys),
               target_reads | {MERGE_DIST}, (DOMAIN, IN_GROUP, MERGE_DIST)),
        _keyed("M5", STAMP1, lambda ev, keys: _stamp1_row(ev, k, keys),
               target_reads | {IN_GROUP_DIST, TARGET, MERGE_DIST, STAMP1, IN_STAMP1},
               _GROUP_NBR | {STAMP1}, fixed=_GROUP_NBR, marks=stamp1_marks),
        _keyed("M6", STAMP_DIST, lambda ev, keys: _stamp_dist_row(ev, k, stamp1(ev), keys),
               (DOMAIN, IN_GROUP, STAMP1, STAMP_DIST), (DOMAIN, IN_GROUP, STAMP_DIST),
               fixed=(DOMAIN, IN_GROUP), marks=stamp_dist_marks),
        _keyed("M7", STAMP2, stamp2_row, _GROUP_NBR | {STAMP_DIST, STAMP2},
               _GROUP_NBR | {STAMP2}, fixed=_GROUP_NBR, marks=stamp2_marks),
        _scalar_sub("M8", GROUP, _group_value, merging_reads | {GROUP}, ()),
        _share_sub("M9", GROUP_OF, lambda ev: ev.store.get(GROUP, BOT), {GROUP}),
        _keyed("M10", GROUP_DIST, group_dist_row, (DOMAIN, GROUP, GROUP_DIST),
               (DOMAIN, GROUP, GROUP_DIST)),
        _share_sub("M11", MERGING, _merging, merging_reads),
        _keyed("M12", STAMP_ON, stamp_on_row, merging_reads | {MERGING, STAMP_ON}, (),
               fixed=(DOMAIN,), marks=stamp_on_marks),
        _share_sub("M13", PRIOR, _prior, merging_reads | {STAMP_ON}),
    )
    return AlgorithmSpec(actions, domain_var=DOMAIN)


# ---------------------------------------------------------------------------
# error predicate

def _grp_ok(ev: Eval) -> bool:
    own_ig = ev.store.get(INIT_GROUP, BOT)
    own_lv = _lv(ev)
    for _, ws in _all_nbrs(ev):
        if ws.get(INIT_GROUP, BOT) == own_ig and ws.get(IN_GROUP, BOT) != own_lv:
            return False
    return True


def _stamp_ok(ev: Eval, u, k: int) -> bool:
    s = ev.store
    lv = _lv(ev)
    s1 = _entry(s, IN_STAMP1, u)
    s2 = _entry(s, IN_STAMP2, u)
    sd = _entry(s, IN_STAMP_DIST, u)
    own_group = same_group_nbrs(ev)
    other_group = nbrs_in_group(ev, u)
    if any(not _entry(ws, IN_STAMP_ON, u) for _, ws in own_group):
        return False
    if any(not _entry(ws, IN_STAMP_ON, lv) for _, ws in other_group):
        return False
    if s1 is BOT and s2 is BOT:
        return False
    if sd is BOT:
        return False
    if s2 is BOT and any(_entry(ws, IN_STAMP2, lv) is BOT for _, ws in other_group):
        return False
    for _, ws in own_group:
        if (s1, s2) != (_entry(ws, IN_STAMP1, u), _entry(ws, IN_STAMP2, u)):
            return False
    if s2 == ev.pid and sd != k + 1:
        return False
    own_members = members_of(ev, lv)
    for si in (s1, s2):
        if si is not BOT and si not in own_members:
            return False
    if (s1, s2, sd) != (ev.pid, BOT, 0):
        vals = [_entry(ws, IN_STAMP_DIST, u) for _, ws in own_group]
        vals += [_entry(ws, IN_STAMP_DIST, lv) for _, ws in other_group]
        if sd != bot_inc(bot_min(vals)):
            return False
    return True


def _prior_agreement(ev: Eval) -> bool:
    own = ev.store.get(IN_PRIOR) or _EMPTY
    dom = ev.store.get(DOMAIN) or frozenset()
    for _, ws in _all_nbrs(ev):
        theirs = ws.get(IN_PRIOR) or _EMPTY
        for w in dom & (ws.get(DOMAIN) or frozenset()):
            if own.get(w, BOT) != theirs.get(w, BOT):
                return False
    return True


def error_predicate(ev: Eval, k: int, init: AlgorithmSpec) -> bool:
    """E(v): true when any local consistency condition fails: where I1-I4 or
    I6 of `init`, a table init_actions(k) built, is enabled, or where I7's
    row differs from the stored array, or reads k+1, at a group member, each
    asked through ev.cached; not I5, I8 or I9, which rewrite shifted copies."""
    i1, i2, i3, i4, _, i6, i7, *_ = init.actions
    if any(ev.cached(action) is not None for action in (i1, i2, i3, i4)):
        return True
    lv = _lv(ev)
    if lv is BOT or _entry(ev.store, IN_GROUP_OF, lv) != lv:
        return True
    if not _grp_ok(ev) or ev.cached(i6) is not None:
        return True
    stored = ev.store.get(IN_GROUP_DIST) or _EMPTY
    updates = ev.cached(i7)  # None where the row equals the stored array
    row = stored if updates is None else updates[IN_GROUP_DIST]
    if any(stored.get(u, BOT) != row.get(u, BOT) or row.get(u, BOT) == k + 1
           for u in members_of(ev, lv)):
        return True
    stamped = ev.store.get(IN_STAMP_ON) or _EMPTY
    for u in ev.store.get(DOMAIN) or ():
        if stamped.get(u, False) and not _stamp_ok(ev, u, k):
            return True
    return not _prior_agreement(ev)


def eval_E(cfg: Configuration, graph: Graph, v: int, k: int) -> bool:
    return error_predicate(Eval(cfg, v, graph.neighbors_of(v)), k, init_actions(k))


def kgrouping_binding(k: int) -> BaseAlgorithmBinding:
    check_k(k)
    return BaseAlgorithmBinding(
        base=merge_actions(k),
        init=init_actions(k),
        error=lambda ev, init: error_predicate(ev, k, init),
        outputs=COPY_PAIRS,
        variables=VARS,
    )
