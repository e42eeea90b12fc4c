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
keys that left the domain are dropped on write.

The macros share/min_macro/distance_macro are the reference semantics; the
action tables use row-at-a-time equivalents (one pass per array instead of
one per key) that must and do agree with them.
"""

from __future__ import annotations

from .graphs import Graph, dist as graph_dist, induced_diameter
from .loop import BaseAlgorithmBinding
from .runtime import (
    BOT,
    ID,
    PARENT,
    Action,
    AlgorithmSpec,
    Configuration,
    Eval,
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
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"diameter bound k must be an integer >= 1, got {k!r}")
    return k


def _clamp_dist(x, k):
    if x is BOT or 0 <= x <= 2 * k:
        return x
    return BOT


# ---------------------------------------------------------------------------
# local views (memoized per evaluation)

_EMPTY: dict = {}


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


def _all_nbrs(ev: Eval):
    pairs = ev.memo.get("all_nbrs")
    if pairs is None:
        cfg = ev.cfg
        pairs = tuple((u, cfg[u]) for u in ev.nbr_ids)
        ev.memo["all_nbrs"] = pairs
    return pairs


def _nbrs_by_group(ev: Eval) -> dict:
    by_group = ev.memo.get("nbrs_by_group")
    if by_group is None:
        by_group = {}
        for u, s in _all_nbrs(ev):
            by_group.setdefault(s.get(IN_GROUP, BOT), []).append((u, s))
        ev.memo["nbrs_by_group"] = by_group
    return by_group


def nbrs_in_group(ev: Eval, gid):
    """N_v(gid): neighbors whose shifted group value is gid."""
    if gid is BOT:
        return ()
    return _nbrs_by_group(ev).get(gid, ())


def same_group_nbrs(ev: Eval):
    """S_v: neighbors in our own (shifted) group."""
    return nbrs_in_group(ev, _lv(ev))


def _members_by_group(ev: Eval) -> dict:
    members = ev.memo.get("members_by_group")
    if members is None:
        members = {}
        arr = ev.store.get(IN_GROUP_OF) or _EMPTY
        for w in ev.store.get(DOMAIN) or ():
            members.setdefault(arr.get(w, BOT), []).append(w)
        ev.memo["members_by_group"] = members
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
    cannot sustain themselves.
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
    (1 + BOT = BOT, so an empty or all-null source set yields BOT)."""
    if u == ev.pid:
        return 0
    return bot_inc(bot_min(_entry(ws, x_name, u) for _, ws in sources))


# ---------------------------------------------------------------------------
# row-at-a-time forms used by the action tables

def _share_row(ev: Eval, x_name: str, own_value) -> dict:
    pid = ev.pid
    own_dist = ev.store.get(DIST) or _EMPTY
    hoisted = [
        (ws.get(DOMAIN) or frozenset(), ws.get(DIST) or _EMPTY,
         ws.get(x_name) or _EMPTY)
        for _, ws in _all_nbrs(ev)
    ]
    row = {}
    for u in ev.store.get(DOMAIN) or ():
        if u == pid:
            row[u] = own_value
            continue
        vd = own_dist.get(u, BOT)
        if vd is BOT:
            row[u] = BOT
            continue
        best = BOT
        for wdom, wd_dict, wx_dict in hoisted:
            if u not in wdom:
                continue
            wd = wd_dict.get(u, BOT)
            if wd is BOT or vd != wd + 1:
                continue
            val = wx_dict.get(u, BOT)
            if val is not BOT and (best is BOT or val < best):
                best = val
        row[u] = best
    return row


def _min_row(ev: Eval, x_name: str, q_keys) -> dict:
    """min_macro applied to every domain key; q_keys holds the keys whose
    local predicate is true."""
    pid = ev.pid
    own_dom = ev.store.get(DOMAIN) or frozenset()
    own_gd = ev.store.get(IN_GROUP_DIST) or _EMPTY
    hoisted = [
        (ws.get(DOMAIN) or frozenset(), ws.get(x_name) or _EMPTY,
         ws.get(IN_GROUP_DIST) or _EMPTY)
        for _, ws in same_group_nbrs(ev)
    ]
    row = {}
    for u in own_dom:
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

def _dist_mins(ev: Eval) -> dict:
    """Per identifier: the minimum neighbor distance claim among neighbors
    that carry the identifier in their domain."""
    mins = ev.memo.get("dist_mins")
    if mins is None:
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
        ev.memo["dist_mins"] = mins
    return mins


def _dist_row(ev: Eval, k: int) -> dict:
    mins = _dist_mins(ev)
    pid = ev.pid
    row = {}
    for u in ev.store.get(DOMAIN) or ():
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
    children = ev.children()
    if not children:
        return 0
    modulus = k // 2 + 1
    return max((ev.nbr(u).get(HEIGHT, 0) + 1) % modulus for u in children)


def _init_group_value(ev: Eval, k: int):
    p = ev.parent()
    if p is BOT or ev.store.get(HEIGHT) == k // 2:
        return ev.pid
    return ev.nbr(p).get(INIT_GROUP, BOT)


# ---------------------------------------------------------------------------
# merge value functions

def _cand(ev: Eval):
    cand = ev.memo.get("cand")
    if cand is None:
        s = ev.store
        lv = _lv(ev)
        border = s.get(BORDER) or _EMPTY
        far = s.get(FAR) or _EMPTY
        stamped = s.get(IN_STAMP_ON) or _EMPTY
        groups = s.get(IN_GROUP_OF) or _EMPTY
        # Only identifiers that name a group in our view are eligible: a
        # group id belongs to its own group.  Keys naming mere members would
        # otherwise let a group elect itself (under a member's id) as its
        # target through stale border values, and the merge flag would then
        # flap across iterations instead of settling.
        cand = frozenset(
            u for u in s.get(DOMAIN) or ()
            if u != lv
            and groups.get(u, BOT) == u
            and border.get(u, BOT) is not BOT
            and far.get(u, BOT) is BOT
            and not stamped.get(u, False)
        )
        ev.memo["cand"] = cand
    return cand


def _target(ev: Eval):
    t = ev.memo.get("target", "unset")
    if t == "unset":
        cand = _cand(ev)
        in_prior = ev.store.get(IN_PRIOR) or _EMPTY
        preferred = [u for u in cand if in_prior.get(u, False)]
        t = bot_min(preferred) if preferred else bot_min(cand)
        ev.memo["target"] = t
    return t


def _merge_dist_row(ev: Eval, k: int) -> dict:
    lv = _lv(ev)
    own_sources = list(same_group_nbrs(ev))
    target = _target(ev)
    if target is not BOT and target != lv:
        own_sources = own_sources + list(nbrs_in_group(ev, target))
    arr = ev.store.get(IN_GROUP_OF) or _EMPTY
    dom = ev.store.get(DOMAIN) or ()
    row = {}
    own_keys = []
    by_other: dict = {}
    for u in dom:
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


def _detector(ev: Eval, u, target_arr) -> bool:
    lv = _lv(ev)
    if lv is BOT:
        return False
    if target_arr.get(u, BOT) != lv:
        return False
    return lv <= u or _target(ev) != u


def _stamp1_row(ev: Eval, k: int) -> dict:
    row = ev.memo.get("stamp1_row")
    if row is not None:
        return row
    s = ev.store
    target_arr = s.get(TARGET) or _EMPTY
    md = s.get(MERGE_DIST) or _EMPTY
    stamped = s.get(IN_STAMP_ON) or _EMPTY
    in_s1 = s.get(IN_STAMP1) or _EMPTY
    detector_keys = []
    keep_keys = {}
    dom = s.get(DOMAIN) or ()
    for u in dom:
        if _detector(ev, u, target_arr):
            detector_keys.append(u)
        elif stamped.get(u, False):
            keep_keys[u] = in_s1.get(u, BOT)
        else:
            keep_keys[u] = BOT
    q_keys = {
        u for u in detector_keys
        if any(md.get(w, BOT) == k + 1 for w in members_of(ev, u))
    }
    row = _min_row(ev, STAMP1, q_keys)
    for u in dom:
        if u not in detector_keys:
            row[u] = keep_keys[u]
    ev.memo["stamp1_row"] = row
    return row


def _stamp_dist_row(ev: Eval, k: int) -> dict:
    row = ev.memo.get("stamp_dist_row")
    if row is not None:
        return row
    pid = ev.pid
    lv = _lv(ev)
    stamp1 = _stamp1_row(ev, k)
    own_sources = [
        (ws.get(DOMAIN) or frozenset(), ws.get(STAMP_DIST) or _EMPTY)
        for _, ws in same_group_nbrs(ev)
    ]
    row = {}
    for u in ev.store.get(DOMAIN) or ():
        if stamp1.get(u, BOT) == pid:
            row[u] = 0
            continue
        best = BOT
        for wdom, sd in own_sources:
            if u not in wdom:
                continue
            d = sd.get(u, BOT)
            if d is not BOT and (best is BOT or d < best):
                best = d
        for _, ws in nbrs_in_group(ev, u):
            d = _entry(ws, STAMP_DIST, lv)
            if d is not BOT and (best is BOT or d < best):
                best = d
        row[u] = _clamp_dist(bot_inc(best), k)
    ev.memo["stamp_dist_row"] = row
    return row


def _merging(ev: Eval) -> bool:
    m = ev.memo.get("merging")
    if m is None:
        t = _target(ev)
        if t is BOT:
            m = False
        else:
            m = (
                _entry(ev.store, TARGET, t) == _lv(ev)
                and _entry(ev.store, STAMP_DIST, t) is BOT
            )
        ev.memo["merging"] = m
    return m


def _group_value(ev: Eval):
    # The printed rule reduces to the shifted own-group entry, merged with the
    # target id when a mutual merge is on.
    own = _entry(ev.store, IN_GROUP_OF, ev.pid)
    if _merging(ev):
        return bot_min((own, _target(ev)))
    return own


def _saturated(ev: Eval) -> bool:
    # Quantifies over the same keys that are candidate-eligible (group ids
    # other than our own): a group borders itself but is not a merge
    # candidate, and priority must be shed once all real candidates are
    # stamped out.
    s = ev.store
    lv = _lv(ev)
    border = s.get(BORDER) or _EMPTY
    far = s.get(FAR) or _EMPTY
    stamped = s.get(STAMP_ON) or _EMPTY
    groups = s.get(IN_GROUP_OF) or _EMPTY
    for u in s.get(DOMAIN) or ():
        if u == lv or groups.get(u, BOT) != u:
            continue
        if border.get(u, BOT) is not BOT and far.get(u, BOT) is BOT:
            if not stamped.get(u, False):
                return False
    return True


def _prior(ev: Eval) -> bool:
    if _merging(ev):
        return True
    return bool(_entry(ev.store, IN_PRIOR, ev.pid)) and not _saturated(ev)


# ---------------------------------------------------------------------------
# action tables

def _scalar_sub(label, name, value_fn, reads, writes=None):
    def evaluate(ev: Eval):
        new = value_fn(ev)
        if ev.store.get(name, BOT) == new:
            return None
        return {name: new}

    return Action(label, evaluate, frozenset(reads), frozenset(writes or (name,)))


def _array_sub(label, name, row_fn, reads):
    def evaluate(ev: Eval):
        dom = ev.store.get(DOMAIN) or ()
        if not dom:
            return None
        cur = ev.store.get(name) or _EMPTY
        new = row_fn(ev)
        for u in dom:
            if cur.get(u, BOT) != new[u]:
                return {name: new}
        return None

    return Action(label, evaluate, frozenset(reads), frozenset((name,)))


def init_actions(k: int) -> AlgorithmSpec:
    """Initializer: (k+1)-ball discovery, tree-band partition, copy seeding."""
    check_k(k)

    init_reads = frozenset((DOMAIN, DIST, HEIGHT, INIT_GROUP, PARENT))

    def group_dist_row(ev):
        return _distance_row(
            ev, IN_GROUP_DIST, same_group_nbrs(ev), ev.store.get(DOMAIN) or (), k
        )

    def const_false_row(ev):
        return {u: False for u in ev.store.get(DOMAIN) or ()}

    actions = (
        _scalar_sub("I1", DOMAIN, lambda ev: _domain_value(ev, k), init_reads),
        _array_sub("I2", DIST, lambda ev: _dist_row(ev, k), init_reads),
        _scalar_sub("I3", HEIGHT, lambda ev: _height_value(ev, k), init_reads),
        _scalar_sub("I4", INIT_GROUP, lambda ev: _init_group_value(ev, k), init_reads),
        _scalar_sub("I5", IN_GROUP, lambda ev: _init_group_value(ev, k),
                    init_reads | {IN_GROUP}, (IN_GROUP,)),
        _array_sub("I6", IN_GROUP_OF,
                   lambda ev: _share_row(ev, IN_GROUP_OF, _lv(ev)),
                   init_reads | {IN_GROUP, IN_GROUP_OF}),
        _array_sub("I7", IN_GROUP_DIST, group_dist_row,
                   init_reads | {IN_GROUP, IN_GROUP_DIST}),
        _array_sub("I8", IN_STAMP_ON, const_false_row,
                   frozenset((DOMAIN, IN_STAMP_ON))),
        _array_sub("I9", IN_PRIOR, const_false_row,
                   frozenset((DOMAIN, IN_PRIOR))),
    )
    return AlgorithmSpec("init", actions,
                         tuple((a.label, a.reads) for a in actions),
                         domain_var=DOMAIN)


def merge_actions(k: int) -> AlgorithmSpec:
    """Merge phase: target election, union distances, stamps, regrouping."""
    check_k(k)

    def border_row(ev):
        by_group = _nbrs_by_group(ev)
        q_keys = {u for u in ev.store.get(DOMAIN) or () if by_group.get(u)}
        return _min_row(ev, BORDER, q_keys)

    def far_row(ev):
        d = ev.store.get(DIST) or _EMPTY
        q_keys = {
            u for u in ev.store.get(DOMAIN) or ()
            if any(d.get(w, BOT) == k + 1 for w in members_of(ev, u))
        }
        return _min_row(ev, FAR, q_keys)

    def target_row(ev):
        return _share_row(ev, TARGET, _target(ev))

    def stamp2_row(ev):
        sd = _stamp_dist_row(ev, k)
        q_keys = {u for u, d in sd.items() if d == k + 1}
        return _min_row(ev, STAMP2, q_keys)

    def groups_row(ev):
        return _share_row(ev, GROUP_OF, ev.store.get(GROUP, BOT))

    def group_dist_row(ev):
        own = ev.store.get(GROUP, BOT)
        srcs = [(w, ws) for w, ws in _all_nbrs(ev) if ws.get(GROUP, BOT) == own]
        return _distance_row(ev, GROUP_DIST, srcs, ev.store.get(DOMAIN) or (), k)

    def merging_row(ev):
        return _share_row(ev, MERGING, _merging(ev))

    def stamp_on_row(ev):
        sd = ev.store.get(STAMP_DIST) or _EMPTY
        mg = ev.store.get(MERGING) or _EMPTY
        merging_self = _merging(ev)
        return {
            u: (sd.get(u, BOT) is not BOT
                and not merging_self
                and not mg.get(u, False))
            for u in ev.store.get(DOMAIN) or ()
        }

    def prior_row(ev):
        return _share_row(ev, PRIOR, _prior(ev))

    shared = frozenset((DOMAIN, DIST, IN_GROUP, IN_GROUP_OF, IN_GROUP_DIST,
                        IN_STAMP_ON, IN_PRIOR))
    cand_reads = shared | {BORDER, FAR}

    actions = (
        _array_sub("M1", BORDER, border_row, shared | {BORDER}),
        _array_sub("M2", FAR, far_row, shared | {FAR}),
        _array_sub("M3", TARGET, target_row, cand_reads | {TARGET}),
        _array_sub("M4", MERGE_DIST, lambda ev: _merge_dist_row(ev, k),
                   cand_reads | {MERGE_DIST}),
        _array_sub("M5", STAMP1, lambda ev: dict(_stamp1_row(ev, k)),
                   cand_reads | {TARGET, MERGE_DIST, STAMP1, IN_STAMP1}),
        _array_sub("M6", STAMP_DIST, lambda ev: dict(_stamp_dist_row(ev, k)),
                   cand_reads | {TARGET, MERGE_DIST, STAMP1, IN_STAMP1, STAMP_DIST}),
        _array_sub("M7", STAMP2, stamp2_row,
                   cand_reads | {TARGET, MERGE_DIST, STAMP1, IN_STAMP1, STAMP_DIST,
                                 STAMP2}),
        _scalar_sub("M8", GROUP, _group_value,
                    cand_reads | {TARGET, STAMP_DIST, GROUP}),
        _array_sub("M9", GROUP_OF, groups_row, shared | {GROUP, GROUP_OF}),
        _array_sub("M10", GROUP_DIST, group_dist_row,
                   frozenset((DOMAIN, DIST, GROUP, GROUP_DIST))),
        _array_sub("M11", MERGING, merging_row,
                   cand_reads | {TARGET, STAMP_DIST, MERGING}),
        _array_sub("M12", STAMP_ON, stamp_on_row,
                   cand_reads | {TARGET, STAMP_DIST, MERGING, STAMP_ON}),
        _array_sub("M13", PRIOR, prior_row,
                   cand_reads | {TARGET, STAMP_DIST, STAMP_ON, PRIOR}),
    )
    return AlgorithmSpec("merge", actions,
                         tuple((a.label, a.reads) for a in actions),
                         domain_var=DOMAIN)


# ---------------------------------------------------------------------------
# error predicate

def _grp_ok(ev: Eval) -> bool:
    own_ig = ev.store.get(INIT_GROUP, BOT)
    own_lv = _lv(ev)
    for _, ws in _all_nbrs(ev):
        if ws.get(INIT_GROUP, BOT) == own_ig and ws.get(IN_GROUP, BOT) != own_lv:
            return False
    return True


def _grps_ok(ev: Eval) -> bool:
    s = ev.store
    lv = _lv(ev)
    arr = s.get(IN_GROUP_OF) or _EMPTY
    want = _share_row(ev, IN_GROUP_OF, lv)
    for u in s.get(DOMAIN) or ():
        if arr.get(u, BOT) != want[u]:
            return False
    return lv is not BOT and arr.get(lv, BOT) == lv and lv in (s.get(DOMAIN) or ())


def _grp_dist_ok(ev: Eval, k: int) -> bool:
    arr = ev.store.get(IN_GROUP_DIST) or _EMPTY
    members = members_of(ev, _lv(ev))
    want = _distance_row(ev, IN_GROUP_DIST, same_group_nbrs(ev), members, k)
    for u in members:
        got = arr.get(u, BOT)
        if got != want[u] or got == k + 1:
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


def error_predicate(ev: Eval, k: int) -> bool:
    """E(v): true when any local consistency condition fails."""
    s = ev.store
    if s.get(DOMAIN, BOT) != _domain_value(ev, k):
        return True
    d = s.get(DIST) or _EMPTY
    want = _dist_row(ev, k)
    for u in s.get(DOMAIN) or ():
        if d.get(u, BOT) != want[u]:
            return True
    if s.get(HEIGHT, BOT) != _height_value(ev, k):
        return True
    if s.get(INIT_GROUP, BOT) != _init_group_value(ev, k):
        return True
    if not _grp_ok(ev):
        return True
    if not _grps_ok(ev):
        return True
    if not _grp_dist_ok(ev, k):
        return True
    stamped = s.get(IN_STAMP_ON) or _EMPTY
    for u in s.get(DOMAIN) or ():
        if stamped.get(u, False) and not _stamp_ok(ev, u, k):
            return True
    return not _prior_agreement(ev)


def eval_E(cfg: Configuration, graph: Graph, v: int, k: int) -> bool:
    return error_predicate(Eval(cfg, v, graph.neighbors_of(v)), k)


def kgrouping_binding(k: int) -> BaseAlgorithmBinding:
    check_k(k)
    return BaseAlgorithmBinding(
        base=merge_actions(k),
        init=init_actions(k),
        error=lambda ev: error_predicate(ev, k),
        outputs=COPY_PAIRS,
        variables=VARS,
        domain_var=DOMAIN,
    )


# ---------------------------------------------------------------------------
# ground-truth mirrors of the pairwise group relations

def near(g1, g2, graph: Graph, k: int) -> bool:
    """Adjacent groups whose members are pairwise within k hops in the full
    network (necessary but not sufficient for a merge)."""
    a, b = frozenset(g1), frozenset(g2)
    _check_pair(a, b)
    adjacent = any(v in graph.neighbors_of(u) for u in a for v in b)
    if not adjacent:
        return False
    return all(graph_dist(graph, u, v) <= k for u in a for v in b)


def mergeable(g1, g2, graph: Graph, k: int) -> bool:
    """The union's induced subgraph stays within the diameter bound."""
    a, b = frozenset(g1), frozenset(g2)
    _check_pair(a, b)
    return induced_diameter(graph, a | b) <= k


def _check_pair(a, b) -> None:
    if not a or not b:
        raise ValueError("groups must be non-empty")
    if a & b:
        raise ValueError(f"groups overlap: {sorted(a & b)}")
