"""Traced runs: spans around the public callables of each layer.

`Tracer.patch` wraps, from the benchmark's side only, the callables a run
goes through: the `evaluate` of every action of the composed spec (L1 is the
BFS layer, L2-L16 the loop wave) and of the binding's merge (M1-M13) and
initializer (I1-I9) specs, the error predicate, `run`, `compose`,
`check_Lk`, `diameter`, and the generators and verdicts the workload calls.
A span is (name, start, end, parent).  Payload actions are reached through
`Eval.cached`, so their spans count layer-cache misses only.

Spans are kept in memory; after each instance they are folded into per-name
totals, and the raw spans of the first instance are kept for writing out.
A span's self time is its duration minus that of its child spans.  Spans
below the `run()` called by `run_grouping` are the engine zone; the same
callables reached from verdict code count toward that verdict's span.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gzip
import time
from array import array
from collections import defaultdict

RUN = "runtime.run"
RUN_GROUPING = "experiments.run_grouping"
CHECK_LK = "oracle.check_Lk"

INIT_LABELS = tuple(f"I{i}" for i in range(1, 10))
MERGE_LABELS = tuple(f"M{i}" for i in range(1, 14))
WAVE_LABELS = ("L12", "L13", "L14", "L15", "L16")
RESET_LABELS = ("L2", "L3", "L4", "L5", "L6", "L9", "L10", "L11")
LOOP_LABELS = tuple(f"L{i}" for i in range(2, 17))

KEPT_SPANS_MAX = 200_000  # raw spans written out for the first instance


def action_span(label: str) -> str:
    if label == "L1":
        return "bfs.L1"
    if label.startswith("L"):
        return "loop." + label
    return "kgrouping." + label


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._hit = array("b")
        self._stack = [-1]
        self.kept: list[tuple] = []
        self.kept_total = 0
        self.engine_s = defaultdict(float)  # self time below the main run()
        self.engine_n = defaultdict(int)
        self.engine_hits = defaultdict(int)
        self.total_s = defaultdict(float)  # whole spans, wherever called
        self.post_run_s = 0.0
        self.worst_gap_s = 0.0  # largest |sum of self times - run() span|
        self._folded = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, hits = (
            self._name, self._parent, self._start, self._end, self._hit)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            hits.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if out is not None and out is not False:
                hits[i] = 1
            return out

        return traced

    def _wrap_spec(self, spec):
        actions = tuple(
            dataclasses.replace(a, evaluate=self.wrap(action_span(a.label), a.evaluate))
            for a in spec.actions
        )
        return dataclasses.replace(spec, actions=actions)

    @contextlib.contextmanager
    def patch(self, workloads, experiments):
        """Wrap the layer boundaries for the duration of the block."""
        real_compose = experiments.compose
        real_binding = experiments.kgrouping_binding
        compose_span = self.wrap("loop.compose", real_compose)

        def compose(binding, graph):
            return self._wrap_spec(compose_span(binding, graph))

        def kgrouping_binding(k):
            b = real_binding(k)
            return dataclasses.replace(
                b, base=self._wrap_spec(b.base), init=self._wrap_spec(b.init),
                error=self.wrap("kgrouping.error", b.error))

        targets = [
            (experiments, "compose", compose),
            (experiments, "kgrouping_binding", kgrouping_binding),
            (experiments, "run", self.wrap(RUN, experiments.run)),
            (experiments, "check_Lk", self.wrap(CHECK_LK, experiments.check_Lk)),
            (experiments, "diameter", self.wrap("graphs.diameter", experiments.diameter)),
        ]
        for attr, name in (
            ("build_graph", "graphs.generate"),
            ("random_config", "configs.random_config"),
            ("run_grouping", RUN_GROUPING),
            ("boundary_checks", "experiments.boundary_checks"),
            ("closure_check", "experiments.closure_check"),
        ):
            targets.append((workloads, attr, self.wrap(name, getattr(workloads, attr))))
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
        try:
            for mod, attr, fn in targets:
                setattr(mod, attr, fn)
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def fold(self) -> None:
        """Fold the finished spans into the totals and clear the buffer."""
        if self._stack != [-1]:
            raise RuntimeError("fold() inside an open span")
        names, parents, starts, ends, hits = (
            self._name, self._parent, self._start, self._end, self._hit)
        count = len(names)
        run_id = self._ids.get(RUN)
        rg_id = self._ids.get(RUN_GROUPING)
        lk_id = self._ids.get(CHECK_LK)
        child = [0.0] * count
        self_sum: dict[int, float] = {}
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        root = [-1] * count  # the engine-zone run() span above each span
        run_end: dict[int, float] = {}
        for i in range(count):
            nid, p = names[i], parents[i]
            dur = ends[i] - starts[i]
            self.total_s[nid] += dur
            if p >= 0 and names[p] == rg_id:
                if nid == run_id:
                    root[i] = i
                    run_end[p] = ends[i]
                elif nid == lk_id:
                    self.post_run_s += starts[i] - run_end[p]
            elif p >= 0:
                root[i] = root[p]
            r = root[i]
            if r >= 0:
                own = dur - child[i]
                self.engine_s[nid] += own
                self.engine_n[nid] += 1
                self.engine_hits[nid] += hits[i]
                self_sum[r] = self_sum.get(r, 0.0) + own
        for r, total in self_sum.items():
            gap = abs(total - (ends[r] - starts[r]))
            self.worst_gap_s = max(self.worst_gap_s, gap)
        if self._folded == 0:
            self.kept_total = count
            base = starts[0] if count else 0.0
            self.kept = [
                (i, self.names[names[i]], parents[i], starts[i] - base, ends[i] - base)
                for i in range(min(count, KEPT_SPANS_MAX))
            ]
        self._folded += 1
        for buf in (names, parents, starts, ends, hits):
            del buf[:]

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write(f"# first instance: {len(self.kept)} of {self.kept_total} spans\n")
            f.write("id\tname\tparent\tstart_s\tend_s\n")
            for i, name, parent, start, end in self.kept:
                f.write(f"{i}\t{name}\t{parent}\t{start:.9f}\t{end:.9f}\n")

    def _engine(self, name: str):
        nid = self._ids.get(name)
        if nid is None:
            return 0.0, 0, 0
        return self.engine_s[nid], self.engine_n[nid], self.engine_hits[nid]

    def _total(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.total_s[nid]

    def counters(self) -> dict[str, int]:
        """Exact per-callable evaluation and hit counts of the engine zone."""
        out = {}
        for nid, name in enumerate(self.names):
            if self.engine_n[nid]:
                out[f"evals.{name}"] = self.engine_n[nid]
                out[f"hits.{name}"] = self.engine_hits[nid]
        return out

    def layer_metrics(self, totals: dict) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; `totals` holds the block's exact run counters
        (steps, rounds, iterations, selected, fires.<label>)."""
        steps = max(1, totals["steps"])
        fires = lambda labels: sum(totals.get(f"fires.{lb}", 0) for lb in labels)
        run_self, _, _ = self._engine(RUN)
        bfs_s, bfs_n, _ = self._engine("bfs.L1")
        loop = [self._engine(action_span(lb)) for lb in LOOP_LABELS]
        m = {
            "runtime.self_s": (run_self, "s"),
            "runtime.guard_scans": (bfs_n, "count"),
            "runtime.guard_scans_per_step": (bfs_n / steps, "count"),
            "runtime.selected_per_step": (totals["selected"] / steps, "count"),
            "runtime.steps": (totals["steps"], "count"),
            "runtime.rounds": (totals["rounds"], "count"),
            "bfs.evals": (bfs_n, "count"),
            "bfs.s": (bfs_s, "s"),
            "bfs.fires": (fires(("L1",)), "count"),
            "loop.evals": (sum(n for _, n, _ in loop), "count"),
            "loop.self_s": (sum(s for s, _, _ in loop), "s"),
            "loop.fires.wave": (fires(WAVE_LABELS), "count"),
            "loop.fires.reset": (fires(RESET_LABELS), "count"),
            "loop.iterations": (totals["iterations"], "count"),
        }
        for group, labels in (("init", INIT_LABELS), ("merge", MERGE_LABELS)):
            evals = hits = 0
            for label in labels:
                s, n, h = self._engine(action_span(label))
                m[f"kgrouping.{label}.evals"] = (n, "count")
                m[f"kgrouping.{label}.s"] = (s, "s")
                evals += n
                hits += h
            m[f"kgrouping.{group}.fire_ratio"] = (hits / max(1, evals), "ratio")
        err_s, err_n, _ = self._engine("kgrouping.error")
        m["kgrouping.error.evals"] = (err_n, "count")
        m["kgrouping.error.s"] = (err_s, "s")
        m["oracle.check_Lk.s"] = (self._total(CHECK_LK), "s")
        m["experiments.post_run.s"] = (self.post_run_s, "s")
        for name in ("experiments.boundary_checks", "experiments.closure_check",
                     "configs.random_config", "graphs.generate", "graphs.diameter",
                     "loop.compose"):
            m[name + ".s"] = (self._total(name), "s")
        return m
