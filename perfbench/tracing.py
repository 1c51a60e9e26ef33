"""Spans around the gieskit names through which the layers call each other.

The tracer patches module attributes (`gieskit.search.best_move`,
`gieskit.search.has_path`, ...) for the duration of one learner call, so
the library itself carries no instrumentation. Every wrapped call becomes a
span (id, parent id, name, start, end). Two hot leaves are not stored one
by one, to keep millions of records out of memory: `local_score` calls are
folded into their parent span as a time total plus counters, and
`MoveCandidate` constructions are only counted (their cost stays in the
parent's self time, as the enumeration cost it is).

A span's self time is its duration minus the durations of its stored
children and the time folded into it.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import gieskit.baselines
import gieskit.scoring
import gieskit.search
from gieskit import ScoringError

# (module, attribute, span name) of every stored span
SPANNED = (
    (gieskit.search, "best_move", "search.best_move"),
    (gieskit.search, "apply_move", "search.apply_move"),
    (gieskit.search, "has_path", "graphs.has_path"),
    (gieskit.search, "cliques_in_neighborhood", "graphs.cliques_in_neighborhood"),
    (gieskit.search, "lexbfs", "graphs.lexbfs"),
    (gieskit.search, "replace_unprotected", "interventions.replace_unprotected"),
    (gieskit.baselines, "has_path", "graphs.has_path"),
)
LOCAL_SCORE_USERS = (gieskit.search, gieskit.baselines, gieskit.scoring)
CANDIDATE_USERS = (gieskit.search, gieskit.baselines)
ERROR_NAMES = ("InsufficientSamples", "SingularDesign")


class Tracer:
    def __init__(self):
        # stored spans: (id, parent id, name, start, end, folded s, outcome)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self._stack: list[list] = []  # open spans: [id, folded s]
        self._next_id = 1
        self.origin = perf_counter()

    def span(self, name: str, fn, keep_outcome: bool = False):
        """fn wrapped so that each call records one span."""

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else 0
            frame = [sid, 0.0]
            self._stack.append(frame)
            out = None
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans.append((
                    sid, parent, name, t0 - self.origin, t1 - self.origin,
                    frame[1], bool(out) if keep_outcome else None,
                ))

        return wrapper

    def _local_score(self, fn):
        def local_score(v, parents, data, penalty="total", cache=None):
            misses = cache.misses if cache is not None else -1
            t0 = perf_counter()
            try:
                return fn(v, parents, data, penalty=penalty, cache=cache)
            except ScoringError as exc:
                self.counts["local_score.errors." + type(exc).__name__] += 1
                raise
            finally:
                dt = perf_counter() - t0
                kind = "hit" if cache is not None and cache.misses == misses else "fit"
                self.counts["local_score." + kind] += 1
                self.seconds["local_score." + kind] += dt
                if self._stack:
                    self._stack[-1][1] += dt

        return local_score

    def _candidate(self, cls):
        def candidate(*args, **kwargs):
            self.counts["candidates"] += 1
            return cls(*args, **kwargs)

        return candidate

    @contextmanager
    def patched(self):
        """Route the layer boundaries through the tracer while open."""
        saved = []

        def swap(module, attr, new):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, new)

        try:
            for module, attr, name in SPANNED:
                swap(module, attr, self.span(
                    name, getattr(module, attr), keep_outcome=attr == "has_path"
                ))
            for module in LOCAL_SCORE_USERS:
                swap(module, "local_score", self._local_score(module.local_score))
            for module in CANDIDATE_USERS:
                swap(module, "MoveCandidate", self._candidate(module.MoveCandidate))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    # -- reduction ------------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s[4] - s[3] for s in self.spans if s[2] == name]

    def layer_metrics(self, root_id: int) -> dict:
        """Per-name call counts, total and self times of the spans under
        the root span, plus the lazy-check split of has_path."""
        children: dict[int, list[tuple]] = defaultdict(list)
        for s in self.spans:
            children[s[1]].append(s)
        calls: Counter = Counter()
        total: Counter = Counter()
        self_s: Counter = Counter()
        lazy = Counter()
        by_id = {s[0]: s for s in self.spans}
        stack = [by_id[root_id]]
        while stack:
            s = stack.pop()
            kids = children.get(s[0], [])
            stack.extend(kids)
            dur = s[4] - s[3]
            calls[s[2]] += 1
            total[s[2]] += dur
            self_s[s[2]] += dur - s[5] - sum(k[4] - k[3] for k in kids)
            if s[2] == "graphs.has_path" and by_id[s[1]][2] == "search.best_move":
                lazy["checks"] += 1
                lazy["rejects"] += s[6]
                lazy["s"] += dur
        return {"calls": calls, "s": total, "self_s": self_s, "lazy": lazy}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, separators=(",", ":")) + "\n")


def per_layer(tracer: Tracer, root_id: int, steps: int, setup: Tracer,
              simulate_s: float, fit_untraced: float, fit_traced: float) -> dict:
    """The per-layer metrics of one traced learner call: (value, unit)."""
    m = tracer.layer_metrics(root_id)
    calls, total, self_s, lazy = m["calls"], m["s"], m["self_s"], m["lazy"]
    c, sec = tracer.counts, tracer.seconds
    hits, fits = c["local_score.hit"], c["local_score.fit"]
    out = {
        "scoring.local_score.calls": (hits + fits, "count"),
        "scoring.local_score.hits": (hits, "count"),
        "scoring.local_score.fits": (fits, "count"),
        "scoring.local_score.hit_ratio": (hits / (hits + fits) if hits + fits else 0.0, "ratio"),
        "scoring.local_score.hit_s": (sec["local_score.hit"], "s"),
        "scoring.local_score.fit_s": (sec["local_score.fit"], "s"),
    }
    for err in ERROR_NAMES:
        out["scoring.local_score.errors." + err] = (c["local_score.errors." + err], "count")
    out["scoring.read_csv_s"] = (statistics.median(setup.durations("scoring.read_csv")), "s")
    out["scoring.check_family_s"] = (statistics.median(setup.durations("scoring.check_family")), "s")
    for name in ("search.best_move", "search.apply_move"):
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".s"] = (total[name], "s")
        out[name + ".self_s"] = (self_s[name], "s")
    out["search.candidates"] = (c["candidates"], "count")
    out["search.candidates_per_step"] = (c["candidates"] / steps if steps else 0.0, "count")
    out["search.lazy_checks"] = (lazy["checks"], "count")
    out["search.lazy_rejects"] = (lazy["rejects"], "count")
    out["search.lazy_check_s"] = (lazy["s"], "s")
    out["search.steps"] = (steps, "count")
    for name in ("graphs.cliques_in_neighborhood", "graphs.has_path", "graphs.lexbfs",
                 "interventions.replace_unprotected"):
        out[name + ".calls"] = (calls[name], "count")
        out[name + ".s"] = (total[name], "s")
    out["baselines.dp_exact.self_s"] = (self_s["baselines.dp_exact"], "s")
    out["baselines.gds.self_s"] = (self_s["baselines.gds"], "s")
    out["simulate.simulate_s"] = (simulate_s, "s")
    out["trace.overhead"] = (fit_traced / fit_untraced, "ratio")
    out["trace.fit_s_traced"] = (fit_traced, "s")
    out["trace.fit_s_untraced"] = (fit_untraced, "s")
    return {k: (v if unit == "count" else float(v), unit) for k, (v, unit) in out.items()}
