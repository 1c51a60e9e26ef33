"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each criterion is checked end to end at its stated tolerance and runtime
budget. The explicit-representative checks rebuild class members by brute
force over component orientations, independently of the library's own
orientation code.
"""

from __future__ import annotations

import statistics
import sys
import time

import numpy as np
import pytest

import cases
import oracles
from gieskit import (
    Dag,
    GiesOptions,
    Graph,
    MoveCandidate,
    MoveKind,
    SimConfig,
    TargetFamily,
    apply_move,
    count_non_essential,
    dp_exact,
    enumerate_representatives,
    essential_graph,
    gds,
    ges,
    gies,
    is_essential_graph,
    lexbfs,
    markov_equivalent,
    orient_by,
    random_dag,
    random_model,
    random_targets,
    sample,
    shd,
    simulate,
    substream,
    total_score,
)
from test_search import APPLIES, DELTAS, _all_valid_moves


_capture = None


@pytest.fixture(autouse=True)
def _criterion_capture(capfd):
    # keep the active capture handle so criterion() can write around it
    global _capture
    _capture = capfd
    yield
    _capture = None


def criterion(num, ok, detail):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}\n"
    if _capture is not None:
        with _capture.disabled():
            sys.stdout.write(line)
    else:
        sys.stdout.write(line)
    assert ok, f"criterion {num}: {detail}"


# -- 1: brute-force class soundness on p=4 ---------------------------------------

FAMILIES_P4 = (
    (TargetFamily([()]), ((),), 185),
    (TargetFamily([(), (1,)]), ((), (1,)), 345),
    (TargetFamily([(), (1, 2)]), ((), (1, 2)), 412),
    (TargetFamily([(1,), (2,), (3,), (4,)]), ((1,), (2,), (3,), (4,)), 543),
)


def test_criterion_01_class_soundness_by_exhaustion():
    t0 = time.perf_counter()
    dags = [Dag(4, arrows=a) for a in oracles.all_dag_arrow_sets(4)]
    n = len(dags)
    assert n == 543
    bad = []
    class_counts = []
    for fam, members, expect_classes in FAMILIES_P4:
        sigs = [oracles.class_signature(4, d.arrows, members) for d in dags]
        groups: dict = {}
        for i, sig in enumerate(sigs):
            groups.setdefault(sig, []).append(i)
        class_counts.append(len(groups))
        if len(groups) != expect_classes:
            bad.append(f"{len(groups)} classes under {members}")
        # (a) the pairwise relation matches a partition, hence it is an
        # equivalence relation (reflexive pairs included)
        if not all(
            markov_equivalent(dags[i], dags[j], fam) == (sigs[i] == sigs[j])
            for i in range(n)
            for j in range(n)
        ):
            bad.append(f"partition mismatch under {members}")
        # (b) + (c): essential graph is the exact class union and passes the
        # structural characterization, for every DAG
        unions = {
            sig: oracles.union_graph(4, [dags[i].arrows for i in idxs])
            for sig, idxs in groups.items()
        }
        for i, d in enumerate(dags):
            e = essential_graph(d, fam)
            ua, ul = unions[sigs[i]]
            if e.graph != Graph(4, arrows=ua, lines=ul):
                bad.append(f"union mismatch at {d.arrows} under {members}")
                break
            if not is_essential_graph(e.graph, fam).ok:
                bad.append(f"condition violated at {d.arrows} under {members}")
                break
        # (d) enumeration returns exactly the class
        for sig, idxs in groups.items():
            e = essential_graph(dags[idxs[0]], fam)
            reps = {frozenset(r.arrows) for r in enumerate_representatives(e, limit=600)}
            if reps != {frozenset(dags[i].arrows) for i in idxs}:
                bad.append(f"representatives mismatch under {members}")
                break
    elapsed = time.perf_counter() - t0
    if elapsed >= 60:
        bad.append(f"too slow: {elapsed:.1f}s")
    criterion(1, not bad, bad or (
        f"543 DAGs x 4 families exact; classes {'/'.join(map(str, class_counts))};"
        f" {elapsed:.1f}s"
    ))


# -- 2: LexBFS reference ordering --------------------------------------------------


def test_criterion_02_lexbfs_reference():
    order = lexbfs(cases.LEXBFS_START, cases.chordal_7v())
    ok = tuple(order) == cases.LEXBFS_ORDER
    ok = ok and orient_by(order, cases.chordal_7v()) == cases.oriented_7v()
    criterion(2, ok, f"start {cases.LEXBFS_START} -> {tuple(order)}, orientation exact")


# -- 3: worked single-move figures --------------------------------------------------


def test_criterion_03_worked_figures():
    bad = []
    e = essential_graph(cases.dag_7v(), cases.FAM_T4).graph
    if e != cases.eg_7v_t4():
        bad.append("essential graph")
    for kind, start, u, v, C, want, name in [
        (MoveKind.INSERT, cases.eg_7v_t4(), 4, 2, {3}, cases.eg_7v_after_insert(),
         "insert (4,2,{3})"),
        (MoveKind.DELETE, cases.eg_7v_t4(), 2, 5, set(), cases.eg_7v_after_delete(),
         "delete (2,5,{})"),
        (MoveKind.TURN_LINE, cases.eg_7v_t4(), 5, 2, {3}, cases.eg_7v_after_turn_line(),
         "turn line (5,2,{3})"),
        (MoveKind.TURN_ARROW, cases.eg_5v(), 1, 2, {3}, cases.eg_5v_after_turn_arrow(),
         "turn arrow (1,2,{3})"),
    ]:
        move = MoveCandidate(kind, u, v, frozenset(C), 0.0)
        if apply_move(start, move, cases.FAM_T4) != want:
            bad.append(name)
    criterion(3, not bad, bad or "essential graph and all four applied moves exact")


# -- 4: chain identifiability --------------------------------------------------------


def test_criterion_04_chain_identifiability():
    t0 = time.perf_counter()
    p = 10
    bad = []
    for source in range(1, p + 1):
        d = cases.chain_dag(p, source)
        for v in range(1, p + 1):
            fam = TargetFamily([(), (v,)])
            e = essential_graph(d, fam)
            got = len(enumerate_representatives(e, limit=64))
            want = p - v if v < source else (v - 1 if v > source else 1)
            if got != want:
                bad.append(f"source {source}, target {v}: {got} != {want}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5:
        bad.append(f"too slow: {elapsed:.1f}s")
    criterion(4, not bad, bad[:4] or f"all 100 (source, target) counts exact; {elapsed:.1f}s")


# -- 5: move deltas and results against explicit representatives ----------------------


def _member_with(e, want):
    """A class member of essential graph e whose in-component parent sets
    match the {vertex: parents} constraints, found by brute force."""
    arrows = set(e.arrows)
    for comp in oracles.chain_components(e):
        if len(comp) == 1:
            continue
        needs = {v: ps for v, ps in want.items() if v in comp}
        for option in oracles.component_orientations(e.lines, comp):
            parents = {v: frozenset(a for a, b in option if b == v) for v in needs}
            if parents == needs:
                arrows |= set(option)
                break
        else:
            raise AssertionError(f"no orientation of {sorted(comp)} matches {needs}")
    return Dag(e.p, arrows=sorted(arrows))


def _explicit_transition(e, kind, u, v, C):
    """(member D, altered member D') realizing the move by one edge change."""
    C = frozenset(C)
    if kind is MoveKind.INSERT:
        d = _member_with(e, {v: C})
        change = set(d.arrows) | {(u, v)}
    elif kind is MoveKind.DELETE:
        if e.has_line(u, v):
            d = _member_with(e, {v: C | {u}, u: C})
        else:
            d = _member_with(e, {v: C})
        change = set(d.arrows) - {(u, v)}
    elif kind is MoveKind.TURN_LINE:
        N = e.neighbors(v) & e.adjacent(u)
        d = _member_with(e, {v: C, u: (C & N) | {v}})
        change = (set(d.arrows) - {(v, u)}) | {(u, v)}
    else:
        d = _member_with(e, {u: frozenset(), v: C})
        change = (set(d.arrows) - {(v, u)}) | {(u, v)}
    return d, Dag(e.p, arrows=sorted(change))


def test_criterion_05_move_delta_oracle():
    t0 = time.perf_counter()
    checked = 0
    bad = []
    for i in range(200):
        rs = substream(55, i, 4)
        s = float(rs.uniform(0.2, 0.8))
        truth = random_dag(5, s, substream(55, i, 0))
        fam = random_targets(5, i % 4, 1 + i % 2, substream(55, i, 2))
        model = random_model(truth, substream(55, i, 1))
        data = sample(model, fam, 200, substream(55, i, 3))
        if i % 3 == 0:
            state = truth
        elif i % 3 == 1:
            state = Dag(5)
        else:
            state = random_dag(5, s, substream(55, i, 5))
        e = essential_graph(state, fam).graph
        for kind, u, v, C in _all_valid_moves(e):
            d, d2 = _explicit_transition(e, kind, u, v, C)
            if essential_graph(d, fam).graph != e:
                bad.append(f"i={i} {kind.name} ({u},{v},{sorted(C)}): bad member")
                continue
            expected = essential_graph(d2, fam).graph
            got = APPLIES[kind](e, u, v, C, fam)
            if got != expected:
                bad.append(f"i={i} {kind.name} ({u},{v},{sorted(C)}): wrong result")
            delta = DELTAS[kind](e, u, v, C, data)
            rescored = total_score(d2, data) - total_score(d, data)
            if delta != pytest.approx(rescored, rel=1e-9, abs=1e-9):
                bad.append(
                    f"i={i} {kind.name} ({u},{v},{sorted(C)}): "
                    f"delta {delta} != rescore {rescored}"
                )
            checked += 1
    elapsed = time.perf_counter() - t0
    criterion(5, not bad, bad[:4] or (
        f"200 instances, {checked} valid moves: deltas at 1e-9, results match"
        f" explicit representatives; {elapsed:.1f}s"
    ))


# -- 6: greedy search matches the exact optimum -----------------------------------


def test_criterion_06_dp_parity():
    t0 = time.perf_counter()
    hits = 0
    shd_gies, shd_dp = [], []
    for r in range(30):
        sim = simulate(SimConfig(p=6, s=0.25, k=3, m=1, n=5000, seed=100), replicate=r)
        g = gies(sim.data, sim.fam, GiesOptions())
        d = dp_exact(sim.data, sim.fam)
        if g.score == pytest.approx(d.score, rel=1e-9):
            hits += 1
        shd_gies.append(shd(g.graph.graph, sim.dag).shd)
        shd_dp.append(shd(essential_graph(d.dag, sim.fam).graph, sim.dag).shd)
    elapsed = time.perf_counter() - t0
    med_gap = statistics.median(shd_gies) - statistics.median(shd_dp)
    ok = hits >= 18 and med_gap <= 1 and elapsed < 600
    criterion(6, ok, (
        f"optimum hit in {hits}/30 replicates, median SHD gap {med_gap:+.1f};"
        f" {elapsed:.1f}s"
    ))


# -- 7: identifiability grows with the number of targets -----------------------------


def test_criterion_07_identifiability_trend():
    t0 = time.perf_counter()
    ks = (0, 2, 4, 8, 10)
    counts = {k: [] for k in ks}
    for i in range(100):
        d = random_dag(10, 0.2, substream(77, i))
        for k in ks:
            fam = random_targets(10, k, 1, substream(78, i, k))
            counts[k].append(count_non_essential(essential_graph(d, fam)))
    medians = [statistics.median(counts[k]) for k in (0, 2, 4, 8)]
    fully = sum(c == 0 for c in counts[10]) / 100
    elapsed = time.perf_counter() - t0
    ok = (
        all(a >= b for a, b in zip(medians, medians[1:]))
        and fully >= 0.5
        and elapsed < 120
    )
    criterion(7, ok, (
        f"median non-essential over k 0/2/4/8: {'/'.join(map(str, medians))},"
        f" fully identifiable at k=10: {fully:.0%}; {elapsed:.1f}s"
    ))


# -- 8: interventions improve estimates; class search beats DAG search ----------------


def test_criterion_08_interventional_advantage():
    t0 = time.perf_counter()
    shd_gies = {0: [], 2: [], 8: []}
    shd_gds = {0: [], 2: []}
    for r in range(30):
        for k in (0, 2, 8):
            sim = simulate(
                SimConfig(p=10, s=0.2, k=k, m=1, n=1000, seed=200), replicate=r
            )
            g = gies(sim.data, sim.fam, GiesOptions())
            shd_gies[k].append(shd(g.graph.graph, sim.dag).shd)
            if k in shd_gds:
                b = gds(sim.data, sim.fam, GiesOptions())
                est = essential_graph(b.dag, sim.fam).graph
                shd_gds[k].append(shd(est, sim.dag).shd)
    med = {k: statistics.median(v) for k, v in shd_gies.items()}
    med_gds = {k: statistics.median(v) for k, v in shd_gds.items()}
    elapsed = time.perf_counter() - t0
    ok = (
        med[8] < med[0]
        and med[0] <= med_gds[0]
        and med[2] <= med_gds[2]
        and elapsed < 600
    )
    criterion(8, ok, (
        f"median SHD k=0/2/8: {med[0]}/{med[2]}/{med[8]};"
        f" DAG-space search {med_gds[0]}/{med_gds[2]} at k=0/2; {elapsed:.1f}s"
    ))


# -- 9: pooling interventional data misleads the observational search ------------------


def test_criterion_09_misspecification_trend():
    t0 = time.perf_counter()
    shd_ges = {500: [], 10_000: []}
    shd_gies = {500: [], 10_000: []}
    for r in range(20):
        for n in (500, 10_000):
            sim = simulate(
                SimConfig(p=10, s=0.2, k=4, m=4, n=n, seed=300), replicate=r
            )
            ref = essential_graph(sim.dag, sim.fam).graph
            g = ges(sim.data, GiesOptions())
            shd_ges[n].append(shd(g.graph.graph, ref).shd)
            g = gies(sim.data, sim.fam, GiesOptions())
            shd_gies[n].append(shd(g.graph.graph, ref).shd)
    elapsed = time.perf_counter() - t0
    mg = {n: statistics.median(v) for n, v in shd_ges.items()}
    mi = {n: statistics.median(v) for n, v in shd_gies.items()}
    ok = mg[10_000] > mg[500] and mi[10_000] < mi[500] and elapsed < 900
    criterion(9, ok, (
        f"median SHD n=500 -> n=10000: pooled search {mg[500]} -> {mg[10_000]},"
        f" interventional search {mi[500]} -> {mi[10_000]}; {elapsed:.1f}s"
    ))


# -- 10: equivalent structures score identically ---------------------------------------


def test_criterion_10_score_equivalence():
    t0 = time.perf_counter()
    bad = 0
    for i in range(500):
        p = 3 + i % 4
        rs = substream(110, i, 4)
        d = random_dag(p, float(rs.uniform(0.3, 0.9)), substream(110, i, 0))
        fam = random_targets(p, i % 3, 1, substream(110, i, 1))
        model = random_model(d, substream(110, i, 2))
        data = sample(model, fam, 120, substream(110, i, 3))
        reps = enumerate_representatives(essential_graph(d, fam), limit=4000)
        pick = rs.integers(0, len(reps), size=2)
        s1 = total_score(reps[int(pick[0])], data)
        s2 = total_score(reps[int(pick[1])], data)
        if abs(s1 - s2) > 1e-9 * max(1.0, abs(s1)):
            bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 120
    criterion(10, ok, (
        f"500 equivalent pairs scored within 1e-9 relative ({bad} failures);"
        f" {elapsed:.1f}s"
    ))


# -- 11: runtime grows polynomially ------------------------------------------------


def test_criterion_11_runtime_scaling():
    t0 = time.perf_counter()
    settings = {20: 3, 50: 3, 100: 2, 200: 1}
    medians = []
    for p, reps in settings.items():
        times = []
        for r in range(reps):
            sim = simulate(
                SimConfig(p=p, s=4 / (p - 1), k=int(0.4 * p), m=1, n=1000, seed=400),
                replicate=r,
            )
            t1 = time.perf_counter()
            gies(sim.data, sim.fam, GiesOptions())
            times.append(time.perf_counter() - t1)
        medians.append(statistics.median(times))
    slope = float(np.polyfit(np.log(list(settings)), np.log(medians), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = 1.5 <= slope <= 4.0 and elapsed < 1800
    times_str = "/".join(f"{t:.2f}" for t in medians)
    criterion(11, ok, (
        f"log-log slope {slope:.2f} over p=20/50/100/200"
        f" (medians {times_str}s); {elapsed:.0f}s total"
    ))
