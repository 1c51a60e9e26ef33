"""Class-level oracle for the four GIES operators.

Hauser & Bühlmann (JMLR 2012) define each operator by the classes it
reaches. From the class of an essential graph E, insert reaches the classes
[D'] of the DAGs D' made from a member D of E by adding one arrow, delete
those made by removing one, and turn those made by reversing one so that
the class changes; D' must be acyclic. A turn is a turn-line when E has a
line at the reversed pair and a turn-arrow when E has the arrow.

Here the members of E come from `oracles.component_orientations`, and
classes are told apart by `oracles.class_signature`. For each kind, the
classes that `apply_move` reaches through the moves `valid_move` accepts
must be exactly the brute-force classes. Every brute-force transition
must have a valid move of the same kind and pair that reaches its class
with the delta `total_score(D') - total_score(D)`, and every valid move
must be such a transition.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from gieskit import (
    Dag,
    Graph,
    MoveCandidate,
    MoveKind,
    ScoreCache,
    TargetFamily,
    apply_move,
    essential_graph,
    move_delta,
    random_model,
    sample,
    substream,
    total_score,
)
from test_search import _all_valid_moves

TURNS = (MoveKind.TURN_LINE, MoveKind.TURN_ARROW)

# every family holds the observational target, so it is conservative and
# class_signature tells its classes apart
FAMILIES4 = [[()], [(), (1,)], [(), (2,)], [(), (1, 3)], [(), (2,), (4,)]]


def _complete_model(p, seed):
    """A Gaussian model on the complete DAG 1 -> 2 -> ... -> p: no fit on
    its samples is singular, and by score equivalence the deltas of one
    dataset serve every class."""
    arrows = list(itertools.combinations(range(1, p + 1), 2))
    return random_model(Dag(p, arrows=arrows), substream(seed, 0))


MODEL4 = _complete_model(4, 20)
MODEL5 = _complete_model(5, 21)


def _members(e):
    """Arrow sets of every member of the class whose essential graph is e."""
    per_comp = [
        oracles.component_orientations(e.lines, comp)
        for comp in sorted(oracles.chain_components(e), key=min)
        if len(comp) > 1
    ]
    return [
        frozenset(e.arrows).union(*choice) for choice in itertools.product(*per_comp)
    ]


def _brute_transitions(e, targets, score):
    """(kind, u, v, class signature of D', delta) of every D' one arrow away
    from a member D of e's class, with D' acyclic and, for a turn, outside
    the class. Reversing v -> u gives u -> v, as the turn moves name it."""
    p = e.p
    out = []
    for D in _members(e):
        sig = oracles.class_signature(p, sorted(D), targets)
        base = score(D)
        for a, b in itertools.permutations(range(1, p + 1), 2):
            if (a, b) in D:
                turn = MoveKind.TURN_LINE if e.has_line(a, b) else MoveKind.TURN_ARROW
                steps = [
                    (MoveKind.DELETE, a, b, D - {(a, b)}),
                    (turn, b, a, D - {(a, b)} | {(b, a)}),
                ]
            elif (b, a) not in D:
                steps = [(MoveKind.INSERT, a, b, D | {(a, b)})]
            else:
                continue
            for kind, u, v, D2 in steps:
                if not oracles.is_acyclic_arrows(p, D2):
                    continue
                sig2 = oracles.class_signature(p, sorted(D2), targets)
                if kind in TURNS and sig2 == sig:
                    continue
                out.append((kind, u, v, sig2, score(D2) - base))
    return out


def _valid_transitions(e, fam, targets, data, cache):
    """{(kind, u, v, class signature of the reached class): [deltas]} over
    every valid move of e, the class read off one of its members."""
    out = {}
    for kind, u, v, C in _all_valid_moves(e):
        reached = apply_move(e, MoveCandidate(kind, u, v, C, 0.0), fam)
        sig = oracles.class_signature(e.p, sorted(_members(reached)[0]), targets)
        delta = move_delta(kind, e, u, v, C, data, cache)
        out.setdefault((kind, u, v, sig), []).append(delta)
    return out


def _check_operators(arrows, targets, data, cache):
    p = data.p
    fam = TargetFamily(targets)
    e = essential_graph(Dag(p, arrows=arrows), fam).graph

    def score(D):
        return total_score(Dag(p, arrows=D), data, cache=cache)

    brute = {}
    for kind, u, v, sig, delta in _brute_transitions(e, targets, score):
        brute.setdefault((kind, u, v, sig), []).append(delta)
    valid = _valid_transitions(e, fam, targets, data, cache)
    for kind in MoveKind:
        want = {key[3] for key in brute if key[0] is kind}
        got = {key[3] for key in valid if key[0] is kind}
        assert got == want, (kind, sorted(arrows), targets)
    # every brute-force transition has a valid move of its kind and pair
    # with its class and delta, and every valid move is such a transition
    for have, need in ((valid, brute), (brute, valid)):
        for key, deltas in need.items():
            for delta in deltas:
                assert any(abs(d - delta) <= 1e-9 for d in have.get(key, [])), (
                    key[:3], delta, have.get(key), sorted(arrows), targets,
                )


@pytest.mark.parametrize("targets", FAMILIES4, ids=str)
def test_operators_reach_exactly_the_brute_force_classes_on_every_dag4(targets):
    fam = TargetFamily(targets)
    data = sample(MODEL4, fam, 240, substream(20, 1))
    cache = ScoreCache(data)
    for arrows in oracles.all_dag_arrow_sets(4):
        _check_operators(arrows, targets, data, cache)


def _chordal_dags5():
    """One DAG without v-structures per isomorphism class of the chordal
    graphs on 5 vertices, oriented by `oracles.component_orientations`.
    Under the observational family each class is the whole chordal graph,
    so every shape of turn-line separation inside a neighbourhood of up to
    four vertices occurs; random DAGs at p = 5 seldom give one."""
    pairs = list(itertools.combinations(range(1, 6), 2))
    seen, out = set(), []
    for keep in itertools.product((False, True), repeat=len(pairs)):
        lines = [pair for pair, k in zip(pairs, keep) if k]
        if not oracles.is_chordal(range(1, 6), lines):
            continue
        shape = min(
            tuple(sorted(tuple(sorted((perm[a - 1], perm[b - 1]))) for a, b in lines))
            for perm in itertools.permutations(range(1, 6))
        )
        if shape not in seen:
            seen.add(shape)
            g = Graph(5, lines=lines)
            out.append(sorted(_members(g)[0]))
    return out


@pytest.mark.parametrize("targets", [[()], [(), (1,)]], ids=str)
def test_operators_reach_exactly_the_brute_force_classes_on_chordal_graphs5(targets):
    data = sample(MODEL5, TargetFamily(targets), 300, substream(21, 2))
    cache = ScoreCache(data)
    for arrows in _chordal_dags5():
        _check_operators(arrows, targets, data, cache)


@st.composite
def _dags5(draw):
    order = draw(st.permutations(range(1, 6)))
    keep = draw(st.lists(st.booleans(), min_size=10, max_size=10))
    pairs = itertools.combinations(order, 2)
    return [pair for pair, k in zip(pairs, keep) if k]


families5 = st.lists(
    st.sets(st.integers(1, 5), min_size=1, max_size=2).map(tuple), max_size=2
).map(lambda ts: [()] + ts)


@settings(max_examples=50)
@given(_dags5(), families5)
def test_operators_reach_exactly_the_brute_force_classes_at_p5(arrows, targets):
    data = sample(MODEL5, TargetFamily(targets), 300, substream(21, 1))
    _check_operators(arrows, targets, data, ScoreCache(data))
