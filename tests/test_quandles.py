from itertools import product

import numpy as np
import pytest

from quandlelab.errors import (
    GroupAxiomError,
    InvalidParamsError,
    MalformedTableError,
    OrderTooSmallError,
)
from quandlelab.fields import (
    build_field,
    build_field_q,
    poly_add,
    primitive_elements,
)
from quandlelab.polysys import prime_powers_upto
from quandlelab.quandles import (
    AxiomReport,
    Quandle,
    alexander,
    check_axioms,
    conj_quandle,
    core_quandle,
    dihedral,
    find_isomorphism,
    generating_set,
    inner_group,
    is_cyclic_type,
    is_dihedral_group,
    orbits,
    perm_closure,
    trivial,
    validate_group,
)
from quandlelab.counterexamples import s3_table


def test_dihedral_translations():
    Q = dihedral(3)
    assert Q.translation(0) == (0, 2, 1)
    assert Q.translation(1) == (2, 1, 0)
    assert Q.translation(2) == (1, 0, 2)


def test_trivial_table():
    Q = trivial(5)
    assert all(Q.op(x, y) == x for x in range(5) for y in range(5))


def test_alexander_gf4_is_three_cycles(F4):
    Q = alexander(F4, 2)
    for t in range(4):
        s = Q.translation(t)
        assert s[t] == t
        moved = [i for i in range(4) if s[i] != i]
        assert len(moved) == 3


def test_alexander_needs_invertible_alpha(F4):
    with pytest.raises(InvalidParamsError):
        alexander(F4, 0)


def test_check_axioms_known_good():
    assert check_axioms(dihedral(6).table).quandle
    assert check_axioms(core_quandle(s3_table()).table).quandle
    assert check_axioms(conj_quandle(s3_table()).table).quandle


def test_check_axioms_idempotence_witness():
    # constant shift x > y = x + 1: a rack, never a quandle
    table = [[(x + 1) % 3 for _ in range(3)] for x in range(3)]
    report = check_axioms(table)
    assert report.rack
    assert not report.quandle
    assert ("not-idempotent", (0,)) in report.failures


def test_check_axioms_distributivity_witness():
    T = dihedral(4).table.copy()
    T.setflags(write=True)
    T[1, 0], T[3, 0] = T[3, 0], T[1, 0]
    report = check_axioms(T)
    assert not report.rack
    assert ("not-right-distributive", (1, 0, 1)) in report.failures


def test_check_axioms_malformed():
    with pytest.raises(MalformedTableError):
        check_axioms([[0, 1]])
    with pytest.raises(MalformedTableError):
        check_axioms([[0, 2], [1, 0]])
    with pytest.raises(MalformedTableError):
        Quandle([[0, 0], [0, 1]])  # column 0 not bijective


def _full_scan_axioms(table) -> AxiomReport:
    """Reference check by loops: every column for bijectivity and every
    triple for right distributivity, O(n^3), with at most three witnesses
    per z, in the library's order."""
    T = np.asarray(table, dtype=int).tolist()
    n = len(T)
    failures = []
    bijective = True
    for y in range(n):
        if sorted(T[x][y] for x in range(n)) != list(range(n)):
            bijective = False
            failures.append(("translation-not-bijective", (y,)))
    distributive = True
    for z in range(n):
        witnesses = [(x, y) for x in range(n) for y in range(n)
                     if T[T[x][y]][z] != T[T[x][z]][T[y][z]]]
        distributive &= not witnesses
        failures += [("not-right-distributive", (x, y, z)) for x, y in witnesses[:3]]
    not_idempotent = [x for x in range(n) if T[x][x] != x]
    failures += [("not-idempotent", (x,)) for x in not_idempotent[:3]]
    rack = bijective and distributive
    return AxiomReport(rack=rack, quandle=rack and not not_idempotent, failures=failures)


def test_check_axioms_matches_full_scan_on_every_order_3_table():
    verdicts = set()
    for entries in product(range(3), repeat=9):
        T = np.array(entries).reshape(3, 3)
        report = check_axioms(T)
        assert report == _full_scan_axioms(T), T
        verdicts.add((report.rack, report.quandle))
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_check_axioms_matches_full_scan_on_seeded_tables():
    """Arbitrary tables, tables whose columns are random permutations, and
    relabeled quandles of orders 4-7 with one column composed with a
    random transposition (or left alone), which keeps every column
    bijective but may break distributivity off the generators."""
    rng = np.random.default_rng(20)
    known = [dihedral(n) for n in range(4, 8)] + [trivial(n) for n in range(4, 8)]
    for q in (4, 5, 7):
        F = build_field_q(q)
        known += [alexander(F, a) for a in range(1, q)]
    racks = 0
    for i in range(2000):
        kind = i % 3
        if kind == 0:
            n = int(rng.integers(4, 8))
            T = rng.integers(0, n, size=(n, n))
        elif kind == 1:
            n = int(rng.integers(4, 8))
            T = np.column_stack([rng.permutation(n) for _ in range(n)])
        else:
            Q = known[int(rng.integers(len(known)))]
            n = Q.order
            sigma = rng.permutation(n)
            T = np.empty((n, n), dtype=int)
            T[np.ix_(sigma, sigma)] = sigma[Q.table]
            if rng.random() < 0.8:
                z, a, b = rng.integers(n), *rng.choice(n, 2, replace=False)
                col = T[:, z].copy()
                T[col == a, z], T[col == b, z] = b, a
        report = check_axioms(T)
        assert report == _full_scan_axioms(T), T
        racks += report.rack
    assert racks >= 50


def test_check_axioms_catches_a_planted_non_generator_column():
    """(F_7, 3) is generated by 0 and 1; replacing column 4 by another
    permutation keeps every column bijective and breaks distributivity,
    which the generator columns alone would not show."""
    Q = alexander(build_field(7), 3)
    assert generating_set(Q) == [0, 1]
    T = Q.table.copy()
    T[:, 4] = T[[1, 0, 2, 3, 4, 5, 6], 4]
    assert (np.sort(T, axis=0) == np.arange(7)[:, None]).all()
    report = check_axioms(T)
    assert not report.rack and not report.quandle
    assert report == _full_scan_axioms(T)
    assert any(a == "not-right-distributive" and w[2] == 4 for a, w in report.failures)


def _greedy_loop_generating_set(Q) -> list[int]:
    """The greedy generating set by a closure over Python sets."""
    rows = Q.table.tolist()
    n = Q.order
    gens, closed = [], set()
    while len(closed) < n:
        gens.append(min(set(range(n)) - closed))
        closed = set(gens)
        frontier = list(gens)
        while frontier:
            new = []
            for a in list(closed):
                for b in frontier:
                    for c in (rows[a][b], rows[b][a]):
                        if c not in closed:
                            closed.add(c)
                            new.append(c)
            frontier = new
    return gens


def test_generating_set_matches_the_greedy_loop():
    quandles = [dihedral(n) for n in range(1, 31)] + [trivial(n) for n in range(1, 31)]
    for q in prime_powers_upto(30, minimum=2):
        F = build_field_q(q)
        quandles += [alexander(F, a) for a in range(1, q)]
    for n in range(1, 31):
        Zn = [[(a + b) % n for b in range(n)] for a in range(n)]
        quandles += [conj_quandle(Zn), core_quandle(Zn)]
    quandles += [conj_quandle(s3_table()), core_quandle(s3_table())]
    rng = np.random.default_rng(16)
    for q in prime_powers_upto(16, minimum=2):
        F = build_field_q(q)
        for a in range(1, q):
            sigma = rng.permutation(q)
            T = np.empty((q, q), dtype=int)
            T[np.ix_(sigma, sigma)] = sigma[alexander(F, a).table]
            quandles.append(Quandle(T))
    for Q in quandles:
        assert generating_set(Q) == _greedy_loop_generating_set(Q), Q


def test_validate_group_accepts_s3():
    e, inv = validate_group(s3_table())
    assert e == 0
    T = s3_table()
    assert all(T[a, inv[a]] == 0 for a in range(6))


def test_validate_group_rejects_broken_table():
    T = s3_table()
    T[1, 1] = 1  # breaks associativity/latin property
    with pytest.raises(GroupAxiomError):
        validate_group(T)


def test_conj_of_abelian_group_is_trivial():
    Z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    assert conj_quandle(Z4) == trivial(4)


def test_core_of_cyclic_group_is_dihedral():
    Zn = [[(a + b) % 5 for b in range(5)] for a in range(5)]
    # y x^{-1} y = 2y - x in additive notation
    assert core_quandle(Zn) == dihedral(5)


def test_orbits():
    assert orbits(dihedral(10)) == [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]]
    assert orbits(dihedral(7)) == [list(range(7))]
    assert orbits(trivial(4)) == [[0], [1], [2], [3]]


def test_inner_group_dihedral():
    g10 = inner_group(dihedral(10))
    assert g10.order == 10
    ok, m = is_dihedral_group(g10)
    assert ok and m == 5
    g7 = inner_group(dihedral(7))
    assert g7.order == 14
    ok, m = is_dihedral_group(g7)
    assert ok and m == 7
    assert inner_group(trivial(6)).order == 1


def test_inner_group_from_generating_set_is_all_translations():
    quandles = [dihedral(n) for n in range(3, 13)]
    for q in prime_powers_upto(16, minimum=2):
        F = build_field_q(q)
        quandles += [alexander(F, a) for a in primitive_elements(F)]
    quandles += [conj_quandle(s3_table()), core_quandle(s3_table()), trivial(5)]
    for Q in quandles:
        translations = sorted({Q.translation(t) for t in range(Q.order)})
        G = inner_group(Q)
        assert G.elements == perm_closure(translations), Q
        assert set(G.generators) == {Q.translation(t) for t in generating_set(Q)}


def test_inner_group_acts_by_automorphisms():
    for Q in (dihedral(6), dihedral(7), alexander(build_field(3, 2), 2)):
        for g in inner_group(Q).elements:
            for x in range(Q.order):
                for y in range(Q.order):
                    assert g[Q.op(x, y)] == Q.op(g[x], g[y])


def test_cyclic_type():
    assert is_cyclic_type(dihedral(3))
    assert not is_cyclic_type(dihedral(5))
    assert is_cyclic_type(alexander(build_field(2, 2), 2))
    with pytest.raises(OrderTooSmallError):
        is_cyclic_type(dihedral(2))


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_cyclic_type_iff_alexander_with_primitive(q):
    from quandlelab.fields import build_field_q

    F = build_field_q(q)
    for a in range(1, q):
        Q = alexander(F, a)
        assert is_cyclic_type(Q) == F.is_primitive(a)


@pytest.mark.parametrize("q", [4, 8, 9, 25, 27, 125])
def test_alexander_table_matches_digit_arithmetic(q):
    F = build_field_q(q)
    p = F.p
    # for q = 125, three primitive elements and base^4, which is not primitive
    alphas = range(1, q) if q < 125 else primitive_elements(F)[:3] + [F.exp_table[4]]
    for a in alphas:
        one_minus = F.from_coeffs(poly_add((1,), tuple(-c % p for c in F.coeffs(a)), p))
        assert one_minus == F.sub(1, a)
        ax = [F.coeffs(F._mul_poly(a, x)) for x in range(q)]
        by = [F.coeffs(F._mul_poly(one_minus, y)) for y in range(q)]
        expected = [[F.from_coeffs(poly_add(u, v, p)) for v in by] for u in ax]
        assert alexander(F, a).table.tolist() == expected


def test_cyclic_type_implies_connected():
    for q in (4, 5, 7, 8, 9, 11, 13):
        from quandlelab.fields import build_field_q

        F = build_field_q(q)
        for a in range(2, q):
            Q = alexander(F, a)
            if is_cyclic_type(Q):
                assert len(orbits(Q)) == 1


def test_find_isomorphism_examples(F5):
    F3 = build_field(3)
    assert find_isomorphism(dihedral(3), alexander(F3, 2)) is not None
    assert find_isomorphism(alexander(F5, 2), alexander(F5, 3)) is None
    Q = alexander(F5, 2)
    f = find_isomorphism(Q, Q)
    assert f is not None


def _corpus():
    F4 = build_field(2, 2)
    return [dihedral(n) for n in range(3, 9)] + [
        trivial(4), alexander(F4, 2), conj_quandle(s3_table()),
        core_quandle(s3_table())]


def test_find_isomorphism_is_reflexive_and_symmetric():
    corpus = _corpus()
    for Q in corpus:
        assert find_isomorphism(Q, Q) is not None
    for Q1 in corpus:
        for Q2 in corpus:
            f12 = find_isomorphism(Q1, Q2)
            f21 = find_isomorphism(Q2, Q1)
            assert (f12 is None) == (f21 is None)
            if f12 is not None:
                for x in range(Q1.order):
                    for y in range(Q1.order):
                        assert f12[Q1.op(x, y)] == Q2.op(f12[x], f12[y])


def test_find_isomorphism_budget():
    from quandlelab.errors import SearchBudgetError

    Q = dihedral(8)
    with pytest.raises(SearchBudgetError):
        find_isomorphism(Q, Q, budget=4)


def test_inner_group_closure_cap():
    from quandlelab.errors import ClosureBudgetError

    with pytest.raises(ClosureBudgetError):
        inner_group(dihedral(9), cap=5)


def test_translation_identity():
    # R_x(y > z) = R_x(y) > R_x(z)
    for Q in (dihedral(6), dihedral(7), trivial(3)):
        for x in range(Q.order):
            R = Q.translation(x)
            for y in range(Q.order):
                for z in range(Q.order):
                    assert R[Q.op(y, z)] == Q.op(R[y], R[z])


def test_translation_is_a_tuple_of_python_ints():
    Q = alexander(build_field(2, 3), 2)
    for t in range(Q.order):
        R = Q.translation(t)
        assert type(R) is tuple and all(type(v) is int for v in R)
        assert R == tuple(int(Q.op(y, t)) for y in range(Q.order))


def test_rinv_inverts_translation():
    for Q in (dihedral(5), alexander(build_field(2, 3), 2)):
        for x in range(Q.order):
            for y in range(Q.order):
                assert Q.rinv(Q.op(x, y), y) == x
                assert Q.op(Q.rinv(x, y), y) == x


def test_json_round_trip():
    Q = dihedral(8)
    text = Q.to_json()
    Q2 = Quandle.from_json(text)
    assert Q2 == Q
    assert Q2.label == "dihedral 8"
    assert np.array_equal(Q2.table, Q.table)
