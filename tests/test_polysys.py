from fractions import Fraction

import numpy as np
import pytest

from quandlelab import polysys
from quandlelab.errors import InvalidParamsError, NotInvolutionError, NotPrimitiveError
from quandlelab.fields import build_field_q, primitive_elements
from quandlelab.polysys import (
    int_poly_gcd,
    log_involution,
    prime_powers_upto,
    pseudo_rem,
    subresultant_prs,
    system_has_no_solution,
    system_poly,
    verify_sum_identity,
)


def test_involution_gf5(F5):
    inv = log_involution(F5, 2)
    assert inv.phi[1:] == (2, 1, 3)
    assert inv.fixed_points == (3,)
    assert inv.pair_representatives() == [1, 3]


def test_involution_gf7(F7):
    inv = log_involution(F7, 3)
    # -log_3(2) mod 6: 3^2 = 2, so the fixed point is 6 - 2 = 4
    assert inv.fixed_points == (4,)


def test_involution_char2_has_no_fixed_point(F4):
    assert log_involution(F4, 2).fixed_points == ()
    F8 = build_field_q(8)
    for a in primitive_elements(F8):
        assert log_involution(F8, a).fixed_points == ()


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 25, 27])
def test_fixed_point_is_minus_log_two(q):
    F = build_field_q(q)
    m = q - 1
    for a in primitive_elements(F):
        inv = log_involution(F, a)
        two = F.add(1, 1)
        from quandlelab.fields import discrete_log

        assert inv.fixed_points == ((-discrete_log(F, a, two)) % m,)


def _first_non_involution(phi, m):
    """The per-k check that log_involution's mask replaced: the message
    for the first k where phi leaves 1..m-1 or phi(phi(k)) != k."""
    for k in range(1, m):
        if not 1 <= phi[k] <= m - 1 or phi[phi[k]] != k:
            return f"k={k}: phi(phi(k)) = {phi[phi[k]]} != k"
    return None


@pytest.mark.parametrize("q", [5, 8, 13, 27])
def test_involution_check_names_the_first_failing_k(q, monkeypatch):
    """Corrupted tables (entries overwritten with values in 0..q-2, 0
    being out of range) raise the message of the per-k loop."""
    F = build_field_q(q)
    rng = np.random.default_rng(q)
    real = polysys.PresentationContext
    for trial in range(30):
        ctx = real(F, primitive_elements(F)[0])
        phi = list(ctx.phi)
        for k in rng.integers(1, q - 1, 1 + trial % 3):
            phi[k] = int(rng.integers(0, q - 1))
        ctx.phi = tuple(phi)
        expected = _first_non_involution(ctx.phi, q - 1)
        monkeypatch.setattr(polysys, "PresentationContext", lambda F, a, ctx=ctx: ctx)
        if expected is None:
            log_involution(F, ctx.alpha)
        else:
            with pytest.raises(NotInvolutionError) as exc:
                log_involution(F, ctx.alpha)
            assert str(exc.value) == expected


def test_involution_rejects_tiny_fields():
    with pytest.raises(InvalidParamsError):
        log_involution(build_field_q(3), 2)


def test_system_poly(F5):
    inv = log_involution(F5, 2)
    assert system_poly(inv, 1) == [-1, 1, 1]        # x^2 + x - 1
    assert system_poly(inv, 3) == [-1, 0, 0, 2]     # 2x^3 - 1
    assert system_poly(inv, 2) == system_poly(inv, 1)


# -- integer polynomial gcd --

def _frac_gcd(f, g):
    """Oracle: monic Euclid over the rationals."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]

    def deg(p):
        return len(p) - 1

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def rem(a, b):
        a = a[:]
        while a and deg(a) >= deg(b):
            c = a[-1] / b[-1]
            d = deg(a) - deg(b)
            for i, bc in enumerate(b):
                a[d + i] -= c * bc
            trim(a)
        return a

    f, g = trim(f), trim(g)
    while g:
        f, g = g, rem(f, g)
    return [c / f[-1] for c in f] if f else []


def _to_monic_fracs(p):
    return [Fraction(c, p[-1]) for c in p] if p else []


@pytest.mark.parametrize("f,g", [
    ([-1, 1, 1], [-1, 0, 0, 2]),
    ([2, -3, 1], [3, -4, 1]),
    ([6, 7, 1], [-6, -5, 1]),
    ([1, 2, 3, 4], [4, 3, 2, 1]),
    ([0, 0, 1], [0, 1]),
])
def test_int_gcd_matches_rational_euclid(f, g):
    got = int_poly_gcd(f, g)
    assert _to_monic_fracs(got) == _frac_gcd(f, g)


def test_int_gcd_spec_examples():
    # the fixed-point pairing for q=5: gcd(x^2+x-1, 2x^3-1) is constant
    assert int_poly_gcd([-1, 1, 1], [-1, 0, 0, 2]) == [1]
    assert int_poly_gcd([2, -3, 1], [3, -4, 1]) == [-1, 1]  # common root 1


def test_int_gcd_random_with_planted_factor():
    import random

    rng = random.Random(5)
    for _ in range(40):
        common = [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))] + [1]
        f1 = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]
        f2 = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))] + [1]

        def mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
            return out

        f, g = mul(common, f1), mul(common, f2)
        got = int_poly_gcd(f, g)
        assert _to_monic_fracs(got) == _frac_gcd(f, g)


def test_pseudo_rem_definition():
    # lc(g)^(df-dg+1) f = q g + prem(f, g)
    f, g = [1, 2, 0, 5], [3, 0, 2]
    r = pseudo_rem(f, g)
    assert len(r) - 1 < len(g) - 1
    # check with rational division
    lead = Fraction(g[-1]) ** (len(f) - len(g) + 1)
    a = [Fraction(c) * lead for c in f]
    b = [Fraction(c) for c in g]
    while a and len(a) >= len(b):
        c = a[-1] / b[-1]
        d = len(a) - len(b)
        for i, bc in enumerate(b):
            a[d + i] -= c * bc
        while a and a[-1] == 0:
            a.pop()
    assert a == [Fraction(c) for c in r]


def test_subresultant_prs_stays_integral():
    prs = subresultant_prs([-1, 1, 1, 0, 2, 1], [3, 0, -2, 1, 1])
    assert all(all(isinstance(c, int) for c in p) for p in prs)
    assert len(prs[-1]) >= 1


# -- the no-solution verdicts --

def test_no_solution_gf5(F5):
    inv = log_involution(F5, 2)
    cert = system_has_no_solution(inv)
    assert cert.no_solutions
    assert cert.method == "fixed-point-anchor"
    assert cert.fixed_point == 3
    sub = system_has_no_solution(inv, method="subresultant")
    assert sub.no_solutions


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31])
def test_fast_path_agrees_with_subresultant(q):
    F = build_field_q(q)
    for a in primitive_elements(F):
        inv = log_involution(F, a)
        fast = system_has_no_solution(inv)
        slow = system_has_no_solution(inv, method="subresultant")
        assert fast.no_solutions == slow.no_solutions


def _sorted_chain(inv):
    """The subresultant chain over every equation built first and sorted
    by degree: the reference for the chain built as it goes."""
    polys = sorted((system_poly(inv, k) for k in inv.pair_representatives()),
                   key=lambda p: len(p))
    g, degrees = polys[0], [len(polys[0]) - 1]
    for p in polys[1:]:
        if len(g) == 1:
            break
        g = polysys.int_poly_gcd(g, p)
        degrees.append(len(g) - 1)
    return degrees


@pytest.mark.parametrize("q", [4, 5, 8, 9, 16, 27, 32, 64])
def test_subresultant_chain_matches_the_sorted_build(q):
    """The chain reaches the equations in the order of the sorted list and
    stops at the same step, in both characteristics."""
    F = build_field_q(q)
    for a in primitive_elements(F):
        inv = log_involution(F, a)
        cert = system_has_no_solution(inv, method="subresultant")
        assert [step.degree_after for step in cert.steps] == _sorted_chain(inv)


def test_char2_small_field_is_genuinely_solvable(F4):
    """For the order-4 field the paired equations coincide, so the system
    is a single quadratic with roots; there is no fixed-point equation to
    rule them out.  The verdict must report that honestly."""
    inv = log_involution(F4, 2)
    cert = system_has_no_solution(inv)
    assert not cert.no_solutions
    polys = [system_poly(inv, k) for k in inv.pair_representatives()]
    assert polys == [[-1, 1, 1]]
    # the golden ratio root satisfies the one equation
    phi = (5 ** 0.5 - 1) / 2
    assert abs(phi ** 2 + phi - 1) < 1e-12


@pytest.mark.parametrize("q", [8, 16, 32])
def test_char2_larger_fields_have_constant_gcd(q):
    F = build_field_q(q)
    for a in primitive_elements(F):
        cert = system_has_no_solution(log_involution(F, a))
        assert cert.no_solutions
        assert cert.method == "subresultant-chain"


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
def test_sum_identity(q):
    F = build_field_q(q)
    for a in primitive_elements(F):
        assert verify_sum_identity(log_involution(F, a))


def test_prime_powers_upto():
    assert prime_powers_upto(32) == [4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
    assert prime_powers_upto(10, minimum=2) == [2, 3, 4, 5, 7, 8, 9]


# -- the per-field pairing table and the batched checks --

@pytest.fixture(scope="module")
def fields_upto_512():
    return {q: build_field_q(q) for q in prime_powers_upto(512)}


def test_pairing_tables_rows_are_the_context_tables(fields_upto_512):
    """Row i of `pairing_tables` is the table of PresentationContext(F,
    alphas[i]) for every primitive alpha with q <= 512, and below 64 it
    equals log_alpha(1 - alpha^k) computed by field arithmetic."""
    for q, F in fields_upto_512.items():
        prims = primitive_elements(F)
        table = polysys.pairing_tables(F, prims)
        assert table.shape == (len(prims), q - 1)
        for a, row in zip(prims, table.tolist()):
            ctx = polysys.PresentationContext(F, a)
            assert tuple(row) == ctx.phi, (q, a)
            if q <= 64:
                assert row[1:] == [ctx.dlog(F.sub(1, F.pow(a, k))) for k in range(1, q - 1)]


def test_pairing_tables_reject_non_primitive_elements():
    F = build_field_q(13)
    for bad in (0, 1, 3, 13):
        with pytest.raises(NotPrimitiveError):
            polysys.pairing_tables(F, [2, bad])


def test_log_involutions_equal_log_involution(fields_upto_512):
    for q in (4, 5, 8, 9, 16, 27, 64, 125, 128, 243, 256, 512):
        F = fields_upto_512[q]
        assert polysys.log_involutions(F) == [log_involution(F, a) for a in primitive_elements(F)]
    with pytest.raises(InvalidParamsError):
        polysys.log_involutions(build_field_q(3))


def _first_failure(F, table):
    """The message of a loop over the rows and then over k: the per-k
    involution check, then the fixed-point check, as `log_involution`
    makes them one alpha at a time."""
    m = F.q - 1
    for a, phi in zip(primitive_elements(F), table):
        for k in range(1, m):
            if not 1 <= phi[k] <= m - 1 or phi[phi[k]] != k:
                return f"k={k}: phi(phi(k)) = {phi[phi[k]]} != k"
        fixed = tuple(k for k in range(1, m) if phi[k] == k)
        if F.p == 2:
            if fixed:
                return "characteristic two admits no fixed point"
        else:
            from quandlelab.fields import discrete_log

            expected = (-discrete_log(F, a, F.add(1, 1))) % m
            if fixed != (expected,):
                return f"fixed points {fixed}, expected exactly {{-log(2) = {expected}}}"
    return None


@pytest.mark.parametrize("q", [5, 8, 13, 16, 27, 49])
def test_batched_check_names_the_first_failing_alpha_and_k(q, monkeypatch):
    """Corrupted pairing tables, with entries overwritten in 0..q-2 or a
    pair of the involution turned into two fixed points, raise the message
    of the loop over (alpha, k) at its first failure."""
    F = build_field_q(q)
    prims = primitive_elements(F)
    real = polysys.pairing_tables(F, prims)
    rng = np.random.default_rng(q)
    raised = 0
    for trial in range(40):
        table = real.copy()
        for _ in range(1 + trial % 3):
            i, k = int(rng.integers(len(prims))), int(rng.integers(1, q - 1))
            if trial % 2:
                table[i, k] = rng.integers(0, q - 1)
            elif table[i, k] != k:                  # k <-> phi(k) becomes two fixed points
                table[i, table[i, k]] = table[i, k]
                table[i, k] = k
        expected = _first_failure(F, table.tolist())
        monkeypatch.setattr(polysys, "pairing_tables", lambda F, alphas, t=table: t)
        if expected is None:
            polysys.log_involutions(F)
        else:
            raised += 1
            with pytest.raises(NotInvolutionError) as exc:
                polysys.log_involutions(F)
            assert str(exc.value) == expected
    assert raised >= 30


def _fraction_reduce(inv, k, N):
    """Oracle: P_k reduced modulo x^N = 1/2 over the rationals."""
    acc = {}
    for e, c in ((k, 1), (inv.phi[k], 1), (0, -1)):
        r = e % N
        acc[r] = acc.get(r, Fraction(0)) + Fraction(c, 2 ** (e // N))
    return {r: c for r, c in acc.items() if c}


def _fraction_certificate(inv):
    """Oracle: the fixed-point anchor route with the rational reduction."""
    N = inv.fixed_points[0]
    cert = polysys.Certificate(inv.q, inv.alpha, N, method="fixed-point-anchor")
    cert.steps.append(polysys.GcdStep(f"P_{N} = 2x^{N}-1", N, "irreducible (Eisenstein)"))
    cert.final_degree = N
    for k in sorted((k for k in inv.pair_representatives() if k != N),
                    key=lambda k: inv.phi[k]):
        residue = _fraction_reduce(inv, k, N)
        if residue:
            cert.steps.append(polysys.GcdStep(
                f"P_{k}", 0, f"P_{k} mod (x^{N}-1/2) nonzero of degree {max(residue)}"))
            cert.final_degree = 0
            return cert
        cert.steps.append(polysys.GcdStep(f"P_{k}", N, "multiple of the anchor"))
    return cert


def test_integer_reduction_matches_the_fraction_oracle(fields_upto_512):
    """On every odd (q, alpha) with q <= 512 the integer reduction equals
    the rational one on each equation the certificate reduces (on every
    representative for q <= 64), and the certificates are equal."""
    for q, F in fields_upto_512.items():
        if q % 2 == 0:
            continue
        for inv in polysys.log_involutions(F):
            N = inv.fixed_points[0]
            cert = system_has_no_solution(inv)
            assert cert == _fraction_certificate(inv), (q, inv.alpha)
            reduced = [int(step.poly[2:]) for step in cert.steps[1:]]
            if q <= 64:
                reduced = [k for k in inv.pair_representatives() if k != N]
            for k in reduced:
                S, c = polysys._reduce_mod_fixed(inv, k, N)
                assert {r: Fraction(v, 2 ** S) for r, v in c.items()} == _fraction_reduce(inv, k, N)
