from fractions import Fraction

import numpy as np
import pytest

from quandlelab import polysys
from quandlelab.errors import InvalidParamsError, NotInvolutionError
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
