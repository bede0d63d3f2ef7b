import json

import numpy as np
import pytest

from quandlelab.errors import NotPrimeError, NotPrimitiveError, ReducibleModulusError, ZeroArgumentError
from quandlelab.fields import (
    FieldSpec,
    build_field,
    build_field_q,
    discrete_log,
    euler_phi,
    is_irreducible,
    poly_add,
    poly_gcd,
    poly_mul,
    primitive_elements,
)
from quandlelab.polysys import prime_powers_upto


def test_rejects_composite_characteristic():
    with pytest.raises(NotPrimeError):
        build_field(4)
    with pytest.raises(NotPrimeError):
        build_field_q(12)


def test_rejects_reducible_modulus():
    with pytest.raises(ReducibleModulusError):
        build_field(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over Z_2
    with pytest.raises(ReducibleModulusError):
        build_field(5, 2, modulus=(0, 1))  # wrong degree


def test_default_moduli_are_deterministic():
    assert build_field(2, 2).spec.modulus == (1, 1, 1)
    assert build_field(5, 3).spec.modulus == (1, 1, 0, 1)
    assert build_field(3, 2).spec.modulus == (1, 0, 1)  # x^2 + 1 over Z_3


def test_prime_field_arithmetic(F5):
    assert F5.mul(2, 4) == 3
    assert F5.add(4, 3) == 2
    assert F5.inv(2) == 3
    assert F5.neg(2) == 3


def test_gf4_addition_cancels(F4):
    # t + (t + 1) = 1 in characteristic 2
    t = 2
    assert F4.add(t, t ^ 1) == 1
    assert F4.add(t, t) == 0


def _digit_add(F, a, b):
    """Oracle: add the coefficient vectors digit by digit."""
    return F.from_coeffs(poly_add(F.coeffs(a), F.coeffs(b), F.p))


def _digit_neg(F, a):
    return F.from_coeffs([-c % F.p for c in F.coeffs(a)])


def _check_table_arithmetic(F, pairs):
    for a in range(F.q):
        assert F.neg(a) == _digit_neg(F, a)
        assert F.add(a, F.neg(a)) == 0
    for a, b in pairs:
        assert F.add(a, b) == _digit_add(F, a, b)
        assert F.sub(a, b) == _digit_add(F, a, _digit_neg(F, b))
        assert F.neg(F.add(a, b)) == _digit_add(F, F.neg(a), F.neg(b))


@pytest.mark.parametrize("q", prime_powers_upto(64, minimum=2))
def test_zech_arithmetic_matches_digits_on_every_pair(q):
    F = build_field_q(q)
    _check_table_arithmetic(F, [(a, b) for a in range(q) for b in range(q)])


@pytest.mark.parametrize("q", [81, 125, 128, 243, 256, 729, 1024])
def test_zech_arithmetic_matches_digits_on_sampled_pairs(q):
    F = build_field_q(q)
    rng = np.random.default_rng(q)
    pairs = [tuple(pair) for pair in rng.integers(0, q, size=(2000, 2)).tolist()]
    # the zero cases and the cancelling pairs, where the Zech entry is empty
    pairs += [(0, 0), (0, q - 1), (q - 1, 0), (1, F.neg(1))]
    pairs += [(a, F.neg(a)) for a in rng.integers(1, q, size=50).tolist()]
    _check_table_arithmetic(F, pairs)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9, 16, 25, 27, 49])
def test_array_addition_matches_digits_on_every_pair(q):
    F = build_field_q(q)
    x = np.arange(q)
    expected = [[_digit_add(F, a, b) for b in range(q)] for a in range(q)]
    assert F.add_array(x[:, None], x[None, :]).tolist() == expected


def _poly_ext_gcd(a, b, p):
    """Oracle: extended Euclid over Z_p[x], returns (g, u, v) with ua+vb=g."""
    from quandlelab.fields import poly_divmod, poly_add

    r0, r1 = a, b
    s0, s1 = (1,), ()
    t0, t1 = (), (1,)
    while r1:
        q, r = poly_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, poly_add(s0, tuple(-c % p for c in poly_mul(q, s1, p)), p)
        t0, t1 = t1, poly_add(t0, tuple(-c % p for c in poly_mul(q, t1, p)), p)
    return r0, s0, t0


def test_gf125_inverse_against_extended_gcd(F125):
    alpha = F125.from_coeffs([2, 1, 2])
    g, u, _ = _poly_ext_gcd(F125.coeffs(alpha), F125.spec.modulus, 5)
    assert len(g) == 1  # constant gcd: alpha invertible
    scale = pow(g[0], -1, 5)
    inv_poly = tuple((c * scale) % 5 for c in u)
    assert F125.inv(alpha) == F125.from_coeffs(inv_poly)
    assert F125.mul(alpha, F125.inv(alpha)) == 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 16, 25, 27])
def test_exp_log_round_trip(q):
    F = build_field_q(q)
    assert len(F.exp_table) == q - 1
    assert sorted(F.exp_table) == list(range(1, q))
    assert F.exp_table[0] == 1
    for r in range(1, q):
        assert F.exp_table[F.log(r)] == r


@pytest.mark.parametrize("q", [4, 5, 8, 9, 16, 25, 27])
def test_log_is_additive(q):
    F = build_field_q(q)
    m = q - 1
    for a in range(1, q):
        assert F.log(F.inv(a)) == (-F.log(a)) % m
        for b in range(1, q):
            assert F.log(F.mul(a, b)) == (F.log(a) + F.log(b)) % m


def test_frobenius_is_additive_up_to_128():
    from quandlelab.polysys import prime_powers_upto

    for q in prime_powers_upto(128, minimum=2):
        F = build_field_q(q)
        p = F.p
        for a in range(q):
            for b in range(q):
                assert F.pow(F.add(a, b), p) == F.add(F.pow(a, p), F.pow(b, p))


def test_primitive_elements_gf5(F5):
    # oracle: direct powering
    prims = []
    for a in range(1, 5):
        seen = set()
        x = 1
        for _ in range(4):
            x = (x * a) % 5
            seen.add(x)
        if len(seen) == 4:
            prims.append(a)
    assert prims == [2, 3]
    assert primitive_elements(F5) == [2, 3]


def test_primitive_elements_gf4(F4):
    prims = primitive_elements(F4)
    assert prims == [2, 3]
    for a in prims:
        assert F4.order(a) == 3


def test_primitive_elements_gf125_count(F125):
    assert len(primitive_elements(F125)) == 60 == euler_phi(124)


def test_discrete_log(F5, F125):
    assert discrete_log(F5, 2, 1) == 0
    assert discrete_log(F5, 2, 3) == 3  # 2^3 = 8 = 3 mod 5
    alpha = F125.from_coeffs([2, 1, 2])
    beta = F125.from_coeffs([1, 2, 3])
    assert discrete_log(F125, alpha, beta) == 25
    assert F125.pow(alpha, 25) == beta


def test_discrete_log_errors(F5):
    with pytest.raises(ZeroArgumentError):
        discrete_log(F5, 2, 0)
    with pytest.raises(NotPrimitiveError):
        discrete_log(F5, 4, 3)  # 4 has order 2
    with pytest.raises(ZeroArgumentError):
        F5.inv(0)


def test_irreducibility_test_agrees_with_roots():
    # degree <= 3 over small primes: irreducible iff no roots
    for p in (2, 3, 5):
        for deg in (2, 3):
            for low in range(p ** deg):
                digits = []
                v = low
                for _ in range(deg):
                    digits.append(v % p)
                    v //= p
                cand = tuple(digits) + (1,)
                has_root = any(
                    sum(c * pow(x, i, p) for i, c in enumerate(cand)) % p == 0
                    for x in range(p))
                assert is_irreducible(cand, p) == (not has_root)


def test_poly_gcd_is_monic_common_divisor():
    p = 5
    a = poly_mul((1, 1), (2, 0, 1), p)
    b = poly_mul((1, 1), (3, 1), p)
    assert poly_gcd(a, b, p) == (1, 1)


def test_field_spec_json_round_trip(F125):
    text = F125.spec.to_json()
    data = json.loads(text)
    assert data == {"p": 5, "n": 3, "modulus": [1, 1, 0, 1]}
    assert FieldSpec.from_json(text) == F125.spec
