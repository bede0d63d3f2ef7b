import numpy as np
import pytest

from quandlelab import presentation
from quandlelab.errors import (
    InvalidParamsError,
    NotPrimitiveError,
    VerificationFailureError,
    WordSyntaxError,
)
from quandlelab.fields import build_field, build_field_q, euler_phi, primitive_elements
from quandlelab.polysys import prime_powers_upto
from quandlelab.presentation import (
    FWD,
    INV,
    PresentationContext,
    PresentationReport,
    Word,
    X,
    Y,
    canonical_to_field,
    classify_cyclic,
    eliminate_inverses,
    evaluate_word,
    normalize,
    parse_word,
    prime_power_equivalent,
    product_coefficient,
    same_log_pattern,
    verify_presentation,
    xy,
)


# -- parsing --

def test_parse_flat_words():
    assert parse_word("x*y*y*x").tokens == (
        ("x", FWD), ("y", FWD), ("y", FWD), ("x", FWD))
    assert parse_word("x/y").tokens == (("x", FWD), ("y", INV))
    assert parse_word(" x * y ").tokens == (("x", FWD), ("y", FWD))


def test_parse_left_parenthesized_prefix():
    assert parse_word("(x*y)*x").tokens == parse_word("x*y*x").tokens
    assert parse_word("x*(y)").tokens == parse_word("x*y").tokens


def test_parse_rejects_compound_right_operand():
    with pytest.raises(WordSyntaxError) as exc:
        parse_word("x*(y*x)")
    assert exc.value.position == 3


@pytest.mark.parametrize("bad", ["", "x*", "*x", "x y", "x*z", "((x)", "x*y)"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(WordSyntaxError):
        parse_word(bad)


def test_word_str_round_trip():
    for text in ("x", "y*x", "x*y/y*x"):
        assert str(parse_word(text)) == text


# -- inverse elimination --

def test_eliminate_inverses():
    assert eliminate_inverses(parse_word("x/y"), 5).tokens == (
        ("x", FWD),) + (("y", FWD),) * 3
    assert eliminate_inverses(parse_word("x"), 7).tokens == (("x", FWD),)
    assert eliminate_inverses(parse_word("y/x/x"), 4).tokens == (
        ("y", FWD),) + (("x", FWD),) * 4


def test_eliminate_inverses_length_bound():
    for q in (4, 5, 9):
        for text in ("x/y/x/y", "y/x*x/y"):
            w = parse_word(text)
            assert len(eliminate_inverses(w, q)) <= len(w) * q


# -- normalization --

def test_normalize_examples(F4, F5):
    assert normalize(parse_word("x*y*x"), F4, 2) == Y
    assert normalize(parse_word("x*y*y*y"), F4, 2) == X
    assert normalize(parse_word("x*y"), F5, 2) == xy(1)
    # y*x^2 is the relation partner of x*y for alpha = 2
    assert normalize(parse_word("y*x*x"), F5, 2) == xy(1)
    assert normalize(parse_word("x"), F5, 2) == X
    assert normalize(parse_word("y/x"), F5, 3) == normalize(
        parse_word("y" + "*x" * 3), F5, 3)


def test_normalize_requires_primitive(F5):
    with pytest.raises(NotPrimitiveError):
        normalize(parse_word("x*y"), F5, 4)


def test_normalize_exponent_wraparound(F5):
    # z x^n = z x^(n mod q-1)
    for n in range(0, 10):
        w = parse_word("x*y" + "*x" * n)
        w_red = parse_word("x*y" + "*x" * (n % 4))
        assert normalize(w, F5, 2) == normalize(w_red, F5, 2)


def test_normalize_matches_field_on_random_words(F7):
    import random

    rng = random.Random(0)
    ctx = PresentationContext(F7, 3)
    for _ in range(300):
        tokens = [("x" if rng.random() < 0.5 else "y", FWD)]
        for _ in range(rng.randrange(1, 9)):
            tokens.append((rng.choice("xy"), rng.choice((FWD, INV))))
        w = Word(tuple(tokens))
        c = normalize(w, F7, 3, ctx)
        assert canonical_to_field(c, ctx) == evaluate_word(w, F7, 3)


def _fold_normalize(w: Word, ctx: PresentationContext):
    """The rewriting as a fold over the inverse-eliminated word, one rule
    per step."""
    m, phi = ctx.m, ctx.phi
    expanded = eliminate_inverses(w, ctx.q)
    on_y, r = expanded.tokens[0][0] == "y", 0
    for gen, _ in expanded.tokens[1:]:
        if on_y:
            if gen == "y":
                continue
            on_y, r = False, phi[1]
        elif gen == "y":
            r = (r + 1) % m
        elif r:
            t = (phi[r] + 1) % m
            if t == 0:
                on_y, r = True, 0
            else:
                r = phi[t]
    return Y if on_y else xy(r)


def test_normalize_matches_the_rule_fold_on_seeded_words():
    rng = np.random.default_rng(9)
    fields = {q: build_field_q(q) for q in prime_powers_upto(16, minimum=3)}
    contexts = [PresentationContext(F, a) for F in fields.values()
                for a in primitive_elements(F)]
    inverses = 0
    for _ in range(2000):
        ctx = contexts[int(rng.integers(len(contexts)))]
        tokens = [(str(rng.choice(["x", "y"])), FWD)]
        for _ in range(int(rng.integers(1, 10))):
            tokens.append((str(rng.choice(["x", "y"])), str(rng.choice([FWD, INV]))))
        w = Word(tuple(tokens))
        inverses += str(w).count(INV)
        assert normalize(w, ctx.F, ctx.alpha, ctx) == _fold_normalize(w, ctx), (ctx.q, str(w))
    assert inverses > 2000


@pytest.mark.parametrize("q", prime_powers_upto(16, minimum=3))
def test_verify_presentation_counts_every_length(q):
    F = build_field_q(q)
    for a in primitive_elements(F):
        for max_len in range(1, 7):
            assert verify_presentation(F, a, max_len) == PresentationReport(
                q, a, 2 * (q - 1), q, 2 * (4 ** max_len - 1) // 3)


def test_translation_tables_agree_with_repeated_steps(F7):
    """The /g table is the *g table applied q-2 times, and inverts it."""
    ctx = PresentationContext(F7, 3)
    for gen in "xy":
        fwd, inv = ctx.steps[gen, FWD], ctx.steps[gen, INV]
        for s in range(7):
            t = s
            for _ in range(5):
                t = fwd[t]
            assert inv[s] == t
            assert fwd[inv[s]] == s


def test_a_planted_wrong_table_entry_raises(F7, monkeypatch):
    """A wrong entry of the x-table is caught by the entry check, and, with
    that check bypassed, by the word enumeration."""
    build = presentation._rewrite_tables

    def planted(phi, m):
        tx, ty = build(phi, m)
        tx[2] = (tx[2] + 1) % (m + 1)
        return tx, ty

    monkeypatch.setattr(presentation, "_rewrite_tables", planted)
    with pytest.raises(VerificationFailureError, match="rewriting gives"):
        verify_presentation(F7, 3, max_len=3)
    with pytest.raises(VerificationFailureError, match="rewriting gives"):
        normalize(parse_word("x*y*y*x"), F7, 3)

    def unchecked(self):
        tx, ty = planted(self.phi, self.m)
        return {("x", FWD): tx, ("y", FWD): ty,
                ("x", INV): presentation._iterate(tx, self.q - 2),
                ("y", INV): presentation._iterate(ty, self.q - 2)}

    monkeypatch.setattr(PresentationContext, "steps", property(unchecked))
    with pytest.raises(VerificationFailureError, match="word"):
        verify_presentation(F7, 3, max_len=3)
    with pytest.raises(VerificationFailureError, match="rewriting produced"):
        normalize(parse_word("x*y*y*x"), F7, 3)


# -- the pairing table --

@pytest.mark.parametrize("q", prime_powers_upto(64, minimum=3))
def test_pairing_table_is_log_of_one_minus_power(q):
    """phi[k] and the logs to alpha against powers of alpha by repeated
    multiplication and 1 - alpha^k on the coefficient digits."""
    F = build_field_q(q)
    for alpha in primitive_elements(F):
        ctx = PresentationContext(F, alpha)
        powers = [1]
        for _ in range(q - 2):
            powers.append(F.mul(powers[-1], alpha))
        assert len(ctx.phi) == q - 1
        assert [ctx.dlog(v) for v in powers] == list(range(q - 1))
        for k in range(1, q - 1):
            digits = [-c for c in F.coeffs(powers[k])] or [0]
            digits[0] += 1
            assert powers[ctx.phi[k]] == F.from_coeffs(digits), (alpha, k)
            assert ctx.log_one_minus_pow(k) == ctx.phi[k]
            assert ctx.log_one_minus_pow(k - (q - 1)) == ctx.phi[k]


def test_log_one_minus_pow_rejects_multiples_of_q_minus_1(F7):
    ctx = PresentationContext(F7, 3)
    for k in (0, 6, -6, 12):
        with pytest.raises(ZeroDivisionError):
            ctx.log_one_minus_pow(k)


def test_alexander_step_inverts(F7):
    ctx = PresentationContext(F7, 3)
    for v in range(7):
        for g in range(7):
            assert ctx.act(v, g) == _act(F7, 3, v, g)
            assert ctx.act_inv(ctx.act(v, g), g) == v


# -- the product coefficient --

def test_product_coefficient_examples(F4, F5):
    assert product_coefficient(F5, 2, 1, 0) == 3  # 4 - 2 + 1
    assert product_coefficient(F4, 2, 1, 0) == 0  # t^2 + t + 1 = 0
    with pytest.raises(InvalidParamsError):
        product_coefficient(F5, 2, 0, 0)


def test_product_coefficient_diagonal(F5, F4):
    for F, alpha in ((F5, 2), (F5, 3), (F4, 2)):
        for r in range(1, F.q - 1):
            assert product_coefficient(F, alpha, r, r) == F.pow(alpha, r)


def _act(F, alpha, v, g, k=1):
    one_minus = F.sub(1, alpha)
    for _ in range(k):
        v = F.add(F.mul(alpha, v), F.mul(one_minus, g))
    return v


@pytest.mark.parametrize("q", [4, 5, 7, 8, 9])
def test_product_law_on_field_elements(q):
    """(x y^r)(x y^s) collapses to y when the coefficient vanishes and to
    x y^log(coefficient) otherwise -- checked in the concrete quandle."""
    F = build_field_q(q)
    for alpha in primitive_elements(F):
        ctx = PresentationContext(F, alpha)
        for r in range(q - 1):
            for s in range(q - 1):
                if r + s == 0:
                    continue
                u = _act(F, alpha, 0, 1, r)  # x y^r
                v = _act(F, alpha, 0, 1, s)
                prod = _act(F, alpha, u, v)
                c = product_coefficient(F, alpha, r, s)
                if c == 0:
                    assert prod == 1
                else:
                    assert prod == _act(F, alpha, 0, 1, ctx.dlog(c))


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_pair_swap_law_on_field_elements(q):
    # u v^r = v u^log(1-alpha^r) for distinct elements u, v
    F = build_field_q(q)
    for alpha in primitive_elements(F):
        ctx = PresentationContext(F, alpha)
        for u in range(q):
            for v in range(q):
                if u == v:
                    continue
                for r in range(1, q - 1):
                    lhs = _act(F, alpha, u, v, r)
                    rhs = _act(F, alpha, v, u, ctx.log_one_minus_pow(r))
                    assert lhs == rhs


@pytest.mark.parametrize("q", [4, 5, 7, 8])
def test_power_injectivity_on_field_elements(q):
    # for u != v: u v^k = u v^l iff k = l mod q-1
    F = build_field_q(q)
    m = q - 1
    for alpha in primitive_elements(F):
        for u in range(q):
            for v in range(q):
                if u == v:
                    continue
                images = [_act(F, alpha, u, v, k) for k in range(2 * m)]
                for k in range(2 * m):
                    for l in range(2 * m):
                        assert (images[k] == images[l]) == ((k - l) % m == 0)


def test_swap_law_at_word_level(F5):
    ctx = PresentationContext(F5, 2)
    for r in range(1, 4):
        t = ctx.log_one_minus_pow(r)
        lhs = normalize(parse_word("x" + "*y" * r), F5, 2)
        rhs = normalize(parse_word("y" + "*x" * t), F5, 2)
        assert lhs == rhs


# -- presentation verification --

@pytest.mark.parametrize("q,alphas", [(4, [2, 3]), (5, [2, 3])])
def test_verify_presentation_small(q, alphas):
    F = build_field_q(q)
    for a in alphas:
        report = verify_presentation(F, a, max_len=5)
        assert report.canonical_images == q
        assert report.words_checked == sum(2 ** (2 * k - 1) for k in range(1, 6))


def test_canonical_set_bijects(F7):
    ctx = PresentationContext(F7, 3)
    images = {canonical_to_field(Y, ctx)}
    images.update(canonical_to_field(xy(r), ctx) for r in range(6))
    assert images == set(range(7))


# -- prime power equivalence and classification --

def test_prime_power_equivalent_gf125(F125):
    a = F125.from_coeffs([2, 1, 2])
    b = F125.from_coeffs([1, 2, 3])
    g = F125.from_coeffs([3, 4, 3])
    assert prime_power_equivalent(F125, a, b)
    assert prime_power_equivalent(F125, b, a)
    assert not prime_power_equivalent(F125, a, g)
    assert prime_power_equivalent(F125, a, a)
    with pytest.raises(NotPrimitiveError):
        prime_power_equivalent(F125, a, 0)


def test_log_pattern_examples(F125, F5):
    a = F125.from_coeffs([2, 1, 2])
    b = F125.from_coeffs([1, 2, 3])
    g = F125.from_coeffs([3, 4, 3])
    assert same_log_pattern(F125, a, b)
    assert not same_log_pattern(F125, a, g)
    assert not same_log_pattern(F5, 2, 3)
    assert same_log_pattern(F5, 2, 2)


@pytest.mark.parametrize("q", prime_powers_upto(32, minimum=3))
def test_log_pattern_iff_prime_power_equivalent(q):
    F = build_field_q(q)
    prims = primitive_elements(F)
    for a in prims:
        for b in prims:
            assert same_log_pattern(F, a, b) == prime_power_equivalent(F, a, b)


def test_classify_counts(F125):
    assert classify_cyclic(4).count == 1
    assert classify_cyclic(5).count == 2
    assert classify_cyclic(3).count == 1
    result = classify_cyclic(125, F125)
    assert result.count == 20
    assert all(len(c.members) == 3 for c in result.classes)
    covered = {m for c in result.classes for m in c.members}
    assert covered == set(primitive_elements(F125))


def test_classify_respects_equivalence(F125):
    result = classify_cyclic(125, F125)
    a = F125.from_coeffs([2, 1, 2])
    b = F125.from_coeffs([1, 2, 3])
    g = F125.from_coeffs([3, 4, 3])
    assert result.class_of(a) == result.class_of(b)
    assert result.class_of(a) != result.class_of(g)


def test_classify_count_formula_all_prime_powers_to_128():
    for q in prime_powers_upto(128, minimum=3):
        n = 0
        m = q
        p = min(f for f in range(2, q + 1) if q % f == 0)
        while m > 1:
            m //= p
            n += 1
        assert classify_cyclic(q).count * n == euler_phi(q - 1), q


def test_classify_rejects_tiny():
    with pytest.raises(InvalidParamsError):
        classify_cyclic(2)
