"""Exact verification that the log-pairing equation system is unsolvable.

For a primitive alpha in GF(q), the map k -> log(1 - alpha^k) is an
involution of {1, ..., q-2}; in odd characteristic it has the single fixed
point -log(2) mod (q-1).  The associated complex equation system
x^k + x^phi(k) - 1 = 0 must have no common solutions, and this module
certifies that with exact integer/rational arithmetic only: the iterated
polynomial gcd of the system is a nonzero constant.

The involutions of all primitive elements of one field are read from one
pairing table (`presentation.pairing_tables`, one Zech-table gather per
alpha) and checked over the whole table at once by `log_involutions`;
`log_involution` runs the same check on one alpha's row.

In odd characteristic the fixed-point equation 2x^N - 1 = 0 anchors a fast
exact route: its reciprocal x^N - 2 is Eisenstein at 2, so 2x^N - 1 is
irreducible, and any other equation that fails to reduce to zero modulo
x^N = 1/2 forces a constant gcd.  That reduction is done in integers, with
every coefficient scaled by the largest power 2^S of 1/2 it meets.
Characteristic two has no fixed point and falls back to the general
subresultant chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidParamsError, NotInvolutionError
from .fields import FieldTable, prime_factors, primitive_elements
from .presentation import PresentationContext, pairing_tables

IntPoly = list[int]  # little-endian, no trailing zeros


def _trim(p: IntPoly) -> IntPoly:
    while p and p[-1] == 0:
        p.pop()
    return p


def degree(p: IntPoly) -> int:
    return len(p) - 1 if p else -1


def content(p: IntPoly) -> int:
    return math.gcd(*p) if p else 0


def primitive_part(p: IntPoly) -> IntPoly:
    if not p:
        return []
    c = content(p)
    sign = -1 if p[-1] < 0 else 1
    return [x // (sign * c) for x in p]


def pseudo_rem(f: IntPoly, g: IntPoly) -> IntPoly:
    """prem(f, g): the remainder of lc(g)^(deg f - deg g + 1) * f by g."""
    if not g:
        raise ZeroDivisionError("pseudo-remainder by zero polynomial")
    r = list(f)
    dg = degree(g)
    lg = g[-1]
    steps = degree(f) - dg + 1
    if steps <= 0:
        return _trim(r)
    for _ in range(steps):
        if degree(r) < dg:
            r = [lg * c for c in r]
            continue
        coef = r[-1]
        shift = degree(r) - dg
        r = [lg * c for c in r]
        for i, gi in enumerate(g):
            r[shift + i] -= coef * gi
        _trim(r)
    return r


def _exact_div(p: IntPoly, d: int) -> IntPoly:
    out = []
    for c in p:
        q, rem = divmod(c, d)
        if rem:
            raise AssertionError("inexact division in subresultant sequence")
        out.append(q)
    return out


def subresultant_prs(f: IntPoly, g: IntPoly) -> list[IntPoly]:
    """Polynomial remainder sequence with the subresultant divisors, which
    keep all intermediate coefficients integral and polynomially sized."""
    f, g = _trim(list(f)), _trim(list(g))
    if degree(f) < degree(g):
        f, g = g, f
    if not g:
        return [f]
    prs = [f, g]
    a, b = f, g
    delta = degree(a) - degree(b)
    beta = (-1) ** (delta + 1)
    psi = -1
    while True:
        r = pseudo_rem(a, b)
        if not r:
            return prs
        r = _exact_div(r, beta)
        prs.append(r)
        lc_b = b[-1]
        if delta > 0:
            num = (-lc_b) ** delta
            den = psi ** (delta - 1)
            if den == 0 or num % den:
                raise AssertionError("inexact psi update in subresultant sequence")
            psi = num // den
        delta_new = degree(b) - degree(r)
        beta = -lc_b * psi ** delta_new
        delta = delta_new
        a, b = b, r


def int_poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Exact gcd in Z[x] via the subresultant remainder sequence."""
    f, g = _trim(list(f)), _trim(list(g))
    if not f:
        return primitive_part(g) if g else []
    if not g:
        return primitive_part(f)
    cf, cg = content(f), content(g)
    last = subresultant_prs(primitive_part(f), primitive_part(g))[-1]
    gcd_pp = primitive_part(last)
    c = math.gcd(cf, cg)
    return [c * x for x in gcd_pp] if degree(gcd_pp) > 0 else [c]


@dataclass(frozen=True)
class LogInvolution:
    """The pairing k <-> log(1 - alpha^k) on {1, ..., q-2}."""

    q: int
    alpha: int
    phi: tuple[int, ...]          # phi[k] for k in 1..q-2; phi[0] unused
    fixed_points: tuple[int, ...]

    def pair_representatives(self) -> list[int]:
        return [k for k in range(1, self.q - 1) if k <= self.phi[k]]


def _checked_fixed_points(F: FieldTable, alphas: list[int],
                          table: np.ndarray) -> list[tuple[int, ...]]:
    """The fixed points of each row of a pairing table (`pairing_tables`),
    checked with array masks over the whole table: every row must be an
    involution of {1, ..., q-2}, with the single fixed point -log(2) mod
    (q-1) in odd characteristic and none in characteristic two.  The first
    failing row raises, naming its first failing k, as a per-alpha, per-k
    loop would."""
    m = F.q - 1
    ks = np.arange(1, m)
    image = table[:, 1:]
    bad = (image < 1) | (image > m - 1)
    bad |= np.take_along_axis(table, np.where(bad, 0, image), axis=1) != ks  # phi(phi(k))
    fixed = image == ks
    if F.p == 2:
        expected = None
        wrong = fixed.any(axis=1)
    else:
        # -log_alpha(2) = -log(2) * log(alpha)^-1 mod (q-1), in 1..q-2
        log_two = F.log(F.add(1, 1))
        expected = [(-log_two * pow(F.log(a), -1, m)) % m for a in alphas]
        at_expected = fixed[np.arange(len(alphas)), np.array(expected, dtype=np.int64) - 1]
        wrong = (fixed.sum(axis=1) != 1) | ~at_expected
    failing = np.flatnonzero(bad.any(axis=1) | wrong)
    if failing.size:
        i = int(failing[0])
        if bad[i].any():
            phi = table[i].tolist()
            k = int(np.argmax(bad[i])) + 1
            raise NotInvolutionError(f"k={k}: phi(phi(k)) = {phi[phi[k]]} != k")
        if expected is None:
            raise NotInvolutionError("characteristic two admits no fixed point")
        found = tuple(ks[fixed[i]].tolist())
        raise NotInvolutionError(
            f"fixed points {found}, expected exactly {{-log(2) = {expected[i]}}}")
    return [()] * len(alphas) if expected is None else [(e,) for e in expected]


def log_involution(F: FieldTable, alpha: int) -> LogInvolution:
    """Build and verify the involution; odd characteristic must produce the
    single fixed point -log(2) mod (q-1), characteristic two none."""
    if F.q <= 3:
        raise InvalidParamsError("the equation system needs q > 3")
    phi = PresentationContext(F, alpha).phi
    fixed, = _checked_fixed_points(F, [alpha], np.array([phi]))
    return LogInvolution(F.q, alpha, phi, fixed)


def log_involutions(F: FieldTable) -> list[LogInvolution]:
    """`log_involution` for every primitive element of F, in the order of
    `primitive_elements`, read from one pairing table and checked over it
    at once; a failing table raises the message `log_involution` would
    raise at the first failing alpha."""
    if F.q <= 3:
        raise InvalidParamsError("the equation system needs q > 3")
    alphas = primitive_elements(F)
    table = pairing_tables(F, alphas)
    fixed = _checked_fixed_points(F, alphas, table)
    return [LogInvolution(F.q, a, tuple(phi), fp)
            for a, phi, fp in zip(alphas, table.tolist(), fixed)]


def system_poly(inv: LogInvolution, k: int) -> IntPoly:
    """x^k + x^phi(k) - 1 as an integer polynomial."""
    top = max(k, inv.phi[k])
    p = [0] * (top + 1)
    p[0] -= 1
    p[k] += 1
    p[inv.phi[k]] += 1
    return _trim(p)


@dataclass
class GcdStep:
    poly: str
    degree_after: int
    note: str = ""


@dataclass
class Certificate:
    """Record of the iterated-gcd computation for one (q, alpha)."""

    q: int
    alpha: int
    fixed_point: int | None
    steps: list[GcdStep] = field(default_factory=list)
    final_degree: int = -1
    method: str = ""

    @property
    def no_solutions(self) -> bool:
        return self.final_degree == 0


def _reduce_mod_fixed(inv: LogInvolution, k: int, N: int) -> tuple[int, dict[int, int]]:
    """P_k reduced exactly modulo x^N = 1/2, in integers: (S, c) with the
    residue sum_r c[r] x^r / 2^S and every c[r] nonzero, so a nonempty c
    means P_k is nonzero.  x^e reduces to x^(e mod N) / 2^(e // N); S is the
    largest e // N, so each term's coefficient is scaled by 2^(S - e // N)."""
    terms = ((k, 1), (inv.phi[k], 1), (0, -1))
    S = max(e // N for e, _ in terms)
    acc: dict[int, int] = {}
    for e, c in terms:
        acc[e % N] = acc.get(e % N, 0) + (c << (S - e // N))
    return S, {r: c for r, c in acc.items() if c}


def system_has_no_solution(inv: LogInvolution, method: str = "auto") -> Certificate:
    """Certify that the equations x^k + x^phi(k) - 1 = 0 share no complex
    solution, by exact iterated gcd.

    method 'auto' uses the fixed-point anchor when one exists (odd
    characteristic) and the subresultant chain otherwise; 'subresultant'
    forces the general chain.  The anchor 2x^N - 1 needs no check: its
    reciprocal x^N - 2 is Eisenstein at 2 for every N.
    """
    if method not in ("auto", "subresultant"):
        raise InvalidParamsError(f"unknown method {method!r}")
    fp = inv.fixed_points[0] if inv.fixed_points else None
    cert = Certificate(inv.q, inv.alpha, fp)

    if method == "auto" and fp is not None:
        N = fp
        cert.method = "fixed-point-anchor"
        cert.steps.append(GcdStep(f"P_{N} = 2x^{N}-1", N, "irreducible (Eisenstein)"))
        cert.final_degree = N
        # the representatives k <= phi(k) in ascending order of the degree
        # phi(k), read off the involution as k = phi(top) for each top
        for top in range(1, inv.q - 1):
            k = inv.phi[top]
            if k > top or k == N:
                continue
            _, residue = _reduce_mod_fixed(inv, k, N)
            if residue:
                cert.steps.append(GcdStep(
                    f"P_{k}", 0,
                    f"P_{k} mod (x^{N}-1/2) nonzero of degree {max(residue)}"))
                cert.final_degree = 0
                return cert
            cert.steps.append(GcdStep(f"P_{k}", N, "multiple of the anchor"))
        return cert

    cert.method = "subresultant-chain"
    # the equations in ascending degree, built as the chain reaches them:
    # the representative of degree top is k = phi(top), as above
    g: IntPoly | None = None
    for top in range(1, inv.q - 1):
        k = inv.phi[top]
        if k > top:
            continue
        if g is None:
            g = system_poly(inv, k)
            cert.steps.append(GcdStep("P(first)", degree(g)))
        else:
            g = int_poly_gcd(g, system_poly(inv, k))
            cert.steps.append(GcdStep("P(next)", degree(g)))
        if degree(g) == 0:
            break
    cert.final_degree = degree(g)
    return cert


def verify_sum_identity(inv: LogInvolution) -> bool:
    """Summing every equation gives 2*(x + ... + x^(q-2)) - (q-2) exactly,
    because phi permutes the exponents."""
    m = inv.q - 1
    total = [Fraction(0)] * (m + 1)
    for k in range(1, m):
        p = system_poly(inv, k)
        for i, c in enumerate(p):
            total[i] += c
    expected = [Fraction(-(m - 1))] + [Fraction(2)] * (m - 1) + [Fraction(0)]
    return total == expected


def prime_powers_upto(n: int, minimum: int = 4) -> list[int]:
    return [q for q in range(max(2, minimum), n + 1) if len(prime_factors(q)) == 1]
