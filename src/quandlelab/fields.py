"""Exact arithmetic in small finite fields GF(p^n).

Elements are identified with integers in [0, q): the index i encodes the
coefficient vector of a residue polynomial in little-endian base-p digits,
so 0 is the zero element and 1 the multiplicative identity.  Multiplication
goes through exp/log tables for a deterministically chosen primitive
element, and addition through the Zech logarithm of the same element,
a + b = base^i (1 + base^(j-i)) for a = base^i, b = base^j (K. Huber, "Some
comments on Zech's logarithms", IEEE Trans. IT 36(4), 1990).  The digit
arithmetic on coefficient vectors only builds the tables.  Everything is
exact; the intended scale is q up to a few thousand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import (
    NotPrimeError,
    NotPrimitiveError,
    ReducibleModulusError,
    ZeroArgumentError,
)

Poly = tuple[int, ...]  # little-endian coefficients over Z_p


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def prime_factors(m: int) -> list[int]:
    """Distinct prime factors of m, ascending."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def euler_phi(m: int) -> int:
    return reduce(lambda acc, f: acc // f * (f - 1), prime_factors(m), m)


# -- polynomial arithmetic over Z_p (little-endian tuples) --

def _trim(c: list[int]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(a: Poly, b: Poly, p: int) -> Poly:
    m = max(len(a), len(b))
    return _trim([( (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) ) % p
                  for i in range(m)])


def poly_mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                c[i + j] = (c[i + j] + ai * bj) % p
    return _trim(c)


def poly_divmod(a: Poly, b: Poly, p: int) -> tuple[Poly, Poly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    while len(r) >= len(b):
        coef = (r[-1] * inv_lead) % p
        deg = len(r) - len(b)
        q[deg] = coef
        for i, bi in enumerate(b):
            r[deg + i] = (r[deg + i] - coef * bi) % p
        while r and r[-1] == 0:
            r.pop()
    return _trim(q), _trim(r)


def poly_gcd(a: Poly, b: Poly, p: int) -> Poly:
    while b:
        a, b = b, poly_divmod(a, b, p)[1]
    if a:
        inv_lead = pow(a[-1], -1, p)
        a = tuple((c * inv_lead) % p for c in a)
    return a


def poly_powmod(base: Poly, e: int, mod: Poly, p: int) -> Poly:
    result: Poly = (1,)
    base = poly_divmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = poly_divmod(poly_mul(result, base, p), mod, p)[1]
        base = poly_divmod(poly_mul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def is_irreducible(m: Poly, p: int) -> bool:
    """Irreducibility over Z_p via gcd with x^(p^k) - x, k <= deg/2.

    Any nontrivial factor would have an irreducible factor of degree k <=
    deg(m)/2, and x^(p^k) - x is the product of all irreducibles of degree
    dividing k.
    """
    n = len(m) - 1
    if n < 1 or m[-1] == 0:
        return False
    if n == 1:
        return True
    x: Poly = (0, 1)
    xp = x
    for k in range(1, n // 2 + 1):
        xp = poly_powmod(xp, p, m, p)  # x^(p^k) mod m
        g = poly_gcd(m, poly_add(xp, tuple(-c % p for c in x), p), p)
        if len(g) > 1:
            return False
    return True


def poly_str(c: Poly | list[int]) -> str:
    """Little-endian rendering, e.g. (2, 1, 2) -> '2+x+2x^2'."""
    if not any(c):
        return "0"
    terms = []
    for i, ci in enumerate(c):
        if ci == 0:
            continue
        if i == 0:
            terms.append(str(ci))
        else:
            coef = "" if ci == 1 else str(ci)
            terms.append(f"{coef}x" if i == 1 else f"{coef}x^{i}")
    return "+".join(terms)


@dataclass(frozen=True)
class FieldSpec:
    """Defining data of GF(p^n): characteristic, extension degree, modulus."""

    p: int
    n: int
    modulus: Poly  # monic, degree n, irreducible over Z_p

    @property
    def q(self) -> int:
        return self.p ** self.n

    def to_json(self) -> str:
        return json.dumps({"p": self.p, "n": self.n, "modulus": list(self.modulus)})

    @classmethod
    def from_json(cls, text: str) -> "FieldSpec":
        d = json.loads(text)
        return cls(d["p"], d["n"], tuple(d["modulus"]))


def _default_modulus(p: int, n: int) -> Poly:
    """Lexicographically least monic irreducible of degree n (constant term
    varies fastest), so field construction is reproducible."""
    for low in range(p ** n):
        digits = []
        v = low
        for _ in range(n):
            digits.append(v % p)
            v //= p
        cand = tuple(digits) + (1,)
        if is_irreducible(cand, p):
            return cand
    raise ReducibleModulusError(f"no irreducible of degree {n} over Z_{p}")  # unreachable


class FieldTable:
    """GF(p^n) with exp/log tables for a fixed primitive element.

    The table's base primitive element is the least-index element of
    multiplicative order q-1; `exp_table[j]` is the index of base^j and
    `log_table` inverts it on nonzero elements.  `zech[k]` is
    log(1 + base^k), None where 1 + base^k = 0 (k = 0 for p = 2, k = (q-1)/2
    for odd p), and `neg_table[a]` is the index of -a.  `exp_array`,
    `log_array` and `zech_array` are numpy copies of the first three, with
    -1 where the list holds None; `add_array` gathers on them.
    """

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.p = spec.p
        self.n = spec.n
        self.q = spec.q
        self._pow_p = [spec.p ** k for k in range(spec.n)]
        self.base = self._find_primitive()
        self.exp_table: list[int] = []
        e = 1
        for _ in range(self.q - 1):
            self.exp_table.append(e)
            e = self._mul_poly(e, self.base)
        if e != 1:
            raise AssertionError("primitive element does not close the cycle")
        self.log_table: list[int | None] = [None] * self.q
        for j, idx in enumerate(self.exp_table):
            if self.log_table[idx] is not None:
                raise AssertionError("exp table repeats an element")
            self.log_table[idx] = j
        # 1 + e changes only digit 0 of e, which is e % p; log_table[0] is
        # None, so zech[k] is None where 1 + base^k = 0
        self.zech: list[int | None] = [
            self.log_table[e + 1 if e % self.p != self.p - 1 else e + 1 - self.p]
            for e in self.exp_table]
        half = (self.q - 1) // 2 if self.p != 2 else 0  # log(-1)
        self.neg_table = [0] + [self.exp_table[(j + half) % (self.q - 1)]
                                for j in self.log_table[1:]]
        self.exp_array = np.array(self.exp_table, dtype=np.int32)
        self.log_array = np.array([-1] + self.log_table[1:], dtype=np.int32)
        self.zech_array = np.array([-1 if z is None else z for z in self.zech], dtype=np.int32)

    # -- element <-> coefficient vector --

    def coeffs(self, a: int) -> Poly:
        return _trim([(a // pk) % self.p for pk in self._pow_p])

    def from_coeffs(self, c) -> int:
        c = list(c)
        if len(c) > self.n:
            c = list(poly_divmod(_trim(c), self.spec.modulus, self.p)[1])
        return sum((ci % self.p) * pk for ci, pk in zip(c, self._pow_p))

    def elements(self) -> range:
        return range(self.q)

    def element_str(self, a: int) -> str:
        return poly_str(self.coeffs(a))

    # -- arithmetic --

    def add(self, a: int, b: int) -> int:
        if a == 0:
            return b
        if b == 0:
            return a
        m = self.q - 1
        la = self.log_table[a]
        z = self.zech[(self.log_table[b] - la) % m]
        return 0 if z is None else self.exp_table[(la + z) % m]

    def neg(self, a: int) -> int:
        return self.neg_table[a]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg_table[b])

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp_table[(self.log_table[a] + self.log_table[b]) % (self.q - 1)]

    def add_array(self, a, b) -> np.ndarray:
        """Elementwise a + b over broadcast integer arrays, by the Zech rule
        of `add`; only the index, Zech and result arrays take the
        broadcast shape."""
        a, b = np.asarray(a), np.asarray(b)
        m = self.q - 1
        la, lb = self.log_array[a], self.log_array[b]
        idx = lb - la
        idx %= m
        z = self.zech_array[idx]
        np.add(la, z, out=idx)
        idx %= m
        out = self.exp_array[idx]
        out[z < 0] = 0
        np.copyto(out, a, where=b == 0)
        np.copyto(out, b, where=a == 0)
        return out

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroArgumentError("inverse of zero")
        return self.exp_table[(-self.log_table[a]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise ZeroArgumentError("negative power of zero")
        return self.exp_table[(self.log_table[a] * e) % (self.q - 1)]

    def log(self, r: int) -> int:
        """Discrete log with respect to the table's base element."""
        if r == 0:
            raise ZeroArgumentError("log of zero")
        return self.log_table[r]  # type: ignore[return-value]

    def order(self, a: int) -> int:
        if a == 0:
            raise ZeroArgumentError("order of zero")
        return (self.q - 1) // math.gcd(self.log_table[a], self.q - 1)

    def is_primitive(self, a: int) -> bool:
        return a != 0 and self.order(a) == self.q - 1

    # -- construction helpers (table-free arithmetic) --

    def _mul_poly(self, a: int, b: int) -> int:
        prod = poly_mul(self.coeffs(a), self.coeffs(b), self.p)
        return self.from_coeffs(poly_divmod(prod, self.spec.modulus, self.p)[1])

    def _find_primitive(self) -> int:
        target = self.q - 1
        if target == 1:
            return 1
        factors = prime_factors(target)
        for cand in range(2, self.q):
            c = self.coeffs(cand)
            if all(
                poly_powmod(c, target // f, self.spec.modulus, self.p) != (1,)
                for f in factors
            ):
                return cand
        raise AssertionError("no primitive element found")  # impossible for a field

    def __repr__(self) -> str:
        return (f"FieldTable(GF({self.q}), modulus={poly_str(self.spec.modulus)}, "
                f"base={self.element_str(self.base)})")


def build_field(p: int, n: int = 1, modulus=None) -> FieldTable:
    """Construct GF(p^n); the modulus defaults to the lexicographically
    least monic irreducible of degree n."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if modulus is None:
        modulus = _default_modulus(p, n)
    else:
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ReducibleModulusError(
                f"modulus must be monic of degree {n}, got {list(modulus)}"
            )
        if not is_irreducible(modulus, p):
            raise ReducibleModulusError(
                f"{poly_str(modulus)} is reducible over Z_{p}"
            )
    return FieldTable(FieldSpec(p, n, tuple(modulus)))


def build_field_q(q: int, modulus=None) -> FieldTable:
    """Construct GF(q) from a prime power q."""
    if q < 2:
        raise ValueError("q must be a prime power >= 2")
    p = prime_factors(q)
    if len(p) != 1:
        raise NotPrimeError(f"{q} is not a prime power")
    p = p[0]
    n = 0
    m = q
    while m > 1:
        m //= p
        n += 1
    if p ** n != q:
        raise NotPrimeError(f"{q} is not a prime power")
    return build_field(p, n, modulus)


def primitive_elements(F: FieldTable) -> list[int]:
    """All elements of multiplicative order q-1, ascending by index."""
    m = F.q - 1
    prim = [F.exp_table[j] for j in range(m) if math.gcd(j, m) == 1]
    return sorted(prim)


def discrete_log(F: FieldTable, alpha: int, r: int) -> int:
    """The unique k in [0, q-2] with alpha^k = r, for primitive alpha."""
    if r == 0:
        raise ZeroArgumentError("log of zero")
    if not F.is_primitive(alpha):
        raise NotPrimitiveError(f"element {alpha} is not primitive")
    m = F.q - 1
    la = F.log(alpha)
    return (F.log(r) * pow(la, -1, m)) % m
