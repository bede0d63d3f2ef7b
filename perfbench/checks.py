"""Output checks made apart from the library.

Every check takes plain data (numbers, tuples, numpy arrays) and raises
`Wrong` when the data contradicts what the mathematics says it must be.  The
expected values are computed here: the dihedral label multisets are written
out from the classification, the field arithmetic behind the Alexander
tables, the discrete logs and the appendix fixed points is re-implemented
below, and residuals and ranks are taken with numpy.  The library's results
are only read, never trusted.

`negative_controls` plants a wrong output for each check and confirms that
the check rejects it, so a check that can never fail shows up.
"""

from __future__ import annotations

import functools
import math
from collections import Counter

import numpy as np

RESIDUAL_TOL = 1e-9


class Wrong(Exception):
    """An output contradicts its independently computed expectation."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise Wrong(msg)


# -- number theory and finite fields, re-implemented --

def totient(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if math.gcd(k, m) == 1)


def prime_powers(lo: int, hi: int) -> list[int]:
    """Prime powers q with lo <= q <= hi."""
    out = []
    for q in range(max(lo, 2), hi + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = q
        while m % p == 0:
            m //= p
        if m == 1:
            out.append(q)
    return out


class OwnField:
    """GF(p^n) on the library's element encoding (index = sum c_i p^i with
    the coefficients of a polynomial reduced modulo `modulus`), with its own
    polynomial arithmetic and its own powers of `base`."""

    def __init__(self, p: int, modulus: tuple[int, ...], base: int):
        self.p, self.n = p, len(modulus) - 1
        self.q = p ** self.n
        self.m = self.q - 1
        self.modulus = modulus
        self.weights = p ** np.arange(self.n)
        self.digits = (np.arange(self.q)[:, None] // self.weights[None, :]) % p
        self.exp = np.zeros(self.m, dtype=np.int64)
        self.log = np.full(self.q, -1, dtype=np.int64)
        e = 1
        for k in range(self.m):
            require(self.log[e] < 0, f"GF({self.q}): base {base} is not primitive")
            self.exp[k], self.log[e] = e, k
            e = self._mulmod(e, base)
        require(e == 1, f"GF({self.q}): powers of {base} do not close")

    def _mulmod(self, a: int, b: int) -> int:
        p, n = self.p, self.n
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(self.digits[a]):
            for j, bj in enumerate(self.digits[b]):
                prod[i + j] = (prod[i + j] + int(ai) * int(bj)) % p
        for top in range(2 * n - 2, n - 1, -1):  # modulus is monic of degree n
            c = prod[top]
            if c:
                for i, mi in enumerate(self.modulus):
                    prod[top - n + i] = (prod[top - n + i] - c * mi) % p
        return int(np.dot(prod[:n], self.weights))

    def add(self, a, b):
        return ((self.digits[a] + self.digits[b]) % self.p) @ self.weights

    def neg(self, a):
        return ((-self.digits[a]) % self.p) @ self.weights

    def mul(self, a, b):
        a, b = np.asarray(a), np.asarray(b)
        prod = self.exp[(self.log[a] + self.log[b]) % self.m]
        return np.where((a == 0) | (b == 0), 0, prod)


def own_field(F) -> OwnField:
    """The re-implemented field on the same modulus and base as F."""
    return _own_field(F.p, tuple(F.spec.modulus), F.base)


@functools.cache
def _own_field(p: int, modulus: tuple[int, ...], base: int) -> OwnField:
    return OwnField(p, modulus, base)


# -- representations --

def dihedral_labels(n: int) -> Counter:
    """Irreducible parts of the regular representation of the dihedral
    quandle R_n, as (kind, a, b) with C(lam, mu) the scalars of R_1, R_2 and
    W(r, s) the two-dimensional part whose rotation R_2 R_1 has eigenvalue
    e^(2 pi i s / r), 1 <= s < r/2.

    n odd: R_2 R_1 is x -> x + 2 of order n; the constants and one W(n, s)
    for each s = 1..(n-1)/2.  n even: the two orbits (evens, odds) each carry
    the regular action of Z_(n/2); each gives one constant, W(n/2, s) for
    s < n/4, and when n/2 is even the sign character, read as C(-1, 1) on
    the evens and C(1, -1) on the odds.
    """
    if n % 2:
        return Counter([("C", 1, 1)] + [("W", n, s) for s in range(1, (n - 1) // 2 + 1)])
    r = n // 2
    labels = [("C", 1, 1)] * 2 + [("W", r, s) for s in range(1, (r - 1) // 2 + 1)] * 2
    if r % 2 == 0:
        labels += [("C", -1, 1), ("C", 1, -1)]
    return Counter(labels)


def parts_residual(mats: np.ndarray, basis: np.ndarray) -> float:
    """max over x of ||(I - P) M_x B|| with P the orthogonal projector on
    span(B), from numpy's QR of B."""
    qb, _ = np.linalg.qr(basis)
    d = mats.shape[1]
    proj = np.eye(d) - qb @ qb.conj().T
    return max(float(np.linalg.norm(proj @ m @ basis)) for m in mats)


def decomposition(mats: np.ndarray, parts: list[tuple], labels: Counter | None = None,
                  dims: list[int] | None = None) -> None:
    """parts: (label, basis) pairs.  Dims sum to the space, every part is
    invariant, the parts span the space, and labels or dims are as expected."""
    d = mats.shape[1]
    part_dims = [b.shape[1] for _, b in parts]
    require(sum(part_dims) == d, f"dims {part_dims} do not sum to {d}")
    if dims is not None:
        require(sorted(part_dims) == sorted(dims), f"dims {sorted(part_dims)}, expected {dims}")
    if labels is not None:
        got = Counter(lbl for lbl, _ in parts)
        require(got == labels, f"labels {dict(got)}, expected {dict(labels)}")
    for lbl, b in parts:
        res = parts_residual(mats, b)
        require(res <= RESIDUAL_TOL, f"part {lbl} has invariance residual {res:.2e}")
    stacked = np.hstack([b for _, b in parts])
    s = np.linalg.svd(stacked, compute_uv=False)
    require(int(np.sum(s > 1e-8 * s[0])) == d, "parts do not span the space")


def quandle_axioms(T: np.ndarray) -> None:
    """Idempotence, bijective right translations and right
    self-distributivity (x>y)>z = (x>z)>(y>z), one z at a time."""
    T = np.asarray(T)
    n = T.shape[0]
    ident = np.arange(n)
    require(np.array_equal(np.diagonal(T), ident), "not idempotent")
    require(np.array_equal(np.sort(T, axis=0), np.tile(ident[:, None], (1, n))),
            "a right translation is not bijective")
    for z in range(n):
        col = T[:, z]
        require(np.array_equal(col[T], T[col[:, None], col[None, :]]),
                f"not right distributive at z={z}")


def alexander_table(T: np.ndarray, own: OwnField, alpha: int) -> None:
    """T is the table x > y = alpha x + (1 - alpha) y of GF(q) and a quandle."""
    x = np.arange(own.q)
    one_minus = own.add(1, own.neg(alpha))
    expect = own.add(own.mul(alpha, x)[:, None], own.mul(one_minus, x)[None, :])
    require(np.array_equal(np.asarray(T), expect), "table is not the Alexander table")
    quandle_axioms(T)


# -- exact verification --

def presentation(q: int, max_len: int, relations: int, images: int, words: int) -> None:
    require(words == 2 * (4 ** max_len - 1) // 3, f"{words} words for max_len {max_len}")
    require(images == q, f"{images} canonical images, expected {q}")
    require(relations == 2 * (q - 1), f"{relations} relations, expected {2 * (q - 1)}")


def frobenius_equivalent(own: OwnField, a: int, b: int) -> bool:
    """b = a^(p^s) for some s, read on the discrete-log exponents."""
    la, lb = int(own.log[a]), int(own.log[b])
    return any(la * own.p ** s % own.m == lb for s in range(own.n))


def classification(own: OwnField, classes: list[tuple[int, ...]]) -> None:
    """classes: member tuples.  phi(q-1)/n classes, each one Frobenius orbit,
    together the primitive elements."""
    expected = totient(own.m) // own.n
    require(len(classes) == expected, f"{len(classes)} classes, expected {expected}")
    prims = {int(own.exp[k]) for k in range(1, own.m) if math.gcd(k, own.m) == 1}
    members = [x for c in classes for x in c]
    require(sorted(members) == sorted(prims), "classes do not partition the primitives")
    for c in classes:
        la = int(own.log[c[0]])
        orbit = {int(own.exp[la * own.p ** s % own.m]) for s in range(own.n)}
        require(set(c) == orbit, f"class {c} is not a Frobenius orbit")


def isomorphism(T1: np.ndarray, T2: np.ndarray, f, expect_iso: bool) -> None:
    """f is None exactly when no isomorphism should exist; otherwise it is a
    bijection with f(x > y) = f(x) > f(y)."""
    if f is None:
        require(not expect_iso, "no isomorphism found between isomorphic quandles")
        return
    require(expect_iso, "an isomorphism was returned between non-isomorphic quandles")
    fa = np.asarray(f)
    require(np.array_equal(np.sort(fa), np.arange(len(T1))), "map is not a bijection")
    require(np.array_equal(fa[T1], T2[fa[:, None], fa[None, :]]), "map is not a homomorphism")


def appendix_rows(rows: list[dict], qmax: int, fields: dict) -> None:
    """One row per primitive element of every GF(q), 4 <= q <= qmax.  Odd q:
    the involution's fixed point is -log_alpha(2) and the system has no
    solution; q = 4: solvable (x^2 + x - 1 = 0 has roots); characteristic 2
    with q >= 8: no solution and no fixed point."""
    by_q: dict[int, list[dict]] = {}
    for r in rows:
        by_q.setdefault(r["q"], []).append(r)
    require(sorted(by_q) == prime_powers(4, qmax), "rows do not cover the prime powers")
    for q, qrows in by_q.items():
        m = q - 1
        logs = sorted(r["alpha_log"] for r in qrows)
        require(logs == [k for k in range(1, m) if math.gcd(k, m) == 1],
                f"q={q}: rows are not the primitive elements")
        for r in qrows:
            if q % 2:
                own = fields[q]
                log2 = int(own.log[2])
                fixed = -log2 * pow(r["alpha_log"], -1, m) % m
                require(r["fixed_point"] == fixed, f"q={q}: fixed point {r['fixed_point']}, expected {fixed}")
                require(r["no_solutions"], f"q={q}: odd q reported solvable")
            else:
                require(r["fixed_point"] is None, f"q={q}: fixed point in characteristic 2")
                require(r["no_solutions"] == (q >= 8), f"q={q}: verdict {r['no_solutions']}")


# -- infinite image --

def rigidity(found: bool) -> None:
    require(not found, "the rigidity search reports a second generator")


def maschke(jordan: bool, completely_reducible: bool, complement_found: bool,
            part_dims: list[int], d: int) -> None:
    if jordan:
        require(not completely_reducible, "Jordan B reported completely reducible")
        require(not complement_found, "Jordan B's eigenline has a complement")
        require(sum(part_dims) < d, "Jordan B's parts fill the space")
    else:
        require(completely_reducible, "diagonalizable B reported not completely reducible")
        require(complement_found, "diagonalizable B's eigenline has no complement")
        require(sum(part_dims) == d, "diagonalizable B's parts do not fill the space")


def jordan_blocks(planted: list[tuple[complex, int]], found: list[tuple[complex, int]]) -> None:
    """Block sizes equal the planted ones and each sits at its eigenvalue."""
    require(sorted(s for _, s in found) == sorted(s for _, s in planted),
            f"block sizes {sorted(s for _, s in found)}, planted {sorted(s for _, s in planted)}")
    for lam, s in planted:
        require(any(fs == s and abs(fl - lam) < 1e-6 for fl, fs in found),
                f"no block of size {s} at {lam}")


def cli_classify(text: str, rc: int, q: int, n: int) -> None:
    require(rc == 0, f"exit code {rc}")
    want = f"{totient(q - 1) // n} classes  (cross-verified: True)"
    require(text.strip() == want, f"output {text.strip()!r}, expected {want!r}")


# -- negative controls --

# idempotent with bijective right translations (x -> x > 1 and x -> x > 2
# are transpositions), but (0 > 1) > 2 = 2 differs from (0 > 2) > (1 > 2) = 1
NOT_DISTRIBUTIVE = np.array([[0, 2, 1], [1, 1, 0], [2, 0, 2]])


def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except Wrong:
        return True
    return False


def negative_controls(ql) -> list[str]:
    """Plant one wrong output per check; return the names of the controls
    whose check did not reject it, or whose true output was rejected."""
    bad = []

    def control(name, check, good, planted):
        if _rejects(check, *good) or not _rejects(check, *planted):
            bad.append(name)

    rep = ql.regular_rep(ql.dihedral(6))
    parts = [((p.label.kind, p.label.a, p.label.b), p.subspace.basis)
             for p in ql.decompose(rep).parts]
    swapped = [((("C", -1, 1) if lbl == ("C", 1, 1) else lbl), b) for lbl, b in parts]
    control("swapped dihedral label", decomposition,
            (rep.matrices, parts, dihedral_labels(6)),
            (rep.matrices, swapped, dihedral_labels(6)))
    bent = [(lbl, b) for lbl, b in parts]
    bent[0] = (bent[0][0], bent[0][1] + 1e-6 * np.eye(6)[:, :bent[0][1].shape[1]])
    control("non-invariant part", decomposition,
            (rep.matrices, parts, dihedral_labels(6)),
            (rep.matrices, bent, dihedral_labels(6)))
    control("parts that do not span", decomposition,
            (rep.matrices, parts, dihedral_labels(6)),
            (rep.matrices, parts[:-1] + [parts[0]], None))

    F = ql.build_field_q(8)
    own = own_field(F)
    a = ql.primitive_elements(F)[0]
    T = np.array(ql.alexander(F, a).table)
    altered = T.copy()
    altered[1, 2] = altered[1, 3]
    control("altered Alexander table entry", alexander_table, (T, own, a), (altered, own, a))
    control("quandle table that is not distributive", quandle_axioms, (T,), (NOT_DISTRIBUTIVE,))
    arep = ql.regular_rep(ql.alexander(F, a))
    aparts = [(None, p.subspace.basis) for p in ql.decompose(arep).parts]
    (l1, b1), (l2, b2) = sorted(aparts, key=lambda p: p[1].shape[1])
    shifted = [(l1, np.hstack([b1, b2[:, :1]])), (l2, b2[:, 1:])]
    control("Alexander dims off by one", decomposition,
            (arep.matrices, aparts, None, [1, F.q - 1]),
            (arep.matrices, shifted, None, [1, F.q - 1]))

    control("word count off by one", presentation, (8, 6, 14, 8, 2730), (8, 6, 14, 8, 2731))
    cls = [c.members for c in ql.classify_cyclic(8).classes]
    control("class count off by one", classification, (own, cls), (own, cls[:-1]))
    b = int(own.exp[own.log[a] * 2 % own.m])  # a^2, Frobenius-equivalent to a
    T2 = np.array(ql.alexander(F, b).table)
    f = ql.find_isomorphism(ql.alexander(F, a), ql.alexander(F, b))
    f_bad = None if f is None else [f[1], f[0]] + list(f[2:])
    control("isomorphism with two images swapped", isomorphism,
            (T, T2, f, True), (T, T2, f_bad, True))
    control("isomorphism verdict flipped", isomorphism,
            (T, T, list(range(F.q)), True), (T, T, list(range(F.q)), False))

    rows4 = [{"q": 4, "alpha_log": k, "fixed_point": None, "no_solutions": False} for k in (1, 2)]
    flipped = [dict(rows4[0], no_solutions=True), rows4[1]]
    control("appendix verdict flipped at q=4", appendix_rows, (rows4, 4, {}), (flipped, 4, {}))
    F5 = ql.build_field_q(5)
    own5 = own_field(F5)
    good5 = rows4 + [{"q": 5, "alpha_log": k, "no_solutions": True,
                      "fixed_point": -int(own5.log[2]) * pow(k, -1, 4) % 4} for k in (1, 3)]
    moved = good5[:-1] + [dict(good5[-1], fixed_point=(good5[-1]["fixed_point"] + 1) % 4)]
    control("appendix fixed point moved", appendix_rows, (good5, 5, {5: own5}), (moved, 5, {5: own5}))

    control("rigidity counterexample reported", rigidity, (False,), (True,))
    control("Jordan B reported completely reducible", maschke,
            (True, False, False, [1], 2), (True, True, False, [1, 1], 2))
    control("diagonalizable B reported not completely reducible", maschke,
            (False, True, True, [1, 1], 2), (False, False, True, [1, 1], 2))
    control("constant-representation dims off by one", jordan_blocks,
            ([(2.0, 2), (3.0, 1)], [(2.0, 2), (3.0, 1)]),
            ([(2.0, 2), (3.0, 1)], [(2.0, 1), (2.0, 1), (3.0, 1)]))
    control("classify-cyclic count off by one", cli_classify,
            ("2 classes  (cross-verified: True)\n", 0, 16, 4),
            ("3 classes  (cross-verified: True)\n", 0, 16, 4))
    return bad
