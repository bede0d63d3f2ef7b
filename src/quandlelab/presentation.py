"""The two-generator presented quandle behind cyclic-type quandles.

Words over generators x, y (with the operation written * and its right
inverse /) are rewritten to the canonical set {x, y, x*y^r : 1 <= r <= q-2}
using the defining relations a*b^(q-1) = a and a*b^k = b*a^(log(1-alpha^k)).
The rewriting is a left fold, so it is tabulated once per (F_q, alpha): one
translation table per letter maps each of the q canonical forms to the form
after that letter.  The 2q entries of the x- and y-tables are checked
against the concrete Alexander quandle (F_q, alpha) under x -> 0, y -> 1 when
they are built, which by induction on the word length certifies every
word, and every normalization is still cross-validated against direct
evaluation; a mismatch is a hard error, not a report, because the
rewriting rules are the error-prone part.

Also here: prime-power equivalence of primitive elements and the resulting
classification of cyclic-type quandles, with phi(q-1)/n classes of size n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidParamsError,
    NotBijectiveError,
    NotPrimitiveError,
    RelationViolationError,
    VerificationFailureError,
    WordSyntaxError,
)
from .fields import FieldTable, build_field_q, euler_phi, primitive_elements

FWD = "*"
INV = "/"


@dataclass(frozen=True)
class Word:
    """A left-associated word: ((g1 op g2) op g3) ... ; the first token's
    op is carried for uniformity but never applied."""

    tokens: tuple[tuple[str, str], ...]  # (generator 'x'|'y', op '*'|'/')

    def __post_init__(self):
        if not self.tokens:
            raise WordSyntaxError("empty word", 0)

    def __str__(self) -> str:
        out = [self.tokens[0][0]]
        for gen, op in self.tokens[1:]:
            out.append(op + gen)
        return "".join(out)

    def __len__(self) -> int:
        return len(self.tokens)


class _Parser:
    """Recursive-descent parser for the restricted left-associated grammar.

    Right operands must be single generators (possibly parenthesized); a
    parenthesized compound on the right is rejected since general trees are
    outside the grammar.
    """

    def __init__(self, text: str):
        self.text = text
        self.i = 0

    def error(self, msg: str):
        raise WordSyntaxError(msg, self.i)

    def skip_ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.i] if self.i < len(self.text) else None

    def take(self) -> str:
        c = self.peek()
        if c is None:
            self.error("unexpected end of input")
        self.i += 1
        return c

    def parse(self, nested: bool = False) -> Word:
        tokens = self.parse_left_atom()
        while True:
            c = self.peek()
            if c is None or (nested and c == ")"):
                break
            if c not in (FWD, INV):
                self.error(f"expected '*' or '/', got {c!r}")
            self.i += 1
            tokens.append((self.parse_right_atom(), c))
        return Word(tuple(tokens))

    def parse_left_atom(self) -> list[tuple[str, str]]:
        c = self.take()
        if c in "xy":
            return [(c, FWD)]
        if c == "(":
            inner = self.parse(nested=True)
            if self.take() != ")":
                self.error("expected ')'")
            return list(inner.tokens)
        self.error(f"expected generator or '(', got {c!r}")

    def parse_right_atom(self) -> str:
        c = self.take()
        if c in "xy":
            return c
        if c == "(":
            start = self.i
            g = self.take()
            if g not in "xy" or self.peek() != ")":
                self.i = start
                self.error("non-atomic right operand")
            self.i += 1
            return g
        self.error(f"expected generator, got {c!r}")


def parse_word(text: str) -> Word:
    parser = _Parser(text)
    word = parser.parse()
    parser.skip_ws()
    if parser.i != len(parser.text):
        parser.error("trailing input")
    return word


def eliminate_inverses(w: Word, q: int) -> Word:
    """Replace each /g by (q-2) copies of *g, using a/b = a*b^(q-2)."""
    first = (w.tokens[0][0], FWD)
    out = [first]
    for gen, op in w.tokens[1:]:
        if op == FWD:
            out.append((gen, FWD))
        else:
            out.extend([(gen, FWD)] * (q - 2))
    return Word(tuple(out))


@dataclass(frozen=True, order=True)
class CanonicalForm:
    """An element of the canonical set: y, or x*y^r with 0 <= r <= q-2
    (r = 0 is the generator x itself)."""

    kind: str  # 'y' or 'xy'
    r: int = 0

    def __str__(self) -> str:
        if self.kind == "y":
            return "y"
        if self.r == 0:
            return "x"
        if self.r == 1:
            return "x*y"
        return f"x*y^{self.r}"


X = CanonicalForm("xy", 0)
Y = CanonicalForm("y", 0)


def xy(r: int) -> CanonicalForm:
    return CanonicalForm("xy", r)


def _rewrite_tables(phi: tuple[int, ...], m: int) -> tuple[list[int], list[int]]:
    """The x- and y-translation tables of the rewriting rules on the q = m+1
    canonical forms, numbered r for x*y^r (0 <= r <= q-2) and m for y:
    entry s is the form of (form s)*x, resp. (form s)*y."""
    y_form = m
    tx, ty = [], []
    for r in range(m):
        ty.append((r + 1) % m)                            # x*y^(q-1) = x
        if r == 0:
            tx.append(0)                                  # x*x = x
        else:
            t = (phi[r] + 1) % m                          # (x*y^r)*x = y*x^t
            tx.append(y_form if t == 0 else phi[t])       # y*x^t = x*y^log(1-alpha^t)
    tx.append(phi[1])                                     # y*x = x*y^log(1-alpha)
    ty.append(y_form)                                     # y*y = y
    return tx, ty


def _iterate(table: list[int], k: int) -> list[int]:
    """The map `table` applied k times, by repeated squaring."""
    out = list(range(len(table)))
    while k:
        if k & 1:
            out = [table[i] for i in out]
        table = [table[i] for i in table]
        k >>= 1
    return out


def pairing_tables(F: FieldTable, alphas) -> np.ndarray:
    """The log-pairings of several primitive elements of one field: the
    (len(alphas), q-1) int64 array whose row i is phi[k] = log(1 - alpha^k)
    to base alpha = alphas[i], for 1 <= k <= q-2, with column 0 a
    placeholder 0.  With alpha = base^a and -1 = base^h, phi[k] is
    zech[(a k + h) mod (q-1)] * a^-1 mod (q-1), so every row is one gather
    on the field's Zech table (Huber, IEEE Trans. IT 36(4), 1990)."""
    m = F.q - 1
    alphas = np.asarray(alphas, dtype=np.int64).reshape(-1)
    inside = (alphas > 0) & (alphas < F.q)
    la = F.log_array[np.where(inside, alphas, 1)].astype(np.int64)
    bad = np.flatnonzero(~inside | (np.gcd(la, m) != 1))
    if bad.size:
        raise NotPrimitiveError(f"alpha={alphas[bad[0]]} is not primitive in GF({F.q})")
    inv_la = np.array([pow(int(a), -1, m) for a in la], dtype=np.int64)
    h = F.log_table[F.neg_table[1]]
    table = np.zeros((alphas.size, m), dtype=np.int64)
    table[:, 1:] = F.zech_array[(la[:, None] * np.arange(1, m) + h) % m]
    table[:, 1:] *= inv_la[:, None]
    table %= m
    return table


class PresentationContext:
    """The field model of the presented quandle for one (F_q, alpha).

    Holds discrete logs to base alpha, the Alexander step v*g = alpha v +
    (1-alpha) g with its inverse, and the Zech-style pairing table
    phi[k] = log(1 - alpha^k) for 1 <= k <= q-2 that drives the rewriting
    (phi[0] is a placeholder), its row of `pairing_tables`.  The table is
    built once, here, and every consumer reads it.  The translation tables
    of the rewriting (`steps`) are built on first use."""

    def __init__(self, F: FieldTable, alpha: int):
        if F.q <= 2:
            raise InvalidParamsError("presented quandle needs q > 2")
        if not F.is_primitive(alpha):
            raise NotPrimitiveError(f"alpha={alpha} is not primitive in GF({F.q})")
        self.F = F
        self.alpha = alpha
        self.q = F.q
        self.m = F.q - 1
        inv_la = pow(F.log(alpha), -1, self.m)
        self._dlog = [None] + ((F.log_array[1:].astype(np.int64) * inv_la) % self.m).tolist()
        self.one_minus_alpha = F.sub(1, alpha)
        self.inv_alpha = F.inv(alpha)
        self.phi: tuple[int, ...] = tuple(pairing_tables(F, [alpha])[0].tolist())

    def dlog(self, v: int) -> int:
        if v == 0:
            raise ZeroDivisionError("log of zero")
        return self._dlog[v]

    def alpha_pow(self, k: int) -> int:
        return self.F.pow(self.alpha, k)

    def log_one_minus_pow(self, k: int) -> int:
        """log_alpha(1 - alpha^k) for k not divisible by q-1."""
        k %= self.m
        if k == 0:
            raise ZeroDivisionError("log of zero")
        return self.phi[k]

    def act(self, v: int, g: int) -> int:
        """v * g = alpha v + (1 - alpha) g."""
        F = self.F
        return F.add(F.mul(self.alpha, v), F.mul(self.one_minus_alpha, g))

    def act_inv(self, v: int, g: int) -> int:
        """v / g = alpha^-1 (v - (1 - alpha) g), the inverse of act(., g)."""
        F = self.F
        return F.mul(self.inv_alpha, F.sub(v, F.mul(self.one_minus_alpha, g)))

    @cached_property
    def forms(self) -> list[CanonicalForm]:
        """The canonical forms by number: x*y^r is r, y is q-1."""
        return [xy(r) for r in range(self.m)] + [Y]

    @cached_property
    def values(self) -> list[int]:
        """The field element of each numbered canonical form."""
        return [canonical_to_field(c, self) for c in self.forms]

    @cached_property
    def steps(self) -> dict[tuple[str, str], list[int]]:
        """Translation tables keyed by letter (generator, op): entry s is the
        number of the canonical form of (form s) op generator.

        The x- and y-tables come from the rewriting rules, and each of their
        2q entries is checked against `act`; a mismatch raises.  The table
        of /g is that of *g applied q-2 times, as `eliminate_inverses`
        rewrites a/b = a*b^(q-2).  Since every word's form is a fold over
        these tables, the check certifies the form of every word."""
        tx, ty = _rewrite_tables(self.phi, self.m)
        values = self.values
        for gen, g, table in (("x", 0, tx), ("y", 1, ty)):
            for s, t in enumerate(table):
                if values[t] != self.act(values[s], g):
                    raise VerificationFailureError(
                        f"rewriting gives {self.forms[s]}*{gen} = {self.forms[t]}, "
                        f"but the field gives element {self.act(values[s], g)}")
        return {("x", FWD): tx, ("y", FWD): ty,
                ("x", INV): _iterate(tx, self.q - 2), ("y", INV): _iterate(ty, self.q - 2)}


def product_coefficient(F: FieldTable, alpha: int, r: int, s: int) -> int:
    """The field value alpha^(r+1) - alpha^(s+1) + alpha^s that decides the
    product of x*y^r with x*y^s: zero collapses the product to y, otherwise
    the product is x*y^log(value)."""
    if r < 0 or s < 0 or r + s == 0:
        raise InvalidParamsError("need nonnegative r, s with r+s > 0")
    a_r1 = F.pow(alpha, r + 1)
    a_s1 = F.pow(alpha, s + 1)
    a_s = F.pow(alpha, s)
    return F.add(F.sub(a_r1, a_s1), a_s)


def _evaluate(w: Word, ctx: PresentationContext) -> int:
    images = {"x": 0, "y": 1}
    v = images[w.tokens[0][0]]
    for gen, op in w.tokens[1:]:
        v = ctx.act(v, images[gen]) if op == FWD else ctx.act_inv(v, images[gen])
    return v


def evaluate_word(w: Word, F: FieldTable, alpha: int) -> int:
    """Evaluate a word in (F_q, alpha), alpha primitive, under x -> 0, y -> 1."""
    return _evaluate(w, PresentationContext(F, alpha))


def canonical_to_field(c: CanonicalForm, ctx: PresentationContext) -> int:
    if c.kind == "y":
        return 1
    return ctx.F.sub(1, ctx.alpha_pow(c.r))


def normalize(w: Word, F: FieldTable, alpha: int,
              ctx: PresentationContext | None = None) -> CanonicalForm:
    """Rewrite a word to its unique canonical form.

    The rewriting is a left fold over the word, keeping the canonical form
    of the prefix and reading the next form from the context's translation
    tables; exponents reduce mod q-1 throughout.  The result is checked
    against direct evaluation in (F_q, alpha) and any disagreement raises.
    """
    if ctx is None:
        ctx = PresentationContext(F, alpha)
    steps = ctx.steps
    s = ctx.m if w.tokens[0][0] == "y" else 0
    for letter in w.tokens[1:]:
        s = steps[letter][s]

    direct = _evaluate(w, ctx)
    if ctx.values[s] != direct:
        raise VerificationFailureError(
            f"rewriting produced {ctx.forms[s]} but field evaluation gives element {direct}"
        )
    return ctx.forms[s]


def _rpow(ctx: PresentationContext, v: int, g: int, k: int) -> int:
    """v acted on k times by g in (F_q, alpha)."""
    for _ in range(k):
        v = ctx.act(v, g)
    return v


@dataclass
class PresentationReport:
    q: int
    alpha: int
    relations_checked: int
    canonical_images: int
    words_checked: int


def verify_presentation(F: FieldTable, alpha: int, max_len: int = 6) -> PresentationReport:
    """Check that (F_q, alpha) under x -> 0, y -> 1 realizes the presented
    quandle: the defining relations hold, the canonical set maps onto all q
    elements, the translation tables agree with the field (`steps`), and on
    every word up to max_len the tables' form agrees with direct
    evaluation.  Any failure raises; the report only counts checks."""
    ctx = PresentationContext(F, alpha)
    q, m = ctx.q, ctx.m
    ix, iy = 0, 1

    relations = 0
    if _rpow(ctx, ix, iy, m) != ix:
        raise RelationViolationError(f"x*y^{m} = x")
    if _rpow(ctx, iy, ix, m) != iy:
        raise RelationViolationError(f"y*x^{m} = y")
    relations += 2
    for k in range(1, q - 1):
        t = ctx.phi[k]
        if _rpow(ctx, ix, iy, k) != _rpow(ctx, iy, ix, t):
            raise RelationViolationError(f"x*y^{k} = y*x^{t}", f"k={k}")
        if _rpow(ctx, iy, ix, k) != _rpow(ctx, ix, iy, t):
            raise RelationViolationError(f"y*x^{k} = x*y^{t}", f"k={k}")
        relations += 2

    images = set(ctx.values)
    if len(images) != q:
        raise NotBijectiveError(
            f"canonical set covers {len(images)} of {q} elements"
        )

    # each word's form is one table step from its parent's, and is compared
    # with the word's value, one Alexander step from its parent's
    steps, values = ctx.steps, ctx.values
    words = 0
    stack: list[tuple[tuple[tuple[str, str], ...], int, int]] = [
        ((("x", FWD),), 0, 0), ((("y", FWD),), m, 1)]
    while stack:
        tokens, form, value = stack.pop()
        if values[form] != value:
            raise VerificationFailureError(
                f"word {Word(tokens)}: the tables give {values[form]}, field {value}")
        words += 1
        if len(tokens) < max_len:
            for gen, g in (("x", 0), ("y", 1)):
                stack.append((tokens + ((gen, FWD),), steps[gen, FWD][form], ctx.act(value, g)))
                stack.append((tokens + ((gen, INV),), steps[gen, INV][form],
                              ctx.act_inv(value, g)))

    return PresentationReport(q, alpha, relations, len(images), words)


# -- prime-power equivalence and classification --

def prime_power_equivalent(F: FieldTable, alpha: int, beta: int) -> bool:
    """True iff beta^(p^s) = alpha for some 0 <= s < n."""
    for g in (alpha, beta):
        if not F.is_primitive(g):
            raise NotPrimitiveError(f"element {g} is not primitive")
    return any(F.pow(beta, F.p ** s) == alpha for s in range(F.n))


def same_log_pattern(F: FieldTable, alpha: int, beta: int) -> bool:
    """True iff log_alpha(1-alpha^k) = log_beta(1-beta^k) for 0 < k < q-1;
    by the classification this is equivalent to prime-power equivalence."""
    return PresentationContext(F, alpha).phi == PresentationContext(F, beta).phi


@dataclass(frozen=True)
class PrimClass:
    """One prime-power equivalence class {a, a^p, ..., a^(p^(n-1))}."""

    representative: int
    members: tuple[int, ...]


@dataclass
class Classification:
    """Primitive elements of GF(q) partitioned into prime-power classes;
    each class is one isomorphism class of cyclic-type quandles."""

    field: FieldTable
    classes: list[PrimClass]

    @property
    def count(self) -> int:
        return len(self.classes)

    def class_of(self, alpha: int) -> PrimClass:
        for c in self.classes:
            if alpha in c.members:
                return c
        raise NotPrimitiveError(f"{alpha} is not a primitive element")


def classify_cyclic(q: int, F: FieldTable | None = None) -> Classification:
    """Partition the primitive elements of GF(q) into prime-power classes.

    There are phi(q-1)/n classes of n elements each (q = p^n); this count
    is asserted, not merely reported.
    """
    if q <= 2:
        raise InvalidParamsError("cyclic-type quandles need q > 2")
    if F is None:
        F = build_field_q(q)
    prims = primitive_elements(F)
    remaining = set(prims)
    classes = []
    while remaining:
        a = min(remaining)
        members = sorted({F.pow(a, F.p ** s) for s in range(F.n)})
        if len(members) != F.n:
            raise AssertionError(f"class of {a} has {len(members)} members, expected {F.n}")
        if not remaining.issuperset(members):
            raise AssertionError("prime-power classes are not disjoint")
        remaining.difference_update(members)
        classes.append(PrimClass(a, tuple(members)))
    expected = euler_phi(q - 1) // F.n
    if euler_phi(q - 1) % F.n or len(classes) != expected:
        raise AssertionError(
            f"{len(classes)} classes found, expected phi({q - 1})/{F.n} = {expected}"
        )
    return Classification(F, classes)
