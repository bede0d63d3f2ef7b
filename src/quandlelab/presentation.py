"""The two-generator presented quandle behind cyclic-type quandles.

Words over generators x, y (with the operation written * and its right
inverse /) are rewritten to the canonical set {x, y, x*y^r : 1 <= r <= q-2}
using the defining relations a*b^(q-1) = a and a*b^k = b*a^(log(1-alpha^k)).
Every normalization is cross-validated against the concrete Alexander
quandle (F_q, alpha) under x -> 0, y -> 1; a mismatch is a hard error, not
a report, because the rewriting rules are the error-prone part.

Also here: prime-power equivalence of primitive elements and the resulting
classification of cyclic-type quandles, with phi(q-1)/n classes of size n.
"""

from __future__ import annotations

from dataclasses import dataclass

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


class PresentationContext:
    """The field model of the presented quandle for one (F_q, alpha).

    Holds discrete logs to base alpha, the Alexander step v*g = alpha v +
    (1-alpha) g with its inverse, and the Zech-style pairing table
    phi[k] = log(1 - alpha^k) for 1 <= k <= q-2 that drives the rewriting
    (phi[0] is a placeholder).  The table is built once, here, and every
    consumer reads it: with alpha = base^a and -1 = base^h, phi[k] is
    zech[(a k + h) mod (q-1)] * a^-1 mod (q-1)."""

    def __init__(self, F: FieldTable, alpha: int):
        if F.q <= 2:
            raise InvalidParamsError("presented quandle needs q > 2")
        if not F.is_primitive(alpha):
            raise NotPrimitiveError(f"alpha={alpha} is not primitive in GF({F.q})")
        self.F = F
        self.alpha = alpha
        self.q = F.q
        self.m = F.q - 1
        la = F.log(alpha)
        inv_la = pow(la, -1, self.m)
        h = F.log_table[F.neg_table[1]]
        self._dlog = [None] + [(j * inv_la) % self.m for j in F.log_table[1:]]
        self.one_minus_alpha = F.sub(1, alpha)
        self.inv_alpha = F.inv(alpha)
        self.phi: tuple[int, ...] = (0,) + tuple(
            (F.zech[(la * k + h) % self.m] * inv_la) % self.m for k in range(1, self.m))

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

    Consumes the (inverse-eliminated) word left to right, keeping the
    canonical form of the prefix and multiplying by one generator at a
    time; exponents reduce mod q-1 throughout.  The result is checked
    against direct evaluation in (F_q, alpha) and any disagreement raises.
    """
    if ctx is None:
        ctx = PresentationContext(F, alpha)
    m, phi = ctx.m, ctx.phi
    expanded = eliminate_inverses(w, ctx.q)

    # the prefix is y when on_y, else x*y^r
    on_y, r = expanded.tokens[0][0] == "y", 0
    for gen, _ in expanded.tokens[1:]:
        if on_y:
            if gen == "y":
                continue
            on_y, r = False, phi[1]                       # y*x = x*y^log(1-alpha)
        elif gen == "y":
            r = (r + 1) % m                               # x*y^(q-1) = x
        elif r:                                           # x*x = x
            t = (phi[r] + 1) % m                          # (x*y^r)*x = y*x^t
            if t == 0:
                on_y, r = True, 0
            else:
                r = phi[t]                                # y*x^t = x*y^log(1-alpha^t)

    state = Y if on_y else xy(r)
    direct = _evaluate(w, ctx)
    if canonical_to_field(state, ctx) != direct:
        raise VerificationFailureError(
            f"rewriting produced {state} but field evaluation gives element {direct}"
        )
    return state


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
    elements, and normalization agrees with direct evaluation on every word
    up to max_len.  Any failure raises; the report only counts checks."""
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

    images = {canonical_to_field(Y, ctx)}
    images.update(canonical_to_field(xy(r), ctx) for r in range(m))
    if len(images) != q:
        raise NotBijectiveError(
            f"canonical set covers {len(images)} of {q} elements"
        )

    words = 0
    stack: list[tuple[tuple[tuple[str, str], ...], int]] = [
        ((("x", FWD),), 0), ((("y", FWD),), 1)]
    while stack:
        tokens, value = stack.pop()
        w = Word(tokens)
        got = canonical_to_field(normalize(w, F, alpha, ctx), ctx)
        if got != value:
            raise VerificationFailureError(f"word {w}: normalize gives {got}, field {value}")
        words += 1
        if len(tokens) < max_len:
            for gen, g in (("x", 0), ("y", 1)):
                stack.append((tokens + ((gen, FWD),), ctx.act(value, g)))
                stack.append((tokens + ((gen, INV),), ctx.act_inv(value, g)))

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
