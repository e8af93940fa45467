"""Sparse homogeneous polynomials in x, y, z over GF(p^k).

Terms are kept in a dict keyed by exponent triples (a, b, c); zero
coefficients are never stored, and the canonical printed form lists terms
in descending lexicographic order of (a, b, c).  Curve equations have at
most O(d^2) terms, so sparse dicts are the right shape for both block
construction and formal calculus.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .gf import FieldElement, FieldSpec, power

Monomial = tuple[int, int, int]

VARS = ("x", "y", "z")


class PolyError(ValueError):
    """Malformed polynomial input or operation."""


class ParseError(PolyError):
    pass


class InhomogeneousError(ParseError):
    """Parsed polynomial mixes total degrees; carries two offending degrees."""

    def __init__(self, d1: int, d2: int):
        super().__init__(f"polynomial is not homogeneous: terms of degree {d1} and {d2}")
        self.degrees = (d1, d2)


class ZeroPolynomialError(ParseError):
    def __init__(self):
        super().__init__("polynomial is identically zero")


class Poly:
    """General sparse polynomial in x, y, z; may be zero or inhomogeneous.

    Used as the arithmetic workhorse; the validated homogeneous subtype
    below is what the engine and classifier consume.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: FieldSpec, terms=None):
        self.spec = spec
        clean: dict[Monomial, FieldElement] = {}
        if terms:
            for mon, coeff in dict(terms).items():
                if coeff:
                    clean[(int(mon[0]), int(mon[1]), int(mon[2]))] = coeff
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return cls(spec)

    @classmethod
    def constant(cls, spec: FieldSpec, value) -> "Poly":
        return cls(spec, {(0, 0, 0): spec.element(value)})

    @classmethod
    def variable(cls, spec: FieldSpec, name: str) -> "Poly":
        if name not in VARS:
            raise PolyError(f"unknown variable {name!r}")
        mon = tuple(1 if v == name else 0 for v in VARS)
        return cls(spec, {mon: spec.one()})

    # -- structure -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, mon: Monomial) -> FieldElement:
        return self.terms.get(mon, self.spec.zero())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.spec == other.spec
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.spec, frozenset(self.terms.items())))

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.spec != self.spec:
                raise PolyError("mixed-field polynomial arithmetic")
            return other
        if isinstance(other, (int, FieldElement)):
            return Poly.constant(self.spec, self.spec.element(other))
        raise PolyError(f"cannot combine polynomial with {type(other).__name__}")

    def __add__(self, other) -> "Poly":
        other = self._coerce(other)
        out = dict(self.terms)
        zero = self.spec.zero()
        for mon, c in other.terms.items():
            out[mon] = out.get(mon, zero) + c
        return Poly(self.spec, out)

    def __sub__(self, other) -> "Poly":
        return self + (-self._coerce(other))

    def __neg__(self) -> "Poly":
        return Poly(self.spec, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "Poly":
        other = self._coerce(other)
        out: dict[Monomial, FieldElement] = {}
        zero = self.spec.zero()
        for (a1, b1, c1), x in self.terms.items():
            for (a2, b2, c2), y in other.terms.items():
                mon = (a1 + a2, b1 + b2, c1 + c2)
                out[mon] = out.get(mon, zero) + x * y
        return Poly(self.spec, out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise PolyError("negative polynomial power")
        return power(self, e, Poly.constant(self.spec, 1))

    def substitute(self, images) -> "Poly":
        """self(images[0], images[1], images[2]); each power of an image is built once."""
        powers = []
        for j, image in enumerate(images):
            row = [Poly.constant(self.spec, 1)]
            for _ in range(max((m[j] for m in self.terms), default=0)):
                row.append(row[-1] * image)
            powers.append(row)
        out = Poly.zero(self.spec)
        for (a, b, c), coeff in self.terms.items():
            out = out + powers[0][a] * powers[1][b] * powers[2][c] * coeff
        return out

    def evaluate(self, point) -> FieldElement:
        px, py, pz = (self.spec.element(v) for v in point)
        acc = self.spec.zero()
        for (a, b, c), coeff in self.terms.items():
            acc = acc + coeff * px**a * py**b * pz**c
        return acc

    # -- printing ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        one = self.spec.one()
        for mon in sorted(self.terms, reverse=True):
            coeff = self.terms[mon]
            factors = []
            if coeff != one or mon == (0, 0, 0):
                cs = str(coeff)
                factors.append(f"[{cs}]" if self.spec.k > 1 else cs)
            for name, e in zip(VARS, mon):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self} over {self.spec})"


class HomogeneousPoly(Poly):
    """Nonzero homogeneous polynomial; exposes its total degree as `.d`."""

    __slots__ = ("d",)

    def __init__(self, spec: FieldSpec, terms=None):
        super().__init__(spec, terms)
        if not self.terms:
            raise ZeroPolynomialError()
        degs = sorted({sum(m) for m in self.terms})
        if len(degs) > 1:
            raise InhomogeneousError(degs[0], degs[-1])
        self.d = degs[0]

    @classmethod
    def from_poly(cls, poly: Poly) -> "HomogeneousPoly":
        return cls(poly.spec, poly.terms)


@dataclass
class PlaneCurve:
    """A plane curve of degree > 1 given by its defining form.

    Irreducibility is a user assertion, not something we test; reported
    classifications are conditional on it.  `known_smooth` may be set from
    external knowledge or from `engine.smooth_check`.
    """

    f: HomogeneousPoly
    irreducible_asserted: bool = True
    known_smooth: bool | None = None
    name: str = field(default="")

    def __post_init__(self):
        if self.f.d <= 1:
            raise PolyError(f"plane curves need degree > 1, got {self.f.d}")
        if not self.name:
            self.name = str(self.f)

    @property
    def d(self) -> int:
        return self.f.d

    @property
    def spec(self) -> FieldSpec:
        return self.f.spec

    @property
    def p(self) -> int:
        return self.f.spec.p


# ---------------------------------------------------------------------------
# parsing:  expr := term (('+'|'-') term)* ;  term := factor ('*' factor)* ;
#           factor := atom ('^' nat)? ;  atom := var | nat | '[c,...,c]' | '(' expr ')' | '-' atom
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\[[0-9,\s]*\]|\d+|[xyz]|\*\*|[-+*^()])")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos:pos + 1]!r} at position {pos}")
        tok = m.group(1)
        tokens.append("^" if tok == "**" else tok)
        pos = m.end()
    return tokens


# the largest total degree the parser expands: (x+y+z)^64 already takes seconds
MAX_PARSE_DEGREE = 64


def _check_degree(*factors: Poly, times: int = 1) -> None:
    """Refuse, before expanding it, a product or power above MAX_PARSE_DEGREE."""
    d = times * sum(max(map(sum, f.terms), default=0) for f in factors)
    if d > MAX_PARSE_DEGREE:
        raise ParseError(f"a product or power of degree {d} exceeds the bound {MAX_PARSE_DEGREE}")


def _natural(tok: str) -> int:
    """int(tok) for a digit token; Python refuses more than 4,300 digits."""
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"an integer of {len(tok)} digits is too long to read") from None


class _Parser:
    def __init__(self, tokens: list[str], spec: FieldSpec):
        self.tokens = tokens
        self.i = 0
        self.spec = spec

    def peek(self) -> str | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return tok

    def parse(self) -> Poly:
        p = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at token {self.peek()!r}")
        return p

    def expr(self) -> Poly:
        sign = 1
        tok = self.peek()
        if tok in ("+", "-"):
            self.next()
            sign = -1 if tok == "-" else 1
        acc = self.term()
        if sign < 0:
            acc = -acc
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> Poly:
        acc = self.factor()
        while self.peek() == "*":
            self.next()
            rhs = self.factor()
            _check_degree(acc, rhs)
            acc = acc * rhs
        return acc

    def factor(self) -> Poly:
        base = self.atom()
        if self.peek() == "^":
            self.next()
            tok = self.next()
            if not tok.isdigit():
                raise ParseError(f"exponent must be a natural number, got {tok!r}")
            times = _natural(tok)
            _check_degree(base, times=times)
            return base ** times
        return base

    def atom(self) -> Poly:
        tok = self.next()
        if tok == "(":
            inner = self.expr()
            if self.next() != ")":
                raise ParseError("missing closing parenthesis")
            return inner
        if tok == "-":
            return -self.atom()
        if tok in VARS:
            return Poly.variable(self.spec, tok)
        if tok.isdigit():
            return Poly.constant(self.spec, _natural(tok))
        if tok.startswith("["):
            inner = tok[1:-1].strip()
            try:
                coeffs = [int(c) for c in inner.split(",")] if inner else []
            except ValueError:
                raise ParseError(f"bad coefficient list {tok!r}") from None
            return Poly.constant(self.spec, self.spec.element(coeffs))
        raise ParseError(f"unexpected token {tok!r}")


def parse_poly(text: str, spec: FieldSpec) -> HomogeneousPoly:
    """Parse an expression in x, y, z into canonical homogeneous form.

    Field constants are integers (prime-subfield values) or bracketed
    coefficient lists `[c_{k-1},...,c_0]`, most significant first.
    Raises on syntax errors, on an integer of more digits than Python
    reads (4,300 by default), on nesting too deep for the recursive-descent
    parser, on a product or power of total degree above MAX_PARSE_DEGREE
    (64), checked before it is expanded, on inhomogeneous input (reporting
    two differing term degrees) and on the zero polynomial.
    """
    try:
        p = _Parser(_tokenize(text), spec).parse()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    return HomogeneousPoly.from_poly(p)


# ---------------------------------------------------------------------------
# formal calculus and local multiplicity
# ---------------------------------------------------------------------------

def partial(f: Poly, var: str) -> HomogeneousPoly | None:
    """Formal partial derivative; exponents act mod p.  None if it vanishes."""
    if var not in VARS:
        raise PolyError(f"unknown variable {var!r}")
    idx = VARS.index(var)
    spec = f.spec
    out: dict[Monomial, FieldElement] = {}
    for mon, coeff in f.terms.items():  # distinct monomials have distinct derivatives
        if mon[idx]:
            new = list(mon)
            new[idx] -= 1
            out[tuple(new)] = coeff * spec.element(mon[idx])
    if not any(out.values()):
        return None
    return HomogeneousPoly(spec, out)


def to_origin(spec: FieldSpec, point) -> list[Poly]:
    """Images of x, y, z under a linear change of coordinates taking [0:0:1] to `point`.

    For the point scaled to last nonzero coordinate a_c = 1, variable c maps
    to z, z to variable c, and any other v_j to v_j + a_j*z: [a:b:1] gives
    (x + a*z, y + b*z, z), [a:1:0] (x + a*z, z, y) and [1:0:0] (z, y, x).
    """
    coords = [spec.element(v) for v in point]
    chart = max((i for i, c in enumerate(coords) if c), default=None)
    if chart is None:
        raise PolyError("(0,0,0) is not a projective point")
    inv = coords[chart].inverse()
    names = list(VARS)
    names[chart], names[2] = names[2], names[chart]
    z = Poly.variable(spec, "z")
    return [
        z if j == chart else Poly.variable(spec, names[j]) + z * (coords[j] * inv)
        for j in range(3)
    ]


def multiplicity_at(f: Poly, point) -> int:
    """Multiplicity of the curve f = 0 at a projective point.

    Moves the point to [0:0:1] by `to_origin`, dehomogenizes at z = 1 and
    returns the least total degree of the result; 0 when f does not vanish
    at the point, 1 at a smooth point.
    """
    spec = f.spec
    x, y, one = Poly.variable(spec, "x"), Poly.variable(spec, "y"), Poly.constant(spec, 1)
    local = f.substitute([g.substitute((x, y, one)) for g in to_origin(spec, point)])
    if not local:
        raise PolyError("polynomial vanishes identically; multiplicity undefined")
    return min(sum(m) for m in local.terms)
