"""Finite field arithmetic for GF(p) and GF(p^k).

Elements of GF(p^k) are coefficient vectors of polynomials of degree < k
over GF(p), reduced modulo a fixed monic irreducible modulus.  The modulus
is either supplied by the caller or taken from a deterministic built-in
choice (the lexicographically smallest monic irreducible of that degree),
so element encodings are stable across runs.

Int lists hold only an element's k coefficients: `_mulmod` is the one
element kernel, for `FieldElement` products and for the powers of t in
Rabin's irreducibility test.  Polynomials over a field are lists of
`FieldElement`s with one toolkit (`_poly_sub`, `_poly_mod`, `_poly_mulmod`,
the monic `_poly_gcd`), used by the gcd step of that test over GF(p) and
by equal-degree splitting.  `power` is the one square-and-multiply loop.
An embedding GF(p^k) -> GF(p^K), k | K, sends t to a root of the modulus,
found by Cantor-Zassenhaus splitting over the target field; `descend`
inverts it on the image by one GF(p)-linear solve.

Also hosts the Frobenius-orbit machinery used by the curve family
constructors: orbit degrees, and the m(alpha) / d(lambda) invariants.
m(alpha), the degree of a root of lambda^2 + lambda = alpha in
characteristic 2, is read off a trace (additive Hilbert 90).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


class FieldError(ValueError):
    """Bad field construction or an operation outside its domain."""


# psi_12: the least strong pseudoprime to all 12 prime bases up to 37
_PSI12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the 12 prime bases up to 37.

    Exact for n < psi_12 = 318665857834031151167461; larger n raise
    FieldError, since those bases do not certify them.
    """
    if n >= _PSI12:
        raise FieldError(f"{n} is too large to certify as prime (the bound is {_PSI12})")
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def power(base: T, e: int, one: T, mul: Callable[[T, T], T] = operator.mul) -> T:
    """base^e for e >= 0 by square-and-multiply; `one` is the unit of `mul`."""
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


# ---------------------------------------------------------------------------
# the element kernel: residues mod a monic modulus, as k ints low-order first
# ---------------------------------------------------------------------------

def _mulmod(a: Sequence[int], b: Sequence[int], m: Sequence[int], p: int) -> list[int]:
    """a*b mod m over GF(p); a, b and the result hold k = deg m coefficients."""
    k = len(m) - 1
    out = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                if bj:
                    out[j] += ai * bj
    for top in range(2 * k - 2, k - 1, -1):  # t^top = -sum m_j t^(top-k+j)
        c = out[top] % p
        if c:
            for j in range(k):
                out[top - k + j] -= c * m[j]
    return [c % p for c in out[:k]]


def _is_irreducible(mod_lo: Sequence[int], p: int) -> bool:
    """Rabin's test for a monic modulus of degree k >= 2: t^(p^k) == t mod m,
    and gcd(t^(p^(k/l)) - t, m) = 1 for every prime l dividing k."""
    k = len(mod_lo) - 1
    t, one = [0, 1] + [0] * (k - 2), [1] + [0] * (k - 1)
    def t_pow(e: int) -> list[int]:
        return power(t, e, one, lambda u, v: _mulmod(u, v, mod_lo, p))
    if t_pow(p ** k) != t:
        return False
    base = FieldSpec(p)
    m = [base.element(c) for c in mod_lo]
    for ell in _prime_divisors(k):
        diff = [base.element(g - s) for g, s in zip(t_pow(p ** (k // ell)), t)]
        if len(_poly_gcd(m, _poly_trim(diff))) != 1:
            return False
    return True


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


@lru_cache(maxsize=None)
def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Deterministic modulus for GF(p^k): the lexicographically smallest
    monic irreducible of degree k, low-order coefficients first."""
    if k == 1:
        return (0, 1)  # t itself; reduction maps elements to constants
    if k > 16:
        raise FieldError(f"no built-in modulus for extension degree {k} > 16")
    # ascending `code` enumerates (c_{k-1},...,c_0) in lex order, most
    # significant coefficient compared first
    for code in range(p ** k):
        mod_lo = [code // p ** i % p for i in range(k)] + [1]
        if _is_irreducible(mod_lo, p):
            return tuple(mod_lo)
    raise FieldError(f"no irreducible polynomial found for GF({p}^{k})")  # pragma: no cover


@dataclass(frozen=True, slots=True, init=False, repr=False)
class FieldSpec:
    """Immutable description of GF(p^k): characteristic, degree, modulus.

    The modulus argument, when given, lists the k+1 coefficients most
    significant first (matching the textual syntax
    ``GF(p^k; modulus=c_k,...,c_0)``); internally coefficients are kept
    low-order first.  Irreducibility is checked at construction.
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    def __init__(self, p: int, k: int = 1, modulus: Sequence[int] | None = None):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if k < 1:
            raise FieldError(f"extension degree must be >= 1, got {k}")
        if modulus is None:
            mod_lo = list(default_modulus(p, k))
        else:
            mod_lo = [c % p for c in reversed(list(modulus))]
            if len(mod_lo) != k + 1:
                raise FieldError(
                    f"modulus needs {k + 1} coefficients for degree {k}, got {len(mod_lo)}"
                )
            if mod_lo[-1] != 1:
                raise FieldError("modulus must be monic")
            if k > 1 and not _is_irreducible(mod_lo, p):
                raise FieldError("modulus is reducible over GF(p)")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "modulus", tuple(mod_lo))

    @property
    def order(self) -> int:
        return self.p ** self.k

    def __repr__(self) -> str:
        return f"FieldSpec({self})"

    def __str__(self) -> str:
        if self.k == 1:
            return f"GF({self.p})"
        msb = ",".join(str(c) for c in reversed(self.modulus))
        return f"GF({self.p}^{self.k}; modulus={msb})"

    # -- element constructors ------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Coerce an int (prime-subfield constant), a most-significant-first
        coefficient sequence, or a FieldElement of this same field."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise FieldError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coeffs = [value % self.p] + [0] * (self.k - 1)
            return FieldElement(self, tuple(coeffs))
        seq = [c % self.p for c in value]
        if len(seq) > self.k:
            raise FieldError(f"too many coefficients for GF({self.p}^{self.k})")
        seq = [0] * (self.k - len(seq)) + seq
        return FieldElement(self, tuple(reversed(seq)))

    def zero(self) -> "FieldElement":
        return self.element(0)

    def one(self) -> "FieldElement":
        return self.element(1)

    def gen(self) -> "FieldElement":
        """The class of t (for k >= 2); for k = 1 this is 0 = t mod t."""
        if self.k == 1:
            return self.zero()
        return FieldElement(self, tuple(1 if i == 1 else 0 for i in range(self.k)))

    def from_index(self, idx: int) -> "FieldElement":
        """Inverse of FieldElement.index(): base-p digits are coefficients."""
        if not 0 <= idx < self.order:
            raise FieldError(f"index {idx} out of range for {self}")
        coeffs = []
        for _ in range(self.k):
            coeffs.append(idx % self.p)
            idx //= self.p
        return FieldElement(self, tuple(coeffs))

    def elements(self) -> Iterable["FieldElement"]:
        for idx in range(self.order):
            yield self.from_index(idx)


@dataclass(frozen=True, slots=True)
class FieldElement:
    """One element of GF(p^k), as k coefficients low-order first."""

    spec: FieldSpec
    coeffs: tuple[int, ...]

    def _check(self, other: "FieldElement") -> None:
        if self.spec != other.spec:
            raise FieldError("mixed-field arithmetic")

    def __add__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        p = self.spec.p
        return FieldElement(
            self.spec, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "FieldElement":
        p = self.spec.p
        return FieldElement(self.spec, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        self._check(other)
        spec = self.spec
        return FieldElement(spec, tuple(_mulmod(self.coeffs, other.coeffs, spec.modulus, spec.p)))

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.spec.one())

    def inverse(self) -> "FieldElement":
        if not self:
            raise FieldError("zero has no inverse")
        # a^(p^k - 2); extension degrees are small, repeated squaring is fine
        return self ** (self.spec.order - 2)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def frobenius(self) -> "FieldElement":
        return self ** self.spec.p

    def trace(self, degree: int | None = None) -> int:
        """Trace from GF(p^degree) down to GF(p), as an int in [0, p).

        `degree` defaults to k, the absolute trace; the element must lie in
        the subfield GF(p^degree).
        """
        e = self.spec.k if degree is None else degree
        acc = conj = self
        for _ in range(e - 1):
            conj = conj.frobenius()
            acc = acc + conj
        if e < 1 or conj.frobenius() != self:
            raise FieldError(f"{self} does not lie in GF({self.spec.p}^{e})")
        return acc.coeffs[0]

    def index(self) -> int:
        """Integer encoding: sum of coeffs[i] * p^i."""
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * self.spec.p + c
        return idx

    def __str__(self) -> str:
        if self.spec.k == 1:
            return str(self.coeffs[0])
        return ",".join(str(c) for c in reversed(self.coeffs))

    def __repr__(self) -> str:
        return f"<{self} in {self.spec}>"


# ---------------------------------------------------------------------------
# polynomials over a field, low-order first; embeddings between extensions
# ---------------------------------------------------------------------------

def _poly_trim(a: list[FieldElement]) -> list[FieldElement]:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_sub(a: Sequence[FieldElement], b: Sequence[FieldElement]) -> list[FieldElement]:
    out = [x - y for x, y in zip(a, b)] + list(a[len(b):]) + [-y for y in b[len(a):]]
    return _poly_trim(out)


def _poly_mod(a: Sequence[FieldElement], m: Sequence[FieldElement]) -> list[FieldElement]:
    """a mod m for a monic m."""
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a.pop()
        if c:
            shift = len(a) - dm
            for i in range(dm):
                a[shift + i] = a[shift + i] - c * m[i]
    return _poly_trim(a)


def _poly_mulmod(a: Sequence[FieldElement], b: Sequence[FieldElement],
                 m: Sequence[FieldElement]) -> list[FieldElement]:
    out = [m[-1].spec.zero()] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
    return _poly_mod(out, m)


def _poly_gcd(a: Sequence[FieldElement], b: Sequence[FieldElement]) -> list[FieldElement]:
    """Monic gcd, for a monic `a` or a nonzero `b`."""
    a = list(a)
    while b:
        inv = b[-1].inverse()
        b = [c * inv for c in b]
        a, b = b, _poly_mod(a, b)
    return a


def _find_root(mod_lo: Sequence[int], target: FieldSpec) -> FieldElement:
    """A root in `target` of a monic irreducible polynomial over GF(p) whose
    degree divides target.k: it splits into distinct linear factors over
    `target`, which equal-degree splitting separates."""
    g = [target.element(c) for c in mod_lo]
    while len(g) - 1 > 1:
        g = _split_linear_product(g, target)
    return -g[0]


def _split_linear_product(g: list[FieldElement], spec: FieldSpec) -> list[FieldElement]:
    """Halve a monic product of distinct linear factors over GF(p^K).

    char 2: gcd with the additive trace polynomial of u*t; odd char: gcd with
    (t+u)^((Q-1)/2) - 1.  Deterministic sweep over u."""
    one = spec.one()
    for uidx in range(1, spec.order):
        u = spec.from_index(uidx)
        if spec.p == 2:
            h = cur = [spec.zero(), u]  # u*t
            for _ in range(spec.k - 1):
                cur = _poly_mulmod(cur, cur, g)
                h = _poly_sub(h, cur)
        else:
            h = power([u, one], (spec.order - 1) // 2, [one],
                      lambda a, b: _poly_mulmod(a, b, g))
            h = _poly_sub(h, [one])
        if not h:
            continue
        d = _poly_gcd(g, h)
        if 0 < len(d) - 1 < len(g) - 1:
            return d
    raise FieldError("splitting failed")  # pragma: no cover


@lru_cache(maxsize=None)
def _embedding_root(src: FieldSpec, dst: FieldSpec) -> FieldElement:
    return _find_root(src.modulus, dst)


def embed(a: FieldElement, target: FieldSpec) -> FieldElement:
    """Image of `a` under a fixed embedding GF(p^k) -> GF(p^K), k | K."""
    src = a.spec
    if src == target:
        return a
    if src.p != target.p:
        raise FieldError("embeddings require equal characteristic")
    if target.k % src.k != 0:
        raise FieldError(f"GF({src.p}^{src.k}) does not embed in GF({target.p}^{target.k})")
    if src.k == 1:
        return target.element(a.coeffs[0])
    root = _embedding_root(src, target)
    acc = target.zero()
    for c in reversed(a.coeffs):
        acc = acc * root + target.element(c)
    return acc


def descend(a: FieldElement, sub: FieldSpec) -> FieldElement:
    """The element of `sub` that `embed` sends to `a`; FieldError if there is none.

    With r the image of sub's generator, it solves a = sum_i c_i r^i over
    GF(p) for the e = sub.k coefficients c_i; over the prime field (e = 1)
    that is a.coeffs[0].  The answer is checked by embedding it back.
    """
    spec = a.spec
    if sub == spec:
        return a
    if sub.p != spec.p or spec.k % sub.k:
        raise FieldError(f"{sub} is not a subfield of {spec}")
    p, e = spec.p, sub.k
    if e == 1:
        coeffs = a.coeffs[:1]
    else:
        # the k x (e+1) system [r^0 ... r^(e-1) | a], one row per coordinate
        powers = [power(_embedding_root(sub, spec), i, spec.one()).coeffs for i in range(e)]
        rows = [[col[j] for col in powers] + [a.coeffs[j]] for j in range(spec.k)]
        for c in range(e):  # the powers of r are independent: column c pivots in row c
            r = next(i for i in range(c, spec.k) if rows[i][c])
            rows[c], rows[r] = rows[r], rows[c]
            inv = pow(rows[c][c], p - 2, p)
            rows[c] = [v * inv % p for v in rows[c]]
            for i in range(spec.k):
                fac = rows[i][c]
                if i != c and fac:
                    rows[i] = [(v - fac * w) % p for v, w in zip(rows[i], rows[c])]
        coeffs = [rows[i][e] for i in range(e)]
    b = FieldElement(sub, tuple(coeffs))
    if embed(b, spec) != a:
        raise FieldError(f"{a} does not lie in the subfield {sub} of {spec}")
    return b


# ---------------------------------------------------------------------------
# Frobenius orbits and the family invariants
# ---------------------------------------------------------------------------

def frobenius_orbit_degree(a: FieldElement) -> int:
    """Smallest e >= 1 with a^(p^e) = a; the degree of a over GF(p)."""
    b = a
    for e in range(1, a.spec.k + 1):
        b = b.frobenius()
        if b == a:
            return e
    raise FieldError("Frobenius orbit did not close")  # pragma: no cover - impossible by field theory


def m_alpha(alpha: FieldElement) -> int:
    """Orbit degree of a solution of lambda^2 + lambda = alpha (char 2, alpha != 0).

    With e the degree of alpha, a root lies in GF(2^e) exactly when the
    trace of alpha from GF(2^e) to GF(2) vanishes (additive Hilbert 90);
    otherwise it generates the quadratic extension GF(2^(2e)).  Since
    alpha = lambda^2 + lambda lies in GF(2)(lambda), the degree is e or 2e.
    """
    if alpha.spec.p != 2:
        raise FieldError("m(alpha) is defined in characteristic 2")
    if not alpha:
        raise FieldError("m(alpha) requires alpha != 0")
    e = frobenius_orbit_degree(alpha)
    return 2 * e if alpha.trace(e) else e


def d_lambda(lam: FieldElement) -> int:
    """Degree of lambda over GF(3), for lambda outside {0, 1} (char 3)."""
    if lam.spec.p != 3:
        raise FieldError("d(lambda) is defined in characteristic 3")
    if lam == lam.spec.zero() or lam == lam.spec.one():
        raise FieldError("d(lambda) requires lambda outside {0, 1}")
    return frobenius_orbit_degree(lam)


# ---------------------------------------------------------------------------
# textual field syntax used by the CLI: GF(p) or GF(p^k; modulus=c_k,...,c_0)
# ---------------------------------------------------------------------------

def parse_field(text: str) -> FieldSpec:
    s = text.strip()
    if not (s.startswith("GF(") and s.endswith(")")):
        raise FieldError(f"cannot parse field spec {text!r}")
    body = s[3:-1].strip()
    modulus = None
    if ";" in body:
        body, modpart = body.split(";", 1)
        modpart = modpart.strip()
        if not modpart.startswith("modulus="):
            raise FieldError(f"cannot parse field spec {text!r}")
        try:
            modulus = [int(c) for c in modpart[len("modulus="):].split(",")]
        except ValueError as exc:
            raise FieldError(f"bad modulus in {text!r}") from exc
    body = body.strip()
    try:
        if "^" in body:
            p_str, k_str = body.split("^", 1)
            p, k = int(p_str), int(k_str)
        else:
            p, k = int(body), 1
    except ValueError as exc:
        raise FieldError(f"cannot parse field spec {text!r}") from exc
    return FieldSpec(p, k, modulus)
