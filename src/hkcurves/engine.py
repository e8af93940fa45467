"""Hilbert-Kunz engine for plane-curve cones.

Computes HK(q) = len(S/(f, x^q, y^q, z^q)) for S = GF(p^k)[x, y, z] and
q = p^n.  Write B = S/(x^q, y^q, z^q), T(j) = dim B_j for the number of
degree-j monomials with all exponents < q, and H for the Hilbert function
of the quotient B/fB.  Then H(j) = T(j) - rank(f: B_(j-d) -> B_j), the
rank of one graded block.  B is a complete intersection, so Gorenstein
with socle degree 3(q-1), and

    0 -> (0:_B f)(-d) -> B(-d) -> B -> B/fB -> 0,  dim (0:_B f)_i = H(3(q-1) - i)

(the annihilator is Hom_B(B/fB, B), the Matlis dual of B/fB) give, for
N = 3(q-1) + d, the duality H(j) - H(N-j) = T(j) - T(j-d).  So the dense
route ranks only the pieces from ceil(N/2) up to the first zero piece
(the quotient is generated in degree 1), each counted twice but H(N/2):
for j < ceil(N/2) the differences H(j) - H(N-j) telescope to
T(ceil(N/2) - d) + ... + T(ceil(N/2) - 1).

The syzygy route reads HK(q) off one list of degrees.  For f monic in z,
S/(f) is free over A = k[x, y] on 1, z, ..., z^(d-1), and the quotient is
the cokernel of [x^q I | y^q I | M_q] : A^(3d) -> A^d, column j of M_q being
z^(q+j) mod f.  The kernel Syz(x^q, y^q, z^q) is free on 2d generators of
degrees b, so with C(m) = max(m+1, 0) = dim A_m the degree-j piece has
dimension

    H(j) = sum_{i<d} C(j-i) - 3 sum_{i<d} C(j-q-i) + sum_b C(j-b)

and HK(q) = (sum j^2 - 3 sum (q+j)^2 + sum b^2) / 2.  With y = 1 the b are
the shifted degrees of a reduced approximant basis of
{(c, r) : M_q c = r mod x^q}, shift q+j on c_j and q+i on r_i
(`linalg.order_basis_degrees`).

The working field is the form's field of definition: field extension
keeps dimensions, so `syzygy_degrees` and `smooth_check` first rewrite f
over GF(p^e), the smallest subfield of the typed GF(p^k) that holds every
coefficient (`_over_field_of_definition`).  GF(p^e) then runs the same
GF(p)[x] path by restriction of scalars, which repeats every degree e
times; the cost of that basis grows about as e^3, so it is paid only for
coefficients that generate a larger field.  A form not monic in z moves a
rational point off the curve to [0:0:1] (`poly.to_origin`), over
GF(p^(2e)) if the curve holds every rational point: linear changes of
coordinates keep (x^q, y^q, z^q), the Frobenius power of the maximal
ideal.  The syzygy route refuses, before it allocates, a sample whose
series would not fit in memory (`_memory_budget`).

`colength` takes one of two routes per sample.  Over a typed GF(p^k),
k > 1, or when the middle (largest) block has more than DENSE_CELL_LIMIT
cells, it returns the formula above from one syzygy_degrees(f, q) call;
the route follows the typed field, not the working one.  Otherwise
it ranks the blocks densely (`block_rank`).  Small prime-field samples
stay dense because perfbench keeps each command's output until a run
ends, so a faster path runs more passes and reads as more memory.
`colength_naive` is the grading-free oracle: one rank of the full
q^3 x q^3 multiplication matrix.  It and `graded_block` build their index
arrays with `_multiplication_matrix`; `smooth_check` ranks graded blocks
too.  `to_json` is the one encoder of reports, samples and cache records.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from typing import Iterable

try:
    import resource
except ImportError:  # not a POSIX host: no RLIMIT_AS to read
    resource = None

import numpy as np

from .gf import FieldSpec, descend, embed, frobenius_orbit_degree
from .linalg import _index_dtype, mul_matrix, order_basis_degrees, rank
from .poly import HomogeneousPoly, Monomial, PlaneCurve, partial, to_origin

log = logging.getLogger(__name__)

# a prime-field sample whose largest block has at most this many cells goes dense
DENSE_CELL_LIMIT = 250_000

# naive-oracle guards, keyed by characteristic
ORACLE_CUTOFF = {2: 8, 3: 9}
ORACLE_CUTOFF_DEFAULT = 5


class EngineError(RuntimeError):
    pass


class ResourceLimitError(EngineError):
    """Raised when a guard trips; carries whatever samples were finished."""

    def __init__(self, message: str, partial: list["HKSample"] | None = None):
        super().__init__(message)
        self.partial = partial or []


@dataclass(frozen=True, slots=True)
class HKSample:
    """One Hilbert-Kunz function value: colength of (f) + (x^q, y^q, z^q)."""

    n: int
    q: int
    colength: int


def truncated_basis(n: int, q: int) -> list[Monomial]:
    """Monomials x^a y^b z^c with a+b+c = n and a, b, c < q, ascending lex."""
    if n < 0:
        return []
    out: list[Monomial] = []
    a_lo = max(0, n - 2 * (q - 1))
    a_hi = min(n, q - 1)
    for a in range(a_lo, a_hi + 1):
        rem = n - a
        b_lo = max(0, rem - (q - 1))
        b_hi = min(rem, q - 1)
        for b in range(b_lo, b_hi + 1):
            out.append((a, b, rem - b))
    return out


def truncated_count(n: int, q: int) -> int:
    """Closed-form |truncated_basis(n, q)|: coefficient of t^n in ((1-t^q)/(1-t))^3."""
    if n < 0:
        return 0
    total = 0
    sign = 1
    for i in range(4):
        m = n - i * q
        if m >= 0:
            total += sign * math.comb(3, i) * math.comb(m + 2, 2)
        sign = -sign
    return max(total, 0)


def _multiplication_matrix(
    g: HomogeneousPoly, domain: list[Monomial], codomain: list[Monomial]
) -> np.ndarray:
    """Multiplication by g from span(domain) to span(codomain), |codomain| x |domain|.

    Entries are element indices.  Products that fall outside `codomain` are
    dropped: that is the truncation by (x^q, y^q, z^q) when `codomain` is a
    truncated basis.
    """
    mat = np.zeros((len(codomain), len(domain)), dtype=_index_dtype(g.spec.order))
    row_of = {mu: i for i, mu in enumerate(codomain)}
    terms = [(t, coeff.index()) for t, coeff in g.terms.items()]
    for col, m in enumerate(domain):
        for t, index in terms:
            row = row_of.get((m[0] + t[0], m[1] + t[1], m[2] + t[2]))
            if row is not None:
                mat[row, col] = index
    return mat


def graded_block(f: HomogeneousPoly, n: int, q: int) -> np.ndarray:
    """Block n, multiplication by f from truncated_basis(n, q) to truncated_basis(n + d, q)."""
    return _multiplication_matrix(f, truncated_basis(n, q), truncated_basis(n + f.d, q))


def block_rank(f: HomogeneousPoly, n: int, q: int, method: str) -> int:
    """Rank of the degree-n graded block by dense elimination.

    `method` must be "dense": the syzygy route computes no block.  The
    parameter stays because perfbench's tracer counts dense blocks by it.
    """
    if method != "dense":
        raise ValueError(f"unknown block rank method {method!r}")
    return rank(graded_block(f, n, q), f.spec)


@lru_cache(maxsize=1)
def _monic_in_z(f: HomogeneousPoly) -> HomogeneousPoly:
    """A form with z^d coefficient 1 and the Hilbert function of f.

    f itself when its z^d coefficient is nonzero, scaled by the inverse.
    Otherwise f moved by `to_origin` for the first rational point off the
    curve, searched lazily among [1:0:0], [0:1:0], every [a:b:1] and every
    [a:1:0], then scaled; when the curve holds every rational point, the
    same search over GF(p^(2k)).

    a and b run over only the first d+1 elements, which finds the same
    point as the whole field.  h = f(x, y, 1) is nonzero of degree <= d in
    each variable.  A row h(a, .) that vanishes on d+1 elements vanishes
    everywhere, and so does h if d+1 of its rows do; so the first point
    off the curve in index order lies in the grid.  The [a:1:0] chart is
    reached only when p^k <= d, and then the grid is the whole field.
    """
    g = f
    if not f.coefficient((0, 0, f.d)):
        spec = f.spec
        grid = list(islice(spec.elements(), f.d + 1))
        points = chain(
            [(1, 0, 0), (0, 1, 0)],
            ((a, b, 1) for a in grid for b in grid),
            ((a, 1, 0) for a in grid),
        )
        point = next((pt for pt in points if f.evaluate(pt)), None)
        if point is None:
            big = FieldSpec(spec.p, 2 * spec.k)
            return _monic_in_z(HomogeneousPoly(big, {m: embed(c, big) for m, c in f.terms.items()}))
        g = f.substitute(to_origin(spec, point))  # its z^d coefficient is f(point)
    return HomogeneousPoly.from_poly(g * g.coefficient((0, 0, f.d)).inverse())


def _syzygy_series(g: HomogeneousPoly, q: int) -> np.ndarray:
    """[M_q^T ; -I] mod x^q over GF(p), for g monic in z, y = 1.

    Returns the (q, 2kd, kd) coefficient array of the order-basis input:
    rows are the generators z^(q+j) t^l (then the unknowns r_(i,l)),
    columns the coordinates z^i t^l over GF(p)[x]/(x^q), for the generator
    t of GF(p^k).
    """
    spec, d = g.spec, g.d
    p, k = spec.p, spec.k
    # coeff[e][i]: multiplication matrix of the coefficient of x^e z^i in g(x, 1, z)
    coeff = np.zeros((d + 1, d, k, k), dtype=np.int64)
    for (a, _, c), value in g.terms.items():
        if c < d:
            coeff[a, c] = mul_matrix(value)
    used = [e for e in range(min(d + 1, q)) if coeff[e].any()]
    stacked = coeff[used].reshape(len(used) * d * k, k)
    # vec[i, :, e, l]: coordinates of the coefficient of x^e z^i in z^t * t^l
    vec = np.zeros((d, k, q, k), dtype=np.int64)
    vec[0, :, 0] = np.eye(k, dtype=np.int64)
    series = np.zeros((q, 2 * k * d, k * d), dtype=np.int64)
    for t in range(1, q + d):
        # every coeff_e(x) times the z^(d-1) coefficients, in one product
        prod = (stacked @ vec[d - 1].reshape(k, q * k)).reshape(len(used), d, k, q, k)
        vec[1:] = vec[:-1]
        vec[0] = 0
        for u, e in enumerate(used):  # z^d = -sum_i coeff_i(x) z^i
            vec[:, :, e:] -= prod[u, :, :, : q - e]
        vec %= p
        if t >= q:
            j = t - q
            series[:, j * k:(j + 1) * k] = vec.transpose(2, 3, 0, 1).reshape(q, k, d * k)
    series[0, k * d:] = (p - 1) * np.eye(k * d, dtype=np.int64)
    return series


@lru_cache(maxsize=1)
def _over_field_of_definition(f: HomogeneousPoly) -> HomogeneousPoly:
    """f rewritten over GF(p^e), the smallest subfield holding every coefficient.

    e is the lcm of the coefficients' Frobenius orbit degrees, and each
    coefficient is mapped down by `gf.descend`.  f itself when e = k.
    Ranks, and so colengths, do not change under field extension.  Kept
    for the last f, which `hk_sequence` passes once per sample.
    """
    spec = f.spec
    if spec.k == 1:
        return f
    e = math.lcm(*(frobenius_orbit_degree(c) for c in f.terms.values()))
    if e == spec.k:
        return f
    sub = FieldSpec(spec.p, e)
    return HomogeneousPoly(sub, {m: descend(c, sub) for m, c in f.terms.items()})


def _memory_budget() -> int:
    """Bytes one computation may hold: the least of physical memory, the soft
    RLIMIT_AS when one is set, and the largest np.intp."""
    budget = int(np.iinfo(np.intp).max)
    try:
        pages, size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        pages = size = -1
    if pages > 0 and size > 0:  # -1 when the host does not say
        budget = min(budget, pages * size)
    if resource is not None:
        soft = resource.getrlimit(resource.RLIMIT_AS)[0]
        if soft != resource.RLIM_INFINITY:
            budget = min(budget, soft)
    return budget


def syzygy_degrees(f: HomogeneousPoly, q: int) -> tuple[int, ...]:
    """Generator degrees b_1 <= ... <= b_2d of Syz_R(x^q, y^q, z^q) over k[x, y].

    Read off one order basis over GF(p)[x]; see the module docstring.  f is
    first rewritten over its field of definition GF(p^e)
    (`_over_field_of_definition`), once, before the point search: the
    degrees do not change under field extension, and the basis is about
    (k/e)^3 times cheaper than over the typed GF(p^k).  A move to
    GF(p^(2e)) by `_monic_in_z` is not undone.

    The int64 arithmetic is exact while (d+1) e (p-1)^2 + p < 2^63 (and
    p^2 + p < 2^63, for `order_basis_degrees`): `_syzygy_series` subtracts
    up to d+1 products of e terms below p from an entry below p before it
    reduces mod p.  The (q, 2ed, ed) int64 series and the residual copy of
    `order_basis_degrees` take about 32 q (ed)^2 bytes.  Past the int64
    bound, or when that exceeds `_memory_budget()`, it raises
    ResourceLimitError before building anything, the point search included.
    """
    _validate_q(f.spec, q)
    if f.d == 0:
        raise EngineError("syzygy degrees need a form of positive degree")
    f = _over_field_of_definition(f)
    p, k, d = f.spec.p, f.spec.k, f.d
    if max(p * p, (d + 1) * k * (p - 1) ** 2) + p >= 2**63:
        raise ResourceLimitError(f"the syzygy route's int64 arithmetic is not exact for p = {p}")
    need, budget = 32 * q * (k * d) ** 2, _memory_budget()
    if need > budget:
        raise ResourceLimitError(f"the syzygy route at q = {q} needs about {need} bytes, more "
                                 f"than the {budget} bytes of memory and address space available")
    g = _monic_in_z(f)
    k = g.spec.k  # 2e only when d > p^e: tiny fields, far inside both bounds
    shifts = [q + i for i in range(d) for _ in range(k)] * 2
    degs = sorted(order_basis_degrees(_syzygy_series(g, q), shifts, p))
    b = degs[::k]
    if degs != sorted(b * k):  # pragma: no cover - restriction of scalars repeats each degree k times
        raise AssertionError("restricted syzygy degrees are not k-fold")
    return tuple(b)


def _validate_q(spec: FieldSpec, q: int) -> int:
    """Return n with q = p^n, or raise."""
    if q < 1:
        raise EngineError(f"q must be positive, got {q}")
    n = 0
    qq = q
    while qq % spec.p == 0:
        qq //= spec.p
        n += 1
    if qq != 1:
        raise EngineError(f"q = {q} is not a power of the characteristic {spec.p}")
    return n


def colength(f: HomogeneousPoly, q: int) -> HKSample:
    """len(S/(f, x^q, y^q, z^q)) as an exact integer, q a power of char.

    0 for a constant f.  On the syzygy route (see the module docstring) it
    is (sum j^2 - 3 sum (q+j)^2 + sum b^2) / 2 over j < d and the syzygy
    degrees b.  On the dense route it ranks the blocks f: B_(j-d) -> B_j
    only for ceil(N/2) <= j <= 3(q-1), N = 3(q-1) + d, because
    0 -> (0:_B f)(-d) -> B(-d) -> B -> B/fB -> 0 is exact and
    dim (0:_B f)_i = H(3(q-1) - i), so H(j) - H(N-j) = T(j) - T(j-d).
    """
    n_frob = _validate_q(f.spec, q)
    d = f.d
    if d == 0:  # f is a unit
        return HKSample(n_frob, q, 0)
    j_max = 3 * (q - 1)
    mid = (j_max - d) // 2  # the degree of the largest block
    if f.spec.k > 1 or truncated_count(mid, q) * truncated_count(mid + d, q) > DENSE_CELL_LIMIT:
        closed = sum(j * j - 3 * (q + j) ** 2 for j in range(d))
        return HKSample(n_frob, q, (closed + sum(b * b for b in syzygy_degrees(f, q))) // 2)
    # H(j) - H(N - j) = T(j) - T(j - d) for N = j_max + d (module docstring):
    # the differences below half = ceil(N/2) telescope to d values of T, and
    # each piece from half up stands for itself and its mirror, H(N/2) excepted
    half = (j_max + d + 1) // 2
    total = sum(truncated_count(j, q) for j in range(half - d, half))
    for j in range(half, j_max + 1):
        dim_q = truncated_count(j, q) - block_rank(f, j - d, q, "dense")
        if dim_q < 0:  # pragma: no cover - internal sanity
            raise AssertionError("block rank exceeded codomain dimension")
        if dim_q == 0:
            # the quotient algebra is standard graded: a zero piece forces
            # every higher piece to vanish
            break
        total += dim_q if 2 * j == j_max + d else 2 * dim_q
    return HKSample(n_frob, q, total)


def oracle_cutoff(p: int) -> int:
    return ORACLE_CUTOFF.get(p, ORACLE_CUTOFF_DEFAULT)


def colength_naive(f: HomogeneousPoly, q: int) -> HKSample:
    """Grading-free oracle: rank of the whole q^3 x q^3 multiplication map.

    Same contract as `colength`; refuses q beyond a per-characteristic
    cutoff so the dense matrix stays desk-sized.
    """
    spec = f.spec
    n_frob = _validate_q(spec, q)
    cutoff = oracle_cutoff(spec.p)
    if q > cutoff:
        raise ResourceLimitError(
            f"naive oracle refuses q = {q} > cutoff {cutoff} for p = {spec.p}"
        )
    basis = [(a, b, c) for a in range(q) for b in range(q) for c in range(q)]
    return HKSample(n_frob, q, len(basis) - rank(_multiplication_matrix(f, basis, basis), spec))


def hk_sequence(
    curve: PlaneCurve | HomogeneousPoly,
    n_max: int,
    *,
    cache: "SampleCache | None" = None,
    max_q: int | None = None,
) -> list[HKSample]:
    """HK samples for n = 0..n_max, smallest q first; deterministic.

    With a cache, previously computed colengths are reused and new ones
    appended, so an extended re-run only pays for the new depths.  A
    `max_q` guard raises ResourceLimitError carrying the finished samples.
    """
    f = curve.f if isinstance(curve, PlaneCurve) else curve
    if n_max < 0:
        raise EngineError("n_max must be >= 0")
    samples: list[HKSample] = []
    for n in range(n_max + 1):
        q = f.spec.p ** n
        if max_q is not None and q > max_q:
            raise ResourceLimitError(
                f"q = {q} exceeds the configured limit {max_q}", partial=samples
            )
        cached = cache.get(f, q) if cache is not None else None
        if cached is not None:
            sample = HKSample(n, q, cached)
        else:
            sample = colength(f, q)
            if cache is not None:
                cache.put(f, sample)
        samples.append(sample)
        log.debug("HK(%s) q=%d colength=%d", f, q, sample.colength)
    return samples


def smooth_check(curve: PlaneCurve) -> bool:
    """Certify smoothness over the algebraic closure by one rank.

    True iff the degree-N piece of (f, f_x, f_y, f_z) fills all of S_N for
    N = 3d - 3: the Jacobian ideal then has no projective zeros, so the
    curve has no singular points over any extension.  A full piece in one
    degree propagates upward, and N = 3d - 3 dominates the socle degree of
    a regular sequence of three forms of degree <= d, so a False answer is
    definitive rather than a too-small-N artifact.  A rank does not change
    under field extension, so f is first rewritten over its field of
    definition (`_over_field_of_definition`): over GF(p) no block is
    restricted from GF(p^k) to k^2 times its size.
    """
    f = _over_field_of_definition(curve.f)
    big_n = 3 * f.d - 3
    gens = [f] + [g for g in (partial(f, v) for v in ("x", "y", "z")) if g is not None]
    # with q = N + 1 no exponent of degree N is truncated: each block maps onto all of S_N
    blocks = [graded_block(g, big_n - g.d, big_n + 1) for g in gens]
    return rank(np.hstack(blocks), f.spec) == truncated_count(big_n, big_n + 1)


# ---------------------------------------------------------------------------
# emission and caching
# ---------------------------------------------------------------------------

def samples_to_csv(samples: Iterable[HKSample]) -> str:
    return "n,q,colength\n" + "".join(f"{s.n},{s.q},{s.colength}\n" for s in samples)


def to_json(value):
    """JSON-ready data for reports, samples and cache records.

    A Fraction becomes {num, den, decimal}, a dataclass its fields in
    declaration order, a list or tuple a list; anything else is kept.
    """
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [to_json(v) for v in value]
    names = getattr(type(value), "__dataclass_fields__", None)  # in declaration order
    if names is not None:
        return {name: to_json(getattr(value, name)) for name in names}
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator, "decimal": float(value)}
    return value


def samples_to_json(samples: Iterable[HKSample]) -> str:
    return json.dumps(to_json(list(samples)), indent=2) + "\n"


# path -> (the bytes of its complete lines parsed so far, their records, their count)
_PARSED: dict[str, tuple[bytes, dict[tuple[str, str, int], int], int]] = {}


def _parse_record(line: bytes, into: dict[tuple[str, str, int], int]) -> None:
    """Add one cache line's record to `into`; ValueError, KeyError, TypeError
    or RecursionError when the line is not a trusted record."""
    if line.strip():
        rec = json.loads(line)
        field, poly, q, value = rec["field"], rec["poly"], rec["q"], rec["colength"]
        if not (type(field) is type(poly) is str and type(q) is type(value) is int):
            raise ValueError("field and poly must be strings, q and colength integers")
        into[(field, poly, q)] = value


class SampleCache:
    """Line-oriented JSON cache keyed by (field, canonical polynomial, q).

    A record is trusted only when "field" and "poly" are strings and "q"
    and "colength" are JSON integers (not floats, booleans or digit
    strings).  Any other line is corrupt: an EngineError in the middle of
    the file, a dropped torn write as the last line.

    A file is parsed once per process: the bytes of its complete lines and
    their records are kept by path, and a later construction that reads a
    file starting with those bytes parses only the lines after them.  A
    file that was replaced, truncated or removed is parsed whole.
    """

    def __init__(self, path: str):
        self.path = path
        self._torn_at: int | None = None  # byte offset of a torn last line
        self._newline = False
        self._data: dict[tuple[str, str, int], int] = {}
        if not os.path.exists(path):
            _PARSED.pop(path, None)
            return
        with open(path, "rb") as fh:
            raw = fh.read()
        prefix, known, seen = _PARSED.get(path, (b"", {}, 0))
        if not raw.startswith(prefix):
            prefix, known, seen = b"", {}, 0
        *whole, tail = raw[len(prefix):].split(b"\n")
        if whole:
            known = dict(known)
            for no, line in enumerate(whole, seen + 1):
                try:
                    _parse_record(line, known)
                except (ValueError, KeyError, TypeError, RecursionError) as exc:
                    raise EngineError(f"corrupt cache {path}, line {no}: {exc}") from exc
            _PARSED[path] = (raw[:len(raw) - len(tail)], known, seen + len(whole))
        self._data = dict(known)
        try:
            _parse_record(tail, self._data)
        except (ValueError, KeyError, TypeError, RecursionError):
            # no newline after it: a write that was cut off
            sys.stderr.write(f"warning: dropping the torn last line of cache {path}\n")
            self._torn_at = len(raw) - len(tail)
        # a whole record that lost only its newline still needs one
        self._newline = bool(tail.strip()) and self._torn_at is None

    @staticmethod
    def _key(f: HomogeneousPoly, q: int) -> tuple[str, str, int]:
        return (str(f.spec), str(f), q)

    def get(self, f: HomogeneousPoly, q: int) -> int | None:
        """The cached colength of f at q, or None; an impossible one is an EngineError.

        Made monic in z, f gives S/(f, x^q, y^q) free of rank d over
        k[x, y]/(x^q, y^q), so HK(q) <= d q^2.  The record holds only the
        polynomial's text, so this is the first place its degree is known.
        """
        value = self._data.get(self._key(f, q))
        if value is not None and not 0 <= value <= f.d * q * q:
            raise EngineError(f"corrupt cache {self.path}: colength {value} at q = {q} "
                              f"lies outside [0, {f.d * q * q}] for degree {f.d}")
        return value

    def put(self, f: HomogeneousPoly, sample: HKSample) -> None:
        key = self._key(f, sample.q)
        if key in self._data:
            return
        self._data[key] = sample.colength
        rec = {"field": key[0], "poly": key[1], **to_json(sample)}
        if self._torn_at is not None:
            os.truncate(self.path, self._torn_at)
            self._torn_at = None
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write("\n" * self._newline + json.dumps(rec) + "\n")
        self._newline = False
