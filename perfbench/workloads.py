"""Seeded workload generation: every workload is a list of `hk` argv lists.

The program under test receives only these strings.  Every command pins
`--threads 1` (two threads are slower and noisier than one for this
engine, so one thread is the fixed yardstick) and `--no-timestamp` where
the subcommand has it, so reports are byte-reproducible and can be
digested.  The seed only permutes the deep workloads; in
`shallow-corpus` it draws the polynomials, while the mix of fields,
degrees, depths and curve kinds is fixed so that the total cost of a
corpus barely moves from one seed to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

COMMON = ["--threads", "1"]

# paper oracles at acceptance depth: (field, polynomial, nmax)
DEEP_PRIME = [
    ("GF(2)", "x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z", 7),  # monsky2 g_1, 49/16
    ("GF(3)", "z^4 - x*y*(x+y)*(x+2*y)", 4),  # monsky3 f_2, 28/9
    ("GF(5)", "y^2*z - x^3 - x^2*z", 3),  # nodal cubic, 7/3; not monic in z
]

# k >= 2 family sweeps: (family, k, nmax)
DEEP_EXT = [("monsky2", 2, 6), ("monsky3", 2, 3)]

# shallow-corpus mix: (field, order, p, nmax, degrees, kind, count).
# Deepest q is 27; GF(7) (q=49) and GF(27) cost seconds per call and are
# left out.  `kind` is "monic" (has a z^d term), "nonmonic" (no z^d term)
# or "singular" (every term has x,y-degree >= 2, so [0:0:1] is a singular
# point and the form is not monic in z).
SHALLOW_SLOTS = [
    ("GF(2)", 2, 2, 3, (3, 4, 5, 6, 7), "monic", 10),
    ("GF(2)", 2, 2, 3, (3, 4, 5, 6, 7), "nonmonic", 6),
    ("GF(2)", 2, 2, 3, (3, 4, 5, 6, 7), "singular", 6),
    ("GF(2)", 2, 2, 2, (4, 5, 6), "monic", 4),
    ("GF(3)", 3, 3, 2, (3, 4, 5, 6, 7), "monic", 10),
    ("GF(3)", 3, 3, 2, (3, 4, 5, 6, 7), "nonmonic", 6),
    ("GF(3)", 3, 3, 2, (3, 4, 5, 6, 7), "singular", 6),
    ("GF(2^2)", 4, 2, 2, (3, 4, 5, 6, 7), "monic", 8),
    ("GF(2^2)", 4, 2, 2, (3, 4, 5, 6, 7), "singular", 4),
    ("GF(5)", 5, 5, 2, (3, 4, 5, 6, 7), "monic", 8),
    ("GF(5)", 5, 5, 2, (3, 4, 5, 6, 7), "nonmonic", 4),
    ("GF(5)", 5, 5, 2, (3, 4, 5, 6, 7), "singular", 4),
]

# family members mixed into the corpus: (field, polynomial, nmax, predicted HKM)
SHALLOW_FAMILY = [
    ("GF(2)", "x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z", 3, "49/16"),
    ("GF(2^2)", "[1,0]*x^2*y^2 + z^4 + x*y*z^2 + (x^3+y^3)*z", 2, "769/256"),
    ("GF(3)", "z^4 - x*y*(x+y)*(x+2*y)", 2, "28/9"),
    ("GF(5)", "y^2*z - x^3", 2, "7/3"),
    ("GF(3)", "y^3*z^2 - x^5", 2, "19/5"),
    ("GF(2)", "y^4*z^3 - x^7", 3, "37/7"),
]

# curves re-run one depth deeper through the cache, per (field, nmax) of
# the first run: about one call in four, every deeper q still <= 27.  The
# counts are fixed so that the seed does not change how many of the costly
# GF(3) q=27 calls a corpus holds.
REPEATS = {("GF(2)", 2): 3, ("GF(2)", 3): 12, ("GF(3)", 2): 10}


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    kind: str  # "classify" or "family"
    field: str = ""
    poly: str = ""
    nmax: int = 0
    repeat: bool = False  # re-runs an earlier curve one depth deeper
    predicted: str = ""  # family HKM, when the curve belongs to a family

    def record(self) -> dict:
        if self.kind == "classify":
            return {"field": self.field, "poly": self.poly, "nmax": self.nmax, "repeat": self.repeat}
        return {"argv": list(self.argv)}


def classify_cmd(field: str, poly: str, nmax: int, *, cache: str | None = None,
                 repeat: bool = False, predicted: str = "") -> Command:
    argv = ["classify", "--field", field, "--poly", poly, "--nmax", str(nmax),
            *COMMON, "--no-timestamp"]
    if cache is not None:
        argv += ["--cache", cache]
    return Command(tuple(argv), "classify", field, poly, nmax, repeat, predicted)


def deep_prime(rng: random.Random, cache: str) -> list[Command]:
    cmds = [classify_cmd(f, poly, n) for f, poly, n in DEEP_PRIME]
    rng.shuffle(cmds)
    return cmds


def deep_ext(rng: random.Random, cache: str) -> list[Command]:
    cmds = [Command(("family", name, "--k", str(k), "--nmax", str(n), *COMMON), "family")
            for name, k, n in DEEP_EXT]
    rng.shuffle(cmds)
    return cmds


def _coeff(rng: random.Random, order: int, p: int) -> str:
    """A nonzero coefficient of GF(p) or GF(p^2), in the CLI's syntax."""
    c = rng.randrange(1, order)
    return str(c) if order == p else f"[{c // p},{c % p}]"


def _monomial(a: int, b: int, c: int) -> str:
    parts = [f"{v}^{e}" if e > 1 else v for v, e in zip("xyz", (a, b, c)) if e]
    return "*".join(parts)


def random_form(rng: random.Random, order: int, p: int, d: int, kind: str) -> str:
    """Sparse random form of degree d with nonzero coefficients."""
    mons = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
    if kind == "singular":
        pool = [m for m in mons if m[0] + m[1] >= 2]
    else:
        pool = [m for m in mons if m != (0, 0, d)]
    n_terms = min(len(pool), rng.randint(3, 5))
    chosen = rng.sample(pool, n_terms)
    if kind == "monic":
        chosen.append((0, 0, d))
    terms = []
    for m in sorted(chosen, reverse=True):
        c = _coeff(rng, order, p)
        mon = _monomial(*m)
        terms.append(mon if c == "1" else f"{c}*{mon}")
    return " + ".join(terms)


def shallow_corpus(rng: random.Random, cache: str) -> list[Command]:
    base: list[Command] = []
    for field, order, p, nmax, degrees, kind, count in SHALLOW_SLOTS:
        for i in range(count):
            d = degrees[i % len(degrees)]
            poly = random_form(rng, order, p, d, kind)
            base.append(classify_cmd(field, poly, nmax, cache=cache))
    for field, poly, nmax, hkm in SHALLOW_FAMILY:
        base.append(classify_cmd(field, poly, nmax, cache=cache, predicted=hkm))
    rng.shuffle(base)
    chosen = []
    for (field, nmax), count in REPEATS.items():
        group = [i for i, c in enumerate(base) if (c.field, c.nmax) == (field, nmax)]
        chosen += rng.sample(group, count)
    cmds = list(base)
    for i in sorted(chosen, reverse=True):
        c = base[i]
        deeper = classify_cmd(c.field, c.poly, c.nmax + 1, cache=cache,
                              repeat=True, predicted=c.predicted)
        cmds.insert(rng.randint(cmds.index(c) + 1, len(cmds)), deeper)
    return cmds


WORKLOADS = {
    "deep-prime": deep_prime,
    "deep-ext": deep_ext,
    "shallow-corpus": shallow_corpus,
}


def generate(name: str, seed: int, cache: str) -> list[Command]:
    """The commands of workload `name` for `seed`; `cache` is the --cache path."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), cache)
