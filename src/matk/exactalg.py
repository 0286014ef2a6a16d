"""Exact linear algebra over Z, Q and prime fields.

Everything here is exact: arbitrary-precision integers, ``fractions.Fraction``
for rationals, and reduced residues for F_p.  Every matrix is a list of
sparse rows, one ``{column: entry}`` dict per row.  Ranks and invariant
factors come from one sparse elimination on integer rows, chosen for low
fill-in: over Z and Q it pivots on units only, and the small dense residual
is made diagonal by column Hermite forms of it and its transpose in turn;
over F_p any nonzero entry is a pivot.  ``cohomology_groups`` gives this
kernel the coboundary rows of a cochain complex directly and reduces each
matrix once.  Solves go through ``Solver``, which factors one matrix once by
a column-ordered sparse Gauss-Jordan elimination (unit pivots only over Z,
with the column Hermite form H = R V of the residual R left over, keeping
only V) and then answers each right-hand side with a sparse product, a
canonical reduction by the columns of H, and a back-substitution.
``_hermite`` is the one dense integer routine.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional

from .errors import MalformedInput, MatkError, parse_int


class NotPrime(MatkError):
    pass


class ModulusTooLarge(MatkError):
    """A modulus beyond the range where primality is decided exactly."""


class DivisionByZero(MatkError, ZeroDivisionError):
    """Division by an element that is zero in the ring (such as 2 in F2)."""


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson-Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp.
# 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < PRIMALITY_BOUND."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
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


@dataclass(frozen=True)
class Ring:
    """One of Z, Q or F_p, with element arithmetic.

    Elements are ints for Z and F_p (residues in [0, p)) and Fractions for Q.
    """

    kind: str  # "Z" | "Q" | "Fp"
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p is not None and self.p >= PRIMALITY_BOUND:
                raise ModulusTooLarge(f"modulus {self.p} is not below {PRIMALITY_BOUND}, "
                                      "up to which primality is decided exactly")
            if self.p is None or not _is_prime(self.p):
                raise NotPrime(f"modulus {self.p!r} is not prime")

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def of_int(self, n: int):
        if self.kind == "Z":
            return int(n)
        if self.kind == "Q":
            return Fraction(n)
        return n % self.p

    @property
    def zero(self):
        return self.of_int(0)

    @property
    def one(self):
        return self.of_int(1)

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.kind == "Fp" else a - b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def inv(self, a):
        if (a % self.p if self.kind == "Fp" else a) == 0:
            raise DivisionByZero(f"division by zero in {self.name()}")
        if self.kind == "Q":
            return 1 / Fraction(a)
        if self.kind == "Fp":
            return pow(a, self.p - 2, self.p)
        raise ValueError("Z is not a field")

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def element_to_str(self, a) -> str:
        if self.kind == "Q":
            a = Fraction(a)
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return str(a)

    def element_from_str(self, s: str):
        parts = s.strip().split("/")
        if len(parts) > (1 if self.kind == "Z" else 2):
            raise MalformedInput(f"{s!r} is not an element of {self.name()}")
        num, *den = (self.of_int(parse_int(x, "coefficient")) for x in parts)
        return self.div(num, den[0]) if den else num

    def name(self) -> str:
        return {"Z": "Z", "Q": "Q"}.get(self.kind, f"F{self.p}")

    @staticmethod
    def parse(name: str) -> "Ring":
        name = name.strip()
        if name == "Z":
            return ZZ
        if name == "Q":
            return QQ
        if name.startswith("Fp:"):
            return GF(parse_int(name[3:], "modulus"))
        if name.startswith("F"):
            return GF(parse_int(name[1:], "modulus"))
        raise MalformedInput(f"unknown ring {name!r}")


ZZ = Ring("Z")
QQ = Ring("Q")


def GF(p: int) -> Ring:
    return Ring("Fp", p)


# -- sparse elimination: ranks, invariant factors, cochain complexes ----------


def _sparse_reduce(M, p: int = 0):
    """Gaussian elimination on an integer matrix given by sparse rows.

    With p = 0 it works over Z and pivots only on entries of absolute value
    1; with p prime it works over F_p and any nonzero entry is a pivot.
    Each step takes the shortest live row (a heap keyed by row length) and,
    among its pivot candidates, the one with the fewest entries in its column,
    which keeps fill-in low.  Returns (pivots, residual): the residual is the
    dense submatrix left once no candidate remains, always empty over F_p.
    Each unit pivot is an elementary SNF step, so over Z the invariant
    factors of M are those of the residual prefixed by ``pivots`` ones.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set] = {}
    for i, row in enumerate(M):
        row = {j: a % p for j, a in row.items() if a % p} if p else dict(row)
        if row:
            rows[i] = row
            for j in row:
                cols.setdefault(j, set()).add(i)
    heap = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        n, i0 = heapq.heappop(heap)
        pivot_row = rows.get(i0)
        if pivot_row is None or len(pivot_row) != n:
            continue  # stale entry: the row is gone or has changed since
        units = [j for j, a in pivot_row.items() if p or a in (1, -1)]
        if not units:
            continue  # stays in the residual unless a later step changes it
        j0 = min(units, key=lambda j: len(cols[j]))
        inv = pow(pivot_row[j0], -1, p) if p else pivot_row[j0]
        del rows[i0]
        for j in pivot_row:
            cols[j].discard(i0)
        for i in cols.pop(j0):
            row = rows[i]
            f = row.pop(j0) * inv
            for j, a in pivot_row.items():
                if j == j0:
                    continue
                new = row.get(j, 0) - f * a
                if p:
                    new %= p
                if new:
                    row[j] = new
                    cols[j].add(i)
                elif j in row:
                    del row[j]
                    cols[j].discard(i)
            if row:
                heapq.heappush(heap, (len(row), i))
            else:
                del rows[i]
        pivots += 1
    live_rows = sorted(rows)
    live_cols = sorted({j for row in rows.values() for j in row})
    residual = [[rows[i].get(j, 0) for j in live_cols] for i in live_rows]
    return pivots, residual


def _unimodular_pair(a: int, b: int):
    """(x, y, u, v) with x*v - y*u = +-1, x*a + y*b = gcd(a, b) and
    u*a + v*b = 0, for a != 0; at most a sign change on the first slot when
    a divides b."""
    if b % a == 0:
        return (1 if a > 0 else -1), 0, -(b // a), 1
    g = gcd(a, b)
    x = pow(a // g, -1, abs(b // g))
    return x, (g - x * a) // b, -(b // g), a // g


def _hermite(A, V=None) -> int:
    """Bring the dense integer matrix A to its column Hermite normal form in
    place, by unimodular column operations that are applied to V as well
    when it is given; returns the rank.

    Row by row, the columns from t on are combined pairwise
    (``_unimodular_pair``) until one nonzero entry is left in the row; that
    entry is swapped into column t and made positive, and the row's entries
    to its left are reduced modulo it.  Column t is then zero above its
    pivot row, and the earlier entries of a pivot row lie in [0, pivot).
    """
    t = 0
    for i, row in enumerate(A):
        nonzero = [j for j in range(t, len(row)) if row[j]]
        if not nonzero:
            continue
        live = A[i:] + (V or [])  # the rows above are zero from column t on
        j0 = min(nonzero, key=lambda j: abs(row[j]))
        for j in nonzero:
            if j != j0:
                x, y, u, v = _unimodular_pair(row[j0], row[j])
                for r in live:
                    r[j0], r[j] = x * r[j0] + y * r[j], u * r[j0] + v * r[j]
        sign = 1 if row[j0] > 0 else -1
        for r in live:
            r[j0], r[t] = r[t], sign * r[j0]
        for j in range(t):
            q = row[j] // row[t]
            if q:
                for r in live:
                    r[j] -= q * r[t]
        t += 1
    return t


def _divisibility_chain(diag: list) -> list:
    """The invariant factors of a diagonal matrix of positive integers:
    diag(a, b) ~ diag(gcd, lcm), applied pairwise, gives d1 | d2 | ..."""
    diag = list(diag)
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def _invariant_factors(rows, ring: Ring) -> list:
    """The nonzero invariant factors of an integer matrix given by sparse
    rows, from one reduction.  Over a field only their count, the rank,
    means anything: every factor is then 1.

    Over Z the residual is made diagonal by Hermite forms of it and of its
    transpose in turn.  The corner entry's absolute value never grows, and
    once it stops shrinking it divides its row and column, which the next
    form clears; the rest follows by induction.
    """
    pivots, A = _sparse_reduce(rows, ring.p if ring.kind == "Fp" else 0)
    if not A:  # always over F_p, and for most matrices over Z
        return [1] * pivots
    while _hermite(A) < sum(1 for row in A for a in row if a):
        A = [list(col) for col in zip(*A)]
    return [1] * pivots + _divisibility_chain([a for row in A for a in row if a])


def cohomology_groups(sizes: Mapping[int, int], deltas: Mapping[int, list],
                      ring: Ring) -> dict:
    """The cohomology of a cochain complex of free modules, per degree.

    ``sizes[p]`` is the rank of C^p, and ``deltas[p]`` the coboundary
    C^p -> C^{p+1} as integer rows, one ``{column: entry}`` dict per basis
    element of C^{p+1} (a missing degree is the zero map).  Each coboundary
    is reduced once: the count of its nonzero invariant factors is its rank,
    and over Z the factors above 1 are the torsion of H^{p+1}.
    """
    factors = {p: _invariant_factors(rows, ring) for p, rows in deltas.items()}
    out = {}
    for p, n in sizes.items():
        image = factors.get(p - 1, [])
        torsion = () if ring.is_field else tuple(d for d in image if d > 1)
        out[p] = AbelianGroup(n - len(factors.get(p, [])) - len(image), torsion)
    return out


# -- solving: one factorization, many right-hand sides -------------------------


def _subtract(row: dict, f, src: dict, p: int, index: Optional[dict] = None, i=None):
    """row -= f * src in place (mod p if p), keeping ``index`` current for row i."""
    for j, a in src.items():
        new = row.get(j, 0) - f * a
        if p:
            new %= p
        if new:
            row[j] = new
            if index is not None:
                index[j].add(i)
        elif j in row:
            del row[j]
            if index is not None:
                index[j].discard(i)


class Solver:
    """A x = b for one matrix A (sparse rows, ``cols`` columns) and many
    right-hand sides b, factored once.

    One column-ordered Gauss-Jordan elimination serves every ring: each
    column takes as pivot the shortest non-pivot row with a usable entry
    there (nonzero over a field, +-1 over Z), scales it to 1 and clears the
    column from every other row, recording the row operations as a sparse E.
    Over a field E A is then the unique reduced row echelon form of A.  Over
    Z the rows left with entries form a residual R, and ``_hermite`` gives
    its column Hermite form H = R V, column t with its pivot in row i_t.  A
    right-hand side costs y = E b.  On the residual rows it is reduced by
    subtracting the multiple q_t = floor(y[i_t] / H[i_t][t]) of each column
    t in turn; the remainder is canonical, since column t is zero above row
    i_t, and b is solvable iff it and y on the rows left empty vanish.  The
    particular solution (free coordinates zero; V times q on the columns of
    R over Z) and each kernel vector (one free coordinate 1, or one column
    of V past the rank of H) are back-substituted through the pivot rows:
    over a field those of the echelon form, over Z a basis of the kernel
    lattice.
    """

    def __init__(self, rows, ring: Ring, cols: int):
        self.ring, self.cols = ring, cols
        self._p = p = ring.p if ring.kind == "Fp" else 0
        live: dict[int, dict] = {}
        index: dict[int, set] = {}  # column -> rows with an entry there
        E = [{i: 1} for i in range(len(rows))]
        for i, row in enumerate(rows):
            row = {j: a % p for j, a in row.items() if a % p} if p else {
                j: a for j, a in row.items() if a}
            if row:
                live[i] = row
                for j in row:
                    index.setdefault(j, set()).add(i)
        pivots: dict[int, int] = {}  # pivot row -> its column
        for c in sorted(index):
            usable = [i for i in index[c] if i not in pivots
                      and (ring.is_field or live[i][c] in (1, -1))]
            if not usable:
                continue
            k = min(usable, key=lambda i: (len(live[i]), i))
            inv = ring.inv(live[k][c]) if ring.is_field else live[k][c]
            if inv != 1:
                live[k] = {j: a * inv % p if p else a * inv for j, a in live[k].items()}
                E[k] = {j: e * inv % p if p else e * inv for j, e in E[k].items()}
            for i in list(index[c]):
                if i != k:
                    f = live[i][c]
                    _subtract(live[i], f, live[k], p, index, i)
                    _subtract(E[i], f, E[k], p)
            pivots[k] = c
        self._pivots = pivots
        self._rows = {k: live[k] for k in pivots}
        self._index = index
        rest = [i for i in range(len(rows)) if i not in pivots]
        self._empty = [i for i in rest if not live.get(i)]
        self._residual = [i for i in rest if live.get(i)]  # only over Z
        self._res_cols = sorted({j for i in self._residual for j in live[i]})
        n = len(self._res_cols)
        self._H = [[live[i].get(j, 0) for j in self._res_cols] for i in self._residual]
        self._V = [[int(i == j) for j in range(n)] for i in range(n)]
        k = _hermite(self._H, self._V)
        self._pivot_rows = [next(i for i, row in enumerate(self._H) if row[t]) for t in range(k)]
        self.rank = len(pivots) + k
        self._E = {}  # E by columns: row of b -> [(row of y, entry)]
        for i, row in enumerate(E):
            for j, e in row.items():
                self._E.setdefault(j, []).append((i, e))
        bound = set(pivots.values()) | set(self._res_cols)
        self.kernel = [self._lift({}, {j: ring.one}) for j in range(cols) if j not in bound]
        for t in range(k, n):
            self.kernel.append(self._lift({}, {j: V[t] for j, V in zip(self._res_cols, self._V)
                                               if V[t]}))

    def _lift(self, y: dict, free: dict) -> list:
        """The x equal to ``free`` off the pivot columns with (E A x)_k = y_k
        on every pivot row k: back-substitution through the reduced rows."""
        p, zero = self._p, self.ring.zero
        x = [zero] * self.cols
        for k, c in self._pivots.items():
            x[c] = y.get(k, zero)
        for j, a in free.items():
            x[j] = a
            for k in self._index.get(j, ()):
                c = self._pivots.get(k)
                if c is not None:
                    v = x[c] - self._rows[k][j] * a
                    x[c] = v % p if p else v
        return x

    def _reduce(self, b):
        """(y, q, residue): y = E b by row, the multiples q_t of H's columns
        taken off y on the residual rows, and what is left, which decides
        solvability."""
        p, zero = self._p, self.ring.zero
        y: dict = {}
        for j, bj in enumerate(b):
            if bj:
                for i, e in self._E.get(j, ()):
                    y[i] = y.get(i, zero) + e * bj
        if p:
            y = {i: v % p for i, v in y.items()}
        r = [y.get(i, 0) for i in self._residual]
        q = []
        for t, i in enumerate(self._pivot_rows):
            q.append(r[i] // self._H[i][t])
            for s in range(i, len(r)):
                r[s] -= q[t] * self._H[s][t]
        return y, q, tuple(r) + tuple(y.get(i, zero) for i in self._empty)

    def residue(self, b) -> tuple:
        """b modulo the column span of A, canonically: equal for b and b'
        exactly when A x = b - b' has a solution, and all zero exactly when
        A x = b has one."""
        return self._reduce(b)[2]

    def solve(self, b) -> Optional[list]:
        """A solution x of A x = b, or None when b is not in the image."""
        y, q, residue = self._reduce(b)
        if any(residue):
            return None
        free = {j: sum(a * c for a, c in zip(V, q)) for j, V in zip(self._res_cols, self._V)}
        return self._lift(y, {j: a for j, a in free.items() if a})


# -- finitely generated abelian groups ---------------------------------------


@dataclass(frozen=True)
class AbelianGroup:
    """free_rank copies of Z plus cyclic factors with d1 | d2 | ... (each > 1)."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors {self.torsion} violate divisibility")
        if any(d <= 1 for d in self.torsion):
            raise ValueError("torsion factors must exceed 1")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def direct_sum(self, *others: "AbelianGroup") -> "AbelianGroup":
        """Direct sum, renormalized to a divisibility chain of invariant factors."""
        groups = (self,) + others
        chain = _divisibility_chain([d for g in groups for d in g.torsion])
        return AbelianGroup(sum(g.free_rank for g in groups),
                            tuple(d for d in chain if d != 1))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"C{d}" for d in self.torsion)
        return " x ".join(parts) if parts else "0"

    def to_json(self):
        return {"free_rank": self.free_rank, "torsion": list(self.torsion)}
