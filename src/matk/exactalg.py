"""Exact linear algebra over Z, Q and prime fields.

Everything here is exact: arbitrary-precision integers, ``fractions.Fraction``
for rationals, and reduced residues for F_p.  Every matrix is a list of
sparse rows, one ``{column: entry}`` dict per row.  Ranks and invariant
factors come from one sparse elimination on integer rows, chosen for low
fill-in: over Z and Q it pivots on units only and hands the small residual
to a Smith form computed modulo a maximal minor; over F_p any nonzero entry
is a pivot.  ``cohomology_groups`` gives this kernel the coboundary rows of
a cochain complex directly and reduces each matrix once.  Solves go through
``Solver``, which factors one matrix once by a column-ordered sparse
Gauss-Jordan elimination (unit pivots only over Z, with the
transform-tracking Smith form on the rows and columns left over) and then
answers each right-hand side with a sparse product and a back-substitution.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional, Sequence

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


# -- Smith normal form -------------------------------------------------------


def smith_normal_form(M: Sequence[Sequence[int]]) -> tuple:
    """(D, U, V) with U*M*V = D, D diagonal of M's shape with d1 | d2 | ...,
    and U (rows x rows), V (cols x cols) unimodular over Z.

    Pivots on the least nonzero absolute value to limit coefficient growth.
    Diagonal entries are normalized nonnegative.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    D = [[int(x) for x in row] for row in M]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):  # row_dst += q * row_src
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for r in D:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def sweep(t0):
        """Diagonalize D[t0:, t0:] assuming everything left/above is untouched."""
        t = t0
        while True:
            piv = None
            best = None
            for i in range(t, rows):
                for j in range(t, cols):
                    a = D[i][j]
                    if a != 0 and (best is None or abs(a) < best):
                        best = abs(a)
                        piv = (i, j)
            if piv is None:
                return
            swap_rows(t, piv[0])
            swap_cols(t, piv[1])
            dirty = True
            while dirty:
                dirty = False
                for i in range(t + 1, rows):
                    if D[i][t]:
                        add_row(t, i, -(D[i][t] // D[t][t]))
                        if D[i][t]:  # remainder beat the pivot: promote and restart
                            swap_rows(t, i)
                            dirty = True
                for j in range(t + 1, cols):
                    if D[t][j]:
                        add_col(t, j, -(D[t][j] // D[t][t]))
                        if D[t][j]:
                            swap_cols(t, j)
                            dirty = True
            t += 1

    sweep(0)

    # enforce the divisibility chain d1 | d2 | ...
    k = min(rows, cols)
    fixed = False
    while not fixed:
        fixed = True
        for i in range(k - 1):
            a, b = D[i][i], D[i + 1][i + 1]
            if a and b and b % a != 0:
                add_col(i + 1, i, 1)  # puts b below the pivot; redo the corner
                sweep(i)
                fixed = False
                break

    for i in range(k):
        if D[i][i] < 0:
            for rr in range(cols):
                V[rr][i] = -V[rr][i]
            for rr in range(rows):
                D[rr][i] = -D[rr][i]
    return D, U, V


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
    """(x, y, u, v) with x*v - y*u = 1, x*a + y*b = gcd(a, b) and u*a + v*b = 0,
    for a > 0 and b >= 0; the identity on the first slot when a divides b."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g = gcd(a, b)
    x = pow(a // g, -1, b // g)
    return x, (g - x * a) // b, -(b // g), a // g


def _pivot_to_corner(A, t: int) -> bool:
    """Swap a nonzero entry of A[t:, t:] to A[t][t]; False when there is none."""
    piv = next(((i, j) for i in range(t, len(A)) for j in range(t, len(A[0])) if A[i][j]),
               None)
    if piv is None:
        return False
    A[t], A[piv[0]] = A[piv[0]], A[t]
    for row in A:
        row[t], row[piv[1]] = row[piv[1]], row[t]
    return True


def _modular_invariant_factors(M) -> list:
    """The nonzero invariant factors of a dense integer matrix.

    Fraction-free (Bareiss) elimination gives the rank r and a nonzero r x r
    minor d, which every nonzero invariant factor divides.  So over Z/dZ the
    Smith form, each diagonal entry e read as gcd(e, d) and the whole diagonal
    put in divisibility order, starts with them all, and no intermediate
    entry reaches d (Hafner-McCurley).  Plain Smith elimination over Z can
    instead grow entries without bound.
    """
    A = [list(row) for row in M]
    r, d = 0, 1
    while _pivot_to_corner(A, r):
        for i in range(r + 1, len(A)):
            for j in range(r + 1, len(A[0])):
                A[i][j] = (A[i][j] * A[r][r] - A[i][r] * A[r][j]) // d
            A[i][r] = 0
        d = A[r][r]
        r += 1
    d = abs(d)
    B = [[a % d for a in row] for row in M]
    k = min(len(B), len(B[0]))
    diag = []
    for t in range(k):
        if not _pivot_to_corner(B, t):
            diag.extend([d] * (k - t))  # zero mod d: gcd(0, d) = d
            break
        # clear column t by unimodular row pairs, then row t the same way on
        # the transpose; a pass that changes B[t][t] makes it a proper divisor
        while any(B[i][t] for i in range(t + 1, len(B))) or any(B[t][t + 1:]):
            for _ in range(2):
                for i in range(t + 1, len(B)):
                    if B[i][t]:
                        x, y, u, v = _unimodular_pair(B[t][t], B[i][t])
                        B[t], B[i] = ([(x * a + y * b) % d for a, b in zip(B[t], B[i])],
                                      [(u * a + v * b) % d for a, b in zip(B[t], B[i])])
                B = [list(col) for col in zip(*B)]
        diag.append(gcd(B[t][t], d))
    return _divisibility_chain(diag)[:r]


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
    means anything: every factor is then 1."""
    pivots, residual = _sparse_reduce(rows, ring.p if ring.kind == "Fp" else 0)
    return [1] * pivots + (_modular_invariant_factors(residual) if residual else [])


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
    Z the rows left with entries form a residual R, and ``smith_normal_form``
    gives U R V = D.  A right-hand side costs y = E b; it is solvable iff y
    vanishes on the rows left empty and d_i | (U y)_i, with (U y)_i = 0 past
    the rank of R.  The particular solution (free coordinates zero, outside
    R over Z) and each kernel vector (one free coordinate 1, or one kernel
    column of V) are back-substituted through the pivot rows: over a field
    those of the echelon form, over Z a basis of the kernel lattice.
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
        R = [[live[i].get(j, 0) for j in self._res_cols] for i in self._residual]
        D, self._U, self._V = smith_normal_form(R) if R else ([], [], [])
        self._diag = [D[t][t] for t in range(min(len(D), len(self._res_cols))) if D[t][t]]
        self.rank = len(pivots) + len(self._diag)
        self._E = {}  # E by columns: row of b -> [(row of y, entry)]
        for i, row in enumerate(E):
            for j, e in row.items():
                self._E.setdefault(j, []).append((i, e))
        bound = set(pivots.values()) | set(self._res_cols)
        self.kernel = [self._lift({}, {j: ring.one}) for j in range(cols) if j not in bound]
        for t in range(len(self._diag), len(self._res_cols)):
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
        """(y, z, residue): y = E b by row, z = U y on the residual, and the
        part of them that decides solvability."""
        p, zero = self._p, self.ring.zero
        y: dict = {}
        for j, bj in enumerate(b):
            if bj:
                for i, e in self._E.get(j, ()):
                    y[i] = y.get(i, zero) + e * bj
        if p:
            y = {i: v % p for i, v in y.items()}
        r = [y.get(i, 0) for i in self._residual]
        z = [sum(u * v for u, v in zip(row, r)) for row in self._U]
        rank = len(self._diag)
        residue = (tuple(c % d for c, d in zip(z, self._diag)) + tuple(z[rank:])
                   + tuple(y.get(i, zero) for i in self._empty))
        return y, z, residue

    def residue(self, b) -> tuple:
        """b modulo the column span of A, canonically: equal for b and b'
        exactly when A x = b - b' has a solution, and all zero exactly when
        A x = b has one."""
        return self._reduce(b)[2]

    def solve(self, b) -> Optional[list]:
        """A solution x of A x = b, or None when b is not in the image."""
        y, z, residue = self._reduce(b)
        if any(residue):
            return None
        w = [c // d for c, d in zip(z, self._diag)]
        free = {j: sum(a * c for a, c in zip(V, w)) for j, V in zip(self._res_cols, self._V)}
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
