"""Exact linear algebra over Z, Q and prime fields.

Everything here is exact: arbitrary-precision integers, ``fractions.Fraction``
for rationals, and reduced residues for F_p.  Ranks and invariant factors come
from one sparse elimination on integer rows, one ``{column: entry}`` dict per
row.  Over Z (and Q, whose rows are scaled to integers) it pivots on units
only and hands the small residual to a Smith form computed modulo a maximal
minor; over F_p any nonzero entry is a pivot.  ``cohomology_groups`` gives
these kernels the coboundary rows of a cochain complex directly and reduces
each matrix once.  Solves go through ``Solver``, which factors one dense
matrix (a list of rows) once and then answers each right-hand side with a
matrix-vector product: over a field from the row echelon form of [A | I],
over Z from the transform-tracking Smith normal form, which pivots on the
entry of least absolute value.  It is the only code that chooses between
the two.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, NamedTuple, Optional, Sequence

from .errors import MalformedInput, MatkError, parse_int


class NotPrime(MatkError):
    pass


class DivisionByZero(MatkError, ZeroDivisionError):
    """Division by an element that is zero in the ring (such as 2 in F2)."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
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


def zeros(rows: int, cols: int, ring: Ring = ZZ):
    return [[ring.zero] * cols for _ in range(rows)]


def identity(n: int, ring: Ring = ZZ):
    M = zeros(n, n, ring)
    for i in range(n):
        M[i][i] = ring.one
    return M


def mat_mul(A, B, ring: Ring = ZZ):
    n, k = len(A), len(B)
    m = len(B[0]) if B else 0
    out = zeros(n, m, ring)
    for i in range(n):
        Ai = A[i]
        for t in range(k):
            a = Ai[t]
            if ring.is_zero(a):
                continue
            Bt = B[t]
            row = out[i]
            for j in range(m):
                row[j] = ring.add(row[j], ring.mul(a, Bt[j]))
    return out


def mat_vec(A, x, ring: Ring = ZZ):
    return [
        _dot(row, x, ring)
        for row in A
    ]


def _dot(row, x, ring: Ring):
    s = ring.zero
    for a, b in zip(row, x):
        if not ring.is_zero(a) and not ring.is_zero(b):
            s = ring.add(s, ring.mul(a, b))
    return s


# -- Smith normal form -------------------------------------------------------


class SNFResult(NamedTuple):
    D: list  # diagonal form, same shape as the input
    U: list  # unimodular, rows x rows
    V: list  # unimodular, cols x cols


def smith_normal_form(M: Sequence[Sequence[int]]) -> SNFResult:
    """U*M*V = D with D diagonal and d1 | d2 | ... ; U, V unimodular over Z.

    Pivots on the least nonzero absolute value to limit coefficient growth.
    Diagonal entries are normalized nonnegative.
    """
    rows = len(M)
    cols = len(M[0]) if rows else 0
    D = [[int(x) for x in row] for row in M]
    U = identity(rows)
    V = identity(cols)

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
    return SNFResult(D, U, V)


def snf_diagonal(M) -> list:
    """Invariant factors (diagonal of the Smith form) of an integer matrix,
    padded with zeros to min(rows, cols)."""
    k = min(len(M), len(M[0])) if M else 0
    diag = _invariant_factors(_sparse_rows(M), ZZ)
    return diag + [0] * (k - len(diag))


# -- sparse elimination: ranks, invariant factors, cochain complexes ----------


def _sparse_rows(M, ring: Ring = ZZ) -> list:
    """The nonzero entries of a dense matrix as integer rows.  Over Q each row
    is scaled by the lcm of its denominators, which keeps the rank."""
    out = []
    for row in M:
        if ring.kind == "Q":
            den = lcm(*(Fraction(a).denominator for a in row))
            row = [a * den for a in row]
        out.append({j: int(a) for j, a in enumerate(row) if a})
    return out


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


# -- rank / kernel / affine solving ------------------------------------------


def row_echelon(M, ring: Ring):
    """Reduced row echelon form over a field; returns (R, pivot_cols)."""
    if not ring.is_field:
        raise ValueError("row_echelon needs a field")
    R = [list(row) for row in M]
    rows = len(R)
    cols = len(R[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not ring.is_zero(R[i][c])), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = ring.inv(R[r][c])
        R[r] = [ring.mul(inv, x) for x in R[r]]
        for i in range(rows):
            if i != r and not ring.is_zero(R[i][c]):
                f = R[i][c]
                R[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def rank(M, ring: Ring) -> int:
    return len(_invariant_factors(_sparse_rows(M, ring), ring))


def transpose(M, cols: int) -> list:
    """The transpose of a rows x cols matrix; cols is needed when rows = 0."""
    return [list(col) for col in zip(*M)] if M else [[] for _ in range(cols)]


class Solver:
    """A x = b for one matrix A and many right-hand sides b, factored once.

    This is the one place that chooses between a field and Z.  Over a field
    the RREF of [A | I] is [R | E] with R = E A the RREF of A; over Z the
    Smith form is U A V = D.  A right-hand side then costs one product y = E b
    (U b over Z): the system is solvable iff y vanishes past the rank and,
    over Z, d_i divides y_i.  The particular solution sets every free
    coordinate to zero.  Over a field it and the kernel basis are those of
    the RREF of [A | b], so they do not depend on when A was factored; over Z
    the kernel basis (columns of V) generates the kernel lattice.
    """

    def __init__(self, A, ring: Ring, cols: Optional[int] = None):
        self.ring = ring
        self.cols = cols = len(A[0]) if cols is None else cols
        if ring.is_field:
            eye = identity(len(A), ring)
            R, pivots = row_echelon([list(a) + e for a, e in zip(A, eye)], ring)
            self._pivots = [c for c in pivots if c < cols]
            self._E = [row[cols:] for row in R]
            self.rank = len(self._pivots)
            free = sorted(set(range(cols)) - set(self._pivots))
            self.kernel = []
            for fc in free:
                v = [ring.zero] * cols
                v[fc] = ring.one
                for r, pc in enumerate(self._pivots):
                    v[pc] = ring.neg(R[r][fc])
                self.kernel.append(v)
        else:
            D, self._E, self._V = smith_normal_form(A) if A else ([], [], identity(cols))
            self._diag = [D[i][i] for i in range(min(len(D), cols)) if D[i][i]]
            self.rank = len(self._diag)  # the nonzero factors come first
            self.kernel = transpose(self._V, cols)[self.rank:]

    def _reduce(self, b):
        """(y, residue): y = E b, and the part of it that decides solvability."""
        y = mat_vec(self._E, b, self.ring)
        tail = tuple(y[self.rank:])
        if self.ring.is_field:
            return y, tail
        return y, tuple(c % d for c, d in zip(y, self._diag)) + tail

    def residue(self, b) -> tuple:
        """b modulo the column span of A, canonically: equal for b and b'
        exactly when A x = b - b' has a solution, and all zero exactly when
        A x = b has one."""
        return self._reduce(b)[1]

    def solve(self, b) -> Optional[list]:
        """A solution x of A x = b, or None when b is not in the image."""
        y, residue = self._reduce(b)
        if any(residue):
            return None
        if self.ring.is_field:
            x = [self.ring.zero] * self.cols
            for c, pc in zip(y, self._pivots):
                x[pc] = c
            return x
        z = [c // d for c, d in zip(y, self._diag)] + [0] * (self.cols - self.rank)
        return mat_vec(self._V, z, ZZ)


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


def cokernel_invariants(M, ambient_rank: int, ring: Ring) -> AbelianGroup:
    """The group (ambient space) / column-span(M)."""
    return cohomology_groups({0: ambient_rank}, {-1: _sparse_rows(M, ring)}, ring)[0]
