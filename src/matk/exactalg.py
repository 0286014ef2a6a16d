"""Exact linear algebra over Z, Q and prime fields.

Everything here is exact: arbitrary-precision integers, ``fractions.Fraction``
for rationals, and reduced residues for F_p.  Every matrix is a list of
sparse rows, one ``{column: entry}`` dict per row, and every vector is such
a dict too.  One sparse Gaussian elimination, ``_eliminate``, serves every
ring and records its steps; over Z it pivots on units only, and
``_hermite``, the one dense integer routine, handles the small residual
left over.  ``cohomology_groups`` reads ranks and invariant factors off it,
top degree first: the unit pivot columns of each coboundary name the rows
it clears from the one below.  ``Solver`` factors one matrix once and
answers each right-hand side by replaying the recorded row operations and
back-substituting.
"""

from __future__ import annotations

import functools
import operator
from math import gcd
from typing import Mapping, Optional

from .errors import MalformedInput, MatkError, parse_int


class NotPrime(MatkError):
    pass


class ModulusTooLarge(MatkError):
    """A modulus beyond the range where primality is decided exactly."""


class DivisionByZero(MatkError, ZeroDivisionError):
    """Division by an element that is zero in the ring (such as 2 in F2)."""


class NotARingElement(MatkError):
    """A coefficient that is neither an int nor, over Q, a Fraction."""


class UnknownRingKind(MatkError):
    """A ring kind other than Z, Q and Fp."""


class NotAField(MatkError):
    """Division asked of Z."""


class InvalidAbelianGroup(MatkError):
    """Torsion factors that are not a divisibility chain of integers above 1."""


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


class Frozen:
    """An immutable value: equal and hashed by the tuple of the attributes
    named in ``_fields``, between instances of one class only, with a repr
    that lists them.  ``__init__`` stores them with ``vars(self).update``, as
    any assignment raises."""

    _fields: tuple = ()

    def __init_subclass__(cls):
        # the fields as a tuple (one field alone: its value), read in C
        cls._values = property(operator.attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Ring(Frozen):
    """One of Z, Q or F_p, with element arithmetic.

    Elements are ints for Z and F_p (residues in [0, p)) and Fractions for Q.
    """

    _fields = ("kind", "p")

    def __init__(self, kind: str, p: Optional[int] = None):  # kind: "Z" | "Q" | "Fp"
        if kind not in ("Z", "Q", "Fp"):
            raise UnknownRingKind(f"unknown ring kind {kind!r}")
        if kind == "Fp":
            if p is not None and p >= PRIMALITY_BOUND:
                raise ModulusTooLarge(f"modulus {p} is not below {PRIMALITY_BOUND}, "
                                      "up to which primality is decided exactly")
            if p is None or not _is_prime(p):
                raise NotPrime(f"modulus {p!r} is not prime")
        vars(self).update(kind=kind, p=p)

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    def of_int(self, n: int):
        if self.kind == "Z":
            return int(n)
        if self.kind == "Q":
            from fractions import Fraction

            return Fraction(n)
        return n % self.p

    @functools.cached_property
    def zero(self):
        return self.of_int(0)

    @functools.cached_property
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
            from fractions import Fraction

            return 1 / Fraction(a)
        if self.kind == "Fp":
            return pow(a, self.p - 2, self.p)
        raise NotAField("Z is not a field")

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def is_zero(self, a) -> bool:
        return a == 0

    def check_element(self, a) -> None:
        """Raise ``NotARingElement`` unless a is an int, which every ring
        takes, or a Fraction over Q: a float or a Fraction over Z or F_p
        would reach the output unreduced (``0.5``, ``1/2``)."""
        if type(a) is not int:
            from fractions import Fraction

            if self.kind != "Q" or type(a) is not Fraction:
                raise NotARingElement(f"coefficient {a!r} is not an element of {self.name()}")

    def element_to_str(self, a) -> str:
        if self.kind == "Q":  # an int element of Q has numerator and denominator too
            return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"
        return str(a)

    def element_from_str(self, s: str):
        parts = s.strip().split("/") if isinstance(s, str) else []
        if not parts or len(parts) > (1 if self.kind == "Z" else 2):
            raise MalformedInput(f"{s!r} is not an element of {self.name()}")
        num, *den = (self.of_int(parse_int(x, "coefficient")) for x in parts)
        return self.div(num, den[0]) if den else num

    def name(self) -> str:
        return {"Z": "Z", "Q": "Q"}.get(self.kind, f"F{self.p}")

    @staticmethod
    def parse(name: str) -> "Ring":
        if not isinstance(name, str):
            raise MalformedInput(f"ring name {name!r} is not a string")
        name = name.strip()
        if name in ("Z", "Q"):
            return ZZ if name == "Z" else QQ
        if name.startswith("F"):
            return GF(parse_int(name[3:] if name.startswith("Fp:") else name[1:], "modulus"))
        raise MalformedInput(f"unknown ring {name!r}")


ZZ = Ring("Z")
QQ = Ring("Q")


def GF(p: int) -> Ring:
    return Ring("Fp", p)


# -- sparse elimination: one kernel for ranks, invariant factors and solves ---


def _eliminate(rows, ring: Ring):
    """Gaussian elimination on sparse rows, recording it; returns (steps, left).

    Column by column in sorted order, the shortest remaining row with a
    usable entry there (nonzero over a field, +-1 over Z; ties to the lower
    index) becomes the pivot row: it is removed, and the column is cleared
    from the other rows.  Step (k, c, row_k, inv, ops) holds the pivot row k
    as chosen, its column c, the inverse of its entry there, and the pairs
    (i, f) of row_i -= f * row_k.  ``left`` maps each row still nonzero to
    its entries: the residual over Z, always empty over a field.  Unit pivots
    are Smith steps, so over Z the invariant factors are one 1 per step and
    those of the residual.
    """
    p, field = (ring.p if ring.kind == "Fp" else 0), ring.is_field
    live: dict[int, dict] = {}
    index: dict[int, set] = {}  # column -> remaining rows with an entry there
    for i, row in enumerate(rows):
        if not row:
            continue
        row = {j: r for j, a in row.items() if (r := a % p)} if p else {
            j: a for j, a in row.items() if a}
        if row:
            live[i] = row
            for j in row:
                index.setdefault(j, set()).add(i)
    steps, inverse = [], {}  # inverse: a field entry -> its inverse
    for c in sorted(index):
        below, k = index.pop(c), None
        for i in below:
            row = live[i]
            if (field or row[c] in (1, -1)) and (k is None or (len(row), i) < (n, k)):
                k, n = i, len(row)
        if k is None:
            index[c] = below  # over Z, where no unit is: the residual keeps c
            continue
        below.discard(k)
        row_k = live.pop(k)
        rest = [(j, a) for j, a in row_k.items() if j != c]
        for j, _ in rest:
            index[j].discard(k)
        inv = row_k[c]
        if field:
            inv = inverse.get(inv) or inverse.setdefault(inv, ring.inv(inv))
        ops = []
        for i in below:
            row = live[i]
            f = row.pop(c) * inv % p if p else row.pop(c) * inv
            for j, a in rest:
                new = row.get(j, 0) - f * a
                if p:
                    new %= p
                if new:
                    row[j] = new
                    index[j].add(i)
                elif j in row:
                    del row[j]
                    index[j].discard(i)
            if not row:
                del live[i]
            ops.append((i, f))
        steps.append((k, c, row_k, inv, ops))
    return steps, live


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


def _invariant_factors(rows, ring: Ring) -> tuple:
    """(factors, pivots): the nonzero invariant factors of an integer matrix
    given by sparse rows, from one ``_eliminate`` (over Z when the ring is
    Q: the rows are integers), and the pivot columns of its unit steps.
    Over a field only the count of factors, the rank, means anything: every
    factor is then 1.

    Over Z the residual is made diagonal by Hermite forms of it and of its
    transpose in turn.  The corner entry's absolute value never grows, and
    once it stops shrinking it divides its row and column, which the next
    form clears; the rest follows by induction.
    """
    steps, left = _eliminate(rows, ring if ring.kind == "Fp" else ZZ)
    factors = [1] * len(steps)
    if left:  # never over F_p, and for few matrices over Z
        cols = sorted({j for row in left.values() for j in row})
        A = [[left[i].get(j, 0) for j in cols] for i in sorted(left)]
        while _hermite(A) < sum(1 for row in A for a in row if a):
            A = [list(col) for col in zip(*A)]
        factors += _divisibility_chain([a for row in A for a in row if a])
    return factors, {c for _, c, *_ in steps}


def cohomology_groups(sizes: Mapping[int, int], deltas: Mapping[int, list],
                      ring: Ring) -> dict:
    """The cohomology of a cochain complex of free modules, per degree.

    ``sizes[p]`` is the rank of C^p, and ``deltas[p]`` the coboundary
    C^p -> C^{p+1} as integer rows, one ``{column: entry}`` dict per basis
    element of C^{p+1} (a missing degree is the zero map; empty rows of no
    basis element may pad one, and a basis element with an empty row that
    no row of ``deltas[p+1]`` names may have no row, counted in ``sizes``
    alone), keyed alike in every degree: column j of ``deltas[p]`` is row j
    of ``deltas[p-1]``.  The count of a coboundary's nonzero invariant
    factors is its rank, and over Z the factors above 1 are the torsion of
    H^{p+1}.

    The degrees are reduced top down, with clearing (Chen-Kerber,
    "Persistent homology computation with a twist", 2011): the rows of
    ``deltas[p]`` at the pivot columns of the unit steps of ``deltas[p+1]``
    are dropped, which keeps its nonzero invariant factors.  On ker d^(p+1)
    those coordinates are an integral function of the others (the steps
    are unimodular), so dropping them maps the image of d^p injectively onto
    a saturated lattice.  A residual's columns over Z have no such function.
    """
    factors, pivots = {}, {}
    for p in sorted(deltas, reverse=True):
        drop = pivots.pop(p + 1, ())
        rows = [row for i, row in enumerate(deltas[p]) if i not in drop] if drop else deltas[p]
        factors[p], pivots[p] = _invariant_factors(rows, ring)
    out = {}
    for p, n in sizes.items():
        image = factors.get(p - 1, [])
        torsion = () if ring.is_field else tuple(d for d in image if d > 1)
        out[p] = AbelianGroup(n - len(factors.get(p, [])) - len(image), torsion)
    return out


# -- solving: one factorization, many right-hand sides -------------------------


class Solver:
    """A x = b for one matrix A (sparse rows, ``cols`` columns) and many
    right-hand sides b, factored once.  Vectors are sparse like rows: b is
    a ``{row: entry}`` map (zeros allowed), and each x returned is the
    ``{column: entry}`` map of its nonzero entries, ``{}`` for zero.

    ``_eliminate`` factors A; over Z the rows it leaves form a residual R,
    and ``_hermite`` gives H = R V, column t with its pivot in row i_t.  A
    right-hand side b becomes y by the recorded row operations; on the
    residual rows the multiple q_t = floor(y[i_t] / H[i_t][t]) of each column
    t is taken off in turn, which leaves a canonical remainder (column t is
    zero above row i_t), and b is solvable iff it and y on the empty rows
    vanish.  The particular solution (free coordinates zero; V q on R's
    columns) and each kernel vector (one free coordinate 1, or a column of V
    past the rank of H) are back-substituted through the pivot rows.  Over a
    field the pivot columns are those of the reduced echelon form, so both
    are unique; over Z the kernel vectors are a basis of the kernel lattice.
    """

    def __init__(self, rows, ring: Ring, cols: int):
        self.ring, self.cols = ring, cols
        self._p = ring.p if ring.kind == "Fp" else 0
        self._steps, left = _eliminate(rows, ring)
        self._step_of = {k: s for s, (k, *_) in enumerate(self._steps)}
        self._uses: dict[int, list] = {}  # column -> steps whose pivot row has it
        for s, (_, c, row_k, _, _) in enumerate(self._steps):
            for j in row_k.keys() - {c}:
                self._uses.setdefault(j, []).append(s)
        self._empty = [i for i in range(len(rows)) if i not in self._step_of and i not in left]
        self._residual = sorted(left)  # only over Z
        self._res_cols = sorted({j for row in left.values() for j in row})
        n = len(self._res_cols)
        self._H = [[left[i].get(j, 0) for j in self._res_cols] for i in self._residual]
        self._V = [[int(i == j) for j in range(n)] for i in range(n)]
        self._h_rank = _hermite(self._H, self._V)
        self._pivot_rows = [next(i for i, row in enumerate(self._H) if row[t])
                            for t in range(self._h_rank)]
        self.rank = len(self._steps) + self._h_rank

    @functools.cached_property
    def kernel(self) -> list:
        """A basis of the kernel, lifted on first use: callers that only
        ask ``residue`` or ``solve`` never pay for it."""
        return list(self.iter_kernel())

    def iter_kernel(self):
        """The vectors of ``kernel`` in order, each lifted only when reached:
        a caller that stops at the first it needs lifts no more."""
        bound = {c for _, c, *_ in self._steps} | set(self._res_cols)
        one = self.ring.one
        for j in range(self.cols):
            if j not in bound:
                yield self._lift({}, {j: one})
        for t in range(self._h_rank, len(self._res_cols)):
            yield self._lift({}, {j: V[t] for j, V in zip(self._res_cols, self._V) if V[t]})

    def _lift(self, y: dict, free: dict) -> dict:
        """The x equal to ``free`` off the pivot columns whose pivot rows
        satisfy row_k . x = y_k: back-substitution in reverse step order,
        through only the steps that a nonzero y_k or free entry reaches."""
        p, zero, steps = self._p, self.ring.zero, self._steps
        stack = [self._step_of[k] for k in y if k in self._step_of]
        stack += [s for j in free for s in self._uses.get(j, ())]
        reach = set()
        while stack:
            s = stack.pop()
            if s not in reach:
                reach.add(s)
                stack += self._uses.get(steps[s][1], ())
        x = dict(free)  # the nonzero coordinates so far
        for s in sorted(reach, reverse=True):
            k, c, row_k, inv, _ = steps[s]
            v = y.get(k, zero)
            for j, a in row_k.items():
                if j in x:
                    v -= a * x[j]
            v = v * inv % p if p else v * inv
            if v:
                x[c] = v
        return x

    def _reduce(self, b):
        """(y, q, residue): y, b after the recorded row operations, the
        multiples q_t of H's columns taken off y on the residual rows, and
        what is left, which decides solvability."""
        p, zero = self._p, self.ring.zero
        y = {i: bi % p for i, bi in b.items() if bi % p} if p else {
            i: bi for i, bi in b.items() if bi}
        for k, _, _, _, ops in self._steps:
            yk = y.get(k)
            if yk:
                for i, f in ops:
                    v = y.get(i, zero) - f * yk
                    y[i] = v % p if p else v
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

    def _particular(self, y: dict, q: list) -> dict:
        """The x of ``_reduce``'s (y, q): V q on the residual's columns, the
        pivot columns back-substituted, the other coordinates zero."""
        free = {j: sum(a * c for a, c in zip(V, q)) for j, V in zip(self._res_cols, self._V)}
        return self._lift(y, {j: a for j, a in free.items() if a})

    def lift(self, b) -> tuple:
        """(x, residue) for any b: x is what ``solve`` returns when the
        residue is zero, and over a field both are linear in b."""
        y, q, residue = self._reduce(b)
        return self._particular(y, q), residue

    def solve(self, b) -> Optional[dict]:
        """A solution x of A x = b, or None when b is not in the image."""
        y, q, residue = self._reduce(b)
        return None if any(residue) else self._particular(y, q)


# -- finitely generated abelian groups ---------------------------------------


class AbelianGroup(Frozen):
    """free_rank copies of Z plus cyclic factors with d1 | d2 | ... (each > 1)."""

    _fields = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: tuple = ()):
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise InvalidAbelianGroup(f"invariant factors {torsion} violate divisibility")
        if any(d <= 1 for d in torsion):
            raise InvalidAbelianGroup("torsion factors must exceed 1")
        vars(self).update(free_rank=free_rank, torsion=torsion)

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
