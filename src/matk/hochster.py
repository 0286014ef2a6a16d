"""The bigraded decomposition of H*(Z_K) and an independent cell-model oracle.

``hochster_decompose`` assembles H^d(Z_K) from the reduced cohomology of all
full subcomplexes K_J, one class of degree p + |J| + 1 per class of
H-tilde^p(K_J).  ``moment_angle_cw_oracle`` computes the same groups from the
cellular chain complex of the moment-angle complex itself (one cell per pair
of a face sigma and a disjoint circle-coordinate set T, of dimension
2|sigma| + |T|).  The two share the linear algebra (``exactalg``'s sparse
elimination turns each cochain complex into its groups) but not the cell
model, so they cross-validate each other.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from . import exactalg
from .cochains import (
    AmbientMismatch,
    Cochain,
    coboundary,
    cup_multiply,
    reduced_cohomology,
    total_degree,
)
from .errors import MatkError
from .exactalg import AbelianGroup, Ring
from .simplicial import SimplicialComplex


class VertexCapExceeded(MatkError):
    pass


class NotACocycle(MatkError):
    """A class representative whose coboundary is not zero."""


@dataclass(frozen=True)
class CohomologyClass:
    """A class of H^*(Z_K) in its bigraded slot: a cocycle on K_J in degree p."""

    representative: Cochain

    def __post_init__(self):
        if not coboundary(self.representative).is_zero():
            raise NotACocycle("representative must be a cocycle")

    @property
    def complex(self) -> SimplicialComplex:
        return self.representative.complex

    @property
    def ring(self) -> Ring:
        return self.representative.ring

    @property
    def J(self) -> tuple:
        return self.representative.J

    @property
    def p(self) -> int:
        return self.representative.p

    @property
    def total_degree(self) -> int:
        return total_degree(self.representative)

    def cohomology(self):
        return reduced_cohomology(self.complex, self.J, self.ring)

    def is_zero(self) -> bool:
        return self.cohomology().is_coboundary(self.representative)

    def same_class(self, other: "CohomologyClass") -> bool:
        if (self.complex, self.ring, self.J, self.p) != (other.complex, other.ring, other.J, other.p):
            return False
        return self.cohomology().are_cohomologous(self.representative, other.representative)


@dataclass
class HochsterTable:
    complex: SimplicialComplex
    ring: Ring
    by_J: dict = field(default_factory=dict)  # J tuple -> {p: AbelianGroup}
    total: dict = field(default_factory=dict)  # degree -> AbelianGroup

    def group(self, degree: int) -> AbelianGroup:
        return self.total.get(degree, AbelianGroup(0))

    def slot(self, J, p: int) -> AbelianGroup:
        J = self.complex.sort_simplex(J)
        return self.by_J.get(J, {}).get(p, AbelianGroup(0))

    def to_json(self) -> dict:
        return {
            "ring": self.ring.name(),
            "by_J": [
                {"J": list(J), "p": p, **g.to_json()}
                for J, groups in sorted(self.by_J.items())
                for p, g in sorted(groups.items())
            ],
            "total": [
                {"degree": d, **g.to_json()} for d, g in sorted(self.total.items())
            ],
        }


def hochster_decompose(K: SimplicialComplex, ring: Ring, cap: int = 24) -> HochsterTable:
    """Groups of H^*(Z_K) per vertex subset J and in total per degree."""
    m = len(K.vertices)
    if m > cap:
        raise VertexCapExceeded(f"{m} vertices exceeds the 2^m subset cap {cap}")
    subsets = [
        K.sort_simplex(J)
        for size in range(m + 1)
        for J in itertools.combinations(K.vertices, size)
    ]

    table = HochsterTable(K, ring)
    per_degree: dict[int, list] = {}
    for J in subsets:
        groups = {p: g for p, g in reduced_cohomology(K, J, ring).groups().items()
                  if not g.is_trivial}
        if groups:
            table.by_J[J] = groups
        for p, g in groups.items():
            per_degree.setdefault(p + len(J) + 1, []).append(g)
    table.total = {
        d: AbelianGroup(0).direct_sum(*gs) for d, gs in sorted(per_degree.items())
    }
    return table


def class_in_slot(K: SimplicialComplex, ring: Ring, J, p: int, coeffs) -> CohomologyClass:
    return CohomologyClass(Cochain(K, ring, J, p, coeffs))


def unit_class(K: SimplicialComplex, ring: Ring) -> CohomologyClass:
    """The degree-0 unit, carried by the empty subset in degree -1."""
    return CohomologyClass(Cochain(K, ring, (), -1, {(): ring.one}))


def product_in_hochster(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Product of classes through the cochain-level product; the zero class of
    the correct bidegree when the supports overlap."""
    if a.complex != b.complex or a.ring != b.ring:
        raise AmbientMismatch("classes live on different complexes or rings")
    rep = cup_multiply(a.representative, b.representative)
    return CohomologyClass(rep)


def _cw_cells(K: SimplicialComplex):
    """Cells (sigma, T) of the moment-angle complex, grouped by dimension."""
    verts = K.vertices
    cells: dict[int, list] = {}
    for p in range(-1, K.dim + 1):
        for sigma in K.faces(p):
            rest = [v for v in verts if v not in sigma]
            for size in range(len(rest) + 1):
                for T in itertools.combinations(rest, size):
                    dim = 2 * len(sigma) + len(T)
                    cells.setdefault(dim, []).append((sigma, T))
    for dim in cells:
        cells[dim].sort(key=lambda cell: (
            tuple(K.rank(v) for v in cell[0]), tuple(K.rank(v) for v in cell[1])))
    return cells


def moment_angle_cw_oracle(K: SimplicialComplex, ring: Ring, cap: int = 12) -> dict:
    """Cohomology of Z_K per degree from its cellular chain complex.

    The disc factor contributes cells 1, t, D with dD = t and dt = 0; a cell
    (sigma, T) is the product of D-cells over sigma and t-cells over T.  The
    boundary sign of replacing D by t in coordinate i is (-1)^(number of
    t-coordinates before i), following the vertex order.
    """
    if len(K.vertices) > cap:
        raise VertexCapExceeded(f"{len(K.vertices)} vertices exceeds the 3^m cell cap {cap}")
    cells = _cw_cells(K)
    index = {d: {cell: i for i, cell in enumerate(cells[d])} for d in cells}

    def coboundary_rows(d):
        """C^d -> C^{d+1}: the row of each (d+1)-cell is its boundary."""
        rows = []
        for sigma, T in cells[d + 1]:
            row = {}
            for v in sigma:
                sign = (-1) ** sum(1 for t in T if K.rank(t) < K.rank(v))
                tgt = (tuple(x for x in sigma if x != v),
                       tuple(sorted(T + (v,), key=K.rank)))
                row[index[d][tgt]] = sign
            rows.append(row)
        return rows

    groups = exactalg.cohomology_groups(
        {d: len(c) for d, c in cells.items()},
        {d: coboundary_rows(d) for d in cells if d + 1 in cells},
        ring)
    return {d: g for d, g in sorted(groups.items()) if not g.is_trivial}
