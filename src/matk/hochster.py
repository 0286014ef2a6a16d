"""The bigraded decomposition of H*(Z_K) and an independent cell-model oracle.

``hochster_decompose`` assembles H^d(Z_K) from the reduced cohomology of all
full subcomplexes K_J, one class of degree p + |J| + 1 per class of
H-tilde^p(K_J) (Hochster's formula).  It builds no complex per subset: it
reads the face table of ``cochains``, every face of K as an int bitmask (bit
r for the vertex of rank r) with its coboundary terms, and the faces of K_J
are those inside the mask of J.  Each distinct slot dict {p: group} has a
small integer kind, 0 for the trivial one, and J is visited in increasing
mask order beside two tables of the smaller masks: ``low[J]``, the
component of K_J through the lowest vertex l of J, and ``kinds[J]``, the
kind of J.  The components of K_(J-l) are ``low[rest]`` for rest = J - l,
then rest minus that component, and so on, every one a smaller mask
already filled in; those that meet a neighbour of l merge with l into
C = ``low[J]``.  When C is not all of J, K_J is K_C beside K_(J-C), so
H-tilde^*(K_J) is the direct sum of their groups plus a Z in degree 0,
over every ring, torsion adding up through ``AbelianGroup.direct_sum``.
So the kind of J is one merge of the kinds of C and J - C, memoised per
pair of kinds: no list of components, no direct sum per subset and no
dict of its own, as the merged dict is shared by every subset of its
kind.  On 16 isolated vertices, 65520 nontrivial slots have 15 kinds.
``by_J``, keyed by the mask of J, stores the dict of each nontrivial J's
kind; label tuples are built only for output, in ``HochsterTable.to_json``.
The totals count the subsets of each kind per size |J|, and each count is
expanded once, at the end: the kind's groups, |J| + 1 degrees up, times
the count.

A connected K_J is next searched for a vertex v dominated by a neighbour w:
every face of K_J through v stays a face with w added, so lk v is a cone on
w.  Then K_J strong-collapses to K_(J-v) (Barmak-Minian, "Strong homotopy
types, nerves and collapses", 2012), a homotopy equivalence, so
H-tilde^*(K_J) is that of the smaller mask J - v over any ring, torsion
included.  The test reads the definition off the facets of K: every face
of K_J through v lies in F & J for a facet F of K through v, so v is
dominated by w exactly when w is a neighbour of v in J and F & J + w is a
face for every such F, read from masks built once per call.  The edges
{v, u} with u in J are among those faces, so w must also be adjacent to
every other neighbour of v in J: one AND, tried first, and on a flag
complex, where a set of pairwise adjacent vertices is a face, the whole
test.  A leaf, with one neighbour in J, is dominated by it, so it
collapses with no test at all, and every other vertex of a cone is
dominated by its apex.  Every facet through v lies in the closed
neighbourhood of v, so the test reads J only through J & N(v): its answer
is memoised per v and J & N(v), in a dict that lives for one call, and
most subsets repeat an earlier one's test.  A K_J that collapses takes the
kind of J - v.

Only a connected core, a K_J on two or more vertices with no dominated
vertex, is eliminated, and its groups get the kind of an equal dict or a
new one: for the first vertex v of J with the most neighbours in J, it
keeps the faces of K_J whose union with v is no face: the basis of the
relative cochains C*(K_J, st v), which is closed upward.  The closed star
of v is a cone, so H*(K_J, st v) is H-tilde*(K_J) over any ring, torsion
included.  The coboundary row of a kept face depends on v only, so it is
built once per vertex, for the first core that uses it, and shared by
every J containing v; ``exactalg`` never writes to its input rows.  Its
columns are the positions of the facets off the star of v, and the faces
there outside J get empty rows, so columns name rows, as
``exactalg.cohomology_groups`` requires.  A point contributes nothing, and
only the empty subset carries H-tilde^{-1}.

``moment_angle_cw_oracle`` computes the same groups from the cellular chain
complex of the moment-angle complex itself (one cell per pair of a face
sigma and a disjoint circle-coordinate set T, of dimension 2|sigma| + |T|).
sigma and T are int bitmasks over a degree order of the vertices: by
decreasing number of edges of K through them, ties in rank order.  The
boundary term of a bit b of sigma is (sigma ^ b, T | b), with sign
(-1)^popcount(T & (b - 1)).  It builds only the critical cells of an
acyclic matching (Forman, "Morse theory for cell complexes", 1998): with v
the first vertex of J = sigma + T in the degree order, (sigma, T) is paired
with (sigma + v, T - v) when v is in T and sigma + v is a face.  The
coboundary keeps J, so the cochain complex splits into blocks, one per J,
and the argument runs block by block.  The critical cells of block J,
(empty, empty) for J empty and else those with v in T and sigma + v no
face, span a subcomplex: the coboundary moves a vertex of T into sigma, so
v stays in T and sigma + v off K.  They are the relative cochains
C*(K_J, st v), and the matched cells the augmented cochains of the cone
st v, acyclic over Z for any vertex v of J: the groups are unchanged over
any ring, torsion included.  The order only chooses v: a v with many
neighbours has a large star and leaves few cells.  Relabelling the
coordinates gives an isomorphic cell structure, so the groups do not
depend on the order.

Most critical cells are isolated, and those are counted, not built.  The
critical cells of a nonempty J come in groups (sigma, v): a face sigma and
a vertex v before the first vertex of sigma with sigma + v no face, whose
cells are (sigma, v + S) for the subsets S of A, the vertices after v off
sigma.  A facet (sigma - b, T + b) of such a cell keeps J and v, so it is
critical exactly when b is in C = {b in sigma : sigma - b + v no face}.  A
coface (sigma + b, T - b) needs sigma + b a face, so b is not v and lies
in S, and then sigma + b + v contains sigma + v and is no face: the coface
is critical exactly when b is in S and in B = {b in A : sigma + b a face}.
So when C is empty (sigma + v is a minimal non-face of K), a cell with S
off B has no critical facet and is the critical facet of no cell: its
basis cochain has zero coboundary and lies in no coboundary's support, so
it spans a direct summand Z of the critical cochain complex, with the
other cells' matrices unchanged.  Each such cell adds one free generator
in its degree over every ring, torsion included: binom(|A - B|, t) of
them in degree 2|sigma| + 1 + t per group, counted from the masks.

Most of the other critical cells cancel in pairs, the basic step of
algebraic Morse theory (Skoldberg, "Morse theory from an algebraic
viewpoint", 2006): a cell and a facet with a unit entry, when the cell is
the facet's only critical coface.  The critical cofaces of the facet
(sigma - b, T + b), b in C, are the cell itself and one per b' in S with
sigma - b + b' a face.  So when S misses N_b, the b' in A with
sigma - b + b' a face, the coboundary of that facet is +-1 times the cell,
whose own coboundary is then zero: the two span a subcomplex, acyclic over
every ring, that no other row names, and the quotient by it keeps the
groups and every other row.  Each such cell is cancelled with that facet
for its first such b in C, neither is built nor counted, and the facet's
group sees the same choice in the same masks.  The two share J, so the
pairs stay within a block.  On the 28 oracle jobs of benchmark seed 1, of
the 8072 critical cells 2304 cancel in pairs, 4700, the cell (empty,
empty) included, are counted, and only 1068 are built (312 with a nonempty
row, down from 3372 and 1548 without the pairs); the pivot steps fall from
1392 to 240.

The oracle reads only ``K.facets`` and the vertex ranks, never ``cochains``.
The two share only ``exactalg.cohomology_groups``, which turns each cochain
complex into its groups, top degree first, with clearing, and so the
contract it sets on their rows: column j of ``deltas[p]`` is row j of
``deltas[p-1]``.  Their complexes and sign rules are built independently,
so they cross-validate each other.
"""

from __future__ import annotations

from math import comb

from . import exactalg
from .cochains import Cochain, _face_table, _mask_of, cup_multiply, reduced_cohomology, total_degree
from .errors import MatkError
from .exactalg import AbelianGroup, Frozen, Ring
from .simplicial import SimplicialComplex


class VertexCapExceeded(MatkError):
    pass


class NotACocycle(MatkError):
    """A class representative whose coboundary is not zero."""


class CohomologyClass(Frozen):
    """A class of H^*(Z_K) in its bigraded slot: a cocycle on K_J in degree p."""

    _fields = ("representative",)

    def __init__(self, representative: Cochain):
        vars(self).update(representative=representative)
        if not self.cohomology().is_cocycle(representative):
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


class HochsterTable:
    def __init__(self, complex: SimplicialComplex, ring: Ring):
        self.complex = complex
        self.ring = ring
        self.by_J: dict = {}  # mask of J (bit r for rank r) -> {p: nontrivial AbelianGroup}
        self.total: dict = {}  # degree -> AbelianGroup

    def group(self, degree: int) -> AbelianGroup:
        return self.total.get(degree, AbelianGroup(0))

    def slot(self, J, p: int) -> AbelianGroup:
        return self.by_J.get(_mask_of(self.complex, J), {}).get(p, AbelianGroup(0))

    def to_json(self) -> dict:
        vertices = self.complex.vertices
        labelled = sorted((tuple(v for r, v in enumerate(vertices) if J >> r & 1), groups)
                          for J, groups in self.by_J.items())
        return {
            "ring": self.ring.name(),
            "by_J": [
                {"J": list(J), "p": p, **g.to_json()}
                for J, groups in labelled
                for p, g in sorted(groups.items())
            ],
            "total": [
                {"degree": d, **g.to_json()} for d, g in sorted(self.total.items())
            ],
        }


def hochster_decompose(K: SimplicialComplex, ring: Ring, cap: int = 24) -> HochsterTable:
    """Groups of H^*(Z_K) per vertex subset J and in total per degree.

    J runs over the vertex subsets in increasing mask order.  Each distinct
    slot dict has a kind, 0 for the trivial one, and two tables of the
    smaller masks give the component C of K_J through the lowest vertex of
    J and the kind of each subset.  A disconnected K_J is K_C beside
    K_(J-C): its kind is the merge of theirs, the direct sum of their
    groups plus Z in degree 0, memoised per pair of kinds.  A connected K_J
    with a vertex v dominated by another vertex w (lk v a cone on w: each
    facet of K through v, cut down to J, stays a face with w added)
    strong-collapses to K_(J-v), whose kind it takes; a leaf is dominated by
    its one neighbour, and for any other v the test is memoised per v and
    its neighbours in J.  Only a connected core, a K_J with no dominated
    vertex, has H-tilde^*(K_J) read off the relative cochains of (K_J, st v)
    for a vertex v of J, the first with the most neighbours in J: their
    basis is the faces of K_J off the star of v.  The totals count the
    subsets of each kind per size |J| and expand each count once, at the
    end.  See the module docstring.

    ``cap`` bounds the vertices m, since the work and the memory grow as
    2^m.  The two tables take 12 bytes a subset, 8 for its component in
    ``low`` and 4 for its kind in ``kinds`` (192 MiB at the default 24).
    ``by_J`` holds an entry per nontrivial slot, which on a sparse complex
    is nearly every subset, but its values are the shared dicts of the
    kinds, so an entry costs only its int key and its dict slot: 68 bytes
    (on 16 to 20 isolated vertices), some 1.1 GB more at 24.
    """
    from array import array  # here, not at the top: it would cost every import of matk

    m = len(K.vertices)
    if m > cap:
        raise VertexCapExceeded(f"{m} vertices exceeds the 2^m subset cap {cap}")
    levels, gid, terms = _face_table(K)
    levels = [levels[p] for p in range(K.dim + 1)]  # the nonempty faces
    # vertex bit -> the mask of its neighbours, and the masks of the facets through it
    adjacent = {1 << v: sum(1 << u for u in range(m) if u != v and 1 << u | 1 << v in gid)
                for v in range(m)}
    facets = [_mask_of(K, f) for f in K.facets]
    through = {1 << v: [F for F in facets if F >> v & 1] for v in range(m)}
    dominated = {}  # J & N(v) | v << m -> whether v is dominated in K_J
    off_star = {}  # vertex v -> _off_star(v), built for the first core that uses v

    # low[J]: the component of K_J through the lowest vertex of J, 8 bytes a
    # subset, and kinds[J]: the kind of its slot dict, 4 bytes; repeating a
    # one-item array allocates no second buffer
    low = array("q", [0]) * (1 << m)
    kinds = array("i", [0]) * (1 << m)
    slots = [{}]  # kind -> its slot dict {p: nontrivial AbelianGroup}, shared
    # by every subset of that kind and never written to after it is stored
    known = {(): 0}  # the sorted items of a slot dict -> its kind
    merged = {}  # kind of C << 32 | kind of J - C -> the kind of J
    counts = [None]  # kind -> the number of subsets of that kind per size |J|
    Z = AbelianGroup(1)

    def kind_of(groups: dict) -> int:
        key = tuple(sorted(groups.items()))
        kind = known.get(key)
        if kind is None:
            kind = known[key] = len(slots)
            slots.append(groups)
            counts.append([0] * (m + 1))
        return kind

    table = HochsterTable(K, ring)
    by_J = table.by_J
    by_J[0] = {-1: Z}  # K_J = {empty face}
    everything = (1 << m) - 1
    for J in range(1, 1 << m):  # each component of K_J has a smaller mask than J
        lbit = J & -J
        rest = J ^ lbit
        if not rest:  # a point
            low[J] = J
            continue
        # the components of K_(J-l) are low[rest] for the shrinking rest;
        # those that meet a neighbour of l join it in C = low[J]
        component, reach = lbit, adjacent[lbit]
        while rest:
            part = low[rest]
            rest ^= part
            if part & reach:
                component |= part
        low[J] = component
        if component != J:  # H~*(K_J) = H~*(K_C) + H~*(K_(J-C)) + Z in degree 0
            a, b = kinds[component], kinds[J ^ component]
            kind = merged.get(a << 32 | b)
            if kind is None:
                groups = dict(slots[a])
                for p, g in slots[b].items():
                    groups[p] = groups[p].direct_sum(g) if p in groups else g
                groups[0] = groups[0].direct_sum(Z) if 0 in groups else Z
                kind = merged[a << 32 | b] = kind_of(groups)
        else:
            rest = J
            while rest:  # look for a vertex v dominated by a neighbour w
                vbit = rest & -rest
                near = J & adjacent[vbit]
                if not near & near - 1:  # a leaf, dominated by its one neighbour
                    break
                key = near | vbit << m
                hit = dominated.get(key)
                if hit is None:  # w is in near and adjacent to the rest of it, and
                    # every facet through v, cut down to J, stays a face with w added
                    untried, hit = near, False
                    while untried and not hit:
                        wbit = untried & -untried
                        untried ^= wbit
                        hit = near & ~adjacent[wbit] == wbit and all(
                            F & J | wbit in gid for F in through[vbit])
                    dominated[key] = hit
                if hit:
                    break
                rest ^= vbit
            if rest:  # K_J strong-collapses to K_(J-v)
                kind = kinds[J ^ vbit]
            else:  # a core: v is its first vertex with the most neighbours in J
                most, rest = -1, J
                while rest:
                    vbit = rest & -rest
                    rest ^= vbit
                    if (n := (adjacent[vbit] & J).bit_count()) > most:
                        most, v = n, vbit.bit_length() - 1
                faces, rows = off_star.get(v) or off_star.setdefault(
                    v, _off_star(v, levels, gid, terms))
                outside = everything ^ J
                inside = [[not f & outside for f in masks] for masks in faces]
                sizes = {p: n for p, flags in enumerate(inside) if (n := sum(flags))}
                groups = exactalg.cohomology_groups(sizes, {
                    p - 1: [row if ok else {} for row, ok in zip(rows[p], inside[p])]
                    for p in sizes if p - 1 in sizes}, ring)
                kind = kind_of({p: g for p, g in groups.items() if not g.is_trivial})
        if kind:
            kinds[J] = kind
            by_J[J] = slots[kind]
            counts[kind][J.bit_count()] += 1
    # each kind's groups, |J| + 1 degrees up, once per size, times its count
    ranks, torsion = {0: 1}, {}  # degree -> its free rank, and its groups with torsion
    for kind in range(1, len(slots)):
        for size, n in enumerate(counts[kind]):
            if n:
                for p, g in slots[kind].items():
                    d = p + size + 1
                    ranks[d] = ranks.get(d, 0) + n * g.free_rank
                    if g.torsion:  # its torsion only: the free rank is counted above
                        torsion.setdefault(d, []).extend([AbelianGroup(0, g.torsion)] * n)
    table.total = {d: AbelianGroup(n).direct_sum(*torsion[d]) if d in torsion else AbelianGroup(n)
                   for d, n in sorted(ranks.items())}
    return table


def _off_star(v, levels, gid, terms) -> tuple:
    """(faces, rows): the faces off the closed star of vertex v (their union
    with v is no face) by dimension, and for p >= 1 the coboundary rows of
    the p-faces there, each facet keyed by its position in ``faces[p - 1]``."""
    vbit = 1 << v
    faces = [[f for f in masks if f | vbit not in gid] for masks in levels]
    at = [{f: i for i, f in enumerate(masks)} for masks in faces]
    rows = [None] + [[{at[p - 1][s]: a for s, a in terms[t] if s in at[p - 1]} for t in faces[p]]
                     for p in range(1, len(faces))]
    return faces, rows


def class_in_slot(K: SimplicialComplex, ring: Ring, J, p: int, coeffs) -> CohomologyClass:
    return CohomologyClass(Cochain(K, ring, J, p, coeffs))


def product_in_hochster(a: CohomologyClass, b: CohomologyClass) -> CohomologyClass:
    """Product of classes through the cochain-level product; the zero class of
    the correct bidegree when the supports overlap."""
    return CohomologyClass(cup_multiply(a.representative, b.representative))


def _degree_order(K: SimplicialComplex) -> list:
    """The vertices by decreasing number of neighbours, ties in rank order:
    a vertex's neighbours are the OR of the facets through it, minus itself."""
    near = dict.fromkeys(K.vertices, 0)  # v -> the vertices of its closed star, by rank
    for f in K.facets:
        F = sum(1 << K._rank[v] for v in f)
        for v in f:
            near[v] |= F
    return sorted(near, key=lambda v: -(near[v] & ~(1 << K._rank[v])).bit_count())  # stable


def _cw_complex(K: SimplicialComplex):
    """(sizes, deltas) of the critical cells of the cellular cochain complex
    of Z_K (module docstring), less the cancelled pairs below, a cell
    (sigma, T) as the int sigma << m | T, bit r for the vertex at position r
    of ``_degree_order``.  It reads only ``K.facets`` and the vertex ranks:
    every face is a submask of a facet.  The critical cells come in groups
    (sigma, v), per face sigma by mask and vertex v below it with sigma + v
    no face: T is v plus a subset S of A, the vertices above v off sigma,
    by decreasing mask.
    A cell of the group has a critical facet exactly when C, the b in sigma
    with sigma - b + v no face, is nonempty: the facet (sigma - b, T + b)
    keeps J and v.  It is the critical facet of another exactly when S meets
    B, the b in A with sigma + b a face: a coface (sigma + b, T - b) needs
    sigma + b a face, so b is in S, and sigma + b + v contains sigma + v, so
    it is no face.  When C is empty, a cell with S off B is isolated, with a
    zero row in no other row, so it spans a direct summand Z over every
    ring: ``sizes`` counts these, binom(|A - B|, t) in degree
    2|sigma| + 1 + t, and no row, column or index entry is built for them.

    Cancelled pairs.  Let x = (sigma, v + S) and b in C, with N_b the c in
    A with sigma - b + c a face (B is part of N_b).  Its facet
    y = (sigma - b, v + S + b) lies in the group (sigma - b, v), whose A is
    A + b and whose B is N_b + b, so by the above the critical cofaces of y
    are x (for b) and one for each c in S & N_b.  When S misses N_b, x is
    the only one: delta y = +-x, a boundary sign, so
    delta x = +-delta delta y = 0, and as each coface enters delta x with a
    sign, x has no critical coface at all.  The span D of x and y is then a
    subcomplex of the critical cochain complex E, on which delta maps y
    onto +-x, so D is acyclic over every ring, and by the long exact
    sequence of (E, D) the quotient E/D has the groups of E.  Its matrices
    are those of E with the rows and columns of x and y struck out, and no
    other row names either (a row names the facets of its cell: only x has
    y as a facet, and no cell has x), so every other row is unchanged.  x
    is cancelled with the y of its first (lowest) such b in C.  The pairs
    share no cell, as x has no coface and y only x, so they are quotiented
    together; each keeps J = sigma + T, so they stay within a block.  From
    the other side, a cell z = (sigma, v + S) of any group is such a y
    exactly when S meets B in one vertex b: its one critical coface is
    x = (sigma + b, v + S - b), and b is in the C of x's group, as
    sigma + v is no face.  x picks b unless some b2 < b in that C has S
    missing its N_b2, the c in A with sigma + b - b2 + c a face (b itself is
    not one, as it lies in that face).  All of these are read off ``up``:
    the cancelled cells are never built, indexed or counted.

    ``deltas[d - 1]`` holds a row per other cell of degree d, in group
    order, with its critical facets only: column j of ``deltas[p]`` is row
    j of ``deltas[p - 1]``."""
    order = _degree_order(K)
    m, rank, up = len(order), {v: r for r, v in enumerate(order)}, {0: 0}
    for f in K.facets:  # up[face]: the vertices b off the face with face + b a face,
        F = s = sum(1 << rank[v] for v in f)  # the OR of F - face over the facets F on it
        up[0] |= F
        while s:  # the nonempty faces in F: its submasks
            up[s] = up.get(s, 0) | F ^ s
            s = s - 1 & F
    top = m + K.dim + 1
    full, isolated = (1 << m) - 1, [1] + [0] * top  # (empty, empty) is isolated
    rows = [[] for _ in range(top + 1)]  # rows[d]: one per cell built in degree d
    index = {}  # the critical facet of another cell -> its position in rows
    for sigma in sorted(up):
        low, size, v = sigma & -sigma or 1 << m, 2 * sigma.bit_count() + 1, 1
        while v < low:
            if not up[sigma] & v:  # the group (sigma, v)
                above = full & -(v << 1) & ~sigma
                cofaces, rest, facets, spans = up[sigma] & above, sigma, [], []  # B, C, N_b
                while rest:
                    b = rest & -rest
                    if not up[sigma ^ b] & v:
                        facets.append(b)
                        spans.append(up[sigma ^ b] & above)
                    rest ^= b
                if not facets:  # the subsets T off B are isolated
                    n = (above & ~cofaces).bit_count()
                    for t in range(n + 1):
                        isolated[size + t] += comb(n, t)
                earlier, rest = {}, cofaces  # b in B -> N_b2 of (sigma + b, v) for b2 < b in its C
                while rest:
                    b = rest & -rest
                    rest ^= b
                    earlier[b], lower = [], sigma & b - 1
                    while lower:
                        b2 = lower & -lower
                        lower ^= b2
                        if not up[f := sigma ^ b ^ b2] & v:
                            earlier[b].append(up[f] & above)
                T = above
                while facets or cofaces:  # every subset T of above, by decreasing mask
                    meet = T & cofaces
                    if meet:  # built unless its one coface picks it
                        keep = meet & meet - 1 or not all(map(T.__and__, earlier[meet]))
                    else:  # built unless it is isolated or picks a facet
                        keep = facets and all(map(T.__and__, spans))
                    if keep:
                        cell = sigma << m | v | T
                        level = rows[size + T.bit_count()]
                        if meet:
                            index[cell] = len(level)
                        level.append({index[cell - (b << m) + b]:
                                      -1 if ((v | T) & (b - 1)).bit_count() & 1 else 1
                                      for b in facets})
                    if not T:
                        break
                    T = T - 1 & above
            v <<= 1
    sizes = {d: len(level) + n for d, (level, n) in enumerate(zip(rows, isolated))}
    return sizes, {d - 1: level for d, level in enumerate(rows) if d}


def moment_angle_cw_oracle(K: SimplicialComplex, ring: Ring, cap: int = 12) -> dict:
    """Cohomology of Z_K per degree from its cellular chain complex.

    The disc factor contributes cells 1, t, D with dD = t and dt = 0; a cell
    (sigma, T) is the product of D-cells over sigma and t-cells over T, with
    sigma and T int bitmasks over the degree order of the vertices
    (decreasing number of edges, ties in rank order).  The boundary sign of
    replacing D by t in the coordinate of bit b is (-1)^(number of
    t-coordinates before it) = (-1)^popcount(T & (b - 1)), following that
    order.  Only the critical cells of the matching on the first vertex of
    J = sigma + T in that order enter (``_cw_complex``), with the groups of
    all the cells.  Of those, a cell with no critical facet that is the
    critical facet of no other cell spans a direct summand Z, so it is
    counted in its degree and never built: in a group (sigma, v) with every
    sigma - b + v a face, these are the cells (sigma, v + S) whose S holds
    no b with sigma + b a face.  A cell that is the only critical coface of
    one of its facets, and so has none itself, spans with that facet an
    acyclic subcomplex: the pair cancels, neither built nor counted (module
    docstring).
    """
    if len(K.vertices) > cap:
        raise VertexCapExceeded(f"{len(K.vertices)} vertices exceeds the 3^m cell cap {cap}")
    groups = exactalg.cohomology_groups(*_cw_complex(K), ring)
    return {d: g for d, g in sorted(groups.items()) if not g.is_trivial}
