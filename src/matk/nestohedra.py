"""Building sets, nested set complexes, and the polytope families they name.

A building set on [n+1] contains every singleton and is closed under unions
of intersecting members.  Its nested set complex has one vertex per
non-maximal member and a simplex for every family that is pairwise nested or
disjoint and whose disjoint subfamilies never union into the building set;
for a simple nestohedron this complex is the boundary of the dual polytope.

Vertex labels are the canonical subset strings ("v{1,2}"), ordered
lexicographically by the underlying subsets; all sign conventions downstream
inherit that order.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from .cochains import Cochain
from .errors import MatkError, parse_int
from .exactalg import Frozen
from .hochster import CohomologyClass
from .simplicial import (SimplicialComplex, UnknownVertex, join, json_field, json_list,
                         star_delete)


class MissingSingleton(MatkError):
    pass


class NotUnionClosed(MatkError):
    pass


class InvalidTruncationPair(MatkError):
    pass


class NotSimpleGraph(MatkError):
    pass


class UnknownPolytopeKind(MatkError):
    pass


class InvalidSlotParameters(MatkError):
    """A (kind, n, k) with no Massey slot recipe."""


class ConnectedSlot(MatkError):
    """A slot whose full subcomplex is connected, so it has no degree-zero class."""


class BuildingSet(Frozen):
    _fields = ("ground", "sets")

    def __init__(self, ground: int, sets: frozenset):
        # the ground set is [1 .. ground]; sets is a frozenset of frozensets
        vars(self).update(ground=ground, sets=sets)

    def members(self) -> list:
        return sorted(self.sets, key=lambda S: (len(S), sorted(S)))

    def maximal(self) -> list:
        return [S for S in self.members()
                if not any(S < T for T in self.sets)]

    def to_json(self) -> dict:
        return {"ground": self.ground,
                "sets": sorted([sorted(S) for S in self.sets], key=lambda s: (len(s), s))}

    @staticmethod
    def from_json(obj: Mapping) -> "BuildingSet":
        sets = json_list(obj, "sets", "building set")
        return validate_building_set(
            parse_int(json_field(obj, "ground", "building set"), "ground size"),
            [json_list(sets, i, "building-set member") for i in range(len(sets))])


def validate_building_set(ground: int, sets: Iterable) -> BuildingSet:
    family = {frozenset(parse_int(x, "building-set element") for x in S) for S in sets}
    if any(not S for S in family):
        raise NotUnionClosed("empty set is not allowed")
    for S in family:
        if not all(1 <= x <= ground for x in S):
            raise NotUnionClosed(f"{sorted(S)} is not inside [1..{ground}]")
    for i in range(1, ground + 1):  # stops at the first missing one, at most len(family) + 1
        if frozenset({i}) not in family:
            raise MissingSingleton(f"singleton {{{i}}} is missing")
    for S1, S2 in itertools.combinations(family, 2):
        if S1 & S2 and S1 | S2 not in family:
            raise NotUnionClosed(
                f"{sorted(S1)} and {sorted(S2)} intersect but their union is missing")
    return BuildingSet(ground, frozenset(family))


def subset_label(S) -> str:
    return "v{" + ",".join(map(str, sorted(S))) + "}"


def _mask(S) -> int:
    return sum(1 << x for x in S)


def _elements(mask: int) -> tuple:
    """The positions of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _flood(start: int, within: int, near: Sequence[int]) -> int:
    """The bits reached from the bits of start by steps from bit i to the
    bits of ``near[i]``, all inside within."""
    seen = frontier = start
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = near[low.bit_length() - 1] & within & ~seen
        seen |= new
        frontier |= new
    return seen


def _vertex_masks(sets: set) -> dict:
    """{label: ground bitmask} of the non-maximal members among the member
    bitmasks ``sets``, in label order.  By decreasing size, a member is
    maximal unless a maximal member found so far contains it."""
    tops = []
    for m in sorted(sets, key=int.bit_count, reverse=True):
        if not any(m & t == m for t in tops):
            tops.append(m)
    members = sorted((_elements(m), m) for m in sets.difference(tops))
    return {subset_label(e): m for e, m in members}


def _lookup(by_label: Mapping, labels: Iterable) -> list:
    try:
        return [by_label[v] for v in labels]
    except KeyError as err:
        raise UnknownVertex(f"vertex {err.args[0]!r} not in complex") from None


def _maximal_nested(masks: Sequence[int], sets) -> list:
    """The maximal nested families of the members ``masks`` (ground
    bitmasks), each a bitmask over positions in ``masks``.

    ``fits[i]`` holds the members nested with or disjoint from member i and
    ``apart[i]`` those disjoint from it.  Along with the family the search
    keeps ``ext``, the members that extend it, and the unions of its
    nonempty pairwise-disjoint subfamilies.  Adding member j keeps the
    members c of ``ext & fits[j]`` except those disjoint from a new union U
    (one holding member j, so only members of ``apart[j]`` are tested)
    with U | c a member.  Members are added in position order, so each
    nested family is reached once, and a nonempty one is a facet when
    ``ext`` is empty.
    """
    apart = [sum(1 << j for j, T in enumerate(masks) if not S & T) for S in masks]
    fits = [apart[i] | sum(1 << j for j, T in enumerate(masks) if j != i and S & T in (S, T))
            for i, S in enumerate(masks)]
    facets = []

    def visit(family: int, ext: int, unions: list, start: int):
        if not ext and family:
            facets.append(family)
        later = ext >> start << start
        while later:
            low = later & -later
            later ^= low
            j = low.bit_length() - 1
            m = masks[j]
            new = [U | m for U in unions if not U & m] + [m]
            grown = ext & fits[j]
            for i in _elements(grown & apart[j]):
                c = masks[i]
                if any(not U & c and U | c in sets for U in new):
                    grown ^= 1 << i
            visit(family | low, grown, unions + new, j + 1)

    visit(0, (1 << len(masks)) - 1, [], 0)
    return facets


def nested_set_complex(B: BuildingSet) -> SimplicialComplex:
    """Vertices are the non-maximal members; faces are the nested families.

    The facets are the maximal nested families, found by one search over
    the members' ground bitmasks (``_maximal_nested``) in label order.
    """
    sets = {_mask(S) for S in B.sets}
    by_label = _vertex_masks(sets)
    labels = list(by_label)
    facets = _maximal_nested(list(by_label.values()), sets)
    return SimplicialComplex(labels, [[labels[i] for i in _elements(f)] for f in facets])


def _connected_masks(n_vertices: int, edges: Iterable) -> tuple:
    """(n, the ground bitmasks of the subsets of [1..n] inducing connected
    subgraphs): see ``graphical_building_set``."""
    n = parse_int(n_vertices, "vertex count")
    if n < 0:
        raise NotSimpleGraph(f"vertex count {n} is negative")
    adj = [0] * (n + 1)
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise NotSimpleGraph(f"edge {edge!r} is not a pair of vertices") from None
        u, v = parse_int(u, "graph vertex"), parse_int(v, "graph vertex")
        if not (1 <= u <= n and 1 <= v <= n):
            raise NotSimpleGraph(f"edge ({u}, {v}) leaves the vertices [1..{n}]")
        if u == v:
            raise NotSimpleGraph("graph must be simple")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return n, [S for S in range(2, 2 << n, 2) if _flood(S & -S, S, adj) == S]


def graphical_building_set(n_vertices: int, edges: Iterable) -> BuildingSet:
    """Subsets inducing connected subgraphs of a simple graph on [1..n].

    Each subset, a bitmask over the ground, is connected when a flood from
    its lowest element through the adjacency masks reaches all of it.  The
    family is a building set by construction, so it is not validated:
    every singleton is connected, and two intersecting connected sets have a
    connected union.  An edge that is no pair of distinct vertices of
    [1..n] raises ``NotSimpleGraph``, an endpoint that is no integer
    ``MalformedInput``."""
    n, family = _connected_masks(n_vertices, edges)
    return BuildingSet(n, frozenset(frozenset(_elements(S)) for S in family))


def _polytope_graph(kind: str, n: int) -> tuple:
    """(n + 1, edges) of the graph whose building set gives the
    permutahedron or the stellohedron of dimension n."""
    if kind == "permutahedron":
        return n + 1, itertools.combinations(range(1, n + 2), 2)
    if kind == "stellohedron":
        return n + 1, [(1, i) for i in range(2, n + 2)]
    raise UnknownPolytopeKind(f"unknown polytope kind {kind!r}")


def permutahedron_building_set(n: int) -> BuildingSet:
    """Complete graph on [n+1]: every non-empty subset."""
    return graphical_building_set(*_polytope_graph("permutahedron", n))


def stellohedron_building_set(n: int) -> BuildingSet:
    """Star graph on [n+1] with center 1: singletons plus supersets of {1}."""
    return graphical_building_set(*_polytope_graph("stellohedron", n))


def cube_dual_complex(n: int) -> SimplicialComplex:
    """The join of n circles' worth of S0 pairs: vertices i, i' for each axis."""
    K = SimplicialComplex(["1", "1'"], [["1"], ["1'"]])
    for i in range(2, n + 1):
        K = join(K, SimplicialComplex([str(i), str(i) + "'"],
                                      [[str(i)], [str(i) + "'"]]))
    return K


def cube_truncation(n: int, pairs: Sequence) -> SimplicialComplex:
    """Star deletions of the cube dual at the edges {i, k'}; equivalently
    stellar subdivisions there, restricted back to the original 2n vertices.
    Each pair needs 1 <= i < k <= n, once, and (1, n) is excluded; an entry
    that is no such pair raises ``InvalidTruncationPair``, an index that is
    no integer ``MalformedInput``."""
    n = parse_int(n, "cube dimension")
    if n < 2:
        raise InvalidTruncationPair("need n >= 2")
    seen = set()
    cleaned = []
    for pair in pairs:
        try:
            i, k = pair
        except (TypeError, ValueError):
            raise InvalidTruncationPair(f"entry {pair!r} is not a pair") from None
        i, k = parse_int(i, "truncation index"), parse_int(k, "truncation index")
        if not (1 <= i < k <= n):
            raise InvalidTruncationPair(f"pair ({i},{k}) must satisfy 1 <= i < k <= n")
        if (i, k) == (1, n):
            raise InvalidTruncationPair("the pair (1, n) is excluded")
        if (i, k) in seen:
            raise InvalidTruncationPair(f"pair ({i},{k}) repeated")
        seen.add((i, k))
        cleaned.append((i, k))
    K = cube_dual_complex(n)
    for i, k in cleaned:
        K = star_delete(K, (str(i), str(k) + "'"))
    return K


def standard_polytope_complex(kind: str, n: int) -> SimplicialComplex:
    return nested_set_complex(graphical_building_set(*_polytope_graph(kind, n)))


# -- the Massey configurations carried by these families ----------------------


def _rng(a, b):
    return list(range(a, b + 1))


def permutahedron_massey_slots(n: int, k: int):
    """Vertex subsets J_1..J_k of the permutahedral complex carrying a k-fold
    product, with the edges to contract when k = n (none otherwise).

    Each J_i is listed so contracted pairs are adjacent; use the listed order
    when re-ordering the ambient full subcomplex.
    """
    if not 2 <= k <= n:
        raise InvalidSlotParameters("need 2 <= k <= n")
    if k < n:
        J = [[{1}, {2}]]
        for i in range(2, k):
            J.append([set(_rng(1, i)) | {k + 1}, set(_rng(2, i + 1))])
        J.append([set(_rng(1, k + 1)), set(_rng(1, k)) | {k + 2}])
        contractions = []
    else:
        J = [[{1}, set(_rng(2, n + 1)), set(_rng(3, n + 1))]]
        for i in range(2, n):
            J.append([set(_rng(1, i)), set(_rng(2, i)), set(_rng(3, i + 1))])
        J.append([set(_rng(1, n)), set(_rng(2, n)), {1} | set(_rng(3, n + 1))])
        contractions = [(subset_label(set(_rng(2, n + 1))), subset_label(set(_rng(3, n + 1))))]
        for i in range(2, n + 1):
            contractions.append((subset_label(set(_rng(1, i))), subset_label(set(_rng(2, i)))))
    labels = [[subset_label(S) for S in Ji] for Ji in J]
    return labels, contractions


def stellohedron_massey_slots(n: int):
    """Vertex subsets J_1..J_n of the stellohedral complex for an n-fold
    product, with the edges to contract.  The product they carry is
    non-trivial for n <= 3 only: for n = 4 and 5 it contains zero over F2
    and F3, with one class, so this recipe is no n-fold example there."""
    if n < 2:
        raise InvalidSlotParameters("need n >= 2")
    J = [[{2}, {1}]]
    contractions = []
    for i in range(2, n):
        J.append([set(_rng(1, i)), {1} | set(_rng(3, i + 2)), {1} | set(_rng(4, i + 2))])
        contractions.append((subset_label({1} | set(_rng(3, i + 2))),
                             subset_label({1} | set(_rng(4, i + 2)))))
    J.append([{1, 3}, {3}, {1, 2} | set(_rng(4, n + 1))])
    contractions.append((subset_label({1, 3}), subset_label({3})))
    labels = [[subset_label(S) for S in Ji] for Ji in J]
    return labels, contractions


def nestohedron_massey_input(kind: str, n: int, k: int, ring):
    """The full subcomplex, classes and contraction list realizing the k-fold
    configuration on the nestohedral complex.

    The subcomplex is the nested set complex searched over the slot
    vertices alone, never the whole ambient complex, and built on them in
    slot order, so each J_i block is contiguous (with the contracted pairs
    adjacent), which is what the pullback calculus needs.  Each class is the
    indicator cochain of the connected component of the first slot vertex
    inside K_{J_i}, flooded through the facet masks of the search.
    """
    if kind == "permutahedron":
        slots, contractions = permutahedron_massey_slots(n, k)
    elif kind == "stellohedron":
        if k != n:
            raise InvalidSlotParameters("the stellohedron configuration has k = n")
        slots, contractions = stellohedron_massey_slots(n)
    else:
        raise UnknownPolytopeKind(f"no Massey configuration for {kind!r}")
    order = [v for Ji in slots for v in Ji]
    sets = set(_connected_masks(*_polytope_graph(kind, n))[1])
    facets = _maximal_nested(_lookup(_vertex_masks(sets), order), sets)
    rows = [_elements(f) for f in facets]
    sub = SimplicialComplex(order, [[order[i] for i in r] for r in rows])
    near = [0] * len(order)  # position -> the positions it shares an edge with
    for f, r in zip(facets, rows):
        for i in r:
            near[i] |= f
    classes = []
    first = 0
    for Ji in slots:
        slot = ((1 << len(Ji)) - 1) << first
        component = _flood(1 << first, slot, near)
        if component == slot:
            raise ConnectedSlot(f"K_J on {Ji} is connected; no degree-zero class")
        rep = Cochain(sub, ring, Ji, 0, {(order[i],): ring.one for i in _elements(component)})
        classes.append(CohomologyClass(rep))
        first += len(Ji)
    return sub, tuple(classes), contractions
