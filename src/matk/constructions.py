"""Two generators of non-trivial Massey products, and the maps between them.

Join route: start from factor complexes with chosen nonzero classes, star
delete the join at every sigma_i ∪ sigma_k (sigma_i in the support of a_i,
sigma_k in the deletion set P_{a_k}) for i < k, (i,k) != (1,n).  The deleted
complex carries a canonical defining system and an explicit witness cycle
that together certify the n-fold product non-trivial.

Contraction route: an edge contraction phi: K -> K-hat satisfying the link
condition pulls classes, cochains and whole defining systems back from K-hat
to K; pushing associated cocycles forward (after rewriting their supports off
the contracted edge) maps the downstairs Massey set into the upstairs one.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Optional, Sequence

from .cochains import (
    Chain,
    Cochain,
    _parity_sign,
    boundary,
    coboundary,
    cochain_from_json,
    cochain_to_json,
    combine,
    cup_multiply,
    epsilon,
    evaluate,
    reduced_cohomology,
)
from .errors import MalformedInput, MatkError, parse_int
from .exactalg import GF, Frozen, Ring
from .hochster import CohomologyClass
from .massey import (
    DefiningSystem,
    _stages,
    check_defining_system,
    associated_cocycle,
    enumerate_defining_systems,
    find_evaluating_cycle,
)
from .simplicial import (
    OrderIncompatibleMap,
    SimplicialComplex,
    SimplicialError,
    VertexMap,
    complex_from_json,
    complex_to_json,
    contract_edge,
    join,
    json_field,
    json_label,
    json_labels,
    json_list,
    star_delete,
)


class ZeroClass(MatkError):
    pass


class InvalidSpec(MatkError):
    pass


class SupportContainsContractedEdge(MatkError):
    pass


class DiagonalTouchesEdge(MatkError):
    pass


class InvalidUpstairsSystem(MatkError):
    pass


# -- the join + star deletion construction -----------------------------------


class JoinMasseySpec:
    """Factors with one chosen cocycle each, plus the two free choices the
    construction depends on: the distinguished vertex of each support simplex
    (by default its first) and the order of each support.  Both are resolved
    once, here, into each factor's ordered ``supports``, deletion set ``P``
    and ``survivors`` (``compute_P_sets``); the deletions, the canonical
    system and the witness cycle are read off those.  A vertex choice that
    names no support simplex is an ``InvalidSpec``, and so is a class on a
    proper full subcomplex of its factor: P is drawn from the faces of the
    whole factor, so J_i must hold all of its vertices."""

    def __init__(self, factors, cochains, vertex_choice: Optional[dict] = None,
                 support_order: Optional[dict] = None):
        self.factors = tuple(factors)
        self.cochains = tuple(cochains)  # a_i, a Cochain on all of factors[i]
        self.vertex_choice = {} if vertex_choice is None else vertex_choice  # simplex -> vertex
        self.support_order = {} if support_order is None else support_order  # factor -> order
        if len(self.factors) != len(self.cochains):
            raise InvalidSpec("one cochain per factor")
        if self.n < 2:
            raise InvalidSpec("need at least two factors")
        for K_i, a_i in zip(self.factors, self.cochains):
            if a_i.complex != K_i:
                raise InvalidSpec("cochain does not live on its factor")
        rings = {a.ring for a in self.cochains}
        if len(rings) != 1:
            raise InvalidSpec("all cochains must share one ring")
        known = {s for a in self.cochains for s in a.support}
        for s in self.vertex_choice:
            if s not in known:
                raise InvalidSpec(f"vertex choice for {list(s)}, which is no support "
                                  "simplex of any factor")
        resolved = []
        for i, (K_i, a_i) in enumerate(zip(self.factors, self.cochains)):
            order = self.support_order.get(i)
            P_i, survivors_i = compute_P_sets(K_i, a_i, self.vertex_choice, order)
            if len(a_i.J) != len(K_i.vertices):
                raise InvalidSpec(f"the class of factor {i} lives on J={list(a_i.J)}, a proper "
                                  "full subcomplex; the construction needs J = all of the "
                                  "factor's vertices")
            resolved.append((a_i.support if order is None else
                             tuple(K_i.sort_simplex(s) for s in order), P_i, survivors_i))
        self.supports, self.P, self.survivors = zip(*resolved)

    @property
    def n(self) -> int:
        return len(self.factors)

    @property
    def ring(self) -> Ring:
        return self.cochains[0].ring


def _distinguished(vertex_choice: Mapping, sigma) -> str:
    """The distinguished vertex of a support simplex: the chosen one, by
    default its first; InvalidSpec if sigma is empty or lacks the choice."""
    if not sigma:
        raise InvalidSpec("the empty simplex has no distinguished vertex; "
                          "a degree -1 class cannot enter the join construction")
    v = vertex_choice.get(sigma, sigma[0])
    if v not in sigma:
        raise InvalidSpec(f"distinguished vertex {v} not in {sigma}")
    return v


def compute_P_sets(K_i: SimplicialComplex, a_i: Cochain,
                   vertex_choice: Optional[Mapping] = None,
                   support_order: Optional[Sequence] = None):
    """The deletion set P_{a} and the surviving support, per the iterated
    subsequence rule: walk the ordered support, discard everything each
    chosen simplex sweeps out, continue from the next survivor."""
    H = reduced_cohomology(K_i, a_i.J, a_i.ring)
    if not H.is_cocycle(a_i):
        raise ZeroClass("construction input must be a cocycle")
    if H.is_coboundary(a_i):
        raise ZeroClass("construction input represents the zero class")
    vertex_choice = dict(vertex_choice or {})
    support = list(a_i.support)
    if support_order is not None:
        ordered = [K_i.sort_simplex(s) for s in support_order]
        if sorted(ordered) != sorted(support):
            raise InvalidSpec("support order is not a permutation of the support")
        support = ordered
    p = a_i.p

    def P_of(sigma):
        core = set(sigma) - {_distinguished(vertex_choice, sigma)}
        return [t for t in K_i.faces(p) if t != sigma and set(sigma) & set(t) == core]

    P_total: list = []
    remaining = list(support)
    chosen = remaining[0]
    while True:
        swept = P_of(chosen)
        for t in swept:
            if t not in P_total:
                P_total.append(t)
        remaining = [s for s in remaining if s not in swept]
        pos = remaining.index(chosen) + 1
        if pos >= len(remaining):
            break
        chosen = remaining[pos]
    survivors = tuple(s for s in support if s not in P_total)
    if not P_total:
        raise InvalidSpec("empty deletion set; the class hypothesis fails")
    if not survivors:
        raise InvalidSpec("no surviving support simplex")
    return tuple(sorted(P_total, key=lambda s: tuple(K_i.rank(v) for v in s))), survivors


class DeletionLedger(Frozen):
    _fields = ("deletions",)

    def __init__(self, deletions: tuple):  # (i, k, simplex) with 1-based factor indices
        vars(self).update(deletions=deletions)

    def simplices(self) -> tuple:
        return tuple(s for _, _, s in self.deletions)

    def to_json(self) -> list:
        return [{"i": i, "k": k, "simplex": list(s)} for i, k, s in self.deletions]


def construct_massey_complex(spec: JoinMasseySpec):
    """Star delete the join at every sigma_i ∪ sigma_k; the result does not
    depend on the order the pairs are processed in."""
    K = spec.factors[0]
    for f in spec.factors[1:]:
        K = join(K, f)
    deletions = [(i, k, K.sort_simplex(sigma_i + sigma_k))
                 for i, k in sorted(_stages(spec.n))
                 for sigma_i in spec.supports[i - 1]
                 for sigma_k in spec.P[k - 1]]
    for _, _, simplex in deletions:
        K = star_delete(K, simplex)
    return K, DeletionLedger(tuple(deletions))


def _theta_flat(sizes, ps, i, k) -> int:
    """(-1)^(sum over l = i..k-1 of sizes_l (p_{l+1} + .. + p_k)), 1-based."""
    exp = 0
    for l in range(i, k):
        exp += sizes[l - 1] * sum(ps[l:k])
    return _parity_sign(exp)


def _theta_join(spec: JoinMasseySpec, K, i: int, k: int, inner) -> int:
    """(-1)^(k-i) theta_flat(i, k) times epsilon(v_l, sigma_l) for the inner
    simplices sigma_l, l = i+1..k, and their distinguished vertices v_l."""
    sign = _parity_sign(k - i) * _theta_flat([len(a.J) for a in spec.cochains],
                                             [a.p for a in spec.cochains], i, k)
    for sigma in inner:
        sign *= epsilon(K, _distinguished(spec.vertex_choice, sigma), sigma)
    return sign


def _on(K: SimplicialComplex, a: Cochain) -> Cochain:
    """A factor's cochain read on the complex K built from the factors."""
    return Cochain(K, a.ring, a.J, a.p, dict(a.coeffs))


def canonical_defining_system_joins(spec: JoinMasseySpec, K: SimplicialComplex) -> DefiningSystem:
    """The defining system attached to the construction: entry (i,k) sums over
    the support at position i and the survivors at positions i+1..k, removing
    the distinguished vertices of the inner simplices."""
    ring = spec.ring
    classes = [CohomologyClass(_on(K, a)) for a in spec.cochains]
    entries = {}
    for i, k in _stages(spec.n):
        block = spec.cochains[i - 1:k]
        terms = []
        for sigmas in itertools.product(spec.supports[i - 1], *spec.survivors[i:k]):
            coeff = _theta_join(spec, K, i, k, sigmas[1:])
            for a, sigma in zip(block, sigmas):
                coeff = ring.mul(coeff, a.coefficient(sigma))
            drop = {_distinguished(spec.vertex_choice, sigma) for sigma in sigmas[1:]}
            simplex = K.sort_simplex([v for sigma in sigmas for v in sigma if v not in drop])
            if not K.has_face(simplex):
                raise InvalidSpec(f"canonical entry hits a deleted simplex {simplex}")
            terms.append((simplex, coeff))
        entries[(i, k)] = Cochain(K, ring, [v for a in block for v in a.J],
                                  sum(a.p for a in block), terms)
    return DefiningSystem(tuple(classes), entries)


def _as_ring(a: Cochain, ring: Ring) -> Cochain:
    if a.ring == ring:
        return a
    if ring.kind != "Fp":
        raise InvalidSpec("can only reduce to a prime field")

    def reduce_coeff(c):  # an int or a Fraction: both have numerator and denominator
        if c.denominator % ring.p == 0:
            raise InvalidSpec(f"coefficient {c} has no reduction mod {ring.p}")
        return ring.div(ring.of_int(c.numerator), ring.of_int(c.denominator))

    return Cochain(a.complex, ring, a.J, a.p,
                   {s: reduce_coeff(c) for s, c in a.coeffs.items()})


def _pairing_cycles(classes, ring: Ring) -> tuple:
    """(ring, cycles), one cycle per class that pairs nontrivially with it,
    the first such of its cycle basis (``find_evaluating_cycle``; any will
    do): over ``ring``, or over Z, when a class is torsion, over the first
    prime field in which every class has one.  The ring is chosen from every
    class, so a torsion class after the first forces the field too."""
    fields = [GF(p) for p in (2, 3, 5, 7, 11, 13)] if ring.kind == "Z" else []
    for R in (ring, *fields):
        cycles = []
        for a in classes:
            reduced = _as_ring(a, R)
            x = None if reduced.is_zero() else find_evaluating_cycle(reduced)
            if x is None:
                break
            cycles.append(x)
        else:
            return R, cycles
    raise InvalidSpec(f"no cycle pairs nontrivially with the {('first', 'second')[len(cycles)]} "
                      "class")


def witness_cycle(spec: JoinMasseySpec, K: SimplicialComplex) -> Chain:
    """The explicit cycle certifying non-triviality: a pairing cycle for a_1
    joined with boundary spheres of sigma_2 ∪ sigma_n and of the inner
    simplices, sigma_n the first simplex of the deletion set P_n; for n = 2
    the product of pairing cycles for a_1 and a_2.  Over Z a torsion class
    among those forces prime-field coefficients; the returned chain's ring
    records that.
    """
    return _witness(spec, K, spec.P[spec.n - 1][0])


def _witness(spec: JoinMasseySpec, K: SimplicialComplex, sigma_n) -> Chain:
    """``witness_cycle`` with sigma_n, a simplex of P_n, given."""
    n = spec.n
    # the witness pairs a_1 with a cycle, and for n = 2 a_2 too
    ring, cycles = _pairing_cycles([_on(K, a) for a in spec.cochains[:2 if n == 2 else 1]],
                                   spec.ring)
    x1 = cycles[0]

    sigma = {l: spec.survivors[l - 1][0] for l in range(2, n)}
    sigma[n] = sigma_n

    if n == 2:
        # nothing is deleted for n = 2, so a product of pairing cycles works
        terms = [(s1 + s2, ring.mul(c1, c2))
                 for s1, c1 in x1.coeffs.items() for s2, c2 in cycles[1].coeffs.items()]
    else:
        # x1 * d(sigma_2 * M * sigma_n) for the cycle M = d sigma_3 * .. * d sigma_(n-1),
        # by d(x * y) = dx * y + (-1)^(dim x + 1) x * dy: the terms of d sigma_n
        # carry the sign of sigma_2 * M, of |sigma_2| + sum(|sigma_l| - 1) vertices
        pair = K.sort_simplex(sigma[2] + sigma[n])
        inner = list(range(3, n))
        across = _parity_sign(sum(len(sigma[l]) - 1 for l in inner))
        tail = [v for l in range(2, n + 1) for v in sigma[l]]
        terms = []
        for s1, c1 in x1.coeffs.items():
            for w2 in pair:
                sign = epsilon(K, w2, pair) * (across if w2 in sigma[n] else 1)
                c = ring.mul(c1, ring.of_int(sign))
                for ws in itertools.product(*[sigma[l] for l in inner]):
                    cc = c
                    for l, w in zip(inner, ws):
                        cc = ring.mul(cc, ring.of_int(epsilon(K, w, sigma[l])))
                    dropped = {w2, *ws}
                    terms.append(([v for v in (*s1, *tail) if v not in dropped], cc))
    Jall = K.sort_simplex([v for a in spec.cochains for v in a.J])
    p_total = sum(a.p for a in spec.cochains) + 1
    x = Chain(K, ring, Jall, p_total, terms)
    if not boundary(x).is_zero():
        raise InvalidSpec("constructed witness chain is not a cycle")
    return x


class JoinCertificate:
    def __init__(self, method: str, omega: Cochain, cycle: Optional[Chain],
                 value: Optional[object]):
        self.method = method  # "pairing" or "enumeration-F2"
        self.omega = omega
        self.cycle = cycle
        self.value = value
        self.moves = 0  # no rewriting moves are made; kept in the certificate JSON


def certify_join_nontrivial(spec: JoinMasseySpec, K: Optional[SimplicialComplex] = None,
                            ds: Optional[DefiningSystem] = None) -> JoinCertificate:
    """Certify that the constructed product contains no zero class.

    Pair the canonical associated cocycle against the witness cycle.  The
    pairing depends only on the two classes, so when it is zero no rewriting
    of either representative can help.  A witness whose sigma_n also lies in
    the support of a_n can pair to zero over every ring, so the witnesses
    through the other simplices of P_n are tried next; when every one pairs
    to zero, decide exactly over F_2 instead.
    """
    if K is None:
        K, _ = construct_massey_complex(spec)
    if ds is None:
        ds = canonical_defining_system_joins(spec, K)
    omega = associated_cocycle(ds)
    rest = spec.P[spec.n - 1][1:] if spec.n > 2 else ()  # n = 2 reads no sigma_n
    for x in itertools.chain([witness_cycle(spec, K)], (_witness(spec, K, s) for s in rest)):
        paired = _as_ring(omega, x.ring)
        value = evaluate(paired, x)
        if not x.ring.is_zero(value):
            return JoinCertificate("pairing", paired, x, value)

    f2 = GF(2)
    classes = tuple(
        CohomologyClass(_as_ring(c.representative, f2)) for c in ds.classes
    )
    verdict = enumerate_defining_systems(classes, budget=20)
    if verdict.contains_zero is False:
        return JoinCertificate("enumeration-F2", _as_ring(omega, f2), None, None)
    raise InvalidSpec("could not certify the constructed product non-trivial")


# -- the edge contraction calculus -------------------------------------------


def _require_contraction_map(phi: VertexMap):
    if not phi.is_order_compatible():
        raise OrderIncompatibleMap(
            "pullbacks need contiguous preimage blocks in the source order")
    if not phi.is_simplicial():
        raise InvalidUpstairsSystem("map is not simplicial")


def _pull(phi: VertexMap, a_hat: Cochain, sign: int) -> Cochain:
    """sign times a_hat with each support simplex replaced by the sum of its
    same-dimension preimages."""
    ring = a_hat.ring
    return Cochain(phi.source, ring, phi.preimage_vertices(a_hat.J), a_hat.p,
                   [(s, ring.mul(c, sign)) for s_hat, c in a_hat.coeffs.items()
                    for s in phi.preimages(s_hat, a_hat.p)])


def _checked(ds: DefiningSystem, error: type, what: str) -> DefiningSystem:
    """ds, or ``error`` naming the stages whose staircase equations fail."""
    bad = check_defining_system(ds)
    if bad:
        raise error(f"{what} fails at " + ", ".join(f"({i},{k})" for i, k, _ in bad))
    return ds


def pullback_class(phi: VertexMap, a_hat: Cochain) -> Cochain:
    """Pull a cocycle back along a contraction: each support simplex is
    replaced by the sum of its same-dimension preimages."""
    _require_contraction_map(phi)
    a = _pull(phi, a_hat, 1)
    if not coboundary(a).is_zero():
        raise InvalidUpstairsSystem("pullback of the given cochain is not a cocycle")
    return a


def pullback_defining_system(phi: VertexMap, ds_hat: DefiningSystem) -> DefiningSystem:
    """Pull a whole defining system back along the contraction; the sign on
    entry (i,k) is theta * theta-hat, built from the block sizes upstairs and
    downstairs."""
    _require_contraction_map(phi)
    ps = [c.p for c in ds_hat.classes]
    sizes_down = [len(c.J) for c in ds_hat.classes]
    classes = tuple(CohomologyClass(pullback_class(phi, c.representative))
                    for c in ds_hat.classes)
    sizes_up = [len(c.J) for c in classes]
    entries = {}
    for (i, k), a_hat in ds_hat.entries.items():
        if i == k:
            continue
        sign = _theta_flat(sizes_up, ps, i, k) * _theta_flat(sizes_down, ps, i, k)
        entries[(i, k)] = _pull(phi, a_hat, sign)
    return _checked(DefiningSystem(classes, entries), InvalidUpstairsSystem,
                    "pulled-back system")


def pushforward_phi_star(phi: VertexMap, a: Cochain) -> Cochain:
    """phi_*: collapse each support simplex to its image, keeping the shared
    coefficient; defined only when no support simplex degenerates and all
    preimages of one image carry equal coefficients.  Any sign is the
    caller's to apply, with ``Cochain.scale``."""
    ring = a.ring
    coeffs: dict = {}
    seen: dict = {}
    for s, c in a.coeffs.items():
        image = phi.image_simplex(s)
        if len(image) != len(s):
            raise SupportContainsContractedEdge(
                f"support simplex {s} collapses under the contraction")
        if image in seen and seen[image] != c:
            raise SupportContainsContractedEdge(
                f"preimages of {image} carry different coefficients")
        seen[image] = c
        coeffs[image] = c
    Jhat = phi.target.sort_simplex({phi.assignment[v] for v in a.J})
    return Cochain(phi.target, ring, Jhat, a.p, coeffs)


def disjointify_defining_system(ds: DefiningSystem, edge: Iterable[str]) -> DefiningSystem:
    """Rewrite a defining system so no entry's support contains the edge.

    Innermost offending pairs are cleared first.  Clearing one simplex sigma
    from entry (i,k) subtracts the coboundary of chi_{sigma minus u} and
    corrects every entry (i',k) with i' < i and (i,k') with k' > k; u is the
    later of the two edge vertices in the vertex order.  Each pass strictly
    reduces the number of offending simplices, so the loop terminates, and the
    associated class is unchanged.
    """
    K = ds.complex
    ring = ds.ring
    u_lo, u_hi = sorted(set(edge), key=K.rank)
    edge_set = {u_lo, u_hi}
    n = ds.n

    def offending(a: Cochain):
        return sorted(s for s in a.coeffs if edge_set <= set(s))

    for i in range(1, n + 1):
        if offending(ds.a(i, i)):
            raise DiagonalTouchesEdge(f"representative {i} touches the edge")

    def total_offense(system):
        return sum(len(offending(a)) for a in system.entries.values())

    while True:
        stage = next((s for s in _stages(n) if offending(ds.a(*s))), None)
        if stage is None:
            break
        i, k = stage
        sigma = offending(ds.a(i, k))[0]
        c_sigma = ds.a(i, k).coefficient(sigma)
        eps = epsilon(K, u_hi, sigma)
        factor = ring.mul(c_sigma, ring.of_int(eps))
        stub = Cochain(K, ring, ds.J_block(i, k), ds.p_block(i, k) - 1,
                       {tuple(v for v in sigma if v != u_hi): ring.one})
        entries = dict(ds.entries)
        entries[(i, k)] = combine(ds.a(i, k), [(ring.neg(factor), coboundary(stub))])
        for i2 in range(1, i):
            if (i2, k) == (1, n) or (i2, k) not in ds.entries:
                continue
            left = ds.a(i2, i - 1)
            entries[(i2, k)] = combine(ds.a(i2, k), [(factor, cup_multiply(left, stub))])
        mydeg = ds.p_block(i, k) + len(ds.J_block(i, k)) + 1
        cfac = ring.mul(factor, ring.of_int(_parity_sign(mydeg)))
        for k2 in range(k + 1, n + 1):
            if (i, k2) == (1, n) or (i, k2) not in ds.entries:
                continue
            right = ds.a(k + 1, k2)
            entries[(i, k2)] = combine(ds.a(i, k2), [(cfac, cup_multiply(stub, right))])
        new_ds = DefiningSystem(ds.classes, entries)
        if total_offense(new_ds) >= total_offense(ds):
            raise InvalidSpec("support rewriting failed to make progress")
        ds = new_ds
    return _checked(ds, InvalidSpec, "rewritten system")


def spec_to_json(spec: JoinMasseySpec) -> dict:
    return {
        "ring": spec.ring.name(),
        "factors": [complex_to_json(K) for K in spec.factors],
        "cochains": [cochain_to_json(a) for a in spec.cochains],
        "vertex_choice": [
            {"simplex": list(s), "vertex": v} for s, v in sorted(spec.vertex_choice.items())
        ],
        "support_order": {
            str(i): [list(s) for s in order] for i, order in sorted(spec.support_order.items())
        },
    }


def spec_from_json(obj: Mapping) -> JoinMasseySpec:
    ring = Ring.parse(json_field(obj, "ring", "spec"))
    factors = tuple(complex_from_json(K) for K in json_list(obj, "factors", "spec"))
    blobs = json_list(obj, "cochains", "spec")
    if len(blobs) != len(factors):
        raise InvalidSpec(f"{len(blobs)} cochains for {len(factors)} factors; "
                          "one cochain per factor")
    cochains = tuple(cochain_from_json(c, K, ring) for K, c in zip(factors, blobs))
    vertex_choice = {}
    for entry in json_list(obj, "vertex_choice", "spec") if "vertex_choice" in obj else []:
        s = tuple(json_labels(entry, "simplex", "vertex choice"))
        for K in factors:
            if all(v in K.vertices for v in s):
                s = K.sort_simplex(s)
                break
        vertex_choice[s] = json_label(json_field(entry, "vertex", "vertex choice"),
                                      "vertex choice 'vertex'")
    orders = obj.get("support_order", {})
    if not isinstance(orders, Mapping):
        raise MalformedInput(f"spec 'support_order' is not a JSON object: {orders!r}")
    support_order = {}
    for key in orders:
        i = parse_int(key, "support-order factor")
        if not 0 <= i < len(factors):
            raise InvalidSpec(f"support order for factor {i}, but the factors are "
                              f"0..{len(factors) - 1}")
        order = json_list(orders, key, "support order")
        support_order[i] = [tuple(json_labels(order, t, "support simplex"))
                            for t in range(len(order))]
    return JoinMasseySpec(factors, cochains, vertex_choice, support_order)


def contract_edges(K: SimplicialComplex, edges: Sequence):
    """Contract a sequence of edges (named in K's labels) and compose the maps.

    Returns (K-hat, phi, all_links_ok); as in ``contract_edge``, a failed link
    condition is reported, never raised.  Later edges may name vertices that
    an earlier contraction already merged; they are followed through the maps.
    """
    current = K
    assignment = {v: v for v in K.vertices}
    all_ok = True
    for (u, w) in edges:
        uu, ww = assignment[u], assignment[w]
        if uu == ww:
            raise SimplicialError(f"edge {u},{w} already collapsed")
        contracted = contract_edge(current, (uu, ww))
        all_ok = all_ok and contracted.link_condition
        step = contracted.map
        assignment = {v: step.assignment[assignment[v]] for v in K.vertices}
        current = contracted.complex
    phi = VertexMap(K, current, assignment)
    return current, phi, all_ok
