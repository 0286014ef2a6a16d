"""Command-line front end.

Every invocation reads JSON, writes one JSON object (stdout or --out) with
sorted keys, and logs nothing to stdout.  Exit codes: 0 success, 1 bad input,
2 usage error, 3 internal fault.  Bad input is a ``MatkError`` or an input
file that cannot be read or is not JSON; it is reported as a JSON error
object ``{"error": {"type", "message"}}`` on stdout.  Any other exception is
an internal fault: its traceback goes to stderr and nothing to stdout.  A
stdout closed by its reader before the output is written (``matk ... |
head``) is neither: it exits 1 with one line on stderr and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cochains, constructions, hochster, massey, nestohedra, simplicial
from .errors import MalformedInput, MatkError, parse_int
from .exactalg import Ring


class DomainError(MatkError):
    """Bad input that only the command line can see, such as a flag value."""


class OutputDirectoryMissing(DomainError):
    """--out names a file in a directory that does not exist."""


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _emit(obj, out: str | None):
    text = json.dumps(obj, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _complex(path: str) -> simplicial.SimplicialComplex:
    return simplicial.complex_from_json(_load(path))


def _classes(path: str, K, ring):
    blobs = _load(path)
    if not isinstance(blobs, list):
        blobs = simplicial.json_list(blobs, "classes", "class file")
    out = []
    for blob in blobs:
        rep = cochains.cochain_from_json(blob, K, ring)
        out.append(hochster.CohomologyClass(rep))
    return out


def _vertices(arg: str):
    return [v for v in arg.split(",") if v]


def cmd_build(args):
    K = _complex(args.input)
    _emit(simplicial.complex_to_json(K), args.out)


def cmd_subcomplex(args):
    K = _complex(args.input)
    sub = simplicial.full_subcomplex(K, _vertices(args.vertices))
    _emit(simplicial.complex_to_json(sub), args.out)


def cmd_homology(args):
    K = _complex(args.input)
    ring = Ring.parse(args.ring)
    J = _vertices(args.J) if args.J else K.vertices
    H = cochains.reduced_cohomology(K, J, ring)
    groups = {
        str(p): g.to_json() for p, g in H.groups().items() if not g.is_trivial
    }
    _emit({"ring": ring.name(), "J": list(K.sort_simplex(J)), "reduced_cohomology": groups},
          args.out)


def cmd_hochster(args):
    K = _complex(args.input)
    ring = Ring.parse(args.ring)
    table = hochster.hochster_decompose(K, ring, cap=args.cap)
    _emit(table.to_json(), args.out)


def cmd_zk_oracle(args):
    K = _complex(args.input)
    ring = Ring.parse(args.ring)
    groups = hochster.moment_angle_cw_oracle(K, ring, cap=args.cap)
    _emit({
        "ring": ring.name(),
        "total": [{"degree": d, **g.to_json()} for d, g in sorted(groups.items())],
    }, args.out)


def cmd_product(args):
    K = _complex(args.input)
    ring = Ring.parse(args.ring)
    classes = _classes(args.classes, K, ring)
    if len(classes) != 2:
        raise DomainError("product needs exactly two classes")
    prod = hochster.product_in_hochster(classes[0], classes[1])
    _emit({
        "ring": ring.name(),
        "J": list(prod.J),
        "p": prod.p,
        "total_degree": prod.total_degree,
        "representative": cochains.cochain_to_json(prod.representative),
        "is_zero_class": prod.is_zero(),
    }, args.out)


def cmd_massey(args):
    if args.budget < 0:
        raise DomainError(f"--budget {args.budget} is negative")
    K = _complex(args.input)
    ring = Ring.parse(args.ring)
    classes = _classes(args.classes, K, ring)
    n = len(classes)
    if n < 2:
        raise DomainError(f"a Massey product needs at least two classes, {n} supplied")
    if args.order is not None and args.order != n:
        raise DomainError(f"--order {args.order} but {n} classes supplied")
    if n >= 4 and ring.kind != "Fp":
        raise DomainError(f"{n}-fold products are decided by enumeration over a prime field; "
                          f"pass --ring F2 (or another F_p)")
    verdict = massey.enumerate_defining_systems(classes, budget=args.budget)
    out = {"ring": ring.name(), "order": n, **verdict.to_json()}
    _emit(out, args.out)


def cmd_construct_join(args):
    spec = constructions.spec_from_json(_load(args.spec))
    K, ledger = constructions.construct_massey_complex(spec)
    ds = constructions.canonical_defining_system_joins(spec, K)
    omega = massey.associated_cocycle(ds)
    out = {
        "complex": simplicial.complex_to_json(K),
        "deletions": ledger.to_json(),
        "defining_system": ds.to_json(),
        "associated_cocycle": cochains.cochain_to_json(omega),
        "total_degree": cochains.total_degree(omega),
    }
    if args.certify:
        cert = constructions.certify_join_nontrivial(spec, K, ds)
        out["certificate"] = {
            "method": cert.method,
            "moves": cert.moves,
            "nontrivial": True,  # only a successful certificate is returned
        }
        if cert.cycle is not None:
            out["certificate"]["witness_cycle"] = cochains.cochain_to_json(cert.cycle)
            out["certificate"]["evaluation"] = cert.cycle.ring.element_to_str(cert.value)
            out["certificate"]["coefficients"] = cert.cycle.ring.name()
    _emit(out, args.out)


def cmd_contract(args):
    K = _complex(args.input)
    edge = _vertices(args.edge)
    if len(edge) != 2:
        raise DomainError("--edge needs two comma-separated labels")
    result = simplicial.contract_edge(K, edge, new_label=args.label)
    if args.require_link_condition and not result.link_condition:
        raise DomainError(f"edge {edge} fails the link condition")
    _emit({
        "complex": simplicial.complex_to_json(result.complex),
        "map": dict(result.map.assignment),
        "link_condition": result.link_condition,
    }, args.out)


def cmd_stretch(args):
    Khat = _complex(args.input)
    blob = _load(args.map)
    source = simplicial.complex_from_json(simplicial.json_field(blob, "source", "map"))
    assignment = simplicial.json_field(blob, "assignment", "map")
    if not isinstance(assignment, dict):
        raise MalformedInput(f"map 'assignment' is not a JSON object: {assignment!r}")
    phi = simplicial.VertexMap(source, Khat, {v: simplicial.json_label(w, "map target")
                                              for v, w in assignment.items()})
    problems = []
    if not phi.is_simplicial():
        problems.append("map is not simplicial")
    if not phi.is_surjective():
        problems.append("map is not surjective onto the contracted complex")
    if not phi.is_order_compatible():
        problems.append("vertex order violates the preimage-block contract")
    links_ok = True
    if not problems:
        fibers = [phi.fiber(w) for w in Khat.vertices]
        _, _, links_ok = constructions.contract_edges(
            source, [(f[0], v) for f in fibers for v in f[1:]])
    out = {
        "valid": not problems,
        "problems": problems,
        "link_condition": links_ok,
        "complex": simplicial.complex_to_json(source),
    }
    if args.classes and not problems:
        ring = Ring.parse(args.ring)
        pulled = []
        for cls in _classes(args.classes, Khat, ring):
            a = constructions.pullback_class(phi, cls.representative)
            H = cochains.reduced_cohomology(source, a.J, ring)
            pulled.append({
                "cochain": cochains.cochain_to_json(a),
                "is_zero_class": H.is_coboundary(a),
            })
        out["pullbacks"] = pulled
    _emit(out, args.out)


def _parse_pairs(arg: str):
    pairs = []
    for chunk in arg.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        pair = chunk.split(",")
        if len(pair) != 2:
            raise DomainError(f"--pairs chunk {chunk!r} is not one pair i,k")
        pairs.append(tuple(parse_int(x, "--pairs index") for x in pair))
    return pairs


def cmd_nestohedron(args):
    if args.dim < 0:
        raise DomainError(f"--dim {args.dim} is negative")
    if args.kind == "cube_truncation":
        K = nestohedra.cube_truncation(args.dim, _parse_pairs(args.pairs or ""))
    elif args.pairs is not None:
        raise DomainError(f"--pairs {args.pairs!r} applies only to --kind cube_truncation")
    else:
        K = nestohedra.standard_polytope_complex(args.kind, args.dim)
    _emit(simplicial.complex_to_json(K), args.out)


def cmd_nested_set(args):
    B = nestohedra.BuildingSet.from_json(_load(args.input))
    K = nestohedra.nested_set_complex(B)
    _emit(simplicial.complex_to_json(K), args.out)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matk",
        description="Moment-angle complex toolkit: exact cohomology rings, "
                    "Massey products, and the constructions that generate them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write the JSON result to this path")
        return p

    p = add("build", cmd_build, help="validate and canonicalize a complex")
    p.add_argument("input")

    p = add("subcomplex", cmd_subcomplex, help="full subcomplex on given vertices")
    p.add_argument("input")
    p.add_argument("--vertices", required=True)

    p = add("homology", cmd_homology, help="reduced cohomology groups of K_J")
    p.add_argument("input")
    p.add_argument("--ring", default="Z")
    p.add_argument("--J", help="comma-separated vertex subset; whole complex if omitted")

    p = add("hochster", cmd_hochster, help="bigraded decomposition of H*(Z_K)")
    p.add_argument("input")
    p.add_argument("--ring", default="Z")
    p.add_argument("--cap", type=int, default=24)

    p = add("zk-oracle", cmd_zk_oracle, help="cohomology of Z_K from its cell model")
    p.add_argument("input")
    p.add_argument("--ring", default="Z")
    p.add_argument("--cap", type=int, default=12)

    p = add("product", cmd_product, help="product of two classes")
    p.add_argument("input")
    p.add_argument("--classes", required=True)
    p.add_argument("--ring", default="Z")

    p = add("massey", cmd_massey, help="decide a Massey product")
    p.add_argument("input")
    p.add_argument("--classes", required=True, help="JSON list of the classes, in order")
    p.add_argument("--ring", default="Z", help="Z, Q or F<p>; four or more classes need F<p>")
    p.add_argument("--order", type=int, help="the number of classes the file must hold")
    p.add_argument("--budget", type=int, default=20,
                   help="cap on the class-basis parameters of the enumerated stages, the "
                        "exponent of the branch count p^(sum of their dim H^p) (triple "
                        "products enumerate none); above it contains_zero is null. It "
                        "bounds the branch count only, not the work inside a branch: "
                        "some fourfold products within it took 9-23 s on 2 vCPUs")

    p = add("construct-join", cmd_construct_join,
            help="build a complex with a non-trivial product by star deletions")
    p.add_argument("spec")
    p.add_argument("--certify", action="store_true")

    p = add("contract", cmd_contract, help="contract one edge")
    p.add_argument("input")
    p.add_argument("--edge", required=True)
    p.add_argument("--label")
    p.add_argument("--require-link-condition", action="store_true")

    p = add("stretch", cmd_stretch,
            help="verify an inverse contraction and pull classes back")
    p.add_argument("input")
    p.add_argument("--map", required=True)
    p.add_argument("--classes")
    p.add_argument("--ring", default="Z")

    p = add("nestohedron", cmd_nestohedron, help="dual boundary complex of a nestohedron")
    p.add_argument("--kind", required=True,
                   choices=["permutahedron", "stellohedron", "cube_truncation"])
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--pairs", help='truncation pairs "i,k;i,k" for cube_truncation')

    p = add("nested-set", cmd_nested_set, help="nested set complex of a building set")
    p.add_argument("input")

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        try:
            if args.out and not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
                raise OutputDirectoryMissing(f"no directory for --out {args.out!r}")
            args.fn(args)
            code = 0
        except BrokenPipeError:
            raise
        except (MatkError, OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
            _emit({"error": {"type": type(err).__name__, "message": str(err)}}, None)
            code = 1
        except Exception:
            import traceback  # only here: an internal fault is the rare path

            traceback.print_exc()
            code = 3
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout is gone (say `| head`); the interpreter's
        # last flush of what is still buffered goes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("matk: stdout was closed before the output was written", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
