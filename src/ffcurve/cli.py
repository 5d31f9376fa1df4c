"""Command-line front end.

Each verb wraps one library operation.  Results print as short text
tables by default; ``--json`` switches every verb to a versioned JSON
envelope (``schema`` field), and ``hn --svg out.svg`` additionally
writes the HN polygon as a standalone SVG file.

The module itself loads no library module but ``errors``: each verb imports
the modules it runs, and no verb loads ``dataclasses`` or ``inspect``. With no
bytecode cache, a cold ``ffcurve <verb>`` compiles everything it imports afresh,
so a call pays only for its own verb. ``main`` builds, from the one verb table
``_VERBS``, the subparser of the verb that argv starts with and no other; help,
an unknown verb or a leading option get all of them. Sheaf verbs load no
``polyring``, and chi, k0, hn, hom, ext1, ext2, tilt, untilt, bc, present and
info on a sheaf no ``fractions``: slopes compare and subtract by integer
products, and only hnminus and tilted info build Fractions (mu- values).
``json`` loads only to print a ``--json`` envelope.

Exit codes: 0 on success, 2 for malformed expressions or usage errors,
1 for well-formed input that the operation rejects (wrong object kind,
zero object, out-of-range integers, work over a named budget),
a certificate that fails to verify, or an output file that cannot be written.
"""

import argparse
import sys
from functools import partial

from .errors import CertificateError, ParseError

SCHEMA = "ffcurve/1"


class UsageError(Exception):
    """Argument combinations the grammar allows but the verb does not."""


# --------------------------------------------------------------- small format


def _emit(args, command: str, lines, payload: dict) -> None:
    if args.json:
        import json
        envelope = {"schema": SCHEMA, "command": command}
        envelope.update(payload)
        print(json.dumps(envelope, indent=2, sort_keys=False))
    else:
        print("\n".join(lines))


def _mu_str(mu) -> str:
    # a Fraction, or MU_MINUS_INFINITY, which prints as -inf
    return str(mu)


def _require(x, verb: str, tilted: bool = False):
    """x, if it is a tilted object exactly when the verb asks for one."""
    from .sheaves import TiltedObject
    if isinstance(x, TiltedObject) != tilted:
        kinds = ("a coherent sheaf", "a tilted object")
        raise ValueError("%s expects %s, got %s" % (verb, kinds[tilted], kinds[not tilted]))
    return x


def _pair(v) -> dict:
    return {"dim": v.dim, "ht": v.ht}


def _svg_polygon(vertices) -> str:
    scale, pad = 48, 1
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    lox, hix = min(xs + [0]) - pad, max(xs) + pad
    loy, hiy = min(ys + [0]) - pad, max(ys) + pad
    width = (hix - lox) * scale
    height = (hiy - loy) * scale

    def px(x):
        return (x - lox) * scale

    def py(y):
        # SVG y grows downward; degree grows upward
        return (hiy - y) * scale

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#bbb"/>'
        % (px(lox), py(0), px(hix), py(0)),
        '<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#bbb"/>'
        % (px(0), py(loy), px(0), py(hiy)),
        '<polyline points="%s" fill="none" stroke="black" stroke-width="2"/>'
        % " ".join("%g,%g" % (px(x), py(y)) for x, y in vertices),
    ]
    for x, y in vertices:
        parts.append('<circle cx="%g" cy="%g" r="3"/>' % (px(x), py(y)))
    parts.append("</svg>")
    return "\n".join(parts)


# ---------------------------------------------------------------------- verbs


def cmd_info(args) -> None:
    from .parser import parse_object
    from .sheaves import TiltedObject
    x = parse_object(args.object)
    if isinstance(x, TiltedObject):
        _info_tilted(args, x)
    else:
        _info_sheaf(args, x)


def _info_sheaf(args, F) -> None:
    from . import bc, sheaves, tilting
    rank, degree, mu = sheaves.numeric_invariants(F)
    pieces = [] if F.is_zero else [
        {"slope": str(s), "object": str(p)} for s, p in sheaves.hn(F)
    ]
    c, h0, h1 = sheaves.chi(F), sheaves.h0(F), sheaves.h1(F)
    a, b = sheaves.k0_class(F)
    dh = bc.dim_ht(tilting.tilt(F))
    payload = {
        "object": str(F),
        "kind": "sheaf",
        "invariants": {
            "rank": rank,
            "degree": degree,
            "slope": None if mu is None else str(mu),
        },
        "chi": [c.dim, c.ht],
        "h0": [h0.dim, h0.ht],
        "h1": [h1.dim, h1.ht],
        "k0": {"a": a, "b": b},
        "bc": _pair(dh),
        "pieces": pieces,
    }
    lines = [
        "object: %s" % F,
        "kind: sheaf",
        "rank: %d" % rank,
        "degree: %d" % degree,
        "slope: %s" % ("-" if mu is None else mu),
        "chi: %s   h0: %s   h1: %s" % (c, h0, h1),
        "k0: %d*[O] + %d*[O(1)]" % (a, b),
        "bc dim/ht: %s" % (dh,),
    ]
    if pieces:
        lines.append("hn pieces:")
        lines.extend("  %-6s %s" % (p["slope"], p["object"]) for p in pieces)
    _emit(args, "info", lines, payload)


def _info_tilted(args, A) -> None:
    from fractions import Fraction
    from . import bc, tilting
    rank, degree = A.rank, A.degree
    if A.is_zero:
        slope = None
        tilted_block = None
        pieces = []
    else:
        slope = "inf" if rank == 0 else str(Fraction(degree, rank))
        dm, rm, mu = tilting.tilted_invariants(A)
        tilted_block = {"deg_minus": dm, "rg_minus": rm, "mu_minus": _mu_str(mu)}
        pieces = [
            {"mu": _mu_str(m), "object": str(p)} for m, p in tilting.hn_minus(A)
        ]
    a, b = A.k0_class()
    dh = bc.dim_ht(A)
    payload = {
        "object": str(A),
        "kind": "tilted",
        "invariants": {"rank": rank, "degree": degree, "slope": slope},
        "tilted": tilted_block,
        "k0": {"a": a, "b": b},
        "bc": _pair(dh),
        "pieces": pieces,
    }
    lines = [
        "object: %s" % A,
        "kind: tilted",
        "rank: %d" % rank,
        "degree: %d" % degree,
        "k0: %d*[O] + %d*[O(1)]" % (a, b),
        "bc dim/ht: %s" % (dh,),
    ]
    if tilted_block is not None:
        lines.insert(4, "deg-: %d   rg-: %d   mu-: %s"
                     % (tilted_block["deg_minus"], tilted_block["rg_minus"],
                        tilted_block["mu_minus"]))
    if pieces:
        lines.append("hn- pieces:")
        lines.extend("  %-6s %s" % (p["mu"], p["object"]) for p in pieces)
    _emit(args, "info", lines, payload)


def cmd_hn(args) -> None:
    from . import sheaves
    from .parser import parse_object
    F = _require(parse_object(args.object), "hn")
    pieces = sheaves.hn(F)
    vertices = [(0, 0)]
    rows = []
    for s, p in pieces:
        x, y = vertices[-1]
        vertices.append((x + p.rank, y + p.degree))
        rows.append({"slope": str(s), "object": str(p), "vector": [p.rank, p.degree]})
    payload = {
        "object": str(F),
        "pieces": rows,
        "vertices": [list(v) for v in vertices],
    }
    lines = ["object: %s" % F, "hn pieces:"]
    lines.extend("  %-6s %s" % (r["slope"], r["object"]) for r in rows)
    lines.append("vertices: " + " ".join("(%d,%d)" % v for v in vertices))
    if args.svg is not None:
        try:
            with open(args.svg, "w") as fh:
                fh.write(_svg_polygon(vertices))
        except OSError as exc:
            raise ValueError("cannot write %r: %s" % (args.svg, exc.strerror)) from exc
        payload["svg"] = args.svg
        lines.append("wrote %s" % args.svg)
    _emit(args, "hn", lines, payload)


def _binary_verb(args, name: str) -> None:
    from . import sheaves
    from .parser import parse_object
    F = _require(parse_object(args.first), name)
    G = _require(parse_object(args.second), name)
    v = getattr(sheaves, name)(F, G)
    _emit(args, name, ["%s" % (v,)], _pair(v))


def cmd_chi(args) -> None:
    from . import sheaves
    from .parser import parse_object
    F = _require(parse_object(args.object), "chi")
    v = sheaves.chi(F)
    _emit(args, "chi", ["%s" % (v,)], _pair(v))


def cmd_k0(args) -> None:
    from . import sheaves
    from .parser import parse_object
    x = parse_object(args.object)
    a, b = x.k0_class() if isinstance(x, sheaves.TiltedObject) else sheaves.k0_class(x)
    _emit(args, "k0", ["%d*[O] + %d*[O(1)]" % (a, b)], {"a": a, "b": b})


def cmd_tilt(args) -> None:
    from . import tilting
    from .parser import parse_object
    F = _require(parse_object(args.object), "tilt")
    A = tilting.tilt(F)
    _emit(args, "tilt", [str(A)], {"object": str(F), "tilted": str(A)})


def cmd_untilt(args) -> None:
    from . import tilting
    from .parser import parse_object
    A = _require(parse_object(args.object), "untilt", True)
    F = tilting.double_tilt(A)
    _emit(args, "untilt", [str(F)], {"object": str(A), "sheaf": str(F)})


def cmd_hnminus(args) -> None:
    from . import tilting
    from .parser import parse_object
    A = tilting._as_heart(parse_object(args.object))
    rows = [
        {"mu": _mu_str(m), "object": str(p)} for m, p in tilting.hn_minus(A)
    ]
    lines = ["object: %s" % A, "hn- pieces:"]
    lines.extend("  %-6s %s" % (r["mu"], r["object"]) for r in rows)
    _emit(args, "hnminus", lines, {"object": str(A), "pieces": rows})


def cmd_bc(args) -> None:
    from . import bc
    from .parser import parse_object
    x = parse_object(args.object)
    desc = bc.r0tau(x)
    inv = desc.invariant
    lines = ["object: %s" % x, "descriptor: %s" % desc, "dim/ht: %s" % (inv,)]
    _emit(args, "bc", lines, {"object": str(x), "descriptor": desc.to_json()})


def cmd_present(args) -> None:
    from . import bc
    from .parser import parse_object
    x = parse_object(args.object)
    cert = bc.effective_presentation(x)
    payload = {
        "target": str(cert.target),
        "kernel_rank": cert.a,
        "middle": str(cert.middle),
        "presentation": str(cert.final),
        "steps": len(cert.steps),
        "levels": [[label, h] for label, h in cert.levels],
        "valid": True,
    }
    lines = [
        "%s" % cert.final,
        "kernel rank: %d" % cert.a,
        "middle: %s" % cert.middle,
        "splice steps: %d" % len(cert.steps),
    ]
    _emit(args, "present", lines, payload)


def cmd_breen(args) -> None:
    from . import bc
    tables = bc.breen_tables()
    labels = list(tables["labels"])
    payload = {"labels": labels}
    lines = []
    for key in ("hom", "ext1", "ext2"):
        payload[key] = [[[v.dim, v.ht] for v in row] for row in tables[key]]
        lines.append("%s:" % key)
        for i, row in enumerate(tables[key]):
            for j, v in enumerate(row):
                lines.append("  %s -> %s: %s" % (labels[i], labels[j], v))
    _emit(args, "breen", lines, payload)


def _parse_elements(texts):
    from .parser import parse_poly
    return [parse_poly(t) for t in texts]


def _cohomology_payload(H) -> dict:
    return {
        str(j): {"rank": r, "torsion": [str(t) for t in factors]}
        for j, (r, factors) in sorted(H.items())
    }


def _cohomology_lines(H):
    out = []
    for j, (r, factors) in sorted(H.items()):
        tail = ", torsion [%s]" % ", ".join(str(t) for t in factors) if factors else ""
        out.append("H^%d: rank %d%s" % (j, r, tail))
    return out


def cmd_koszul(args) -> None:
    from .complexes import complex_to_json, koszul
    from .exactalg import POLY_OVER_RATIONALS
    elems = _parse_elements(args.elements)
    K = koszul(POLY_OVER_RATIONALS, elems)
    payload = {"elements": [str(g) for g in elems], "complex": complex_to_json(K)}
    lines = [
        "koszul complex on %s" % ", ".join(str(g) for g in elems),
        "degrees %d..%d" % (K.lowest, K.highest),
        "ranks: %s" % " ".join(str(r) for r in K.ranks),
    ]
    _emit(args, "koszul", lines, payload)


def cmd_cohom(args) -> None:
    from .complexes import koszul_cohomology
    from .exactalg import POLY_OVER_RATIONALS
    elems = _parse_elements(args.elements)
    H = koszul_cohomology(POLY_OVER_RATIONALS, elems)
    payload = {"elements": [str(g) for g in elems], "H": _cohomology_payload(H)}
    _emit(args, "cohom", _cohomology_lines(H), payload)


def cmd_eta(args) -> None:
    from .complexes import complex_to_json, koszul_cohomology, koszul_decalage
    from .exactalg import POLY_OVER_RATIONALS
    from .parser import parse_poly
    f = parse_poly(args.f)
    if f.is_zero:
        raise ValueError("the decalage scale must be nonzero")
    elems = _parse_elements(args.elements)
    E = koszul_decalage(POLY_OVER_RATIONALS, f, elems)
    # E is, up to a signed reordering of bases, the Koszul complex on d_0 = (0, ..., 0, -h)
    H = koszul_cohomology(POLY_OVER_RATIONALS, [row[0] for row in E.differentials[0].data])
    payload = {
        "f": str(f),
        "elements": [str(g) for g in elems],
        "complex": complex_to_json(E),
        "cohomology": _cohomology_payload(H),
    }
    lines = [
        "eta_%s of the koszul complex on %s" % (f, ", ".join(str(g) for g in elems)),
        "ranks: %s" % " ".join(str(r) for r in E.ranks),
    ]
    lines.extend(_cohomology_lines(H))
    _emit(args, "eta", lines, payload)


def cmd_derham(args) -> None:
    from . import derham
    n, D = args.n, args.trunc
    qp = derham.qp_cohomology(n, D)
    ga = derham.ga_cohomology(n, D)
    payload = {
        "n": n,
        "trunc": D,
        "ga": {str(i): {str(e): v for e, v in row.items()} for i, row in ga.items()},
        "qp": {
            "table": {
                str(i): {str(w): v for w, v in row.items()}
                for i, row in qp.table.items()
            },
            "boundary": sorted([i, w] for i, w in qp.boundary),
        },
    }
    lines = ["n = %d, truncation %d" % (n, D), "additive cohomology (degree: dim):"]
    for i, row in sorted(ga.items()):
        body = " ".join("%d:%d" % (e, v) for e, v in sorted(row.items()))
        lines.append("  H^%d  %s" % (i, body))
    lines.append("integral strand kernels (weight: dim):")
    for i, row in sorted(qp.table.items()):
        body = " ".join("%d:%d" % (w, v) for w, v in sorted(row.items()))
        lines.append("  i=%d  %s" % (i, body))
    if qp.boundary:
        lines.append(
            "frontier (certified at truncation): "
            + " ".join("(%d,%d)" % t for t in sorted(qp.boundary))
        )
    _emit(args, "derham", lines, payload)


def cmd_cocycle(args) -> None:
    if args.report and args.q is not None:
        raise UsageError("pass either a degree or --report, not both")
    if not args.report and args.q is None:
        raise UsageError("cocycle needs a degree or --report")
    if not args.report and args.trunc is not None:
        raise UsageError("--trunc applies only with --report")
    from . import cocycles
    if args.report:
        bounds = () if args.trunc is None else (args.trunc, args.trunc)
        report = cocycles.hom_column_checks(*bounds)
        poly, consts, mahler = (
            report["poly_kernel"], report["constants"], report["mahler_middle"]
        )
        lines = [
            "arity-1 kernel (degree <= %d): dim %d, basis %s"
            % (poly["degree_bound"], poly["dim"], ", ".join(poly["basis"])),
            "constants pull back to %s (injective: %s)"
            % (consts["image_of_unit"], consts["injective"]),
            "mahler middle homology (degree <= %d): %s"
            % (mahler["degree_bound"], mahler["homology_dims"]),
            "ok: %s" % report["ok"],
        ]
        _emit(args, "cocycle", lines, report)
        return
    rep = cocycles.symmetric_2cocycle_report(args.q)
    payload = {
        "q": rep["q"],
        "cocycle_dim": rep["cocycle_dim"],
        "coboundary_dim": rep["coboundary_dim"],
        "quotient_dim": rep["quotient_dim"],
        "basis": [str(b) for b in rep["cocycle_basis"]],
    }
    lines = [
        "degree %d symmetric 2-cocycles: dim %d" % (rep["q"], rep["cocycle_dim"]),
        "coboundaries: dim %d" % rep["coboundary_dim"],
        "quotient: dim %d" % rep["quotient_dim"],
    ]
    lines.extend("  basis: %s" % b for b in payload["basis"])
    _emit(args, "cocycle", lines, payload)


# ------------------------------------------------------------------- dispatch


def _arg(*names, **options):
    return names, options


_OBJECT = (_arg("object"),)
_PAIR = (_arg("first"), _arg("second"))
_ELEMENTS = (_arg("elements", nargs="+"),)

#: name, handler, help and arguments of each verb, in the order of the usage line
_VERBS = (
    ("info", cmd_info, "full invariant report for one object", _OBJECT),
    ("hn", cmd_hn, "HN pieces and polygon of a sheaf",
     _OBJECT + (_arg("--svg", metavar="FILE", help="write the polygon as SVG"),)),
    ("hom", partial(_binary_verb, name="hom"), "hom invariant of two sheaves", _PAIR),
    ("ext1", partial(_binary_verb, name="ext1"), "ext^1 invariant of two sheaves", _PAIR),
    ("ext2", partial(_binary_verb, name="ext2"), "ext^2 invariant of two sheaves", _PAIR),
    ("chi", cmd_chi, "Euler characteristic (degree, rank)", _OBJECT),
    ("k0", cmd_k0, "class in K_0 on the basis [O], [O(1)]", _OBJECT),
    ("tilt", cmd_tilt, "move a sheaf into the tilted heart", _OBJECT),
    ("untilt", cmd_untilt, "recover the sheaf under a double tilt", _OBJECT),
    ("hnminus", cmd_hnminus, "tilted-slope HN pieces", _OBJECT),
    ("bc", cmd_bc, "vector-group descriptor of a heart object", _OBJECT),
    ("present", cmd_present, "two-term slope-[0,1] presentation", _OBJECT),
    ("breen", cmd_breen, "hom/ext tables for the two group generators", ()),
    ("koszul", cmd_koszul, "Koszul complex on polynomials in t", _ELEMENTS),
    ("cohom", cmd_cohom, "cohomology of that Koszul complex", _ELEMENTS),
    ("eta", cmd_eta, "decalage of a Koszul complex along f", (_arg("f"),) + _ELEMENTS),
    ("derham", cmd_derham, "graded de Rham tables in n variables",
     (_arg("n", type=int), _arg("--trunc", type=int, default=6, metavar="D"))),
    ("cocycle", cmd_cocycle, "symmetric 2-cocycle space by degree", (
        _arg("q", nargs="?", type=int, default=None),
        _arg("--report", action="store_true", help="run the resolution column checks instead"),
        _arg("--trunc", type=int, default=None, metavar="D"),
    )),
)


def _build_parser(verbs, only=None) -> argparse.ArgumentParser:
    """The parser over the verb table: with only one of its verbs, that
    verb's subparser alone, else all of them. The one-verb usage line must
    still list every verb, as "unrecognized arguments" prints it, so its
    metavar writes the braces that argparse writes for the full build. The
    full build sets none: a metavar would also name the verb argument in its
    "invalid choice" and "required" errors."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit JSON")

    parser = argparse.ArgumentParser(
        prog="ffcurve",
        description="coherent sheaves on the curve: slopes, tilts, descriptors",
    )
    names = [verb[0] for verb in verbs]
    if only in names:
        sub = parser.add_subparsers(dest="verb", required=True,
                                    metavar="{%s}" % ",".join(names))
        verbs = [verbs[names.index(only)]]
    else:
        sub = parser.add_subparsers(dest="verb", required=True)
    for name, func, help_text, arguments in verbs:
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser(_VERBS, argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        args.func(args)
    except (ParseError, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, CertificateError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
