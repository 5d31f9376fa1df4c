"""Command-line front end.

Each verb wraps one library operation and returns ``(lines, payload)``: its
result as short text lines and as a JSON payload. Verbs print nothing; ``main``
prints the lines by default, or with ``--json`` the payload inside a versioned
envelope (``schema``, and the verb as ``command``). ``hn --svg out.svg``
additionally writes the HN polygon as a standalone SVG file.

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

from .errors import CertificateError, ParseError

SCHEMA = "ffcurve/1"


class UsageError(Exception):
    """Argument combinations the grammar allows but the verb does not."""


# --------------------------------------------------------------- small format


def _mu_str(mu) -> str:
    # a Slope, a Fraction, or MU_MINUS_INFINITY, which prints as -inf
    return str(mu)


def _object(args, text: str, tilted=None):
    """The object text names; with tilted given, refused unless it is a tilted
    object exactly when tilted is true."""
    from .parser import parse_object
    from .sheaves import TiltedObject
    x = parse_object(text)
    if tilted is not None and isinstance(x, TiltedObject) != tilted:
        kinds = ("a coherent sheaf", "a tilted object")
        raise ValueError("%s expects %s, got %s" % (args.verb, kinds[tilted], kinds[not tilted]))
    return x


def _pair(v) -> dict:
    return {"dim": v.dim, "ht": v.ht}


def _k0(x):
    """a, b and the text of x's class a*[O] + b*[O(1)] in K_0, x a sheaf or a heart object."""
    from .sheaves import TiltedObject, k0_class
    a, b = x.k0_class() if isinstance(x, TiltedObject) else k0_class(x)
    return a, b, "%d*[O] + %d*[O(1)]" % (a, b)


def _pieces(key: str, pairs):
    """The HN pieces (slope or mu-, piece) as payload rows {key, object} and as text lines."""
    rows = [{key: _mu_str(m), "object": str(p)} for m, p in pairs]
    return rows, ["  %-6s %s" % (r[key], r["object"]) for r in rows]


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


def cmd_info(args):
    """Both readings of one object. Its kind supplies the middle lines and the
    HN filtration listed: slope and chi/h0/h1 and the HN pieces of a sheaf,
    deg-/rg-/mu- and the hn- pieces of a heart object."""
    from . import bc, sheaves, tilting
    x = _object(args, args.object)
    if isinstance(x, sheaves.TiltedObject):
        kind, key, hn, title = "tilted", "mu", tilting.hn_minus, "hn- pieces:"
        slope, middle, block = None, [], None
        if not x.is_zero:
            from fractions import Fraction
            slope = "inf" if x.rank == 0 else str(Fraction(x.degree, x.rank))
            dm, rm, mu = tilting.tilted_invariants(x)
            block = {"deg_minus": dm, "rg_minus": rm, "mu_minus": _mu_str(mu)}
            middle = ["deg-: %d   rg-: %d   mu-: %s" % (dm, rm, block["mu_minus"])]
        fields = {"tilted": block}
    else:
        kind, key, hn, title = "sheaf", "slope", sheaves.hn, "hn pieces:"
        mu = sheaves.numeric_invariants(x)[2]
        slope = None if mu is None else str(mu)
        c, h0, h1 = sheaves.chi(x), sheaves.h0(x), sheaves.h1(x)
        middle = ["slope: %s" % (slope or "-"), "chi: %s   h0: %s   h1: %s" % (c, h0, h1)]
        fields = {"chi": list(c), "h0": list(h0), "h1": list(h1)}
    a, b, k0 = _k0(x)
    dh = bc.dim_ht(x)
    rows, text = _pieces(key, [] if x.is_zero else hn(x))
    payload = {
        "object": str(x),
        "kind": kind,
        "invariants": {"rank": x.rank, "degree": x.degree, "slope": slope},
        **fields,
        "k0": {"a": a, "b": b},
        "bc": _pair(dh),
        "pieces": rows,
    }
    lines = ["object: %s" % x, "kind: " + kind, "rank: %d" % x.rank, "degree: %d" % x.degree,
             *middle, "k0: " + k0, "bc dim/ht: %s" % (dh,)]
    if rows:
        lines += [title, *text]
    return lines, payload


def cmd_hn(args):
    from . import sheaves
    F = _object(args, args.object, False)
    pieces = sheaves.hn(F)
    rows, text = _pieces("slope", pieces)
    vertices = [(0, 0)]
    for row, (_, p) in zip(rows, pieces):
        row["vector"] = [p.rank, p.degree]
        x, y = vertices[-1]
        vertices.append((x + p.rank, y + p.degree))
    payload = {
        "object": str(F),
        "pieces": rows,
        "vertices": [list(v) for v in vertices],
    }
    lines = ["object: %s" % F, "hn pieces:", *text,
             "vertices: " + " ".join("(%d,%d)" % v for v in vertices)]
    if args.svg is not None:
        try:
            with open(args.svg, "w") as fh:
                fh.write(_svg_polygon(vertices))
        except OSError as exc:
            raise ValueError("cannot write %r: %s" % (args.svg, exc.strerror)) from exc
        payload["svg"] = args.svg
        lines.append("wrote %s" % args.svg)
    return lines, payload


def _binary_verb(args):
    from . import sheaves
    F, G = _object(args, args.first, False), _object(args, args.second, False)
    v = getattr(sheaves, args.verb)(F, G)
    return ["%s" % (v,)], _pair(v)


def cmd_chi(args):
    from . import sheaves
    v = sheaves.chi(_object(args, args.object, False))
    return ["%s" % (v,)], _pair(v)


def cmd_k0(args):
    a, b, text = _k0(_object(args, args.object))
    return [text], {"a": a, "b": b}


def cmd_tilt(args):
    from . import tilting
    F = _object(args, args.object, False)
    A = tilting.tilt(F)
    return [str(A)], {"object": str(F), "tilted": str(A)}


def cmd_untilt(args):
    from . import tilting
    A = _object(args, args.object, True)
    F = tilting.double_tilt(A)
    return [str(F)], {"object": str(A), "sheaf": str(F)}


def cmd_hnminus(args):
    from . import tilting
    A = tilting._as_heart(_object(args, args.object))
    rows, text = _pieces("mu", tilting.hn_minus(A))
    return ["object: %s" % A, "hn- pieces:", *text], {"object": str(A), "pieces": rows}


def cmd_bc(args):
    from . import bc
    x = _object(args, args.object)
    desc = bc.r0tau(x)
    inv = desc.invariant
    lines = ["object: %s" % x, "descriptor: %s" % desc, "dim/ht: %s" % (inv,)]
    return lines, {"object": str(x), "descriptor": desc.to_json()}


def cmd_present(args):
    from . import bc
    cert = bc.effective_presentation(_object(args, args.object))
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
    return lines, payload


def cmd_breen(args):
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
    return lines, payload


def _parse_elements(texts):
    from .parser import parse_poly
    return [parse_poly(t) for t in texts]


def _cohomology(H):
    """H^j as payload rows {j: {rank, torsion}} and as text lines."""
    rows = {str(j): {"rank": r, "torsion": [str(t) for t in factors]}
            for j, (r, factors) in sorted(H.items())}
    lines = []
    for j, r in rows.items():
        tail = ", torsion [%s]" % ", ".join(r["torsion"]) if r["torsion"] else ""
        lines.append("H^%s: rank %d%s" % (j, r["rank"], tail))
    return rows, lines


def cmd_koszul(args):
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
    return lines, payload


def cmd_cohom(args):
    from .complexes import koszul_cohomology
    from .exactalg import POLY_OVER_RATIONALS
    elems = _parse_elements(args.elements)
    rows, lines = _cohomology(koszul_cohomology(POLY_OVER_RATIONALS, elems))
    return lines, {"elements": [str(g) for g in elems], "H": rows}


def cmd_eta(args):
    from .complexes import _scale, complex_to_json, koszul_cohomology, koszul_decalage
    from .exactalg import POLY_OVER_RATIONALS
    from .parser import parse_poly
    f = _scale(POLY_OVER_RATIONALS, parse_poly(args.f))
    elems = _parse_elements(args.elements)
    E = koszul_decalage(POLY_OVER_RATIONALS, f, elems)
    # E is, up to a signed reordering of bases, the Koszul complex on d_0 = (0, ..., 0, -h)
    d0 = [row[0] for row in E.differentials[0].data]
    rows, h_lines = _cohomology(koszul_cohomology(POLY_OVER_RATIONALS, d0))
    payload = {
        "f": str(f),
        "elements": [str(g) for g in elems],
        "complex": complex_to_json(E),
        "cohomology": rows,
    }
    lines = [
        "eta_%s of the koszul complex on %s" % (f, ", ".join(str(g) for g in elems)),
        "ranks: %s" % " ".join(str(r) for r in E.ranks),
    ]
    return lines + h_lines, payload


def cmd_derham(args):
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
    return lines, payload


def cmd_cocycle(args):
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
        return lines, report
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
    return lines, payload


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
    ("hom", _binary_verb, "hom invariant of two sheaves", _PAIR),
    ("ext1", _binary_verb, "ext^1 invariant of two sheaves", _PAIR),
    ("ext2", _binary_verb, "ext^2 invariant of two sheaves", _PAIR),
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
        lines, payload = args.func(args)
        if args.json:
            import json
            print(json.dumps({"schema": SCHEMA, "command": args.verb, **payload}, indent=2))
        else:
            print("\n".join(lines))
    except (ParseError, UsageError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ValueError, CertificateError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
