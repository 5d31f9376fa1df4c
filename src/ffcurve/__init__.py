"""Coherent-sheaf slope algebra on the Fargues-Fontaine curve.

The exported names load on first access (PEP 562): ``import ffcurve`` runs
no engine module, and ``ffcurve.chi`` imports ``ffcurve.sheaves`` and
returns its ``chi``.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOMES = {
    **dict.fromkeys(("INFINITY", "Slope", "hom_slope_data", "reduce"), "slopes"),
    **dict.fromkeys((
        "BCInvariant", "CoherentSheaf", "O", "T", "TiltedObject", "chi", "direct_sum",
        "ext1", "ext2", "h0", "h1", "hn", "hom", "k0_class", "normalize",
    ), "sheaves"),
    **dict.fromkeys((
        "double_tilt", "hn_minus", "hom_tilted", "ext1_tilted", "tilt", "tilted_invariants",
    ), "tilting"),
    **dict.fromkeys(("breen_tables", "dim_ht", "effective_presentation", "r0tau"), "bc"),
    **dict.fromkeys(("parse_object", "parse_poly", "parse_sheaf"), "parser"),
    "ParseError": "errors",
}

__all__ = sorted(_HOMES)


def __getattr__(name):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + home, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
