"""Out-of-program tracing for the benchmark.

The tracer replaces every public function of every ffcurve module with a
wrapper, at every module attribute where the function is bound (so
``complexes.smith_normal_form`` is wrapped as well as
``exactalg.smith_normal_form``).  Calls between library functions then go
through the wrappers, nested calls become child spans, and a layer's self
time is its span time minus the time of its children.  Nothing under
``src/`` is modified; ``uninstall`` restores the original bindings, so
untraced passes run the unmodified program.

A few functions also carry a counter hook that reads their arguments and
result after the span has closed; hook time is charged to no layer.

Harness time is measured on its own: the time of each operation that no
top-level span covers (the workload's glue code, methods of library classes
called from it, the hooks of top-level spans) plus the hooks run inside
spans.  Layer self times plus harness time then add up to the operation
time whenever every span was closed, which the benchmark checks.
"""

from __future__ import annotations

import sys
import types
from collections import defaultdict
from time import perf_counter

MODULES = (
    "ffcurve",
    "ffcurve.slopes",
    "ffcurve.polyring",
    "ffcurve.sheaves",
    "ffcurve.tilting",
    "ffcurve.bc",
    "ffcurve.parser",
    "ffcurve.exactalg",
    "ffcurve.complexes",
    "ffcurve.derham",
    "ffcurve.cocycles",
    "ffcurve.cli",
)

# slopes is reached only through sheaves' normal forms, and Poly arithmetic
# only through the exact linear algebra, so each is reported with its caller.
FOLDED = {"slopes": "sheaves", "polyring": "exactalg"}

# in-process layers; the cli layer runs in child processes, and the benchmark
# charges their wall time to it through ``external``
LAYERS = (
    "parser",
    "sheaves",
    "tilting",
    "bc",
    "exactalg",
    "complexes",
    "derham",
    "cocycles",
)

# private helpers whose arguments or results feed a counter; they get a
# hook but no span, so their time stays with the calling public function
COUNTED_PRIVATE = {
    ("ffcurve.cocycles", "_rref"),
    ("ffcurve.cocycles", "_kernel_basis"),
}

DOMAIN_TAGS = {"INTEGERS": "Z", "RATIONALS": "Q", "POLY_OVER_RATIONALS": "Qt"}

# raw inputs of parser.chars_per_s, not reported themselves
PARSER_RAW = ("parser.chars", "parser.parse_s")


def bits(x) -> int:
    """Size in bits of an exact scalar: int, Fraction or Poly."""
    if isinstance(x, int):
        return abs(x).bit_length()
    coeffs = getattr(x, "coeffs", None)
    if coeffs is not None:
        return max((bits(c) for c in coeffs), default=0)
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def _max_bits(matrices) -> int:
    return max((bits(x) for M in matrices for row in M.data for x in row), default=0)


def _hook_snf(tr, args, result, dt):
    dom, A = args[0], args[1]
    tr.counts["exactalg.snf_calls"] += 1
    tr.counts["exactalg.snf_entries"] += A.rows * A.cols
    tr.times["exactalg.snf_s." + DOMAIN_TAGS[dom.name]] += dt
    tr.maxima["exactalg.max_transform_bits"] = max(
        tr.maxima["exactalg.max_transform_bits"],
        _max_bits((result.U, result.Uinv, result.V, result.Vinv)),
    )
    tr.maxima["exactalg.max_invariant_bits"] = max(
        tr.maxima["exactalg.max_invariant_bits"],
        max((bits(s) for s in result.invariant_factors), default=0),
    )


def _hook_present(tr, args, result, dt):
    tr.times["bc.present_s"] += dt
    tr.counts["bc.present_steps"] += len(result.steps)


def _hook_parse(tr, args, result, dt):
    tr.counts["parser.chars"] += len(args[0])
    tr.times["parser.parse_s"] += dt


def _hook_build(tr, args, result, dt):
    tr.times["derham.build_s"] += dt
    tr.counts["derham.piece_dim_total"] += sum(len(b) for b in result.bases.values())
    for (i, e), M in result.mats.items():
        tr.counts["derham.dense_entries"] += len(M) * len(result.bases[(i, e)])
        tr.counts["derham.nnz"] += sum(1 for row in M for x in row if x)


def _hook_int_rank(tr, args, result, dt):
    tr.times["derham.rank_s"] += dt


def _hook_pullback(tr, args, result, dt):
    tr.times["cocycles.pullback_s"] += dt


def _hook_rref(tr, args, result, dt):
    rows = args[0]
    tr.counts["cocycles.matrix_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _hook_kernel(tr, args, result, dt):
    tr.counts["cocycles.kernel_dim_total"] += len(result)


HOOKS = {
    ("ffcurve.exactalg", "smith_normal_form"): _hook_snf,
    ("ffcurve.bc", "effective_presentation"): _hook_present,
    ("ffcurve.parser", "parse_object"): _hook_parse,
    ("ffcurve.parser", "parse_sheaf"): _hook_parse,
    ("ffcurve.parser", "parse_poly"): _hook_parse,
    ("ffcurve.derham", "build"): _hook_build,
    ("ffcurve.derham", "int_rank"): _hook_int_rank,
    ("ffcurve.cocycles", "pullback_d1"): _hook_pullback,
    ("ffcurve.cocycles", "pullback_d2"): _hook_pullback,
    ("ffcurve.cocycles", "pullback_d3"): _hook_pullback,
    ("ffcurve.cocycles", "_rref"): _hook_rref,
    ("ffcurve.cocycles", "_kernel_basis"): _hook_kernel,
}


class Tracer:
    """Span and counter bookkeeping for one traced pass at a time."""

    def __init__(self):
        self._saved = []  # (module, attribute, original function)
        self._stack = []  # per open span: time covered by its children
        self.active = False  # off while the benchmark checks outputs
        self.reset()

    def reset(self) -> None:
        """Start a new pass; call only between operations."""
        self._stack.clear()
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.times = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.span_s = 0.0  # time inside top-level spans
        self.inner_hook_s = 0.0  # hook time inside some span

    # ------------------------------------------------------------ wrapping

    def _span_wrapper(self, fn, layer, hook):
        st = self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            st.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = st.pop()
                self.calls[layer] += 1
                self.self_s[layer] += dt - children
                if st:
                    st[-1] += dt
                else:
                    self.span_s += dt
            if hook is not None:
                self._run_hook(hook, args, result, dt)
            return result

        return traced

    def _hook_wrapper(self, fn, hook):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self._run_hook(hook, args, result, 0.0)
            return result

        return counted

    def _run_hook(self, hook, args, result, dt):
        h0 = perf_counter()
        hook(self, args, result, dt)
        if self._stack:
            # hook time belongs to the harness, not to the caller's layer
            spent = perf_counter() - h0
            self._stack[-1] += spent
            self.inner_hook_s += spent

    def install(self) -> None:
        """Wrap every public ffcurve function wherever a module binds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        mods = [sys.modules[name] for name in MODULES if name in sys.modules]
        wrappers = {}
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("ffcurve."):
                    continue
                key = (home, obj.__name__)
                public = not obj.__name__.startswith("_")
                if not public and key not in COUNTED_PRIVATE:
                    continue
                if id(obj) not in wrappers:
                    short = home.split(".", 1)[1]
                    layer = FOLDED.get(short, short)
                    hook = HOOKS.get(key)
                    if public:
                        wrappers[id(obj)] = self._span_wrapper(obj, layer, hook)
                    else:
                        wrappers[id(obj)] = self._hook_wrapper(obj, hook)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved = []

    # ------------------------------------------------------------- results

    def layer_metrics(self) -> dict:
        """Per-layer numbers of the pass traced since the last reset.

        Only the counters and times the pass touched appear; the benchmark
        reports the others as 0.
        """
        out = {}
        for layer in LAYERS:
            out[layer + ".calls"] = self.calls[layer]
            out[layer + ".self_s"] = self.self_s[layer]
        parse_s = self.times["parser.parse_s"]
        out["parser.chars_per_s"] = self.counts["parser.chars"] / parse_s if parse_s else 0.0
        for source in (self.times, self.counts, self.maxima):
            out.update((k, v) for k, v in source.items() if k not in PARSER_RAW)
        return out

    def external(self, layer: str, dt: float) -> None:
        """Charge ``dt`` seconds an operation spent in a child process to ``layer``."""
        self.times[layer + ".self_s"] += dt
        self.span_s += dt

    def harness_s(self, wall: float) -> float:
        """Harness time of a pass whose operations took ``wall`` seconds."""
        return wall - self.span_s + self.inner_hook_s

