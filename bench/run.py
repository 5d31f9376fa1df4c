"""ffcurve benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  The seed fixes a list of operations; the run executes that list
over and over in one thread, one operation at a time, until ``--seconds``
of operation time have been measured, and checks every operation's output
(outside the timed region) the first time it runs in each mode.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics,
each computed from the untraced samples of operations that succeeded:
wall_s is the op list's time at every op's median, ops_per_s its op count
over wall_s, op_p50_ms the median of those per-op medians, and op_tail_ms
the highest percentile of all samples pooled that has 10 samples beyond it.

The times of the end-to-end metrics, setup_s included, are given at a fixed
reference speed of the machine.  Shared hosts slow a run down by up to 2x
for seconds to minutes at a time, as other tenants load the same cores.  So
the run times a short pure-Python loop that does not touch ffcurve (the
speed probe) every 20 ms of operation time, and scales each pass's times by
REF_PROBE_S over the median probe time of that pass; set-up is scaled by the
probes taken around it.  A change to ffcurve does not change the probe, so
it moves these times exactly as it moves the raw ones.  The raw times and
the scale factors are printed among the human-readable lines.

With ``--trace 1`` the run alternates untraced and traced passes and reports
the per-layer metrics (see ``tracer.py``).  Metric names and units are those
of ``BENCHMARK.json``.  Human-readable lines, including a run header and the
layer -> end-to-end metric map, come before the last line.  The exit code is
0 when every operation ran within its time cap and passed its oracle; 1 when
one did not, and the result then carries no metrics; 2 when the run could
not start.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import signal
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Mismatch, cli_probe_times  # noqa: E402

SPEC_FILE = ROOT / "BENCHMARK.json"
OP_CAP_S = 20  # an operation running longer than this counts as failed
HARD_LIMIT_S = 120  # measured time after which a run stops even mid-pass
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
CLI_PROBE_REPS = 5

PROBE_EVERY_S = 0.02  # operation time between two speed probes
REF_PROBE_S = 2.0e-4  # probe time at the reference speed: a 2-vCPU x86-64 VM, cores unshared
SETUP_PROBES = 9

TIMED_UNITS = ("s", "1/s", "ratio")  # medians over passes; other units repeat exactly
HARNESS_SLACK = 1e-3  # largest share of a traced pass the span bookkeeping may miss


def metric_units(spec: dict, group: str) -> dict:
    return {m["name"]: m["unit"] for m in spec[group]}


def probe() -> float:
    """Time of a fixed pure-Python loop: the machine's current speed."""
    t0 = perf_counter()
    acc = 0
    slots = {}
    for i in range(2000):
        acc += (i * 7919) % 13
        slots[i & 63] = acc
    return perf_counter() - t0


def speed_scale(probes) -> float:
    """Factor that turns times measured alongside ``probes`` into reference times."""
    return REF_PROBE_S / median(probes)


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so library `except` clauses let it pass."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def purge_ffcurve() -> None:
    for name in [m for m in sys.modules if m == "ffcurve" or m.startswith("ffcurve.")]:
        del sys.modules[name]


def header(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ffcurve").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
        except OSError:  # no git on this machine
            proc = None
        if proc is not None and proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "bench": "ffcurve",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class Run:
    """The closed loop over one workload's op list and its bookkeeping."""

    def __init__(self, ops, seconds, trace, per_layer_units, between_passes=None):
        self.ops = ops
        self.per_layer_units = per_layer_units
        self.between_passes = between_passes
        self.seconds = seconds
        self.trace = trace
        self.tracer = Tracer() if trace else None
        self.latencies = [[] for _ in ops]  # untraced samples per op, successes only
        self.walls = {"plain": [], "traced": []}  # complete passes only, raw
        self.scales = []  # per untraced pass: reference time / raw time
        self.layer_passes = []  # per complete traced pass
        self.accounts = []  # per complete traced pass: wall, layer self, harness, residual
        self.measured = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.counters_repeat = True
        self.errors = []

    def _note(self, message: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(message)

    def _enough(self) -> bool:
        if self.measured < self.seconds:
            return False
        if not self.trace:
            return len(self.walls["plain"]) >= 1
        return len(self.walls["plain"]) >= 1 and len(self.walls["traced"]) >= 2

    def execute(self) -> None:
        checked = set()
        index = 0
        while not self._enough() and self.measured < HARD_LIMIT_S:
            mode = "traced" if self.trace and index % 2 else "plain"
            index += 1
            self._pass(mode, check=mode not in checked)
            checked.add(mode)
            if self.between_passes is not None:
                self.between_passes()

    def _pass(self, mode: str, check: bool) -> None:
        traced = mode == "traced"
        tr = self.tracer
        if traced:
            tr.reset()
            tr.install()
        wall = 0.0
        samples = []  # (op index, raw time) of this pass's successful untraced ops
        probes = []
        since_probe = PROBE_EVERY_S
        try:
            for i, op in enumerate(self.ops):
                if not traced and since_probe >= PROBE_EVERY_S:
                    probes.append(probe())
                    since_probe = 0.0
                # a collection before every op (cheap: set-up froze all older
                # objects) makes each op pay for the collections its own
                # allocations trigger, not for those earlier ops' garbage
                # happens to trigger inside it; the tail samples depend on it
                gc.collect()
                if traced:
                    tr.active = True
                error = None
                result = None
                signal.alarm(OP_CAP_S)
                t0 = perf_counter()
                try:
                    result = op.run()
                except OpTimeout:
                    error = "timed out after %d s" % OP_CAP_S
                except Exception as exc:  # any library error fails this op only
                    error = "%s: %s" % (type(exc).__name__, exc)
                finally:
                    dt = perf_counter() - t0
                    signal.alarm(0)
                if traced:
                    tr.active = False
                wall += dt
                since_probe += dt
                self.measured += dt
                self.attempted += 1
                if error is None and check:
                    try:
                        op.check(result)
                    except Mismatch as exc:
                        error = "wrong output: %s" % exc
                        self.wrong += 1
                    except Exception as exc:
                        error = "oracle raised %s: %s" % (type(exc).__name__, exc)
                        self.wrong += 1
                if error is not None:
                    self.failed += 1
                    self._note("%s op %d (%s): %s" % (mode, i, op.kind, error))
                elif not traced:
                    samples.append((i, dt))
                elif op.count is not None:
                    op.count(result, tr)
                result = None
                if self._enough():
                    return  # the cut pass is incomplete and not recorded
                if self.measured >= HARD_LIMIT_S:
                    # ops the limit cut off count as attempted and failed, and
                    # the cut pass is recorded so that the run still reports
                    skipped = len(self.ops) - i - 1
                    self.attempted += skipped
                    self.failed += skipped
                    self._note("run limit of %d s reached; %d ops not run"
                               % (HARD_LIMIT_S, skipped))
                    break
            self.walls[mode].append(wall)
            if traced:
                self.layer_passes.append(self._layers(wall))
        finally:
            if traced:
                tr.active = False
                tr.uninstall()
            elif samples:
                probes.append(probe())
                scale = speed_scale(probes)
                self.scales.append(scale)
                for i, dt in samples:
                    self.latencies[i].append(dt * scale)

    def _layers(self, wall: float) -> dict:
        """Per-layer metrics of the traced pass that just ended."""
        got = self.tracer.layer_metrics()
        unknown = set(got) - set(self.per_layer_units)
        if unknown:
            raise RuntimeError("per-layer metrics missing from BENCHMARK.json: %s"
                               % sorted(unknown))
        layers = {k: got.get(k, 0.0 if unit in TIMED_UNITS else 0)
                  for k, unit in self.per_layer_units.items()
                  if k != "trace.overhead_ratio"}
        layers["harness.self_s"] = harness = self.tracer.harness_s(wall)
        layer_self = sum(v for k, v in got.items() if k.endswith(".self_s"))
        residual = wall - layer_self - harness
        self.accounts.append((wall, layer_self, harness, residual))
        if abs(residual) > HARNESS_SLACK * wall:
            self.wrong += 1
            self._note("traced pass: layer self times %.6f s + harness %.6f s miss"
                       " the pass time %.6f s by %.6f s" % (layer_self, harness, wall, residual))
        return layers

    # ---------------------------------------------------------------- metrics

    def ok(self) -> bool:
        """Every operation ran within its cap and passed its oracle."""
        return self.wrong == 0 and self.failed == 0

    def end_to_end(self, setup_s: float, peak_rss_mb: float, lines) -> dict:
        # wall_s, ops_per_s and op_p50_ms take each op at the median of its
        # untraced runs, each scaled to the reference speed (see the module
        # docstring); op_tail_ms is a percentile of every scaled sample, so
        # it shows slow repeats too.
        typical = [median(s) for s in self.latencies]
        n = len(typical)
        reps = [len(s) for s in self.latencies]
        pooled = sorted(x for s in self.latencies for x in s)
        tail_index = max(len(pooled) - TAIL_BEYOND - 1, 0)
        wall = sum(typical)
        lines.append("samples: %d distinct ops, each the median of %d..%d untraced runs"
                     % (n, min(reps), max(reps)))
        lines.append("op_p50_ms: median over %d per-op medians" % n)
        lines.append("op_tail_ms: p%.2f of %d pooled untraced samples (%d beyond it)"
                     % (100.0 * (tail_index + 1) / len(pooled), len(pooled),
                        len(pooled) - tail_index - 1))
        lines.append("wall_s, ops_per_s: the %d-op list at each op's median time; "
                     "complete passes took %s s raw" % (n, " ".join(
                         "%.4f" % w for w in self.walls["plain"])))
        lines.append("speed scale per untraced pass (reference / raw): %s"
                     % " ".join("%.3f" % f for f in self.scales))
        lines.append("fail_ratio: %d / %d = %r"
                     % (self.failed, self.attempted, self.failed / self.attempted))
        return {
            "setup_s": setup_s,
            "wall_s": wall,
            "ops_per_s": n / wall,
            "op_p50_ms": 1000.0 * median(typical),
            "op_tail_ms": 1000.0 * pooled[tail_index],
            "peak_rss_mb": peak_rss_mb,
        }

    def per_layer(self, lines) -> dict:
        passes = self.layer_passes
        out = {}
        for key in passes[0]:
            values = [p[key] for p in passes]
            if self.per_layer_units[key] in TIMED_UNITS:
                out[key] = median(values)
                continue
            out[key] = values[0]
            if any(v != values[0] for v in values):
                # exact arithmetic on fixed inputs must count the same work
                self.counters_repeat = False
                self.wrong += 1
                self._note("counter %s differs between traced passes: %s" % (key, values))
        lines.append("per-layer: medians over %d traced passes; counters repeat exactly: %s;"
                     " trace.overhead_ratio = median traced / untraced pass time"
                     % (len(passes), self.counters_repeat))
        for wall, layer_self, harness, residual in self.accounts:
            lines.append("traced pass: %.4f s = layer self times %.4f s + harness %.4f s"
                         " (residual %.2e s)" % (wall, layer_self, harness, residual))
        out["trace.overhead_ratio"] = median(self.walls["traced"]) / median(self.walls["plain"])
        return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ffcurve" / "__init__.py").is_file():
        print("error: no ffcurve sources under %s" % src, file=sys.stderr)
        return 2
    try:
        spec = json.loads(SPEC_FILE.read_text())
    except (OSError, ValueError) as exc:
        print("error: cannot read %s: %s" % (SPEC_FILE, exc), file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]
    lines = ["header: " + json.dumps(header(args), sort_keys=True)]

    def setup():
        purge_ffcurve()
        gc.unfreeze()
        gc.collect()
        probes = [probe() for _ in range(SETUP_PROBES)]
        t0 = perf_counter()
        ops = workload.build(random.Random(args.seed), str(ROOT))
        raw = perf_counter() - t0
        probes += [probe() for _ in range(SETUP_PROBES)]
        setup_times.append((raw, raw * speed_scale(probes)))
        # the op list and the benchmark's own objects are not the program's:
        # keep them out of the collections that ops trigger
        gc.collect()
        gc.freeze()
        return ops

    setup_times = []
    ops = setup()
    import ffcurve

    if Path(ffcurve.__file__).resolve().parent != (src / "ffcurve").resolve():
        print("error: imported ffcurve from %s, not from %s" % (ffcurve.__file__, src),
              file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _on_alarm)
    # set up again after every untraced pass: setup_s is the median over the
    # whole run, not over one quiet or busy moment of a shared machine
    run = Run(ops, args.seconds, args.trace, metric_units(spec, "per_layer"),
              None if args.trace else setup)
    run.execute()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    units = metric_units(spec, "per_layer" if args.trace else "end_to_end")
    metrics = {}
    if args.trace and run.ok():
        metrics = run.per_layer(lines)
        if args.workload == "cli_cold":
            metrics["cli.interp_s"], metrics["cli.import_s"] = cli_probe_times(
                str(ROOT), CLI_PROBE_REPS)
    elif run.ok():
        lines.append("setup_s: median of %s s; raw %s s" % tuple(
            " ".join("%.4f" % t[k] for t in setup_times) for k in (1, 0)))
        metrics = run.end_to_end(median(t[1] for t in setup_times), peak_rss_mb, lines)
    correct = run.ok()
    if correct and set(metrics) != set(units):
        raise RuntimeError("metrics out of step with BENCHMARK.json: %s"
                           % sorted(set(metrics) ^ set(units)))
    if not correct:
        metrics = {}  # a run with a failed or wrong operation reports nothing
        lines.append("fail_ratio: %d / %d; no metrics reported" % (run.failed, run.attempted))

    lines.append("layer -> end-to-end metric it should move (%s):" % workload.name)
    lines.extend("  %s -> %s" % pair for pair in workload.layers)
    for err in run.errors:
        lines.append("FAIL " + err)
    for key in units:
        if key in metrics:
            lines.append("%-34s %r %s" % (key, metrics[key], units[key]))
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
