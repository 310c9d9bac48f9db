"""Check timing and layer spans, installed around regkit from outside.

Nothing here edits the package.  Wrappers replace a public function in every
``regkit.*`` module namespace that holds it, because ``hyperreg``, ``suites``
and ``cli`` import ``regcheck`` functions by name and ``hyperreg`` reaches
``kernels`` through the module attribute.  ``regkit.graphs`` is left alone:
its bit helpers run millions of times and hold no layer logic.

Two instruments share that mechanism:

* ``CheckTimer`` (the untraced run) wraps only the check entry points and
  times the outermost call of each nest, so a check is what the caller asked
  for, whoever the caller is.
* ``Tracer`` (the traced run) wraps every public function of every layer and
  records a span per call, with its parent and the check it belongs to.

Both sample a ``HostProbe`` before an outermost call, never inside one, so
their times can be stated in host-normalized seconds.
"""
from __future__ import annotations

import bisect
import functools
import gc
import inspect
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

LAYERS = ("kernels", "regcheck", "hyperreg", "partitions", "constructions",
          "fileio", "suites", "cli")

# Check entry points besides the ``check_*`` functions of these modules.
_CHECK_MODULES = ("regcheck", "hyperreg")
_OTHER_CHECKS = {"reduction_check", "triangle_count_bound",
                 "subtriad_hypothesis_check", "is_delta_good",
                 "schacht_predicate"}

CERTIFY, REFUTE, UNKNOWN = "certify", "refute", "unknown"
_STATUS_CLASS = {"CertifiedRegular": CERTIFY, "PerfectlyRegular": CERTIFY,
                 "RegularAfterEdits": CERTIFY,
                 "IrregularWithWitness": REFUTE}


def verdict_class(result) -> str:
    """certify / refute / unknown for any check entry point's result.

    Status-carrying results map by status (``NotCertified`` and
    ``UnknownNoWitnessFound`` are unknown); reports with a boolean outcome
    map True to certify and False to refute.
    """
    status = getattr(result, "status", None)
    if status is not None:
        return _STATUS_CLASS.get(status, UNKNOWN)
    for attr in ("passed", "verdict", "holds", "in_band"):
        if hasattr(result, attr):
            return CERTIFY if getattr(result, attr) else REFUTE
    return CERTIFY if result else REFUTE


def public_functions(module):
    """(name, function) for the module's own public non-generator
    functions."""
    for name, obj in sorted(vars(module).items()):
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not name.startswith("_")
                and not inspect.isgeneratorfunction(obj)):
            yield name, obj


@contextmanager
def patched(replacements: dict):
    """Swap each original function for its wrapper in every regkit module."""
    undo = []
    for modname, module in list(sys.modules.items()):
        if modname != "regkit" and not modname.startswith("regkit."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(module, attr, replacements[value])
                undo.append((module, attr, value))
    try:
        yield
    finally:
        for module, attr, value in undo:
            setattr(module, attr, value)


def _layer_module(layer: str):
    return sys.modules["regkit." + layer]


_PROBE_ROWS = tuple((0x9E3779B97F4A7C15 >> 5 * i) & 0xFFF for i in range(14))


def _probe_alu() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc = (acc * 31 + i) & 0xFFFF
    return time.perf_counter() - start


def _probe_scan() -> float:
    """A left-mask scan in the manner of regcheck: popcounts, tuple keys,
    list appends and Fraction comparisons."""
    start = time.perf_counter()
    best = Fraction(0)
    seen: dict = {}
    for mask in range(1, 1 << 9):
        total = 0
        for row in _PROBE_ROWS:
            total += (row & mask).bit_count()
        seen.setdefault((mask.bit_count(), total & 7), []).append(mask)
        if mask & 15 == 0:
            best = max(best, Fraction(total, 14 * mask.bit_count()))
    return time.perf_counter() - start


def probe_seconds() -> float:
    """One host-speed sample: the faster of two runs of each probe loop,
    summed.  The loops share no code with regkit, so no change to the
    program can change them, and garbage collection is held off so the
    program's heap cannot lengthen them.  On a 2-CPU shared host the scan
    loop followed the program's slowdowns more closely and the ALU loop was
    the steadier; their sum did better than either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return (min(_probe_alu(), _probe_alu())
                + min(_probe_scan(), _probe_scan()))
    finally:
        if enabled:
            gc.enable()


class HostProbe:
    """Host speed, sampled between calls, for host-normalized seconds.

    On a shared host the same code runs up to a third slower for seconds or
    minutes at a time, while CPU time stays equal to wall time: the host,
    not the program, changes speed.  A sample is ``probe_seconds()``.  The
    program time between two samples is a segment; it is scaled by
    ``NOMINAL`` over the mean of the two samples around it, which gives the
    seconds it would take on a host where a sample takes ``NOMINAL``
    seconds.  Sample time is in no segment.
    """

    NOMINAL = 2e-3
    INTERVAL = 0.1      # at most one sample per this many seconds

    def __init__(self):
        self.samples: list[float] = []
        self.starts: list[float] = []      # perf_counter at segment start
        self.segments: list[float] = []

    def sample(self) -> None:
        """Close the running segment (if any), sample, and start the next."""
        if self.starts:
            self.segments.append(time.perf_counter() - self.starts[-1])
        self.samples.append(probe_seconds())
        self.starts.append(time.perf_counter())

    def maybe(self) -> None:
        """``sample`` if the running segment is INTERVAL old."""
        if time.perf_counter() - self.starts[-1] >= self.INTERVAL:
            self.sample()

    def _scale(self, k: int) -> float:
        return 2 * self.NOMINAL / (self.samples[k] + self.samples[k + 1])

    def normalize(self, start: float, end: float) -> float:
        """Host-normalized seconds of the closed segments' time between the
        perf_counter readings ``start`` and ``end``."""
        total = 0.0
        for k in range(bisect.bisect_right(self.starts, start) - 1,
                       len(self.segments)):
            lo = max(start, self.starts[k])
            hi = min(end, self.starts[k] + self.segments[k])
            if lo >= end:
                break
            if hi > lo:
                total += (hi - lo) * self._scale(k)
        return total

    def raw_total(self) -> float:
        return sum(self.segments)

    def total(self) -> float:
        """Host-normalized seconds of every closed segment."""
        return sum(s * self._scale(k) for k, s in enumerate(self.segments))


class CheckTimer:
    """Verdict class, start and end of every outermost check call; a probe
    sample may come before the call."""

    def __init__(self, probe: HostProbe):
        self.records: list[tuple[str, str, float, float]] = []
        self.probe = probe
        self._depth = 0

    def _wrap(self, name: str, fn):
        records = self.records
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            self.probe.maybe()
            self._depth = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._depth = 0
            records.append((name, verdict_class(result), start, end))
            return result
        return wrapper

    def installed(self):
        replacements = {}
        for layer in _CHECK_MODULES:
            for name, fn in public_functions(_layer_module(layer)):
                if name.startswith("check_") or name in _OTHER_CHECKS:
                    replacements[fn] = self._wrap(f"{layer}.{name}", fn)
        return patched(replacements)


# Spans ---------------------------------------------------------------------
#
# A span is the list [group, parent, check, start_ns, end_ns, counters].
# ``group`` names the per-layer metric the span is booked under; a counter
# function may rename it from the call's result (an exhaustive or randomized
# bipartite check) and returns the work counters the call reports.

def _one(args, result):
    return {"calls": 1}


def _scan_counters(args, result):
    return {"calls": 1, "states": result[1]}


def _octahedron_counters(args, result):
    return {"calls": 1, "terms": args[0] ** 5}


def _loads_counters(args, result):
    return {"calls": 1, "bytes": len(args[0])}


def _bipartite_check(args, result):
    if result.method == "Exhaustive":
        return "regcheck.exhaustive", {
            "calls": 1, "left_masks": result.effort.get("left_masks", 0)}
    return "regcheck.randomized", {
        "calls": 1, "trials": result.effort.get("trials", 0),
        "witnesses": int(result.status == "IrregularWithWitness")}


def _no_calls(args, result):
    return {}


def span_group(layer: str, name: str):
    """(group, counter function) for one public function of one layer."""
    if layer == "kernels":
        return f"kernels.{name}", {
            "scan_subtriads": _scan_counters,
            "octahedron_fast_scaled": _octahedron_counters}.get(name, _one)
    if layer == "regcheck":
        if name in ("check_eps_regular", "check_delta_regular"):
            # Booked under exhaustive or randomized once the verdict says
            # which search ran; a call that raises keeps this group.
            return "regcheck.check", _bipartite_check
        if name == "find_delta_witness_greedy":
            # Runs inside a randomized check; its time is that check's.
            return "regcheck.randomized", _no_calls
        if name.startswith("verify_"):
            return "regcheck.verify", _one
        if "partition" in name:
            return "regcheck.partition", _one
    if layer == "hyperreg":
        group = {"check_fr_triad": "subtriad",
                 "check_subtriad_hypothesis": "subtriad",
                 "check_quasirandom_triad": "octahedron",
                 "octahedron_sum_fast": "octahedron",
                 "reduction_check": "reduction"}.get(name, name)
        return f"hyperreg.{group}", _one
    if layer == "fileio":
        if name.startswith("loads_"):
            return "fileio.loads", _loads_counters
        if name.startswith("dumps_"):
            return "fileio.dumps", _one
    return f"{layer}.{name}", _one


class Tracer:
    """Spans for every public function of every layer, kept in memory; a
    probe sample may come before an outermost call."""

    def __init__(self, probe: HostProbe):
        self.probe = probe
        self.spans: list[list] = []
        self.check = None
        self._stack: list[int] = []

    def _wrap(self, group, counters, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                self.probe.maybe()
            span = [group, stack[-1] if stack else -1, self.check, 0, 0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            found = counters(args, result)
            if isinstance(found, tuple):
                span[0], found = found
            span[5] = found
            return result
        return wrapper

    def installed(self):
        replacements = {}
        for layer in LAYERS:
            for name, fn in public_functions(_layer_module(layer)):
                group, counters = span_group(layer, name)
                replacements[fn] = self._wrap(group, counters, fn)
        return patched(replacements)

    def groups(self) -> dict[str, dict]:
        """Per group: self seconds, and the sum of each counter."""
        child = [0] * len(self.spans)
        for group, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (group, _, _, start, end, counters) in enumerate(self.spans):
            g = out.setdefault(group, {"self_s": 0.0})
            g["self_s"] += (end - start - child[i]) / 1e9
            for key, value in (counters or {}).items():
                g[key] = g.get(key, 0) + value
        return out
