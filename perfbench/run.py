"""The regkit benchmark: end-to-end metrics, per-layer metrics, answer gate.

Run from the repository root:

    python3 perfbench/run.py --workload bipartite --seed 0 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 30

Workloads (single process, single thread; see BENCHMARK.json for why):

* ``suites``: every registered suite at default trials, run in-process as
  ``regkit --json verify --suite ID --seed S`` runs them.  A pass is one
  suite seed; a run covers ``--seed`` plus seven seeds of the fixed panel
  in ``inputs.SUITE_PANEL``.
* ``bipartite``: seeded graphs through the exhaustive, partition and
  randomized bipartite checks.
* ``hypergraph``: seeded triads and 3-graphs through the subtriad,
  octahedron, counting-band and reduction checks.

A run repeats passes for ``--seconds`` seconds, and at least once per seed,
with only the check timer installed.  Before every pass it imports regkit
afresh from ``src``, parses the generated inputs afresh and collects
garbage, so no pass can reuse state (caches, memoized results, pending
garbage) left by an earlier one; ``setup_s`` is the median time of that
import and parse.  Every time is in host-normalized seconds (see
``tracing.HostProbe``): fixed probe loops are timed between checks, and
the time between two samples is scaled by the loops' nominal over their
measured time, which takes out most of a shared host's drift.  End-to-end
metrics come from each seed's median pass time and each check's median
time over its passes, pooled over the run's seeds (one, except for
``suites``); the first pass's raw time and the median raw pass time are
printed beside them.  With
``--trace 1`` the inputs are parsed once more and one more pass runs, both
with every layer wrapped in spans; the per-layer metrics come from them
(self times as a share of the traced pass, parsing as a share of the traced
parse), and the spans are written to ``perfbench/out/``.

Every answer is gated: witnesses re-verify, answers planted by construction
must come out that way, triangle counts are recounted independently, every
pass must repeat the first pass's answers, and answers are compared with the
committed digests in ``reference.json`` where the seed has them.  Any
mismatch or exception counts as failed and makes the exit code 1.  The last
line of stdout is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
from tracing import (CERTIFY, LAYERS, REFUTE, UNKNOWN,  # noqa: E402
                     CheckTimer, HostProbe, Tracer, probe_seconds)

SUITE_IDS = ("claim-3.1", "claim-3.2", "claim-3.3", "claim-3.4", "claim-3.5",
             "claim-4.8", "claim-a2", "def-4.3-nonneg", "eq-red-d",
             "lemma-a1", "lemma-a3", "oct-equiv", "paste-density", "schacht",
             "schedule")

END_TO_END = (("run_s", "s"), ("check_p50_ms", "ms"), ("check_p90_ms", "ms"),
              ("certify_s", "s"), ("refute_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

PER_LAYER = (
    [("trace.pass_s", "s"), ("trace.overhead_ratio", "ratio"),
     ("host.calibration_start_ms", "ms"), ("host.calibration_end_ms", "ms"),
     ("checks.samples", "count"), ("checks.certify", "count"),
     ("checks.refute", "count"), ("checks.unknown", "count"),
     ("checks.unknown_pct", "%")]
    + [(f"{layer}.self_pct", "%") for layer in LAYERS]
    + [("kernels.scan_subtriads.calls", "count"),
       ("kernels.scan_subtriads.self_pct", "%"),
       ("kernels.scan_subtriads.states", "count"),
       ("kernels.scan_subtriads.states_per_s", "1/s"),
       ("kernels.octahedron_fast_scaled.calls", "count"),
       ("kernels.octahedron_fast_scaled.self_pct", "%"),
       ("kernels.octahedron_fast_scaled.terms", "count"),
       ("kernels.octahedron_fast_scaled.terms_per_s", "1/s"),
       ("kernels.triangle_count.calls", "count"),
       ("kernels.triangle_count.self_pct", "%"),
       ("regcheck.exhaustive.calls", "count"),
       ("regcheck.exhaustive.self_pct", "%"),
       ("regcheck.exhaustive.left_masks", "count"),
       ("regcheck.exhaustive.left_masks_per_s", "1/s"),
       ("regcheck.randomized.calls", "count"),
       ("regcheck.randomized.self_pct", "%"),
       ("regcheck.randomized.trials", "count"),
       ("regcheck.randomized.witness_yield", "ratio"),
       ("regcheck.partition.calls", "count"),
       ("regcheck.partition.self_pct", "%"),
       ("hyperreg.subtriad.calls", "count"),
       ("hyperreg.subtriad.self_pct", "%"),
       ("hyperreg.verify_subtriad_witness.calls", "count"),
       ("hyperreg.verify_subtriad_witness.self_pct", "%"),
       ("hyperreg.triad_density.calls", "count"),
       ("hyperreg.triad_density.self_pct", "%"),
       ("hyperreg.octahedron.self_pct", "%"),
       ("hyperreg.octahedron_sum_naive.self_pct", "%"),
       ("hyperreg.reduction.calls", "count"),
       ("hyperreg.reduction.self_pct", "%"),
       ("fileio.loads.calls", "count"),
       ("fileio.loads.self_pct", "%"),
       ("fileio.loads.bytes", "count")]
    + [(f"suites.{sid}_pct", "%") for sid in SUITE_IDS])


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _answer(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def _import_regkit():
    """A fresh import of every regkit module from the checkout's ``src``;
    returns them by short name."""
    src = str(ROOT / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules
                 if m == "regkit" or m.startswith("regkit.")]:
        del sys.modules[name]
    importlib.import_module("regkit")
    mods = {}
    for short in ("graphs", "kernels", "regcheck", "hyperreg", "partitions",
                  "constructions", "fileio", "suites", "cli"):
        mods[short] = importlib.import_module("regkit." + short)
    return argparse.Namespace(**mods)


# ---------------------------------------------------------------------------
# Workloads.  Each has ``keys`` (one pass per key and round), ``parse``,
# ``run_pass`` returning one answer per check (and, for ``suites``, the
# (start, end) of each suite), and ``gate`` for one answer.


class Suites:
    name = "suites"

    def __init__(self, seed: int, scale: str = "full"):
        panel = [s for s in inputs.SUITE_PANEL if s != seed]
        self.keys = [seed] + ([] if scale == "tiny" else
                              panel[:inputs.SUITE_PANEL_SEEDS])
        self.trials = ["--trials", "1"] if scale == "tiny" else []
        self.sizes = {}

    def parse(self, rk):
        return None

    def run_pass(self, rk, parsed, key, mark, records):
        answers, spans = [], {}
        first = len(records)
        for sid in rk.suites.registered_suites():
            mark(sid)
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = rk.cli.main(["--json", "verify", "--suite", sid,
                                        "--seed", str(key)] + self.trials)
            except Exception as exc:  # counted as a failed answer
                answers.append((None, exc))
                continue
            spans[sid] = (start, time.perf_counter())
            answers.append((out.getvalue().removesuffix("\n"), code))
        return answers, records[first:], spans

    def gate(self, rk, parsed, index, text, code) -> bool:
        report = json.loads(text)
        self.sizes[report["suite"]] = report["trials"]
        return code == 0 and report["passed"] is True


class Bipartite:
    name = "bipartite"

    def __init__(self, seed: int, scale: str = "full"):
        self.instances = inputs.bipartite(seed, scale)
        self.keys = [seed]
        self.sizes = _histogram(self.instances)

    def parse(self, rk):
        out = []
        for ins in self.instances:
            g = rk.fileio.loads_graph(ins["graph"])
            parts = None
            if ins["check"] == "partition_edits":
                parts = (rk.fileio.loads_partition(ins["left"]),
                         rk.fileio.loads_partition(ins["right"]))
            out.append((g, parts))
        return out

    def run_pass(self, rk, parsed, key, mark, records):
        rc = rk.regcheck
        answers = []
        first = len(records)
        for i, (ins, (g, parts)) in enumerate(zip(self.instances, parsed)):
            mark(i)
            param = Fraction(ins["param"])
            params = rc.CheckParams(mode=ins["mode"])
            try:
                if ins["check"] == "delta":
                    v = rc.check_delta_regular(g, param, params)
                elif ins["check"] == "eps":
                    v = rc.check_eps_regular(g, param, params)
                else:
                    v = rc.check_delta_partition_with_edits(
                        g, parts[0], parts[1], param, params)
            except Exception as exc:  # counted as a failed answer
                answers.append((None, exc))
                continue
            answers.append((self._text(v), v))
        return answers, records[first:], {}

    @staticmethod
    def _text(v) -> str:
        if hasattr(v, "edits"):
            pairs = sorted((list(k), p.status, p.witness)
                           for k, p in v.pair_verdicts.items())
            return _answer([v.status, v.edits, v.budget, pairs])
        return _answer([v.status, v.method, v.witness])

    def gate(self, rk, parsed, index, text, v) -> bool:
        ins = self.instances[index]
        g, _ = parsed[index]
        rc = rk.regcheck
        param = Fraction(ins["param"])
        if ins["check"] == "partition_edits":
            expected = {"edits": rc.AFTER_EDITS, "perfect": rc.PERFECT,
                        "not-certified": rc.NOT_CERTIFIED}[ins["expect"]]
            if v.status != expected:
                return False
            if v.status == rc.NOT_CERTIFIED:
                return not v.edits
            return (set(v.edits) <= g.edges and all(
                p.status == rc.CERTIFIED for p in v.pair_verdicts.values()))
        exhaustive = ins["mode"] == "exhaustive"
        allowed = ((rc.CERTIFIED, rc.IRREGULAR) if exhaustive
                   else (rc.UNKNOWN, rc.IRREGULAR))
        if v.status not in allowed:
            return False
        if ins.get("expect") == "refute" and v.status != rc.IRREGULAR:
            return False
        if v.status == rc.IRREGULAR:
            verify = (rc.verify_delta_witness if ins["check"] == "delta"
                      else rc.verify_eps_witness)
            return verify(g, param, v.witness)
        return True


class Hypergraph:
    name = "hypergraph"

    def __init__(self, seed: int, scale: str = "full"):
        self.instances = inputs.hypergraph(seed, scale)
        self.keys = [seed]
        self.sizes = _histogram(self.instances)

    def parse(self, rk):
        fio = rk.fileio
        out = []
        for ins in self.instances:
            out.append((fio.loads_threegraph(ins["h"]) if "h" in ins else None,
                        fio.loads_triad(ins["triad"]) if "triad" in ins
                        else None,
                        fio.loads_twopartition(ins["tp"]) if "tp" in ins
                        else None))
        return out

    def run_pass(self, rk, parsed, key, mark, records):
        hr = rk.hyperreg
        answers = []
        first = len(records)
        for i, (ins, (h, t, tp)) in enumerate(zip(self.instances, parsed)):
            mark(i)
            param = Fraction(ins["param"])
            check = ins["check"]
            try:
                if check == "hypothesis":
                    r = hr.check_subtriad_hypothesis(h, t, param)
                elif check == "fr":
                    r = hr.check_fr_triad(h, t, param)
                elif check == "quasirandom":
                    r = hr.check_quasirandom_triad(h, t, param)
                elif check == "triangle_band":
                    r = hr.triangle_count_bound(t, param)
                else:
                    r = hr.reduction_check(
                        h, tp, param, 1, 6, param ** 2 / 88,
                        rk.regcheck.CheckParams(mode="exhaustive"))
            except Exception as exc:  # counted as a failed answer
                answers.append((None, exc))
                continue
            answers.append((self._text(check, r), r))
        return answers, records[first:], {}

    @staticmethod
    def _text(check: str, r) -> str:
        if check in ("hypothesis", "fr"):
            return _answer([r.status, r.method, r.witness])
        if check == "quasirandom":
            return _answer([_frac(r.octahedron_sum), _frac(r.bound),
                            r.verdict, _frac(r.d0), _frac(r.d1), _frac(r.d2),
                            r.unequal_densities])
        if check == "triangle_band":
            return _answer([r.triangle_count, _frac(r.lower), _frac(r.upper),
                            r.in_band])
        pv = r.partition_verdict
        return _answer([
            r.passed, list(r.caveats), r.equip.passed, r.hypothesis.holds,
            [[list(j.clusters), list(j.block_ids), j.triangle_count,
              j.verdict_status] for j in r.hypothesis.judgments],
            r.eps2_bound_ok,
            [[list(c.block_key), c.cluster_c, c.t_equals_e_times_c,
              c.densities_equal] for c in r.identities],
            pv.status, sorted((list(k), v.status, v.witness)
                              for k, v in pv.pair_verdicts.items())])

    def gate(self, rk, parsed, index, text, r) -> bool:
        ins = self.instances[index]
        h, t, _ = parsed[index]
        hr = rk.hyperreg
        check = ins["check"]
        if check in ("hypothesis", "fr"):
            expected = {"certify": "CertifiedRegular",
                        "refute": "IrregularWithWitness"}[ins["expect"]]
            if r.status != expected:
                return False
            if r.status == "IrregularWithWitness":
                mode = (hr.MODE_TWO_THIRDS if check == "hypothesis"
                        else hr.MODE_DEVIATION)
                return hr.verify_subtriad_witness(
                    h, t, r.witness, mode, Fraction(ins["param"]))
            return r.status == "CertifiedRegular"
        if check == "triangle_band":
            return (r.triangle_count == _recount_triangles(t)
                    and r.in_band == (r.lower <= r.triangle_count <= r.upper))
        if check == "quasirandom":
            # The O(n^6) literal sum is the independent route; small n only.
            if t.sizes[0] <= 8 and \
                    r.octahedron_sum != hr.octahedron_sum_naive(h, t):
                return False
            return (r.octahedron_sum >= 0
                    and r.verdict == (r.octahedron_sum <= r.bound))
        return r.passed == (r.equip.passed and r.hypothesis.holds
                            and r.eps2_bound_ok
                            and r.partition_verdict.status
                            != "IrregularWithWitness"
                            and all(c.t_equals_e_times_c and c.densities_equal
                                    for c in r.identities))


def _recount_triangles(t) -> int:
    """Triangles summed over the AC edges, not the kernel's AB edges."""
    nb = t.ab.right.size
    bc_cols = [0] * t.ac.right.size
    for b in range(nb):
        row = t.bc.rows[b]
        for c in range(len(bc_cols)):
            if row >> c & 1:
                bc_cols[c] |= 1 << b
    return sum((t.ab.rows[a] & bc_cols[c]).bit_count()
               for a, c in t.ac.edges)


def _histogram(instances) -> dict:
    out: dict = {}
    for ins in instances:
        key = f"{ins['group']}:{'x'.join(str(s) for s in ins['sizes'])}"
        out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


WORKLOADS = {"suites": Suites, "bipartite": Bipartite,
             "hypergraph": Hypergraph}


# ---------------------------------------------------------------------------
# Measurement


def _calibrate() -> float:
    """Milliseconds for ten host-speed samples; recorded, not gated on."""
    return sum(probe_seconds() for _ in range(10)) * 1e3


def _environment(rk) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return {"backend": rk.kernels.BACKEND,
            "python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "commit": _git_commit()}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Gate:
    """Counts answers and failures across every pass of a run."""

    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.first: dict = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.combined: dict = {}
        self.work: dict = {}

    def check(self, rk, parsed, key, answers) -> None:
        digests = [_digest(text) if text is not None else None
                   for text, _ in answers]
        first = self.first.get(key)
        ref = self.reference.get(str(key))
        for i, (text, result) in enumerate(answers):
            self.attempted += 1
            problem = None
            if text is None:
                problem = f"exception {type(result).__name__}: {result}"
            elif first is None and not self._gate(rk, parsed, i, text,
                                                  result):
                problem = "answer failed its check"
            elif first is not None and digests[i] != first[i]:
                problem = "answer differs from the first pass"
            elif ref is not None and (len(ref["answers"]) != len(answers)
                                      or digests[i][:16] != ref["answers"][i]):
                problem = "answer differs from reference.json"
            if problem:
                self.failed += 1
                self.problems.append(f"seed {key} check {i}: {problem}")
        if first is None:
            self.first[key] = digests
            if None not in digests:
                self.combined[key] = _digest(
                    "".join(text for text, _ in answers))

    def _count_work(self, result) -> None:
        """Sum the effort counters verdicts report (left masks, trials,
        subtriad states), including those of partition pair verdicts."""
        verdicts = [result]
        verdicts += list(getattr(result, "pair_verdicts", {}).values())
        for v in verdicts:
            for name, value in (getattr(v, "effort", None) or {}).items():
                self.work[name] = self.work.get(name, 0) + value

    def _gate(self, rk, parsed, i, text, result) -> bool:
        self._count_work(result)
        try:
            return bool(self.workload.gate(rk, parsed, i, text, result))
        except Exception as exc:  # a gate that cannot run fails the answer
            self.problems.append(f"gate raised {type(exc).__name__}: {exc}")
            return False


def _median_pass(passes) -> tuple[float, list]:
    """The median pass time of one seed, and (verdict class, median time)
    of each check over the seed's passes, in host-normalized seconds.

    Every pass of a seed runs the same checks in the same order (the gate
    holds each pass to the first pass's answers), so their checks line up.
    """
    checks = zip(*[[dt for _, dt in p["checks"]] for p in passes], strict=True)
    classes = [cls for cls, _ in passes[0]["checks"]]
    return (statistics.median(p["run_s"] for p in passes),
            list(zip(classes, map(statistics.median, checks))))


def _summarize(per_key: dict) -> dict:
    """Run-level figures pooled over the run's seeds: time per pass and per
    verdict class as means over the seeds, and the latency percentiles
    over all the seeds' checks.  Pooling keeps each seed's weight at one in
    ``len(per_key)``; suite cost varies up to 2.5-fold from seed to seed."""
    run_s, checks = [], []
    for passes in per_key.values():
        seed_s, seed_checks = _median_pass(passes)
        run_s.append(seed_s)
        checks += seed_checks
    lat = [dt for _, dt in checks]
    by_class = {CERTIFY: 0.0, REFUTE: 0.0, UNKNOWN: 0.0}
    for cls, dt in checks:
        by_class[cls] += dt / len(per_key)
    return {"run_s": statistics.fmean(run_s),
            "check_p50_ms": _percentile(lat, 0.5) * 1e3,
            "check_p90_ms": _percentile(lat, 0.9) * 1e3,
            "certify_s": by_class[CERTIFY], "refute_s": by_class[REFUTE],
            "unknown_s": by_class[UNKNOWN],
            "samples": len(lat) / len(per_key)}


def _setup(workload, setup_times: list):
    """Fresh regkit modules and freshly parsed inputs; appends the
    host-normalized seconds that took."""
    probe = HostProbe()
    probe.sample()
    rk = _import_regkit()
    parsed = workload.parse(rk)
    probe.sample()
    setup_times.append(probe.total())
    return rk, parsed


def measure(workload, seconds: float, trace: bool, reference: dict) -> dict:
    calibration_start = _calibrate()
    setup_times: list = []
    rk = _setup(workload, setup_times)[0]
    src = (ROOT / "src").resolve()
    if Path(rk.kernels.__file__).resolve().parent.parent != src:
        raise SystemExit(f"regkit was not imported from {src}")
    environment = _environment(rk)

    gate = Gate(workload, reference)
    per_key: dict = {k: [] for k in workload.keys}
    suite_times: dict = {}
    counts = None
    first_pass_s = None
    raw_s = []
    started = time.perf_counter()
    for key in itertools.cycle(workload.keys):
        rk, parsed = _setup(workload, setup_times)
        gc.collect()
        probe = HostProbe()
        timer = CheckTimer(probe)
        probe.sample()
        with timer.installed():
            answers, records, spans = workload.run_pass(
                rk, parsed, key, lambda c: None, timer.records)
        probe.sample()
        per_key[key].append({
            "run_s": probe.total(),
            "checks": [(cls, probe.normalize(start, end))
                       for _, cls, start, end in records]})
        raw_s.append(probe.raw_total())
        for sid, span in spans.items():
            suite_times[sid] = (suite_times.get(sid, 0.0)
                                + probe.normalize(*span))
        if counts is None:
            first_pass_s = raw_s[0]
            counts = {c: sum(1 for r in records if r[1] == c)
                      for c in (CERTIFY, REFUTE, UNKNOWN)}
        gate.check(rk, parsed, key, answers)
        # Freed now, so the next setup does not hold two copies.
        rk = parsed = answers = None
        # Every seed runs at least once, even when that takes longer.
        if (time.perf_counter() - started >= seconds
                and all(per_key.values())):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summary = _summarize(per_key)
    passes = sum(len(p) for p in per_key.values())

    result = {
        "end_to_end": {"run_s": summary["run_s"],
                       "check_p50_ms": summary["check_p50_ms"],
                       "check_p90_ms": summary["check_p90_ms"],
                       "certify_s": summary["certify_s"],
                       "refute_s": summary["refute_s"],
                       "setup_s": statistics.median(setup_times),
                       "peak_rss_mb": peak_rss_mb},
        "extra": {"unknown_s": summary["unknown_s"], "passes": passes,
                  "check_samples": summary["samples"],
                  "first_pass_s": first_pass_s,
                  "raw_pass_median_s": statistics.median(raw_s)},
        "environment": environment,
        "gate": gate,
    }
    layer = None
    if trace:
        key = workload.keys[0]
        setup_probe, probe = HostProbe(), HostProbe()
        setup_tracer, tracer = Tracer(setup_probe), Tracer(probe)
        mark = lambda check: setattr(tracer, "check", check)  # noqa: E731
        rk = _import_regkit()
        setup_probe.sample()
        with setup_tracer.installed():
            traced_parsed = workload.parse(rk)
        setup_probe.sample()
        gc.collect()
        probe.sample()
        with tracer.installed():
            answers = workload.run_pass(rk, traced_parsed, key, mark, [])[0]
        probe.sample()
        gate.check(rk, traced_parsed, key, answers)
        untraced = statistics.median(p["run_s"] for p in per_key[key])
        layer = _layer_metrics(tracer.groups(), probe.raw_total(),
                               setup_tracer.groups(),
                               setup_probe.raw_total(),
                               probe.total() / untraced, summary, counts,
                               suite_times)
        _write_trace(workload, key, tracer, setup_tracer)
    calibration_end = _calibrate()
    if layer is not None:
        layer["host.calibration_start_ms"] = calibration_start
        layer["host.calibration_end_ms"] = calibration_end
    result["per_layer"] = layer
    result["environment"]["calibration_ms"] = [calibration_start,
                                               calibration_end]
    result["descriptor"] = {
        "verdicts": counts, "sizes": workload.sizes,
        "work": gate.work,
        "answers": {str(k): v[:16] for k, v in gate.combined.items()}}
    return result


def _layer_metrics(groups, pass_wall, setup_groups, setup_wall,
                   overhead_ratio, summary, counts, suite_times) -> dict:
    """Per-layer metrics of the traced pass; ``fileio.loads`` comes from
    the traced parse of the inputs that precedes it, as a share of that.
    Wall times here exclude probe samples and are not host-normalized."""

    def get(group, field, source=groups):
        return source.get(group, {}).get(field, 0)

    def pct(seconds, base=pass_wall):
        return 100.0 * seconds / base if base > 0 else 0.0

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    m = {"trace.pass_s": pass_wall,
         "trace.overhead_ratio": overhead_ratio,
         "checks.samples": round(summary["samples"]),
         "checks.certify": counts[CERTIFY], "checks.refute": counts[REFUTE],
         "checks.unknown": counts[UNKNOWN],
         "checks.unknown_pct": 100.0 * summary["unknown_s"]
         / summary["run_s"]}
    for layer in LAYERS:
        m[f"{layer}.self_pct"] = pct(sum(
            g["self_s"] for name, g in groups.items()
            if name.split(".")[0] == layer))
    for group, fields in (
            ("kernels.scan_subtriads", ("calls", "states")),
            ("kernels.octahedron_fast_scaled", ("calls", "terms")),
            ("kernels.triangle_count", ("calls",)),
            ("regcheck.exhaustive", ("calls", "left_masks")),
            ("regcheck.randomized", ("calls", "trials")),
            ("regcheck.partition", ("calls",)),
            ("hyperreg.subtriad", ("calls",)),
            ("hyperreg.verify_subtriad_witness", ("calls",)),
            ("hyperreg.triad_density", ("calls",)),
            ("hyperreg.octahedron", ()),
            ("hyperreg.octahedron_sum_naive", ()),
            ("hyperreg.reduction", ("calls",))):
        m[f"{group}.self_pct"] = pct(get(group, "self_s"))
        for field in fields:
            m[f"{group}.{field}"] = get(group, field)
    for field in ("calls", "bytes"):
        m[f"fileio.loads.{field}"] = get("fileio.loads", field, setup_groups)
    m["fileio.loads.self_pct"] = pct(
        get("fileio.loads", "self_s", setup_groups), setup_wall)
    m["kernels.scan_subtriads.states_per_s"] = rate(
        get("kernels.scan_subtriads", "states"),
        get("kernels.scan_subtriads", "self_s"))
    m["kernels.octahedron_fast_scaled.terms_per_s"] = rate(
        get("kernels.octahedron_fast_scaled", "terms"),
        get("kernels.octahedron_fast_scaled", "self_s"))
    m["regcheck.exhaustive.left_masks_per_s"] = rate(
        get("regcheck.exhaustive", "left_masks"),
        get("regcheck.exhaustive", "self_s"))
    m["regcheck.randomized.witness_yield"] = rate(
        get("regcheck.randomized", "witnesses"),
        get("regcheck.randomized", "calls"))
    suites_s = sum(suite_times.values())
    for sid in SUITE_IDS:
        m[f"suites.{sid}_pct"] = pct(suite_times.get(sid, 0.0), suites_s)
    return m


def _write_trace(workload, key, tracer, setup_tracer) -> None:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload.name}-{key}.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "seed": key,
                   "fields": ["group", "parent", "check", "start_ns",
                              "end_ns", "counters"],
                   "groups": tracer.groups(), "spans": tracer.spans,
                   "setup_groups": setup_tracer.groups(),
                   "setup_spans": setup_tracer.spans}, fh)


# ---------------------------------------------------------------------------
# Entry point


def _load_reference(workload: str) -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload, {})


def run_one(args) -> int:
    src = ROOT / "src" / "regkit" / "__init__.py"
    if not src.is_file():
        print(f"error: {src} not found; run from a regkit checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    reference = _load_reference(args.workload)
    res = measure(workload, args.seconds, args.trace == 1, reference)
    gate = res["gate"]
    print("environment " + json.dumps(res["environment"], sort_keys=True))
    print("descriptor " + json.dumps(res["descriptor"], sort_keys=True))
    for problem in gate.problems[:20]:
        print("FAILED " + problem)
    shown = dict(res["end_to_end"], **res["extra"],
                 fail_ratio=gate.failed / max(1, gate.attempted))
    units = dict(END_TO_END, unknown_s="s", passes="count",
                 check_samples="count", first_pass_s="s",
                 raw_pass_median_s="s", fail_ratio="ratio")
    for name, value in shown.items():
        print(f"{args.workload:<10} {name:<44} {value:.6g} {units[name]}")
    if args.trace:
        metrics = {name: {"value": res["per_layer"][name], "unit": unit}
                   for name, unit in PER_LAYER}
        for name, m in metrics.items():
            print(f"{args.workload:<10} {name:<44} {m['value']:.6g} "
                  f"{m['unit']}")
    else:
        metrics = {name: {"value": res["end_to_end"][name], "unit": unit}
                   for name, unit in END_TO_END}
    print(json.dumps({"correct": gate.failed == 0,
                      "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics}))
    return 0 if gate.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
