"""Command-line front end.

Exit codes: 0 when the requested check passes (Unknown verdicts count as
passing but are listed as caveats), 1 when a check fails, 2 on usage or
file-format errors, 141 (128 + SIGPIPE) when standard output is closed
before the report is written.  With ``--json`` a single canonical JSON
document is printed to standard output; otherwise a short human-readable
summary.
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction

from . import constructions as cn
from . import fileio, hyperreg, regcheck, suites
from .errors import FormatError, RegkitError
from .regcheck import (IRREGULAR, NOT_CERTIFIED, UNKNOWN, CheckParams,
                       check_delta_partition_with_edits, check_delta_regular,
                       check_eps_regular)

USAGE_ERROR = 2
CHECK_FAILED = 1
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer


class _UsageError(Exception):
    pass


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise _UsageError(f"not a rational number: {text!r}") from None


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def _params(args) -> CheckParams:
    trials = args.trials or regcheck.RANDOM_TRIALS
    return CheckParams(mode=args.mode, random_trials=trials, seed=args.seed)


def _emit(args, report: dict, caveats: list[str]) -> None:
    if args.json:
        print(suites.canonical_json({"report": report, "caveats": caveats}))
        return
    for key in sorted(report):
        print(f"{key}: {suites._canon(report[key])}")
    for cv in caveats:
        print(f"caveat: {cv}")


def _emit_file(args, built, save, dumps, report: dict) -> int:
    """Write ``built`` to ``--out`` with ``save``; with ``--json`` print
    the report with its text (``dumps``) under "graph", else print the
    text unless written."""
    if args.out:
        save(args.out, built)
    if args.json:
        _emit(args, {**report, "graph": dumps(built)}, [])
    elif not args.out:
        sys.stdout.write(dumps(built))
    return 0


def _emit_verdict(args, check: str, verdict) -> int:
    caveats = ["no witness found; not a certification"] \
        if verdict.status == UNKNOWN else []
    _emit(args, {
        "check": check,
        "status": verdict.status,
        "method": verdict.method,
        "witness": verdict.witness,
    }, caveats)
    return CHECK_FAILED if verdict.status == IRREGULAR else 0


def _cmd_check_pair(args) -> int:
    g = fileio.load_graph(args.graph)
    if (args.eps is None) == (args.delta is None):
        raise _UsageError("give exactly one of --eps or --delta")
    if args.eps is not None:
        return _emit_verdict(args, "eps-regular pair", check_eps_regular(
            g, _fraction(args.eps), _params(args)))
    return _emit_verdict(args, "delta-regular pair", check_delta_regular(
        g, _fraction(args.delta), _params(args)))


def _cmd_check_partition(args) -> int:
    g = fileio.load_graph(args.graph)
    left = fileio.load_partition(args.left)
    right = fileio.load_partition(args.right)
    result = check_delta_partition_with_edits(
        g, left, right, _fraction(args.delta), _params(args))
    caveats = [f"pair {p}: no witness found"
               for p, v in sorted(result.pair_verdicts.items())
               if v.status == UNKNOWN]
    _emit(args, {
        "check": "delta-regular partition with edit budget",
        "status": result.status,
        "edits": result.edits,
        "budget": result.budget,
    }, caveats)
    return 0 if result.status != NOT_CERTIFIED else CHECK_FAILED


def _cmd_check_3partition(args) -> int:
    h = fileio.load_threegraph(args.h)
    tp = fileio.load_twopartition(args.tp)
    report = hyperreg.check_delta_regular_3partition(
        h, tp, _fraction(args.delta), _params(args))
    _emit(args, {
        "check": "delta-regular 2-partition of a 3-graph",
        "goodness": report.goodness.status,
        "axes": {str(axis): res.status
                 for axis, res in enumerate(report.axes, 1)},
        "passed": report.passed,
    }, list(report.caveats))
    return 0 if report.passed else CHECK_FAILED


def _cmd_check_fr(args) -> int:
    h = fileio.load_threegraph(args.h)
    triad = fileio.load_triad(args.triad)
    return _emit_verdict(args, "deviation-regular triad",
                         hyperreg.check_fr_triad(h, triad, _fraction(args.eps),
                                                 _params(args)))


def _cmd_quasirandom(args) -> int:
    h = fileio.load_threegraph(args.h)
    triad = fileio.load_triad(args.triad)
    report = hyperreg.check_quasirandom_triad(h, triad,
                                              _fraction(args.alpha))
    caveats = ["side densities differ; density term is (d0*d1*d2)^4"] \
        if report.unequal_densities else []
    _emit(args, {
        "check": "quasirandom triad",
        "octahedron_sum": report.octahedron_sum,
        "bound": report.bound,
        "verdict": report.verdict,
    }, caveats)
    return 0 if report.verdict else CHECK_FAILED


def _cmd_aux_graph(args) -> int:
    h = fileio.load_threegraph(args.h)
    aux = hyperreg.auxiliary_graph(h, args.axis)
    return _emit_file(args, aux, fileio.save_graph, fileio.dumps_graph, {
        "check": "auxiliary graph",
        "axis": args.axis,
        "edges": aux.edge_count,
    })


def _cmd_paste(args) -> int:
    parts = [fileio.load_threegraph(p) for p in args.parts]
    if len(parts) != 6:
        raise _UsageError("paste needs exactly six part files")
    h = cn.six_cycle_paste(parts)
    return _emit_file(args, h, fileio.save_threegraph,
                      fileio.dumps_threegraph, {
        "check": "six-cycle paste",
        "edges": h.edge_count,
        "density": h.density,
    })


_SCHEDULE_FUNCS = {
    "e": cn.func_e,
    "t": cn.func_t,
    "w": cn.func_w,
    "twr": cn.func_twr,
    "wow": cn.func_wow,
}


def _cmd_schedule(args) -> int:
    values = {}
    names = (list(_SCHEDULE_FUNCS) if args.sched_func == "all"
             else [args.sched_func])
    for name in names:
        value = _SCHEDULE_FUNCS[name](args.index)
        values[name] = {"value": repr(value), "exact": value.exact}
    _emit(args, {"check": "schedule", "index": args.index,
                 "values": values}, [])
    return 0


def _cmd_verify(args) -> int:
    report = suites.run_suite(args.suite, args.seed, args.trials)
    if args.json:
        print(report.to_json())
    else:
        fails = sum(1 for r in report.records if r["outcome"] == "fail")
        print(f"suite: {report.suite}")
        print(f"trials: {report.trials}")
        print(f"failures: {fails}")
        print(f"passed: {report.passed}")
        for cv in report.caveats:
            print(f"caveat: {cv}")
    return 0 if report.passed else CHECK_FAILED


def _common_flags(defaults: bool) -> argparse.ArgumentParser:
    """The global flags, accepted both before and after the subcommand."""
    sup = argparse.SUPPRESS
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=0 if defaults else sup,
                   help="master seed for randomized searches and suites")
    p.add_argument("--mode", choices=["auto", "exhaustive", "randomized"],
                   default="auto" if defaults else sup,
                   help="search mode for checkers")
    p.add_argument("--trials", type=_positive_int,
                   default=0 if defaults else sup,
                   help="randomized trials / suite trial count (at least "
                   f"1; default {regcheck.RANDOM_TRIALS} trials, or the "
                   "suite's own count)")
    p.add_argument("--json", action="store_true",
                   default=False if defaults else sup,
                   help="print a canonical JSON report")
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parsing leaves it unchanged."""
    top = argparse.ArgumentParser(
        prog="regkit",
        description="Exact regularity checks for graphs and 3-graphs",
        parents=[_common_flags(defaults=True)])
    sub = top.add_subparsers(dest="command", required=True)
    common = [_common_flags(defaults=False)]

    p = sub.add_parser("check-pair", parents=common,
                       help="regularity of one bipartite pair")
    p.add_argument("--graph", required=True)
    p.add_argument("--eps", help="two-sided eps-regularity threshold (p/q)")
    p.add_argument("--delta", help="one-sided delta-regularity threshold")
    p.set_defaults(handler=_cmd_check_pair)

    p = sub.add_parser("check-partition", parents=common,
                       help="delta-regular partition of a bipartite graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--left", required=True, help=".vp for the left side")
    p.add_argument("--right", required=True, help=".vp for the right side")
    p.add_argument("--delta", required=True)
    p.set_defaults(handler=_cmd_check_partition)

    p = sub.add_parser("check-3partition", parents=common,
                       help="delta-regular 2-partition of a 3-graph")
    p.add_argument("--h", required=True, help=".h3 hypergraph")
    p.add_argument("--tp", required=True, help=".tp 2-partition")
    p.add_argument("--delta", required=True)
    p.set_defaults(handler=_cmd_check_3partition)

    p = sub.add_parser("check-fr", parents=common, help="deviation regularity of a triad")
    p.add_argument("--h", required=True)
    p.add_argument("--triad", required=True, help=".tr triad")
    p.add_argument("--eps", required=True)
    p.set_defaults(handler=_cmd_check_fr)

    p = sub.add_parser("quasirandom", parents=common, help="octahedron quasirandomness")
    p.add_argument("--h", required=True)
    p.add_argument("--triad", required=True)
    p.add_argument("--alpha", required=True)
    p.set_defaults(handler=_cmd_quasirandom)

    p = sub.add_parser("aux-graph", parents=common, help="axis auxiliary graph of a 3-graph")
    p.add_argument("--h", required=True)
    p.add_argument("--axis", type=int, choices=[1, 2, 3], required=True)
    p.add_argument("--out", help="write the .bg here instead of stdout")
    p.set_defaults(handler=_cmd_aux_graph)

    p = sub.add_parser("paste", parents=common, help="paste six parts along a tight 6-cycle")
    p.add_argument("--parts", nargs="+", required=True,
                   help="six .h3 files, one per cycle edge")
    p.add_argument("--out", help="write the pasted .h3 here")
    p.set_defaults(handler=_cmd_paste)

    p = sub.add_parser("schedule", parents=common, help="tower / wowzer schedule values")
    p.add_argument("--func", dest="sched_func",
                   choices=[*_SCHEDULE_FUNCS, "all"], default="all")
    p.add_argument("--index", type=int, required=True)
    p.set_defaults(handler=_cmd_schedule)

    p = sub.add_parser("verify", parents=common, help="run a registered property suite")
    p.add_argument("--suite", required=True,
                   help="one of: " + ", ".join(suites.registered_suites()))
    p.set_defaults(handler=_cmd_verify)
    return top


def _stdout_to_devnull() -> None:
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no file descriptor, nothing flushes to one at exit
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone: report nothing, and let the flush at exit
        # write to os.devnull instead of failing again.
        _stdout_to_devnull()
        return BROKEN_PIPE
    except (_UsageError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except RegkitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
