"""Command-line front end.

Subcommands: analyze, contractivity, product, ergodicity, simulate,
decompose, reproduce-paper.  All reports are JSON (floats rendered at 12
significant digits so repeated runs are byte-identical); exit codes are
0 for success, 2 for input errors, 3 for internal numerical failure.
``product`` and ``ergodicity`` judge each item at --row-sum-tol, and a
product of accepted items within ``products._product_slack``, the row-sum
drift such items allow.

``run`` is the process entry (``python -m contractlab.cli`` and the
``contractlab`` script).  Once ``main`` returns it runs the exit handlers
and flushes stdout and stderr, as interpreter shutdown would, and then
ends the process with ``os._exit``.  What that skips is the teardown of
modules and objects, numpy's among them: about 40 ms per process, a
tenth of a short command, for no output.  ``main`` is the in-process
entry and ends nothing.

Start-up loads only what every command uses.  ``io`` reads every input
file, and imports ``products`` (product, ergodicity, simulate) and
``cml`` (simulate) to read a sequence spec or a simulation config;
``reference`` is imported by reproduce-paper.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import json
import logging
import math
import os
import sys
from itertools import repeat
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import io
from .contractivity import (
    _linf_report,
    attained_lower_bound,
    coefficients,
    contractivity,
    decompose_affine,
)
from .graphs import has_spanning_directed_tree, interaction_digraph, is_irreducible
from .matcore import (
    DEFAULT_ROW_SUM_TOL,
    DEFAULT_SYNC_TOL,
    DEFAULT_ZERO_TOL,
    is_scrambling,
    is_stochastic,
    mu,
    mu_delta,
    row_sum_profile,
)
from .projections import KINDS, Norm

if TYPE_CHECKING:
    from .cml import SimTrace

# analyze reads mu from mu_delta; cli.mu stays bound for bench/tests,
# which checks that the tracer restores it (ROADMAP item 1)
_TRACED = (mu,)

EXIT_INPUT_ERROR = 2
EXIT_NUMERICAL_ERROR = 3
LOG_LEVELS = ("DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL")

# not __name__, which is "__main__" under python -m contractlab.cli
log = logging.getLogger("contractlab.cli")


def _round12(value):
    """Render floats at 12 significant digits, recursively; non-finite
    floats become None, since JSON has no literal for them."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}") if np.isfinite(value) else None
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biu":  # nothing to round, e.g. an edge list
            return value.tolist()
        return [_round12(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    return value


def _dump(doc, pretty: bool) -> str:
    # the report is built fresh and holds no cycles
    return json.dumps(_round12(doc), indent=2 if pretty else None, sort_keys=True,
                      allow_nan=False, check_circular=False)


def _print_report(text: str) -> None:
    """text as a line on stdout.  A descriptor closed at start-up leaves
    sys.stdout None, where print would drop the report without a word."""
    if sys.stdout is None:
        raise OSError("stdout is closed; the report has nowhere to go")
    print(text)


def _print_error(message: str) -> None:
    """message as one line on stderr, or nowhere when stderr is closed or
    rejects the write: the exit code still tells, and print(file=None)
    would write the line to stdout."""
    with contextlib.suppress(OSError):
        if sys.stderr is not None:
            print(message, file=sys.stderr)


def _emit(doc, args) -> None:
    text = _dump(doc, args.pretty)
    if args.output:
        Path(args.output).write_text(text + "\n")
    else:
        _print_report(text)


def _norm_from_args(args):
    """The norm of --norm and --weights; weights with another norm than
    wl2 are rejected by Norm before they are parsed."""
    weights = args.weights
    if args.norm == "wl2":
        if not weights:
            raise io.InputError("--norm wl2 requires --weights")
        weights = io.parse_weights(weights)
    return Norm(args.norm, weights)


def _log_sequence(path, seq) -> None:
    if seq.items is None:
        log.info("loaded sequence %s: n = %d, generator %s, seed %d",
                 path, seq.n, seq.generator["kind"], seq._seed)
    else:
        log.info("loaded sequence %s: n = %d, %d matrices", path, seq.n, len(seq.items))


def _log_method(rep) -> None:
    log.info("%s coefficient: method %s%s", rep.norm, rep.method,
             ", an upper bound" if rep.is_bound_only else "")


def _classification(rep) -> str:
    if rep.is_set_contractive:
        return "set-contractive"
    return "set-nonexpansive" if rep.is_set_nonexpansive else "expansive"


def _analysis_report(path, zero_tol, row_sum_tol) -> dict:
    """The analyze report of one input."""
    A = io.load_matrix(path)
    log.info("loaded matrix %s: n = %d", path, A.n)
    profile = row_sum_profile(A, row_sum_tol)
    G = interaction_digraph(A, zero_tol)
    tree, root = has_spanning_directed_tree(G)
    m, d = mu_delta(A)
    report = {
        "input": str(path),
        "n": A.n,
        "row_sums": profile.sums,
        "constant_row_sum": profile.is_constant,
        "r": profile.r,
        "stochastic": is_stochastic(A, row_sum_tol),
        "scrambling": is_scrambling(A, zero_tol),
        "mu": m,
        "delta": d,
        "spanning_tree": tree,
        "spanning_tree_root": root,
        "irreducible": is_irreducible(G),
        # the edge list in row-major order, i.e. sorted; the pairs stay one
        # int array, which _round12 turns into lists in one call
        "digraph": {"n": A.n, "edges": np.argwhere(G)},
    }
    if profile.is_constant:
        reps = {"linf": _linf_report(profile.r, m),
                "l2": contractivity(A, Norm("l2"), row_sum_tol)}
        report["c_linf"] = reps["linf"].c
        report["c_l2"] = reps["l2"].c
        report["classification"] = {name: _classification(rep) for name, rep in reps.items()}
        for rep in reps.values():
            _log_method(rep)
    else:
        log.info("%s: row sums are not constant; no coefficient", path)
        report["c_linf"] = None
        report["c_l2"] = None
        report["note"] = "row sums are not constant; coefficient formulas do not apply"
    return report


def cmd_analyze(args) -> int:
    paths, out = args.matrix, args.output
    # --output is a directory, except for one input and a path that is not one
    if len(paths) == 1 and not (out and (out.endswith(("/", os.sep)) or Path(out).is_dir())):
        _emit(_analysis_report(paths[0], args.zero_tol, args.row_sum_tol), args)
        return 0
    names = [Path(path).stem + ".analysis.json" for path in paths]
    if out:
        # one report file per input: a shared name would overwrite a report
        by_name = {}
        for path, name in zip(paths, names):
            by_name.setdefault(name, []).append(path)
        clashes = [f"{', '.join(ps)} -> {name}" for name, ps in by_name.items() if len(ps) > 1]
        if clashes:
            raise io.InputError(
                "analyze --output: inputs share a report name: " + "; ".join(clashes))
        # made before any input starts, and kept if an input then fails
        Path(out).mkdir(parents=True, exist_ok=True)
    # in input order; the first failing input ends the command before any
    # later input is read
    reports = [_analysis_report(path, args.zero_tol, args.row_sum_tol) for path in paths]
    if out:
        for name, report in zip(names, reports):
            (Path(out) / name).write_text(_dump(report, args.pretty) + "\n")
    else:
        _print_report(_dump(reports, args.pretty))
    return 0


def cmd_contractivity(args) -> int:
    A = io.load_matrix(args.matrix)
    log.info("loaded matrix %s: n = %d", args.matrix, A.n)
    norm = _norm_from_args(args)
    rep = contractivity(A, norm, args.row_sum_tol)
    _log_method(rep)
    doc = dict(rep.to_json(), input=str(args.matrix))
    if rep.is_bound_only:  # the ratio at one x brackets c from below
        doc["lower_bound"] = attained_lower_bound(A, norm)
    _emit(doc, args)
    return 0


def cmd_product(args) -> int:
    from . import products

    seq = io.load_sequence(args.sequence)
    if seq.items is None:
        raise io.InputError(f"{args.sequence}: product needs a finite list of matrices")
    _log_sequence(args.sequence, seq)
    norm = _norm_from_args(args)
    c_values = coefficients(seq.items, norm, args.row_sum_tol)  # raises naming an item
    full, rep = products._product_report(seq.items, norm, args.row_sum_tol)
    running = np.cumprod(c_values)
    _log_method(rep)
    doc = {
        "input": str(args.sequence),
        "norm": args.norm,
        "length": len(seq.items),
        "c_exact": rep.c,
        # the last running product is the product of the factor coefficients
        "c_bound": running[-1],
        "per_item_c": c_values,
        "running_products": running,
        "product_numerically_zero": bool(running[-1] < products.PRODUCT_ZERO_THRESHOLD),
        "product_scrambling": is_scrambling(full, args.zero_tol),
    }
    _emit(doc, args)
    return 0


def cmd_ergodicity(args) -> int:
    from . import products

    seq = io.load_sequence(args.sequence)
    _log_sequence(args.sequence, seq)
    norm = _norm_from_args(args)
    report = products.weak_ergodicity_diagnostic(
        seq, horizon=args.horizon, block_len=args.block_len, norm=norm,
        row_sum_tol=args.row_sum_tol)
    log.info("horizon %d, block_len %d, anchors %s",
             report.horizon, report.block_len, list(report.anchors))
    log.info("verdict: %s", report.verdict)
    doc = {"input": str(args.sequence), "norm": args.norm}
    doc.update(report.to_json())
    _emit(doc, args)
    return 0


def _text12(values: np.ndarray) -> list[str]:
    """Each value of a float array at 12 significant digits."""
    return [format(v, ".12g") for v in values.tolist()]


def _tokens(values: np.ndarray, text: list[str]) -> list[str]:
    """The JSON token _dump writes for each value, given its _text12
    string: the float the string spells, or null if that is not finite.
    Where the value is normal and below 1e12 and the string holds a point
    or a negative exponent, the string already is that float's repr (the
    two choose the same notation there, and repr writes 5 as 5.0), so it
    is its own token.  Each other distinct string is converted once."""
    size = np.abs(values)
    plain = ((size >= 2.3e-308) & (size < 1e12)).tolist()
    other = {s for s, ok in zip(text, plain) if not (ok and ("." in s or "e-" in s))}
    if not other:
        return text
    other = {s: "null" if s.endswith(("inf", "nan")) else json.dumps(float(s)) for s in other}
    return [other.get(s, s) for s in text]


def _write_trace(trace: SimTrace, jsonl_path, csv_path, full_state: bool) -> None:
    """Write the simulate trace as JSONL and/or CSV, whichever has a path.

    Each distance and bound is formatted once at 12 significant digits.
    The CSV holds those strings; the JSONL holds their _tokens, the float
    each spells as _dump renders it.  A JSONL line has the keys bound
    (absent without an envelope), d, k and, with full_state, x, in that
    order; the x row of a record is rendered as the record is written.
    """
    if not (jsonl_path or csv_path):
        return
    records = len(trace.distances)
    d_text = _text12(trace.distances)
    b_text = None if trace.bound is None else _text12(trace.bound)
    if jsonl_path:
        columns = [_tokens(trace.distances, d_text), range(records)]
        template = '"d": %s, "k": %d'
        if b_text is not None:
            columns.insert(0, _tokens(trace.bound, b_text))
            template = '"bound": %s, ' + template
        if full_state:
            columns.append("[" + ", ".join(_tokens(row, _text12(row))) + "]"
                           for row in trace.states)
            template += ', "x": %s'
        template = "{" + template + "}\n"
        with open(jsonl_path, "w") as fh:
            fh.writelines(template % rec for rec in zip(*columns))
        log.info("wrote JSONL trace %s (%d records)", jsonl_path, records)
    if csv_path:
        bounds = repeat("") if b_text is None else b_text
        with open(csv_path, "w") as fh:
            fh.write("k,d,bound\n")
            fh.writelines(f"{k},{d},{b}\n" for k, d, b in zip(range(records), d_text, bounds))
        log.info("wrote CSV trace %s (%d records)", csv_path, records)


def cmd_simulate(args) -> int:
    from . import cml

    seq, mp, x0, steps, norm = io.load_simulation(args.config)
    trace = cml.simulate(seq, mp, x0, steps, norm=norm, sync_tol=args.sync_tol,
                         row_sum_tol=args.row_sum_tol)
    if trace.synchronized_at is not None:
        log.info("synchronized at step %d (distance < %g)", trace.synchronized_at, args.sync_tol)
    if trace.envelope_valid_until is not None:
        log.info("envelope void from step %d: the state left the map domain",
                 trace.envelope_valid_until)
    if trace.diverged:
        log.info("diverged: state %d is not finite; the trace stops before it",
                 len(trace.distances))
    if log.isEnabledFor(logging.DEBUG):  # one line per record
        bounds = repeat("none") if trace.bound is None else _text12(trace.bound)
        for k, (d, b) in enumerate(zip(_text12(trace.distances), bounds)):
            log.debug("record %d: d %s, bound %s", k, d, b)
    _write_trace(trace, args.output, args.csv, args.full_state)
    summary = dict(trace.summary(), input=str(args.config))
    if summary["synchronized_at"] is None:
        summary["note"] = "not synchronized within horizon"
    _print_report(_dump(summary, args.pretty))
    return 0


def cmd_decompose(args) -> int:
    A = io.load_matrix(args.matrix)
    x = io.load_vector(args.vector)
    log.info("loaded matrix %s: n = %d, vector %s: n = %d",
             args.matrix, A.n, args.vector, x.size)
    dec = decompose_affine(A, x, args.row_sum_tol)
    residual = float(np.abs(dec.B.a @ x + dec.xstar - A.a @ x).max())
    log.info("residual max |B x + x* - A x| = %.3g", residual)
    doc = {
        "input": str(args.matrix),
        "B": dec.B.a,
        "xstar": dec.xstar,
        "B_scrambling": is_scrambling(dec.B, args.zero_tol),
        "B_stochastic": is_stochastic(dec.B),
        "residual_linf": residual,
    }
    _emit(doc, args)
    return 0


def cmd_reproduce(args) -> int:
    from . import reference

    rows = reference.run_reference_checks()
    passed = sum(r["pass"] for r in rows)
    log.info("%d of %d reference checks passed", passed, len(rows))
    doc = {"checks": rows, "all_pass": passed == len(rows)}
    _emit(doc, args)
    return 0 if doc["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contractlab",
        description="Set-contractivity analysis of constant row sum matrices "
                    "and coupled map lattice simulation")
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    parser.add_argument("--output", help="write the report to a file instead of stdout")
    parser.add_argument("--zero-tol", type=float, default=DEFAULT_ZERO_TOL,
                        help="structural-zero threshold")
    parser.add_argument("--row-sum-tol", type=float, default=DEFAULT_ROW_SUM_TOL,
                        help="constant row sum tolerance")
    sub = parser.add_subparsers(dest="command", required=True)
    norm = argparse.ArgumentParser(add_help=False)
    norm.add_argument("--norm", choices=KINDS, default="linf")
    norm.add_argument("--weights", help="weight vector: file path or comma-separated list")

    p = sub.add_parser("analyze", help="structural and coefficient report for matrices")
    p.add_argument("matrix", nargs="+")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("contractivity", parents=[norm], help="coefficient under a chosen norm")
    p.add_argument("matrix")
    p.set_defaults(func=cmd_contractivity)

    p = sub.add_parser("product", parents=[norm],
                       help="coefficient of a matrix product vs the factor bound")
    p.add_argument("sequence", help="sequence spec file")
    p.set_defaults(func=cmd_product)

    p = sub.add_parser("ergodicity", parents=[norm],
                       help="finite-horizon weak-ergodicity diagnostic")
    p.add_argument("sequence")
    p.add_argument("--horizon", type=int, default=100)
    p.add_argument("--block-len", type=int, default=None)
    p.set_defaults(func=cmd_ergodicity)

    p = sub.add_parser("simulate", help="run a coupled map lattice from a config file")
    p.add_argument("config", help="JSON config: matrix or sequence, map, x0, and optional "
                                  "steps (default 100), norm (default linf) and weights; "
                                  "any other field exits 2")
    p.add_argument("--sync-tol", type=float, default=DEFAULT_SYNC_TOL)
    p.add_argument("--csv", help="also write a (k, d, bound) CSV")
    p.add_argument("--full-state", action="store_true",
                   help="include full state vectors in the trace")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("decompose", help="affine stochastic decomposition at a point")
    p.add_argument("matrix")
    p.add_argument("vector")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("reproduce-paper",
                       help="check the bundled reference values")
    p.set_defaults(func=cmd_reproduce)
    return parser


def _check_tolerances(args) -> None:
    """Every tolerance flag the command has is a finite number >= 0: NaN
    compares false to everything, and an infinite one accepts anything."""
    for name in ("zero_tol", "row_sum_tol", "sync_tol"):
        tol = getattr(args, name, 0.0)
        if not 0 <= tol < math.inf:
            flag = "--" + name.replace("_", "-")
            raise io.InputError(f"{flag} must be finite and >= 0, got {tol}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        level = os.environ.get("CONTRACTLAB_LOG", "WARNING")
        if level.upper() not in LOG_LEVELS:
            raise io.InputError(f"CONTRACTLAB_LOG must be one of {', '.join(LOG_LEVELS)}, "
                                f"got {level!r}")
        logging.basicConfig(level=level.upper())
        _check_tolerances(args)
        # a finite entry near the float limit overflows in a sum or a
        # difference; the reports render the result as null
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    # LinAlgError subclasses ValueError, so it has to be caught first.
    except np.linalg.LinAlgError as exc:
        _print_error(f"numerical failure: {exc}")
        return EXIT_NUMERICAL_ERROR
    except (ValueError, OSError) as exc:
        _print_error(f"error: {exc}")
        return EXIT_INPUT_ERROR
    except MemoryError as exc:  # an input too large, e.g. 10**15 simulate steps
        _print_error(f"error: out of memory. {exc}".rstrip())
        return EXIT_INPUT_ERROR


def _observed() -> bool:
    """True under a profiler, tracer or debugger, or with python -i: each
    acts after the module returns, e.g. cProfile prints its stats then.
    Since Python 3.12 cProfile registers with sys.monitoring instead of
    setting sys.getprofile()."""
    monitoring = getattr(sys, "monitoring", None)
    return bool(sys.getprofile() or sys.gettrace() or sys.flags.inspect
                or (monitoring and any(map(monitoring.get_tool, range(6)))))  # ids 0-5


def run() -> None:
    """Run main() as a whole process and end it with its exit code.

    The exit handlers (logging.shutdown, coverage and the like) run and
    stdout and stderr are flushed, as at interpreter shutdown; then
    os._exit ends the process without tearing down modules and objects.
    A stdout that cannot be flushed, such as a pipe whose reader has
    gone, is an input error reported in one line; a stderr that cannot
    be flushed drops its lines, as in _print_error.  Observed processes
    (see _observed) and exceptions out of main end the usual way.
    """
    code = main()
    if _observed():
        sys.exit(code)
    atexit._run_exitfuncs()
    # a stream is None when its descriptor was closed at start-up
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        _print_error(f"error: {exc}")
        code = EXIT_INPUT_ERROR
    with contextlib.suppress(OSError):
        if sys.stderr is not None:
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
