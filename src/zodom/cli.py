"""Command-line front end: deterministic key=value reports on stdout.

Exit codes: 0 success (or verdict YES), 1 verdict NO, 2 verdict UNKNOWN,
64 usage error, 65 malformed input (syntax errors carry the byte offset),
70 any other failure: a run that ran out of memory or recursion depth, or
any other uncaught exception, reported on an ``error=`` line.

``main`` alone maps input errors to exit 65; a verb raises ``InputError``
only to add context.  Option rationals are read by the DSL's grammar.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import gdsl
from .classify import NotFreeError, decide
from .cohomology import build_cocycle, coinvariants, tau1
from .gdsl import (
    BadDenominatorError,
    DimensionMismatchError,
    GdslSyntaxError,
    format_mat,
    format_rat,
    format_vec,
    print_expr,
)
from .hgroup import (
    NotSupergroupError,
    _levels,
    equal_h,
    is_free,
    member_h,
    superindex,
    tower,
)
from .linalg import FactorBudgetError, Lattice, Mat, SingularMatrixError
from .odometer import TowerSystem, measure_cylinder, metric, spectrum
from .rigid import K1_DEVIATION, RigidProgram, dual_ball_trivial, verify_cyclicity, verify_exercises, verify_torsion_bound
from .verify import DEFAULT_SEED, run_paper_suite

EX_USAGE = 64
EX_DATA = 65
EX_SOFTWARE = 70


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    """argparse type for depths, heights, step and level counts (at least 1)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(key, value):
    print(f"{key}={value}")


class InputError(Exception):
    """Malformed input; ``main`` prints its message on an ``error=`` line."""


# raised only while input is read, parsed, elaborated or checked for freeness
_INPUT_ERRORS = (InputError, BadDenominatorError, DimensionMismatchError, FactorBudgetError,
                 NotFreeError, NotSupergroupError, SingularMatrixError)


def _load_expr(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 at byte {exc.start}")
    return gdsl.parse(text)


def _load_group(path: str):
    return gdsl.elaborate(_load_expr(path))


def _parse_vector(text: str):
    try:
        pairs = gdsl.parse_vector(text)
    except GdslSyntaxError as exc:
        raise InputError(f"bad vector {text!r}: {exc}")
    return tuple(Fraction(n, d) for n, d in pairs)


def _parse_matrix(text: str) -> Mat:
    try:
        return gdsl.parse_matrix(text.strip())
    except (GdslSyntaxError, DimensionMismatchError) as exc:
        raise InputError(f"bad matrix {text!r}: {exc}")


def _emit_presentation(h, prefix=""):
    _emit(prefix + "dimension", h.d)
    _emit(prefix + "support", ",".join(str(p) for p in h.support()) or "none")
    for e in h.entries:
        key = f"{prefix}local_{e.p}"
        _emit(f"{key}.rank", e.r)
        _emit(
            f"{key}.divisible",
            ";".join(format_vec(w) for w in e.vspan) or "none",
        )
        _emit(f"{key}.lattice", format_mat(e.lattice.basis()))


# ---------------------------------------------------------------------------
# subcommands


def _cmd_parse(args):
    expr = _load_expr(args.file)
    d = gdsl.expr_dimension(expr)
    _emit("expr", print_expr(expr))
    _emit("dimension", d)
    return 0


def _cmd_canon(args):
    _emit_presentation(_load_group(args.file))
    return 0


def _cmd_member(args):
    h = _load_group(args.file)
    v = _parse_vector(args.vector)
    if len(v) != h.d:
        raise InputError(f"vector dimension {len(v)} != {h.d}")
    _emit("member", "true" if member_h(v, h) else "false")
    return 0


def _cmd_equal(args):
    a, b = _load_group(args.file_a), _load_group(args.file_b)
    _emit("equal", "true" if equal_h(a, b) else "false")
    return 0


def _cmd_superindex(args):
    _emit("superindex", str(superindex(_load_group(args.file))))
    return 0


def _cmd_free(args):
    _emit("free", "true" if is_free(_load_group(args.file)) else "false")
    return 0


def _cmd_tower(args):
    t = tower(_load_group(args.file), args.depth)
    for n in range(1, t.depth + 1):
        _emit(f"level_{n}", format_mat(t.levels[n - 1].basis()))
        _emit(f"dual_{n}", format_mat(t.duals[n - 1].basis()))
        _emit(f"index_{n}", t.index_at(n))
    return 0


def _cmd_simulate(args):
    h = _load_group(args.file)
    t = tower(h, args.depth)
    sys_ = TowerSystem(t)
    _emit("depth", args.depth)
    _emit("card", t.index_at(args.depth))
    _emit("measure", format_rat(measure_cylinder(t, args.depth)))
    start = sys_.zero()
    pos = start
    units = [tuple(1 if i == j else 0 for i in range(h.d)) for j in range(h.d)]
    for k in range(1, args.steps + 1):
        pos = sys_.act(units[(k - 1) % h.d], pos)
        _emit(f"step_{k}", format_vec(pos.cosets[-1]))
    _emit("metric_from_start", format_rat(metric(start, pos)))
    return 0


def _cmd_spectrum(args):
    eigs = spectrum(_load_group(args.file), args.height)
    _emit("count", len(eigs))
    for k, ev in enumerate(eigs, 1):
        _emit(f"ev_{k}", format_vec(ev))
    return 0


def _lattice_from_rows(text: str) -> Lattice:
    """Lattice generated by the listed row vectors, e.g. "[2,1;0,3]"."""
    m = _parse_matrix(text)
    return Lattice.from_span(m.d, list(m.rows))


def _cmd_dual(args):
    lat = _lattice_from_rows(args.lattice)
    # canonical generators back out as rows, matching the input convention
    _emit("dual", format_mat(lat.dual().basis().transpose()))
    return 0


def _cmd_tau(args):
    lat = _lattice_from_rows(args.lattice)
    try:
        theta = build_cocycle(lat, _parse_vector(args.h))
    except ValueError as exc:
        raise InputError(str(exc))
    _emit("tau", format_vec(tau1(theta)))
    return 0


def _cmd_h1(args):
    h = _load_group(args.file)
    levels = list(_levels(h, args.depth))
    _emit_presentation(h, prefix="h1_")
    for n, level in enumerate(levels, 1):
        _emit(f"level_{n}", format_mat(level.basis()))
    return 0


def _cmd_coinv(args):
    s = coinvariants(_load_group(args.file), verify_depth=args.depth)
    _emit("coinvariants", str(s))
    _emit("verified_levels", args.depth)
    return 0


def _cmd_classify(args):
    a, b = _load_group(args.file_a), _load_group(args.file_b)
    verdict = decide(args.relation, a, b, bound=args.bound, all_witnesses=args.all_witnesses)
    _emit("relation", args.relation)
    if verdict.witness is not None:
        _emit("witness", format_mat(verdict.witness))
    if args.all_witnesses and verdict.witnesses:
        _emit("witness_count", len(verdict.witnesses))
        for k, w in enumerate(verdict.witnesses, 1):
            _emit(f"witness_{k}", format_mat(w))
    if verdict.certificate is not None:
        _emit("certificate", verdict.certificate)
    for flag in verdict.flags:
        _emit("flag", flag)
    _emit("verdict", verdict.answer)
    return verdict.exit_code()


def _cmd_rigid(args):
    prog = RigidProgram().extend(args.levels)
    _emit("deviation", K1_DEVIATION)
    for n, lvl in enumerate(prog.levels, 1):
        _emit(f"level_{n}.a", lvl.a)
        _emit(f"level_{n}.b", lvl.b)
        _emit(f"level_{n}.det", lvl.det)
        _emit(f"level_{n}.k_constant", lvl.k_constant)
    if args.verify:
        for n in range(1, args.levels + 1):
            report = verify_exercises(prog, n)
            for item in range(1, 6):
                _emit(f"level_{n}.exercise_{item}", "pass" if report[f"item{item}"] else "fail")
            if report["item2_deviation"]:
                _emit(
                    f"level_{n}.exercise_2_note",
                    "as-written vectors (a,-1),(-1,b) fail; adjugate rows (b,-1),(-1,a) verified",
                )
            _emit(f"level_{n}.norm_bound", "pass" if verify_torsion_bound(prog, n) else "fail")
            _emit(f"level_{n}.dual_ball", "pass" if dual_ball_trivial(prog, n) else "fail")
        ys = sorted(
            (x, y)
            for x in range(-args.levels, args.levels + 1)
            for y in range(-args.levels, args.levels + 1)
            if 0 < abs(x) + abs(y) <= args.levels
        )
        ok = all(verify_cyclicity(prog, y, args.levels) for y in ys)
        _emit("cyclicity", "pass" if ok else "fail")
    return 0


def _cmd_verify(args):
    if args.suite != "paper":
        raise InputError(f"unknown suite {args.suite!r}")
    results = run_paper_suite(args.seed)
    for r in results:
        print(r.line())
        _emit(f"criterion_{r.number:02d}_detail", r.detail)
    ok = all(r.ok for r in results)
    _emit("verdict", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> _ArgumentParser:
    top = _ArgumentParser(prog="zodom", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        return p

    add("parse", _cmd_parse, "parse a group file, print canonical text").add_argument("file")
    add("canon", _cmd_canon, "canonical local presentation").add_argument("file")
    p = add("member", _cmd_member, "membership of a rational vector")
    p.add_argument("file")
    p.add_argument("--vector", required=True, help='e.g. "1/5,1/5"')
    p = add("equal", _cmd_equal, "equality of two groups")
    p.add_argument("file_a")
    p.add_argument("file_b")
    add("superindex", _cmd_superindex, "superindex as a supernatural number").add_argument("file")
    add("free", _cmd_free, "freeness (density) of the odometer").add_argument("file")
    p = add("tower", _cmd_tower, "approximating tower and dual chain")
    p.add_argument("file")
    p.add_argument("--depth", type=_positive_int, default=4)
    p = add("simulate", _cmd_simulate, "walk the finite approximant")
    p.add_argument("file")
    p.add_argument("--depth", type=_positive_int, default=4)
    p.add_argument("--steps", type=_positive_int, default=8)
    p = add("spectrum", _cmd_spectrum, "rational eigenvalues up to a height")
    p.add_argument("file")
    p.add_argument("--height", type=_positive_int, default=4)
    p = add("dual", _cmd_dual, "dual lattice of a rational lattice")
    p.add_argument("--lattice", required=True, help='e.g. "[2,1;0,3]"')
    p = add("tau", _cmd_tau, "trace of the explicit cocycle for (G, h)")
    p.add_argument("--lattice", required=True)
    p.add_argument("--h", required=True, help='dual vector, e.g. "1/2,0"')
    p = add("h1", _cmd_h1, "first cohomology presentation")
    p.add_argument("file")
    p.add_argument("--depth", type=_positive_int, default=4)
    p = add("coinv", _cmd_coinv, "co-invariants with level verification")
    p.add_argument("file")
    p.add_argument("--depth", type=_positive_int, default=3)
    p = add("classify", _cmd_classify, "decide one of the four equivalences")
    p.add_argument("--relation", required=True, choices=["conj", "iso", "coe", "oe"])
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--bound", type=_positive_int, default=20)
    p.add_argument("--all-witnesses", action="store_true")
    p = add("rigid", _cmd_rigid, "inductive rigid construction")
    p.add_argument("--levels", type=_positive_int, default=3)
    p.add_argument("--verify", action="store_true")
    p = add("verify", _cmd_verify, "run an acceptance suite")
    p.add_argument("--suite", default="paper")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # argparse stores an option value of exactly "--" as [], unconverted
        for key, value in vars(args).items():
            if value == []:
                parser.error(f"argument --{key}: expected one argument")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        return args.fn(args)
    except GdslSyntaxError as exc:
        _emit("error", "syntax")
        _emit("offset", exc.offset)
        _emit("expected", exc.expected)
        return EX_DATA
    except _INPUT_ERRORS as exc:
        _emit("error", str(exc))
        return EX_DATA
    except Exception as exc:
        # MemoryError, RecursionError or a defect: Python's default handler
        # would print a traceback and exit 1, which means NO
        _emit("error", f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
