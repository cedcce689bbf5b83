"""Command-line front end: deterministic key=value reports on stdout.

Exit codes: 0 success (or verdict YES), 1 verdict NO, 2 verdict UNKNOWN,
64 usage error, 65 malformed input (syntax errors carry the byte offset).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import gdsl
from .classify import NotFreeError, decide
from .cohomology import build_cocycle, coinvariants, h1_presentation, tau1
from .gdsl import (
    BadDenominatorError,
    DimensionMismatchError,
    GdslSyntaxError,
    format_mat,
    format_rat,
    format_supernatural,
    format_vec,
    print_expr,
)
from .hgroup import (
    DepthExceededError,
    UnsupportedPresentationError,
    equal_h,
    is_free,
    member_h,
    superindex,
    tower,
)
from .linalg import Lattice, Mat, NotSublatticeError, SingularMatrixError
from .odometer import TowerSystem, measure_cylinder, metric, spectrum
from .rigid import K1_DEVIATION, RigidProgram, dual_ball_trivial, verify_cyclicity, verify_exercises, verify_torsion_bound
from .verify import DEFAULT_SEED, run_paper_suite

EX_USAGE = 64
EX_DATA = 65


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    """argparse type for depths, heights and level counts (at least 1)."""
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
    def __init__(self, lines):
        self.lines = lines
        super().__init__(lines[0][1] if lines else "bad input")


def _load_expr(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError([("error", f"cannot read {path}: {exc.strerror}")])
    try:
        return gdsl.parse(text)
    except GdslSyntaxError as exc:
        raise InputError(
            [("error", "syntax"), ("offset", exc.offset), ("expected", exc.expected)]
        )
    except (BadDenominatorError, DimensionMismatchError) as exc:
        raise InputError([("error", str(exc))])


def _load_group(path: str):
    expr = _load_expr(path)
    try:
        return gdsl.elaborate(expr)
    except (DimensionMismatchError, SingularMatrixError) as exc:
        raise InputError([("error", str(exc))])


def _parse_vector(text: str):
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError([("error", f"bad vector {text!r}: {exc}")])


def _parse_matrix(text: str) -> Mat:
    parser = gdsl._Parser(text.strip())
    try:
        m = parser.rows()
        parser.skip_ws()
        if parser.pos != len(parser.text):
            parser.error("end of input")
        return m
    except (GdslSyntaxError, DimensionMismatchError) as exc:
        raise InputError([("error", f"bad matrix {text!r}: {exc}")])


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
    _emit("expr", print_expr(expr))
    _emit("dimension", gdsl.expr_dimension(expr))
    return 0


def _cmd_canon(args):
    _emit_presentation(_load_group(args.file))
    return 0


def _cmd_member(args):
    h = _load_group(args.file)
    v = _parse_vector(args.vector)
    if len(v) != h.d:
        raise InputError([("error", f"vector dimension {len(v)} != {h.d}")])
    _emit("member", "true" if member_h(v, h) else "false")
    return 0


def _cmd_equal(args):
    a, b = _load_group(args.file_a), _load_group(args.file_b)
    _emit("equal", "true" if a.d == b.d and equal_h(a, b) else "false")
    return 0


def _cmd_superindex(args):
    _emit("superindex", format_supernatural(superindex(_load_group(args.file))))
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
    try:
        return Lattice.from_span(m.d, list(m.rows))
    except SingularMatrixError as exc:
        raise InputError([("error", str(exc))])


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
        raise InputError([("error", str(exc))])
    _emit("tau", format_vec(tau1(theta)))
    return 0


def _cmd_h1(args):
    res = h1_presentation(_load_group(args.file), depth=args.depth)
    _emit_presentation(res.group, prefix="h1_")
    for n in range(1, res.tower.depth + 1):
        _emit(f"level_{n}", format_mat(res.tower.levels[n - 1].basis()))
    return 0


def _cmd_coinv(args):
    s = coinvariants(_load_group(args.file), verify_depth=args.depth)
    _emit("coinvariants", format_supernatural(s))
    _emit("verified_levels", args.depth)
    return 0


def _cmd_classify(args):
    a, b = _load_group(args.file_a), _load_group(args.file_b)
    try:
        verdict = decide(
            args.relation, a, b, bound=args.bound, all_witnesses=args.all_witnesses
        ) if args.relation in ("iso", "coe") else decide(args.relation, a, b)
    except NotFreeError as exc:
        raise InputError([("error", str(exc))])
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
        raise InputError([("error", f"unknown suite {args.suite!r}")])
    results = run_paper_suite(args.seed)
    for r in results:
        print(r.line())
        _emit(f"criterion_{r.number:02d}_detail", r.detail)
    ok = all(r.ok for r in results)
    _emit("verdict", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------


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
    p.add_argument("--steps", type=int, default=8)
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
    p.add_argument("--bound", type=int, default=20)
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
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EX_USAGE
    try:
        return args.fn(args)
    except InputError as exc:
        for key, value in exc.lines:
            _emit(key, value)
        return EX_DATA
    except (
        NotSublatticeError,
        SingularMatrixError,
        UnsupportedPresentationError,
        DepthExceededError,
    ) as exc:
        _emit("error", str(exc))
        return EX_DATA


if __name__ == "__main__":
    sys.exit(main())
