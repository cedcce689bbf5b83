"""Textual DSL for subgroups of Q^d, plus the key=value report format.

Grammar (normative; whitespace-insensitive, ``#`` comments to end of line)::

    group := item ("+" item)*
    item  := "oplus(" comp ("," comp)* ")"
           | "gen(" rat ("," rat)* ")"
           | "mat(" rows ")" "*" group
    comp  := "Z" | "Z[1/" nat "]"
    rat   := int ("/" nat)?
    rows  := "[" row (";" row)* "]"
    row   := rat ("," rat)*

``Z[1/n]`` with composite n inverts every prime factor of n, so
``Z[1/15] = Z[1/3, 1/5]``; the exponent of n is irrelevant.  ``mat`` applies
to the whole remainder of the expression after ``*``.  Syntax errors carry
the byte offset of the failure.
Three entry points each read one rule from a whole input: ``parse`` a
``group``, ``parse_vector`` a ``row`` and ``parse_matrix`` a ``rows``.
"""

from __future__ import annotations

import sys
from math import gcd, lcm

from .hgroup import HGroup, apply_matrix
from .linalg import Mat, Record, SingularMatrixError, factorint, ratio_text


class GdslSyntaxError(ValueError):
    def __init__(self, offset: int, expected: str):
        self.offset = offset
        self.expected = expected
        super().__init__(f"syntax error at offset {offset}: expected {expected}")


class DimensionMismatchError(ValueError):
    pass


class BadDenominatorError(ValueError):
    pass


# ---------------------------------------------------------------------------
# AST


class ZComp(Record):
    __slots__ = ("inv",)

    def __init__(self, inv: int = 1):
        self.inv = inv  # 1 means plain Z, n >= 2 means Z[1/n]


class Oplus(Record):
    __slots__ = ("comps",)

    def __init__(self, comps: tuple):
        self.comps = comps


class Gen(Record):
    __slots__ = ("den", "num")

    def __init__(self, den: int, num: tuple):
        self.den = den  # num / den in lowest terms, a (den, num) pair of local_data
        self.num = num


class MatExpr(Record):
    __slots__ = ("mat", "operand")

    def __init__(self, mat: Mat, operand: object):
        self.mat = mat
        self.operand = operand


class SumExpr(Record):
    __slots__ = ("items",)

    def __init__(self, items: tuple):
        self.items = items


GroupExpr = object  # any of the node classes above


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, expected: str):
        raise GdslSyntaxError(self._byte_offset(self.pos), expected)

    def _byte_offset(self, pos: int) -> int:
        return len(self.text[:pos].encode("utf-8"))

    def skip_ws(self):
        t, n = self.text, len(self.text)
        while self.pos < n:
            c = t[self.pos]
            if c == "#":
                while self.pos < n and t[self.pos] != "\n":
                    self.pos += 1
            elif c.isspace():
                self.pos += 1
            else:
                break

    def literal(self, s: str):
        self.skip_ws()
        if not self.text.startswith(s, self.pos):
            self.error(repr(s))
        self.pos += len(s)

    def try_literal(self, s: str) -> bool:
        self.skip_ws()
        if self.text.startswith(s, self.pos):
            self.pos += len(s)
            return True
        return False

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            self.error("digit")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # longer than Python's int conversion limit
            limit = sys.get_int_max_str_digits()
            raise GdslSyntaxError(self._byte_offset(start), f"at most {limit} digits") from None

    def rat(self) -> tuple[int, int]:
        """A rational literal as the integer pair (num, den), den > 0, not
        necessarily in lowest terms."""
        self.skip_ws()
        sign = 1
        if self.try_literal("-"):
            sign = -1
        num = self.nat()
        if self.try_literal("/"):
            at = self.pos
            den = self.nat()
            if den == 0:
                raise GdslSyntaxError(self._byte_offset(at), "nonzero denominator")
            return sign * num, den
        return sign * num, 1

    def comp(self) -> ZComp:
        self.skip_ws()
        at = self.pos
        self.literal("Z")
        if self.try_literal("["):
            self.literal("1/")
            n = self.nat()
            self.literal("]")
            if n < 2:
                raise BadDenominatorError(
                    f"Z[1/{n}] at offset {self._byte_offset(at)}: inverted modulus must be >= 2"
                )
            return ZComp(n)
        return ZComp(1)

    def rows(self) -> Mat:
        self.literal("[")
        rows = [self.row()]
        while self.try_literal(";"):
            rows.append(self.row())
        self.literal("]")
        if any(len(r) != len(rows) for r in rows):
            raise DimensionMismatchError("matrix must be square")
        den = lcm(*(q for row in rows for _, q in row))
        return Mat([[n * (den // q) for n, q in row] for row in rows], den)

    def row(self) -> list[tuple[int, int]]:
        out = [self.rat()]
        while self.try_literal(","):
            out.append(self.rat())
        return out

    def item(self):
        self.skip_ws()
        if self.try_literal("oplus("):
            comps = [self.comp()]
            while self.try_literal(","):
                comps.append(self.comp())
            self.literal(")")
            return Oplus(tuple(comps))
        if self.try_literal("gen("):
            entries = self.row()
            self.literal(")")
            den = lcm(*(q for _, q in entries))
            num = [n * (den // q) for n, q in entries]
            g = gcd(den, *num)
            return Gen(den // g, tuple(n // g for n in num))
        if self.try_literal("mat("):
            m = self.rows()
            self.literal(")")
            self.literal("*")
            return MatExpr(m, self.group())
        self.error("'oplus(', 'gen(' or 'mat('")

    def group(self):
        items = [self.item()]
        while self.try_literal("+"):
            items.append(self.item())
        return items[0] if len(items) == 1 else SumExpr(tuple(items))


def _whole(text: str, rule):
    """rule read from a parser of text, which it must consume entirely."""
    p = _Parser(text)
    out = rule(p)
    p.skip_ws()
    if p.pos != len(p.text):
        p.error("end of input")
    return out


def parse(text: str) -> GroupExpr:
    """Parse a group expression; one expression per input."""
    return _whole(text, _Parser.group)


def parse_vector(text: str) -> list[tuple[int, int]]:
    """Parse ``rat ("," rat)*`` into the (num, den) pairs of ``_Parser.rat``."""
    return _whole(text, _Parser.row)


def parse_matrix(text: str) -> Mat:
    """Parse ``rows``, a square rational matrix."""
    return _whole(text, _Parser.rows)


# ---------------------------------------------------------------------------
# elaboration


def expr_dimension(e) -> int:
    if isinstance(e, Oplus):
        return len(e.comps)
    if isinstance(e, Gen):
        return len(e.num)
    if isinstance(e, MatExpr):
        d = expr_dimension(e.operand)
        if e.mat.d != d:
            raise DimensionMismatchError(
                f"matrix is {e.mat.d}x{e.mat.d} but operand has dimension {d}"
            )
        if e.mat.det() == 0:
            raise SingularMatrixError("matrix must be invertible")
        return d
    if isinstance(e, SumExpr):
        dims = {expr_dimension(i) for i in e.items}
        if len(dims) != 1:
            raise DimensionMismatchError(f"summands have mixed dimensions {sorted(dims)}")
        return dims.pop()
    raise TypeError(f"not a group expression: {e!r}")


def elaborate(e) -> HGroup:
    """Local presentation denoted by the expression, built once from the
    generators of all summands; only a ``mat`` operand is built on its own,
    since ``apply_matrix`` tests Z^d <= a.H against its rows.  The
    dimensions and determinants are checked once, by ``expr_dimension`` on
    the whole expression."""
    return _build(e, expr_dimension(e))


def _build(e, d: int) -> HGroup:
    if isinstance(e, MatExpr):
        return apply_matrix(e.mat, _build(e.operand, d))
    data: dict[int, tuple[list, list]] = {}
    _collect(e, d, data)
    return HGroup.from_local_data(d, data)


def _collect(e, d: int, data) -> None:
    """Add the generators of e to data = {p: (gens, divisible_gens)}, the
    format of ``HGroup.from_local_data``: a unit vector per inverted prime
    of an ``oplus`` component, a ``gen`` as its integer pair (den, num) at
    each prime of den, the local data of a ``mat`` image."""
    if isinstance(e, Oplus):
        for i, comp in enumerate(e.comps):
            if comp.inv == 1:
                continue
            unit = tuple(int(j == i) for j in range(d))
            for p in factorint(comp.inv):
                data.setdefault(p, ([], []))[1].append(unit)
    elif isinstance(e, Gen):
        for p in factorint(e.den):
            data.setdefault(p, ([], []))[0].append((e.den, e.num))
    elif isinstance(e, MatExpr):
        for p, (lat, div) in _build(e, d).local_data().items():
            slot = data.setdefault(p, ([], []))
            slot[0].extend(lat)
            slot[1].extend(div)
    else:  # SumExpr; expr_dimension has rejected anything else
        for item in e.items:
            _collect(item, d, data)


def parse_group(text: str) -> HGroup:
    return elaborate(parse(text))


# ---------------------------------------------------------------------------
# printer (canonical text)


def print_expr(e) -> str:
    if isinstance(e, Oplus):
        comps = ", ".join("Z" if c.inv == 1 else f"Z[1/{c.inv}]" for c in e.comps)
        return f"oplus({comps})"
    if isinstance(e, Gen):
        return f"gen({', '.join(ratio_text(n, e.den) for n in e.num)})"
    if isinstance(e, MatExpr):
        return f"{format_mat(e.mat)} * {print_expr(e.operand)}"
    if isinstance(e, SumExpr):
        return " + ".join(print_expr(i) for i in e.items)
    raise TypeError(f"not a group expression: {e!r}")


# ---------------------------------------------------------------------------
# report format: line-oriented key=value, bit-exact rationals


def format_rat(x) -> str:
    """Text of an int or Fraction x, printed from its numerator and
    denominator; no Fraction is built."""
    return ratio_text(x.numerator, x.denominator)


def format_vec(v) -> str:
    return "(" + ", ".join(format_rat(x) for x in v) + ")"


def format_mat(m: Mat) -> str:
    """``mat([...])`` text of m, each entry printed from its integer over
    m.den; no Fraction is built."""
    body = ";".join(",".join(ratio_text(x, m.den) for x in row) for row in m.num)
    return f"mat([{body}])"
