"""Oracles used only by the tests: the index of nested lattices, block
(direct) sums of lattices and of groups, and matrices from columns and the
unimodularity test."""

from fractions import Fraction
from math import prod

from zodom.hgroup import HGroup
from zodom.linalg import Lattice, Mat


def index(sub: Lattice, sup: Lattice) -> int:
    """[sup : sub] for nested lattices, a positive integer."""
    if sub.d != sup.d:
        raise ValueError("dimension mismatch")
    if not sup.contains(sub):
        raise ValueError("first lattice is not contained in the second")
    # det(sub) / det(sup), each the HNF diagonal over den^d
    return prod(sub.diagonal()) * sup.den**sub.d // (prod(sup.diagonal()) * sub.den**sub.d)


def lattice_block(a: Lattice, b: Lattice) -> Lattice:
    """Block-diagonal direct sum of two lattices."""
    cols = [tuple(c) + (0,) * b.d for c in a.basis_columns()]
    cols += [(0,) * a.d + tuple(c) for c in b.basis_columns()]
    return Lattice.from_span(a.d + b.d, cols)


def direct_sum(h1: HGroup, h2: HGroup) -> HGroup:
    """Block presentation of H1 + H2 in dimension d1 + d2."""
    zero1, zero2 = (Fraction(0),) * h1.d, (Fraction(0),) * h2.d
    data = {}
    for p in sorted(set(h1.support()) | set(h2.support())):
        lat_gens, div_gens = [], []
        for e, before, after in ((h1.entry(p), (), zero2), (h2.entry(p), zero1, ())):
            if e is not None:
                lat_gens += [before + tuple(c) + after for c in e.lattice.basis_columns()]
                div_gens += [before + tuple(w) + after for w in e.vspan]
        data[p] = (lat_gens, div_gens)
    return HGroup.from_local_data(h1.d + h2.d, data)


def from_columns(cols) -> Mat:
    """The square matrix with the given columns."""
    return Mat(list(zip(*cols)))


def is_unimodular(m: Mat) -> bool:
    """Whether m lies in GL_d(Z)."""
    return m.is_integer() and abs(m.det()) == 1
