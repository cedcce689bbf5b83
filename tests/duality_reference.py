"""The per-point duality checks, as a reference for the certificates of
``zodom.odometer``: characters and cosets are numbered by their
lexicographic box indices, and each map is compared as a permutation of
those indices on every point, for every unit translation."""

import itertools

from zodom.odometer import DualityRealization, NotSubgroupError


def points(real):
    """The characters of a realization, in lexicographic box order."""
    return tuple(itertools.product(*[range(si) for si in real.snf_diag]))


def box_index(x, radix):
    """Lexicographic index of x in the box prod(range(h) for h in radix)."""
    k = 0
    for c, h in zip(x, radix):
        k = k * h + c
    return k


def rotation(radix, shift):
    """The box indices of t + shift (mod radix) for t in lexicographic order:
    a product of rotated ranges, one per coordinate."""
    perm = [0]
    for h, s in zip(radix, shift):
        s %= h
        rot = [*range(s, h), *range(s)]
        perm = [a * h + b for a in perm for b in rot]
    return perm


def unit_translations(d: int):
    """e_1, ..., e_d: a map commutes with the action of all of Z^d iff it
    commutes with these generators."""
    return [tuple(int(i == j) for j in range(d)) for i in range(d)]


def index_perm(quotient, n):
    """Lexicographic box indices of quotient.act(n, x) for x in
    quotient.reps order, without building reps.

    The walk of reduce runs over the box prefixes coordinate by coordinate:
    reducing coordinate j changes only later coordinates, so each prefix
    carries its offsets forward.  On the last coordinate, which no other
    coordinate depends on, n acts as a rotation by the carried offset, two
    ranges."""
    prefixes = [(0, [int(v) for v in n])]
    for j, piv, below in quotient._walk[:-1]:
        grown = []
        for idx, add in prefixes:
            for x in range(piv):
                q, r = divmod(x + add[j], piv)
                carried = add
                if q:
                    carried = add[:]
                    for i, m in below:
                        carried[i] -= q * m
                grown.append((idx * piv + r, carried))
        prefixes = grown
    h = quotient._walk[-1][1]
    perm = []
    for idx, add in prefixes:
        base, c = idx * h, add[-1] % h
        perm.extend(range(base + c, base + h))
        perm.extend(range(base, base + c))
    return perm


def image_indices(real):
    """Box indices of real.to_quotient(t) for t in points(real), from the
    unit characters: h_K is additive, so the images grow in lexicographic
    order one coordinate at a time, each prefix walked s_i steps along the
    rotation by c_i = to_quotient(e_i)."""
    images = [0]
    for si, unit in zip(real.snf_diag, unit_translations(len(real.snf_diag))):
        step = index_perm(real.quotient, real.to_quotient(unit))
        grown = []
        for x in images:
            for _ in range(si):
                grown.append(x)
                x = step[x]
        images = grown
    return images


def duality_check(g) -> bool:
    """The conjugacy Y_K ~ (Z^d/G, translation), K = G*, point by point:
    images[j] numbers the coset to_quotient(points[j]); for a translation n,
    sigma is the character shift by translation_tuple(n) as a permutation
    of the point indices and tau = index_perm(n) the rotation of Z^d/G, and
    the conjugacy commutes with them iff images[sigma[j]] = tau[images[j]]
    for every j."""
    real = DualityRealization(g)
    quotient = real.quotient
    images = image_indices(real)
    if sorted(images) != list(range(quotient.card)):
        return False
    for n in unit_translations(g.d):
        sigma = rotation(real.snf_diag, real.translation_tuple(n))
        tau = index_perm(quotient, n)
        if [images[j] for j in sigma] != [tau[v] for v in images]:
            return False
    return True


def duality_square_check(g1, g2) -> bool:
    """The commuting square for G2 <= G1 <= Z^d point by point: restriction of
    every character over the natural quotient Z^d/G2 -> Z^d/G1, and
    translation compared as the character-shift permutations of both sides."""
    if not g1.contains(g2):
        raise NotSubgroupError("G2 must be contained in G1")
    big, small = DualityRealization(g2), DualityRealization(g1)
    big_points = points(big)
    restricted = [big.restrict_tuple(t, small) for t in big_points]
    for t, r in zip(big_points, restricted):
        if small.to_quotient(r) != small.quotient.reduce(big.to_quotient(t)):
            return False
    restricted = [box_index(r, small.snf_diag) for r in restricted]
    for n in unit_translations(g1.d):
        big_sigma = rotation(big.snf_diag, big.translation_tuple(n))
        small_sigma = rotation(small.snf_diag, small.translation_tuple(n))
        if [restricted[j] for j in big_sigma] != [small_sigma[r] for r in restricted]:
            return False
    return True
