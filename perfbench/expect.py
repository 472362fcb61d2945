"""Closed-form expectations the benchmark checks the program against.

Everything here is derived from the definitions of the modules (factor
kinds, key boxes, exterior labels), never by calling the code under test:
it reads only the ``kind`` of each factor of a weight module and the bounds
of a truncation box.

Support rules per coordinate (key k, true exponent k or lambda + k):

* poly   -- keys k >= 0; d kills k = 0.
* twist  -- keys k <= -1; d never kills (the exponent k is nonzero and k - 1
  stays in the support).
* laurent -- every key; d never kills (lambda is not an integer).

At one weight w of F(P, wedge^r) the basis is t^(w - e_S) (x) e_S over the
r-subsets S with w - e_S supported.  Per coordinate s that makes s
*forced in* (twist, w_s = 0), *forced out* (poly, w_s = 0), *empty* (poly
w_s < 0 or twist w_s > 0: the block is zero) or *active* (all other cases).
The de Rham map restricted to the block is the Koszul complex over the
active coordinates with nonzero scalars, shifted by the forced-in count, so
with a active coordinates and k = r - |forced in|:

    dim F_r(w)  = C(a, k)
    dim im_r(w) = C(a - 1, k - 1)       (a >= 1, k >= 1; else 0)
    dim ker_r(w) = dim im_r(w)          (a >= 1; exactness)
                 = dim F_r(w)           (a = 0; the map is zero)
"""

from __future__ import annotations

import itertools
from math import comb, prod

POLY = "poly"
TWIST = "twist"
LAURENT = "laurent"


def kinds(P):
    return tuple(f.kind for f in P.factors)


def box_ranges(box, inner=False):
    lo = box.inner_lower if inner else box.lower
    hi = box.inner_upper if inner else box.upper
    return [range(a, b + 1) for a, b in zip(lo, hi)]


def box_weights(box, inner=False):
    return itertools.product(*box_ranges(box, inner))


def supported(kind, k) -> bool:
    if kind == POLY:
        return k >= 0
    if kind == TWIST:
        return k <= -1
    return True


def derivative_kills(kind, k) -> bool:
    """Whether d/dt kills the basis key k of one factor (or leaves the support)."""
    return kind == POLY and k == 0


# -- operator lemmas ---------------------------------------------------------


def g_equals_u_checked(P, r, key_box) -> int:
    """Evaluations of verify_g_equals_u: supported keys times wedge labels."""
    keys = prod(
        sum(1 for k in rng if supported(kind, k))
        for kind, rng in zip(kinds(P), box_ranges(key_box))
    )
    return keys * comb(P.rank, r)


def h_annihilates_checked(P, r, key_box) -> int:
    """Evaluations of verify_h_annihilates.

    A pair (key, label T) of degree r - 1 is evaluated when some coordinate
    l outside T has a derivative that does not kill the key.  Per label the
    excluded keys are those whose every coordinate outside T is killed.
    """
    ks = kinds(P)
    n = P.rank
    width = []
    dead = []
    for kind, rng in zip(ks, box_ranges(key_box)):
        keys = [k for k in rng if supported(kind, k)]
        width.append(len(keys))
        dead.append(sum(1 for k in keys if derivative_kills(kind, k)))
    total = prod(width)
    out = 0
    for T in itertools.combinations(range(n), r - 1):
        excluded = prod(width[l] if l in T else dead[l] for l in range(n))
        out += total - excluded
    return out


# -- de Rham blocks ----------------------------------------------------------


def koszul_block(ks, w, r):
    """(dim F_r(w), dim im_r(w), dim ker_r(w)) for factor kinds ks."""
    active = 0
    forced_in = 0
    for kind, x in zip(ks, w):
        if kind == POLY:
            if x < 0:
                return 0, 0, 0
            if x >= 1:
                active += 1
        elif kind == TWIST:
            if x >= 1:
                return 0, 0, 0
            if x == 0:
                forced_in += 1
            else:
                active += 1
        else:
            active += 1
    k = r - forced_in
    if not 0 <= k <= active:
        return 0, 0, 0
    ambient = comb(active, k)
    image = comb(active - 1, k - 1) if active >= 1 and k >= 1 else 0
    kernel = image if active >= 1 else ambient
    return ambient, image, kernel


def image_dim_total(P, r, box, inner=True) -> int:
    ks = kinds(P)
    return sum(koszul_block(ks, w, r)[1] for w in box_weights(box, inner))


def delta_p_dim(ks, w) -> int:
    """dim of the derivative span at weight w: 1 when some d_l hits t^w."""
    if not all(supported(kind, x) for kind, x in zip(ks, w)):
        return 0
    for kind, x in zip(ks, w):
        if kind != TWIST or x <= -2:
            return 1
    return 0


def delta_p_total(P, box, inner=True) -> int:
    ks = kinds(P)
    return sum(delta_p_dim(ks, w) for w in box_weights(box, inner))


def module_ambient_total(P, module_weights, box, inner=True) -> int:
    """Inner-box dimension of F(P, M) given the weights of M's basis."""
    ks = kinds(P)
    total = 0
    for w in box_weights(box, inner):
        for mu in module_weights:
            if all(supported(kind, a - b) for kind, a, b in zip(ks, w, mu)):
                total += 1
    return total


def wedge_weights(n, r):
    return [
        tuple(1 if s in S else 0 for s in range(n))
        for S in itertools.combinations(range(n), r)
    ]


def sym2_weights(n):
    """Weights of Sym^2 of the natural module: the highest weight 2*delta_1."""
    out = []
    for a, b in itertools.combinations_with_replacement(range(n), 2):
        w = [0] * n
        w[a] += 1
        w[b] += 1
        out.append(tuple(w))
    return out


# -- subquotient inventory ---------------------------------------------------


def inventory_layers(P, r, box):
    """Expected (name, totalDim) of every layer of the canonical chain."""
    ks = kinds(P)
    n = P.rank
    weights = list(box_weights(box))
    all_poly = all(kind == POLY for kind in ks)
    full0 = sum(1 for w in weights if all(supported(k, x) for k, x in zip(ks, w)))
    layers = []
    if r == 0:
        if all_poly:
            const = 1 if (0,) * n in weights else 0
            layers.append(("constants", const))
            layers.append(("P/constants", full0 - const))
        else:
            delta = sum(delta_p_dim(ks, w) for w in weights)
            layers.append(("deltaP", delta))
            if full0 - delta:
                layers.append(("P/deltaP", full0 - delta))
        return layers
    blocks = [koszul_block(ks, w, r) for w in weights]
    image = sum(b[1] for b in blocks)
    gap = sum(b[2] - b[1] for b in blocks)
    quotient = sum(b[0] - b[2] for b in blocks)
    if r == 1:
        bottom = "P/constants" if all_poly else "P (via de Rham)"
    else:
        bottom = f"image({r})"
    layers.append((bottom, image))
    if gap:
        layers.append(("kernel/image", gap))
    if r < n - 1:
        layers.append((f"image({r + 1})", quotient))
    elif all_poly:
        const = 1 if (1,) * n in weights else 0
        layers.append(("constants (shifted)", const))
        layers.append(("P/constants (shifted)", quotient - const))
    else:
        layers.append(("deltaP (shifted)", quotient))
    return layers
