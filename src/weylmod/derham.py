"""The de Rham maps between exterior-power tensor modules, the canonical
graded submodules they generate, and the operator lemmas about them.

All subspaces are stored per weight: the maps never move weight, so each
weight block is an exact finite-dimensional linear-algebra problem and the
box only chooses which weights to materialize.

Everything that depends only on the profile, (P, r, box) or (P, M, box), is
built once and kept in a bounded memo: the weight windows, the image,
kernel and derivative spans (values: each ``GradedSubspace`` is built once
from its blocks, with a block at every window weight, which the closure
reads directly) and the lemma counts.  The operator lemmas read
their action table off one template per (lemma, n, i, r) over a symbolic
alpha (``_lemma_template``), and the equivariance of the de Rham maps is
one template per (n, i, r) over a symbolic field exponent
(``_equivariance_template``): a template with no rows proves its statement
for every integer exponent and every P at that (n, i, r), and is read,
never evaluated.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType

from .errors import ArgumentError
from .indices import TruncationBox, mi_unit, mi_zero
from .linalg import RowBasis, kernel
from .memo import bounded
from .terms import Frozen, Poly, accumulate
from .tensorop import (
    _evaluated,
    _special_args,
    _special_operator,
    _symbolic_field,
    _template,
    shen_iota,
)
from .weightmod import (
    FVector,
    SLModule,
    WeightModuleP,
    _action_table,
    _block_columns,
    _integer_rows,
    _row_image,
    _rows_on_terms,
    _scaled_monomial_on_key,
    compose,
    make_wedge_module as wedge_module,
    tensor_act,  # noqa: F401  (part of this namespace; perfbench/tracer.py wraps it here)
    wedge_insert,
)


def wedge_degree(M: SLModule) -> int:
    r = int(M.central)
    if M != wedge_module(M.rank, r):
        raise ArgumentError("module is not an exterior power")
    return r


@bounded(16)
def _derham_table(n: int, r: int):
    """The de Rham map from degree r as an ``weightmod._action_table`` term
    map: one entry ((0, e_l), (source label, target label)): sign per
    source label and l outside it, for the term d_l p (x) e_l wedge v, the
    sign moving e_l to its sorted place.  Built once per (n, r) and shared:
    treat it as read-only."""
    index = {lab: pos for pos, lab in enumerate(wedge_module(n, r + 1).labels)}
    zero = mi_zero(n)
    table = {}
    for src, label in enumerate(wedge_module(n, r).labels):
        for l in range(1, n + 1):
            hit = wedge_insert(l, label)
            if hit is not None:
                sign, dst = hit
                table[((zero, mi_unit(l, n)), (src, index[dst]))] = sign
    return table


def _pi_rows(P: WeightModuleP, r: int):
    """The integer rows of the de Rham map from degree r on P
    (``_integer_rows`` of ``_derham_table``): each block column they give
    is pi's times their common denominator, a positive scale that leaves
    every span and kernel as it is."""
    rows, _ = _integer_rows(P, _derham_table(P.rank, r))
    return rows


def pi(w: FVector) -> FVector:
    """The de Rham map p (x) v -> sum_l d_l(p) (x) e_l wedge v.

    ``w``'s module is the k-th exterior power, 0 <= k <= n-1; the image
    lives over the (k+1)-st and has the same weight.
    """
    P = w.module_p
    n = P.rank
    r = wedge_degree(w.module_m)
    if r > n - 1:
        raise ArgumentError(f"degree {r} out of range 0..{n - 1}")
    return _table_image(_derham_table(n, r), wedge_module(n, r + 1), w)


def ambient_labels(P: WeightModuleP, M: SLModule, weight):
    """Basis labels (key, m-index) of the tensor module at one weight."""
    keys = (tuple(w - x for w, x in zip(weight, mw)) for mw in M.weights)
    return tuple((key, midx) for midx, key in enumerate(keys) if P.supports_key(key))


@bounded(8)
def _window(P: WeightModuleP, M: SLModule, box: TruncationBox):
    """The labels of F(P, M) over the weights of the box, a read-only
    mapping: ``labels[w]`` is the tuple of basis labels (key, m-index) at
    weight w, and a label's position is its index there.  Built once per
    (P, M, box) and shared by every subspace and closure engine over it."""
    for what, rank in (("the box", box.rank), ("M", M.rank)):
        if rank != P.rank:
            raise ArgumentError(f"{what} has rank {rank}, but P has rank {P.rank}")
    return MappingProxyType({w: ambient_labels(P, M, w) for w in box.keys()})


class GradedSubspace(Frozen):
    """Weight-indexed family of echelonized subspaces of a tensor module,
    fixed at construction.

    ``labels`` is the shared window of (P, M, box) (see ``_window``), and
    ``blocks`` is a read-only mapping from window weights to echelon bases
    over the label positions there; a window weight without a block has
    dimension 0, so ``GradedSubspace(P, M, box)`` is the window itself,
    with no blocks.  A space that differs from another is built anew, as
    ``GradedSubspace(P, M, box, {**space.blocks, w: block})``, and so is a
    copy or a pickle.
    """

    __slots__ = ("module_p", "module_m", "box", "labels", "blocks", "_by_number")

    def __init__(self, module_p: WeightModuleP, module_m: SLModule, box: TruncationBox,
                 blocks=None):
        labels = _window(module_p, module_m, box)
        blocks = MappingProxyType(dict(blocks or {}))
        for w, block in blocks.items():
            if w not in labels or block.ncols != len(labels[w]):
                raise ArgumentError(f"the block at weight {list(w)} does not fit the window")
        self._freeze(module_p=module_p, module_m=module_m, box=box, labels=labels,
                     blocks=blocks, _by_number=None)

    def __reduce__(self):
        return GradedSubspace, (self.module_p, self.module_m, self.box, dict(self.blocks))

    @property
    def by_number(self):
        """(dims, blocks): two tuples over the window weights in window
        order, which is ``box.keys()`` order and so the closure engine's
        weight numbering, with the dimension and the block (None where there
        is none) at each.  Built on first use and kept."""
        numbered = self._by_number
        if numbered is None:
            blocks = tuple(map(self.blocks.get, self.labels))
            numbered = (tuple(block.dim if block else 0 for block in blocks), blocks)
            self._freeze(_by_number=numbered)
        return numbered

    def dim_at(self, weight) -> int:
        block = self.blocks.get(weight)
        return block.dim if block else 0

    def dims(self):
        return {w: self.dim_at(w) for w in sorted(self.labels)}

    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks.values())

    def _rows(self, weight):
        block = self.blocks.get(weight)
        return block.rows if block else []

    def to_dense(self, v: FVector):
        """{weight: dense coordinates} of v, in the order its weights first
        occur, or None when v is not a vector of the window: a term lies
        outside it, or v is over other modules."""
        if v.module_p != self.module_p or v.module_m != self.module_m:
            return None
        parts = {}
        for lab, c in v.terms.items():
            w = v.weight_of(*lab)
            labels = self.labels.get(w, ())
            if lab not in labels:
                return None
            dense = parts.get(w)
            if dense is None:
                dense = parts[w] = [0] * len(labels)
            dense[labels.index(lab)] = c
        return parts

    def contains(self, v: FVector) -> bool:
        parts = self.to_dense(v)
        return parts is not None and not any(
            any(self.blocks[w].reduce(dense) if w in self.blocks else dense)
            for w, dense in parts.items()
        )

    def to_json_obj(self):
        return {
            "moduleP": repr(self.module_p),
            "moduleM": self.module_m.name,
            "blocks": [
                {
                    "weight": list(w),
                    "dim": self.dim_at(w),
                    "ambient": [
                        {"key": list(k), "label": str(self.module_m.labels[m])}
                        for k, m in self.labels[w]
                    ],
                    "rows": [[str(x) for x in row] for row in self._rows(w)],
                }
                for w in sorted(self.labels)
            ],
        }


@bounded(4)
def pi_image(P: WeightModuleP, r: int, box: TruncationBox) -> GradedSubspace:
    """Echelonized span of the de Rham images inside degree r, with a block
    at every window weight; memoised per (P, r, box).

    Every generating image is concentrated at a single weight, so the span
    is exact at each weight the box selects.  The images are taken from the
    integer de Rham rows, scaled by their common denominator, which leaves
    every span as it is.
    """
    n = P.rank
    if not 1 <= r <= n:
        raise ArgumentError(f"degree {r} out of range 1..{n}")
    source, M = wedge_module(n, r - 1), wedge_module(n, r)
    rows = _pi_rows(P, r - 1)
    labels = _window(P, M, box)
    blocks = {}
    for w in box.keys():
        block = blocks[w] = RowBasis(len(labels[w]))
        for col in _block_columns(P, rows, ambient_labels(P, source, w), labels[w]):
            if col:
                dense = [0] * block.ncols
                for pos, c in col:
                    dense[pos] = c
                block.insert(dense)
    return GradedSubspace(P, M, box, blocks)


@bounded(4)
def pi_kernel(P: WeightModuleP, r: int, box: TruncationBox) -> GradedSubspace:
    """Kernel of the degree-r de Rham map, weight block by weight block,
    with a block at every window weight; memoised per (P, r, box).

    The images are taken from the integer de Rham rows; their common
    denominator scales each block's matrix as a whole, which leaves its
    kernel as it is.
    """
    n = P.rank
    if not 0 <= r <= n - 1:
        raise ArgumentError(f"degree {r} out of range 0..{n - 1}")
    M = wedge_module(n, r)
    rows = _pi_rows(P, r)
    targets = _window(P, wedge_module(n, r + 1), box)
    blocks = {
        w: kernel(_block_columns(P, rows, labs, targets[w]), len(targets[w]))
        for w, labs in _window(P, M, box).items()
    }
    return GradedSubspace(P, M, box, blocks)


@bounded(4)
def partial_span(P: WeightModuleP, box: TruncationBox) -> GradedSubspace:
    """Span of the images of the plain derivative operators inside P, with
    a block at every window weight; memoised per (P, box).  Each weight
    block has at most one label, so the block is spanned by [1] as soon as
    some d_l reaches its weight with a nonzero ``_scaled_monomial_on_key``."""
    n = P.rank
    M = wedge_module(n, 0)
    zero = mi_zero(n)
    blocks = {w: RowBasis(len(labs)) for w, labs in _window(P, M, box).items()}
    for w in box.keys():
        if not P.supports_key(w):
            continue
        for l in range(1, n + 1):
            src = tuple(w[s] + (1 if s == l - 1 else 0) for s in range(n))
            if P.supports_key(src) and _scaled_monomial_on_key(P, src, zero, mi_unit(l, n)):
                blocks[w].insert([1])
                break
    return GradedSubspace(P, M, box, blocks)


def _key_ranges(P: WeightModuleP, key_box: TruncationBox):
    """Per line, the keys of the box's range that the line supports; P's
    keys in the box are their product, in the box's lexicographic order."""
    return [
        [k for k in range(lo, hi + 1) if f.supports(k)]
        for f, lo, hi in zip(P.factors, key_box.lower, key_box.upper)
    ]


def _lemma_report(check, alpha, i, P, r, table, key_box, degree, checked):
    """Report of an operator lemma: the tabulated operator must kill the
    ``checked`` basis vectors of ``_lemma_count``.  An empty table kills
    them with no work; otherwise every supported key of the box and label
    of wedge^degree is walked once, in order, and fails when an image term
    survives.  The h table is h after the de Rham map, so it is zero on
    every vector that map kills."""
    failures = []
    if table:
        rows, _ = _integer_rows(P, table)
        labels = wedge_module(P.rank, degree).labels
        for key in itertools.product(*_key_ranges(P, key_box)):
            for midx, label in enumerate(labels):
                if accumulate({}, _row_image(P, key, rows.get(midx, ()))):
                    failures.append({"key": list(key), "label": str(label)})
    return {
        "check": check,
        "params": {"alpha": list(alpha), "i": i, "P": repr(P), "r": r},
        "checked": checked,
        "failures": failures,
        # a report that looked at nothing proves nothing
        "pass": checked > 0 and not failures,
    }


@bounded(64)
def _lemma_template(check: str, n: int, i: int, r: int):
    """The action table of a lemma's operator on F(P, wedge^r) over a
    symbolic alpha, built once per (check, n, i, r) by the library's own
    kernels on the n symbols of ``terms.Poly``: g - u through
    ``_action_table`` (check "g-equals-u"), or h through ``_action_table``
    composed after the de Rham map from degree r - 1 (``compose``, check
    "h-annihilates").  The table is kept as ``tensorop._template`` over the
    base alpha, its (source index, target index) pairs as the tags.

    Evaluation at alpha is a ring map that keeps distinct rows distinct, so
    ``_evaluated`` at alpha is the table of the per-alpha operator.  No rows
    prove the lemma for every integer alpha and every P at (n, i, r).
    """
    alpha = Poly.symbols(n)
    wedge = wedge_module(n, r)
    if check == "g-equals-u":
        op = _special_operator("g", alpha, i) - _special_operator("u", alpha, i)
        return _template(_action_table(op, wedge), alpha)
    table = _action_table(_special_operator("h", alpha, i), wedge)
    return _template(compose(table, _derham_table(n, r - 1)), alpha)


@bounded(128)
def _equivariance_template(n: int, i: int, r: int):
    """pi o iota(X) - iota(X) o pi on F(P, wedge^r) for X = t^a d_i over a
    symbolic a, built once per (n, i, r) by the library's own kernels on
    the n symbols of ``terms.Poly``: ``shen_iota`` of the field, its
    ``_action_table`` on wedge^r and wedge^(r+1), and ``compose`` with the
    de Rham tables on either side.  Kept as ``tensorop._template`` over
    the base a, as ``_lemma_template`` is.

    No rows prove that the de Rham map from degree r intertwines every
    Laurent monomial field t^a d_i, so every field of S_n by linearity, on
    every P at (n, r): d is a map of W_n-modules on forms (A. N. Rudakov,
    Math. USSR Izv. 8, 1974; G. Y. Shen, Sci. Sinica A 29, 1986).
    """
    a = Poly.symbols(n)
    iota = shen_iota(_symbolic_field(n, {(a, mi_unit(i, n)): 1}))
    after = compose(_derham_table(n, r), _action_table(iota, wedge_module(n, r)))
    before = compose(_action_table(iota, wedge_module(n, r + 1)), _derham_table(n, r))
    return _template(accumulate(after, ((key, -c) for key, c in before.items())), a)


def _table_image(table, module_m: SLModule, w: FVector) -> FVector:
    """The image of w under a term map of ``_action_table``'s shape, a
    vector of F(w.module_p, module_m); an empty table gives zero with no
    row work."""
    if not table:
        return FVector._from_kernel({}, module_p=w.module_p, module_m=module_m)
    rows, den = _integer_rows(w.module_p, table)
    return _rows_on_terms(module_m, rows, den, w)


def _equivariance_image(x, w: FVector) -> FVector:
    """pi(x w) - x pi(w) for a field x on w over wedge^r, read off the
    templates of (n, i, r) at the i of each term c t^a d_i of x: every
    template with rows is evaluated at a, scaled by c, summed, and applied
    to w.  When every template read is empty, so is the image, and no row
    is built."""
    n = w.module_p.rank
    r = wedge_degree(w.module_m)
    table = {}
    for (a, d_exp), c in x.terms.items():
        template = _equivariance_template(n, d_exp.index(1) + 1, r)
        if template[1]:
            accumulate(table, ((key, c * v) for key, v in _evaluated(template, a, a).items()))
    return _table_image(table, wedge_module(n, r + 1), w)


def _lemma_args(alpha, i: int, P: WeightModuleP, r: int, key_box: TruncationBox) -> tuple:
    """The argument checks of an operator lemma: alpha of length P.rank, a
    key box of P's rank, r in 2..n-1, and those of the special operators
    (``_special_args``, the same for every kind).  Returns alpha as a
    tuple."""
    alpha = tuple(alpha)
    n = P.rank
    if len(alpha) != n:
        raise ArgumentError(f"alpha has length {len(alpha)}, but P has rank {n}")
    if key_box.rank != n:
        raise ArgumentError(f"the key box has rank {key_box.rank}, but P has rank {n}")
    if not 2 <= r <= n - 1:
        raise ArgumentError(f"degree {r} out of range 2..{n - 1}")
    return _special_args("h", alpha, i)


def _verify_lemma(check: str, alpha, i: int, P: WeightModuleP, r: int,
                  key_box: TruncationBox):
    """The report of an operator lemma at alpha: its operator, read off
    ``_lemma_template``, must kill every basis vector over the key box of
    F(P, wedge^r) for g - u, and of the de Rham images of degree r - 1 for
    h, counted by ``_lemma_count``."""
    alpha = _lemma_args(alpha, i, P, r, key_box)
    spanning = check == "h-annihilates"
    degree = r - spanning
    template = _lemma_template(check, P.rank, i, r)
    table = _evaluated(template, alpha, alpha) if template[1] else {}
    checked = _lemma_count(P, degree, key_box, spanning)
    return _lemma_report(check, alpha, i, P, r, table, key_box, degree, checked)


def verify_g_equals_u(alpha, i: int, P: WeightModuleP, r: int, key_box: TruncationBox):
    """(g - u) applied to p (x) v for every wedge label v and key in the box.
    Returns a report dict; "pass" means every residual vanished."""
    return _verify_lemma("g-equals-u", alpha, i, P, r, key_box)


def verify_h_annihilates(alpha, i: int, P: WeightModuleP, r: int, key_box: TruncationBox):
    """h applied to the de Rham spanning vectors of degree r, through the
    composite table of h after the de Rham map."""
    return _verify_lemma("h-annihilates", alpha, i, P, r, key_box)


@bounded(64)
def _lemma_count(P: WeightModuleP, r: int, key_box: TruncationBox, spanning: bool) -> int:
    """The number of basis vectors of F(P, wedge^r) over the keys of the box
    that P supports, N_l keys on line l (``_key_ranges``); with ``spanning``
    only of those with a nonzero de Rham image, as the rest span nothing.
    The image of p (x) v_S is zero when d_l kills p for every l outside S,
    which on a supported key depends on k_l alone: with K_l killed keys on
    line l (line l varied on the first supported key), the zero images
    under S number prod_{l in S} N_l prod_{l not in S} K_l."""
    n = P.rank
    ranges = _key_ranges(P, key_box)
    total = math.prod(map(len, ranges))
    labels = wedge_module(n, r).labels
    if not spanning or not total:
        return total * len(labels)
    base, zero = tuple(ks[0] for ks in ranges), mi_zero(n)
    killed = [
        sum(not _scaled_monomial_on_key(P, base[: l - 1] + (k,) + base[l:], zero, mi_unit(l, n))
            for k in ks)
        for l, ks in enumerate(ranges, 1)
    ]
    return sum(
        total - math.prod(len(ks) if l in label else dead
                          for l, (ks, dead) in enumerate(zip(ranges, killed), 1))
        for label in labels
    )
