"""The de Rham maps between exterior-power tensor modules, the canonical
graded submodules they generate, and the operator lemmas about them.

All subspaces are stored per weight: the maps never move weight, so each
weight block is an exact finite-dimensional linear-algebra problem and the
box only chooses which weights to materialize.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import ArgumentError, StructureError
from .indices import TruncationBox, mi_unit, mi_zero
from .linalg import RowBasis, kernel
from .terms import accumulate
from .tensorop import special_operator
from .weightmod import (
    FVector,
    SLModule,
    WeightModuleP,
    _action_table,
    _block_columns,
    _integer_rows,
    _monomial_on_key,
    _row_image,
    _rows_on_terms,
    _scaled_monomial_on_key,
    make_wedge_module as wedge_module,
    tensor_act,  # noqa: F401  (part of this namespace; perfbench/tracer.py wraps it here)
    wedge_insert,
)


def wedge_degree(M: SLModule) -> int:
    r = int(M.central)
    if M is not wedge_module(M.rank, r):
        raise ArgumentError("module is not an exterior power")
    return r


def _derham_table(n: int, r: int):
    """The de Rham map from degree r in the table format of
    ``weightmod._action_table``: per source label, one entry
    (0, e_l, {target label: sign}, 1) per l outside the label, for the term
    d_l p (x) e_l wedge v, the sign moving e_l to its sorted place."""
    index = {lab: pos for pos, lab in enumerate(wedge_module(n, r + 1).labels)}
    zero = mi_zero(n)
    table = []
    for label in wedge_module(n, r).labels:
        entries = []
        for l in range(1, n + 1):
            hit = wedge_insert(l, label)
            if hit is not None:
                sign, dst = hit
                entries.append((zero, mi_unit(l, n), {index[dst]: sign}, 1))
        table.append(entries)
    return table


@lru_cache(maxsize=None)
def _derham_rows(P: WeightModuleP, r: int):
    """The integer rows of ``_derham_table(n, r)`` on P and their common
    denominator, built once per (P, r) and shared by every caller: treat
    them as read-only."""
    return _integer_rows(P, _derham_table(P.rank, r))


def pi(w: FVector, k: int | None = None) -> FVector:
    """The de Rham map p (x) v -> sum_l d_l(p) (x) e_l wedge v.

    ``w`` lives over the k-th exterior power with 0 <= k <= n-1; the image
    lives over the (k+1)-st and has the same weight.
    """
    P = w.module_p
    n = P.rank
    r = wedge_degree(w.module_m)
    if k is not None and k != r:
        raise ArgumentError(f"vector lives in degree {r}, not {k}")
    if r > n - 1:
        raise ArgumentError(f"degree {r} out of range 0..{n - 1}")
    rows, den = _derham_rows(P, r)
    return FVector(P, wedge_module(n, r + 1), _rows_on_terms(P, rows, den, w.terms))


def ambient_labels(P: WeightModuleP, M: SLModule, weight):
    """Basis labels (key, m-index) of the tensor module at one weight."""
    out = []
    for midx in range(M.dim):
        key = tuple(w - x for w, x in zip(weight, M.weights[midx]))
        if P.supports_key(key):
            out.append((key, midx))
    return out


class GradedSubspace:
    """Weight-indexed family of echelonized subspaces of a tensor module.

    The window's ambient is built here once: ``labels[w]`` lists the basis
    labels (key, m-index) at weight w, ``slots[w]`` maps each to its
    position, and ``blocks[w]`` is the echelon basis over those positions.
    """

    def __init__(self, module_p: WeightModuleP, module_m: SLModule, weights):
        self.module_p = module_p
        self.module_m = module_m
        self.labels = {}
        self.slots = {}
        self.blocks = {}
        for w in weights:
            labels = self.labels[w] = ambient_labels(module_p, module_m, w)
            self.slots[w] = {lab: pos for pos, lab in enumerate(labels)}
            self.blocks[w] = RowBasis(len(labels))

    def weights(self):
        return sorted(self.labels)

    def dim_at(self, weight) -> int:
        block = self.blocks.get(weight)
        return block.dim if block else 0

    def dims(self):
        return {w: self.blocks[w].dim for w in sorted(self.blocks)}

    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks.values())

    def to_dense(self, v: FVector):
        """{weight: dense coordinates} of v, in the order its weights first
        occur, or None when v is not a vector of the window: a term lies
        outside it, or v is over other modules."""
        if v.module_p != self.module_p or v.module_m is not self.module_m:
            return None
        parts = {}
        for lab, c in v.terms.items():
            w = v.weight_of(*lab)
            pos = self.slots.get(w, {}).get(lab)
            if pos is None:
                return None
            dense = parts.get(w)
            if dense is None:
                dense = parts[w] = [0] * len(self.labels[w])
            dense[pos] = c
        return parts

    def insert(self, v: FVector) -> bool:
        parts = self.to_dense(v)
        if parts is None:
            raise StructureError("vector is not in the subspace window")
        grew = False
        for w, dense in parts.items():
            grew |= self.blocks[w].insert(dense)
        return grew

    def contains(self, v: FVector) -> bool:
        parts = self.to_dense(v)
        return parts is not None and all(
            self.blocks[w].contains(dense) for w, dense in parts.items()
        )

    def basis_vectors(self, weight):
        block = self.blocks.get(weight)
        if not block:
            return []
        labels = self.labels[weight]
        out = []
        for row in block.rows:
            terms = {lab: c for lab, c in zip(labels, row) if c != 0}
            out.append(FVector(self.module_p, self.module_m, terms))
        return out

    def to_json_obj(self):
        return {
            "moduleP": repr(self.module_p),
            "moduleM": self.module_m.name,
            "blocks": [
                {
                    "weight": list(w),
                    "dim": self.blocks[w].dim,
                    "ambient": [
                        {"key": list(k), "label": str(self.module_m.labels[m])}
                        for k, m in self.labels[w]
                    ],
                    "rows": [[str(x) for x in row] for row in self.blocks[w].rows],
                }
                for w in sorted(self.blocks)
            ],
        }


def pi_image(P: WeightModuleP, r: int, box: TruncationBox) -> GradedSubspace:
    """Echelonized span of the de Rham images inside degree r, per weight.

    Every generating image is concentrated at a single weight, so the span
    is exact at each weight the box selects.  The images are taken from the
    integer de Rham rows, scaled by their common denominator, which leaves
    every span as it is.
    """
    n = P.rank
    if not 1 <= r <= n:
        raise ArgumentError(f"degree {r} out of range 1..{n}")
    source = wedge_module(n, r - 1)
    rows, _ = _derham_rows(P, r - 1)
    out = GradedSubspace(P, wedge_module(n, r), box.keys())
    for w in box.keys():
        # the source basis at w, without building a window for it
        keys = (tuple(a - b for a, b in zip(w, mw)) for mw in source.weights)
        labels = [(key, midx) for midx, key in enumerate(keys) if P.supports_key(key)]
        block = out.blocks[w]
        for col in _block_columns(P, rows, labels, out.slots[w]):
            if col:
                dense = [0] * block.ncols
                for pos, c in col:
                    dense[pos] = c
                block.insert(dense)
    return out


def pi_kernel(P: WeightModuleP, r: int, box: TruncationBox) -> GradedSubspace:
    """Kernel of the degree-r de Rham map, weight block by weight block.

    The images are taken from the integer de Rham rows; their common
    denominator scales each block's matrix as a whole, which leaves its
    kernel as it is.
    """
    n = P.rank
    if not 0 <= r <= n - 1:
        raise ArgumentError(f"degree {r} out of range 0..{n - 1}")
    rows, _ = _derham_rows(P, r)
    out = GradedSubspace(P, wedge_module(n, r), box.keys())
    target = GradedSubspace(P, wedge_module(n, r + 1), box.keys())
    for w in box.keys():
        labels = out.labels[w]
        if labels:
            cols = _block_columns(P, rows, labels, target.slots[w])
            out.blocks[w] = kernel(cols, len(target.labels[w]))
    return out


def partial_span(P: WeightModuleP, box: TruncationBox) -> GradedSubspace:
    """Span of the images of the plain derivative operators inside P."""
    n = P.rank
    triv = wedge_module(n, 0)
    out = GradedSubspace(P, triv, box.keys())
    zero = mi_zero(n)
    for w in box.keys():
        if not P.supports_key(w):
            continue
        for l in range(1, n + 1):
            src = tuple(w[s] + (1 if s == l - 1 else 0) for s in range(n))
            if not P.supports_key(src):
                continue
            hit = _monomial_on_key(P, src, zero, mi_unit(l, n))
            if hit is None:
                continue
            coeff, new_key = hit
            if coeff != 0 and new_key == w:
                out.insert(FVector(P, triv, {(w, 0): coeff}))
    return out


def _failing_sources(P, table, sources):
    """The basis vectors (key, midx) among ``sources`` that the tabulated
    operator does not kill.

    Every image term is keyed by its source as well, so one accumulation
    serves the whole list: a source fails exactly when one of its image
    terms survives.  A source whose integer row is empty is killed on every
    key and costs nothing.
    """
    rows, _ = _integer_rows(P, table)

    def images():
        for key, midx in sources:
            row = rows[midx]
            if row:
                for lab, c in _row_image(P, key, row):
                    yield (key, midx, lab), c

    return {(key, midx) for key, midx, _ in accumulate({}, images())}


def _after_derham(table, n: int, r: int):
    """The table of an operator on degree r composed after the de Rham map
    from degree r - 1, per source label.  The map only appends a derivative
    factor on the right, so the two-step action equals the action of the
    composed monomials exactly."""
    return [
        [
            (t_exp, tuple(g + u for g, u in zip(d_exp, d_l)), mvec, c * sign)
            for _, d_l, pvec, _ in entries
            for dst, sign in pvec.items()
            for t_exp, d_exp, mvec, c in table[dst]
        ]
        for entries in _derham_table(n, r - 1)
    ]


def _lemma_report(check, alpha, i, P, r, table, sources, labels):
    """Report of an operator lemma: the tabulated operator must kill every
    source basis vector."""
    failing = _failing_sources(P, table, sources)
    failures = [
        {"key": list(key), "label": str(labels[midx])}
        for key, midx in sources
        if (key, midx) in failing
    ]
    checked = len(sources)
    return {
        "check": check,
        "params": {"alpha": list(alpha), "i": i, "P": repr(P), "r": r},
        "checked": checked,
        "failures": failures,
        # a report that looked at nothing proves nothing
        "pass": checked > 0 and not failures,
    }


@lru_cache(maxsize=64)
def _supported_keys(P: WeightModuleP, lower, upper):
    """The keys of the box [lower, upper] that P supports, in box order.

    A lemma grid checks many operators over a few (P, box) profiles, so the
    filter runs once per profile.  The bounds are the cache key, since a
    ``TruncationBox`` is not hashable.
    """
    return tuple(key for key in TruncationBox(lower, upper).keys() if P.supports_key(key))


def verify_g_equals_u(alpha, i: int, P: WeightModuleP, r: int, key_box: TruncationBox):
    """(g - u) applied to p (x) v for every wedge label v and key in the box.

    Returns a report dict; "pass" means every residual vanished.
    """
    n = P.rank
    alpha = tuple(alpha)
    if not 2 <= r <= n - 1:
        raise ArgumentError(f"degree {r} out of range 2..{n - 1}")
    diff = special_operator("g", alpha, i) - special_operator("u", alpha, i)
    wedge = wedge_module(n, r)
    table = _action_table(diff.demote(), wedge)
    sources = [
        (key, midx)
        for key in _supported_keys(P, key_box.lower, key_box.upper)
        for midx in range(wedge.dim)
    ]
    return _lemma_report("g-equals-u", alpha, i, P, r, table, sources, wedge.labels)


def verify_h_annihilates(alpha, i: int, P: WeightModuleP, r: int, key_box: TruncationBox):
    """h applied to the de Rham spanning vectors of degree r, through the
    composite table of h after the de Rham map."""
    n = P.rank
    alpha = tuple(alpha)
    if not 2 <= r <= n - 1:
        raise ArgumentError(f"degree {r} out of range 2..{n - 1}")
    h = special_operator("h", alpha, i)
    source = wedge_module(n, r - 1)
    composite = _after_derham(_action_table(h.demote(), wedge_module(n, r)), n, r)
    sources = _derham_sources(P, source.labels, key_box)
    return _lemma_report(
        "h-annihilates", alpha, i, P, r, composite, sources, source.labels
    )


def _derham_sources(P: WeightModuleP, labels, key_box: TruncationBox):
    """The basis vectors (key, midx) of the box whose de Rham image is not
    zero: a vector whose image is zero spans nothing to check.

    The image of p (x) v has one term per l outside the label of v, so it
    is nonzero exactly when the set of l whose d_l does not kill the key is
    not inside the label.  On a supported key, d_l kills the key or not by
    k_l alone (the other lines keep their keys), so the live k values of
    each line are tabulated once over the box: n x box-width evaluations,
    not n per key.
    """
    n = P.rank
    keys = _supported_keys(P, key_box.lower, key_box.upper)
    if not keys:
        return []
    zero = mi_zero(n)
    base = keys[0]
    live_ks = []
    for l in range(1, n + 1):
        e_l = mi_unit(l, n)
        live = set()
        for k in range(key_box.lower[l - 1], key_box.upper[l - 1] + 1):
            key = base[: l - 1] + (k,) + base[l:]
            if _scaled_monomial_on_key(P, key, zero, e_l):
                live.add(k)
        live_ks.append(live)
    kept = {}  # live set -> the label indices it leaves a nonzero image on
    sources = []
    for key in keys:
        live = frozenset(l for l, ks in enumerate(live_ks, 1) if key[l - 1] in ks)
        midxs = kept.get(live)
        if midxs is None:
            midxs = kept[live] = [
                midx for midx, label in enumerate(labels) if not live.issubset(label)
            ]
        sources.extend((key, midx) for midx in midxs)
    return sources
