"""The de Rham maps between exterior-power tensor modules, the canonical
graded submodules they generate, and the operator lemmas about them.

All subspaces are stored per weight: the maps never move weight, so each
weight block is an exact finite-dimensional linear-algebra problem and the
box only chooses which weights to materialize.

Everything that depends only on the profile, (P, r, box) or (P, M, box), is
built once and kept in a bounded memo: the weight windows, the image,
kernel and derivative spans (frozen, so a caller that grows one takes a
``copy()``) and the lemma source lists.  The operator lemmas read their
action table off one template per (lemma, n, i, r) over a symbolic alpha
(``_lemma_template``): a template with no rows proves the lemma for every
integer alpha and every P at that (n, i, r).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .errors import ArgumentError, StructureError
from .indices import TruncationBox, mi_unit, mi_zero
from .linalg import RowBasis, kernel
from .terms import Poly, accumulate
from .tensorop import _evaluated, _special_args, _special_operator, _template
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
    make_wedge_module as wedge_module,
    tensor_act,  # noqa: F401  (part of this namespace; perfbench/tracer.py wraps it here)
    wedge_insert,
)


def wedge_degree(M: SLModule) -> int:
    r = int(M.central)
    if M is not wedge_module(M.rank, r):
        raise ArgumentError("module is not an exterior power")
    return r


@lru_cache(maxsize=16)
def _derham_table(n: int, r: int):
    """The de Rham map from degree r in the table format of
    ``weightmod._action_table``: per source label, one entry
    (0, e_l, {target label: sign}, 1) per l outside the label, for the term
    d_l p (x) e_l wedge v, the sign moving e_l to its sorted place.  Built
    once per (n, r) and shared: treat it as read-only."""
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


@lru_cache(maxsize=32)
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
    keys = (tuple(w - x for w, x in zip(weight, mw)) for mw in M.weights)
    return tuple((key, midx) for midx, key in enumerate(keys) if P.supports_key(key))


@lru_cache(maxsize=8)
def _window(P: WeightModuleP, M: SLModule, box: TruncationBox):
    """(labels, slots) of F(P, M) over the weights of the box: ``labels[w]``
    is the tuple of basis labels (key, m-index) at weight w and
    ``slots[w]`` maps each to its position.  Built once per (P, M, box) and
    shared, read-only, by every subspace and closure engine over it."""
    labels = {}
    slots = {}
    for w in box.keys():
        labs = labels[w] = ambient_labels(P, M, w)
        slots[w] = MappingProxyType({lab: pos for pos, lab in enumerate(labs)})
    return MappingProxyType(labels), MappingProxyType(slots)


class GradedSubspace:
    """Weight-indexed family of echelonized subspaces of a tensor module.

    ``labels`` and ``slots`` are the shared window of (P, M, box) (see
    ``_window``), and ``blocks[w]`` is the echelon basis over the positions
    at weight w.  The memoised spaces (``pi_image``, ``pi_kernel``,
    ``partial_span``) are frozen: their ``insert`` raises, and ``copy()``
    gives a mutable space with blocks of its own.
    """

    def __init__(self, module_p: WeightModuleP, module_m: SLModule, box: TruncationBox):
        self.module_p = module_p
        self.module_m = module_m
        self.labels, self.slots = _window(module_p, module_m, box)
        self.blocks = {w: RowBasis(len(labels)) for w, labels in self.labels.items()}
        self.frozen = False

    def _freeze(self) -> GradedSubspace:
        self.blocks = MappingProxyType(self.blocks)
        self.frozen = True
        return self

    def copy(self) -> GradedSubspace:
        """A mutable copy over the same window."""
        out = GradedSubspace.__new__(GradedSubspace)
        out.__dict__.update(self.__dict__)
        out.blocks = {w: block.copy() for w, block in self.blocks.items()}
        out.frozen = False
        return out

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
        if self.frozen:
            raise StructureError("a memoised subspace is read-only; insert into copy()")
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


@lru_cache(maxsize=4)
def pi_image(P: WeightModuleP, r: int, box: TruncationBox) -> GradedSubspace:
    """Echelonized span of the de Rham images inside degree r, per weight;
    frozen and memoised per (P, r, box).

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
    out = GradedSubspace(P, wedge_module(n, r), box)
    for w in box.keys():
        block = out.blocks[w]
        for col in _block_columns(P, rows, ambient_labels(P, source, w), out.slots[w]):
            if col:
                dense = [0] * block.ncols
                for pos, c in col:
                    dense[pos] = c
                block.insert(dense)
    return out._freeze()


@lru_cache(maxsize=4)
def pi_kernel(P: WeightModuleP, r: int, box: TruncationBox) -> GradedSubspace:
    """Kernel of the degree-r de Rham map, weight block by weight block;
    frozen and memoised per (P, r, box).

    The images are taken from the integer de Rham rows; their common
    denominator scales each block's matrix as a whole, which leaves its
    kernel as it is.
    """
    n = P.rank
    if not 0 <= r <= n - 1:
        raise ArgumentError(f"degree {r} out of range 0..{n - 1}")
    rows, _ = _derham_rows(P, r)
    out = GradedSubspace(P, wedge_module(n, r), box)
    target_labels, target_slots = _window(P, wedge_module(n, r + 1), box)
    for w, labels in out.labels.items():
        if labels:
            cols = _block_columns(P, rows, labels, target_slots[w])
            out.blocks[w] = kernel(cols, len(target_labels[w]))
    return out._freeze()


@lru_cache(maxsize=4)
def partial_span(P: WeightModuleP, box: TruncationBox) -> GradedSubspace:
    """Span of the images of the plain derivative operators inside P;
    frozen and memoised per (P, box).  Each weight block has one label, so
    the block is spanned by [1] as soon as some d_l reaches its weight with
    a nonzero ``_scaled_monomial_on_key``."""
    n = P.rank
    out = GradedSubspace(P, wedge_module(n, 0), box)
    zero = mi_zero(n)
    for w in box.keys():
        if not P.supports_key(w):
            continue
        for l in range(1, n + 1):
            src = tuple(w[s] + (1 if s == l - 1 else 0) for s in range(n))
            if P.supports_key(src) and _scaled_monomial_on_key(P, src, zero, mi_unit(l, n)):
                out.blocks[w].insert([1])
                break
    return out._freeze()


def _failing_sources(P, table, sources):
    """The basis vectors (key, midx) among ``sources`` that the tabulated
    operator does not kill; ``sources`` lists (key, midxs) pairs, one basis
    vector per midx.

    Every image term is keyed by its source as well, so one accumulation
    serves the whole list: a source fails exactly when one of its image
    terms survives.  A source whose integer row is empty is killed on every
    key and costs nothing, and when every row is empty nothing is walked.
    """
    rows, _ = _integer_rows(P, table)
    if not any(rows):
        return set()

    def images():
        for key, midxs in sources:
            for midx in midxs:
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


def _lemma_report(check, alpha, i, P, r, table, sources, checked, labels):
    """Report of an operator lemma: the tabulated operator must kill every
    source basis vector ((key, midxs) pairs as in ``_failing_sources``,
    ``checked`` of them in all)."""
    failing = _failing_sources(P, table, sources)
    failures = []
    if failing:
        failures = [
            {"key": list(key), "label": str(labels[midx])}
            for key, midxs in sources
            for midx in midxs
            if (key, midx) in failing
        ]
    return {
        "check": check,
        "params": {"alpha": list(alpha), "i": i, "P": repr(P), "r": r},
        "checked": checked,
        "failures": failures,
        # a report that looked at nothing proves nothing
        "pass": checked > 0 and not failures,
    }


def _supported_keys(P: WeightModuleP, box: TruncationBox):
    """The keys of the box that P supports, in box order (its callers are
    memoised per profile)."""
    return tuple(key for key in box.keys() if P.supports_key(key))


@lru_cache(maxsize=32)
def _wedge_sources(P: WeightModuleP, r: int, key_box: TruncationBox):
    """(sources, count): (key, midxs) for every supported key of the box,
    every basis vector of F(P, wedge^r) there, listed once per profile."""
    midxs = tuple(range(wedge_module(P.rank, r).dim))
    keys = _supported_keys(P, key_box)
    return tuple((key, midxs) for key in keys), len(keys) * len(midxs)


@lru_cache(maxsize=64)
def _lemma_template(check: str, n: int, i: int, r: int):
    """The action table of a lemma's operator on F(P, wedge^r) over a
    symbolic alpha, built once per (check, n, i, r) by the library's own
    kernels on the n symbols of ``terms.Poly``: g - u through
    ``_action_table`` (check "g-equals-u"), or h through ``_action_table``
    after the de Rham map from degree r - 1 (``_after_derham``, check
    "h-annihilates").  The entries are merged per (source index, Weyl
    monomial, target index) and kept as ``tensorop._template`` over the
    base alpha, the pair (source index, target index) as its tag.

    Evaluation at alpha is a ring map that keeps distinct rows distinct, so
    the table at alpha is that of the per-alpha operator, entry by entry
    after merging, which is all ``_integer_rows`` reads.  No rows prove
    the lemma for every integer alpha and every P at (n, i, r).
    """
    alpha = Poly.symbols(n)
    wedge = wedge_module(n, r)
    if check == "g-equals-u":
        op = _special_operator("g", alpha, i) - _special_operator("u", alpha, i)
        table = _action_table(op, wedge)
    else:
        table = _after_derham(_action_table(_special_operator("h", alpha, i), wedge), n, r)
    merged = accumulate(
        {},
        (
            (((t_exp, d_exp), (src, dst)), c * mc)
            for src, entries in enumerate(table)
            for t_exp, d_exp, mvec, c in entries
            for dst, mc in mvec.items()
        ),
    )
    return _template(merged, alpha)


def _lemma_table(check: str, alpha, i: int, r: int, size: int):
    """The ``_action_table`` of a lemma's operator at alpha, over ``size``
    source indices, read off ``_lemma_template``: one entry
    (t_exp, d_exp, {dst: coeff}, 1) per term."""
    table = [[] for _ in range(size)]
    terms = _evaluated(_lemma_template(check, len(alpha), i, r), alpha, alpha)
    for ((t_exp, d_exp), (src, dst)), c in terms.items():
        table[src].append((t_exp, d_exp, {dst: c}, 1))
    return table


def _lemma_args(alpha, i: int, P: WeightModuleP, r: int) -> tuple:
    """The argument checks of an operator lemma: alpha of length P.rank,
    r in 2..n-1, and those of the special operators (``_special_args``,
    the same for every kind).  Returns alpha as a tuple."""
    alpha = tuple(alpha)
    n = P.rank
    if len(alpha) != n:
        raise ArgumentError(f"alpha has length {len(alpha)}, but P has rank {n}")
    if not 2 <= r <= n - 1:
        raise ArgumentError(f"degree {r} out of range 2..{n - 1}")
    return _special_args("h", alpha, i)


def verify_g_equals_u(alpha, i: int, P: WeightModuleP, r: int, key_box: TruncationBox):
    """(g - u) applied to p (x) v for every wedge label v and key in the box,
    through the table of ``_lemma_template``.

    Returns a report dict; "pass" means every residual vanished.
    """
    alpha = _lemma_args(alpha, i, P, r)
    wedge = wedge_module(P.rank, r)
    table = _lemma_table("g-equals-u", alpha, i, r, wedge.dim)
    sources, checked = _wedge_sources(P, r, key_box)
    return _lemma_report(
        "g-equals-u", alpha, i, P, r, table, sources, checked, wedge.labels
    )


def verify_h_annihilates(alpha, i: int, P: WeightModuleP, r: int, key_box: TruncationBox):
    """h applied to the de Rham spanning vectors of degree r, through the
    composite table of h after the de Rham map (``_lemma_template``)."""
    alpha = _lemma_args(alpha, i, P, r)
    source = wedge_module(P.rank, r - 1)
    table = _lemma_table("h-annihilates", alpha, i, r, source.dim)
    sources, checked = _derham_sources(P, r - 1, key_box)
    return _lemma_report(
        "h-annihilates", alpha, i, P, r, table, sources, checked, source.labels
    )


@lru_cache(maxsize=32)
def _derham_sources(P: WeightModuleP, r: int, key_box: TruncationBox):
    """(sources, count): the basis vectors of F(P, wedge^r) over the box
    whose de Rham image is not zero, as (key, midxs) pairs, listed once per
    profile: a vector whose image is zero spans nothing to check.

    The image of p (x) v has one term per l outside the label of v, so it
    is nonzero exactly when the set of l whose d_l does not kill the key is
    not inside the label.  On a supported key, d_l kills the key or not by
    k_l alone (the other lines keep their keys), so the live k values of
    each line are tabulated once over the box: n x box-width evaluations,
    not n per key.
    """
    n = P.rank
    labels = wedge_module(n, r).labels
    keys = _supported_keys(P, key_box)
    if not keys:
        return (), 0
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
            midxs = kept[live] = tuple(
                midx for midx, label in enumerate(labels) if not live.issubset(label)
            )
        if midxs:
            sources.append((key, midxs))
    return tuple(sources), sum(len(midxs) for _, midxs in sources)
