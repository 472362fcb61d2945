"""The de Rham maps between exterior-power tensor modules, the canonical
graded submodules they generate, and the operator lemmas about them.

All subspaces are stored per weight: the maps never move weight, so each
weight block is an exact finite-dimensional linear-algebra problem and the
box only chooses which weights to materialize.
"""

from __future__ import annotations

from .errors import ArgumentError, StructureError
from .indices import TruncationBox, mi_unit, mi_zero
from .linalg import RowBasis, nullspace
from .terms import accumulate
from .tensorop import TensorOperator, special_operator
from .weightmod import (
    FVector,
    SLModule,
    WeightModuleP,
    _monomial_on_key,
    make_wedge_module as wedge_module,
    tensor_act,  # noqa: F401  (part of this namespace; perfbench/tracer.py wraps it here)
)


def wedge_degree(M: SLModule) -> int:
    r = int(M.central)
    if M is not wedge_module(M.rank, r):
        raise ArgumentError("module is not an exterior power")
    return r


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
    source = w.module_m
    target = wedge_module(n, r + 1)
    index = {lab: pos for pos, lab in enumerate(target.labels)}
    zero = mi_zero(n)

    def images():
        for (key, midx), c in w.terms.items():
            label = source.labels[midx]
            for l in range(1, n + 1):
                if l in label:
                    continue
                hit = _monomial_on_key(P, key, zero, mi_unit(l, n))
                if hit is None:
                    continue
                coeff, new_key = hit
                crossings = sum(1 for x in label if x < l)
                sign = -1 if crossings % 2 else 1
                new_label = tuple(sorted(label + (l,)))
                yield (new_key, index[new_label]), c * coeff * sign

    return FVector(P, target, accumulate({}, images()))


def ambient_labels(P: WeightModuleP, M: SLModule, weight):
    """Basis labels (key, m-index) of the tensor module at one weight."""
    out = []
    for midx in range(M.dim):
        key = tuple(w - x for w, x in zip(weight, M.weights[midx]))
        if P.supports_key(key):
            out.append((key, midx))
    return out


class GradedSubspace:
    """Weight-indexed family of echelonized subspaces of a tensor module."""

    def __init__(self, module_p: WeightModuleP, module_m: SLModule, weights):
        self.module_p = module_p
        self.module_m = module_m
        self.labels = {}
        self.blocks = {}
        for w in weights:
            labels = ambient_labels(module_p, module_m, w)
            self.labels[w] = labels
            self.blocks[w] = RowBasis(len(labels))

    def weights(self):
        return sorted(self.labels)

    def ambient_dim_at(self, weight) -> int:
        return len(self.labels.get(weight, ()))

    def dim_at(self, weight) -> int:
        block = self.blocks.get(weight)
        return block.dim if block else 0

    def dims(self):
        return {w: self.blocks[w].dim for w in sorted(self.blocks)}

    def total_dim(self) -> int:
        return sum(b.dim for b in self.blocks.values())

    def _coords(self, weight, terms):
        labels = self.labels[weight]
        slot = {lab: pos for pos, lab in enumerate(labels)}
        vec = [0] * len(labels)
        for lab, c in terms.items():
            if lab not in slot:
                raise StructureError(f"label {lab} missing at weight {weight}")
            vec[slot[lab]] = c
        return vec

    def split_by_weight(self, v: FVector):
        parts = {}
        for (key, midx), c in v.terms.items():
            w = v.weight_of(key, midx)
            parts.setdefault(w, {})[(key, midx)] = c
        return parts

    def insert(self, v: FVector) -> bool:
        grew = False
        for w, terms in self.split_by_weight(v).items():
            if w not in self.blocks:
                raise StructureError(f"weight {w} outside the subspace window")
            if self.blocks[w].insert(self._coords(w, terms)):
                grew = True
        return grew

    def contains(self, v: FVector) -> bool:
        for w, terms in self.split_by_weight(v).items():
            block = self.blocks.get(w)
            if block is None or not block.contains(self._coords(w, terms)):
                return False
        return True

    def covers(self, weight) -> bool:
        return weight in self.blocks

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
    is exact at each weight the box selects.
    """
    n = P.rank
    if not 1 <= r <= n:
        raise ArgumentError(f"degree {r} out of range 1..{n}")
    source = wedge_module(n, r - 1)
    target = wedge_module(n, r)
    out = GradedSubspace(P, target, box.keys())
    for w in box.keys():
        for midx in range(source.dim):
            key = tuple(a - b for a, b in zip(w, source.weights[midx]))
            if not P.supports_key(key):
                continue
            image = pi(FVector.basis(P, source, key, midx))
            if not image.is_zero():
                out.insert(image)
    return out


def pi_kernel(P: WeightModuleP, r: int, box: TruncationBox) -> GradedSubspace:
    """Kernel of the degree-r de Rham map, weight block by weight block."""
    n = P.rank
    if not 0 <= r <= n - 1:
        raise ArgumentError(f"degree {r} out of range 0..{n - 1}")
    source = wedge_module(n, r)
    target = wedge_module(n, r + 1)
    out = GradedSubspace(P, source, box.keys())
    for w in box.keys():
        labels = out.labels[w]
        if not labels:
            continue
        target_labels = ambient_labels(P, target, w)
        slot = {lab: pos for pos, lab in enumerate(target_labels)}
        rows = []
        for key, midx in labels:
            image = pi(FVector.basis(P, source, key, midx))
            vec = [0] * len(target_labels)
            for (k2, m2), c in image.terms.items():
                vec[slot[(k2, m2)]] = c
            rows.append(vec)
        # rows[i] is the image of basis vector i; kernel combinations come
        # from the transposed system
        matrix = [[rows[i][c] for i in range(len(labels))] for c in range(len(target_labels))]
        for combo in nullspace(matrix, len(labels)):
            terms = {lab: c for lab, c in zip(labels, combo) if c != 0}
            out.insert(FVector(P, source, terms))
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


def _action_table(P: WeightModuleP, op: TensorOperator, M: SLModule):
    """Per m-index list of (t_exp, d_exp, m-image, coeff) with the PBW part
    applied once; evaluating on many keys then skips all object building."""
    table = []
    for midx in range(M.dim):
        entries = []
        for ((t_exp, d_exp), pmono), c in op.terms.items():
            mvec = M.apply_pbw(pmono, {midx: 1})
            if mvec:
                entries.append((t_exp, d_exp, mvec, c))
        table.append(entries)
    return table


def _failing_sources(P, table, sources):
    """The basis vectors (key, midx) among ``sources`` that the tabulated
    operator does not kill.

    Every image term is keyed by its source as well, so one accumulation
    serves the whole list: a source fails exactly when one of its image
    terms survives.
    """

    def images():
        for key, midx in sources:
            for t_exp, d_exp, mvec, c in table[midx]:
                hit = _monomial_on_key(P, key, t_exp, d_exp)
                if hit is None:
                    continue
                coeff, new_key = hit
                base = c * coeff
                for dst, mc in mvec.items():
                    yield (key, midx, new_key, dst), base * mc

    return {(key, midx) for key, midx, _, _ in accumulate({}, images())}


def _lemma_report(check, alpha, i, P, r, table, sources, labels):
    """Report of an operator lemma: the tabulated operator must kill every
    source basis vector."""
    failing = _failing_sources(P, table, sources)
    failures = [
        {"key": list(key), "label": str(labels[midx])}
        for key, midx in sources
        if (key, midx) in failing
    ]
    return {
        "check": check,
        "params": {"alpha": list(alpha), "i": i, "P": repr(P), "r": r},
        "checked": len(sources),
        "failures": failures,
        "pass": not failures,
    }


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
    table = _action_table(P, diff.demote(), wedge)
    sources = [
        (key, midx)
        for key in key_box.keys()
        if P.supports_key(key)
        for midx in range(wedge.dim)
    ]
    return _lemma_report("g-equals-u", alpha, i, P, r, table, sources, wedge.labels)


def verify_h_annihilates(alpha, i: int, P: WeightModuleP, r: int, key_box: TruncationBox):
    """h applied to the de Rham spanning vectors of degree r.

    The composite (h after the de Rham map) is tabulated once per source
    label: the map only appends a derivative factor on the right, so the
    two-step action equals the action of the composed monomials exactly.
    """
    n = P.rank
    alpha = tuple(alpha)
    if not 2 <= r <= n - 1:
        raise ArgumentError(f"degree {r} out of range 2..{n - 1}")
    h = special_operator("h", alpha, i)
    source = wedge_module(n, r - 1)
    wedge = wedge_module(n, r)
    table = _action_table(P, h.demote(), wedge)
    index = {lab: pos for pos, lab in enumerate(wedge.labels)}
    composite = []
    for label in source.labels:
        entries = []
        for l in range(1, n + 1):
            if l in label:
                continue
            crossings = sum(1 for x in label if x < l)
            sign = -1 if crossings % 2 else 1
            dst = index[tuple(sorted(label + (l,)))]
            e_l = mi_unit(l, n)
            for t_exp, d_exp, mvec, c in table[dst]:
                entries.append(
                    (
                        t_exp,
                        tuple(g + u for g, u in zip(d_exp, e_l)),
                        mvec,
                        c * sign,
                    )
                )
        composite.append(entries)
    zero = mi_zero(n)
    # a vector whose de Rham image is zero spans nothing to check
    sources = [
        (key, midx)
        for key in key_box.keys()
        if P.supports_key(key)
        for midx, label in enumerate(source.labels)
        if any(
            _monomial_on_key(P, key, zero, mi_unit(l, n)) is not None
            for l in range(1, n + 1)
            if l not in label
        )
    ]
    return _lemma_report(
        "h-annihilates", alpha, i, P, r, composite, sources, source.labels
    )
