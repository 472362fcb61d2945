"""Truncated submodule closure and desk-scale structure evidence.

The closure engine works per weight: generators act weight-homogeneously, so
each application maps one exact weight block into another and the truncation
box only decides which applications are attempted.  Classification and all
simplicity evidence are judged on the inner box; the margin keeps boundary
truncation from starving it.
"""

from __future__ import annotations

import itertools
from collections import deque

from .errors import ArgumentError, StructureError
from .derham import (
    GradedSubspace,
    ambient_labels,
    partial_span,
    pi_image,
    pi_kernel,
)
from .indices import TruncationBox
from .linalg import RowBasis
from .tensorop import shen_iota
from .terms import accumulate
from .vectorfields import L_op, VectorField, is_divergence_free
from .weightmod import (
    FVector,
    SLModule,
    WeightModuleP,
    make_wedge_module,
    tensor_act,
)


class Generator:
    """A named divergence-free generator with its weight shift."""

    __slots__ = ("name", "field", "shift")

    def __init__(self, name: str, field: VectorField, shift):
        self.name = name
        self.field = field
        self.shift = tuple(shift)


class GeneratorSet:
    """Ordered list of generators; default is the L window with small alpha."""

    def __init__(self, members):
        members = list(members)
        for g in members:
            if not is_divergence_free(g.field):
                raise StructureError(f"generator {g.name} has nonzero divergence")
        self.members = members

    def __len__(self):
        return len(self.members)

    def names(self):
        return [g.name for g in self.members]

    @classmethod
    def default(cls, n: int, cap: int = 1) -> GeneratorSet:
        """All L generators with -e_i-e_j <= alpha <= cap componentwise.

        With cap = 1 every weight shift stays within 1 per coordinate, which
        the default margin of 2 covers with room to spare.
        """
        members = []
        for i, j in itertools.combinations(range(1, n + 1), 2):
            lows = [-1 if s in (i - 1, j - 1) else 0 for s in range(n)]
            for alpha in itertools.product(*[range(lo, cap + 1) for lo in lows]):
                field = L_op(i, j, alpha)
                if field.is_zero():
                    continue
                name = f"L[{i},{j};(" + ",".join(str(a) for a in alpha) + ")]"
                members.append(Generator(name, field, alpha))
        return cls(members)


class ClosureEngine:
    """Caches ambient labels and per-(generator, weight) action matrices."""

    def __init__(
        self,
        module_p: WeightModuleP,
        module_m: SLModule,
        gens: GeneratorSet,
        box: TruncationBox,
        mod: GradedSubspace | None = None,
    ):
        self.module_p = module_p
        self.module_m = module_m
        self.box = box
        self.gens = gens.members
        self.iotas = [shen_iota(g.field) for g in self.gens]
        self.labels = {w: ambient_labels(module_p, module_m, w) for w in box.keys()}
        self.slots = {
            w: {lab: pos for pos, lab in enumerate(labs)}
            for w, labs in self.labels.items()
        }
        self.mod = mod
        self._matrices = {}

    def ambient_dims(self):
        return {w: len(labs) for w, labs in self.labels.items()}

    def matrix(self, gi: int, w):
        """Columns of generator gi at weight w, or None when it leaves the box."""
        key = (gi, w)
        if key in self._matrices:
            return self._matrices[key]
        target = tuple(a + b for a, b in zip(w, self.gens[gi].shift))
        if not self.box.contains(target):
            self._matrices[key] = None
            return None
        slots = self.slots[target]
        cols = []
        for lab_key, midx in self.labels[w]:
            image = tensor_act(
                self.iotas[gi],
                FVector.basis(self.module_p, self.module_m, lab_key, midx),
            )
            col = []
            for (k2, m2), c in image.terms.items():
                pos = slots.get((k2, m2))
                if pos is None:
                    raise StructureError("generator action left its weight block")
                col.append((pos, c))
            cols.append(col)
        out = (target, cols)
        self._matrices[key] = out
        return out

    def vector_to_dense(self, v: FVector):
        """Split an in-box vector into (weight, dense coordinates) pairs."""
        parts = {}
        for (key, midx), c in v.terms.items():
            w = v.weight_of(key, midx)
            if w not in self.slots:
                raise ArgumentError(f"seed weight {w} outside the box")
            parts.setdefault(w, {})[(key, midx)] = c
        out = []
        for w, terms in parts.items():
            dense = [0] * len(self.labels[w])
            slot = self.slots[w]
            for lab, c in terms.items():
                dense[slot[lab]] = c
            out.append((w, dense))
        return out


class ClosureReport:
    """Per-weight dimensions of a closure plus its classification."""

    def __init__(self, box, dims, ambient_dims, classification, boundary_weights,
                 target_dims=None, reached_target=None, applications=0):
        self.box = box
        self.dims = dims
        self.ambient_dims = ambient_dims
        self.classification = classification
        self.boundary_weights = boundary_weights
        self.target_dims = target_dims
        self.reached_target = reached_target
        self.applications = applications

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def inner_dims(self):
        return {w: d for w, d in self.dims.items() if self.box.contains_inner(w)}

    def first_unreached(self):
        if self.target_dims is None:
            return None
        for w in sorted(self.target_dims):
            if self.dims.get(w, 0) < self.target_dims[w]:
                return w
        return None

    def to_json_obj(self):
        obj = {
            "box": {
                "lower": list(self.box.lower),
                "upper": list(self.box.upper),
                "margin": self.box.margin,
            },
            "classification": self.classification,
            "dims": [
                {"weight": list(w), "dim": d, "ambient": self.ambient_dims[w]}
                for w, d in sorted(self.dims.items())
                if d or self.box.contains_inner(w)
            ],
            "boundaryAffected": [list(w) for w in self.boundary_weights],
        }
        if self.target_dims is not None:
            obj["reachedTarget"] = self.reached_target
            first = self.first_unreached()
            obj["firstUnreached"] = list(first) if first else None
        return obj


def closure(seeds, gens: GeneratorSet, box: TruncationBox,
            engine: ClosureEngine | None = None, target_dims=None,
            stop_at_target: bool = False) -> ClosureReport:
    """Least in-box subspace containing the seeds and closed under the
    generators whose application stays inside the outer box.

    ``target_dims`` (weight -> dim over the inner box) enables early exit
    once every listed block is full; the report is honest either way.
    """
    seeds = list(seeds)
    if not seeds:
        raise ArgumentError("need at least one seed")
    if engine is None:
        first = seeds[0]
        engine = ClosureEngine(first.module_p, first.module_m, gens, box)
    blocks: dict = {}
    queue: deque = deque()
    deficit = sum(target_dims.values()) if target_dims else None

    def insert(w, dense):
        nonlocal deficit
        basis = blocks.get(w)
        if basis is None:
            basis = blocks[w] = RowBasis(len(engine.labels[w]))
        if engine.mod is not None:
            dense = engine.mod.blocks[w].reduce(dense)
        before = basis.dim
        if not basis.insert(dense):
            return False
        if target_dims and w in target_dims and before < target_dims[w]:
            deficit -= 1
        queue.append((w, dense))
        return True

    for seed in seeds:
        for w, dense in engine.vector_to_dense(seed):
            insert(w, dense)
    applications = 0
    while queue:
        if stop_at_target and deficit == 0:
            break
        w, vec = queue.popleft()
        support = [pos for pos, c in enumerate(vec) if c != 0]
        for gi in range(len(engine.gens)):
            hit = engine.matrix(gi, w)
            if hit is None:
                continue
            target, cols = hit
            out = accumulate(
                {}, ((dst, vec[pos] * m) for pos in support for dst, m in cols[pos])
            )
            applications += 1
            if out:
                dense = [0] * len(engine.labels[target])
                for dst, c in out.items():
                    dense[dst] = c
                insert(target, dense)
    dims = {w: blocks[w].dim if w in blocks else 0 for w in box.keys()}
    ambient = engine.ambient_dims()
    classification = _classify(box, dims, ambient)
    boundary = sorted(
        w for w, d in dims.items() if d and not box.contains_inner(w)
    )
    reached = None
    if target_dims is not None:
        reached = all(dims.get(w, 0) >= t for w, t in target_dims.items())
    return ClosureReport(
        box, dims, ambient, classification, boundary,
        target_dims=target_dims, reached_target=reached, applications=applications,
    )


def _classify(box, dims, ambient) -> str:
    total = sum(dims.values())
    if total == 0:
        return "zero"
    if total == 1:
        return "trivial-line"
    full = all(
        dims.get(w, 0) == ambient.get(w, 0)
        for w in box.inner_keys()
    )
    return "full-in-inner-box" if full else "proper"


def _subspace_target(subspace: GradedSubspace, box: TruncationBox):
    return {w: subspace.dim_at(w) for w in box.inner_keys()}


def evidence_simplicity(
    module_p: WeightModuleP,
    module_m: SLModule | None,
    ambient: str,
    box: TruncationBox,
    r: int | None = None,
    gens: GeneratorSet | None = None,
):
    """Cyclicity evidence: from every ambient basis seed at every inner-box
    weight, the closure must reach the full inner-box span of the ambient.

    ``ambient`` is one of "F", "Ln", "deltaP", "quotient" (the quotient of F
    by the kernel submodule at degree r).  Basis-seed cyclicity is necessary
    but weaker than simplicity: arbitrary-vector seeds are not enumerated,
    and the report says so.
    """
    n = module_p.rank
    if gens is None:
        gens = GeneratorSet.default(n)
    if ambient == "F":
        if module_m is None:
            raise ArgumentError("ambient F needs the finite-dimensional factor")
        engine = ClosureEngine(module_p, module_m, gens, box)
        target = {w: len(engine.labels[w]) for w in box.inner_keys()}
        seeds, seed_tags = _full_module_seeds(module_p, module_m, box, engine)
    elif ambient == "Ln":
        if r is None:
            raise ArgumentError("ambient Ln needs r")
        subspace = pi_image(module_p, r, box)
        module_m = make_wedge_module(n, r)
        engine = ClosureEngine(module_p, module_m, gens, box)
        target = _subspace_target(subspace, box)
        seeds, seed_tags = _subspace_seeds(subspace, box)
    elif ambient == "deltaP":
        subspace = partial_span(module_p, box)
        module_m = make_wedge_module(n, 0)
        engine = ClosureEngine(module_p, module_m, gens, box)
        target = _subspace_target(subspace, box)
        seeds, seed_tags = _subspace_seeds(subspace, box)
    elif ambient == "quotient":
        if r is None:
            raise ArgumentError("ambient quotient needs r")
        kernel = pi_kernel(module_p, r, box)
        module_m = make_wedge_module(n, r)
        engine = ClosureEngine(module_p, module_m, gens, box, mod=kernel)
        target = {
            w: len(engine.labels[w]) - kernel.dim_at(w) for w in box.inner_keys()
        }
        seeds = []
        seed_tags = []
        for w in box.inner_keys():
            block = kernel.blocks[w]
            for pos in range(len(engine.labels[w])):
                dense = [0] * len(engine.labels[w])
                dense[pos] = 1
                if any(c != 0 for c in block.reduce(dense)):
                    key, midx = engine.labels[w][pos]
                    seeds.append(FVector.basis(module_p, module_m, key, midx))
                    seed_tags.append({"weight": list(w), "index": pos})
    else:
        raise ArgumentError(f"unknown ambient kind {ambient!r}")

    if not any(target.values()):
        raise ArgumentError("ambient space is empty on the inner box")
    results = []
    overall = True
    for seed, tag in zip(seeds, seed_tags):
        report = closure(
            [seed], gens, box, engine=engine, target_dims=target, stop_at_target=True
        )
        ok = bool(report.reached_target)
        overall = overall and ok
        entry = dict(tag)
        entry["pass"] = ok
        if not ok:
            first = report.first_unreached()
            entry["firstUnreached"] = list(first) if first else None
            entry["closureDims"] = sum(report.dims.values())
        results.append(entry)
    return {
        "check": f"simplicity-evidence[{ambient}]",
        "params": {
            "P": repr(module_p),
            "M": module_m.name if module_m is not None else None,
            "r": r,
            "box": [list(box.lower), list(box.upper)],
            "margin": box.margin,
            "generators": len(gens),
        },
        "seeds": results,
        "pass": overall,
        "note": (
            "basis-seed cyclicity on a finite box: necessary-but-weaker "
            "evidence than simplicity; arbitrary-vector seeds are not "
            "enumerated"
        ),
    }


def _subspace_seeds(subspace: GradedSubspace, box: TruncationBox):
    seeds = []
    tags = []
    for w in box.inner_keys():
        for pos, vec in enumerate(subspace.basis_vectors(w)):
            seeds.append(vec)
            tags.append({"weight": list(w), "index": pos})
    return seeds, tags


def _full_module_seeds(module_p, module_m, box, engine):
    """Seed basis for the full tensor module, adapted to the canonical
    submodule when the finite factor is an exterior power.

    Each inner weight block is seeded by the de Rham image rows (these are
    the seeds that expose non-simplicity: their closures stay inside the
    image) completed to the full block by standard basis vectors.
    """
    n = module_p.rank
    sub = None
    for r in range(0, n):
        if module_m is make_wedge_module(n, r):
            sub = partial_span(module_p, box) if r == 0 else pi_image(module_p, r, box)
            break
    seeds = []
    tags = []
    for w in box.inner_keys():
        labels = engine.labels[w]
        taken = RowBasis(len(labels))
        if sub is not None:
            for pos, vec in enumerate(sub.basis_vectors(w)):
                seeds.append(vec)
                tags.append({"weight": list(w), "index": pos, "kind": "submodule-row"})
                taken.insert(next(iter(engine.vector_to_dense(vec)))[1])
        for pos, (key, midx) in enumerate(labels):
            dense = [0] * len(labels)
            dense[pos] = 1
            if taken.insert(dense):
                seeds.append(FVector.basis(module_p, module_m, key, midx))
                tags.append({"weight": list(w), "index": pos, "kind": "basis"})
    return seeds, tags


def subquotient_inventory(module_p: WeightModuleP, r: int, box: TruncationBox):
    """Graded dimensions of the canonical chain inside F(P, wedge^r) and the
    identification of its nontrivial layers by graded dimension.
    """
    n = module_p.rank
    if not 0 <= r <= n - 1:
        raise ArgumentError(f"degree {r} out of range 0..{n - 1}")
    all_poly = all(f.kind == "poly" for f in module_p.factors)
    triv = make_wedge_module(n, 0)
    layers = []
    if r == 0:
        full = {
            w: (1 if module_p.supports_key(w) else 0) for w in box.keys()
        }
        delta = partial_span(module_p, box).dims()
        if all_poly:
            # chain 0 < constants < P
            const = {w: (1 if w == (0,) * n else 0) for w in box.keys()}
            layers.append(_layer("constants", const, trivial=True))
            layers.append(
                _layer(
                    "P/constants",
                    {w: full[w] - const[w] for w in box.keys()},
                    trivial=False,
                )
            )
        else:
            # chain 0 <= deltaP <= P with trivial quotient
            layers.append(_layer("deltaP", delta, trivial=False))
            gap = {w: full[w] - delta.get(w, 0) for w in box.keys()}
            if any(gap.values()):
                layers.append(_layer("P/deltaP", gap, trivial=True))
        chain = {"F": full, "deltaP": delta}
    else:
        image = pi_image(module_p, r, box).dims()
        kernel = pi_kernel(module_p, r, box).dims()
        engine_labels = {
            w: len(ambient_labels(module_p, make_wedge_module(n, r), w))
            for w in box.keys()
        }
        full = engine_labels
        gap = {w: kernel[w] - image[w] for w in box.keys()}
        quotient = {w: full[w] - kernel[w] for w in box.keys()}
        chain = {"image": image, "kernel": kernel, "F": full}
        # bottom layer
        if r == 1:
            name = "P/constants" if all_poly else "P (via de Rham)"
        else:
            name = f"image({r})"
        layers.append(_layer(name, image, trivial=False))
        if any(gap.values()):
            layers.append(_layer("kernel/image", gap, trivial=True))
        # top layer F / kernel
        if r < n - 1:
            layers.append(_layer(f"image({r + 1})", quotient, trivial=False))
        else:
            shift = (1,) * n
            if all_poly:
                const = {
                    w: (1 if w == shift else 0) for w in box.keys()
                }
                rest = {w: quotient[w] - const[w] for w in box.keys()}
                layers.append(_layer("constants (shifted)", const, trivial=True))
                layers.append(_layer("P/constants (shifted)", rest, trivial=False))
            else:
                layers.append(_layer("deltaP (shifted)", quotient, trivial=False))
    matches = _match_candidates(module_p, r, box, layers)
    nontrivial = [l["name"] for l in layers if not l["trivial"] and any(l["dims"].values())]
    return {
        "check": "subquotient-inventory",
        "params": {
            "P": repr(module_p),
            "r": r,
            "box": [list(box.lower), list(box.upper)],
        },
        "layers": [
            {
                "name": l["name"],
                "trivial": l["trivial"],
                "dims": _dims_json(l["dims"]),
                "totalDim": sum(l["dims"].values()),
            }
            for l in layers
        ],
        "nontrivial": sorted(set(nontrivial)),
        "candidateMatches": matches,
        "pass": all(m["match"] for m in matches),
    }


def _layer(name, dims, trivial):
    return {"name": name, "dims": dims, "trivial": trivial}


def _dims_json(dims):
    return [
        {"weight": list(w), "dim": d} for w, d in sorted(dims.items()) if d
    ]


def _match_candidates(module_p, r, box, layers):
    """Cross-check every named nontrivial layer against an independently
    computed candidate dimension profile."""
    n = module_p.rank
    out = []
    for layer in layers:
        name = layer["name"]
        dims = layer["dims"]
        candidate = None
        if name == "P/constants":
            candidate = {
                w: (1 if module_p.supports_key(w) and w != (0,) * n else 0)
                for w in box.keys()
            }
        elif name == "P (via de Rham)":
            candidate = {
                w: (1 if module_p.supports_key(w) else 0) for w in box.keys()
            }
        elif name == "deltaP":
            candidate = partial_span(module_p, box).dims()
        elif name.startswith("image("):
            rr = int(name[len("image("):-1])
            candidate = pi_image(module_p, rr, box).dims()
        elif name == "deltaP (shifted)":
            shifted_box = TruncationBox(
                tuple(x - 1 for x in box.lower), tuple(x - 1 for x in box.upper)
            )
            delta = partial_span(module_p, shifted_box).dims()
            candidate = {
                w: delta.get(tuple(x - 1 for x in w), 0) for w in box.keys()
            }
        elif name == "P/constants (shifted)":
            candidate = {
                w: (
                    1
                    if module_p.supports_key(tuple(x - 1 for x in w))
                    and w != (1,) * n
                    else 0
                )
                for w in box.keys()
            }
        if candidate is None:
            continue
        out.append(
            {
                "layer": name,
                "match": all(
                    dims.get(w, 0) == candidate.get(w, 0) for w in box.keys()
                ),
            }
        )
    return out
