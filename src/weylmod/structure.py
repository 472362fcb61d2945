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
from functools import cache, cached_property
from math import prod
from operator import add, getitem, mul, sub

from .errors import ArgumentError, StructureError
from .derham import (
    GradedSubspace,
    partial_span,
    pi_image,
    pi_kernel,
)
from .indices import TruncationBox
from .linalg import RowBasis, clear_denominators
from .memo import bounded
from .tensorop import shen_iota
from .vectorfields import L_op, VectorField, is_divergence_free
from .weightmod import (
    POLY,
    TWIST,
    FVector,
    SLModule,
    WeightModuleP,
    _acting_form,
    _action_table,
    _block_columns,
    _integer_rows,
    _rows_on_terms,
    make_wedge_module,
    tensor_act,  # noqa: F401  (part of this namespace; perfbench/tracer.py wraps it here)
)


class Generator:
    """A named divergence-free generator with its weight shift, the common
    weight a - e_i of the terms t^a d_i of its field."""

    __slots__ = ("name", "field", "shift")

    def __init__(self, name: str, field: VectorField):
        shifts = {tuple(map(sub, t_exp, d_exp)) for t_exp, d_exp in field.terms}
        if len(shifts) != 1:
            raise ArgumentError(f"generator {name} needs a nonzero field of one weight")
        self.name = name
        self.field = field
        (self.shift,) = shifts


class GeneratorSet:
    """Ordered tuple of generators; default is the L window with small alpha.

    The constructor checks divergence once; every member then acts through
    its rows in ``_member_rows``, built once per (member, P, M).
    ``reach[s]`` is (raises, lowers): whether some member's shift is
    positive, and whether some member's is negative, in coordinate s.
    """

    def __init__(self, members):
        members = tuple(members)
        for g in members:
            if not is_divergence_free(g.field):
                raise StructureError(f"generator {g.name} has nonzero divergence")
        self.members = members
        self.reach = tuple((max(c) > 0, min(c) < 0) for c in zip(*(g.shift for g in members)))

    def act(self, gi: int, v: FVector) -> FVector:
        """Member gi acting on v, as ``sn_act`` of its field does."""
        P, M = v.module_p, v.module_m
        rows, den = _member_rows(self.members[gi], P, M)
        return _rows_on_terms(M, rows, den, v)

    def __len__(self):
        return len(self.members)

    @classmethod
    def default(cls, n: int, cap: int = 1) -> GeneratorSet:
        """All L generators with -e_i-e_j <= alpha <= cap componentwise,
        built once per (n, cap) (``_default_generators``): treat the
        returned set as read-only.

        With cap = 1 every weight shift stays within 1 per coordinate, which
        the default margin of 2 covers with room to spare.  Every cap >= 0
        keeps L_ij at alpha = 0; a cap below 0 leaves no nonzero field.
        """
        if type(cap) is not int:
            raise ArgumentError(f"generator cap {cap!r} is not an integer")
        if cap < 0:
            raise ArgumentError(f"generator cap {cap} leaves no generator, use a cap >= 0")
        return _default_generators(n, cap)


@bounded(8)
def _default_generators(n: int, cap: int) -> GeneratorSet:
    members = []
    for i, j in itertools.combinations(range(1, n + 1), 2):
        lows = [-1 if s in (i - 1, j - 1) else 0 for s in range(n)]
        for alpha in itertools.product(*[range(lo, cap + 1) for lo in lows]):
            field = L_op(i, j, alpha)
            if field.is_zero():
                continue
            name = f"L[{i},{j};(" + ",".join(str(a) for a in alpha) + ")]"
            members.append(Generator(name, field))
    return GeneratorSet(members)


@bounded(4096)
def _member_rows(member: Generator, module_p: WeightModuleP, module_m: SLModule):
    """The integer rows of the member's ``shen_iota`` on F(P, M) and their
    common denominator (``weightmod._integer_rows``), shared: treat them as
    read-only.  ``verify all --n 4`` fills 224 entries, all of them
    delta-p's (unique-submodule reads 122 of them; de Rham reads templates
    and fills none), and a seed-1 closure-evidence benchmark pass 184, each
    case run twice."""
    op = _acting_form(shen_iota(member.field), module_p)
    return _integer_rows(module_p, _action_table(op, module_m))


class ClosureEngine:
    """The ambient window of the box (a ``GradedSubspace`` with no
    blocks), with tables by weight number and cached per-(generator, weight
    number) action matrices, the latter assembled from the members' rows in
    ``_member_rows``.

    The engine numbers the box weights in ``box.keys()`` order:
    ``weights[i]`` is weight number i and ``number[w]`` its number.
    ``sizes[i]`` is the dimension of the window at weight i, and
    ``capacity[i]`` that less the dimension of ``mod`` for a quotient: no
    closure block at i grows beyond it.  ``moves(i)`` is (inward, outward),
    read from the cached move function that every engine over the same
    generator shifts and box shares (``_move_lists``), a function of the
    shifts and the box alone, so an evicted engine is freed by reference
    counting alone.
    """

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
        self.gens = gens.members
        self.ambient = GradedSubspace(module_p, module_m, box)
        self.weights, self.number, self.moves = _move_lists(
            tuple(g.shift for g in self.gens), box
        )
        labels = self.ambient.labels
        self.sizes = [len(labels[w]) for w in self.weights]
        self.capacity = list(self.sizes) if mod is None else [
            size - mod.dim_at(w) for size, w in zip(self.sizes, self.weights)
        ]
        self._matrices = {}

    def matrix(self, gi: int, i: int):
        """The columns of generator gi at weight number i, for a move listed
        in ``moves(i)``: column j lists (position, coeff) pairs, the image of
        basis vector j times the denominator of the member's rows.  A
        closure is a span, so one nonzero scale per block changes nothing
        it computes, and its arithmetic stays in ints."""
        cols = self._matrices.get((gi, i))
        if cols is None:
            g = self.gens[gi]
            rows, _ = _member_rows(g, self.module_p, self.module_m)
            w = self.weights[i]
            labels = self.ambient.labels
            cols = self._matrices[gi, i] = _block_columns(
                self.module_p, rows, labels[w], labels[tuple(map(add, w, g.shift))]
            )
        return cols


@bounded(16)
def _move_lists(shifts: tuple, box: TruncationBox):
    """(weights, number, moves): the box weights numbered in ``box.keys()``
    order, weight -> number, and the move function of the generator shifts
    on the box, shared by every engine over them.

    ``moves(i)`` is (inward, outward), cached from its first call, so only
    the weights that closures reach are set up: the (generator index,
    target number) pairs whose target lies in the inner box, then those
    whose target lies in the box but not the inner box, each in generator
    order.  The window keys every weight of the box, so these are
    the moves within the window.  Each distinct shift is placed once per
    weight: its target lies in the (inner) box where each coordinate lies
    in the (inner) box's range, and those coordinate comparisons are made
    once per (coordinate, value, shift) up front.  A target's number is the
    source number plus the shift's row-major offset in the numbering.
    """
    weights = tuple(box.keys())
    number = {w: i for i, w in enumerate(weights)}
    kinds = {}  # distinct shift -> its index, in order of first use
    kind = [kinds.setdefault(shift, len(kinds)) for shift in shifts]
    ranges = list(zip(box.lower, box.upper, box.inner_lower, box.inner_upper))
    # row-major: the last coordinate varies fastest
    strides = [prod(hi - lo + 1 for lo, hi, *_ in ranges[s + 1:]) for s in range(box.rank)]
    offsets = [sum(map(mul, d, strides)) for d in kinds]

    def place(x, lo, hi, inner_lo, inner_hi):
        # 0 outside the range, 2 inside the inner range, 1 between
        return 0 if not lo <= x <= hi else 2 if inner_lo <= x <= inner_hi else 1

    # places[s][x - lower[s]][k]: the place of coordinate s of the target
    # of distinct shift k from a weight whose coordinate s is x
    places = [
        [tuple(place(x + d[s], *r) for d in kinds) for x in range(r[0], r[1] + 1)]
        for s, r in enumerate(ranges)
    ]

    def moves_at(i):
        # a target's place is the least place of its coordinates
        rows = map(getitem, places, map(sub, weights[i], box.lower))
        where = list(map(min, zip(*rows)))
        targets = [i + offset for offset in offsets]
        return tuple(
            [(gi, targets[k]) for gi, k in enumerate(kind) if where[k] == part]
            for part in (2, 1)
        )

    return weights, number, cache(moves_at)


@bounded(1)
def _engine(module_p, module_m, gens, box, mod=None) -> ClosureEngine:
    """The closure engine of (P, M, gens, box, mod), shared by every
    closure over those inputs and by evidence_simplicity.  Its tables, move
    lists and matrices depend on nothing else, so a shared engine changes
    no closure."""
    return ClosureEngine(module_p, module_m, gens, box, mod=mod)


class ClosureReport:
    """Per-weight dimensions of a closure plus its classification.

    Built from the closure's echelon blocks; ``dims``, ``ambient_dims``,
    ``classification`` and ``boundary_weights`` are computed on first
    read, since most callers only read ``reached_target``.
    """

    def __init__(self, box, blocks, engine, bound=None, target_dims=None,
                 reached_target=None, applications=0):
        self.box = box
        self._blocks = blocks
        self._engine = engine
        self._bound = bound
        self.target_dims = target_dims
        self.reached_target = reached_target
        self.applications = applications

    @cached_property
    def dims(self):
        blocks = self._blocks
        return {w: blocks[w].dim if w in blocks else 0 for w in self.box.keys()}

    @cached_property
    def ambient_dims(self):
        return {w: len(labels) for w, labels in self._engine.ambient.labels.items()}

    @cached_property
    def classification(self) -> str:
        return _classify(self.box, self.dims, self.ambient_dims)

    @cached_property
    def boundary_weights(self):
        return sorted(
            w for w, d in self.dims.items() if d and not self.box.contains_inner(w)
        )

    def total_dim(self) -> int:
        return sum(block.dim for block in self._blocks.values())

    def first_unreached(self):
        if self.target_dims is None or self.reached_target:
            return None
        return _first_short(self._blocks, self.target_dims)

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


def closure(seeds, gens: GeneratorSet, box: TruncationBox, target_dims=None, *,
            _mod: GradedSubspace | None = None, _bound: GradedSubspace | None = None,
            _settled=None) -> ClosureReport:
    """Least in-box subspace containing the seeds and closed under the
    generators whose application stays inside the outer box.

    ``target_dims`` (weight -> dim over the inner box) stops the closure
    once every listed block is full; the report is honest either way.

    The search runs on the engine's weight numbers: the room of each block
    (``room[i]``, how far block i may still grow), the blocks and the queued
    vectors are keyed by number, and the report gets its blocks keyed by
    weight.  The search is goal-directed.  A queued vector meets its moves
    into the inner box (the first list of ``engine.moves(i)``) as soon as it
    is dequeued; its outward moves wait in a FIFO, and when no vector is
    queued the oldest of them resume, up to the first application that
    grows the closure, whose new vector then goes first.  Every inserted
    vector still meets every move, and a move is skipped only where its
    target block has no room, which only shrinks, so a closure that runs
    out of work ends at the same fixed point in any order; blocks only
    grow toward it, so whether the target is reached does not depend on
    the order either.  Only the partial blocks of a reached report and
    ``applications`` do.

    The closure runs on the shared engine of its inputs (``_engine``), the
    private ``_mod`` included: a submodule over the window, modulo which
    the closure of a quotient is taken.

    A generator is not applied where its target block already has the
    dimension of a subspace known to contain the closure there, since its
    image would add nothing: the window (``engine.capacity``), or the
    private ``_bound``, a submodule over the engine's window that contains
    the seeds, read by weight number (``GradedSubspace.by_number``).  Each
    block is checked against ``_bound`` once: when it fills its room, its
    rows must be the bound block's (``RowBasis`` rows are reduced,
    primitive and have positive pivots, so equal spans have equal rows),
    and each row of a block that never fills is reduced against the bound
    block before the report is built, also when the search stopped early.
    Room does not limit the seeds, so a block that they take past the
    bound's dimension has left the bound at once.  A block outside the
    bound raises ``StructureError``; the skip itself trusts the bound to be
    closed, so only exact submodules (``pi_image``, ``partial_span``) are
    passed.  A bounded closure takes no ``_mod``: the bound's rows are not
    reduced modulo it.

    The private ``_settled`` maps a weight to (seed, report) pairs of
    earlier closures: the seed's integer block coordinates, reduced modulo
    ``_mod``, and its closure's report.  Write C(s) for the least fixed
    point containing s.  Once a growing block contains a settled seed s1,
    C(s1) lies in the closure, so the search stops there:

    - if s1's report reached the same ``target_dims``, so does this
      closure, which counts as reached (a certificate);
    - if s1's report ran to its fixed point over the same engine, under the
      same ``_bound`` unless this closure has none (so the tripwire has
      checked its blocks), and its blocks contain every seed, then the
      closure lies in C(s1) as well: it is C(s1), and the report returns
      those blocks, with the same dims and ``first_unreached``.

    A report that stopped early exposes only ``reached_target``; it is
    never reused as a fixed point.
    """
    seeds = list(seeds)
    if not seeds:
        raise ArgumentError("need at least one seed")
    engine = _engine(seeds[0].module_p, seeds[0].module_m, gens, box, _mod)
    labels = engine.ambient.labels
    weights, sizes, moves = engine.weights, engine.sizes, engine.moves
    if _bound is None:
        room, bounds = list(engine.capacity), None
    else:
        if _mod is not None:
            raise ArgumentError("a bounded closure cannot be taken modulo a subspace")
        # ``_window`` shares one mapping per (P, M, box), so the keys are
        # compared only when the mappings differ
        if (_bound.module_p != engine.module_p or _bound.module_m != engine.module_m
                or (_bound.labels is not labels and _bound.labels.keys() != labels.keys())):
            raise StructureError("the bound is not a subspace of the closure's window")
        # windows of equal weights come from boxes of one range, which
        # number their weights alike
        dims, bounds = _bound.by_number
        room = list(dims)
    settled = _settled or {}
    blocks: dict = {}  # weight number -> RowBasis
    queue: deque = deque()
    deficit = sum(target_dims.values()) if target_dims else None
    done = deficit == 0
    settler = None  # the settled report that settles this closure
    parts = []  # (weight, dense) of every seed, reduced modulo _mod

    def reduced(w, dense):
        # a weight without a block in mod has dimension 0 there
        block = _mod.blocks.get(w) if _mod is not None else None
        return block.reduce(dense) if block is not None else dense

    def settles(report):
        if report._engine is not engine:
            return False
        if report.reached_target:
            return report.target_dims == target_dims
        if _bound is not None and report._bound is not _bound:
            return False
        held = report._blocks
        return all(held[w].contains(dense) if w in held else not any(dense)
                   for w, dense in parts)

    def insert(i, dense):
        # dense is already reduced modulo _mod
        nonlocal deficit, done, settler
        basis = blocks.get(i)
        if basis is None:
            basis = blocks[i] = RowBasis(sizes[i])
        before = basis.dim
        if not basis.insert(dense):
            return False
        w = weights[i]
        room[i] -= 1
        if bounds is not None and room[i] <= 0:
            # a block lies in the bound only while it is no larger than the
            # bound's block (room does not limit seeds), and once full only
            # when it is that block
            if room[i] or basis.primitive_rows != bounds[i].primitive_rows:
                raise StructureError(f"the closure left its bound at weight {list(w)}")
        if deficit and before < target_dims.get(w, 0):
            deficit -= 1
            done = not deficit
        if not done:
            for seed, report in settled.get(w, ()):
                if basis.contains(seed) and settles(report):
                    done, settler = True, report
                    break
        queue.append((i, dense))
        return True

    for seed in seeds:
        split = engine.ambient.to_dense(seed)
        if split is None:
            raise ArgumentError("seed is not a vector of the box window")
        parts += ((w, reduced(w, clear_denominators(d))) for w, d in split.items())
    for w, dense in parts:
        insert(engine.number[w], dense)
    applications = 0
    outward: deque = deque()  # (i, vec, support, the rest of its outward moves)
    while not done:
        if queue:
            # a fresh vector: its inward moves now, its outward ones queued
            i, vec = queue.popleft()
            support = [pos for pos, c in enumerate(vec) if c != 0]
            step, rest = moves(i)
            outward.append((i, vec, support, iter(rest)))
            resumed = False
        elif outward:
            i, vec, support, step = outward[0]
            resumed = True
        else:
            break
        for gi, target in step:
            if not room[target]:
                continue
            cols = engine.matrix(gi, i)
            dense = [0] * sizes[target]
            for pos in support:
                x = vec[pos]
                for dst, m in cols[pos]:
                    dense[dst] += x * m
            applications += 1
            if not any(dense):
                continue
            if _mod is not None:
                dense = reduced(weights[target], dense)
            # resumed outward moves stop at a growth, so its vector goes first
            if insert(target, dense) and (resumed or done):
                break
        else:
            if resumed:
                outward.popleft()
    if bounds is not None:
        # a block that never filled meets the bound once, row by row
        for i, basis in blocks.items():
            if room[i] and any(any(bounds[i].reduce(row)) for row in basis.primitive_rows):
                raise StructureError(f"the closure left its bound at weight "
                                     f"{list(weights[i])}")
    reached = None
    if settler is not None and not settler.reached_target:
        # the closure is the settler's fixed point
        blocks = settler._blocks
        if target_dims is not None:
            reached = _first_short(blocks, target_dims) is None
    else:
        blocks = {weights[i]: basis for i, basis in blocks.items()}
        if target_dims is not None:
            reached = settler is not None or not deficit
    return ClosureReport(
        box, blocks, engine, _bound,
        target_dims=target_dims, reached_target=reached, applications=applications,
    )


def _first_short(blocks, target_dims):
    """The least target weight whose block is below its target, or None."""
    for w in sorted(target_dims):
        if (blocks[w].dim if w in blocks else 0) < target_dims[w]:
            return w
    return None


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
    by the kernel submodule at degree r); F and deltaP read no r.
    Basis-seed cyclicity is necessary but weaker than simplicity:
    arbitrary-vector seeds are not enumerated, and the report says so.

    Each ambient is read as (M, sub, mod): ``sub`` is the canonical
    submodule (the ambient itself for Ln and deltaP, the de Rham image for
    F over an exterior power below the top degree) and ``mod`` the kernel a
    quotient is taken by.  Each inner weight is seeded by the primitive
    integer echelon rows of ``sub``, closed with ``sub`` as their bound,
    and, where the ambient is the whole module, by the basis vectors
    outside ``mod`` that complete them: the image rows are the seeds that
    expose non-simplicity, since their closures stay inside the image.
    Every seed is kept in its integer block coordinates, which also key
    the settled table.

    Every closure settles later ones (``closure``'s ``_settled``): a seed
    whose closure reached the target certifies every later closure that
    comes to contain it, and a later seed that lies in an earlier FAIL
    closure C(s1) has C(s1) itself as its closure once its search comes to
    contain s1, since then each closure contains the other.  The image rows
    of F(P, wedge^r) nearly always close to one subspace, so all but the
    first stop early and report that closure's dims.
    """
    n = module_p.rank
    if gens is None:
        gens = GeneratorSet.default(n)
    if not gens.members:
        # a set that cannot act fails every seed, which is no evidence
        raise ArgumentError("the generator set is empty")
    if r is not None and ambient in ("F", "deltaP"):
        raise ArgumentError(f"ambient {ambient} reads no r")
    # Ln, deltaP and quotient fix M to an exterior power
    degree = {"Ln": r, "deltaP": 0, "quotient": r}.get(ambient)
    if None not in (degree, module_m) and module_m != make_wedge_module(n, degree):
        raise ArgumentError(f"ambient {ambient} fixes M to wedge({n},{degree}), "
                            f"not {module_m.name}")
    sub = mod = None
    if ambient == "F":
        if module_m is None:
            raise ArgumentError("ambient F needs the finite-dimensional factor")
        for k in range(n):
            if module_m == make_wedge_module(n, k):
                sub = partial_span(module_p, box) if k == 0 else pi_image(module_p, k, box)
                break
    elif ambient == "Ln":
        if r is None:
            raise ArgumentError("ambient Ln needs r")
        module_m = make_wedge_module(n, r)
        sub = pi_image(module_p, r, box)
    elif ambient == "deltaP":
        module_m = make_wedge_module(n, 0)
        sub = partial_span(module_p, box)
    elif ambient == "quotient":
        if r is None:
            raise ArgumentError("ambient quotient needs r")
        module_m = make_wedge_module(n, r)
        mod = pi_kernel(module_p, r, box)
    else:
        raise ArgumentError(f"unknown ambient kind {ambient!r}")
    engine = _engine(module_p, module_m, gens, box, mod)
    whole = ambient in ("F", "quotient")
    inner = list(box.inner_keys())
    target = {w: engine.capacity[engine.number[w]] if whole else sub.dim_at(w) for w in inner}
    if not any(target.values()):
        raise ArgumentError("ambient space is empty on the inner box")
    # where no member raises (or lowers) a coordinate along which the target
    # weights differ, the lowest (or highest) seeds fail, which is no evidence
    for s, (raises, lowers) in enumerate(gens.reach):
        if not (raises and lowers) and len({w[s] for w, d in target.items() if d}) > 1:
            raise ArgumentError(f"no generator {'lowers' if raises else 'raises'} "
                                f"coordinate {s + 1}, so no seed reaches every target weight")

    seeds = []  # (integer block coordinates, weight, index, bound)
    for w in inner:
        # sub has the engine's window, so its primitive echelon rows are
        # coordinates over the labels at w
        rows = sub.blocks[w].primitive_rows if sub is not None else []
        seeds += ((row, w, pos, sub) for pos, row in enumerate(rows))
        if not whole:
            continue
        ncols = len(engine.ambient.labels[w])
        taken = RowBasis(ncols)
        for row in rows:
            taken.insert(row)
        for pos in range(ncols):
            dense = [0] * ncols
            dense[pos] = 1
            if (mod is None or any(mod.blocks[w].reduce(dense))) and taken.insert(dense):
                seeds.append((dense, w, pos, None))
    results = []
    overall = True
    settled = {}  # weight -> (seed, report) of every earlier closure
    for dense, w, pos, bound in seeds:
        labels = engine.ambient.labels[w]
        seed = FVector._from_kernel({lab: c for lab, c in zip(labels, dense) if c},
                                    module_p=module_p, module_m=module_m)
        report = closure(
            [seed], gens, box, target_dims=target,
            _mod=mod, _bound=bound, _settled=settled,
        )
        ok = bool(report.reached_target)
        overall = overall and ok
        entry = {"weight": list(w), "index": pos}
        if ambient == "F":
            entry["kind"] = "basis" if bound is None else "submodule-row"
        entry["pass"] = ok
        # every seed lies in the one weight block w
        if mod is not None:
            dense = mod.blocks[w].reduce(dense)
        settled.setdefault(w, []).append((dense, report))
        if not ok:
            first = report.first_unreached()
            entry["firstUnreached"] = list(first) if first else None
            entry["closureDims"] = report.total_dim()
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


def subquotient_inventory(module_p: WeightModuleP, r: int, box: TruncationBox):
    """Graded dimensions of the canonical chain inside F(P, wedge^r) and the
    identification of its nontrivial layers by graded dimension.

    Each layer is (name, dims, trivial, candidate): ``candidate`` is a
    dimension profile computed independently of the layer, which the layer
    must match (None for a trivial layer).
    """
    n = module_p.rank
    if not 0 <= r <= n - 1:
        raise ArgumentError(f"degree {r} out of range 0..{n - 1}")
    all_poly = all(f.kind == POLY for f in module_p.factors)
    keys = list(box.keys())
    supports = module_p.supports_key

    def profile(rule):
        return {w: int(rule(w)) for w in keys}

    def less(a, b):
        return {w: a[w] - b.get(w, 0) for w in keys}

    def below(w):
        return tuple(x - 1 for x in w)

    def nonconstant(w):
        return supports(w) and w != (0,) * n

    layers = []
    if r == 0 and not all_poly:
        # chain 0 <= deltaP <= P with trivial quotient
        delta = partial_span(module_p, box).dims()
        layers.append(("deltaP", delta, False, profile(lambda w: _delta_dim(module_p, w))))
        gap = less(profile(supports), delta)
        if any(gap.values()):
            layers.append(("P/deltaP", gap, True, None))
    else:
        kernel_space = pi_kernel(module_p, r, box)
        kernel = kernel_space.dims()
        full = {w: len(kernel_space.labels[w]) for w in keys}
        if r == 0:
            # chain 0 < constants < P, the constants being the kernel of d
            layers.append(("constants", kernel, True, None))
            layers.append(("P/constants", less(full, kernel), False, profile(nonconstant)))
        else:
            image = pi_image(module_p, r, box).dims()
            # bottom layer, the image of degree r - 1
            if r == 1 and all_poly:
                layers.append(("P/constants", image, False, profile(nonconstant)))
            elif r == 1:
                layers.append(("P (via de Rham)", image, False, profile(supports)))
            else:
                # rank-nullity: the image of the degree r - 1 map is its
                # source block less its kernel
                source = pi_kernel(module_p, r - 1, box)
                layers.append((f"image({r})", image, False, {
                    w: len(source.labels[w]) - source.dim_at(w) for w in keys
                }))
            gap = less(kernel, image)
            if any(gap.values()):
                layers.append(("kernel/image", gap, True, None))
            # top layer F / kernel
            quotient = less(full, kernel)
            if r < n - 1:
                layers.append((f"image({r + 1})", quotient, False,
                               pi_image(module_p, r + 1, box).dims()))
            elif all_poly:
                const = profile(lambda w: w == (1,) * n)
                layers.append(("constants (shifted)", const, True, None))
                layers.append(("P/constants (shifted)", less(quotient, const), False,
                               profile(lambda w: nonconstant(below(w)))))
            else:
                layers.append(("deltaP (shifted)", quotient, False,
                               profile(lambda w: _delta_dim(module_p, below(w)))))
    matches = [
        {"layer": name, "match": all(dims.get(w, 0) == cand.get(w, 0) for w in keys)}
        for name, dims, _, cand in layers
        if cand is not None
    ]
    return {
        "check": "subquotient-inventory",
        "params": {
            "P": repr(module_p),
            "r": r,
            "box": [list(box.lower), list(box.upper)],
        },
        "layers": [
            {
                "name": name,
                "trivial": trivial,
                "dims": _dims_json(dims),
                "totalDim": sum(dims.values()),
            }
            for name, dims, trivial, _ in layers
        ],
        "nontrivial": sorted(
            {name for name, dims, trivial, _ in layers if not trivial and any(dims.values())}
        ),
        "candidateMatches": matches,
        "pass": all(m["match"] for m in matches),
    }


def _dims_json(dims):
    return [
        {"weight": list(w), "dim": d} for w, d in sorted(dims.items()) if d
    ]


def _delta_dim(module_p, w) -> int:
    """dim of the derivative span at weight w, in closed form: 1 exactly when
    P supports w and some d_l reaches w, i.e. line l is polynomial or
    Laurent, or twisted with w_l <= -2."""
    return int(
        module_p.supports_key(w)
        and any(f.kind != TWIST or k <= -2 for f, k in zip(module_p.factors, w))
    )
