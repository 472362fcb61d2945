"""Weight modules over the Weyl algebra, finite-dimensional gl_n-modules,
and the tensor modules that combine them.

A simple weight module factors coordinatewise into three kinds: the shifted
Laurent line t^lambda C[t,1/t], the polynomial line C[t], and the twisted
quotient C[t,1/t]/C[t].  Basis keys store only the integer offset; the
lambda shift lives in the factor descriptor, so all arithmetic stays exact.

Finite-dimensional modules carry explicit exact action matrices for every
matrix unit plus a scalar for the identity matrix.  Fundamental modules are
exterior powers of the natural module; general dominant weights are realized
by closing a highest-weight vector under the lowering operators on the words
of a tensor product of exterior powers, with the Weyl dimension formula as an
independent check.
"""

from __future__ import annotations

import itertools
from contextlib import suppress
from fractions import Fraction
from math import lcm, prod

from .errors import ArgumentError, DomainError, StructureError
from .indices import check_index, check_integer_exponents
from .linalg import RowBasis
from .memo import bounded
from .tensorop import TensorOperator, shen_iota
from .terms import Frozen, TermMap, _new, _set_terms, accumulate, power_text
from .vectorfields import VectorField, is_divergence_free
from .weyl import _monomial_product

POLY = "poly"
TWIST = "twist"
LAURENT = "laurent"
# the Laurent shift lambda of a factor that names none
DEFAULT_SHIFT = Fraction(1, 2)


class Factor(tuple):
    """One coordinate factor of a weight module, stored as its line
    (kind, q, p): the true t exponent of key k is (q k + p) / q, so a
    Laurent line has shift lambda = p / q and every other line q = 1,
    p = 0.  A factor compares and hashes as that tuple."""

    __slots__ = ()

    def __new__(cls, kind: str, shift=None):
        if kind not in (POLY, TWIST, LAURENT):
            raise ArgumentError(f"unknown factor kind {kind!r}")
        if kind == LAURENT:
            shift = Fraction(shift if shift is not None else DEFAULT_SHIFT)
            if shift.denominator == 1:
                raise StructureError("laurent shift must not be an integer")
            return super().__new__(cls, (kind, shift.denominator, shift.numerator))
        if shift is not None:
            raise ArgumentError(f"{kind} factor takes no shift")
        return super().__new__(cls, (kind, 1, 0))

    @property
    def kind(self) -> str:
        return self[0]

    @property
    def shift(self):
        """The Laurent shift lambda, None off a Laurent line."""
        kind, q, p = self
        return Fraction(p, q) if kind == LAURENT else None

    def supports(self, k: int) -> bool:
        kind = self[0]
        if kind == POLY:
            return k >= 0
        if kind == TWIST:
            return k <= -1
        return True

    def __repr__(self):
        kind, q, p = self
        return f"laurent({p}/{q})" if kind == LAURENT else kind

    def __reduce__(self):
        # copies and pickles go through the constructor, not the bare line
        return Factor, (self.kind, self.shift)


class WeightModuleP(Frozen):
    """A simple weight module presented as a product of coordinate factors.

    A profile is identified by its factors, each its line (kind, q, p), so
    equal profiles compare equal as tuples of lines, and the memos keyed by
    a profile hash it once, at construction.
    """

    __slots__ = ("rank", "factors", "_hash", "_text")

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise ArgumentError("need at least one factor")
        for f in factors:
            if not isinstance(f, Factor):
                raise ArgumentError(f"profile factor {f!r} is not a Factor")
        # the text is built on first use (``__repr__``)
        self._freeze(rank=len(factors), factors=factors, _hash=hash(factors), _text=None)

    def __reduce__(self):
        return WeightModuleP, (self.factors,)

    @classmethod
    def polynomial(cls, n: int) -> WeightModuleP:
        return cls([Factor(POLY)] * n)

    @classmethod
    def twisted(cls, n: int) -> WeightModuleP:
        return cls([Factor(TWIST)] * n)

    @classmethod
    def laurent(cls, n: int, shift=DEFAULT_SHIFT) -> WeightModuleP:
        return cls([Factor(LAURENT, shift)] * n)

    def supports_key(self, key) -> bool:
        return all(f.supports(k) for f, k in zip(self.factors, key))

    def __eq__(self, other):
        return isinstance(other, WeightModuleP) and self.factors == other.factors

    def __hash__(self):
        return self._hash

    def __repr__(self):
        text = self._text
        if text is None:
            text = "[" + ",".join(map(repr, self.factors)) + "]"
            self._freeze(_text=text)
        return text


def parse_module_descriptor(text: str) -> WeightModuleP:
    """Parse descriptors like "[poly, twist, laurent(1/2)]", refusing an
    unbalanced parenthesis and an empty factor.  No factor holds a comma,
    so every comma ends a factor token."""
    body = text.strip()
    if body.startswith("[") and body.endswith("]"):
        body = body[1:-1]
    if not body.strip():
        raise ArgumentError(f"empty module descriptor {text!r}")
    if body.count("(") != body.count(")"):
        raise ArgumentError(f"unbalanced parentheses in module descriptor {text!r}")
    factors = []
    for token in map(str.strip, body.split(",")):
        if not token:
            raise ArgumentError(f"empty factor in module descriptor {text!r}")
        if token in (POLY, TWIST, LAURENT):
            factors.append(Factor(token))
            continue
        kind, _, arg = token.partition("(")
        shift = None
        if kind.strip() == LAURENT and arg.endswith(")"):
            with suppress(ValueError, ZeroDivisionError):
                shift = Fraction(arg[:-1])
        if shift is None:
            raise ArgumentError(f"bad factor token {token!r}")
        # outside the suppress: an integer shift is Factor's own error
        factors.append(Factor(LAURENT, shift))
    return WeightModuleP(factors)


def _scaled_monomial_on_key(module: WeightModuleP, key, t_exp, d_exp):
    """Apply t^b d^g to the basis vector at key in exact integers.

    Returns (numerator, new key) or None.  On line l the derivative factor
    is the falling factorial of the true exponent (q k + p) / q; its q^g
    multiple prod_(j<g) (q (k - j) + p) is an integer, so the coefficient is
    the numerator over prod_l q_l^(g_l).  Boundary rules per factor: a
    polynomial line kills keys that would turn negative, a twisted quotient
    kills keys that would reach zero or above.
    """
    num = 1
    out = []
    for (kind, q, p), k, b, g in zip(module.factors, key, t_exp, d_exp):
        new = k - g + b
        if kind == POLY and new < 0 or kind == TWIST and new > -1:
            return None
        if g:
            x = q * k + p
            for _ in range(g):
                num *= x
                x -= q
        out.append(new)
    if num == 0:
        return None
    return num, tuple(out)


# ---------------------------------------------------------------------------
# finite-dimensional gl_n-modules
# ---------------------------------------------------------------------------


class SLModule(Frozen):
    """Finite-dimensional gl_n-module with exact matrix-unit action:
    ``matrices[(i, j)][src]`` lists (dst, coeff) pairs, ``weights[k]`` is the
    tuple of diagonal eigenvalues of basis vector k and ``central`` the
    scalar action of the identity matrix.

    A module is the value of ``source``, the factory call that built it,
    ``(make_wedge_module, (n, r))`` or ``(make_hw_module, (psi, n))``: it
    compares, hashes (once, at construction) and pickles as that call, and
    a copy or deep copy of the immutable module is the module itself.
    Construction is deterministic, so equal sources give equal labels,
    weights and matrices, and the memos keyed by M (``derham._window``,
    ``structure._member_rows``, ``_engine``) may share an entry across them.
    """

    __slots__ = ("rank", "labels", "weights", "matrices", "central", "name", "source", "_hash")

    def __init__(self, rank, labels, weights, matrices, central, name, source):
        self._freeze(rank=rank, labels=labels, weights=weights, matrices=matrices,
                     central=central, name=name, source=source, _hash=hash(source))

    def __eq__(self, other):
        return isinstance(other, SLModule) and self.source == other.source

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return self.source

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    @property
    def dim(self) -> int:
        return len(self.labels)

    def apply_pbw(self, pmono, vec: dict) -> dict:
        """Apply a PBW monomial, rightmost factor first.

        Every path through the factor matrices is carried to the end and
        collected once, so a monomial costs one accumulation, not one per
        factor.
        """
        if not pmono:
            return vec
        paths = vec.items()
        for (i, j), e in reversed(pmono):
            cols = self.matrices[(i, j)]
            for _ in range(e):
                paths = [(dst, c * m) for src, c in paths for dst, m in cols[src]]
        return accumulate({}, paths)

    def __repr__(self):
        return self.name


@bounded(64)
def make_wedge_module(n: int, r: int) -> SLModule:
    """The r-th exterior power of the natural module, I acting as r; shared, read-only."""
    if not 0 <= r <= n:
        raise ArgumentError(f"wedge degree {r} out of range 0..{n}")
    labels = [tuple(c) for c in itertools.combinations(range(1, n + 1), r)]
    index = {lab: pos for pos, lab in enumerate(labels)}
    weights = [
        tuple(1 if s in lab else 0 for s in range(1, n + 1)) for lab in labels
    ]
    matrices = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cols = [[] for _ in labels]
            for src, lab in enumerate(labels):
                hit = wedge_replace(lab, j, i)
                if hit is None:
                    continue
                sign, new_lab = hit
                cols[src].append((index[new_lab], sign))
            matrices[(i, j)] = cols
    return SLModule(n, labels, weights, matrices, Fraction(r), f"wedge({n},{r})",
                    (make_wedge_module, (n, r)))


def wedge_insert(l: int, label):
    """e_l wedge v for the sorted wedge label v: (sign, sorted label), the
    sign moving e_l past the factors below it, or None when l is in v."""
    if l in label:
        return None
    below = sum(1 for x in label if x < l)
    return (-1 if below % 2 else 1), tuple(sorted(label + (l,)))


def wedge_replace(label, j: int, i: int):
    """Replace the factor e_j by e_i inside a sorted wedge label: move e_j to
    the front, then insert e_i in its place."""
    if j not in label:
        return None
    rest = tuple(x for x in label if x != j)
    hit = wedge_insert(i, rest)
    if hit is None:
        return None
    sign, new_label = hit
    return sign * wedge_insert(j, rest)[0], new_label


def weyl_dimension(psi, n: int) -> int:
    """Weyl dimension formula for the dominant weight sum psi_k delta_k.

    Independent oracle for the lowering-closure construction below: with
    partition coordinates lambda_i = sum_(k >= i) psi_k the dimension is
    prod_(i<j) (lambda_i - lambda_j + j - i) / (j - i).
    """
    if len(psi) != n - 1 or any(type(p) is not int or p < 0 for p in psi):
        raise ArgumentError("psi must be n-1 nonnegative integers")
    lam = [sum(psi[k] for k in range(i, n - 1)) for i in range(n)]
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    return num // den


def make_hw_module(psi, n: int) -> SLModule:
    """Simple module with highest weight sum psi_k delta_k, as a gl_n-module.

    The exterior powers are the wedge modules themselves: psi = 0 gives
    ``make_wedge_module(n, 0)`` and psi = e_r gives ``make_wedge_module(n,
    r)``, so every check that recognises an exterior power sees it.  Every
    other psi is built by ``_lowering_closure``.
    """
    psi = tuple(psi)
    weyl_dimension(psi, n)  # validates psi
    if sum(psi) <= 1:
        r = psi.index(1) + 1 if any(psi) else 0
        return make_wedge_module(n, r)
    return _lowering_closure(psi, n)


def _lowering_closure(psi, n: int) -> SLModule:
    """The simple module of highest weight psi inside a tensor product of
    exterior powers, closed on words: a word is one basis index per factor,
    words are numbered lexicographically (the mixed-radix index of the
    product's basis), and a vector maps words to coefficients.  A matrix
    unit acts on a word by the Leibniz rule through each factor's own
    matrices.  Start from the product of the factors' highest-weight
    vectors and close under the lowering generators, echelonizing each
    weight over the words of that weight; a weight vector lives on those
    words only.  The identity matrix acts by sum_k k psi_k.  Dimension is
    checked against the Weyl formula.
    """
    expected_dim = weyl_dimension(psi, n)
    factors = [make_wedge_module(n, k) for k in range(1, n) for _ in range(psi[k - 1])]
    words = {}  # weight -> its words, in word order
    place = {}  # word -> (its weight, its position among those words)
    for word in itertools.product(*(range(f.dim) for f in factors)):
        w = tuple(map(sum, zip(*(f.weights[a] for f, a in zip(factors, word)))))
        at = words.setdefault(w, [])
        place[word] = (w, len(at))
        at.append(word)

    def act(i, j, vec):
        return accumulate({}, (
            (word[:p] + (dst,) + word[p + 1:], c * m)
            for word, c in vec.items()
            for p, f in enumerate(factors)
            for dst, m in f.matrices[(i, j)][word[p]]
        ))

    def dense(vec):
        """(weight, coordinates over the words of that weight) of a weight
        vector."""
        w = place[next(iter(vec))][0]
        row = [0] * len(words[w])
        for word, c in vec.items():
            row[place[word][1]] = c
        return w, row

    def insert(vec) -> bool:
        w, row = dense(vec)
        return blocks.setdefault(w, RowBasis(len(row))).insert(row)

    # the per-factor highest label (1..k) sits at position 0 of each wedge
    # basis, so the product of highest vectors is the word of zeros
    highest = {(0,) * len(factors): 1}
    blocks = {}
    insert(highest)
    stack = [highest]
    while stack:
        vec = stack.pop()
        for i in range(1, n):
            low = act(i + 1, i, vec)
            if low and insert(low):
                stack.append(low)
    total = sum(b.dim for b in blocks.values())
    if total != expected_dim:
        raise StructureError(
            f"closure found dimension {total}, Weyl formula gives {expected_dim}"
        )
    # canonical basis order: weights descending, then echelon order; a basis
    # vector is the primitive integer row over its pivot entry lead, so the
    # matrix pass acts in integers and divides once per matrix entry
    flat = [(w, row, row[p]) for w in sorted(blocks, reverse=True)
            for row, p in zip(blocks[w].primitive_rows, blocks[w].pivots)]
    weights = [w for w, _, _ in flat]
    offsets = {w: weights.index(w) for w in blocks}
    matrices = {}
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        cols = matrices[(i, j)] = []
        for w, row, lead in flat:
            image = act(i, j, {words[w][pos]: c for pos, c in enumerate(row) if c != 0})
            col = []
            if image:
                target, coords = dense(image)
                basis = blocks.get(target)
                if basis is None or not basis.contains(coords):
                    raise StructureError("closure is not stable under gl action")
                col = [(offsets[target] + k, Fraction(coords[p], lead))
                       for k, p in enumerate(basis.pivots) if coords[p] != 0]
            cols.append(col)
    labels = [f"v{k}" for k in range(len(flat))]
    central = Fraction(sum(k * p for k, p in enumerate(psi, 1)))
    name = "V(" + "+".join(f"{p}d{k+1}" for k, p in enumerate(psi) if p) + f",{n})"
    return SLModule(n, labels, weights, matrices, central, name, (make_hw_module, (psi, n)))


# ---------------------------------------------------------------------------
# tensor modules F(P, M)
# ---------------------------------------------------------------------------


class FVector(TermMap):
    """Sparse vector of the tensor module F(P, M) = P (x) M.  A vector of P
    itself is one of F(P, wedge^0), M = ``make_wedge_module(n, 0)``, on
    which a Weyl element a acts as ``tensor_act(from_weyl(a), v)``."""

    __slots__ = ("module_p", "module_m")

    _fields = ("module_p", "module_m")

    def __init__(self, module_p: WeightModuleP, module_m: SLModule, terms=None):
        """Checks outside input: factors of one rank, then the map by
        ``_checked_terms``, each label by ``_check_key``."""
        if module_p.rank != module_m.rank:
            raise StructureError("rank mismatch between the two factors")
        cleaned = self._checked_terms(terms, module_p, module_m)
        self._freeze(terms=cleaned, module_p=module_p, module_m=module_m)

    @staticmethod
    def _check_key(label, module_p: WeightModuleP, module_m: SLModule) -> None:
        """The check of one label (key, m-index) of outside input: an int key
        of the rank's length in the support of P, and an int basis index of M."""
        key, midx = label
        if len(key) != module_p.rank:
            raise StructureError(f"key {key} has length {len(key)}, P has rank {module_p.rank}")
        check_integer_exponents(key)
        if not module_p.supports_key(key):
            raise StructureError(f"key {key} outside the support")
        try:
            check_index(midx, module_m.dim - 1, lo=0)
        except ArgumentError as error:
            raise StructureError(f"bad basis index {midx}") from error

    @classmethod
    def _from_kernel(cls, terms: dict, module_p: WeightModuleP, module_m: SLModule):
        """Adopts a kernel-built map, as ``terms.RankTerms._from_kernel``."""
        vector = _new(cls)
        _set_terms(vector, terms)
        _set_module_p(vector, module_p)
        _set_module_m(vector, module_m)
        return vector

    @classmethod
    def basis(cls, module_p, module_m, key, label_or_index) -> FVector:
        if isinstance(label_or_index, int):
            midx = label_or_index
        elif label_or_index in module_m.labels:
            midx = module_m.labels.index(label_or_index)
        else:
            raise StructureError(f"label {label_or_index} is not a basis label")
        return cls(module_p, module_m, {(tuple(key), midx): 1})

    def weight_of(self, key, midx):
        return tuple(k + w for k, w in zip(key, self.module_m.weights[midx]))

    def _text(self, mono):
        key, midx = mono
        return vector_text(key, self.module_m.labels[midx])


def vector_text(key, label) -> str:
    """The grammar text of one module-vector monomial, that of every module
    vector: the key as t powers, then ``(x)`` and the label, a wedge label
    as ``e[i]^e[j]`` and an ``hw`` label ``v<k>`` as itself.  The unit key
    is empty text, so a constant prints as its coefficient; beside a label
    it stays 1, as in ``1 (x) e[1]``."""
    body = "*".join(power_text("t", key))
    if label:
        if not isinstance(label, str):
            label = "^".join(f"e[{x}]" for x in label)
        body = f"{body or 1} (x) {label}"
    return body


_set_module_p = FVector.module_p.__set__
_set_module_m = FVector.module_m.__set__


def _acting_form(T: TensorOperator, module_p: WeightModuleP, allow_laurent=False):
    """T as it acts on a module over module_p: a Laurent-mode operator is
    demoted to polynomial mode unless allow_laurent, and refused when it
    does not demote."""
    if T.laurent and not allow_laurent:
        T = T.demote()
        if T.laurent:
            raise DomainError("laurent-mode operator acting on a module")
    if T.rank != module_p.rank:
        raise StructureError("rank mismatch")
    return T


# Every operator on F(P, M) goes through one pipeline: ``_action_table``
# tabulates it as a term map with the U(gl_n) part applied once per
# (term, m-index), ``compose`` multiplies two such maps, ``_integer_rows``
# scales a map to ints over one common denominator, ``_row_image``
# evaluates a row on a key in ints, and ``_block_columns`` gathers those
# images over a whole weight block.


def _action_table(op: TensorOperator, M: SLModule):
    """The action of op on F(P, M) as a term map
    {((t_exp, d_exp), (src, dst)): coeff}, coeff being that of
    t^t_exp d^d_exp (x) (basis vector src of M -> basis vector dst),
    collected by ``accumulate``: the entries of one Weyl monomial and index
    pair are merged and those that cancel are gone.  The PBW part is
    applied once per (term, src).
    """
    return accumulate(
        {},
        (
            ((mono, (src, dst)), c * mc)
            for (mono, pmono), c in op.terms.items()
            for src in range(M.dim)
            for dst, mc in M.apply_pbw(pmono, {src: 1}).items()
        ),
    )


def compose(second, first):
    """The term map of the operator ``second`` after ``first``, both term
    maps of ``_action_table``'s shape: an entry t^b1 d^g1 (x) (src -> mid)
    of first and one t^b2 d^g2 (x) (mid -> dst) of second give the
    normal-ordered product t^b2 d^g2 * t^b1 d^g1
    (``weyl._monomial_product``) (x) (src -> dst), collected once.  The
    exponents and coefficients may be symbols."""
    by_src = {}
    for (w2, (mid, dst)), c2 in second.items():
        by_src.setdefault(mid, []).append((w2, dst, c2))
    return accumulate(
        {},
        (
            ((mono, (src, dst)), c2 * c1 * c)
            for (w1, (src, mid)), c1 in first.items()
            for w2, dst, c2 in by_src.get(mid, ())
            for mono, c in _monomial_product(w2, w1)
        ),
    )


def _integer_rows(module_p: WeightModuleP, table):
    """(rows, den): an ``_action_table`` term map as integer rows over one
    common denominator.

    ``rows[src]`` is a tuple of ((t_exp, d_exp), {dst: coeff}) pairs, one
    per Weyl monomial with an entry from src; a source with no entry has no
    row.  Each coeff is the table's times den / prod_l q_l^(g_l), den being
    the lcm over the table, so coeff times the numerator from
    ``_scaled_monomial_on_key`` is den times the exact image coefficient.
    """
    qs = [q for _, q, _ in module_p.factors]
    entries = [
        (src, mono, dst, c, prod(q**g for q, g in zip(qs, mono[1])))
        for (mono, (src, dst)), c in table.items()
    ]
    den = lcm(*(q_g * c.denominator for *_, c, q_g in entries))
    rows = {}
    for src, mono, dst, c, q_g in entries:
        scaled = c.numerator * (den // q_g) // c.denominator
        rows.setdefault(src, {}).setdefault(mono, {})[dst] = scaled
    return {src: tuple(row.items()) for src, row in rows.items()}, den


def _row_image(module_p: WeightModuleP, key, row):
    """((new key, dst), coeff) terms of one integer row on the basis vector
    at key; their sum is den times the image of that basis vector."""
    for (t_exp, d_exp), terms in row:
        hit = _scaled_monomial_on_key(module_p, key, t_exp, d_exp)
        if hit is not None:
            num, new_key = hit
            for dst, c in terms.items():
                yield (new_key, dst), c * num


def _block_columns(module_p: WeightModuleP, rows, labels, targets):
    """The images of the basis vectors ``labels`` of one weight block under
    integer rows, one column per label: the (position, coeff) pairs of the
    nonzero image terms, a position being the image label's index in
    ``targets``, the labels of the target block.  Each coeff is the rows'
    common denominator times the exact one.  Every caller keeps the
    columns (``ClosureEngine.matrix``, the memoised ``pi_image`` and
    ``pi_kernel``), so the label positions are worked out once per call."""
    slots = {lab: pos for pos, lab in enumerate(targets)}
    cols = []
    for key, midx in labels:
        col = []
        for lab, c in accumulate({}, _row_image(module_p, key, rows.get(midx, ()))).items():
            pos = slots.get(lab)
            if pos is None:
                raise StructureError("generator action left its weight block")
            col.append((pos, c))
        cols.append(col)
    return cols


def _rows_on_terms(module_m: SLModule, rows, den, w: FVector) -> FVector:
    """The exact image of w under integer rows over den, a vector of
    F(w.module_p, module_m), adopted: ``_scaled_monomial_on_key`` keeps
    every key in the support and the rows' targets are indices of M."""
    module_p = w.module_p
    out = accumulate(
        {},
        (
            (lab, cv * c)
            for (key, midx), cv in w.terms.items()
            for lab, c in _row_image(module_p, key, rows.get(midx, ()))
        ),
    )
    if den != 1:
        out = {lab: Fraction(c, den) for lab, c in out.items()}
    return FVector._from_kernel(out, module_p=module_p, module_m=module_m)


def tensor_act(T: TensorOperator, w: FVector, allow_laurent: bool = False) -> FVector:
    """Action of a tensor operator: (a (x) u)(p (x) v) = (a p) (x) (u v).

    Laurent-mode operators require allow_laurent=True; each tensor term is
    first demoted to polynomial mode when its exponents permit, otherwise the
    factor action applies with the support boundary sending escaped keys to
    zero.
    """
    module_p, module_m = w.module_p, w.module_m
    T = _acting_form(T, module_p, allow_laurent)
    rows, den = _integer_rows(module_p, _action_table(T, module_m))
    return _rows_on_terms(module_m, rows, den, w)


def sn_act(x: VectorField, w: FVector) -> FVector:
    """Action of a divergence-free field through the iota embedding."""
    x = x.demote()
    if x.laurent:
        raise DomainError("laurent-mode field acting on a module")
    if not is_divergence_free(x):
        raise DomainError("field is not divergence free")
    return tensor_act(shen_iota(x), w)
