"""Independent reference implementations that the tests compare against."""

from collections import deque
from fractions import Fraction

from weylmod import tensorop
from weylmod.errors import ArgumentError, DomainError, StructureError
from weylmod.indices import falling, mi_add, mi_sub, mi_unit, mi_zero
from weylmod.linalg import RowBasis as IntRowBasis, rref
from weylmod.tensorop import TensorOperator, tensor
from weylmod.ugl import E
from weylmod.vectorfields import VectorField
from weylmod.weightmod import FVector, make_wedge_module
from weylmod.weyl import WeylElement


def d_on_t(gamma, beta):
    """d^gamma * t^beta normal-ordered by one-step rewriting,
    d_i t^b = t^b d_i + b_i t^(b - e_i), in Fraction arithmetic.  Returns
    {k: coeff} with d^gamma t^beta = sum coeff * t^(beta-k) d^(gamma-k)."""
    n = len(gamma)
    # normal-ordered terms {(t exponent, d exponent): coeff}; the d factors
    # applied so far stand to the right of every t factor
    terms = {(tuple(beta), (0,) * n): Fraction(1)}
    for i, g in enumerate(gamma):
        for _ in range(g):
            out = {}
            for (b, d), c in terms.items():
                raised = d[:i] + (d[i] + 1,) + d[i + 1:]
                out[(b, raised)] = out.get((b, raised), 0) + c
                if b[i] != 0:
                    lowered = b[:i] + (b[i] - 1,) + b[i + 1:]
                    out[(lowered, d)] = out.get((lowered, d), 0) + c * b[i]
            terms = {key: c for key, c in out.items() if c != 0}
    return {
        tuple(g - x for g, x in zip(gamma, d)): c for (_, d), c in terms.items()
    }


def monomial_on_key(P, key, t_exp, d_exp):
    """t^b d^g on the basis vector at key, in Fraction arithmetic: falling
    factorials of the true exponents, with the support boundary rules.
    Returns (coeff, new key) or None."""
    coeff = 1
    out = []
    for f, k, b, g in zip(P.factors, key, t_exp, d_exp):
        c = falling(f.exponent(k), g)
        if c == 0:
            return None
        new = k - g + b
        if f.kind == "poly" and new < 0:
            return None
        if f.kind == "twist" and new > -1:
            return None
        coeff *= c
        out.append(new)
    return coeff, tuple(out)


def tensor_act(T, w, allow_laurent=False):
    """(a (x) u)(p (x) v) = (a p) (x) (u v), term by term: the PBW part
    applied per m-index and each Weyl monomial evaluated with
    ``monomial_on_key``.  This is the direct action that the tabulated
    integer evaluator of ``weylmod.weightmod`` replaced."""
    if T.laurent and not allow_laurent:
        if T.demote().laurent:
            raise DomainError("laurent-mode operator acting on a module")
        T = T.demote()
    if T.rank != w.module_p.rank:
        raise StructureError("rank mismatch")
    module_p, module_m = w.module_p, w.module_m
    by_midx = {}
    for (key, midx), cv in w.terms.items():
        by_midx.setdefault(midx, []).append((key, cv))
    out = {}
    for ((t_exp, d_exp), pmono), c in T.terms.items():
        for midx, entries in by_midx.items():
            mvec = module_m.apply_pbw(pmono, {midx: 1})
            if not mvec:
                continue
            for key, cv in entries:
                hit = monomial_on_key(module_p, key, t_exp, d_exp)
                if hit is None:
                    continue
                coeff, new_key = hit
                for dst, mc in mvec.items():
                    lab = (new_key, dst)
                    out[lab] = out.get(lab, 0) + c * cv * coeff * mc
    return FVector(module_p, module_m, out)


def derham(w):
    """The de Rham map p (x) v -> sum_l d_l p (x) e_l wedge v on a vector over
    an exterior power, with the sign of e_l wedge v read off the
    permutation that sorts (l, v_1, ..., v_r)."""
    P, M = w.module_p, w.module_m
    n = P.rank
    r = len(M.labels[0])
    target = make_wedge_module(n, r + 1)
    out = {}
    for (key, midx), c in w.terms.items():
        label = M.labels[midx]
        for l in range(1, n + 1):
            if l in label:
                continue
            d_l = tuple(int(s == l) for s in range(1, n + 1))
            hit = monomial_on_key(P, key, (0,) * n, d_l)
            if hit is None:
                continue
            sign, word = wedge_sort((l,) + tuple(label))
            lab = (hit[1], target.labels.index(word))
            out[lab] = out.get(lab, 0) + c * hit[0] * sign
    return FVector(P, target, out)


def wedge_sort(word):
    """e_w1 wedge ... wedge e_wk as (sign, sorted word): the sign of the
    permutation that sorts the word, read off its inversions; None when a
    factor repeats."""
    if len(set(word)) < len(word):
        return None
    inversions = sum(1 for a, x in enumerate(word) for y in word[a + 1:] if x > y)
    return (-1) ** inversions, tuple(sorted(word))


class RowBasis:
    """The Fraction echelon basis that ``weylmod.linalg.RowBasis`` replaced:
    rows kept in reduced echelon form with unit pivots, and ``reduce``
    returning the exact residual."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.rows = []
        self.pivots = []

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, vec):
        vec = list(vec)
        for row, p in zip(self.rows, self.pivots):
            f = vec[p]
            if f != 0:
                for c in range(p, self.ncols):
                    vec[c] -= f * row[c]
        return vec

    def insert(self, vec):
        res = self.reduce(vec)
        lead = next((c for c in range(self.ncols) if res[c] != 0), None)
        if lead is None:
            return False
        inv = Fraction(1, 1) / Fraction(res[lead])
        res = [inv * x for x in res]
        for i, row in enumerate(self.rows):
            f = row[lead]
            if f != 0:
                self.rows[i] = [x - f * y for x, y in zip(row, res)]
        at = next((i for i, p in enumerate(self.pivots) if p > lead), len(self.pivots))
        self.rows.insert(at, res)
        self.pivots.insert(at, lead)
        return True

    def contains(self, vec):
        return all(x == 0 for x in self.reduce(vec))


def bracket(x, y):
    """The componentwise bracket [x, y]_i = sum_j (f_j d_j(g_i) - g_j d_j(f_i))
    in Weyl-element arithmetic, which the one-pass monomial formula of
    ``weylmod.vectorfields.bracket`` replaced."""
    if x.rank != y.rank:
        raise StructureError(f"rank mismatch: {x.rank} vs {y.rank}")
    n = x.rank
    laurent = x.laurent or y.laurent
    fs = x.components()
    gs = y.components()
    terms = {}
    for i in range(n):
        acc = WeylElement.zero(n, laurent)
        for j in range(n):
            acc = acc + fs[j] * _derivative(gs[i], j) - gs[j] * _derivative(fs[i], j)
        unit = tuple(int(k == i) for k in range(n))
        for (t_exp, _), coeff in acc.terms.items():
            terms[(t_exp, unit)] = coeff
    return VectorField(WeylElement(n, terms, laurent))


def _derivative(f, j):
    """d/dt_j of a (Laurent) polynomial, 0-based j."""
    terms = {}
    for (t_exp, d_exp), coeff in f.terms.items():
        if t_exp[j]:
            new = list(t_exp)
            new[j] -= 1
            terms[(tuple(new), d_exp)] = coeff * t_exp[j]
    return WeylElement(f.rank, terms, f.laurent)


def node_combination(products, weights):
    """sum_m weights[m] * products[m] by scaling and adding whole operators in
    Fraction arithmetic, starting from the Laurent-mode zero."""
    rank = products[next(iter(weights))].rank
    acc = TensorOperator.zero(rank, laurent=True)
    for m, w in weights.items():
        acc = acc + products[m] * w
    return acc


def invert(matrix):
    """Exact inverse of a square matrix by Fraction elimination; raises on
    singular input."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ArgumentError("matrix is singular")
    return [row[n:] for row in reduced]


def interpolate_coefficients(values, nodes):
    """The coefficient operators of the interpolating polynomial, one
    ``node_combination`` per row of the inverse Vandermonde matrix."""
    if len(values) != len(nodes) or not values:
        raise ArgumentError("need one value per node")
    inv = invert([[m**k for k in range(len(nodes))] for m in nodes])
    products = dict(enumerate(values))
    return [node_combination(products, dict(enumerate(row))) for row in inv]


def nullspace(rows, ncols):
    """Basis of the right kernel from the Fraction reduced echelon form: one
    vector per free column, with 1 there and minus that column's entries at
    the pivots."""
    reduced, pivots = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -Fraction(reduced[r][fc])
        basis.append(vec)
    return basis


def in_usl(u):
    """U(sl_n) membership by expansion: substitute E_ii = H_i + I/n in every
    Cartan part, H_i the traceless part written over h_k = E_kk -
    E_(k+1)(k+1), expand multinomially, and require that no term with a
    power of I survives."""
    n = u.rank
    # H_i in the h basis: row i - 1 holds its h_1..h_(n-1) coordinates
    split = [
        [Fraction(n - k, n) if k >= i else Fraction(-k, n) for k in range(1, n)]
        for i in range(1, n + 1)
    ]

    def mul(p1, p2):
        out = {}
        for (h1, i1), c1 in p1.items():
            for (h2, i2), c2 in p2.items():
                key = (tuple(a + b for a, b in zip(h1, h2)), i1 + i2)
                out[key] = out.get(key, 0) + c1 * c2
        return {k: c for k, c in out.items() if c != 0}

    collected = {}
    for mono, coeff in u.terms.items():
        context = tuple((g, e) for g, e in mono if g[0] != g[1])
        poly = {((0,) * (n - 1), 0): Fraction(1)}
        for g, e in mono:
            if g[0] != g[1]:
                continue
            linear = {
                (tuple(int(k == j) for k in range(n - 1)), 0): c
                for j, c in enumerate(split[g[0] - 1])
                if c != 0
            }
            linear[((0,) * (n - 1), 1)] = Fraction(1, n)
            for _ in range(e):
                poly = mul(poly, linear)
        for (h_exp, i_exp), c in poly.items():
            key = (context, h_exp, i_exp)
            collected[key] = collected.get(key, 0) + coeff * c
    return all(i_exp == 0 for (_, _, i_exp), c in collected.items() if c != 0)


def iota_hom_residual(x, y):
    """iota([x, y]) - (iota(x) iota(y) - iota(y) iota(x)) from two full
    products, which the one-pass commutator replaced.  The bracket is read
    from ``weylmod.tensorop`` at call time, as the library reads it."""
    lhs = tensorop.shen_iota(tensorop.bracket(x, y))
    ix = tensorop.shen_iota(x)
    iy = tensorop.shen_iota(y)
    return lhs - (ix * iy - iy * ix)


def special_operator(kind, alpha, i):
    """The special operators as chains of Weyl, U(gl) and tensor
    temporaries, one ``tensor`` per display term: the builders that the
    term table of ``weylmod.tensorop`` replaced."""
    alpha = tuple(alpha)
    n = len(alpha)
    if not 1 <= i <= n - 2:
        raise ArgumentError(f"index {i} out of range 1..{n - 2}")
    ei, ei1, ei2 = mi_unit(i, n), mi_unit(i + 1, n), mi_unit(i + 2, n)
    beta = mi_sub(mi_add(alpha, mi_add(ei1, ei2)), ei)
    if kind == "g":
        return _op_f(alpha, i, n, ei, ei1, ei2) + _g_minus_f(alpha, i, n, ei, ei1, ei2, beta)
    if kind == "f":
        return _op_f(alpha, i, n, ei, ei1, ei2)
    if kind == "u":
        out = _op_h(alpha, i, n, beta)
        for s in range(1, n + 1):
            prod = WeylElement.monomial(mi_zero(n), mi_unit(s, n)) * WeylElement.t_power(
                beta, laurent=True
            )
            out = out - tensor(prod, E(s, i + 2, n) * E(i, i + 1, n))
        return out
    if kind == "h":
        return _op_h(alpha, i, n, beta)
    raise ArgumentError(f"unknown operator kind {kind!r}")


def _op_f(alpha, i, n, ei, ei1, ei2):
    a_i = alpha[i - 1]
    a_i2 = alpha[i + 1]
    out = tensor(
        WeylElement.t_power(mi_add(mi_sub(alpha, ei), ei1), 1 + a_i2, laurent=True),
        E(i, i, n) * E(i, i + 1, n) - E(i, i + 1, n),
    )
    out = out - tensor(
        WeylElement.t_power(mi_add(mi_sub(alpha, ei), ei2), laurent=True),
        E(i, i + 2, n) * E(i, i, n),
    )
    out = out - tensor(
        WeylElement.t_power(
            mi_sub(mi_add(alpha, mi_add(ei1, ei2)), mi_add(ei, ei)), a_i, laurent=True
        ),
        E(i, i + 2, n) * E(i, i + 1, n),
    )
    return out


def _g_minus_f(alpha, i, n, ei, ei1, ei2, beta):
    out = tensor(
        WeylElement.monomial(beta, mi_unit(i + 1, n), laurent=True), E(i, i + 2, n)
    )
    out = out - tensor(
        WeylElement.monomial(beta, mi_unit(i + 2, n), laurent=True), E(i, i + 1, n)
    )
    for s in range(1, n + 1):
        a_s = alpha[s - 1]
        if a_s != 0:
            out = out - tensor(
                WeylElement.t_power(mi_sub(beta, mi_unit(s, n)), a_s, laurent=True),
                E(s, i + 2, n) * E(i, i + 1, n),
            )
    out = out - tensor(
        WeylElement.t_power(mi_add(mi_sub(alpha, ei), ei1), laurent=True),
        E(i + 2, i + 2, n) * E(i, i + 1, n),
    )
    out = out + tensor(
        WeylElement.t_power(mi_add(mi_sub(alpha, ei), ei2), laurent=True),
        E(i, i + 2, n) * E(i + 1, i + 1, n),
    )
    return out


def _op_h(alpha, i, n, beta):
    out = tensor(
        WeylElement.monomial(beta, mi_unit(i + 1, n), laurent=True), E(i, i + 2, n)
    )
    out = out - tensor(
        WeylElement.monomial(beta, mi_unit(i + 2, n), laurent=True), E(i, i + 1, n)
    )
    for s in range(1, n + 1):
        out = out + tensor(
            WeylElement.monomial(beta, mi_unit(s, n), laurent=True),
            E(s, i + 2, n) * E(i, i + 1, n),
        )
    return out


class ClosureOracle:
    """What ``closure`` below found: the dimension at every weight of the
    window, and the target verdict."""

    def __init__(self, dims, target_dims):
        self.dims = dims
        self.target_dims = target_dims
        self.reached_target = None
        if target_dims is not None:
            self.reached_target = all(dims[w] >= t for w, t in target_dims.items())

    def total_dim(self):
        return sum(self.dims.values())

    def first_unreached(self):
        if self.target_dims is None:
            return None
        for w in sorted(self.target_dims):
            if self.dims[w] < self.target_dims[w]:
                return w
        return None


def closure(seeds, gens, box, engine, target_dims=None, **_):
    """The closure as a plain breadth-first search, without saturation
    pruning or seed certificates: every queued vector meets every
    generator whose target lies in the box, through the engine's action
    matrices (which ``test_engine_columns_are_scaled_tensor_act_columns``
    checks against ``tensor_act``).  It takes the arguments of
    ``structure.closure``, stops as it does once ``target_dims`` is full,
    and ignores its private bound and certificates, so it can stand in for
    it inside ``evidence_simplicity``."""
    labels = engine.ambient.labels
    blocks = {w: IntRowBasis(len(labs)) for w, labs in labels.items()}
    queue = deque()
    missing = dict(target_dims or {})
    deficit = sum(missing.values())

    def insert(w, dense):
        nonlocal deficit
        if engine.mod is not None:
            dense = engine.mod.blocks[w].reduce(dense)
        if blocks[w].insert(dense):
            if missing.get(w, 0) > 0:
                missing[w] -= 1
                deficit -= 1
            queue.append((w, dense))

    for seed in seeds:
        for w, dense in engine.ambient.to_dense(seed).items():
            insert(w, dense)
    while queue and not (target_dims and deficit == 0):
        w, vec = queue.popleft()
        for gi in range(len(engine.gens)):
            hit = engine.matrix(gi, w)
            if hit is None:
                continue
            target, cols, _ = hit
            dense = [0] * len(labels[target])
            for pos, x in enumerate(vec):
                for dst, m in cols[pos]:
                    dense[dst] += x * m
            insert(target, dense)
    return ClosureOracle({w: b.dim for w, b in blocks.items()}, target_dims)
