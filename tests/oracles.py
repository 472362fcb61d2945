"""Independent reference implementations that the tests compare against."""

import itertools
import random
from collections import deque
from fractions import Fraction
from functools import cache, partial

from operator import add, mul

from weylmod import structure, suites, tensorop
from weylmod.derham import _derham_table, pi
from weylmod.errors import ArgumentError, DomainError, StructureError
from weylmod.indices import falling, mi_add, mi_sub, mi_unit, mi_zero
from weylmod.linalg import RowBasis as IntRowBasis, rref
from weylmod.suites import MAX_FAILURES
from weylmod.structure import GeneratorSet
from weylmod.tensorop import TensorOperator, tensor
from weylmod.terms import accumulate
from weylmod.ugl import E, _gen_key
from weylmod.vectorfields import L_op, VectorField, monomial_field
from weylmod.weightmod import FVector, _action_table, make_wedge_module
from weylmod.weyl import WeylElement


def t_power(t_exp, coeff=1, laurent=None):
    """The Weyl monomial coeff * t^t_exp, Laurent when an exponent is
    negative unless laurent says otherwise."""
    t_exp = tuple(t_exp)
    return WeylElement.monomial(t_exp, mi_zero(len(t_exp)), coeff, laurent)


def basis_vector(P, key):
    """The basis vector of the weight module P = F(P, wedge^0) at key, which
    must lie in its support."""
    return FVector.basis(P, make_wedge_module(P.rank, 0), key, 0)


def basis_vectors(space, weight):
    """The vectors of a ``GradedSubspace``'s reduced echelon rows at weight
    (Fraction entries, unit pivots), built through the checked
    constructor; none where the space has no block."""
    labels = space.labels.get(weight, ())
    block = space.blocks.get(weight)
    return [
        FVector(space.module_p, space.module_m, {lab: c for lab, c in zip(labels, row) if c})
        for row in (block.rows if block else [])
    ]


def check_commutators(M):
    """[E_ij, E_kl] = delta_jk E_il - delta_li E_kj on every basis vector
    of the gl_n-module M."""
    def act(i, j, vec):
        return M.apply_pbw((((i, j), 1),), vec)

    idx = range(1, M.rank + 1)
    for i, j, k, l in itertools.product(idx, repeat=4):
        for src in range(M.dim):
            vec = {src: 1}
            lhs = act(i, j, act(k, l, vec))
            swapped = act(k, l, act(i, j, vec))
            accumulate(lhs, ((d, -c) for d, c in swapped.items()))
            rhs = {}
            if j == k:
                accumulate(rhs, act(i, l, vec).items())
            if l == i:
                negated = act(k, j, vec)
                accumulate(rhs, ((d, -c) for d, c in negated.items()))
            if lhs != rhs:
                return False
    return True


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


def after_derham(table, n, r):
    """The term map of an operator on degree r composed after the de Rham
    map from degree r - 1, by appending the derivative factor d_l on the
    right of each monomial: the special case that the library's general
    ``weightmod.compose`` replaced."""
    by_src = {}
    for (mono, (src, dst)), c in table.items():
        by_src.setdefault(src, []).append((mono, dst, c))
    return accumulate(
        {},
        (
            (((t_exp, tuple(map(add, d_exp, d_l))), (src, dst)), c * sign)
            for ((_, d_l), (src, mid)), sign in _derham_table(n, r - 1).items()
            for (t_exp, d_exp), dst, c in by_src.get(mid, ())
        ),
    )


def check_derham(n, count=100, seed=None, shift=suites.DEFAULT_SHIFT):
    """The derham report by direct computation: pi(pi(w)) on each sampled
    vector, and pi after each default generator's action against the
    action after pi (``GeneratorSet.act``), where the library reads both
    off tables.  It draws the library's samples in the library's order
    (``suites._random_fvector``), so the two reports must be equal."""
    rng = random.Random(suites.get_seed(seed))
    failures = []
    checked = 0
    profiles = suites.standard_profiles(n, shift)
    for k in range(n - 1):
        M = make_wedge_module(n, k)
        for _ in range(count):
            P = profiles[rng.choice(sorted(profiles))]
            w = suites._random_fvector(rng, P, M)
            checked += 1
            if not pi(pi(w)).is_zero():
                failures.append({"kind": "composite", "k": k})
    kernel_expect = {"poly": 1, "laurent": 0, "one-twist": 0}
    for name, P in profiles.items():
        total = suites.pi_kernel(P, 0, suites._profile_key_box(P, 3)).total_dim()
        checked += 1
        if total != kernel_expect[name]:
            failures.append({"kind": "kernel", "profile": name, "dim": total})
    gens = GeneratorSet.default(n)
    for k in range(n - 1):
        M = make_wedge_module(n, k)
        for name, P in profiles.items():
            for _ in range(3):
                w = suites._random_fvector(rng, P, M, nterms=2, radius=2)
                for gi, g in enumerate(gens.members):
                    checked += 1
                    if pi(gens.act(gi, w)) != gens.act(gi, pi(w)):
                        failures.append({"kind": "equivariance", "k": k, "gen": g.name})
    return {
        "check": "derham",
        "params": {"n": n, "count": count, "seed": suites.get_seed(seed)},
        "checked": checked,
        "failures": failures[:MAX_FAILURES],
        "pass": checked > 0 and not failures,
    }


def is_polynomial_in_t(p):
    """Whether the Weyl element p has no derivative factor."""
    return all(not any(d_exp) for _, d_exp in p.terms)


def apply_poly(a, p):
    """The natural action of the Weyl element a on the polynomial p: t
    multiplies, d differentiates.  ``p`` must be a polynomial in t (no
    derivative factor, exponents >= 0).  This is the brute-force oracle
    for the product: it never goes through the normal-ordering expansion
    of ``WeylElement.__mul__``."""
    if a.laurent:
        raise DomainError("laurent-mode operator cannot act on polynomials")
    a._check_same(p)
    if p.laurent or not is_polynomial_in_t(p):
        raise DomainError("operand is not a polynomial in t")
    zero = mi_zero(a.rank)
    out = {}
    for (beta, gamma), c in a.terms.items():
        for (mu, _), cp in p.terms.items():
            coeff = c * cp
            for m, g in zip(mu, gamma):
                coeff *= falling(m, g)
            if coeff:
                exp = tuple(m - g + b for m, g, b in zip(mu, gamma, beta))
                out[(exp, zero)] = out.get((exp, zero), 0) + coeff
    return WeylElement(a.rank, out, laurent=False)


def components(x):
    """The coefficient polynomials f_1..f_n of the field x = sum f_i d_i."""
    n = x.rank
    out = [{} for _ in range(n)]
    for (t_exp, d_exp), coeff in x.element.terms.items():
        out[d_exp.index(1)][(t_exp, mi_zero(n))] = coeff
    return [WeylElement(n, terms, x.laurent) for terms in out]


def lemma_table(check, alpha, i, r):
    """The action table of an operator lemma's operator at one alpha, built
    per alpha: ``special_operator`` (read from ``weylmod.tensorop`` at call
    time), g - u or h, ``demote``, ``_action_table`` on the r-th exterior
    power and, for h, ``after_derham``.  This is the path that the
    library's one symbolic table per (check, n, i, r) replaced."""
    n = len(alpha)
    wedge = make_wedge_module(n, r)
    if check == "g-equals-u":
        op = tensorop.special_operator("g", alpha, i) - tensorop.special_operator("u", alpha, i)
        return _action_table(op.demote(), wedge)
    h = tensorop.special_operator("h", alpha, i)
    return after_derham(_action_table(h.demote(), wedge), n, r)


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
    fs = components(x)
    gs = components(y)
    terms = {}
    for i in range(n):
        acc = WeylElement.zero(n, laurent)
        for j in range(n):
            acc = acc + fs[j] * _derivative(gs[i], j) - gs[j] * _derivative(fs[i], j)
        unit = tuple(int(k == i) for k in range(n))
        for (t_exp, _), coeff in acc.terms.items():
            terms[(t_exp, unit)] = coeff
    return VectorField(WeylElement(n, terms, laurent))


def commutator_in_weyl(x, y):
    """x*y - y*x computed by Weyl normal ordering, in which the
    second-order terms of the two products cancel."""
    return x.element * y.element - y.element * x.element


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


def cubic_m_factors(alpha, i, j, m):
    """The fields L_ij^(alpha - m e_i) and t^(m e_i) d_j (Laurent mode)."""
    alpha = tuple(alpha)
    shift = tuple(m * x for x in mi_unit(i, len(alpha)))
    return (
        L_op(i, j, mi_sub(alpha, shift), laurent=True),
        monomial_field(shift, j, laurent=True),
    )


def quartic_m_factors(alpha, i, m):
    """The fields L_(i,i+2)^(alpha - m e_i) and L_(i,i+1)^(m e_i) (Laurent mode)."""
    alpha = tuple(alpha)
    shift = tuple(m * x for x in mi_unit(i, len(alpha)))
    return (
        L_op(i, i + 2, mi_sub(alpha, shift), laurent=True),
        L_op(i, i + 1, shift, laurent=True),
    )


def cubic_identity_residual(alpha, i, j):
    """The cubic identity's residual composed per alpha: the target minus
    the weighted direct node products shen_iota(left) * shen_iota(right),
    where the library reads it off one symbolic template per (n, i, j).
    The target, factors, weights and iota are read from
    ``weylmod.tensorop`` at call time, as the library reads them."""
    target = tensorop.cubic_target(alpha, i, j)
    products = {
        m: _direct_product(cubic_m_factors(alpha, i, j, m))
        for m in tensorop.CUBIC_NODES
    }
    return target - node_combination(products, tensorop.CUBIC_WEIGHTS)


def quartic_identity_residual(alpha, i):
    """The quartic identity's residual composed per alpha, as
    ``cubic_identity_residual``: the g operator minus the weighted direct
    node products."""
    target = tensorop.special_operator("g", alpha, i)
    products = {
        m: _direct_product(quartic_m_factors(alpha, i, m))
        for m in tensorop.QUARTIC_NODES
    }
    return target - node_combination(products, tensorop.QUARTIC_WEIGHTS)


def _direct_product(factors):
    left, right = factors
    return tensorop.shen_iota(left) * tensorop.shen_iota(right)


# one node beyond both windows: the product there, against its prediction
# from the node products, samples the degree in m
CHECK_NODE = 4


def check_node_weights(nodes):
    """The weights that predict a polynomial of degree below len(nodes) at
    CHECK_NODE from its values at the nodes: the Lagrange basis there."""
    weights = {}
    for m in nodes:
        w = Fraction(1)
        for s in nodes:
            if s != m:
                w *= Fraction(CHECK_NODE - s, m - s)
        weights[m] = w
    return weights


def check_identity(kind, n, lo, hi, extra=None):
    """The eq-cubic or eq-quartic report over every index case and every
    alpha in the window, composed per alpha from the node products: the
    target minus their weighted combination, the product at CHECK_NODE
    against its prediction from the node products, and, above the lower
    bound 2 e_i - e_j, the membership of every factor.  A node product is
    the direct product of the iota images of its factors, plus
    ``extra(alpha, m)`` when extra is given.  Targets, weights and iota are
    read from ``weylmod.tensorop`` at call time."""
    if kind == "cubic":
        cases = [((i, j), j) for i, j in itertools.permutations(range(1, n + 1), 2)]
        target, factors = tensorop.cubic_target, cubic_m_factors
        weights = tensorop.CUBIC_WEIGHTS
    else:
        cases = [((i,), i + 2) for i in range(1, n - 1)]
        target = partial(tensorop.special_operator, "g")
        factors = quartic_m_factors
        weights = tensorop.QUARTIC_WEIGHTS
    prediction = check_node_weights(tuple(weights))

    def product(alpha, args, m):
        value = _direct_product(factors(alpha, *args, m))
        return value if extra is None else value + extra(alpha, m)

    failures = []
    checked = residual_terms = witnesses = 0
    for args, j in cases:
        lower = mi_sub(tuple(2 * x for x in mi_unit(args[0], n)), mi_unit(j, n))
        for alpha in itertools.product(range(lo, hi + 1), repeat=n):
            checked += 1
            products = {m: product(alpha, args, m) for m in (*weights, CHECK_NODE)}
            residual = target(alpha, *args) - node_combination(products, weights)
            residual_terms += len(residual.terms)
            predicted = node_combination(products, prediction)
            ok = residual.is_zero() and predicted == products[CHECK_NODE]
            if ok and all(a >= b for a, b in zip(alpha, lower)):
                witnesses += 1
                ok = not any(
                    f.element.demote().laurent for m in weights for f in factors(alpha, *args, m)
                )
            if not ok:
                failures.append({"alpha": list(alpha), **dict(zip("ij", args))})
    return {
        "check": f"eq-{kind}",
        "params": {"n": n, "window": [lo, hi]},
        "checked": checked,
        "failures": failures[:MAX_FAILURES],
        "pass": checked > 0 and not failures,
        "residual_terms": residual_terms,
        "polynomialWitnesses": witnesses,
    }


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


def evaluated(template, point, base):
    """A ``tensorop._template`` evaluated by walking its parts and rows:
    each part summed term by term at point, each row with a nonzero part
    keyed by base + its offset and valued scale * part.  The reference for
    the template's compiled kernel."""
    parts, rows, _ = template
    values = []
    for part in parts:
        value = 0
        for c, powers in part:
            for s, e in powers:
                c *= point[s] ** e
            value += c
        values.append(value)
    terms = {}
    for offset, d_exp, tag, index, scale in rows:
        c = values[index]
        if c:
            terms[((tuple(map(add, base, offset)), d_exp), tag)] = scale * c
    return terms


def combine(values, rows):
    """One term map per (numerators, D) row: each monomial's coefficients
    over the term maps values gathered into one vector, every row applied
    to it as a dot product and the nonzero totals divided by D (``divide``).
    The reference for the compiled evaluator ``tensorop._row_kernel``."""
    width = len(values)
    vectors = {}
    for t, value in enumerate(values):
        for key, c in value.items():
            vec = vectors.get(key)
            if vec is None:
                vectors[key] = vec = [0] * width
            vec[t] = c
    out = []
    for nums, den in rows:
        terms = {}
        for key, vec in vectors.items():
            total = sum(map(mul, nums, vec))
            if total:
                terms[key] = divide(total, den)
        out.append(terms)
    return out


def divide(total, den):
    """total / den, kept an int when den divides it."""
    if type(total) is int:
        q, r = divmod(total, den)
        return Fraction(total, den) if r else q
    return total / den


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


def word_of(mono):
    """A PBW monomial as its word of matrix units, each repeated by its
    exponent."""
    return tuple(g for g, e in mono for _ in range(e))


def _mono_of(word):
    mono = []
    for g in word:
        if mono and mono[-1][0] == g:
            mono[-1] = (g, mono[-1][1] + 1)
        else:
            mono.append((g, 1))
    return tuple(mono)


@cache
def normalize_word(word):
    """A word of matrix units in PBW normal form, {normal monomial: integer
    coefficient}, by rewriting the whole word: the first adjacent pair out
    of canonical order is swapped, and its commutator inserted in its place
    ([E_ab, E_ce] = delta_bc E_ae - delta_ea E_cb).  The unbounded memo
    holds every word met, so keep the words short."""
    spot = next(
        (k for k in range(len(word) - 1) if _gen_key(word[k]) > _gen_key(word[k + 1])), None
    )
    if spot is None:
        return {_mono_of(word): 1}
    (a, b), (c, e) = word[spot], word[spot + 1]
    head, rest = word[:spot], word[spot + 2:]
    result = dict(normalize_word(head + ((c, e), (a, b)) + rest))
    corrections = ([(1, (a, e))] if b == c else []) + ([(-1, (c, b))] if e == a else [])
    for coeff, gen in corrections:
        sub = normalize_word(head + (gen,) + rest)
        accumulate(result, ((mono, coeff * c2) for mono, c2 in sub.items()))
    return result


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
    products of the operators, where the library reads the residual off
    one symbolic template per (n, i, j).  The bracket is read from
    ``weylmod.tensorop`` at call time, as the library reads it."""
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
            prod = WeylElement.monomial(mi_zero(n), mi_unit(s, n)) * t_power(
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
        t_power(mi_add(mi_sub(alpha, ei), ei1), 1 + a_i2, laurent=True),
        E(i, i, n) * E(i, i + 1, n) - E(i, i + 1, n),
    )
    out = out - tensor(
        t_power(mi_add(mi_sub(alpha, ei), ei2), laurent=True),
        E(i, i + 2, n) * E(i, i, n),
    )
    out = out - tensor(
        t_power(
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
                t_power(mi_sub(beta, mi_unit(s, n)), a_s, laurent=True),
                E(s, i + 2, n) * E(i, i + 1, n),
            )
    out = out - tensor(
        t_power(mi_add(mi_sub(alpha, ei), ei1), laurent=True),
        E(i + 2, i + 2, n) * E(i, i + 1, n),
    )
    out = out + tensor(
        t_power(mi_add(mi_sub(alpha, ei), ei2), laurent=True),
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
    window, the target verdict and the number of moves it applied."""

    def __init__(self, dims, target_dims, applications):
        self.dims = dims
        self.target_dims = target_dims
        self.applications = applications
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


def closure(seeds, gens, box, target_dims=None, *, _mod=None, **_):
    """The closure as a plain breadth-first search, without saturation
    pruning or seed certificates: every queued vector meets every move of
    its weight, through the block columns of the shared engine of the
    inputs (which ``test_engine_columns_are_scaled_tensor_act_columns``
    checks against ``tensor_act``).  It takes the arguments of
    ``structure.closure``, stops as it does once ``target_dims`` is full,
    and ignores its private bound and certificates, so it can stand in for
    it inside ``evidence_simplicity``."""
    engine = structure._engine(seeds[0].module_p, seeds[0].module_m, gens, box, _mod)
    labels = engine.ambient.labels
    blocks = {w: IntRowBasis(len(labs)) for w, labs in labels.items()}
    queue = deque()
    missing = dict(target_dims or {})
    deficit = sum(missing.values())

    def insert(w, dense):
        nonlocal deficit
        if _mod is not None:
            dense = _mod.blocks[w].reduce(dense)
        if blocks[w].insert(dense):
            if missing.get(w, 0) > 0:
                missing[w] -= 1
                deficit -= 1
            queue.append((w, dense))

    for seed in seeds:
        for w, dense in engine.ambient.to_dense(seed).items():
            insert(w, dense)
    applications = 0
    while queue and not (target_dims and deficit == 0):
        w, vec = queue.popleft()
        for gi, target in engine.moves[w][0]:
            cols = engine.matrix(gi, w)
            dense = [0] * len(labels[target])
            for pos, x in enumerate(vec):
                for dst, m in cols[pos]:
                    dense[dst] += x * m
            applications += 1
            insert(target, dense)
    return ClosureOracle({w: b.dim for w, b in blocks.items()}, target_dims, applications)
