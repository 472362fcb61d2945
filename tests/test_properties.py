"""Property tests: the one-pass bracket and the integer interpolation
kernels against the Fraction oracles they replaced, and the laws the
algebra obeys on random multi-term, Laurent and rational inputs."""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from weylmod import memo, tensorop, weyl
from weylmod.errors import ArgumentError, StructureError
from weylmod.suites import check_iota_hom
from weylmod.tensorop import (
    SPECIAL_KINDS,
    TensorOperator,
    cubic_identity_residual,
    interpolate_coefficients,
    iota_hom_residual,
    quartic_identity_residual,
    shen_iota,
    special_operator,
    tensor,
)
from weylmod.ugl import E, UglElement
from weylmod.vectorfields import VectorField, bracket, monomial_field
from weylmod.weightmod import (
    Factor,
    FVector,
    WeightModuleP,
    make_hw_module,
    make_wedge_module,
    tensor_act,
)
from weylmod.weyl import WeylElement, _monomial_product, fourier

# derandomized, so the tier-1 run is the same every time
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coeffs = st.builds(
    Fraction,
    st.integers(-5, 5).filter(bool),
    st.integers(1, 4),
)
ranks = st.integers(1, 3)


@st.composite
def fields(draw, n, laurent=None):
    """A sum of one to three monomial fields with rational coefficients;
    Laurent fields may carry negative exponents."""
    if laurent is None:
        laurent = draw(st.booleans())
    low = -2 if laurent else 0
    total = None
    for _ in range(draw(st.integers(1, 3))):
        exp = tuple(draw(st.integers(low, 3)) for _ in range(n))
        i = draw(st.integers(1, n))
        term = monomial_field(exp, i, draw(coeffs), laurent=laurent)
        total = term if total is None else total + term
    return total


@st.composite
def field_pairs(draw):
    n = draw(ranks)
    return draw(fields(n)), draw(fields(n))


@st.composite
def field_triples(draw):
    n = draw(ranks)
    return draw(fields(n)), draw(fields(n)), draw(fields(n))


@st.composite
def operators(draw, n, laurent=None, word=2):
    """A sum of up to three a (x) u with rational coefficients: a a Weyl
    monomial (negative t exponents in Laurent mode) and u a product of at
    most ``word`` matrix units, so both factors stay in normal form."""
    if laurent is None:
        laurent = draw(st.booleans())
    low = -2 if laurent else 0
    units = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    total = TensorOperator.zero(n, laurent)
    for _ in range(draw(st.integers(0, 3))):
        t_exp = tuple(draw(st.integers(low, 2)) for _ in range(n))
        d_exp = tuple(draw(st.integers(0, 2)) for _ in range(n))
        u = UglElement.one(n)
        for i, j in draw(st.lists(st.sampled_from(units), max_size=word)):
            u = u * E(i, j, n)
        a = WeylElement.monomial(t_exp, d_exp, draw(coeffs), laurent=laurent)
        total = total + tensor(a, u)
    return total


# unsorted, possibly negative, pairwise distinct
node_sets = st.lists(st.integers(-4, 5), min_size=1, max_size=5, unique=True)


@st.composite
def valued_nodes(draw):
    n = draw(ranks)
    nodes = draw(node_sets)
    return nodes, [draw(operators(n)) for _ in nodes]


@PROPERTY
@given(field_pairs())
def test_bracket_matches_commutator_and_componentwise_oracle(pair):
    x, y = pair
    out = bracket(x, y)
    assert out.element == oracles.commutator_in_weyl(x, y)
    expected = oracles.bracket(x, y)
    assert out == expected
    assert out.laurent == expected.laurent == (x.laurent or y.laurent)


@PROPERTY
@given(field_pairs())
def test_bracket_is_antisymmetric(pair):
    x, y = pair
    assert bracket(x, y) == -bracket(y, x)
    assert bracket(x, x).is_zero()


@PROPERTY
@given(field_triples())
def test_jacobi_identity(triple):
    x, y, z = triple
    total = (
        bracket(x, bracket(y, z)) + bracket(y, bracket(z, x)) + bracket(z, bracket(x, y))
    )
    assert total.is_zero()


@PROPERTY
@given(field_pairs())
def test_iota_is_a_homomorphism_on_multi_term_fields(pair):
    x, y = pair
    assert iota_hom_residual(x, y).is_zero()


def test_products_see_the_rewriting():
    # [E_21 E_12, E_12 E_21] = 0 only after the PBW rewriting cancels;
    # [t^2 E_12 E_23, d E_21] keeps a Weyl term and a PBW term
    n = 3
    one = WeylElement.one(n)
    a = tensor(one, E(2, 1, n) * E(1, 2, n))
    b = tensor(one, E(1, 2, n) * E(2, 1, n))
    assert (a * b - b * a).is_zero()
    t2 = WeylElement.monomial((2, 0, 0), (0, 0, 0))
    d1 = WeylElement.monomial((0, 0, 0), (1, 0, 0))
    x = tensor(t2, E(1, 2, n) * E(2, 3, n))
    y = tensor(d1, E(2, 1, n))
    assert len((x * y - y * x).terms) > 2


def _doubled_bracket(x, y):
    """2 bracket(x, y), kernel-built, since x and y may carry symbolic
    exponents."""
    z = bracket(x, y).element
    terms = {key: 2 * c for key, c in z.terms.items()}
    return VectorField(WeylElement._from_kernel(terms, rank=z.rank, laurent=z.laurent))


def _doubled_iota_terms(x):
    """shen_iota with every E_si coefficient a_s doubled: 2 shen_iota(x) -
    x (x) 1, kernel-built, since x may carry symbolic exponents."""
    op = shen_iota(x)
    terms = {key: 2 * c if key[1] else c for key, c in op.terms.items()}
    return TensorOperator._from_kernel(terms, rank=op.rank, laurent=op.laurent)


def _commuting_rule(m1, m2):
    """The monomial product rule of m1 = t^b1 d^g1 and m2 = t^b2 d^g2 cut
    to its k = 0 term t^(b1+b2) d^(g1+g2), as if t and d commuted."""
    return _monomial_product(m1, m2)[:1]


@contextmanager
def _wrong_kernel(name, wrong, modules=(tensorop,)):
    """``<owner>.<name>`` replaced by wrong in each module of modules, and
    by wrong as a static method in each class there.  The library's memos
    (its templates among them) are built by its kernels and weights, so
    every one is cleared (``memo.clear``) before the patch is set and
    again once it is lifted."""
    memo.clear()
    try:
        with pytest.MonkeyPatch.context() as patch:
            for owner in modules:
                value = staticmethod(wrong) if isinstance(owner, type) else wrong
                patch.setattr(owner, name, value)
            yield
    finally:
        memo.clear()


@PROPERTY
@given(field_pairs())
def test_iota_hom_residual_matches_two_product_oracle(pair):
    x, y = pair
    assert iota_hom_residual(x, y) == oracles.iota_hom_residual(x, y)
    # a wrong bracket leaves iota(2[x, y]) - [iota x, iota y] = iota([x, y]),
    # which both paths must report, and which is zero only with [x, y]
    with _wrong_kernel("bracket", _doubled_bracket):
        wrong = iota_hom_residual(x, y)
        assert wrong == oracles.iota_hom_residual(x, y)
    assert wrong == shen_iota(bracket(x, y))
    assert wrong.is_zero() == bracket(x, y).is_zero()
    with _wrong_kernel("shen_iota", _doubled_iota_terms):
        assert iota_hom_residual(x, y) == oracles.iota_hom_residual(x, y)


def test_wrong_bracket_fails_the_iota_hom_check():
    x = monomial_field((0, 0), 1)
    y = monomial_field((1, 0), 2)
    assert iota_hom_residual(x, y).is_zero()
    with _wrong_kernel("bracket", _doubled_bracket):
        wrong = iota_hom_residual(x, y)
        assert not wrong.is_zero()
        assert wrong == oracles.iota_hom_residual(x, y)
    assert wrong == shen_iota(monomial_field((0, 0), 2))
    assert iota_hom_residual(x, y).is_zero()


def test_wrong_iota_coefficient_fails_the_iota_hom_check():
    x = monomial_field((2, 0), 1)
    y = monomial_field((0, 1), 1, Fraction(3, 2))
    assert iota_hom_residual(x, y).is_zero()
    with _wrong_kernel("shen_iota", _doubled_iota_terms):
        wrong = iota_hom_residual(x, y)
        assert not wrong.is_zero()
        assert wrong == oracles.iota_hom_residual(x, y)
    assert iota_hom_residual(x, y).is_zero()


def test_wrong_iota_coefficient_fails_the_identities():
    # the residual templates are built by shen_iota, so a wrong coefficient
    # there must show in the residual read off them, term by term
    cases = [
        (cubic_identity_residual, oracles.cubic_identity_residual, ((1, 0, 2), 1, 3)),
        (cubic_identity_residual, oracles.cubic_identity_residual, ((-2, 3), 2, 1)),
        (quartic_identity_residual, oracles.quartic_identity_residual, ((0, 3, 0, 1), 2)),
    ]
    for residual, _, args in cases:
        assert residual(*args).is_zero()
    with _wrong_kernel("shen_iota", _doubled_iota_terms):
        for residual, oracle, args in cases:
            wrong = residual(*args)
            assert not wrong.is_zero()
            assert wrong == oracle(*args)
    for residual, _, args in cases:
        assert residual(*args).is_zero()


def test_a_wrong_normal_ordering_rule_fails_the_checks():
    # every product goes through one monomial rule, bound on WeylElement
    # and read by the operator rule of tensorop; the closed-form bracket and
    # the polynomial action do not, so they catch a wrong rule
    a = WeylElement.monomial((0,), (2,))
    b = WeylElement.monomial((2,), (1,))
    p = oracles.t_power((3,))
    assert oracles.apply_poly(a * b, p) == oracles.apply_poly(a, oracles.apply_poly(b, p))
    assert check_iota_hom(2, 2)["pass"]
    with _wrong_kernel("_monomial_product", _commuting_rule, (weyl, tensorop, WeylElement)):
        assert oracles.apply_poly(a * b, p) != oracles.apply_poly(a, oracles.apply_poly(b, p))
        report = check_iota_hom(2, 2)
        assert not report["pass"] and report["residual_terms"] > 0
    assert check_iota_hom(2, 2)["pass"]


@PROPERTY
@given(valued_nodes())
def test_interpolation_matches_fraction_oracle(case):
    nodes, values = case
    coefficients = interpolate_coefficients(values, nodes)
    assert coefficients == oracles.interpolate_coefficients(values, nodes)
    assert all(c.laurent for c in coefficients)
    # the coefficients reproduce every value they were read from
    for m, value in zip(nodes, values):
        total = TensorOperator.zero(value.rank)
        for k, c in enumerate(coefficients):
            total = total + c * m**k
        assert total == value


@PROPERTY
@given(field_pairs(), st.integers(1, 3))
def test_bracket_rank_mismatch(pair, extra):
    x, _ = pair
    other = monomial_field((0,) * (x.rank + extra), 1)
    with pytest.raises(StructureError):
        bracket(x, other)
    with pytest.raises(StructureError):
        bracket(other, x)


@PROPERTY
@given(valued_nodes(), st.integers(1, 3))
def test_combination_rank_mismatch(case, extra):
    nodes, values = case
    odd = TensorOperator.zero(values[0].rank + extra)
    if len(nodes) < 2:
        nodes = [*nodes, max(nodes) + 1]
        values = [*values, values[0]]
    values = [*values[:-1], odd]
    with pytest.raises(StructureError):
        interpolate_coefficients(values, nodes)


@PROPERTY
@given(valued_nodes(), st.data())
def test_repeated_nodes_and_count_mismatch(case, data):
    nodes, values = case
    repeated = [*nodes, data.draw(st.sampled_from(nodes))]
    with pytest.raises(ArgumentError):
        interpolate_coefficients([*values, values[0]], repeated)
    with pytest.raises(ArgumentError):
        interpolate_coefficients(values[:-1], nodes)
    with pytest.raises(ArgumentError):
        interpolate_coefficients(values, [])


def _assert_well_formed(op):
    """What __init__ would check, on an operator that skipped it."""
    rebuilt = TensorOperator(op.rank, op.terms, op.laurent)
    assert rebuilt == op and rebuilt.laurent == op.laurent
    assert list(rebuilt.terms.items()) == list(op.terms.items())
    assert all(c != 0 for c in op.terms.values())
    assert all(len(t) == len(d) == op.rank for (t, d), _ in op.terms)
    if not op.laurent:
        assert all(b >= 0 for (t_exp, _), _ in op.terms for b in t_exp)


@PROPERTY
@given(st.integers(1, 3), st.data())
def test_kernel_built_operators_pass_the_public_checks(n, data):
    a, b = data.draw(operators(n)), data.draw(operators(n))
    x, y = data.draw(fields(n)), data.draw(fields(n))
    nodes = data.draw(st.lists(st.integers(-3, 3), min_size=2, max_size=2, unique=True))
    built = [a * b, b * a, a + b, a - b, a - a, -a, shen_iota(x), shen_iota(y),
             shen_iota(x) * shen_iota(y), iota_hom_residual(x, y),
             *interpolate_coefficients([a, b], nodes)]
    # the special operators need three coordinates
    rank = data.draw(st.integers(3, 5))
    alpha = tuple(data.draw(st.integers(-3, 4)) for _ in range(rank))
    i = data.draw(st.integers(1, rank - 2))
    built += [special_operator(kind, alpha, i) for kind in SPECIAL_KINDS]
    for op in built:
        _assert_well_formed(op)
    assert (a * 0).terms == {} and (0 * b).terms == {}


@PROPERTY
@given(st.integers(1, 3), st.integers(1, 2), st.data())
def test_public_constructor_still_checks(n, extra, data):
    z = (0,) * n
    short = (0,) * (n + extra)
    # the Weyl factor is checked by the rules of WeylElement, with its messages
    with pytest.raises(StructureError, match="monomial rank does not match element rank"):
        TensorOperator(n, {((short, z), ()): 1})
    with pytest.raises(StructureError, match="monomial rank does not match element rank"):
        TensorOperator(n, {((z, short), ()): 1})
    i = data.draw(st.integers(0, n - 1))
    negative = z[:i] + (-data.draw(st.integers(1, 3)),) + z[i + 1:]
    with pytest.raises(StructureError, match="negative t exponent .* in polynomial mode"):
        TensorOperator(n, {((negative, z), ()): 1})
    assert TensorOperator(n, {((negative, z), ()): 1}, laurent=True).laurent
    for laurent in (False, True):
        with pytest.raises(StructureError, match="negative derivative exponent in"):
            TensorOperator(n, {((z, negative), ()): 1}, laurent)
    # exact stays exact: a non-int t or d exponent is refused in either mode
    half = z[:i] + (Fraction(1, 2),) + z[i + 1:]
    for wmono in ((half, z), (z, half), (z[:i] + (1.0,) + z[i + 1:], z)):
        with pytest.raises(ArgumentError, match="is not an integer"):
            TensorOperator(n, {(wmono, ()): 1}, laurent=True)
    assert TensorOperator(n, {((z, z), ()): 0}).terms == {}
    # a sum with another element type is refused, not adopted unchecked
    with pytest.raises(StructureError):
        TensorOperator.one(n) + WeylElement.one(n)
    with pytest.raises(StructureError):
        TensorOperator.one(n) * WeylElement.one(n)


@PROPERTY
@given(st.integers(1, 2), st.booleans(), st.data())
def test_tensor_product_is_associative(n, laurent, data):
    a, b, c = (data.draw(operators(n, laurent)) for _ in range(3))
    assert (a * b) * c == a * (b * c)


@PROPERTY
@given(st.integers(1, 3), st.data())
def test_fourier_has_order_four(n, data):
    terms = {}
    for _ in range(data.draw(st.integers(1, 3))):
        t_exp = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
        d_exp = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
        terms[(t_exp, d_exp)] = data.draw(coeffs)
    a = WeylElement(n, terms)
    # the square sends t_i to -t_i and d_i to -d_i
    signed = {(b, g): c * (-1) ** (sum(b) + sum(g)) for (b, g), c in terms.items()}
    assert fourier(fourier(a)) == WeylElement(n, signed)
    assert fourier(fourier(fourier(fourier(a)))) == a


FACTORS = [Factor("poly"), Factor("twist"), Factor("laurent", Fraction(1, 3))]


@PROPERTY
@given(st.integers(2, 3), st.data())
def test_tensor_act_is_a_module_action(n, data):
    P = WeightModuleP([data.draw(st.sampled_from(FACTORS)) for _ in range(n)])
    M = data.draw(st.sampled_from([
        make_wedge_module(n, 1), make_wedge_module(n, n - 1),
        make_hw_module((2,) + (0,) * (n - 2), n),
    ]))
    terms = {}
    for _ in range(data.draw(st.integers(1, 3))):
        key = tuple(
            data.draw(st.integers(-3, -1) if f.kind == "twist"
                      else st.integers(0 if f.kind == "poly" else -2, 3))
            for f in P.factors
        )
        terms[(key, data.draw(st.integers(0, M.dim - 1)))] = data.draw(coeffs)
    w = FVector(P, M, terms)
    a = data.draw(operators(n, laurent=False))
    b = data.draw(operators(n, laurent=False))
    assert tensor_act(a * b, w) == tensor_act(a, tensor_act(b, w))
