"""Weight modules, exterior powers, highest-weight closures, tensor actions."""

import hashlib
import itertools
import math
import random
from fractions import Fraction
from functools import partial

import oracles
import pytest

from weylmod import weightmod
from weylmod.errors import ArgumentError, DomainError, StructureError
from weylmod.linalg import RowBasis
from weylmod.tensorop import TensorOperator, from_weyl, shen_iota, tensor
from weylmod.ugl import E, _gen_key
from weylmod.vectorfields import L_op, VectorField, bracket
from weylmod.weightmod import (
    Factor,
    FVector,
    WeightModuleP,
    _lowering_closure,
    _scaled_monomial_on_key,
    make_hw_module,
    make_wedge_module,
    parse_module_descriptor,
    sn_act,
    tensor_act,
    wedge_insert,
    wedge_replace,
    weyl_dimension,
)
from weylmod.weyl import WeylElement, d, t


def test_factor_kinds():
    assert Factor("poly").supports(0)
    assert not Factor("poly").supports(-1)
    assert Factor("twist").supports(-1)
    assert not Factor("twist").supports(0)
    lam = Factor("laurent", Fraction(1, 2))
    assert lam.supports(-5) and oracles.exponent(lam, 3) == Fraction(7, 2)
    with pytest.raises(StructureError):
        Factor("laurent", 2)


ORACLE_SHIFTS = tuple(Fraction(s) for s in ("1/2", "-7/5", "5/3", "3/4", "-1/3"))


def assert_matches_oracle(P, key, t_exp, d_exp):
    expected = oracles.monomial_on_key(P, key, t_exp, d_exp)
    scaled = _scaled_monomial_on_key(P, key, t_exp, d_exp)
    if expected is None:
        assert scaled is None
        return
    coeff, new_key = expected
    den = math.prod(f.shift.denominator ** g for f, g in zip(P.factors, d_exp)
                    if f.kind == "laurent")
    assert type(scaled[0]) is int
    assert Fraction(scaled[0], den) == coeff and scaled[1] == new_key


def test_monomial_on_key_matches_fraction_oracle():
    factors = [Factor("poly"), Factor("twist")] + [
        Factor("laurent", s) for s in ORACLE_SHIFTS
    ]
    # every single line: keys on both sides of the poly (0 | -1) and twist
    # (-1 | 0) support edges, derivative degrees up to 5
    for f in factors:
        P = WeightModuleP([f])
        for k, b, g in itertools.product(range(-7, 8), range(3), range(6)):
            assert_matches_oracle(P, (k,), (b,), (g,))
    # mixed rank-3 profiles
    rng = random.Random(83)
    for _ in range(3000):
        P = WeightModuleP([rng.choice(factors) for _ in range(3)])
        key = tuple(rng.randint(-4, 4) for _ in range(3))
        t_exp = tuple(rng.randint(0, 3) for _ in range(3))
        d_exp = tuple(rng.randint(0, 5) for _ in range(3))
        assert_matches_oracle(P, key, t_exp, d_exp)


def test_descriptor_round_trip():
    mod = parse_module_descriptor("[poly, twist, laurent(1/3)]")
    assert mod.factors == (
        Factor("poly"),
        Factor("twist"),
        Factor("laurent", Fraction(1, 3)),
    )
    assert parse_module_descriptor(repr(mod)) == mod


@pytest.mark.parametrize(
    "text, message",
    [
        # the unclosed factor used to be dropped, leaving [poly]
        ("[poly, laurent(1/2]", "unbalanced parentheses"),
        ("[poly, laurent1/2)]", "unbalanced parentheses"),
        # an empty factor used to be skipped, leaving [poly,poly]
        ("[poly,,poly]", "empty factor"),
        ("[poly,]", "empty factor"),
        ("[ ]", "empty module descriptor"),
    ],
)
def test_descriptor_refuses_unbalanced_and_empty_factors(text, message):
    with pytest.raises(ArgumentError, match=message):
        parse_module_descriptor(text)


_UNBALANCED = (ArgumentError, "unbalanced parentheses in module descriptor {text!r}")
_EMPTY_FACTOR = (ArgumentError, "empty factor in module descriptor {text!r}")
_EMPTY = (ArgumentError, "empty module descriptor {text!r}")
_INTEGER = (StructureError, "laurent shift must not be an integer")


def _bad(token):
    return ArgumentError, f"bad factor token {token!r}"


# each descriptor with the text of its profile, or the class and message of
# its refusal; rows marked "split" read differently before descriptors were
# split at their commas after one parenthesis count (all ArgumentError then
# too): ")(" and "[)poly(]" were unbalanced, "laurent(1,2)" the bad token
# 'laurent(1,2)', "[,laurent(1/2]" an empty factor, "[foo, laurent(]" the
# bad token 'foo'
DESCRIPTORS = [
    ("[poly]", "[poly]"),
    ("poly", "[poly]"),
    ("[poly,twist]", "[poly,twist]"),
    ("poly, twist", "[poly,twist]"),
    ("[poly, twist, laurent(1/2)]", "[poly,twist,laurent(1/2)]"),
    ("[ poly , laurent(1/3) ]", "[poly,laurent(1/3)]"),
    ("[twist, twist, twist]", "[twist,twist,twist]"),
    ("[laurent]", "[laurent(1/2)]"),
    ("[laurent(-3/2)]", "[laurent(-3/2)]"),
    ("[laurent( 1/2 )]", "[laurent(1/2)]"),
    ("[laurent (1/2)]", "[laurent(1/2)]"),
    ("[laurent(0.5)]", "[laurent(1/2)]"),
    ("laurent(1/2),poly", "[laurent(1/2),poly]"),
    ("[laurent(1/2),laurent(1/2)]", "[laurent(1/2),laurent(1/2)]"),
    ("[]", _EMPTY),
    ("", _EMPTY),
    ("  ", _EMPTY),
    ("[ ]", _EMPTY),
    ("[poly,]", _EMPTY_FACTOR),
    ("[,poly]", _EMPTY_FACTOR),
    ("[poly,,twist]", _EMPTY_FACTOR),
    ("[poly, laurent(1/2]", _UNBALANCED),
    ("[poly, laurent1/2)]", _UNBALANCED),
    ("[laurent(1/2))]", _UNBALANCED),
    ("[laurent((1/2)]", _UNBALANCED),
    ("(", _UNBALANCED),
    (")", _UNBALANCED),
    ("[poly)]", _UNBALANCED),
    ("[laurent(1/2),(]", _UNBALANCED),
    ("[,laurent(1/2]", _UNBALANCED),  # split
    ("[foo, laurent(]", _UNBALANCED),  # split
    (")(", _bad(")(")),  # split
    ("[)poly(]", _bad(")poly(")),  # split
    ("laurent(1,2)", _bad("laurent(1")),  # split
    ("[laurent(1)]", _INTEGER),
    ("[laurent(0)]", _INTEGER),
    ("[laurent(-1)]", _INTEGER),
    ("[laurent(2/0)]", _bad("laurent(2/0)")),
    ("[laurent(x)]", _bad("laurent(x)")),
    ("[laurent()]", _bad("laurent()")),
    ("[laurent((1/2))]", _bad("laurent((1/2))")),
    ("[laurent(1/2)x]", _bad("laurent(1/2)x")),
    ("[laurentz]", _bad("laurentz")),
    ("[LAURENT]", _bad("LAURENT")),
    ("[foo]", _bad("foo")),
    ("[poly(1)]", _bad("poly(1)")),
    ("[(poly)]", _bad("(poly)")),
    ("[poly]]", _bad("poly]")),
    ("[[poly]", _bad("[poly")),
]


@pytest.mark.parametrize("text, expected", DESCRIPTORS)
def test_descriptor_table(text, expected):
    if isinstance(expected, str):
        assert repr(parse_module_descriptor(text)) == expected
        return
    cls, message = expected
    with pytest.raises(cls) as info:
        parse_module_descriptor(text)
    assert type(info.value) is cls and str(info.value) == message.format(text=text)


def weyl_on_p(a, v, allow_laurent=False):
    """The Weyl element a acting on a vector of P = F(P, wedge^0)."""
    return tensor_act(from_weyl(a), v, allow_laurent)


def test_weyl_act_polynomial_factor():
    P = WeightModuleP.polynomial(1)
    v = oracles.basis_vector(P, (2,))
    assert v.module_m is make_wedge_module(1, 0)
    assert weyl_on_p(d(1, 1), v) == 2 * oracles.basis_vector(P, (1,))
    assert weyl_on_p(d(1, 1), oracles.basis_vector(P, (0,))).is_zero()


def test_weyl_act_twisted_factor():
    P = WeightModuleP.twisted(1)
    v = {k: oracles.basis_vector(P, (k,)) for k in (-2, -1)}
    assert weyl_on_p(t(1, 1), v[-1]).is_zero()
    assert weyl_on_p(t(1, 1), v[-2]) == v[-1]
    assert weyl_on_p(d(1, 1), v[-1]) == -1 * v[-2]


def test_weyl_act_laurent_factor():
    P = WeightModuleP.laurent(1)
    v = {k: oracles.basis_vector(P, (k,)) for k in (-1, 0)}
    assert weyl_on_p(d(1, 1), v[0]) == Fraction(1, 2) * v[-1]
    assert weyl_on_p(t(1, 1), v[-1]) == v[0]


def test_weyl_act_module_axiom():
    rng = random.Random(51)
    profiles = [
        WeightModuleP.polynomial(2),
        WeightModuleP.twisted(2),
        WeightModuleP.laurent(2),
        WeightModuleP([Factor("twist"), Factor("poly")]),
    ]
    for P in profiles:
        lo = 0 if all(f.kind == "poly" for f in P.factors) else -3
        for _ in range(25):
            a = WeylElement.monomial(
                tuple(rng.randint(0, 2) for _ in range(2)),
                tuple(rng.randint(0, 2) for _ in range(2)),
                rng.randint(-3, 3),
            )
            b = WeylElement.monomial(
                tuple(rng.randint(0, 2) for _ in range(2)),
                tuple(rng.randint(0, 2) for _ in range(2)),
                rng.randint(-3, 3),
            )
            key = tuple(rng.randint(lo, 3) for _ in range(2))
            if not P.supports_key(key):
                key = tuple(-1 - abs(k) if f.kind == "twist" else abs(k)
                            for f, k in zip(P.factors, key))
            v = oracles.basis_vector(P, key)
            assert weyl_on_p(a * b, v) == weyl_on_p(a, weyl_on_p(b, v))


def test_weyl_act_rejects_laurent():
    P = WeightModuleP.polynomial(1)
    a = oracles.t_power((-1,))
    with pytest.raises(DomainError):
        weyl_on_p(a, oracles.basis_vector(P, (2,)))
    # admitted, the key pushed out of the support contributes zero
    assert weyl_on_p(a, oracles.basis_vector(P, (0,)), allow_laurent=True).is_zero()
    assert weyl_on_p(a, oracles.basis_vector(P, (2,)), allow_laurent=True) == (
        oracles.basis_vector(P, (1,))
    )


def test_weyl_act_demotes_laurent_mode():
    # a Laurent-mode element whose t exponents are all >= 0 is demoted and
    # acts as its polynomial-mode copy
    P = WeightModuleP.polynomial(2)
    a = WeylElement(2, {((1, 0), (0, 2)): 3, ((0, 1), (1, 0)): -1}, laurent=True)
    v = oracles.basis_vector(P, (1, 3)) + 2 * oracles.basis_vector(P, (2, 0))
    image = weyl_on_p(a, v)
    assert image == weyl_on_p(a.demote(), v)
    # 3 t1 d2^2 sends t1 t2^3 to 18 t1^2 t2; -t2 d1 sends t1 t2^3 to -t2^4
    # and 2 t1^2 to -4 t1 t2
    basis = partial(oracles.basis_vector, P)
    assert image == 18 * basis((2, 1)) - basis((0, 4)) - 4 * basis((1, 1))


def test_fourier_consistency_of_twisted_module():
    # the all-twisted module is the Fourier twist of the polynomial module:
    # transporting along t^m <-> m! t^(-m-1) intertwines a with fourier(a)
    n = 2
    A = WeightModuleP.polynomial(n)
    AF = WeightModuleP.twisted(n)
    triv = make_wedge_module(n, 0)

    def transport(v):
        terms = {}
        for (key, midx), c in v.terms.items():
            fact = 1
            for m in key:
                fact *= math.factorial(m)
            terms[(tuple(-m - 1 for m in key), midx)] = c * fact
        return FVector(AF, triv, terms)

    rng = random.Random(53)
    gens = [t(1, n), t(2, n), d(1, n), d(2, n)]
    for _ in range(40):
        key = (rng.randint(0, 4), rng.randint(0, 4))
        v = oracles.basis_vector(A, key)
        for a in gens:
            twisted = weyl_on_p(oracles.fourier(a), v)
            assert transport(twisted) == weyl_on_p(a, transport(v))


def test_wedge_module_examples():
    M = make_wedge_module(3, 2)
    idx = M.labels.index((2, 3))
    out = M.apply_pbw((((1, 2), 1),), {idx: 1})
    assert out == {M.labels.index((1, 3)): 1}
    idx13 = M.labels.index((1, 3))
    assert M.apply_pbw((((1, 2), 1),), {idx13: 1}) == {}
    for n in range(2, 5):
        for r in range(n + 1):
            W = make_wedge_module(n, r)
            assert W.dim == math.comb(n, r)
            assert W.central == r
            assert oracles.check_commutators(W)
    assert make_wedge_module(3, 0).dim == 1


def test_wedge_sign():
    M = make_wedge_module(3, 2)
    # E_31 on e_1 ^ e_2 = e_3 ^ e_2 = -(e_2 ^ e_3)
    out = M.apply_pbw((((3, 1), 1),), {M.labels.index((1, 2)): 1})
    assert out == {M.labels.index((2, 3)): -1}


def test_wedge_insert_and_replace_match_the_permutation_sign():
    for n in range(1, 6):
        for r in range(n + 1):
            for label in itertools.combinations(range(1, n + 1), r):
                for l in range(1, n + 1):
                    assert wedge_insert(l, label) == oracles.wedge_sort((l,) + label)
                    for i in range(1, n + 1):
                        want = None
                        if l in label:
                            want = oracles.wedge_sort(
                                tuple(i if x == l else x for x in label)
                            )
                        assert wedge_replace(label, l, i) == want, (label, l, i)


def test_wedge_argument_check():
    with pytest.raises(ArgumentError):
        make_wedge_module(3, 4)


def test_weyl_dimension_oracle():
    assert weyl_dimension((1, 0), 3) == 3
    assert weyl_dimension((0, 1), 3) == 3
    assert weyl_dimension((2,), 2) == 3
    assert weyl_dimension((1, 1), 3) == 8
    assert weyl_dimension((0, 0), 3) == 1
    for n in (2, 3, 4):
        for r in range(1, n):
            psi = tuple(1 if k == r - 1 else 0 for k in range(n - 1))
            assert weyl_dimension(psi, n) == math.comb(n, r)


def test_hw_module_natural():
    M = make_hw_module((1, 0), 3)
    assert M.dim == 3
    assert oracles.check_commutators(M)
    assert sorted(M.weights, reverse=True) == [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
    ]


def test_hw_module_adjoint_of_sl2():
    M = make_hw_module((2,), 2)
    assert M.dim == 3
    assert M.central == 2
    assert oracles.check_commutators(M)
    assert sorted(M.weights, reverse=True) == [(2, 0), (1, 1), (0, 2)]


def test_hw_module_matches_wedge():
    # make_hw_module returns the exterior power itself for psi = e_r; the
    # lowering closure it would otherwise run is checked against it
    for n in (2, 3, 4):
        for r in range(1, n):
            psi = tuple(1 if k == r - 1 else 0 for k in range(n - 1))
            wedge = make_wedge_module(n, r)
            assert make_hw_module(psi, n) is wedge
            hw = _lowering_closure(psi, n)
            assert hw.central == wedge.central and oracles.check_commutators(hw)
            assert hw.dim == wedge.dim
            assert sorted(hw.weights) == sorted(wedge.weights)
            # equal trace of every diagonal generator
            for i in range(1, n + 1):
                tr_hw = sum(
                    dict(hw.matrices[(i, i)][s]).get(s, 0) for s in range(hw.dim)
                )
                tr_wedge = sum(
                    dict(wedge.matrices[(i, i)][s]).get(s, 0)
                    for s in range(wedge.dim)
                )
                assert tr_hw == tr_wedge


def test_hw_module_bigger_example():
    M = make_hw_module((1, 1), 3)
    assert M.dim == 8
    assert oracles.check_commutators(M)


# (psi, n) -> sha256 of repr((labels, weights, sorted matrices, central,
# name)) of make_hw_module(psi, n), recorded from the closure inside the
# whole tensor-product module that the closure on words replaced
HW_DIGESTS = {
    ((2,), 2): "14297b4968f043c727d6c71d77ae4800107d2457c168d19b1c6240bb1dac88ab",
    ((3,), 2): "60519d5762e5d3fadb05dd88d1642bdbcf2132500c1399e4e102e0f45b42a034",
    ((1, 1), 3): "8c9bfc1e276b0276311c9815940ca1e1f6f7fc43d0d52e441ee537747e90bb0a",
    ((2, 0), 3): "ca8c0a272571bcd10ddab37f4e891c180a26e7f6d6138b986d0c8a8671b2f0e1",
    ((0, 2), 3): "d47dfc91d752735b62ada063d47528022af050464f597d72a5d51e326924e20c",
    ((2, 1), 3): "ed540f03dba5ab3480172225f4d10d0708b6b75feffdf32b82c6180a865b7959",
    ((2, 2), 3): "696d4025c3f23a641a9c7b1d634b02cde29240ab99747e6997fed2a932c56ea6",
    ((3, 2), 3): "bb372adab820082aeaca5d31eefc870e6e8ae9d399db936aa519b9099385c4e7",
    ((2, 1, 0), 4): "342e36460c4b5f17b5aed6f8b9a8395b8c0530560f407e146599e68cbcf02c78",
    ((1, 0, 1), 4): "61b7c949348450484417dcc1e1a0c3a68650ca4b5325c4943e4e7f5a1b2ca29a",
    ((1, 1, 1), 4): "e5de0e39b775616aa981ccfc4f615d04c9b39d8d4d9139fdc4c0966474deb3ab",
    ((2, 1, 1), 4): "dcff81ca905b44e86a2c9ead4e799a049c801021d6e12423bf65227eb6eea567",
    ((2, 2, 0), 4): "ecae67c6523a01e442ce4002e0a67eeb63428ea3c665eebd8f128aef55170e8d",
    ((1, 0, 0, 1), 5): "3dbcfcd5aaefa92b94d30d5897b47afd133c6d472402c6d8b011b37587e91133",
    ((2, 0, 0, 0), 5): "806a4464af67b63df00b2fff2bfffa3a55732066067c00325bdfcbdd81d3ad16",
}


def _module_digest(M) -> str:
    data = (M.labels, M.weights, sorted(M.matrices.items()), M.central, M.name)
    return hashlib.sha256(repr(data).encode()).hexdigest()


@pytest.mark.parametrize(
    "psi, n", list(HW_DIGESTS), ids=[f"psi{''.join(map(str, psi))}-n{n}" for psi, n in HW_DIGESTS]
)
def test_hw_modules_keep_their_bytes(psi, n):
    # the closure on words gives the modules of the closure inside the
    # tensor-product module, byte for byte; the gl_n relations are checked
    # independently of both
    M = make_hw_module(psi, n)
    assert M.dim == weyl_dimension(psi, n)
    assert oracles.check_commutators(M)
    assert _module_digest(M) == HW_DIGESTS[psi, n]


class _NothingContained(RowBasis):
    def contains(self, vec):
        return False


def test_hw_closure_refusals_keep_their_type_and_text(monkeypatch):
    # a dimension other than the Weyl formula's, and an image outside the
    # closure, are each refused as a StructureError
    with monkeypatch.context() as patch:
        patch.setattr(weightmod, "weyl_dimension", lambda psi, n: 4)
        with pytest.raises(StructureError, match="^closure found dimension 3, Weyl formula gives 4$"):
            _lowering_closure((2,), 2)
    monkeypatch.setattr(weightmod, "RowBasis", _NothingContained)
    with pytest.raises(StructureError, match="^closure is not stable under gl action$"):
        _lowering_closure((2,), 2)


def test_hw_module_rejects_bad_weight():
    with pytest.raises(ArgumentError):
        make_hw_module((-1, 0), 3)
    # a bool entry used to build a module named V(Trued1+1d2,3) equal to
    # V(1d1+1d2,3), and a float one to raise a TypeError
    for psi, n in (((True, 1), 3), ((1.5,), 2), ((1.0, 0), 3), ((Fraction(1), 0), 3)):
        for build in (make_hw_module, weyl_dimension):
            with pytest.raises(ArgumentError, match="^psi must be"):
                build(psi, n)


def test_basis_vector_refuses_a_label_the_module_lacks():
    A = WeightModuleP.polynomial(3)
    wedge1 = make_wedge_module(3, 1)
    assert FVector.basis(A, wedge1, (0, 1, 0), (2,)).terms == {((0, 1, 0), 1): 1}
    for label in ((1, 2), (4,), "v0"):
        with pytest.raises(StructureError, match=r"^label .* is not a basis label$"):
            FVector.basis(A, wedge1, (0, 0, 0), label)


def test_tensor_act_examples():
    n = 2
    A = WeightModuleP.polynomial(n)
    wedge1 = make_wedge_module(n, 1)
    # (d_1 (x) 1)(p (x) v) = d_1 p (x) v
    w = FVector.basis(A, wedge1, (2, 0), (1,))
    out = tensor_act(from_weyl(d(1, n)), w)
    assert out == 2 * FVector.basis(A, wedge1, (1, 0), (1,))
    # iota(t_1 d_2) on t_2 (x) e_2
    w = FVector.basis(A, wedge1, (0, 1), (2,))
    out = tensor_act(shen_iota(VectorField(t(1, n) * d(2, n))), w)
    assert out == FVector.basis(A, wedge1, (1, 0), (2,)) + FVector.basis(
        A, wedge1, (0, 1), (1,)
    )


def test_sn_act_examples():
    n = 2
    A = WeightModuleP.polynomial(n)
    triv = make_wedge_module(n, 0)
    wedge1 = make_wedge_module(n, 1)
    # L_12^0 on t^0 (x) e_1 stays put
    w = FVector.basis(A, wedge1, (0, 0), (1,))
    assert sn_act(L_op(1, 2, (0, 0)), w) == w
    # L_12^(-e_2) = -d_2 sends t_2 to -1
    w = FVector.basis(A, triv, (0, 1), 0)
    assert sn_act(L_op(1, 2, (0, -1)), w) == -1 * FVector.basis(A, triv, (0, 0), 0)
    # every generator kills constants in F(A_n, wedge^0)
    const = FVector.basis(A, triv, (0, 0), 0)
    for alpha in itertools.product(range(-1, 2), repeat=n):
        gen = L_op(1, 2, alpha, laurent=True)
        if gen.is_zero() or gen.element.demote().laurent:
            continue
        assert sn_act(gen.demote(), const).is_zero()
    # L_12^0 on t_1 in the trivial-wedge picture of A_2
    w = FVector.basis(A, triv, (1, 0), 0)
    assert sn_act(L_op(1, 2, (0, 0)), w) == w


def test_sn_act_rejects_divergent_field():
    A = WeightModuleP.polynomial(2)
    triv = make_wedge_module(2, 0)
    w = FVector.basis(A, triv, (1, 0), 0)
    with pytest.raises(DomainError):
        sn_act(VectorField(t(1, 2) * d(1, 2)), w)


def test_tensor_act_matches_the_direct_oracle():
    # the tabulated integer evaluation against the term-by-term action, with
    # rational coefficients over poly, twisted, Laurent and mixed lines,
    # Laurent-mode operators included
    rng = random.Random(71)
    n = 3
    modules = [
        WeightModuleP.polynomial(n),
        WeightModuleP.twisted(n),
        WeightModuleP.laurent(n, Fraction(-7, 5)),
        WeightModuleP(
            [Factor("poly"), Factor("laurent", Fraction(2, 3)), Factor("twist")]
        ),
    ]
    finite = [make_wedge_module(n, r) for r in range(n + 1)] + [make_hw_module((1, 1), n)]
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for _ in range(120):
        laurent = rng.random() < 0.3
        terms = {}
        for _ in range(rng.randint(1, 4)):
            t_exp = tuple(rng.randint(-2 if laurent else 0, 2) for _ in range(n))
            d_exp = tuple(rng.randint(0, 2) for _ in range(n))
            picked = sorted(rng.sample(gens, rng.randint(0, 2)), key=_gen_key)
            pmono = tuple((g, rng.randint(1, 2)) for g in picked)
            terms[((t_exp, d_exp), pmono)] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        op = TensorOperator(n, terms, laurent)
        P = rng.choice(modules)
        M = rng.choice(finite)
        vec = {}
        for _ in range(rng.randint(1, 3)):
            key = tuple(
                rng.randint(-3, -1)
                if f.kind == "twist"
                else rng.randint(0 if f.kind == "poly" else -3, 3)
                for f in P.factors
            )
            vec[(key, rng.randrange(M.dim))] = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        w = FVector(P, M, vec)
        assert tensor_act(op, w, allow_laurent=True) == oracles.tensor_act(
            op, w, allow_laurent=True
        ), (op, w)


def test_tensor_act_respects_products():
    rng = random.Random(57)
    n = 2
    A = WeightModuleP.polynomial(n)
    wedge1 = make_wedge_module(n, 1)
    ops = [
        from_weyl(t(1, n) * d(2, n)),
        tensor(t(1, n), E(1, 2, n)),
        tensor(WeylElement.one(n), E(2, 1, n)),
        tensor(d(2, n), E(1, 1, n)),
    ]
    for _ in range(30):
        a = rng.choice(ops)
        b = rng.choice(ops)
        w = FVector.basis(
            A, wedge1, (rng.randint(0, 3), rng.randint(0, 3)), rng.randint(0, 1)
        )
        assert tensor_act(a * b, w) == tensor_act(a, tensor_act(b, w))


def test_sn_act_is_lie_action():
    rng = random.Random(59)
    n = 3
    P = WeightModuleP([Factor("poly"), Factor("laurent", Fraction(1, 2)), Factor("poly")])
    wedge2 = make_wedge_module(n, 2)
    gens = []
    for i, j in itertools.permutations(range(1, n + 1), 2):
        for alpha in itertools.product(range(-1, 2), repeat=n):
            if all(alpha[s] >= (-1 if s in (i - 1, j - 1) else 0) for s in range(n)):
                g = L_op(i, j, alpha)
                if not g.is_zero():
                    gens.append(g)
    for _ in range(20):
        x = rng.choice(gens)
        y = rng.choice(gens)
        key = (rng.randint(0, 2), rng.randint(-2, 2), rng.randint(0, 2))
        w = FVector.basis(P, wedge2, key, rng.randrange(wedge2.dim))
        lhs = sn_act(bracket(x, y), w) if not bracket(x, y).is_zero() else None
        rhs = sn_act(x, sn_act(y, w)) - sn_act(y, sn_act(x, w))
        if lhs is None:
            assert rhs.is_zero()
        else:
            assert lhs == rhs


def test_weight_grading_diagonal_action():
    # iota(d_i) = d_i (x) 1 + 1 (x) E_ii acts diagonally with the key+label weight
    n = 2
    A = WeightModuleP.polynomial(n)
    wedge1 = make_wedge_module(n, 1)
    for key in itertools.product(range(3), repeat=n):
        for midx in range(wedge1.dim):
            w = FVector.basis(A, wedge1, key, midx)
            for i in range(1, n + 1):
                op = from_weyl(t(i, n) * d(i, n)) + tensor(
                    WeylElement.one(n), E(i, i, n)
                )
                expected = w.weight_of(key, midx)[i - 1]
                assert tensor_act(op, w) == expected * w


def test_bounded_multiplicity_window():
    # dim F(P, wedge^r)_mu <= C(n, r) with equality on interior weights
    for n in (2, 3):
        for r in range(n + 1):
            wedge = make_wedge_module(n, r)
            for P in (WeightModuleP.polynomial(n), WeightModuleP.laurent(n)):
                for mu in itertools.product(range(-1, 3), repeat=n):
                    count = 0
                    for midx in range(wedge.dim):
                        key = tuple(
                            m - wt for m, wt in zip(mu, wedge.weights[midx])
                        )
                        if P.supports_key(key):
                            count += 1
                    assert count <= math.comb(n, r)


def test_fvector_support_validation():
    A = WeightModuleP.polynomial(2)
    triv = make_wedge_module(2, 0)
    with pytest.raises(StructureError):
        FVector(A, triv, {((-1, 0), 0): 1})


def test_vectors_refuse_keys_of_another_length():
    # a short key used to pass the support check, which zips the factors
    # with the key, and pi then built a vector of rank-1 keys
    A = WeightModuleP.polynomial(2)
    triv = make_wedge_module(2, 0)
    for key in ((3,), (1, 2, 3), ()):
        with pytest.raises(StructureError, match="has length"):
            FVector(A, triv, {(key, 0): 1})
    assert FVector(A, triv, {((3, 0), 0): 1}).terms == {((3, 0), 0): 1}
