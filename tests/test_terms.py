"""The shared sparse-term kernel: insertion order never shows, products agree
with their reference paths, and reports keep their bytes."""

import ast
import copy
import importlib
import inspect
import itertools
import pickle
import pkgutil
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from functools import partial
from math import prod
from pathlib import Path
from textwrap import dedent
from unittest import mock

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylmod
from weylmod import structure
from weylmod.cli import main
from weylmod.derham import GradedSubspace, _derham_table, pi, pi_image
from weylmod.errors import ArgumentError, DomainError, StructureError
from weylmod.exprparse import VectorLiteral, parse_expr
from weylmod.indices import TruncationBox, mi_unit
from weylmod.structure import GeneratorSet, evidence_simplicity
from weylmod.suites import _random_fvector, standard_profiles
from weylmod.tensorop import TensorOperator, shen_iota
from weylmod.terms import Frozen, Poly, RankTerms, TermMap, accumulate, pair_terms
from weylmod.ugl import E, UglElement, _gen_key, pbw_product
from weylmod.vectorfields import L_op, VectorField, monomial_field
from weylmod.weightmod import (
    FVector,
    WeightModuleP,
    _action_table,
    compose,
    make_hw_module,
    make_wedge_module,
    tensor_act,
)
from weylmod.weyl import WeylElement, WeylTerms, d, t

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_verify_all_report_bytes(capsys, n):
    # n = 2, 3 generated before terms were stored in production order, and
    # n = 4 before the node products were read off symbolic templates
    assert main(["verify", "all", "--n", str(n)]) == 0
    expected = (DATA / f"verify_all_n{n}.json").read_text()
    assert capsys.readouterr().out == expected


def test_accumulate_drops_cancelled_keys():
    out = accumulate({"a": 1, "b": 2}, [("a", -1), ("c", 3), ("b", 1), ("c", -3)])
    assert out == {"b": 3}


def random_pbw_monomial(rng, n, max_factors=3):
    gens = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    picked = sorted(set(rng.sample(gens, rng.randint(0, max_factors))), key=_gen_key)
    return tuple((g, rng.randint(1, 2)) for g in picked)


def random_weyl_monomial(rng, n, laurent=False):
    lo = -2 if laurent else 0
    return (
        tuple(rng.randint(lo, 2) for _ in range(n)),
        tuple(rng.randint(0, 2) for _ in range(n)),
    )


def random_coeff(rng):
    return Fraction(rng.choice([1, -1, 2, -3]), rng.choice([1, 2, 3]))


def random_tensor(rng, n, nterms=3, laurent=False):
    terms = {
        (random_weyl_monomial(rng, n, laurent), random_pbw_monomial(rng, n)):
        random_coeff(rng)
        for _ in range(nterms)
    }
    return TensorOperator(n, terms, laurent)


def shuffled(rng, terms):
    items = list(terms.items())
    rng.shuffle(items)
    return dict(items)


def element_samples(rng):
    """(constructor from a term dict, a term dict) for every term-map class."""
    n = 3
    P = WeightModuleP.laurent(n)
    M = make_wedge_module(n, 1)
    weyl = {random_weyl_monomial(rng, n, True): random_coeff(rng) for _ in range(6)}
    ugl = {random_pbw_monomial(rng, n): random_coeff(rng) for _ in range(6)}
    tens = random_tensor(rng, n, nterms=6, laurent=True).terms
    keys = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(6)]
    fvec = {(k, rng.randrange(M.dim)): random_coeff(rng) for k in keys}
    field = {
        (random_weyl_monomial(rng, n, True)[0], mi_unit(rng.randint(1, n), n)): random_coeff(rng)
        for _ in range(6)
    }
    return [
        (lambda t: WeylElement(n, t, laurent=True), weyl),
        (lambda t: UglElement(n, t), ugl),
        (lambda t: TensorOperator(n, t, laurent=True), tens),
        (lambda t: FVector(P, M, t), fvec),
        (lambda t: VectorField(WeylElement(n, t, laurent=True)), field),
    ]


def test_insertion_order_never_shows():
    rng = random.Random(41)
    for _ in range(10):
        for build, terms in element_samples(rng):
            a = build(terms)
            b = build(shuffled(rng, terms))
            assert a == b
            assert str(a) == str(b) and repr(a) == repr(b)
            if hasattr(a, "to_json_obj"):
                assert a.to_json_obj() == b.to_json_obj()
            # sums built in either order agree as well
            halves = list(terms.items())
            left = build(dict(halves[:3]))
            right = build(dict(halves[3:]))
            assert str(left + right) == str(right + left) == str(a)


def adoption_cases():
    """(constructor, term dict, an element of another context) for every
    term-map class, the parser's vector literal included."""
    rng = random.Random(53)
    n = 3
    literal = {
        (tuple(rng.randint(-2, 2) for _ in range(n)), (rng.randint(1, n),)): random_coeff(rng)
        for _ in range(6)
    }
    samples = [*element_samples(rng), (lambda t: VectorLiteral(n, t), literal)]
    others = [
        WeylElement.one(n - 1),
        UglElement.one(n - 1),
        TensorOperator.one(n - 1),
        FVector(WeightModuleP.laurent(n), make_wedge_module(n, 2)),
        VectorField.zero(n - 1),
        VectorLiteral(n - 1, {}),
    ]
    return [(build, terms, other) for (build, terms), other in zip(samples, others)]


CLASSES = ["WeylElement", "UglElement", "TensorOperator", "FVector", "VectorField", "VectorLiteral"]


@pytest.mark.parametrize("case", range(len(CLASSES)), ids=CLASSES)
def test_operation_results_are_adopted(monkeypatch, case):
    # __init__ checks outside input once; a sum, difference, negation or
    # scaling of valid elements adopts its collected map, keeping the type
    # and fields of its operands
    build, terms, other = adoption_cases()[case]
    halves = list(terms.items())
    a, b = build(dict(halves[:3])), build(dict(halves[3:]))
    cls = type(a)
    init = cls.__init__
    checked = []

    def counted(self, *args, **options):
        # a term map handed to __init__, as a dict or in a checked element,
        # is checked term by term
        if any(isinstance(x, (dict, WeylElement)) for x in (*args, *options.values())):
            checked.append(args)
        init(self, *args, **options)

    monkeypatch.setattr(cls, "__init__", counted)
    results = [a + b, a - b, -a, a * Fraction(-2, 3), 0 * a, a - a]
    assert checked == []
    expected = [
        terms,
        {**dict(halves[:3]), **{k: -c for k, c in halves[3:]}},
        {k: -c for k, c in halves[:3]},
        {k: c * Fraction(-2, 3) for k, c in halves[:3]},
        {},
        {},
    ]
    for result, want in zip(results, expected):
        assert type(result) is cls and result._context() == a._context()
        assert result == build(want)
    # the counter sees the outside input of the expected elements
    assert len(checked) == len(expected)
    for combine in (lambda x, y: x + y, lambda x, y: y - x):
        with pytest.raises(StructureError):
            combine(a, other)


def _library_term_maps():
    """Every subclass of ``TermMap`` that the library defines, found by
    walking ``__subclasses__`` once every module is imported."""
    for info in pkgutil.iter_modules(weylmod.__path__, "weylmod."):
        importlib.import_module(info.name)
    seen, todo = [], list(TermMap.__subclasses__())
    while todo:
        cls = todo.pop()
        seen.append(cls)
        todo.extend(cls.__subclasses__())
    return {cls for cls in seen if cls.__module__.startswith("weylmod.")}


def test_each_slot_layout_has_one_adoption_constructor():
    # the concrete term maps are the classes of adoption_cases, and each
    # adopts through the one _from_kernel of its slot layout
    ours = _library_term_maps()
    concrete = {cls for cls in ours if not ours & set(cls.__subclasses__())}
    assert sorted(cls.__name__ for cls in concrete) == sorted(CLASSES)
    layouts = {cls for cls in ours | {TermMap} if "_from_kernel" in vars(cls)}
    assert layouts == {RankTerms, WeylTerms, FVector}
    for cls in concrete:
        (owner,) = [k for k in cls.__mro__ if "_from_kernel" in vars(k)]
        assert owner in layouts, cls


@pytest.mark.parametrize("case", range(len(CLASSES)), ids=CLASSES)
def test_adopted_elements_equal_checked_ones(case):
    # _from_kernel takes the other slots by name or in the order of the
    # MRO's __slots__; it sets every slot that the checked constructor
    # sets, and nothing else, its element is as immutable, and copy and
    # pickle adopt it again
    build, terms, _ = adoption_cases()[case]
    checked = build(terms)
    cls = type(checked)
    slots = [name for klass in cls.__mro__ for name in vars(klass).get("__slots__", ())]
    fields = {name: getattr(checked, name) for name in slots if name != "terms"}
    by_name = cls._from_kernel(dict(checked.terms), **fields)
    in_order = cls._from_kernel(dict(checked.terms), *fields.values())
    twins = [copy.copy(by_name), pickle.loads(pickle.dumps(in_order))]
    for adopted in (by_name, in_order, *twins):
        assert type(adopted) is cls and adopted == checked
        assert not hasattr(adopted, "__dict__")
        for name in slots:
            assert getattr(adopted, name) == getattr(checked, name), name
            with pytest.raises(AttributeError, match="immutable"):
                setattr(adopted, name, None)
    for name in slots:
        with pytest.raises(AttributeError, match="immutable"):
            setattr(checked, name, None)
    assert set(fields) >= set(cls._fields) and "terms" in slots


# a PBW monomial that U(gl_2) refuses, with the refusal: a factor out of
# range, an exponent of 0, a float exponent, a bool or float index (the
# rules of check_index and check_integer_exponents), and two factors out of
# canonical order
BAD_PBW = {
    "out-of-range": ((((3, 1), 1),), "bad PBW factor E[3,1]^1"),
    "zero-exponent": ((((1, 2), 0),), "bad PBW factor E[1,2]^0"),
    "float-exponent": ((((1, 2), 1.5),), "bad PBW factor E[1,2]^1.5"),
    "bool-index": ((((True, 2), 1),), "bad PBW factor E[True,2]^1"),
    "float-index": ((((1, 2.0), 1),), "bad PBW factor E[1,2.0]^1"),
    "non-canonical": (
        (((1, 2), 1), ((2, 1), 1)),
        "monomial not in canonical order: (((1, 2), 1), ((2, 1), 1))",
    ),
}


def checked_constructors():
    """Per constructor of outside input: build(key, c), the element c * key
    at rank 2, a valid key, and (malformed key, error) pairs."""
    P, M = WeightModuleP.polynomial(2), make_wedge_module(2, 1)
    z = (0, 0)
    weyl, pbw = (z, z), (((1, 2), 1),)
    bad_weyl = [
        ((z, (0, -1)), StructureError),
        (((-1, 0), z), StructureError),
        (((0.5, 0), z), ArgumentError),
        (((True, 0), z), ArgumentError),
        ((z, (0,)), StructureError),
    ]
    bad_pbw = [(mono, StructureError) for mono, _ in BAD_PBW.values()]
    return {
        "WeylElement": (lambda key, c: WeylElement(2, {key: c}), weyl, bad_weyl),
        "WeylElement.monomial": (
            lambda key, c: WeylElement.monomial(*key, c, laurent=False), weyl, bad_weyl,
        ),
        "monomial_field": (
            lambda t_exp, c: monomial_field(t_exp, 1, c, laurent=False),
            (1, 0),
            [((-1, 0), StructureError), ((0.5, 0), ArgumentError), ((True, 0), ArgumentError)],
        ),
        "TensorOperator": (
            lambda key, c: TensorOperator(2, {key: c}),
            (weyl, pbw),
            [((w, pbw), error) for w, error in bad_weyl] + [((weyl, p), e) for p, e in bad_pbw],
        ),
        "UglElement": (lambda key, c: UglElement(2, {key: c}), pbw, bad_pbw),
        "FVector": (
            lambda key, c: FVector(P, M, {key: c}),
            (z, 0),
            [
                (((-1, 0), 0), StructureError),
                ((z, 2), StructureError),
                (((0, 0, 0), 0), StructureError),
                # a bool or float basis index or key entry
                ((z, True), StructureError),
                ((z, 0.0), StructureError),
                (((0.5, 0), 0), ArgumentError),
                (((True, 0), 0), ArgumentError),
            ],
        ),
    }


@pytest.mark.parametrize("name", list(checked_constructors()))
def test_checked_constructors_are_exact_and_check_keys_under_zero(name):
    # every constructor of outside input refuses a float, str or bool
    # coefficient, and checks every key, also one whose coefficient is 0
    build, key, bad_keys = checked_constructors()[name]
    for c in (0.5, "x", True, False):
        with pytest.raises(ArgumentError, match=f"^coefficient {c!r} is not an int or a Fraction$"):
            build(key, c)
    assert build(key, 0).is_zero()
    assert build(key, Fraction(-3, 2)) == Fraction(-3, 2) * build(key, 1)
    for (bad, error), c in itertools.product(bad_keys, (0, Fraction(0), 1)):
        with pytest.raises(error):
            build(bad, c)


@pytest.mark.parametrize("case", list(BAD_PBW))
def test_tensor_operators_refuse_every_pbw_half_that_ugl_refuses(case):
    # a tensor-operator key was checked on its Weyl half only, so each of
    # these was accepted (E[3,1] printed at rank 2); its PBW half now gets
    # UglElement's check, with the same refusal
    mono, message = BAD_PBW[case]
    z = (0, 0)
    builds = [lambda c: UglElement(2, {mono: c}), lambda c: TensorOperator(2, {((z, z), mono): c})]
    for build, c in itertools.product(builds, (0, 1)):
        with pytest.raises(StructureError) as info:
            build(c)
        assert type(info.value) is StructureError and str(info.value) == message


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-string limit")
def test_text_writers_name_the_int_string_limit():
    # outside cli.main, which lifts the limit, str and to_json_obj raised a
    # bare ValueError on a coefficient past it; the one coefficient writer
    # raises a StructureError that names the limit, as tokenize does
    limit = sys.get_int_max_str_digits()
    texts = ["2^20000*t[1]", "2^20000 + t[1]", "2^20000*E[1,1]", "2^20000*t[1] (x) E[1,1]"]
    values = [parse_expr(text, 1) for text in texts]
    sys.set_int_max_str_digits(4300)
    try:
        for value, write in itertools.product(values, (str, lambda v: v.to_json_obj())):
            with pytest.raises(StructureError) as info:
                write(value)
            assert str(info.value) == "coefficient past the int-string limit of 4300 digits"
        sys.set_int_max_str_digits(0)
        digits = str(2**20000)
        assert str(values[0]) == f"{digits}*t[1]" and str(values[1]) == f"{digits} + t[1]"
        assert values[2].to_json_obj()["terms"][0]["coeff"] == digits
    finally:
        sys.set_int_max_str_digits(limit)


def test_generators_check_their_index():
    # t and d adopt their monomial; an index out of range, which gave the
    # constant 1, is refused
    assert t(2, 3) == WeylElement(3, {((0, 1, 0), (0, 0, 0)): 1})
    assert d(2, 3) == WeylElement(3, {((0, 0, 0), (0, 1, 0)): 1})
    for gen, i in itertools.product((t, d), (0, 4, True)):
        with pytest.raises(ArgumentError):
            gen(i, 3)


POWER_CASES = ["weyl-polynomial", "weyl-laurent", "tensor-polynomial", "tensor-laurent", "ugl"]


def _power_samples(rng):
    """(two-term element, its unit) for every class with a product, in the
    order of POWER_CASES; the tensor operators' factors are kept small, so
    a fifth power stays cheap."""
    n = 2

    def weyl(laurent):
        terms = {random_weyl_monomial(rng, n, laurent): random_coeff(rng) for _ in range(2)}
        return WeylElement(n, terms, laurent)

    def tensor(laurent):
        def mono():
            t_exp = tuple(rng.randint(-1 if laurent else 0, 1) for _ in range(n))
            return (t_exp, tuple(rng.randint(0, 1) for _ in range(n))), random_pbw_monomial(rng, n, 1)

        return TensorOperator(n, {mono(): random_coeff(rng) for _ in range(2)}, laurent)

    ugl = UglElement(n, {random_pbw_monomial(rng, n, 2): random_coeff(rng) for _ in range(2)})
    return [
        (weyl(False), WeylElement.one(n)),
        (weyl(True), WeylElement.one(n, True)),
        (tensor(False), TensorOperator.one(n)),
        (tensor(True), TensorOperator.one(n, True)),
        (ugl, UglElement.one(n)),
    ]


@pytest.mark.parametrize("case", range(len(POWER_CASES)), ids=POWER_CASES)
def test_powers_are_the_k_fold_product(case):
    # TermMap.__pow__ is the one power loop of every class with a product
    rng = random.Random(61)
    for _ in range(3):
        x, one = _power_samples(rng)[case]
        product = one
        for k in range(6):
            power = x**k
            assert type(power) is type(x) and power == product, k
            assert getattr(power, "laurent", None) == getattr(x, "laurent", None), k
            product = product * x
        with pytest.raises(DomainError, match="negative powers"):
            x ** -1


@pytest.mark.parametrize("name", ["VectorField", "FVector", "VectorLiteral"])
def test_classes_without_a_product_refuse_products_and_powers(name):
    build, terms, _ = adoption_cases()[CLASSES.index(name)]
    a = build(terms)
    assert a * 2 == 2 * a == a + a
    for refused in (lambda: a * a, lambda: a ** 0, lambda: a ** 2):
        with pytest.raises(TypeError, match="unsupported operand"):
            refused()


def test_only_term_map_defines_the_product_and_the_power():
    # every other class binds at most the alias, which perfbench's tracer
    # wraps in the class's own namespace
    ours = _library_term_maps()
    assert {WeylElement, UglElement, TensorOperator, FVector, VectorField, VectorLiteral} <= ours
    aliased = set()
    for cls in ours:
        assert "__pow__" not in vars(cls), cls
        if "__mul__" in vars(cls):
            assert vars(cls)["__mul__"] is TermMap.__mul__, cls
            aliased.add(cls)
    assert aliased == {WeylElement, UglElement, TensorOperator}


def test_pair_terms_multiplies_every_pair_in_rule_order():
    # (m1, c1) of a, then (m2, c2) of b, then each (mono, c) of rule(m1, m2)
    # gives (mono, c1 * c2 * c), uncollected; a rule may give no term
    def rule(m1, m2):
        return () if (m1, m2) == ("y", "v") else [(m1 + m2, 1), ("z", 11)]

    a = {"x": 2, "y": Fraction(1, 3)}
    b = {"u": 5, "v": -7}
    assert list(pair_terms(a, b, rule)) == [
        ("xu", 10), ("z", 110),
        ("xv", -14), ("z", -154),
        ("yu", Fraction(5, 3)), ("z", Fraction(55, 3)),
    ]
    assert list(pair_terms({}, b, rule)) == list(pair_terms(a, {}, rule)) == []


SRC = Path(weylmod.__file__).parent


def _is_terms_items(node) -> bool:
    """Whether node is the call ``<x>.terms.items()``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "items"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "terms"
    )


def _term_loops(nodes) -> list:
    """The loops and comprehension clauses over ``<x>.terms.items()`` in
    nodes and below them."""
    return [
        sub
        for node in nodes
        for sub in ast.walk(node)
        if isinstance(sub, (ast.For, ast.comprehension)) and _is_terms_items(sub.iter)
    ]


def nested_term_loops(source: str) -> list:
    """The lines of the loops over ``<x>.terms.items()`` that hold a second
    one: in the body of a for statement, or in a later clause or the
    element of a comprehension.  The product of two term maps is
    ``terms.pair_terms``, the one loop over every pair of terms."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.For):
            loops = [(node, node.body)]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            tail = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
            clauses = node.generators
            loops = [(c, c.ifs + clauses[k + 1:] + tail) for k, c in enumerate(clauses)]
        else:
            continue
        if any(_is_terms_items(loop.iter) and _term_loops(inner) for loop, inner in loops):
            found.add(node.lineno)
    return sorted(found)


def test_the_scan_finds_nested_term_loops():
    source = (
        "for k, c in a.terms.items():\n"
        "    for j, d in b.terms.items():\n"
        "        pass\n"
        "pairs = [(k, j) for k, c in a.terms.items() for j, d in b.terms.items()]\n"
        "for k, c in a.terms.items():\n"
        "    total = {j: d for j, d in b.terms.items()}\n"
        "for k, c in a.terms.items():\n"
        "    for j, d in right:\n"
        "        pass\n"
        "pairs = [(k, j) for k, c in a.items() for j, d in b.items()]\n"
        "pairs = [(k, c) for k, c in a.terms.items()]\n"
    )
    assert nested_term_loops(source) == [1, 4, 5]


def test_every_product_of_two_term_maps_goes_through_pair_terms():
    # no module loops over the terms of one map inside a loop over those of
    # another, and no class states a product of whole maps: each states
    # only its monomial rule
    found = {
        path.name: lines
        for path in sorted(SRC.glob("*.py"))
        if (lines := nested_term_loops(path.read_text()))
    }
    assert found == {}
    defined = [
        (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if "_product_terms" in {getattr(node, a, None) for a in ("name", "id", "attr")}
    ]
    assert defined == []


def name_users(source: str, name: str) -> list:
    """The innermost enclosing function of every use of ``name`` in the
    source, a call or any other read (None at module level)."""
    found = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if name in {getattr(node, "id", None), getattr(node, "attr", None)}:
            found.append(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_outside_input_goes_through_one_loop():
    # check_coefficient is used by the one loop over outside input and by
    # the one-monomial path only, and no checked constructor has a loop of
    # its own: each hands its map to that loop, which checks each key by the
    # class's _check_key
    source = "def f():\n    def g():\n        check(1)\n    return check\ncheck(2)\n"
    assert name_users(source, "check") == ["g", "f", None]
    users = [
        (path.name, owner)
        for path in sorted(SRC.glob("*.py"))
        for owner in name_users(path.read_text(), "check_coefficient")
    ]
    assert users == [("terms.py", "_checked_terms"), ("weyl.py", "_checked_monomial")]
    for init in (WeylTerms.__init__, UglElement.__init__, FVector.__init__):
        tree = ast.parse(dedent(inspect.getsource(init)))
        loops = [
            n for n in ast.walk(tree) if isinstance(n, (ast.For, ast.While, ast.comprehension))
        ]
        assert loops == [] and "'_checked_terms'" in ast.dump(tree), init.__qualname__


def evidence_seeds(P, box):
    """The seed vectors that ``evidence_simplicity`` on F(P, wedge^1) hands
    to its closures: the image rows and the basis vectors that complete
    them."""
    seeds = []
    closure = structure.closure

    def recording(some, *args, **kw):
        seeds.extend(some)
        return closure(some, *args, **kw)

    with mock.patch.object(structure, "closure", recording):
        evidence_simplicity(P, make_wedge_module(P.rank, 1), "F", box)
    return seeds


def kernel_calls(rng, n=3):
    """(name, call) pairs, each call returning the vectors that one module
    kernel builds (``pi``, ``tensor_act``, ``GeneratorSet.act`` or the
    seeds of ``evidence_simplicity``) from seeded inputs over the three
    standard profiles, built beforehand."""
    gens = GeneratorSet.default(n)
    evidence_box = TruncationBox((-3, -3), (3, 3), margin=1)
    calls = []
    for name, P in standard_profiles(n).items():
        for r in range(n):
            v = _random_fvector(rng, P, make_wedge_module(n, r))
            op, gi = random_tensor(rng, n), rng.randrange(len(gens))
            calls += [
                (f"pi {name} {r}", lambda v=v: [pi(v)]),
                (f"tensor_act {name} {r}", lambda op=op, v=v: [tensor_act(op, v)]),
                (f"act {gi} {name} {r}", lambda gi=gi, v=v: [gens.act(gi, v)]),
            ]
    for name, P in standard_profiles(2).items():
        calls.append((f"evidence {name}", partial(evidence_seeds, P, evidence_box)))
    return calls


def test_kernel_built_vectors_are_adopted_and_equal_checked_ones(monkeypatch):
    # a kernel's output is valid by construction, so it is adopted without
    # FVector.__init__, and the check of outside input accepts it unchanged
    calls = kernel_calls(random.Random(59))
    init = FVector.__init__
    checked = []

    def counted(self, *args, **options):
        checked.append(args)
        init(self, *args, **options)

    monkeypatch.setattr(FVector, "__init__", counted)
    results = [(name, v) for name, call in calls for v in call()]
    assert checked == []
    kinds = {name.split()[0] for name, v in results if not v.is_zero()}
    assert kinds == {"pi", "tensor_act", "act", "evidence"}
    for name, v in results:
        assert type(v) is FVector, name
        again = FVector(v.module_p, v.module_m, v.terms)
        assert v == again and v.terms == again.terms, name
        assert v.module_m is again.module_m, name


def test_term_maps_copy_and_pickle():
    # a copy, a deep copy and a pickle round trip adopt the map and every
    # slot, so the twin keeps the mode that == does not compare
    values = [
        t(1, 2),
        WeylElement(2, {((-1, 0), (0, 1)): Fraction(1, 2)}, laurent=True),
        L_op(1, 2, (0, 0)),
        VectorField(WeylElement(2, {((-1, 2), (1, 0)): 3}, laurent=True)),
        E(1, 2, 2),
        shen_iota(L_op(1, 2, (0, 0))),
        parse_expr("t[1]^2*t[2]^-1 (x) e[1]^e[3]", 3),
    ]
    for value in values:
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value, value
            assert getattr(twin, "laurent", None) is getattr(value, "laurent", None), value
            assert repr(twin) == repr(value)
    # a module vector copies, sharing its modules; SLModule compares by
    # identity, so an exterior power copies and loads as its own cached
    # instance, and a deep copy or a pickle over any other module, which
    # would build a new module, is refused
    P = WeightModuleP.polynomial(2)
    vector = FVector.basis(P, make_wedge_module(2, 1), (1, 0), 0)
    for twin in (copy.copy(vector), copy.deepcopy(vector), pickle.loads(pickle.dumps(vector))):
        assert twin == vector and twin.module_m is vector.module_m
    vector = FVector.basis(P, make_hw_module((2,), 2), (1, 0), 0)
    twin = copy.copy(vector)
    assert twin == vector and twin.module_m is vector.module_m
    with pytest.raises(AttributeError, match="SLModule is immutable"):
        copy.deepcopy(vector)
    with pytest.raises(AttributeError, match="SLModule is immutable"):
        pickle.loads(pickle.dumps(vector))


def _dims_and_vector(space, vector):
    return space.dims(), vector


def test_spaces_and_vectors_over_wedges_reach_a_worker_process():
    # a space and a vector over an exterior power go to a worker and back
    # through the pool that ``cli.run_suite`` uses; each side loads the
    # exterior power as its own cached instance, so the returned vector
    # equals the sent one (modules compare by identity)
    P = WeightModuleP.polynomial(2)
    box = TruncationBox((0, 0), (3, 3), margin=1)
    space = pi_image(P, 1, box)
    vector = FVector.basis(P, make_wedge_module(2, 1), (1, 2), 1)
    with ProcessPoolExecutor(max_workers=1) as pool:
        dims, twin = pool.submit(_dims_and_vector, space, vector).result()
    assert dims == space.dims() and sum(dims.values()) > 0
    assert twin == vector and twin.module_m is vector.module_m
    # a shallow copy is a new space that shares the read-only blocks
    shallow = copy.copy(space)
    assert shallow is not space and shallow.blocks.keys() == space.blocks.keys()
    assert all(shallow.blocks[w] is block for w, block in space.blocks.items())


def _frozen_values():
    """(value, copy, deepcopy, pickle) for one value of every ``Frozen``
    class: "equal" where the twin is a value of the same class equal to it,
    else the refusal's text."""
    P = WeightModuleP.polynomial(2)
    box = TruncationBox((0, 0), (3, 3), margin=1)
    field = L_op(1, 2, (0, 0))
    equal = ("equal",) * 3
    # a module compares by identity, so only an exterior power, the one
    # cached instance per (n, r), is copied (as itself); any other module is
    # never rebuilt
    return [
        (t(1, 2), *equal),
        (field, *equal),
        (E(1, 2, 2), *equal),
        (shen_iota(field), *equal),
        (parse_expr("t[1]^2*t[2]^-1 (x) e[1]^e[3]", 3), *equal),
        (FVector.basis(P, make_wedge_module(2, 1), (0, 1), 0), *equal),
        (Poly.symbols(2)[0], *equal),
        (P, *equal),
        (make_wedge_module(2, 1), *equal),
        (make_hw_module((2,), 2), *("AttributeError: SLModule is immutable",) * 3),
        (box, *equal),
        (pi_image(P, 1, box), *equal),
    ]


def _same(twin, value) -> bool:
    """A space has no value equality: its twin is the same space when both
    are over the same modules and box with the same blocks."""
    if isinstance(value, GradedSubspace):
        return (twin.module_p, twin.box) == (value.module_p, value.box) and (
            twin.module_m is value.module_m and twin.to_json_obj() == value.to_json_obj()
        )
    return twin == value


def _twin_outcome(make, value):
    try:
        twin = make(value)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "equal" if type(twin) is type(value) and _same(twin, value) else repr(twin)


def test_frozen_values_refuse_rebinding_and_copy_as_before():
    # one value per subclass of the one freeze rule, concrete or base
    rows = _frozen_values()
    classes, todo = set(), [Frozen]
    while todo:
        todo += todo.pop().__subclasses__()
        classes.update(todo)
    for cls in classes:
        assert any(isinstance(row[0], cls) for row in rows), cls
    for value, *expected in rows:
        name = type(value).__name__
        slots = [n for k in type(value).__mro__ for n in getattr(k, "__slots__", ())]
        before = {n: getattr(value, n) for n in slots}
        for slot in slots + ["extra"]:
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                setattr(value, slot, None)
            with pytest.raises(AttributeError, match=f"^{name} is immutable$"):
                delattr(value, slot)
        assert all(getattr(value, n) is v for n, v in before.items()), name
        makers = (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v)))
        assert [_twin_outcome(make, value) for make in makers] == expected, name


def test_pbw_product_matches_word_rewriting():
    rng = random.Random(43)
    for n in (2, 3, 4):
        for _ in range(200):
            m1 = random_pbw_monomial(rng, n)
            m2 = random_pbw_monomial(rng, n)
            product = pbw_product(m1, m2)
            # a shared read-only tuple of pairs, one per monomial
            assert type(product) is tuple
            assert len({mono for mono, _ in product}) == len(product)
            assert dict(product) == oracles.normalize_word(
                oracles.word_of(m1) + oracles.word_of(m2)
            )


def test_raising_powers_times_lowering_powers_match_word_rewriting():
    # E12^k E21^k moves every raising unit past every lowering one: the
    # deepest straightening of a product of two powers
    for k in range(1, 9):
        raising, lowering = ((((1, 2), k),), (((2, 1), k),))
        expected = oracles.normalize_word(((1, 2),) * k + ((2, 1),) * k)
        assert dict(pbw_product(raising, lowering)) == expected, k


def test_pbw_product_cache_is_bounded():
    maxsize = pbw_product.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_tensor_product_is_associative():
    rng = random.Random(47)
    for n, laurent in itertools.product((2, 3), (False, True)):
        for _ in range(4):
            a, b, c = (random_tensor(rng, n, 2, laurent) for _ in range(3))
            assert (a * b) * c == a * (b * c)


def _table_sum(a, b):
    return accumulate(dict(a), b.items())


def test_action_tables_add_like_their_operators():
    # an action table is a term map: the table of S + T is the collected
    # sum of the two tables on wedge and highest-weight modules, and so is
    # the table composed after the de Rham map; the pair (S, T - S) makes the terms
    # of S cancel in the sum.  The terms share two Weyl monomials t^b d_1
    # and t^b d_2, so entries of distinct PBW monomials meet at one key of
    # a table, and d_2 after t^b d_1 meets d_1 after t^b d_2
    rng = random.Random(29)
    n = 3
    wedges = [make_wedge_module(n, r) for r in range(n + 1)]
    modules = wedges + [make_hw_module(psi, n) for psi in ((1, 1), (2, 0))]
    composed = 0
    for _ in range(6):
        t_exp = random_weyl_monomial(rng, n)[0]
        monos = [(t_exp, mi_unit(l, n)) for l in (1, 2)]
        S, T = (
            TensorOperator(n, {
                (rng.choice(monos), random_pbw_monomial(rng, n)): random_coeff(rng)
                for _ in range(4)
            })
            for _ in range(2)
        )
        for A, B in ((S, T), (S, T - S)):
            for M in modules:
                tables = [_action_table(op, M) for op in (A, B)]
                assert _action_table(A + B, M) == _table_sum(*tables), M
            for r in range(1, n + 1):
                pi_r = _derham_table(n, r - 1)
                tables = [compose(_action_table(op, wedges[r]), pi_r) for op in (A, B)]
                total = compose(_action_table(A + B, wedges[r]), pi_r)
                assert total == _table_sum(*tables), r
                composed += bool(total)
    assert composed


@st.composite
def polys(draw, n):
    """An int, or a sum of up to four scaled monomials in Poly.symbols(n)."""
    symbols = Poly.symbols(n)
    total = draw(st.integers(-3, 3))
    for _ in range(draw(st.integers(0, 4))):
        term = draw(st.integers(-3, 3))
        for s in range(n):
            for _ in range(draw(st.integers(0, 2))):
                term = term * symbols[s]
        total = total + term
    return total


def _at(p, point):
    """The value of a Poly or scalar at a point, term by term."""
    if not isinstance(p, Poly):
        return p
    return sum(c * prod(a**e for a, e in zip(point, exps)) for exps, c in p.terms.items())


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_poly_arithmetic_commutes_with_evaluation(data):
    n = data.draw(st.integers(1, 3))
    p, q = data.draw(polys(n)), data.draw(polys(n))
    point = tuple(data.draw(st.integers(-4, 4)) for _ in range(n))
    den = data.draw(st.integers(1, 5))
    for value, expected in (
        (p + q, _at(p, point) + _at(q, point)),
        (p - q, _at(p, point) - _at(q, point)),
        (p * q, _at(p, point) * _at(q, point)),
        (-p, -_at(p, point)),
        (p * 3 - 1, 3 * _at(p, point) - 1),
    ):
        assert _at(value, point) == expected
    if isinstance(p, Poly):
        assert _at(p / den, point) == Fraction(_at(p, point), den)
        assert (p * den) / den == p
        # a Poly is never constant: it is truthy and equals no scalar
        assert p and p != _at(p, point) and hash(p + 0) == hash(p)
    # a result that is constant comes back as a plain int
    assert type(p - p) is int and p - p == 0
    assert type((p + 2) - p) is int


def test_poly_keys_a_term_map():
    a1, a2 = Poly.symbols(2)
    terms = accumulate({}, [((a1 + 1, a2), a1), ((1 + a1, a2), -a1), ((a1, a2 - 1), 2)])
    assert terms == {(a1, a2 - 1): 2}
    assert repr((a1 + 1) * (a2 - 2) - 3 * a1 * a1) == "Poly(-2 + a2 + -2*a1 + a1*a2 + -3*a1^2)"
