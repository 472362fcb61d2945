"""The shared sparse-term kernel: insertion order never shows, products agree
with their reference paths, and reports keep their bytes."""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from weylmod.cli import main
from weylmod.tensorop import TensorOperator
from weylmod.terms import accumulate
from weylmod.ugl import (
    UglElement,
    _gen_key,
    _normalize_seq,
    _seq_from_mono,
    pbw_product,
)
from weylmod.weightmod import FVector, PVector, WeightModuleP, make_wedge_module
from weylmod.weyl import WeylElement

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("n", [2, 3])
def test_verify_all_report_bytes(capsys, n):
    # generated before terms were stored in production order
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
    pvec = {k: random_coeff(rng) for k in keys}
    fvec = {(k, rng.randrange(M.dim)): random_coeff(rng) for k in keys}
    return [
        (lambda t: WeylElement(n, t, laurent=True), weyl),
        (lambda t: UglElement(n, t), ugl),
        (lambda t: TensorOperator(n, t, laurent=True), tens),
        (lambda t: PVector(P, t), pvec),
        (lambda t: FVector(P, M, t), fvec),
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


def test_pbw_product_matches_word_rewriting():
    rng = random.Random(43)
    for n in (2, 3):
        for _ in range(200):
            m1 = random_pbw_monomial(rng, n)
            m2 = random_pbw_monomial(rng, n)
            word = _seq_from_mono(m1) + _seq_from_mono(m2)
            assert pbw_product(m1, m2) == _normalize_seq(word)


def test_tensor_product_is_associative():
    rng = random.Random(47)
    for n, laurent in itertools.product((2, 3), (False, True)):
        for _ in range(4):
            a, b, c = (random_tensor(rng, n, 2, laurent) for _ in range(3))
            assert (a * b) * c == a * (b * c)
