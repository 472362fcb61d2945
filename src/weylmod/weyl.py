"""The Weyl algebra in n variables with normal-ordered sparse elements.

An element is a finite sum of monomials t^beta * d^gamma (all t factors to
the left of all derivative factors) with exact rational coefficients.
``laurent=True`` admits negative t exponents; derivative exponents are always
nonnegative.  Values are immutable once built (see ``weylmod.terms``): every
operation allocates a fresh element, so sharing across threads is safe.
"""

from __future__ import annotations

import itertools
from math import comb
from operator import add, sub

from .errors import DomainError, StructureError
from .indices import check_integer_exponents, falling, mi_unit, mi_zero
from .memo import bounded
from .terms import Poly, TermMap, _new, _set_terms, accumulate, check_coefficient, power_text


def _d_on_t(gamma, beta):
    """Normal ordering of d^gamma * t^beta.

    Returns a tuple of (coeff, k) with k componentwise <= gamma so that

        d^gamma t^beta = sum coeff * t^(beta-k) d^(gamma-k).

    The first pair is always (1, 0).  gamma = 0 is the identity; every
    other pair is read from a table built once per (gamma, beta).  Entries
    of beta may be ``terms.Poly`` symbols: the coefficients are then
    polynomials in them, exact at every integer value (see
    ``_coord_choices``).
    """
    if not any(gamma):
        return ((1, gamma),)
    return _normal_order_table(gamma, beta)


@bounded(4096)
def _normal_order_table(gamma, beta):
    """The (coeff, k) expansion of d^gamma t^beta for gamma != 0.

    Expanding by the closed product formula (binomials times falling
    factorials per coordinate) instead of one-step rewriting keeps
    intermediate results linear in the output size.
    """
    out = []
    for combo in itertools.product(*map(_coord_choices, gamma, beta)):
        coeff = 1
        for _, c in combo:
            coeff *= c
        out.append((coeff, tuple(k for k, _ in combo)))
    return tuple(out)


@bounded(512)
def _coord_choices(g, b):
    """The (k, comb(g, k) * falling(b, k)) pairs of d^g t^b in one
    coordinate, zeros left out.  A ``Poly`` b keeps every k <= g: its
    falling factorial is a nonzero polynomial, which vanishes at an integer
    exactly where an int b leaves k out (0 <= b < k)."""
    top = g if isinstance(b, Poly) or b < 0 else min(g, b)
    choices = ((k, comb(g, k) * falling(b, k)) for k in range(top + 1))
    return tuple((k, c) for k, c in choices if c != 0)


def _monomial_product(m1, m2):
    """The normal-ordered (monomial, coeff) pairs of the product of the
    monomials m1 = t^b1 d^g1 and m2 = t^b2 d^g2: the one product rule of
    the library.  d^g1 t^b2 is expanded by ``_d_on_t``, and every term
    keeps the outer t^b1 and d^g2.  The first pair is the k = 0 term
    t^(b1+b2) d^(g1+g2) with coeff 1, built without a subtraction."""
    (b1, g1), (b2, g2) = m1, m2
    t_sum = tuple(map(add, b1, b2))
    d_sum = tuple(map(add, g1, g2))
    return [((t_sum, d_sum), 1)] + [
        ((tuple(map(sub, t_sum, k)), tuple(map(sub, d_sum, k))), coeff)
        for coeff, k in _d_on_t(g1, b2)[1:]
    ]


def _check_key(mono, rank: int, laurent) -> bool:
    """The check of one Weyl monomial (t_exp, d_exp) of outside input:
    exponents of length rank, all ints, no negative d exponent, and no
    negative t exponent in polynomial mode.  Returns the mode: ``laurent``,
    or when it is None, whether some t exponent is negative."""
    t_exp, d_exp = mono
    if len(t_exp) != rank or len(d_exp) != rank:
        raise StructureError("monomial rank does not match element rank")
    check_integer_exponents(t_exp)
    check_integer_exponents(d_exp)
    if any(g < 0 for g in d_exp):
        raise StructureError(f"negative derivative exponent in {d_exp}")
    negative = any(b < 0 for b in t_exp)
    if laurent is None:
        return negative
    if negative and not laurent:
        raise StructureError(f"negative t exponent {t_exp} in polynomial mode")
    return laurent


class WeylTerms(TermMap):
    """Term map of a rank whose keys carry a Weyl monomial (tExp, dExp),
    read off by ``_weyl`` and checked by ``_check_key``, both of a bare
    monomial unless overridden: the base of ``WeylElement`` and
    ``tensorop.TensorOperator``, which define ``_monomial_product`` (``*``
    and ``**`` are ``TermMap``'s), and of ``vectorfields.VectorField``,
    which only scales.
    ``laurent=True`` admits negative t exponents; the mode flag is
    bookkeeping, left out of ``_fields`` (and so of ``==``), and a sum or
    product is Laurent when either operand is.
    """

    __slots__ = ("rank", "laurent")

    _fields = ("rank",)

    @staticmethod
    def _weyl(key):
        return key

    _check_key = staticmethod(_check_key)

    def __init__(self, rank: int, terms=None, laurent: bool = False):
        """Checks outside input by ``_checked_terms`` and ``_check_key``."""
        # a None mode is polynomial here; to _check_key it means "read it off"
        laurent = bool(laurent)
        cleaned = self._checked_terms(terms, rank, laurent)
        self._freeze(terms=cleaned, rank=rank, laurent=laurent)

    @classmethod
    def _from_kernel(cls, terms: dict, rank: int, laurent: bool):
        """Adopts a kernel-built map, as ``terms.RankTerms._from_kernel``."""
        element = _new(cls)
        _set_terms(element, terms)
        _set_rank(element, rank)
        _set_laurent(element, laurent)
        return element

    def _like(self, terms, other=None):
        laurent = self.laurent or (other is not None and other.laurent)
        return self._from_kernel(terms, rank=self.rank, laurent=laurent)

    @property
    def mode(self) -> str:
        return "laurent" if self.laurent else "polynomial"

    @classmethod
    def zero(cls, rank: int, laurent: bool = False):
        return cls._from_kernel({}, rank=rank, laurent=laurent)

    def demote(self):
        """Polynomial-mode copy when every t exponent allows it, else self."""
        if not self.laurent:
            return self
        if all(b >= 0 for key in self.terms for b in self._weyl(key)[0]):
            return self._from_kernel(self.terms, rank=self.rank, laurent=False)
        return self

    def to_json_obj(self):
        return {
            "rank": self.rank,
            "mode": self.mode,
            "terms": self._json_terms(self._json_fields),
        }


_set_rank = WeylTerms.rank.__set__
_set_laurent = WeylTerms.laurent.__set__


def _checked_monomial(cls, t_exp: tuple, d_exp: tuple, coeff, laurent):
    """coeff * t^t_exp d^d_exp as an element of the Weyl term map class
    ``cls``: its coefficient and its one key checked as ``_checked_terms``
    checks each, then adopted.  The mode, when ``laurent`` is None, is
    Laurent exactly when some t exponent is negative."""
    check_coefficient(coeff)
    laurent = _check_key((t_exp, d_exp), len(t_exp), laurent)
    terms = {(t_exp, d_exp): coeff} if coeff else {}
    return cls._from_kernel(terms, rank=len(t_exp), laurent=laurent)


class WeylElement(WeylTerms):
    """Sparse normal-ordered element of the (Laurent) Weyl algebra.

    Terms map (tExp, dExp) pairs to coefficients; text and JSON list them
    lexicographically on (tExp, dExp), so serialization is deterministic.
    """

    __slots__ = ()

    # perfbench's tracer wraps these two in each class's own namespace
    __init__ = WeylTerms.__init__
    __mul__ = TermMap.__mul__

    _monomial_product = staticmethod(_monomial_product)

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls, rank: int, laurent: bool = False) -> WeylElement:
        z = mi_zero(rank)
        return cls(rank, {(z, z): 1}, laurent)

    @classmethod
    def monomial(cls, t_exp, d_exp, coeff=1, laurent=None) -> WeylElement:
        """coeff * t^t_exp d^d_exp, checked once (``_checked_monomial``)."""
        return _checked_monomial(cls, tuple(t_exp), tuple(d_exp), coeff, laurent)

    # -- queries ------------------------------------------------------------

    def d_degrees(self):
        return [sum(d_exp) for _, d_exp in self.terms]

    # -- formatting ---------------------------------------------------------

    @staticmethod
    def _text(mono) -> str:
        t_exp, d_exp = mono
        return "*".join(power_text("t", t_exp) + power_text("d", d_exp))

    @staticmethod
    def _json_fields(mono) -> dict:
        return {"tExp": list(mono[0]), "dExp": list(mono[1])}


def t(i: int, n: int) -> WeylElement:
    """The generator t_i, 1-based."""
    return WeylElement._from_kernel({(mi_unit(i, n), mi_zero(n)): 1}, rank=n, laurent=False)


def d(i: int, n: int) -> WeylElement:
    """The derivative generator, 1-based."""
    return WeylElement._from_kernel({(mi_zero(n), mi_unit(i, n)): 1}, rank=n, laurent=False)


def fourier(a: WeylElement) -> WeylElement:
    """Algebra automorphism with t_i -> d_i and d_i -> -t_i.

    Extended multiplicatively on monomials and re-normal-ordered, so
    fourier(a*b) == fourier(a)*fourier(b) and the fourth power is the
    identity.
    """
    if a.laurent:
        raise DomainError("fourier is defined on polynomial-mode elements")

    zero = mi_zero(a.rank)

    def images():
        for (beta, gamma), c in a.terms.items():
            base = c * (-1 if sum(gamma) % 2 else 1)
            # the image of the monomial is (+/-) d^beta t^gamma
            for mono, coeff in _monomial_product((zero, beta), (gamma, zero)):
                yield mono, base * coeff

    return WeylElement._from_kernel(accumulate({}, images()), rank=a.rank, laurent=False)
