"""Sparse term maps: the one data structure behind every algebra element.

A term map sends hashable monomials to nonzero exact coefficients.  The
element classes (Weyl algebra, vector fields, U(gl_n), tensor operators,
the module vector of F(P, M), and the parser's unbound vector literal)
derive from ``TermMap`` and keep only what is their own: their context fields
(``_fields``), the check of one key, a sort key, the text of one monomial,
and their product or action.  A weight module P has no vector class of its
own: it is F(P, wedge^0).

Every term map has one adoption rule.  ``__init__`` checks outside input
by ``TermMap._checked_terms``, the one loop over it, each key by the check
that its class states once as ``_check_key`` (of a Weyl monomial, a PBW
monomial, both, or a label of F(P, M)).  ``_from_kernel`` adopts a map
that a kernel of this library built (an operation on valid operands, an
action, a template evaluation), valid by construction, without calling
``__init__``.  There is one ``_from_kernel`` per slot layout, its slots
named parameters set through their member descriptors: ``RankTerms``
(rank), ``weyl.WeylTerms`` (rank, mode) and ``weightmod.FVector`` (the
two modules); about 0.5 µs an adoption, half the cost of a keyword loop
over the slots (``BENCH_named_slots.json``).  ``_like``, copy and pickle
adopt through it.  A term map, like every library value that keys or
fills a memo, is a ``Frozen``: its slots are set once, never rebound.

``Poly`` is the one coefficient that is not a number: an exact polynomial
in the symbols of a multi-index, for products built once over a symbolic
exponent and evaluated per exponent.

Terms are stored in the order they were produced.  Dict equality ignores
that order, so the canonical order is imposed only where text leaves the
program: the one text writer ``TermMap.__repr__`` and the one JSON term
writer ``TermMap._json_terms`` iterate ``sorted_items()``, and take the text
of each coefficient from ``coefficient_text``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from operator import add, itemgetter

from .errors import ArgumentError, DomainError, StructureError

SCALARS = (int, Fraction)

# bound once: an adoption makes a bare instance and sets each slot through
# its member descriptor (``_set_terms`` and the setters after each layout);
# ``_freeze`` sets slots by name
_new = object.__new__
_set_slot = object.__setattr__


def check_coefficient(coeff) -> None:
    """Refuse a coefficient of outside input that is not an int or a
    Fraction (a float, a str, a bool): exact stays exact."""
    if type(coeff) is bool or not isinstance(coeff, SCALARS):
        raise ArgumentError(f"coefficient {coeff!r} is not an int or a Fraction")


def coefficient_text(coeff) -> str:
    """The text of one coefficient, for every text writer: past the
    int-string limit, which ``cli.main`` lifts, a ``StructureError``."""
    try:
        return str(coeff)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise StructureError(f"coefficient past the int-string limit of {limit} digits") from None


def accumulate(out: dict, pairs) -> dict:
    """Add every (key, coeff) pair into ``out``, dropping keys that cancel.

    Feed a whole batch (typically a generator over a full product) in one
    call; a call per term costs more than the additions it performs.
    """
    get = out.get
    for key, coeff in pairs:
        old = get(key)
        if old is None:
            # storing coeff itself skips the slow int + Fraction addition
            if coeff:
                out[key] = coeff
        else:
            new = old + coeff
            if new:
                out[key] = new
            else:
                del out[key]
    return out


def pair_terms(a: dict, b: dict, rule):
    """The (monomial, coeff) pairs of the product of the term maps a and b,
    before collection: the one loop over every pair of their terms.  For
    each (m1, c1) of a, then each (m2, c2) of b, each (mono, c) of
    ``rule(m1, m2)`` gives (mono, c1 * c2 * c), in that order."""
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            base = c1 * c2
            for mono, c in rule(m1, m2):
                yield mono, base * c


def power_text(name: str, exps) -> list:
    """The factors ``name[i]^e`` of a multi-index (1-based), zero exponents
    left out and an exponent of 1 not written."""
    return [
        f"{name}[{i}]" if e == 1 else f"{name}[{i}]^{e}"
        for i, e in enumerate(exps, 1)
        if e
    ]


class Frozen:
    """Base of the library's values: each sets its slots through ``_freeze``
    (in ``__init__``, or a lazily built one on first use) and refuses every
    other rebinding or deletion."""

    __slots__ = ()

    def _freeze(self, **fields) -> None:
        for name, value in fields.items():
            _set_slot(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class TermMap(Frozen):
    """Immutable sparse map from monomials to nonzero exact coefficients.

    Subclasses declare ``_fields``, the names of the fields two operands
    must share (their values, ``_context()``, are also compared by ``==``),
    and provide ``_text(mono)`` (the text of one monomial, empty for the
    unit).  Each slot layout defines the one adoption constructor
    ``_from_kernel(terms, *slots)``, its parameters in the order of the
    layout's ``__slots__``.  ``_like`` adopts the collected map of an
    operation on valid operands through it, without calling ``__init__``,
    which checks outside input.  A class with a product defines its monomial
    rule ``_monomial_product(m1, m2)``, the (monomial, coeff) pairs of
    m1 * m2, and its unit ``one(*context)``; ``*`` and ``**`` are then the
    ones below, every pair of terms multiplied by ``pair_terms``.
    """

    __slots__ = ("terms",)

    _fields = ()

    # orders (key, coeff) items for output; keys are unique, so by key
    _sort_key = staticmethod(itemgetter(0))

    def __reduce__(self):
        """Copy and pickle by adoption, through the class's ``_from_kernel``:
        the map and every other slot, fields or not (``WeylTerms.laurent``
        is no field), in the order of its parameters."""
        names = [n for klass in type(self).__mro__ for n in getattr(klass, "__slots__", ())]
        slots = tuple(getattr(self, n) for n in names if n != "terms")
        return type(self)._from_kernel, (self.terms, *slots)

    def _context(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def _checked_terms(self, terms, *context) -> dict:
        """Outside input ``terms``, checked by the one loop over such input:
        each coefficient by ``check_coefficient``, each key, also under a
        zero coefficient, by ``_check_key(key, *context)``; zeros dropped."""
        cleaned = {}
        for key, coeff in (terms or {}).items():
            check_coefficient(coeff)
            self._check_key(key, *context)
            if coeff:
                cleaned[key] = coeff
        return cleaned

    def _like(self, terms: dict, other=None):
        """A new element with the fields of self over ``terms``, the
        collected map of an operation with ``other``, adopted as it is."""
        return self._from_kernel(terms, *self._context())

    def _check_same(self, other) -> None:
        if type(other) is not type(self):
            raise StructureError(
                f"cannot combine {type(self).__name__} with {type(other).__name__}"
            )
        if self._context() != other._context():
            raise StructureError(
                f"{type(self).__name__} operands do not match: "
                f"{self._context()} vs {other._context()}"
            )

    def _text(self, mono) -> str:
        raise NotImplementedError

    def sorted_items(self):
        """The (monomial, coefficient) pairs in canonical order."""
        return sorted(self.terms.items(), key=self._sort_key)

    def __repr__(self) -> str:
        """The terms in canonical order: the coefficient alone for the unit
        monomial, the monomial bare for 1 and negated for -1, else
        ``c*monomial``; ``str`` falls through to this."""
        parts = []
        for mono, c in self.sorted_items():
            text = self._text(mono)
            if text and c in (1, -1):
                parts.append(text if c == 1 else f"-{text}")
            else:
                coeff = coefficient_text(c)
                parts.append(f"{coeff}*{text}" if text else coeff)
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def _json_terms(self, fields) -> list:
        """The JSON term records in canonical order: the dict
        ``fields(mono)`` followed by the exact coefficient as a string."""
        return [
            {**fields(mono), "coeff": coefficient_text(c)}
            for mono, c in self.sorted_items()
        ]

    def __add__(self, other):
        self._check_same(other)
        return self._like(accumulate(dict(self.terms), other.terms.items()), other)

    def __sub__(self, other):
        self._check_same(other)
        negated = ((k, -c) for k, c in other.terms.items())
        return self._like(accumulate(dict(self.terms), negated), other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def _scale(self, scalar):
        # a nonzero scalar keeps every coefficient nonzero
        return self._like({k: c * scalar for k, c in self.terms.items()} if scalar else {})

    _monomial_product = None

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return self._scale(other)
        rule = self._monomial_product
        if rule is None:
            return NotImplemented
        self._check_same(other)
        return self._like(accumulate({}, pair_terms(self.terms, other.terms, rule)), other)

    def __pow__(self, k: int):
        """The k-fold product, from the class's unit ``one`` in the fields
        of self; a class without a product has no powers."""
        if self._monomial_product is None:
            return NotImplemented
        if k < 0:
            raise DomainError("negative powers are not defined")
        out = self._like(self.one(*self._context()).terms)
        for _ in range(k):
            out = out * self
        return out

    def __rmul__(self, scalar):
        if not isinstance(scalar, SCALARS):
            return NotImplemented
        return self * scalar

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._context() == other._context() and self.terms == other.terms

    __hash__ = None

    def is_zero(self) -> bool:
        return not self.terms


_set_terms = TermMap.terms.__set__


class RankTerms(TermMap):
    """Term map over a rank alone: the slot layout of ``ugl.UglElement``
    and of the parser's ``VectorLiteral``."""

    __slots__ = ("rank",)

    _fields = ("rank",)

    @classmethod
    def _from_kernel(cls, terms: dict, rank: int):
        """The element over ``terms`` that a kernel of this library built:
        valid by construction, so it is adopted as it is, without
        ``__init__``."""
        element = _new(cls)
        _set_terms(element, terms)
        _set_rank(element, rank)
        return element


_set_rank = RankTerms.rank.__set__


class Poly(Frozen):
    """Exact polynomial in the symbols a_1..a_n, as a coefficient.

    Terms map exponent tuples (one entry per symbol) to nonzero int or
    Fraction coefficients.  Every operation hands back a plain scalar when
    its result is constant, so a ``Poly`` is never constant: it is truthy
    and equals no scalar, and ``accumulate`` drops it only once it cancels
    to the scalar 0.  It hashes on its terms, so a symbolic exponent tuple
    can key a term map.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms: dict):
        self._freeze(terms=terms, _hash=hash(frozenset(terms.items())))

    def __reduce__(self):
        # through the constructor, which rebuilds the hash in any process
        return Poly, (self.terms,)

    @staticmethod
    def symbols(n: int) -> tuple:
        """The symbols (a_1, ..., a_n)."""
        return tuple(Poly({tuple(int(k == s) for k in range(n)): 1}) for s in range(n))

    def _items(self, other):
        if isinstance(other, Poly):
            return other.terms.items()
        if isinstance(other, SCALARS):
            return (((0,) * len(next(iter(self.terms))), other),)
        return None

    def __add__(self, other):
        if other == 0:
            return self
        items = self._items(other)
        if items is None:
            return NotImplemented
        return _collected(accumulate(dict(self.terms), items))

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, SCALARS):
            return Poly({e: c * other for e, c in self.terms.items()}) if other else 0
        if not isinstance(other, Poly):
            return NotImplemented
        pairs = pair_terms(self.terms, other.terms, lambda e1, e2: ((tuple(map(add, e1, e2)), 1),))
        return _collected(accumulate({}, pairs))

    __rmul__ = __mul__

    def __truediv__(self, den: int):
        if type(den) is not int:
            return NotImplemented
        quotients = ((e, Fraction(c, den)) for e, c in self.terms.items())
        return Poly({e: q.numerator if q.denominator == 1 else q for e, q in quotients})

    def at_last(self, value):
        """The polynomial with its last symbol set to the int value, a ring
        map: a Poly in the other symbols, or a scalar when constant."""
        pairs = ((e[:-1] + (0,), c * value ** e[-1]) for e, c in self.terms.items())
        return _collected(accumulate({}, pairs))

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.terms == other.terms
        return False if isinstance(other, SCALARS) else NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        parts = []
        for exps, c in sorted(self.terms.items()):
            factors = [f"a{s}^{e}" if e > 1 else f"a{s}" for s, e in enumerate(exps, 1) if e]
            if c != 1 or not factors:
                factors.insert(0, coefficient_text(c))
            parts.append("*".join(factors))
        return f"Poly({' + '.join(parts)})"


def _collected(terms: dict):
    """A collected term map as a Poly, or as a scalar when it is constant."""
    if not terms:
        return 0
    if len(terms) == 1:
        ((exps, c),) = terms.items()
        if not any(exps):
            return c
    return Poly(terms)
