"""Sparse term maps: the one data structure behind every algebra element.

A term map sends hashable monomials to nonzero exact coefficients.  The
element classes (Weyl algebra, U(gl_n), tensor operators, the two kinds of
module vector, and the parser's unbound vector literal) derive from
``TermMap`` and keep only what is their own: their context fields, the
per-term validation in ``__init__``, a sort key, and their product or
action.

Terms are stored in the order they were produced.  Dict equality ignores
that order, so the canonical order is imposed only where text leaves the
program: ``__str__``, ``__repr__`` and ``to_json_obj`` iterate
``sorted_items()``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .errors import StructureError

SCALARS = (int, Fraction)


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


class TermMap:
    """Immutable sparse map from monomials to nonzero exact coefficients.

    Subclasses provide ``_context()`` (the fields two operands must share,
    also compared by ``==``) and ``_like(terms, other)`` (a new element in
    the context of self, joined with that of ``other`` when given).
    """

    __slots__ = ("terms",)

    # orders (key, coeff) items for output; keys are unique, so by key
    _sort_key = staticmethod(itemgetter(0))

    def _set(self, terms: dict, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _context(self) -> tuple:
        raise NotImplementedError

    def _like(self, terms: dict, other=None):
        raise NotImplementedError

    def _check_same(self, other) -> None:
        if self._context() != other._context():
            raise StructureError(
                f"{type(self).__name__} operands do not match: "
                f"{self._context()} vs {other._context()}"
            )

    def sorted_items(self):
        """The (monomial, coefficient) pairs in canonical order."""
        return sorted(self.terms.items(), key=self._sort_key)

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
        return self._like({k: c * scalar for k, c in self.terms.items()})

    def __mul__(self, scalar):
        if not isinstance(scalar, SCALARS):
            return NotImplemented
        return self._scale(scalar)

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
