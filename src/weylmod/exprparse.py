"""Text grammar for algebra elements and module vectors.

Tokens: ``t[i]``, ``d[i]`` (derivative), ``E[i,j]``, ``L[i,j;(a1,...,an)]``,
wedge labels ``e[i]``, integer and rational literals, ``+ - * ^``,
parentheses, and the tensor separator ``(x)``.  A wedge label is a module
vector at the unit key, so scalar multiples and sums of labels are vectors
too.  ``^`` joins two vectors of bare labels, bilinearly, and otherwise
raises to an integer power; negative powers are allowed on single t
monomials only (Laurent keys).

Every value is a scalar (int or Fraction) or a term map: a WeylElement, a
UglElement, a TensorOperator (Weyl part tensor U(gl) part), or an unbound
module-vector literal that a command later binds to concrete modules.  Sums
and products are the term maps' own ``+``, ``-`` and ``*``, on operands
promoted by one rule, ``_lift``.  Every value prints in this grammar.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import partial

from .errors import ArgumentError, StructureError
from .indices import check_index, mi_zero
from .tensorop import TensorOperator, from_weyl, tensor
from .terms import SCALARS, RankTerms, accumulate, pair_terms
from .ugl import E as ugl_E, UglElement
from .vectorfields import L_op
from .weightmod import (
    FVector, SLModule, WeightModuleP, make_wedge_module, vector_text, wedge_insert,
)
from .weyl import WeylElement, d, t


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<tensor>\(x\))
  | (?P<gen>[tdeEL])\[(?P<args>[^\]]*)\]
  | (?P<number>\d+(?:/\d+)?)
  | (?P<op>[-+*^()])
    """,
    re.VERBOSE,
)

# the argument form of each generator, named when its arguments are malformed
_FORMS = {"t": "t[i]", "d": "d[i]", "e": "e[i]", "E": "E[i,j]", "L": "L[i,j;(a1,...,an)]"}


def tokenize(text: str):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            if m.group("gen"):
                out.append(("gen", (m.group("gen"), m.group("args")), pos))
            elif m.group("tensor"):
                out.append(("tensor", "(x)", pos))
            elif m.group("number"):
                try:
                    out.append(("number", Fraction(m.group("number")), pos))
                except ZeroDivisionError:
                    raise ParseError("zero denominator", pos) from None
                except ValueError:
                    # only past the interpreter's int-string limit, which
                    # exists wherever this can raise (cli.main lifts it)
                    limit = sys.get_int_max_str_digits()
                    raise ParseError(
                        f"literal longer than the int-string limit of {limit} digits", pos
                    ) from None
            else:
                out.append(("op", m.group("op"), pos))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class VectorLiteral(RankTerms):
    """Unbound module vector: {(key tuple, wedge tuple): coeff}."""

    __slots__ = ()

    def __init__(self, rank: int, terms):
        self._freeze(terms={k: c for k, c in terms.items() if c != 0}, rank=rank)

    def bind(self, module_p: WeightModuleP, module_m: SLModule | None = None) -> FVector:
        """Attach the literal to concrete modules, validating support."""
        if module_p.rank != self.rank:
            raise StructureError(
                f"vector has rank {self.rank}, module has rank {module_p.rank}"
            )
        degrees = {len(w) for _, w in self.terms} or {0}
        if len(degrees) != 1:
            raise StructureError("mixed wedge degrees in one vector")
        (deg,) = degrees
        if module_m is None:
            module_m = make_wedge_module(self.rank, deg)
        index = {lab: pos for pos, lab in enumerate(module_m.labels)}
        terms = {}
        for (key, wedge), c in self.terms.items():
            if wedge not in index:
                raise StructureError(f"label {wedge} is not a basis label")
            terms[(key, index[wedge])] = c
        return FVector(module_p, module_m, terms)

    @classmethod
    def one(cls, rank: int) -> VectorLiteral:
        return cls(rank, {(mi_zero(rank), ()): 1})

    def _text(self, mono) -> str:
        return vector_text(*mono)


class _Parser:
    def __init__(self, tokens, rank: int):
        self.tokens = tokens
        self.pos = 0
        self.rank = rank

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    # precedence: the binary levels of _BINARY, loosest first, then unary <
    # power < atom
    def parse_binary(self, level: int = 0):
        """One binary level: a left-associative chain over operands of the
        next level, unary ones at the last."""
        if level == len(_BINARY) - 1:
            operand = self.parse_unary
        else:
            operand = partial(self.parse_binary, level + 1)
        joins = _BINARY[level]
        value = operand()
        while True:
            # only op and tensor tokens carry text
            join = joins.get(self.peek()[1])
            if join is None:
                return value
            self.next()
            value = join(value, operand(), self.rank)

    def parse_unary(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return _mul(Fraction(-1), self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            # a vector ^ e[...] joins wedge labels; anything else needs an
            # integer
            nxt = self.peek()
            if isinstance(base, VectorLiteral) and nxt[0] == "gen" and nxt[1][0] == "e":
                return _wedge(base, self.parse_power())
            negative = False
            if nxt[0] == "op" and nxt[1] == "-":
                self.next()
                negative = True
                nxt = self.peek()
            if nxt[0] != "number" or nxt[1].denominator != 1:
                raise ParseError("integer exponent expected", pos)
            self.next()
            k = int(nxt[1]) * (-1 if negative else 1)
            return _power(base, k, pos)
        return base

    def parse_atom(self):
        kind, val, pos = self.next()
        if kind == "number":
            return val
        if kind == "op" and val == "(":
            inner = self.parse_binary()
            self.expect_op(")")
            return inner
        if kind == "gen":
            name, args = val
            return self._generator(name, args, pos)
        raise ParseError("unexpected token", pos)

    def _generator(self, name, args, pos):
        n = self.rank
        try:
            if name in ("t", "d"):
                i = int(args)
                return t(i, n) if name == "t" else d(i, n)
            if name == "E":
                i, j = (int(p) for p in args.split(","))
                return ugl_E(i, j, n)
            if name == "e":
                i = int(args)
                check_index(i, n)
                return VectorLiteral(n, {(mi_zero(n), (i,)): 1})
            if name == "L":
                head, alpha_text = args.split(";")
                i, j = (int(p) for p in head.split(","))
                alpha = tuple(
                    int(p) for p in alpha_text.strip().strip("()").split(",")
                )
                if len(alpha) != n:
                    raise ArgumentError(f"alpha has rank {len(alpha)}, expected {n}")
                # the index names itself before L_op's "indices must differ"
                check_index(i, n)
                check_index(j, n)
                return L_op(i, j, alpha, laurent=True).element.demote()
        except ArgumentError as exc:
            raise ParseError(str(exc), pos) from exc
        except ValueError as exc:
            # int() or unpacking refused the arguments
            raise ParseError(f"malformed {name}[...], expected {_FORMS[name]}", pos) from exc
        raise ParseError(f"unknown generator {name!r}", pos)


def _lift(v, cls, rank: int):
    """v as a value of class cls, the one promotion of mixed operands: a
    scalar c is c times the unit of cls, and a Weyl element a is
    from_weyl(a) = a (x) 1 among operators and, without derivatives, a
    vector with no wedge labels.  A vector is made of nothing else, and
    any other value is returned as it is, for the operation to refuse."""
    if isinstance(v, SCALARS) and cls not in SCALARS:
        return cls.one(rank) * v
    if cls is TensorOperator and isinstance(v, WeylElement):
        return from_weyl(v)
    if cls is VectorLiteral and not isinstance(v, VectorLiteral):
        if not isinstance(v, WeylElement):
            raise StructureError(f"cannot treat {type(v).__name__} as a module vector")
        if any(any(d_exp) for _, d_exp in v.terms):
            raise StructureError("module vectors cannot contain derivatives")
        return VectorLiteral(rank, {(t_exp, ()): c for (t_exp, _), c in v.terms.items()})
    return v


def _wedge(a: VectorLiteral, b: VectorLiteral) -> VectorLiteral:
    """a ^ b for two vectors of bare wedge labels (every key the unit),
    term by term as e_a1 ^ (e_a2 ^ (... ^ label))."""
    for v in (a, b):
        if any(any(key) for key, _ in v.terms):
            raise StructureError("only bare wedge labels join with ^")
    return a._like(accumulate({}, pair_terms(a.terms, b.terms, _wedge_labels)))


def _wedge_labels(m1, m2):
    """The monomial rule of ``_wedge``: the labels of m1 inserted into that
    of m2, last first, with their signs; no term where a label repeats."""
    (key, wa), (_, label) = m1, m2
    sign = 1
    for x in reversed(wa):
        hit = wedge_insert(x, label)
        if hit is None:
            return ()
        s, label = hit
        sign *= s
    return (((key, label), sign),)


def _add(a, b, rank: int, sign: int = 1):
    """a + sign * b, both lifted to the first class present of: vector,
    operator, the other summand's class."""
    kinds = (type(a), type(b))
    other = type(b) if isinstance(a, SCALARS) else type(a)
    cls = next((c for c in (VectorLiteral, TensorOperator) if c in kinds), other)
    return _lift(a, cls, rank) + sign * _lift(b, cls, rank)


def _mul(a, b):
    if (isinstance(a, SCALARS) or isinstance(b, SCALARS)
            or (type(a) is type(b) and not isinstance(a, VectorLiteral))):
        return a * b
    raise StructureError(
        f"cannot multiply {type(a).__name__} and {type(b).__name__}; "
        "use (x) to form tensors"
    )


def _power(base, k: int, pos: int):
    if isinstance(base, SCALARS):
        if k < 0 and not base:
            raise ParseError("zero has no negative power", pos)
        return Fraction(base) ** k
    if isinstance(base, VectorLiteral):
        raise ParseError("wedge labels join with ^e[...], not powers", pos)
    if isinstance(base, WeylElement):
        if k >= 0:
            return base**k
        if len(base.terms) != 1:
            raise ParseError("negative powers need a single t monomial", pos)
        ((t_exp, d_exp), c) = next(iter(base.terms.items()))
        if any(d_exp):
            raise ParseError("cannot invert derivative factors", pos)
        return WeylElement.monomial(
            tuple(k * x for x in t_exp), d_exp, Fraction(c) ** k
        )
    if isinstance(base, UglElement):
        if k < 0:
            raise ParseError("negative powers are not defined here", pos)
        return base**k
    raise ParseError("cannot raise this value to a power", pos)


def _tensor_join(a, b, rank: int):
    # vector side: polynomial part (x) wedge labels
    if isinstance(b, VectorLiteral):
        left = _lift(a, VectorLiteral, rank)
        if any(w1 for _, w1 in left.terms):
            raise StructureError("left tensor factor already has labels")
        if any(any(k2) for k2, _ in b.terms):
            raise StructureError("right tensor factor must be a label")
        pairs = pair_terms(left.terms, b.terms, lambda m1, m2: (((m1[0], m2[1]), 1),))
        return VectorLiteral(rank, dict(pairs))
    # operator side: Weyl (x) U(gl)
    a = _lift(a, WeylElement, rank)
    if isinstance(a, WeylElement):
        b = _lift(b, UglElement, rank)
        if isinstance(b, UglElement):
            return tensor(a, b)
    raise StructureError(
        f"cannot tensor {type(a).__name__} with {type(b).__name__}"
    )


# the binary levels, loosest first (sum < tensor < product): each maps its
# operator tokens to the join of two operands, and the parser reads a level
# as a left-associative chain over the next
_BINARY = (
    {"+": _add, "-": partial(_add, sign=-1)},
    {"(x)": _tensor_join},
    {"*": lambda a, b, rank: _mul(a, b)},
)


def infer_rank(text: str) -> int:
    """Largest index mentioned; L alphas pin the rank exactly."""
    best = 0
    for kind, val, pos in tokenize(text):
        if kind != "gen":
            continue
        name, args = val
        head, semicolon, alpha_text = args.partition(";")
        if name == "L" and semicolon:
            return len([p for p in alpha_text.strip().strip("()").split(",") if p])
        for piece in re.findall(r"-?\d+", head):
            best = max(best, int(piece))
    if best == 0:
        raise ArgumentError(f"cannot infer rank from {text!r}")
    return best


def parse_expr(text: str, n: int | None = None):
    """Parse an expression; returns a Fraction, WeylElement, UglElement,
    TensorOperator, or VectorLiteral.  An expression nested deeper than the
    interpreter's recursion limit allows is a ``ParseError``."""
    if n is None:
        n = infer_rank(text)
    parser = _Parser(tokenize(text), n)
    try:
        value = parser.parse_binary()
    except RecursionError:
        raise ParseError("expression is nested too deeply", parser.peek()[2]) from None
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    return value

