"""Text grammar for algebra elements and module vectors.

Tokens: ``t[i]``, ``d[i]`` (derivative), ``E[i,j]``, ``L[i,j;(a1,...,an)]``,
wedge labels ``e[i1]^...^e[ir]``, integer and rational literals, ``+ - * ^``,
parentheses, and the tensor separator ``(x)``.  ``^`` joins two wedge atoms
and otherwise raises to an integer power; negative powers are allowed on
single t monomials only (Laurent keys).

Values evaluate to a Fraction, a WeylElement, a UglElement, a
TensorOperator (Weyl part tensor U(gl) part), or an unbound module-vector
literal that a command later binds to concrete modules.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ArgumentError, StructureError
from .indices import mi_zero
from .tensorop import TensorOperator, tensor
from .terms import TermMap, power_text
from .ugl import E as ugl_E, UglElement
from .vectorfields import L_op, VectorField
from .weightmod import FVector, SLModule, WeightModuleP, make_wedge_module, wedge_insert
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
                out.append(("number", Fraction(m.group("number")), pos))
            else:
                out.append(("op", m.group("op"), pos))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class Wedge:
    """An intermediate wedge-label value with a sign."""

    __slots__ = ("sign", "labels")

    def __init__(self, sign: int, labels: tuple):
        self.sign = sign
        self.labels = labels

    def join(self, other: "Wedge") -> "Wedge":
        # self wedge other = e_a1 wedge (e_a2 wedge (... wedge other))
        sign = self.sign * other.sign
        label = other.labels
        for x in reversed(self.labels):
            hit = wedge_insert(x, label)
            if hit is None:
                return Wedge(0, ())
            s, label = hit
            sign *= s
        return Wedge(sign, label)


class VectorLiteral(TermMap):
    """Unbound module vector: {(key tuple, wedge tuple): coeff}."""

    __slots__ = ("rank",)

    _fields = ("rank",)

    def __init__(self, rank: int, terms):
        self._set({k: c for k, c in terms.items() if c != 0}, rank=rank)

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

    def _text(self, mono) -> str:
        # the unit key is empty text, so a constant prints as its
        # coefficient; beside a wedge label it stays 1, as in 1 (x) e[1]
        key, wedge = mono
        body = "*".join(power_text("t", key))
        if wedge:
            body = f"{body or 1} (x) " + "^".join(f"e[{x}]" for x in wedge)
        return body


def format_vector(v: FVector) -> str:
    """Grammar-form text for a module vector over an exterior power."""
    lit = VectorLiteral(
        v.module_p.rank,
        {
            (key, tuple(v.module_m.labels[midx])): c
            for (key, midx), c in v.terms.items()
        },
    )
    return str(lit)


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

    # precedence: sum < tensor < product < unary < power < atom
    def parse_sum(self):
        value = self.parse_tensor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.parse_tensor()
                value = _add(value, rhs, 1 if val == "+" else -1)
            else:
                return value

    def parse_tensor(self):
        value = self.parse_product()
        while self.peek()[0] == "tensor":
            self.next()
            rhs = self.parse_product()
            value = _tensor_join(value, rhs, self.rank)
        return value

    def parse_product(self):
        value = self.parse_unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                value = _mul(value, self.parse_unary())
            else:
                return value

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
            # wedge ^ wedge joins labels; anything else needs an integer
            nxt = self.peek()
            if isinstance(base, Wedge) and nxt[0] == "gen" and nxt[1][0] == "e":
                rhs = self.parse_power()
                if not isinstance(rhs, Wedge):
                    raise ParseError("wedge label expected after ^", pos)
                return base.join(rhs)
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
            inner = self.parse_sum()
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
                _check_index(i, n, pos)
                return t(i, n) if name == "t" else d(i, n)
            if name == "E":
                i, j = (int(p) for p in args.split(","))
                _check_index(i, n, pos)
                _check_index(j, n, pos)
                return ugl_E(i, j, n)
            if name == "e":
                i = int(args)
                _check_index(i, n, pos)
                return Wedge(1, (i,))
            if name == "L":
                head, alpha_text = args.split(";")
                i, j = (int(p) for p in head.split(","))
                alpha = tuple(
                    int(p) for p in alpha_text.strip().strip("()").split(",")
                )
                if len(alpha) != n:
                    raise ParseError(
                        f"alpha has rank {len(alpha)}, expected {n}", pos
                    )
                _check_index(i, n, pos)
                _check_index(j, n, pos)
                return L_op(i, j, alpha, laurent=True).element.demote()
        except (ValueError, ArgumentError) as exc:
            raise ParseError(str(exc), pos) from exc
        raise ParseError(f"unknown generator {name!r}", pos)


def _check_index(i, n, pos):
    if not 1 <= i <= n:
        raise ParseError(f"index {i} out of range 1..{n}", pos)


def _wedge_to_literal(w: Wedge, rank: int) -> VectorLiteral:
    if w.sign == 0:
        return VectorLiteral(rank, {})
    return VectorLiteral(rank, {(mi_zero(rank), w.labels): w.sign})


def _weyl_to_literal(a: WeylElement, rank: int) -> VectorLiteral:
    terms = {}
    for (t_exp, d_exp), c in a.terms.items():
        if any(d_exp):
            raise StructureError("module vectors cannot contain derivatives")
        terms[(t_exp, ())] = c
    return VectorLiteral(rank, terms)


def _coerce_literal(v, rank: int) -> VectorLiteral:
    if isinstance(v, VectorLiteral):
        return v
    if isinstance(v, Wedge):
        return _wedge_to_literal(v, rank)
    if isinstance(v, WeylElement):
        return _weyl_to_literal(v, rank)
    if isinstance(v, (int, Fraction)):
        return _weyl_to_literal(WeylElement.one(rank) * v, rank)
    raise StructureError(f"cannot treat {type(v).__name__} as a module vector")


def _add(a, b, sign: int):
    if isinstance(a, (int, Fraction)) and isinstance(b, (int, Fraction)):
        return a + sign * b
    if type(a) is type(b) and isinstance(a, TermMap):
        return a + b if sign == 1 else a - b
    if isinstance(a, (Wedge, VectorLiteral)) or isinstance(b, (Wedge, VectorLiteral)):
        rank = a.rank if isinstance(a, (VectorLiteral, WeylElement)) else getattr(
            b, "rank", None
        )
        if rank is None:
            raise StructureError("cannot add bare wedge labels")
        left, right = _coerce_literal(a, rank), _coerce_literal(b, rank)
        return left + right if sign == 1 else left - right
    # scalars widen to the structured side
    if isinstance(a, (int, Fraction)):
        return _add(_promote_scalar(a, b), b, sign)
    if isinstance(b, (int, Fraction)):
        return _add(a, _promote_scalar(b, a), sign)
    raise StructureError(
        f"cannot add {type(a).__name__} and {type(b).__name__}"
    )


def _promote_scalar(s, like):
    if isinstance(like, WeylElement):
        return WeylElement.one(like.rank) * s
    if isinstance(like, UglElement):
        return UglElement.one(like.rank) * s
    if isinstance(like, TensorOperator):
        return TensorOperator.one(like.rank) * s
    raise StructureError("cannot mix scalars with this value")


def _mul(a, b):
    if isinstance(a, (int, Fraction)):
        if isinstance(b, (int, Fraction)):
            return a * b
        if isinstance(b, Wedge):
            raise StructureError("scale wedge labels after tensoring")
        return b * a
    if isinstance(b, (int, Fraction)):
        return _mul(b, a)
    if isinstance(a, WeylElement) and isinstance(b, WeylElement):
        return a * b
    if isinstance(a, UglElement) and isinstance(b, UglElement):
        return a * b
    if isinstance(a, TensorOperator) and isinstance(b, TensorOperator):
        return a * b
    raise StructureError(
        f"cannot multiply {type(a).__name__} and {type(b).__name__}; "
        "use (x) to form tensors"
    )


def _power(base, k: int, pos: int):
    if isinstance(base, (int, Fraction)):
        return Fraction(base) ** k
    if isinstance(base, Wedge):
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
    # operator side: Weyl (x) U(gl)
    if isinstance(a, (int, Fraction)):
        a = WeylElement.one(rank) * a
    if isinstance(a, WeylElement) and isinstance(b, UglElement):
        return tensor(a, b)
    if isinstance(a, WeylElement) and isinstance(b, (int, Fraction)):
        return tensor(a, UglElement.one(a.rank) * b)
    # vector side: polynomial part (x) wedge label
    if isinstance(b, (Wedge, VectorLiteral)):
        left = _coerce_literal(a, rank)
        right = _coerce_literal(b, rank)
        terms = {}
        for (k1, w1), c1 in left.terms.items():
            if w1:
                raise StructureError("left tensor factor already has labels")
            for (k2, w2), c2 in right.terms.items():
                if any(k2):
                    raise StructureError("right tensor factor must be a label")
                key = (k1, w1 + w2)
                terms[key] = terms.get(key, 0) + c1 * c2
        return VectorLiteral(rank, terms)
    raise StructureError(
        f"cannot tensor {type(a).__name__} with {type(b).__name__}"
    )


def infer_rank(text: str) -> int:
    """Largest index mentioned; L alphas pin the rank exactly."""
    best = 0
    for kind, val, pos in tokenize(text):
        if kind != "gen":
            continue
        name, args = val
        if name == "L":
            alpha_text = args.split(";")[1]
            return len([p for p in alpha_text.strip().strip("()").split(",") if p])
        for piece in re.findall(r"-?\d+", args.split(";")[0]):
            best = max(best, int(piece))
    if best == 0:
        raise ArgumentError(f"cannot infer rank from {text!r}")
    return best


def parse_expr(text: str, n: int | None = None):
    """Parse an expression; returns a Fraction, WeylElement, UglElement,
    TensorOperator, or VectorLiteral."""
    if n is None:
        n = infer_rank(text)
    parser = _Parser(tokenize(text), n)
    value = parser.parse_sum()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("trailing input", pos)
    if isinstance(value, Wedge):
        value = _wedge_to_literal(value, n)
    return value


def parse_vector_field(text: str, n: int | None = None) -> VectorField:
    value = parse_expr(text, n)
    if not isinstance(value, WeylElement):
        raise ArgumentError("expression is not a vector field")
    return VectorField(value)
