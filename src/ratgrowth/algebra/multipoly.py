"""Sparse multivariate polynomials over an exact coefficient domain.

Terms live in a dict mapping exponent tuples to nonzero coefficients.
The global monomial order is graded reverse lexicographic with
x0 > x1 > ... ; it fixes printing, parsing round-trips and the ordering
of monomial bases.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import comb
from operator import mul

from .domains import CoeffDomain
from .fqpoly import _power
from .linalg import ExactMatrix, kernel_vector


def grevlex_key(exps: tuple[int, ...]):
    """Sort key; larger key = larger monomial in grevlex with x0 > x1 > ..."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _has_toplevel_sign(text: str) -> bool:
    """True when '+' or '-' occurs outside parentheses (printer helper:
    such coefficients need wrapping before '*monomial')."""
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            return True
    return False


class ParseError(ValueError):
    """Syntax or domain error in polynomial text, with a position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class MultiPoly:
    """Immutable sparse polynomial in nvars variables over a CoeffDomain."""

    __slots__ = ("domain", "nvars", "terms")

    def __init__(self, domain: CoeffDomain, nvars: int, terms) -> None:
        if nvars < 1:
            raise ValueError("nvars must be positive")
        clean: dict[tuple[int, ...], object] = {}
        for exps, coeff in dict(terms).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent vector {exps} for nvars={nvars}")
            c = domain.coerce(coeff)
            if domain.is_zero(c):
                continue
            clean[exps] = c
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __reduce__(self):
        return MultiPoly, (self.domain, self.nvars, self.terms)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, domain: CoeffDomain, nvars: int) -> "MultiPoly":
        return cls(domain, nvars, {})

    @classmethod
    def constant(cls, domain: CoeffDomain, nvars: int, c) -> "MultiPoly":
        if nvars < 1:
            raise ValueError("nvars must be positive")
        return _from_terms(domain, nvars, {(0,) * nvars: domain.coerce(c)})

    @classmethod
    def variable(cls, domain: CoeffDomain, nvars: int, i: int) -> "MultiPoly":
        if not 0 <= i < nvars:
            raise ValueError(f"variable index {i} out of range for nvars={nvars}")
        exps = tuple(1 if j == i else 0 for j in range(nvars))
        return _from_terms(domain, nvars, {exps: domain.one})

    @classmethod
    def monomial(cls, domain: CoeffDomain, exps: tuple[int, ...], coeff=1) -> "MultiPoly":
        return cls(domain, len(exps), {tuple(exps): coeff})

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    @property
    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    @property
    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def degree_in(self, i: int) -> int:
        return max((e[i] for e in self.terms), default=-1)

    def sorted_terms(self):
        """Terms in descending grevlex order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def leading_term(self):
        return max(self.terms.items(), key=lambda t: grevlex_key(t[0]))

    def coefficient(self, exps: tuple[int, ...]):
        return self.terms.get(tuple(exps), self.domain.zero)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.nvars, frozenset(self.terms.items())))

    # -- arithmetic --------------------------------------------------------

    def _check_compatible(self, other: "MultiPoly") -> None:
        if self.domain != other.domain or self.nvars != other.nvars:
            raise ValueError("incompatible polynomials")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        dom = self.domain
        out = dict(self.terms)
        for exps, c in other.terms.items():
            out[exps] = dom.add(out[exps], c) if exps in out else c
        return _from_terms(dom, self.nvars, out)

    def __neg__(self) -> "MultiPoly":
        dom = self.domain
        return _from_terms(dom, self.nvars, {e: dom.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        dom = self.domain
        out: dict[tuple[int, ...], object] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                prod = dom.mul(c1, c2)
                out[exps] = dom.add(out[exps], prod) if exps in out else prod
        return _from_terms(dom, self.nvars, out)

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(mul, MultiPoly.constant(self.domain, self.nvars, 1), self, n)

    def scale(self, c) -> "MultiPoly":
        dom = self.domain
        c = dom.coerce(c)
        return _from_terms(dom, self.nvars, {e: dom.mul(v, c) for e, v in self.terms.items()})

    def exact_div_scalar(self, c) -> "MultiPoly":
        dom = self.domain
        return MultiPoly(
            dom, self.nvars, {e: dom.exact_div(v, c) for e, v in self.terms.items()}
        )

    def divmod(self, divisor: "MultiPoly") -> tuple["MultiPoly", "MultiPoly"]:
        """(quo, rem) with self = quo * divisor + rem and no term of rem
        divisible by the grevlex leading term of divisor: the terms are
        reduced from the top down.  In one variable over a field this is
        Euclidean division."""
        self._check_compatible(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("division by the zero polynomial")
        dom = self.domain
        lt_e, lt_c = divisor.leading_term()
        tail = [(e, c) for e, c in divisor.terms.items() if e != lt_e]
        # the running remainder; every term a step adds lies below the one it
        # removes, so the terms moved to rem are never touched again
        run = dict(self.terms)
        quo: dict[tuple[int, ...], object] = {}
        rem: dict[tuple[int, ...], object] = {}
        while run:
            top = max(run, key=grevlex_key)
            c = run.pop(top)
            qe = tuple(a - b for a, b in zip(top, lt_e))
            qc = None
            if min(qe) >= 0:
                try:
                    qc = dom.exact_div(c, lt_c)
                except ArithmeticError:  # over Z or F_q[t] the lead need not divide c
                    pass
            if qc is None:
                rem[top] = c
                continue
            quo[qe] = qc
            for de, dc in tail:
                ne = tuple(a + b for a, b in zip(qe, de))
                v = dom.mul(qc, dc)
                v = dom.sub(run[ne], v) if ne in run else dom.neg(v)
                if dom.is_zero(v):
                    run.pop(ne, None)
                else:
                    run[ne] = v
        return _from_terms(dom, self.nvars, quo), _from_terms(dom, self.nvars, rem)

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Exact division by a known factor; raises ArithmeticError when
        the division is not exact."""
        quo, rem = self.divmod(divisor)
        if rem:
            raise ArithmeticError("division is not exact")
        return quo

    # -- evaluation / substitution -------------------------------------------

    def evaluate(self, point):
        """Evaluate at a tuple of domain elements (exact), on the domain's
        raw ring: one power table per coordinate, shared by the terms."""
        if len(point) != self.nvars:
            raise ValueError("point arity mismatch")
        dom, ring = self.domain, self.domain.ring
        exponents = {e for exps in self.terms for e in exps}
        powers = _power_tables(ring, ring.raw(map(dom.coerce, point)), exponents)
        return ring.cook([_raw_value(ring, zip(self.terms, ring.raw(self.terms.values())), powers)])[0]

    def partial(self, i: int) -> "MultiPoly":
        """Formal partial derivative with respect to x_i."""
        dom = self.domain
        out: dict[tuple[int, ...], object] = {}
        for exps, c in self.terms.items():
            e = exps[i]
            if e == 0:
                continue
            ne = exps[:i] + (e - 1,) + exps[i + 1 :]
            v = dom.mul(c, dom.coerce(e))
            out[ne] = dom.add(out[ne], v) if ne in out else v
        return MultiPoly(dom, self.nvars, out)

    def translate(self, point) -> "MultiPoly":
        """Substitute x_i -> x_i + a_i; the result's coefficients are the
        Taylor coefficients of self at the point."""
        dom = self.domain
        # powers[e][i] is a_i^e, for every e up to the largest exponent
        powers = _power_tables(dom, map(dom.coerce, point), range(max(map(max, self.terms), default=0) + 1))
        out: dict[tuple[int, ...], object] = {}
        for exps, c in self.terms.items():
            # expand prod_i (x_i + a_i)^{e_i} term by term
            partials = [((0,) * self.nvars, c)]
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                nxt = []
                for base_e, base_c in partials:
                    for k in range(e + 1):
                        coeff = dom.mul(base_c, dom.coerce(comb(e, k)))
                        coeff = dom.mul(coeff, powers[e - k][i])
                        if dom.is_zero(coeff):
                            continue
                        ne = base_e[:i] + (k,) + base_e[i + 1 :]
                        nxt.append((ne, coeff))
                partials = nxt
            for ne, nc in partials:
                out[ne] = dom.add(out[ne], nc) if ne in out else nc
        return MultiPoly(dom, self.nvars, out)

    def dehomogenize(self, i: int) -> "MultiPoly":
        """Set x_i = 1 and drop the variable."""
        dom = self.domain
        out: dict[tuple[int, ...], object] = {}
        for exps, c in self.terms.items():
            ne = exps[:i] + exps[i + 1 :]
            out[ne] = dom.add(out[ne], c) if ne in out else c
        return MultiPoly(dom, self.nvars - 1, out)

    def lowest_degree(self) -> int:
        """Smallest total degree with a nonzero term; -1 for zero."""
        return min((sum(e) for e in self.terms), default=-1)

    def map_coefficients(self, target: CoeffDomain, func) -> "MultiPoly":
        return MultiPoly(target, self.nvars, {e: func(c) for e, c in self.terms.items()})

    def permute_variables(self, perm) -> "MultiPoly":
        """Apply x_i -> x_{perm[i]}."""
        out = {}
        for exps, c in self.terms.items():
            ne = [0] * self.nvars
            for i, e in enumerate(exps):
                ne[perm[i]] = e
            out[tuple(ne)] = c
        return MultiPoly(self.domain, self.nvars, out)

    def primitive_part(self) -> "MultiPoly":
        """The representative of self up to units that the domain's
        `primitive` picks, led by the grevlex-leading coefficient: content
        one and a positive resp. monic lead over Z and F_q[t], lead 1 over
        a field."""
        if self.is_zero:
            return self
        exps, coeffs = zip(*self.sorted_terms())
        return MultiPoly(self.domain, self.nvars, zip(exps, self.domain.primitive(coeffs)))

    # -- text ---------------------------------------------------------------

    def _var_name(self, i: int) -> str:
        return f"x{i}"

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        dom = self.domain
        pieces = []
        for exps, c in self.sorted_terms():
            cs = dom.to_str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            mono = "*".join(
                self._var_name(i) if e == 1 else f"{self._var_name(i)}^{e}"
                for i, e in enumerate(exps)
                if e
            )
            if not mono:
                body = cs
            elif cs == "1":
                body = mono
            else:
                if _has_toplevel_sign(cs):
                    cs = f"({cs})"
                body = f"{cs}*{mono}"
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)

    __str__ = to_string

    def __repr__(self) -> str:
        return f"MultiPoly({self.domain.describe()}, nvars={self.nvars}, {self})"


_new = object.__new__
_set_domain = MultiPoly.domain.__set__
_set_nvars = MultiPoly.nvars.__set__
_set_terms = MultiPoly.terms.__set__


def _from_terms(domain: CoeffDomain, nvars: int, terms: dict) -> MultiPoly:
    """A MultiPoly from a dict that MultiPoly's own arithmetic built: its
    keys are exponent tuples of length nvars and its values elements of
    domain, so nothing is validated or coerced; zero coefficients are
    dropped (every element is false exactly when it is zero)."""
    p = _new(MultiPoly)
    _set_domain(p, domain)
    _set_nvars(p, nvars)
    _set_terms(p, {e: c for e, c in terms.items() if c})
    return p


# -- parsing -------------------------------------------------------------------

_ALIASES = {"x": 0, "y": 1, "z": 2, "w": 3}
# a run of the characters that str.isspace accepts
_SPACES = re.compile(r"\s*")


class _Parser:
    """Recursive-descent parser for the polynomial grammar.

    atoms: integer | x<k> | x|y|z|w (nvars <= 4) | t (function-field
    domains) | parenthesized expression; operators + - * / ^ with the
    usual precedence, '^' taking a nonnegative integer exponent.
    """

    def __init__(self, text: str, nvars: int, domain: CoeffDomain):
        self.text = text
        self.pos = 0
        self.nvars = nvars
        self.domain = domain

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def peek(self) -> str:
        """The next character that is not whitespace, which pos then
        points at; "" at the end."""
        ch = self.text[self.pos : self.pos + 1]
        if ch.isspace():
            self.pos = _SPACES.match(self.text, self.pos).end()
            ch = self.text[self.pos : self.pos + 1]
        return ch

    def take(self) -> str:
        """The character that the last peek returned; every take follows
        one, so pos points at it."""
        ch = self.text[self.pos : self.pos + 1]
        self.pos += 1
        return ch

    def parse(self) -> MultiPoly:
        result = self.expr()
        if self.peek():
            self.error(f"unexpected character {self.peek()!r}")
        return result

    def expr(self) -> MultiPoly:
        ch = self.peek()
        if ch == "-":
            self.take()
            acc = -self.term()
        else:
            if ch == "+":
                self.take()
            acc = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.take()
                acc = acc + self.term()
            elif ch == "-":
                self.take()
                acc = acc - self.term()
            else:
                return acc

    def term(self) -> MultiPoly:
        acc = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                acc = acc * self.factor()
            elif ch == "/":
                op_pos = self.pos
                self.take()
                divisor = self.factor()
                acc = self._divide(acc, divisor, op_pos)
            else:
                return acc

    def _divide(self, acc: MultiPoly, divisor: MultiPoly, op_pos: int) -> MultiPoly:
        if not divisor.is_constant:
            raise ParseError("'/' only divides by coefficient constants", op_pos)
        if divisor.is_zero:
            raise ParseError("division by zero", op_pos)
        c = divisor.coefficient((0,) * self.nvars)
        dom = self.domain
        try:
            if dom.is_field:
                inv = dom.inv(c)
                return acc.scale(inv)
            return acc.exact_div_scalar(c)
        except ArithmeticError:
            raise ParseError("coefficient not in domain after division", op_pos)

    def factor(self) -> MultiPoly:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            if self.peek() == "-":
                self.error("negative exponent")
            num_pos = self.pos
            digits = ""
            while self.peek().isdigit():
                digits += self.take()
            if not digits:
                raise ParseError("expected integer exponent after '^'", num_pos)
            return base ** int(digits)
        return base

    def atom(self) -> MultiPoly:
        ch = self.peek()
        start = self.pos
        if ch == "(":
            self.take()
            inner = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return inner
        if ch == "-":
            self.take()
            return -self.atom()
        if ch.isdigit():
            digits = ""
            while self.peek().isdigit():
                digits += self.take()
            return MultiPoly.constant(self.domain, self.nvars, int(digits))
        if ch == "t" and not self._lookahead_is_name_char(1):
            if not self.domain.is_function_field_kind:
                self.error("'t' is reserved for function-field domains")
            self.take()
            return MultiPoly.constant(self.domain, self.nvars, self.domain.t_element())
        if ch == "x" and self._lookahead_digit(1):
            self.take()
            digits = ""
            while self.peek().isdigit():
                digits += self.take()
            idx = int(digits)
            if idx >= self.nvars:
                raise ParseError(f"variable x{idx} out of range (nvars={self.nvars})", start)
            return MultiPoly.variable(self.domain, self.nvars, idx)
        if ch in _ALIASES and not self._lookahead_is_name_char(1):
            if self.nvars > 4:
                self.error("aliases x,y,z,w only apply for nvars <= 4")
            idx = _ALIASES[ch]
            if idx >= self.nvars:
                raise ParseError(f"alias {ch!r} out of range (nvars={self.nvars})", start)
            self.take()
            return MultiPoly.variable(self.domain, self.nvars, idx)
        self.error(f"unexpected character {ch!r}" if ch else "unexpected end of input")

    # the lookaheads follow a peek, so pos is already past any whitespace

    def _lookahead_digit(self, offset: int) -> bool:
        j = self.pos + offset
        return j < len(self.text) and self.text[j].isdigit()

    def _lookahead_is_name_char(self, offset: int) -> bool:
        j = self.pos + offset
        return j < len(self.text) and (self.text[j].isalnum() or self.text[j] == "_")


def poly_parse(text: str, nvars: int, domain: CoeffDomain) -> MultiPoly:
    """Parse polynomial text into canonical sparse form."""
    return _Parser(text, nvars, domain).parse()


def monomials_of_degree(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of the given total degree, grevlex-descending."""
    return _monomials_cached(nvars, degree)


@lru_cache(maxsize=None)
def _monomials_cached(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    def gen(rest: int, total: int):
        if rest == 0:
            if total == 0:
                yield ()
            return
        for first in range(total + 1):
            for tail in gen(rest - 1, total - first):
                yield (first,) + tail

    monos = sorted(gen(nvars, degree), key=grevlex_key, reverse=True)
    return tuple(monos)


def monomials_up_to_degree(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent vectors of total degree <= degree, grevlex-descending."""
    out = []
    for d in range(degree, -1, -1):
        out.extend(monomials_of_degree(nvars, d))
    return tuple(out)


def _power_tables(ring, values, exponents) -> dict:
    """The powers of raw values in the ring: row e lists x^e for every x in
    values, for each exponent and for 0 and 1.  Taken in increasing order,
    row e is row e - 1 times x where that row is there, at one product per
    value, and otherwise x^e by the ring's power, reduced once."""
    values, m, power = list(values), ring.modulus, ring.power
    mul = ring.times if m is None else ring.mul
    rows = {0: [ring.one] * len(values), 1: values}
    for e in sorted(exponents):
        if e in rows:
            continue
        if e - 1 in rows:
            rows[e] = list(map(mul, rows[e - 1], values))
        else:
            row = [power(x, e) for x in values]
            rows[e] = row if m is None else [x % m for x in row]
    return rows


def _raw_value(ring, terms, powers):
    """The sum of the raw terms (exponents, coefficient) at the point with
    power tables `powers`, reduced once by the ring's modulus."""
    times, plus, acc = ring.times, ring.plus, ring.zero
    for exps, c in terms:
        for i, e in enumerate(exps):
            if e:
                c = times(c, powers[e][i])
        acc = plus(acc, c)
    return acc if ring.modulus is None else acc % ring.modulus


def vanishing(dom: CoeffDomain, forms, points):
    """Per point (a tuple over dom), whether one of the forms over dom
    vanishes there: the forms are tried in turn on its power tables."""
    ring, exponents = dom.ring, {e for form in forms for exps in form.terms for e in exps}
    compiled = [list(zip(form.terms, ring.raw(form.terms.values()))) for form in forms]
    for point in points:
        powers = _power_tables(ring, ring.raw(map(dom.coerce, point)), exponents)
        yield any(not _raw_value(ring, terms, powers) for terms in compiled)


class _MonomialColumns:
    """The evaluation matrix of the monomials at the points, read one column
    at a time, as the elimination reads it, in the raw ring of the domain
    (CoeffDomain.ring: F_q[t]'s packed ints, else the elements).  The
    powers of every coordinate are tabulated once, at the exponents it has
    in the monomial list; a column is computed only when asked
    for, at one product per entry and variable past the first that occurs
    in its monomial and one reduction per entry (a ring homomorphism, so
    the entry is the same)."""

    __slots__ = ("domain", "monomials", "rows", "cols", "powers")

    def __init__(self, dom: CoeffDomain, monomials, points):
        ring = dom.ring
        self.domain, self.monomials, self.rows = ring, monomials, len(points)
        # no points, no columns, as an ExactMatrix without rows has none
        self.cols = len(monomials) if points else 0
        # powers[i][e][r] is coordinate i of point r to the power e
        self.powers = [
            _power_tables(ring, ring.raw(map(dom.coerce, values)), set(exponents))
            for values, exponents in zip(zip(*points), zip(*monomials))
        ]

    def column(self, c: int) -> list:
        ring, col = self.domain, None
        for tables, e in zip(self.powers, self.monomials[c]):
            if e:
                factors = tables[e]
                col = list(factors) if col is None else list(map(ring.times, col, factors))
        if col is None:  # the constant monomial
            return [ring.one] * self.rows
        return col if ring.modulus is None else [x % ring.modulus for x in col]


def evaluation_matrix(dom: CoeffDomain, monomials, points) -> ExactMatrix:
    """The monomials at the points as a dense matrix, one row per point: every
    column of _MonomialColumns, read into rows and wrapped back from the raw
    ring.  The entries are elements of dom already, so they are not coerced
    again."""
    source = _MonomialColumns(dom, monomials, points)
    cook = source.domain.cook
    columns = [cook(source.column(c)) for c in range(len(monomials))]
    return ExactMatrix(dom, tuple(tuple(col[r] for col in columns) for r in range(len(points))))


def interpolant(dom: CoeffDomain, monomials, points) -> MultiPoly | None:
    """A nonzero form on the monomial list vanishing at every point, or None
    at full rank and with no points (the evaluation matrix of no points has
    no columns).

    Its coefficients are the kernel vector at the first dependent column
    fc (linalg.kernel_vector), read off the evaluation matrix a column at a
    time so that the columns past fc are never computed.  The form is
    built from the vector's support, columns 0..fc, made primitive with the
    last monomial of that support leading: positive over Z, monic over
    F_q[t], 1 over a field.  The vanishing is checked exactly before the
    form is returned, by evaluating the form itself at the points, apart
    from the elimination's columns."""
    vec = kernel_vector(_MonomialColumns(dom, monomials, points))
    if vec is None:
        return None
    fc = max(i for i, c in enumerate(vec) if c)
    coeffs = dom.primitive(vec[fc::-1])[::-1]
    form = _from_terms(dom, len(monomials[0]), dict(zip(monomials, coeffs)))
    if not all(vanishing(dom, [form], points)):
        raise AssertionError("interpolant fails to vanish on its points")
    return form
