"""Polynomials in two noncommuting selfadjoint indeterminates Z1, Z2.

Words are tuples over {1, 2}; the empty word is the constant term.
Terms are kept in canonical form (distinct words, zero coefficients
dropped, graded lexicographic order) so equality is exact.  The
involution conjugates coefficients and reverses words; Z1 and Z2 are
fixed points.  Values are immutable and operations are pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

# The largest degree parse_poly accepts in a term.  The pencil of a term
# grows with its degree (up to about 2d for a word of degree d), and a
# subordination solve costs about n^4 per point in the pencil's size n;
# at this cap the Newton matrix of one point holds a million numbers.
MAX_TERM_DEGREE = 16


def _grlex_key(word):
    return (len(word), word)


@dataclass(frozen=True)
class NCPoly:
    """Complex-coefficient polynomial in noncommuting Z1, Z2."""

    terms: tuple  # tuple of (word, coefficient), canonical

    def __init__(self, terms=()):
        agg = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for word, coeff in items:
            word = tuple(int(x) for x in word)
            if any(x not in (1, 2) for x in word):
                raise ValueError(f"word letters must be 1 or 2, got {word}")
            c = agg.get(word, 0j) + complex(coeff)
            agg[word] = c
        canon = tuple(
            (w, agg[w]) for w in sorted(agg, key=_grlex_key) if agg[w] != 0
        )
        object.__setattr__(self, "terms", canon)

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero():
        return NCPoly()

    @staticmethod
    def one():
        return NCPoly([((), 1.0)])

    @staticmethod
    def constant(c):
        return NCPoly([((), c)])

    @staticmethod
    def z1():
        return NCPoly([((1,), 1.0)])

    @staticmethod
    def z2():
        return NCPoly([((2,), 1.0)])

    @staticmethod
    def letter(j):
        return NCPoly([((j,), 1.0)])

    @staticmethod
    def monomial(word, coeff=1.0):
        return NCPoly([(tuple(word), coeff)])

    # -- structure -----------------------------------------------------

    @property
    def degree(self):
        return max((len(w) for w, _ in self.terms), default=0)

    @property
    def is_zero(self):
        return not self.terms

    def coeff(self, word):
        word = tuple(word)
        for w, c in self.terms:
            if w == word:
                return c
        return 0j

    def affine_part(self):
        return NCPoly([(w, c) for w, c in self.terms if len(w) <= 1])

    def higher_part(self):
        return NCPoly([(w, c) for w, c in self.terms if len(w) >= 2])

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        return NCPoly(list(self.terms) + list(other.terms))

    __radd__ = __add__

    def __neg__(self):
        return NCPoly([(w, -c) for w, c in self.terms])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return NCPoly([(w, c * other) for w, c in self.terms])
        out = []
        for w1, c1 in self.terms:
            for w2, c2 in other.terms:
                out.append((w1 + w2, c1 * c2))
        return NCPoly(out)

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return NCPoly([(w, other * c) for w, c in self.terms])
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, (int, float, complex)):
            other = NCPoly.constant(other)
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"NCPoly({format_poly(self)!r})"


def _as_poly(x):
    if isinstance(x, NCPoly):
        return x
    if isinstance(x, (int, float, complex)):
        return NCPoly.constant(x)
    raise TypeError(f"cannot coerce {type(x)!r} to NCPoly")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------


def adjoint(p: NCPoly) -> NCPoly:
    """The *-involution: conjugate coefficients, reverse words."""
    return NCPoly([(w[::-1], c.conjugate()) for w, c in p.terms])


def is_selfadjoint(p: NCPoly) -> bool:
    return adjoint(p) == p


def star_square(p: NCPoly) -> NCPoly:
    """Return adjoint(p) * p; selfadjoint with the same evaluation kernel as p."""
    return adjoint(p) * p


def eval_matrices(p: NCPoly, A1: np.ndarray, A2: np.ndarray) -> np.ndarray:
    """Evaluate p at a pair of square matrices of equal dimension.

    Stacks of shape ``(..., n, n)`` are evaluated block by block.
    """
    A1 = np.asarray(A1, dtype=complex)
    A2 = np.asarray(A2, dtype=complex)
    if A1.shape != A2.shape or A1.ndim < 2 or A1.shape[-1] != A1.shape[-2]:
        raise ValueError(f"matrix arguments must be square of equal size, got {A1.shape} and {A2.shape}")
    n = A1.shape[-1]
    mats = {1: A1, 2: A2}
    out = np.zeros(A1.shape, dtype=complex)
    for word, coeff in p.terms:
        acc = np.broadcast_to(np.eye(n, dtype=complex), A1.shape)
        for letter in word:
            acc = acc @ mats[letter]
        out += coeff * acc
    return out


# ---------------------------------------------------------------------------
# text syntax: terms joined by +/-, words as (optionally *-joined) Z1/Z2,
# e.g.  "Z1*Z2 + Z2*Z1 - 0.5"  or  "2i*Z1Z2Z1 + Z1^2"
# ---------------------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.?\d*(?:[eE][+-]?\d+)?)|(?P<letter>[Zz][12])|"
    r"(?P<imag>[ij])|(?P<pow>\*\*|\^)|(?P<mul>\*)|(?P<sign>[+-])|"
    r"(?P<lpar>\()|(?P<rpar>\)))"
)


def _finite(text, what):
    """The float a number token spells, which must be finite."""
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"{what} {text} is not finite")
    return value


def _parse_complex_group(tokens, i):
    """Parse '( a [+-] b i )' starting after the '(' token; return (value, next)."""
    value = 0j
    n = len(tokens)
    while i < n and tokens[i][0] != "rpar":
        sign = 1.0
        while i < n and tokens[i][0] == "sign":
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if i >= n or tokens[i][0] not in ("num", "imag"):
            raise ValueError("malformed complex coefficient")
        if tokens[i][0] == "imag":
            value += sign * 1j
            i += 1
            continue
        mag = _finite(tokens[i][1], "coefficient")
        i += 1
        if i < n and tokens[i][0] == "imag":
            value += sign * mag * 1j
            i += 1
        else:
            value += sign * mag
    if i >= n:
        raise ValueError("unterminated complex coefficient")
    return value, i + 1  # skip ')'


def parse_poly(text: str) -> NCPoly:
    """Parse the CLI text syntax into an NCPoly; a term of degree above MAX_TERM_DEGREE is refused."""
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"cannot parse polynomial at ...{text[pos:pos + 12]!r}")
        pos = m.end()
        kind = m.lastgroup
        tokens.append((kind, m.group(kind)))

    result = NCPoly.zero()
    i = 0
    n = len(tokens)
    first_term = True
    while i < n:
        sign = 1.0
        saw_sign = False
        while i < n and tokens[i][0] == "sign":
            saw_sign = True
            if tokens[i][1] == "-":
                sign = -sign
            i += 1
        if not first_term and not saw_sign and i < n:
            raise ValueError("terms must be joined by + or -")
        if i >= n:
            if saw_sign:
                raise ValueError("dangling sign at end of polynomial")
            break
        coeff = complex(sign)
        word = []
        saw_factor = False
        pending_mul = False
        while i < n and tokens[i][0] in ("num", "letter", "imag", "mul", "pow", "lpar"):
            kind, val = tokens[i]
            if kind == "mul":
                if not saw_factor or pending_mul:
                    raise ValueError("misplaced '*' in polynomial")
                pending_mul = True
                i += 1
                continue
            pending_mul = False
            if kind == "lpar":
                group, i = _parse_complex_group(tokens, i + 1)
                coeff *= group
                saw_factor = True
                continue
            if kind == "num":
                coeff *= _finite(val, "coefficient")
                i += 1
                if i < n and tokens[i][0] == "imag":
                    coeff *= 1j
                    i += 1
                saw_factor = True
                continue
            if kind == "imag":
                coeff *= 1j
                i += 1
                saw_factor = True
                continue
            if kind == "letter":
                letter = 1 if val[1] == "1" else 2
                i += 1
                power = 1
                if i < n and tokens[i][0] == "pow":
                    i += 1
                    if i >= n or tokens[i][0] != "num":
                        raise ValueError("exponent must be an integer")
                    exponent = _finite(tokens[i][1], "exponent")
                    power = int(exponent)
                    if power < 0 or power != exponent:
                        raise ValueError("exponent must be a nonnegative integer")
                    i += 1
                if len(word) + power > MAX_TERM_DEGREE:
                    raise ValueError(f"a term of degree {len(word) + power:.6g} exceeds the "
                                     f"degree cap {MAX_TERM_DEGREE}")
                word.extend([letter] * power)
                saw_factor = True
                continue
            break
        if pending_mul:
            raise ValueError("dangling '*' in polynomial")
        if not saw_factor:
            raise ValueError("empty term in polynomial")
        if not np.isfinite(coeff):
            raise ValueError(f"the coefficient of a term overflows to {coeff}")
        result = result + NCPoly.monomial(tuple(word), coeff)
        first_term = False
    return result


def _format_coeff(c: complex) -> str:
    def fmt_real(x):
        if x == int(x) and abs(x) < 1e15:
            return str(int(x))
        return repr(x)

    if c.imag == 0:
        return fmt_real(c.real)
    if c.real == 0:
        return fmt_real(c.imag) + "i"
    sep = "+" if c.imag >= 0 else "-"
    return f"({fmt_real(c.real)}{sep}{fmt_real(abs(c.imag))}i)"


def format_poly(p: NCPoly) -> str:
    """Canonical text form; parse(format(p)) == p."""
    if p.is_zero:
        return "0"
    parts = []
    for word, coeff in p.terms:
        wtxt = "*".join(f"Z{letter}" for letter in word)
        mag = coeff
        lead_neg = False
        if coeff.imag == 0 and coeff.real < 0:
            lead_neg = True
            mag = -coeff
        ctxt = _format_coeff(mag)
        if wtxt and ctxt == "1":
            body = wtxt
        elif wtxt:
            body = f"{ctxt}*{wtxt}"
        else:
            body = ctxt
        if not parts:
            parts.append(("-" if lead_neg else "") + body)
        else:
            parts.append(("- " if lead_neg else "+ ") + body)
    return " ".join(parts)
