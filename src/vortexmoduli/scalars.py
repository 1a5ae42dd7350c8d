"""Exact arithmetic in the ring Q[pi].

Every scalar produced by this package (stability parameters, volumes,
Kahler coefficients, curvatures) is a polynomial in pi with rational
coefficients.  Because pi is transcendental, such a polynomial vanishes
as a real number only when all of its coefficients vanish, so equality
is structural and the sign of a nonzero value is decidable: evaluate the
polynomial on an interval enclosing pi and refine the enclosure until
the result interval excludes zero.

Evaluation is fixed-point: pi enters as the integers floor(pi * 2**p) and
ceil(pi * 2**p), the coefficients as integer numerators over their common
denominator, and Horner's rule runs on integers scaled by 2**p, rounding
every lower bound down and every upper bound up.  The precision p follows
the digits the caller asks for.
"""

from __future__ import annotations

import enum
import math
import threading
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import DomainError

Rational = Union[int, Fraction]


class Sign(enum.IntEnum):
    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1


# 50 exact decimal digits of pi; the seed enclosure [lo, lo + 1e-50] is
# refined on demand by a Machin-type series with alternating-series bounds.
_PI_50_DIGITS = "314159265358979323846264338327950288419716939937510"
_SEED_DIGITS = 50
_SEED_LO = Fraction(int(_PI_50_DIGITS), 10**_SEED_DIGITS)
_SEED_HI = Fraction(int(_PI_50_DIGITS) + 1, 10**_SEED_DIGITS)

_enclosure_lock = threading.Lock()
_enclosure_cache: tuple[int, Fraction, Fraction] = (_SEED_DIGITS, _SEED_LO, _SEED_HI)


def _arctan_inv_bounds(q: int, terms: int) -> tuple[Fraction, Fraction]:
    """Bracket arctan(1/q) between two consecutive partial sums.

    The Maclaurin series of arctan(1/q) is alternating with strictly
    decreasing terms for q >= 2, so consecutive partial sums enclose the
    limit.
    """
    s = Fraction(0)
    prev = Fraction(0)
    for i in range(terms + 1):
        prev = s
        term = Fraction(1, (2 * i + 1) * q ** (2 * i + 1))
        s += term if i % 2 == 0 else -term
    return (min(s, prev), max(s, prev))


def _machin_enclosure(digits: int) -> tuple[Fraction, Fraction]:
    """Rigorous rational enclosure of pi good to ``digits`` decimal digits."""
    # 5^(2i+1) gains ~1.4 digits per term; the +8 margin absorbs the
    # 16x/4x prefactors and the coarser 1/239 series.
    terms = digits + 8
    a_lo, a_hi = _arctan_inv_bounds(5, terms)
    b_lo, b_hi = _arctan_inv_bounds(239, terms)
    lo = 16 * a_lo - 4 * b_hi
    hi = 16 * a_hi - 4 * b_lo
    if not lo < hi:
        raise AssertionError("pi enclosure collapsed")
    return lo, hi


def pi_enclosure(digits: int) -> tuple[Fraction, Fraction]:
    """Return a rational interval containing pi with width below 10**-digits.

    The cached enclosure is only ever replaced by a tighter one; updates
    are atomic, so concurrent callers at worst recompute.
    """
    global _enclosure_cache
    cached_digits, lo, hi = _enclosure_cache
    if cached_digits >= digits and hi - lo <= Fraction(1, 10**digits):
        return lo, hi
    with _enclosure_lock:
        cached_digits, lo, hi = _enclosure_cache
        if cached_digits >= digits and hi - lo <= Fraction(1, 10**digits):
            return lo, hi
        lo, hi = _machin_enclosure(digits)
        _enclosure_cache = (digits, lo, hi)
        return lo, hi


# (bits, lo, hi) with lo <= pi * 2**bits <= hi and hi - lo <= 2; tightened
# from pi_enclosure only when a caller needs more bits.
_pi_fixed: tuple[int, int, int] = (0, 3, 4)


def _pi_fixed_point(bits: int) -> tuple[int, int]:
    """Integers lo <= pi * 2**bits <= hi with hi - lo <= 2."""
    global _pi_fixed
    cached = _pi_fixed
    if cached[0] < bits:
        # 0.30103 > log10(2), so the rational enclosure is narrower than 2**-bits.
        lo, hi = pi_enclosure(bits * 30103 // 100000 + 1)
        fresh = (
            bits,
            (lo.numerator << bits) // lo.denominator,
            -((-hi.numerator << bits) // hi.denominator),
        )
        with _enclosure_lock:
            if _pi_fixed[0] < bits:
                _pi_fixed = fresh
            cached = _pi_fixed
    shift = cached[0] - bits
    return cached[1] >> shift, -((-cached[2]) >> shift)


def _as_fraction(value: Rational) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise DomainError(f"expected an exact rational, got {value!r}")


def _round_half_even(x: Fraction) -> int:
    """Round an exact rational to the nearest integer, ties to even."""
    floor = x.numerator // x.denominator
    rem = x - floor
    if rem > Fraction(1, 2):
        return floor + 1
    if rem < Fraction(1, 2):
        return floor
    return floor if floor % 2 == 0 else floor + 1


def _format_scaled(n: int, digits: int) -> str:
    """Format the integer n as n / 10**digits in fixed-point notation."""
    sign = "-" if n < 0 else ""
    n = abs(n)
    whole, frac = divmod(n, 10**digits)
    if digits == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:0{digits}d}"


class PiPoly:
    """A polynomial in pi with rational coefficients, in canonical form.

    ``coeffs[i]`` is the coefficient of pi**i; trailing zeros are stripped
    on construction so equality is structural.  Instances are immutable.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        items = [_as_fraction(c) for c in coeffs]
        while items and items[-1] == 0:
            items.pop()
        object.__setattr__(self, "_coeffs", tuple(items))

    # -- construction -----------------------------------------------------

    @classmethod
    def constant(cls, value: Rational) -> "PiPoly":
        return cls((value,))

    @classmethod
    def pi(cls, power: int = 1, coefficient: Rational = 1) -> "PiPoly":
        """The monomial coefficient * pi**power."""
        if power < 0:
            raise DomainError("negative powers of pi are not representable")
        return cls((0,) * power + (coefficient,))

    # -- basic structure ---------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree in pi; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, power: int) -> Fraction:
        if 0 <= power < len(self._coeffs):
            return self._coeffs[power]
        return Fraction(0)

    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def is_rational(self) -> bool:
        return len(self._coeffs) <= 1

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "PiPoly | Rational") -> "PiPoly":
        other = _coerce(other)
        n = max(len(self._coeffs), len(other._coeffs))
        return PiPoly(self.coefficient(i) + other.coefficient(i) for i in range(n))

    __radd__ = __add__

    def __neg__(self) -> "PiPoly":
        return PiPoly(-c for c in self._coeffs)

    def __sub__(self, other: "PiPoly | Rational") -> "PiPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "PiPoly | Rational") -> "PiPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "PiPoly | Rational") -> "PiPoly":
        other = _coerce(other)
        if self.is_zero() or other.is_zero():
            return PiPoly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return PiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "PiPoly":
        if exponent < 0:
            raise DomainError("negative powers are not supported")
        result = PiPoly((1,))
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def scale(self, value: Rational) -> "PiPoly":
        q = _as_fraction(value)
        return PiPoly(c * q for c in self._coeffs)

    def div_monomial(self, coefficient: Rational, power: int = 0) -> "PiPoly":
        """Exact division by the monomial coefficient * pi**power.

        Division is only supported when every term of self is divisible,
        i.e. when the coefficients below ``power`` vanish.
        """
        q = _as_fraction(coefficient)
        if q == 0:
            raise DomainError("division by zero")
        if any(c != 0 for c in self._coeffs[:power]):
            raise DomainError("not divisible by the requested power of pi")
        return PiPoly(c / q for c in self._coeffs[power:])

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = PiPoly.constant(other)
        if not isinstance(other, PiPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    # -- sign and decimal rendering -----------------------------------------

    def enclosure(self, digits: int) -> tuple[Fraction, Fraction]:
        """A rational interval certified to contain the real value.

        Its width is at most ``S * 10**-digits``, where S is the sum of the
        absolute values of the coefficients.  For degree n, Horner's rule
        runs on integers scaled by 2**p with
        p = floor(3.322 * digits) + 2n + bitlength(n + 1) + 2, and the width
        of pi's fixed-point interval together with the outward rounding of
        the n steps keeps the result's width below
        ``S * (n + 1) * 4**n * 2**-p < S * 10**-digits / 2``.
        """
        if not self._coeffs:
            return (Fraction(0), Fraction(0))
        n = len(self._coeffs) - 1
        bits = digits * 3322 // 1000 + 2 * n + (n + 1).bit_length() + 2
        d = math.lcm(*(c.denominator for c in self._coeffs))
        scaled = [c.numerator * (d // c.denominator) << bits for c in self._coeffs]
        pi_lo, pi_hi = _pi_fixed_point(bits)
        lo = hi = scaled[-1]
        for a in reversed(scaled[:-1]):
            # pi_lo > 0, so each endpoint's extreme product is fixed by its sign.
            low = lo * (pi_lo if lo >= 0 else pi_hi)
            high = hi * (pi_hi if hi >= 0 else pi_lo)
            lo = (low >> bits) + a
            hi = -((-high) >> bits) + a
        return Fraction(lo, d << bits), Fraction(hi, d << bits)

    def sign(self) -> Sign:
        """Sign of the real number obtained by evaluating at pi.

        Zero exactly when all coefficients vanish; otherwise refine the
        pi enclosure until the value interval excludes zero (guaranteed to
        happen because pi is transcendental).
        """
        if not self._coeffs:
            return Sign.ZERO
        if len(self._coeffs) == 1:
            c = self._coeffs[0]
            return Sign.POSITIVE if c > 0 else Sign.NEGATIVE
        digits = 30
        while True:
            lo, hi = self.enclosure(digits)
            if lo > 0:
                return Sign.POSITIVE
            if hi < 0:
                return Sign.NEGATIVE
            digits *= 2
            if digits > 1_000_000:  # pragma: no cover
                raise AssertionError("sign refinement failed to terminate")

    def approx(self, digits: int = 12) -> str:
        """Decimal rendering, correct to the requested number of digits.

        Rational values are rendered exactly with ties rounded half to
        even.  Irrational values (any true pi dependence) are rendered by
        refining the enclosure until rounding is unambiguous; a value of a
        nonconstant polynomial at pi is never exactly at a rounding
        boundary, so this terminates.
        """
        if digits < 1:
            raise DomainError("digits must be >= 1")
        scale = 10**digits
        if len(self._coeffs) <= 1:
            return _format_scaled(_round_half_even(self.constant_term() * scale), digits)
        prec = digits + 10
        while True:
            lo, hi = self.enclosure(prec)
            n_lo = _round_half_even(lo * scale)
            n_hi = _round_half_even(hi * scale)
            if n_lo == n_hi:
                return _format_scaled(n_lo, digits)
            prec *= 2

    # -- rendering -------------------------------------------------------------

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for power, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if power == 0:
                body = str(c)
            else:
                mono = "pi" if power == 1 else f"pi^{power}"
                if c == 1:
                    body = mono
                elif c == -1:
                    body = f"-{mono}"
                else:
                    body = f"{c}*{mono}"
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append(f"- {body[1:]}")
            else:
                parts.append(f"+ {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"PiPoly({self})"

    def to_json(self, digits: int = 12) -> dict:
        return {
            "coeffs": [f"{c.numerator}/{c.denominator}" for c in self._coeffs],
            "approx": self.approx(digits),
        }


def _coerce(value: "PiPoly | Rational") -> PiPoly:
    if isinstance(value, PiPoly):
        return value
    return PiPoly.constant(_as_fraction(value))


ZERO = PiPoly()
ONE = PiPoly((1,))
PI = PiPoly.pi()


def pp_add(a: PiPoly, b: PiPoly) -> PiPoly:
    return a + b


def pp_mul(a: PiPoly, b: PiPoly) -> PiPoly:
    return a * b


def pp_sign(a: PiPoly) -> Sign:
    return a.sign()


def pp_approx(a: PiPoly, decimal_digits: int = 12) -> str:
    return a.approx(decimal_digits)

