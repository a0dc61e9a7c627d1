"""Exact rational scalars and outward-enclosure interval arithmetic.

Exact values are ``fractions.Fraction`` (aliased ``Q``): always in lowest
terms, positive denominator, arithmetic exact.  Irrational quantities
(square roots, logarithms, arctangents) are carried as closed intervals
with rational endpoints that are guaranteed to contain the true value.
Because rationals are closed under +, -, *, /, those four operations on
intervals are themselves exact (no rounding step anywhere); only the
transcendental constructors introduce slack, and that slack is bounded
by an explicit power of two.

No floating point is used on any certified path.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import InputError

Q = Fraction

DEFAULT_BITS = 128

_NO_FLOATS = ("floats are not accepted on certified paths; "
              "pass a Fraction or a decimal string")


def to_q(x) -> Q:
    """Coerce to an exact rational; decimal strings parse exactly
    ("0.095" -> 19/200)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InputError(f"cannot coerce bool {x!r} to a rational")
    if isinstance(x, int):
        return Q(x)
    if isinstance(x, str):
        try:
            return Q(x)
        except (ValueError, ZeroDivisionError) as e:
            raise InputError(f"cannot parse rational from {x!r}") from e
    if isinstance(x, float):
        raise InputError(_NO_FLOATS)
    raise InputError(f"cannot coerce {type(x).__name__} to a rational")


def decimal_str(q: Q) -> str:
    """Exact decimal rendering when the denominator is 2^a*5^b, else the
    'p/q' form.  Both round-trip exactly through to_q."""
    q = to_q(q)
    d = q.denominator
    e2 = e5 = 0
    while d % 2 == 0:
        d //= 2
        e2 += 1
    while d % 5 == 0:
        d //= 5
        e5 += 1
    if d != 1:
        return f"{q.numerator}/{q.denominator}"
    places = max(e2, e5)
    if places == 0:
        return str(q.numerator)
    scaled = q.numerator * 10**places // q.denominator
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def decimal_approx(q: Q, places: int = 12) -> str:
    """Decimal approximation rounded half-up, for display only."""
    q = to_q(q)
    return decimal_ratio(q.numerator, q.denominator, places)


def decimal_ratio(n: int, d: int, places: int) -> str:
    """``decimal_approx(n/d, places)`` for integers n and d > 0, with no
    rational built: n/d need not be in lowest terms."""
    v = (n * 10**places * 2 + d) // (2 * d)  # half-up via +1/2
    sign = "-" if v < 0 else ""
    digits = str(abs(v)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] with rational endpoints.

    Every operation returns an interval containing the exact image of the
    operands, and for the field operations the result is the exact image
    (rational endpoints, no rounding).  A float end is refused, as
    ``to_q`` refuses one.
    """

    lo: Q
    hi: Q

    def __post_init__(self):
        if type(self.lo) is float or type(self.hi) is float:
            raise InputError(_NO_FLOATS)
        if self.lo > self.hi:
            raise InputError(f"interval endpoints out of order: "
                             f"[{self.lo}, {self.hi}]")

    # -- constructors -------------------------------------------------

    @staticmethod
    def point(x) -> "Interval":
        q = to_q(x)
        return Interval(q, q)

    @staticmethod
    def coerce(x) -> "Interval":
        if isinstance(x, Interval):
            return x
        return Interval.point(x)

    # -- queries -------------------------------------------------------

    @property
    def width(self) -> Q:
        return self.hi - self.lo

    @property
    def mid(self) -> Q:
        return (self.lo + self.hi) / 2

    def is_point(self) -> bool:
        return self.lo == self.hi

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Interval":
        o = Interval.coerce(other)
        return Interval(self.lo + o.lo, self.hi + o.hi)

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        return self + (-Interval.coerce(other))

    def __rsub__(self, other) -> "Interval":
        return (-self) + Interval.coerce(other)

    def __mul__(self, other) -> "Interval":
        o = Interval.coerce(other)
        if o.is_point():  # scaling fast path
            s = o.lo
            if s >= 0:
                return Interval(self.lo * s, self.hi * s)
            return Interval(self.hi * s, self.lo * s)
        products = (self.lo * o.lo, self.lo * o.hi,
                    self.hi * o.lo, self.hi * o.hi)
        return Interval(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = Interval.coerce(other)
        if o.lo <= 0 <= o.hi:
            raise InputError("division by an interval containing zero")
        if o.is_point():  # scaling fast path
            s = o.lo
            if s > 0:
                return Interval(self.lo / s, self.hi / s)
            return Interval(self.hi / s, self.lo / s)
        quotients = (self.lo / o.lo, self.lo / o.hi,
                     self.hi / o.lo, self.hi / o.hi)
        return Interval(min(quotients), max(quotients))

    def __rtruediv__(self, other) -> "Interval":
        return Interval.coerce(other) / self

    def square(self) -> "Interval":
        if self.lo >= 0:
            return Interval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Interval(self.hi * self.hi, self.lo * self.lo)
        return Interval(Q(0), max(self.lo * self.lo, self.hi * self.hi))

    def __abs__(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(Q(0), max(-self.lo, self.hi))

    # -- certified comparison ------------------------------------------

    def certainly_le(self, other) -> bool:
        return self.hi <= Interval.coerce(other).lo

    def certainly_lt(self, other) -> bool:
        return self.hi < Interval.coerce(other).lo

    def certainly_ge(self, other) -> bool:
        return self.lo >= Interval.coerce(other).hi

    def certainly_gt(self, other) -> bool:
        return self.lo > Interval.coerce(other).hi

    def __repr__(self):
        if self.is_point():
            return f"Interval({self.lo})"
        return f"Interval({self.lo}, {self.hi})"

    def approx_str(self, places: int = 12) -> str:
        if self.is_point():
            return decimal_approx(self.lo, places)
        return (f"{decimal_approx(self.mid, places)} "
                f"± {decimal_approx(self.width / 2, places)}")


# -- square roots ------------------------------------------------------


def _sqrt_bounds(q: Q, bits: int) -> tuple[Q, Q]:
    """Enclosure of sqrt(q) with width <= 2^-bits (exact on perfect
    squares)."""
    if q < 0:
        raise InputError("square root of a negative value")
    if q == 0:
        return Q(0), Q(0)
    n, d = q.numerator, q.denominator
    big = (n * d) << (2 * bits)  # sqrt(n/d) = sqrt(n*d)/d
    root = isqrt(big)
    denom = d << bits
    if root * root == big:
        v = Q(root, denom)
        return v, v
    return Q(root, denom), Q(root + 1, denom)


def interval_sqrt(x, bits: int = DEFAULT_BITS) -> Interval:
    """Enclosure of sqrt over an interval with nonnegative lower end.

    Contains sqrt(t) for every t in x.  The slack added beyond the exact
    range of sqrt is at most 2^-bits; in particular, for a point input
    the width is at most 2^-bits (and zero on perfect squares).
    Increasing ``bits`` never widens the result.
    """
    iv = Interval.coerce(x)
    if iv.lo < 0:
        raise InputError("interval_sqrt requires a nonnegative interval")
    lo, _ = _sqrt_bounds(iv.lo, bits + 1)
    _, hi = _sqrt_bounds(iv.hi, bits + 1)
    return Interval(lo, hi)


# -- logarithms --------------------------------------------------------


def _log_ratio_bounds(z: Q, bits: int) -> tuple[Q, Q]:
    """Bounds on 2*atanh(z) = ln((1+z)/(1-z)) for 0 <= z <= 1/2.

    The series has positive terms; the truncation tail is bounded by the
    next term times the geometric factor 1/(1-z^2).
    """
    if z == 0:
        return Q(0), Q(0)
    tol = Q(1, 2**bits)
    z2 = z * z
    term = 2 * z
    total = Q(0)
    j = 0
    while True:
        total += term / (2 * j + 1)
        term *= z2
        tail = (term / (2 * j + 3)) / (1 - z2)
        if tail <= tol:
            return total, total + tail
        j += 1


@functools.cache
def _ln2_bounds(bits: int) -> tuple[Q, Q]:
    """Bounds on ln 2 = 2*atanh(1/3), a function of ``bits`` alone."""
    return _log_ratio_bounds(Q(1, 3), bits)


def _ln_bounds(q: Q, bits: int) -> tuple[Q, Q]:
    if q <= 0:
        raise InputError("logarithm of a nonpositive value")
    if q == 1:
        return Q(0), Q(0)
    if q < 1:
        lo, hi = _ln_bounds(1 / q, bits)
        return -hi, -lo
    k = 0
    m = q
    while m >= 2:
        m /= 2
        k += 1
    extra = max(k.bit_length(), 1) + 2
    l2lo, l2hi = _ln2_bounds(bits + extra)
    mlo, mhi = _log_ratio_bounds((m - 1) / (m + 1), bits + extra)
    return k * l2lo + mlo, k * l2hi + mhi


def interval_ln(x, bits: int = DEFAULT_BITS) -> Interval:
    """Enclosure of the natural logarithm over a positive interval."""
    iv = Interval.coerce(x)
    if iv.lo <= 0:
        raise InputError("interval_ln requires a strictly positive interval")
    lo, _ = _ln_bounds(iv.lo, bits)
    _, hi = _ln_bounds(iv.hi, bits)
    return Interval(lo, hi)


# -- arctangent and pi -------------------------------------------------


def _atan_small(z: Q, bits: int) -> tuple[Q, Q]:
    """Alternating-series bounds on atan(z) for |z| <= 1/2."""
    if z == 0:
        return Q(0), Q(0)
    if z < 0:
        lo, hi = _atan_small(-z, bits)
        return -hi, -lo
    tol = Q(1, 2**bits)
    z2 = z * z
    term = z
    total = Q(0)
    j = 0
    while True:
        # consecutive partial sums bracket the limit
        if j % 2 == 0:
            upper = total + term / (2 * j + 1)
            total = upper
        else:
            total -= term / (2 * j + 1)
        term *= z2
        nxt = term / (2 * j + 3)
        if nxt <= tol:
            if j % 2 == 0:
                return total - nxt, total
            return total, total + nxt
        j += 1


@functools.cache
def _pi_bounds(bits: int) -> tuple[Q, Q]:
    a5 = _atan_small(Q(1, 5), bits + 6)
    a239 = _atan_small(Q(1, 239), bits + 6)
    return 16 * a5[0] - 4 * a239[1], 16 * a5[1] - 4 * a239[0]


def _atan_bounds(q: Q, bits: int) -> tuple[Q, Q]:
    if q < 0:
        lo, hi = _atan_bounds(-q, bits)
        return -hi, -lo
    if q <= Q(1, 2):
        return _atan_small(q, bits)
    if q <= 1:
        # atan(q) = pi/4 + atan((q-1)/(q+1)), reduced argument is in [-1/3, 0]
        plo, phi = _pi_bounds(bits + 2)
        slo, shi = _atan_small((q - 1) / (q + 1), bits + 2)
        return plo / 4 + slo, phi / 4 + shi
    plo, phi = _pi_bounds(bits + 2)
    slo, shi = _atan_bounds(1 / q, bits + 2)
    return plo / 2 - shi, phi / 2 - slo


def interval_atan(x, bits: int = DEFAULT_BITS) -> Interval:
    iv = Interval.coerce(x)
    lo, _ = _atan_bounds(iv.lo, bits)
    _, hi = _atan_bounds(iv.hi, bits)
    return Interval(lo, hi)


# -- constants -----------------------------------------------------------


@functools.cache
def sqrt3(bits: int = DEFAULT_BITS) -> Interval:
    """Enclosure of sqrt(3), a function of ``bits`` alone.  Its dyadic
    bounds are nested, so more bits never widen it."""
    return interval_sqrt(Interval.point(3), bits)


def simplest_between(lo: Q, hi: Q) -> Q:
    """The rational with the smallest denominator (then smallest
    numerator magnitude) in the closed interval [lo, hi].

    For 0 < lo <= hi it walks the continued fraction the two ends share
    (Khinchin, Continued Fractions, 1964): with a = floor(lo), the
    smallest integer in [lo, hi] is the answer if there is one, and
    otherwise the answer is a + 1/y, y the simplest rational in
    [1/(hi - a), 1/(lo - a)].  The ends stay integer pairs, and each
    partial quotient a folds into the matrix [[A, B], [C, D]] with
    x = (A*y + B)/(C*y + D), so the walk is a loop however many terms
    it takes."""
    if lo > hi:
        raise InputError("empty interval")
    if lo <= 0 <= hi:
        return Q(0)
    sign = 1
    if hi < 0:
        sign, lo, hi = -1, -hi, -lo
    p0, q0, p1, q1 = lo.numerator, lo.denominator, hi.numerator, \
        hi.denominator
    A, B, C, D = 1, 0, 0, 1
    while True:
        a, r = divmod(p0, q0)
        if r == 0 or (a + 1) * q1 <= p1:
            # an integer lies in [lo, hi]; the smallest one is simplest
            y = a if r == 0 else a + 1
            return Q(sign * (A * y + B), C * y + D)
        # lo < a + 1/y with y in [1/(hi - a), 1/(lo - a)]
        p0, q0, p1, q1 = q1, p1 - a * q1, q0, r
        A, B, C, D = A * a + B, A, C * a + D, C
