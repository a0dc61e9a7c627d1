import random
from fractions import Fraction as Q

import pytest

from thickset.errors import InputError
from thickset.scalars import (
    Interval,
    _pi_bounds,
    decimal_str,
    interval_atan,
    interval_ln,
    interval_sqrt,
    sqrt3,
    to_q,
)

from oracles import ref_simplest_between


# Independent oracle: digit-by-digit integer square root of 3 * 10^(2*digits),
# i.e. long division style, no dependence on the interval code.
def sqrt_digits_oracle(n: int, digits: int) -> Q:
    from math import isqrt

    scaled = n * 10 ** (2 * digits)
    return Q(isqrt(scaled), 10**digits)


SQRT3_40 = sqrt_digits_oracle(3, 40)  # floor of sqrt(3) to 40 decimals


class TestDecimalRoundTrip:
    def test_parse_exact(self):
        assert to_q("0.095") == Q(19, 200)
        assert to_q("1/3") == Q(1, 3)
        assert to_q("-0.25") == Q(-1, 4)

    def test_print_exact(self):
        assert decimal_str(Q(19, 200)) == "0.095"
        assert decimal_str(Q(1, 3)) == "1/3"
        assert decimal_str(Q(-5, 4)) == "-1.25"
        assert decimal_str(Q(7)) == "7"

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(2000):
            q = Q(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            assert to_q(decimal_str(q)) == q

    def test_floats_rejected(self):
        with pytest.raises(InputError):
            to_q(0.1)


class TestExactIdentities:
    def test_add_sub_mul_div_exact(self):
        rng = random.Random(11)
        for _ in range(2000):
            a = Q(rng.randint(-999, 999), rng.randint(1, 999))
            b = Q(rng.randint(-999, 999), rng.randint(1, 999))
            assert (a + b) - b == a
            if b != 0:
                assert (a * b) / b == a


class TestIntervalSqrt:
    def test_perfect_square(self):
        r = interval_sqrt(Interval.point(4), 30)
        assert r.lo == r.hi == 2

    def test_zero(self):
        r = interval_sqrt(Interval.point(0), 10)
        assert r.lo == r.hi == 0

    def test_sqrt3_enclosure(self):
        # long-division oracle brackets sqrt(3) in [SQRT3_40, SQRT3_40+1e-40];
        # the enclosure must cover that bracket's intersection with truth
        r = interval_sqrt(Interval.point(3), 60)
        assert r.lo <= SQRT3_40 + Q(1, 10**40) and r.hi >= SQRT3_40
        assert abs(r.mid - Q("1.7320508075688772")) < Q(1, 10**15)
        assert r.width <= Q(1, 2**60)

    def test_width_contract_point_inputs(self):
        for q, bits in [(Q(3), 60), (Q(1, 2), 40), (Q(7, 5), 80), (Q(10**6), 50)]:
            r = interval_sqrt(Interval.point(q), bits)
            assert r.width <= Q(1, 2**bits) * max(1, q)

    def test_monotone_refinement(self):
        prev = None
        for bits in [8, 16, 32, 64, 128, 200]:
            r = interval_sqrt(Interval.point(7), bits)
            if prev is not None:
                assert prev.lo <= r.lo and r.hi <= prev.hi
            prev = r

    def test_negative_rejected(self):
        with pytest.raises(InputError):
            interval_sqrt(Interval(Q(-1), Q(1)), 10)


class TestCompare:
    def test_trivial(self):
        low, high = Interval(Q(1), Q(2)), Interval(Q(9), Q(10))
        assert low.certainly_lt(high) and low.certainly_le(high)
        assert high.certainly_gt(low) and high.certainly_ge(low)
        assert not (high.certainly_lt(low) or low.certainly_gt(high))
        a, b = Interval(Q(0), Q(5)), Interval(Q(4), Q(6))
        for x, y in ((a, b), (b, a)):
            assert not (x.certainly_lt(y) or x.certainly_le(y)
                        or x.certainly_gt(y) or x.certainly_ge(y))

    def test_touching_endpoints(self):
        a, b = Interval(Q(1), Q(2)), Interval(Q(2), Q(3))
        assert a.certainly_le(b) and not a.certainly_lt(b)
        assert b.certainly_ge(a) and not b.certainly_gt(a)

    def test_sqrt3_vs_7_4(self):
        # squaring oracle: (7/4)^2 = 49/16 > 3, so sqrt(3) < 7/4
        assert Q(7, 4) ** 2 > 3
        r = interval_sqrt(Interval.point(3), 60)
        assert r.certainly_lt(Interval.point(Q(7, 4)))


class TestContainmentProperty:
    # Interval containment: f(t) in interval_f(x) for random rational t in x,
    # for f in {+, -, *, scale, sqrt}.  >= 10^4 samples across the suite.
    def test_containment(self):
        rng = random.Random(42)

        def rand_interval():
            a = Q(rng.randint(-400, 400), rng.randint(1, 60))
            w = Q(rng.randint(0, 200), rng.randint(1, 60))
            return Interval(a, a + w)

        def rand_in(iv):
            if iv.is_point():
                return iv.lo
            t = Q(rng.randint(0, 2**20), 2**20)
            return iv.lo + t * iv.width

        for _ in range(10_500):
            x, y = rand_interval(), rand_interval()
            t, u = rand_in(x), rand_in(y)
            for got, want in ((x + y, t + u), (x - y, t - u),
                              (x * y, t * u)):
                assert got.lo <= want <= got.hi
            s = Q(rng.randint(-50, 50), rng.randint(1, 20))
            scaled = x * s
            assert scaled.lo <= t * s <= scaled.hi
            if x.lo >= 0:
                root = interval_sqrt(x, 48)
                # verify sqrt(t) membership by squaring the endpoints
                assert root.lo * root.lo <= t <= root.hi * root.hi

    def test_division_containment(self):
        rng = random.Random(43)
        for _ in range(3000):
            a = Q(rng.randint(-300, 300), rng.randint(1, 40))
            b = Q(rng.randint(1, 300), rng.randint(1, 40))
            x = Interval(a, a + Q(rng.randint(0, 99), 17))
            y = Interval(b, b + Q(rng.randint(0, 99), 17))
            t = x.lo + (x.width * Q(rng.randint(0, 64), 64))
            u = y.lo + (y.width * Q(rng.randint(0, 64), 64))
            quotient = x / y
            assert quotient.lo <= t / u <= quotient.hi

    def test_division_by_zero_interval(self):
        with pytest.raises(InputError):
            Interval(Q(1), Q(2)) / Interval(Q(-1), Q(1))

    @pytest.mark.parametrize("divisor", [(-1, 1), (0, 0), (0, 1), (-1, 0)])
    def test_division_by_interval_holding_zero(self, divisor):
        with pytest.raises(InputError):
            Interval(Q(1), Q(2)) / Interval(*map(Q, divisor))

    def test_point_divisor_fast_path(self):
        # dividing by a point takes two quotients; the result is the
        # four-quotient form's, for either sign of the divisor
        rng = random.Random(44)
        for _ in range(2000):
            a = Q(rng.randint(-300, 300), rng.randint(1, 40))
            x = Interval(a, a + Q(rng.randint(0, 99), 17))
            d = Q(rng.choice((-1, 1)) * rng.randint(1, 300),
                  rng.randint(1, 40))
            o = Interval.point(d)
            quotients = (x.lo / o.lo, x.lo / o.hi, x.hi / o.lo, x.hi / o.hi)
            want = Interval(min(quotients), max(quotients))
            assert x / d == want
            assert x / Interval.point(d) == want


class TestLogAtanPi:
    def test_ln2(self):
        # oracle: 2^1000 bounds => 1000*ln2 against ln(2^1000) via digits of
        # the known value; simpler: exp-free cross-check via squaring:
        # ln 4 = 2 ln 2 must hold inside enclosures
        l2 = interval_ln(Interval.point(2), 80)
        l4 = interval_ln(Interval.point(4), 80)
        twice = l2 * 2
        assert twice.lo <= l4.hi and l4.lo <= twice.hi
        assert abs(l2.mid - Q("0.693147180559945")) < Q(1, 10**14)
        assert l2.width <= Q(1, 2**70)

    def test_log_ratio(self):
        # ln(3)/ln(9) = 1/2 exactly
        l3 = interval_ln(Interval.point(3), 90)
        l9 = interval_ln(Interval.point(9), 90)
        ratio = l3 / l9
        assert ratio.lo <= Q(1, 2) <= ratio.hi

    def test_ln_monotone_interval(self):
        iv = interval_ln(Interval(Q(2), Q(3)), 60)
        assert iv.lo <= Q("0.7") and Q("1.09") <= iv.hi
        assert iv.lo > Q("0.69")

    def test_pi(self):
        p = Interval(*_pi_bounds(80))
        assert abs(p.mid - Q("3.14159265358979324")) < Q(1, 10**15)
        assert p.width <= Q(1, 2**70)

    def test_atan(self):
        plo, phi = _pi_bounds(80)
        # atan(1) = pi/4 and atan(sqrt(3)) = pi/3, within enclosures
        for x, k in ((Interval.point(1), 4), (sqrt3(80), 3)):
            a = interval_atan(x, 80) * k
            assert a.lo <= phi and plo <= a.hi

    def test_ln_nonpositive(self):
        with pytest.raises(InputError):
            interval_ln(Interval(Q(0), Q(1)), 20)


class TestSqrt3:
    def test_more_bits_never_widen(self):
        prev = sqrt3(8)
        for bits in [16, 24, 32, 64, 128, 256]:
            cur = sqrt3(bits)
            assert prev.lo <= cur.lo and cur.hi <= prev.hi
            prev = cur

    def test_same_call_same_result(self):
        # a request answers at its own precision, whatever ran before
        from thickset.balls import hex_packing_example, yavicoli_thickness

        first = yavicoli_thickness(hex_packing_example(1), 32)
        sqrt3(256)
        assert sqrt3(128) == interval_sqrt(Interval.point(3), 128)
        assert yavicoli_thickness(hex_packing_example(1), 32) == first


class TestSimplestBetween:
    def test_known_values(self):
        from thickset.scalars import simplest_between

        assert simplest_between(Q(1, 3), Q(1, 2)) == Q(1, 2)
        assert simplest_between(Q(-1, 5), Q(1, 7)) == 0
        assert simplest_between(Q(7, 3), Q(8, 3)) == Q(5, 2)
        assert simplest_between(Q(3), Q(3)) == 3
        # a tight window around an eventually periodic witness point
        u = Q(-7, 120)
        assert simplest_between(u - Q(1, 3**20), u + Q(1, 3**20)) == u

    def test_is_minimal_denominator(self):
        from thickset.scalars import simplest_between

        rng = random.Random(31)
        for _ in range(400):
            lo = Q(rng.randint(-500, 500), rng.randint(1, 60))
            hi = lo + Q(rng.randint(1, 80), rng.randint(1, 60))
            best = simplest_between(lo, hi)
            assert lo <= best <= hi
            # brute force over smaller denominators finds nothing
            for den in range(1, best.denominator):
                lo_n = -(-lo.numerator * den // lo.denominator)  # ceil
                assert lo_n * hi.denominator > hi.numerator * den

    def test_matches_stern_brocot_oracle(self):
        from thickset.scalars import simplest_between

        rng = random.Random(7)
        for _ in range(1500):
            lo = Q(rng.randint(-300, 300), rng.randint(1, 300))
            hi = lo + rng.choice((Q(0), Q(1, rng.randint(1, 10**6)),
                                  Q(rng.randint(1, 300), rng.randint(1, 300))))
            assert simplest_between(lo, hi) == ref_simplest_between(lo, hi)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_fibonacci_neighbours_need_no_recursion(self, sign):
        # F(n+1)/F(n) and F(n+2)/F(n+1) are Farey neighbours whose
        # continued fractions have about n terms, all 1: the closed
        # interval's simplest point is the one over F(n), and any point
        # strictly between them is over at least F(n+2), the mediant's
        # denominator
        from thickset.scalars import simplest_between

        fib = [0, 1]
        while len(fib) < 3005:
            fib.append(fib[-1] + fib[-2])
        n = 3000
        near, far, mediant = (Q(fib[n + 1], fib[n]), Q(fib[n + 2], fib[n + 1]),
                              Q(fib[n + 3], fib[n + 2]))
        lo, hi = sorted((near, far))
        eps = Q(1, 10 * fib[n + 2] ** 2)
        for a, b, want in ((lo, hi, near), (lo + eps, hi - eps, mediant)):
            a, b = sorted((sign * a, sign * b))
            assert simplest_between(a, b) == sign * want \
                == ref_simplest_between(a, b)


class TestFloatEndpoints:
    # an Interval end refuses a float as to_q does, so no float reaches a
    # certified path through an Interval argument
    def test_interval_refuses_a_float_end(self):
        for lo, hi in ((0.2, 0.2), (Q(0), 0.5), (0.25, Q(1))):
            with pytest.raises(InputError, match="floats are not accepted"):
                Interval(lo, hi)

    def test_threshold_refuses_a_float_interval(self):
        from thickset.patterns_nd import threshold

        with pytest.raises(InputError, match="floats are not accepted"):
            threshold(Q(0), Q(1, 2), Interval(0.2, 0.2))

    def test_uniformity_refuses_a_float_interval(self):
        from thickset.balls import hex_packing_example, r_uniformity_check

        with pytest.raises(InputError, match="floats are not accepted"):
            r_uniformity_check(hex_packing_example(1),
                               Interval(0.26243, 0.26243))
