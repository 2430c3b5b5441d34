"""Fixtures for the tests that compare with the benchmark's reference values."""

import functools
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="session")
def refs():
    """``perfbench/refs.py``, which computes every chain's reference values
    apart from the package; a test that asks for it skips without mpmath."""
    pytest.importorskip("mpmath")
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(PERFBENCH)
        import refs
    return refs


@pytest.fixture(scope="session")
def ref_of(refs):
    """The reference object of a function: ``refs.SmoothRef(source)`` for a
    source, ``refs.PiecewiseRef(f)`` for a kinked function ``f``.  One
    object per source or function, since refs caches its integrals per
    object."""
    smooth, piecewise = functools.cache(refs.SmoothRef), functools.cache(refs.PiecewiseRef)
    return lambda f: smooth(f) if isinstance(f, str) else piecewise(f)


@pytest.fixture(scope="session")
def c1_printed_right(refs):
    """c1's right term as printed, for f and the weight w given by their
    reference objects (see ``ref_of``), on ``interval``, with the weight
    function named ``h`` (a name of ``refs.H_REFS``):
    (f(a) + f(b))/2 * int_a^b h(w1(t)) * (w(t) + w(r(t))) dt, w1 the first
    harmonic barycentric weight of t.  ``refs.chain_reference`` gives the
    derived term only, so this is mpmath quadrature split at the kinks of w
    and their reflections; the integral does not depend on f and is cached."""
    import mpmath

    @functools.cache
    def integral(w, a, b, h):
        h_fn = refs.H_REFS[h][0]

        def integrand(t):
            return h_fn(b * (a - t) / (t * (a - b))) * (w.f(t) + w.f(refs.reflect(a, b, t)))

        return mpmath.quad(integrand, sorted({a, b, *w.breaks(a, b)}))

    def right(f, w, interval, h):
        with mpmath.mp.workdps(refs.DPS):
            a, b = mpmath.mpf(interval.a), mpmath.mpf(interval.b)
            return (f.f(a) + f.f(b)) / 2 * integral(w, a, b, h)

    return right


@pytest.fixture(scope="session")
def c1_terms_with_kinked_weight(refs, c1_printed_right):
    """The c1 terms in ``variant`` for f and a kinked weight w, both
    reference objects (see ``ref_of``), on ``interval``, one list per weight
    function named in ``hs`` (names of ``refs.H_REFS``).
    ``refs.chain_reference`` takes w = 1, so these come from mpmath
    quadrature split at the kinks of w: f is smooth, so no integrand but
    the printed right term's kinks at their reflections."""
    import mpmath

    def terms(f, w, interval, hs, variant="derived_corrected"):
        with mpmath.mp.workdps(refs.DPS):
            a, b = mpmath.mpf(interval.a), mpmath.mpf(interval.b)
            kinks = (mpmath.mpf(k.denominator) / k.numerator for k in w.knots[1:-1])
            points = sorted({a, b, *(t for t in kinks if a < t < b)})
            f_mid, avg_f = f.f(2 * a * b / (a + b)), (f.f(a) + f.f(b)) / 2
            int_w = mpmath.quad(w.f, points)
            middle = mpmath.quad(lambda t: w.f(t) * (f.f(t) + f.f(refs.reflect(a, b, t))), points) / 2

            def h_weighted(h, t):
                w1 = b * (a - t) / (t * (a - b))
                return (refs.H_REFS[h][0](w1) + refs.H_REFS[h][0](1 - w1)) * w.f(t)

            def right(h):
                if variant == "as_printed":
                    return c1_printed_right(f, w, interval, h)
                return avg_f * mpmath.quad(lambda t: h_weighted(h, t), points)

            return [[f_mid / (2 * refs.H_REFS[h][1]()) * int_w, middle, right(h)] for h in hs]

    return terms
