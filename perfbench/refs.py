"""Reference values for the benchmark's checks, computed apart from hhverify.

Nothing here calls the package.  Smooth integrands are handled in mpmath at
``DPS`` digits, with closed-form antiderivatives of f/t^2 where the source
is one of the benchmark's expressions.  Kinked inputs (f(t) = G(1/t) with G
piecewise linear) are integrated exactly: int f/t^2 dt = int G(u) du with
u = 1/t, summed piece by piece in rational arithmetic from the public
``knots``, ``values`` and ``slopes`` fields.  Integrals with no closed form
here use mpmath quadrature split at every kink.

Every chain reference follows the derived-corrected display of the chain,
as written in the paper's derivations, not the evaluator's code.
"""

from __future__ import annotations

import bisect
from fractions import Fraction

import mpmath

DPS = 30
mp = mpmath.mp

# h name -> (h, h(1/2), int_0^1 h) for the weights the workloads use
H_REFS = {
    "t": (lambda s: s, lambda: mp.mpf(1) / 2, lambda: mp.mpf(1) / 2),
    "sqrt(t)": (mpmath.sqrt, lambda: mpmath.sqrt(mp.mpf(1) / 2), lambda: mp.mpf(2) / 3),
    "1": (lambda s: mp.mpf(1), lambda: mp.mpf(1), lambda: mp.mpf(1)),
}

# source -> (f, antiderivative of f(t)/t^2)
_SMOOTH = {
    "1": (lambda t: mp.mpf(1), lambda t: -1 / t),
    "3": (lambda t: mp.mpf(3), lambda t: -3 / t),
    "1/x": (lambda t: 1 / t, lambda t: -1 / (2 * t * t)),
    "x": (lambda t: t, lambda t: mpmath.log(abs(t))),
    "x^2": (lambda t: t * t, lambda t: t),
    "exp(x)": (mpmath.exp, lambda t: mpmath.ei(t) - mpmath.exp(t) / t),
    "-ln(x)": (lambda t: -mpmath.log(t), lambda t: (mpmath.log(t) + 1) / t),
}


def source_function(source: str):
    """An mpmath evaluator for a source in the package's expression grammar,
    by translation to Python syntax (``^`` -> ``**``, ``ln`` -> ``log``)."""
    code = compile(source.replace("^", "**").replace("ln(", "log("), "<expr>", "eval")
    names = {"log": mpmath.log, "exp": mpmath.exp, "abs": abs, "min": min, "max": max}

    def f(t):
        return eval(code, {"__builtins__": {}}, dict(names, x=mp.mpf(t)))

    return f


def reflect(a, b, t):
    return a * b * t / ((a + b) * t - a * b)


class SmoothRef:
    """f given by one of the benchmark's smooth sources."""

    def __init__(self, source: str):
        self.f, self._antideriv = _SMOOTH[source]

    def weighted(self, p, q):
        """int_p^q f(t)/t^2 dt."""
        return self._antideriv(mp.mpf(q)) - self._antideriv(mp.mpf(p))

    exact_weighted = weighted

    def breaks(self, a, b):
        return []


class PiecewiseRef:
    """f(t) = G(1/t), G linear between knots and continued by the end
    segments' slopes, from the public fields of the program's function."""

    def __init__(self, fn):
        self.knots = [Fraction(k) for k in fn.knots]
        self.values = [Fraction(v) for v in fn.values]
        self.slopes = [Fraction(s) for s in fn.slopes]
        self._kfloat = list(fn.knots)
        # Phi(knots[i]) with Phi(knots[0]) = 0, Phi the antiderivative of G
        cum = [Fraction(0)]
        for i in range(len(self.slopes) - 1):
            w = self.knots[i + 1] - self.knots[i]
            cum.append(cum[-1] + self.values[i] * w + self.slopes[i] * w * w / 2)
        self._cum = cum
        with mp.workdps(DPS + 10):
            self._mp = [mp.mpf(k.numerator) / k.denominator for k in self.knots]

    def _piece(self, u) -> int:
        i = bisect.bisect_right(self._kfloat, float(u)) - 1
        return min(max(i, 0), len(self.slopes) - 1)

    def _phi_exact(self, u: Fraction) -> Fraction:
        i = self._piece(u)
        w = u - self.knots[i]
        return self._cum[i] + self.values[i] * w + self.slopes[i] * w * w / 2

    def _phi(self, u):
        i = self._piece(u)
        w = u - self._mp[i]
        v, s = self.values[i], self.slopes[i]
        return (
            mp.mpf(self._cum[i].numerator) / self._cum[i].denominator
            + (mp.mpf(v.numerator) / v.denominator) * w
            + (mp.mpf(s.numerator) / s.denominator) * w * w / 2
        )

    def f(self, t):
        u = 1 / mp.mpf(t)
        i = self._piece(u)
        v, s = self.values[i], self.slopes[i]
        return mp.mpf(v.numerator) / v.denominator + (mp.mpf(s.numerator) / s.denominator) * (u - self._mp[i])

    def exact_weighted(self, p, q):
        """int_p^q f(t)/t^2 dt = int_{1/q}^{1/p} G(u) du, exactly, for float p, q."""
        value = self._phi_exact(1 / Fraction(p)) - self._phi_exact(1 / Fraction(q))
        return mp.mpf(value.numerator) / value.denominator

    def weighted(self, p, q):
        """The same integral in mpmath arithmetic, for use inside quadrature."""
        return self._phi(1 / mp.mpf(p)) - self._phi(1 / mp.mpf(q))

    def breaks(self, a, b):
        """Abscissae in (a, b) where f or f(r(.)) has a kink."""
        out = []
        for k in self._mp[1:-1]:
            t = 1 / k
            for s in (t, reflect(a, b, t)):
                if a < s < b:
                    out.append(s)
        return out


def _quad(fn, a, b, breaks=()):
    pts = sorted({mp.mpf(a), mp.mpf(b), *breaks})
    return mpmath.quad(fn, pts)


def _cached(fn):
    """Memoise a reference integral per (f, a, b, ...): the workloads ask for
    the same one from several chains."""
    cache = {}

    def get(ref, *args):
        key = (id(ref), *args)
        if key not in cache:
            cache[key] = (ref, fn(ref, *args))
        return cache[key][1]

    return get


@_cached
def _sym_integral(ref, a, b):
    """int_a^b (f(t) + f(r(t))) dt."""
    return _quad(lambda t: ref.f(t) + ref.f(reflect(a, b, t)), a, b, ref.breaks(a, b))


@_cached
def _double_mean(ref, a, b):
    """mean over x in [a, b] of [abx/(2ab-(a+b)x)] * int_x^{r(x)} f/t^2;
    split at the harmonic midpoint, where the factors are 0 and infinity."""
    xstar = 2 * a * b / (a + b)

    def g(x):
        return a * b * x / (2 * a * b - (a + b) * x) * ref.weighted(x, reflect(a, b, x))

    return _quad(g, a, b, [xstar, *ref.breaks(a, b)]) / (b - a)


@_cached
def _h_weight_integral(ref, a, b, h):
    """int_a^b h(w1(t)) + h(w2(t)) dt, (w1, w2) the harmonic barycentric
    weights of t; independent of f, so cached under the unit reference."""
    h_fn = H_REFS[h][0]

    def weight(t):
        w1 = b * (a - t) / (t * (a - b))
        return h_fn(w1) + h_fn(1 - w1)

    return _quad(weight, a, b)


def chain_reference(chain: str, ref, interval, *, x=None, y=None, h=None):
    """Reference values of the integral terms of one chain, one list per
    report, aligned with the report's terms; None marks a term without an
    integral, which the checks leave alone.  The t4 partner g is f itself."""
    with mp.workdps(DPS):
        a, b = mp.mpf(interval.a), mp.mpf(interval.b)
        scale = a * b / (b - a)

        if chain == "t1":
            return [[None, scale * ref.exact_weighted(interval.a, interval.b), None]]
        if chain in ("t2", "t6"):
            return [[None, None, None]]
        if chain in ("t3", "t5"):
            return [[None, _split_mean(ref, a, b, x, y), None]]
        if chain == "r3":
            return [[None, None, _split_mean(ref, a, b, x, y), None]]
        if chain == "r2":
            xm = mp.mpf(x)
            coef = a * b * xm / (2 * a * b - (a + b) * xm)
            return [[None, coef * ref.weighted(xm, reflect(a, b, xm)), None]]
        if chain == "r4":
            right = _sym_integral(ref, a, b) / (2 * (b - a))
            if h is not None:
                right *= 2 * H_REFS[h][2]()
            return [[None, _double_mean(ref, a, b), right]]
        if chain == "t4":
            g = ref
            i_f = scale * ref.exact_weighted(interval.a, interval.b)
            i_g = scale * g.exact_weighted(interval.a, interval.b)
            avg_f = (ref.f(a) + ref.f(b)) / 2
            avg_g = (g.f(a) + g.f(b)) / 2
            f_mid = ref.f(2 * a * b / (a + b))
            w = scale * _quad(
                lambda t: (ref.f(t) + ref.f(reflect(a, b, t))) * g.f(t) / (2 * t * t),
                a, b, [*ref.breaks(a, b), *g.breaks(a, b)],
            )
            lower = avg_f * i_g + avg_g * i_f - avg_f * avg_g
            upper = avg_g * i_f + f_mid * i_g - f_mid * avg_g
            return [[lower, w], [w, upper]]
        if chain == "c1":
            # the integration weight is w = 1 in every workload
            f_mid = ref.f(2 * a * b / (a + b))
            avg_f = (ref.f(a) + ref.f(b)) / 2
            return [[
                f_mid / (2 * H_REFS[h][1]()) * (b - a),
                _sym_integral(ref, a, b) / 2,
                avg_f * _h_weight_integral(None, a, b, h),
            ]]
        raise ValueError(f"no reference for chain {chain!r}")


def _split_mean(ref, a, b, x, y):
    """(xy/(2(y-x))) * [int_x^y f/t^2 + int_{r(y)}^{r(x)} f/t^2]."""
    xm, ym = mp.mpf(x), mp.mpf(y)
    coef = xm * ym / (2 * (ym - xm))
    return coef * (ref.exact_weighted(x, y) + ref.weighted(reflect(a, b, ym), reflect(a, b, xm)))


def corpus_reference(source: str, a: float, b: float) -> dict:
    """For a corpus entry: (ab/(b-a)) int_a^b f/t^2, and whether the
    symmetric part (f + f o r)/2 is constant on [a, b], which is the case
    exactly when it is harmonic affine (a symmetric alpha + beta/t has
    beta = 0)."""
    f = source_function(source)
    with mp.workdps(DPS):
        am, bm = mp.mpf(a), mp.mpf(b)
        mean = am * bm / (bm - am) * mpmath.quad(lambda t: f(t) / (t * t), [am, bm])
        sym = [(f(t) + f(reflect(am, bm, t))) / 2 for t in mpmath.linspace(am, bm, 9)]
        spread = max(abs(v - sym[0]) for v in sym)
        constant = spread <= mp.mpf(10) ** (-20) * max(1, abs(sym[0]))
    return {"t1_mean": float(mean), "sym_constant": bool(constant)}
