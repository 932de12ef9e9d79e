"""An exact oracle for the discriminant condition Q > 0 on the whole circle.

A spec's coefficients are floats, that is dyadic rationals, and the
weight->profile map divides by 1 - ik, so Q = (gF)' + F^2 - F'^2 has
exact rational coefficients.  Writing Q = sum_{|k| <= N} q_k e^{ikt} and
substituting x = tan(t/2), e^{ikt} = (1 + ix)^{N+k} (1 - ix)^{N-k} / (1 + x^2)^N,
so (1 + x^2)^N Q is a real polynomial P of degree 2N whose leading
coefficient is Q(pi).  Q > 0 on the circle exactly when Q(pi) > 0 and P
has no real root, which Sturm's theorem (`Poly.count_roots`) decides.
The cost grows fast with N and with the size of the rationals (0.06 s at
N = 8; 2 s at N = 16 for one harmonic, 14 s for eight dense ones), so the
oracle stops there.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import QQ, QQ_I, Poly, symbols

from circleloop import FourierSeries, build_loop_spec, solve_a0, solve_g_const
from circleloop.specfile import load_spec_file

from conftest import near_boundary_spec

SPEC_DIR = Path(__file__).resolve().parent.parent / "specs"
#: the largest degree of Q the oracle decides
MAX_DEGREE = 16

X = symbols("x")


def _exact(value: float):
    f = Fraction(value)
    return QQ_I(QQ(f.numerator, f.denominator), 0)


def exponential_coefficients(series: FourierSeries) -> dict:
    """{k: c_k} with series(t) = sum_k c_k e^{ikt}, exact: c_{+-k} = (cos_k -+ i sin_k)/2."""
    c = {0: _exact(series.a0)}
    half = QQ_I(QQ(1, 2), 0)
    for k, (a, b) in enumerate(zip(series.cos, series.sin), 1):
        c[k] = (_exact(a) - QQ_I(0, 1) * _exact(b)) * half
        c[-k] = (_exact(a) + QQ_I(0, 1) * _exact(b)) * half
    return c


def _product(p: dict, q: dict) -> dict:
    out: dict = {}
    for j, a in p.items():
        for k, b in q.items():
            out[j + k] = out.get(j + k, QQ_I(0, 0)) + a * b
    return out


def _derivative(p: dict) -> dict:
    return {k: QQ_I(0, k) * c for k, c in p.items()}


def exact_q(weight: FourierSeries, g: FourierSeries) -> dict:
    """Q's exponential coefficients, from the weight and the shear taken as exact rationals."""
    f = {k: c / QQ_I(1, -k) for k, c in exponential_coefficients(weight).items()}
    fp = _derivative(f)
    q = _derivative(_product(exponential_coefficients(g), f))
    for k, c in _product(f, f).items():
        q[k] = q.get(k, QQ_I(0, 0)) + c
    for k, c in _product(fp, fp).items():
        q[k] = q[k] - c
    return q


def q_positive(weight: FourierSeries, g: FourierSeries) -> bool:
    """Q > 0 on the whole circle, decided exactly; ValueError beyond degree MAX_DEGREE."""
    q = exact_q(weight, g)
    n = max(map(abs, q))
    if n > MAX_DEGREE:
        raise ValueError(f"Q has degree {n}; the exact oracle stops at {MAX_DEGREE}")
    plus = Poly([QQ_I(0, 1), QQ_I(1, 0)], X, domain=QQ_I)
    minus = Poly([QQ_I(0, -1), QQ_I(1, 0)], X, domain=QQ_I)
    plus_pow, minus_pow = [plus**0], [minus**0]
    for _ in range(2 * n):
        plus_pow.append(plus_pow[-1] * plus)
        minus_pow.append(minus_pow[-1] * minus)
    p = Poly(0, X, domain=QQ_I)
    for k, c in q.items():
        p += (plus_pow[n + k] * minus_pow[n - k]).mul_ground(c)
    coeffs = p.rep.to_list()
    assert all(c.y == 0 for c in coeffs)  # P is real
    real = Poly([c.x for c in coeffs], X, domain=QQ)
    at_pi = sum((c.x if k % 2 == 0 else -c.x) for k, c in q.items())
    return at_pi > 0 and real.count_roots() == 0


def discriminant_holds(spec) -> bool:
    """The package's discriminant condition: Q > delta_strict on the build grid."""
    return "discriminant" not in {f.condition for f in spec.report.failures}


#: every fixture whose Q has degree at most 8 (energy_probe's has 42)
SMALL_FIXTURES = ["corrupted", "even_psl2", "example", "example_shear", "inadmissible", "trivial"]


@pytest.mark.parametrize("name", SMALL_FIXTURES)
def test_fixture_verdicts_agree(name):
    doc = load_spec_file(SPEC_DIR / f"{name}.json")
    spec = build_loop_spec(doc.weight, doc.g)
    assert q_positive(doc.weight, doc.g) == discriminant_holds(spec)


def test_oracle_stops_beyond_degree_sixteen():
    doc = load_spec_file(SPEC_DIR / "energy_probe.json")
    with pytest.raises(ValueError, match="degree 42"):
        q_positive(doc.weight, doc.g)


def test_exact_coefficients_match_the_series():
    # the package's Q series is the float image of the exact one
    doc = load_spec_file(SPEC_DIR / "example_shear.json")
    spec = build_loop_spec(doc.weight, doc.g)
    series = spec.f_inv._admissibility(spec.g)
    exact = exponential_coefficients(series)
    for k, c in exact_q(doc.weight, doc.g).items():
        got = exact.get(k, QQ_I(0, 0))
        assert abs(float(c.x - got.x)) <= 1e-15 and abs(float(c.y - got.y)) <= 1e-15


@pytest.mark.parametrize(
    "delta",
    [
        pytest.param(
            1e-6,
            marks=pytest.mark.xfail(
                strict=True,
                reason="the grid verdict admits a Q whose true minimum, -1e-6, falls "
                "between its samples; ROADMAP item 2 certifies Q > 0 on the whole circle",
            ),
        ),
        -1e-6,
    ],
    ids=["above", "below"],
)
def test_near_boundary_k8(delta):
    # Q = 1 + (1 + delta) cos(8t + phi), a loop iff delta < 0
    spec = near_boundary_spec(delta, k=8)
    truth = q_positive(spec.weight, spec.g)
    assert truth == (delta < 0)
    assert discriminant_holds(spec) == truth


def _dyadic(k: int):
    return st.lists(st.integers(-16, 16), min_size=k, max_size=k).map(
        lambda xs: tuple(x / 32 for x in xs)
    )


@st.composite
def small_dyadic_pair(draw):
    """Weight and shear with at most 2 harmonics each and coefficients j/32."""
    kf, kg = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    wc, ws, gc, gs = draw(_dyadic(kf)), draw(_dyadic(kf)), draw(_dyadic(kg)), draw(_dyadic(kg))
    return FourierSeries(solve_a0(wc, ws), wc, ws), FourierSeries(solve_g_const(gc), gc, gs)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pair=small_dyadic_pair())
def test_small_dyadic_specs_agree(pair):
    weight, g = pair
    spec = build_loop_spec(weight, g)
    # away from the boundary, where a grid of 4096 points decides Q > 0
    assume(abs(spec.report.q_min) > 1e-3)
    assert q_positive(weight, g) == discriminant_holds(spec)
