"""Singular moduli, the j-invariant and the sextic's quarter modulus against
mpmath at 30 digits: k_r as theta2^2/theta3^2 at the nome e^(-pi sqrt r)
(jtheta), j as 1728 kleinj(i sqrt r), and the quarter modulus and the
lambda-line inversion as roots of their defining relations (findroot).

The bounds for k and j grow with the index: both depend on r through
e^(-pi sqrt r), so a relative rounding of the argument pi sqrt r, which no
float evaluation avoids, moves them by pi sqrt r / 4 and 2 pi sqrt r ulps.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrcflab.modular import (_T_RIDGE, _quarter_modulus, invert_lambda_j,
                             klein_j, singular_modulus)

mp = pytest.importorskip("mpmath")

ORACLE = settings(max_examples=40, deadline=None)
LOG_INDEX = st.floats(math.log(1e-2), math.log(1e2))
ULP = 1e-15


def _index_examples(test):
    for r in (1.0, 2.0, 4.0, 1e3, 1e-3):
        test = example(math.log(r))(test)
    return test


def _modulus(r):
    with mp.workdps(30):
        q = mp.exp(-mp.pi * mp.sqrt(r))
        return (mp.jtheta(2, 0, q) / mp.jtheta(3, 0, q)) ** 2


def _j(r):
    with mp.workdps(30):
        return (1728 * mp.kleinj(mp.mpc(0, mp.sqrt(r)))).real


@ORACLE
@given(LOG_INDEX)
@_index_examples
def test_singular_modulus_against_jtheta(log_r):
    r = math.exp(log_r)
    expected = _modulus(r)
    bound = ULP * (4.0 + math.pi * math.sqrt(max(r, 1.0)))
    assert abs(singular_modulus(r) - expected) <= bound * expected


@ORACLE
@given(LOG_INDEX)
@_index_examples
def test_klein_j_against_kleinj(log_r):
    r = math.exp(log_r)
    expected = _j(r)
    bound = ULP * (4.0 + 4.0 * math.pi * math.sqrt(max(r, 1.0 / r)))
    assert abs(klein_j(r) - expected) <= bound * expected


def _quarter_modulus_reference(j, t):
    """The root of 16 (1+14t+t^2)^3 / (t (1-t)^4) = j next to t, solved in
    ln t at 30 digits."""
    with mp.workdps(30):
        def gap(u):
            s = mp.exp(u)
            return mp.log(16 * (1 + 14 * s + s * s) ** 3 / (s * (1 - s) ** 4)) - mp.log(j)
        return mp.exp(mp.findroot(gap, mp.log(t)))


@ORACLE
@given(st.floats(-1.0, 7.0))
@example(-1.0)
@example(7.0)
def test_quarter_modulus_roots_against_findroot(log_excess):
    j = 1728.0 + 10.0 ** log_excess
    _check_quarter_modulus_roots(j)


@pytest.mark.parametrize("j", [1728.0 * (1.0 + 1e-12), 1730.0, 1e12, 1e30])
def test_quarter_modulus_roots_at_the_ends(j):
    _check_quarter_modulus_roots(j)


def _check_quarter_modulus_roots(j):
    # the one root taken is the smaller t, the index-r >= 1 preimage
    t = _quarter_modulus(j)
    with mp.workdps(30):
        ref = _quarter_modulus_reference(j, t)
        assert ref < (3 - 2 * mp.sqrt(2)) ** 2
        assert abs(t - ref) <= 1e-14 * ref
    assert t < _T_RIDGE


def _lambda_reference(j, lam):
    """The root of 256 (l^2-l+1)^3 / (l^2 (1-l)^2) = j next to lam, solved in
    ln l at 30 digits."""
    with mp.workdps(30):
        def gap(u):
            s = mp.exp(u)
            return mp.log(256 * (s * s - s + 1) ** 3 / (s * s * (1 - s) ** 2)) - mp.log(j)
        return mp.exp(mp.findroot(gap, mp.log(lam)))


@ORACLE
@given(st.floats(-1.0, 300.0))
@example(-1.0)
@example(33.0)    # j0 = 1e33, past the former fixed bracket [1e-15, 0.5]
@example(300.0)
def test_invert_lambda_j_against_findroot(log_excess):
    j = 1728.0 + 10.0 ** log_excess
    lam = invert_lambda_j(j)
    with mp.workdps(30):
        ref = _lambda_reference(j, lam)
        assert ref < 0.5
        assert abs(lam - ref) <= 1e-14 * ref


def test_invert_lambda_j_at_the_ridge():
    assert invert_lambda_j(1728.0) == 0.5
