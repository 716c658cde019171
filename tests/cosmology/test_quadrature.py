"""The kick/drift quadrature: QUADPACK's 21-point Gauss–Kronrod first
pass, which must return ``scipy.integrate.quad``'s value bit for bit and
fall back to quad itself whenever that one pass is not enough."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given
from hypothesis import strategies as st

from repro.cosmology.expansion import Expansion, _quad
from repro.cosmology.params import EINSTEIN_DE_SITTER, WMAP7, CosmologyParams

OPEN = CosmologyParams(omega_m=0.3, omega_l=0.6)  # omega_k = 0.1

# the uniform benchmark workloads' schedule: 40 geometric steps in the
# scale factor from 1/401 to 1/201, two PP subcycles per step
A_START = 1.0 / 401.0
A_RATIO = (401.0 / 201.0) ** (1.0 / 40.0)


def schedule_intervals(n_steps=40, n_sub=2):
    """Every ``(a1, a2)`` a step asks the stepper for: the PM half
    kicks, and each subcycle's half kicks and drift."""
    out = []
    for k in range(n_steps):
        t1, t2 = A_START * A_RATIO**k, A_START * A_RATIO ** (k + 1)
        tm = 0.5 * (t1 + t2)
        out += [(t1, tm), (tm, t2)]
        edges = np.linspace(t1, t2, n_sub + 1)
        for s in range(n_sub):
            s1, s2 = float(edges[s]), float(edges[s + 1])
            sm = 0.5 * (s1 + s2)
            out += [(s1, sm), (sm, s2), (s1, s2)]
    return out


def integrands(e: Expansion):
    """The integrands of ``drift_factor``, ``kick_factor`` and
    ``time_between``, with the method that integrates each."""
    return [
        (lambda a: 1.0 / (a**3 * float(e.E(a))), e.drift_factor),
        (lambda a: 1.0 / (a**2 * float(e.E(a))), e.kick_factor),
        (lambda a: float(e.dtda(a)), e.time_between),
    ]


@pytest.fixture
def quad_calls(monkeypatch):
    """Intervals handed to ``scipy.integrate.quad`` (the fallback)."""
    calls = []
    real = scipy.integrate.quad

    def counting(f, a, b, *args, **kwargs):
        calls.append((a, b))
        return real(f, a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting)
    return calls


def assert_same_as_quad(e, a1, a2):
    for f, method in integrands(e):
        want = scipy.integrate.quad(f, a1, a2)
        assert _quad(f, a1, a2) == want
        assert method(a1, a2) == want[0]


@pytest.mark.parametrize("params", [WMAP7, OPEN], ids=["wmap7", "open"])
def test_schedule_matches_quad_without_fallback(params, quad_calls):
    e = Expansion(params)
    for a1, a2 in schedule_intervals():
        for _, method in integrands(e):
            method(a1, a2)
    assert quad_calls == []
    for a1, a2 in schedule_intervals():
        assert_same_as_quad(e, a1, a2)


@given(
    a1=st.floats(1e-3, 1.0),
    ratio=st.floats(1.0, 1.5, exclude_min=True),
    params=st.sampled_from([WMAP7, OPEN]),
)
def test_short_intervals_match_quad(a1, ratio, params):
    assert_same_as_quad(Expansion(params), a1, a1 * ratio)


def test_reversed_and_empty_intervals_match_quad():
    e = Expansion(WMAP7)
    assert_same_as_quad(e, 0.02, 0.01)
    assert_same_as_quad(e, 0.01, 0.01)


def eds_kick(a1, a2):
    # 2 (sqrt(a2) - sqrt(a1)) without the cancellation
    return 2.0 * (a2 - a1) / (math.sqrt(a2) + math.sqrt(a1))


def eds_drift(a1, a2):
    # 2 (1/sqrt(a1) - 1/sqrt(a2)) without the cancellation
    return eds_kick(a1, a2) / (math.sqrt(a1) * math.sqrt(a2))


@given(a1=st.floats(1e-3, 1.0), ratio=st.floats(1.0, 1.5, exclude_min=True))
def test_einstein_de_sitter_closed_form(a1, ratio):
    """An oracle that does not depend on scipy."""
    e = Expansion(EINSTEIN_DE_SITTER)
    a2 = a1 * ratio
    assert e.kick_factor(a1, a2) == pytest.approx(eds_kick(a1, a2), rel=1e-14)
    assert e.drift_factor(a1, a2) == pytest.approx(eds_drift(a1, a2), rel=1e-14)


def test_einstein_de_sitter_closed_form_on_the_schedule():
    e = Expansion(EINSTEIN_DE_SITTER)
    for a1, a2 in schedule_intervals():
        assert e.kick_factor(a1, a2) == pytest.approx(eds_kick(a1, a2), rel=1e-14)
        assert e.drift_factor(a1, a2) == pytest.approx(eds_drift(a1, a2), rel=1e-14)


def test_wide_interval_falls_back_to_quad(quad_calls):
    e = Expansion(WMAP7)
    f, method = integrands(e)[1]
    got = method(1e-3, 1.0)
    assert quad_calls == [(1e-3, 1.0)]
    assert got == scipy.integrate.quad(f, 1e-3, 1.0)[0]
