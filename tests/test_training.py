"""Training energy fraction: closed form against numeric search."""

import math
from fractions import Fraction

import numpy as np
import pytest

from effcap_kit import (
    LinkConfig,
    effective_snr,
    rho_opt_closed_form,
    rho_opt_numeric,
)


def make_cfg(snr, t=2e-3, b=1e5, gamma=1.0):
    return LinkConfig(t, b, 1.0, snr * b, gamma)


def test_closed_form_matches_numeric_search():
    # the numeric route maximizes effective_snr directly, with no
    # knowledge of the closed form
    for snr in np.geomspace(1e-6, 1e3, 100):
        cfg = make_cfg(snr)
        closed = rho_opt_closed_form(cfg).rho_opt
        numeric = rho_opt_numeric(cfg)
        assert abs(closed - numeric) <= 1e-9, f"snr={snr}"


def test_closed_form_matches_numeric_other_geometry():
    for snr in (1e-3, 1.0, 100.0):
        cfg = make_cfg(snr, t=5e-3, b=2e6, gamma=2.5)
        closed = rho_opt_closed_form(cfg).rho_opt
        numeric = rho_opt_numeric(cfg)
        assert abs(closed - numeric) <= 1e-9


def test_low_snr_limit_half():
    # as the SNR vanishes the split tends to half pilot, half data
    cfg = make_cfg(1e-8)
    assert rho_opt_closed_form(cfg).rho_opt == pytest.approx(0.5, abs=1e-3)


def test_high_snr_large_frame_value():
    # hand-derived point: snr=1e6 with TB=2e4 gives a small fraction
    cfg = make_cfg(1e6, t=2e-3, b=1e7)
    assert rho_opt_closed_form(cfg).rho_opt == pytest.approx(0.007021, abs=5e-4)


def test_eta_high_snr_limit():
    # eta -> 1/(TB-2) as snr grows without bound
    cfg = make_cfg(1e8, t=2e-3, b=1e5)
    tb = cfg.symbols_per_frame
    assert rho_opt_closed_form(cfg).eta == pytest.approx(1.0 / (tb - 2.0), rel=1e-4)


def test_rho_opt_nonincreasing_in_snr():
    snrs = np.geomspace(1e-6, 1e6, 60)
    rhos = [rho_opt_closed_form(make_cfg(s)).rho_opt for s in snrs]
    assert all(a >= b - 1e-15 for a, b in zip(rhos, rhos[1:]))


def test_rho_opt_in_open_interval():
    for snr in np.geomspace(1e-6, 1e6, 25):
        rho = rho_opt_closed_form(make_cfg(snr)).rho_opt
        assert 0.0 < rho < 1.0


def test_solution_is_self_consistent():
    # rho_opt must reproduce itself from the reported eta, and the
    # reported snr_eff_opt must match a direct evaluation
    cfg = make_cfg(0.3)
    sol = rho_opt_closed_form(cfg)
    rebuilt = math.sqrt(sol.eta * (sol.eta + 1.0)) - sol.eta
    assert sol.rho_opt == pytest.approx(rebuilt, rel=1e-12)
    direct = effective_snr(cfg, sol.rho_opt).effective_snr
    assert sol.snr_eff_opt == pytest.approx(direct, rel=1e-12)


def test_optimum_beats_neighbors():
    cfg = make_cfg(0.05)
    sol = rho_opt_closed_form(cfg)
    best = effective_snr(cfg, sol.rho_opt).effective_snr
    for off in (-1e-4, 1e-4, -0.01, 0.01):
        rho = sol.rho_opt + off
        if 0.0 < rho < 1.0:
            assert effective_snr(cfg, rho).effective_snr <= best + 1e-15


def test_eta_survives_an_overflowing_product():
    # gamma TB SNR (TB - 2) overflows here while eta is about 5e-304; the
    # product form gave eta = 0 and a ZeroDivisionError
    cfg = make_cfg(0.01, b=1e308)
    tb = cfg.symbols_per_frame
    gts = Fraction(cfg.fading_variance * tb * 0.01)
    want = (gts + Fraction(tb) - 1) / (gts * (Fraction(tb) - 2))
    sol = rho_opt_closed_form(cfg)
    assert sol.eta == pytest.approx(float(want), rel=1e-14, abs=0.0)
    assert 0.0 < sol.rho_opt < 1.0 and math.isfinite(sol.snr_eff_opt)
