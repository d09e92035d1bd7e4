import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from carnotlab.core import BathSpec, dressed_rates
from carnotlab.dynamics import DEFAULT_SAMPLES
from carnotlab.presets import get_preset
from carnotlab.thermo import sweep


@pytest.fixture(scope="session")
def hot_bath():
    return BathSpec(temperature=8.0, coupling=0.05)


@pytest.fixture(scope="session")
def cold_bath():
    return BathSpec(temperature=5.0, coupling=0.05)


@pytest.fixture(scope="session")
def eq6_sweep():
    """Cycle-time sweep of the population-matched preset, shared by the
    transition/max-power/friction criteria."""
    taus = [14.0, 16.0, 18.0, 20.0, 23.0, 26.0, 30.0, 33.0, 36.0, 40.0, 44.0,
            52.0, 62.0, 75.0, 100.0, 140.0, 200.0, 280.0, 400.0]
    return sweep(get_preset("carnot-shortcut"), "cycle_time", taus)


@pytest.fixture(scope="session")
def literal_sweep():
    taus = [10.0, 15.0, 20.0, 24.0, 28.0, 33.0, 38.0, 44.0, 52.0, 60.0]
    return sweep(get_preset("table1-literal"), "cycle_time", taus)


def zero_crossings(x, y):
    """Interpolated zero crossings of y(x) over finite samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = []
    for i in range(len(y) - 1):
        if np.isfinite(y[i]) and np.isfinite(y[i + 1]) and y[i] * y[i + 1] < 0:
            frac = y[i] / (y[i] - y[i + 1])
            out.append(x[i] + frac * (x[i + 1] - x[i]))
    return out


def propagate_ste_beta(beta0, protocol, bath):
    """Reduced exponential-state dynamics along an open stroke.

    Integrates beta_dot = k_down (e^beta - 1) + k_up (e^-beta - 1) with the
    instantaneous rates of the stroke protocol; for a designed stroke this
    reproduces ln y(t).  Returns (times, beta_values) at ``DEFAULT_SAMPLES``
    uniform times.
    """
    def rhs(t, y):
        w = float(protocol.omega(t))
        k_down, k_up, _ = dressed_rates(w, float(protocol.omega_dot(t)) / w**2,
                                        bath)
        return [k_down * math.expm1(y[0]) + k_up * math.expm1(-y[0])]

    times = np.linspace(0.0, protocol.duration, DEFAULT_SAMPLES)
    sol = solve_ivp(rhs, (0.0, protocol.duration), [beta0], method="DOP853",
                    rtol=1e-10, atol=1e-12, t_eval=times)
    assert sol.success, sol.message
    return times, sol.y[0]
