"""Independent oracles for the benchmark's checks.

The model equations are transcribed here from their definitions rather than
imported from ``dmlneuro``, and solved with ``scipy.optimize.brentq``:

- single cell: x' = x^2 (1 - x) - y + I,  y' = A e^(alpha x) - gamma y;
- the symmetric equilibria (x, y, x, y) of a pair solve the single-cell
  equation plus the coupling current at x_self = x_other = x, which is zero
  for the linear pair and sigma (v_s - x) / (1 + e^(-lam (x - q))) for the
  sigmoid pair;
- the Hopf threshold of a 2x2 block with trace tau and determinant delta is
  (2 / pi) arccos(tau / (2 sqrt(delta))); a pair takes the minimum over its
  in-phase and anti-phase blocks.

Run as a script with sigmoid strengths as arguments, it prints the fold
currents of the single cell and of those pairs as JSON, so that the benchmark
can query them without importing scipy into the process whose memory it
measures.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np
from scipy.optimize import brentq

A, ALPHA, GAMMA = 0.0041, 5.276, 0.3
V_S, LAM, Q = 2.0, 10.0, -0.25
WINDOW = (-1.5, 1.5)
SCAN_POINTS = 30_001  # derivative scan step 1e-4 on the window
# |g| at a critical point below this is a tangency (fold) root; it matches
# the fold tolerance on I that the package uses to label a twofold branch
FOLD_ATOL = 1e-12


def _logistic(u):
    return 0.5 * (1.0 + np.tanh(0.5 * u))


def local_current(x, sigma=0.0):
    """Voltage rate at a symmetric equilibrium without the drive I.

    Symmetric equilibria solve ``local_current(x, sigma) + I = 0``; the
    recovery variable there sits on its nullcline y = (A / gamma) e^(alpha x).
    """
    x = np.asarray(x, dtype=float)
    out = x * x * (1.0 - x) - (A / GAMMA) * np.exp(ALPHA * x)
    if sigma:
        out = out + sigma * (V_S - x) * _logistic(LAM * (x - Q))
    return out


def local_slope(x, sigma=0.0):
    """Derivative of :func:`local_current` with respect to x."""
    x = np.asarray(x, dtype=float)
    out = 2.0 * x - 3.0 * x * x - ALPHA * (A / GAMMA) * np.exp(ALPHA * x)
    if sigma:
        z = _logistic(LAM * (x - Q))
        out = out + sigma * (-z + (V_S - x) * LAM * z * (1.0 - z))
    return out


def critical_points(sigma=0.0):
    """Voltages where ``local_slope`` vanishes, ascending."""
    xs = np.linspace(WINDOW[0], WINDOW[1], SCAN_POINTS)
    s = local_slope(xs, sigma)
    idx = np.nonzero(np.sign(s[:-1]) * np.sign(s[1:]) < 0.0)[0]
    return [
        brentq(lambda u: float(local_slope(u, sigma)), xs[i], xs[i + 1], xtol=1e-15, rtol=1e-15)
        for i in idx
    ]


def fold_currents(sigma=0.0):
    """Currents I where g = local_current + I and g' vanish together, ascending."""
    return sorted(-float(local_current(c, sigma)) for c in critical_points(sigma))


def equilibria(I, sigma=0.0):
    """Voltages of all (symmetric) equilibria on the window, ascending.

    The critical points split the window into intervals on which g is
    monotone, so each holds at most one root; a critical point where g
    vanishes is a tangency root.
    """
    crit = critical_points(sigma)

    def g(u):
        return float(local_current(u, sigma)) + I

    tangent = [c for c in crit if abs(g(c)) <= FOLD_ATOL]
    roots = list(tangent)
    edges = [WINDOW[0], *crit, WINDOW[1]]
    for lo, hi in zip(edges[:-1], edges[1:]):
        if lo in tangent or hi in tangent:
            continue  # g is monotone here and already zero at one end
        glo, ghi = g(lo), g(hi)
        if glo * ghi < 0.0:
            roots.append(brentq(g, lo, hi, xtol=1e-15, rtol=1e-15))
    return sorted(roots)


def nullcline_y(x):
    return (A / GAMMA) * math.exp(ALPHA * x)


def _block_threshold(s, x):
    tau = s - GAMMA
    delta = ALPHA * A * math.exp(ALPHA * x) - GAMMA * s
    return 2.0 * math.acos(max(-1.0, min(1.0, tau / (2.0 * math.sqrt(delta))))) / math.pi


def beta_star(x, model="single", theta=0.0, sigma=0.0):
    """Closed-form Hopf threshold at the (symmetric) equilibrium voltage x.

    ``s`` below is the voltage row's self-derivative of each block: the
    in-phase block of a pair uses d/dx_self + d/dx_other, the anti-phase one
    d/dx_self - d/dx_other.
    """
    s0 = 2.0 * x - 3.0 * x * x
    if model == "single":
        blocks = (s0,)
    elif model == "dimer-linear":
        blocks = (s0, s0 - 2.0 * theta)
    elif model == "dimer-sigmoid":
        z = float(_logistic(LAM * (x - Q)))
        self_d = s0 - sigma * z
        other_d = sigma * (V_S - x) * LAM * z * (1.0 - z)
        blocks = (self_d + other_d, self_d - other_d)
    else:
        raise ValueError(f"unknown model {model!r}")
    return min(_block_threshold(s, x) for s in blocks)


def hopf_point(I, model="single", theta=0.0, sigma=0.0):
    """Oracle β* at current I, or None unless the equilibrium is unique and
    its threshold lies in (0, 1]."""
    roots = equilibria(I, sigma if model == "dimer-sigmoid" else 0.0)
    if len(roots) != 1:
        return None
    b = beta_star(roots[0], model, theta, sigma)
    return b if 0.0 < b <= 1.0 else None


def all_folds(sigmas):
    """Fold currents of the single cell and of the sigmoid pairs with the
    given strengths, keyed by ``"single"`` and ``repr(sigma)``."""
    out = {"single": fold_currents()}
    out.update({repr(s): fold_currents(s) for s in sigmas})
    return out


if __name__ == "__main__":
    json.dump(all_folds([float(a) for a in sys.argv[1:]]), sys.stdout)
    sys.stdout.write("\n")
