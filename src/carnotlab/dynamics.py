"""Moment-space propagation of the oscillator through unitary, open, and
dephasing strokes.

The basis (H, L, C, I) closes under every generator used here, so all
dynamics reduce to linear ODEs on the moment vector, carried with the
accumulated work as a 5x5 system.  The unitary part is

    dh/dt = w mu (h - l)
    dl/dt = w (-mu h + mu l - 2 c)
    dc/dt = w (2 l + mu c)

with mu = w_dot / w^2; at constant mu the stroke map has the closed form
implemented by :func:`free_propagator`.  The thermal-contact part is the
adjoint of the dressed-mode jump dissipator expressed in the same basis:
both quadratures damp at Gamma = k_down - k_up while the energy relaxes to
hbar w (k_down + k_up) / (Gamma kappa), which at mu = 0 is the Gibbs energy.
Pure dephasing in the instantaneous energy basis damps l and c at
4 gamma_d w^2 and leaves h untouched.  One :func:`generator` holds all three
parts; the bath and the dephasing strength select which are present.

Every stroke map is the time-ordered exponential of that generator, computed
as a product of 6th-order Magnus steps (Blanes, Casas, Oteo & Ros, Phys. Rep.
470, 151 (2009)) on the 5x5 propagator of (h, l, c, 1, W), sampled at the
output times (:func:`stroke_propagators`): its last sample is the transfer
matrix, and applied to any initial vector the samples give the trajectory.
Each step evaluates the generator at its three Gauss nodes, all steps of a
block at once, and exponentiates them together with a stacked, scaled Taylor
exponential to unit roundoff.  Its degree-k polynomial is summed by Paterson
& Stockmeyer's scheme in p - 1 + k // p stacked products with p = isqrt(k):
6 at degree 14, where Horner's rule takes 13.  Each stroke takes the fewest
steps that meet ``MAGNUS_TARGET`` by an error estimate read from products
on a doubling ladder, whose successive differences give the order of
convergence: a stroke of two samples (its transfer matrix alone, as a sweep
row needs) from products of n0, 2 n0 and 4 n0 steps, n0 = 64 or the fewest
steps whose h max|G|_1 the scaling puts inside the radius, a sampled stroke
(and a two-sample one that ladder cannot resolve or that is so far past the
radius that its rungs would take more steps than the pilots) from 400-,
800-, 1600-, ... step products on its sample grid, where the first pair,
read at the N^-4 rate of the spline knots, decides the strokes it resolves
or sends to at most 1600 steps.  Inside the Magnus radius the long open
strokes converge at N^-6.  The sampled maps are the prefix products of the
interval maps, by a blocked scan.  The fifth component accumulates the
stroke work W = integral (w_dot / w) (h - l) dt, so work values carry the
step error of the product rather than that of a sampling grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (HBAR, BathSpec, FrequencyProtocol, ObservableVector,
                   dressed_rates, write_csv)
from .errors import DomainError, NumericalError

DEFAULT_SAMPLES = 801
#: Target error of each stroke's transfer matrix M, relative to max|M|: a
#: tenth of the 1e-10 gate against a DOP853 reference.
MAGNUS_TARGET = 1e-11
#: Steps of the first pair of a sampled stroke's doubling ladder; the finer
#: is also the least resolution of a sampled stroke.
_PILOT_STEPS = (400, 800)
#: Steps of the coarsest of the three products, of n0, 2 n0 and 4 n0 steps,
#: whose differences resolve a stroke of two samples, where these steps are
#: inside ``_STEP_NORM_BOUND``.
_LADDER_BASE = 64
#: A failing stroke is located at the Gauss nodes of this many steps.
_LOCATE_STEPS = 8000
#: Largest step count a stroke may need before it fails.
_MAX_STEPS = 100 * _PILOT_STEPS[1]
#: An estimate stands only if the steps it asks for keep h max|G|_1 over
#: their nodes below this, inside pi, the convergence radius of the Magnus
#: series.  Past it the stiff dephasing of (l, c) can make two products
#: agree on a wrong map.
_STEP_NORM_BOUND = 3.0
#: Steps per batched exponential (768 generator evaluations): bounds the
#: memory of a block.
_MAGNUS_BLOCK = 256
#: Maps per block of the blocked prefix scan.
_SCAN_BLOCK = 8
#: The stacked exponential scales a block to 1-norm <= _EXPM_THETA and sums
#: its Taylor series to the lowest degree whose remainder bound is below the
#: unit roundoff.
_EXPM_THETA = 0.5
_UNIT_ROUNDOFF = 2.0**-53
_GAUSS_NODES = 0.5 + np.array([-1.0, 0.0, 1.0]) * math.sqrt(15.0) / 10.0
_MAGNUS_C2 = math.sqrt(15.0) / 3.0
_MAGNUS_C3 = 10.0 / 3.0


def solve_ivp(fun, t_span, y0, **options):
    """``scipy.integrate.solve_ivp``, imported on the first call: the moment
    propagators need no ODE solver, so importing carnotlab loads no scipy.
    Each module that integrates looks the solver up under this name."""
    from scipy.integrate import solve_ivp as scipy_solve_ivp

    return scipy_solve_ivp(fun, t_span, y0, **options)


def _check_gamma_d(gamma_d: float) -> None:
    if not 0.0 <= gamma_d < math.inf:
        raise DomainError(
            f"dephasing strength must be finite and non-negative, got {gamma_d}")


def generator(omega, omega_dot, bath: Optional[BathSpec] = None,
              gamma_d: float = 0.0) -> np.ndarray:
    """5x5 generator of (h, l, c, 1, accumulated work), shape (..., 5, 5).

    ``omega`` and ``omega_dot`` are scalars or broadcastable arrays of
    instants.  The unitary part carries the w factor of the module equations.
    A bath adds the dissipative closure: all three moments damp at
    Gamma = k_down - k_up while h (and, off the adiabatic limit, c) is pumped
    toward the dressed-mode stationary state.  Pure dephasing adds
    -4 gamma_d w^2 on l and c only.  The identity row stays zero, so the
    trace component is preserved exactly; the last row is the work integrand
    (w_dot / w)(h - l).  Raises DomainError for a negative or non-finite
    ``gamma_d``.
    """
    _check_gamma_d(gamma_d)
    omega, omega_dot = np.broadcast_arrays(np.asarray(omega, dtype=float),
                                           np.asarray(omega_dot, dtype=float))
    g = np.zeros(omega.shape + (5, 5))
    mu = omega_dot / (omega * omega)
    wmu = omega * mu
    gam = d03 = d23 = 0.0
    if bath is not None:
        k_down, k_up, kappa = dressed_rates(omega, mu, bath)
        gam = k_down - k_up
        sig = k_down + k_up
        d03 = HBAR * omega * sig / kappa
        d23 = -HBAR * omega * mu * sig / (2.0 * kappa)
    d11 = -gam - 4.0 * gamma_d * omega * omega
    g[..., 0, 0] = wmu - gam
    g[..., 0, 1] = -wmu
    g[..., 0, 3] = d03
    g[..., 1, 0] = -wmu
    g[..., 1, 1] = wmu + d11
    g[..., 1, 2] = -2.0 * omega
    g[..., 2, 1] = 2.0 * omega
    g[..., 2, 2] = wmu + d11
    g[..., 2, 3] = d23
    g[..., 4, 0] = rate = omega_dot / omega
    g[..., 4, 1] = -rate
    return g


def free_propagator(omega_initial: float, mu: float, t: float) -> np.ndarray:
    """Closed-form stroke map of the constant-mu drive at elapsed time t.

    The 3x3 moment block is (w/w0)/kappa^2 times a kappa*theta rotation
    structure with theta = int_0^t w dt'; the identity row/column is exact.
    """
    if abs(mu) >= 2.0:
        raise DomainError("|mu| must be below 2")
    x = mu * omega_initial * t
    if x >= 1.0:
        raise DomainError("constant-mu drive evaluated past its pole")
    kappa = math.sqrt(4.0 - mu * mu)
    theta = omega_initial * t if mu == 0.0 else -math.log1p(-x) / mu
    ratio = 1.0 / (1.0 - x)  # w(t) / w(0)
    c = math.cos(kappa * theta)
    s = math.sin(kappa * theta)
    k2 = kappa * kappa
    u = np.zeros((4, 4))
    u[:3, :3] = (ratio / k2) * np.array([
        [4.0 - mu * mu * c, -mu * kappa * s, -2.0 * mu * (c - 1.0)],
        [-mu * kappa * s, k2 * c, -2.0 * kappa * s],
        [2.0 * mu * (c - 1.0), 2.0 * kappa * s, 4.0 * c - mu * mu],
    ])
    u[3, 3] = 1.0
    return u


# ---------------------------------------------------------------------------
# stroke generators and sampled propagators along a protocol
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """Moment vectors along one stroke plus the work/heat bookkeeping."""

    times: np.ndarray
    vectors: np.ndarray          # (n, 4)
    omegas: np.ndarray
    work: float
    heat: float

    def __post_init__(self):
        if np.any(np.diff(self.times) < 0):
            raise DomainError("trajectory times must be non-decreasing")

    @property
    def initial_vector(self) -> ObservableVector:
        return ObservableVector.from_array(self.vectors[0])

    @property
    def final_vector(self) -> ObservableVector:
        return ObservableVector.from_array(self.vectors[-1])

    @property
    def energy_change(self) -> float:
        return float(self.vectors[-1, 0] - self.vectors[0, 0])

    def coherences(self) -> np.ndarray:
        return np.hypot(self.vectors[:, 1], self.vectors[:, 2]) / (HBAR * self.omegas)

    def casimirs(self) -> np.ndarray:
        v = self.vectors
        return (v[:, 0] ** 2 - v[:, 1] ** 2 - v[:, 2] ** 2) / self.omegas**2

    def to_csv(self, path) -> None:
        """Deterministic CSV export: t, omega, h, l, c, coherence."""
        write_csv(path, ("t", "omega", "h", "l", "c", "coherence"),
                  np.column_stack((self.times, self.omegas, self.vectors[:, :3],
                                   self.coherences())).tolist())


def _taylor_degree(norm: float) -> int:
    """The lowest degree k with norm^(k+1)/(k+1)! <= 2^-53."""
    k, term = 1, norm * norm / 2.0
    while term > _UNIT_ROUNDOFF:
        k += 1
        term *= norm / (k + 1)
    return k


def _expm_stack(x: np.ndarray) -> np.ndarray:
    """exp of every matrix of an (m, n, n) stack, by one stacked computation.

    One 1-norm bound for the whole stack fixes a scaling 2^-s that brings every
    matrix to norm <= _EXPM_THETA, where the Taylor polynomial of the smallest
    degree k with norm^(k+1)/(k+1)! <= 2^-53 is summed; s squarings undo the
    scaling; a non-finite stack raises NumericalError.

    The polynomial is summed by Paterson & Stockmeyer (SIAM J. Comput. 2, 60
    (1973)) in p - 1 + k // p products, one fewer when p divides k, with
    p = isqrt(k): the powers x^2 ... x^p take p - 1, one stacked dot with the
    coefficients 1/j! forms every block B_i = sum_{j < p} x^j / (ip + j)!,
    and Horner's rule in x^p, e = e x^p + B_i from e = B_(k // p), takes one
    per block below the top one.  A scaled block has degree 12 to 14 and
    takes 5 or 6 products, where Horner's rule in x takes 11 to 13.
    """
    norm = float(np.einsum("mij->mj", np.abs(x)).max(initial=0.0))
    if not math.isfinite(norm):
        raise NumericalError("matrix exponential of a non-finite matrix")
    s = max(0, math.ceil(math.log2(norm) - math.log2(_EXPM_THETA))) \
        if norm > 0 else 0
    k = _taylor_degree(norm * 2.0**-s)
    p = math.isqrt(k)
    q = k // p
    # powers[j] = (2^-s x)^j for j = 0 ... p
    powers = np.empty((p + 1,) + x.shape)
    powers[0] = np.eye(x.shape[-1])
    np.multiply(x, 2.0**-s, out=powers[1])
    for j in range(2, p + 1):
        np.matmul(powers[j - 1], powers[1], out=powers[j])
    # row i holds the coefficients of block i: 1/(ip + j)! at column j
    coefficients = np.zeros((q + 1) * p)
    coefficients[:k + 1] = [1.0 / math.factorial(j) for j in range(k + 1)]
    blocks = (coefficients.reshape(q + 1, p)
              @ powers[:p].reshape(p, -1)).reshape((q + 1,) + x.shape)
    xp = powers[p]
    e = xp * coefficients[k] if k % p == 0 else blocks[q] @ xp
    e += blocks[q - 1]
    for i in range(q - 2, -1, -1):
        e = e @ xp
        e += blocks[i]
    for _ in range(s):
        e = e @ e
    return e


def _magnus_steps(protocol: FrequencyProtocol, starts: np.ndarray, h: float,
                  bath: Optional[BathSpec], gamma_d: float):
    """exp(Omega) of the 6th-order Magnus steps of size h that begin at
    ``starts * h``, and the largest h |A|_1 over their nodes.

    With A1, A2, A3 the generator at the three Gauss nodes,
    a1 = h A2, a2 = (sqrt15 / 3) h (A3 - A1), a3 = (10 / 3) h (A3 - 2 A2 + A1),
    c1 = [a1, a2] and c2 = -[a1, 2 a3 + c1] / 60, the step is
    Omega = a1 + a3 / 12 + [-20 a1 - a3 + c1, a2 + c2] / 240.
    The terms are formed in place, a1 and a3 in the generator's own stack.
    """
    nodes = (_GAUSS_NODES[:, None] + starts) * h  # (3, m): one row per node
    g = generator(*protocol.frequency(nodes), bath, gamma_d)
    norm = float(np.einsum("...ij->...j", np.abs(g)).max())
    g0, g1, g2 = g
    a2 = g2 - g0
    a2 *= _MAGNUS_C2 * h
    a1, a3 = g1, g0  # in place of A2 and A1; A3's row is then scratch
    a1 *= h
    a3 += g2
    a3 *= _MAGNUS_C3 * h
    a3 -= np.multiply(a1, 2.0 * _MAGNUS_C3, out=g2)
    c1 = a1 @ a2
    c1 -= a2 @ a1
    x = a3 * 2.0
    x += c1
    y = x @ a1
    y -= a1 @ x
    y *= 1.0 / 60.0
    y += a2
    np.multiply(a1, -20.0, out=x)
    x += c1
    x -= a3
    omega = x @ y
    omega -= y @ x
    omega *= 1.0 / 240.0
    omega += a1
    a3 *= 1.0 / 12.0
    omega += a3
    return _expm_stack(omega), h * norm


def _interval_products(steps: np.ndarray) -> np.ndarray:
    """Ordered products of (n, p, 5, 5) steps along axis 1, later on the left.

    Adjacent pairs are multiplied by stacked matmuls until one map per
    interval is left.
    """
    while steps.shape[1] > 1:
        p = steps.shape[1] - steps.shape[1] % 2
        pairs = steps[:, 1:p:2] @ steps[:, 0:p:2]
        steps = np.concatenate((pairs, steps[:, p:]), axis=1)
    return steps[:, 0]


def _block_scans(maps: np.ndarray) -> np.ndarray:
    """Inclusive prefix products inside consecutive blocks of ``_SCAN_BLOCK``
    maps of an (n, 5, 5) stack, shape (blocks, _SCAN_BLOCK, 5, 5): one
    sequential scan run on all blocks at once.  The last block is padded with
    identities, which leave every product before them unchanged."""
    n = len(maps)
    blocks = np.empty((-(-n // _SCAN_BLOCK) * _SCAN_BLOCK, 5, 5))
    blocks[:n] = maps
    blocks[n:] = np.eye(5)
    blocks = blocks.reshape(-1, _SCAN_BLOCK, 5, 5)
    # a single block needs no products past its last map
    for j in range(1, min(n, _SCAN_BLOCK)):
        blocks[:, j] = blocks[:, j] @ blocks[:, j - 1]
    return blocks


def _prefix_products(maps: np.ndarray) -> np.ndarray:
    """Inclusive prefix products maps[j] @ ... @ maps[0] of an (n, 5, 5) stack.

    A blocked scan: the sequential scans inside blocks of ``_SCAN_BLOCK``
    maps (:func:`_block_scans`), then the same scans over the totals of all
    blocks but the last, level by level until one block is left; from the
    top level down, one stacked product per level carries each block's
    prefix into the next block.  That takes about 2n products, where a
    log-depth scan takes n log2 n.  Map j depends on maps[:j + 1] alone and
    is computed as the last map of their scan would be.
    """
    levels = [_block_scans(maps)]
    while len(levels[-1]) > 1:
        levels.append(_block_scans(levels[-1][:-1, -1]))
    for lower, upper in zip(levels[-2::-1], levels[:0:-1]):
        lower[1:] = lower[1:] @ upper.reshape(-1, 5, 5)[:len(lower) - 1, None]
    return levels[0].reshape(-1, 5, 5)[:len(maps)]


def _last_product(maps: np.ndarray) -> np.ndarray:
    """maps[-1] @ ... @ maps[0] of an (n, 5, 5) stack: bit for bit the last
    map of :func:`_prefix_products`, from the same block scans and the last
    product of the block totals alone."""
    blocks = _block_scans(maps)
    last = blocks[-1, (len(maps) - 1) % _SCAN_BLOCK]
    if len(blocks) > 1:
        last = last @ _last_product(blocks[:-1, -1])
    return last


def _interval_maps(protocol: FrequencyProtocol, n_steps: int, intervals: int,
                   bath: Optional[BathSpec], gamma_d: float):
    """Products of the steps in each of ``intervals`` equal parts of a uniform
    ``n_steps``-step grid, shape (intervals, 5, 5), and the largest h |G|_1
    over the nodes of all steps.

    Steps are exponentiated in chronological chunks of at most
    ``_MAGNUS_BLOCK``, over blocks of as many whole intervals as fit in one
    chunk (or of one longer interval).
    """
    h = protocol.duration / n_steps
    per_interval = n_steps // intervals
    per_block = max(1, _MAGNUS_BLOCK // per_interval)
    maps = np.empty((intervals, 5, 5))
    step_norm = 0.0
    try:
        for j0 in range(0, intervals, per_block):
            j1 = min(j0 + per_block, intervals)
            starts = np.arange(j0 * per_interval, j1 * per_interval)
            steps, norms = zip(*(
                _magnus_steps(protocol, chunk, h, bath, gamma_d) for chunk in
                np.array_split(starts, -(-starts.size // _MAGNUS_BLOCK))))
            step_norm = max(step_norm, *norms)
            maps[j0:j1] = _interval_products(
                np.concatenate(steps).reshape(j1 - j0, per_interval, 5, 5))
    except (DomainError, NumericalError) as err:
        raise _located_error(protocol, bath, err) from None
    return maps, step_norm


def _located_error(protocol: FrequencyProtocol, bath: Optional[BathSpec],
                   err: Exception) -> Exception:
    """``err``, the failure of a stroke's steps, located at the first Gauss
    node of a ``_LOCATE_STEPS``-step grid where w or mu is not finite (a
    NumericalError) or, with a bath, |mu| >= 2 (the DomainError of
    :func:`dressed_rates`), with that node as its ``time``; ``err`` itself
    where no node fails.  No step is exponentiated.
    """
    nodes = ((np.arange(_LOCATE_STEPS)[:, None] + _GAUSS_NODES)
             * (protocol.duration / _LOCATE_STEPS)).ravel()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w, w_dot = protocol.frequency(nodes)
        mu = w_dot / (w * w)
        finite = np.isfinite(w) & np.isfinite(mu)
        bad = ~finite | ((bath is not None) & (mu * mu >= 4.0))
    if not bad.any():
        return err
    i = int(np.argmax(bad))
    t = float(nodes[i])
    try:
        if finite[i]:
            dressed_rates(w[i], mu[i], bath)
    except DomainError as inertial:
        return DomainError(f"{inertial} at t = {t:.6g}", time=t)
    return NumericalError(f"non-finite Magnus step at t = {t:.6g}",
                          diagnostics={"duration": protocol.duration}, time=t)


def _too_many_steps(needed: float, protocol: FrequencyProtocol,
                    gamma_d: float, **diagnostics) -> NumericalError:
    """The error of a stroke that needs more than ``_MAX_STEPS`` steps."""
    where = f" at gamma_d = {gamma_d:.6g}" if gamma_d else ""
    return NumericalError(
        f"stroke needs {needed:.4g} Magnus steps{where}, more than "
        f"{_MAX_STEPS}",
        diagnostics={"steps": needed, "duration": protocol.duration,
                     **diagnostics})


@dataclass(frozen=True)
class Propagators:
    """Sampled maps of one stroke with the resolution that made them:
    ``steps`` Magnus steps and ``error``, the estimated largest entry error
    of the transfer matrix relative to its largest entry."""

    times: np.ndarray
    maps: np.ndarray
    steps: int
    error: float


def _read_rungs(m0: np.ndarray, m1: np.ndarray, m2: np.ndarray, base: int,
                intervals: int, protocol: FrequencyProtocol, gamma_d: float):
    """N and the estimated error of the N-step product, read from the last
    three rungs of a doubling ladder, the products m0, m1 and m2 of base / 4,
    base / 2 and base steps, or None where they read no order.

    With d1 = |m1 - m0| and d2 = |m2 - m1| relative to max|m2|,
    d2 <= target / 4 with d1 <= 64 target resolves the stroke at base steps
    with error d2.  Otherwise d1 / d2 from 64 to 96 reads as the N^-6 rate of
    the Magnus steps, with error d2 / 63 on the base-step product, and from
    10 to 64 as the N^-4 rate of the spline knots, with error d2 / 15: a mix
    of N^-4 and N^-6 terms gives a ratio between 16 and 64, and its N^-4
    reading bounds both its error and its decay.  An N^-6 reading that would
    stop at base where the N^-4 one would not is read as N^-4: on
    endo-shortcut@250's open expansion the 800/1600/3200 ratio is 74, but an
    N^-4 term takes over from 3200 steps, and d2 / 63 is 3.5 times below the
    error there.  Any other ratio reads no order.  N is base where base
    meets the target, or else the fewest steps that the order puts at the
    target; either is rounded up to a multiple of ``intervals``.  Raises
    NumericalError on a non-finite difference and where N would be more
    than ``_MAX_STEPS``.
    """
    scale = float(np.max(np.abs(m2)))
    d1 = float(np.max(np.abs(m1 - m0))) / scale
    d2 = float(np.max(np.abs(m2 - m1))) / scale
    if not math.isfinite(d1 + d2):
        raise _not_finite(protocol)
    order, error = 0, d2
    if not (d2 <= MAGNUS_TARGET / 4.0 and d1 <= 64.0 * MAGNUS_TARGET):
        ratio = d1 / d2 if d2 > 0.0 else math.inf
        if not 10.0 <= ratio <= 96.0:
            return None
        order, error = 4, d2 / 15.0
        # an N^-6 reading that meets the target at base where the N^-4 one
        # does not stays N^-4: an N^-4 term that has not yet taken over d1
        # would make it optimistic
        if ratio >= 64.0 and not d2 / 63.0 <= MAGNUS_TARGET < error:
            order, error = 6, d2 / 63.0
    needed = base
    if error > MAGNUS_TARGET:
        needed = base * (error / MAGNUS_TARGET) ** (1.0 / order)
        if needed > _MAX_STEPS:
            raise _too_many_steps(needed, protocol, gamma_d, error=error)
    n_steps = intervals * math.ceil(needed / intervals)
    return n_steps, error * (base / n_steps) ** order


def _doubling_rule(protocol: FrequencyProtocol, intervals: int, maps_at,
                   gamma_d: float):
    """Steps of a sampled stroke from a doubling ladder of products of 400,
    800, 1600, ... steps, each taken from ``maps_at(steps, parts)``.

    The first pair, two pilot products of 400 and 800 steps, estimates the
    error of the finer as |M800 - M400| / 15, under the N^-4 rate of the
    spline knots, and asks for the smallest
    multiple of ``intervals``, at least 800, whose error under that rate
    meets ``MAGNUS_TARGET``.  The estimate stands only if that N's steps,
    scaled from the finer pilot's, keep h |G|_1 below ``_STEP_NORM_BOUND``
    at all three nodes.  Otherwise the pair is taken again, the coarser on
    the fewest steps (a multiple of ``intervals``) that the scaling puts
    under the bound and the finer on twice as many, which then stand for
    400 and 800.  So is a pair that is not finite where the finer pilot's
    steps are past the bound (their squarings overflow): the step cap then
    refuses a stroke far past the radius by the steps it needs.  A
    non-finite pair inside the bound raises NumericalError.  The pair
    decides a stroke that it resolves or that it sends to at most twice the
    finer pilot's steps.  Any other stroke climbs the ladder, doubling the
    steps up to the pair's N, until its last three rungs read the order of
    convergence (:func:`_read_rungs`); a ladder that reads none leaves the
    pair's N.  The finer pilot and each rung are sampled at the stroke's
    intervals, as far as their steps divide into them, so that the N-step
    product is already made wherever N is their steps.

    Returns (N, the estimated error of the N-step product).
    """
    coarse_steps, fine_steps = _PILOT_STEPS
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            # steps past the bound may overflow; they are taken again
            coarse = maps_at(coarse_steps, 1)[0][0]
            pilot, step_norm = maps_at(fine_steps,
                                       math.gcd(fine_steps, intervals))
            fine = _last_product(pilot)
            scale = float(np.max(np.abs(fine)))
            # the pilots differ by 15 times the finer one's error under N^-4
            error = float(np.max(np.abs(fine - coarse))) / 15.0 / scale
        # a step's h |G|_1 shrinks in proportion to h
        in_radius = intervals * math.ceil(
            fine_steps * step_norm / _STEP_NORM_BOUND / intervals)
        if math.isfinite(error):
            needed = fine_steps * (error / MAGNUS_TARGET) ** 0.25
            n_steps = intervals * math.ceil(max(needed, fine_steps) / intervals)
            if in_radius <= n_steps:
                break
        elif in_radius <= fine_steps:
            raise _not_finite(protocol)
        # steps past the radius, where both pilots can agree on a wrong map
        coarse_steps, fine_steps = in_radius, 2 * in_radius
        if fine_steps > _MAX_STEPS:
            raise _too_many_steps(fine_steps, protocol, gamma_d,
                                  step_norm=step_norm)
    if needed > _MAX_STEPS:
        raise _too_many_steps(needed, protocol, gamma_d, error=error)
    pair_error = error * (fine_steps / n_steps) ** 4
    if error <= MAGNUS_TARGET or n_steps <= 2 * fine_steps:
        return n_steps, pair_error
    products, steps = [coarse, fine], fine_steps
    while 2 * steps <= n_steps:
        steps *= 2
        products.append(_last_product(
            maps_at(steps, math.gcd(steps, intervals))[0]))
        chosen = _read_rungs(*products[-3:], steps, intervals, protocol,
                             gamma_d)
        if chosen is not None:
            return max(chosen[0], in_radius), chosen[1]
    return n_steps, pair_error


def _ladder_rule(protocol: FrequencyProtocol, maps_at, gamma_d: float):
    """Steps of an unsampled stroke from products of n0, 2 n0 and 4 n0
    steps, each taken from ``maps_at(steps, 1)`` and read by
    :func:`_read_rungs`.

    n0 is 64 where the 64-step rung's steps keep h |G|_1 within
    ``_STEP_NORM_BOUND``, and otherwise the fewest steps that the scaling
    of h |G|_1 with h puts under the bound, ceil(64 h |G|_1 / bound), taken
    again from its own rung until that rung is inside the bound.  Returns
    (N, the estimated error of the N-step product), or None where the three
    rungs would take more steps than the 400/800 pilots or the ladder reads
    no order: the doubling rule then decides.
    """
    base = _LADDER_BASE
    while True:
        with np.errstate(over="ignore", invalid="ignore"):
            # steps past the bound may overflow; their product is not used
            coarse, step_norm = maps_at(base, 1)
        if step_norm <= _STEP_NORM_BOUND:
            break
        base = math.ceil(base * step_norm / _STEP_NORM_BOUND)
        if 7 * base > sum(_PILOT_STEPS):
            return None
    middle, fine = (maps_at(k * base, 1)[0] for k in (2, 4))
    return _read_rungs(coarse, middle, fine, 4 * base, 1, protocol, gamma_d)


def _not_finite(protocol: FrequencyProtocol) -> NumericalError:
    return NumericalError("stroke propagator is not finite",
                          diagnostics={"duration": protocol.duration})


def stroke_propagators(protocol: FrequencyProtocol,
                       bath: Optional[BathSpec] = None, gamma_d: float = 0.0,
                       n_samples: int = DEFAULT_SAMPLES) -> Propagators:
    """Sampled 5x5 propagator of one stroke: Phi(t_k) for dPhi/dt = G(t) Phi.

    A product of N uniform 6th-order Magnus steps from Phi(0) = I, sampled at
    ``n_samples`` uniform times.  A stroke of two samples, its transfer
    matrix alone, takes N from a ladder of products of n0, 2 n0 and 4 n0
    steps whose successive differences give the order and the error
    (:func:`_ladder_rule`): n0 is 64, or the fewest steps that keep
    h max|G|_1 within ``_STEP_NORM_BOUND`` where 64 steps do not.  It takes
    N from the doubling rule where those rungs would take more steps than
    the 400/800 pilots or the ladder reads no order.  Any
    other stroke takes N, at least 800 and a multiple of the sample
    intervals, from a doubling ladder of 400-, 800-, 1600-, ... step
    products (:func:`_doubling_rule`).  Both rules and the stroke take their
    products from one table per call, keyed by (steps, parts), so each
    product is made once: the N-step product on the sample intervals is a
    lookup wherever a pilot or a rung has made it.  Its interval maps are
    accumulated by one blocked prefix scan.  Far past the Magnus radius the
    pilots' squarings overflow, and the stroke is refused by the steps it
    would need.

    Returns ``Propagators`` with ``times`` and ``maps`` of shape (n, 5, 5);
    ``maps[-1]`` is the stroke's transfer matrix
    (v, w) -> (v', w + stroke work), and ``maps @ [v, 0]`` is the trajectory
    from any initial moment vector v.  A zero-duration stroke gives the
    identity at the single time 0.  Raises DomainError where a bath meets
    |mu| >= 2, and NumericalError on a non-finite map or where more than
    ``_MAX_STEPS`` steps would be needed; an error located at a time carries
    it as ``time`` and names it.
    """
    if n_samples < 2:
        raise DomainError(f"a stroke needs at least 2 samples, got {n_samples}")
    if protocol.duration == 0.0:
        return Propagators(np.zeros(1), np.eye(5)[None], 0, 0.0)
    intervals = n_samples - 1
    # each (steps, parts) product of the stroke is made once; callers only
    # read it
    maps_at = functools.cache(functools.partial(
        _interval_maps, protocol, bath=bath, gamma_d=gamma_d))
    chosen = _ladder_rule(protocol, maps_at, gamma_d) if intervals == 1 else None
    n_steps, error = chosen or _doubling_rule(protocol, intervals, maps_at,
                                              gamma_d)
    maps = np.concatenate((np.eye(5)[None],
                           _prefix_products(maps_at(n_steps, intervals)[0])))
    if not np.all(np.isfinite(maps)):
        raise _not_finite(protocol)
    times = np.linspace(0.0, protocol.duration, n_samples)
    return Propagators(times, maps, n_steps, error)


def trajectory(v0: ObservableVector, protocol: FrequencyProtocol,
               propagators: Propagators) -> Trajectory:
    """Trajectory from v0 through the sampled propagators of one stroke."""
    times = propagators.times
    ys = propagators.maps @ np.append(v0.as_array(), 0.0)
    work = float(ys[-1, 4])
    heat = float(ys[-1, 0] - ys[0, 0]) - work
    return Trajectory(times=times, vectors=ys[:, :4],
                      omegas=np.atleast_1d(protocol.omega(times)),
                      work=work, heat=heat)


def propagate_unitary(v0: ObservableVector, protocol: FrequencyProtocol,
                      n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Closed-system stroke along an arbitrary protocol."""
    return trajectory(v0, protocol, stroke_propagators(
        protocol, n_samples=n_samples))


def propagate_open(v0: ObservableVector, protocol: FrequencyProtocol,
                   bath: BathSpec, n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Thermal-contact stroke along an arbitrary protocol."""
    return trajectory(v0, protocol, stroke_propagators(
        protocol, bath, n_samples=n_samples))


def propagate_dephasing(v0: ObservableVector, protocol: FrequencyProtocol,
                        gamma_d: float, bath: Optional[BathSpec] = None,
                        n_samples: int = DEFAULT_SAMPLES) -> Trajectory:
    """Stroke with pure energy-basis dephasing (optionally plus a bath)."""
    _check_gamma_d(gamma_d)
    return trajectory(v0, protocol, stroke_propagators(
        protocol, bath, gamma_d, n_samples))
