"""Memory-kernel evolution of the single-excitation amplitude.

One damped atom with a structured reservoir obeys the Volterra equation

    db/dt + i*omega_atom*b + integral_0^t alpha(t - s) b(s) ds = 0,  b(0) = 1,

where alpha is the reservoir correlation kernel.  The time-local decay
coefficient follows as F(t) = -(db/dt + i*omega_atom*b)/b, and the residual
amplitude gamma(t) = exp(-integral Re F) feeds the damping channel.

A single-pole (exponential) kernel reduces the equation to a linear 2x2 ODE
via the auxiliary memory integral; fixed-step RK4 then makes every grid value
a power of one 2x2 step matrix, formed by doubling.  Tabulated kernels are
handled by an implicit trapezoid scheme whose history sum is blocked: halves
of the grid are joined by FFT products (Hairer, Lubich & Schlichte 1985),
O(n log^2 n) in place of the O(n^2) full-history dot, equal to it to
round-off.  Only numpy is needed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Union

import numpy as np
# numpy >= 2 loads numpy.fft on first attribute access; load it with this
# module so the first solve does not pay for the import.
import numpy.fft  # noqa: F401

from .errors import ConvergenceError, SingularCoefficientError

DEFAULT_TOL = 1e-8
B_FLOOR = 1e-6
# Allowed excess of |b| over 1 in solve_amplitude, and of gamma in gamma_of_t.
CONTRACTIVITY_SLACK = 1e-9
WEAK_COUPLING_F_FLOOR = -1e-9
# Blocks of the tabulated solve shorter than 2*FFT_LEAF steps sum their
# history directly; longer ones are halved and joined by an FFT product.
FFT_LEAF = 256


@dataclass(frozen=True)
class ExponentialKernel:
    """Single-pole reservoir kernel (strength/2) * rate * exp(-(rate + i*center) tau).

    strength is the Markov-limit decay rate (the kernel integrates to
    strength/2 at zero detuning), memory_rate the inverse memory time, and
    center_frequency the reservoir center.  strength = 0 is allowed and means
    free evolution.
    """

    strength: float
    memory_rate: float
    center_frequency: float = 0.0

    def __post_init__(self) -> None:
        params = (self.strength, self.memory_rate, self.center_frequency)
        if not (0.0 <= self.strength < np.inf and 0.0 < self.memory_rate < np.inf
                and np.isfinite(self.center_frequency)):
            raise ValueError(f"kernel parameters {params} must be finite, strength >= 0 and "
                             "memory_rate > 0")

    def evaluate(self, tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        amp = 0.5 * self.strength * self.memory_rate
        return amp * np.exp(-(self.memory_rate + 1j * self.center_frequency) * tau)


@dataclass(frozen=True)
class TabulatedKernel:
    """Kernel sampled on a uniform tau grid starting at 0.

    Every tau and alpha must be finite; the first offending row (0-based)
    is named in the ValueError.
    """

    tau: np.ndarray
    alpha: np.ndarray

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau, dtype=float)
        alpha = np.asarray(self.alpha, dtype=complex)
        if tau.ndim != 1 or tau.size < 2 or alpha.shape != tau.shape:
            raise ValueError("tau and alpha must be 1-d arrays of equal length >= 2")
        finite = np.isfinite(tau) & np.isfinite(alpha)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(
                f"kernel table row {row} is not finite: "
                f"tau = {float(tau[row])}, alpha = {complex(alpha[row])}"
            )
        if abs(tau[0]) > 1e-12:
            raise ValueError(f"tau grid must start at 0, got {tau[0]}")
        steps = np.diff(tau)
        if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * steps.max():
            raise ValueError("tau grid must be uniform and increasing")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "alpha", alpha)

    @property
    def step(self) -> float:
        return float(self.tau[1] - self.tau[0])

    def evaluate(self, tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < -1e-12) or np.any(tau > self.tau[-1] + 1e-9):
            raise ValueError("tau outside the tabulated range")
        re = np.interp(tau, self.tau, self.alpha.real)
        im = np.interp(tau, self.tau, self.alpha.imag)
        return re + 1j * im


Kernel = Union[ExponentialKernel, TabulatedKernel]


def load_kernel_table(path) -> TabulatedKernel:
    """Read a kernel table: whitespace-separated "tau alpha_re alpha_im" rows,
    '#' starts a comment, tau uniform starting at 0."""
    with warnings.catch_warnings():
        # An empty table is refused below; numpy's warning about it would
        # only reach stderr, or raise under -W error.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, comments="#", ndmin=2)
    if data.size == 0:
        raise ValueError(f"kernel table {path} has no data rows")
    if data.shape[1] != 3:
        raise ValueError(f"expected 3 columns (tau alpha_re alpha_im), got {data.shape[1]}")
    return TabulatedKernel(tau=data[:, 0], alpha=data[:, 1] + 1j * data[:, 2])


@dataclass(frozen=True)
class AmplitudeSolution:
    """Amplitude b on a uniform grid, plus (once computed) the decay
    coefficient f and the residual amplitude gamma."""

    t: np.ndarray
    b: np.ndarray
    omega_atom: float
    f: np.ndarray | None = None
    gamma: np.ndarray | None = None

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])


def uniform_grid(t_max: float, dt: float) -> np.ndarray:
    """Uniform grid 0..t_max with step dt; t_max must be a whole number of steps."""
    if not 0.0 < dt < np.inf:
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not dt <= t_max < np.inf:
        raise ValueError(f"t_max={t_max} must be finite and at least one step dt={dt}")
    ratio = t_max / dt
    if ratio == np.inf:
        raise ValueError(f"t_max={t_max} / dt={dt} overflows: too many steps")
    n = int(round(ratio))
    if abs(n * dt - t_max) > 1e-8 * max(1.0, abs(t_max)):
        raise ValueError(f"t_max={t_max} is not an integer multiple of dt={dt}")
    try:
        return np.arange(n + 1) * dt
    except ValueError as exc:  # beyond numpy's index range
        raise ValueError(f"t_max={t_max} / dt={dt} gives {n + 1:.3g} grid points: {exc}") from None


def rk4_step_matrix(l1: np.ndarray, l2: np.ndarray, l4: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of y' = L(t) y as a matrix, for (..., d, d) stacks.

    l1, l2 and l4 are L at t, t + h/2 and t + h.  The stages are
    k2 = L2 (I + h/2 L1), k3 = L2 (I + h/2 k2), k4 = L4 (I + h k3), and the
    step is I + h/6 (L1 + 2 k2 + 2 k3 + k4): sum_{k<=4} (h m)^k / k! for L = m.
    A step too large for the floats comes back with inf or nan entries, and
    no warning; the caller refuses it.
    """
    eye = np.eye(l1.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):
        k2 = l2 @ (eye + 0.5 * h * l1)
        k3 = l2 @ (eye + 0.5 * h * k2)
        k4 = l4 @ (eye + h * k3)
        return eye + (h / 6.0) * (l1 + 2.0 * k2 + 2.0 * k3 + k4)


def _propagate_powers(phi: np.ndarray, y0: np.ndarray, n: int) -> np.ndarray:
    """All powers phi^j y0 for j = 0..n, by doubling.

    Columns [k, 2k) are phi^k times columns [0, k), so the n + 1 columns take
    about log2(n) products, and no eigenbasis (ill-conditioned near a
    defective phi, such as the critically damped kernel) is formed.  The
    growth guard rejects unstable steps before the powers can overflow, and
    a step that overflowed when it was built.
    """
    if not np.isfinite(phi).all():
        raise ConvergenceError("unstable step: the step matrix overflows; reduce dt")
    amplification = float(np.max(np.abs(np.linalg.eigvals(phi))))
    if amplification > 1.0 + 1e-9:
        raise ConvergenceError(
            f"unstable step: stage amplification {amplification:.6f} > 1; reduce dt"
        )
    out = np.empty((2, n + 1), dtype=complex)
    out[:, 0] = y0
    k, power = 1, phi
    while k <= n:
        width = min(k, n + 1 - k)
        out[:, k:k + width] = power @ out[:, :width]
        power = power @ power
        k *= 2
    return out


def _solve_exponential(
    kernel: ExponentialKernel, omega_atom: float, grid: np.ndarray, tol: float
) -> np.ndarray:
    # Auxiliary pair (b, z) with z the running memory integral; the pair obeys
    # a constant-coefficient linear system, so fixed-step RK4 is one matrix
    # power per step.
    m = np.array([
        [-1j * omega_atom, -1.0],
        [0.5 * kernel.strength * kernel.memory_rate,
         -(kernel.memory_rate + 1j * kernel.center_frequency)],
    ])
    y0 = np.array([1.0, 0.0], dtype=complex)
    n = grid.size - 1
    h = float(grid[1] - grid[0])
    b = _propagate_powers(rk4_step_matrix(m, m, m, h), y0, n)[0]
    if np.isfinite(tol):
        b_fine = _propagate_powers(rk4_step_matrix(m, m, m, 0.5 * h), y0, 2 * n)[0][::2]
        drift = float(np.max(np.abs(b - b_fine)))
        if drift > tol:
            raise ConvergenceError(
                f"step too coarse: halving dt moves b by {drift:.3e} (tol {tol:.1e})"
            )
    return b


def _solve_tabulated(
    kernel: TabulatedKernel, omega_atom: float, grid: np.ndarray, tol: float
) -> np.ndarray:
    """Implicit trapezoid steps with the history sum split into blocks.

    The memory sum hist_i = sum_{0<j<i} alpha_{i-j} b_j is accumulated by the
    relaxed (blocked) convolution of Hairer, Lubich & Schlichte, SIAM J. Sci.
    Stat. Comput. 6, 532 (1985): [1, n] is halved recursively, the left half
    is solved first and its whole contribution to the right half's history is
    added by one FFT product.  Blocks shorter than 2*FFT_LEAF steps take the
    direct step-by-step dot, so n < 2*FFT_LEAF is the plain O(n^2) scheme
    bit for bit, and longer grids cost O(n log^2 n) and agree with it to
    round-off.
    """
    if kernel.tau[-1] + 1e-9 < grid[-1]:
        raise ValueError(
            f"kernel table covers tau <= {kernel.tau[-1]:.6g}, "
            f"but the solve needs {grid[-1]:.6g}"
        )
    h = float(grid[1] - grid[0])
    n = grid.size - 1
    alpha = kernel.evaluate(grid)
    b = np.empty(n + 1, dtype=complex)
    bdot = np.empty(n + 1, dtype=complex)
    # History contributions from blocks already solved, filled in by FFT.
    hist = np.zeros(n + 1, dtype=complex)
    b[0] = 1.0
    bdot[0] = -1j * omega_atom
    denom = 1.0 + 0.5 * h * (1j * omega_atom + 0.5 * h * alpha[0])
    err_acc = 0.0

    def steps(lo: int, hi: int) -> None:
        nonlocal err_acc
        # b_{i-1}, bdot_{i-1} and bdot_{i-2}, carried from step to step
        b_prev, bdot_prev = b[lo - 1], bdot[lo - 1]
        bdot_prev2 = bdot[lo - 2] if lo > 1 else None
        for i in range(lo, hi):
            # Trapezoid memory sum with the unknown b_i split off into the denominator.
            r = h * (0.5 * alpha[i] * b[0] + (hist[i] + alpha[i - lo:0:-1] @ b[lo:i]))
            bi = (b_prev + 0.5 * h * (bdot_prev - r)) / denom
            if i == 1:
                pred = b_prev + h * bdot_prev
            else:
                pred = b_prev + h * (1.5 * bdot_prev - 0.5 * bdot_prev2)
            err_acc += abs(bi - pred) / 6.0
            b[i] = bi
            bdot_i = -1j * omega_atom * bi - (r + 0.5 * h * alpha[0] * bi)
            bdot[i] = bdot_i
            b_prev, bdot_prev, bdot_prev2 = bi, bdot_i, bdot_prev

    def block(lo: int, hi: int) -> None:
        span = hi - lo
        if span < 2 * FFT_LEAF:
            steps(lo, hi)
            return
        mid = lo + span // 2
        block(lo, mid)
        # Lags 1..span-1 fit in a circular transform of size >= span; the
        # wrapped terms land only on outputs below mid - lo, which are dropped.
        size = 1 << (span - 1).bit_length()
        conv = np.fft.ifft(np.fft.fft(b[lo:mid], size) * np.fft.fft(alpha[:span], size))
        hist[mid:hi] += conv[mid - lo:span]
        block(mid, hi)

    block(1, n + 1)
    if np.isfinite(tol) and err_acc > tol:
        raise ConvergenceError(
            f"step too coarse: accumulated local-error estimate {err_acc:.3e} "
            f"(tol {tol:.1e})"
        )
    return b


def solve_amplitude(
    kernel: Kernel,
    omega_atom: float,
    t_max: float,
    dt: float,
    tol: float = DEFAULT_TOL,
) -> AmplitudeSolution:
    """Solve the amplitude equation on a uniform grid 0..t_max.

    Exponential kernels integrate the equivalent linear pair with fixed-step
    RK4 and gate accuracy by a step-halving comparison; tabulated kernels use
    an implicit trapezoid scheme and gate by an accumulated
    predictor-corrector error estimate (history summed as in _solve_tabulated).
    Either gate failing raises ConvergenceError; pass tol=inf to skip the
    gate (convergence studies), while NaN or a negative tol is a ValueError.

    The contractivity |b| <= 1 is enforced for exponential kernels and warned
    about for tabulated data, which need not be physical.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be non-negative (inf skips the gate), got {tol}")
    grid = uniform_grid(t_max, dt)
    if isinstance(kernel, ExponentialKernel):
        b = _solve_exponential(kernel, omega_atom, grid, tol)
    elif isinstance(kernel, TabulatedKernel):
        b = _solve_tabulated(kernel, omega_atom, grid, tol)
    else:
        raise ValueError(f"unsupported kernel type {type(kernel).__name__}")
    overshoot = float(np.max(np.abs(b))) - 1.0
    if overshoot > CONTRACTIVITY_SLACK:
        if isinstance(kernel, ExponentialKernel):
            raise ConvergenceError(
                f"|b| exceeds 1 by {overshoot:.3e}: the step is unstable; reduce dt")
        warnings.warn(f"|b| exceeds 1 by {overshoot:.3e}; tabulated kernel may be unphysical",
                      RuntimeWarning, stacklevel=2)
    b[0] = 1.0
    return AmplitudeSolution(t=grid, b=b, omega_atom=omega_atom)


def volterra_residual(sol: AmplitudeSolution, kernel: Kernel) -> np.ndarray:
    """Pointwise defect |db/dt + i*omega*b + memory integral| on the grid.

    db/dt is reconstructed by centered differences (one-sided second-order
    stencils at the ends) and the memory integral by trapezoid quadrature, so
    the reported defect is itself O(dt^2) even for an exact solution; it is a
    diagnostic, not the solver's accuracy gate.
    """
    b = sol.b
    h = sol.dt
    n = b.size - 1
    alpha = kernel.evaluate(sol.t)
    # A transform longer than 2n holds the whole linear convolution: nothing wraps.
    size = 1 << (2 * n).bit_length()
    full = np.fft.ifft(np.fft.fft(alpha, size) * np.fft.fft(b, size))[: n + 1]
    q = h * (full - 0.5 * alpha * b[0] - 0.5 * alpha[0] * b)
    q[0] = 0.0
    bdot = np.gradient(b, h, edge_order=2)
    return np.abs(bdot + 1j * sol.omega_atom * b + q)


def coefficient_f(sol: AmplitudeSolution, b_floor: float = B_FLOOR) -> AmplitudeSolution:
    """Fill in the time-local decay coefficient f = -(db/dt + i*omega*b)/b.

    Raises SingularCoefficientError when |b| dips below b_floor anywhere on
    the grid (the coefficient diverges where b passes through zero, which
    happens in the strong-coupling regime).  The value at t = 0 is pinned to
    the exact f(0) = 0; elsewhere db/dt comes from centered differences.
    Warns when the real part goes materially negative, which the weak-coupling
    regime forbids.
    """
    babs = np.abs(sol.b)
    if babs.min() < b_floor:
        idx = int(np.argmax(babs < b_floor))
        raise SingularCoefficientError(
            f"|b| = {babs[idx]:.3e} < {b_floor:.1e} first at t = {sol.t[idx]:.6g}; "
            "the decay coefficient is singular there"
        )
    bdot = np.gradient(sol.b, sol.dt, edge_order=2)
    f = -(bdot + 1j * sol.omega_atom * sol.b) / sol.b
    f[0] = 0.0
    fr_min = float(f.real.min())
    if fr_min < WEAK_COUPLING_F_FLOOR:
        warnings.warn(
            f"decay coefficient has negative real part (min {fr_min:.3e}); "
            "outside the weak-coupling regime this is expected",
            RuntimeWarning,
            stacklevel=2,
        )
    return replace(sol, f=f)


def gamma_of_t(sol: AmplitudeSolution) -> AmplitudeSolution:
    """Fill in gamma(t) = exp(-integral of Re f), the residual amplitude.

    Requires coefficient_f to have run; gamma(0) = 1 exactly.  An excess over
    1 of at most CONTRACTIVITY_SLACK is round-off in f and is clipped to 1.
    """
    if sol.f is None:
        raise ValueError("coefficient_f must run before gamma_of_t")
    f = sol.f.real
    integral = np.concatenate(([0.0], np.cumsum(sol.dt * (f[1:] + f[:-1]) / 2.0)))
    gamma = np.exp(-integral)
    gamma[(gamma > 1.0) & (gamma <= 1.0 + CONTRACTIVITY_SLACK)] = 1.0
    return replace(sol, gamma=gamma)


def gamma_identity_defect(sol: AmplitudeSolution) -> float:
    """Largest deviation of gamma(t) from |b(t)|.

    The two are equal identically (Re f is the log-derivative of |b|), so the
    defect measures the combined differentiation + quadrature error.
    """
    if sol.gamma is None:
        raise ValueError("gamma_of_t must run before gamma_identity_defect")
    return float(np.max(np.abs(sol.gamma - np.abs(sol.b))))


def full_solution(kernel: Kernel, omega_atom: float, t_max: float, dt: float,
                  tol: float = DEFAULT_TOL) -> AmplitudeSolution:
    """solve_amplitude + coefficient_f + gamma_of_t in one call."""
    sol = solve_amplitude(kernel, omega_atom, t_max, dt, tol=tol)
    return gamma_of_t(coefficient_f(sol))
