"""Memory-kernel evolution of the single-excitation amplitude.

One damped atom with a structured reservoir obeys, in its rotating frame,

    db/dt + integral_0^t alpha(t - s) b(s) ds = 0,  b(0) = 1,

with alpha the reservoir correlation kernel as that frame sees it
(cli.atom_kernel), so no atom frequency enters here.  The solvers return b
and db/dt; the time-local decay coefficient is F(t) = -(db/dt)/b, and the
residual amplitude gamma(t) = |b(t)| feeds the damping channel.

A single-pole (exponential) kernel reduces the equation to a linear 2x2 ODE
with constant coefficients via the auxiliary memory integral, whose exact
solution is evaluated at every grid point.  Tabulated kernels are
handled by an implicit trapezoid scheme; being linear with constant
coefficients, it is one power-series quotient B = P/Q in generating
functions (Lubich 1988), and 1/Q comes from Newton's iteration with FFT
products (Kung 1974): O(n log n) with no loop over grid points, equal to
the step-by-step O(n^2) scheme to round-off.  Only numpy is needed.
"""

from __future__ import annotations

import warnings
from dataclasses import astuple, dataclass, replace
from typing import Union

import numpy as np
# numpy >= 2 loads numpy.fft on first attribute access; load it with this
# module so the first solve does not pay for the import.
import numpy.fft  # noqa: F401

from .errors import ConvergenceError, SingularCoefficientError

DEFAULT_TOL = 1e-8
B_FLOOR = 1e-6
# Allowed excess of |b| over 1 in solve_amplitude, and of gamma, clipped to 1.
CONTRACTIVITY_SLACK = 1e-9


@dataclass(frozen=True)
class ExponentialKernel:
    """Single-pole reservoir kernel (strength/2) * rate * exp(-(rate + i*center) tau).

    strength is the Markov-limit decay rate (the kernel integrates to
    strength/2 at zero detuning), memory_rate the inverse memory time, and
    center_frequency the reservoir center, which the solvers read as the
    detuning from the atom.  strength = 0 is allowed and means free evolution.
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
    is named in the ValueError.  Each refusal starts with source, which
    load_kernel_table sets to name the file.
    """

    tau: np.ndarray
    alpha: np.ndarray
    source: str = "kernel table"

    def __post_init__(self) -> None:
        tau = np.asarray(self.tau, dtype=float)
        alpha = np.asarray(self.alpha, dtype=complex)
        if tau.ndim != 1 or tau.size < 2 or alpha.shape != tau.shape:
            raise ValueError(
                f"{self.source}: tau and alpha must be 1-d arrays of equal length >= 2"
            )
        finite = np.isfinite(tau) & np.isfinite(alpha)
        if not finite.all():
            row = int(np.argmin(finite))
            raise ValueError(
                f"{self.source} row {row} is not finite: "
                f"tau = {float(tau[row])}, alpha = {complex(alpha[row])}"
            )
        if abs(tau[0]) > 1e-12:
            raise ValueError(f"{self.source}: tau grid must start at 0, got {tau[0]}")
        steps = np.diff(tau)
        if steps.min() <= 0 or (steps.max() - steps.min()) > 1e-9 * steps.max():
            raise ValueError(f"{self.source}: tau grid must be uniform and increasing")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "alpha", alpha)

    @property
    def step(self) -> float:
        return float(self.tau[1] - self.tau[0])

    def evaluate(self, tau: np.ndarray) -> np.ndarray:
        tau = np.asarray(tau, dtype=float)
        if np.any(tau < -1e-12):
            raise ValueError("tau outside the tabulated range")
        if np.any(tau > self.tau[-1] + 1e-9):
            raise ValueError(f"{self.source} covers tau <= {self.tau[-1]:.6g}, "
                             f"but the solve needs {np.max(tau):.6g}")
        return np.interp(tau, self.tau, self.alpha)


Kernel = Union[ExponentialKernel, TabulatedKernel]


def _bad_table_line(path) -> str:
    """The refusal of a kernel table, naming its first line, counted from 1,
    that is neither blank or comment nor three finite numbers.  Each line
    is read alone by np.loadtxt, numpy's own parser; this runs only once
    the table is known to be bad."""
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                row = np.loadtxt([raw], comments="#", ndmin=2)
                if row.size == 0 or (row.shape == (1, 3) and np.isfinite(row).all()):
                    continue
            except ValueError:
                pass
            return (f"kernel table {path} line {lineno}: expected three finite numbers "
                    f"'tau alpha_re alpha_im', got {raw.strip()!r}")
    return f"kernel table {path} is not rows of 'tau alpha_re alpha_im'"


def load_kernel_table(path) -> TabulatedKernel:
    """Read a kernel table: whitespace-separated "tau alpha_re alpha_im" rows,
    '#' starts a comment, tau uniform starting at 0.  A row that is not three
    finite numbers is a ValueError naming the file and the line; the
    kernel's other refusals name the file too."""
    with warnings.catch_warnings():
        # numpy warns on a table, or a line read alone, with no data; the
        # warning would only reach stderr, or raise under -W error.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            data = np.loadtxt(path, comments="#", ndmin=2)
        except ValueError:  # a ragged row or a word numpy cannot read
            data = None
        if data is not None and len(data) < 2:
            raise ValueError(f"kernel table {path} has {len(data)} data "
                             f"row{'' if len(data) == 1 else 's'}; at least 2 are needed")
        if data is None or data.shape[1] != 3 or not np.isfinite(data).all():
            raise ValueError(_bad_table_line(path))
    return TabulatedKernel(tau=data[:, 0].copy(), alpha=data[:, 1] + 1j * data[:, 2],
                           source=f"kernel table {path}")


@dataclass(frozen=True)
class AmplitudeSolution:
    """Amplitude b and the solver's db/dt on a uniform grid, the error estimate
    the tabulated solver's gate compared with tol (None for an exponential
    kernel, whose solution is exact), and, once computed, the decay
    coefficient f and the residual amplitude gamma."""

    t: np.ndarray
    b: np.ndarray
    bdot: np.ndarray | None = None
    f: np.ndarray | None = None
    gamma: np.ndarray | None = None
    error_estimate: float | None = None

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


def _solve_exponential(kernel: ExponentialKernel,
                       grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """b and bdot = -z of the pair y = (b, z), z the running memory integral,
    exactly: y' = M y with constant M = [[0, -1], [g, -(rate + i center)]],
    g = strength * rate / 2, so y(t) = exp(M t) y(0), here by Sylvester's
    formula about the slow root l1 (docs/derivations.md, section 6):

        exp(M t) = e^{l1 t} [I + t phi(x) (M - l1 I)],  x = (l1 - l2) t,
        phi(x) = -expm1(-x)/x,  phi(0) = 1.

    It is exact at critical damping (l1 = l2), and zero coupling gives
    l1 = 0, b = 1 and bdot = 0 exactly.
    """
    g = 0.5 * kernel.strength * kernel.memory_rate
    mu = -0.5 * complex(kernel.memory_rate, kernel.center_frequency)
    # The fast root l2 = mu + delta, delta^2 = mu^2 - g = (mu - sqrt g)(mu + sqrt g)
    # formed as a product, which cannot overflow, and taken along mu: the sum
    # does not cancel, and Re(l2 - l1) <= 0.  l1 = g/l2 by Vieta; g = 0 can
    # come with mu = 0 (memory rate 5e-324), where l2 = 0 too.
    delta = np.sqrt(mu - np.sqrt(g)) * np.sqrt(mu + np.sqrt(g))
    if (delta * mu.conjugate()).real < 0.0:
        delta = -delta
    l2 = mu + delta
    l1 = g / l2 if g else 0.0
    # t phi(x) = -expm1(-x)/d, d = l1 - l2.  Re d >= 0, so |t phi| <= 2/|d|.
    # Where x = d t overflows (a far-detuned pole), e^{-x} keeps only a phase
    # no float can hold, and t phi takes 1/d, its mean over that phase: off
    # by at most 1/|d| < t/DBL_MAX, where expm1 would give nan.
    d = l1 - l2
    if d == 0.0:
        t_phi = grid.astype(complex)
    else:
        x = d * grid
        t_phi = -np.expm1(-x) / d
        t_phi[~np.isfinite(x)] = 1.0 / d
    decay = np.exp(l1 * grid)
    return decay * (1.0 - l1 * t_phi), -g * decay * t_phi


def _circular_product(x: np.ndarray, y: np.ndarray, out: np.ndarray,
                      work: np.ndarray) -> np.ndarray:
    """out <- x * y, circular over out.size points, by FFT; work is scratch."""
    np.fft.fft(x, out.size, out=out)
    np.fft.fft(y, out.size, out=work)
    out *= work
    return np.fft.ifft(out, out=out)


def _solve_tabulated(kernel: TabulatedKernel,
                     grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Implicit trapezoid scheme, solved as one power-series quotient.

    b_i - b_{i-1} = c (bdot_i + bdot_{i-1}), c = h/2, bdot_i = -S_i, with the
    trapezoid memory sum S_i = h (A B)_i - c alpha_i - c alpha_0 b_i, is Q B = P
    in generating functions B = sum b_i x^i, A = sum alpha_k x^k (Lubich,
    Numer. Math. 52, 129 (1988)): Q = (1 - x) + d, d = c (1 + x)(h A -
    c alpha_0), and B = 1/2 + (Q_0 + (1 + c^2 alpha_0) x)/(2Q).
    1/Q comes from Newton's iteration g <- g - g (Q g - 1) on FFT products (Kung,
    Numer. Math. 22, 341 (1974)): O(n log n), no loop over grid points.  Returns
    b, bdot and the accumulated predictor-corrector local-error estimate.
    """
    h = float(grid[1] - grid[0])
    c, n = 0.5 * h, grid.size - 1
    alpha = kernel.evaluate(grid)
    lin = -c * (c * alpha[0])
    q0 = 1.0 + (h * c * alpha[0] + lin)
    # Every FFT product goes through two reused buffers, which keeps the heap
    # from fragmenting; d is built in them, b in g's memory, bdot in alpha's.
    u, v = np.empty((2, 1 << n.bit_length()), dtype=complex)
    g = np.empty(n + 1, dtype=complex)
    g[0], m = 1.0 / q0, 1
    while m <= n:
        # g = 1/Q mod x^m, so Q g = 1 + e, e_j = (d g)_j - [j = m] g_{m-1} for
        # m <= j < k, and 1/Q = g - g e mod x^k.  Only d g, of size O(h), goes
        # through the FFT; both circular products wrap onto j < m only.  The
        # first product leaves the transform of g in fv for the second.
        k = min(2 * m, n + 1)
        width = 1 << (k - 1).bit_length()
        fu, fv = u[:width], v[:width]
        fu[0], fu[k:] = alpha[0], 0.0
        np.add(alpha[1:k], alpha[: k - 1], out=fu[1:k])
        fu[:k] *= h * c
        fu[:2] += lin
        _circular_product(fu, g[:m], fu, fv)
        fu[:m] = 0.0
        np.fft.fft(fu, out=fu)
        fu *= fv
        np.fft.ifft(fu, out=fu)
        np.multiply(g[: k - m], g[m - 1], out=g[m:k])
        g[m:k] -= fu[m:k]
        m = k
    b = g
    np.multiply(b[:-1], 0.5 - 0.5 * lin, out=u[:n])
    b *= 0.5 * q0
    b[1:] += u[:n]
    b[0] = 1.0
    # bdot = h (alpha/2 - A B) + c alpha_0 b, with A B mod x^(n+1)
    # = A_lo B_lo + x^s (A_hi B_lo + A_lo B_hi) over halves of length s: no
    # product outgrows the buffers, so nothing wraps.  Each half of alpha is
    # halved in place once its last product is taken.
    s, bdot, b_coef = (n + 2) // 2, alpha, c * alpha[0]
    ab = _circular_product(alpha[s:], b[:s], u, v)
    bdot[s:] *= 0.5
    bdot[s:] -= ab[: n + 1 - s]
    bdot[s:] -= _circular_product(alpha[:s], b[s:], u, v)[: n + 1 - s]
    ab = _circular_product(alpha[:s], b[:s], u, v)
    bdot[:s] *= 0.5
    bdot -= ab[: n + 1]
    bdot *= h
    bdot += np.multiply(b, b_coef, out=u[: n + 1])
    bdot[0] = 0.0
    # Local error b_i - b_{i-1} - h (3 bdot_{i-1} - bdot_{i-2})/2, Euler at i = 1.
    e = np.subtract(b[1:], b[:-1], out=u[:n])
    e -= np.multiply(bdot[:-1], 1.5 * h, out=v[:n])
    e[1:] += np.multiply(bdot[:-2], 0.5 * h, out=v[: n - 1])
    return b, bdot, float(np.sum(np.abs(e, out=v.real[:n]))) / 6.0


def solve_amplitude(kernel: Kernel, t_max: float, dt: float,
                    tol: float = DEFAULT_TOL) -> AmplitudeSolution:
    """Solve the rotating-frame amplitude equation on a uniform grid 0..t_max.

    Exponential kernels take the exact solution of the equivalent linear
    pair at every grid point; nothing is gated and error_estimate is None.
    Tabulated kernels use an implicit trapezoid scheme and gate by an
    accumulated predictor-corrector error estimate, returned as
    error_estimate: it raises ConvergenceError when the estimate exceeds tol;
    tol=inf skips it (convergence studies), NaN or a negative tol is a
    ValueError.  Both return db/dt as bdot.

    The contractivity |b| <= 1 is enforced for exponential kernels and warned
    about for tabulated data, which need not be physical.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be non-negative (inf skips the gate), got {tol}")
    grid = uniform_grid(t_max, dt)
    if isinstance(kernel, ExponentialKernel):
        with np.errstate(over="ignore", invalid="ignore"):
            b, bdot = _solve_exponential(kernel, grid)
        if not (np.isfinite(b).all() and np.isfinite(bdot).all()):
            raise ConvergenceError(f"the single-pole amplitude overflows for kernel "
                                   f"parameters {astuple(kernel)}")
        error = None
    elif isinstance(kernel, TabulatedKernel):
        b, bdot, error = _solve_tabulated(kernel, grid)
        if error > tol:
            raise ConvergenceError(f"step too coarse: accumulated local-error estimate "
                                   f"{error:.3e} (tol {tol:.1e})")
    else:
        raise ValueError(f"unsupported kernel type {type(kernel).__name__}")
    overshoot = float(np.max(np.abs(b))) - 1.0
    if overshoot > CONTRACTIVITY_SLACK:
        if isinstance(kernel, ExponentialKernel):
            raise ConvergenceError(f"|b| exceeds 1 by {overshoot:.3e}: the single-pole "
                                   "amplitude lost precision")
        warnings.warn(f"|b| exceeds 1 by {overshoot:.3e}; tabulated kernel may be unphysical",
                      RuntimeWarning, stacklevel=2)
    return AmplitudeSolution(t=grid, b=b, bdot=bdot, error_estimate=error)


def coefficient_f(sol: AmplitudeSolution, b_floor: float = B_FLOOR) -> AmplitudeSolution:
    """Fill in the time-local decay coefficient f = -(db/dt)/b.

    db/dt is the solver's own (sol.bdot).  Raises SingularCoefficientError
    when |b| dips below b_floor anywhere on the grid (f diverges where b
    passes through zero, in the strong-coupling regime).  f(0) is pinned to
    the exact 0.  Re f may go negative (backflow from a structured
    reservoir); a coefficient the master cannot integrate is refused there,
    by its positivity check.
    """
    if sol.bdot is None:
        raise ValueError("coefficient_f needs the solver's db/dt: use solve_amplitude")
    babs = np.abs(sol.b)
    if babs.min() < b_floor:
        idx = int(np.argmax(babs < b_floor))
        raise SingularCoefficientError(
            f"|b| = {babs[idx]:.3e} < {b_floor:.1e} first at t = {sol.t[idx]:.6g}; "
            "the decay coefficient is singular there"
        )
    f = -sol.bdot / sol.b
    f[0] = 0.0
    return replace(sol, f=f)


def _clip_round_off(gamma: np.ndarray) -> np.ndarray:
    """Clip, in place, an excess over 1 of at most CONTRACTIVITY_SLACK to 1."""
    gamma[(gamma > 1.0) & (gamma <= 1.0 + CONTRACTIVITY_SLACK)] = 1.0
    return gamma


def full_solution(kernel: Kernel, t_max: float, dt: float,
                  tol: float = DEFAULT_TOL) -> AmplitudeSolution:
    """solve_amplitude + coefficient_f in one call, with gamma = |b| clipped
    to 1 where it exceeds 1 by at most CONTRACTIVITY_SLACK."""
    sol = coefficient_f(solve_amplitude(kernel, t_max, dt, tol=tol))
    return replace(sol, gamma=_clip_round_off(np.abs(sol.b)))
