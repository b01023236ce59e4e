"""Independent reference implementations used only by the tests.

These deliberately avoid the package's own algorithms: the double series is
split into a closed-form part and an exponentially convergent remainder,
and the dark cube mean is the integral of the cubed 1D survival, which
never sums the series; the Euler acceleration of alternating sums is
computed by its definition, iterated averaging of partial sums; the lag
correlation is integrated panel by panel between the zeros of the cosine,
with the alternating panel tail accelerated by iterated averaging of raw
partial sums, or by mpmath's oscillatory quadrature; the mean hit time of
the discrete Euler walk solves the one-step renewal equation by Nystrom
quadrature, with no sampling; the finite-difference survival is the dense
matrix exponential of the package's central-difference matrix, not its sine
eigenbasis; the radial finite-difference mean is the banded LAPACK solve of
the tridiagonal system that the package solves in closed form. The scalar
image sum is the one exception: it is the package's survival as it was
evaluated one time at a time, kept so that the array form can be pinned to
it bit for bit.
"""
import math

import mpmath as mp
import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm, solve_banded
from scipy.special import log_ndtr


def cube_dark_mean_mpmath(dps: int = 20) -> float:
    """Driftless mean exit time from the cube, units e_m = sigma = 1, as the
    integral over t of K(t)^3, K being the survival in (-1, 1) of a standard
    Brownian motion from 0. K is the image sum
    sum_n (-1)^n (Phi((2n+1)/sqrt t) - Phi((2n-1)/sqrt t)) for t < 1 and the
    eigenfunction series (4/pi) sum_k (-1)^k e^(-(2k+1)^2 pi^2 t/8)/(2k+1)
    for t >= 1; the terms left out are below 1e-26. This route never sums the
    double series F."""
    with mp.workdps(dps):
        def survival(t):
            if t < 1:
                r = 1 / mp.sqrt(t)
                return mp.fsum((-1) ** n * (mp.ncdf((2 * n + 1) * r) - mp.ncdf((2 * n - 1) * r))
                               for n in range(-6, 7))
            return 4 / mp.pi * mp.fsum((-1) ** k / (2 * k + 1)
                                       * mp.exp(-(2 * k + 1) ** 2 * mp.pi ** 2 * t / 8)
                                       for k in range(6))

        return float(mp.quad(lambda t: survival(t) ** 3, [0, 0.25, 1, 4, 16, mp.inf]))


def f3_split(x: float, dps: int = 30) -> float:
    """The double series split into a closed form and a fast remainder.

    With o_k = 2k+1, S_kl = o_k^2 + o_l^2 and y_kl = sqrt(x^2 + pi^2 S_kl/4),
    F(x) = pi^4/128 - (pi/4) sum_k (-1)^k sech(pi o_k/2)/o_k^3
           - sum_{k,l} (-1)^(k+l) r_kl/(S_kl o_k o_l),  r_kl = cosh x/cosh y_kl.
    The inner sums of the constant part follow from the partial fractions of
    sech, sum_l (-1)^l/(o_l (o_l^2 + a^2)) = (pi/(4 a^2)) (1 - sech(pi a/2)).
    r_kl falls off as e^-(y_kl - x), so both sums stop a priori once that
    exponent passes the working precision.
    """
    with mp.workdps(dps):
        xm = mp.mpf(x)
        cosh_x = mp.cosh(xm)
        cut = (dps + 5) * mp.log(10)
        # y_kl - x <= cut  <=>  S_kl <= s_max
        s_max = 4 * ((xm + cut) ** 2 - xm * xm) / mp.pi ** 2
        single = mp.mpf(0)
        double = mp.mpf(0)
        k = 0
        while (2 * k + 1) ** 2 + 1 <= s_max:
            ok = 2 * k + 1
            single += (-1) ** k * mp.sech(mp.pi * ok / 2) / ok ** 3
            l = 0
            while ok * ok + (2 * l + 1) ** 2 <= s_max:
                ol = 2 * l + 1
                s = ok * ok + ol * ol
                r = cosh_x / mp.cosh(mp.sqrt(xm * xm + mp.pi ** 2 * s / 4))
                double += (-1) ** (k + l) * r / (s * ok * ol)
                l += 1
            k += 1
        return float(mp.pi ** 4 / 128 - mp.pi / 4 * single - double)


def iterated_average_sum(signed_terms) -> tuple[np.ndarray, np.ndarray]:
    """Euler-accelerated alternating sums along the last axis, by definition:
    average the partial sums pairwise until two entries remain; return their
    mean and half their gap. A single term is its own value and tail."""
    s = np.cumsum(np.asarray(signed_terms, dtype=float), axis=-1)
    if s.shape[-1] == 1:
        return s[..., 0], np.abs(s[..., 0])
    while s.shape[-1] > 2:
        s = 0.5 * (s[..., 1:] + s[..., :-1])
    return 0.5 * (s[..., 0] + s[..., 1]), 0.5 * np.abs(s[..., 1] - s[..., 0])


# Zero-intensity cube mean (128/pi^4) F(0), in units e_m^2/sigma^2, and the
# dark rate, its inverse; test_double_series_matches_independent_resummation[0.0]
# pins both to cube_dark_mean_mpmath().
DARK_MEAN_3D = 0.4497026386354831
DARK_RATE_3D = 2.223691644403655


def g_panel_quadrature(tau: float, n_panels: int = 120) -> float:
    """Correlation integral via explicit between-zeros panels.

    The integrand (2/3pi) x^3 cos(tau x)/(x^2+1)^4 changes sign at the
    cosine zeros x_j = (pi/2 + j pi)/tau; each panel is integrated with
    plain adaptive quadrature and the alternating panel sequence is summed
    by iterated averaging of its partial sums.
    """
    pref = 2.0 / (3.0 * math.pi)

    def f(x):
        return pref * x ** 3 * math.cos(tau * x) / (x * x + 1.0) ** 4

    if tau <= 0:
        val, _ = quad(lambda x: pref * x ** 3 / (x * x + 1.0) ** 4, 0.0, np.inf,
                      epsabs=1e-14, epsrel=1e-12)
        return float(val)

    zeros = (math.pi / 2 + math.pi * np.arange(n_panels)) / tau
    head, _ = quad(f, 0.0, zeros[0], epsabs=1e-15, epsrel=1e-13, limit=200)
    panels = np.array([
        quad(f, zeros[j], zeros[j + 1], epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        for j in range(n_panels - 1)
    ])
    partial = np.cumsum(panels)
    while partial.size > 1:
        partial = 0.5 * (partial[1:] + partial[:-1])
    return float(head + partial[0])


def g_mpmath(tau: float, dps: int = 30) -> float:
    """Correlation integral (2/3pi) int_0^inf x^3 cos(tau x)/(x^2+1)^4 dx by
    mpmath's oscillatory quadrature, which sums the between-zeros integrals
    with series extrapolation. Meant for lags of order one and above, where
    a zero spacing pi/tau is short against the decay of the kernel."""
    with mp.workdps(dps):
        t = mp.mpf(tau)
        pref = 2 / (3 * mp.pi)
        return float(mp.quadosc(lambda x: pref * x ** 3 * mp.cos(t * x) / (x * x + 1) ** 4,
                                [0, mp.inf], omega=t))


def euler_walk_mean_1d(x: float, dt: float, shift: float, panel: float = 0.5) -> float:
    """Exact mean hit time of the Euler walk Y_n = Y_{n-1} + x dt + sqrt(dt) Z_n
    from Y_0 = 0, absorbed at the first n >= 1 with |Y_n| >= a, where
    a = 1 - shift*sqrt(dt) (units e_m = sigma = 1).

    The expected step count u(y) from y solves u = 1 + K u with the Gaussian
    one-step kernel K on (-a, a). Nystrom quadrature on Gauss-Legendre panels
    of width panel*sqrt(dt) resolves the kernel, so the solve is exact to
    round-off in practice; the mean is dt*(1 + (K u)(0)).
    """
    a = 1.0 - shift * math.sqrt(dt)
    g, w = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(-a, a, math.ceil(2.0 * a / (panel * math.sqrt(dt))) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    y = ((edges[:-1, None] + edges[1:, None]) / 2 + half * g).ravel()
    w = (half * w).ravel()

    def step(frm, to):
        d = to - frm - x * dt
        return np.exp(-d * d / (2.0 * dt)) / math.sqrt(2.0 * math.pi * dt)

    u = np.linalg.solve(np.eye(y.size) - step(y[:, None], y[None, :]) * w, np.ones(y.size))
    return dt * (1.0 + float(np.dot(step(0.0, y) * w, u)))


def fd_survival_expm(t_target: float, drift: float, nx: int) -> float:
    """The survival of validation.pde_survival_1d, units e_m = sigma = 1, by
    the dense matrix exponential: 1^T expm(-M t) e_c, where
    M = tridiag(-(al+be), 2 al, -(al-be)) on the nx - 2 interior nodes and
    e_c is a point mass on the centre node, so nx must be odd. scipy's
    scaling and squaring with a Pade approximant never diagonalises M."""
    dx = 2.0 / (nx - 1)
    al = 1.0 / (2.0 * dx * dx)
    be = drift / (2.0 * dx)
    m = nx - 2
    mat = (np.diag(np.full(m, 2.0 * al)) + np.diag(np.full(m - 1, -(al + be)), -1)
           + np.diag(np.full(m - 1, -(al - be)), 1))
    return float(expm(-mat * t_target)[:, m // 2].sum())


def radial_fd_banded(e_m: float, sigma: float, nr: int) -> float:
    """The finite-difference system of validation.radial_mean_exit_time,
    (sigma^2/2)(u'' + 2u'/r) = -1 on r_j = j dr with u(e_m) = 0 and the
    r = 0 row 3 u''(0) from a symmetric ghost point, solved by LAPACK's
    banded solver. Returns u(0)."""
    diff = 0.5 * sigma * sigma
    dr = e_m / (nr - 1)
    m = nr - 1
    c_lap = diff / dr ** 2
    # grid rows j = 1 .. m-1 at r = j dr; row m is the absorbing end u = 0
    c_drv = diff / (np.arange(1, m) * dr * dr)
    ab = np.zeros((3, m))
    ab[2, :-1] = c_lap - c_drv
    ab[1, 1:] = -2.0 * c_lap
    ab[0, 2:] = (c_lap + c_drv)[:-1]
    ab[1, 0] = -6.0 * diff / dr ** 2
    ab[0, 1] = 6.0 * diff / dr ** 2
    u = solve_banded((1, 1), ab, np.full(m, -1.0))
    return float(u[0])


def image_survival_scalar(t: float, drift: float, e_m: float, sigma: float,
                          n_images: int = 30) -> float:
    """The image-sum survival of one axis at one time, in the arithmetic the
    package used before it took arrays of t: the 2 n_images + 1 image terms
    exp(log weight + log Phi(upper)) - exp(log weight + log Phi(lower))
    summed with alternating signs, clipped to [0, 1]. The truncation guards
    are left out."""
    sig2 = sigma ** 2
    root_t = sigma * math.sqrt(t)
    n = np.arange(-n_images, n_images + 1)
    centers = 2.0 * e_m * n
    log_weight = -centers * drift / sig2
    upper = (centers + e_m - drift * t) / root_t
    lower = (centers - e_m - drift * t) / root_t
    terms = np.exp(log_weight + log_ndtr(upper)) - np.exp(log_weight + log_ndtr(lower))
    return min(1.0, max(0.0, float(np.where(n % 2 == 0, terms, -terms).sum())))
