"""Distribution fitting and evaluation for fingerprint likelihood models.

``scipy.special`` is imported inside the three functions that call it: it
takes about a third of a second to load, and only the Wi-Fi pipeline calls
them.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .geometry import Grid

__all__ = [
    "GaussianStats",
    "fit_gaussian",
    "gaussian_loglik",
    "gaussian_loo_loglik",
    "GammaParams",
    "fit_gamma",
    "gamma_logpdf",
    "VonMisesParams",
    "fit_vonmises",
    "vonmises_logpdf",
    "learn_detection_map",
    "KrigingModel",
    "kriging_fit",
    "kriging_predict",
    "kriging_cond",
]

KAPPA_MAX = 1000.0
_RESULTANT_CAP = 1.0 - 1e-6
_LOG_2PI = math.log(2.0 * math.pi)
_EPS = np.finfo(float).eps


def _freeze(obj, **arrays):
    """Store validated arrays on a frozen dataclass, read-only."""
    for name, arr in arrays.items():
        arr.flags.writeable = False
        object.__setattr__(obj, name, arr)


def _param_arrays(**params) -> list:
    """Float (N,) blocks of equal length."""
    arrays = [np.array(v, dtype=float) for v in params.values()]
    shape = arrays[0].shape
    if len(shape) != 1 or any(a.shape != shape for a in arrays):
        raise ValueError(f"parameters {sorted(params)} must be equal-length (N,) vectors")
    return arrays


# ---------------------------------------------------------------------------
# complex Gaussian fingerprint model
# ---------------------------------------------------------------------------

# eigh leaves its eigenvectors orthonormal, and a PSD scatter's eigenvalues
# non-negative, to a few d * eps; GaussianStats refuses departures past
# this many times d * eps
_SPECTRAL_SLACK = 1e3


@dataclass(frozen=True)
class GaussianStats:
    """Circularly symmetric complex Gaussians, one per grid point of a block, in spectral form.

    Mean (N, d) complex, ``eigvals`` (N, d) real, ``eigvecs`` (N, d, d)
    complex and ``loading`` (N,) real.  Model n's covariance is *defined*
    as ``V diag(eigvals[n] + loading[n]) V^H`` with ``V = eigvecs[n]``: the
    eigenpairs of its scatter and the diagonal loading added to it, so no
    consumer factorizes it again.  Arrays handed in with the stored dtype
    are kept, not copied: the model owns them and makes them read-only.

    Raises ValueError unless the shapes agree, every value is finite,
    ``loading >= 0``, every model's eigenvalues are at least
    ``-1e3 d eps max|eigvals|`` (a scatter is positive semidefinite up to
    the rounding of ``eigh``) and ``max |V^H V - I| <= 1e3 d eps``.
    """

    mean: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    loading: np.ndarray

    def __post_init__(self):
        if np.iscomplexobj(self.eigvals) or np.iscomplexobj(self.loading):
            raise ValueError("eigvals and loading must be real")
        mean = np.asarray(self.mean, dtype=complex)
        eigvals = np.asarray(self.eigvals, dtype=float)
        eigvecs = np.asarray(self.eigvecs, dtype=complex)
        loading = np.asarray(self.loading, dtype=float)
        if mean.ndim != 2 or mean.size == 0:
            raise ValueError(f"mean must be a non-empty (N, d) block, got shape {mean.shape}")
        if eigvals.shape != mean.shape:
            raise ValueError(f"eigvals shape {eigvals.shape} does not match mean {mean.shape}")
        if eigvecs.shape != mean.shape + mean.shape[-1:]:
            raise ValueError(f"eigvecs shape {eigvecs.shape} does not match mean {mean.shape}")
        if loading.shape != mean.shape[:-1]:
            raise ValueError(f"loading shape {loading.shape} does not match mean {mean.shape}")
        if not all(np.isfinite(a).all() for a in (mean, eigvals, eigvecs, loading)):
            raise ValueError("a Gaussian block holds a non-finite value")
        if np.any(loading < 0):
            raise ValueError("loading must be non-negative")
        tol = _SPECTRAL_SLACK * mean.shape[-1] * _EPS
        floor = -tol * np.max(np.abs(eigvals), axis=-1)
        if np.any(np.min(eigvals, axis=-1) < floor):
            raise ValueError(f"eigvals has negative entry {np.min(eigvals):.3e} "
                             f"past the rounding bound")
        gap = np.max(np.abs(np.conj(np.swapaxes(eigvecs, -1, -2)) @ eigvecs
                            - np.eye(mean.shape[-1])))
        if gap > tol:
            raise ValueError(f"eigvecs are not unitary (max |V^H V - I| {gap:.3e})")
        _freeze(self, mean=mean, eigvals=eigvals, eigvecs=eigvecs, loading=loading)

    @property
    def dim(self) -> int:
        return self.mean.shape[-1]


def _zero_scatter_bound(samples: np.ndarray) -> np.ndarray:
    """``d * eps * mean |x|^2``: a scatter trace at or below it is float rounding."""
    return samples.shape[-1] * _EPS * np.mean(np.abs(samples) ** 2, axis=(-2, -1))


def fit_gaussian(samples, loading_eps: float) -> GaussianStats:
    """Fit mean and covariance of complex fingerprint samples, one model per grid point.

    The covariance is the biased (divide by n) scatter of complex outer
    products plus diagonal loading ``loading_eps * trace / dim``, which keeps
    the model invertible with few snapshots.  A scatter whose trace is at or
    below float rounding of the samples (``trace <= dim * eps * mean |x|^2``)
    counts as zero: such a model is ``loading_eps * I`` with loading
    ``loading_eps``.  The scatter, made exactly Hermitian, is stored as its
    eigenpairs from one batched ``eigh`` (a zero scatter's are zeros and
    ``I``), so scoring needs no factorization.

    Args:
        samples: (N, n, d) array-like: n >= 1 complex sample vectors of
            dimension d for each of N grid points.
        loading_eps: relative diagonal loading factor.

    Returns:
        GaussianStats block: the scatter's eigenpairs and the loading.
    """
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim != 3 or 0 in arr.shape:
        raise ValueError(f"samples must form a non-empty (N, n, d) array, got shape {arr.shape}")
    if loading_eps < 0:
        raise ValueError("loading_eps must be non-negative")
    n, d = arr.shape[-2:]
    mean = arr.mean(axis=-2)
    centered = arr - mean[..., None, :]
    scatter = np.swapaxes(centered, -1, -2) @ centered.conj() / n
    scatter = (scatter + np.conj(np.swapaxes(scatter, -1, -2))) / 2.0
    trace = np.real(np.trace(scatter, axis1=-2, axis2=-1))
    # equal samples whose float mean does not reproduce them leave a
    # rounding-level scatter; below float precision of the samples it is zero
    zero = trace <= _zero_scatter_bound(arr)
    scatter[zero] = 0.0
    loading = np.where(zero, loading_eps, loading_eps * trace / d)
    eigvals, eigvecs = np.linalg.eigh(scatter)
    return GaussianStats(mean=mean, eigvals=eigvals, eigvecs=eigvecs, loading=loading)


def gaussian_loglik(f, stats: GaussianStats) -> np.ndarray:
    """Log-density of every fingerprint under every model of a block.

    Computes ``-d ln(pi) - ln det(R) - (f - m)^H R^{-1} (f - m)`` from each
    model's stored spectral factor ``R = V diag(D) V^H``, ``D = eigvals +
    loading``: ``ln det R = sum ln D`` and the quadratic form is
    ``|W (f - m)|^2`` with the whitening factor ``W = diag(D^-1/2) V^H``.
    Nothing is factorized or inverted.  Scoring against every model is one
    matrix product per chunk of fingerprints, with no ``(T, N, d)``
    difference array.

    Args:
        f: (T, d) fingerprints.
        stats: block of N fitted models.

    Returns:
        (T, N): entry ``[t, n]`` scores fingerprint t under model n.

    Raises:
        NumericError: naming the first model whose covariance is singular to
            working precision, ``min D <= d eps max D``.
    """
    arr = np.asarray(f, dtype=complex)
    if arr.ndim != 2 or arr.shape[-1] != stats.dim:
        raise ValueError(f"fingerprints must form a (T, {stats.dim}) array, "
                         f"got shape {arr.shape}")
    logdet, white = _whitening(stats)
    quad = _whitened_cross_norms(arr, white, stats.mean)
    return -stats.dim * math.log(math.pi) - logdet - quad


def _whitening(stats: GaussianStats) -> tuple:
    """``ln det R`` and the whitening factor ``W = diag(D^-1/2) V^H`` of every model.

    Raises:
        NumericError: naming the first model whose covariance is singular to
            working precision, ``min D <= d eps max D``.
    """
    D = stats.eigvals + stats.loading[:, None]
    singular = np.min(D, axis=-1) <= stats.dim * _EPS * np.max(D, axis=-1)
    if np.any(singular):
        bad = int(np.argmax(singular))
        raise NumericError(f"covariance of model {bad} is singular to working precision even "
                           f"after loading {stats.loading[bad]:.6g}")
    white = np.conj(np.swapaxes(stats.eigvecs, -1, -2)) / np.sqrt(D)[..., None]
    return np.sum(np.log(D), axis=-1), white


# elements of a (rows, N, d) temporary built at a time: the whitened block
# here, the difference block in matching.fingerprint_sqerr
_CROSS_CHUNK = 1 << 18


def _whitened_cross_norms(f: np.ndarray, white: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """``|W_n (f_t - m_n)|^2`` of every fingerprint t of ``f (T, d)`` against every model n.

    ``W_n f_t`` for all n is one product with the stacked ``(N*d, d)``
    factors, taken over row chunks so no temporary grows with T*N*d.
    """
    n, d = mean.shape
    stacked = white.reshape(n * d, d).T
    white_mean = np.matmul(white, mean[..., None])[..., 0]
    out = np.empty((f.shape[0], n))
    step = max(1, _CROSS_CHUNK // (n * d))
    for lo in range(0, f.shape[0], step):
        z = (f[lo:lo + step] @ stacked).reshape(-1, n, d)
        z -= white_mean
        parts = z.view(float)  # (rows, n, 2d): real and imaginary parts
        out[lo:lo + step] = np.einsum("tnk,tnk->tn", parts, parts)
    return out


# a leave-one-out downdate ``1 - a q`` below this is refitted from its fold
_REFIT_BELOW = 1e-4


def _folds(arr: np.ndarray, mask: np.ndarray) -> tuple:
    """Held-out samples ``(M, d)`` and folds ``(M, n - 1, d)`` where ``mask (N, n)`` is set."""
    n, d = arr.shape[-2:]
    rows, k = np.nonzero(mask)
    seats = arr[rows]
    return seats[np.arange(len(k)), k], seats[np.arange(n) != k[:, None]].reshape(len(k), n - 1, d)


def gaussian_loo_loglik(samples, stats: GaussianStats, loading_eps: float) -> np.ndarray:
    """Leave-one-out log-density of every sample under the fit to the others.

    Entry ``[i, k]`` of ``(N, n, d)`` samples is the density of sample k
    under the :func:`fit_gaussian` model of the other n-1 samples of set i,
    with that fit's loading and zero-scatter rule.  ``stats`` is
    :func:`fit_gaussian`'s block of the same samples.  Every fold model is a
    rank-one downdate of it, so its stored eigenpairs serve all n folds and
    nothing is factorized (Sherman-Morrison and the matrix determinant
    lemma; Hager 1989, SIAM Review 31(2)).  With mean m, biased scatter
    ``S = V diag(l) V^H`` (the stored ``eigvals`` and ``eigvecs``),
    ``u = x_k - m``, ``r = n/(n-1)`` and ``a = n/(n-1)^2``:

    - the fold scatter is ``S_k = r S - a u u^H``, its trace
      ``r tr S - a |u|^2`` and its loading ``loading_eps tr S_k / d``;
    - with ``w = V^H u``, ``D = r l + loading`` and ``q = sum |w|^2 / D``,
      ``ln det C_k = sum ln D + ln(1 - a q)``;
    - the held-out residual is ``x_k - m_k = r u``, so the quadratic form
      is ``r^2 q / (1 - a q)``.

    A fold is scored under its own fit instead where the downdate cannot
    resolve it: its downdated trace cancels to within ``sqrt(eps)`` of the
    seat's scale (a fold of one sample, or of equal samples, which the
    zero-scatter rule must judge on the fold itself), its set's scatter was
    stored as zero (eigenpairs zeros and ``I``, not that scatter's), or
    ``1 - a q``, which keeps about ``eps / (1 - a q)`` relative precision,
    falls below 1e-4 (a nearly singular fold of a well-conditioned seat).
    Otherwise accuracy falls as the held-out sample's share of its seat's
    scatter grows: one sample 100 times larger than the rest scores to
    about 1e-7 relative of the fold fit, where ordinary folds agree to about
    1e-13.

    Args:
        samples: (N, n, d) complex samples, n >= 2.
        stats: the :func:`fit_gaussian` block of ``samples``: its mean must
            be theirs bit for bit.
        loading_eps: relative diagonal loading factor.

    Returns:
        (N, n) held-out log-densities.

    Raises:
        NumericError: a fold covariance is singular to working precision:
            an eigenvalue factor ``D`` at or below ``d * eps`` of the largest,
            or ``1 - a q`` at or below its own rounding bound, or a refitted
            fold's covariance is singular (a zero-scatter fold without loading).
    """
    arr = np.asarray(samples, dtype=complex)
    if arr.ndim != 3 or arr.shape[-2] < 2 or arr.shape[-1] == 0:
        raise ValueError("leave-one-out needs an (N, n, d) array with n >= 2 and d >= 1")
    if loading_eps < 0:
        raise ValueError("loading_eps must be non-negative")
    mean = arr.mean(axis=-2)
    if stats.mean.shape != mean.shape or not np.array_equal(stats.mean, mean):
        raise ValueError("the Gaussian block is not the fit of these samples")
    n, d = arr.shape[-2:]
    r, a = n / (n - 1), n / (n - 1) ** 2
    centered = arr - mean[..., None, :]
    lam = stats.eigvals
    w2 = np.abs(centered @ stats.eigvecs.conj()) ** 2  # |V^H u|^2 of every sample
    unorm = np.sum(centered.real ** 2 + centered.imag ** 2, axis=-1)
    seat_trace = r * np.sum(unorm, axis=-1, keepdims=True) / n
    fold_trace = seat_trace - a * unorm
    power = np.sum(np.abs(arr) ** 2, axis=-1)
    threshold = _EPS * (np.sum(power, axis=-1, keepdims=True) - power) / (n - 1)
    # folds whose downdated trace cancels to rounding of the seat's, and every
    # fold of a set whose scatter the fit zeroed (it stores no eigenpairs of it)
    refit = ((fold_trace <= threshold + math.sqrt(_EPS) * (seat_trace + a * unorm))
             | np.all(lam == 0.0, axis=-1, keepdims=True))

    # D = 1 keeps the refitted folds finite here
    D = np.where(refit[..., None], 1.0,
                 r * lam[..., None, :] + (loading_eps * fold_trace / d)[..., None])
    d_max = np.max(D, axis=-1)
    if np.any(np.min(D, axis=-1) <= d * _EPS * d_max):
        raise NumericError("a leave-one-out fold covariance is singular: an eigenvalue "
                           f"is at rounding level with loading_eps {loading_eps}")
    q = np.sum(w2 / D, axis=-1)
    one_minus = np.where(refit, 1.0, 1.0 - a * q)
    # a q's rounding bound: eigh is exact for a scatter off by d * eps * max D
    bound = d * _EPS * a * d_max * np.sum(w2 / D ** 2, axis=-1)
    if np.any(~refit & (one_minus <= bound)):
        raise NumericError("a leave-one-out fold covariance is singular: its rank-one "
                           f"downdate cancels to rounding with loading_eps {loading_eps}")
    out = (-d * math.log(math.pi) - np.sum(np.log(D), axis=-1) - np.log(one_minus)
           - r * r * q / one_minus)
    refit |= one_minus < _REFIT_BELOW
    if np.any(refit):
        held, fold = _folds(arr, refit)
        fits = fit_gaussian(fold, loading_eps)
        try:
            logdet, white = _whitening(fits)
        except NumericError as exc:
            raise NumericError("a leave-one-out fold covariance is singular "
                               f"with loading_eps {loading_eps}") from exc
        z = np.matmul(white, (held - fits.mean)[..., None])[..., 0]
        out[refit] = (-d * math.log(math.pi) - logdet
                      - np.sum(z.real ** 2 + z.imag ** 2, axis=-1))
    return out


# ---------------------------------------------------------------------------
# Gamma model for received power
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GammaParams:
    """Gamma distributions, shape/scale parameterization, one per grid point: (N,) arrays."""

    shape: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        shape, scale = _param_arrays(shape=self.shape, scale=self.scale)
        if not (np.all(shape > 0) and np.all(scale > 0)):
            raise ValueError(f"shape and scale must be positive, got {self.shape}, {self.scale}")
        _freeze(self, shape=shape, scale=scale)


def fit_gamma(samples) -> GammaParams:
    """Method-of-moments Gamma fit: scale = var/mean, shape = mean/scale.

    Fits one model per row of (N, n) samples.  Uses the unbiased sample
    variance, so at least two samples per row are required and all samples
    must be positive with non-zero spread.
    """
    arr = np.ascontiguousarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[-1] < 2:
        raise ValueError(f"gamma fitting needs (N, n) samples with n >= 2, got shape {arr.shape}")
    if np.any(arr <= 0):
        raise ValueError("gamma samples must be positive")
    mean = arr.mean(axis=-1)
    var = arr.var(axis=-1, ddof=1)
    if np.any(var == 0.0):
        raise ValueError("gamma samples have zero variance")
    scale = var / mean
    return GammaParams(shape=mean / scale, scale=scale)


def gamma_logpdf(x, p: GammaParams) -> np.ndarray:
    """Gamma log-density ``(shape-1) ln x - x/scale - ln Gamma(shape) - shape ln scale``.

    Broadcasts ``x`` against the (N,) parameters, so one value scores a whole block.
    """
    from scipy.special import gammaln

    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("gamma density is defined for positive values only")
    return ((p.shape - 1.0) * np.log(arr) - arr / p.scale
            - gammaln(p.shape) - p.shape * np.log(p.scale))


# ---------------------------------------------------------------------------
# von Mises model for phases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VonMisesParams:
    """Von Mises distributions on the circle, one per grid point: (N,) arrays."""

    mu: np.ndarray
    kappa: np.ndarray

    def __post_init__(self):
        mu, kappa = _param_arrays(mu=self.mu, kappa=self.kappa)
        if not np.all((-math.pi < mu) & (mu <= math.pi)):
            raise ValueError(f"mu must lie in (-pi, pi], got {self.mu}")
        if not np.all((0.0 <= kappa) & (kappa <= KAPPA_MAX)):
            raise ValueError(f"kappa must lie in [0, {KAPPA_MAX}], got {self.kappa}")
        _freeze(self, mu=mu, kappa=kappa)


def fit_vonmises(angles) -> VonMisesParams:
    """Fit a von Mises distribution to every row of (N, n) angles in radians.

    The mean direction is the argument of the summed phasors.  Concentration
    starts from the rational closed form ``R(2 - R^2)/(1 - R^2)`` and is
    tightened with two Newton steps on the Bessel ratio equation
    ``I1(k)/I0(k) = R``; nearly aligned samples cap at ``KAPPA_MAX``.
    """
    from scipy.special import i0e, i1e

    arr = np.ascontiguousarray(angles, dtype=float)
    if arr.ndim != 2 or arr.shape[-1] == 0:
        raise ValueError(f"von Mises fitting needs (N, n) angles with n >= 1, "
                         f"got shape {arr.shape}")
    z = np.exp(1j * arr).mean(axis=-1)
    rbar = np.abs(z)
    mu = np.where(rbar == 0.0, 0.0, np.angle(z))
    capped = rbar >= _RESULTANT_CAP
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        kappa = rbar * (2.0 - rbar ** 2) / (1.0 - rbar ** 2)
        active = (rbar > 0.0) & ~capped
        for _ in range(2):
            active &= kappa > 0.0
            a = i1e(kappa) / i0e(kappa)
            da = 1.0 - a * a - a / kappa
            active &= da > 0.0
            kappa = np.where(active, kappa - (a - rbar) / da, kappa)
            capped |= active & ~np.isfinite(kappa)
            active &= ~capped
    kappa = np.where(capped, KAPPA_MAX, np.clip(kappa, 0.0, KAPPA_MAX))
    kappa = np.where(rbar == 0.0, 0.0, kappa)
    return VonMisesParams(mu=mu, kappa=kappa)


def vonmises_logpdf(x, p: VonMisesParams) -> np.ndarray:
    """Von Mises log-density ``kappa cos(x - mu) - ln(2 pi) - ln I0(kappa)``.

    ``ln I0`` comes from the exponentially scaled Bessel function, so large
    concentrations cannot overflow.  Broadcasts like :func:`gamma_logpdf`.
    """
    from scipy.special import i0e

    arr = np.asarray(x, dtype=float)
    log_i0 = np.log(i0e(p.kappa)) + p.kappa
    return p.kappa * np.cos(arr - p.mu) - _LOG_2PI - log_i0


# ---------------------------------------------------------------------------
# occupancy detection maps
# ---------------------------------------------------------------------------

def learn_detection_map(bits) -> np.ndarray:
    """Estimate every sensor's detection probability per grid cell.

    Args:
        bits: (cells, visits, sensors) detection bits (0 or 1) of every
            training visit of every cell.

    Returns:
        (cells, sensors) detection probabilities, the Laplace-smoothed
        frequency ``(k+1)/(n+2)`` of each cell's ``n`` visits, so every value
        lies strictly inside (0, 1).
    """
    bits = np.asarray(bits)
    if bits.ndim != 3:
        raise ValueError(f"need (cells, visits, sensors) bits, got shape {bits.shape}")
    not_binary = (bits != 0) & (bits != 1)
    if np.any(not_binary):
        raise ValueError(f"detection bit must be 0 or 1, got {bits[not_binary][0]}")
    hits = bits.sum(axis=1, dtype=float)
    return (hits + 1.0) / (bits.shape[1] + 2.0)


# ---------------------------------------------------------------------------
# Gaussian-process spatial interpolation
# ---------------------------------------------------------------------------

# nugget as a fraction of the signal variance
KRIGING_NUGGET = 1e-6


@dataclass(frozen=True)
class KrigingModel:
    """Fitted Gaussian-process interpolator on a survey lattice (zero prior mean).

    ``alpha`` holds ``(R + nugget I)^{-1} v`` for every value column, in the
    grid's point order, where R is the unit-variance squared-exponential
    correlation matrix of the grid's points.
    """

    grid: Grid
    length_scale: float
    alpha: np.ndarray


def _axis_correlation(a: np.ndarray, b: np.ndarray, length_scale: float) -> np.ndarray:
    return np.exp(-np.subtract.outer(a, b) ** 2 / (2 * length_scale ** 2))


def _axes(grid: Grid) -> tuple:
    """(y, x) coordinates of the grid's rows and columns."""
    return (grid.origin[1] + np.arange(grid.ny) * grid.spacing,
            grid.origin[0] + np.arange(grid.nx) * grid.spacing)


def _axis_eigh(grid: Grid) -> tuple:
    """Length scale and the (eigenvalues, eigenvectors) of R_y and R_x."""
    if len(grid) < 2:
        raise ValueError("kernel defaults need at least two training points")
    length_scale = 2.0 * grid.spacing
    return length_scale, [np.linalg.eigh(_axis_correlation(a, a, length_scale))
                          for a in _axes(grid)]


def kriging_fit(grid: Grid, values) -> KrigingModel:
    """Fit a Gaussian-process interpolator to values on a survey lattice.

    The squared-exponential kernel has a length scale of twice the grid
    spacing (its nearest-neighbor distance), a signal variance equal to the
    sample variance of each value column and a nugget of
    ``KRIGING_NUGGET`` times that variance.  The variance scales the Gram
    matrix and the query covariances alike, so it cancels from the
    posterior mean.  On a lattice the kernel factorizes over the axes,
    ``R = R_y kron R_x``, so one eigendecomposition of each axis matrix
    solves ``(R + nugget I) alpha = v`` for every column at once:
    ``alpha = V_y [(V_y^T v V_x) / (l_y l_x^T + nugget)] V_x^T`` with v as
    an (ny, nx) array (Saatci 2011; Gilboa, Saatci & Cunningham 2015).

    Args:
        grid: the survey lattice, at least two points.
        values: (N, m) values of m independent fields, rows in the grid's
            point order.
    """
    length_scale, ((ly, vy), (lx, vx)) = _axis_eigh(grid)
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 2 or vals.shape[0] != len(grid):
        raise ValueError(f"need an (N, m) block, one value row per grid point, "
                         f"got shape {vals.shape} for {len(grid)} points")
    cols = vals.T.reshape(-1, grid.ny, grid.nx)  # one (ny, nx) array per column
    rotated = vy.T @ cols @ vx / (np.multiply.outer(ly, lx) + KRIGING_NUGGET)
    alpha = (vy @ rotated @ vx.T).reshape(-1, len(grid)).T
    return KrigingModel(grid=grid, length_scale=length_scale, alpha=alpha)


def kriging_cond(grid: Grid) -> float:
    """2-norm condition number of the ``R + nugget I`` that :func:`kriging_fit` solves.

    It depends on the survey lattice only: the eigenvalues of R are the
    products of the axis eigenvalues.  On uniform grids R is nearly singular
    at the default length scale, so the nugget bounds it.
    """
    _, ((ly, _), (lx, _)) = _axis_eigh(grid)
    eig = np.multiply.outer(ly, lx) + KRIGING_NUGGET
    return float(np.max(eig) / np.min(eig))


def kriging_predict(model: KrigingModel, grid: Grid) -> np.ndarray:
    """Posterior mean at every point of a query lattice: (Q, columns).

    ``K_y* alpha K_x*^T`` per column, with the cross-correlations of the
    query and survey axes.
    """
    (qy, qx), (ty, tx) = _axes(grid), _axes(model.grid)
    ls = model.length_scale
    cols = model.alpha.T.reshape(-1, model.grid.ny, model.grid.nx)
    mean = _axis_correlation(qy, ty, ls) @ cols @ _axis_correlation(qx, tx, ls).T
    return mean.reshape(-1, len(grid)).T
