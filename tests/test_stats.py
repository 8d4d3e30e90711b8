"""Distribution fits, densities, and spatial interpolation against oracles."""

import math
import tracemalloc
import warnings

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0e

import fingerloc.stats
from fingerloc.errors import NumericError
from fingerloc.geometry import Grid
from fingerloc.stats import (
    KAPPA_MAX,
    GammaParams,
    GaussianStats,
    VonMisesParams,
    fit_gamma,
    fit_gaussian,
    fit_vonmises,
    gamma_logpdf,
    gaussian_loglik,
    gaussian_loo_loglik,
    kriging_cond,
    kriging_fit,
    kriging_predict,
    learn_detection_map,
    vonmises_logpdf,
)


def _complex_normal(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# ---------------------------------------------------------------------------
# complex Gaussian
# ---------------------------------------------------------------------------

def _dense_cov(stats: GaussianStats) -> np.ndarray:
    """Every model's covariance as a dense matrix, ``V diag(eigvals + loading) V^H``,
    made exactly Hermitian."""
    D = stats.eigvals + stats.loading[:, None]
    cov = (stats.eigvecs * D[:, None, :]) @ np.conj(np.swapaxes(stats.eigvecs, -1, -2))
    return (cov + np.conj(np.swapaxes(cov, -1, -2))) / 2


def _from_dense(mean, cov) -> GaussianStats:
    """The unloaded block whose covariances are the Hermitian (N, d, d) ``cov``."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    return GaussianStats(mean=mean, eigvals=eigvals, eigvecs=eigvecs, loading=np.zeros(len(cov)))


def _loo(x, loading_eps):
    """``gaussian_loo_loglik`` of (N, n, d) samples, from their own fit."""
    return gaussian_loo_loglik(x, fit_gaussian(x, loading_eps), loading_eps)


def test_fit_gaussian_two_point_hand_case():
    stats = fit_gaussian([[[1.0 + 0j], [-1.0 + 0j]]], 1e-3)
    assert stats.mean[0, 0] == 0.0
    # biased scatter of {1, -1} about 0 is 1; loading adds eps * trace / dim
    assert stats.eigvals[0, 0] == pytest.approx(1.0, rel=1e-12)
    assert abs(stats.eigvecs[0, 0, 0]) == pytest.approx(1.0, rel=1e-12)
    assert _dense_cov(stats)[0, 0, 0] == pytest.approx(1.0 + 1e-3, rel=1e-12)
    assert stats.loading[0] == pytest.approx(1e-3, rel=1e-12)


def test_fit_gaussian_zero_scatter_still_loads():
    stats = fit_gaussian([[[2.0 + 1j], [2.0 + 1j]]], 1e-3)
    assert stats.loading[0] == 1e-3
    assert stats.eigvals[0, 0] == 0.0
    assert _dense_cov(stats)[0, 0, 0] == pytest.approx(1e-3)


def test_fit_gaussian_rounding_level_scatter_counts_as_zero():
    # equal non-integer snapshots whose float mean does not reproduce them
    # leave a ~1e-31 scatter; it must load like an exactly zero one
    rng = np.random.default_rng(61)
    x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    last_bit = np.nextafter(x.real, np.inf) + 1j * x.imag
    assert np.any(np.stack([x, x, x]).mean(axis=0) != x)
    for samples in (np.stack([x, x, x]), np.stack([x, last_bit, x])):
        stats = fit_gaussian(samples[None], loading_eps=1e-3)
        assert stats.loading[0] == 1e-3
        assert np.array_equal(stats.eigvals[0], np.zeros(4))
        assert np.array_equal(_dense_cov(stats)[0], 1e-3 * np.eye(4))
    # inside a block, only that model is zeroed
    noisy = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    block = fit_gaussian(np.stack([np.stack([x, last_bit, x]), noisy]), loading_eps=1e-3)
    assert block.loading[0] == 1e-3
    assert block.loading[1] == fit_gaussian(noisy[None], loading_eps=1e-3).loading[0]


def test_fit_gaussian_matches_direct_formula():
    rng = np.random.default_rng(2)
    for _ in range(10):
        n, d = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        samples = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
        stats = fit_gaussian(samples[None], loading_eps=1e-4)
        mean = samples.mean(axis=0)
        centered = samples - mean
        scatter = centered.T @ centered.conj() / n
        scatter = (scatter + scatter.conj().T) / 2
        loading = 1e-4 * float(np.trace(scatter).real) / d
        assert np.allclose(stats.mean[0], mean, atol=1e-15)
        assert stats.loading[0] == pytest.approx(loading, rel=1e-14)
        assert np.allclose(stats.eigvals[0], np.linalg.eigvalsh(scatter), atol=1e-14)
        assert np.allclose(_dense_cov(stats)[0], scatter + loading * np.eye(d), atol=1e-15)


def test_gaussian_loglik_scalar_hand_case():
    # d = 1, R = 2, |f - m|^2 = 1: -ln(pi) - ln(2) - 1/2
    stats = GaussianStats(mean=np.array([[0.0 + 0j]]), eigvals=np.array([[2.0]]),
                          eigvecs=np.array([[[1.0 + 0j]]]), loading=np.array([0.0]))
    got = gaussian_loglik(np.array([[1.0 + 0j]]), stats)
    assert got.shape == (1, 1)
    assert got[0, 0] == pytest.approx(-math.log(math.pi) - math.log(2.0) - 0.5, abs=1e-12)


def _dense_loglik(f, mean, cov, sign_tol=1e-6):
    """The density of one fingerprint under one model, by ``slogdet`` and ``solve``.

    ``slogdet``'s complex sign is 1 to about ``cond * eps``; ``sign_tol`` bounds its gap.
    """
    sign, logdet = np.linalg.slogdet(cov)
    delta = f - mean
    assert sign == pytest.approx(1.0, abs=sign_tol)
    return -len(f) * math.log(math.pi) - logdet - float(
        np.real(delta.conj() @ np.linalg.solve(cov, delta)))


_UNIT = st.floats(-1.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 5), t=st.integers(1, 6), d=st.integers(1, 4),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
def test_gaussian_loglik_matches_dense_solve_oracle(data, n, t, d, scale):
    """Every fingerprint against every model of a random block, model by model."""
    def draw(shape):
        parts = data.draw(hnp.arrays(np.float64, (2,) + shape, elements=_UNIT))
        return scale * (parts[0] + 1j * parts[1])

    factor = draw((n, d, d))
    # a well-conditioned Hermitian positive definite covariance per model
    cov = factor @ np.conj(np.swapaxes(factor, -1, -2)) + scale ** 2 * np.eye(d)
    stats = _from_dense(draw((n, d)), cov)
    f = draw((t, d))
    got = gaussian_loglik(f, stats)
    assert got.shape == (t, n)
    for i in range(n):
        for k in range(t):
            want = _dense_loglik(f[k], stats.mean[i], cov[i])
            assert got[k, i] == pytest.approx(want, rel=1e-10, abs=1e-10)


@pytest.mark.parametrize("cond", [1e4, 1e8, 1e12])
def test_gaussian_loglik_matches_dense_solve_oracle_when_ill_conditioned(cond):
    """Spectral scoring against ``slogdet`` + ``solve`` on the dense covariance.

    Eigenvalues span [1, c] on random unitary bases.  Solving against a
    matrix of condition number c loses about c * eps relative in the
    quadratic form (the dense matrix itself is rounded to eps of its largest
    entry), so the two agree to ``d * eps * c`` relative; 20 seeds per c
    came within 0.05 c eps.
    """
    rng = np.random.default_rng(int(math.log10(cond)))
    d, n, t = 6, 5, 8
    eigvals = np.sort(np.exp(rng.uniform(0.0, math.log(cond), (n, d))), axis=-1)
    eigvals[:, 0], eigvals[:, -1] = 1.0, cond
    eigvecs = np.linalg.qr(_complex_normal(rng, (n, d, d)))[0]
    stats = GaussianStats(mean=_complex_normal(rng, (n, d)), eigvals=eigvals,
                          eigvecs=eigvecs, loading=np.zeros(n))
    cov = _dense_cov(stats)
    f = stats.mean[0] + _complex_normal(rng, (t, d))
    tol = d * np.finfo(float).eps * cond
    got = gaussian_loglik(f, stats)
    for i in range(n):
        for k in range(t):
            want = _dense_loglik(f[k], stats.mean[i], cov[i], sign_tol=tol)
            assert got[k, i] == pytest.approx(want, rel=tol)


def test_gaussian_loglik_peaks_at_mean():
    rng = np.random.default_rng(29)
    samples = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    stats = fit_gaussian(samples[None], 1e-3)
    at_mean = gaussian_loglik(stats.mean, stats)[0, 0]
    off = stats.mean + 1e-3 * _complex_normal(rng, (50, 3))
    assert np.all(gaussian_loglik(off, stats) <= at_mean)


def test_gaussian_loglik_batch_equals_loop():
    rng = np.random.default_rng(37)
    samples = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    stats = fit_gaussian(samples[None], 1e-3)
    batch = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
    got = gaussian_loglik(batch, stats)
    assert got.shape == (10, 1)
    for i in range(10):
        assert got[i, 0] == pytest.approx(gaussian_loglik(batch[i:i + 1], stats)[0, 0],
                                          abs=1e-12)


def test_gaussian_loglik_rejects_indefinite_covariance():
    stats = GaussianStats(mean=np.zeros((1, 2), dtype=complex), eigvals=np.zeros((1, 2)),
                          eigvecs=np.eye(2, dtype=complex)[None], loading=np.zeros(1))
    with pytest.raises(NumericError, match="model 0 "):
        gaussian_loglik(np.zeros((1, 2), dtype=complex), stats)
    with pytest.raises(ValueError):
        gaussian_loglik(np.zeros((1, 3), dtype=complex),
                        fit_gaussian(np.ones((1, 2, 2), dtype=complex), 1e-3))


def _spectral_block(mean, eigvals, eigvecs, loading):
    """GaussianStats from nested lists, complex mean and eigvecs, real eigvals and loading."""
    return GaussianStats(mean=np.array(mean, complex), eigvals=np.array(eigvals, float),
                         eigvecs=np.array(eigvecs, complex), loading=np.array(loading, float))


def test_gaussian_stats_validation():
    ok = ([[0j]], [[1.0]], [[[1.0]]], [0.0])
    _spectral_block(*ok)
    for i, bad, match in [
            (1, [[1.0, 1.0]], "eigvals shape"),
            (2, [[[1.0, 0.0]]], "eigvecs shape"),
            (3, [0.0, 0.0], "loading shape"),
            (3, [-1.0], "non-negative"),
            (1, [[-1.0]], "negative entry"),
            (2, [[[1.1]]], "not unitary"),
            (1, [[math.inf]], "non-finite"),
            (2, [[[math.nan]]], "non-finite")]:
        with pytest.raises(ValueError, match=match):
            _spectral_block(*(bad if k == i else v for k, v in enumerate(ok)))
    with pytest.raises(ValueError, match="real"):
        GaussianStats(mean=np.array([[0j]]), eigvals=np.array([[1j]]),
                      eigvecs=np.array([[[1.0 + 0j]]]), loading=np.zeros(1))


def test_gaussian_stats_owns_the_arrays_it_is_handed():
    mean, eigvals, eigvecs, loading = (np.zeros((2, 1), complex), np.ones((2, 1)),
                                       np.ones((2, 1, 1), complex), np.zeros(2))
    stats = GaussianStats(mean=mean, eigvals=eigvals, eigvecs=eigvecs, loading=loading)
    assert (stats.mean is mean and stats.eigvals is eigvals and stats.eigvecs is eigvecs
            and stats.loading is loading)
    for arr in (mean, eigvals, eigvecs, loading):
        assert not arr.flags.writeable
    # other dtypes are converted, so the model holds its own copy
    real = np.ones((2, 1, 1))
    converted = GaussianStats(mean=mean, eigvals=eigvals, eigvecs=real, loading=loading)
    assert converted.eigvecs.dtype == complex and not converted.eigvecs.flags.writeable
    assert real.flags.writeable


_SLACK = 1e3 * np.finfo(float).eps  # GaussianStats's bound, per dimension


def _eigenvalue_rule(eigvals) -> str | None:
    """The stated refusal of negative eigenvalues: below ``-1e3 d eps max|eigvals|``
    in some model, or None."""
    floor = -_SLACK * eigvals.shape[-1] * np.max(np.abs(eigvals), axis=-1)
    if np.any(np.min(eigvals, axis=-1) < floor):
        return f"eigvals has negative entry {np.min(eigvals):.3e} past the rounding bound"
    return None


def _spectra(kind: str, rng) -> tuple:
    """(eigvals, eigvecs) of a 3-model block of one kind."""
    d = int(rng.integers(1, 7))
    if kind == "definite":  # a scatter, as fit_gaussian fits it
        fit = fit_gaussian(_complex_normal(rng, (3, d + 2, d)), 10.0 ** rng.uniform(-12, 0))
        return fit.eigvals, fit.eigvecs
    if kind == "singular":  # fewer snapshots than lags and no loading, or no scatter at all
        n = 1 if rng.random() < 0.2 else int(rng.integers(1, d + 1))
        fit = fit_gaussian(_complex_normal(rng, (3, n, d)), 0.0)
        return fit.eigvals, fit.eigvecs
    # one eigenvalue of one model near the refusal bound, on either side
    eigvals = rng.uniform(0.1, 10.0, (3, d))
    row = int(rng.integers(3))
    eigvals[row, 0] = -_SLACK * d * eigvals[row].max() * rng.uniform(0.2, 5.0)
    return eigvals, np.linalg.qr(_complex_normal(rng, (3, d, d)))[0]


@pytest.mark.parametrize("kind", ["definite", "singular", "past-tolerance"])
def test_gaussian_stats_refuses_what_the_eigenvalue_rule_refuses(kind):
    # eigh leaves a PSD scatter's eigenvalues non-negative to rounding: fitted
    # blocks, singular ones too, always pass, and the bound decides the rest
    rng = np.random.default_rng(["definite", "singular", "past-tolerance"].index(kind))
    refused = 0
    for _ in range(200):
        eigvals, eigvecs = _spectra(kind, rng)
        want = _eigenvalue_rule(eigvals)
        try:
            GaussianStats(mean=np.zeros(eigvals.shape, complex), eigvals=eigvals,
                          eigvecs=eigvecs, loading=np.zeros(len(eigvals)))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want
        refused += got is not None
    assert refused == 0 if kind != "past-tolerance" else 0 < refused < 200


@pytest.mark.parametrize("scale", [1e300, 1e308])
def test_gaussian_stats_checks_hold_where_the_trace_overflows(scale):
    # at 1e308 the trace, 2e308, is past the float maximum; the bound scaled
    # from the eigenvalues must not turn into inf and let any block through
    eye = np.eye(2, dtype=complex)[None]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="negative entry"):
            GaussianStats(mean=np.zeros((1, 2)), eigvals=np.array([[-scale, scale]]),
                          eigvecs=eye, loading=np.zeros(1))
        with pytest.raises(ValueError, match="not unitary"):
            GaussianStats(mean=np.zeros((1, 2)), eigvals=np.array([[scale, scale]]),
                          eigvecs=1.5 * eye, loading=np.zeros(1))
        stats = GaussianStats(mean=np.zeros((1, 2)), eigvals=np.array([[scale, scale]]),
                              eigvecs=eye, loading=np.array([scale]))
    assert np.array_equal(stats.eigvals, [[scale, scale]])


def _one_fit_per_fold(x, loading_eps):
    """Held-out scores fold by fold: ``fit_gaussian`` + ``gaussian_loglik`` on blocks of one."""
    n = x.shape[-2]
    out = np.empty(x.shape[:-1])
    for idx in np.ndindex(*x.shape[:-2]):
        for k in range(n):
            fold = np.delete(x[idx], k, axis=0)
            out[idx + (k,)] = gaussian_loglik(x[idx][k:k + 1],
                                              fit_gaussian(fold[None], loading_eps))[0, 0]
    return out


@pytest.mark.parametrize("loading_eps", [1e-3, 0.1, 1.0, 0.0])
def test_gaussian_loo_loglik_equals_one_fit_per_fold(loading_eps):
    rng = np.random.default_rng(71)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        # without loading only full-rank folds (n - 2 >= d) have a model
        n = int(rng.integers(d + 2 if loading_eps == 0.0 else 2, 10))
        x = (_complex_normal(rng, (2, 3, n, d)) + 3.0 * _complex_normal(rng, d)).reshape(6, n, d)
        got = _loo(x, loading_eps)
        assert got.shape == (6, n)
        assert np.allclose(got, _one_fit_per_fold(x, loading_eps), rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("flatness", [1e-4, 1e-5])
def test_gaussian_loo_loglik_nearly_singular_folds_follow_the_fold_fit(flatness):
    # four samples within `flatness` of a complex plane and a fifth off it: the
    # seat is well conditioned, but the fold without the fifth sample is nearly
    # singular and its downdate 1 - a q cancels to about flatness^2
    rng = np.random.default_rng(79)
    for _ in range(20):
        x = _complex_normal(rng, (5, 3))
        x[:4, 2] *= flatness
        basis = np.linalg.qr(_complex_normal(rng, (3, 3)))[0]
        x = x @ basis + 2.0 * _complex_normal(rng, 3)
        got = _loo(x[None], 0.0)
        assert np.allclose(got, _one_fit_per_fold(x[None], 0.0), rtol=1e-9, atol=1e-9)


def test_gaussian_loo_loglik_zero_scatter_folds_follow_the_fold_fit():
    # the downdated trace of these folds is rounding of the seat's scatter,
    # which can land on either side of the zero threshold
    rng = np.random.default_rng(73)
    for _ in range(20):
        x, z = _complex_normal(rng, 4), 100.0 * _complex_normal(rng, 4)
        last_bit = np.nextafter(x.real, np.inf) + 1j * x.imag
        seats = np.stack([
            np.stack([x, x, x, x]),  # every fold of equal samples
            np.stack([x, last_bit, x, z]),  # only the fold without z: equal to rounding
        ])
        got = _loo(seats, 1e-3)
        assert np.allclose(got, _one_fit_per_fold(seats, 1e-3), rtol=1e-12, atol=0.0)
        # the fold without z is 1e-3 * I about the mean of the other three
        rest = np.stack([x, last_bit, x]).mean(axis=0)
        want = -4 * math.log(math.pi * 1e-3) - np.sum(np.abs(z - rest) ** 2) / 1e-3
        assert got[1, 3] == pytest.approx(want, rel=1e-12)
        # n = 2: every fold holds one sample
        pairs = _complex_normal(rng, (5, 2, 3)) + 2.0
        got = _loo(pairs, 0.1)
        gap = np.sum(np.abs(pairs[:, 0] - pairs[:, 1]) ** 2, axis=-1)
        assert np.allclose(got, -3 * math.log(math.pi * 0.1) - gap[:, None] / 0.1, rtol=1e-12)
        assert np.allclose(got, _one_fit_per_fold(pairs, 0.1), rtol=1e-12, atol=0.0)
    # without loading a zero-scatter fold has no model
    with pytest.raises(NumericError):
        _loo(seats, 0.0)


def test_gaussian_loglik_error_names_the_failing_model():
    # 400 unloaded seat models, full rank but for seat 123, whose samples are all equal
    rng = np.random.default_rng(123)
    samples = _complex_normal(rng, (400, 6, 3))
    samples[123] = 1.0 + 2.0j
    with pytest.raises(NumericError) as info:
        gaussian_loglik(samples[:2, 0], fit_gaussian(samples, 0.0))
    message = str(info.value)
    assert "model 123 " in message and "loading 0" in message
    assert len(message) < 200


@pytest.mark.parametrize("n,d", [(2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (5, 7), (8, 7)])
def test_gaussian_loo_loglik_singular_fold_raises(n, d):
    # without loading, a fold of n - 1 <= d samples has a scatter of rank n - 2 < d
    # (n = d + 1: the seat's scatter is full rank and only the downdate is
    # singular, so 1 - a q is rounding of either sign)
    rng = np.random.default_rng(10 * n + d)
    for _ in range(10):
        for scale in (1e-6, 1.0, 1e6):
            x = scale * _complex_normal(rng, (n, d))
            with pytest.raises(NumericError):
                _loo(x[None], 0.0)
            with pytest.raises(NumericError):
                _loo(x[None] + 5.0 * scale, 0.0)


def test_gaussian_loo_loglik_validation():
    fit = fit_gaussian(np.ones((1, 3, 2), dtype=complex), 1e-3)
    for bad in (np.ones((3, 2), dtype=complex), np.ones((1, 1, 2), dtype=complex),
                np.ones((1, 3, 0), dtype=complex)):
        with pytest.raises(ValueError):
            gaussian_loo_loglik(bad, fit, 1e-3)
    with pytest.raises(ValueError):
        gaussian_loo_loglik(np.ones((1, 3, 2), dtype=complex), fit, loading_eps=-1.0)
    # the block must be the fit of these very samples
    rng = np.random.default_rng(83)
    x = _complex_normal(rng, (2, 4, 3))
    for other in (fit, fit_gaussian(x[:1], 1e-3), fit_gaussian(x + 1e-9, 1e-3)):
        with pytest.raises(ValueError):
            gaussian_loo_loglik(x, other, 1e-3)


def test_gaussian_loo_loglik_refits_every_fold_of_a_set_stored_without_eigenpairs():
    # a block whose scatter the fit zeroed stores eigenvalues 0 and V = I, not
    # that scatter's eigenpairs; a fold that is not zero is then refitted
    rng = np.random.default_rng(89)
    x = _complex_normal(rng, (2, 5, 3))
    fit = fit_gaussian(x, 1e-3)
    bare = GaussianStats(mean=fit.mean, eigvals=np.zeros_like(fit.eigvals),
                         eigvecs=np.broadcast_to(np.eye(3, dtype=complex), fit.eigvecs.shape),
                         loading=fit.loading)
    want = _one_fit_per_fold(x, 1e-3)
    for block in (fit, bare):
        assert np.allclose(gaussian_loo_loglik(x, block, 1e-3), want, rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

def test_fit_gamma_hand_case():
    p = fit_gamma([[1.0, 2.0, 3.0, 4.0]])
    # mean 2.5, unbiased variance 5/3: scale 2/3, shape 3.75
    assert p.scale[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert p.shape[0] == pytest.approx(3.75, rel=1e-12)


def test_fit_gamma_validation():
    with pytest.raises(ValueError):
        fit_gamma([[1.0]])
    with pytest.raises(ValueError):
        fit_gamma([[1.0, -1.0]])
    with pytest.raises(ValueError):
        fit_gamma([[2.0, 2.0, 2.0]])


def _gamma(shape, scale):
    return GammaParams(shape=[shape], scale=[scale])


def test_gamma_logpdf_known_values():
    got = gamma_logpdf(1.0, _gamma(1.0, 1.0))
    assert isinstance(got, np.ndarray) and got.shape == (1,)
    assert got[0] == pytest.approx(-1.0, abs=1e-12)
    assert gamma_logpdf(2.0, _gamma(2.0, 1.0))[0] == pytest.approx(math.log(2.0) - 2.0,
                                                                   abs=1e-12)
    with pytest.raises(ValueError):
        gamma_logpdf(0.0, _gamma(1.0, 1.0))


@pytest.mark.parametrize("shape,scale", [(0.5, 1.0), (2.0, 0.3), (9.0, 2.0)])
def test_gamma_density_integrates_to_one(shape, scale):
    p = _gamma(shape, scale)
    total, err = scipy.integrate.quad(lambda x: math.exp(gamma_logpdf(x, p)[0]),
                                      1e-12, 50.0 * scale * max(shape, 1.0), limit=200)
    assert total == pytest.approx(1.0, abs=1e-5)


def test_fit_gamma_recovers_parameters_at_scale():
    rng = np.random.default_rng(41)
    draws = rng.gamma(shape=3.0, scale=1.5, size=(1, 200_000))
    p = fit_gamma(draws)
    assert p.shape[0] == pytest.approx(3.0, rel=0.05)
    assert p.scale[0] == pytest.approx(1.5, rel=0.05)


# ---------------------------------------------------------------------------
# von Mises
# ---------------------------------------------------------------------------

def _vonmises(mu, kappa):
    return VonMisesParams(mu=[mu], kappa=[kappa])


def test_vonmises_logpdf_uniform_at_zero_kappa():
    got = vonmises_logpdf(np.array([[-3.0], [0.0], [1.5], [math.pi]]), _vonmises(0.0, 0.0))
    assert np.allclose(got, -math.log(2 * math.pi), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("kappa", [0.5, 5.0, 50.0])
def test_vonmises_density_integrates_to_one(kappa):
    p = _vonmises(0.7, kappa)
    total, err = scipy.integrate.quad(lambda x: math.exp(vonmises_logpdf(x, p)[0]),
                                      -math.pi, math.pi, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)


def test_vonmises_logpdf_normalized_at_capped_kappa():
    # at KAPPA_MAX a naive ln I0 overflows; the density must still integrate to one
    p = _vonmises(0.7, KAPPA_MAX)
    total, err = scipy.integrate.quad(lambda x: math.exp(vonmises_logpdf(x, p)[0]),
                                      -math.pi, math.pi, points=[0.7], limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)
    assert vonmises_logpdf(0.7, p)[0] == pytest.approx(
        KAPPA_MAX - math.log(2 * math.pi) - math.log(float(i0e(KAPPA_MAX))) - KAPPA_MAX,
        rel=1e-12)


def test_fit_vonmises_recovers_concentration():
    rng = np.random.default_rng(47)
    for kappa in (0.5, 2.0, 4.0, 20.0):
        draws = rng.vonmises(mu=1.0, kappa=kappa, size=(1, 100_000))
        p = fit_vonmises(draws)
        assert p.mu[0] == pytest.approx(1.0, abs=0.05)
        tol = 0.05 if kappa == 4.0 else 0.10
        assert p.kappa[0] == pytest.approx(kappa, rel=tol)


def test_fit_vonmises_degenerate_inputs():
    aligned = fit_vonmises(np.full((1, 50), 0.3))
    assert aligned.kappa[0] == KAPPA_MAX
    assert aligned.mu[0] == pytest.approx(0.3, abs=1e-12)
    # balanced phasors cancel to float noise: kappa collapses with them
    balanced = fit_vonmises(np.array([[0.0, math.pi]]))
    assert balanced.kappa[0] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_vonmises(np.zeros((1, 0)))


def test_vonmises_params_validation():
    with pytest.raises(ValueError):
        _vonmises(4.0, 1.0)
    with pytest.raises(ValueError):
        _vonmises(0.0, -1.0)
    with pytest.raises(ValueError):
        _vonmises(0.0, KAPPA_MAX + 1)


# ---------------------------------------------------------------------------
# blocks: one model per grid point along a leading axis
# ---------------------------------------------------------------------------

def test_block_fits_equal_per_row_fits():
    rng = np.random.default_rng(43)
    cplx = rng.standard_normal((5, 6, 3)) + 1j * rng.standard_normal((5, 6, 3))
    power = rng.gamma(3.0, 1.0, size=(5, 9))
    angles = rng.vonmises(0.5, 4.0, size=(5, 9))
    gauss, gam, vm = fit_gaussian(cplx, 1e-3), fit_gamma(power), fit_vonmises(angles)
    assert gauss.mean.shape == gauss.eigvals.shape == (5, 3) and gauss.eigvecs.shape == (5, 3, 3)
    assert gauss.loading.shape == gam.shape.shape == vm.kappa.shape == (5,)
    for i in range(5):
        row = slice(i, i + 1)
        one = fit_gaussian(cplx[row], 1e-3)
        assert np.allclose(gauss.mean[row], one.mean, atol=1e-15)
        assert np.allclose(_dense_cov(gauss)[row], _dense_cov(one), atol=1e-14)
        assert gauss.loading[i] == pytest.approx(one.loading[0], rel=1e-14)
        assert (gam.shape[i], gam.scale[i]) == (fit_gamma(power[row]).shape[0],
                                                fit_gamma(power[row]).scale[0])
        assert vm.mu[i] == fit_vonmises(angles[row]).mu[0]
        assert vm.kappa[i] == pytest.approx(fit_vonmises(angles[row]).kappa[0], rel=1e-12)


def test_block_densities_broadcast_one_value_over_models():
    rng = np.random.default_rng(47)
    gam = GammaParams(shape=rng.uniform(1, 5, 6), scale=rng.uniform(0.5, 2, 6))
    kappa = np.r_[0.0, KAPPA_MAX, rng.uniform(0, 50, 4)]
    vm = VonMisesParams(mu=rng.uniform(-3, 3, 6), kappa=kappa)
    stats = fit_gaussian(_complex_normal(rng, (6, 5, 2)), 1e-3)
    f = np.array([[0.3 - 0.2j, 1.1j]])
    got_g = gamma_logpdf(1.3, gam)
    got_v = vonmises_logpdf(-0.4, vm)
    got_n = gaussian_loglik(f, stats)
    for i in range(6):
        row = slice(i, i + 1)
        assert got_g[i] == gamma_logpdf(1.3, GammaParams(gam.shape[row], gam.scale[row]))[0]
        assert got_v[i] == vonmises_logpdf(-0.4, VonMisesParams(vm.mu[row], vm.kappa[row]))[0]
        one = GaussianStats(mean=stats.mean[row], eigvals=stats.eigvals[row],
                            eigvecs=stats.eigvecs[row], loading=stats.loading[row])
        assert got_n[0, i] == pytest.approx(gaussian_loglik(f, one)[0, 0], rel=1e-12)


def test_gaussian_loglik_broadcasts_fingerprints_against_a_block(monkeypatch):
    rng = np.random.default_rng(53)
    stats = fit_gaussian(_complex_normal(rng, (5, 7, 3)), 1e-3)
    trials = _complex_normal(rng, (4, 3))
    cross = gaussian_loglik(trials, stats)
    assert cross.shape == (4, 5)
    cov = _dense_cov(stats)
    for i in range(5):
        for t in range(4):
            want = _dense_loglik(trials[t], stats.mean[i], cov[i])
            assert cross[t, i] == pytest.approx(want, rel=1e-12)
    # 15 elements (5 models x 3) per trial: chunks of two trials, the last one short
    monkeypatch.setattr(fingerloc.stats, "_CROSS_CHUNK", 30)
    assert np.allclose(gaussian_loglik(trials[:3], stats), cross[:3], rtol=1e-12, atol=0.0)
    for bad in (np.zeros((4, 2, 3)), np.zeros((5, 4)), np.zeros(())):
        with pytest.raises(ValueError):
            gaussian_loglik(bad, stats)


def test_gaussian_loglik_rejects_a_singular_model_inside_a_block():
    rng = np.random.default_rng(59)
    samples = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
    samples[1] = 1.0 + 2.0j  # identical snapshots whose mean is exact: zero scatter
    stats = fit_gaussian(samples, loading_eps=0.0)  # PSD-singular, still a valid model
    assert stats.loading[1] == 0.0 and np.all(stats.eigvals[1] == 0.0)
    with pytest.raises(NumericError):
        gaussian_loglik(np.zeros((1, 2), dtype=complex), stats)
    with pytest.raises(NumericError):
        gaussian_loglik(np.zeros((3, 2), dtype=complex), stats)
    # fewer samples than dimensions and no loading: a rank-deficient scatter,
    # its zero eigenvalues rounding of either sign, refused when scored
    rank_deficient = fit_gaussian(_complex_normal(rng, (3, 2, 4)), loading_eps=0.0)
    with pytest.raises(NumericError, match="model 0 "):
        gaussian_loglik(np.zeros((1, 4), dtype=complex), rank_deficient)


def test_block_checks_every_model():
    rng = np.random.default_rng(11)
    stats = fit_gaussian(rng.standard_normal((3, 4, 2)) + 0j, 1e-3)
    eigvals = np.array(stats.eigvals)
    eigvals[1, 0] = -5.0  # one indefinite model spoils the block
    with pytest.raises(ValueError):
        GaussianStats(mean=stats.mean, eigvals=eigvals, eigvecs=stats.eigvecs,
                      loading=stats.loading)
    eigvecs = np.array(stats.eigvecs)
    eigvecs[2] *= 1.0 + 1e-6  # so do one model's non-unitary eigenvectors
    with pytest.raises(ValueError):
        GaussianStats(mean=stats.mean, eigvals=stats.eigvals, eigvecs=eigvecs,
                      loading=stats.loading)
    with pytest.raises(ValueError):
        GaussianStats(mean=stats.mean, eigvals=stats.eigvals, eigvecs=stats.eigvecs,
                      loading=stats.loading[:2])
    with pytest.raises(ValueError):
        GammaParams(shape=[1.0, -1.0], scale=[1.0, 1.0])
    with pytest.raises(ValueError):
        VonMisesParams(mu=[0.0, 4.0], kappa=[1.0, 1.0])
    with pytest.raises(ValueError):
        VonMisesParams(mu=[0.0, 1.0], kappa=[1.0])
    with pytest.raises(ValueError):
        fit_gamma([[1.0, 2.0], [3.0, 3.0]])  # zero spread in one row


def test_single_model_forms_are_refused():
    """Models, fits and scores take grid blocks only; one model alone is a block of one."""
    rng = np.random.default_rng(13)
    samples = _complex_normal(rng, (4, 2))
    stats = fit_gaussian(samples[None], 1e-3)
    bad_calls = [
        lambda: fit_gaussian(samples, 1e-3),
        lambda: GaussianStats(mean=stats.mean[0], eigvals=stats.eigvals[0],
                              eigvecs=stats.eigvecs[0], loading=stats.loading[0]),
        lambda: gaussian_loglik(samples[0], stats),  # one vector
        lambda: gaussian_loglik(samples[:, None, :], stats),  # a (T, 1, d) stack
        lambda: fit_gamma([1.0, 2.0, 3.0]),
        lambda: fit_vonmises([0.1, 0.2]),
        lambda: GammaParams(shape=1.0, scale=1.0),
        lambda: VonMisesParams(mu=0.0, kappa=1.0),
        lambda: GammaParams(shape=[[1.0]], scale=[[1.0]]),
    ]
    for call in bad_calls:
        with pytest.raises(ValueError):
            call()


# ---------------------------------------------------------------------------
# detection maps
# ---------------------------------------------------------------------------

def test_learn_detection_map_laplace_rule():
    grid = Grid((0, 0), nx=2, ny=2, spacing=1.0)
    cells = [0] * 10 + [1, 1]
    bits = [1] * 10 + [1, 0]
    probs = learn_detection_map(np.array(cells), np.array(bits), grid)
    assert probs.shape == (4,)
    assert probs[0] == pytest.approx(11.0 / 12.0, rel=1e-12)
    assert probs[1] == pytest.approx(2.0 / 4.0, rel=1e-12)
    assert probs[2] == 0.5 and probs[3] == 0.5  # unvisited


def test_learn_detection_map_equals_per_observation_count():
    grid = Grid((0, 0), nx=3, ny=2, spacing=1.0)
    rng = np.random.default_rng(3)
    cells, bits = rng.integers(0, len(grid), 500), rng.integers(0, 2, 500)
    hits, counts = np.zeros(len(grid)), np.zeros(len(grid))
    for cell, bit in zip(cells, bits):
        hits[cell] += bit
        counts[cell] += 1
    want = (hits + 1.0) / (counts + 2.0)
    assert learn_detection_map(cells, bits, grid).tobytes() == want.tobytes()
    empty = learn_detection_map(np.zeros(0, dtype=int), np.zeros(0, dtype=int), grid)
    assert np.all(empty == 0.5)


def test_learn_detection_map_takes_bool_bits():
    grid = Grid((0, 0), nx=2, ny=1, spacing=1.0)
    a = learn_detection_map([0, 0], [1, 0], grid)
    b = learn_detection_map(np.array([0, 0]), np.array([True, False]), grid)
    assert np.array_equal(a, b)


def test_learn_detection_map_validation():
    grid = Grid((0, 0), nx=2, ny=1, spacing=1.0)
    with pytest.raises(ValueError, match="out of range"):
        learn_detection_map([0, 5], [1, 1], grid)
    with pytest.raises(ValueError, match="out of range"):
        learn_detection_map([-1], [1], grid)
    with pytest.raises(ValueError, match="0 or 1"):
        learn_detection_map([0, 1], [1, 2], grid)
    with pytest.raises(ValueError):
        learn_detection_map([0, 1], [1], grid)
    with pytest.raises(ValueError):
        learn_detection_map([0.5], [1], grid)


# ---------------------------------------------------------------------------
# kriging
# ---------------------------------------------------------------------------

def _correlation(a, b, length_scale):
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
    return np.exp(-d2 / (2 * length_scale ** 2))


def _dense_kriging_mean(train, column, query, length_scale):
    """The oracle: the posterior mean with the column's own signal variance and nugget."""
    sigf = max(float(np.var(column, ddof=1)), 1e-12)
    gram = sigf * _correlation(train.xy, train.xy, length_scale) + 1e-6 * sigf * np.eye(len(train))
    return sigf * _correlation(query.xy, train.xy, length_scale) @ np.linalg.solve(gram, column)


def _assert_matches_dense_oracle(train, vals, query):
    model = kriging_fit(train, vals)
    mean = kriging_predict(model, query)
    assert mean.shape == (len(query),) + vals.shape[1:]
    for j in range(vals.shape[1]):
        want = _dense_kriging_mean(train, vals[:, j], query, model.length_scale)
        assert np.allclose(mean[:, j], want, rtol=0.0, atol=1e-8 * np.max(np.abs(vals[:, j])))


def test_kriging_reproduces_training_values():
    # fields in the span of the kernel come back at the training points up
    # to the 1e-6 nugget
    rng = np.random.default_rng(61)
    grid = Grid((0, 0), nx=4, ny=4, spacing=1.0)
    vals = _correlation(grid.xy, grid.xy, 2.0) @ rng.standard_normal((16, 3)) * 5.0
    mean = kriging_predict(kriging_fit(grid, vals), grid)
    assert mean.shape == (16, 3)
    assert np.allclose(mean, vals, atol=1e-6 * float(np.max(np.abs(vals))))


def test_kriging_default_kernel_smooths_rather_than_interpolates():
    # the default long length scale regularizes rough data instead of
    # chasing it exactly; predictions stay within the data range
    rng = np.random.default_rng(61)
    grid = Grid((0, 0), nx=4, ny=4, spacing=1.0)
    vals = rng.standard_normal((16, 1)) * 5.0
    mean = kriging_predict(kriging_fit(grid, vals), grid)
    assert mean.shape == (16, 1)
    assert np.allclose(mean, vals, atol=0.05 * float(np.ptp(vals)))


def test_kriging_reverts_to_prior_far_away():
    # a 1x1 query lattice far from the survey gets the zero prior mean
    grid = Grid((0, 0), nx=3, ny=3, spacing=1.0)
    model = kriging_fit(grid, np.linspace(-2.0, 2.0, 9)[:, None])
    far = Grid((1e4, 1e4), nx=1, ny=1, spacing=1.0)
    assert kriging_predict(model, far) == pytest.approx(np.zeros((1, 1)), abs=1e-12)


def test_kriging_default_length_scale_is_twice_spacing():
    grid = Grid((0, 0), nx=3, ny=3, spacing=0.7)
    model = kriging_fit(grid, np.arange(9.0)[:, None])
    assert model.length_scale == pytest.approx(1.4, rel=1e-12)
    # the signal variance cancels from the mean: scaling the data scales it
    queries = Grid((0.3, 0.2), nx=2, ny=2, spacing=0.8)
    scaled = kriging_fit(grid, 1e3 * np.arange(9.0)[:, None])
    assert np.allclose(kriging_predict(scaled, queries),
                       1e3 * kriging_predict(model, queries), rtol=1e-12)


def test_kriging_predict_matches_dense_solve_oracle():
    # a survey and a query lattice at random origins and spacings, columns
    # of very different scales
    rng = np.random.default_rng(71)
    train = Grid(tuple(rng.uniform(-50, 50, 2)), nx=4, ny=3, spacing=rng.uniform(0.1, 3.0))
    # offset over the survey, so the mean is not all prior
    query = Grid((train.origin[0] + 0.3 * train.spacing, train.origin[1] - 0.2),
                 nx=5, ny=6, spacing=rng.uniform(0.1, 3.0))
    vals = rng.standard_normal((12, 4)) * [3.0, 0.01, 40.0, 1.0]
    _assert_matches_dense_oracle(train, vals, query)


@pytest.mark.parametrize("nx, ny", [(1, 5), (6, 1), (1, 2), (2, 1)])
def test_kriging_on_a_single_row_or_column_survey_matches_dense_solve(nx, ny):
    rng = np.random.default_rng(nx * 10 + ny)
    train = Grid((1.5, -2.0), nx=nx, ny=ny, spacing=0.4)
    query = Grid((1.5, -2.0), nx=(nx - 1) * 3 + 1, ny=(ny - 1) * 3 + 1,
                 spacing=0.4 / 3)
    vals = rng.standard_normal((nx * ny, 3)) * [1.0, 100.0, 1e-3]
    _assert_matches_dense_oracle(train, vals, query)


@pytest.mark.parametrize("n", [3, 7])
def test_kriging_cond_equals_the_dense_matrix_condition_number(n):
    grid = Grid((-1.0, 4.0), nx=n, ny=n, spacing=2.0)
    gram = _correlation(grid.xy, grid.xy, 4.0) + 1e-6 * np.eye(len(grid))
    assert kriging_cond(grid) == pytest.approx(np.linalg.cond(gram), rel=1e-9)


def test_kriging_scales_to_a_40x40_survey_in_bounded_memory():
    # 270 columns (18 keys x 15 lags) onto the factor-2 refinement; the dense
    # N x N form peaks near 400 MB here
    rng = np.random.default_rng(97)
    train = Grid((0.0, 0.0), nx=40, ny=40, spacing=3.0)
    query = Grid((0.0, 0.0), nx=79, ny=79, spacing=1.5)
    vals = rng.standard_normal((len(train), 270))
    tracemalloc.start()
    try:
        mean = kriging_predict(kriging_fit(train, vals), query)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert mean.shape == (len(query), 270) and np.all(np.isfinite(mean))
    # the refinement's even points are the survey points
    on_survey = mean.reshape(79, 79, 270)[::2, ::2].reshape(len(train), 270)
    assert np.allclose(on_survey, kriging_predict(kriging_fit(train, vals), train), rtol=0.0,
                       atol=1e-12 * np.max(np.abs(vals)))


def test_kriging_singular_matrix_raises():
    # a lattice cannot hold coincident points, and one point has no spacing
    # to set the default length scale from
    with pytest.raises(ValueError):
        Grid((1e17, 0.0), nx=2, ny=1, spacing=1.0)
    one = Grid((0.0, 0.0), nx=1, ny=1, spacing=1.0)
    with pytest.raises(ValueError):
        kriging_fit(one, np.array([[1.0]]))
    with pytest.raises(ValueError):
        kriging_cond(one)


def test_kriging_validation():
    grid = Grid((0.0, 0.0), nx=2, ny=1, spacing=1.0)
    with pytest.raises(ValueError):
        kriging_fit(grid, np.array([[1.0], [2.0], [3.0]]))
    with pytest.raises(ValueError):
        kriging_fit(grid, np.array([1.0, 2.0]))  # an (N,) vector is not a block
    with pytest.raises(ValueError):
        kriging_fit(grid, np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        kriging_fit(grid, np.zeros((0, 2)))
