"""fingerloc: fingerprint-based radio emitter localization.

Build databases of channel fingerprints on a survey grid, match live
measurements against them probabilistically, track moving emitters, and
project fingerprints across frequency, bandwidth, and space when the
emitter does not match the training conditions.
"""

# ----------------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------------
from .errors import ConfigError, DegenerateUpdateError, InfeasibleError, NumericError

# ----------------------------------------------------------------------------
# Geometry
# ----------------------------------------------------------------------------
from .geometry import Grid, Position

# ----------------------------------------------------------------------------
# Databases
# ----------------------------------------------------------------------------
from .database import (
    DatabaseMeta,
    FingerprintDatabase,
    database_from_json,
    database_to_json,
    load_database,
    save_database,
)

# ----------------------------------------------------------------------------
# Simulation
# ----------------------------------------------------------------------------
from .simulate import (
    SPEED_OF_LIGHT,
    ChannelModel,
    SensorCoverage,
    TxSignalSpec,
    derive_seed,
    gen_cir,
    seeded_uniforms,
    simulate_links,
    simulate_pdr,
    synthesize_rx,
)

# ----------------------------------------------------------------------------
# Fingerprint extraction
# ----------------------------------------------------------------------------
from .features import wrap_angle, xcorr

# ----------------------------------------------------------------------------
# Statistical models
# ----------------------------------------------------------------------------
from .stats import (
    DetectionMap,
    GammaParams,
    GaussianStats,
    KrigingModel,
    VonMisesParams,
    fit_gamma,
    fit_gaussian,
    fit_vonmises,
    gamma_logpdf,
    gaussian_loglik,
    kriging_cond,
    kriging_fit,
    kriging_predict,
    learn_detection_map,
    vonmises_logpdf,
)

# ----------------------------------------------------------------------------
# Matching and tracking
# ----------------------------------------------------------------------------
from .matching import (
    HybridConfig,
    LikelihoodMap,
    binary_likelihood,
    fingerprint_sqerr,
    hybrid_match,
    mle_rssi_rspd,
    threshold_set,
)
from .tracking import (
    GridTransition,
    MobilityModel,
    ParticleSet,
    grid_bayes_step,
    particle_predict,
    particle_update,
    resample_systematic,
    transition_matrix,
)

# ----------------------------------------------------------------------------
# Fingerprint projection (frequency / bandwidth / space)
# ----------------------------------------------------------------------------
from .interp import (
    UcaGeometry,
    bandwidth_interp,
    estimate_aoa,
    freq_interp_xcorr,
    normalize_power,
    phasediff_freq_interp,
    spatial_densify,
    uca_steering,
    windowed_sinc_lowpass,
)

# ----------------------------------------------------------------------------
# Lighting control
# ----------------------------------------------------------------------------
from .lighting import (
    Light,
    LightingPlan,
    LightingScenario,
    illuminance,
    light_gain,
    solve_lighting,
)

__version__ = "0.1.0"
