"""Measurement containers: impulse responses, sample buffers, fingerprint vectors."""

import enum
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Cir", "SignalBuffer", "FingerprintKind", "FingerprintMeta", "FingerprintVector",
           "CORRELATION_KINDS", "ANGLE_KINDS"]

_TWO_PI = 2.0 * math.pi


class FingerprintKind(enum.Enum):
    """What a fingerprint vector's entries mean."""

    CIR_XCORR = "cir_xcorr"      # cross-correlation of two channel impulse responses
    RSSI = "rssi"                # mean received power, linear scale
    RSPD = "rspd"                # phase of the averaged sample cross-product
    RX_XCORR = "rx_xcorr"        # cross-correlation of raw received sample buffers
    PHASE_DIFF = "phase_diff"    # inter-element phase differences of an antenna array
    BINARY = "binary"            # one detection bit per sensor


# complex-valued correlation kinds, and kinds whose entries are angles
CORRELATION_KINDS = (FingerprintKind.CIR_XCORR, FingerprintKind.RX_XCORR)
ANGLE_KINDS = (FingerprintKind.RSPD, FingerprintKind.PHASE_DIFF)


@dataclass(frozen=True)
class Cir:
    """Channel impulse response: complex taps on a uniform delay lattice.

    The tap period is ``1 / bandwidth_hz`` seconds.
    """

    taps: np.ndarray
    bandwidth_hz: float

    def __post_init__(self):
        taps = np.array(self.taps, dtype=complex)
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("CIR taps must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(taps)):
            raise ValueError("CIR taps must be finite")
        if not (self.bandwidth_hz > 0):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth_hz}")
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    def __len__(self):
        return self.taps.size

    def total_power(self) -> float:
        return float(np.sum(np.abs(self.taps) ** 2))


@dataclass(frozen=True)
class SignalBuffer:
    """A block of complex baseband samples at a fixed sample rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        samples = np.array(self.samples, dtype=complex)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("signal buffer must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("signal samples must be finite")
        if not (self.sample_rate_hz > 0):
            raise ValueError(f"sample rate must be positive, got {self.sample_rate_hz}")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class FingerprintMeta:
    """Provenance of a fingerprint vector.

    All fields are optional; pipelines fill in what they know.  ``pair`` names
    one antenna/sensor pair, ``pairs`` names one pair per vector entry for
    stacked phase-difference vectors.
    """

    sensor: int | None = None
    pair: tuple | None = None
    pairs: tuple | None = None
    freq_hz: float | None = None
    bandwidth_hz: float | None = None


@dataclass(frozen=True)
class FingerprintVector:
    """A fingerprint: a typed value vector plus provenance.

    ``values`` is one vector (d,) or, in a database, a block (N, d) with one
    vector per grid point sharing kind and meta.  Invariants enforced on
    construction: binary vectors hold only 0/1; angle-valued kinds lie in
    (-pi, pi]; correlation kinds are complex and everything else is real.
    """

    kind: FingerprintKind
    values: np.ndarray
    meta: FingerprintMeta = field(default_factory=FingerprintMeta)

    def __post_init__(self):
        dtype = complex if self.kind in CORRELATION_KINDS else float
        values = np.array(self.values, dtype=dtype)
        if values.ndim not in (1, 2) or values.size == 0:
            raise ValueError("fingerprint values must be a non-empty vector or (N, d) block")
        if not np.all(np.isfinite(values)):
            raise ValueError("fingerprint values must be finite")
        if self.kind is FingerprintKind.BINARY:
            if not np.all((values == 0.0) | (values == 1.0)):
                raise ValueError("binary fingerprints may contain only 0 and 1")
        if self.kind in ANGLE_KINDS:
            if np.any(values <= -math.pi) or np.any(values > math.pi):
                raise ValueError("angular fingerprints must lie in (-pi, pi]")
        if self.kind is FingerprintKind.RSSI and np.any(values < 0):
            raise ValueError("RSSI fingerprints must be non-negative")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.shape[-1]

    def __len__(self):
        return self.values.shape[0]


def wrap_angle(theta):
    """Wrap angles to (-pi, pi]."""
    wrapped = np.mod(np.asarray(theta, dtype=float) + math.pi, _TWO_PI) - math.pi
    # mod maps exact odd multiples of pi to -pi; the convention here is (-pi, pi]
    wrapped = np.where(wrapped == -math.pi, math.pi, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped
