"""Scenario simulation: multipath channels, transmit signals, occupancy sensors, step logs."""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Position
from .signals import Cir, SignalBuffer

__all__ = [
    "SPEED_OF_LIGHT",
    "ChannelModel",
    "TxSignalSpec",
    "SensorCoverage",
    "gen_cir",
    "synthesize_rx",
    "add_receiver_noise",
    "zadoff_chu",
    "tx_sequence",
    "simulate_binary_sensor",
    "simulate_pdr",
    "derive_seed",
]

SPEED_OF_LIGHT = 299792458.0


def _float_bits(x: float) -> int:
    return int(np.float64(x).view(np.uint64))


def derive_seed(*parts) -> np.random.SeedSequence:
    """Mix integers/floats into a reproducible seed sequence.

    Floats contribute their exact bit patterns, so distinct positions or
    frequencies yield independent, repeatable streams.
    """
    entropy = []
    for p in parts:
        if isinstance(p, float):
            entropy.append(_float_bits(p))
        else:
            entropy.append(int(p))
    return np.random.SeedSequence(entropy)


@dataclass(frozen=True)
class ChannelModel:
    """Multipath channel parameters.

    ``path_count`` counts all propagation paths including line of sight.
    ``rician_k_db`` may be ``+inf`` for a pure line-of-sight channel.
    ``reference_loss_db`` is the loss at 1 m; received power falls off as
    ``distance ** -pathloss_exponent`` from there.
    """

    path_count: int = 6
    delay_spread_s: float = 2e-7
    pathloss_exponent: float = 2.5
    reference_loss_db: float = 40.0
    rician_k_db: float = 6.0
    seed: int = 0

    def __post_init__(self):
        if self.path_count < 1:
            raise ValueError(f"path_count must be >= 1, got {self.path_count}")
        if self.delay_spread_s < 0:
            raise ValueError("delay spread must be non-negative")
        if self.pathloss_exponent < 0:
            raise ValueError("pathloss exponent must be non-negative")


def gen_cir(tx: Position, rx: Position, freq_hz: float, bandwidth_hz: float,
            model: ChannelModel, tap_count: int, snapshot: int = 0) -> Cir:
    """Draw a channel impulse response between two positions.

    The first tap sits at the time-of-flight delay quantized to the tap
    lattice of the given bandwidth.  Total tap power equals the closed-form
    pathloss exactly; the Rician K factor splits it between the line-of-sight
    tap and exponentially decaying multipath taps on the following delay bins.
    Multipath gains are redrawn per ``snapshot`` from a stream seeded by
    (model seed, snapshot, positions, frequency), so identical arguments give
    identical taps.

    Args:
        tx: transmitter position.
        rx: receiver position (must differ from ``tx``).
        freq_hz: carrier frequency.
        bandwidth_hz: two-sided bandwidth; the tap period is its inverse.
        model: channel parameters.
        tap_count: number of taps L in the returned response.
        snapshot: index of the small-scale realization to draw.

    Returns:
        Cir with ``tap_count`` taps at ``1 / bandwidth_hz`` spacing.
    """
    if tap_count < 1:
        raise ValueError("tap_count must be >= 1")
    if not (freq_hz > 0 and bandwidth_hz > 0):
        raise ValueError("frequency and bandwidth must be positive")
    dist = tx.distance_to(rx)
    if dist == 0.0:
        raise ValueError("tx and rx must be distinct positions (zero distance has no pathloss)")

    first_tap = int(round(dist / SPEED_OF_LIGHT * bandwidth_hz))
    if first_tap >= tap_count:
        raise ValueError(
            f"tap_count={tap_count} cannot hold the propagation delay "
            f"(first tap index {first_tap} at {bandwidth_hz} Hz)"
        )

    total_power = 10.0 ** (-model.reference_loss_db / 10.0) * dist ** (-model.pathloss_exponent)
    n_nlos = model.path_count - 1
    pure_los = math.isinf(model.rician_k_db) or n_nlos == 0
    if pure_los:
        p_los, p_nlos = total_power, 0.0
    else:
        k_lin = 10.0 ** (model.rician_k_db / 10.0)
        p_los = total_power * (k_lin / (k_lin + 1.0))
        p_nlos = total_power / (k_lin + 1.0)

    taps = np.zeros(tap_count, dtype=complex)
    los_phase = -2.0 * math.pi * freq_hz * dist / SPEED_OF_LIGHT
    taps[first_tap] = math.sqrt(p_los) * np.exp(1j * los_phase)

    if p_nlos > 0.0:
        if first_tap + n_nlos >= tap_count:
            raise ValueError(
                f"tap_count={tap_count} cannot hold the delay spread: multipath needs "
                f"taps up to index {first_tap + n_nlos} at {bandwidth_hz} Hz"
            )
        tap_period = 1.0 / bandwidth_hz
        if model.delay_spread_s > 0:
            decay = np.exp(-np.arange(n_nlos) * tap_period / model.delay_spread_s)
        else:
            decay = np.zeros(n_nlos)
            decay[0] = 1.0
        rng = np.random.default_rng(derive_seed(
            model.seed, snapshot, tx.x, tx.y, rx.x, rx.y, float(freq_hz)))
        draws = (rng.standard_normal(n_nlos) + 1j * rng.standard_normal(n_nlos)) / math.sqrt(2.0)
        gains = draws * np.sqrt(decay)
        drawn_power = float(np.sum(np.abs(gains) ** 2))
        if drawn_power > 0.0:
            gains *= math.sqrt(p_nlos / drawn_power)
        else:
            gains = np.sqrt(p_nlos * decay / np.sum(decay)).astype(complex)
        taps[first_tap + 1: first_tap + 1 + n_nlos] = gains

    return Cir(taps=taps, bandwidth_hz=float(bandwidth_hz))


@dataclass(frozen=True)
class TxSignalSpec:
    """Transmit waveform: a symbol sequence shaped by a pulse.

    ``kind`` is ``"zadoff_chu"`` (constant-amplitude training sequence) or
    ``"random_bits"`` (antipodal random symbols drawn from the caller's seed).
    """

    kind: str
    length: int
    root: int = 1
    pulse: tuple = (1.0,)
    sample_rate_hz: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zadoff_chu", "random_bits"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if self.length < 1:
            raise ValueError("sequence length must be >= 1")
        if len(self.pulse) == 0:
            raise ValueError("pulse must have at least one tap")
        if self.kind == "zadoff_chu":
            if not (1 <= self.root < max(self.length, 2)):
                raise ValueError(f"Zadoff-Chu root {self.root} out of range for length {self.length}")
            if math.gcd(self.root, self.length) != 1:
                raise ValueError("Zadoff-Chu root must be coprime with the length")
        if not (self.sample_rate_hz > 0):
            raise ValueError("sample rate must be positive")


def zadoff_chu(root: int, length: int) -> np.ndarray:
    """Constant-amplitude sequence with ideal cyclic autocorrelation."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if length > 1 and math.gcd(root, length) != 1:
        raise ValueError("root must be coprime with length")
    n = np.arange(length)
    if length % 2:
        phase = -math.pi * root * n * (n + 1) / length
    else:
        phase = -math.pi * root * n * n / length
    return np.exp(1j * phase)


def tx_sequence(spec: TxSignalSpec, rng: np.random.Generator) -> np.ndarray:
    """Materialize the symbol sequence (draws from ``rng`` for random kinds)."""
    if spec.kind == "zadoff_chu":
        return zadoff_chu(spec.root, spec.length)
    bits = rng.integers(0, 2, size=spec.length)
    return (2.0 * bits - 1.0).astype(complex)


def synthesize_rx(cir: Cir, tx_spec: TxSignalSpec, noise_power: float,
                  seed) -> SignalBuffer:
    """Received samples: sequence * pulse * channel plus white noise.

    The output holds the full linear convolution,
    ``len = sequence + pulse + taps - 2``.  ``noise_power`` is the per-sample
    power E|n|^2 of the added circularly symmetric Gaussian noise.  Random
    symbols (for ``random_bits`` specs) are drawn before the noise from the
    same seeded stream.
    """
    if noise_power < 0:
        raise ValueError("noise power must be non-negative")
    rng = np.random.default_rng(seed)
    x = tx_sequence(tx_spec, rng)
    g = np.asarray(tx_spec.pulse, dtype=float)
    y = np.convolve(np.convolve(x, g), cir.taps)
    if noise_power > 0.0:
        scale = math.sqrt(noise_power / 2.0)
        y = y + scale * (rng.standard_normal(y.size) + 1j * rng.standard_normal(y.size))
    return SignalBuffer(samples=y, sample_rate_hz=tx_spec.sample_rate_hz)


def add_receiver_noise(clean, snr_db: float, seed) -> np.ndarray:
    """``clean`` plus circularly symmetric Gaussian noise at ``snr_db``.

    The noise power is referenced to the clean signal's own mean power, so
    every buffer meets the stated SNR exactly.  Real parts are drawn before
    imaginary parts from one stream seeded by ``seed``.
    """
    clean = np.asarray(clean)
    noise_power = float(np.mean(np.abs(clean) ** 2)) / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(seed)
    return clean + math.sqrt(noise_power / 2.0) * (
        rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape))


@dataclass(frozen=True)
class SensorCoverage:
    """Detection behavior of one occupancy sensor.

    ``range_edges_m[i]`` is the upper range of bin i; a moving user at range r
    is detected with the probability of the first bin whose edge covers r
    (the last bin extends outward).  Static users are detected with the
    range-independent ``p_static``.
    """

    pos: Position
    range_edges_m: tuple
    p_moving: tuple
    p_static: float = 0.05

    def __post_init__(self):
        edges = tuple(float(e) for e in self.range_edges_m)
        probs = tuple(float(p) for p in self.p_moving)
        if len(edges) == 0 or len(edges) != len(probs):
            raise ValueError("range edges and probabilities must be non-empty, equal-length")
        if any(e2 <= e1 for e1, e2 in zip(edges, edges[1:])):
            raise ValueError("range edges must be strictly ascending")
        if any(not (0.0 <= p <= 1.0) for p in probs):
            raise ValueError("probabilities must lie in [0, 1]")
        if any(p2 > p1 for p1, p2 in zip(probs, probs[1:])):
            raise ValueError("detection probability must be non-increasing with range")
        if not (0.0 <= self.p_static <= 1.0):
            raise ValueError("p_static must lie in [0, 1]")
        object.__setattr__(self, "range_edges_m", edges)
        object.__setattr__(self, "p_moving", probs)

    def detect_probability(self, range_m: float, moving: bool) -> float:
        if not moving:
            return self.p_static
        idx = int(np.searchsorted(self.range_edges_m, range_m, side="left"))
        return self.p_moving[min(idx, len(self.p_moving) - 1)]


def simulate_binary_sensor(user: Position, moving: bool, cov: SensorCoverage,
                           seed) -> int:
    """One Bernoulli detection bit for a user at a position."""
    p = cov.detect_probability(cov.pos.distance_to(user), moving)
    rng = np.random.default_rng(seed)
    return int(rng.random() < p)


def simulate_pdr(true_path, noise_sigma: float, seed) -> np.ndarray:
    """Step displacements from dead reckoning: true steps plus Gaussian noise.

    Args:
        true_path: sequence of Position, length >= 2.
        noise_sigma: per-axis standard deviation of the displacement error, m.
        seed: RNG seed for the error draws.

    Returns:
        (len(true_path) - 1, 2) array of measured (dx, dy) steps.
    """
    path = list(true_path)
    if len(path) < 2:
        raise ValueError("a path needs at least two positions")
    if noise_sigma < 0:
        raise ValueError("noise sigma must be non-negative")
    rng = np.random.default_rng(seed)
    steps = np.array(
        [[b.x - a.x, b.y - a.y] for a, b in zip(path[:-1], path[1:])], dtype=float
    )
    if noise_sigma > 0:
        steps = steps + rng.normal(0.0, noise_sigma, size=steps.shape)
    return steps
