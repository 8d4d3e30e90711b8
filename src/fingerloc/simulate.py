"""Scenario simulation: multipath links in blocks, occupancy sensors, step logs."""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .geometry import Position

__all__ = [
    "SPEED_OF_LIGHT",
    "ChannelModel",
    "TxSignalSpec",
    "SensorCoverage",
    "gen_cir",
    "synthesize_rx",
    "add_receiver_noise",
    "simulate_links",
    "link_chunks",
    "simulate_binary_sensor",
    "simulate_pdr",
    "derive_seed",
]

SPEED_OF_LIGHT = 299792458.0
# complex samples of one simulated block held at a time (see link_chunks);
# a block makes about six temporaries of its size, 256 KB each at this bound
SIM_CHUNK = 1 << 14

_DOUBLE = struct.Struct("<d")
_UINT64 = struct.Struct("<Q")


def derive_seed(*parts) -> np.random.SeedSequence:
    """Mix integers/floats into a reproducible seed sequence.

    Floats contribute their exact bit patterns, so distinct positions or
    frequencies yield independent, repeatable streams.
    """
    entropy = []
    for p in parts:
        if isinstance(p, float):
            entropy.append(_UINT64.unpack(_DOUBLE.pack(p))[0])
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


def _link_error(dist: float, first_tap: int, n_nlos: int, tap_count: int,
                bandwidth_hz: float) -> str | None:
    if dist == 0.0:
        return "tx and rx must be distinct positions (zero distance has no pathloss)"
    if first_tap >= tap_count:
        return (f"tap_count={tap_count} cannot hold the propagation delay "
                f"(first tap index {first_tap} at {bandwidth_hz} Hz)")
    if first_tap + n_nlos >= tap_count:
        return (f"tap_count={tap_count} cannot hold the delay spread: multipath needs "
                f"taps up to index {first_tap + n_nlos} at {bandwidth_hz} Hz")
    return None


def gen_cir(tx_xy, rx_xy, freq_hz: float, bandwidth_hz: float, model: ChannelModel,
            tap_count: int, snapshot=0) -> np.ndarray:
    """Draw the channel impulse responses of a block of links.

    Link i runs from ``tx_xy[i]`` to ``rx_xy[i]``.  Its first tap sits at the
    time-of-flight delay quantized to the tap lattice of the given
    bandwidth.  Total tap power equals the closed-form pathloss exactly; the
    Rician K factor splits it between the line-of-sight tap and exponentially
    decaying multipath taps on the following delay bins.  Multipath gains are
    redrawn per snapshot from the link's own stream, seeded by (model seed,
    snapshot, tx x, tx y, rx x, rx y, frequency), so a link gives the same
    taps in any block.

    Args:
        tx_xy: transmitter positions, (links, 2) or one (2,) for every link.
        rx_xy: receiver positions, likewise (each must differ from its tx).
        freq_hz: carrier frequency.
        bandwidth_hz: two-sided bandwidth; the tap period is its inverse.
        model: channel parameters.
        tap_count: number of taps L per response.
        snapshot: small-scale realization to draw, one int or one per link.

    Returns:
        Complex (links, tap_count) taps at ``1 / bandwidth_hz`` spacing.

    Raises:
        ValueError: naming the first link whose positions coincide or whose
            delays do not fit in ``tap_count`` taps.
    """
    if tap_count < 1:
        raise ValueError("tap_count must be >= 1")
    if not (freq_hz > 0 and bandwidth_hz > 0):
        raise ValueError("frequency and bandwidth must be positive")
    tx_xy, rx_xy = np.broadcast_arrays(np.asarray(tx_xy, dtype=float),
                                       np.asarray(rx_xy, dtype=float))
    if tx_xy.ndim != 2 or tx_xy.shape[1] != 2:
        raise ValueError(f"positions must be (links, 2) arrays, got shape {tx_xy.shape}")
    n_links = tx_xy.shape[0]
    snaps = np.broadcast_to(np.asarray(snapshot, dtype=int), (n_links,)).tolist()
    tx_list, rx_list = tx_xy.tolist(), rx_xy.tolist()

    n_nlos = model.path_count - 1
    pure_los = math.isinf(model.rician_k_db) or n_nlos == 0
    # math.hypot and float ** per link: numpy's hypot and array ** differ
    # from them in the last bit
    ref_gain = 10.0 ** (-model.reference_loss_db / 10.0)
    dist = [math.hypot(tx[0] - rx[0], tx[1] - rx[1]) for tx, rx in zip(tx_list, rx_list)]
    first_tap = [int(round(d / SPEED_OF_LIGHT * bandwidth_hz)) for d in dist]
    total_power = np.array([ref_gain * d ** (-model.pathloss_exponent) if d > 0 else 0.0
                            for d in dist])
    if pure_los:
        p_los, p_nlos = total_power, np.zeros(n_links)
    else:
        k_lin = 10.0 ** (model.rician_k_db / 10.0)
        p_los = total_power * (k_lin / (k_lin + 1.0))
        p_nlos = total_power / (k_lin + 1.0)
    has_nlos = (p_nlos > 0.0).tolist()
    for i in range(n_links):
        msg = _link_error(dist[i], first_tap[i], n_nlos if has_nlos[i] else 0,
                          tap_count, bandwidth_hz)
        if msg is not None:
            raise ValueError(f"link {i}: {msg}")

    taps = np.zeros((n_links, tap_count), dtype=complex)
    rows = np.arange(n_links)
    first = np.array(first_tap, dtype=int)
    los_phase = -2.0 * math.pi * freq_hz * np.array(dist) / SPEED_OF_LIGHT
    taps[rows, first] = np.sqrt(p_los) * np.exp(1j * los_phase)

    nlos = np.flatnonzero(has_nlos)
    if nlos.size:
        tap_period = 1.0 / bandwidth_hz
        if model.delay_spread_s > 0:
            decay = np.exp(-np.arange(n_nlos) * tap_period / model.delay_spread_s)
        else:
            decay = np.zeros(n_nlos)
            decay[0] = 1.0
        freq = float(freq_hz)
        # real parts, then imaginary parts, from each link's own stream
        draws = np.empty((nlos.size, 2, n_nlos))
        for row, i in enumerate(nlos.tolist()):
            tx, rx = tx_list[i], rx_list[i]
            rng = np.random.default_rng(derive_seed(
                model.seed, snaps[i], tx[0], tx[1], rx[0], rx[1], freq))
            rng.standard_normal(out=draws[row])
        gains = (draws[:, 0] + 1j * draws[:, 1]) / math.sqrt(2.0)
        gains = gains * np.sqrt(decay)
        drawn_power = np.sum(np.abs(gains) ** 2, axis=-1)
        drawn = drawn_power > 0.0
        gains[drawn] *= np.sqrt(p_nlos[nlos[drawn]] / drawn_power[drawn])[:, None]
        if not np.all(drawn):
            gains[~drawn] = np.sqrt(p_nlos[nlos[~drawn], None] * decay / np.sum(decay))
        taps[nlos[:, None], first[nlos, None] + 1 + np.arange(n_nlos)] = gains

    return taps


@dataclass(frozen=True)
class TxSignalSpec:
    """Transmit waveform: ``length`` antipodal random bits shaped by ``pulse``."""

    length: int
    pulse: tuple = (1.0,)

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("sequence length must be >= 1")
        if len(self.pulse) == 0:
            raise ValueError("pulse must have at least one tap")


def synthesize_rx(taps, tx_spec: TxSignalSpec, bits_seeds) -> np.ndarray:
    """Noiseless received samples: bits * pulse * channel, per link.

    Args:
        taps: complex (measurements, receivers, L) channel responses.
        tx_spec: the transmitted waveform.
        bits_seeds: one seed per measurement; every receiver of a
            measurement hears the bits drawn from its stream.

    Returns:
        Complex (measurements, receivers, length + pulse + L - 2): the full
        linear convolution per link.
    """
    taps = np.asarray(taps, dtype=complex)
    if taps.ndim != 3 or taps.shape[-1] == 0:
        raise ValueError(f"taps must be a (measurements, receivers, L) block, got {taps.shape}")
    if len(bits_seeds) != taps.shape[0]:
        raise ValueError(f"need one bits seed per measurement, got {len(bits_seeds)} "
                         f"for {taps.shape[0]}")
    g = np.asarray(tx_spec.pulse, dtype=float)
    n_out = tx_spec.length + g.size + taps.shape[-1] - 2
    out = np.empty(taps.shape[:2] + (n_out,), dtype=complex)
    for m, seed in enumerate(bits_seeds):
        bits = np.random.default_rng(seed).integers(0, 2, size=tx_spec.length)
        # the same for every receiver of the measurement
        shaped = np.convolve((2.0 * bits - 1.0).astype(complex), g)
        for r, h in enumerate(taps[m]):
            out[m, r] = np.convolve(shaped, h)
    return out


def add_receiver_noise(clean, snr_db: float, seeds) -> np.ndarray:
    """``clean`` plus circularly symmetric Gaussian noise at ``snr_db``, per row.

    The noise power of each row (last axis) is referenced to that row's own
    mean power, so every buffer meets the stated SNR exactly.  Row i draws
    its real parts, then its imaginary parts, from a stream seeded by
    ``seeds[i]`` (rows in C order).
    """
    clean = np.asarray(clean)
    n = clean.shape[-1]
    rows = clean.reshape(-1, n)
    if len(seeds) != rows.shape[0]:
        raise ValueError(f"need one noise seed per row, got {len(seeds)} for {rows.shape[0]}")
    noise_power = np.mean(np.abs(rows) ** 2, axis=-1) / 10.0 ** (snr_db / 10.0)
    draws = np.empty((rows.shape[0], 2, n))
    for i, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=draws[i])
    noise = np.sqrt(noise_power / 2.0)[:, None] * (draws[:, 0] + 1j * draws[:, 1])
    return (rows + noise).reshape(clean.shape)


def simulate_links(tx_xy, rx_xy, snapshots, noise_seeds, *, model: ChannelModel,
                   freq_hz: float, bandwidth_hz: float, tap_count: int, snr_db: float,
                   tx_spec: TxSignalSpec | None = None, bits_seeds=None,
                   amplitude: float = 1.0) -> np.ndarray:
    """Noisy measurements of every (measurement, receiver) link of a block.

    Measurement m transmits from ``tx_xy[m]`` in snapshot ``snapshots[m]``
    and every receiver ``rx_xy[r]`` hears it.  The chain per link is
    :func:`gen_cir`, scaled by the transmit ``amplitude``; then, given a
    ``tx_spec``, :func:`synthesize_rx` with the measurement's bits; then
    :func:`add_receiver_noise`.  Without a ``tx_spec`` the receiver measures
    the channel response itself.

    Args:
        tx_xy: (measurements, 2) transmitter positions.
        rx_xy: (receivers, 2) receiver positions.
        snapshots: (measurements,) snapshot indices.
        noise_seeds: one seed per link, measurement-major.
        bits_seeds: one seed per measurement, needed with ``tx_spec``.

    Returns:
        Complex (measurements, receivers, samples).
    """
    tx_xy = np.asarray(tx_xy, dtype=float).reshape(-1, 2)
    rx_xy = np.asarray(rx_xy, dtype=float).reshape(-1, 2)
    n_meas, n_rx = tx_xy.shape[0], rx_xy.shape[0]
    taps = gen_cir(np.repeat(tx_xy, n_rx, axis=0), np.tile(rx_xy, (n_meas, 1)), freq_hz,
                   bandwidth_hz, model, tap_count, np.repeat(snapshots, n_rx))
    taps = (taps * amplitude).reshape(n_meas, n_rx, tap_count)
    clean = taps if tx_spec is None else synthesize_rx(taps, tx_spec, bits_seeds)
    return add_receiver_noise(clean, snr_db, noise_seeds)


def link_chunks(n_measurements: int, samples_per_measurement: int) -> list:
    """Slices over measurements that keep a simulated block to ``SIM_CHUNK`` samples.

    A block's temporaries (draws, clean and noisy samples) scale with it, so
    the callers simulate and reduce one slice at a time.
    """
    step = max(1, SIM_CHUNK // max(1, samples_per_measurement))
    return [slice(lo, min(lo + step, n_measurements))
            for lo in range(0, n_measurements, step)]


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
