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
    "simulate_pdr",
    "derive_seed",
    "seeded_uniforms",
]

SPEED_OF_LIGHT = 299792458.0
# complex samples of one simulated block held at a time (see link_chunks);
# a block makes about six temporaries of its size, 256 KB each at this bound
SIM_CHUNK = 1 << 14
# rows of seeded_uniforms computed at a time; a chunk's temporaries are a
# few dozen uint32/uint64 arrays of this length
UNIFORM_CHUNK = 1 << 16

_DOUBLE = struct.Struct("<d")
_UINT64 = struct.Struct("<Q")
_MASK32 = 0xFFFFFFFF

# SeedSequence's pool hashing and PCG64's LCG, as numpy implements them
# (numpy/random/bit_generator.pyx, numpy/random/src/pcg64)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))


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


def _scalar_words(part) -> list:
    """The uint32 words SeedSequence makes of one ``derive_seed`` part, low word first.

    ``derive_seed`` raises ValueError for a negative part.
    """
    n = derive_seed(part).entropy[0]
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _uint32_part(part) -> np.ndarray:
    arr = np.asarray(part)
    if arr.dtype.kind not in "iu":
        raise ValueError(f"array seed parts must be integer arrays, got dtype {arr.dtype}")
    if arr.size and not (arr.min() >= 0 and arr.max() <= _MASK32):
        raise ValueError("array seed parts must lie in [0, 2**32)")
    return arr.astype(np.uint32)


class _Hasher:
    """SeedSequence's ``hashmix``: its constant advances with every call."""

    def __init__(self, init: int, mult: int):
        self.const, self.mult = init, mult

    def __call__(self, value: np.ndarray) -> np.ndarray:
        value = value ^ np.uint32(self.const)
        self.const = (self.const * self.mult) & _MASK32
        value = value * np.uint32(self.const)
        return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def _pool(words: list, rows: int) -> list:
    """SeedSequence's entropy pool of every row; ``words`` are its (rows,) uint32 columns."""
    hashmix = _Hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else np.zeros(rows, dtype=np.uint32))
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    return pool


def _mul64(a: np.ndarray, b: np.ndarray) -> tuple:
    """Full 128-bit products of uint64 arrays, as (high, low) halves."""
    m32, s32 = np.uint64(_MASK32), np.uint64(32)
    a0, a1, b0, b1 = a & m32, a >> s32, b & m32, b >> s32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> s32) + (p01 & m32) + (p10 & m32)
    return a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32), (p00 & m32) | (mid << s32)


def _add128(a: tuple, b: tuple) -> tuple:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < a[1]).astype(np.uint64), lo


def _pcg_step(state: tuple, inc: tuple) -> tuple:
    """``state * multiplier + inc`` modulo 2**128."""
    hi, lo = _mul64(state[1], _PCG_MULT[1])
    hi = hi + state[1] * _PCG_MULT[0] + state[0] * _PCG_MULT[1]
    return _add128((hi, lo), inc)


def _first_uniforms(words: list, rows: int) -> np.ndarray:
    """``default_rng(SeedSequence(entropy)).random()`` of every row."""
    hashmix = _Hasher(_INIT_B, _MULT_B)
    pool = _pool(words, rows)
    # generate_state(4, uint64): eight words cycling over the pool, paired low word first
    state = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    seed = [state[2 * k] | (state[2 * k + 1] << np.uint64(32)) for k in range(4)]
    # PCG64 srandom: initstate (seed[0], seed[1]), increment (seq << 1) | 1 of
    # seq (seed[2], seed[3]), each (high, low)
    one = np.uint64(1)
    inc = ((seed[2] << one) | (seed[3] >> np.uint64(63)), (seed[3] << one) | one)
    pcg = _pcg_step(_add128(inc, (seed[0], seed[1])), inc)
    hi, lo = _pcg_step(pcg, inc)
    # XSL-RR output of the stepped state, then the top 53 bits as a double
    rot = hi >> np.uint64(58)
    x = hi ^ lo
    out = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
    return (out >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)


def seeded_uniforms(*parts) -> np.ndarray:
    """The first uniform of the stream ``derive_seed`` makes of each row of parts.

    Each element equals ``np.random.default_rng(derive_seed(*row)).random()``
    of its row, bit for bit, computed without building any generator.
    Scalar parts (ints and floats) are coerced as ``derive_seed`` does; array
    parts are integer arrays in ``[0, 2**32)`` and broadcast against each
    other to the shape of the result.  Rows are computed ``UNIFORM_CHUNK`` at
    a time.

    Raises:
        ValueError: for a negative part, an array part at or above 2**32 or
            an array part that is not of integer dtype.
    """
    # a scalar part is a fixed list of words, an array part one word per row
    coerced = [_uint32_part(p) if isinstance(p, np.ndarray) or np.ndim(p) > 0
               else _scalar_words(p) for p in parts]
    shape = np.broadcast_shapes(*(c.shape for c in coerced if isinstance(c, np.ndarray)))
    coerced = [np.broadcast_to(c, shape) if isinstance(c, np.ndarray) else c for c in coerced]
    n_rows = math.prod(shape)
    out = np.empty(n_rows)
    for lo in range(0, n_rows, UNIFORM_CHUNK):
        hi = min(lo + UNIFORM_CHUNK, n_rows)
        words = []
        for part in coerced:
            if isinstance(part, np.ndarray):
                words.append(part.flat[lo:hi])
            else:
                words.extend(np.full(hi - lo, w, dtype=np.uint32) for w in part)
        out[lo:hi] = _first_uniforms(words, hi - lo)
    return out.reshape(shape)


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

    def detect_probability(self, range_m, moving) -> np.ndarray:
        """Detection probability of users at ranges ``range_m``, moving or not.

        ``range_m`` and ``moving`` broadcast against each other.
        """
        idx = np.searchsorted(self.range_edges_m, range_m, side="left")
        p_moving = np.asarray(self.p_moving)[np.minimum(idx, len(self.p_moving) - 1)]
        return np.where(moving, p_moving, self.p_static)


def simulate_pdr(path, noise_sigma: float, seed) -> np.ndarray:
    """Step displacements from dead reckoning: true steps plus Gaussian noise.

    Args:
        path: (T+1, 2) true positions, T >= 1.
        noise_sigma: per-axis standard deviation of the displacement error, m.
        seed: RNG seed for the error draws.

    Returns:
        (T, 2) array of measured (dx, dy) steps.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 2 or len(path) < 2:
        raise ValueError(f"a path needs at least two (x, y) positions, got shape {path.shape}")
    if noise_sigma < 0:
        raise ValueError("noise sigma must be non-negative")
    rng = np.random.default_rng(seed)
    steps = np.diff(path, axis=0)
    if noise_sigma > 0:
        steps = steps + rng.normal(0.0, noise_sigma, size=steps.shape)
    return steps
