"""Scenario simulation: multipath links in blocks, step logs and seeded streams."""

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT",
    "ChannelModel",
    "TxSignalSpec",
    "gen_cir",
    "synthesize_rx",
    "add_receiver_noise",
    "simulate_links",
    "simulate_pdr",
    "derive_seed",
    "seeded_uniforms",
    "seeded_streams",
    "stream_states",
]

SPEED_OF_LIGHT = 299792458.0
# complex samples of one simulated chunk held at a time (see simulate_links);
# 256 KB at this bound, and a chunk's traced peak is about four times that,
# its output included
SIM_CHUNK = 1 << 14
# rows seeded at a time by seeded_uniforms and stream_states; a chunk's
# temporaries are a few dozen uint32/uint64 arrays of this length, about
# 370 bytes a row, 1.5 MB a chunk
UNIFORM_CHUNK = 1 << 12

_MASK32 = 0xFFFFFFFF

# SeedSequence's pool hashing and PCG64's LCG, as numpy implements them
# (numpy/random/bit_generator.pyx, numpy/random/src/pcg64)
_POOL_SIZE = 4
# hashmix's two hashers, (initial constant, multiplier): the constant advances every call
_HASH_A, _HASH_B = (0x43B0D7E5, 0x931E8875), (0x8B51F9DD, 0x58F38DED)
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (np.uint64(2549297995355413924), np.uint64(4865540595714422341))


def derive_seed(*parts) -> np.random.SeedSequence:
    """Mix integers/floats into a reproducible seed sequence.

    Floats contribute their exact bit patterns, so distinct positions or
    frequencies yield independent, repeatable streams.  This is the
    single-stream form of :func:`seeded_streams`.
    """
    return np.random.SeedSequence([_entropy_int(p) for p in parts])


def _entropy_int(part) -> int:
    """The int SeedSequence takes for one part: a float's bit pattern, else the part."""
    n = int(np.float64(part).view(np.uint64)) if isinstance(part, float) else int(part)
    if n < 0:
        raise ValueError(f"seed parts must be non-negative, got {part}")
    return n


def _entropy_words(parts) -> tuple:
    """Each word the parts may give a row, as (word, whether the row has it); and the rows' shape.

    Each part's int splits into uint32 words, low word first, as in SeedSequence.
    """
    words = []
    for part in parts:
        arr = np.asarray(part)
        if not isinstance(part, np.ndarray) and arr.ndim == 0:
            n = _entropy_int(part)
            words += [(n >> at & _MASK32, True) for at in range(0, max(n.bit_length(), 1), 32)]
        elif arr.dtype.kind == "f":
            bits = arr.astype(np.float64).view(np.uint64)
            high = bits >> np.uint64(32)  # a float's high word is missing where it is zero
            words += [(bits & np.uint64(_MASK32), True), (high, high != 0)]
        elif arr.dtype.kind in "iu" and not (arr.size and (arr.min() < 0 or arr.max() > _MASK32)):
            words.append((arr, True))
        else:
            raise ValueError("array seed parts must be floats or integers in [0, 2**32), "
                             f"got {arr.dtype}")
    shape = np.broadcast_shapes(*(np.shape(word) for word, _ in words))
    return [tuple(np.broadcast_to(a, shape) if np.ndim(a) else a for a in w) for w in words], shape


@functools.cache
def _hash_constants(init: int, mult: int, count: int) -> tuple:
    """The (xor, multiply) uint32 columns of a hasher's first ``count`` hashmix calls."""
    consts = np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count + 1)],
                      dtype=np.uint32)[:, None]
    consts.setflags(write=False)  # every caller shares the cached arrays
    return consts[:-1], consts[1:]


def _hashmix(value: np.ndarray, hasher: tuple, first: int, n: int) -> np.ndarray:
    """SeedSequence's hashmix calls ``first`` to ``first + n``, one per row of the result."""
    xor, mul = _hash_constants(*hasher, first + n)
    value = (value ^ xor[first:]) * mul[first:]
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


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


def _pcg_seeds(words: np.ndarray, count) -> tuple:
    """PCG64's (state, inc) seeded from each row's entropy ``words[:count]``, as (high, low)."""
    # SeedSequence's mix_entropy: hash the first four words, mix each pool
    # word into the other three, then each word past the pool into all four
    pool = _hashmix(words[:_POOL_SIZE], _HASH_A, 0, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], _HASH_A, _POOL_SIZE + 3 * src, 3))
    for j in range(words.shape[0] - _POOL_SIZE):
        mixed = _mix(pool, _hashmix(words[_POOL_SIZE + j], _HASH_A, 16 + 4 * j, _POOL_SIZE))
        pool = np.where(_POOL_SIZE + j < count, mixed, pool)
    # generate_state(4, uint64): eight words cycling over the pool, paired low word first
    seed = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _HASH_B, 0, 8).astype(np.uint64)
    seed = seed[0::2] | (seed[1::2] << np.uint64(32))
    # PCG64 srandom: initstate (seed[0], seed[1]), increment (seq << 1) | 1 of
    # seq (seed[2], seed[3]), each (high, low)
    one = np.uint64(1)
    inc = ((seed[2] << one) | (seed[3] >> np.uint64(63)), (seed[3] << one) | one)
    return _pcg_step(_add128(inc, (seed[0], seed[1])), inc), inc


def _chunk_seeds(words: list, shape: tuple):
    """``(rows, state, inc)`` of every ``UNIFORM_CHUNK`` rows, in C order of ``shape``."""
    n_rows = math.prod(shape)
    for lo in range(0, n_rows, UNIFORM_CHUNK):
        rows = slice(lo, min(lo + UNIFORM_CHUNK, n_rows))
        block = np.zeros((max(len(words), _POOL_SIZE), rows.stop - lo), dtype=np.uint32)
        cols, count = np.arange(block.shape[1]), 0
        for word, present in words:
            # a missing word lands where the row's next word goes, which overwrites it
            block[count, cols] = word.flat[rows] if np.ndim(word) else word
            count = count + (present.flat[rows] if np.ndim(present) else present)
        yield (rows, *_pcg_seeds(block, count))


def seeded_uniforms(*parts) -> np.ndarray:
    """The first uniform of the stream ``derive_seed`` makes of each row of parts.

    Each element equals ``np.random.default_rng(derive_seed(*row)).random()``
    of its row, bit for bit, computed without building any generator.
    Scalar parts (ints and floats) and the elements of array parts (floats,
    or integers in ``[0, 2**32)``) are coerced as ``derive_seed`` does; array
    parts broadcast to the shape of the result.  Rows are computed
    ``UNIFORM_CHUNK`` at a time.

    Raises:
        ValueError: for a negative part or an array part that is neither
            floats nor integers in ``[0, 2**32)``.
    """
    words, shape = _entropy_words(parts)
    out = np.empty(math.prod(shape))
    for rows, state, inc in _chunk_seeds(words, shape):
        hi, lo = _pcg_step(state, inc)
        # XSL-RR output of the stepped state, then the top 53 bits as a double
        rot = hi >> np.uint64(58)
        x = hi ^ lo
        bits = (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))
        out[rows] = (bits >> np.uint64(11)).astype(np.float64) * (1.0 / 9007199254740992.0)
    return out.reshape(shape)


def stream_states(*parts) -> np.ndarray:
    """The generator state ``derive_seed`` seeds from each row of parts, as one array.

    Returns a (rows, 4) uint64 array, rows in C order of the parts' broadcast
    shape (parts as :func:`seeded_uniforms` takes them): each row's PCG64
    state and increment, high half first, as
    ``np.random.default_rng(derive_seed(*row))`` starts.  Rows are seeded
    ``UNIFORM_CHUNK`` at a time.  The stage functions draw from streams
    given this way.
    """
    words, shape = _entropy_words(parts)
    states = np.empty((math.prod(shape), 4), dtype=np.uint64)
    for rows, state, inc in _chunk_seeds(words, shape):
        states[rows] = np.stack(state + inc, axis=1)
    return states


def _streams(states: np.ndarray):
    """One generator, reseeded from each row of :func:`stream_states` in turn."""
    # every row overwrites the state, so a constant seed: PCG64() would read OS entropy
    rng = np.random.Generator(np.random.PCG64(0))
    for s1, s0, i1, i0 in states.tolist():
        rng.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                   "state": {"state": s1 << 64 | s0, "inc": i1 << 64 | i0}}
        yield rng


def seeded_streams(*parts):
    """One generator, reseeded for each row of parts as ``derive_seed`` seeds it.

    Yields the same ``Generator`` once per row, in C order of the parts'
    broadcast shape (parts as :func:`seeded_uniforms` takes them).  What is
    drawn from it before the next row equals the draws of
    ``np.random.default_rng(derive_seed(*row))`` bit for bit.
    """
    return _streams(stream_states(*parts))


def _checked_states(states, n_rows: int, what: str) -> np.ndarray:
    """``states`` if it holds one :func:`stream_states` row for each of ``n_rows``."""
    if not (isinstance(states, np.ndarray) and states.dtype == np.uint64
            and states.shape == (n_rows, 4)):
        got = getattr(states, "shape", type(states).__name__)
        raise ValueError(f"{what} stream states must be a ({n_rows}, 4) uint64 array, got {got}")
    return states


@dataclass(frozen=True)
class ChannelModel:
    """Multipath channel parameters.

    ``path_count`` counts all propagation paths including line of sight.
    ``rician_k_db`` may be ``+inf`` for a pure line-of-sight channel.
    ``reference_loss_db`` is the loss at 1 m; received power falls off as
    ``distance ** -pathloss_exponent`` from there.  ``seed`` seeds every
    stream of a link, as :func:`simulate_links` says.
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

    @property
    def multipath(self) -> bool:
        """Whether links draw multipath gains: a finite K factor and paths past line of sight."""
        return self.path_count > 1 and not math.isinf(self.rician_k_db)


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


def _link_geometry(tx_xy: np.ndarray, rx_xy: np.ndarray, freq_hz: float, bandwidth_hz: float,
                   model: ChannelModel, tap_count: int, name=lambda i: f"link {i}") -> tuple:
    """Each link's distance, first tap index, and line-of-sight and multipath powers.

    Raises ValueError, the first failing link named by ``name(i)``, unless
    every link's positions differ and its delays fit in ``tap_count`` taps.
    """
    if tap_count < 1:
        raise ValueError("tap_count must be >= 1")
    if not (freq_hz > 0 and bandwidth_hz > 0):
        raise ValueError("frequency and bandwidth must be positive")
    if not (np.isfinite(tx_xy).all() and np.isfinite(rx_xy).all()):
        raise ValueError("tx and rx positions must be finite")
    n_nlos = model.path_count - 1
    # math.hypot and float ** per link: numpy's hypot and array ** differ
    # from them in the last bit
    ref_gain = 10.0 ** (-model.reference_loss_db / 10.0)
    n_links = len(tx_xy)
    dist = np.fromiter(map(math.hypot, (tx_xy[:, 0] - rx_xy[:, 0]).tolist(),
                           (tx_xy[:, 1] - rx_xy[:, 1]).tolist()), float, n_links)
    total_power = np.fromiter((ref_gain * d ** (-model.pathloss_exponent) if d > 0 else 0.0
                               for d in dist.tolist()), float, n_links)
    if model.multipath:
        k_lin = 10.0 ** (model.rician_k_db / 10.0)
        p_los = total_power * (k_lin / (k_lin + 1.0))
        p_nlos = total_power / (k_lin + 1.0)
    else:
        p_los, p_nlos = total_power, np.zeros(n_links)
    # rounds half to even, as round() does; compared as floats, so no delay overflows
    first_tap = np.rint(dist / SPEED_OF_LIGHT * bandwidth_hz)
    taps_used = np.where(p_nlos > 0.0, n_nlos, 0)
    bad = np.flatnonzero((dist == 0.0) | (first_tap + taps_used >= tap_count))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"{name(i)}: " + _link_error(float(dist[i]), int(first_tap[i]),
                                                      int(taps_used[i]), tap_count,
                                                      bandwidth_hz))
    return dist, first_tap.astype(int), p_los, p_nlos


def gen_cir(tx_xy, rx_xy, freq_hz: float, bandwidth_hz: float, model: ChannelModel,
            tap_count: int, states=None) -> np.ndarray:
    """Draw the channel impulse responses of a block of links.

    Link i runs from ``tx_xy[i]`` to ``rx_xy[i]``.  Its first tap sits at the
    time-of-flight delay quantized to the tap lattice of the given
    bandwidth.  Total tap power equals the closed-form pathloss exactly; the
    Rician K factor splits it between the line-of-sight tap and exponentially
    decaying multipath taps on the following delay bins.  Multipath gains are
    drawn from the link's own stream, ``states[i]``, seeded as
    :func:`simulate_links` says: each snapshot redraws them and a link gives
    the same taps in any block.

    Args:
        tx_xy: transmitter positions, (links, 2) or one (2,) for every link.
        rx_xy: receiver positions, likewise (each must differ from its tx).
        freq_hz: carrier frequency.
        bandwidth_hz: two-sided bandwidth; the tap period is its inverse.
        model: channel parameters.
        tap_count: number of taps L per response.
        states: (links, 4) :func:`stream_states` of the links' streams; a
            model without multipath draws nothing and takes None.

    Returns:
        Complex (links, tap_count) taps at ``1 / bandwidth_hz`` spacing.

    Raises:
        ValueError: naming the first link whose positions coincide or whose
            delays do not fit in ``tap_count`` taps.
    """
    tx_xy, rx_xy = np.broadcast_arrays(np.asarray(tx_xy, dtype=float),
                                       np.asarray(rx_xy, dtype=float))
    if tx_xy.ndim != 2 or tx_xy.shape[1] != 2:
        raise ValueError(f"positions must be (links, 2) arrays, got shape {tx_xy.shape}")
    return _draw_taps(*_link_geometry(tx_xy, rx_xy, freq_hz, bandwidth_hz, model, tap_count),
                      freq_hz, bandwidth_hz, model, tap_count, states)


def _draw_taps(dist, first, p_los, p_nlos, freq_hz: float, bandwidth_hz: float,
               model: ChannelModel, tap_count: int, states) -> np.ndarray:
    """:func:`gen_cir`'s taps of links given their :func:`_link_geometry`."""
    n_links = len(dist)
    taps = np.zeros((n_links, tap_count), dtype=complex)
    los_phase = -2.0 * math.pi * freq_hz * dist / SPEED_OF_LIGHT
    taps[np.arange(n_links), first] = np.sqrt(p_los) * np.exp(1j * los_phase)

    nlos = np.flatnonzero(p_nlos > 0.0)
    if nlos.size:
        n_nlos = model.path_count - 1
        tap_period = 1.0 / bandwidth_hz
        if model.delay_spread_s > 0:
            decay = np.exp(-np.arange(n_nlos) * tap_period / model.delay_spread_s)
        else:
            decay = np.zeros(n_nlos)
            decay[0] = 1.0
        # real parts, then imaginary parts, from each link's own stream
        draws = np.empty((nlos.size, 2, n_nlos))
        for row, rng in zip(draws, _streams(_checked_states(states, n_links, "channel")[nlos])):
            rng.standard_normal(out=row)
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


def _convolve_rows(a, v) -> np.ndarray:
    """The full linear convolution of every complex row pair, leading axes broadcast.

    Let ``a`` be the longer rows (the first on equal lengths), padded with
    ``n_v - 1`` zeros on each side, and ``k`` the shorter rows reversed.
    Output sample t is ``sum(pad[t + j] * k[j] for j in range(n_v))``, added
    from +0 in that order, each product the textbook complex product; it
    equals ``np.convolve`` to within rounding.  The block is one
    ``np.matmul`` of the padded rows' sliding windows by ``k``.  Windows one
    sample apart cannot go to BLAS, so numpy sums each output in its own
    loop, and the bits depend on neither the BLAS kernel nor numpy's CPU
    dispatch level.

    Returns:
        Complex (broadcast leading shape..., n_a + n_v - 1).
    """
    a, v = np.asarray(a, dtype=complex), np.asarray(v, dtype=complex)
    if v.shape[-1] > a.shape[-1]:
        a, v = v, a
    n_a, n_v = a.shape[-1], v.shape[-1]
    pad = np.zeros(a.shape[:-1] + (n_a + 2 * (n_v - 1),), dtype=complex)
    pad[..., n_v - 1:n_a + n_v - 1] = a
    windows = np.lib.stride_tricks.sliding_window_view(pad, n_v, axis=-1)
    return (windows @ v[..., ::-1, None])[..., 0]


def synthesize_rx(taps, tx_spec: TxSignalSpec, states) -> np.ndarray:
    """Noiseless received samples: bits * pulse * channel, per link.

    Each measurement draws its bits from its own stream; then the pulse
    shaping and the channel are each one block convolution over all links
    (:func:`_convolve_rows`: each sample a sum in a fixed order, equal to
    ``np.convolve`` per link to within rounding).

    Args:
        taps: complex (measurements, receivers, L) channel responses.
        tx_spec: the transmitted waveform.
        states: (measurements, 4) :func:`stream_states` of each
            measurement's bits stream; all its receivers hear its bits.

    Returns:
        Complex (measurements, receivers, length + pulse + L - 2): the full
        linear convolution per link.
    """
    taps = np.asarray(taps, dtype=complex)
    if taps.ndim != 3 or taps.shape[-1] == 0:
        raise ValueError(f"taps must be a (measurements, receivers, L) block, got {taps.shape}")
    bits = np.empty((taps.shape[0], tx_spec.length), dtype=np.int64)
    for row, rng in zip(bits, _streams(_checked_states(states, taps.shape[0], "bits"))):
        row[:] = rng.integers(0, 2, size=tx_spec.length)
    shaped = _convolve_rows(2.0 * bits - 1.0, tx_spec.pulse)
    # every receiver of a measurement hears its shaped bits
    return _convolve_rows(shaped[:, None, :], taps)


def add_receiver_noise(clean, snr_db: float, states) -> np.ndarray:
    """``clean`` plus circularly symmetric Gaussian noise at ``snr_db``, per row.

    The noise power of each row (last axis) is referenced to that row's own
    mean power, so every buffer meets the stated SNR exactly.  Each row draws
    its real parts, then its imaginary parts, from its own stream: ``states``
    holds one :func:`stream_states` row per row of ``clean``, in C order of
    ``clean.shape[:-1]``.
    """
    clean = np.asarray(clean)
    n = clean.shape[-1]
    rows = clean.reshape(-1, n)
    noise_power = np.mean(np.abs(rows) ** 2, axis=-1) / 10.0 ** (snr_db / 10.0)
    draws = np.empty((rows.shape[0], 2, n))
    for row, rng in zip(draws, _streams(_checked_states(states, rows.shape[0], "noise"))):
        rng.standard_normal(out=row)
    scale = np.sqrt(noise_power / 2.0)[:, None]
    noisy = np.empty(rows.shape, dtype=complex)
    noisy.real = rows.real + scale * draws[:, 0]
    noisy.imag = rows.imag + scale * draws[:, 1]
    return noisy.reshape(clean.shape)


def simulate_links(tx_xy, rx_xy, ids, noise_tag: int, *, model: ChannelModel,
                   freq_hz: float, bandwidth_hz: float, tap_count: int, snr_db: float,
                   tx_spec: TxSignalSpec | None = None, bits_tag: int | None = None,
                   amplitude: float = 1.0):
    """Noisy measurements of every (measurement, receiver) link of a block, in chunks.

    Measurement m transmits from ``tx_xy[m]`` and every receiver in
    ``rx_xy`` hears it.  The chain per link is :func:`gen_cir`, scaled by
    the transmit ``amplitude``; then, given a ``tx_spec``,
    :func:`synthesize_rx` with the measurement's bits; then
    :func:`add_receiver_noise`.  Without a ``tx_spec`` the receiver measures
    the channel response itself.

    Row ``ids[m]`` keys measurement m's streams; its last entry is the
    snapshot.  With ``s = model.seed``, receiver r (its index tuple over the
    receivers' leading axes) draws noise from ``(s, noise_tag, *ids[m],
    *r)``, all receivers hear the bits of ``(s, bits_tag, *ids[m])``, and
    each link draws multipath gains from ``(s, ids[m, -1], tx x, tx y, rx
    x, rx y, freq_hz)``.  The stream of a row is
    ``np.random.default_rng(derive_seed(*row))``.

    Before this returns, every link of the block is checked and each kind of
    stream (channel, bits, noise) is seeded for the whole block in one
    :func:`stream_states` pass.  The stages then run on one chunk of
    measurements at a time, of at most ``SIM_CHUNK`` complex samples or one
    measurement, so memory does not grow with the block.  A link's samples
    do not depend on the chunk it falls in.

    Args:
        tx_xy: (measurements, 2) transmitter positions.
        rx_xy: (receivers..., 2) receiver positions, any leading shape.
        ids: (measurements, k >= 1) integers in ``[0, 2**32)``.
        noise_tag, bits_tag: the noise and bits streams' tags; ``bits_tag``
            is given exactly when ``tx_spec`` is.

    Returns:
        An iterator of ``(slice, samples)`` over the measurements in order:
        a chunk's slice of measurements and its complex (chunk measurements,
        receivers..., samples).

    Raises:
        ValueError: for other ``ids`` or a ``bits_tag`` without ``tx_spec``
            or the reverse; or naming the measurement and receiver index of
            the block's first link whose positions coincide or whose delays
            do not fit in ``tap_count`` taps.
    """
    tx_xy = np.asarray(tx_xy, dtype=float).reshape(-1, 2)
    rx_shape = np.shape(rx_xy)[:-1]
    rx_xy = np.asarray(rx_xy, dtype=float).reshape(-1, 2)
    n_meas, n_rx = tx_xy.shape[0], rx_xy.shape[0]
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[0] != n_meas or ids.shape[1] == 0:
        raise ValueError(f"ids must be a ({n_meas}, k >= 1) array, one row per transmitter, "
                         f"got shape {ids.shape}")
    if ids.dtype.kind not in "iu":
        raise ValueError(f"ids must be integers, got {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() > _MASK32):
        raise ValueError(f"ids must lie in [0, 2**32), got {ids.min()} to {ids.max()}")
    if (tx_spec is None) != (bits_tag is None):
        raise ValueError("bits_tag names the bits stream: give it exactly when tx_spec is given")
    link_tx, link_rx = np.repeat(tx_xy, n_rx, axis=0), np.tile(rx_xy, (n_meas, 1))

    def name(link: int) -> str:
        m, r = divmod(link, n_rx)
        receiver = tuple(int(k) for k in np.unravel_index(r, rx_shape))
        return f"measurement {m}, receiver {receiver[0] if len(receiver) == 1 else receiver}"

    geometry = _link_geometry(link_tx, link_rx, freq_hz, bandwidth_hz, model, tap_count, name)
    channel = None
    if model.multipath:
        channel = stream_states(model.seed, np.repeat(ids[:, -1], n_rx),
                                *link_tx.T, *link_rx.T, float(freq_hz))
    bits = None if tx_spec is None else stream_states(model.seed, bits_tag, *ids.T)
    # ids columns over the measurement axis, receiver indices over the receivers' axes
    id_cols = ids.T.reshape(ids.shape[1], n_meas, *[1] * len(rx_shape))
    noise = stream_states(model.seed, noise_tag, *id_cols, *np.ix_(*map(np.arange, rx_shape)))
    n_out = tap_count if tx_spec is None else tx_spec.length + len(tx_spec.pulse) + tap_count - 2

    def samples(sl: slice) -> np.ndarray:
        # a function, so no chunk's temporaries outlive it while the caller works
        n, links = sl.stop - sl.start, slice(sl.start * n_rx, sl.stop * n_rx)
        taps = _draw_taps(*(g[links] for g in geometry), freq_hz, bandwidth_hz, model,
                          tap_count, None if channel is None else channel[links])
        taps = (taps * amplitude).reshape(n, n_rx, tap_count)
        clean = taps if tx_spec is None else synthesize_rx(taps, tx_spec, bits[sl])
        return add_receiver_noise(clean.reshape(n, *rx_shape, -1), snr_db, noise[links])

    step = max(1, SIM_CHUNK // max(1, n_rx * n_out))
    chunks = (slice(lo, min(lo + step, n_meas)) for lo in range(0, n_meas, step))
    return ((sl, samples(sl)) for sl in chunks)


def simulate_pdr(path, noise_sigma: float, rng) -> np.ndarray:
    """Step displacements from dead reckoning: true steps plus Gaussian noise.

    Args:
        path: (T+1, 2) true positions, T >= 1.
        noise_sigma: per-axis standard deviation of the displacement error, m.
        rng: the generator the errors are drawn from (none at ``noise_sigma == 0``).

    Returns:
        (T, 2) array of measured (dx, dy) steps.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[1] != 2 or len(path) < 2:
        raise ValueError(f"a path needs at least two (x, y) positions, got shape {path.shape}")
    if noise_sigma < 0:
        raise ValueError("noise sigma must be non-negative")
    steps = np.diff(path, axis=0)
    if noise_sigma > 0:
        steps = steps + rng.normal(0.0, noise_sigma, size=steps.shape)
    return steps
