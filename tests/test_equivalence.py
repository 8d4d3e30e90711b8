"""Cross-version behaviour guards.

``tests/data/equivalence.json`` holds, per pipeline, the estimated-index (and
estimate) columns of its CSV outputs and the ``summary.json`` written by every
verb, from running the verb chain of ``tests/test_cli.py`` at its ``TINY``
config.  Integers, strings and booleans must match exactly and floats to 1e-9
relative, so a refactor that claims unchanged behaviour has to reproduce them.
``tests/data/simulated_sha256.json`` holds, per pipeline, the dtype, shape and
sha256 of the raw little-endian bytes of every array ``simulate_measurements``
returns at ``TINY``, so the simulated training set must stay bit-identical
whatever the file encoding of ``measurements.json``.

Those bits, like every byte-identity claim of the package, hold for one
numpy build at one CPU dispatch level, with one OpenBLAS kernel.
``np.arctan2``/``np.angle``, ``np.exp``, ``np.log10``, ``np.log``,
``np.log1p`` and float ``**`` round the last bit differently in numpy's
AVX-512 and AVX2 loops (``cos``, ``sin``, ``hypot`` and complex ``exp`` do
not), so with ``NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4"`` on
an AVX-512 machine the ``wifi_rssi_rspd`` and ``illegal_hybrid`` pins fail.
The simulated buffers take no BLAS call, so the OpenBLAS kernel the CPU
selects does not move the wifi ``features`` or the illegal ``phase``; a
test runs them under other kernels (``OPENBLAS_CORETYPE``).  The illegal
``xcorr`` does move, through the BLAS dot products of
``features.xcorr_rows``.  The pins are not loosened for that: they guard
refactors on one machine.

The property tests hold the block-wise matchers, which score every snapshot
in one call, to a per-grid-point reference loop written out here, on random
databases, and each snapshot's row bit for bit to a one-snapshot call with
scalar features, the closed-form classroom
leave-one-out (one ``eigh`` per seat and pair; only nearly singular folds
are fitted) to a per-trial
loop that fits every fold, with and without loading, the batched pair
cross-correlation to ``xcorr`` per pair (bit for bit, on integer and on
float taps), the block-diagonal lighting LP on a candidate mask to
one ``linprog`` per occupied row, the unknown-emitter projection stages to
per-point, per-bin and per-query loops, the windowed-sinc low-pass and
bandwidth narrowing to ``scipy.signal``'s ``firwin`` and direct
convolution, multi-column kriging to one dense
solve per column, the array particle likelihoods to the per-particle corner
loop, the stencil grid Bayes predict to the dense N x N transition matrix,
the measurement and database codecs to a bit-exact round trip, the survey lattice to
the per-point loop that built it and to its ``db.json`` round trip, the
block link simulator bit for bit to the per-link channel, transmit and noise
chain it replaced, its row-wise block convolution bit for bit to a sum
written out in its stated order and to ``np.convolve`` per row pair within a
rounding bound, the unknown-emitter phase fingerprint's one
``relative_phase`` call over all element pairs bit for bit to one call per
pair, and the occupancy visits and detection bits bit for bit to one
generator per draw.

Regenerate both files only for an intended behaviour change, and say why in
CHANGES.md::

    PYTHONPATH=src python tests/test_equivalence.py
"""

import csv
import hashlib
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
import scipy.signal
from scipy.optimize import linprog
from scipy.special import i0e, ndtr

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from test_cli import PIPELINE_MODULES, TINY, VERBS  # noqa: E402
from test_simulate import _ref_convolve  # noqa: E402
from test_stats import _dense_cov  # noqa: E402

from fingerloc.cli import EXIT_OK, main  # noqa: E402
from fingerloc.database import FingerprintDatabase, load_database, save_database  # noqa: E402
from fingerloc.experiments import classroom  # noqa: E402
from fingerloc.experiments.artifacts import validate_artifact  # noqa: E402
from fingerloc.experiments.common import read_measurements, save_measurements  # noqa: E402
from fingerloc.experiments.configs import parse_config  # noqa: E402
from fingerloc.experiments.illegal import error_maps  # noqa: E402
from fingerloc.features import relative_phase, wrap_angle, xcorr, xcorr_rows  # noqa: E402
from fingerloc.errors import NumericError  # noqa: E402
from fingerloc.geometry import Grid  # noqa: E402
from fingerloc.interp import (  # noqa: E402
    LOWPASS_TAPS,
    UcaGeometry,
    bandwidth_interp,
    freq_interp_xcorr,
    phasediff_freq_interp,
    spatial_densify,
    windowed_sinc_lowpass,
)
from fingerloc.lighting import LightingScenario, illuminance, solve_lighting  # noqa: E402
from fingerloc.matching import mle_rssi_rspd  # noqa: E402
from fingerloc import simulate  # noqa: E402
from fingerloc.experiments import bems, illegal, wifi  # noqa: E402
from fingerloc.experiments.common import build_grid  # noqa: E402
from fingerloc.simulate import (  # noqa: E402
    SPEED_OF_LIGHT,
    ChannelModel,
    TxSignalSpec,
    derive_seed,
    simulate_links,
)
from fingerloc.stats import (  # noqa: E402
    KAPPA_MAX,
    GammaParams,
    GaussianStats,
    VonMisesParams,
    fit_gaussian,
    gaussian_loglik,
    kriging_fit,
    kriging_predict,
)
from fingerloc.tracking import (  # noqa: E402
    grid_bayes_step,
    particle_update,
    transition_matrix,
)

PINNED = pathlib.Path(__file__).with_name("data") / "equivalence.json"
SIMULATED = PINNED.with_name("simulated_sha256.json")

COLUMNS = {
    "classroom_cir": {"trials.csv": ("est_index",)},
    "wifi_rssi_rspd": {"trials.csv": ("err_rssi", "err_rspd", "err_rssi_rspd"),
                       "track.csv": ("est_x", "est_y")},
    "bems_binary": {"trials.csv": ("est_index",),
                    "track.csv": ("snap_index", "tracked_index", "candidates"),
                    "lighting.csv": ("power_w",)},
    "illegal_hybrid": {"trials.csv": ("est_index",)},
}


def _number(cell: str):
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def run_chain(name: str, root: str) -> dict:
    """Run one pipeline's verb chain; return its pinned outputs."""
    cfg = json.loads(json.dumps(TINY[name]))
    cfg["out_dir"] = os.path.join(root, name)
    cfg_path = os.path.join(root, f"{name}.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    summaries = {}
    for verb in VERBS[name]:
        assert main([verb, "--config", cfg_path]) == EXIT_OK, f"{name} {verb} failed"
        with open(os.path.join(cfg["out_dir"], "summary.json"), "r", encoding="utf-8") as fh:
            summaries[verb] = json.load(fh)
    columns = {}
    for fname, names in COLUMNS[name].items():
        with open(os.path.join(cfg["out_dir"], fname), "r", encoding="utf-8",
                  newline="") as fh:
            rows = list(csv.DictReader(fh))
        columns[fname] = {col: [_number(row[col]) for row in rows] for col in names}
    return {"columns": columns, "summaries": summaries}


def first_difference(ref, got, where: str = "") -> str | None:
    """Where two outputs first differ, or None when they agree."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or sorted(ref) != sorted(got):
            return f"{where}: keys differ"
        for key in sorted(ref):
            diff = first_difference(ref[key], got[key], f"{where}/{key}")
            if diff:
                return diff
        return None
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return f"{where}: lengths differ"
        for i, (a, b) in enumerate(zip(ref, got)):
            diff = first_difference(a, b, f"{where}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        ok = math.isclose(ref, got, rel_tol=1e-9, abs_tol=1e-12)
    else:
        ok = ref == got and type(ref) is type(got)
    return None if ok else f"{where}: {got!r} != {ref!r}"


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_chain_reproduces_pinned_outputs(name, tmp_path):
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))[name]
    got = run_chain(name, str(tmp_path))
    assert first_difference(pinned, got, name) is None


def simulated_digests(name: str) -> dict:
    """dtype, shape and sha256 of every simulated training array at ``TINY``."""
    arrays = PIPELINE_MODULES[name].simulate_measurements(parse_config(TINY[name]))
    out = {}
    for key, arr in sorted(arrays.items()):
        raw = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<")).tobytes()
        out[key] = {"dtype": arr.dtype.name, "shape": list(arr.shape),
                    "sha256": hashlib.sha256(raw).hexdigest()}
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_simulated_arrays_are_byte_identical(name):
    pinned = json.loads(SIMULATED.read_text(encoding="utf-8"))[name]
    assert simulated_digests(name) == pinned


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_simulated_buffers_do_not_depend_on_the_openblas_kernel(coretype):
    """The TINY wifi and illegal simulations, run in a process that makes
    OpenBLAS use another CPU's kernels, give the default run's wifi
    ``features`` and illegal ``phase``: the links are convolved outside BLAS.
    The illegal ``xcorr`` still goes through BLAS dot products in
    ``features.xcorr_rows``, so it is not compared.  Builds of OpenBLAS
    without DYNAMIC_ARCH ignore ``OPENBLAS_CORETYPE``, and there the test
    passes trivially."""
    tests = pathlib.Path(__file__).resolve().parent
    code = ("import json, sys\n"
            f"sys.path.insert(0, {str(tests)!r})\n"
            "from test_equivalence import simulated_digests\n"
            "print(json.dumps({name: simulated_digests(name)\n"
            "                  for name in ('illegal_hybrid', 'wifi_rssi_rspd')}))")
    env = dict(os.environ, PYTHONPATH=str(tests.parent / "src"), OPENBLAS_CORETYPE=coretype)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    got = json.loads(run.stdout.splitlines()[-1])
    assert got["wifi_rssi_rspd"]["features"] == simulated_digests("wifi_rssi_rspd")["features"]
    assert got["illegal_hybrid"]["phase"] == simulated_digests("illegal_hybrid")["phase"]


def test_first_difference_catches_drift():
    ref = {"a": [1, 2.0], "b": {"c": True}}
    assert first_difference(ref, {"a": [1, 2.0 * (1 + 1e-12)], "b": {"c": True}}) is None
    assert first_difference(ref, {"a": [1, 2.0 * (1 + 1e-6)], "b": {"c": True}})
    assert first_difference(ref, {"a": [2, 2.0], "b": {"c": True}})
    assert first_difference(ref, {"a": [1, 2.0], "b": {"c": 1}})
    assert first_difference(ref, {"a": [1], "b": {"c": True}})


# ---------------------------------------------------------------------------
# block link simulation against the per-link chain it replaced
# ---------------------------------------------------------------------------

def _ref_gen_cir(tx, rx, freq_hz, bandwidth_hz, model, tap_count, snapshot):
    """One link's taps, as the per-link simulator drew them."""
    dist = math.hypot(tx[0] - rx[0], tx[1] - rx[1])
    first_tap = int(round(dist / SPEED_OF_LIGHT * bandwidth_hz))
    total_power = 10.0 ** (-model.reference_loss_db / 10.0) * dist ** (-model.pathloss_exponent)
    n_nlos = model.path_count - 1
    if math.isinf(model.rician_k_db) or n_nlos == 0:
        p_los, p_nlos = total_power, 0.0
    else:
        k_lin = 10.0 ** (model.rician_k_db / 10.0)
        p_los = total_power * (k_lin / (k_lin + 1.0))
        p_nlos = total_power / (k_lin + 1.0)
    taps = np.zeros(tap_count, dtype=complex)
    los_phase = -2.0 * math.pi * freq_hz * dist / SPEED_OF_LIGHT
    taps[first_tap] = math.sqrt(p_los) * np.exp(1j * los_phase)
    if p_nlos > 0.0:
        tap_period = 1.0 / bandwidth_hz
        if model.delay_spread_s > 0:
            decay = np.exp(-np.arange(n_nlos) * tap_period / model.delay_spread_s)
        else:
            decay = np.zeros(n_nlos)
            decay[0] = 1.0
        rng = np.random.default_rng(derive_seed(
            model.seed, snapshot, *tx, *rx, float(freq_hz)))
        draws = (rng.standard_normal(n_nlos) + 1j * rng.standard_normal(n_nlos)) / math.sqrt(2.0)
        gains = draws * np.sqrt(decay)
        drawn_power = float(np.sum(np.abs(gains) ** 2))
        if drawn_power > 0.0:
            gains *= math.sqrt(p_nlos / drawn_power)
        else:
            gains = np.sqrt(p_nlos * decay / np.sum(decay)).astype(complex)
        taps[first_tap + 1: first_tap + 1 + n_nlos] = gains
    return taps


def _ref_link(tx, rx, snapshot, noise_seed, bits_seed, model, freq_hz, bandwidth_hz,
              tap_count, snr_db, spec, amplitude):
    """One link's noisy samples: channel, then transmit chain, then receiver noise."""
    clean = _ref_gen_cir(tx, rx, freq_hz, bandwidth_hz, model, tap_count, snapshot) * amplitude
    if spec is not None:
        bits = np.random.default_rng(bits_seed).integers(0, 2, size=spec.length)
        x = (2.0 * bits - 1.0).astype(complex)
        clean = _ref_convolve(_ref_convolve(x, spec.pulse), clean)
    noise_power = float(np.mean(np.abs(clean) ** 2)) / 10.0 ** (snr_db / 10.0)
    rng = np.random.default_rng(noise_seed)
    return clean + math.sqrt(noise_power / 2.0) * (
        rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape))


@settings(max_examples=80, deadline=None)
@given(n_tx=st.integers(1, 4), n_rx=st.integers(1, 4), n_el=st.integers(1, 3),
       path_count=st.integers(1, 7),
       extra_taps=st.integers(0, 3), k_db=st.sampled_from([-3.0, 6.0, 12.0, math.inf]),
       delay_spread=st.sampled_from([0.0, 5e-8, 2e-7]),
       bandwidth=st.sampled_from([3.6e6, 1e7, 2e7, 1e8]),
       pulse=st.one_of(st.none(), st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=9)),
       bits=st.integers(1, 40), amplitude=st.sampled_from([1.0, 0.3, 2.5]),
       seed=st.integers(0, 2 ** 32 - 1),
       zeros=st.tuples(*[st.sampled_from([0.0, -0.0])] * 3))
@example(n_tx=2, n_rx=2, n_el=2, path_count=4, extra_taps=1, k_db=6.0, delay_spread=5e-8,
         bandwidth=2e7, pulse=[1.0, 0.5], bits=8, amplitude=1.0, seed=3,
         zeros=(-0.0, 0.0, -0.0))
def test_block_links_equal_the_per_link_chain_bit_for_bit(
        n_tx, n_rx, n_el, path_count, extra_taps, k_db, delay_spread, bandwidth, pulse, bits,
        amplitude, seed, zeros):
    """Receivers in one leading axis, then the same receivers in two, as
    (sensors, elements): receiver r of measurement m draws noise from the
    stream (model seed, 2, *ids[m], *r) and the measurement's bits from
    (model seed, 1, *ids[m])."""
    rng = np.random.default_rng(seed)
    tx, rx = rng.uniform(-30.0, 30.0, (n_tx, 2)), rng.uniform(-30.0, 30.0, (n_rx, n_el, 2))
    # signed zero coordinates, as at a grid origin: +0.0 is one entropy word, -0.0 two
    tx[0] = zeros[:2]
    rx[-1, -1, 0] = zeros[2]
    freq, snr_db = float(rng.uniform(1e8, 6e9)), float(rng.uniform(-10.0, 40.0))
    tx_pos, rx_pos = tx.tolist(), rx.tolist()
    dists = [math.hypot(a[0] - b[0], a[1] - b[1]) for a in tx_pos for row in rx_pos
             for b in row]
    assume(min(dists) > 0.0)
    model = ChannelModel(path_count=path_count, delay_spread_s=delay_spread,
                         rician_k_db=k_db, seed=seed % 1000)
    tap_count = (max(int(round(d / SPEED_OF_LIGHT * bandwidth)) for d in dists)
                 + path_count + extra_taps)
    spec = None if pulse is None else TxSignalSpec(length=bits, pulse=tuple(pulse))
    # a key and the snapshot per measurement
    ids = [[m, (seed + m) % 50] for m in range(n_tx)]
    setup = {"model": model, "freq_hz": freq, "bandwidth_hz": bandwidth,
             "tap_count": tap_count, "snr_db": snr_db, "tx_spec": spec,
             "bits_tag": None if spec is None else 1, "amplitude": amplitude}
    flat = rx.reshape(-1, 2)
    for block in (flat, rx):
        got = np.concatenate([y for _, y in simulate_links(tx, block, ids, 2, **setup)])
        for m, a in enumerate(tx_pos):
            for r in np.ndindex(*block.shape[:-1]):
                want = _ref_link(a, block[r].tolist(), ids[m][-1],
                                 derive_seed(model.seed, 2, *ids[m], *r),
                                 derive_seed(model.seed, 1, *ids[m]), model, freq, bandwidth,
                                 tap_count, snr_db, spec, amplitude)
                assert got[(m, *r)].tobytes() == want.tobytes()


# pulse and tap values: signed zeros and subnormals, whose products must
# keep the ordered sum's signs and roundings, among ordinary ones
_CONV_VALUES = st.one_of(st.floats(-4.0, 4.0),
                         st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-310, -1e-308]))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_a=st.integers(1, 40), n_v=st.integers(1, 40),
       m=st.integers(1, 3), r=st.integers(1, 3),
       lead_a=st.sampled_from(["mr", "m1", "none"]), lead_v=st.sampled_from(["mr", "m1", "none"]),
       complex_v=st.booleans(), strided=st.booleans())
def test_convolve_rows_equals_the_ordered_sum_bit_for_bit(data, n_a, n_v, m, r, lead_a,
                                                          lead_v, complex_v, strided):
    """Either sequence the longer one, each of length 1 and up, leading axes
    that broadcast as (measurements, receivers), real or complex second
    rows, and a first operand that is a strided view.  Each row pair equals
    the written-out sum bit for bit, with no per-output ``np.vecdot`` or
    ``np.convolve`` call, and ``np.convolve`` to within the rounding of two
    sums of n complex products, n the shorter length: per output,
    ``|diff| <= 2 (n + 2) (eps sum|a||v| + eta)``, eta the smallest
    subnormal, for the products that underflow (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2002, ch. 3)."""
    def block(lead, n, is_complex):
        shape = {"mr": (m, r), "m1": (m, 1), "none": ()}[lead] + (n,)
        part = hnp.arrays(float, shape, elements=_CONV_VALUES)
        x = data.draw(part)
        return x + 1j * data.draw(part) if is_complex else x

    a = block(lead_a, 2 * n_a if strided else n_a, True)
    if strided:
        a = a[..., ::2]
    v = block(lead_v, n_v, complex_v)
    with mock.patch.object(np, "vecdot", side_effect=AssertionError("a dot per output")), \
            mock.patch.object(np, "convolve", side_effect=AssertionError("np.convolve")):
        got = simulate._convolve_rows(a, v)
    lead = np.broadcast_shapes(a.shape[:-1], v.shape[:-1])
    assert got.shape == lead + (n_a + n_v - 1,) and got.dtype == complex
    a_rows, v_rows = np.broadcast_to(a, lead + a.shape[-1:]), np.broadcast_to(v, lead + (n_v,))
    bound = 2 * (min(n_a, n_v) + 2)
    for idx in np.ndindex(*lead):
        assert got[idx].tobytes() == _ref_convolve(a_rows[idx], v_rows[idx]).tobytes()
        diff = np.abs(got[idx] - np.convolve(a_rows[idx], v_rows[idx]))
        scale = np.convolve(np.abs(a_rows[idx]), np.abs(v_rows[idx]))
        assert np.all(diff <= bound * (np.finfo(float).eps * scale + 5e-324))


@pytest.mark.parametrize("name", ["illegal_hybrid", "wifi_rssi_rspd"])
def test_simulate_convolves_and_extracts_phases_in_block_calls(monkeypatch, tmp_path, name):
    """No link is convolved on its own, and each chunk's phases are one
    ``relative_phase`` call over all its sensors (and element pairs)."""
    chunks, calls = [], []
    module = PIPELINE_MODULES[name]
    real_taps, real_relative_phase = simulate._draw_taps, module.relative_phase

    def counting_taps(dist, *args):
        chunks.append(len(dist))
        return real_taps(dist, *args)

    def counting_relative_phase(y_i, y_j):
        calls.append((len(chunks), y_i.shape[:-1]))
        return real_relative_phase(y_i, y_j)

    def refuse(*args, **kwargs):
        raise AssertionError("a per-link np.convolve call")

    monkeypatch.setattr(np, "convolve", refuse)
    monkeypatch.setattr(simulate, "_draw_taps", counting_taps)
    monkeypatch.setattr(module, "relative_phase", counting_relative_phase)
    monkeypatch.setattr(simulate, "SIM_CHUNK", 1)  # one measurement per chunk
    cfg = parse_config(TINY[name])
    module.cmd_simulate(cfg, str(tmp_path))
    # one measurement's rows: (1, sensors), and for illegal its element pairs too
    rows = (1, len(cfg["scenario"]["sensors"]))
    if name == "illegal_hybrid":
        rows += (len(illegal._element_pairs(cfg["scenario"]["uca"]["elements"])),)
    assert len(chunks) > 1
    assert calls == [(i, rows) for i in range(1, len(chunks) + 1)]
    # the emitter fingerprint holds no power, so none is computed and thrown away
    assert hasattr(module, "mean_power") == (name == "wifi_rssi_rspd")


def test_illegal_phases_equal_power_phase_per_element_pair_bit_for_bit(monkeypatch):
    """The all-pairs call gives each element pair's phase as a call on that
    pair alone does."""
    buffers = []
    real_links = illegal.simulate_links

    def recording_links(*args, **kwargs):
        for sl, y in real_links(*args, **kwargs):
            buffers.append(y)
            yield sl, y

    monkeypatch.setattr(illegal, "simulate_links", recording_links)
    cfg = parse_config(TINY["illegal_hybrid"])
    phase = illegal.simulate_measurements(cfg)["phase"]
    pairs = illegal._element_pairs(cfg["scenario"]["uca"]["elements"])
    assert len(pairs) > 1
    # one chunk per frequency at TINY
    assert len(buffers) == len(cfg["scenario"]["train_freqs_hz"])
    for got, y in zip(phase, buffers):
        got = got.reshape(len(y), *got.shape[-2:])
        for p, (a, b) in enumerate(pairs):
            assert got[:, :, p].tobytes() == relative_phase(y[:, :, a], y[:, :, b]).tobytes()


def test_wifi_simulation_seeds_one_stream_per_draw(monkeypatch):
    """Per measurement: one bits stream, then a channel and a noise stream per link.

    Every stream comes from a row of ``stream_states`` and is drawn from
    once; no link builds a seed sequence or a generator of its own.
    """
    rows, draws, per_link = [], [], []
    real_streams = simulate._streams

    class CountingGenerator:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            draws.append(len(rows))
            return getattr(self.rng, name)

    def counting_streams(states):
        for row, rng in zip(states, real_streams(states)):
            rows.append(row)
            yield CountingGenerator(rng)

    def refuse(*args, **kwargs):
        per_link.append(args)
        raise AssertionError("a generator of its own per link")

    monkeypatch.setattr(simulate, "_streams", counting_streams)
    for module in (simulate, wifi):
        monkeypatch.setattr(module, "derive_seed", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    cfg = parse_config(TINY["wifi_rssi_rspd"])
    wifi.simulate_measurements(cfg)
    assert per_link == []
    scn = cfg["scenario"]
    measurements = scn["grid"]["nx"] * scn["grid"]["ny"] * scn["train_snapshots"]
    links = 2 * len(scn["sensors"])
    assert len(rows) == measurements * (1 + 2 * links)
    # every row's stream is drawn from once, before the next row: the bits
    # are not redrawn per antenna
    assert draws == list(range(1, len(rows) + 1))


@pytest.mark.parametrize("name", ["illegal_hybrid", "wifi_rssi_rspd"])
def test_simulate_seeds_each_stream_kind_once_per_block(monkeypatch, tmp_path, name):
    """However many chunks a block takes, its channel, bits and noise streams
    are seeded in one ``stream_states`` pass each, and its link geometry is
    found in one ``_link_geometry`` call."""
    passes, chunks, geometries = [], [], []
    real_states, real_taps = simulate.stream_states, simulate._draw_taps
    real_geometry = simulate._link_geometry

    def counting_states(*parts):
        passes.append(np.broadcast_shapes(*(np.shape(p) for p in parts)))
        return real_states(*parts)

    def counting_geometry(tx_xy, *args):
        geometries.append(len(tx_xy))
        return real_geometry(tx_xy, *args)

    def counting_taps(dist, *args):
        chunks.append(len(dist))
        return real_taps(dist, *args)

    monkeypatch.setattr(simulate, "stream_states", counting_states)
    monkeypatch.setattr(simulate, "_draw_taps", counting_taps)
    monkeypatch.setattr(simulate, "_link_geometry", counting_geometry)
    monkeypatch.setattr(simulate, "SIM_CHUNK", 1)  # one measurement per chunk
    cfg = parse_config(TINY[name])
    PIPELINE_MODULES[name].cmd_simulate(cfg, str(tmp_path))
    scn = cfg["scenario"]
    blocks = len(scn.get("train_freqs_hz", [scn.get("freq_hz")]))
    measurements = scn["grid"]["nx"] * scn["grid"]["ny"] * scn["train_snapshots"]
    receivers = chunks[0]  # the links of a chunk's one measurement
    assert chunks == [receivers] * (blocks * measurements)
    assert geometries == [measurements * receivers] * blocks
    # per block: every link's channel, each measurement's bits, every link's noise
    sensors = len(scn["sensors"])
    assert passes == [(measurements * receivers,), (measurements,),
                      (measurements, sensors, receivers // sensors)] * blocks


def _ref_sensors(cfg) -> list:
    """Each sensor's config: the shared coverage with the sensor's own keys over it."""
    scn = cfg["scenario"]
    return [dict(scn["coverage"], **sensor) for sensor in scn["sensors"]]


def _ref_detection_bit(sensor, user, moving, seed) -> int:
    """One detection bit drawn from a generator of its own, the bin found by a scan."""
    p = sensor["p_static"]
    if moving:
        r = math.hypot(sensor["pos"][0] - user[0], sensor["pos"][1] - user[1])
        p = next((p for edge, p in zip(sensor["range_edges_m"], sensor["p_moving"])
                  if r <= edge), sensor["p_moving"][-1])
    return int(np.random.default_rng(seed).random() < p)


def _ref_bems_measurements(cfg):
    """The training visits with one generator per visit and one per sensor bit."""
    grid, sensors, scn, seed = build_grid(cfg), _ref_sensors(cfg), cfg["scenario"], cfg["seed"]
    cells, moving, bits = [], [], []
    for cell in range(len(grid)):
        user = grid.xy[cell]
        for visit in range(scn["train_visits"]):
            rng = np.random.default_rng(derive_seed(seed, bems._TAG_TRAIN_VISIT, cell, visit))
            moved = bool(rng.random() < scn["train_move_prob"])
            cells.append(cell)
            moving.append(moved)
            bits.append([_ref_detection_bit(cov, user, moved,
                                            derive_seed(seed, bems._TAG_TRAIN_BIT, cell, visit, si))
                         for si, cov in enumerate(sensors)])
    return {"cell": np.array(cells, dtype=int), "moving": np.array(moving, dtype=bool),
            "bits": np.array(bits, dtype=bool).reshape(len(cells), len(sensors))}


# the bems_fine benchmark room: 40x40 cells, two visits each
_BEMS_FINE = {"version": 1, "pipeline": "bems_binary",
              "scenario": {"grid": {"nx": 40, "ny": 40, "origin": [0, 0], "spacing_m": 7.0 / 39},
                           "train_visits": 2, "walk": {"steps": 200, "start_cell": 820}}}
# sensors of 1, 2 and 4 bins in one config, ranges on the 2-bin sensor's edges
_BEMS_BINS = dict(TINY["bems_binary"], scenario=dict(TINY["bems_binary"]["scenario"], sensors=[
    {"pos": [1, 1], "range_edges_m": [0.9], "p_moving": [0.7]},
    {"pos": [0, 2], "range_edges_m": [1.0, 2.0], "p_moving": [0.95, 0.3], "p_static": 0.2},
    {"pos": [2, 0]}]))


@pytest.mark.parametrize("seed", [0, 2**40])
@pytest.mark.parametrize("raw", [TINY["bems_binary"], _BEMS_FINE, _BEMS_BINS],
                         ids=["tiny", "fine", "override"])
def test_bems_draws_equal_one_generator_per_bit(raw, seed):
    cfg = parse_config(dict(raw, seed=seed))
    got, want = bems.simulate_measurements(cfg), _ref_bems_measurements(cfg)
    for name in want:
        assert got[name].dtype == want[name].dtype
        assert np.array_equal(got[name], want[name]), name
    grid, sensors = build_grid(cfg), _ref_sensors(cfg)
    cells, moving = bems.generate_walk(cfg)
    want_walk = [[_ref_detection_bit(cov, grid.xy[cell], moved,
                                     derive_seed(seed, bems._TAG_WALK_BIT, t, si))
                  for si, cov in enumerate(sensors)]
                 for t, (cell, moved) in enumerate(zip(cells, moving), start=1)]
    assert bems.walk_bits(cfg, grid, cells, moving).tolist() == want_walk


def test_bems_builds_one_generator_for_the_walk_alone(tmp_path, monkeypatch):
    """simulate and track draw every detection bit without a generator of its own."""
    generators = []
    real_rng = np.random.default_rng

    def counting_rng(seed=None):
        generators.append(seed)
        return real_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    cfg_path = tmp_path / "bems.json"
    cfg_path.write_text(json.dumps(dict(TINY["bems_binary"], out_dir=str(tmp_path / "out"))))
    for verb in ("simulate", "track"):
        assert main([verb, "--config", str(cfg_path)]) == EXIT_OK
    assert len(generators) == 1


# ---------------------------------------------------------------------------
# block-wise matchers against a per-point reference loop
# ---------------------------------------------------------------------------

def _rel_close(got, want):
    return np.allclose(got, want, rtol=1e-12, atol=1e-12)


def _wrap(theta):
    return math.atan2(math.sin(theta), math.cos(theta))


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4), n_sensors=st.integers(1, 3),
       steps=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_mle_rssi_rspd_equals_per_point_loop(nx, ny, n_sensors, steps, seed):
    rng = np.random.default_rng(seed)
    grid = Grid((0.0, 0.0), nx, ny, 1.0)
    n = len(grid)
    blocks, feats = {}, []
    for s in range(n_sensors):
        kappa = rng.choice([0.0, KAPPA_MAX, 1e-3, 7.0, 300.0], size=n)
        blocks[f"rssi:{s}"] = GammaParams(shape=np.exp(rng.uniform(-3, 4, n)),
                                          scale=np.exp(rng.uniform(-7, 7, n)))
        blocks[f"rspd:{s}"] = VonMisesParams(mu=rng.uniform(-math.pi, math.pi, n), kappa=kappa)
        feats += [(f"rssi:{s}", np.exp(rng.uniform(-5, 5, steps))),
                  (f"rspd:{s}", rng.uniform(-math.pi, math.pi, steps))]
    order = rng.permutation(len(feats))
    feats = {feats[i][0]: feats[i][1] for i in order}
    db = FingerprintDatabase(grid=grid, blocks=blocks)

    want = np.zeros((steps, n))
    for t in range(steps):
        for i in range(n):
            for key, xs in feats.items():
                b, x = blocks[key], float(xs[t])
                if key.startswith("rssi:"):
                    k, th = float(b.shape[i]), float(b.scale[i])
                    want[t, i] += ((k - 1) * math.log(x) - x / th - math.lgamma(k)
                                   - k * math.log(th))
                else:
                    mu, kap = float(b.mu[i]), float(b.kappa[i])
                    log_i0 = math.log(float(i0e(kap))) + kap
                    want[t, i] += kap * math.cos(x - mu) - math.log(2 * math.pi) - log_i0
    values, idx = mle_rssi_rspd(feats, db)
    assert values.shape == (steps, n) and idx.shape == (steps,)
    assert _rel_close(values, want)
    for t in range(steps):
        assert want[t, idx[t]] == pytest.approx(np.max(want[t]), rel=1e-12, abs=1e-12)
        # each row bit for bit the one-snapshot call with scalar features
        row, row_idx = mle_rssi_rspd({key: float(xs[t]) for key, xs in feats.items()}, db)
        assert np.array_equal(values[t], row) and idx[t] == row_idx


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 4), ny=st.integers(1, 4), n_keys=st.integers(1, 3),
       half=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_error_maps_equal_per_point_loop(nx, ny, n_keys, half, seed):
    rng = np.random.default_rng(seed)
    grid = Grid((0.0, 0.0), nx, ny, 1.0)
    n, dim = len(grid), 2 * half + 1
    trials = 3
    blocks, xc, pd = {}, {}, {}
    for k in range(n_keys):
        rows = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
        blocks[f"xc:{k}"] = rows
        xc[f"xc:{k}"] = (rng.standard_normal((trials, dim))
                         + 1j * rng.standard_normal((trials, dim)))
        blocks[f"pd:{k}"] = rng.uniform(-3.14, 3.14, (n, 3))
        pd[f"pd:{k}"] = rng.uniform(-3.14, 3.14, (trials, 3))
    db = FingerprintDatabase(grid=grid, blocks=blocks)

    want_x, want_p = np.zeros((trials, n)), np.zeros((trials, n))
    for t in range(trials):
        for i in range(n):
            for key, fp in xc.items():
                for j in range(dim):
                    a, b = fp[t, j], blocks[key][i, j]
                    want_x[t, i] += (abs(a) - abs(b)) ** 2
            for key, fp in pd.items():
                for j in range(3):
                    want_p[t, i] += _wrap(fp[t, j] - blocks[key][i, j]) ** 2
    err_x, err_p = error_maps(db, xc, pd)
    assert err_x.shape == err_p.shape == (trials, n)
    assert _rel_close(err_x, want_x)
    assert _rel_close(err_p, want_p)


# ---------------------------------------------------------------------------
# batched classroom kernels against per-trial and per-pair loops
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(nx=st.integers(1, 3), ny=st.integers(1, 3), snapshots=st.integers(2, 8),
       taps=st.integers(2, 4), elements=st.integers(2, 3),
       loading_eps=st.sampled_from([0.0, 1e-3, 0.1, 1.0]), frozen_seat=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
# an unloaded fold whose rank-one downdate cancels to 2.4e-7 (condition number 9e6)
@example(nx=1, ny=1, snapshots=5, taps=2, elements=2, loading_eps=0.0, frozen_seat=False,
         seed=305)
def test_loo_scores_equal_per_trial_fold_loop(nx, ny, snapshots, taps, elements, loading_eps,
                                               frozen_seat, seed):
    if loading_eps == 0.0:
        # without loading only full-rank folds have a model: fold scatters of
        # rank snapshots - 2 >= d = 2 * taps - 1, and no frozen seat
        snapshots = max(snapshots, 5)
        taps = min(taps, (snapshots - 1) // 2)
        frozen_seat = False
    cfg = parse_config({
        "version": 1, "pipeline": "classroom_cir",
        "scenario": {"grid": {"nx": nx, "ny": ny, "origin": [0, 0], "spacing_m": 1.0},
                     "snapshots": snapshots, "tap_count": taps,
                     "uca": {"elements": elements, "radius_m": 0.05}},
        "matching": {"loading_eps": loading_eps},
    })
    rng = np.random.default_rng(seed)
    shape = classroom.measurement_shapes(cfg)["cirs"][0]
    cirs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if frozen_seat:  # every snapshot of seat 0 alike: zero fold scatter up to rounding
        cirs[0] = cirs[0, 0]
    n_seats, n_snap, n_ant, _ = shape
    pairs = [(i, j) for i in range(n_ant) for j in range(i + 1, n_ant)]

    # features and per-seat models, one snapshot, pair and seat at a time
    xc = np.array([[[xcorr(cirs[s, k, i], cirs[s, k, j], taps - 1) for i, j in pairs]
                    for k in range(n_snap)] for s in range(n_seats)])
    power = np.array([[np.sum(np.abs(cirs[s, k]) ** 2, axis=1) for k in range(n_snap)]
                      for s in range(n_seats)])
    # one model per seat and pair, each a block of one
    seat_fits = [[fit_gaussian(xc[n, :, p][None], loading_eps) for p in range(len(pairs))]
                 for n in range(n_seats)]
    # every trial against every seat's model, then the true seat's from its fold
    dim = xc.shape[-1]
    want_ll = np.stack([sum(gaussian_loglik(xc[:, :, p].reshape(-1, dim), seat_fits[n][p])[:, 0]
                            for p in range(len(pairs)))
                        for n in range(n_seats)], axis=1)
    want_sq = np.stack([np.sum((power - power[n].mean(axis=0)) ** 2, axis=-1).reshape(-1)
                        for n in range(n_seats)], axis=1)
    for s in range(n_seats):
        for k in range(n_snap):
            t = s * n_snap + k
            fold = [j for j in range(n_snap) if j != k]
            want_ll[t, s] = sum(gaussian_loglik(xc[s, k, p][None],
                                                fit_gaussian(xc[s, fold, p][None],
                                                             loading_eps))[0, 0]
                                for p in range(len(pairs)))
            want_sq[t, s] = np.sum((power[s, k] - power[s, fold].mean(axis=0)) ** 2)

    db = classroom.build_database(cfg, cirs)
    for p, key in enumerate(classroom.pair_keys(n_ant)):
        block = db.block(key, GaussianStats)
        for n in range(n_seats):
            assert np.allclose(_dense_cov(block)[n], _dense_cov(seat_fits[n][p])[0],
                               rtol=1e-9, atol=1e-12)
    loglik, sqerr = classroom.loo_scores(cfg, cirs, db)
    assert np.allclose(loglik, want_ll, rtol=1e-9, atol=1e-9)
    assert np.allclose(sqerr, want_sq, rtol=1e-9, atol=1e-12)
    columns, summary = classroom.evaluate_loo(cfg, cirs, db)
    assert summary["trials_per_method"] == n_seats * n_snap
    for method, want, best in (("cir_mle", want_ll, np.max), ("rssi_euclid", want_sq, np.min)):
        est = columns["est_index"][columns["method"] == method]
        assert len(est) == n_seats * n_snap
        for t, e in enumerate(est):
            assert want[t, e] == pytest.approx(best(want[t]), rel=1e-9, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(taps=hnp.arrays(np.int64, hnp.array_shapes(min_dims=4, max_dims=4, min_side=1,
                                                  max_side=5).filter(lambda s: s[2] >= 2),
                       elements=st.integers(-1000, 1000)),
       imag=st.integers(-1000, 1000))
def test_pair_features_equal_xcorr_per_pair_bit_for_bit_on_integer_taps(taps, imag):
    # integer-valued taps make every product and sum exact, so any summation
    # order gives the same bits
    cirs = taps + 1j * np.roll(taps, 1) * imag
    got = list(classroom.pair_features(cirs))
    n_ant, n_taps = cirs.shape[-2:]
    pairs = [(i, j) for i in range(n_ant) for j in range(i + 1, n_ant)]
    assert [key for key, _ in got] == classroom.pair_keys(n_ant)
    for (_, xc), (i, j) in zip(got, pairs):
        assert xc.shape == cirs.shape[:-2] + (2 * n_taps - 1,)
        for idx in np.ndindex(*cirs.shape[:-2]):
            want = xcorr(cirs[idx + (i,)], cirs[idx + (j,)], n_taps - 1)
            assert xc[idx].tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 1])
def test_pair_features_equal_xcorr_per_pair_bit_for_bit_on_float_taps(seed):
    # xcorr_rows sums each lag in np.correlate's order, so float taps, whose
    # sums round, give the same bits too
    rng = np.random.default_rng(seed)
    cirs = rng.standard_normal((50, 5, 8)) + 1j * rng.standard_normal((50, 5, 8))
    got = np.stack([xc for _, xc in classroom.pair_features(cirs)], axis=1)
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    want = np.stack([np.stack([xcorr(cirs[m, i], cirs[m, j], 7) for i, j in pairs])
                     for m in range(50)])
    assert got.shape == want.shape == (50, 10, 15)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# block-diagonal lighting LP against one linprog per occupied set
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(lead=hnp.array_shapes(min_dims=0, max_dims=2, max_side=5), n=st.integers(1, 400),
       lag_frac=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32 - 1))
def test_xcorr_rows_equal_xcorr_per_row_bit_for_bit(lead, n, lag_frac, seed):
    rng = np.random.default_rng(seed)
    shape = lead + (n,)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    max_lag = int(lag_frac * (n - 1))
    got = xcorr_rows(a, b, max_lag)
    for idx in np.ndindex(*lead):
        assert got[idx].tobytes() == xcorr(a[idx], b[idx], max_lag).tobytes()


@settings(max_examples=60, deadline=None)
@given(n_lights=st.integers(1, 4), n_sets=st.integers(0, 6), density=st.floats(0.0, 0.4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_lighting_equals_per_set_linprog(n_lights, n_sets, density, seed):
    rng = np.random.default_rng(seed)
    grid = Grid((0.0, 0.0), 4, 4, 1.0)
    rows = np.array([[*rng.uniform(0.0, 3.0, 2), rng.uniform(20, 60), rng.uniform(300, 900),
                      rng.uniform(2.0, 3.0)]
                     for _ in range(n_lights)]).reshape(n_lights, 5)
    lights = {"light_xy": rows[:, :2], "power_w": rows[:, 2], "peak_lux": rows[:, 3],
              "height_m": rows[:, 4]}
    env = rng.uniform(0.0, 5.0, len(grid))
    all_on = LightingScenario(grid=grid, **lights, target_lux=1.0,
                              env_lux=np.zeros(len(grid))).gains.sum(axis=1)
    # every cell reachable, and every occupied cell needs some light
    target = float(env.min() + rng.uniform(0.3, 0.95) * all_on.min())
    scen = LightingScenario(grid=grid, **lights, target_lux=target, env_lux=env)
    occupied = rng.random((n_sets, len(grid))) < density
    powers = scen.power_w

    switches, power = solve_lighting(scen, occupied)
    assert switches.shape == (n_sets, n_lights) and power.shape == (n_sets,)
    for row, sw, pw in zip(occupied, switches, power):
        cells = np.flatnonzero(row)
        if not cells.size:
            assert pw == 0.0 and np.all(sw == 0.0)
            continue
        ref = linprog(powers, A_ub=-scen.gains[cells], b_ub=-(target - env[cells]),
                      bounds=[(0.0, 1.0)] * n_lights, method="highs")
        assert ref.status == 0
        assert pw == pytest.approx(ref.fun, rel=1e-9)
        assert pw == powers @ sw  # a row's power is its own 1-D dot product
        assert np.all(sw >= 0.0) and np.all(sw <= 1.0)
        assert np.all(illuminance(scen, sw, cells) >= target - 1e-6)


# ---------------------------------------------------------------------------
# unknown-emitter projection stages against per-point loops
# ---------------------------------------------------------------------------

def _ref_freq_interp(freqs, rows, target):
    """One grid point: a least-squares line per live bin, then the dead-bin fill."""
    mags = np.abs(rows)  # (freqs, dim)
    dim = mags.shape[1]
    design = np.column_stack([np.log10(freqs), np.ones(len(freqs))])
    pred, flags = np.zeros(dim), np.zeros(dim, dtype=bool)
    for j in range(dim):
        if np.all(mags[:, j] > 0.0):
            coef, *_ = np.linalg.lstsq(design, 10.0 * np.log10(mags[:, j]), rcond=None)
            pred[j] = 10.0 ** ((coef[0] * np.log10(target) + coef[1]) / 10.0)
        else:
            flags[j] = True
    for j in np.nonzero(flags)[0]:
        left = next((pred[i] for i in range(j - 1, -1, -1) if not flags[i]), None)
        right = next((pred[i] for i in range(j + 1, dim) if not flags[i]), None)
        if left is not None and right is not None:
            pred[j] = math.sqrt(left * right)
        else:
            pred[j] = left if left is not None else right if right is not None else 0.0
    nearest = int(np.argmin(np.abs(np.asarray(freqs) - target)))
    return pred * np.exp(1j * np.angle(rows[nearest])), flags


def _ref_phase_projection(values, geom, pairs, train_freq, target_freq):
    """One grid point: scan the azimuth grid, then steer at the target frequency."""
    def pair_diffs(freq, aoa):
        k = np.arange(geom.n_elements)
        gain = 2.0 * math.pi * freq * geom.radius_m / SPEED_OF_LIGHT
        phases = gain * np.cos(aoa - 2.0 * math.pi * k / geom.n_elements)
        return np.array([phases[i] - phases[j] for i, j in pairs])

    angles = np.deg2rad(np.arange(0.0, 360.0, 0.5))
    best, best_score, best_conf = None, -np.inf, None
    for aoa in angles:
        agree = np.exp(1j * (values - pair_diffs(train_freq, aoa)))
        score = float(np.real(agree.sum()))
        if score > best_score:
            best, best_score, best_conf = aoa, score, float(np.abs(agree.mean()))
    return wrap_angle(pair_diffs(target_freq, best)), best, best_conf


@settings(max_examples=60, deadline=None)
@given(n_freqs=st.integers(2, 4), n_points=st.integers(1, 5), half=st.integers(0, 5),
       dead=st.sets(st.sampled_from(["leading", "trailing", "interior", "row"])),
       bw_ratio=st.sampled_from([1.0, 0.9, 0.5, 0.13]), elements=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_block_projection_equals_per_point_loop(n_freqs, n_points, half, dead, bw_ratio,
                                                elements, seed):
    rng = np.random.default_rng(seed)
    freqs = np.sort(rng.choice([0.4e9, 0.8e9, 1.5e9, 2.4e9, 5.0e9], n_freqs, replace=False))
    target = float(rng.uniform(0.3e9, 6.0e9))
    dim = 2 * half + 1
    shape = (n_freqs, n_points, dim)
    stack = np.exp(rng.normal(0.0, 2.0, shape)) * np.exp(1j * rng.uniform(-3, 3, shape))
    point = rng.integers(n_points, size=4)
    # a dead bin: zero magnitude at one training frequency
    for kind, p in zip(("leading", "trailing", "interior", "row"), point):
        if kind in dead:
            bins = {"leading": [0], "trailing": [dim - 1], "interior": [half],
                    "row": list(range(dim))}[kind]
            stack[rng.integers(n_freqs), p, bins] = 0.0
    fp, flags = freq_interp_xcorr(freqs, stack, target)
    out = bandwidth_interp(fp, 1e7, 1e7 * bw_ratio)

    taps = windowed_sinc_lowpass(bw_ratio) if bw_ratio < 1.0 else np.array([1.0])
    start = (len(taps) - 1) // 2
    assert out.shape == flags.shape == (n_points, dim)
    for p in range(n_points):
        want, want_flags = _ref_freq_interp(freqs, stack[:, p], target)
        assert np.array_equal(flags[p], want_flags)
        assert np.allclose(fp[p], want, rtol=1e-12, atol=0.0)
        want = np.convolve(want, taps)[start:start + dim]
        scale = np.max(np.abs(want), initial=0.0)
        assert np.allclose(out[p], want, rtol=1e-12, atol=1e-12 * scale)

    geom = UcaGeometry(n_elements=elements, radius_m=float(rng.uniform(0.02, 0.2)))
    pairs = tuple((a, b) for a in range(elements) for b in range(a + 1, elements))
    phases = wrap_angle(rng.uniform(-math.pi, math.pi, (n_points, len(pairs))))
    got, aoa, conf = phasediff_freq_interp(phases, pairs, geom, freqs[0], target)
    assert aoa.shape == conf.shape == (n_points,)
    for p in range(n_points):
        want, want_aoa, want_conf = _ref_phase_projection(phases[p], geom, pairs,
                                                          freqs[0], target)
        assert aoa[p] == want_aoa
        assert conf[p] == pytest.approx(want_conf, rel=1e-12)
        assert np.allclose(got[p], want, rtol=1e-12, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(cutoff=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
       n_taps=st.integers(1, 130))
@example(cutoff=1e-323, n_taps=2)
def test_windowed_sinc_equals_firwin(cutoff, n_taps):
    with np.errstate(invalid="ignore"):
        want = scipy.signal.firwin(n_taps, cutoff)
    if not np.all(np.isfinite(want)):
        # every tap underflowed, so no filter has unit DC gain: firwin
        # divides 0 by 0, the low-pass must refuse
        with pytest.raises(ValueError, match="too small"):
            windowed_sinc_lowpass(cutoff, n_taps)
        return
    assert np.allclose(windowed_sinc_lowpass(cutoff, n_taps), want, rtol=0.0, atol=1e-15)


@settings(max_examples=60, deadline=None)
@given(cutoff=st.floats(0.01, 0.99), lead=hnp.array_shapes(min_dims=0, max_dims=1, max_side=6),
       dim=st.integers(1, 80), seed=st.integers(0, 2 ** 32 - 1))
def test_bandwidth_interp_equals_direct_convolution_center(cutoff, lead, dim, seed):
    rng = np.random.default_rng(seed)
    shape = lead + (dim,)
    values = (np.exp(rng.normal(0.0, 2.0, shape)) * 10.0 ** rng.uniform(-6, 6)
              * np.exp(1j * rng.uniform(-3, 3, shape)))
    out = bandwidth_interp(values, 1e7, 1e7 * cutoff)
    taps = scipy.signal.firwin(LOWPASS_TAPS, cutoff)
    full = scipy.signal.convolve(values, taps.reshape((1,) * len(lead) + (-1,)),
                                 method="direct")
    start = (LOWPASS_TAPS - 1) // 2
    want = full[..., start:start + dim]
    assert out.shape == shape
    assert np.allclose(out, want, rtol=0.0,
                       atol=1e-12 * np.max(np.abs(want), initial=0.0))


# relative to each column's largest value; the dense solves condition up to ~2e7
KRIGING_TOL = 1e-8


def _ref_kriging_mean(locs, column, queries, length_scale):
    """The posterior mean with the column's own signal variance and nugget."""
    sigf = max(float(np.var(column, ddof=1)), 1e-12)

    def cov(a, b):
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return sigf * np.exp(-d2 / (2 * length_scale ** 2))

    gram = cov(locs, locs) + 1e-6 * sigf * np.eye(len(locs))
    return cov(queries, locs) @ np.linalg.solve(gram, column)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6), n_cols=st.integers(1, 6),
       spacing=st.sampled_from([0.3, 1.0, 3.0]), origin=st.tuples(*[st.floats(-100, 100)] * 2),
       factor=st.integers(1, 3), shift=st.tuples(*[st.floats(-1.0, 1.0)] * 2),
       seed=st.integers(0, 2 ** 32 - 1))
def test_multi_column_kriging_equals_per_column_dense_solve(nx, ny, n_cols, spacing, origin,
                                                            factor, shift, seed):
    assume(nx * ny >= 2)
    rng = np.random.default_rng(seed)
    train = Grid(origin, nx, ny, spacing)
    # columns of very different scales, one of them constant (zero variance)
    vals = rng.normal(0.0, 1.0, (len(train), n_cols)) * 10.0 ** rng.uniform(-3, 3, n_cols)
    vals[:, 0] = rng.uniform(-50.0, 50.0)
    # the survey's refinement, and a lattice shifted off it at another spacing
    queries = [Grid(train.origin, (nx - 1) * factor + 1, (ny - 1) * factor + 1,
                    spacing / factor),
               Grid((origin[0] + shift[0] * spacing, origin[1] + shift[1] * spacing),
                    3, 2, spacing * 0.7)]
    model = kriging_fit(train, vals)
    assert model.length_scale == 2.0 * spacing
    for query in queries:
        got = kriging_predict(model, query)
        assert got.shape == (len(query), n_cols)
        for j in range(n_cols):
            want = _ref_kriging_mean(train.xy, vals[:, j], query.xy, model.length_scale)
            scale = np.max(np.abs(vals[:, j]))
            assert np.allclose(got[:, j], want, rtol=0.0, atol=KRIGING_TOL * scale)


@settings(max_examples=40, deadline=None)
@given(nx=st.integers(2, 4), ny=st.integers(2, 4), factor=st.integers(1, 3),
       n_corr=st.integers(1, 3), half=st.integers(0, 3), zero_conf=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_spatial_densify_equals_per_key_and_per_query_loops(nx, ny, factor, n_corr, half,
                                                            zero_conf, seed):
    rng = np.random.default_rng(seed)
    coarse = Grid((0.0, 0.0), nx, ny, 2.0)
    fine = Grid((0.0, 0.0), (nx - 1) * factor + 1, (ny - 1) * factor + 1, 2.0 / factor)
    train, query = coarse.xy, fine.xy
    n, dim = len(train), 2 * half + 1
    blocks = {}
    for k in range(n_corr):
        field = (np.exp(rng.normal(0.0, 2.0, (n, dim))) * 10.0 ** rng.uniform(-6, 6)
                 * np.exp(1j * rng.uniform(-3, 3, (n, dim))))
        field[rng.integers(n), rng.integers(dim)] = 0.0  # floored at 1e-12 of the key's peak
        blocks[f"xc:{k}"] = field
    blocks["pd"] = rng.uniform(-3.1, 3.1, (n, 3))
    conf = np.zeros(n) if zero_conf else rng.uniform(0.0, 1.0, n)
    out = spatial_densify(FingerprintDatabase(grid=coarse, blocks=blocks), factor,
                          confidences={"pd": conf})
    assert out.grid == fine

    nearest = [int(np.argmin(np.sum((train - q) ** 2, axis=1))) for q in query]
    length_scale = 4.0  # twice the training spacing
    for k in range(n_corr):
        stack = blocks[f"xc:{k}"]
        mags = np.abs(stack)
        db = 10.0 * np.log10(np.maximum(mags, 1e-12 * mags.max()))
        for j in range(dim):
            want_db = _ref_kriging_mean(train, db[:, j], query, length_scale)
            got = out.blocks[f"xc:{k}"][:, j]
            assert np.allclose(10.0 * np.log10(np.abs(got)), want_db, rtol=0.0,
                               atol=KRIGING_TOL * np.max(np.abs(db[:, j])))
            assert np.allclose(got / np.abs(got), np.exp(1j * np.angle(stack[nearest, j])),
                               rtol=0.0, atol=1e-14)
    phasors = np.exp(1j * blocks["pd"])
    for q, pos in enumerate(query):
        d = np.hypot(train[:, 0] - pos[0], train[:, 1] - pos[1])
        near = np.argsort(d)[:4]
        if d[near[0]] <= 0.0:
            want = blocks["pd"][near[0]]
        else:
            w = conf[near] / d[near]
            if np.sum(w) <= 0.0:
                w = 1.0 / d[near]
            want = np.angle((w[:, None] * phasors[near]).sum(axis=0))
        assert np.array_equal(out.blocks["pd"][q], want)


# ---------------------------------------------------------------------------
# array particle likelihoods and the stencil grid Bayes predict against the
# per-particle loop and the dense N x N matrix they replaced
# ---------------------------------------------------------------------------

def _ref_particle_update(positions, prior, grid, values):
    """The per-particle corner loop: (weights, mean estimate, ESS)."""
    nx, ny, (x0, y0), h, xy = grid.nx, grid.ny, grid.origin, grid.spacing, grid.xy
    dens = np.exp(values - np.max(values))
    lik = np.empty(len(positions))
    for i, pos in enumerate(positions):
        x = min(max(pos[0], x0), x0 + (nx - 1) * h)
        y = min(max(pos[1], y0), y0 + (ny - 1) * h)
        ix = int(min((x - x0) // h, max(nx - 2, 0)))
        iy = int(min((y - y0) // h, max(ny - 2, 0)))
        cols = [ix, ix + 1] if nx > 1 else [ix]
        rows = [iy, iy + 1] if ny > 1 else [iy]
        corners = np.array([r * nx + c for r in rows for c in cols])
        d = np.hypot(xy[corners, 0] - pos[0], xy[corners, 1] - pos[1])
        exact = d <= 0.0
        if np.any(exact):
            lik[i] = dens[corners[np.argmax(exact)]]
        else:
            w = 1.0 / d
            lik[i] = float(np.dot(w, dens[corners]) / np.sum(w))
    weights = prior * lik / np.sum(prior * lik)
    return weights, weights @ positions, 1.0 / np.sum(weights ** 2)


@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 5), ny=st.integers(1, 5), n_particles=st.integers(1, 40),
       spacing=st.sampled_from([0.3, 1.0, 7.0 / 39]), on_grid=st.floats(0.0, 1.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_particle_update_equals_per_particle_corner_loop(nx, ny, n_particles, spacing,
                                                          on_grid, seed):
    rng = np.random.default_rng(seed)
    grid = Grid(tuple(rng.uniform(-3.0, 3.0, 2)), nx, ny, spacing)
    xy = grid.xy
    values = rng.uniform(-30.0, 0.0, len(grid))
    # particles anywhere in the room and 1.5 m beyond it, some exactly on grid points
    pos = rng.uniform(xy.min(axis=0) - 1.5, xy.max(axis=0) + 1.5, (n_particles, 2))
    pinned = rng.random(n_particles) < on_grid
    pos[pinned] = xy[rng.integers(0, len(grid), np.count_nonzero(pinned))]
    w = rng.uniform(0.1, 1.0, n_particles)
    prior = w / w.sum()

    weights, mean, ess = _ref_particle_update(pos, prior, grid, values)
    got, est, got_ess = particle_update(pos, prior, grid, values)
    assert got_ess == pytest.approx(ess, rel=1e-12)
    assert _rel_close(est, mean)
    assert _rel_close(got, weights)


def _ref_transition_matrix(grid, p_static, sigma):
    """The dense N x N matrix from the points' coordinates.

    Each interval mass is taken from the lower tail, ``-|d|``, as the stencil does.
    """
    xy = grid.xy
    n = len(grid)
    h = grid.spacing
    dx = xy[None, :, 0] - xy[:, None, 0]
    dy = xy[None, :, 1] - xy[:, None, 1]
    if sigma == 0.0:
        kernel = np.eye(n)
    else:
        half = h / 2.0
        ax, ay = np.abs(dx), np.abs(dy)
        kernel = ((ndtr((half - ax) / sigma) - ndtr((-half - ax) / sigma))
                  * (ndtr((half - ay) / sigma) - ndtr((-half - ay) / sigma)))
        kernel[np.maximum(ax, ay) > 4.0 * sigma] = 0.0  # truncated per axis
        kernel /= kernel.sum(axis=1, keepdims=True)
    trans = p_static * np.eye(n) + (1.0 - p_static) * kernel
    return trans / trans.sum(axis=1, keepdims=True)


# Dyadic spacings and integer origins keep every lattice offset exact, so the
# old formula's coordinate differences equal the stencil's offsets and a step
# limit (four step sigmas) of a whole number of cells, 4 or 5, is a tie that
# both keep.
@settings(max_examples=60, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6), spacing=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
       sigma_cells=st.sampled_from([0.0, 0.05, 0.4, 1.0, 1.25, 3.0, 40.0]),
       p_static=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stencil_transition_equals_dense_matrix(nx, ny, spacing, sigma_cells, p_static, seed):
    rng = np.random.default_rng(seed)
    grid = Grid(tuple(rng.integers(-3, 4, 2).astype(float)), nx, ny, spacing)
    sigma = sigma_cells * spacing
    trans = transition_matrix(grid, p_static, sigma)
    dense = _ref_transition_matrix(grid, p_static, sigma)

    n = len(grid)
    prev = rng.uniform(-40.0, 0.0, n)
    prev[rng.random(n) < 0.2] = -800.0  # mass that underflows to zero
    prev[rng.integers(n)] = 0.0
    mass = np.exp(prev)
    want = dense.T @ mass
    assert np.allclose(trans.predict(mass), want, rtol=1e-12, atol=0.0)

    obs = rng.uniform(-10.0, 0.0, n)
    args = (prev, trans, obs)
    if np.any(want <= 0.0):
        with pytest.raises(NumericError):
            grid_bayes_step(*args)
    else:
        expect = obs + np.log(want)
        assert np.allclose(grid_bayes_step(*args), expect - expect.max(),
                           rtol=1e-12, atol=1e-12)


# bems_fine's room (7 m at 40 x 40 cells; the default mobility reaches 22
# cells along each axis) and corridors along both axes
@pytest.mark.parametrize("nx, ny, spacing", [(40, 40, 7.0 / 39), (1, 40, 7.0 / 39),
                                             (40, 1, 7.0 / 39), (1, 9, 0.78), (9, 1, 0.78)])
def test_separable_transition_equals_dense_matrix_at_scale(nx, ny, spacing):
    grid = Grid((0.0, 0.0), nx, ny, spacing)
    trans = transition_matrix(grid, 0.4, 1.0)
    rng = np.random.default_rng(nx * 100 + ny)
    mass = np.exp(rng.uniform(-40.0, 0.0, len(grid)))
    want = _ref_transition_matrix(grid, 0.4, 1.0).T @ mass
    assert np.allclose(trans.predict(mass), want, rtol=1e-12, atol=0.0)
    side = max(nx, ny)
    for held in (trans.mass_x, trans.mass_y, trans.tx, trans.ty, trans.totals):
        assert held.size <= side * side


# ---------------------------------------------------------------------------
# the array record of measurements.json and db.json
# ---------------------------------------------------------------------------

_SHAPES = hnp.array_shapes(min_dims=0, max_dims=4, min_side=1, max_side=3)
_FINITE = {"allow_nan": False, "allow_infinity": False}
_MAX = float(np.finfo(float).max)
# finite floats, drawing -0.0, subnormals and +-finfo.max often
_EXACT = st.one_of(st.sampled_from([-0.0, 5e-324, -1e-310, _MAX, -_MAX]), st.floats(**_FINITE))
_POSITIVE = st.one_of(st.sampled_from([5e-324, 1e-310, _MAX]),
                      st.floats(min_value=0.0, exclude_min=True, **_FINITE))


def _model_blocks(data, n: int) -> dict:
    """A Gaussian (diagonal covariance), Gamma and von Mises block over n points.

    The Gaussian's eigenvectors are a diagonal of unit phases, exactly unitary.
    """
    def draw(shape, elements, dtype=np.float64):
        return data.draw(hnp.arrays(dtype, shape, elements=elements))

    d = data.draw(st.integers(1, 3))
    phases = draw((n, d), st.sampled_from([1.0, -1.0, 1j, -1j]), np.complex128)
    return {
        "gaussian": GaussianStats(mean=draw((n, d), st.builds(complex, _EXACT, _EXACT),
                                            np.complex128),
                                  eigvals=draw((n, d), st.one_of(st.just(0.0), _POSITIVE)),
                                  eigvecs=phases[:, :, None] * np.eye(d),
                                  loading=draw((n,), st.one_of(st.just(0.0), _POSITIVE))),
        "gamma": GammaParams(shape=draw((n,), _POSITIVE), scale=draw((n,), _POSITIVE)),
        "von_mises": VonMisesParams(
            mu=draw((n,), st.one_of(st.just(-0.0),
                                    st.floats(-math.pi, math.pi, exclude_min=True))),
            kappa=draw((n,), st.one_of(st.sampled_from([0.0, 5e-324]),
                                       st.floats(0.0, KAPPA_MAX)))),
    }


@settings(max_examples=60, deadline=None)
@given(arrays=st.fixed_dictionaries({
    "real": hnp.arrays(np.float64, _SHAPES, elements=_EXACT),
    "complex": hnp.arrays(np.complex128, _SHAPES, elements=st.builds(complex, _EXACT, _EXACT)),
    "count": hnp.arrays(np.int64, _SHAPES),
    "flag": hnp.arrays(np.bool_, _SHAPES),
}), data=st.data())
def test_measurement_codec_round_trips_bit_exactly(arrays, data):
    cfg = {"pipeline": "wifi_rssi_rspd", "seed": 0, "scenario": {}}
    expected = {name: (arr.shape, arr.dtype) for name, arr in arrays.items()}
    with tempfile.TemporaryDirectory() as out_dir:
        save_measurements(cfg, out_dir, arrays)
        path = os.path.join(out_dir, "measurements.json")
        validate_artifact(path)
        back, digest = read_measurements(path, cfg, expected)
    assert isinstance(digest, str) and len(digest) == 64
    for name, arr in arrays.items():
        got = back[name]
        assert (got.dtype, got.shape, got.tobytes()) == (arr.dtype, arr.shape, arr.tobytes())
    # the real and complex arrays of rank 1-3 as db.json blocks, the leading
    # axis the grid, and one block of each model over a grid of n points
    cases = [({name: arrays[name]}, len(arrays[name]))
             for name in ("real", "complex") if 1 <= arrays[name].ndim <= 3]
    n = data.draw(st.integers(1, 3))
    cases.append((_model_blocks(data, n), n))
    for blocks, rows in cases:
        grid = Grid((0.0, 0.0), rows, 1, 1.0)
        with tempfile.TemporaryDirectory() as out_dir:
            path = os.path.join(out_dir, "db.json")
            save_database(FingerprintDatabase(grid=grid, blocks=blocks), path)
            validate_artifact(path)
            stored = load_database(path).blocks
        for key, block in blocks.items():
            pairs = ([(block, stored[key])] if isinstance(block, np.ndarray) else
                     [(getattr(block, f), getattr(stored[key], f))
                      for f in block.__dataclass_fields__])
            for want, got in pairs:
                assert ((got.dtype, got.shape, got.tobytes())
                        == (want.dtype, want.shape, want.tobytes())), key
    # neither writer stores a NaN or an infinity
    bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    for name in ("real", "complex"):
        poisoned = arrays[name].copy()
        poisoned.flat[data.draw(st.integers(0, poisoned.size - 1))] = (
            complex(0.0, bad) if name == "complex" and data.draw(st.booleans()) else bad)
        with tempfile.TemporaryDirectory() as out_dir:
            with pytest.raises(ValueError, match="non-finite"):
                save_measurements(cfg, out_dir, {**arrays, name: poisoned})
            if poisoned.ndim:
                db = FingerprintDatabase(grid=Grid((0.0, 0.0), len(poisoned), 1, 1.0),
                                         blocks={name: poisoned})
                with pytest.raises(ValueError, match="non-finite"):
                    save_database(db, os.path.join(out_dir, "db.json"))
            assert os.listdir(out_dir) == []


# ---------------------------------------------------------------------------
# the survey lattice against the per-point loop it replaced
# ---------------------------------------------------------------------------

def _ref_lattice_points(origin, nx, ny, spacing):
    """The per-point loop that built the grid's list of (x, y) points."""
    return [(origin[0] + (k % nx) * spacing, origin[1] + (k // nx) * spacing)
            for k in range(nx * ny)]


_LATTICE = {
    "origin": st.tuples(st.floats(-1e3, 1e3, **_FINITE), st.floats(-1e3, 1e3, **_FINITE)),
    "nx": st.integers(1, 40),
    "ny": st.integers(1, 40),
    "spacing": st.one_of(st.sampled_from([0.78, 0.1, 7.0 / 39]),
                         st.floats(1e-3, 1e2, **_FINITE)),
}


@settings(max_examples=100, deadline=None)
@given(**_LATTICE)
def test_grid_lattice_equals_per_point_loop_bit_for_bit(origin, nx, ny, spacing):
    grid = Grid(origin, nx, ny, spacing)
    want = _ref_lattice_points(origin, nx, ny, spacing)
    assert len(grid) == len(want)
    ref = np.array(want, dtype=float)
    assert grid.xy.tobytes() == ref.tobytes()
    # the simulators seed their streams from these coordinates' bit patterns
    for k in {0, len(grid) // 2, len(grid) - 1}:
        assert (derive_seed(*grid.xy[k].tolist()).entropy
                == derive_seed(*want[k]).entropy)


@settings(max_examples=60, deadline=None)
@given(**_LATTICE)
def test_grid_round_trips_through_the_database_file(origin, nx, ny, spacing):
    grid = Grid(origin, nx, ny, spacing)
    with tempfile.TemporaryDirectory() as out_dir:
        path = os.path.join(out_dir, "db.json")
        save_database(FingerprintDatabase(grid=grid, blocks={"p": np.zeros(len(grid))}), path)
        validate_artifact(path)
        back = load_database(path).grid
    assert back == grid
    assert back.xy.tobytes() == grid.xy.tobytes()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {name: run_chain(name, tmp) for name in sorted(TINY)}
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text(json.dumps(data, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    digests = {name: simulated_digests(name) for name in sorted(TINY)}
    SIMULATED.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n",
                         encoding="utf-8")
    print(PINNED, SIMULATED)
