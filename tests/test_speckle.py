"""Tests for the speckle Monte Carlo bench.

The bench samples its record from a Wishart law and reads every detection off
it. The helpers below are the independent per-mode oracle it is tested
against: they draw every mode's amplitude, split, substitute, mix, project
and detect the fields with the optics written out here, not with the bench's
code.
"""

import dataclasses
import functools
import hashlib
import math
import pickle
import re
import sys
import threading
import tracemalloc

import numpy as np
import numpy.random.bit_generator
import pytest
from scipy.stats import ks_2samp, kstest

from cvbench import speckle
from cvbench.network import interfere, prepare_discordant_pair
from cvbench.speckle import (
    ANALYZERS,
    CHUNK_FRAMES,
    BenchConfig,
    FrameBatch,
    chunk_rng,
    chunk_record,
    run_bench,
)
from cvbench.states import SingleModeSpec
from cvbench.stats import _BLOCK_FRAMES, cm_to_intensity_corr, comoments, corr_coeff

#: stream ids of the oracle's per-beam field streams; the bench's Gram stream is 5
SOURCE1, SOURCE2, MIX_SUBSTITUTE, SPLIT_SUBSTITUTE = 1, 2, 3, 4
#: counter position of a stand-alone stream, outside the chunk range of any run
STANDALONE = 1 << 32

H, V = np.array([1.0, 0.0]), np.array([0.0, 1.0])
#: Jones vectors of (beam 1, beams 2 and 3) per scenario, written out here so
#: that the oracle stays independent of the bench's own table
SCENARIO_JONES = {"interference": (H, H), "erasure": (H, V)}

#: every (scenario, analysis basis) the bench distinguishes
SCENARIO_BASES = [(scenario, basis) for scenario in SCENARIO_JONES for basis in ANALYZERS]

#: the beam pairs every table reads
PAIRS = [(0, 1), (0, 2), (1, 2)]


def thermal_fields(rng, shape, mean):
    """Circular complex Gaussian amplitudes of the given shape with E|a|^2 = mean."""
    z = rng.standard_normal(shape[:-1] + (2 * shape[-1],)) * math.sqrt(mean / 2.0)
    return z[..., 0::2] + 1j * z[..., 1::2]


def split(field, t):
    """Deterministic split (sqrt(t) field, sqrt(1 - t) field); outputs share the speckle."""
    return field * math.sqrt(t), field * math.sqrt(1.0 - t)


def mix(a, b, tau):
    """Amplitude beam splitter: reflecting the first input carries the minus sign."""
    t, r = math.sqrt(tau), math.sqrt(1.0 - tau)
    return t * a + r * b, t * b - r * a


def project(jones, basis):
    """A Jones field (..., 2) behind an analyzer; 'none' keeps both components."""
    if basis == "none":
        return jones
    h, v = jones[..., 0], jones[..., 1]
    return {"H": h, "V": v, "deg45": (h + v) / math.sqrt(2.0)}[basis]


def intensity(fields):
    """Detected intensity of each frame: |amplitude|^2 summed over every axis but the first."""
    power = fields.real**2 + fields.imag**2
    return power.reshape(power.shape[0], -1).sum(axis=1)


def stream_fields(cfg, stream, frames, mean):
    """(len(frames), M) oracle fields of one stream. Chunk c's rows are drawn in
    order from chunk_rng(seed, stream, c), up to the last row read: numpy fills
    a normal draw in order, so a frame's row never depends on the others."""
    chunk, row = np.divmod(np.asarray(frames), CHUNK_FRAMES)
    fields = np.empty((chunk.size, cfg.modes), dtype=complex)
    for c in np.unique(chunk):
        read = chunk == c
        shape = (row[read].max() + 1, cfg.modes)
        fields[read] = thermal_fields(chunk_rng(cfg.seed, stream, c), shape, mean)[row[read]]
    return fields


def oracle_fields(cfg, frames):
    """(beam 1, beam 2, beam 3, beam 2 as it enters the BS) of the frames, from per-mode fields.

    Source 2 splits at t_split into beams 2 and 3; mode mismatch replaces the
    first round((1 - eta) M) modes of beam 3 and of the BS input by
    independent fields of the same mean.
    """
    m1 = cfg.mean_photons
    m2 = m1 / cfg.t_split
    k = round((1.0 - cfg.eta) * cfg.modes)
    beam1 = stream_fields(cfg, SOURCE1, frames, m1)
    beam2, beam3 = split(stream_fields(cfg, SOURCE2, frames, m2), cfg.t_split)
    mixed = beam2.copy()
    if k:
        beam3[:, :k] = stream_fields(cfg, SPLIT_SUBSTITUTE, frames, (1 - cfg.t_split) * m2)[:, :k]
        mixed[:, :k] = stream_fields(cfg, MIX_SUBSTITUTE, frames, m1)[:, :k]
    return beam1, beam2, beam3, mixed


def field_record(cfg, frames=None):
    """(frames, 5) record (3 in-intensities, 2 Gram columns) built from the oracle's fields.

    All of cfg's frames by default, drawn one chunk at a time to bound memory.
    """
    if frames is None:
        parts = np.split(np.arange(cfg.frames), range(CHUNK_FRAMES, cfg.frames, CHUNK_FRAMES))
        return np.concatenate([field_record(cfg, part) for part in parts])
    return fields_record(oracle_fields(cfg, frames))


def fields_record(fields):
    """(frames, 5) record of the oracle's (beam 1, beam 2, beam 3, BS input) fields."""
    beam1, beam2, beam3, mixed = fields
    columns = [intensity(beam1), intensity(beam2), intensity(beam3), intensity(mixed)]
    return np.stack(columns + [(beam1 * mixed.conj()).real.sum(axis=1)], axis=1)


#: run_bench with its batches kept, for a run that a test reads in many cases; a
#: batch's sums and record are read-only
cached_run = functools.cache(run_bench)


@functools.cache
def drawn_once(cfg, frames):
    """(run_bench(cfg).sums, oracle_fields(cfg, frames)), drawn once for the tests
    that read them at many (tau, scenario, basis): neither depends on those.
    Every array is read-only, since every caller shares it."""
    fields = oracle_fields(cfg, frames)
    for field in fields:
        field.flags.writeable = False
    return cached_run(cfg).sums, fields


def read_outs(batch, record, scenario="interference", basis="none", tau=0.5):
    """(frames, 3) read-outs of a preset behind a basis at tau on any (frames, 5) record:
    the batch's weights, summed as the bench sums them (speckle._read_out)."""
    weights = [batch.out_weights(beam, basis, scenario, tau) for beam in range(3)]
    return np.stack([speckle._read_out(record, w) for w in weights], axis=1)


def reference_out(cfg, frames, scenario, basis, tau, fields=None):
    """(len(frames), 3) out-intensities of a preset behind a basis: the oracle's fields
    (``oracle_fields(cfg, frames)`` unless given) lifted to Jones fields, mixed at
    tau, projected and detected."""
    beam1, _, beam3, mixed = oracle_fields(cfg, frames) if fields is None else fields
    e1, e2 = SCENARIO_JONES[scenario]
    out1, out2 = mix(beam1[..., None] * e1, mixed[..., None] * e2, tau)
    outs = (out1, out2, beam3[..., None] * e2)
    return np.stack([intensity(project(field, basis)) for field in outs], axis=1)


def block_correlations(columns, blocks=20):
    """(correlation matrix, its standard error from `blocks` batch means) of (frames, 5) columns."""
    c = np.corrcoef(columns, rowvar=False)
    per_block = [np.corrcoef(part, rowvar=False) for part in np.array_split(columns, blocks)]
    return c, np.std(per_block, axis=0, ddof=1) / math.sqrt(blocks)


def law_mismatches(sampled, reference):
    """Where two (frames, 5) records differ in law: per-column KS p <= 0.01, or a
    pairwise correlation more than 5 standard errors apart."""
    names = ("in 1", "in 2", "in 3", "gram |a2|^2", "gram Re a1.a2*")
    problems = [
        f"{name}: KS p = {p:.2g}"
        for name, p in zip(
            names, (ks_2samp(sampled[:, i], reference[:, i]).pvalue for i in range(5))
        )
        if p <= 0.01
    ]
    c_s, se_s = block_correlations(sampled)
    c_r, se_r = block_correlations(reference)
    bound = 5.0 * np.hypot(se_s, se_r) + 1e-12
    for i, j in zip(*np.triu_indices(5, 1)):
        if abs(c_s[i, j] - c_r[i, j]) > bound[i, j]:
            problems.append(
                f"corr({names[i]}, {names[j]}): {c_s[i, j]:.4f} vs {c_r[i, j]:.4f} "
                f"(bound {bound[i, j]:.4f})"
            )
    return problems


#: (modes, eta) of the law tests: single and multi-mode, with and without substitution;
#: W2(1) blocks, whose h is Gamma(1/2), at (1, 1.0) for B and (4, 0.75) for A
LAW_CASES = [(1, 1.0), (2, 1.0), (4, 1.0), (4, 0.75), (7, 0.7), (100, 1.0), (100, 0.5)]


def law_config(modes, eta):
    return BenchConfig(
        modes=modes, frames=20_000, mean_photons=1.3, t_split=0.4, eta=eta, seed=1000
    )


def sampled_record(cfg):
    """A writable copy of run_bench's record."""
    return run_bench(cfg).record.copy()


class TestSampler:
    def test_mean_within_five_standard_errors(self):
        # Var(|a|^2) = mean^2, so 5 SE over 1e6 draws is 5 mean / 1e3
        mean = 1.7
        field = thermal_fields(chunk_rng(5, 1, STANDALONE), (10**6,), mean)
        sample_mean = float(np.mean(np.abs(field) ** 2))
        assert abs(sample_mean - mean) <= 5.0 * mean / 1e3

    def test_intensity_is_exponential(self):
        mean = 0.8
        field = thermal_fields(chunk_rng(6, 1, STANDALONE), (10**5,), mean)
        power = np.abs(field) ** 2
        result = kstest(power, "expon", args=(0.0, mean))
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("modes", [1, 4])
    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_bench_intensities_are_gamma(self, modes, eta):
        # the fields run_bench draws: each detected beam sums M exponential
        # modes of one mean, substituted modes included, so it is Gamma(M, mean)
        cfg = BenchConfig(
            modes=modes, frames=20_000, mean_photons=1.3, t_split=0.4, eta=eta, seed=61
        )
        batch = run_bench(cfg)
        beam3_mean = (1.0 - cfg.t_split) * cfg.mean_photons / cfg.t_split
        for name, series, mean in (
            ("in 1", batch.intensities_in[:, 0], cfg.mean_photons),
            ("in 2", batch.intensities_in[:, 1], cfg.mean_photons),
            ("in 3", batch.intensities_in[:, 2], beam3_mean),
            ("out 1", batch.out_series(0, tau=0.3), cfg.mean_photons),
        ):
            result = kstest(series, "gamma", args=(modes, 0.0, mean))
            assert result.pvalue > 0.01, name

    def test_quadratures_have_half_mean_variance(self):
        mean = 2.0
        field = thermal_fields(chunk_rng(7, 1, STANDALONE), (10**6,), mean)
        assert float(np.var(field.real)) == pytest.approx(mean / 2.0, rel=0.02)
        assert float(np.var(field.imag)) == pytest.approx(mean / 2.0, rel=0.02)

    def test_zero_mean_limit(self):
        field = thermal_fields(chunk_rng(8, 1, STANDALONE), (100,), 0.0)
        assert np.array_equal(field, np.zeros(100, dtype=complex))


class TestGramSampler:
    @pytest.mark.parametrize("modes, eta", LAW_CASES)
    def test_record_has_the_law_of_the_field_path(self, modes, eta):
        # out_series reads every preset and basis as a fixed linear combination
        # of the five recorded columns, so their joint law covers them all
        cfg = law_config(modes, eta)
        assert law_mismatches(sampled_record(cfg), field_record(cfg)) == []

    def test_law_check_catches_a_wrong_bartlett_gamma(self):
        # drawing h ~ Gamma(d + 1/2) where the folded Bartlett factor needs
        # Gamma(d - 1/2) adds an independent Exp(1) to B_yy: to both source-2
        # beams and, at eta = 1, to |a2|^2. At M = 100 that is a 1% shift of
        # their means
        cfg = law_config(100, 1.0)
        m2 = cfg.mean_photons / cfg.t_split
        gain = [0.0, cfg.t_split * m2, (1.0 - cfg.t_split) * m2, cfg.t_split * m2, 0.0]
        extra = np.random.default_rng(1).standard_exponential(cfg.frames)
        wrong = sampled_record(cfg) + np.outer(extra, gain)
        assert law_mismatches(wrong, field_record(cfg))

    def test_law_check_catches_a_missing_normal_in_y(self, monkeypatch):
        # |y|^2 = h + n^2 / 2: without the n^2 / 2 that the fold adds, B_yy is
        # Gamma(M - 1/2) instead of Gamma(M), and the normal n, still in
        # Re x.y*, no longer enters |y|^2
        bartlett = speckle._bartlett

        def without_the_normal(rows, xy):
            half_square = rows[2] ** 2 / 2.0
            xx, yy, xy = bartlett(rows, xy)
            yy -= half_square
            return xx, yy, xy

        cfg = law_config(4, 1.0)
        monkeypatch.setattr(speckle, "_bartlett", without_the_normal)
        wrong = sampled_record(cfg)
        monkeypatch.undo()
        assert law_mismatches(wrong, field_record(cfg))

    def test_law_check_catches_a_missing_sqrt_t(self):
        # without sqrt(t) the cross term is sqrt(m1 m2) Re B_xy, 1/sqrt(t) too large
        cfg = law_config(4, 1.0)
        wrong = sampled_record(cfg)
        wrong[:, 4] /= math.sqrt(cfg.t_split)
        assert law_mismatches(wrong, field_record(cfg))

    @pytest.mark.parametrize("modes, eta", [(1, 0.0), (3, 0.5)])
    def test_degenerate_blocks(self, modes, eta):
        # eta = 0 substitutes every mode (B = W2(0) is a zero block, A = W2(1)),
        # and at M = 3, eta = 0.5, B = W2(1): a W2(1) block draws its h from
        # Gamma(1/2). The record must stay a valid Gram record
        batch = run_bench(BenchConfig(modes=modes, frames=1000, seed=3, eta=eta))
        ins, gram = batch.record[:, :3], batch.record[:, 3:]
        assert np.all(ins >= 0.0) and np.all(gram[:, 0] >= 0.0)
        # Cauchy-Schwarz on the BS inputs: (Re a1.a2*)^2 <= |a1|^2 |a2|^2
        assert np.all(gram[:, 1] ** 2 <= ins[:, 0] * gram[:, 0] * (1 + 1e-12))
        if eta == 0.0:
            assert corr_coeff(ins[:, 1], ins[:, 2]) == pytest.approx(0.0, abs=0.1)

    @pytest.mark.parametrize(
        "modes, eta, k", [(1, 0.5, 0), (2, 0.75, 0), (3, 0.5, 2), (7, 0.7, 2), (100, 0.97, 3)]
    )
    def test_substituted_modes_round_half_to_even(self, modes, eta, k):
        # k = round((1 - eta) M) sets the correlation ceiling (M - k) / M, which
        # is eta only where (1 - eta) M is whole: a half rounds to even, so
        # (1, 0.5) and (2, 0.75) substitute no mode and (3, 0.5) two
        assert speckle._substituted(BenchConfig(modes=modes, eta=eta)) == k


class TestSplitField:
    def test_full_transmission(self):
        field = thermal_fields(chunk_rng(10, 1, STANDALONE), (50,), 1.0)
        kept, dumped = split(field, 1.0)
        assert np.array_equal(kept, field)
        assert np.allclose(dumped, 0.0)

    def test_outputs_fully_correlated(self):
        fields = thermal_fields(chunk_rng(11, 1, STANDALONE), (10**5, 100), 1.0)
        b2, b3 = split(fields, 0.37)
        c = corr_coeff(intensity(b2), intensity(b3))
        assert abs(c - 1.0) <= 0.01

    def test_balanced_split_halves_mean(self):
        field = thermal_fields(chunk_rng(12, 1, STANDALONE), (10**5,), 2.0)
        a, b = split(field, 0.5)
        assert float(np.mean(np.abs(a) ** 2)) == pytest.approx(1.0, rel=0.05)
        assert float(np.mean(np.abs(b) ** 2)) == pytest.approx(1.0, rel=0.05)


class TestMixFields:
    def test_passthrough(self):
        a = thermal_fields(chunk_rng(13, 1, STANDALONE), (30,), 1.0)
        b = thermal_fields(chunk_rng(13, 2, STANDALONE), (30,), 1.0)
        out_a, out_b = mix(a, b, 1.0)
        assert np.array_equal(out_a, a)
        assert np.array_equal(out_b, b)

    def test_energy_conserved_per_mode(self):
        a = thermal_fields(chunk_rng(14, 1, STANDALONE), (200,), 1.3)
        b = thermal_fields(chunk_rng(14, 2, STANDALONE), (200,), 0.6)
        out_a, out_b = mix(a, b, 0.37)
        before = np.abs(a) ** 2 + np.abs(b) ** 2
        after = np.abs(out_a) ** 2 + np.abs(out_b) ** 2
        assert np.allclose(after, before, rtol=1e-10)

    def test_independent_inputs_uncorrelated_outputs(self):
        n, m = 10**5, 100
        a = thermal_fields(chunk_rng(15, 1, STANDALONE), (n, m), 1.0)
        b = thermal_fields(chunk_rng(15, 2, STANDALONE), (n, m), 1.0)
        out_a, out_b = mix(a, b, 0.5)
        c = corr_coeff(intensity(out_a), intensity(out_b))
        assert abs(c) <= 0.02

    def test_marginals_stay_thermal(self):
        n, m = 3 * 10**4, 100
        a = thermal_fields(chunk_rng(16, 1, STANDALONE), (n, m), 1.0)
        b = thermal_fields(chunk_rng(16, 2, STANDALONE), (n, m), 1.0)
        out_a, _ = mix(a, b, 0.5)
        i_in = intensity(a)
        i_out = intensity(out_a)
        se_mean = float(np.std(i_in)) / math.sqrt(n)
        assert abs(float(np.mean(i_out)) - float(np.mean(i_in))) <= 3.0 * se_mean
        assert float(np.var(i_out)) == pytest.approx(float(np.var(i_in)), rel=0.1)

    def test_substitution_replaces_prefix(self):
        # eta = 0.8 of 10 modes: the oracle replaces the first 2 modes of beam 3
        # and of the BS input; elsewhere beams 2 and 3 share source 2's speckle
        cfg = BenchConfig(modes=10, frames=3, seed=2, eta=0.8, t_split=0.4)
        _, beam2, beam3, mixed = oracle_fields(cfg, range(cfg.frames))
        split_ratio = math.sqrt((1.0 - cfg.t_split) / cfg.t_split)
        assert np.allclose(beam3[:, 2:] / beam2[:, 2:], split_ratio, rtol=1e-14)
        assert not np.any(np.isclose(beam3[:, :2] / beam2[:, :2], split_ratio))
        assert np.array_equal(mixed[:, 2:], beam2[:, 2:])
        assert not np.any(mixed[:, :2] == beam2[:, :2])


class TestJones:
    def test_projection_deg45(self):
        jones = np.zeros((2, 2), complex)
        jones[:, 0] = [1.0, 1.0]
        jones[:, 1] = [1.0, -1.0]
        projected = project(jones, "deg45")
        assert intensity(projected[None]) == pytest.approx(2.0)  # |sqrt(2)|^2 + 0

    def test_projection_axes(self):
        jones = np.array([3.0 + 0j])[:, None] * V
        assert intensity(project(jones, "V")[None]) == pytest.approx(9.0)
        assert intensity(project(jones, "H")[None]) == pytest.approx(0.0)
        assert intensity(project(jones, "none")[None]) == pytest.approx(9.0)


def keyed_philox(seed, stream, chunk):
    """The stream contract through numpy's keyed constructor. uint64 arrays, as a
    list holding 2**64 - 1 is cast through float and keys the stream with 0."""
    key = np.array([seed, stream], dtype=np.uint64)
    counter = np.array([0, chunk, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


class RawWords:
    """numpy's seed interface, test-side: it hands a bit generator its words unhashed."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        assert (n_words, np.dtype(dtype)) == (len(self.words), np.uint64)
        return self.words


numpy.random.bit_generator.ISeedSequence.register(RawWords)


def row_key(seed, chunk, slot):
    """The key of a run's row through numpy's public constructors, the row's stream
    opened on its own: words 0-2 of block 8 chunk + slot + 1 of the Philox stream
    keyed by (seed, 5), which is the stream at counter 0 advanced by 8 chunk + slot
    blocks."""
    return keyed_philox(seed, 5, 0).bit_generator.advance(8 * chunk + slot).random_raw(3)


def keyed_row_keys(seed, first, n_chunks):
    """(n_chunks, 8, 4) row keys of a run's chunks first .. first + n_chunks - 1, each
    read alone; only words 0-2 of a key seed its row."""
    keys = np.zeros((n_chunks, 8, 4), dtype=np.uint64)
    for c, slot in np.ndindex(n_chunks, 8):
        keys[c, slot, :3] = row_key(seed, first + c, slot)
    return keys


def keyed_row_rng(key):
    """The generator a row draws from: SFC64 seeded with words 0-2 of its key as they are."""
    return np.random.Generator(np.random.SFC64(RawWords(np.array(key[:3]))))


class CountedRow:
    """A row generator that counts the values asked of it."""

    def __init__(self, rng):
        self.rng, self.values = rng, 0

    def standard_gamma(self, shape, out):
        self.values += out.size
        return self.rng.standard_gamma(shape, out=out)

    def standard_normal(self, out):
        self.values += out.size
        return self.rng.standard_normal(out=out)


#: sha256 of chunk_record's bytes per (config, chunk), as numpy 2.4.6 draws them;
#: chunk 48 is the last of the erasure workload's 400,000 frames. The test ids
#: name each pin, not its digest, so a re-pin keeps them
PINNED_CHUNK_RECORDS = [
    (
        BenchConfig(modes=4, seed=1),
        48,
        "713575f65d45f079d91964c8777da0cae8b29ea2b8043fcd34221a0a64c6c0fd",
    ),
    (
        BenchConfig(modes=7, seed=3, eta=0.7),
        1,
        "240a85b9eff0981594b2d098886a6dbe3c7670547d880f6be858df452e76b118",
    ),
]


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("stream", [1, 5])
    @pytest.mark.parametrize("chunk", [0, 1 << 32, 2**64 - 1])
    def test_state_is_that_of_numpys_keyed_constructor(self, seed, stream, chunk):
        np.testing.assert_equal(
            chunk_rng(seed, stream, chunk).bit_generator.state,
            keyed_philox(seed, stream, chunk).bit_generator.state,
        )

    @pytest.mark.parametrize(
        "cfg",
        [
            BenchConfig(modes=4, frames=400_000, seed=1, workers=2),  # the erasure workload's
            BenchConfig(modes=7, frames=1000, seed=3, eta=0.7),  # substitution rows
            BenchConfig(modes=3, frames=2 * CHUNK_FRAMES + 100, seed=4),  # short last chunk
        ],
    )
    def test_record_is_drawn_from_numpys_keyed_streams(self, cfg, monkeypatch):
        # the record rebuilt with every row's generator made by numpy's
        # public constructors alone, each row's key read on its own, the
        # SFC64 seeding included
        record = run_bench(cfg).record
        monkeypatch.setattr(speckle, "_row_keys", keyed_row_keys)
        monkeypatch.setattr(speckle, "_row_rng", keyed_row_rng)
        assert record.tobytes() == run_bench(cfg).record.tobytes()

    def test_a_run_opens_each_chunks_key_once_in_chunk_order(self, monkeypatch):
        # 400,000 frames are 49 chunks of 8,192: a run opens one key stream,
        # what perfbench's traced run counts as speckle.rng_streams, reads
        # from it the 8 row keys of each chunk once, in chunk order, and
        # nothing more, and seeds one SFC64 with the key of each row it
        # draws: slots 0-2 of every chunk at eta = 1, slots 0-7 at eta < 1
        opened, streams, seeded = [], [], []

        def counted(seed, stream, chunk):
            opened.append((seed, stream, chunk))
            streams.append(chunk_rng(seed, stream, chunk))
            return streams[-1]

        class RecordedKey(speckle._StreamKey):
            def generate_state(self, n_words, dtype=np.uint32):
                if n_words == 3:
                    seeded.append(self.words.tolist())
                return super().generate_state(n_words, dtype)

        monkeypatch.setattr(speckle, "chunk_rng", counted)
        monkeypatch.setattr(speckle, "_StreamKey", RecordedKey)
        run_bench(BenchConfig(modes=4, frames=400_000, seed=1, workers=2))
        assert opened == [(1, speckle.GRAM_STREAM, 0)]
        assert seeded == [row_key(1, c, j).tolist() for c in range(49) for j in range(3)]
        counters = [rng.bit_generator.state["state"]["counter"].tolist() for rng in streams]
        assert counters == [[8 * 49, 0, 0, 0]]
        opened.clear(), seeded.clear()
        run_bench(BenchConfig(modes=7, frames=CHUNK_FRAMES + 1, seed=3, eta=0.7))
        assert opened == [(3, speckle.GRAM_STREAM, 0)]
        assert seeded == [row_key(3, c, j).tolist() for c in range(2) for j in range(8)]

    @pytest.mark.parametrize("seed", [1, 2**64 - 1])
    @pytest.mark.parametrize("first, n_chunks", [(0, 4), (2, 3), (3, 6), (4, 4), (7, 9), (191, 5)])
    def test_chunk_keys_do_not_depend_on_their_grouping(self, seed, first, n_chunks):
        # one key read for any run of chunks gives chunk first + j the row keys
        # that reading it alone gives, each the Philox block of its own row
        together = speckle._row_keys(seed, first, n_chunks)
        assert together.shape == (n_chunks, 8, 4)
        for j, keys in enumerate(together):
            (alone,) = speckle._row_keys(seed, first + j, 1)
            assert keys.tobytes() == alone.tobytes()
            expected = [row_key(seed, first + j, slot).tolist() for slot in range(8)]
            assert keys[:, :3].tolist() == expected

    def test_the_erasure_configs_chunk_keys_are_distinct(self):
        n_chunks = -(-400_000 // CHUNK_FRAMES)
        keys = speckle._row_keys(1, 0, n_chunks).reshape(-1, 4)
        seeds = {tuple(key[:3].tolist()) for key in keys}
        assert len(seeds) == 8 * n_chunks == 392

    @pytest.mark.parametrize(
        "cfg, chunk, digest", PINNED_CHUNK_RECORDS, ids=["erasure-last-chunk", "eta07-chunk1"]
    )
    def test_chunk_records_keep_their_bits(self, cfg, chunk, digest):
        # a numpy whose SFC64, Philox, standard_gamma or standard_normal
        # changed would replay other bytes under the same manifest
        got = hashlib.sha256(chunk_record(cfg, chunk).tobytes()).hexdigest()
        assert got == digest, (
            f"chunk {chunk} of {cfg} hashes to {got} under numpy {np.__version__}, "
            f"not to the pinned {digest}"
        )

    @pytest.mark.parametrize("eta", [1.0, 0.7])
    def test_a_run_is_a_prefix_of_a_longer_run(self, eta):
        # each row of a chunk is a prefix of its own stream, so runs that end
        # inside the first chunk and 1,000 frames into the second are the
        # first frames of a run that draws those chunks further, and a third
        longest = run_bench(BenchConfig(modes=5, frames=2 * CHUNK_FRAMES + 3000, seed=71, eta=eta))
        for frames in (300, CHUNK_FRAMES + 1000):
            run = run_bench(dataclasses.replace(longest.config, frames=frames))
            assert run.record.tobytes() == longest.record[:frames].tobytes(), frames

    @pytest.mark.parametrize("eta, rows", [(1.0, 3), (0.7, 8)])
    def test_a_run_draws_exactly_its_frames_from_each_row(self, eta, rows, monkeypatch):
        # every row of every chunk has its own generator, and a run asks each
        # for the frames it keeps of that chunk: a run 100 frames into its
        # third chunk draws 100 values of each of that chunk's rows, as does
        # its record; the chunk drawn alone draws it whole
        drawn = []
        row_rng = speckle._row_rng

        def counted(key):
            drawn.append(CountedRow(row_rng(key)))
            return drawn[-1]

        monkeypatch.setattr(speckle, "_row_rng", counted)
        cfg = BenchConfig(modes=5, frames=2 * CHUNK_FRAMES + 100, seed=72, eta=eta)
        expected = [CHUNK_FRAMES] * 2 * rows + [100] * rows
        batch = run_bench(cfg)
        assert [rng.values for rng in drawn] == expected
        drawn.clear()
        assert batch.record.shape == (cfg.frames, 5)
        assert [rng.values for rng in drawn] == expected
        drawn.clear()
        chunk_record(cfg, 2)
        assert [rng.values for rng in drawn] == [CHUNK_FRAMES] * rows

    def test_stream_key_gives_only_the_words_it_holds(self):
        speckle._seed_interface()
        key = speckle._StreamKey((1, 2, 3))
        assert key.generate_state(3, np.uint64).tolist() == [1, 2, 3]
        for n_words, dtype in [(2, np.uint64), (4, np.uint64), (3, np.uint32), (6, np.uint32)]:
            with pytest.raises(ValueError, match="3 uint64 words cannot give"):
                key.generate_state(n_words, dtype)
        # SFC64 asks for three words, so a two-word key is refused
        with pytest.raises(ValueError, match="2 uint64 words cannot give 3"):
            np.random.SFC64(speckle._StreamKey((1, 2)))

    def test_a_strided_key_seeds_from_its_own_words(self):
        # SFC64 reads its seed from the memory of the array it is handed, so
        # a key held as a strided view would seed it from other words
        speckle._seed_interface()
        strided = np.arange(1, 13, dtype=np.uint64).reshape(3, 4).T[1]
        assert strided.tolist() == [2, 6, 10] and not strided.flags.c_contiguous
        expected = np.random.SFC64(RawWords(np.array([2, 6, 10], dtype=np.uint64))).state
        np.testing.assert_equal(np.random.SFC64(speckle._StreamKey(strided)).state, expected)

    def test_opening_a_stream_draws_no_os_entropy(self, monkeypatch):
        # numpy's SeedSequence() draws its entropy through randbits
        def no_entropy(bits):
            raise AssertionError("OS entropy drawn")

        monkeypatch.setattr(numpy.random.bit_generator, "randbits", no_entropy)
        chunk_rng(21, 1, 0).random()
        run_bench(BenchConfig(modes=3, frames=600, seed=21, eta=0.7))

    def test_pickled_generator_continues_its_draws(self):
        keys = speckle._row_keys(22, 3, 2)[:, [0, 7]].reshape(-1, 4)
        rows = [speckle._row_rng(key) for key in keys]
        for rng in (chunk_rng(22, 5, 3), *rows):
            rng.standard_gamma(2.5, size=7)
            copy = pickle.loads(pickle.dumps(rng))
            assert np.array_equal(
                copy.standard_gamma(2.5, size=50), rng.standard_gamma(2.5, size=50)
            )

    def test_generator_refuses_to_spawn(self):
        keys = speckle._row_keys(23, 0, 2)[:, [0, 7]].reshape(-1, 4)
        rows = [speckle._row_rng(key) for key in keys]
        for rng in (chunk_rng(23, 5, 0), keyed_philox(23, 5, 0), *rows):
            with pytest.raises(TypeError):
                rng.spawn(1)


class TestRunBench:
    @pytest.mark.parametrize("eta", [1.0, 0.7])
    def test_determinism_across_workers(self, eta, monkeypatch):
        # 3 rows a chunk at eta = 1 and 8 at eta 0.7, filled by as many threads
        # as the workers ask for up to one per row, whatever this host's CPUs,
        # and switched between every few microseconds: the sums and the record
        # keep their bytes, the short last chunk's too
        monkeypatch.setattr(speckle, "_cpus", lambda: 8)
        cfg = BenchConfig(modes=20, frames=2 * CHUNK_FRAMES + 100, seed=77, eta=eta)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [run_bench(dataclasses.replace(cfg, workers=w)) for w in (1, 2, 3, 8)]
            drawn = [(run.sums.tobytes(), run.record.tobytes()) for run in runs]
        finally:
            sys.setswitchinterval(interval)
        assert drawn[1:] == drawn[:1] * 3

    @pytest.mark.parametrize("raises_on", ["helper", "caller"])
    def test_a_failed_fill_is_raised_in_the_caller_and_stops_the_helpers(
        self, raises_on, monkeypatch
    ):
        # a fill that raises on a helper thread raises that same exception in
        # the run's caller, and one that raises on the caller stops the helpers
        # still filling; either way every helper is joined before the error
        # leaves the run
        error = RuntimeError(f"fill failed on the {raises_on}")
        fill = speckle._fill

        def failing(rows):
            on_caller = threading.current_thread() is threading.main_thread()
            if on_caller == (raises_on == "caller"):
                raise error
            fill(rows)

        monkeypatch.setattr(speckle, "_cpus", lambda: 3)
        monkeypatch.setattr(speckle, "_fill", failing)
        baseline = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            run_bench(BenchConfig(modes=4, frames=3 * CHUNK_FRAMES, seed=1, workers=3))
        assert caught.value is error
        assert threading.active_count() == baseline

    def test_a_run_closed_early_joins_its_helpers(self, monkeypatch):
        monkeypatch.setattr(speckle, "_cpus", lambda: 2)
        baseline = threading.active_count()
        chunks = speckle._chunk_rows(BenchConfig(modes=4, seed=1, workers=2), 0, 3 * CHUNK_FRAMES)
        next(chunks)
        assert threading.active_count() == baseline + 1
        chunks.close()
        assert threading.active_count() == baseline

    @pytest.mark.parametrize(
        "eta, workers, cpus, helpers",
        [(1.0, 10**6, 10**6, 2), (0.7, 10**6, 10**6, 7), (0.7, 10**6, 2, 1), (0.7, 1, 10**6, 0)],
    )
    def test_helpers_started_are_capped_by_rows_and_cpus(
        self, eta, workers, cpus, helpers, monkeypatch
    ):
        # a run starts min(workers, rows a chunk draws, CPUs) - 1 helper
        # threads, however many workers are asked for: 3 rows at eta = 1, 8 at
        # eta 0.7
        started = []

        class Counted(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(speckle, "_cpus", lambda: cpus)
        monkeypatch.setattr(threading, "Thread", Counted)
        run_bench(BenchConfig(modes=20, frames=2 * CHUNK_FRAMES, seed=5, eta=eta, workers=workers))
        assert len(started) == helpers
        assert not any(thread.is_alive() for thread in started)

    @pytest.mark.parametrize("eta", [1.0, 0.7])
    def test_frame_reproducible_in_isolation(self, eta):
        # every frame comes from its chunk's stream alone, so one chunk drawn
        # by itself reproduces its rows of the whole run bit for bit, on both
        # sides of each chunk boundary of a three-chunk run
        cfg = BenchConfig(modes=13, frames=2 * CHUNK_FRAMES + 88, seed=99, eta=eta)
        batch = run_bench(cfg)
        boundaries = (CHUNK_FRAMES, 2 * CHUNK_FRAMES)
        rows = [j + d for j in boundaries for d in (-1, 0, 1)]
        for j in [0, 1, *rows, cfg.frames - 1]:
            chunk, row = divmod(j, CHUNK_FRAMES)
            assert chunk_record(cfg, chunk)[row].tobytes() == batch.record[j].tobytes()

    @pytest.mark.parametrize("eta", [1.0, 0.7])
    def test_a_run_across_a_fold_block_is_its_chunks_drawn_alone(self, eta):
        # 9,000 frames are two fold blocks, one chunk each: the run draws 808
        # frames of the second chunk, which chunk_record draws whole, each
        # row from the stream advanced by 8 blocks and its slot: every frame
        # of the record equals its chunk's row drawn alone, and at unit
        # scales the run's folded sums have the bits of the chunks' comoments
        cfg = BenchConfig(modes=13, frames=9000, seed=99, eta=eta)
        n_chunks = -(-cfg.frames // CHUNK_FRAMES)
        assert _BLOCK_FRAMES < cfg.frames < n_chunks * CHUNK_FRAMES <= 2 * _BLOCK_FRAMES
        alone = np.concatenate([chunk_record(cfg, c) for c in range(n_chunks)])[: cfg.frames]
        batch = run_bench(cfg)
        for j in range(cfg.frames):
            assert alone[j].tobytes() == batch.record[j].tobytes(), f"frame {j}"
        starts = range(0, cfg.frames, _BLOCK_FRAMES)
        expected = comoments(alone[t : t + _BLOCK_FRAMES].T for t in starts)
        assert batch.sums.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("modes, eta", [(7, 0.7), (4, 1.0), (1, 1.0), (3, 0.0)])
    @pytest.mark.parametrize(
        "frames",
        [2, 256, 1024, 2048, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 3 * _BLOCK_FRAMES - 5],
        ids=["2", "256", "1024", "2048", "block", "block+1", "3blocks-5"],
    )
    def test_streamed_sums_agree_with_error_free_sums(self, modes, eta, frames):
        # the sums a run streams, block by block through reused buffers,
        # against the centred sums taken by math.fsum of the record drawn
        # chunk by chunk; 2, 256, 1,024 and 2,048 frames end inside the first
        # chunk, _BLOCK_FRAMES is one chunk, and _BLOCK_FRAMES + 1 leaves a
        # last block of one frame.
        # eta = 0 draws no B block: rows that a reused buffer must read as
        # zero in every block. M = 1 draws B = W2(1), whose h is Gamma(1/2).
        # A mean of 2.7 photons makes every scale of the record columns other than 1
        for mean_photons in (1.0, 2.7):
            cfg = BenchConfig(
                modes=modes,
                frames=frames,
                mean_photons=mean_photons,
                seed=41,
                eta=eta,
                t_split=0.4,
            )
            sums = run_bench(cfg).sums
            chunks = range(-(-frames // CHUNK_FRAMES))
            record = np.concatenate([chunk_record(cfg, c) for c in chunks])[:frames]
            centred = [x - math.fsum(x.tolist()) / frames for x in record.T]
            for i, j in np.ndindex(5, 5):
                exact = math.fsum((centred[i] * centred[j]).tolist())
                assert abs(sums[i, j] - exact) <= 1e-12 * math.sqrt(sums[i, i] * sums[j, j])
            assert np.array_equal(sums, sums.T)

    @pytest.mark.parametrize("modes, eta", [(4, 1.0), (7, 0.7)])
    def test_sums_are_the_records_comoments_at_unit_scales(self, modes, eta):
        # at one photon and t_split 1/2 every scale of a record column is
        # exactly 1, so the sums a run folds from its drawn rows have the bits
        # of comoments over the record's blocks, at k = 0 (three rows) as at
        # k > 0 (five); at k = 0 the in-intensity of beam 2 and the first Gram
        # column are one row at one scale
        cfg = BenchConfig(modes=modes, frames=3 * _BLOCK_FRAMES - 5, seed=43, eta=eta)
        batch = run_bench(cfg)
        starts = range(0, cfg.frames, _BLOCK_FRAMES)
        expected = comoments(batch.record[t : t + _BLOCK_FRAMES].T for t in starts)
        assert batch.sums.tobytes() == expected.tobytes()
        if eta == 1.0:
            assert batch.sums[1].tobytes() == batch.sums[3].tobytes()

    @pytest.mark.parametrize("eta", [1.0, 0.7, 0.0])
    @pytest.mark.parametrize("mean_photons, t_split", [(2.7, 0.3), (0.37, 0.81), (1e3, 0.02)])
    def test_mean_photons_and_t_split_only_scale_the_record(self, eta, mean_photons, t_split):
        # the rows a run draws and folds do not depend on the source's scales,
        # so its sums are the unit-scale run's times s_i s_j, and its record
        # the unit-scale record times s_j, bit for bit, at k = 0 and k > 0
        # alike; the scales of the five columns are written out here
        unit = BenchConfig(modes=7, frames=2 * _BLOCK_FRAMES + 5, seed=47, eta=eta)
        cfg = dataclasses.replace(unit, mean_photons=mean_photons, t_split=t_split)
        m1, t = mean_photons, t_split
        m2 = m1 / t
        s = np.array([m1, t * m2, (1.0 - t) * m2, t * m2, math.sqrt(t * m1 * m2)])
        unit_batch, batch = run_bench(unit), run_bench(cfg)
        assert batch.sums.tobytes() == (np.multiply.outer(s, s) * unit_batch.sums).tobytes()
        assert batch.record.tobytes() == (unit_batch.record * s).tobytes()

    @pytest.mark.parametrize("modes, eta", [(7, 0.7), (1, 1.0), (100, 0.0)])
    def test_sums_do_not_depend_on_tau_mix(self, modes, eta):
        # the beam splitter enters only the read-out weights, never the drawn
        # rows: a run has no tau to set, and reading its out-correlations at
        # every tau leaves the sums of its three blocks of frames the same
        # bits, those of a run never read
        base = BenchConfig(modes=modes, frames=2 * _BLOCK_FRAMES + 5, seed=5, eta=eta)
        with pytest.raises(TypeError, match="tau_mix"):
            BenchConfig(tau_mix=0.5)
        batch = run_bench(base)
        for tau in (0.0, 0.15, 0.5, 1.0):
            weights = [batch.out_weights(beam, tau=tau) for beam in range(3)]
            for i, j in PAIRS:
                batch.corr(weights[i], weights[j])
        assert batch.sums.tobytes() == run_bench(base).sums.tobytes()

    def test_one_run_reads_the_cm_correlations_at_every_tau(self):
        # one default run read at 19 interior taus, each through the run's
        # out_weights at that tau, against the CM read-outs of one stacked
        # interfere call. Pair 1-2 is the identical-inputs null, 0 at every
        # tau up to the square of rounding (below 2e-33 here). The bound is 4
        # normal-theory SEs, (1 - c^2) / sqrt(frames - 3); the worst over the
        # 57 points was 2.47 at seeds 1, 2, 3 and 42, and a BS row read at
        # 1 - tau reads about 2,900
        config = BenchConfig()
        batch = run_bench(config)
        taus = np.linspace(0.05, 0.95, 19)
        source = SingleModeSpec(config.mean_photons / config.t_split)
        _, out = interfere(prepare_discordant_pair(source, config.t_split), taus)
        for i, j in PAIRS:
            c_cm = cm_to_intensity_corr(out, i, j)
            for tau, c in zip(taus, c_cm):
                c_mc = batch.corr(batch.out_weights(i, tau=tau), batch.out_weights(j, tau=tau))
                se = (1.0 - c**2) / math.sqrt(config.frames - 3)
                assert abs(c_mc - c) <= 4.0 * se, (i, j, tau)
        assert np.all(np.abs(cm_to_intensity_corr(out, 0, 1)) <= 1e-30)

    def test_bs_rows_are_shared_and_read_only(self):
        # every read-out at one tau shares one BS matrix, so none may change it
        rows = speckle._bs_rows(0.3)
        assert rows is speckle._bs_rows(0.3)
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 1.0

    @pytest.mark.parametrize("tau", [1.5, -0.25, math.nan], ids=["1.5", "-0.25", "nan"])
    def test_read_out_refuses_a_tau_outside_the_unit_interval(self, tau):
        # the read-out refuses with bs_symplectic's error, and a refused tau is
        # not cached: a valid call afterwards reads the rows of its own tau,
        # port 1 (sqrt(tau), sqrt(1 - tau)) and port 2 (-sqrt(1 - tau), sqrt(tau))
        batch = run_bench(BenchConfig(modes=2, frames=10, seed=8))
        for read in (batch.out_weights, batch.out_series):
            with pytest.raises(ValueError, match=r"^transmissivity must lie in \[0, 1\], got "):
                read(0, tau=tau)
        cross = 2.0 * math.sqrt(0.3 * 0.7)
        for beam, expected in ((0, [0.3, 0, 0, 0.7, cross]), (1, [0.7, 0, 0, 0.3, -cross])):
            assert batch.out_weights(beam, tau=0.3) == pytest.approx(expected, rel=1e-15, abs=0)

    def test_intensities_out_is_the_read_out_at_tau_one_half(self):
        batch = run_bench(BenchConfig(modes=3, frames=700, seed=8, eta=0.7))
        half = np.stack([batch.out_series(beam, tau=0.5) for beam in range(3)], axis=1)
        assert batch.intensities_out.tobytes() == half.tobytes()
        assert not np.array_equal(batch.intensities_out[:, 0], batch.out_series(0, tau=0.3))

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_memory_does_not_grow_with_frames(self, eta):
        # a run keeps its 5x5 sums and streams its draws through at most 14
        # rows of _BLOCK_FRAMES doubles (B's 4, A's 5 and comoments' 3 or 5),
        # about 1 MB; a run that keeps its record holds 40 bytes a frame,
        # 13 MB at 40 blocks and eta 1
        bound = 32 * _BLOCK_FRAMES * 8
        run_bench(BenchConfig(modes=4, frames=10, seed=2, eta=eta))  # first-use imports
        for blocks in (4, 40):
            tracemalloc.start()
            try:
                batch = run_bench(BenchConfig(modes=4, frames=blocks * _BLOCK_FRAMES, eta=eta))
                batch.corr(batch.in_weights(1), batch.out_weights(0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= bound, blocks

    def test_one_frame_has_no_sums(self):
        with pytest.raises(ValueError, match="two frames"):
            run_bench(BenchConfig(modes=3, frames=1, seed=5))

    def test_matches_per_frame_operations(self):
        # the read-out of a record built from per-frame fields must agree with
        # mixing the scalar fields of those frames and detecting them
        cfg = BenchConfig(modes=7, frames=10, seed=4, eta=0.7, t_split=0.4)
        frames = range(cfg.frames)
        out = read_outs(run_bench(cfg), field_record(cfg, frames), tau=0.3)
        beam1, _, beam3, mixed = oracle_fields(cfg, frames)
        out1, out2 = mix(beam1, mixed, 0.3)
        assert out[:, 0] == pytest.approx(intensity(out1), rel=1e-12)
        assert out[:, 1] == pytest.approx(intensity(out2), rel=1e-12)
        assert np.array_equal(out[:, 2], intensity(beam3))

    @pytest.mark.parametrize("scenario, basis", SCENARIO_BASES)
    @pytest.mark.parametrize(
        "frames",
        [255, 256, 612, 1023, 1024, 2148, CHUNK_FRAMES - 1, CHUNK_FRAMES, 2 * CHUNK_FRAMES + 100],
        ids=["255", "256", "612", "1023", "1024", "2148", "chunk-1", "chunk", "2chunks+100"],
    )
    def test_determinism_across_workers_and_chunk_counts(self, scenario, basis, frames):
        # no worker count changes a value, and a run is a prefix of any longer
        # run: runs that end inside the first chunk, one frame short of it,
        # exactly one chunk, and 100 frames into a third chunk. Each run is
        # drawn once for every (scenario, basis), which read it alone
        batches = [
            cached_run(BenchConfig(modes=3, frames=n, seed=78, eta=0.7, workers=w))
            for n, w in ((frames, 1), (frames, 2), (frames, 8), (3 * CHUNK_FRAMES, 1))
        ]
        for other in batches[1:]:
            assert np.array_equal(batches[0].intensities_in, other.intensities_in[:frames])
            for beam in range(3):
                assert np.array_equal(
                    batches[0].out_series(beam, basis, scenario),
                    other.out_series(beam, basis, scenario)[:frames],
                )

    @pytest.mark.parametrize("scenario, basis", SCENARIO_BASES)
    @pytest.mark.parametrize("modes", [1, 7])
    @pytest.mark.parametrize("eta", [1.0, 0.7])
    @pytest.mark.parametrize("tau_mix", [0.0, 0.3, 1.0])
    def test_read_out_matches_per_frame_operations(self, scenario, basis, modes, eta, tau_mix):
        # the bench's read-out on a record built from per-frame fields (|a|^2
        # sums and the Re-dot) must equal mixing and detecting those fields
        # through the Jones pipeline. The next (scenario, basis) is read off
        # the record first and again after, and neither read-out may change
        # the other
        # rows on both sides of the first chunk boundary, and the last row of a
        # three-chunk run
        n = 2 * CHUNK_FRAMES + 88
        cfg = BenchConfig(modes=modes, frames=n, seed=6, eta=eta, t_split=0.4)
        frames = (0, 1, CHUNK_FRAMES - 1, CHUNK_FRAMES, CHUNK_FRAMES + 1, n - 1)
        # one run and one set of fields per (modes, eta): neither depends on
        # tau (test_sums_do_not_depend_on_tau_mix), scenario or basis
        sums, fields = drawn_once(cfg, frames)
        batch, record = FrameBatch(cfg, sums), fields_record(fields)
        k = SCENARIO_BASES.index((scenario, basis))
        other = SCENARIO_BASES[(k + 1) % len(SCENARIO_BASES)]
        first = read_outs(batch, record, *other, tau_mix).copy()
        detected = read_outs(batch, record, scenario, basis, tau_mix)
        assert np.array_equal(read_outs(batch, record, *other, tau_mix), first)
        reference = reference_out(cfg, frames, scenario, basis, tau_mix, fields)
        assert detected == pytest.approx(reference, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("scenario", SCENARIO_JONES)
    def test_out_series_read_only(self, scenario):
        batch = run_bench(BenchConfig(modes=3, frames=700, seed=8, eta=0.7))
        series = [
            batch.out_series(beam, basis, scenario) for basis in ANALYZERS for beam in range(3)
        ]
        series += [batch.intensities_out, batch.record, batch.intensities_in]
        for values in series:
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 1.0

    @pytest.mark.parametrize("scenario, basis", SCENARIO_BASES)
    @pytest.mark.parametrize("tau_mix", [0.0, 1.0])
    def test_extreme_mixing_matches_per_frame_operations(self, scenario, basis, tau_mix):
        # at tau 0 or 1 one input of each port has weight zero
        cfg = BenchConfig(modes=5, frames=300, seed=12, eta=0.8)
        frames = (0, 131, 299)
        sums, fields = drawn_once(cfg, frames)
        detected = read_outs(FrameBatch(cfg, sums), fields_record(fields), scenario, basis, tau_mix)
        reference = reference_out(cfg, frames, scenario, basis, tau_mix, fields)
        assert detected == pytest.approx(reference, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("scenario", SCENARIO_JONES)
    @pytest.mark.parametrize("tau_mix", [0.0, 0.3, 1.0])
    def test_out_series_is_the_same_in_any_sub_batch(self, scenario, tau_mix):
        # a frame's read-out depends on its own record row alone, not on the
        # number, order or spacing of the frames around it, nor on the
        # record's memory layout: the read-out of any slice of a run's record,
        # and of a fancy-index selection (a C-contiguous copy), has the bits
        # of the whole run's series. The run has three chunks, and the
        # selections cross the first chunk boundary
        n, c = 2 * CHUNK_FRAMES + 188, CHUNK_FRAMES
        batch = run_bench(BenchConfig(modes=3, frames=n, seed=8, eta=0.7))
        slices = (slice(0, 1), slice(c - 1, c + 2), slice(1, None), slice(None, None, -1))
        for rows in slices + (slice(None, None, 3), [1, c - 1, c, n - 1]):
            for basis in ANALYZERS:
                whole = np.stack(
                    [batch.out_series(beam, basis, scenario, tau_mix) for beam in range(3)], axis=1
                )
                sub = read_outs(batch, batch.record[rows], scenario, basis, tau_mix)
                assert np.array_equal(sub, whole[rows])

    @pytest.mark.parametrize("modes", [1, 4])
    @pytest.mark.parametrize("eta", [1.0, 0.7])
    @pytest.mark.parametrize("tau_mix", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize(
        "frames",
        [3, 257, 1025, 2049, CHUNK_FRAMES + 1],
        ids=["3", "257", "1025", "2049", "chunk+1"],
    )
    def test_corr_agrees_with_corr_coeff_on_the_series(self, modes, eta, tau_mix, frames):
        # every pair of every (scenario, basis), and the in-pairs, read off the
        # record's co-moments equals corr_coeff on the explicit series; a dark
        # read-out raises corr_coeff's ValueError. 3, 257, 1,025 and 2,049
        # frames end inside the first chunk, and CHUNK_FRAMES + 1 one frame
        # into the second, which is the second fold block
        batch = run_bench(BenchConfig(modes=modes, frames=frames, seed=21, eta=eta, t_split=0.4))
        read_outs = [
            (batch.in_weights(i), batch.in_weights(j), batch.intensities_in[:, i], batch.intensities_in[:, j])
            for i, j in PAIRS
        ]
        for scenario, basis in SCENARIO_BASES:
            read_outs += [
                (
                    batch.out_weights(i, basis, scenario, tau_mix),
                    batch.out_weights(j, basis, scenario, tau_mix),
                    batch.out_series(i, basis, scenario, tau_mix),
                    batch.out_series(j, basis, scenario, tau_mix),
                )
                for i, j in PAIRS
            ]
        dark = 0
        for h, k, series_h, series_k in read_outs:
            try:
                expected = corr_coeff(series_h, series_k)
            except ValueError as exc:
                dark += 1
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    batch.corr(h, k)
            else:
                assert abs(batch.corr(h, k) - expected) <= 1e-12
        if tau_mix == 1.0:
            # at tau 1 beam 1 leaves its own port whole, on H: a V analyzer there detects nothing
            assert not batch.out_weights(0, "V", "erasure", tau_mix).any()
            assert dark > 0

    def test_erasure_correlations_build_no_series(self):
        # reading all seven erasure correlations of a 400,000-frame batch
        # allocates less than one series; building one series does not
        batch = run_bench(BenchConfig(modes=4, frames=400_000, seed=1))
        series_bytes = batch.n_frames * 8
        pairs = [("none", 0, 1)] + [(b, i, j) for b in ("deg45", "V") for i, j in PAIRS]
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            for basis, i, j in pairs:
                batch.corr(
                    batch.out_weights(i, basis, "erasure"), batch.out_weights(j, basis, "erasure")
                )
            _, corr_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            batch.out_series(0, "deg45", "erasure")
            _, series_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert series_peak >= series_bytes  # tracemalloc sees numpy's buffers
        assert corr_peak < series_bytes

    def test_unknown_basis_read_out_rejected(self):
        batch = run_bench(BenchConfig(modes=2, frames=10, seed=8))
        with pytest.raises(ValueError):
            batch.out_series(0, "circular")
        with pytest.raises(ValueError):
            batch.out_series(0, "none", "lab")

    @pytest.mark.parametrize("beam", [-1, 3])
    def test_beam_outside_the_bench_rejected(self, beam):
        batch = run_bench(BenchConfig(modes=2, frames=10, seed=8))
        with pytest.raises(IndexError):
            batch.in_weights(beam)
        with pytest.raises(IndexError):
            batch.out_series(beam)

    @pytest.mark.parametrize("scenario", SCENARIO_JONES)
    def test_energy_conservation_per_frame(self, scenario):
        batch = run_bench(BenchConfig(modes=40, frames=2000, seed=5))
        before = batch.intensities_in[:, 0] + batch.intensities_in[:, 1]
        after = sum(batch.out_series(beam, "none", scenario, 0.31) for beam in (0, 1))
        assert np.allclose(after, before, rtol=1e-9)

    def test_correlation_invariant_under_doubling_modes(self):
        n = 2 * 10**4
        c_values = []
        for modes in (100, 200):
            batch = run_bench(BenchConfig(modes=modes, frames=n, seed=31))
            c_values.append(corr_coeff(batch.out_series(0), batch.out_series(2)))
        se = (1.0 - 0.5**2) / math.sqrt(n - 3)
        assert abs(c_values[0] - c_values[1]) <= 3.0 * math.sqrt(2.0) * se

    def test_interference_marginals_unchanged_by_mixing(self):
        n = 3 * 10**4
        batch = run_bench(BenchConfig(modes=100, frames=n, seed=17))
        for beam in (0, 1):
            i_in = batch.intensities_in[:, beam]
            i_out = batch.out_series(beam)
            se_mean = float(np.std(i_in)) / math.sqrt(n)
            assert abs(float(np.mean(i_out)) - float(np.mean(i_in))) <= 3.0 * se_mean
            assert float(np.var(i_out)) == pytest.approx(float(np.var(i_in)), rel=0.1)

    def test_eta_sets_the_in_correlation_ceiling(self):
        batch = run_bench(BenchConfig(modes=100, frames=2 * 10**4, seed=23, eta=0.97))
        c23_in = corr_coeff(batch.intensities_in[:, 1], batch.intensities_in[:, 2])
        assert c23_in == pytest.approx(0.97, abs=0.02)

    def test_erasure_without_polarizers_outputs_identical(self):
        batch = run_bench(BenchConfig(modes=50, frames=5000, seed=3))
        out1, out2 = (batch.out_series(beam, "none", "erasure") for beam in (0, 1))
        c12 = corr_coeff(out1, out2)
        assert c12 >= 0.9999  # identical total intensities at tau = 1/2
        c12_in = corr_coeff(batch.intensities_in[:, 0], batch.intensities_in[:, 1])
        assert abs(c12_in) <= 0.05

    def test_erasure_deg45_restores_transfer_pattern(self):
        batch = run_bench(BenchConfig(modes=100, frames=3 * 10**4, seed=13))
        out = [batch.out_series(beam, "deg45", "erasure") for beam in range(3)]
        c12 = corr_coeff(out[0], out[1])
        c13 = corr_coeff(out[0], out[2])
        c23 = corr_coeff(out[1], out[2])
        assert abs(c12) <= 0.02
        assert c13 == pytest.approx(0.5, abs=0.02)
        assert c23 == pytest.approx(0.5, abs=0.02)

    def test_erasure_v_basis_model_pattern(self):
        batch = run_bench(BenchConfig(modes=60, frames=5000, seed=19))
        out = [batch.out_series(beam, "V", "erasure") for beam in range(3)]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            assert corr_coeff(out[i], out[j]) >= 0.99

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BenchConfig(modes=0)
        with pytest.raises(ValueError):
            BenchConfig(t_split=0.0)
        with pytest.raises(ValueError):
            BenchConfig(eta=1.5)
        for mean_photons in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="mean_photons"):
                BenchConfig(mean_photons=mean_photons)
        # a count or a seed is an integer: a fractional one is refused, not
        # truncated by a draw or passed on to the run as a fractional law
        for name, value in [("seed", 1.5), ("modes", 2.5), ("frames", 2000.5), ("workers", 2.0)]:
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                BenchConfig(**{name: value})
        # a bool is an int to Python, but True is no count or seed: it would run as 1
        for name in ("modes", "frames", "seed", "workers"):
            for value in (True, False):
                with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
                    BenchConfig(**{name: value})
        numpy_ints = BenchConfig(
            modes=np.int64(5), frames=np.int32(300), seed=np.uint64(1), workers=np.int8(2)
        )
        python_ints = BenchConfig(modes=5, frames=300, seed=1, workers=2)
        assert run_bench(numpy_ints).sums.tobytes() == run_bench(python_ints).sums.tobytes()

    def test_batch_shapes_and_nonnegativity(self):
        batch = run_bench(BenchConfig(modes=5, frames=300, seed=1))
        assert batch.n_frames == 300
        assert batch.intensities_in.shape == (300, 3)
        assert np.all(batch.intensities_in >= 0.0)
        assert np.all(batch.intensities_out >= 0.0)
        assert np.array_equal(
            batch.intensities_out,
            np.stack([batch.out_series(b, "none", "interference") for b in range(3)], axis=1),
        )
