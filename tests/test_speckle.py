"""Tests for the speckle Monte Carlo bench.

The bench samples its record from a Wishart law and reads every detection off
it. The helpers below are the independent per-mode oracle it is tested
against: they draw every mode's amplitude, split, substitute, mix, project
and detect the fields with the optics written out here, not with the bench's
code.
"""

import math
import pickle
import re
import tracemalloc

import numpy as np
import numpy.random.bit_generator
import pytest
from scipy.stats import ks_2samp, kstest

from cvbench import speckle
from cvbench.speckle import (
    ANALYZERS,
    CHUNK_FRAMES,
    BenchConfig,
    chunk_rng,
    chunk_record,
    run_bench,
)
from cvbench.stats import _BLOCK_FRAMES, corr_coeff

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
    """(len(frames), M) oracle fields of one stream; each chunk is drawn whole from
    chunk_rng(seed, stream, chunk), so a frame's row never depends on the others."""
    chunk, row = np.divmod(np.asarray(frames), CHUNK_FRAMES)
    chunks = np.unique(chunk)
    shape = (CHUNK_FRAMES, cfg.modes)
    drawn = [thermal_fields(chunk_rng(cfg.seed, stream, c), shape, mean) for c in chunks]
    return np.concatenate(drawn)[np.searchsorted(chunks, chunk) * CHUNK_FRAMES + row]


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

    All of cfg's frames by default, drawn 2,048 frames (2 chunks) at a time to
    bound memory.
    """
    if frames is None:
        block = 2 * CHUNK_FRAMES
        parts = np.split(np.arange(cfg.frames), range(block, cfg.frames, block))
        return np.concatenate([field_record(cfg, part) for part in parts])
    beam1, beam2, beam3, mixed = oracle_fields(cfg, frames)
    columns = [intensity(beam1), intensity(beam2), intensity(beam3), intensity(mixed)]
    return np.stack(columns + [(beam1 * mixed.conj()).real.sum(axis=1)], axis=1)


def read_outs(batch, record, scenario="interference", basis="none"):
    """(frames, 3) read-outs of a preset behind a basis on any (frames, 5) record: the
    batch's weights, summed as the bench sums them (speckle._read_out)."""
    weights = [batch.out_weights(beam, basis, scenario) for beam in range(3)]
    return np.stack([speckle._read_out(record, w) for w in weights], axis=1)


def reference_out(cfg, frames, scenario, basis):
    """(len(frames), 3) out-intensities of a preset behind a basis: the oracle's fields
    lifted to Jones fields, mixed, projected and detected."""
    beam1, _, beam3, mixed = oracle_fields(cfg, frames)
    e1, e2 = SCENARIO_JONES[scenario]
    out1, out2 = mix(beam1[..., None] * e1, mixed[..., None] * e2, cfg.tau_mix)
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
        modes=modes, frames=20_000, mean_photons=1.3, tau_mix=0.3, t_split=0.4, eta=eta, seed=1000
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
            modes=modes, frames=20_000, mean_photons=1.3, tau_mix=0.3, t_split=0.4, eta=eta,
            seed=61,
        )
        batch = run_bench(cfg)
        beam3_mean = (1.0 - cfg.t_split) * cfg.mean_photons / cfg.t_split
        for name, series, mean in (
            ("in 1", batch.intensities_in[:, 0], cfg.mean_photons),
            ("in 2", batch.intensities_in[:, 1], cfg.mean_photons),
            ("in 3", batch.intensities_in[:, 2], beam3_mean),
            ("out 1", batch.out_series(0), cfg.mean_photons),
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
        record = run_bench(cfg).record
        monkeypatch.setattr(speckle, "chunk_rng", keyed_philox)
        assert record.tobytes() == run_bench(cfg).record.tobytes()

    def test_opening_a_stream_draws_no_os_entropy(self, monkeypatch):
        # numpy's SeedSequence() draws its entropy through randbits
        def no_entropy(bits):
            raise AssertionError("OS entropy drawn")

        monkeypatch.setattr(numpy.random.bit_generator, "randbits", no_entropy)
        chunk_rng(21, 1, 0).random()
        run_bench(BenchConfig(modes=3, frames=600, seed=21, eta=0.7))

    def test_pickled_generator_continues_its_draws(self):
        rng = chunk_rng(22, 5, 3)
        rng.standard_gamma(2.5, size=7)
        copy = pickle.loads(pickle.dumps(rng))
        assert np.array_equal(copy.standard_gamma(2.5, size=50), rng.standard_gamma(2.5, size=50))

    def test_generator_refuses_to_spawn(self):
        for rng in (chunk_rng(23, 5, 0), keyed_philox(23, 5, 0)):
            with pytest.raises(TypeError):
                rng.spawn(1)


class TestRunBench:
    def test_determinism_across_workers(self):
        batches = [
            run_bench(BenchConfig(modes=20, frames=1500, seed=77, workers=w)) for w in (1, 2, 8)
        ]
        for other in batches[1:]:
            assert np.array_equal(batches[0].intensities_in, other.intensities_in)
            assert np.array_equal(batches[0].intensities_out, other.intensities_out)

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

    @pytest.mark.parametrize("modes, eta", [(7, 0.7), (4, 1.0), (1, 1.0), (3, 0.0)])
    @pytest.mark.parametrize(
        "frames", [2, 256, CHUNK_FRAMES, _BLOCK_FRAMES, _BLOCK_FRAMES + 1, 3 * _BLOCK_FRAMES - 5]
    )
    def test_streamed_sums_agree_with_error_free_sums(self, modes, eta, frames):
        # the sums a run streams, block by block through reused buffers,
        # against the centred sums taken by math.fsum of the record drawn
        # chunk by chunk; 2 and 256 frames end inside the first chunk, and
        # _BLOCK_FRAMES + 1 leaves a last block of one frame.
        # eta = 0 draws no B block: rows that a reused buffer must read as
        # zero in every block. M = 1 draws B = W2(1), whose h is Gamma(1/2)
        cfg = BenchConfig(modes=modes, frames=frames, seed=41, eta=eta, tau_mix=0.3, t_split=0.4)
        sums = run_bench(cfg).sums
        chunks = range(-(-frames // CHUNK_FRAMES))
        record = np.concatenate([chunk_record(cfg, c) for c in chunks])[:frames]
        centred = [x - math.fsum(x.tolist()) / frames for x in record.T]
        for i, j in np.ndindex(5, 5):
            exact = math.fsum((centred[i] * centred[j]).tolist())
            assert abs(sums[i, j] - exact) <= 1e-12 * math.sqrt(sums[i, i] * sums[j, j])
        assert np.array_equal(sums, sums.T)

    @pytest.mark.parametrize("eta", [1.0, 0.5])
    def test_memory_does_not_grow_with_frames(self, eta):
        # a run keeps its 5x5 sums and streams the record through 15 rows of
        # _BLOCK_FRAMES doubles (B's 5, A's 5 and comoments' 5), about 1 MB;
        # a run that keeps its record holds 40 bytes a frame, 13 MB at
        # 40 blocks and eta 1
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
        cfg = BenchConfig(modes=7, frames=10, seed=4, eta=0.7, tau_mix=0.3, t_split=0.4)
        frames = range(cfg.frames)
        out = read_outs(run_bench(cfg), field_record(cfg, frames))
        beam1, _, beam3, mixed = oracle_fields(cfg, frames)
        out1, out2 = mix(beam1, mixed, cfg.tau_mix)
        assert out[:, 0] == pytest.approx(intensity(out1), rel=1e-12)
        assert out[:, 1] == pytest.approx(intensity(out2), rel=1e-12)
        assert np.array_equal(out[:, 2], intensity(beam3))

    @pytest.mark.parametrize("scenario, basis", SCENARIO_BASES)
    @pytest.mark.parametrize(
        "frames", [255, 256, 612, CHUNK_FRAMES - 1, CHUNK_FRAMES, 2 * CHUNK_FRAMES + 100]
    )
    def test_determinism_across_workers_and_chunk_counts(self, scenario, basis, frames):
        # no worker count changes a value, and a run is a prefix of any longer
        # run: runs that end inside the first chunk, one frame short of it,
        # exactly one chunk, and a short third chunk
        batches = [
            run_bench(BenchConfig(modes=3, frames=n, seed=78, eta=0.7, workers=w))
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
        cfg = BenchConfig(modes=modes, frames=n, seed=6, eta=eta, tau_mix=tau_mix, t_split=0.4)
        frames = (0, 1, CHUNK_FRAMES - 1, CHUNK_FRAMES, CHUNK_FRAMES + 1, n - 1)
        batch, record = run_bench(cfg), field_record(cfg, frames)
        k = SCENARIO_BASES.index((scenario, basis))
        other = SCENARIO_BASES[(k + 1) % len(SCENARIO_BASES)]
        first = read_outs(batch, record, *other).copy()
        detected = read_outs(batch, record, scenario, basis)
        assert np.array_equal(read_outs(batch, record, *other), first)
        reference = reference_out(cfg, frames, scenario, basis)
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
        cfg = BenchConfig(modes=5, frames=300, seed=12, eta=0.8, tau_mix=tau_mix)
        frames = (0, 131, 299)
        detected = read_outs(run_bench(cfg), field_record(cfg, frames), scenario, basis)
        reference = reference_out(cfg, frames, scenario, basis)
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
        batch = run_bench(BenchConfig(modes=3, frames=n, seed=8, eta=0.7, tau_mix=tau_mix))
        slices = (slice(0, 1), slice(c - 1, c + 2), slice(1, None), slice(None, None, -1))
        for rows in slices + (slice(None, None, 3), [1, c - 1, c, n - 1]):
            for basis in ANALYZERS:
                whole = np.stack(
                    [batch.out_series(beam, basis, scenario) for beam in range(3)], axis=1
                )
                sub = read_outs(batch, batch.record[rows], scenario, basis)
                assert np.array_equal(sub, whole[rows])

    @pytest.mark.parametrize("modes", [1, 4])
    @pytest.mark.parametrize("eta", [1.0, 0.7])
    @pytest.mark.parametrize("tau_mix", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("frames", [3, 257, CHUNK_FRAMES + 1, _BLOCK_FRAMES + 1])
    def test_corr_agrees_with_corr_coeff_on_the_series(self, modes, eta, tau_mix, frames):
        # every pair of every (scenario, basis), and the in-pairs, read off the
        # record's co-moments equals corr_coeff on the explicit series; a dark
        # read-out raises corr_coeff's ValueError. 3 and 257 frames end inside
        # the first chunk, CHUNK_FRAMES + 1 one frame into the second, and
        # _BLOCK_FRAMES + 1 one frame into the second block
        batch = run_bench(
            BenchConfig(modes=modes, frames=frames, seed=21, eta=eta, tau_mix=tau_mix, t_split=0.4)
        )
        read_outs = [
            (batch.in_weights(i), batch.in_weights(j), batch.intensities_in[:, i], batch.intensities_in[:, j])
            for i, j in PAIRS
        ]
        for scenario, basis in SCENARIO_BASES:
            read_outs += [
                (
                    batch.out_weights(i, basis, scenario),
                    batch.out_weights(j, basis, scenario),
                    batch.out_series(i, basis, scenario),
                    batch.out_series(j, basis, scenario),
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
            assert not batch.out_weights(0, "V", "erasure").any()
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
        batch = run_bench(BenchConfig(modes=40, frames=2000, seed=5, tau_mix=0.31))
        before = batch.intensities_in[:, 0] + batch.intensities_in[:, 1]
        after = batch.out_series(0, "none", scenario) + batch.out_series(1, "none", scenario)
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
