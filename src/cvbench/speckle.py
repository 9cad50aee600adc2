"""Frame-by-frame Monte Carlo of multimode pseudo-thermal beams through one bench.

Beams are classical speckle fields: each spatial mode carries an independent
circular complex Gaussian amplitude, splitting is deterministic, and a
detector integrates |amplitude|^2 over its modes (analog regime, no shot
noise). Mode mismatch is modeled by substituting a fraction (1 - eta) of a
beam's modes with an independent equal-mean field.

One bench serves both scenarios, which are its two polarization presets
(``POLARIZATIONS``). Presets and analyzers are a read-out, not part of the
run: every intensity detected behind any analyzer is linear in the per-frame
Gram matrix of the two fields entering the beam splitter, so a run records
the in-intensities and that matrix, and
``FrameBatch.out_series(beam, basis, scenario)`` reads any preset and basis
off them through the analyzer's intensity projector (``ANALYZERS``).

Randomness is counter-based. Frames are grouped into fixed chunks of
``CHUNK_FRAMES``; the fields of chunk c of beam b come from the Philox stream
keyed by (seed, b) at counter position c, and frame j occupies row
j mod CHUNK_FRAMES of its chunk. This chunk keying is the reproducibility
contract: any frame is reproducible in isolation by regenerating one chunk
(see ``frame_field``).

For speed, each job of ``run_bench`` handles a slab: a run of consecutive
chunks, each still drawn whole from its own stream, that is split and
reduced to per-frame second moments in one batch. Slabs are only an
execution grouping: their length follows from the mode count (about
``SLAB_NORMALS`` normals per beam), no row's value depends on it, and the
output is bit-identical for any worker count since workers only handle
whole chunks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

#: frames per RNG chunk; fixed, part of the reproducibility contract
CHUNK_FRAMES = 256
#: normals per beam drawn by one run_bench job; sets the slab length, not the output
SLAB_NORMALS = 65_536

#: polarization plane of beam 1 and of beams 2 and 3 per scenario; one bench, two presets
POLARIZATIONS = {"interference": ("H", "H"), "erasure": ("H", "V")}
SCENARIOS = tuple(POLARIZATIONS)
#: intensity projector of each analyzer on (H, V) Jones vectors; 'none' detects both planes
ANALYZERS = {
    "none": np.eye(2),
    "deg45": np.full((2, 2), 0.5),
    "V": np.diag([0.0, 1.0]),
    "H": np.diag([1.0, 0.0]),
}
ANALYSIS_BASES = tuple(ANALYZERS)

#: stream ids keying the per-beam Philox streams
BEAM_SOURCE1 = 1
BEAM_SOURCE2 = 2
BEAM_MIX_SUBSTITUTE = 3
BEAM_SPLIT_SUBSTITUTE = 4

__all__ = [
    "CHUNK_FRAMES",
    "POLARIZATIONS",
    "SCENARIOS",
    "ANALYSIS_BASES",
    "ANALYZERS",
    "BEAM_SOURCE1",
    "BEAM_SOURCE2",
    "BEAM_MIX_SUBSTITUTE",
    "BEAM_SPLIT_SUBSTITUTE",
    "BenchConfig",
    "FrameBatch",
    "chunk_rng",
    "field_rng",
    "frame_field",
    "sample_thermal_field",
    "split_field",
    "substitute_modes",
    "mix_fields",
    "polarized",
    "project_jones",
    "detect",
    "run_bench",
]


@dataclass(frozen=True)
class BenchConfig:
    """Configuration of one bench run: the ``[source]`` and ``[bench]`` settings.

    Nothing here picks a polarization preset or an analyzer; those are
    arguments of ``FrameBatch.out_series``. ``mean_photons`` is the per-mode
    mean intensity of every detected beam in the ideal configuration; the
    split source is drawn brighter by 1/t_split so that beam 2 matches beam 1.
    All modes of a beam share one mean, which is what makes the correlation
    coefficients independent of ``modes``.
    """

    modes: int = 100
    frames: int = 100_000
    mean_photons: float = 1.0
    tau_mix: float = 0.5
    t_split: float = 0.5
    eta: float = 1.0
    seed: int = 42
    workers: int = 1

    def __post_init__(self) -> None:
        if self.modes < 1:
            raise ValueError(f"modes must be >= 1, got {self.modes!r}")
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames!r}")
        if not self.mean_photons > 0.0:
            raise ValueError(f"mean_photons must be > 0, got {self.mean_photons!r}")
        if not 0.0 <= self.tau_mix <= 1.0:
            raise ValueError(f"tau_mix must lie in [0, 1], got {self.tau_mix!r}")
        if not 0.0 < self.t_split <= 1.0:
            raise ValueError(f"t_split must lie in (0, 1], got {self.t_split!r}")
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")


@dataclass(frozen=True, eq=False)
class FrameBatch:
    """Per-frame second moments of one bench run, off which every detection is read.

    Beams are indexed (0, 1, 2) <-> (beam 1, beam 2, beam 3).
    ``intensities_in`` holds the integrated intensities of the three beams
    before the BS. ``gram`` holds two columns: |a2|^2 of beam 2 as it enters
    the BS (after mode substitution) and Re sum_m a1_m conj(a2_m). With
    |a1|^2 = ``intensities_in[:, 0]`` they make the Gram matrix of the two BS
    inputs, off which ``out_series`` reads every beam, preset and analyzer.
    """

    config: BenchConfig
    intensities_in: np.ndarray
    gram: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.intensities_in.shape[0]

    @property
    def intensities_out(self) -> np.ndarray:
        """(frames, 3) out-intensities of the interference preset behind no analyzer."""
        out = np.stack([self.out_series(beam) for beam in range(3)], axis=1)
        out.flags.writeable = False
        return out

    def in_series(self, beam: int) -> np.ndarray:
        return self.intensities_in[:, _checked_beam(beam)]

    def out_series(
        self, beam: int, basis: str = "none", scenario: str = "interference"
    ) -> np.ndarray:
        """Read-only out-intensities of one beam of the ``scenario`` preset behind ``basis``.

        ``basis`` is a key of ``ANALYZERS`` and ``scenario`` one of
        ``POLARIZATIONS``; any other value raises ``ValueError``. With P the
        analyzer's projector and e1, e2 the Jones vectors of the planes of
        beam 1 and of beams 2-3, out-port p carries alpha a1 e1 + beta a2 e2,
        (alpha, beta) being row p of the BS matrix of ``mix_fields``, and
        detects alpha^2 e1.P.e1 |a1|^2 + beta^2 e2.P.e2 |a2|^2 +
        2 alpha beta e1.P.e2 Re(a1.a2*). Beam 3 bypasses the BS and detects
        e2.P.e2 |a3|^2, a view of its in-column where that weight is 1.
        """
        beam = _checked_beam(beam)
        if basis not in ANALYZERS:
            raise ValueError(f"unknown analysis basis {basis!r}")
        if scenario not in POLARIZATIONS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
        proj = ANALYZERS[basis]
        pol1, pol23 = POLARIZATIONS[scenario]
        e1, e2 = polarized(np.ones(()), pol1).real, polarized(np.ones(()), pol23).real
        ins = self.intensities_in
        if beam == 2:
            weight = e2 @ proj @ e2
            if weight == 1.0:
                return ins[:, 2]
            series = weight * ins[:, 2]
        else:
            alpha, beta = np.array(mix_fields(*np.eye(2), self.config.tau_mix))[beam]
            u, v = alpha * e1, beta * e2
            series = (
                (u @ proj @ u) * ins[:, 0]
                + (v @ proj @ v) * self.gram[:, 0]
                + 2.0 * (u @ proj @ v) * self.gram[:, 1]
            )
        series.flags.writeable = False
        return series


def _checked_beam(beam: int) -> int:
    if beam not in (0, 1, 2):
        raise IndexError(f"beam must be 0, 1 or 2, got {beam!r}")
    return beam


def chunk_rng(seed: int, beam: int, chunk: int) -> np.random.Generator:
    """Counter-based stream for one (beam, chunk-of-frames) cell."""
    key = np.array([seed, beam], dtype=np.uint64)
    counter = np.array([0, chunk, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def field_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Stand-alone stream, placed outside the chunk range used by run_bench."""
    return chunk_rng(seed, stream, (1 << 32) + index)


def sample_thermal_field(rng: np.random.Generator, modes: int, mean: float) -> np.ndarray:
    """One frame of a thermal speckle field: M circular complex Gaussians, E|a|^2 = mean."""
    if mean < 0.0:
        raise ValueError(f"mean must be >= 0, got {mean!r}")
    z = rng.standard_normal(2 * modes) * math.sqrt(mean / 2.0)
    return z[0::2] + 1j * z[1::2]


def _chunk_fields(seed: int, beam: int, chunk: int, rows: int, modes: int, mean: float) -> np.ndarray:
    # fields of `rows` frames from the start of `chunk`, possibly spanning
    # several chunks; each chunk is drawn whole from its own stream so row
    # content never depends on `rows`
    n_chunks = -(-rows // CHUNK_FRAMES)
    z = np.empty((n_chunks * CHUNK_FRAMES, 2 * modes))
    for i in range(n_chunks):
        rng = chunk_rng(seed, beam, chunk + i)
        rng.standard_normal(out=z[i * CHUNK_FRAMES : (i + 1) * CHUNK_FRAMES])
    z = z[:rows] * math.sqrt(mean / 2.0)
    return z[:, 0::2] + 1j * z[:, 1::2]


def frame_field(seed: int, beam: int, frame: int, modes: int, mean: float) -> np.ndarray:
    """Field of a single bench frame regenerated in isolation.

    Bit-identical to what ``run_bench`` uses internally for that frame.
    """
    chunk, row = divmod(frame, CHUNK_FRAMES)
    return _chunk_fields(seed, beam, chunk, row + 1, modes, mean)[row]


def split_field(field: np.ndarray, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic split (sqrt(t) field, sqrt(1 - t) field); outputs share the speckle."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"split ratio must lie in [0, 1], got {t!r}")
    return field * math.sqrt(t), field * math.sqrt(1.0 - t)


def _substituted_count(modes: int, eta: float) -> int:
    return int(round((1.0 - eta) * modes))


def substitute_modes(field: np.ndarray, eta: float, replacement: np.ndarray) -> np.ndarray:
    """Replace the first round((1 - eta) M) modes with the replacement field.

    Models mode mismatch: replaced modes lose all correlation with their
    partner beams while the marginal statistics keep the same thermal mean.
    """
    k = _substituted_count(field.shape[0], eta)
    if k == 0:
        return field
    out = field.copy()
    out[:k] = replacement[:k]
    return out


def mix_fields(
    field_a: np.ndarray,
    field_b: np.ndarray,
    tau: float,
    eta: float = 1.0,
    substitute: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude-level beam splitter on fields of any leading shape (scalar or Jones).

    out_a = sqrt(tau) a + sqrt(1 - tau) b and out_b = sqrt(tau) b -
    sqrt(1 - tau) a, matching the covariance-level sign convention; this is
    the one place the convention is coded, and ``FrameBatch`` reads the BS
    matrix off it to weight the Gram columns. With eta < 1 a fraction
    (1 - eta) of b's modes is first replaced by the independent equal-mean
    ``substitute`` field. Energy is conserved per mode pair when eta = 1.
    """
    a = np.asarray(field_a)
    b = np.asarray(field_b)
    if a.shape != b.shape:
        raise ValueError(f"mode-count mismatch: {a.shape} vs {b.shape}")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"transmissivity must lie in [0, 1], got {tau!r}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must lie in [0, 1], got {eta!r}")
    if eta < 1.0:
        if substitute is None:
            raise ValueError("eta < 1 requires a substitute field")
        b = substitute_modes(b, eta, np.asarray(substitute))
    t = math.sqrt(tau)
    r = math.sqrt(1.0 - tau)
    return t * a + r * b, t * b - r * a


def polarized(field: np.ndarray, axis: str) -> np.ndarray:
    """Lift a scalar speckle field to a Jones field along 'H' or 'V'."""
    if axis not in ("H", "V"):
        raise ValueError(f"axis must be 'H' or 'V', got {axis!r}")
    out = np.zeros(field.shape + (2,), dtype=complex)
    out[..., 0 if axis == "H" else 1] = field
    return out


def project_jones(field: np.ndarray, basis: str) -> np.ndarray:
    """Project a Jones field on an analysis axis; 'none' keeps both components."""
    if basis == "none":
        return field
    if basis == "H":
        return field[..., 0]
    if basis == "V":
        return field[..., 1]
    if basis == "deg45":
        return (field[..., 0] + field[..., 1]) / math.sqrt(2.0)
    raise ValueError(f"unknown analysis basis {basis!r}")


def detect(field: np.ndarray) -> float:
    """Integrated intensity: sum of |amplitude|^2 over modes (and Jones components)."""
    f = np.asarray(field)
    return float(np.sum(f.real * f.real + f.imag * f.imag))


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # per-frame Re sum_m x_m conj(y_m) of two (rows, modes) chunks; detect when x is y
    return (x.real * y.real + x.imag * y.imag).sum(axis=1)


def _degraded(cfg: BenchConfig, chunk: int, rows: int, beam2: np.ndarray, beam3: np.ndarray):
    """Beam 3 and the BS-facing copy of beam 2 with (1 - eta) of modes substituted."""
    if cfg.eta >= 1.0:
        return beam2, beam3
    k = _substituted_count(cfg.modes, cfg.eta)
    if k == 0:
        return beam2, beam3
    source2_mean = cfg.mean_photons / cfg.t_split
    sub_split = _chunk_fields(
        cfg.seed, BEAM_SPLIT_SUBSTITUTE, chunk, rows, cfg.modes,
        (1.0 - cfg.t_split) * source2_mean,
    )
    beam3 = beam3.copy()
    beam3[:, :k] = sub_split[:, :k]
    sub_mix = _chunk_fields(cfg.seed, BEAM_MIX_SUBSTITUTE, chunk, rows, cfg.modes, cfg.mean_photons)
    beam2_mixed = beam2.copy()
    beam2_mixed[:, :k] = sub_mix[:, :k]
    return beam2_mixed, beam3


def _bench_slab(cfg: BenchConfig, chunk: int, rows: int, ins: np.ndarray, gram: np.ndarray):
    beam1 = _chunk_fields(cfg.seed, BEAM_SOURCE1, chunk, rows, cfg.modes, cfg.mean_photons)
    source2 = _chunk_fields(
        cfg.seed, BEAM_SOURCE2, chunk, rows, cfg.modes, cfg.mean_photons / cfg.t_split
    )
    beam2, beam3 = split_field(source2, cfg.t_split)
    beam2_mixed, beam3 = _degraded(cfg, chunk, rows, beam2, beam3)
    lo = chunk * CHUNK_FRAMES
    sl = slice(lo, lo + rows)
    ins[sl, 0] = _row_dot(beam1, beam1)
    ins[sl, 1] = _row_dot(beam2, beam2)
    ins[sl, 2] = _row_dot(beam3, beam3)
    gram[sl, 0] = ins[sl, 1] if beam2_mixed is beam2 else _row_dot(beam2_mixed, beam2_mixed)
    gram[sl, 1] = _row_dot(beam1, beam2_mixed)


def _slab_chunks(modes: int) -> int:
    """Chunks per run_bench job: about SLAB_NORMALS normals per beam, at least one chunk."""
    return max(1, SLAB_NORMALS // (CHUNK_FRAMES * 2 * modes))


def run_bench(config: BenchConfig) -> FrameBatch:
    """Simulate the configured bench and record per-frame intensities.

    Beam 1 is source 1; source 2 splits into beams 2 and 3 at t_split; beams
    1 and 2 mix at tau_mix, while beam 3 is untouched by the beam splitter.
    The pass records the three intensities before the beam splitter and the
    Gram matrix of its two inputs, which no preset or analyzer changes. Both
    are read off those afterwards by ``FrameBatch.out_series``: the
    interference preset puts beams 1-3 on H, so beams 1 and 2 interfere;
    erasure puts beam 1 on H and beams 2 and 3 on V, so they do not.

    Identical (seed, config) produce bit-identical batches for any worker
    count; frame j depends only on (seed, beam ids, j).
    """
    ins = np.empty((config.frames, 3))
    gram = np.empty((config.frames, 2))
    n_chunks = (config.frames + CHUNK_FRAMES - 1) // CHUNK_FRAMES
    slab = _slab_chunks(config.modes)
    starts = range(0, n_chunks, slab)

    def rows_of(c: int) -> int:
        return min(slab * CHUNK_FRAMES, config.frames - c * CHUNK_FRAMES)

    if config.workers == 1 or len(starts) == 1:
        for c in starts:
            _bench_slab(config, c, rows_of(c), ins, gram)
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            jobs = [pool.submit(_bench_slab, config, c, rows_of(c), ins, gram) for c in starts]
            for job in jobs:
                job.result()
    ins.flags.writeable = False
    gram.flags.writeable = False
    return FrameBatch(config, ins, gram)
