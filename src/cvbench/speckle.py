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

``run_bench`` does not draw fields. The five numbers it records per frame
are entries of Gram matrices of independent unit-variance mode amplitudes,
which follow complex Wishart laws, so it samples them directly by the
Bartlett decomposition (Goodman 1963, Ann. Math. Stat. 34:152): a fixed
number of Gamma and normal draws per frame, whatever the mode count.

Randomness is counter-based. Frames are grouped into fixed chunks of
``CHUNK_FRAMES``; chunk c draws its frames from the Philox stream keyed by
(seed, ``GRAM_STREAM``) at counter position c, whole and in a fixed order.
Gamma rejection takes a variable number of draws, so no stream spans two
chunks. This chunk keying is the reproducibility contract: any frame is
reproducible by regenerating its chunk alone (``chunk_record``), and the
output cannot depend on ``BenchConfig.workers``, which is accepted and
recorded for compatibility while the sampler runs serially. The numbers for
a given seed changed in 0.2.0, when this sampler replaced per-mode fields.

The beam-splitter convention is coded once, in ``network.bs_symplectic``;
``out_series`` reads the BS row off its matrix. The per-mode field oracle
against which the records are law-tested lives in ``tests/test_speckle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .network import bs_symplectic

#: frames per RNG chunk; fixed, part of the reproducibility contract
CHUNK_FRAMES = 256
#: what run_bench samples; a manifest records it and a replay must match it
SAMPLER = "bartlett-gram"

#: (H, V) Jones vectors of beam 1 and of beams 2 and 3 per scenario; one bench, two presets
POLARIZATIONS = {"interference": ((1.0, 0.0), (1.0, 0.0)), "erasure": ((1.0, 0.0), (0.0, 1.0))}
SCENARIOS = tuple(POLARIZATIONS)
#: intensity projector of each analyzer on (H, V) Jones vectors; 'none' detects both planes
ANALYZERS = {
    "none": np.eye(2),
    "deg45": np.full((2, 2), 0.5),
    "V": np.diag([0.0, 1.0]),
    "H": np.diag([1.0, 0.0]),
}
ANALYSIS_BASES = tuple(ANALYZERS)

#: stream id keying run_bench's per-chunk Gram streams; ids 1-4 key the per-beam
#: field streams of the test oracle (source 1, source 2, mix and split substitutes)
GRAM_STREAM = 5

__all__ = [
    "CHUNK_FRAMES",
    "SAMPLER",
    "POLARIZATIONS",
    "SCENARIOS",
    "ANALYSIS_BASES",
    "ANALYZERS",
    "GRAM_STREAM",
    "BenchConfig",
    "FrameBatch",
    "chunk_rng",
    "chunk_record",
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
        if not 0.0 < self.mean_photons < math.inf:
            raise ValueError(f"mean_photons must be finite and > 0, got {self.mean_photons!r}")
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
        analyzer's projector and e1, e2 the Jones vectors of beam 1 and of
        beams 2-3, out-port p carries alpha a1 e1 + beta a2 e2, (alpha, beta)
        being row p of the BS matrix of ``network.bs_symplectic``, and
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
        e1, e2 = np.array(POLARIZATIONS[scenario])
        ins = self.intensities_in
        if beam == 2:
            weight = e2 @ proj @ e2
            if weight == 1.0:
                return ins[:, 2]
            series = weight * ins[:, 2]
        else:
            # the quadrature symplectic acts on (x, p) pairs alike: its x rows are the BS matrix
            alpha, beta = bs_symplectic(self.config.tau_mix).matrix[2 * beam, ::2]
            u, v = alpha * e1, beta * e2
            terms = (
                (u @ proj @ u, ins[:, 0]),
                (v @ proj @ v, self.gram[:, 0]),
                (2.0 * (u @ proj @ v), self.gram[:, 1]),
            )
            series = None
            for weight, column in terms:
                if weight == 0.0:
                    continue  # the term adds an exact 0, so skipping it changes no bit
                if series is None:
                    series = weight * column
                else:
                    series += weight * column
            if series is None:
                series = np.zeros(self.n_frames)
        series.flags.writeable = False
        return series


def _checked_beam(beam: int) -> int:
    if beam not in (0, 1, 2):
        raise IndexError(f"beam must be 0, 1 or 2, got {beam!r}")
    return beam


def chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """Counter-based stream for one (stream id, chunk-of-frames) cell."""
    key = np.array([seed, stream], dtype=np.uint64)
    counter = np.array([0, chunk, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


def _substituted_count(modes: int, eta: float) -> int:
    return int(round((1.0 - eta) * modes))


def _bartlett(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(|x|^2, |y|^2, Re x.y*) per frame of a 2x2 complex Wishart W2(d), in place.

    ``rows`` holds the Bartlett draws g0 ~ Gamma(d), g1 ~ Gamma(d - 1) and two
    standard normals n0, n1, then a spare row; an undrawn row (g1 when d = 1,
    every row when d = 0) is zero. With l = (n0 + i n1) / sqrt(2) ~ CN(0, 1),
    |x|^2 = g0 stays in row 0, |y|^2 = g1 + |l|^2 lands in row 1 and
    Re x.y* = sqrt(g0) Re l in row 4; rows 2 and 3 are left as scratch.
    """
    g0, g1, re, im, xy = rows
    re *= math.sqrt(0.5)
    im *= math.sqrt(0.5)
    np.sqrt(g0, out=xy)
    xy *= re
    re *= re
    im *= im
    g1 += re
    g1 += im
    return g0, g1, xy


def _record(config: BenchConfig, first: int, n_chunks: int) -> tuple[np.ndarray, np.ndarray]:
    """(in-intensities, Gram columns) of every frame of chunks first .. first + n_chunks - 1.

    With k = round((1 - eta) M) substituted modes, a frame's draws are
    B = W2(M - k) over (beam 1, source 2), A = W2(k) over (beam 1, mix
    substitute), and two Gamma(k): source 2 and the split substitute on the
    substituted modes. Each chunk draws them whole from its own stream, in a
    fixed order, into run-wide rows; the arithmetic then runs once over all
    rows, in place, and the record is the column views of one 5-row buffer.
    """
    k = _substituted_count(config.modes, config.eta)
    r = config.modes - k
    n = n_chunks * CHUNK_FRAMES
    # rec: B's rows (g0, g1, two normals, spare), which become the record;
    # sub: A's rows, then G_s2 and G_ss
    rec = np.zeros((5, n))
    sub = np.zeros((7, n)) if k else None
    gammas = [(rec[0], r), (rec[1], r - 1)]
    normals = [rec[2], rec[3]] if r else []
    if k:
        gammas += [(sub[0], k), (sub[1], k - 1), (sub[5], k), (sub[6], k)]
        normals += [sub[2], sub[3]]
    gammas = [(row, shape) for row, shape in gammas if shape > 0]
    for i in range(n_chunks):
        rng = chunk_rng(config.seed, GRAM_STREAM, first + i)
        cols = slice(i * CHUNK_FRAMES, (i + 1) * CHUNK_FRAMES)
        for row, shape in gammas:
            rng.standard_gamma(shape, out=row[cols])
        for row in normals:
            rng.standard_normal(out=row[cols])

    m1, t = config.mean_photons, config.t_split
    m2 = m1 / t
    b_xx, b_yy, b_xy = _bartlett(rec)
    _, _, ins2, gram0, _ = rec  # B's scratch rows take the outputs it has no row for
    np.multiply(b_yy, t * m2, out=gram0)
    b_xy *= math.sqrt(t * m1 * m2)
    beam3_yy = b_yy
    if k:
        a_xx, a_yy, a_xy = _bartlett(sub[:5])
        g_s2, g_ss = sub[5], sub[6]
        b_xx += a_xx
        a_yy *= m1
        gram0 += a_yy
        a_xy *= m1
        b_xy += a_xy
        g_ss += b_yy
        beam3_yy = g_ss
        b_yy += g_s2
    np.multiply(beam3_yy, (1.0 - t) * m2, out=ins2)
    b_yy *= t * m2
    b_xx *= m1
    return rec[:3].T, rec[3:].T


def chunk_record(config: BenchConfig, chunk: int) -> tuple[np.ndarray, np.ndarray]:
    """(in-intensities, Gram columns) of the CHUNK_FRAMES frames of one chunk, drawn alone.

    Bit-identical to rows chunk * CHUNK_FRAMES onward of ``run_bench``'s batch.
    """
    return _record(config, chunk, 1)


def run_bench(config: BenchConfig) -> FrameBatch:
    """Simulate the configured bench and record per-frame intensities.

    Beam 1 is source 1; source 2 splits into beams 2 and 3 at t_split; beams
    1 and 2 mix at tau_mix, while beam 3 is untouched by the beam splitter.
    The pass records the three intensities before the beam splitter and the
    Gram matrix of its two inputs, which no preset or analyzer changes. Both
    are read off those afterwards by ``FrameBatch.out_series``: the
    interference preset puts beams 1-3 on H, so beams 1 and 2 interfere;
    erasure puts beam 1 on H and beams 2 and 3 on V, so they do not.

    With m1 = mean_photons, t = t_split, m2 = m1 / t and the draws of
    ``_record``, a frame records ins = (m1 (A_xx + B_xx), t m2 (G_s2 + B_yy),
    (1 - t) m2 (G_ss + B_yy)) and gram = (m1 A_yy + t m2 B_yy,
    m1 Re A_xy + sqrt(t m1 m2) Re B_xy). Identical (seed, config) produce
    bit-identical batches for any worker count; frame j depends only on the
    seed, j, modes, eta, mean_photons and t_split.
    """
    ins, gram = _record(config, 0, -(-config.frames // CHUNK_FRAMES))
    ins, gram = ins[: config.frames], gram[: config.frames]
    ins.flags.writeable = False
    gram.flags.writeable = False
    return FrameBatch(config, ins, gram)
