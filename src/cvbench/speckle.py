"""Frame-by-frame Monte Carlo of multimode pseudo-thermal beams through one bench.

Beams are classical speckle fields: each spatial mode carries an independent
circular complex Gaussian amplitude, splitting is deterministic, and a
detector integrates |amplitude|^2 over its modes (analog regime, no shot
noise). Mode mismatch is modeled by substituting a fraction (1 - eta) of a
beam's modes with an independent equal-mean field.

One bench serves both scenarios, which are its two polarization presets
(``POLARIZATIONS``). Presets and analyzers are a read-out, not part of the
run: every intensity detected behind any analyzer is linear in the per-frame
Gram matrix of the two fields entering the beam splitter, so a frame is five
numbers, a row of the run's (frames, 5) record: the in-intensities and two
entries of that matrix. Every read-out is a fixed combination of those
columns, coded once as its weights: ``FrameBatch.out_weights(beam, basis,
scenario)`` forms them through the analyzer's intensity projector
(``ANALYZERS``). Every correlation of two read-outs, in-intensities included,
is a second moment, so a run's datum is the record's 5x5 centred sums of
products (``stats.comoments``): ``run_bench`` streams the record through one
reusable block of ``stats._BLOCK_FRAMES`` frames, reduced while in cache, and
keeps only the sums, so its memory does not grow with frames, and
``FrameBatch.corr`` reads any correlation off them. A caller that needs a
series itself reads ``FrameBatch.record``, redrawn on demand with the same
bits, times the weights (``out_series``), summed column by column, so that a
frame's value depends on its own record row alone, whatever the record's
memory layout.

``run_bench`` does not draw fields. The five numbers it records per frame
are entries of Gram matrices of independent unit-variance mode amplitudes,
which follow complex Wishart laws, so it samples them directly by the
Bartlett decomposition (Goodman 1963, Ann. Math. Stat. 34:152): a fixed
number of Gamma and normal draws per frame, whatever the mode count. Only
Re x.y* of each 2x2 Wishart block is recorded, so Bartlett's unrecorded
normal folds into one Gamma draw (``_bartlett``): three draws per block and
frame.

Randomness is counter-based. Frames are grouped into fixed chunks of
``CHUNK_FRAMES``; chunk c draws its frames from the Philox stream keyed by
(seed, ``GRAM_STREAM``) at counter position c, whole and in a fixed order.
The key is a stream's only seed material: ``chunk_rng`` opens each chunk's
stream afresh from it, and no OS entropy is drawn. Gamma rejection takes a
variable number of draws, so no stream spans two chunks. This chunk keying
is the reproducibility contract: any frame is reproducible by regenerating
its chunk alone (``chunk_record``), and the output cannot depend on
``BenchConfig.workers``, which is accepted and recorded for compatibility
while the sampler runs serially. A run draws whole chunks, so it draws up to
``CHUNK_FRAMES - 1`` frames that it does not keep. The numbers for a given
seed changed in 0.2.0, when this sampler replaced per-mode fields, and in
0.3.0, when the fold and chunks of 1,024 frames replaced four draws per
block and chunks of 256 frames.

The beam-splitter convention is coded once, in ``network.bs_symplectic``; a
batch reads its BS rows off that matrix once. The per-mode field oracle
against which the records are law-tested lives in ``tests/test_speckle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .network import bs_symplectic
from .stats import _BLOCK_FRAMES, comoment_corr, comoments

#: frames per RNG chunk; fixed, part of the reproducibility contract
CHUNK_FRAMES = 1024
#: what run_bench samples; a manifest records it and a replay must match it
SAMPLER = "bartlett-gram-2"

#: (H, V) Jones vectors of beam 1 and of beams 2 and 3 per scenario; one bench, two presets
POLARIZATIONS = {"interference": ((1.0, 0.0), (1.0, 0.0)), "erasure": ((1.0, 0.0), (0.0, 1.0))}
#: intensity projector of each analyzer on (H, V) Jones vectors; 'none' detects both planes
ANALYZERS = {
    "none": np.eye(2),
    "deg45": np.full((2, 2), 0.5),
    "V": np.diag([0.0, 1.0]),
}

#: stream id keying run_bench's per-chunk Gram streams; ids 1-4 key the per-beam
#: field streams of the test oracle (source 1, source 2, mix and split substitutes)
GRAM_STREAM = 5

__all__ = [
    "CHUNK_FRAMES",
    "SAMPLER",
    "POLARIZATIONS",
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
    arguments of ``FrameBatch.out_weights``. ``mean_photons`` is the per-mode
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
    """One bench run, off which every detection is read: its config and its record's sums.

    Beams are indexed (0, 1, 2) <-> (beam 1, beam 2, beam 3). The run's
    record has five columns per frame: the integrated intensities of the
    three beams before the BS, then |a2|^2 of beam 2 as it enters the BS
    (after mode substitution) and Re sum_m a1_m conj(a2_m). With |a1|^2 in
    column 0 the last two make the Gram matrix of the two BS inputs. Every
    read-out, an in-intensity or any beam of any preset behind any analyzer,
    is a fixed combination of these five columns, coded once as its weights
    (``in_weights``, ``out_weights``). ``sums`` is the read-only 5x5
    ``stats.comoments`` of the record columns, which ``run_bench`` streams,
    and ``corr`` reads the correlation of two read-outs off it without
    building either series. ``record`` itself is redrawn from the run's
    chunk streams on first read, bit-identical to what was reduced, and
    ``out_series`` is the record times the weights.
    """

    config: BenchConfig
    sums: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.config.frames

    @cached_property
    def record(self) -> np.ndarray:
        """Read-only (frames, 5) record of the run, drawn on first read through its chunk streams.

        Under the chunk keying every frame's row has the bits that the run
        reduced into ``sums``; it costs the run's draws again, and 40 bytes a
        frame.
        """
        record = _record(self.config, 0, -(-self.config.frames // CHUNK_FRAMES))
        record = record[: self.config.frames]
        record.flags.writeable = False
        return record

    @property
    def intensities_in(self) -> np.ndarray:
        """(frames, 3) in-intensities of beams 1-3: a view of the record's first columns."""
        return self.record[:, :3]

    @property
    def intensities_out(self) -> np.ndarray:
        """(frames, 3) ``out_series`` of the interference preset behind no analyzer."""
        out = np.stack([self.out_series(beam) for beam in range(3)], axis=1)
        out.flags.writeable = False
        return out

    def in_weights(self, beam: int) -> np.ndarray:
        """(5,) weights of one beam's in-intensity over the record columns: a unit vector."""
        weights = np.zeros(5)
        weights[_checked_beam(beam)] = 1.0
        return weights

    def out_weights(
        self, beam: int, basis: str = "none", scenario: str = "interference"
    ) -> np.ndarray:
        """(5,) weights of one beam's out-intensity of the ``scenario`` preset behind ``basis``.

        The record columns are the in-intensities of beams 1-3, then the two
        Gram columns. ``basis`` is a key of ``ANALYZERS`` and ``scenario``
        one of ``POLARIZATIONS``; any other value raises ``ValueError``. With
        P the analyzer's projector and e1, e2 the Jones vectors of beam 1 and
        of beams 2-3, out-port p carries alpha a1 e1 + beta a2 e2, (alpha,
        beta) being row p of the BS matrix of ``network.bs_symplectic``, and
        detects alpha^2 e1.P.e1 |a1|^2 + beta^2 e2.P.e2 |a2|^2 +
        2 alpha beta e1.P.e2 Re(a1.a2*). Beam 3 bypasses the BS and detects
        e2.P.e2 |a3|^2.
        """
        beam = _checked_beam(beam)
        if basis not in ANALYZERS:
            raise ValueError(f"unknown analysis basis {basis!r}")
        if scenario not in POLARIZATIONS:
            raise ValueError(f"scenario must be one of {tuple(POLARIZATIONS)}, got {scenario!r}")
        proj = ANALYZERS[basis]
        e1, e2 = np.array(POLARIZATIONS[scenario])
        weights = np.zeros(5)
        if beam == 2:
            weights[2] = e2 @ proj @ e2
        else:
            alpha, beta = self._bs_rows[beam]
            u, v = alpha * e1, beta * e2
            weights[0], weights[3], weights[4] = u @ proj @ u, v @ proj @ v, 2.0 * (u @ proj @ v)
        return weights

    def out_series(
        self, beam: int, basis: str = "none", scenario: str = "interference"
    ) -> np.ndarray:
        """Read-only out-intensities of one beam of the ``scenario`` preset behind ``basis``.

        ``record`` times ``out_weights``, summed as ``_read_out`` sums.
        """
        return _read_out(self.record, self.out_weights(beam, basis, scenario))

    def corr(self, h: np.ndarray, k: np.ndarray) -> float:
        """Correlation coefficient of two read-outs given by their weights.

        ``h`` and ``k`` come from ``in_weights`` or ``out_weights``. The
        value is read off ``sums``, so neither series is built nor the
        record redrawn. It agrees with ``corr_coeff`` on the two series to
        within 1e-12 and raises the same ``ValueError`` for a read-out of
        zero variance or non-finite sums.
        """
        return comoment_corr(self.sums, h, k)

    @cached_property
    def _bs_rows(self) -> np.ndarray:
        # the quadrature symplectic acts on (x, p) pairs alike: its x rows are the BS matrix
        return bs_symplectic(self.config.tau_mix).matrix[::2, ::2]


def _read_out(record: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Read-only series of one read-out: a (frames, 5) record times (5,) weights.

    Summed from zeros over the nonzero weights in column order, so a frame's
    value depends on its own record row alone, whatever the record's layout
    (a matrix product may group its sum by the layout): any selection of a
    run's rows reads the bits of the whole run's series at those rows.
    """
    series = np.zeros(record.shape[0])
    for column, weight in enumerate(weights):
        if weight != 0.0:
            series += weight * record[:, column]
    series.flags.writeable = False
    return series


def _checked_beam(beam: int) -> int:
    if beam not in (0, 1, 2):
        raise IndexError(f"beam must be 0, 1 or 2, got {beam!r}")
    return beam


class _StreamKey:
    """The seed sequence of one Philox stream: its key (seed, stream id), and nothing else.

    A bit generator given a seed sequence reads its seed from the sequence's
    ``generate_state``, and Philox asks it for two uint64 words, which here
    are the key itself. numpy's ``Philox(key=...)`` sets the same key but
    first builds a ``SeedSequence()`` from OS entropy and discards it, which
    cost more than half of opening a stream. The class implements numpy's
    ``ISeedSequence`` (registered by ``_seed_interface``) and not its
    spawnable variant, so a chunk generator refuses to ``spawn`` with the
    ``TypeError`` of a keyed Philox. It is defined at module level so that a
    chunk generator, which holds it, pickles.
    """

    __slots__ = ("key",)

    def __init__(self, seed: int, stream: int) -> None:
        self.key = np.array([seed, stream], dtype=np.uint64)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # Philox, the only caller, asks for (2, np.uint64)
        return self.key


@cache
def _seed_interface() -> None:
    # at first use, not at import: importing numpy.random costs about 13 ms
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StreamKey)


def chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """Counter-based stream for one (stream id, chunk-of-frames) cell.

    A fresh Philox with key (seed, stream) and counter (0, chunk, 0, 0) as
    uint64 words: the state of numpy's ``Philox(key=..., counter=...)``
    given those words. The key is the stream's only seed material: opening a
    stream draws no OS entropy.
    """
    _seed_interface()
    counter = np.array([0, chunk, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_StreamKey(seed, stream), counter=counter))


def _bartlett(rows: np.ndarray, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(|x|^2, |y|^2, Re x.y*) per frame of a 2x2 complex Wishart W2(d), in place.

    ``rows`` holds the draws g0 ~ Gamma(d), h ~ Gamma(d - 1/2) and a standard
    normal n, all zero when d = 0. Bartlett's factor of W2(d) gives
    |x|^2 = g0, |y|^2 = g1 + |l|^2 and Re x.y* = sqrt(g0) Re l, with
    g1 ~ Gamma(d - 1) and l = (n0 + i n1) / sqrt(2) ~ CN(0, 1). Only Re x.y*
    is recorded, so Im l enters through |y|^2 alone, and g1 + n1^2 / 2 ~
    Gamma(d - 1/2), independent of n0 and g0, is the one draw h:
    |y|^2 = h + n^2 / 2 and Re x.y* = sqrt(g0) n / sqrt(2). |x|^2 = g0 stays
    in row 0, |y|^2 lands in row 1 and Re x.y* in ``xy``; row 2 is left as
    scratch.
    """
    g0, h, n = rows
    n *= math.sqrt(0.5)
    np.sqrt(g0, out=xy)
    xy *= n
    n *= n
    h += n
    return g0, h, xy


def _substituted(config: BenchConfig) -> int:
    # k, the modes of a beam that mode mismatch substitutes
    return int(round((1.0 - config.eta) * config.modes))


def _buffers(config: BenchConfig, frames: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Uninitialised draw rows of ``_record`` for ``frames`` frames: B's 5, and A's 5 if k > 0."""
    return np.empty((5, frames)), np.empty((5, frames)) if _substituted(config) else None


def _record(config: BenchConfig, first: int, n_chunks: int, buffers=None) -> np.ndarray:
    """(frames, 5) record of every frame of chunks first .. first + n_chunks - 1.

    With k = round((1 - eta) M) substituted modes, a frame's draws are
    B = W2(M - k) over (beam 1, source 2), A = W2(k) over (beam 1, mix
    substitute), three draws each (``_bartlett``), and two Gamma(k): source 2
    and the split substitute on the substituted modes. Each chunk draws them
    whole from its own stream, in one fixed order: B's Gamma(M - k) and
    Gamma(M - k - 1/2), then, if k > 0, A's Gamma(k) and Gamma(k - 1/2) and
    the two Gamma(k), then B's normal and A's. They land in the rows of
    ``buffers`` (from ``_buffers``, fresh ones by default, at least as wide
    as the frames); B's rows are zeroed when M - k = 0, which draws none. The
    arithmetic then runs once over all rows, in place, and the record is the
    transpose of B's 5-row buffer: a view, which the next call with the same
    buffers overwrites.
    """
    k = _substituted(config)
    r = config.modes - k
    n = n_chunks * CHUNK_FRAMES
    # rec: B's rows (g0, h, normal, two spares), which become the record;
    # sub: A's rows (g0, h, normal), then G_s2 and G_ss
    rec, sub = buffers or _buffers(config, n)
    rec = rec[:, :n]
    gammas, normals = [], []
    if r:
        gammas += [(rec[0], r), (rec[1], r - 0.5)]
        normals += [rec[2]]
    else:
        rec[:3].fill(0.0)
    if k:
        sub = sub[:, :n]
        gammas += [(sub[0], k), (sub[1], k - 0.5), (sub[3], k), (sub[4], k)]
        normals += [sub[2]]
    for i in range(n_chunks):
        rng = chunk_rng(config.seed, GRAM_STREAM, first + i)
        cols = slice(i * CHUNK_FRAMES, (i + 1) * CHUNK_FRAMES)
        for row, shape in gammas:
            rng.standard_gamma(shape, out=row[cols])
        for row in normals:
            rng.standard_normal(out=row[cols])

    m1, t = config.mean_photons, config.t_split
    m2 = m1 / t
    _, _, ins2, gram0, _ = rec  # B's spare rows take the outputs it has no row for
    b_xx, b_yy, b_xy = _bartlett(rec[:3], rec[4])
    np.multiply(b_yy, t * m2, out=gram0)
    b_xy *= math.sqrt(t * m1 * m2)
    beam3_yy = b_yy
    if k:
        # A's cross term passes through ins2, which is written last
        a_xx, a_yy, a_xy = _bartlett(sub[:3], ins2)
        g_s2, g_ss = sub[3], sub[4]
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
    return rec.T


def chunk_record(config: BenchConfig, chunk: int) -> np.ndarray:
    """(CHUNK_FRAMES, 5) record of the frames of one chunk, drawn alone.

    Bit-identical to rows chunk * CHUNK_FRAMES onward of the run's ``FrameBatch.record``.
    """
    return _record(config, chunk, 1)


def run_bench(config: BenchConfig) -> FrameBatch:
    """Simulate the configured bench and reduce its five numbers per frame to their sums.

    Beam 1 is source 1; source 2 splits into beams 2 and 3 at t_split; beams
    1 and 2 mix at tau_mix, while beam 3 is untouched by the beam splitter.
    The pass records the three intensities before the beam splitter and the
    Gram matrix of its two inputs, which no preset or analyzer changes.
    Every detection is read off that record afterwards, by its weights
    (``FrameBatch.out_weights``): the interference preset puts beams 1-3 on
    H, so beams 1 and 2 interfere; erasure puts beam 1 on H and beams 2 and
    3 on V, so they do not.

    The record streams: ``stats._BLOCK_FRAMES // CHUNK_FRAMES`` = 8 chunks at
    a time are drawn into one pair of buffers, allocated once per run, and
    each block is folded into ``stats.comoments`` while it is in cache. The
    batch keeps the 5x5 sums, so the run's memory does not grow with frames;
    ``FrameBatch.record`` redraws the record on demand. Fewer than two
    frames have no sums and raise ``ValueError``.

    With m1 = mean_photons, t = t_split, m2 = m1 / t and the draws of
    ``_record``, a frame records (m1 (A_xx + B_xx), t m2 (G_s2 + B_yy),
    (1 - t) m2 (G_ss + B_yy), m1 A_yy + t m2 B_yy,
    m1 Re A_xy + sqrt(t m1 m2) Re B_xy). Identical (seed, config) produce
    bit-identical records, and so sums, for any worker count; frame j
    depends only on the seed, j, modes, eta, mean_photons and t_split.
    """
    n_chunks = -(-config.frames // CHUNK_FRAMES)
    per_block = _BLOCK_FRAMES // CHUNK_FRAMES
    buffers = _buffers(config, min(n_chunks, per_block) * CHUNK_FRAMES)

    def blocks():
        for first in range(0, n_chunks, per_block):
            record = _record(config, first, min(per_block, n_chunks - first), buffers)
            yield record[: config.frames - first * CHUNK_FRAMES].T

    sums = comoments(blocks())
    sums.flags.writeable = False
    return FrameBatch(config, sums)
