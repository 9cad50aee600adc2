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
scenario, tau)`` forms them through the analyzer's intensity projector
(``ANALYZERS``) and the BS rows at the mixer's transmissivity tau, which is
no setting of the run either: one run reads every tau. Every correlation of
two read-outs, in-intensities included, is a second moment, so a run's datum
is the record's 5x5 centred sums of products. Each record column is one
unscaled row that the run draws times one scale, which ``mean_photons`` and
``t_split`` set at every eta: without mode mismatch (eta = 1) three Bartlett
rows carry all five columns, and otherwise each column is its own row, a sum
of draws. So a source's scales move no correlation. ``run_bench`` folds the rows it draws
(``stats.comoments``), through one reusable block of ``stats._BLOCK_FRAMES``
frames reduced while in cache, and scales their sums into the record's:
entry (i, j) is s_i s_j times the rows' entry (r_i, r_j) for columns
i = (r_i, s_i). It keeps only the sums, so its memory does not
grow with frames, and ``FrameBatch.corr`` reads any correlation off them. A
caller that needs a series itself reads ``FrameBatch.record``, redrawn on
demand with the same bits, times the weights (``out_series``), summed column
by column, so that a frame's value depends on its own record row alone,
whatever the record's memory layout.

``run_bench`` does not draw fields. The five numbers it records per frame
are entries of Gram matrices of independent unit-variance mode amplitudes,
which follow complex Wishart laws, so it samples them directly by the
Bartlett decomposition (Goodman 1963, Ann. Math. Stat. 34:152): a fixed
number of Gamma and normal draws per frame, whatever the mode count. Only
Re x.y* of each 2x2 Wishart block is recorded, so Bartlett's unrecorded
normal folds into one Gamma draw (``_bartlett``): three draws per block and
frame.

Randomness is counter-based. Frames are grouped into fixed chunks of
``CHUNK_FRAMES``, one fold block each. Every row that chunk c draws
(``_rows``) has a fixed slot j of ``_ROW_SLOTS`` = 8 and its own SFC64
generator, seeded with words 0-2 of block 8c + j + 1 of the Philox stream
keyed by (seed, ``GRAM_STREAM``): ``chunk_rng(seed, GRAM_STREAM, 0)``
advanced by 8c + j blocks (``_row_keys``). The Philox block is a keyed
bijection of its counter, so no two rows' SFC64 seeds share structure, and
a run reads all its rows' keys from one stream in one call; SFC64 draws
Gamma and normal variates faster than Philox. The key is a row's only seed
material: each row's generator is opened afresh from it, and no OS entropy
is drawn. Gamma rejection takes a variable number of draws, so no generator
spans two rows: a row's first w values are the same bits whatever its
width, and a run draws exactly its frames, its last chunk only as far as
the run reaches. This keying is the reproducibility contract: any frame is
reproducible by regenerating its chunk alone (``chunk_record``), a run is a
prefix of any longer run, and the output cannot depend on
``BenchConfig.workers``, which is accepted and recorded for compatibility
while the sampler runs serially. The numbers for a given seed changed in
0.2.0, when this sampler replaced per-mode fields, in 0.3.0, when the fold
and chunks of 1,024 frames replaced four draws per block and chunks of 256
frames, in 0.4.0, when each chunk's draws moved from its Philox stream to
the SFC64 generator that stream seeds, in 0.5.0, when chunks grew to 2,048
frames and chunk c's key moved from the first block of its own Philox
stream (counter position c) to block c + 1 of one stream, and in 0.6.0,
when chunks grew to 8,192 frames, one fold block, and each row of a chunk
got its own generator, keyed by block 8c + j + 1 of that stream.

The beam-splitter convention is coded once, in ``network.bs_symplectic``; the
read-out takes its BS rows off that matrix once per tau (``_bs_rows``). The
per-mode field oracle against which the records are law-tested lives in
``tests/test_speckle.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .network import bs_symplectic
from .stats import _BLOCK_FRAMES, comoment_corr, comoments

#: frames per RNG chunk, one fold block of run_bench; part of the reproducibility contract
CHUNK_FRAMES = _BLOCK_FRAMES
#: row slots of a chunk, each keyed by its own Philox block (``_row_keys``)
_ROW_SLOTS = 8
#: what run_bench samples, and from which generators; a manifest records it and
#: a replay must match it
SAMPLER = "bartlett-gram-5"

#: (H, V) Jones vectors of beam 1 and of beams 2 and 3 per scenario; one bench, two presets
POLARIZATIONS = {"interference": ((1.0, 0.0), (1.0, 0.0)), "erasure": ((1.0, 0.0), (0.0, 1.0))}
#: intensity projector of each analyzer on (H, V) Jones vectors; 'none' detects both planes
ANALYZERS = {
    "none": np.eye(2),
    "deg45": np.full((2, 2), 0.5),
    "V": np.diag([0.0, 1.0]),
}

#: stream id keying the Philox stream whose block 8c + j + 1 seeds row slot j of
#: run_bench's chunk c; ids 1-4 key the per-beam field streams of the test oracle
#: (source 1, source 2, mix and split substitutes)
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

    Nothing here picks a polarization preset, an analyzer or the mixer's
    transmissivity tau; those are arguments of ``FrameBatch.out_weights``,
    since no draw depends on them. ``mean_photons`` is the per-mode
    mean intensity of every detected beam in the ideal configuration; the
    split source is drawn brighter by 1/t_split so that beam 2 matches beam 1.
    All modes of a beam share one mean, which is what makes the correlation
    coefficients independent of ``modes``. ``modes``, ``frames``, ``seed``
    and ``workers`` are Python or numpy integers, not bools; any other value,
    or one out of range, raises ``ValueError``.
    """

    modes: int = 100
    frames: int = 100_000
    mean_photons: float = 1.0
    t_split: float = 0.5
    eta: float = 1.0
    seed: int = 42
    workers: int = 1

    def __post_init__(self) -> None:
        for name in ("modes", "frames", "seed", "workers"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.modes < 1:
            raise ValueError(f"modes must be >= 1, got {self.modes!r}")
        if self.frames < 1:
            raise ValueError(f"frames must be >= 1, got {self.frames!r}")
        if not 0.0 < self.mean_photons < math.inf:
            raise ValueError(f"mean_photons must be finite and > 0, got {self.mean_photons!r}")
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
    read-out, an in-intensity or any beam of any preset behind any analyzer
    at any mixer transmissivity tau, is a fixed combination of these five
    columns, coded once as its weights (``in_weights``, ``out_weights``), so
    the batch holds no tau and one run reads every tau. ``sums`` is the
    read-only 5x5 matrix of centred sums of products of the record columns,
    which ``run_bench`` scales from the sums of the rows it draws, and
    ``corr`` reads the correlation of two read-outs off it without building
    either series. ``record`` itself is redrawn from the run's row streams
    on first read, each column one unscaled drawn row times its scale, and
    ``out_series`` is the record times the weights.
    """

    config: BenchConfig
    sums: np.ndarray

    @property
    def n_frames(self) -> int:
        return self.config.frames

    @cached_property
    def record(self) -> np.ndarray:
        """Read-only (frames, 5) record of the run, drawn on first read through its row streams.

        Under the row keying every frame's drawn rows have the bits that
        the run folded into ``sums``, and each column is one of them times
        its scale (``_columns``). It costs the run's draws again, and 40
        bytes a frame, beside one block of draws while it is built
        (``_record``).
        """
        record = _record(self.config, 0, self.config.frames)
        record.flags.writeable = False
        return record

    @property
    def intensities_in(self) -> np.ndarray:
        """(frames, 3) in-intensities of beams 1-3: a view of the record's first columns."""
        return self.record[:, :3]

    @property
    def intensities_out(self) -> np.ndarray:
        """(frames, 3) ``out_series`` of the interference preset behind no analyzer, at tau 1/2."""
        out = np.stack([self.out_series(beam) for beam in range(3)], axis=1)
        out.flags.writeable = False
        return out

    def in_weights(self, beam: int) -> np.ndarray:
        """(5,) weights of one beam's in-intensity over the record columns: a unit vector."""
        weights = np.zeros(5)
        weights[_checked_beam(beam)] = 1.0
        return weights

    def out_weights(
        self, beam: int, basis: str = "none", scenario: str = "interference", tau: float = 0.5
    ) -> np.ndarray:
        """(5,) weights of one beam's out-intensity of the ``scenario`` preset behind ``basis``.

        The record columns are the in-intensities of beams 1-3, then the two
        Gram columns. ``basis`` is a key of ``ANALYZERS`` and ``scenario``
        one of ``POLARIZATIONS``; any other value raises ``ValueError``, and
        so does a transmissivity ``tau`` outside [0, 1] (``bs_symplectic``'s).
        With P the analyzer's projector and e1, e2 the Jones vectors of beam
        1 and of beams 2-3, out-port p carries alpha a1 e1 + beta a2 e2,
        (alpha, beta) being row p of the BS matrix at tau (``_bs_rows``), and
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
            alpha, beta = _bs_rows(tau)[beam]
            u, v = alpha * e1, beta * e2
            weights[0], weights[3], weights[4] = u @ proj @ u, v @ proj @ v, 2.0 * (u @ proj @ v)
        return weights

    def out_series(
        self, beam: int, basis: str = "none", scenario: str = "interference", tau: float = 0.5
    ) -> np.ndarray:
        """Read-only out-intensities of one beam of the ``scenario`` preset behind ``basis``.

        ``record`` times ``out_weights`` at tau, summed as ``_read_out`` sums.
        """
        return _read_out(self.record, self.out_weights(beam, basis, scenario, tau))

    def corr(self, h: np.ndarray, k: np.ndarray) -> float:
        """Correlation coefficient of two read-outs given by their weights.

        ``h`` and ``k`` come from ``in_weights`` or ``out_weights``. The
        value is read off ``sums``, so neither series is built nor the
        record redrawn. It agrees with ``corr_coeff`` on the two series to
        within 1e-12 and raises the same ``ValueError`` for a read-out of
        zero variance or non-finite sums.
        """
        return comoment_corr(self.sums, h, k)


@cache
def _bs_rows(tau: float) -> np.ndarray:
    """2x2 BS matrix at transmissivity tau, shared by every read-out at that tau.

    The quadrature symplectic acts on (x, p) pairs alike, so its x rows are
    the BS matrix: a view of ``bs_symplectic``'s matrix, read-only as it is.
    """
    return bs_symplectic(tau).matrix[::2, ::2]


# the default tau's rows are read at import, so the first default read-out of a
# process builds no beam splitter that a later one skips
_bs_rows(0.5)


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
    """The seed sequence of one bit generator: a fixed tuple of uint64 words, and nothing else.

    A bit generator given a seed sequence reads its seed from the sequence's
    ``generate_state``: Philox asks for two uint64 words, its key (seed,
    stream id), and SFC64 for three, its seed. Asked for any other number of
    words or another dtype, it raises ``ValueError`` rather than hand over
    words that the generator did not ask for. numpy's ``Philox(key=...)``
    sets the same key but first builds a ``SeedSequence()`` from OS entropy
    and discards it, which cost more than half of opening a stream, and
    numpy's ``SFC64(seed)`` hashes its seed through a ``SeedSequence``. The
    class implements numpy's ``ISeedSequence`` (registered by
    ``_seed_interface``) and not its spawnable variant, so a row generator
    refuses to ``spawn`` with the ``TypeError`` of a keyed Philox. It is
    defined at module level so that a row generator, which holds it,
    pickles. It holds its words contiguous, a view of ``words`` if they
    already are: SFC64 reads its seed from the memory of the array it is
    given whatever the array's strides, so a strided view would seed it from
    other words.
    """

    __slots__ = ("words",)

    def __init__(self, words) -> None:
        self.words = np.ascontiguousarray(words, dtype=np.uint64)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != self.words.size or np.dtype(dtype) != np.uint64:
            raise ValueError(
                f"a key of {self.words.size} uint64 words cannot give {n_words} words "
                f"of {np.dtype(dtype)}"
            )
        return self.words


@cache
def _seed_interface() -> None:
    # at first use, not at import: importing numpy.random costs about 13 ms
    from numpy.random.bit_generator import ISeedSequence

    ISeedSequence.register(_StreamKey)


def chunk_rng(seed: int, stream: int, chunk: int) -> np.random.Generator:
    """Counter-based stream for one (stream id, chunk-of-frames) cell: the chunk's key.

    A fresh Philox with key (seed, stream) and counter (0, chunk, 0, 0) as
    uint64 words: the state of numpy's ``Philox(key=..., counter=...)``
    given those words. The key is the stream's only seed material: opening a
    stream draws no OS entropy. ``run_bench`` draws no frame from it, but
    reads the keys of its rows' SFC64 generators off the stream of chunk 0
    (``_row_keys``); the test oracle draws its fields from it directly.
    """
    _seed_interface()
    counter = np.array([0, chunk, 0, 0], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_StreamKey((seed, stream)), counter=counter))


def _row_keys(seed: int, first: int, n_chunks: int) -> np.ndarray:
    """(n_chunks, _ROW_SLOTS, 4) Philox blocks keying the rows of n_chunks chunks from ``first`` on.

    Chunk c's row in slot j (``_rows``) is keyed by block _ROW_SLOTS c + j + 1
    of the keyed Philox stream ``chunk_rng(seed, GRAM_STREAM, 0)``, which is
    that stream advanced by _ROW_SLOTS c + j blocks and read for one block.
    The stream is opened once per call, advanced by _ROW_SLOTS first blocks
    and read once for all the chunks' blocks, so a row's key does not depend
    on the chunks it is read with.
    """
    keys = chunk_rng(seed, GRAM_STREAM, 0).bit_generator.advance(_ROW_SLOTS * first)
    return keys.random_raw(4 * _ROW_SLOTS * n_chunks).reshape(n_chunks, _ROW_SLOTS, 4)


def _row_rng(key: np.ndarray) -> np.random.Generator:
    """The generator of one row of one chunk: SFC64 seeded, unhashed, with words 0-2 of its key."""
    return np.random.Generator(np.random.SFC64(_StreamKey(key[:3])))


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


def _buffers(config: BenchConfig, frames: int) -> np.ndarray:
    """Uninitialised rows of ``_rows`` for ``frames`` frames: B's 3, A's 5 if k > 0, a scratch row."""
    return np.empty((9 if _substituted(config) else 4, frames))


def _rows(config: BenchConfig, keys: np.ndarray, buffer: np.ndarray) -> tuple:
    """The unscaled rows of one chunk's frames, drawn into ``buffer`` from the chunk's row keys.

    With k = round((1 - eta) M) substituted modes, a frame's draws are B =
    W2(M - k) over (beam 1, source 2), A = W2(k) over (beam 1, mix
    substitute), three draws each (``_bartlett``), and two Gamma(k): source
    2 and the split substitute on the substituted modes. Each draw has its
    own row of ``buffer`` (from ``_buffers``, as wide as the chunk's frames
    it holds), in a fixed slot: B's Gamma(M - k), Gamma(M - k - 1/2) and
    normal in slots 0-2, then, if k > 0, A's Gamma(k), Gamma(k - 1/2) and
    normal and the two Gamma(k) in slots 3-7; the last row is scratch. The
    row in slot j is drawn from its own generator, ``_row_rng(keys[j])`` of
    the chunk's ``_row_keys``, so its first w frames are the same bits
    whatever the buffer's width: a short last chunk draws only the frames
    that a run keeps. B's rows are zeroed when M - k = 0, which draws none.
    The arithmetic then runs once over all rows, in place. At k = 0 the
    rows are B's three Bartlett rows (B_xx, B_yy, Re B_xy); at k > 0 they
    are the five sums of draws (A_xx + B_xx, G_s2 + B_yy, G_ss + B_yy, A_yy
    + B_yy, Re A_xy + Re B_xy). Each record column is one row times one
    scale (``_columns``). The rows are views of the buffer, which the next
    call with the same buffer overwrites.
    """
    k = _substituted(config)
    r = config.modes - k
    shapes = {}  # slot: Gamma shape, or None for a standard normal
    if r:
        shapes.update({0: r, 1: r - 0.5, 2: None})
    else:
        buffer[:3].fill(0.0)
    if k:
        shapes.update({3: k, 4: k - 0.5, 5: None, 6: k, 7: k})
    for slot, shape in shapes.items():
        rng = _row_rng(keys[slot])
        if shape is None:
            rng.standard_normal(out=buffer[slot])
        else:
            rng.standard_gamma(shape, out=buffer[slot])

    b_xx, b_yy, b_xy = _bartlett(buffer[:3], buffer[-1])
    if not k:
        return b_xx, b_yy, b_xy
    # A's cross term goes through B's spent normal row
    a_xx, a_yy, a_xy = _bartlett(buffer[3:6], buffer[2])
    g_s2, g_ss = buffer[6], buffer[7]
    b_xx += a_xx
    g_s2 += b_yy
    g_ss += b_yy
    a_yy += b_yy
    b_xy += a_xy
    return b_xx, g_s2, g_ss, a_yy, b_xy


def _chunk_rows(config: BenchConfig, first: int, frames: int):
    """Yield the rows of ``_rows`` chunk by chunk, for ``frames`` frames from chunk ``first`` on.

    Every row key is read at once (``_row_keys``), and every chunk is drawn
    into one buffer of at most ``CHUNK_FRAMES`` frames, so a yielded tuple
    is overwritten by the next. The last chunk is drawn only as far as the
    frames reach.
    """
    n_chunks = -(-frames // CHUNK_FRAMES)
    buffer = _buffers(config, min(frames, CHUNK_FRAMES))
    for c, keys in enumerate(_row_keys(config.seed, first, n_chunks)):
        yield _rows(config, keys, buffer[:, : frames - c * CHUNK_FRAMES])


def _columns(config: BenchConfig) -> tuple[tuple[int, float], ...]:
    """Each of the five record columns as (row of ``_rows``, scale).

    With m1 = mean_photons, t = t_split and m2 = m1 / t the scales are m1,
    t m2, (1 - t) m2, t m2 and sqrt(t m1 m2) at every eta. At k = 0 the
    columns read rows (0, 1, 1, 1, 2), at k > 0 each column its own row.
    """
    m1, t = config.mean_photons, config.t_split
    m2 = m1 / t
    scales = (m1, t * m2, (1.0 - t) * m2, t * m2, math.sqrt(t * m1 * m2))
    return tuple(zip(range(5) if _substituted(config) else (0, 1, 1, 1, 2), scales))


def _record(config: BenchConfig, first: int, frames: int) -> np.ndarray:
    """(frames, 5) record of ``frames`` frames from chunk ``first`` on, drawn chunk by chunk.

    Column c of each chunk is its row of ``_rows`` times its scale of
    ``_columns``, one multiply per column, so only one chunk's draws are
    held beside the record.
    """
    record = np.empty((5, frames))
    columns = _columns(config)
    for start, rows in zip(range(0, frames, CHUNK_FRAMES), _chunk_rows(config, first, frames)):
        for out, (row, scale) in zip(record[:, start : start + rows[0].size], columns):
            np.multiply(rows[row], scale, out=out)
    return record.T


def chunk_record(config: BenchConfig, chunk: int) -> np.ndarray:
    """(CHUNK_FRAMES, 5) record of the frames of one chunk, drawn alone.

    Bit-identical to rows chunk * CHUNK_FRAMES onward of the run's
    ``FrameBatch.record``, also for a run that ends inside the chunk.
    """
    return _record(config, chunk, CHUNK_FRAMES)


def run_bench(config: BenchConfig) -> FrameBatch:
    """Simulate the configured bench and reduce its five numbers per frame to their sums.

    Beam 1 is source 1; source 2 splits into beams 2 and 3 at t_split; beams
    1 and 2 mix at a beam splitter, while beam 3 is untouched by it. The
    pass records the three intensities before the beam splitter and the
    Gram matrix of its two inputs, which no preset, analyzer or
    transmissivity changes. Every detection is read off that record
    afterwards, by its weights (``FrameBatch.out_weights``), at any
    transmissivity: the interference preset puts beams 1-3 on
    H, so beams 1 and 2 interfere; erasure puts beam 1 on H and beams 2 and
    3 on V, so they do not.

    The draws stream: a chunk is one fold block of ``stats._BLOCK_FRAMES``
    frames, and each is drawn into one buffer (``_buffers``), allocated once
    per run, from row generators whose keys one Philox read gives for the
    whole run (``_row_keys``); each chunk's drawn rows (``_rows``) are
    folded into ``stats.comoments`` while they are in cache: three rows at
    eta = 1, five otherwise. The last chunk draws only the frames the run
    keeps (``_chunk_rows``). The rows' sums S then give the record's, sums[i, j]
    = s_i s_j S[r_i, r_j] for columns i = (r_i, s_i) of ``_columns``; a
    product that overflows is left to ``FrameBatch.corr`` to refuse. The batch keeps the 5x5 sums, so the
    run's memory does not grow with frames; ``FrameBatch.record`` redraws
    the record on demand. Fewer than two frames have no sums and raise
    ``ValueError``.

    Each record column is a sum of the draws of ``_rows`` times its scale
    of ``_columns``. Identical (seed, config) produce bit-identical records
    and sums for any worker count; frame j depends only on the seed, j,
    modes, eta, mean_photons and t_split.
    """
    row_sums = comoments(_chunk_rows(config, 0, config.frames))
    rows, scales = (np.array(x) for x in zip(*_columns(config)))
    # a source too bright for its sums is refused by comoment_corr, not here
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.multiply.outer(scales, scales) * row_sums[np.ix_(rows, rows)]
    sums.flags.writeable = False
    return FrameBatch(config, sums)
