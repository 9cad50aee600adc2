"""Command-line harness: reproducible bench runs, correlation tables, sweeps.

Subcommands: ``tables`` (interference bench, in/out correlation table),
``erasure`` (polarization bench per analysis basis), ``sweep-discord``
(analytic output correlations against the input discord), and ``validate``
(invariant suite). Each bench or sweep command returns its CSV text; ``main``
commits it together with a JSON manifest holding the fully resolved
configuration, which is sufficient to reproduce the CSV byte-for-byte (see
``run_from_manifest``). Both files are renamed into place only once both
are written, so they change together or not at all. ``erasure`` reads one
analyzer of ``speckle.ANALYZERS``, or all of them.

Five of validate's checks are also acceptance criteria, which the
acceptance tests run through the same ``_check_*`` functions on their own
draws: identity-interference (C01), three-mode-output-blocks (C02),
discord-closed-form-vs-oracle (C03; both discord read-outs measure the second
mode, so odd members are measured as ``partial_trace(pair, (1, 0))``),
entropy-identities (C04a) and mc-vs-analytic-correlations (C08).

Config files are flat ``key = value`` text with ``[source]``, ``[bench]``,
``[analysis]`` and ``[sweep]`` sections; every key has a default matching the
ideal balanced bench (100 modes, 1e5 frames, unit mean intensity, tau = 1/2,
t = 1/2, eta = 1, seed 42, 99% confidence level). Each setting is declared
once, in ``_SETTINGS``, with its type, default, flag and rule; the ``[source]``
and ``[bench]`` keys are exactly the fields of ``speckle.BenchConfig``, and the
mixer's transmissivity, ``[analysis] tau_mix``, is read out of a run beside
the analyzer and the confidence level. A command takes flags only for the
settings it reads, so ``sweep-discord`` takes just ``--tau`` and
``--t-split``, and refuses the flag of the setting it sweeps.

Each value is checked on its own in one place, ``_typed``, against its rule
in ``_SETTINGS`` and, for a bench setting without one, against
``BenchConfig``'s. Each ``run_*`` command passes its config through it before
anything runs, whether the config comes from ``load_config``, from ``main``
(a config file's text with the command's flags laid over it, so a flag may
replace a bad value of the file), from a manifest (``run_from_manifest``) or
from a caller who edited it. It refuses a value that fails its rule as
``[section] key must <rule>, got <value>``, so a command also refuses a bad
value of a setting it does not read, since its manifest records every
setting. ``run_sweep_discord`` adds the rules across settings: its photon
grid's ends, and each swept tau, judged by the rule of the setting it sets.
``main`` and a replay refuse an output path that no write can reach, also
before the run.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .info import discord_oracle, entropy, gaussian_discord, mutual_information
from .network import bs_symplectic, interfere, prepare_discordant_pair
from .speckle import ANALYZERS, SAMPLER, BenchConfig, run_bench
from .states import (
    GaussianState,
    PhysicalityError,
    SingleModeSpec,
    apply_symplectic,
    mode_block,
    partial_trace,
    single_mode_state,
    symplectic_eigenvalues,
    tensor,
    thermal_state,
)
from .stats import cm_to_intensity_corr, confidence_interval

__all__ = [
    "DEFAULTS",
    "V_BASIS_WARNING",
    "load_config",
    "run_tables",
    "run_erasure",
    "run_sweep_discord",
    "run_validate",
    "run_from_manifest",
    "main",
]

#: largest source photon number a sweep may reach. Beyond it the closed-form
#: discord, whose invariants cancel at scale N^4, loses its printed digits
#: (its error grows as N^2 times machine epsilon: 2.3e-2 nats at 1e7)
SWEEP_N_MAX = 1e7


def _interval(low, high, brackets: str = "[]") -> tuple:
    """The rule that a value lie between ``low`` and ``high``, each end admitted
    where its bracket is square: (its phrase, its test); a NaN fails every test."""
    opening, closing = brackets

    def fits(v):
        above = low < v or opening == "[" and v == low
        return above and (v < high or closing == "]" and v == high)

    return f"lie in {opening}{low:g}, {high:g}{closing}", fits


def _at_least(low: int) -> tuple:
    return f"be at least {low}", lambda v: v >= low


def _one_of(*values: str) -> tuple:
    return f"be {', '.join(values[:-1])} or {values[-1]}", values.__contains__


#: every setting once: (section, key, type, default, flag, rule). The [source]
#: and [bench] keys are the fields of ``BenchConfig``; a flag overrides its key
#: on the commands that read it, and a key without one is set by config file
#: only. A rule is (what a value must do, its test), and ``_typed`` refuses every
#: value that fails it. A [source] or [bench] key has one only where the tables
#: ask more than ``BenchConfig``, whose own rules ``_typed`` applies to the rest
_SETTINGS = (
    ("source", "mean_photons", float, "1.0", None, None),
    # a t_split of 0 or 1 leaves beam 2 or beam 3 dark, so no correlation with it is defined
    ("source", "t_split", float, "0.5", "--t-split", _interval(0, 1, "()")),
    ("bench", "modes", int, "100", "--modes", None),
    # a Fisher z interval needs 4 frames and a level in (0, 1) (``confidence_interval``)
    ("bench", "frames", int, "100000", "--frames", _at_least(4)),
    ("bench", "eta", float, "1.0", "--eta", None),
    ("bench", "seed", int, "42", "--seed", None),
    ("bench", "workers", int, "1", "--workers", None),
    ("analysis", "ci_level", float, "0.99", "--ci-level", _interval(0, 1, "()")),
    ("analysis", "basis", str, "all", "--basis", _one_of(*ANALYZERS, "all")),
    ("analysis", "tau_mix", float, "0.5", "--tau", _interval(0, 1)),
    ("sweep", "n_source_min", float, "0.02", None, _interval(0, np.inf, "()")),
    ("sweep", "n_source_max", float, "50.0", None, _interval(0, SWEEP_N_MAX, "(]")),
    ("sweep", "n_points", int, "50", None, _at_least(2)),
    ("sweep", "taus", str, "0.15,0.5,0.85", None, (
        "name at least one transmissivity", lambda v: any(map(str.strip, v.split(",")))
    )),
    ("sweep", "sweep_param", str, "tau_mix", None, _one_of("tau_mix", "t_split")),
)

#: section -> key -> default text, read off ``_SETTINGS``
DEFAULTS = {
    section: {key: default for s, key, _, default, *_ in _SETTINGS if s == section}
    for section in dict.fromkeys(s for s, *_ in _SETTINGS)
}

#: printed whenever the erasure bench is analyzed in the V basis
V_BASIS_WARNING = (
    "basis=V emits this model's prediction: all three pairs near-perfectly "
    "correlated. A reference pattern with c12 ~ 1 and c23 ~ 1 but c13 ~ 0 "
    "cannot arise from any single fixed per-beam projection (near-perfect "
    "correlation is transitive), so such a pattern is not reproduced here."
)

_PAIRS = ((0, 1, "1-2"), (0, 2, "1-3"), (1, 2, "2-3"))

#: what decides a manifest's CSV bytes besides its config, each written by
#: ``main`` and checked by a replay: the cvbench version, which fixes every
#: formula and format; numpy's, since the Philox keys, the SFC64 draws and the
#: Gamma and normal samplers depend on it (NEP 19); and how the bench draws its
#: frames, so a manifest of another sampler is refused
_PROVENANCE = {"version": __version__, "numpy_version": np.__version__, "sampler": SAMPLER}


class ConfigError(ValueError):
    """Bad configuration file or value."""


def _typed(raw) -> dict:
    """Type and check a section -> key -> value mapping holding every key of ``_SETTINGS``.

    Values are typed from their text, so a manifest's ``"frames": "300"`` and
    a config file's ``frames = 300`` both give the int 300, while ``300.5``
    is rejected rather than truncated. A value that fails its rule, or the
    rule of ``BenchConfig``, is refused as ``[section] key must <rule>, got <value>``.
    """
    if not isinstance(raw, dict) or not all(isinstance(keys, dict) for keys in raw.values()):
        raise ConfigError("config must map each section to its keys")
    for section, keys in raw.items():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key in keys:
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
    cfg: dict = {}
    for section, key, typ, _, _, rule in _SETTINGS:
        try:
            value = raw[section][key]
        except KeyError:
            raise ConfigError(f"missing config key [{section}] {key}") from None
        try:
            typed = typ(str(value))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: cannot parse {value!r} as {typ.__name__}") from exc
        if rule is not None and not rule[1](typed):
            raise ConfigError(f"[{section}] {key} must {rule[0]}, got {typed!r}")
        cfg.setdefault(section, {})[key] = typed
    try:
        BenchConfig(**cfg["source"], **cfg["bench"])
    except ValueError as exc:  # "<key> must <rule>, got <value>"
        section = "source" if str(exc).split()[0] in cfg["source"] else "bench"
        raise ConfigError(f"[{section}] {exc}") from None
    return cfg


def load_config(path: str | Path | None = None) -> dict:
    """Defaults overlaid with an optional config file's sections; values are typed and checked."""
    return _typed(_config_text(path))


def _config_text(path: str | Path | None) -> dict:
    """Defaults overlaid with an optional config file's sections, as text.

    configparser copies the keys of a ``[DEFAULT]`` section into every
    section, so one that sets a key is refused by name rather than have each
    of its keys blamed on the first section it reaches.
    """
    raw = {section: dict(keys) for section, keys in DEFAULTS.items()}
    if path is not None:
        # values are literal text: % has no meaning, and no key refers to another
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                parser.read_file(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8 text: {exc}") from exc
        except configparser.Error as exc:
            # configparser messages carry the offending line numbers
            raise ConfigError(f"config parse error: {exc}") from exc
        if parser.defaults():
            raise ConfigError(f"unknown config section [{parser.default_section}]")
        for section in parser.sections():
            raw.setdefault(section, {}).update(parser[section])
    return raw


def _require_writable(out_path: Path) -> None:
    """Refuse a path that no write can reach, before the run, naming the path
    and not the temporary file that ``_commit`` would fail on."""
    if not out_path.parent.is_dir():
        raise ConfigError(f"cannot write {out_path}: {out_path.parent} is not a directory")
    if out_path.is_dir():
        raise ConfigError(f"cannot write {out_path}: it is a directory")


def _commit(files: dict[Path, str]) -> None:
    """Write each path -> text of ``files`` to a temporary file beside its path,
    then rename every temporary file over its path.

    The renames start only once every write has succeeded, so a CSV and its
    manifest change together or not at all: a failed write leaves each earlier
    file whole and removes the temporary files.
    """
    tmps = [path.with_name(f"{path.name}.{os.getpid()}.tmp") for path in files]
    try:
        for tmp, text in zip(tmps, files.values()):
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
        for tmp, path in zip(tmps, files):
            os.replace(tmp, path)
    except BaseException:
        for tmp in tmps:
            tmp.unlink(missing_ok=True)
        raise


def _estimate(batch, a, b, level: float) -> tuple:
    """(c, ci_lo, ci_hi): the correlation of two read-outs and its confidence interval."""
    c = batch.corr(a, b)
    return c, *confidence_interval(c, batch.n_frames, level)


def run_tables(cfg: dict) -> str:
    """Interference bench CSV: one row per beam pair with in/out correlations and CIs.

    Like each command, it checks ``cfg`` through ``_typed`` before it runs.
    """
    cfg = _typed(cfg)
    batch = run_bench(BenchConfig(**cfg["source"], **cfg["bench"]))
    level, tau = cfg["analysis"]["ci_level"], cfg["analysis"]["tau_mix"]
    lines = ["pair,c_in,ci_in_lo,ci_in_hi,c_out,ci_out_lo,ci_out_hi"]
    out = [batch.out_weights(beam, tau=tau) for beam in range(3)]
    for i, j, label in _PAIRS:
        c_in = _estimate(batch, batch.in_weights(i), batch.in_weights(j), level)
        c_out = _estimate(batch, out[i], out[j], level)
        lines.append(("%s" + ",%.6f" * 6) % (label, *c_in, *c_out))
    return "\n".join(lines) + "\n"


def run_erasure(cfg: dict) -> str:
    """Erasure bench CSV: out-correlations per analysis basis, one row per pair.

    basis 'none' (no polarizers) reports only the 1-2 pair, whose beams leave
    the BS with orthogonal polarizations and identical total intensities.
    """
    cfg = _typed(cfg)
    basis = cfg["analysis"]["basis"]
    bases = tuple(ANALYZERS) if basis == "all" else (basis,)
    level, tau = cfg["analysis"]["ci_level"], cfg["analysis"]["tau_mix"]
    # one run detects every analyzer; each basis is a read-out of the same frames,
    # and every correlation is read off the run's one co-moment matrix
    batch = run_bench(BenchConfig(**cfg["source"], **cfg["bench"]))
    lines = ["basis,pair,c_out,ci_lo,ci_hi"]
    for basis in bases:
        if basis == "V":
            print(f"warning: {V_BASIS_WARNING}", file=sys.stderr)
        out = [batch.out_weights(beam, basis, "erasure", tau) for beam in range(3)]
        for i, j, label in _PAIRS if basis != "none" else _PAIRS[:1]:
            c = _estimate(batch, out[i], out[j], level)
            lines.append("%s,%s,%.6f,%.6f,%.6f" % (basis, label, *c))
    return "\n".join(lines) + "\n"


def run_sweep_discord(cfg: dict) -> str:
    """Analytic sweep CSV: input discord of the 2-3 pair versus output correlations.

    One series per value in ``taus``, interpreted as the mixing transmissivity
    (sweep_param = tau_mix) or as the splitting used to prepare the pair
    (sweep_param = t_split), all in one stacked pass over the axes (tau,
    point). Each point's pair is split off its source once: its discord is
    read off it, and ``interfere`` mixes its near arm with a probe identical
    to that arm. Correlations use the photon-counting variance: with the analog
    (classical) variance every split-thermal pair has intensity correlation
    exactly 1 and the curves would degenerate. ``cfg`` is checked setting by
    setting (``_typed``), and then by the rules across settings, so a tau
    that fails the rule of the setting it sets (a t_split of 0 or 1 leaves
    beam 2 or beam 3 dark) and a photon grid with ``n_source_min`` not below
    ``n_source_max`` raise ``ConfigError`` before any series is computed.
    """
    cfg = _typed(cfg)
    sweep = cfg["sweep"]
    taus = []
    for text in filter(str.strip, sweep["taus"].split(",")):
        try:
            taus.append(float(text))
        except ValueError as exc:
            raise ConfigError(f"[sweep] taus: cannot parse {text.strip()!r} as float") from exc
    low, high = sweep["n_source_min"], sweep["n_source_max"]
    if not low < high:
        raise ConfigError(f"[sweep] n_source_min must lie below n_source_max {high!r}, got {low!r}")
    swept = sweep["sweep_param"]
    section, _, _, _, _, (must, fits) = next(row for row in _SETTINGS if row[1] == swept)
    for tau in taus:
        if not fits(tau):
            raise ConfigError(f"sweep tau {tau!r} sets [{section}] {swept}, which must {must}")
    t_split, tau_mix = cfg["source"]["t_split"], cfg["analysis"]["tau_mix"]
    tau_axis = np.array(taus)[:, None]  # a column against the photon grid: axes (tau, point)
    if swept == "t_split":
        t_split = tau_axis
    else:
        tau_mix = tau_axis
    grid = np.geomspace(low, high, sweep["n_points"])
    try:
        pair = prepare_discordant_pair(SingleModeSpec(grid), t_split)
        _, out_state = interfere(pair, tau_mix)
        disc = gaussian_discord(pair)
        c13 = cm_to_intensity_corr(out_state, 0, 2, shot_noise=True)
        c23 = cm_to_intensity_corr(out_state, 1, 2, shot_noise=True)
    except (ArithmeticError, ValueError) as exc:
        if getattr(exc, "member", None) is None:
            raise
        i, j = (0, *exc.member)[-2:]  # (tau, point), or a point of a tau_mix sweep's pair
        raise type(exc)(f"{exc} at tau {taus[i]:g}, n_source {grid[j]:g}") from exc
    # rows run over the axes (tau, point); each tau and each n_source is formatted
    # once, so a row formats only its three computed columns
    n_text = ["%.6f," % n for n in grid.tolist()]
    axes = [tau_text + n for tau_text in ("%.6f," % tau for tau in taus) for n in n_text]
    shape = (len(taus), grid.size)
    columns = (np.broadcast_to(c, shape).ravel().tolist() for c in (disc, c13, c23))
    lines = ["tau,n_source,discord,c13_out,c23_out"]
    lines.extend("%s%.6f,%.6f,%.6f" % row for row in zip(axes, *columns))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# validation suite
#
# Each check takes the states or configs it checks and returns (what it
# measured and where its worst value lies, that value, its bound);
# ``run_validate`` alone compares the two. A check with a C number in its
# docstring is also that acceptance criterion.


def _sources(seed: int, count: int, low: tuple, high: tuple) -> tuple:
    """``count`` uniform draws of each range [low, high) from ``seed``: the
    first two ranges as a source (n_tot, beta), each further one as an array."""
    n_tot, beta, *rest = np.random.default_rng(seed).uniform(low, high, (count, len(low))).T
    return (SingleModeSpec(n_tot, beta), *rest)


def _check_physicality() -> tuple:
    thermal_state(1.0)  # accepts a physical state
    accepted = 0
    # variance 0.4 < 1/2, and a negative-definite CM, whose symplectic spectrum is 1
    for cm in (np.diag([0.4, 0.4]), -np.eye(2)):
        try:
            GaussianState(cm)
        except PhysicalityError:
            continue
        accepted += 1
    return "corrupted CMs accepted", float(accepted), 0.0


def _check_purity_identity(spec: SingleModeSpec) -> tuple:
    # the symplectic spectrum of the built state, not the f- single_mode_cm takes from the identity
    nu = symplectic_eigenvalues(single_mode_state(spec))[:, 0]
    expected = (0.5 + spec.n_thermal) ** 2
    err = np.abs(nu**2 - expected) / np.maximum(1.0, expected)
    i = int(np.argmax(err))  # argmax picks a NaN first, and a NaN fails
    where = f"at n_tot {spec.n_tot[i]:.3g}, beta {spec.beta[i]:.3g}"
    return f"relative error of nu^2 {where}", err[i], 1e-10


def _check_identity_interference(state: GaussianState) -> tuple:
    """C01: two copies of each single-mode member of ``state`` leave a BS unchanged."""
    pairs = tensor([state, state])
    taus = np.array([0.15, 0.5, 0.85])
    # neither a correlation nor a marginal may change: one congruence over the axes (tau, member)
    out = apply_symplectic(pairs, bs_symplectic(taus[:, None]))
    change = np.abs(out.cm - pairs.cm).max(axis=(1, 2, 3))
    i = int(np.argmax(change))
    return f"change of the pair at tau {taus[i]:g}", change[i], 1e-12


def _check_output_blocks(source: SingleModeSpec, t_split, tau) -> tuple:
    """C02: the pair split off ``source`` at ``t_split``, its mode 2 mixed with a
    probe identical to it at ``tau``, shows its correlation in the output blocks."""
    state_in, out = interfere(prepare_discordant_pair(source, t_split), tau)
    delta = mode_block(state_in, 1, 2)  # modes 2 and 3 are the discordant pair
    # the output blocks 1-2, 1-3 and 2-3 are 0, sqrt(1 - tau) and sqrt(tau) times it
    weights = np.stack([0.0 * tau, np.sqrt(1.0 - tau), np.sqrt(tau)])[..., None, None]
    blocks = np.stack([mode_block(out, i, j) for i, j, _ in _PAIRS])
    err = np.abs(blocks - weights * delta).max(axis=(1, 2, 3))
    i = int(np.argmax(err))
    return f"error of output block {_PAIRS[i][2]}", err[i], 1e-12


def _check_discord_oracle(stack: GaussianState) -> tuple:
    """C03: the closed-form discord of each two-mode member of ``stack`` against
    the oracle's, measured on side B for even members and on side A for odd ones."""
    # side A is side B of the pair with its modes swapped, so one stacked call
    # of each method measures both sides, every member with the bits of its own call
    cm = stack.cm.copy()
    cm[1::2] = partial_trace(stack, (1, 0)).cm[1::2]
    stack = GaussianState(cm)
    err = np.abs(gaussian_discord(stack) - discord_oracle(stack).value)
    i = int(np.argmax(err))
    return f"|closed form - oracle| at member {i}", err[i], 1e-6


def _check_entropy_identities(n: np.ndarray) -> tuple:
    """C04a: the entropy of thermal states of ``n`` photons is g(n), and the
    balanced split of a thermal(2) source has mutual information 2 g(1) - g(2)."""
    # two bounds, so each error is read as a fraction of its own
    thermal = entropy(thermal_state(n)) - ((n + 1.0) * np.log(n + 1.0) - n * np.log(n))
    mi = mutual_information(prepare_discordant_pair(SingleModeSpec(2.0), 0.5))
    split = mi - 3.0 * np.log(4.0 / 3.0)  # 2 g(1) - g(2)
    errors = np.abs(np.append(thermal / 1e-12, split / 1e-9))
    i = int(np.argmax(errors))
    where = f"thermal entropy at N {n[i]:g}" if i < n.size else "split-thermal mutual information"
    return f"error / bound of the {where}", errors[i], 1.0


def _check_mc_against_cm(runs) -> tuple:
    """C08: the out-correlations 1-3 and 2-3 of a bench run of each (config, tau),
    read out at tau, against the CM prediction of its protocol, in standard
    errors. The CM protocol has no mode mismatch, so each config must have eta 1."""
    z = []  # |MC - CM| in standard errors, per run for the pairs 1-3 and 2-3
    for config, tau in runs:
        batch = run_bench(config)
        # the source is split brighter by 1 / t_split, so that beam 2 carries the mean photons
        source = SingleModeSpec(config.mean_photons / config.t_split)
        _, out_state = interfere(prepare_discordant_pair(source, config.t_split), tau)
        for i, j, _ in _PAIRS[1:]:
            c_mc = batch.corr(batch.out_weights(i, tau=tau), batch.out_weights(j, tau=tau))
            c_cm = cm_to_intensity_corr(out_state, i, j)
            z.append(abs(c_mc - c_cm) / ((1.0 - c_cm**2) / np.sqrt(config.frames - 3)))
    k = int(np.argmax(z))
    return f"|MC - CM| in SEs at pair {_PAIRS[1 + k % 2][2]}", z[k], 3.0


#: (name, the check on validate's inputs, full or with --quick)
_CHECKS = (
    ("physicality-gate", lambda quick: _check_physicality()),
    ("purity-identity", lambda quick: _check_purity_identity(
        *_sources(1, 100 if quick else 500, (0.0, 0.0), (8.0, 1.0))
    )),
    ("identity-interference", lambda quick: _check_identity_interference(
        single_mode_state(*_sources(2, 20 if quick else 60, (0.0, 0.0), (4.0, 1.0)))
    )),
    ("three-mode-output-blocks", lambda quick: _check_output_blocks(
        *_sources(3, 10 if quick else 30, (0.3, 0.0, 0.15, 0.1), (4.0, 0.9, 0.85, 0.9))
    )),
    ("discord-closed-form-vs-oracle", lambda quick: _check_discord_oracle(
        prepare_discordant_pair(*_sources(4, 3 if quick else 10, (0.3, 0.0, 0.2), (3.0, 0.8, 0.8)))
    )),
    ("entropy-identities", lambda quick: _check_entropy_identities(np.array([0.1, 1.0, 10.0]))),
    ("mc-vs-analytic-correlations", lambda quick: _check_mc_against_cm(
        [(BenchConfig(modes=64, frames=2_000 if quick else 20_000, mean_photons=1.0, seed=11), 0.5)]
    )),
)


def run_validate(quick: bool = False) -> int:
    """Run the invariant suite, print one line per check, return the exit code.

    Each line reads ``PASS <name>: <what> <worst> (bound <bound>)``, or FAIL
    unless worst <= bound (so a NaN fails). A check that raises prints
    ``FAIL <name>: <message>``, and the others still run.
    """
    failures = 0
    for name, check in _CHECKS:
        try:
            what, worst, bound = check(quick)
        except Exception as exc:  # a failing check must not stop the others
            passed, line = False, str(exc) or type(exc).__name__
        else:
            passed, line = worst <= bound, f"{what} {worst:.3g} (bound {bound:g})"
        print(f"{'PASS' if passed else 'FAIL'} {name}: {line}")
        failures += not passed
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# argument handling


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a rejected command line as one ``error:`` line and exit code 2.

    Subparsers are built from the same class, so unknown flags (rejected by the
    top-level parser) and bad values (rejected by a subcommand) read alike.
    """

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


#: flags of the commands that run the bench
_BENCH_FLAGS = (
    "--t-split", "--modes", "--frames", "--tau", "--eta", "--seed", "--workers", "--ci-level",
)

#: command -> (help, function, flags of the settings it reads)
_COMMANDS = {
    "tables": ("interference bench correlation table (CSV)", run_tables, _BENCH_FLAGS),
    "erasure": (
        "polarization-erasure bench per analysis basis (CSV)",
        run_erasure,
        _BENCH_FLAGS + ("--basis",),
    ),
    "sweep-discord": (
        "analytic output correlations vs input discord (CSV)",
        run_sweep_discord,
        ("--tau", "--t-split"),
    ),
}


def _add_flags(sub: argparse.ArgumentParser, flags: tuple) -> None:
    sub.add_argument("--config", metavar="FILE", help="config file (key = value with sections)")
    sub.add_argument("--out", metavar="PATH", help="output CSV path")
    for section, key, typ, _, flag, _ in _SETTINGS:
        if flag in flags:
            sub.add_argument(flag, type=typ, dest=key, help=f"override [{section}] {key}")


def _resolve_config(args: argparse.Namespace) -> dict:
    """The config file's text overlaid with the command's flags, then typed and
    checked by ``_typed``, so a flag may replace a value that the file gets wrong."""
    raw = _config_text(args.config)
    for section, key, _, _, flag, _ in _SETTINGS:
        value = getattr(args, key, None)
        if value is None:
            continue
        if args.command == "sweep-discord" and key == raw["sweep"]["sweep_param"]:
            raise ConfigError(f"{flag} sets {key}, which this sweep takes from [sweep] taus")
        raw[section][key] = value
    return _typed(raw)


def run_from_manifest(manifest_path: str | Path, out_path: str | Path | None = None) -> Path:
    """Re-run the command recorded in a manifest; reproduces its CSV byte-for-byte.

    Raises ``ConfigError`` when the manifest cannot be read, is not a JSON
    object, records a value of ``_PROVENANCE`` other than this replay's or
    none (another cvbench version, numpy version or bench sampler, any of
    which may give other bytes), names an unknown command, or (without
    ``out_path``) records no output, and, before the replay runs, when its
    output path is one that no write can reach or its config breaks a rule
    (the command checks it as it checks any config).
    """
    try:
        data = json.loads(Path(manifest_path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read manifest: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"manifest must be a JSON object, got {type(data).__name__}")
    for key, value in _PROVENANCE.items():
        if data.get(key) != value:
            raise ConfigError(
                f"manifest records {key} {data.get(key)!r}, but cvbench {__version__} "
                f"replays with {value!r}"
            )
    if data.get("command") not in _COMMANDS:
        raise ConfigError(f"manifest names unknown command {data.get('command')!r}")
    _, run, _ = _COMMANDS[data["command"]]
    if out_path is None:
        outputs = data.get("outputs")
        if not isinstance(outputs, list) or not outputs or not isinstance(outputs[0], str):
            raise ConfigError("manifest records no output path and none was given")
        out_path = outputs[0]
    out_path = Path(out_path)
    _require_writable(out_path)
    _commit({out_path: run(data.get("config"))})
    return out_path


@functools.cache
def _parser() -> _ArgumentParser:
    """The command line's parser, built on the first ``main`` call of a process.

    A parse leaves the parser as it found it (each call gets a new namespace),
    so every later call reuses it; ``main`` still looks up the command's
    function in ``_COMMANDS`` at call time.
    """
    parser = _ArgumentParser(
        prog="cvbench",
        description="Virtual optical bench: correlation tables, discord sweeps, validation.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (desc, _, flags) in _COMMANDS.items():
        _add_flags(sub.add_parser(name, help=desc), flags)
    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--quick", action="store_true", help="reduced-size checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line and return its exit code; the parser is built once per process."""
    args = _parser().parse_args(argv)
    if args.command == "validate":
        return run_validate(quick=args.quick)

    out_path = Path(args.out) if args.out else Path(f"{args.command.replace('-', '_')}.csv")
    _, run, _ = _COMMANDS[args.command]
    try:
        _require_writable(out_path)
        cfg = _resolve_config(args)
        started = time.perf_counter()
        csv = run(cfg)
        manifest = {
            "command": args.command,
            **_PROVENANCE,
            "seed": cfg["bench"]["seed"],
            "config": cfg,
            "outputs": [str(out_path)],
            "duration_s": round(time.perf_counter() - started, 3),
            "created_utc": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime()),
        }
        _commit({
            out_path: csv,
            out_path.with_suffix(out_path.suffix + ".manifest.json"):
                json.dumps(manifest, indent=2, sort_keys=True) + "\n",
        })
    except (ConfigError, ValueError, OSError, MemoryError, ArithmeticError) as exc:
        # OSError: an unwritable output path, e.g. a missing directory;
        # MemoryError: a sweep grid too large to allocate (a bench run streams
        # its frames through a fixed block, so no frame count allocates with it);
        # ArithmeticError: a value the engine cannot evaluate to its tolerance
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
