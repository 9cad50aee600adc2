"""Spans around cvbench's layer boundaries, for the traced benchmark run.

``Tracer.run()`` replaces every module binding of each traced function (the
CLI and the network module import ``run_bench``, ``corr_coeff``,
``apply_symplectic`` and others by name, so patching the defining module alone
would miss those calls), records one span per call, and restores every
original binding when the block ends, also on error. Spans stay in memory and
are written out by the caller at the end.

Besides spans it counts the RNG streams the speckle bench opens and the
Philox blocks they consume, keeps the ``BenchConfig`` of every ``run_bench``
call, and counts the discord oracle's non-convergence warnings.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import threading
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass

import cvbench.states

#: traced functions per cvbench module; each is one layer boundary
TRACED = {
    "speckle": ("run_bench",),
    "stats": ("corr_coeff", "confidence_interval", "cm_to_intensity_corr"),
    "states": ("omega", "apply_symplectic", "tensor"),
    "network": ("prepare_discordant_pair", "run_three_mode", "mix_two"),
    "info": ("gaussian_discord", "discord_oracle", "entropy"),
    "cli": ("main",),
}


@dataclass(frozen=True)
class Span:
    """One traced call: ``parent`` is the id of the enclosing span on its thread."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for lo, hi in sorted(children[span.id]):
            lo, hi = max(lo, cursor), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span.id] = (span.end - span.start) - covered
    return result


def _philox_counter(generator) -> int:
    words = generator.bit_generator.state["state"]["counter"]
    return sum(int(word) << (64 * i) for i, word in enumerate(words))


class Tracer:
    """Collects spans and counters over any number of traced runs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.rng_streams = 0
        self.rng_blocks = 0
        self.oracle_unsettled = 0
        self.bench_configs = []
        self._generators = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _spanned(self, name: str, fn):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.run_id))

        return wrapper

    def _wrappers(self, fn_name: str, fn):
        if fn_name == "run_bench":

            def run_bench(config):
                self.bench_configs.append(config)
                return fn(config)

            return run_bench
        if fn_name == "discord_oracle":

            def discord_oracle(*args, **kwargs):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    result = fn(*args, **kwargs)
                for w in caught:
                    if issubclass(w.category, RuntimeWarning) and "did not settle" in str(w.message):
                        self.oracle_unsettled += 1
                    warnings.showwarning(w.message, w.category, w.filename, w.lineno)
                return result

            return discord_oracle
        return fn

    def _chunk_rng(self, fn):
        # called from the bench's worker threads: list.append is atomic, and
        # the count is taken from the list length after the run
        def chunk_rng(seed, beam, chunk):
            generator = fn(seed, beam, chunk)
            self._generators.append((generator, _philox_counter(generator)))
            return generator

        return chunk_rng

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cvbench" and not mod_name.startswith("cvbench."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, replacement)

    def _install(self) -> None:
        for short, names in TRACED.items():
            module = sys.modules[f"cvbench.{short}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                inner = self._wrappers(fn_name, original)
                self._replace_everywhere(original, self._spanned(f"{short}.{fn_name}", inner))
        speckle = sys.modules["cvbench.speckle"]
        self._replace_everywhere(speckle.chunk_rng, self._chunk_rng(speckle.chunk_rng))
        init = cvbench.states.GaussianState.__init__
        self._patches.append((cvbench.states.GaussianState, "__init__", init))
        cvbench.states.GaussianState.__init__ = self._spanned("states.GaussianState", init)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def run(self):
        """Trace the calls made inside the block as one run; yields its run id.

        Counters (``rng_streams``, ``rng_blocks``, ``oracle_unsettled``,
        ``bench_configs``) are reset at entry and describe this run at exit.
        """
        import cvbench.cli  # noqa: F401  every traced module must be loaded

        self.run_id += 1
        self._reset_counters()
        try:
            self._install()
            yield self.run_id
        finally:
            self._restore()
            self.rng_streams = len(self._generators)
            self.rng_blocks = sum(_philox_counter(g) - c0 for g, c0 in self._generators)
            self._generators = []

    def summary(self, run_id: int) -> dict[str, tuple[int, float]]:
        """Per span name of one run: (number of calls, total self time in s)."""
        spans = [s for s in self.spans if s.run_id == run_id]
        own = self_times(spans)
        out: dict[str, tuple[int, float]] = {}
        for span in spans:
            calls, self_s = out.get(span.name, (0, 0.0))
            out[span.name] = (calls + 1, self_s + own[span.id])
        return out
