"""Write the reference runs of cvbench into a directory.

Usage: python tools/reference_runs.py DIR

The runs are listed once, in ``RUNS``: five config files, then twelve
commands, each of which writes its CSV and manifest into DIR, and
``validate``, whose printed lines go to ``validate.out``. Every command runs
in this one process through ``cvbench.cli.main``, so the runs take a fraction
of a second, where an interpreter per command took seconds. They run on the
cvbench that Python imports: ``PYTHONPATH=src`` selects the repo's own.

DIR is made if it is missing; where DIR is a file or lies under one, the tool
prints one ``error:`` line and exits 2 before any run. The tool stops at the
first command that exits with a code other than 0, and exits with that code
after one ``error:`` line naming the command. Without DIR it prints one usage
line, writes nothing and exits 2.

``tools/reference.sha256`` records the sha256 of every CSV and of
``validate.out`` written here (a manifest holds times and paths, so none is
recorded). ``tests/test_tools.py::TestReferenceRuns`` reads the outputs of one
run of this tool: ``test_the_outputs_match_the_ledger`` compares them with the
ledger, ``test_each_manifest_replays_its_csv`` replays every manifest through
``cvbench.cli.run_from_manifest``, and
``test_the_outputs_do_not_depend_on_simd_dispatch`` compares them with a second
run on each dispatch axis, under ``NPY_DISABLE_CPU_FEATURES`` and under
``OPENBLAS_CORETYPE``.
"""

from __future__ import annotations

import contextlib
import sys
from pathlib import Path

#: (file in DIR, its text). A name ending in .cfg is a config file holding the
#: text. Any other name is the output of the cvbench command line that the text
#: gives, with {dir} standing for DIR: a CSV is written by the command's --out,
#: its manifest beside it, and validate.out holds validate's printed lines
RUNS = [
    ("scaled.cfg", "[source]\nmean_photons = 2.7\n"),
    ("bright.cfg", "[sweep]\nn_source_max = 1e7\n"),
    ("split.cfg", "[sweep]\nsweep_param = t_split\n"),
    ("clamp.cfg", "[sweep]\nsweep_param = t_split\ntaus = 1e-10\nn_source_max = 1e7\nn_points = 2000\n"),
    ("clamp2.cfg", "[sweep]\nsweep_param = t_split\ntaus = 0.3,1e-09\nn_source_max = 1e7\nn_points = 2000\n"),
    ("t.csv", "tables --frames 2000"),
    ("e.csv", "erasure --basis all --frames 2000"),
    # 49 chunks of 8,192 frames, each row keyed by its own block of one Philox
    # read and drawn by its own SFC64 through standard_gamma and standard_normal:
    # guards the sampler
    ("e4.csv", "erasure --basis all --modes 4 --frames 400000 --seed 1"),
    ("s.csv", "sweep-discord"),
    # the A block of mode mismatch (eta < 1), and W2(1) blocks, whose h is Gamma(1/2)
    ("m7.csv", "tables --modes 7 --eta 0.7 --frames 20000"),
    ("m1.csv", "tables --modes 1 --frames 20000"),
    # scales other than 1 on every record column: a run folds its drawn rows and
    # scales their sums, the record scales each row
    ("sc.csv", "tables --config {dir}/scaled.cfg --t-split 0.3 --tau 0.37 --frames 20000"),
    # the same scales with mode mismatch: the five rows of eta < 1, each scaled
    ("sc7.csv", "tables --config {dir}/scaled.cfg --t-split 0.3 --tau 0.37 --modes 7 --eta 0.7 --frames 20000"),
    # the stated photon range of the sweep: 1e7 runs
    ("b.csv", "sweep-discord --config {dir}/bright.cfg"),
    # the split swept instead of the mixer, at the default taus and photon range
    ("ts.csv", "sweep-discord --config {dir}/split.cfg"),
    # bright pairs split off at t_split 1e-10, and at 1e-09 behind a tau that
    # runs: their discord keeps its digits, above the -1e-9 clamp
    ("clamp.csv", "sweep-discord --config {dir}/clamp.cfg"),
    ("clamp2.csv", "sweep-discord --config {dir}/clamp2.cfg"),
    ("validate.out", "validate"),
]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/reference_runs.py DIR", file=sys.stderr)
        return 2
    directory = Path(argv[1])
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # DIR is a file or lies under one, for instance
        print(f"error: cannot make directory {directory}: {exc.strerror}", file=sys.stderr)
        return 2
    # imported after the checks of DIR, so that a refusal returns before numpy loads
    from cvbench.cli import main as cvbench

    for name, text in RUNS:
        path = directory / name
        if name.endswith(".cfg"):
            path.write_text(text, encoding="utf-8")
            continue
        args = [arg.format(dir=directory) for arg in text.split()]
        if name.endswith(".csv"):
            code = cvbench([*args, "--out", str(path)])
        else:
            with open(path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
                code = cvbench(args)
        if code:
            print(f"error: cvbench {' '.join(args)} exited {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
