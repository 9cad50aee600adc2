"""Tests for the scripts under tools/, run as CI runs them: as programs."""

import hashlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CODE_LINES = ROOT / "tools" / "code_lines.py"
REFERENCE_RUNS = ROOT / "tools" / "reference_runs.py"
LEDGER = ROOT / "tools" / "reference.sha256"


def code_lines(*args, cwd):
    return subprocess.run(
        [sys.executable, str(CODE_LINES), *args], cwd=cwd, capture_output=True, text=True
    )


class TestCodeLines:
    def test_the_default_package_does_not_depend_on_the_working_directory(self, tmp_path):
        # run from outside the repo, the default count is the package's, the
        # total the repo root gives for src/cvbench, not a silent 0
        in_repo = code_lines("src/cvbench", cwd=ROOT)
        outside = code_lines(cwd=tmp_path)
        assert in_repo.returncode == outside.returncode == 0
        total = in_repo.stdout.splitlines()[-1]
        assert total.endswith("  total") and int(total.split()[0]) > 0
        assert outside.stdout.splitlines()[-1] == total
        assert len(outside.stdout.splitlines()) == len(in_repo.stdout.splitlines())

    def test_a_directory_without_modules_is_refused(self, tmp_path):
        (tmp_path / "notes.txt").write_text("x = 1\n")
        for package in (tmp_path, tmp_path / "missing"):
            result = code_lines(str(package), cwd=tmp_path)
            assert result.returncode == 2
            assert result.stdout == ""
            assert result.stderr.splitlines() == [f"error: {package} holds no .py file"]


#: the two dispatch axes, each switched for a second run of the tool: variable ->
#: (its value, the CPU feature that must be active here for it to switch kernels).
#: numpy's AVX-512 kernels off, and OpenBLAS's kernels for CPUs before AVX2 on
DISPATCH_SWITCHES = {
    "NPY_DISABLE_CPU_FEATURES": ("X86_V4 AVX512_ICL AVX512_SPR", "X86_V4"),
    "OPENBLAS_CORETYPE": ("Sandybridge", "X86_V3"),
}


def reference_runs(*args, cwd, **env):
    # the repo's own cvbench, wherever the tool runs from, and a RuntimeWarning
    # fails the run as pyproject.toml makes it fail a test
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONWARNINGS="error::RuntimeWarning", **env)
    return subprocess.run(
        [sys.executable, str(REFERENCE_RUNS), *args], cwd=cwd, env=env, capture_output=True, text=True
    )


def cpu_features():
    """numpy's map of CPU feature -> active, imported where it is read, so that
    TestCodeLines collects without numpy."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy before 2.0
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


def read_ledger():
    """(header, digests): the ``# key = value`` lines of the ledger, and name -> sha256."""
    header, digests = {}, {}
    for line in LEDGER.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            key, is_set, value = line[1:].partition(" = ")
            if is_set:
                header[key.strip()] = value.strip()
        else:
            digest, name = line.split("  ")
            digests[name] = digest
    return header, digests


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    # one run of the tool, shared by the tests that read its outputs
    directory = tmp_path_factory.mktemp("ref")
    result = reference_runs(str(directory), cwd=directory)
    assert result.returncode == 0, result.stderr
    assert result.stdout == ""
    return directory


class TestReferenceRuns:
    def test_it_writes_the_configs_each_run_and_validate_out(self, reference_dir):
        names = [path.name for path in reference_dir.iterdir()]
        csvs = sorted(name for name in names if name.endswith(".csv"))
        assert len(names) == 30
        assert len([name for name in names if name.endswith(".cfg")]) == 5
        assert len(csvs) == 12
        assert sorted(name for name in names if name.endswith(".manifest.json")) == [
            f"{name}.manifest.json" for name in csvs
        ]
        assert "validate.out" in names

    def test_without_a_directory_it_prints_its_usage(self, tmp_path):
        result = reference_runs(cwd=tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["usage: python tools/reference_runs.py DIR"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("where", ["a-file", "a-file/sub"])
    def test_a_directory_that_cannot_be_made_is_refused(self, tmp_path, where):
        # DIR is a file, or lies under one: one line naming it, before any run
        (tmp_path / "a-file").write_text("")
        directory = tmp_path / where
        result = reference_runs(str(directory), cwd=tmp_path)
        assert result.returncode == 2
        assert result.stdout == ""
        [line] = result.stderr.splitlines()
        assert line.startswith(f"error: cannot make directory {directory}: ")
        assert list(tmp_path.iterdir()) == [tmp_path / "a-file"]

    def test_it_stops_at_the_first_command_that_fails(self, tmp_path):
        # a directory where t.csv goes fails the first command: cvbench's line,
        # then the tool's naming the command, whose code it exits with, and no
        # later command runs
        (tmp_path / "t.csv").mkdir()
        result = reference_runs(str(tmp_path), cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            f"error: cannot write {tmp_path / 't.csv'}: it is a directory",
            "error: cvbench tables --frames 2000 exited 2",
        ]
        assert not (tmp_path / "e.csv").exists()

    def test_each_manifest_replays_its_csv(self, reference_dir, tmp_path):
        # in this process, through the replay that a user runs; a replay
        # writes its CSV alone, without a manifest
        from cvbench.cli import run_from_manifest

        moved = []
        for manifest in sorted(reference_dir.glob("*.csv.manifest.json")):
            name = manifest.name.removesuffix(".manifest.json")
            replay = run_from_manifest(manifest, tmp_path / name)
            if replay.read_bytes() != (reference_dir / name).read_bytes():
                moved.append(name)
        assert len(list(tmp_path.iterdir())) == 12
        assert not moved, f"replayed with other bytes: {', '.join(moved)}"

    @pytest.mark.parametrize("variable", DISPATCH_SWITCHES)
    def test_the_outputs_do_not_depend_on_simd_dispatch(self, reference_dir, tmp_path, variable):
        # a second run with other kernels on one dispatch axis writes every
        # output with the bytes of the native run, but those the ledger names
        # dispatch-bound (ROADMAP item 2): all 12 CSVs. The two runs are
        # compared with each other, not with the ledger, so the check holds
        # under any numpy, where the ledger test may skip
        value, needed = DISPATCH_SWITCHES[variable]
        if not cpu_features().get(needed):
            pytest.skip(f"{needed} is not active here, so both runs would use the same kernels")
        result = reference_runs(str(tmp_path), cwd=tmp_path, **{variable: value})
        assert result.returncode == 0, result.stderr
        bound = read_ledger()[0]["dispatch-bound"].split()
        written = [*reference_dir.glob("*.csv"), reference_dir / "validate.out"]
        compared = [path for path in written if path.name not in bound]
        assert len(compared) == 12
        moved = sorted(
            path.name for path in compared if (tmp_path / path.name).read_bytes() != path.read_bytes()
        )
        assert not moved, f"moved under {variable}={value!r}: {', '.join(moved)}"

    def test_the_outputs_match_the_ledger(self, reference_dir):
        # every CSV and validate.out keeps the bytes the ledger records. Where
        # the provenance a manifest records differs from the header's, the
        # bytes may differ too, so nothing is compared and the skip says why.
        # An output the ledger marks dispatch-bound is compared only where
        # X86_V3 and X86_V4 are both as the header records, and the test says
        # when it leaves one out
        from cvbench.cli import _PROVENANCE

        header, pinned = read_ledger()
        differs = [
            f"{key} {value} runs, the ledger was written with {header[key]}"
            for key, value in _PROVENANCE.items() if value != header[key]
        ]
        if differs:
            pytest.skip("; ".join(differs))
        features = cpu_features()
        here = {key: "active" if features.get(key) else "inactive" for key in ("X86_V3", "X86_V4")}
        other = [
            f"{key} is {state} here and {header[key]} in the ledger"
            for key, state in here.items() if state != header[key]
        ]
        skipped = header["dispatch-bound"].split() if other else []
        if skipped:
            warnings.warn(f"not compared, as {' and '.join(other)}: {', '.join(skipped)}")
        written = [*reference_dir.glob("*.csv"), reference_dir / "validate.out"]
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written}
        moved = sorted(
            name for name in pinned.keys() | digests.keys()
            if name not in skipped and pinned.get(name) != digests.get(name)
        )
        assert not moved, f"moved against {LEDGER.name}: {', '.join(moved)}"
