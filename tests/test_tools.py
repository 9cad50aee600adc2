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


def reference_runs(*args, cwd):
    # the repo's own cvbench, wherever the tool runs from
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(REFERENCE_RUNS), *args], cwd=cwd, env=env, capture_output=True, text=True
    )


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

    def test_the_outputs_match_the_ledger(self, reference_dir):
        # every CSV and validate.out keeps the bytes the ledger records. Where
        # the provenance a manifest records differs from the header's, or
        # X86_V3 does, the bytes may differ too, so nothing is compared and the
        # skip says why. An output the ledger marks dispatch-bound is compared
        # only under the X86_V4 state that wrote it, and the test says when it
        # leaves one out
        from cvbench.cli import _PROVENANCE

        header, pinned = read_ledger()
        differs = [
            f"{key} {value} runs, the ledger was written with {header[key]}"
            for key, value in _PROVENANCE.items() if value != header[key]
        ]
        if differs:
            pytest.skip("; ".join(differs))
        # imported once numpy is known to be the header's, as numpy before 2.0
        # keeps this module under numpy.core
        from numpy._core._multiarray_umath import __cpu_features__

        here = {key: "active" if __cpu_features__.get(key) else "inactive" for key in ("X86_V3", "X86_V4")}
        if here["X86_V3"] != header["X86_V3"]:
            pytest.skip(
                f"X86_V3 is {here['X86_V3']} here and {header['X86_V3']} in the ledger, "
                "so numpy's OpenBLAS runs other kernels"
            )
        skipped = [] if here["X86_V4"] == header["X86_V4"] else header["dispatch-bound"].split()
        if skipped:
            warnings.warn(
                f"not compared, as X86_V4 is {here['X86_V4']} here and {header['X86_V4']} in the "
                f"ledger: {', '.join(skipped)}"
            )
        written = [*reference_dir.glob("*.csv"), reference_dir / "validate.out"]
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in written}
        moved = sorted(
            name for name in pinned.keys() | digests.keys()
            if name not in skipped and pinned.get(name) != digests.get(name)
        )
        assert not moved, f"moved against {LEDGER.name}: {', '.join(moved)}"
