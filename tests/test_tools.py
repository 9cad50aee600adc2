"""Tests for the scripts under tools/, run as CI runs them: as programs."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CODE_LINES = ROOT / "tools" / "code_lines.py"


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
