import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ultrasph


def test_every_exported_name_resolves():
    assert [name for name in ultrasph.__all__ if not hasattr(ultrasph, name)] == []


@pytest.mark.parametrize("module", ["geometry", "gegenbauer", "harmonics", "quadrature", "solver"])
def test_module_exports_are_package_exports(module):
    exported = importlib.import_module(f"ultrasph.{module}").__all__
    assert sorted(set(exported) - set(ultrasph.__all__)) == []


def test_failing_hypothesis_test_reports_its_falsifying_example(tmp_path):
    # under the project's warning filters, a failing hypothesis test must
    # report its example, not an INTERNALERROR from the plugin's report hook
    root = Path(__file__).resolve().parent.parent
    (tmp_path / "test_always_fails.py").write_text(
        "from hypothesis import given, settings, strategies as st\n"
        "\n"
        "@settings(derandomize=True, database=None, max_examples=20)\n"
        "@given(st.integers(0, 10))\n"
        "def test_small(n):\n"
        "    assert n < 5\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(root / "pyproject.toml"),
         "--rootdir", str(root), "-p", "no:cacheprovider", "-q",
         str(tmp_path / "test_always_fails.py")],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
    assert "INTERNALERROR" not in result.stdout + result.stderr
