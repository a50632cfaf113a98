"""Off-the-shelf toolchain conformance: ruff and mypy over the tree.

The project's own pass (``repro.lint``) enforces the domain rules; ruff
and mypy cover the generic ones.  Their configuration lives in
pyproject.toml so any environment that has them runs the same checks —
but neither is a baked-in dependency of the reproduction image, so these
tests skip (rather than fail) where the binaries are absent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytestmark = pytest.mark.lint

REPO_ROOT = Path(__file__).parent.parent


def run_tool(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv, cwd=REPO_ROOT, capture_output=True, text=True
    )


@pytest.mark.skipif(shutil.which("ruff") is None, reason="ruff not installed")
def test_ruff_clean():
    result = run_tool("ruff", "check", "src", "tools")
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.skipif(shutil.which("mypy") is None, reason="mypy not installed")
def test_mypy_strict_on_lint_package():
    # The lint package is the strict-typed exemplar (see pyproject
    # [tool.mypy] overrides); the rest of the tree is typed best-effort.
    result = run_tool("mypy", "src/repro/lint")
    assert result.returncode == 0, result.stdout + result.stderr


# ----------------------------------------------------------------------
# The project's own gate: an empty baseline is a regression test.  The
# last grandfathered findings (the pre-seam sim imports in alm) were
# fixed by the scheduling-seam refactor, and the baseline must never
# regrow — a new finding is a new finding, not debt.  These two also run
# in the tier-1 conformance lane so every push exercises them.
# ----------------------------------------------------------------------
@pytest.mark.conformance
def test_lint_baseline_is_empty():
    baseline = json.loads((REPO_ROOT / ".lint-baseline.json").read_text())
    assert baseline["entries"] == [], (
        "the lint baseline regrew — fix the finding instead of baselining it"
    )


@pytest.mark.conformance
def test_lint_gate_is_clean():
    result = run_tool(sys.executable, "tools/lint.py")
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.conformance
def test_layering_regression_exits_two(tmp_path):
    """If a protocol layer ever imports the simulator again, the gate
    must exit 2 (new finding), not quietly baseline it."""
    pkg = tmp_path / "repro"
    (pkg / "alm").mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "alm" / "__init__.py").write_text("")
    (pkg / "alm" / "bad.py").write_text(
        textwrap.dedent(
            """
            from repro.sim import Network

            def wire(loop, topology):
                return Network(loop, topology)
            """
        )
    )
    result = run_tool(
        sys.executable,
        "tools/lint.py",
        str(tmp_path),
        "--no-baseline",
        "--rules",
        "layering",
    )
    assert result.returncode == 2, result.stdout + result.stderr
    assert "layering-import" in result.stdout
