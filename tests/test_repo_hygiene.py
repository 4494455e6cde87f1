"""Tier-1 repository hygiene guard.

PR 2 accidentally committed 60 ``.pyc`` files; this guard makes that
class of regression a test failure.  The same check is available as a
standalone tool (``python tools/check_no_pyc.py``) for pre-commit use.
"""

from __future__ import annotations

import pathlib
import shutil
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOLS = REPO_ROOT / "tools"


def _git_usable() -> bool:
    if shutil.which("git") is None:
        return False
    probe = subprocess.run(
        ["git", "rev-parse", "--is-inside-work-tree"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    return probe.returncode == 0 and probe.stdout.strip() == "true"


@pytest.mark.skipif(
    not _git_usable(), reason="not a git checkout (sdist or exported tree)"
)
def test_no_compiled_artifacts_tracked():
    sys.path.insert(0, str(TOOLS))
    try:
        from check_no_pyc import tracked_artifacts
    finally:
        sys.path.remove(str(TOOLS))
    offenders = tracked_artifacts(REPO_ROOT)
    assert offenders == [], (
        "compiled python artifacts are tracked by git; "
        "run `python tools/check_no_pyc.py` and git rm -r --cached them: "
        f"{offenders[:10]}"
    )


def test_gitignore_covers_artifacts():
    gitignore = (REPO_ROOT / ".gitignore").read_text()
    for pattern in ("__pycache__/", "*.pyc", "*.egg-info/", ".pytest_cache/"):
        assert pattern in gitignore, f".gitignore must cover {pattern}"


def test_no_process_global_execution_state():
    """Execution state lives in one ContextVar, never in module globals.

    Provider, chunk size, arena and profiler travel in
    :class:`repro.perf.ExecutionContext`.  The one ``global`` statement
    left in the package is the profiler's process-wide observer hook,
    which sees every thread's kernel stages that no context profiler
    claims.
    """
    import ast

    package = REPO_ROOT / "src" / "repro"
    found = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            (path.relative_to(package).as_posix(), tuple(node.names))
            for node in ast.walk(tree)
            if isinstance(node, ast.Global)
        ]
    assert found == [("perf/profiler.py", ("_observer",))]


def test_one_batch_entry_into_the_dense_kernel():
    """Every batched caller reaches the Fast-Lomb kernel one way.

    :meth:`repro.lomb.fast.FastLomb.periodogram_spans` — recording
    arrays plus window spans — is the kernel's one batch entry, and the
    only code that calls the dense chunk kernel.  A second caller would
    be a second batch path: a fork whose checks and layout can drift
    from the first, so that a window's outcome depends on which windows
    share its call.
    """
    import ast

    class Callers(ast.NodeVisitor):
        def __init__(self):
            self.path, self.scopes, self.found = None, ["<module>"], []

        def visit_FunctionDef(self, node):
            self.scopes.append(node.name)
            self.generic_visit(node)
            self.scopes.pop()

        visit_AsyncFunctionDef = visit_FunctionDef

        def visit_Attribute(self, node):
            if node.attr == "_periodogram_group_dense":
                self.found.append((self.path, self.scopes[-1]))
            self.generic_visit(node)

        def visit_Name(self, node):
            if node.id == "_periodogram_group_dense":
                self.found.append((self.path, self.scopes[-1]))

    package = REPO_ROOT / "src" / "repro"
    callers = Callers()
    for path in sorted(package.rglob("*.py")):
        callers.path = path.relative_to(package).as_posix()
        callers.visit(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
    assert callers.found == [("lomb/fast.py", "periodogram_spans")]
