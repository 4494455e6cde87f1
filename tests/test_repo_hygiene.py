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


def _constructions(names) -> set:
    """``(module, scope, name)`` of every call building one of ``names``.

    ``map(Name, ...)`` counts as building ``Name``.
    """
    import ast

    def named(node) -> str | None:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    class Builders(ast.NodeVisitor):
        def __init__(self):
            self.path, self.scopes, self.found = None, [], set()

        def visit_ClassDef(self, node):
            self.scopes.append(node.name)
            self.generic_visit(node)
            self.scopes.pop()

        visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef

        def visit_Call(self, node):
            name = named(node.func)
            if name == "map" and node.args:
                name = named(node.args[0])
            if name in names:
                scope = ".".join(self.scopes) or "<module>"
                self.found.add((self.path, scope, name))
            self.generic_visit(node)

    package = REPO_ROOT / "src" / "repro"
    builders = Builders()
    for path in sorted(package.rglob("*.py")):
        builders.path = path.relative_to(package).as_posix()
        builders.visit(
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        )
    return builders.found


def test_per_window_objects_are_built_only_on_access():
    """Window results stay columns until a caller reads one row.

    The kernel's :class:`~repro.lomb.fast.LombBatch` and the metrics'
    :class:`~repro.hrv.metrics.MetricsBatch` flow unchanged from the
    kernel through every fleet transport to result assembly.  A
    :class:`LombSpectrum` is built only by the sequential oracle, the
    batch's row accessor and the Welch average; a
    :class:`WindowMetrics` only by its batch's row accessors (indexing
    and iteration) and by ``WindowMetrics.from_dict``, through ``cls``.  Building or mapping
    either anywhere else reintroduces a per-window round trip.
    """
    assert _constructions({"LombSpectrum", "WindowMetrics"}) == {
        ("hrv/metrics.py", "MetricsBatch.__getitem__", "WindowMetrics"),
        ("hrv/metrics.py", "MetricsBatch.__iter__", "WindowMetrics"),
        ("lomb/fast.py", "FastLomb.periodogram", "LombSpectrum"),
        ("lomb/fast.py", "LombBatch.__getitem__", "LombSpectrum"),
        ("lomb/welch.py", "WelchLombResult.averaged_spectrum", "LombSpectrum"),
    }


def test_one_builder_of_execution_state():
    """An engine and a fleet worker each build their state one way.

    The context module's default, :class:`~repro.engine.Engine` and
    :func:`~repro.fleet.worker.worker_state` — shared by pool processes
    and daemon connections — are the only code that builds an
    :class:`~repro.perf.ExecutionContext`, and only an engine builds a
    :class:`~repro.fleet.FleetRunner`, from its config pinned to what
    it resolved.  A second builder would be a second description of a
    fleet run, free to drift from the engine's.
    """
    assert _constructions({"ExecutionContext", "FleetRunner"}) == {
        ("engine/engine.py", "Engine.__init__", "ExecutionContext"),
        ("engine/engine.py", "Engine._ensure_fleet", "FleetRunner"),
        ("fleet/worker.py", "worker_state", "ExecutionContext"),
        ("perf/context.py", "<module>", "ExecutionContext"),
    }


def test_gateway_uses_the_public_hub_api():
    """The gateway reads hubs through their public API only.

    ``hub.subjects``, ``hub.session()`` and ``hub.async_session()``
    cover what the server needs; reaching into ``hub._...`` ties the
    gateway to the hub's private bookkeeping.
    """
    import ast

    service = REPO_ROOT / "src" / "repro" / "service"
    found = []
    for path in sorted(service.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and isinstance(node.value, (ast.Name, ast.Attribute))
                and (
                    getattr(node.value, "id", None) == "hub"
                    or getattr(node.value, "attr", None) == "hub"
                )
            ):
                found.append((path.name, node.lineno, node.attr))
    assert found == []
