"""Meta-tests: documentation references must match the repository.

These keep DESIGN.md / EXPERIMENTS.md / README.md honest: every bench
file they name exists, every registered experiment is run by a tier-1
test, and every example the README advertises is a runnable file.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def referenced_files(text: str, pattern: str) -> set[str]:
    return set(re.findall(pattern, text))


class TestExperimentsDoc:
    @pytest.fixture(scope="class")
    def text(self):
        return (REPO / "EXPERIMENTS.md").read_text()

    def test_all_named_benches_exist(self, text):
        for name in referenced_files(text, r"bench_[a-z0-9_]+\.py"):
            assert (REPO / "benchmarks" / name).exists(), f"missing {name}"

    def test_all_named_test_files_exist(self, text):
        for name in referenced_files(text, r"tests/test_[a-z0-9_]+\.py"):
            assert (REPO / name).exists(), f"missing {name}"

    def test_every_figure_has_a_section(self, text):
        for fig in ("Figure 4", "Figure 5", "Figure 6", "Figure 7", "Figure 8"):
            assert fig in text


class TestDesignDoc:
    @pytest.fixture(scope="class")
    def text(self):
        return (REPO / "DESIGN.md").read_text()

    def test_all_named_benches_exist(self, text):
        for name in referenced_files(text, r"bench_[a-z0-9_]+\.py"):
            assert (REPO / "benchmarks" / name).exists(), f"missing {name}"

    def test_named_packages_exist(self, text):
        for pkg in referenced_files(text, r"`repro\.([a-z_.]+)`"):
            path = REPO / "src" / "repro" / Path(*pkg.split("."))
            assert (
                path.with_suffix(".py").exists() or (path / "__init__.py").exists()
            ), f"missing repro.{pkg}"

    def test_paper_identity_check_present(self, text):
        assert "Paper identity check" in text


class TestReadme:
    @pytest.fixture(scope="class")
    def text(self):
        return (REPO / "README.md").read_text()

    def test_advertised_examples_exist(self, text):
        for name in referenced_files(text, r"`([a-z_]+\.py)`"):
            assert any(
                (REPO / d / name).exists()
                for d in ("examples", "scripts", "benchmarks")
            ), f"missing {name}"

    def test_docs_links_exist(self, text):
        for name in referenced_files(text, r"docs/[a-z-]+\.md"):
            assert (REPO / name).exists(), f"missing {name}"


def _resolves(dotted: str) -> bool:
    """Whether ``dotted`` is a module or an attribute chain under one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


#: Hand-written documents; ``docs/api.md`` is generated from the code.
REFERENCE_DOCS = sorted(
    {"README.md", "DESIGN.md", "EXPERIMENTS.md"}
    | {
        f"docs/{p.name}"
        for p in (REPO / "docs").glob("*.md")
        if p.name != "api.md"
    }
)


@pytest.mark.parametrize("doc", REFERENCE_DOCS)
def test_backticked_repro_names_resolve(doc):
    """Every backticked ``repro.…`` name is a module or a module attribute."""
    text = (REPO / doc).read_text()
    names = referenced_files(text, r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")
    missing = sorted(name for name in names if not _resolves(name))
    assert not missing, f"{doc} names what the code lacks: {missing}"


class TestRegistryCoverage:
    def test_every_registered_experiment_is_run_by_a_tier1_test(self):
        """Some ``tests/test_*.py`` calls each registered driver.

        A driver is named the way tests call it: ``fig8.run(`` for the
        ``run`` of :mod:`repro.experiments.fig8`.
        """
        from repro.experiments.registry import EXPERIMENTS

        test_text = "\n".join(
            p.read_text()
            for p in (REPO / "tests").glob("test_*.py")
            if p.name != Path(__file__).name
        )
        for name, (runner, _) in EXPERIMENTS.items():
            module = runner.__module__.rsplit(".", 1)[-1]
            call = rf"\b{module}\.{runner.__name__}\("
            assert re.search(call, test_text), (
                f"experiment {name} is not run by any tier-1 test"
            )

    def test_all_benches_collected_by_pytest_config(self):
        import tomllib

        cfg = tomllib.loads((REPO / "pyproject.toml").read_text())
        patterns = cfg["tool"]["pytest"]["ini_options"]["python_files"]
        assert "bench_*.py" in patterns
