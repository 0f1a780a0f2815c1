"""Documentation integrity: the docs must track the code.

These tests keep README/DESIGN/EXPERIMENTS honest — every referenced
file, module, CLI command, and example must actually exist.
"""

import importlib
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def read(name: str) -> str:
    return (REPO / name).read_text(encoding="utf-8")


def resolves(dotted: str) -> bool:
    """Whether ``repro.a.b.C.d`` names a module or an attribute chain
    hanging off the longest importable module prefix."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def unresolved_names(text: str) -> set:
    """Backticked dotted ``repro.…`` names in ``text`` that do not resolve."""
    names = set(re.findall(r"`(repro(?:\.\w+)+)`", text))
    return {name for name in names if not resolves(name)}


class TestReadme:
    def test_referenced_docs_exist(self):
        for name in ("DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO / name).is_file()
        assert (REPO / "docs").is_dir()

    def test_example_table_matches_directory(self):
        readme = read("README.md")
        on_disk = {
            path.name for path in (REPO / "examples").glob("*.py")
        }
        referenced = set(re.findall(r"`(\w+\.py)`", readme))
        assert referenced <= on_disk | {"quickstart.py"}
        for example in on_disk:
            assert example in readme, f"{example} missing from README"

    def test_architecture_packages_importable(self):
        readme = read("README.md")
        for match in set(re.findall(r"^repro\.(\w+)", readme, re.MULTILINE)):
            importlib.import_module(f"repro.{match}")

    def test_cli_commands_exist(self):
        from repro.cli import build_parser

        readme = read("README.md")
        parser = build_parser()
        subactions = next(
            action
            for action in parser._actions
            if hasattr(action, "choices") and action.choices
        )
        for command in re.findall(r"repro-json-cdn ([\w-]+)", readme):
            assert command in subactions.choices, command

    def test_module_references_resolve(self):
        assert unresolved_names(read("README.md")) == set()

    def test_quickstart_snippet_runs(self):
        """The README's quickstart code block must execute as written."""
        readme = read("README.md")
        match = re.search(r"```python\n(.*?)```", readme, re.DOTALL)
        assert match
        code = match.group(1).replace("50_000", "2_000")
        exec(compile(code, "<readme>", "exec"), {})


class TestExperimentsDoc:
    def test_bench_references_exist(self):
        experiments = read("EXPERIMENTS.md")
        for reference in set(re.findall(r"`(benchmarks/\w+\.py)", experiments)):
            assert (REPO / reference).is_file(), reference

    def test_module_references_resolve(self):
        assert unresolved_names(read("EXPERIMENTS.md")) == set()

    def test_covers_every_figure_and_table(self):
        experiments = read("EXPERIMENTS.md")
        for artifact in ("Figure 1", "Table 2", "Figure 3", "Figure 4",
                         "Figure 5", "Figure 6", "Table 3"):
            assert artifact in experiments, artifact


class TestDesignDoc:
    def test_experiment_index_benches_exist(self):
        design = read("DESIGN.md")
        for reference in set(re.findall(r"`(benchmarks/\w+\.py)", design)):
            assert (REPO / reference).is_file(), reference

    def test_module_references_resolve(self):
        assert unresolved_names(read("DESIGN.md")) == set()

    def test_mismatch_banner_absent(self):
        """DESIGN must not carry the title-collision warning (the
        supplied paper text matched)."""
        design = read("DESIGN.md")
        assert "matches the target paper" in design


class TestDocsDirectory:
    def test_guides_present(self):
        for name in ("architecture.md", "calibration.md", "periodicity.md",
                     "prediction.md", "observability.md"):
            assert (REPO / "docs" / name).is_file(), name

    def test_module_references_resolve(self):
        """Every `repro.…` name in the docs is a module or attribute."""
        for path in sorted((REPO / "docs").glob("*.md")):
            text = path.read_text(encoding="utf-8")
            assert unresolved_names(text) == set(), path.name
