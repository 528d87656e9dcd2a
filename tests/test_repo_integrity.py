"""Repository-integrity checks: docs, examples and registry stay in sync."""

import ast
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestDocs:
    def test_required_docs_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (REPO / name).is_file(), f"{name} missing"

    def test_design_confirms_paper_text(self):
        text = (REPO / "DESIGN.md").read_text()
        assert "Paper-text check" in text
        assert "PASE" in text and "Faiss" in text

    def test_experiments_covers_every_registered_experiment(self):
        from repro.bench import EXPERIMENTS

        text = (REPO / "EXPERIMENTS.md").read_text()
        for exp_id in EXPERIMENTS:
            assert exp_id in text, f"EXPERIMENTS.md does not mention {exp_id}"

    def test_design_lists_all_root_causes(self):
        text = (REPO / "DESIGN.md").read_text()
        for i in range(1, 8):
            assert f"RC#{i}" in text

    def test_readme_quickstart_commands_valid(self):
        text = (REPO / "README.md").read_text()
        assert "pip install -e ." in text
        assert "pytest tests/" in text
        assert "repro-bench" in text


class TestExamples:
    def test_at_least_three_examples(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3

    @pytest.mark.parametrize(
        "name",
        [p.name for p in sorted((REPO / "examples").glob("*.py"))],
    )
    def test_examples_parse_and_have_main(self, name):
        source = (REPO / "examples" / name).read_text()
        tree = ast.parse(source)
        functions = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        assert "main" in functions, f"{name} has no main()"
        assert ast.get_docstring(tree), f"{name} has no module docstring"


class TestBenchmarkFiles:
    """Each paper figure is defined once, in ``src/repro/bench``; both
    ``repro-bench`` and ``benchmarks/bench_paper_figures.py`` run it.
    That every ``shape`` yields at least one verdict is asserted there,
    at smoke scale, and for the cheaper ids by the structure tests in
    ``tests/test_bench_harness.py``."""

    def test_every_experiment_has_build_shape_and_paper_shape(self):
        from repro.bench import EXPERIMENTS, Figure

        for exp_id, fig in EXPERIMENTS.items():
            assert isinstance(fig, Figure) and fig.exp_id == exp_id
            assert callable(fig.build) and callable(fig.shape) and callable(fig.render)
            assert fig.paper_shape.strip(), f"{exp_id} has no paper-shape text"

    def test_no_per_figure_bench_files(self):
        bench_dir = REPO / "benchmarks"
        stale = sorted(
            p.name for pattern in ("bench_fig*.py", "bench_tab*.py")
            for p in bench_dir.glob(pattern)
        )
        assert not stale, f"figures are defined in src/repro/bench, not in {stale}"


class TestPublicApiDocstrings:
    def test_every_public_module_documented(self):
        undocumented = []
        for path in (REPO / "src").rglob("*.py"):
            tree = ast.parse(path.read_text())
            if ast.get_docstring(tree) is None:
                undocumented.append(str(path))
        assert not undocumented, f"modules without docstrings: {undocumented}"

    def test_every_public_class_and_function_documented(self):
        undocumented = []
        for path in (REPO / "src").rglob("*.py"):
            tree = ast.parse(path.read_text())
            for node in tree.body:
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    if node.name.startswith("_"):
                        continue
                    if ast.get_docstring(node) is None:
                        undocumented.append(f"{path.name}:{node.name}")
        assert not undocumented, f"public items without docstrings: {undocumented}"


class TestPageFormats:
    """Each index page format is declared once, in ``pase/layout.py``;
    the access methods read and write pages only through it."""

    def test_page_format_code_lives_only_in_the_layout_module(self):
        pattern = re.compile(
            r"\bimport struct\b|\bfrom struct import\b|PAGE_HEADER_SIZE|LINE_POINTER_SIZE"
        )
        layout = REPO / "src" / "repro" / "pase" / "layout.py"
        offenders = [
            f"{path.relative_to(REPO)}:{lineno}"
            for package in ("pase", "bridged", "pgvector")
            for path in sorted((REPO / "src" / "repro" / package).glob("*.py"))
            if path != layout
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)
        ]
        assert not offenders, f"page format code outside pase/layout.py: {offenders}"
        assert pattern.search(layout.read_text())


class TestSectionNames:
    """Each profiler section name is declared once, in
    ``common/profiling.py``; every engine imports it from there."""

    def test_section_names_are_declared_only_in_the_profiler(self):
        pattern = re.compile(r"^\s*SEC_\w+\s*=\s*[\"']")
        profiling = REPO / "src" / "repro" / "common" / "profiling.py"
        offenders = [
            f"{path.relative_to(REPO)}:{lineno}"
            for root in ("src", "tests", "benchmarks")
            for path in sorted((REPO / root).rglob("*.py"))
            if path != profiling
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)
        ]
        assert not offenders, f"section names declared outside profiling.py: {offenders}"
        assert any(pattern.search(line) for line in profiling.read_text().splitlines())
