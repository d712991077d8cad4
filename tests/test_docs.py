"""Documentation gate: markdown links resolve, docstring coverage holds.

Runs the same stdlib-only checker the CI docs job invokes
(``tools/check_docs.py``) over the same tree (``src/repro``), so a broken
relative link in README/docs or a docstring-coverage regression fails
tier-1 locally before it fails CI.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402

MARKDOWN = [
    "README.md",
    "ROADMAP.md",
    "docs",
    "benchmarks/perf/README.md",
    "perfbench/README.md",
]
COVERAGE_PATHS = ["src/repro"]
COVERAGE_FLOOR = 90.0


def test_markdown_relative_links_resolve():
    files = check_docs.iter_markdown_files(MARKDOWN)
    assert len(files) >= 4  # README, ROADMAP, ARCHITECTURE, BENCHMARKS, ...
    errors = check_docs.check_markdown_links(files)
    assert errors == []


def test_architecture_doc_exists_and_is_linked_from_readme():
    architecture = REPO_ROOT / "docs" / "ARCHITECTURE.md"
    assert architecture.exists()
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    # The architecture doc covers the three required sections.
    text = architecture.read_text()
    assert "Lifecycle of a request" in text
    assert "Lifecycle of an adaptation round" in text
    assert "golden-digest contract" in text


def test_benchmarks_doc_consolidates_the_harness():
    text = (REPO_ROOT / "docs" / "BENCHMARKS.md").read_text()
    for needle in (
        "--jobs",
        "--profile",
        "--check",
        "--policy-benchmark",
        "adaptation_round_ms",
        "sim_requests_per_sec",
        "-m slow",
    ):
        assert needle in text, f"BENCHMARKS.md lost its {needle!r} section"


def test_docstring_coverage_floor():
    documented, total, missing = check_docs.docstring_coverage(COVERAGE_PATHS)
    assert total > 100  # the surface actually got scanned
    pct = 100.0 * documented / total
    assert pct >= COVERAGE_FLOOR, (
        f"docstring coverage {pct:.1f}% fell below {COVERAGE_FLOOR}%; "
        f"undocumented: {missing[:10]}"
    )


def test_checker_cli_passes_on_the_repo():
    argv = ["--fail-under", str(COVERAGE_FLOOR)]
    for path in COVERAGE_PATHS:
        argv += ["--coverage-path", path]
    argv += MARKDOWN
    assert check_docs.main(argv) == 0
