#!/usr/bin/env python
"""Name census: the ``src/repro`` definitions that nothing outside tests uses.

Lists every top-level function, class and constant under ``src/repro``,
and every method not named like ``__x__``, whose name is used nowhere
else.  A name counts as used when it appears as a whole word in a token
that is not a comment:

* anywhere under ``src/``, outside the definition itself and outside
  ``__init__.py`` files (re-exports are not uses);
* anywhere under ``benchmarks/``, ``examples/``, ``perfbench/`` or
  ``tools/`` (this file excepted, since ``KEPT`` names every kept
  definition).

Strings count, so a name read through ``getattr`` is used, but the
docstring of a module, class or function does not: a name that only
documentation mentions is not used.  The census repeats until the list
stops growing: the body of a listed definition no longer counts as a
use, so a helper that only a dead function calls is listed on the next
pass.

Names can collide (a method called ``plan`` is used wherever any
``plan`` is), so the list is a floor, not the whole dead surface.

Stdlib only; it parses the sources and never imports ``repro``.

Usage::

    python tools/surface_census.py            # print the list
    python tools/surface_census.py --check    # fail unless it equals KEPT
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Trees whose every non-comment token counts as a use.
USER_TREES = ("benchmarks", "examples", "perfbench", "tools")

#: Definitions that only tests reach but that stay, each with its reason.
KEPT: Dict[str, str] = {
    "repro.core.controller.ParallelizationController.invalidate": (
        "tests/oracles/controller.py::MemolessController calls it before "
        "every proposal to prove the per-fleet-size sweep memo changes nothing"
    ),
    "repro.core.controller.ConfigEstimate.meets_rate": (
        "the Algorithm 1 oracle in tests/oracles/controller.py filters on it"
    ),
    "repro.llm.costmodel.LatencyModel.calibration_factor": (
        "the l_exe oracle in tests/oracles/costmodel.py multiplies by it"
    ),
    "repro.matching.hungarian.assignment_weight": (
        "three test files use it 18 times; moving it into tests/ removes nothing"
    ),
    "repro.core.interruption.InterruptionArranger.arrange_acquisition": (
        "the per-batch JIT interruption item on ROADMAP.md wires it in or deletes it"
    ),
    "repro.core.interruption.InterruptionArranger._min_tokens_covering": (
        "only arrange_acquisition calls it; it follows that method's fate"
    ),
    "repro.workload.arrival.FixedArrivals": (
        "test fixture built 21 times in 6 test files; moving it into tests/ removes nothing"
    ),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Definition(NamedTuple):
    """One candidate: where it is defined and the lines it spans."""

    qualname: str
    name: str
    path: Path
    start: int
    end: int


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _module_name(path: Path, src: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _span(node: ast.AST) -> Tuple[int, int]:
    decorators = getattr(node, "decorator_list", [])
    start = min([node.lineno] + [d.lineno for d in decorators])
    return start, node.end_lineno


def _targets(node: ast.stmt) -> List[str]:
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def definitions(path: Path, src: Path) -> List[Definition]:
    """Top-level functions, classes and constants, plus non-dunder methods."""
    module = _module_name(path, src)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found: List[Definition] = []
    for node in tree.body:
        start, end = _span(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(Definition(f"{module}.{node.name}", node.name, path, start, end))
        for name in _targets(node):
            if not _is_dunder(name):
                found.append(Definition(f"{module}.{name}", name, path, start, end))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if not _is_dunder(item.name):
                    qualname = f"{module}.{node.name}.{item.name}"
                    found.append(Definition(qualname, item.name, path, *_span(item)))
    return found


def _docstring_spans(source: str) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """``(start, end)`` positions of every module, class and function docstring."""
    spans = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        first = node.body[0] if node.body else None
        if (
            isinstance(first, ast.Expr)
            and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)
        ):
            spans.append(
                ((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset))
            )
    return spans


def word_lines(path: Path) -> Dict[str, List[int]]:
    """Map each word in a non-comment, non-docstring token to its lines."""
    lines: Dict[str, List[int]] = {}
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_spans(source)
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            continue
        if token.type == tokenize.STRING and any(
            start <= token.start and token.end <= end for start, end in docstrings
        ):
            continue
        first = token.start[0]
        for offset, text in enumerate(token.string.split("\n")):
            for word in _WORD.findall(text):
                lines.setdefault(word, []).append(first + offset)
    return lines


def census(root: Path = REPO_ROOT) -> List[str]:
    """Qualified names of the definitions that nothing outside tests uses."""
    src = root / "src"
    package = src / "repro"
    this_file = Path(__file__).resolve()
    defs: List[Definition] = []
    for path in sorted(package.rglob("*.py")):
        defs.extend(definitions(path, src))
    user_files = [
        path
        for tree in USER_TREES
        if (root / tree).is_dir()
        for path in sorted((root / tree).rglob("*.py"))
        if path.resolve() != this_file
    ]
    src_files = [path for path in sorted(src.rglob("*.py")) if path.name != "__init__.py"]
    words = {path: word_lines(path) for path in src_files}
    user_words = {word for path in user_files for word in word_lines(path)}

    dead: List[Definition] = []
    while True:
        grown = [
            d
            for d in defs
            if d not in dead
            and d.name not in user_words
            and not _used_in_src(d, src_files, words, dead)
        ]
        if not grown:
            break
        dead += grown
    # A method inside a listed class goes with it.
    return sorted(
        d.qualname
        for d in dead
        if not any(
            other.path == d.path
            and (other.start, other.end) != (d.start, d.end)
            and other.start <= d.start <= other.end
            for other in dead
        )
    )


def _used_in_src(
    definition: Definition,
    src_files: List[Path],
    words: Dict[Path, Dict[str, List[int]]],
    dead: List[Definition],
) -> bool:
    skip = [definition] + dead
    for path in src_files:
        for line in words[path].get(definition.name, ()):
            if not any(d.path == path and d.start <= line <= d.end for d in skip):
                return True
    return False


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT, help="repository root")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless the list equals the KEPT table",
    )
    args = parser.parse_args(argv)
    listed = census(args.root)
    for name in listed:
        reason = KEPT.get(name)
        print(f"{name}  # kept: {reason}" if reason else name)
    print(f"[census] {len(listed)} definitions used only by tests")
    if not args.check:
        return 0
    unexpected = sorted(set(listed) - set(KEPT))
    stale = sorted(set(KEPT) - set(listed))
    for name in unexpected:
        print(f"[census] NOT IN KEPT: {name} (delete it, or add it to KEPT with a reason)")
    for name in stale:
        print(f"[census] STALE KEPT ENTRY: {name} (now used, or gone)")
    return 1 if unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
