#!/usr/bin/env python
"""Name census: the ``src/repro`` surface that nothing outside tests uses.

Two passes, each with its own reasoned table of names that stay.

Definitions (``KEPT``)
----------------------

Lists every top-level function, class and constant under ``src/repro``,
and every method not named like ``__x__``, whose name is used nowhere
else.  A top-level name counts as used when it appears as a whole word
in a token that is not a comment; a method (a ``def`` in a class body)
only where its name is loaded as an attribute (``obj.name``,
``Cls.name``) or appears as a whole word in a string, the rule the
write-only pass applies to reads, so a local, parameter or keyword of
the same name does not hide it.  Uses count:

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

Write-only state (``KEPT_UNREAD``)
----------------------------------

Lists the attribute names that ``src/repro`` stores and nothing outside
``tests/`` reads.  A name is stored by an attribute store (``x.name =
...``, ``x.name += ...``), as a dataclass or ``NamedTuple`` field, or as
a ``__slots__`` entry; it is listed as ``module.Class.name`` for the
class that declares it (a ``self`` store, a field or a slot), and as
``module.name`` when only stores on other objects name it.  A read is an
attribute load of the name anywhere in ``src/repro`` or the user trees
above, except two loads that only pass a value on:

* a load given as a keyword of the same name (``size=plan.size`` copies
  the value into another field, which is listed in its own right);
* a call of a method of the same name defined in ``src/repro`` (a call of
  ``network.size()`` reads no field called ``size``).

A whole word in a string counts as a read, so ``getattr`` keys do;
docstrings and ``__slots__`` strings do not.  The fields of a dataclass
that ``src/repro`` iterates with ``dataclasses.fields()`` are all read:
those are the ``ServingStats`` counters, which ``tests/test_counters.py``
guards one by one, so an unread field of that class that is not a
counter goes unlisted.  Stores into a dict held by an attribute
(``x.table[key] += 1``) load the attribute, so a string-keyed registry
is never listed.

Names still collide in both passes (a method called ``plan`` is used
wherever any ``obj.plan`` is loaded, and a field called ``kind`` is read
wherever any ``kind`` is), so each list is a floor, not the whole dead
surface.

Stdlib only; it parses the sources and never imports ``repro``.

Usage::

    python tools/surface_census.py            # print both lists
    python tools/surface_census.py --check    # fail unless each equals its table
"""

from __future__ import annotations

import argparse
import ast
import io
import re
import sys
import tokenize
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional, Set, Tuple

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

#: Stored names that nothing outside tests reads but that stay, each with
#: its reason.
KEPT_UNREAD: Dict[str, str] = {
    "repro.cloud.instance.Instance.ready_time": (
        "the invariant-check item on ROADMAP.md checks each lifecycle "
        "timestamp against its transition"
    ),
    "repro.cloud.instance.Instance.preemption_notice_time": (
        "the invariant-check item on ROADMAP.md checks each lifecycle "
        "timestamp against its transition"
    ),
    "repro.cloud.instance.Instance.termination_time": (
        "the invariant-check item on ROADMAP.md checks each lifecycle "
        "timestamp against its transition"
    ),
    "repro.core.interruption.InterruptionArrangement.tokens_to_decode": (
        "the per-batch JIT interruption item on ROADMAP.md wires it in or deletes it"
    ),
    "repro.core.interruption.InterruptionArrangement.migrate_cache": (
        "the per-batch JIT interruption item on ROADMAP.md wires it in or deletes it"
    ),
    "repro.core.migration.MigrationStep.layer_index": (
        "the planner's differential tests compare fast and reference plans "
        "step by step through it"
    ),
    "repro.core.migration.MigrationPlan.layer_order": (
        "the planner's differential tests compare fast and reference plans "
        "through it"
    ),
    "repro.sim.network.Transfer.tag": (
        "the planner's differential tests compare transfers through it, and "
        "the KV-context tests sum moved bytes per tag"
    ),
    "repro.core.autoscaler.AutoscaleDecision.desired_instances": (
        "the autoscaler tests pin each policy's clamped target through it"
    ),
    "repro.core.controller.OptimizerDecision.objective": (
        "the controller tests pin which line of Algorithm 1 chose the "
        "configuration, and the decision-trace item on ROADMAP.md records it"
    ),
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class Definition(NamedTuple):
    """One candidate: where it is defined, the lines it spans, and its kind."""

    qualname: str
    name: str
    path: Path
    start: int
    end: int
    #: A ``def`` in a class body: used only where loaded as an attribute.
    method: bool = False


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
                    found.append(Definition(qualname, item.name, path, *_span(item), True))
    return found


def _docstrings(tree: ast.AST) -> List[ast.Constant]:
    """The docstring nodes of every module, class and function in *tree*."""
    found = []
    for node in ast.walk(tree):
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
            found.append(first.value)
    return found


def _docstring_spans(source: str) -> List[Tuple[Tuple[int, int], Tuple[int, int]]]:
    """``(start, end)`` positions of every module, class and function docstring."""
    return [
        ((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
        for node in _docstrings(ast.parse(source))
    ]


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


def attribute_lines(path: Path) -> Dict[str, List[int]]:
    """Map each attribute-loaded name, and each string word, to its lines.

    The uses a method can have: an attribute load (the name after a
    ``.``), or a whole word in a string that is not a docstring or a
    ``__slots__`` entry.  A string's words are placed on its first line,
    which lies inside exactly the definitions the whole string does.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skipped = _skipped_strings(tree)
    lines: Dict[str, List[int]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            lines.setdefault(node.attr, []).append(node.end_lineno)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            for word in _WORD.findall(node.value):
                lines.setdefault(word, []).append(node.lineno)
    return lines


def _user_files(root: Path) -> List[Path]:
    """The sources of the user trees, this file (or its copy) excepted."""
    this_file = root / "tools" / Path(__file__).name
    return [
        path
        for tree in USER_TREES
        if (root / tree).is_dir()
        for path in sorted((root / tree).rglob("*.py"))
        if path != this_file
    ]


def census(root: Path = REPO_ROOT) -> List[str]:
    """Qualified names of the definitions that nothing outside tests uses."""
    src = root / "src"
    package = src / "repro"
    defs: List[Definition] = []
    for path in sorted(package.rglob("*.py")):
        defs.extend(definitions(path, src))
    user_files = _user_files(root)
    src_files = [path for path in sorted(src.rglob("*.py")) if path.name != "__init__.py"]
    # (src lines per file, user-tree names) for a top-level name and a method.
    uses = {
        method: (
            {path: lines_of(path) for path in src_files},
            {word for path in user_files for word in lines_of(path)},
        )
        for method, lines_of in ((False, word_lines), (True, attribute_lines))
    }

    dead: List[Definition] = []
    while True:
        grown = [
            d
            for d in defs
            if d not in dead
            and d.name not in uses[d.method][1]
            and not _used_in_src(d, src_files, uses[d.method][0], dead)
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


# ----------------------------------------------------------------------
# Write-only state
# ----------------------------------------------------------------------


def _is_record_class(node: ast.ClassDef) -> bool:
    """True for a ``@dataclass`` class or a ``NamedTuple`` subclass."""
    for expr in node.decorator_list + node.bases:
        if isinstance(expr, ast.Call):
            expr = expr.func
        name = expr.attr if isinstance(expr, ast.Attribute) else getattr(expr, "id", "")
        if name in ("dataclass", "NamedTuple"):
            return True
    return False


def _slots(node: ast.ClassDef) -> Optional[ast.Assign]:
    """The class body's ``__slots__ = (...)`` statement, if any."""
    for item in node.body:
        if isinstance(item, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__slots__"
            for target in item.targets
        ):
            return item
    return None


def _strings(node: ast.AST) -> Iterator[str]:
    """Every string constant under *node*."""
    for child in ast.walk(node):
        if isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


class _Stores:
    """The stored names of ``src/repro``, and what exempts or hides a read.

    ``declared`` maps ``module.Class.name`` to the name for every field,
    slot and ``self``/``cls`` store; ``loose`` maps ``module.name`` to the
    name for stores on any other object.  ``fields_of`` holds each record
    class's field qualnames, ``iterated`` the classes passed to
    ``dataclasses.fields()`` (by qualname, or by bare name when named
    directly), and ``methods`` every method name defined in a class.
    """

    def __init__(self) -> None:
        self.declared: Dict[str, str] = {}
        self.loose: Dict[str, str] = {}
        self.fields_of: Dict[str, List[str]] = {}
        self.iterated: Set[str] = set()
        self.methods: Set[str] = set()

    def visit(self, node: ast.AST, module: str, owner: Optional[str]) -> None:
        """Record the stores under *node*; *owner* is the enclosing class."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                self._visit_class(child, module, owner)
                continue
            if isinstance(child, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                for target in targets:
                    self._store_targets(target, module, owner)
            if isinstance(child, ast.Call) and child.args:
                func = child.func
                called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                argument = child.args[0]
                if called == "fields" and isinstance(argument, ast.Name):
                    if argument.id in ("self", "cls") and owner is not None:
                        self.iterated.add(owner)
                    else:
                        self.iterated.add(argument.id)
            self.visit(child, module, owner)

    def _visit_class(self, node: ast.ClassDef, module: str, owner: Optional[str]) -> None:
        qualname = f"{owner or module}.{node.name}"
        if _is_record_class(node):
            names = [
                item.target.id
                for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
            ]
            self.fields_of[qualname] = [f"{qualname}.{name}" for name in names]
            for name in names:
                self.declared[f"{qualname}.{name}"] = name
        slots = _slots(node)
        if slots is not None:
            for name in _strings(slots.value):
                self.declared[f"{qualname}.{name}"] = name
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.methods.add(item.name)
        self.visit(node, module, qualname)

    def _store_targets(self, target: ast.AST, module: str, owner: Optional[str]) -> None:
        for node in ast.walk(target):
            if not (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)):
                continue
            on_self = isinstance(node.value, ast.Name) and node.value.id in ("self", "cls")
            if on_self and owner is not None:
                self.declared[f"{owner}.{node.attr}"] = node.attr
            else:
                self.loose[f"{module}.{node.attr}"] = node.attr

    def exempt(self) -> Set[str]:
        """Field qualnames of the record classes ``fields()`` iterates."""
        return {
            field
            for qualname, fields in self.fields_of.items()
            if qualname in self.iterated or qualname.rsplit(".", 1)[1] in self.iterated
            for field in fields
        }


def _skipped_strings(tree: ast.AST) -> Set[int]:
    """Ids of the docstring and ``__slots__`` string nodes of a module."""
    skipped = {id(node) for node in _docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            slots = _slots(node)
            if slots is not None:
                skipped.update(id(child) for child in ast.walk(slots.value))
    return skipped


def reads(tree: ast.AST, methods: Set[str]) -> Set[str]:
    """Attribute names loaded in a module, plus every word of its strings.

    A load passed on as a keyword of the same name, or called as one of
    *methods*, is not a read.
    """
    skipped = _skipped_strings(tree)
    found: Set[str] = set()
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if isinstance(parent, ast.keyword) and parent.arg == node.attr:
                    continue
                if isinstance(parent, ast.Call) and parent.func is node and node.attr in methods:
                    continue
                found.add(node.attr)
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in skipped
            ):
                found.update(_WORD.findall(node.value))
    return found


def unread(root: Path = REPO_ROOT) -> List[str]:
    """Qualified names of the attributes ``src/repro`` stores and nothing reads.

    Reads count anywhere in ``src/repro`` and the user trees; ``tests/``
    does not count.
    """
    src = root / "src"
    package = {
        path: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((src / "repro").rglob("*.py"))
    }
    stores = _Stores()
    for path, tree in package.items():
        stores.visit(tree, _module_name(path, src), None)
    user = [ast.parse(path.read_text(encoding="utf-8")) for path in _user_files(root)]
    read: Set[str] = set()
    for tree in [*package.values(), *user]:
        read |= reads(tree, stores.methods)
    exempt = stores.exempt()
    listed = [
        qualname
        for qualname, name in stores.declared.items()
        if name not in read and qualname not in exempt
    ]
    declared_names = set(stores.declared.values())
    listed += [
        qualname
        for qualname, name in stores.loose.items()
        if name not in read and name not in declared_names
    ]
    return sorted(listed)


def _report(listed: List[str], table: Dict[str, str], what: str) -> None:
    """Print each listed name, with its reason when *table* keeps it."""
    for name in listed:
        reason = table.get(name)
        print(f"{name}  # kept: {reason}" if reason else name)
    print(f"[census] {len(listed)} {what}")


def _mismatches(listed: List[str], table: Dict[str, str], label: str) -> bool:
    """Print the names that differ from *table*; True when any do."""
    unexpected = sorted(set(listed) - set(table))
    stale = sorted(set(table) - set(listed))
    for name in unexpected:
        print(f"[census] NOT IN {label}: {name} (delete it, or add it to {label} with a reason)")
    for name in stale:
        print(f"[census] STALE {label} ENTRY: {name} (now used, or gone)")
    return bool(unexpected or stale)


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=REPO_ROOT, help="repository root")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 unless each list equals its table (KEPT, KEPT_UNREAD)",
    )
    args = parser.parse_args(argv)
    definitions_listed = census(args.root)
    stores_listed = unread(args.root)
    _report(definitions_listed, KEPT, "definitions used only by tests")
    _report(stores_listed, KEPT_UNREAD, "stored names read only by tests")
    if not args.check:
        return 0
    # Both passes always report, so one run shows every mismatch.
    failed = _mismatches(definitions_listed, KEPT, "KEPT")
    failed = _mismatches(stores_listed, KEPT_UNREAD, "KEPT_UNREAD") or failed
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
