"""Every declared ``ServingStats`` counter has a writer in ``src/repro``.

A counter is a ``ServingStats`` field declared with ``_counter(group)``,
and every report reads it through ``ServingStats.counters``.  A counter
that nothing writes still sits in every report, as a constant 0.  So this
check parses ``src/repro`` (``core/stats.py`` aside) and collects counter
writes: assignments and augmented assignments whose target is an
attribute of a receiver named ``stats`` (``stats.x += 1``,
``self.stats.x = ...``).  It looks for writes, not names: reads,
docstrings, the ``setattr`` loop of ``MultiTenantSystem.aggregate_stats``
and same-named attributes of other objects do not count.
"""

import ast
import textwrap
from pathlib import Path
from typing import Dict, List

from repro.core.stats import ServingStats

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Declared counters that must have no writer, each with its reason.
UNWRITTEN: Dict[str, str] = {
    "requests_dropped": (
        "a structural zero: every interrupted request is re-queued, and "
        "perfbench's correctness gate and the conservation tests read it"
    ),
    "tokens_recomputed": (
        "counting it changes the golden digests; the ROADMAP item on where "
        "SpotServe loses counts it, and then this entry goes"
    ),
}


def _is_stats(node: ast.expr) -> bool:
    return (isinstance(node, ast.Name) and node.id == "stats") or (
        isinstance(node, ast.Attribute) and node.attr == "stats"
    )


def counter_writes(root: Path = SRC) -> Dict[str, List[str]]:
    """Each attribute written on a ``stats`` receiver -> the ``file:line`` of its writes."""
    writes: Dict[str, List[str]] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        if relative == Path("core", "stats.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):  # also unpacking targets
                    if isinstance(sub, ast.Attribute) and _is_stats(sub.value):
                        writes.setdefault(sub.attr, []).append(f"{relative}:{node.lineno}")
    return writes


def test_every_declared_counter_has_a_writer():
    writes = counter_writes()
    dead = [
        name
        for name in ServingStats().counters()
        if name not in writes and name not in UNWRITTEN
    ]
    assert not dead, f"no writer in src/repro: {dead}; count each one, or delete its field"


def test_reasoned_exceptions_are_declared_and_unwritten():
    declared = ServingStats().counters()
    writes = counter_writes()
    for name, reason in UNWRITTEN.items():
        assert name in declared and reason.strip()
        assert name not in writes, f"{name} is written at {writes[name]}: drop its entry"


def test_every_stats_write_names_a_declared_counter():
    """A typo would set a new attribute that no report reads."""
    declared = ServingStats().counters()
    stray = {name: at for name, at in counter_writes().items() if name not in declared}
    assert not stray


def test_only_attribute_writes_on_a_stats_receiver_count(tmp_path):
    source = """
        def handler(self, system, other, stats):
            self.stats.by_self += 1
            system.stats.by_system = 2
            stats.local, stats.unpacked = 3, 4
            other.not_stats += 1
            setattr(stats, "by_setattr", 5)
            return stats.only_read
    """
    (tmp_path / "mod.py").write_text(textwrap.dedent(source), encoding="utf-8")
    assert counter_writes(tmp_path) == {
        "by_self": ["mod.py:3"],
        "by_system": ["mod.py:4"],
        "local": ["mod.py:5"],
        "unpacked": ["mod.py:5"],
    }
