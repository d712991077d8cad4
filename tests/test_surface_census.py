"""The name census: nothing in ``src/repro`` is reached only by tests.

Runs the stdlib-only ``tools/surface_census.py`` the CI docs job runs, on
the repository and on small synthetic trees that each pin one rule of
one of its two passes: definitions only tests use, and stored names only
tests read.
"""

import ast
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

import surface_census  # noqa: E402


def write(root, relative, source):
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")


def test_repository_census_matches_the_kept_table(capsys):
    assert surface_census.main(["--check"]) == 0, capsys.readouterr().out


def test_kept_entries_all_carry_a_reason():
    assert all(reason.strip() for reason in surface_census.KEPT.values())
    assert all(reason.strip() for reason in surface_census.KEPT_UNREAD.values())


def test_dead_chain_is_listed_and_getattr_names_are_not(tmp_path):
    write(
        tmp_path,
        "src/repro/__init__.py",
        """
        from .mod import dead, used  # re-exports are not uses
        """,
    )
    write(
        tmp_path,
        "src/repro/mod.py",
        """
        LIMIT = 3


        def helper():
            # unreached() is named here, in a comment only
            return LIMIT


        def dead():
            return helper()


        def used():
            return LIMIT


        class Box:
            def reached_by_getattr(self):
                return 1

            def unreached(self):
                return 2
        """,
    )
    write(
        tmp_path,
        "examples/run.py",
        """
        from repro.mod import Box, used

        used()
        getattr(Box(), "reached_by_getattr")()
        """,
    )
    write(tmp_path, "tests/test_mod.py", "from repro.mod import dead\ndead()\n")

    assert surface_census.census(tmp_path) == [
        "repro.mod.Box.unreached",
        "repro.mod.dead",
        "repro.mod.helper",
    ]
    # None of the three is in KEPT, so the gate fails on this tree.
    assert surface_census.main(["--root", str(tmp_path), "--check"]) == 1


def lay_out(tmp_path, modules, users):
    """A synthetic tree: ``src/repro/<name>.py`` plus user files."""
    for name, source in modules.items():
        write(tmp_path, f"src/repro/{name}.py", source)
    for relative, source in (users or {}).items():
        write(tmp_path, relative, source)


def listed(tmp_path, modules, users=None):
    """Definitions census of a synthetic tree."""
    lay_out(tmp_path, modules, users)
    return surface_census.census(tmp_path)


@pytest.mark.parametrize("tree", ["benchmarks", "examples", "perfbench", "tools"])
def test_each_user_tree_counts_as_a_use(tmp_path, tree):
    modules = {"mod": "def entry():\n    return 1\n\n\ndef other():\n    return 2\n"}
    users = {f"{tree}/user.py": "from repro.mod import entry\n\nentry()\n"}
    assert listed(tmp_path, modules, users) == ["repro.mod.other"]


def test_only_whole_words_count(tmp_path):
    modules = {
        "mod": """
        LIMIT = 3
        LIMIT_MAX = 4
        """
    }
    users = {"examples/run.py": "from repro.mod import LIMIT_MAX\n\nprint(LIMIT_MAX)\n"}
    assert listed(tmp_path, modules, users) == ["repro.mod.LIMIT"]


def test_a_docstring_mention_is_not_a_use(tmp_path):
    modules = {
        "mod": '''
        """Module notes: ``module_note`` is documented here."""


        def module_note():
            return 0


        def documented():
            """Walks the heap once, where ``peek`` would walk it twice."""
            return getattr(Queue(), "by_getattr")()


        class Queue:
            """A queue; ``class_note`` is documented here."""

            def peek(self):
                return 1

            def by_getattr(self):
                return 2

            def class_note(self):
                return 3
        '''
    }
    users = {"examples/run.py": "from repro.mod import documented\n\ndocumented()\n"}
    # Docstrings of a module, a class and a function do not count; the
    # getattr string, like any other string literal, still does.
    assert listed(tmp_path, modules, users) == [
        "repro.mod.Queue.class_note",
        "repro.mod.Queue.peek",
        "repro.mod.module_note",
    ]


def test_a_use_inside_its_own_definition_does_not_count(tmp_path):
    modules = {
        "mod": """
        def countdown(n):
            return n if n <= 0 else countdown(n - 1)
        """
    }
    assert listed(tmp_path, modules) == ["repro.mod.countdown"]


def test_methods_of_a_listed_class_go_with_it(tmp_path):
    modules = {
        "mod": """
        class Orphan:
            def lonely(self):
                return self.lonelier()

            def lonelier(self):
                return 0
        """
    }
    assert listed(tmp_path, modules) == ["repro.mod.Orphan"]


def test_dunder_names_are_never_listed(tmp_path):
    modules = {
        "mod": """
        __all__ = ["Point"]


        class Point:
            def __repr__(self):
                return "Point()"
        """
    }
    users = {"examples/run.py": "from repro.mod import Point\n\nprint(Point())\n"}
    assert listed(tmp_path, modules, users) == []


def test_annotated_constants_are_listed(tmp_path):
    modules = {"mod": "LIMIT: int = 3\nUSED: int = 4\n"}
    users = {"tools/run.py": "from repro.mod import USED\n\nprint(USED)\n"}
    assert listed(tmp_path, modules, users) == ["repro.mod.LIMIT"]


#: A class whose method ``rates`` shares its name with a local, a
#: parameter and a keyword elsewhere, none of which loads it.
PROFILE = """
class Profile:
    def rates(self):
        return [1.0]

    def mean(self):
        return 1.0


def summarize(profile, rates=None):
    rates = rates or [profile.mean()]
    return dict(rates=rates)
"""


def test_a_method_hidden_only_by_a_local_parameter_or_keyword_is_listed(tmp_path):
    users = {
        "examples/run.py": "from repro.mod import Profile, summarize\n\nrates = summarize(Profile())\n"
    }
    assert listed(tmp_path, {"mod": PROFILE}, users) == ["repro.mod.Profile.rates"]


@pytest.mark.parametrize(
    "use",
    [
        "Profile().rates()",
        "print(Profile.rates)",
        'getattr(Profile(), "rates")()',
    ],
    ids=["instance-attribute", "class-attribute", "getattr-string"],
)
@pytest.mark.parametrize("tree", ["src/repro/user.py", "examples/run.py"])
def test_an_attribute_load_or_a_string_keeps_a_method(tmp_path, use, tree):
    users = {tree: f"from repro.mod import Profile, summarize\n\nsummarize(Profile())\n{use}\n"}
    assert listed(tmp_path, {"mod": PROFILE}, users) == []


def test_a_top_level_function_used_by_bare_name_still_counts(tmp_path):
    modules = {
        "mod": """
        def helper():
            return 1


        def entry():
            return helper()


        def spare():
            return 2
        """
    }
    users = {"examples/run.py": "from repro.mod import entry\n\nentry()\n"}
    assert listed(tmp_path, modules, users) == ["repro.mod.spare"]


def test_the_listing_is_the_same_under_the_python_3_9_grammar(tmp_path, monkeypatch):
    """CI also runs the census on 3.9: f-strings must not change what it lists.

    A bare name inside an f-string's braces is a load of that name, not a
    string word, on every version; an attribute inside the braces is an
    attribute load, and the literal part is a string.
    """
    modules = {
        "mod": """
        class Profile:
            def rates(self):
                return [1.0]

            def peak(self):
                return 2.0

            def spread(self):
                return 3.0

            def trough(self):
                return 0.0


        def report(profile, rates):
            return f"{rates} {profile.peak()} spread {0:>{len(rates)}}"
        """
    }
    users = {"examples/run.py": "from repro.mod import Profile, report\n\nreport(Profile(), [])\n"}
    expected = ["repro.mod.Profile.rates", "repro.mod.Profile.trough"]
    assert listed(tmp_path, modules, users) == expected
    parse = ast.parse
    monkeypatch.setattr(
        ast, "parse", lambda source, *args, **kwargs: parse(source, feature_version=(3, 9))
    )
    assert surface_census.census(tmp_path) == expected


def test_check_passes_when_the_list_equals_kept(tmp_path, monkeypatch):
    names = listed(tmp_path, {"mod": "def kept():\n    return 1\n"})
    monkeypatch.setattr(surface_census, "KEPT", {name: "a reason" for name in names})
    # The tree stores nothing, so the write-only pass lists nothing either.
    monkeypatch.setattr(surface_census, "KEPT_UNREAD", {})
    assert surface_census.main(["--root", str(tmp_path), "--check"]) == 0


def test_check_fails_on_a_stale_kept_entry(tmp_path, monkeypatch, capsys):
    modules = {"mod": "def kept():\n    return 1\n"}
    users = {"examples/run.py": "from repro.mod import kept\n\nkept()\n"}
    assert listed(tmp_path, modules, users) == []
    monkeypatch.setattr(surface_census, "KEPT", {"repro.mod.kept": "a reason"})
    monkeypatch.setattr(surface_census, "KEPT_UNREAD", {})
    assert surface_census.main(["--root", str(tmp_path), "--check"]) == 1
    assert "STALE KEPT ENTRY: repro.mod.kept" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The write-only pass: stored names nothing outside tests reads
# ----------------------------------------------------------------------


def unread(tmp_path, modules, users=None):
    """Write-only listing of a synthetic tree."""
    lay_out(tmp_path, modules, users)
    return surface_census.unread(tmp_path)


def test_every_kind_of_store_is_listed_until_something_loads_it(tmp_path):
    modules = {
        "mod": """
        from dataclasses import dataclass
        from typing import NamedTuple


        @dataclass
        class Plan:
            size: float
            spare: float = 0.0


        class Point(NamedTuple):
            x: int
            y: int


        class Counter:
            __slots__ = ("hits", "misses")

            def __init__(self):
                self.hits = 0
                self.misses = 0
                self.total = 0

            def hit(self):
                # An augmented store writes the name; it reads nothing.
                self.hits += 1
                self.total += 1


        def use(plan, point, counter):
            return plan.size + point.x + counter.hits
        """
    }
    assert unread(tmp_path, modules) == [
        "repro.mod.Counter.misses",
        "repro.mod.Counter.total",
        "repro.mod.Plan.spare",
        "repro.mod.Point.y",
    ]


BOX = """
class Box:
    def __init__(self):
        self.kept = 1
        self.dropped = 2
"""


@pytest.mark.parametrize("tree", ["benchmarks", "examples", "perfbench", "tools"])
def test_a_load_in_each_user_tree_is_a_read_and_one_in_tests_is_not(tmp_path, tree):
    users = {
        f"{tree}/user.py": "from repro.mod import Box\n\nprint(Box().kept)\n",
        "tests/test_mod.py": "from repro.mod import Box\n\nassert Box().dropped == 2\n",
    }
    assert unread(tmp_path, {"mod": BOX}, users) == ["repro.mod.Box.dropped"]


def test_a_getattr_key_is_a_read(tmp_path):
    users = {"examples/run.py": 'from repro.mod import Box\n\nprint(getattr(Box(), "kept"))\n'}
    assert unread(tmp_path, {"mod": BOX}, users) == ["repro.mod.Box.dropped"]


def test_a_same_named_keyword_copy_and_method_call_are_not_reads(tmp_path):
    modules = {
        "mod": """
        from dataclasses import dataclass


        @dataclass
        class Plan:
            size: float
            total: float


        @dataclass
        class Summary:
            size: float
            amount: float


        class Network:
            def size(self, transfers):
                return len(transfers)


        def summarize(plan, network):
            network.size([])
            return Summary(size=plan.size, amount=plan.total)


        def report(summary):
            return summary.amount
        """
    }
    # ``size=plan.size`` only copies the value into another unread field,
    # and ``network.size([])`` calls a method; ``amount=plan.total`` reads.
    assert unread(tmp_path, modules) == ["repro.mod.Plan.size", "repro.mod.Summary.size"]


def test_docstrings_and_slots_strings_are_not_reads(tmp_path):
    modules = {
        "mod": '''
        """Module notes: ``noted`` is documented here."""


        class Box:
            """A box; ``noted`` again."""

            __slots__ = ("noted", "named")

            def __init__(self):
                """Sets ``noted`` and ``named``."""
                self.noted = 1
                self.named = 2


        LABELS = ("named",)
        '''
    }
    # Any other string still counts, as a getattr key does.
    assert unread(tmp_path, modules) == ["repro.mod.Box.noted"]


def test_dataclasses_iterated_with_fields_are_exempt(tmp_path):
    modules = {
        "mod": """
        import dataclasses
        from dataclasses import dataclass, fields


        @dataclass
        class Counters:
            hits: int = 0

            def report(self):
                return {f.name: 0 for f in fields(self)}


        @dataclass
        class Totals:
            misses: int = 0


        @dataclass
        class Other:
            spare: int = 0


        def names():
            return [f.name for f in dataclasses.fields(Totals)]
        """
    }
    assert unread(tmp_path, modules) == ["repro.mod.Other.spare"]


def test_a_store_on_another_object_is_listed_by_module_unless_a_class_declares_it(
    tmp_path,
):
    modules = {
        "mod": """
        class Request:
            __slots__ = ("done",)


        def finish(request):
            request.done = True
            request.flagged = True
        """
    }
    assert unread(tmp_path, modules) == ["repro.mod.Request.done", "repro.mod.flagged"]


def test_check_fails_on_an_unread_store_not_in_kept_unread(tmp_path, monkeypatch, capsys):
    users = {"examples/run.py": "from repro.mod import Box\n\nprint(Box().kept)\n"}
    assert unread(tmp_path, {"mod": BOX}, users) == ["repro.mod.Box.dropped"]
    monkeypatch.setattr(surface_census, "KEPT", {})
    monkeypatch.setattr(surface_census, "KEPT_UNREAD", {})
    assert surface_census.main(["--root", str(tmp_path), "--check"]) == 1
    assert "NOT IN KEPT_UNREAD: repro.mod.Box.dropped" in capsys.readouterr().out
    monkeypatch.setattr(surface_census, "KEPT_UNREAD", {"repro.mod.Box.dropped": "a reason"})
    assert surface_census.main(["--root", str(tmp_path), "--check"]) == 0


def test_check_fails_on_a_stale_kept_unread_entry(tmp_path, monkeypatch, capsys):
    users = {"examples/run.py": "from repro.mod import Box\n\nprint(Box().kept, Box().dropped)\n"}
    assert unread(tmp_path, {"mod": BOX}, users) == []
    monkeypatch.setattr(surface_census, "KEPT", {})
    monkeypatch.setattr(surface_census, "KEPT_UNREAD", {"repro.mod.Box.dropped": "a reason"})
    assert surface_census.main(["--root", str(tmp_path), "--check"]) == 1
    assert "STALE KEPT_UNREAD ENTRY: repro.mod.Box.dropped" in capsys.readouterr().out


def test_a_field_added_to_a_repository_class_is_listed(tmp_path):
    """A copy of the sources with one unread ``MigrationPlan`` field fails."""
    for tree in ("src", *surface_census.USER_TREES):
        for path in (REPO_ROOT / tree).rglob("*.py"):
            target = tmp_path / path.relative_to(REPO_ROOT)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target)
    planner = tmp_path / "src" / "repro" / "core" / "migration.py"
    source = planner.read_text(encoding="utf-8")
    anchor = "    #: Transport tier of the plan"
    assert source.count(anchor) == 1
    probe = "    unread_probe: float = 0.0\n"
    planner.write_text(source.replace(anchor, probe + anchor), encoding="utf-8")
    assert set(surface_census.unread(tmp_path)) == set(surface_census.KEPT_UNREAD) | {
        "repro.core.migration.MigrationPlan.unread_probe"
    }


def test_the_tool_parses_as_python_3_9():
    source = (REPO_ROOT / "tools" / "surface_census.py").read_text(encoding="utf-8")
    ast.parse(source, feature_version=(3, 9))


def test_the_census_never_imports_repro():
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(REPO_ROOT / 'tools')!r})\n"
        "import surface_census\n"
        "surface_census.census()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "[]"
