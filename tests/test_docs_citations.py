"""Every test and ROADMAP citation in DESIGN.md and README.md resolves.

The kinds of citation checked:

* a ``tests/...`` path, bare or with ``::`` nodes, or a test module
  cited without ``tests/`` (``test_x.py::TestY``): a test module or
  node must be collected, and any other path must exist;
* a bare ``Test...`` class or ``test_...`` function name: some
  collected test has that name;
* "ROADMAP item N": ROADMAP.md lists item N under its open items.

The collected tests are read from the source by pytest's default rules
(``test_*.py`` files, ``Test*`` classes, ``test*`` functions and
methods; no test class here has a base class), so the check needs no
collection run of its own.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "README.md")
TEST_DIRS = ("tests", "perfbench/tests")

#: A ``tests/...`` path and its nodes.
TESTS_PATH = re.compile(r"(?<![\w/.-])(tests/[\w/.-]*\w)((?:::\w+)*)")
#: A test module cited without ``tests/``, and its nodes.
MODULE = re.compile(r"(?<![\w/.-])(test_\w+\.py)((?:::\w+)*)")
#: A bare test class or function name.
NAME = re.compile(r"(?<![\w/.:-])(Test[A-Z]\w*|test_\w+)(?![\w.])")
ROADMAP_ITEM = re.compile(r"ROADMAP\s+item\s+(\d+)")


def _collected():
    """Node ids of every test module, class, function and method."""
    ids = set()
    for directory in TEST_DIRS:
        for path in sorted((ROOT / directory).rglob("test_*.py")):
            module = path.relative_to(ROOT).as_posix()
            ids.add(module)
            for node in ast.parse(path.read_text()).body:
                if isinstance(node, ast.ClassDef):
                    if not node.name.startswith("Test"):
                        continue
                    ids.add(f"{module}::{node.name}")
                    ids.update(
                        f"{module}::{node.name}::{item.name}"
                        for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name.startswith("test")
                    )
                elif isinstance(node, ast.FunctionDef) and (
                    node.name.startswith("test")
                ):
                    ids.add(f"{module}::{node.name}")
    return ids


def _citations(kind):
    """``(doc:line, cited text)`` of each citation of ``kind``."""
    found = []
    for doc in DOCS:
        text = (ROOT / doc).read_text()
        for match in kind.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            found.append((f"{doc}:{line}", match.group(0)))
    return found


def _resolves(path, nodes, ids):
    if not Path(path).name.startswith("test_") or not path.endswith(".py"):
        return not nodes and (ROOT / path).exists()
    return path + nodes in ids


def test_every_cited_test_path_or_node_is_collected():
    ids = _collected()
    cited = [
        (where, TESTS_PATH.fullmatch(text).groups())
        for where, text in _citations(TESTS_PATH)
    ] + [
        (where, ("tests/" + module, nodes))
        for where, text in _citations(MODULE)
        for module, nodes in [MODULE.fullmatch(text).groups()]
    ]
    assert len(cited) >= 20
    unresolved = [
        (where, path + nodes)
        for where, (path, nodes) in cited
        if not _resolves(path, nodes, ids)
    ]
    assert unresolved == []


def test_every_cited_test_name_is_collected():
    names = {node.rsplit("::", 1)[-1] for node in _collected()}
    cited = _citations(NAME)
    assert len(cited) >= 5
    assert [(where, name) for where, name in cited if name not in names] == []


def test_every_cited_roadmap_item_is_open():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    items = roadmap.split("\n## Open items\n", 1)[1].split("\n## ", 1)[0]
    open_items = set(re.findall(r"^### Item (\d+) ", items, re.MULTILINE))
    assert open_items
    unresolved = [
        (where, text)
        for where, text in _citations(ROADMAP_ITEM)
        if ROADMAP_ITEM.fullmatch(text).group(1) not in open_items
    ]
    assert unresolved == []
