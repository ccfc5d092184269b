"""The package's run-time import graph: no module imports a layer above it."""

import ast
from pathlib import Path

SRC = Path(__file__).parents[1] / "src" / "fiet"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def runtime_imports(path: Path) -> dict[str, set[str]]:
    """{module: names} for each package module the file imports at run time,
    by ``from .x import ...`` or ``from . import x``, at any depth but
    outside an ``if TYPE_CHECKING:`` block."""
    edges: dict[str, set[str]] = {}

    def visit(nodes):
        for node in nodes:
            if isinstance(node, ast.If) and _is_type_checking(node.test):
                visit(node.orelse)
                continue
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is None:
                    for alias in node.names:
                        edges.setdefault(alias.name, set())
                else:
                    edges.setdefault(node.module, set()).update(
                        alias.name for alias in node.names)
            visit(ast.iter_child_nodes(node))

    visit(ast.parse(path.read_text(encoding="utf-8")).body)
    return edges


GRAPH = {path.stem: runtime_imports(path) for path in sorted(SRC.glob("*.py"))}


def test_every_module_is_read():
    assert {"core", "orbits", "serialize", "verify", "cli"} <= set(GRAPH)
    assert set(GRAPH["cli"]) >= {"core", "construction", "orbits", "verify", "serialize"}


def test_the_leaves_import_nothing_from_the_package():
    assert {name: GRAPH[name] for name in ("record", "window", "twins")} == {
        "record": {}, "window": {}, "twins": {}}


def test_orbit_statistics_import_no_tower_module():
    assert set(GRAPH["orbits"]) == {"core", "induction"}


def test_the_writer_imports_only_core_and_record():
    assert set(GRAPH["serialize"]) == {"core", "record"}


def test_verify_imports():
    assert set(GRAPH["verify"]) == {"construction", "orbits", "record", "twins"}
    # The traced benchmark run wraps these two by name on fiet.verify.
    assert GRAPH["verify"]["orbits"] == {"birkhoff_frequencies", "oracle_crosscheck"}


def test_no_module_imports_the_command_line():
    assert [name for name, edges in GRAPH.items() if "cli" in edges] == []


def test_the_graph_has_no_cycle():
    done: set[str] = set()

    def visit(name: str, path: tuple[str, ...]) -> None:
        assert name not in path, " -> ".join(path + (name,))
        if name in done:
            return
        for target in GRAPH.get(name, {}):
            visit(target, path + (name,))
        done.add(name)

    for name in GRAPH:
        visit(name, ())
