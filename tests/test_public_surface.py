"""Every public name in `src/mindkit` has a caller in the program.

The program is the package itself, the demos and the benchmark.  A public
module-level name or public method that only tests reach is surface nobody
uses; the few kept on purpose are listed below with their reason.  Names are
matched by identifier, so the check is lenient: it catches a name that no
code mentions at all.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM = ("src", "demos", "opbench")
# The benchmark's tracer names the entry points it wraps as dotted strings.
DOTTED_NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")

KEPT = {
    "streamkit.ChannelQualityTracker.ingest_sample":
        "criterion 01 feeds the documented filter triples one sample at a time",
    "streamkit.ChannelQualityTracker.prev_filtered":
        "criterion 01 sets the filter state and reads the filtered value",
    "session.save_study": "writes the --study format; round-trip and substitution "
                          "tests build their inputs with it",
    "simkit.save_profile": "writes the --profile format; round-trip tests build "
                           "their inputs with it",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(path: Path) -> list[str]:
    """Public module-level names and public methods, as module.name and module.Class.method."""
    module = path.stem
    names = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
        if isinstance(node, ast.ClassDef) and _public(node.name):
            names += [f"{node.name}.{m.name}" for m in node.body
                      if isinstance(m, ast.FunctionDef) and _public(m.name)]
    return [f"{module}.{n}" for n in dict.fromkeys(names) if _public(n.split(".")[0])]


def _references(tree: ast.AST) -> set[str]:
    """Identifiers that code names: read names, attributes, imports, dotted-name strings.

    A property's `@name.setter` decorator is part of its definition, not a use.
    """
    setters = {id(d.value) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               for d in node.decorator_list
               if isinstance(d, ast.Attribute) and isinstance(d.value, ast.Name)
               and d.value.id == node.name}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store) \
                and id(node) not in setters:
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED_NAME.fullmatch(node.value):
            used.update(node.value.split("."))
    return used


def test_every_public_name_has_a_caller_in_the_program():
    used = set().union(*(_references(ast.parse(path.read_text(encoding="utf-8")))
                         for folder in PROGRAM
                         for path in sorted((ROOT / folder).rglob("*.py"))))
    unused = [name for path in sorted((ROOT / "src" / "mindkit").glob("*.py"))
              for name in _definitions(path) if name.split(".")[-1] not in used]
    # a kept name that gains a caller, or goes, leaves the list as well
    assert sorted(unused) == sorted(KEPT)
