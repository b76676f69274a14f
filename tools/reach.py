"""Reachability scan: list the top-level package definitions that no
entry point reaches.

Usage: python tools/reach.py

Roots are the CLI (``textextract_ray/__main__.py``), the driver gate
(``__ray_entry__.py``), ``bench.py`` and every file under ``perfbench/``
and ``tools/``. Module-level code of package modules counts as a root
too, since it runs on import; its ``import`` statements do not, since an
import only binds a name: the imported definition is reached when a
reached scope uses that name.

A ``@register`` stage factory runs only when ``build_pipeline`` looks up
its registry key (the string passed to ``@register``) in a job spec. So
it is reached only when ``build_pipeline`` is reached and a reached scope
names that key; registering a stage does not reach it.

A definition (top-level function or class) is reached when a reached
scope names it: an ``ast.Name``, an ``ast.Attribute`` attribute, an
imported name, or a string constant made of identifiers (``getattr`` /
patch-by-name targets such as ``"ExtractBatch.__call__"``). Matching is
by name only, across all modules, so the scan over-approximates what is
reached: whatever it prints is named by nothing but tests.
"""

from __future__ import annotations

import ast
import glob
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = "textextract_ray"
ROOT_FILES = ("__ray_entry__.py", "bench.py", "perfbench/*.py", "tools/*.py")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def names_in(node: ast.AST) -> set[str]:
    """Every name ``node`` refers to."""
    out: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            parts = n.value.split(".")
            if all(p.isidentifier() for p in parts):
                out.update(parts)
    return out


def registration(d: ast.AST) -> ast.Call | None:
    """The ``@register("key")`` decorator call on ``d``, if any."""
    for dec in getattr(d, "decorator_list", ()):
        if (
            isinstance(dec, ast.Call)
            and isinstance(dec.func, ast.Name)
            and dec.func.id == "register"
        ):
            return dec
    return None


def scan() -> tuple[list[tuple[str, int, str, int]], int]:
    """Return the unreached definitions as (path, line, name, lines)
    and the package's total line count."""
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    stages: dict[str, str] = {}  # registry key -> factory name
    roots: set[str] = set()
    total = 0
    pkg_files = sorted(glob.glob(os.path.join(REPO, PACKAGE, "**", "*.py"), recursive=True))
    for path in pkg_files:
        rel = os.path.relpath(path, REPO)
        with open(path) as f:
            src = f.read()
        total += src.count("\n")
        entry = rel == os.path.join(PACKAGE, "__main__.py")
        for node in ast.parse(src).body:
            if isinstance(node, DEFS) and not entry:
                defs.setdefault(node.name, []).append((rel, node))
                reg = registration(node)
                if reg is not None:
                    stages[reg.args[0].value] = node.name
                    roots |= names_in(reg.func)  # the decorator runs on import
            elif not isinstance(node, (ast.Import, ast.ImportFrom)) and not (
                isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            ):
                roots |= names_in(node)
    for pattern in ROOT_FILES:
        for path in glob.glob(os.path.join(REPO, pattern)):
            if os.path.samefile(path, __file__):
                continue  # the scan names definitions only as data
            with open(path) as f:
                roots |= names_in(ast.parse(f.read()))

    reached: set[str] = set()
    named = set(roots)
    todo = [n for n in roots if n in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs[name]:
            used = names_in(node)
            named |= used
            todo.extend(n for n in used if n in defs and n not in reached)
        if not todo and "build_pipeline" in reached:
            todo = [stages[k] for k in named & stages.keys() if stages[k] not in reached]

    dead = []
    for name, sites in defs.items():
        if name in reached:
            continue
        for rel, node in sites:
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            dead.append((rel, start, name, node.end_lineno - start + 1))
    return sorted(dead), total


def main() -> None:
    dead, total = scan()
    for rel, line, name, n in dead:
        print(f"{rel}:{line} {name} {n}")
    print(f"total: {len(dead)} definitions, {sum(d[3] for d in dead)} of {total} package lines unreached")


if __name__ == "__main__":
    main()
