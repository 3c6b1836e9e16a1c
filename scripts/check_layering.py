#!/usr/bin/env python
"""Enforce the repro package's import-direction, collector, scipy,
``np.load`` and dead-definition rules.

The package is layered (DESIGN.md §8): a module may import from its own
layer or any layer below it, never from above.  This script walks every
module's AST, resolves intra-package imports to their top-level member
(``repro.cleaning.dp_cleaner`` → ``cleaning``) and fails — listing every
offending import — when an import points to a higher layer.

One module controls CPython's cyclic collector (DESIGN.md §6, "Collector
policy"): ``gc.disable``, ``gc.enable``, ``gc.freeze`` and
``gc.set_threshold`` may appear only in ``repro/runtime/collector.py``.
Any other reference to them, through ``import gc`` (aliased or not) or
``from gc import ...``, is reported too.

The library never writes to stdout: ``print`` may appear only in
``repro/cli.py``, which renders the reports the library returns.

The package runs on numpy's BLAS alone (DESIGN.md §6, "Process
footprint"): scipy brings a second OpenBLAS runtime, so no module under
``src/repro`` may import ``scipy`` anywhere — at module level or in a
function body.

No module under ``src/repro`` calls ``np.load`` (DESIGN.md §6,
"Collector policy"): numpy parses every ``.npy`` header with
``ast.literal_eval``, whose closures are left in reference cycles that
the paused collector would hold until the pass ends
(``tests/runtime/test_collector.py`` catches them).  Any reference to
``load`` on an imported ``numpy`` (aliased or not), or ``from numpy
import load``, is reported; ``repro.service.checkpoint`` reads its
arrays without it.

``src/`` holds only what a production path runs: every ``def`` and
``class`` under ``src/repro`` must be referenced by code somewhere in
``src/``, ``examples/`` or ``perfbench/`` — as a name, an attribute or a
``from ... import`` outside a package ``__init__`` (whose imports are
re-exports).  Docstrings, comments and other strings do not count;
expressions inside f-strings do.  Dunder names are exempt, and
``tests/`` does not count as a caller: an oracle or fault injector that
only tests use lives in ``tests/``.

No module imports a name it never uses: every name an ``import`` binds
in ``src/``, ``tests/``, ``scripts/`` or ``examples/`` must be read in
that module.  Exempt are ``from __future__`` imports, package
``__init__`` modules (whose imports are re-exports), names listed in the
module's ``__all__``, and in ``tests/`` names a function takes as a
parameter (a pytest fixture imported from another module).

Run directly (``python scripts/check_layering.py``) or through ``make
lint``; the tier-1 suite also exercises it (``tests/test_layering.py``),
including the failure path on a seeded violation.
"""

from __future__ import annotations

import argparse
import ast
import sys
from pathlib import Path

#: member → layer.  A member is a top-level module or subpackage of
#: ``repro``.  Same-or-lower-layer imports are allowed; upward imports
#: are violations.  New members must be registered here — unknown
#: members are reported too, so the map cannot silently rot.
LAYERS: dict[str, int] = {
    # L0 — foundation: no intra-package imports at all.
    "errors": 0,
    "config": 0,
    "rng": 0,
    "runtime": 0,
    # L1 — simulation primitives.
    "nlp": 1,
    "world": 1,
    # L2 — corpus synthesis.
    "corpus": 2,
    # L3 — the knowledge base.
    "kb": 3,
    # L4 — extraction over corpus + KB.
    "extraction": 4,
    # L5 — analysis substrate over the extracted KB.
    "ranking": 5,
    "concepts": 5,
    "features": 5,
    "labeling": 5,
    "learning": 5,
    "analysis": 5,
    "evaluation": 5,
    # L6 — cleaning consumes the whole analysis substrate.
    "cleaning": 6,
    # L7 — orchestration.
    "service": 7,
    "experiments": 7,
    # L8 — front-ends.
    "cli": 8,
    "__main__": 8,
    "__init__": 8,
}


#: ``gc`` functions that switch or tune the collector, and the one module
#: (as dotted parts below ``repro``) allowed to use them.
COLLECTOR_SWITCHES = frozenset(
    {"disable", "enable", "freeze", "set_threshold"}
)
COLLECTOR_MODULE = ["runtime", "collector"]

#: The one module allowed to reference ``print``.
PRINT_MODULE = ["cli"]

#: Directories, beside the package's own ``src/``, whose files count as
#: callers for the dead-definition rule (relative to the repository root).
CALLER_DIRS = ("examples", "perfbench")

#: Directories the unused-import rule walks (relative to the repository
#: root).
IMPORT_DIRS = ("src", "tests", "scripts", "examples")


def _module_parts(path: Path, root: Path) -> list[str]:
    """Dotted-path components of a source file relative to the package.

    ``cleaning/baselines/rw_rank.py`` → ``["cleaning", "baselines",
    "rw_rank"]``; ``cleaning/__init__.py`` → ``["cleaning", "__init__"]``.
    """
    relative = path.relative_to(root)
    parts = list(relative.parts)
    parts[-1] = parts[-1][:-3]
    return parts


def _imported_members(
    tree: ast.Module, parts: list[str]
) -> list[tuple[int, str]]:
    """(line, member) for every intra-package import in a module.

    Relative imports resolve against the module's real package path, so
    ``from ..base import X`` inside ``cleaning/baselines/`` correctly
    lands on ``cleaning`` (same member) rather than a sibling.
    """
    # The package a level-1 relative import resolves against (for an
    # __init__ module, parts ends in "__init__", so this is the package
    # directory itself — matching Python's resolution rules).
    package = parts[:-1]
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0:
                if node.module and node.module.split(".")[0] == "repro":
                    tail = node.module.split(".")[1:]
                    resolved = tail or [alias.name for alias in node.names]
                    for name in resolved[:1] if tail else resolved:
                        found.append((node.lineno, name))
                continue
            base = package[: len(package) - (node.level - 1)]
            tail = node.module.split(".") if node.module else []
            resolved = base + tail
            if resolved:
                found.append((node.lineno, resolved[0]))
            else:
                # 'from .. import x' reaching the package root: each
                # imported name is itself a top-level member.
                for alias in node.names:
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                dotted = alias.name.split(".")
                if dotted[0] == "repro" and len(dotted) > 1:
                    found.append((node.lineno, dotted[1]))
    return found


def _collector_switches(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, name) for every reference to a :data:`COLLECTOR_SWITCHES`."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "gc"
    }
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "gc":
            found.extend(
                (node.lineno, alias.name)
                for alias in node.names
                if alias.name in COLLECTOR_SWITCHES
            )
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in COLLECTOR_SWITCHES
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append((node.lineno, node.attr))
    return sorted(found)


def _prints(tree: ast.Module) -> list[int]:
    """Line of every reference to the ``print`` builtin."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "print"
    )


def _scipy_imports(tree: ast.Module) -> list[int]:
    """Line of every ``scipy`` import in the module, function bodies
    included."""
    found: list[int] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            found.append(node.lineno)
    return sorted(found)


def _numpy_loads(tree: ast.Module) -> list[int]:
    """Line of every reference to ``numpy.load``."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "numpy"
    }
    found: list[int] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            if any(alias.name == "load" for alias in node.names):
                found.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "load"
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            found.append(node.lineno)
    return sorted(found)


def _references(tree: ast.Module, path: Path) -> set[str]:
    """Every name the module's code references.

    Names, attribute names (``obj.name``) and the names a ``from ...
    import`` brings in, except in a package ``__init__``, where imports
    are re-exports.  Module names are not references to definitions, so
    ``import`` statements and ``from`` paths do not count.  Nor does a
    reference inside the body of a definition of the same name: a
    method that only delegates to its namesake (or recurses) keeps
    neither alive.
    """
    reexports = path.name == "__init__.py"
    names: set[str] = set()
    pending: list[tuple[ast.AST, frozenset[str]]] = [(tree, frozenset())]
    while pending:
        node, enclosing = pending.pop()
        if isinstance(node, ast.Name):
            found = [node.id]
        elif isinstance(node, ast.Attribute):
            found = [node.attr]
        elif isinstance(node, ast.ImportFrom) and not reexports:
            found = [alias.name for alias in node.names]
        else:
            found = []
        names.update(name for name in found if name not in enclosing)
        body: set[int] = set()
        inner = enclosing
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            # Decorators, arguments and bases sit outside the body.
            body = set(map(id, node.body))
            inner = enclosing | {node.name}
        pending.extend(
            (child, inner if id(child) in body else enclosing)
            for child in ast.iter_child_nodes(node)
        )
    return names


def check_dead_definitions(root: Path) -> list[str]:
    """Every ``def`` and ``class`` under ``root`` that no caller references.

    Callers are the ``.py`` files under ``root.parent`` (``src/``) and
    the :data:`CALLER_DIRS` of the repository that holds it; each file is
    parsed once and contributes its :func:`_references`.
    """
    repository = root.parent.parent
    sources = [root.parent] + [repository / name for name in CALLER_DIRS]
    uses: set[str] = set()
    definitions: list[tuple[Path, int, str]] = []
    for source in sources:
        for path in sorted(source.rglob("*.py")):
            text = path.read_text(encoding="utf-8")
            tree = ast.parse(text, filename=str(path))
            if path.is_relative_to(root):
                definitions.extend(
                    (path, node.lineno, node.name)
                    for node in ast.walk(tree)
                    if isinstance(
                        node,
                        (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                    )
                    and not (
                        node.name.startswith("__")
                        and node.name.endswith("__")
                    )
                )
            uses |= _references(tree, path)
    return [
        f"{path}:{lineno}: {name} is defined but nothing in src/, "
        "examples/ or perfbench/ uses it — delete it, or move it into "
        "tests/ if only tests call it"
        for path, lineno, name in sorted(definitions)
        if name not in uses
    ]


def _read_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, quoted annotations included."""
    names = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(
                inner.id
                for inner in ast.walk(quoted)
                if isinstance(inner, ast.Name)
            )
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    """The strings of a module-level ``__all__`` list or tuple."""
    names: set[str] = set()
    for node in tree.body:
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            names.update(
                element.value
                for element in node.value.elts
                if isinstance(element, ast.Constant)
            )
    return names


def _unused_imports(tree: ast.Module, fixtures: bool) -> list[tuple[int, str]]:
    """(line, name) for every imported name the module never reads.

    ``fixtures`` exempts names some function takes as a parameter.
    """
    used = _read_names(tree) | _exported_names(tree)
    if fixtures:
        used.update(
            arg.arg
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for arg in node.args.args + node.args.kwonlyargs
        )
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [
                alias.asname or alias.name.split(".")[0]
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [
                alias.asname or alias.name
                for alias in node.names
                if alias.name != "*"
            ]
        else:
            continue
        found.extend(
            (node.lineno, name) for name in bound if name not in used
        )
    return sorted(found)


def check_unused_imports(repository: Path) -> list[str]:
    """Every unused import under the :data:`IMPORT_DIRS` of a repository."""
    violations: list[str] = []
    for directory in IMPORT_DIRS:
        for path in sorted((repository / directory).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(
                path.read_text(encoding="utf-8"), filename=str(path)
            )
            fixtures = directory == "tests"
            for lineno, name in _unused_imports(tree, fixtures):
                violations.append(
                    f"{path}:{lineno}: {name} is imported but never used"
                )
    return violations


def check_layering(root: Path) -> list[str]:
    """All layering violations under ``root`` (the ``repro`` package dir)."""
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        parts = _module_parts(path, root)
        member = parts[0]
        layer = LAYERS.get(member)
        if layer is None:
            violations.append(
                f"{path}: member {member!r} is not registered in "
                "scripts/check_layering.py LAYERS"
            )
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if parts != COLLECTOR_MODULE:
            for lineno, name in _collector_switches(tree):
                violations.append(
                    f"{path}:{lineno}: gc.{name} outside "
                    "repro/runtime/collector.py — pause the collector "
                    "with repro.runtime.collector_paused"
                )
        if parts != PRINT_MODULE:
            for lineno in _prints(tree):
                violations.append(
                    f"{path}:{lineno}: print outside repro/cli.py — the "
                    "library returns reports and records spans instead"
                )
        for lineno in _scipy_imports(tree):
            violations.append(
                f"{path}:{lineno}: scipy import — the package runs on "
                "numpy alone (scipy loads a second OpenBLAS runtime)"
            )
        for lineno in _numpy_loads(tree):
            violations.append(
                f"{path}:{lineno}: np.load — its header parser leaves "
                "reference cycles; read arrays as repro.service.checkpoint "
                "does"
            )
        for lineno, imported in _imported_members(tree, parts):
            if imported == member:
                continue
            imported_layer = LAYERS.get(imported)
            if imported_layer is None:
                violations.append(
                    f"{path}:{lineno}: imports unregistered member "
                    f"{imported!r} (add it to LAYERS)"
                )
            elif imported_layer > layer:
                violations.append(
                    f"{path}:{lineno}: {member} (L{layer}) imports "
                    f"{imported} (L{imported_layer}) — upward import"
                )
    return violations


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "src" / "repro",
        help="the repro package directory to check",
    )
    args = parser.parse_args(argv)
    violations = (
        check_layering(args.root)
        + check_dead_definitions(args.root)
        + check_unused_imports(args.root.parent.parent)
    )
    if violations:
        print(f"{len(violations)} layering violation(s):", file=sys.stderr)
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print(f"layering OK ({args.root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
