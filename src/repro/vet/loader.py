"""AST loading for DexVet.

Parses every Python file under the requested paths once and hands the
trees to the downstream passes (call graph, effect inference, message
graph, rules).  Files that fail to parse become ``parse-error``
violations rather than aborting the run — a half-broken tree must still
be vettable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple


@dataclass
class ParseFailure:
    """A file the loader could not parse."""

    path: str
    line: int
    message: str


class ModuleInfo:
    """One parsed module plus the path bookkeeping every pass needs."""

    __slots__ = ("path", "tree", "rel", "parts")

    def __init__(self, path: Path, tree: ast.Module, under_root: Optional[Path]):
        self.path = path
        self.tree = tree
        #: display/graph name: posix path relative to the scan root when
        #: the file lives under one (``core/protocol.py``), else its name
        self.rel = under_root.as_posix() if under_root else path.name
        #: the parts scoped rules read (exemptions, the packages a rule
        #: covers): relative to the scan root, so where the checkout lives
        #: does not matter; a file named on its own keeps the path as given
        self.parts = (under_root or path).parts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ModuleInfo {self.rel}>"


def iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Expand *paths* (files or directories) into a sorted file list."""
    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    return files


def _under_root(path: Path, roots: Sequence[Path]) -> Optional[Path]:
    resolved = path.resolve()
    for root in roots:
        try:
            return resolved.relative_to(root.resolve())
        except ValueError:
            continue
    return None


def load_paths(
    paths: Sequence[Path],
) -> Tuple[List[ModuleInfo], List[ParseFailure]]:
    """Parse every file under *paths*.  Returns ``(modules, failures)``."""
    roots = [p for p in paths if p.is_dir()]
    modules: List[ModuleInfo] = []
    failures: List[ParseFailure] = []
    for path in iter_python_files(paths):
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as err:
            failures.append(
                ParseFailure(str(path), err.lineno or 0, str(err.msg))
            )
            continue
        modules.append(ModuleInfo(path, tree, _under_root(path, roots)))
    return modules, failures


def package_root() -> Path:
    """The installed ``repro`` package directory (the default scan root)."""
    import repro

    return Path(repro.__file__).parent

