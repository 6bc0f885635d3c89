"""Line count, public-symbol count and settable-option count of the package,
and the public symbols that nothing reads.

    python3 tests/surface.py [PACKAGE_DIR]

prints, for each ``*.py`` file of ``PACKAGE_DIR`` (default ``src/parsnet``),
its line count (as ``wc -l`` counts), its code lines (the lines that are not
blank, not only a comment and not part of a docstring) and its public
symbols, then the totals;
then the settable options of each config class, then their total; then the
public symbols that no file of the package or of the benchmark directory
(``perfbench`` next to the package's ``src``) reads.
A public symbol is a module-level function, class or constant whose name does
not start with an underscore, or such a member of a public class: a method,
property or class attribute, dataclass fields included.  A config class is a
dataclass whose name ends in ``Config``; its settable options are the fields
its own body declares, so a subclass does not count its base's again.  A
read is a name or an attribute in load context (``x``, ``obj.x``, not
``obj.x = ...``), an entry of ``__all__`` or an entry of the benchmark's span
``TARGETS``; a member counts as read where any attribute of its name is, so
the list errs toward missing an unread symbol.  The files are parsed, not
imported.
"""

from __future__ import annotations

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "parsnet"


def _names(target: ast.expr) -> list[str]:
    """The plain names an assignment target binds (``a`` or ``a, b``, not ``a.b``)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        return [name for item in target.elts for name in _names(item)]
    return []


def _assigned(node: ast.stmt) -> list[str]:
    """The plain names that an assignment statement binds."""
    if isinstance(node, ast.Assign):
        return [name for target in node.targets for name in _names(target)]
    if isinstance(node, ast.AnnAssign):
        return _names(node.target)
    return []


def _defined(body: list[ast.stmt]) -> list[tuple[str, ast.stmt]]:
    """``(name, statement)`` for each function, class or assignment in ``body``."""
    out = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        else:
            out.extend((name, node) for name in _assigned(node))
    return out


def docstrings(tree: ast.Module) -> list[ast.Expr]:
    """The module, class and function docstrings of a parsed module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.append(first)
    return found


def code_lines(source: str) -> int:
    """The lines of one module that are not blank, not only a comment and not
    part of a module, class or function docstring."""
    skipped = {number for doc in docstrings(ast.parse(source))
               for number in range(doc.lineno, doc.end_lineno + 1)}
    return sum(1 for number, line in enumerate(source.splitlines(), start=1)
               if line.strip() and not line.lstrip().startswith("#")
               and number not in skipped)


def public_symbols(source: str) -> list[str]:
    """The public symbols of one module, classes' members as ``Class.member``."""
    found = []
    for name, node in _defined(ast.parse(source).body):
        if name.startswith("_"):
            continue
        found.append(name)
        if isinstance(node, ast.ClassDef):
            found.extend(f"{name}.{member}" for member, _ in _defined(node.body)
                         if not member.startswith("_"))
    return found


def config_options(source: str) -> list[tuple[str, int]]:
    """``(class name, own field count)`` for each config class of one module."""
    return [(node.name, sum(isinstance(item, ast.AnnAssign) for item in node.body))
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config")
            and any("dataclass" in ast.unparse(deco) for deco in node.decorator_list)]


def reads(source: str) -> set[str]:
    """The names one module reads, by the rule in the module docstring."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif {"__all__", "TARGETS"} & set(_assigned(node)):
            found.update(item.value for item in ast.walk(node.value)
                         if isinstance(item, ast.Constant) and isinstance(item.value, str))
    return found


def unread_symbols(package: pathlib.Path = PACKAGE) -> list[str]:
    """The public symbols of ``package``, as ``module.name``, that no file of
    the package or of the benchmark directory reads."""
    public, read = [], set()
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        public += [f"{path.stem}.{name}" for name in public_symbols(text)]
        read |= reads(text)
    for path in sorted((package.parents[1] / "perfbench").glob("*.py")):
        read |= reads(path.read_text())
    return [name for name in public if name.rsplit(".", 1)[-1] not in read]


def main(package: pathlib.Path) -> None:
    lines = code = symbols = options = 0
    configs = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text()
        found = public_symbols(text)
        count, own_code = text.count("\n"), code_lines(text)
        lines, code, symbols = lines + count, code + own_code, symbols + len(found)
        configs += config_options(text)
        print(f"{path.name:16} {count:6} lines {own_code:6} code lines "
              f"{len(found):5} public symbols")
    print(f"{'total':16} {lines:6} lines {code:6} code lines {symbols:5} public symbols")
    for name, count in configs:
        options += count
        print(f"{name:16} {count:6} settable options")
    print(f"{'total':16} {options:6} settable options")
    unread = unread_symbols(package)
    print(f"{len(unread)} public symbols that nothing reads:")
    for name in unread:
        print(f"  {name}")


if __name__ == "__main__":
    main(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else PACKAGE)
