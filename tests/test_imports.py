"""Every import in the package, the scripts and the tests is used, the
package raises two error types of its own, and it builds no per-token
object."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = ("src/sumprobe", "scripts", "tests")


def unused_imports(source: str, filename: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import statement binds that the module
    never reads; `from __future__` imports bind nothing."""
    tree = ast.parse(source, filename)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os, sys\nimport numpy as np\n"
              "from a.b import c as d, e\n\nprint(sys.argv, d)\n")
    assert unused_imports(source, "<test>") == [(2, "os"), (3, "np"), (4, "e")]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for directory in CHECKED for path in sorted((ROOT / directory).glob("*.py"))
             for line, name in unused_imports(path.read_text(encoding="utf-8"), str(path))]
    assert found == []


def error_classes(source: str, filename: str) -> list[str]:
    """Each class whose bases name an exception: a name that ends in Error
    or Exception, bare or qualified."""
    tree = ast.parse(source, filename)
    return [node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(ast.unparse(base).endswith(("Error", "Exception")) for base in node.bases)]


def test_the_check_finds_an_error_class():
    source = ("class A(ValueError): pass\nclass B(jsonio.DataError): pass\n"
              "class C(Exception): pass\nclass D: pass\nclass E(dict): pass\n")
    assert error_classes(source, "<test>") == ["A", "B", "C"]


def test_the_package_has_two_error_types():
    """A data error (exit 2) and a stage failure (exit 3), raised where the
    fault is found; no module adds a third."""
    found = [f"{path.name}: {name}" for path in sorted((ROOT / "src/sumprobe").glob("*.py"))
             for name in error_classes(path.read_text(encoding="utf-8"), str(path))]
    assert found == ["jsonio.py: DataError", "jsonio.py: StageError"]


def token_builds(source: str, filename: str) -> list[int]:
    """Lines that call `Token`, bare or qualified, or hand it to a call as a
    function (as `map(Token, ...)` does); an annotation names it harmlessly."""
    def is_token(node: ast.AST) -> bool:
        return ast.unparse(node).split(".")[-1] == "Token"

    tree = ast.parse(source, filename)
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and (is_token(node.func) or any(map(is_token, node.args))))


def test_the_check_finds_a_token_build():
    source = ("t = Token(0, 'a', 0)\nts = list(map(Token, xs))\nu = corpus.Token(0, 'b', 0)\n"
              "v: list[Token] = []\ndef f(w: Token) -> Token: return w\nTokenizer(1)\n")
    assert token_builds(source, "<test>") == [1, 2, 3]


def test_the_package_builds_no_token():
    """Documents hold token columns; `corpus.Token` is only the form a caller
    may build a document from by hand, so a corpus read stays free of
    per-token objects."""
    found = [f"{path.name}:{line}" for path in sorted((ROOT / "src/sumprobe").glob("*.py"))
             for line in token_builds(path.read_text(encoding="utf-8"), str(path))]
    assert found == []
