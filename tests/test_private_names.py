"""Every private module-level function or class in src/ is named in src/
beyond its own definition: a private name read only by the tests is a
second name kept for them, and the tests should read the code's own."""

import ast
import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _private_definitions(text):
    """Names of the module-level functions and classes in text that start
    with one underscore."""
    return [
        node.name
        for node in ast.parse(text).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]


def test_every_private_definition_is_named_in_src():
    texts = {path: path.read_text() for path in sorted(SRC.rglob("*.py"))}
    source = "\n".join(texts.values())
    unused = [
        f"{path.relative_to(SRC)}:{name}"
        for path, text in texts.items()
        for name in _private_definitions(text)
        if len(re.findall(rf"\b{re.escape(name)}\b", source)) < 2
    ]
    assert sum(len(_private_definitions(text)) for text in texts.values()) > 0
    assert unused == []
