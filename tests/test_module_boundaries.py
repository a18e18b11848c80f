"""No module of the package imports a private name from another: what one
module shares with the next is part of its public interface."""

import ast
from pathlib import Path

import recoilspec

SOURCES = sorted(Path(recoilspec.__file__).parent.glob("*.py"))


def test_no_private_imports_across_modules():
    found = [f"{path.name}:{node.lineno} imports {alias.name} from "
             f"{'.' * node.level}{node.module or ''}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.level or (node.module or "").startswith("recoilspec"))
             for alias in node.names if alias.name.startswith("_")]
    assert SOURCES and found == []
