"""The sources parse as the oldest Python that pyproject.toml allows, and
bridgegen's modules import one another in one layer order."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src", "tests", "bench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# bridgegen's modules in layer order: each imports only modules before it
LAYERS = ("_record", "fir", "ir", "dialects", "codegen", "einsum", "intrinsics", "gpu",
          "interp", "cli", "__init__", "__main__")
PACKAGE = ROOT / "src" / "bridgegen"


def bridgegen_imports(tree):
    """The bridgegen modules that ``tree`` imports, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or node.module.partition(".")[0] == "bridgegen"):
            if node.module and node.module != "bridgegen":
                yield node.module.split(".")[-1]
            else:
                yield from (a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name.split(".")[1] for a in node.names
                        if a.name.startswith("bridgegen."))


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_imports_only_earlier_layers(path):
    assert path.stem in LAYERS, "a new module takes its place in LAYERS"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    earlier = LAYERS[:LAYERS.index(path.stem)]
    assert [m for m in bridgegen_imports(tree) if m not in earlier] == []


def test_ir_imports_only_record():
    tree = ast.parse((PACKAGE / "ir.py").read_text(encoding="utf-8"))
    assert set(bridgegen_imports(tree)) == {"_record"}
