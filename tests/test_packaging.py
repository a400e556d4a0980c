"""Every third-party module the package imports is a declared dependency."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
PYPROJECT = ROOT / "pyproject.toml"


def _requirements_by_regex(text: str) -> list[str]:
    """``[project] dependencies`` read without a TOML parser (Python 3.10)."""
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.MULTILINE | re.DOTALL)
    return re.findall(r"[\"']([^\"']+)[\"']", block.group(1))


def _requirements(text: str) -> list[str]:
    try:
        import tomllib
    except ModuleNotFoundError:
        return _requirements_by_regex(text)
    return tomllib.loads(text)["project"]["dependencies"]


def _distribution_name(requirement: str) -> str:
    name = re.match(r"[A-Za-z0-9_.-]+", requirement.strip()).group(0)
    return re.sub(r"[-_.]+", "_", name).lower()


def _third_party_imports() -> dict[str, list[str]]:
    """Top-level third-party module name -> the package files importing it."""
    found: dict[str, list[str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, []).append(str(path.relative_to(ROOT)))
    return found


def test_every_third_party_import_is_declared():
    declared = {_distribution_name(r) for r in _requirements(PYPROJECT.read_text())}
    imports = _third_party_imports()
    assert imports, "the import scan found nothing; is the package where it used to be?"
    undeclared = {
        module: sorted(set(files))
        for module, files in imports.items()
        if _distribution_name(module) not in declared
    }
    assert not undeclared, f"imported but not in [project] dependencies: {undeclared}"


@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs tomllib to compare against")
def test_regex_fallback_reads_the_same_list():
    text = PYPROJECT.read_text()
    assert _requirements_by_regex(text) == _requirements(text)
