"""The oracles and fixtures in helpers.py stay independent of the kernels they check."""

import ast
from pathlib import Path

HELPERS = Path(__file__).with_name("helpers.py")
KERNEL_NAMES = {
    "_cut_matrices", "purities", "purity", "concurrence", "concurrences", "named_purities",
}
SHORTHANDS = "one_state"  # the tests' one-state calls of those kernels


def test_helpers_import_no_kernel_from_the_package():
    kernel_imports = []
    for node in ast.walk(ast.parse(HELPERS.read_text(), str(HELPERS))):
        if isinstance(node, ast.Import):
            # `import entspec...` would reach every kernel by attribute
            kernel_imports += [
                a.name for a in node.names
                if a.name.startswith("entspec") or a.name == SHORTHANDS
            ]
        elif isinstance(node, ast.ImportFrom) and node.module == SHORTHANDS:
            kernel_imports += [f"{SHORTHANDS}.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("entspec"):
            kernel_imports += [a.name for a in node.names if a.name in KERNEL_NAMES | {"*"}]
    assert kernel_imports == []
