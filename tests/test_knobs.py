"""The number of defaulted parameters in the package, pinned."""

import ast
import pathlib

import surf4

# defaulted parameters (def and lambda, positional and keyword-only) in
# src/surf4; a change that adds one raises this pin and says why
MAX_DEFAULTED = 15


def defaulted_parameters():
    paths = sorted(pathlib.Path(surf4.__file__).parent.glob("*.py"))
    assert paths
    count = 0
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
    return count


def test_defaulted_parameter_count_is_pinned():
    assert defaulted_parameters() <= MAX_DEFAULTED
