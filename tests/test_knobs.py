"""The number of defaulted parameters and fields in the package, and its
line count, pinned."""

import ast
import pathlib

import surf4

# defaulted parameters (def and lambda, positional and keyword-only) and
# defaulted dataclass fields in src/surf4; a change that adds one raises
# its pin and says why
MAX_DEFAULTED = 14
MAX_FIELD_DEFAULTS = 3
# lines of src/surf4/*.py; a change that grows the package raises this pin
# and says why
MAX_SOURCE_LINES = 3291


def package_sources():
    paths = sorted(pathlib.Path(surf4.__file__).parent.glob("*.py"))
    assert paths
    return [path.read_text(encoding="utf-8") for path in paths]


def package_nodes():
    for source in package_sources():
        yield from ast.walk(ast.parse(source))


def defaulted_parameters():
    count = 0
    for node in package_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            count += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
    return count


def dataclass_field_defaults():
    """Annotated fields with a default (a value or a ``field(...)``) in the
    classes decorated with ``dataclass`` or ``dataclass(...)``."""
    count = 0
    for node in package_nodes():
        if isinstance(node, ast.ClassDef) and any(
                ast.unparse(d).startswith("dataclass")
                for d in node.decorator_list):
            count += sum(isinstance(stmt, ast.AnnAssign)
                         and stmt.value is not None for stmt in node.body)
    return count


def test_defaulted_parameter_count_is_pinned():
    assert defaulted_parameters() <= MAX_DEFAULTED


def test_dataclass_field_default_count_is_pinned():
    assert dataclass_field_defaults() <= MAX_FIELD_DEFAULTS


def test_source_line_count_is_pinned():
    assert sum(len(source.splitlines())
               for source in package_sources()) <= MAX_SOURCE_LINES
