import ast
import importlib
import pkgutil
import shlex
from pathlib import Path

import pytest

import segphrase
from segphrase.errors import DataError, Error, NumericalError, text_rows


def test_text_rows_skips_blank_and_comment_lines_and_counts_every_line(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(
        b"# header\r\n"
        b"\r\n"
        b"a b\r\n"
        b"   \t\n"
        b"  # indented comment\n"
        b"\t#tabbed comment\n"
        b"  c  d  \n"
        b"e#f\n"
    )
    assert list(text_rows(path)) == [(3, ["a", "b"]), (7, ["c", "d"]), (8, ["e#f"])]


def test_text_rows_passes_the_stripped_line_to_split(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("\t x\ty \t\r\n")
    seen = []
    rows = list(text_rows(path, lambda line: seen.append(line) or line))
    assert seen == ["x\ty"] and rows == [(1, "x\ty")]


def test_text_rows_names_file_and_line_for_a_split_error(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text('# c\n\n"ok" 1\n"open 2\n')
    rows = text_rows(path, shlex.split)
    assert next(rows) == (3, ["ok", "1"])
    with pytest.raises(DataError) as info:
        next(rows)
    assert str(info.value) == (
        f"{path}:4: bad quoting (No closing quotation)"
    )


def test_text_rows_rejects_a_non_utf8_byte_after_a_comment(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"# caf\xc3\xa9\nok\n# \xe9\nlater\n")
    with pytest.raises(DataError) as info:
        list(text_rows(path))
    assert str(info.value) == f"{path}: not UTF-8 text"


# -- every text input goes through errors.py ------------------------------------------

def _text_reads(tree):
    """Line numbers of open(...) / x.open(...) calls whose mode is not a
    constant holding 'b' or 'w' (text reading, the default mode)."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not (
            isinstance(func, ast.Name) and func.id == "open"
            or isinstance(func, ast.Attribute) and func.attr in ("open", "read_text")
        ):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None
        )
        is_str = isinstance(mode, ast.Constant) and isinstance(mode.value, str)
        if not (is_str and ("b" in mode.value or "w" in mode.value)):
            lines.append(node.lineno)
    return lines


def test_only_errors_module_opens_text_for_reading():
    package = Path(segphrase.__file__).parent
    reads = {
        path.name: _text_reads(ast.parse(path.read_text(encoding="utf-8")))
        for path in sorted(package.glob("*.py"))
    }
    # the walker sees open_text's own call
    assert reads.pop("errors.py")
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_text_read_walker_flags_reads_and_passes_binary_and_writes():
    source = (
        "open(p)\n"
        "open(p, 'rb')\n"
        "open(p, mode='w', encoding='utf-8')\n"
        "open(p, 'r', encoding='utf-8')\n"
        "Path(p).read_text()\n"
        "io.open(p, mode)\n"
    )
    assert _text_reads(ast.parse(source)) == [1, 4, 5, 6]


# -- two error kinds ------------------------------------------------------------------

def test_every_library_error_is_one_of_the_two_kinds():
    # cli.main tells apart DataError (exit 2) and NumericalError (exit 3)
    # only; a subclass is kept where code catches it or it is also a
    # ValueError, and a new one has to be added here on purpose
    defined = {}
    for info in pkgutil.iter_modules(segphrase.__path__):
        module = importlib.import_module(f"segphrase.{info.name}")
        defined.update(
            (name, value) for name, value in vars(module).items()
            if isinstance(value, type) and issubclass(value, BaseException)
            and value.__module__ == module.__name__
        )
    kinds = {"Error": Error, "DataError": DataError, "NumericalError": NumericalError}
    assert {name: defined.pop(name) for name in kinds} == kinds
    assert set(defined) == {
        "CollapseError", "ValidationError", "SuperpixelTargetError", "FeatureDimensionError",
    }
    for cls in defined.values():
        assert issubclass(cls, DataError) != issubclass(cls, NumericalError), cls
