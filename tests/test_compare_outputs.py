"""Every command of tools/compare_outputs.py parses as the CLI means it to, unrun."""

import importlib.util
from pathlib import Path

import pytest

from opuckit.cli import build_parser
from opuckit.families import KINDS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"
spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
compare_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_outputs)


def argparse_exit(argv):
    """The code argparse itself exits with on argv: 0 for help, 2 for an unknown family."""
    if "--help" in argv:
        return 0
    if "--family" in argv and argv[argv.index("--family") + 1] not in KINDS:
        return 2
    return None


@pytest.mark.parametrize("argv", compare_outputs.COMMANDS, ids=" ".join)
def test_command_parses(argv):
    parser = build_parser()
    code = argparse_exit(argv)
    if code is None:
        assert callable(parser.parse_args(argv).fn)
    else:
        with pytest.raises(SystemExit) as info:
            parser.parse_args(argv)
        assert info.value.code == code


def test_the_differences_name_every_differing_part():
    old = (0, b"row\n", b"", {"a.csv": b"1", "b.json": b"{}"})
    assert compare_outputs.differences(old, old) == []
    new = (2, b"row\n", b"error\n", {"a.csv": b"2", "c.json": b"{}"})
    assert compare_outputs.differences(old, new) == [
        "exit code", "stderr", "file a.csv", "file b.json", "file c.json"
    ]
