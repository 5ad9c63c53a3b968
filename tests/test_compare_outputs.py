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


def test_csv_changes_give_the_largest_relative_change_per_column():
    old = b"# opuckit 1\nm,N,Q,tail\n1,10,0.5,2.0\n1,20,1.0,4.0\n"
    new = b"# opuckit 2\nm,N,Q,tail\n1,10,0.5,2.5\n1,20,1.0,5.0\n"
    assert compare_outputs.csv_changes(old, new) == {"tail": 0.2}
    assert compare_outputs.csv_changes(old, old) == {}
    # 0.0 and -0.0 are one number; a label column is no number
    assert compare_outputs.csv_changes(b"a,b\nx,0.0\n", b"a,b\ny,-0.0\n") == {}
    assert compare_outputs.csv_changes(old, b"m,N,Q\n1,10,0.5\n1,20,1.0\n") is None
    assert compare_outputs.csv_changes(old, old + b"1,30,1.5,6.0\n") is None


def test_the_differences_name_every_differing_part():
    old = (0, b"row\n", b"", {"a.csv": b"1", "b.json": b"{}"})
    assert compare_outputs.differences(old, old) == []
    new = (2, b"row\n", b"error\n", {"a.csv": b"2", "c.json": b"{}"})
    assert compare_outputs.differences(old, new) == [
        "exit code", "stderr", "file a.csv", "file b.json", "file c.json"
    ]
