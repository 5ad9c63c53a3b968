"""The allow-list of tools/unrun_definitions.py names definitions that exist, unrun,
and the tool marks the ones perfbench/tracing.py names."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "unrun_definitions.py"
spec = importlib.util.spec_from_file_location("unrun_definitions", TOOL)
unrun_definitions = importlib.util.module_from_spec(spec)
spec.loader.exec_module(unrun_definitions)


def test_every_allowed_name_is_a_definition_in_src():
    names = {dotted for _, _, dotted in unrun_definitions.definitions().values()}
    assert sorted(set(unrun_definitions.ALLOWED) - names) == []
    assert all(unrun_definitions.ALLOWED.values())


def test_a_traced_name_is_marked_and_an_unrelated_one_is_not():
    spans = unrun_definitions.span_targets()
    traced = unrun_definitions.report_line("absorption.py", 1, "absorption.monomial_sum", spans)
    other = unrun_definitions.report_line("sequences.py", 1, "sequences.zero_extended", spans)
    assert unrun_definitions.SPAN_MARK in traced
    assert unrun_definitions.SPAN_MARK not in other
