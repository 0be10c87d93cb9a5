"""Tests for the ASCII reporting helpers."""

import pytest

from repro.analysis.report import Table


def test_table_renders_header_and_rows():
    table = Table(["protocol", "msgs"], title="E1")
    table.add_row("rbp", 42)
    table.add_row("cbp", 7)
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "E1"
    assert "protocol" in lines[1] and "msgs" in lines[1]
    assert any("rbp" in line and "42" in line for line in lines)


def test_table_column_count_enforced():
    table = Table(["a", "b"])
    with pytest.raises(ValueError):
        table.add_row(1)


def test_table_float_formatting():
    table = Table(["v"])
    table.add_row(3.14159)
    assert "3.14" in table.render()


def test_table_alignment_widths():
    table = Table(["name", "value"])
    table.add_row("long-protocol-name", 1)
    text = table.render()
    header, rule, row = text.splitlines()
    assert len(header) == len(rule) == len(row)
