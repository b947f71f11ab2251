"""Unit tests for experiment tables."""

import pytest

from repro.harness import ExperimentTable


@pytest.fixture
def table():
    t = ExperimentTable("Demo", ["system", "rate", "median (ms)"])
    t.add_row("boki", 100, 12.5)
    t.add_row("halfmoon-read", 100, 9.25)
    return t


def test_add_row_checks_width(table):
    with pytest.raises(ValueError):
        table.add_row("only-one")


def test_column(table):
    assert table.column("system") == ["boki", "halfmoon-read"]
    assert table.column("median (ms)") == [12.5, 9.25]


def test_lookup(table):
    value = table.lookup({"system": "boki", "rate": 100}, "median (ms)")
    assert value == 12.5
    with pytest.raises(KeyError):
        table.lookup({"system": "nope"}, "median (ms)")


def test_render_text(table):
    table.add_note("a note")
    text = table.render()
    assert "Demo" in text
    assert "boki" in text
    assert "12.50" in text
    assert "note: a note" in text


def test_render_markdown(table):
    md = table.render_markdown()
    assert md.startswith("### Demo")
    assert "| boki | 100 | 12.50 |" in md


def test_unmeasured_renders_as_dash_not_zero(table):
    table.add_row("unsafe", 100, None)
    assert table.column("median (ms)")[-1] is None
    assert table.render().splitlines()[-1].split() == ["unsafe", "100", "–"]
    assert "| unsafe | 100 | – |" in table.render_markdown()


def test_crossover_ratio_interpolates():
    from repro.harness import crossover_ratio

    t = ExperimentTable("x", ["system", "read ratio", "m"])
    ratios = (0.1, 0.5, 0.9)
    # HM-read falls from 30 to 10; HM-write rises from 10 to 30;
    # they cross exactly at 0.5.
    for r, read_v, write_v in [(0.1, 30.0, 10.0), (0.5, 20.0, 20.0),
                               (0.9, 10.0, 30.0)]:
        t.add_row("halfmoon-read", r, read_v)
        t.add_row("halfmoon-write", r, write_v)
    assert crossover_ratio(t, "m", ratios) == pytest.approx(0.5)


def test_crossover_ratio_never_crossing():
    from repro.harness import crossover_ratio

    t = ExperimentTable("x", ["system", "read ratio", "m"])
    for r in (0.1, 0.9):
        t.add_row("halfmoon-read", r, 5.0)
        t.add_row("halfmoon-write", r, 1.0)
    assert crossover_ratio(t, "m", (0.1, 0.9)) == 1.0


def test_crossover_ratio_always_below():
    from repro.harness import crossover_ratio

    t = ExperimentTable("x", ["system", "read ratio", "m"])
    for r in (0.1, 0.9):
        t.add_row("halfmoon-read", r, 1.0)
        t.add_row("halfmoon-write", r, 5.0)
    assert crossover_ratio(t, "m", (0.1, 0.9)) == 0.1
