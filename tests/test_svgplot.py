"""``svgplot.render`` draws a figure from the rows of its own table.

Each series names a column; a series that takes no row (every cell blank,
or every row filtered out by ``only``) is left out and takes no palette
colour; every x is read from ``Figure.x``; and each point is ``float`` of
its cell, whatever the cell's spelling.
"""

import dataclasses

import pytest

from sizecon.svgplot import PALETTE, Figure, Series, render, write

ROWS = [
    {"kind": "a", "n": 1, "m": "10", "y": "0.5", "blank": ""},
    {"kind": "a", "n": 2, "m": "20", "y": "1.5", "blank": ""},
    {"kind": "b", "n": 3, "m": "30", "y": "-2.25", "blank": ""},
]


def figure(x="n", *series):
    return Figure("title", "x label", "y label", x, series)


def test_a_series_that_takes_no_row_is_dropped_and_takes_no_colour():
    kept = Series("kept", "y")
    dropped = (Series("all blank", "blank"), Series("filtered out", "y", only=("kind", "c")))
    svg = render(figure("n", *dropped, kept), ROWS)
    assert svg == render(figure("n", kept), ROWS)
    assert f'stroke="{PALETTE[0]}"' in svg and f'stroke="{PALETTE[1]}"' not in svg
    assert "all blank" not in svg and "filtered out" not in svg


def test_only_takes_the_rows_that_hold_its_value():
    assert render(figure("n", Series("b", "y", only=("kind", "b"))), ROWS) == render(
        figure("n", Series("b", "y")), [row for row in ROWS if row["kind"] == "b"]
    )


def test_x_is_read_from_the_figures_column():
    series = (Series("s", "y"), Series("line", "y", "line"))
    by_m = render(figure("m", *series), ROWS)
    assert by_m != render(figure("n", *series), ROWS)
    assert by_m == render(figure("n", *series), [{**row, "n": row["m"]} for row in ROWS])


def test_a_point_is_float_of_its_cell():
    # the same values spelled as text, as floats and as other texts of the
    # same float draw the same document, and another value another one
    series = (Series("s", "y"), Series("line", "y", "line"))
    spelled = [
        {"n": "1", "y": "0.30000000000000004"},
        {"n": "2.0", "y": "1e0"},
        {"n": "3e0", "y": "-2.50"},
    ]
    as_floats = [{"n": 1.0, "y": 0.1 + 0.2}, {"n": 2, "y": 1.0}, {"n": 3.0, "y": -2.5}]
    assert render(figure("n", *series), spelled) == render(figure("n", *series), as_floats)
    assert render(figure("n", *series), spelled) != render(
        figure("n", *series), [{**as_floats[0], "y": 0.4}, *as_floats[1:]]
    )


def test_a_figure_is_frozen_and_write_renders_it(tmp_path):
    fig = figure("n", Series("s", "y"))
    with pytest.raises(dataclasses.FrozenInstanceError):
        fig.series = ()
    assert isinstance(fig.series, tuple)
    write(fig, ROWS, tmp_path / "f.svg")
    assert (tmp_path / "f.svg").read_text() == render(fig, ROWS)


@pytest.mark.parametrize("value", [0.0, -709.1, 1e20, -1e300])
def test_an_empty_range_is_widened(value):
    # one value on both axes: 0.5 each way where that is not lost in
    # rounding, else a few ulps; the scale never divides by zero
    svg = render(figure("n", Series("s", "y")), [{"n": value, "y": value}])
    assert svg.count("<path") == 2 and "nan" not in svg and "inf" not in svg
