"""Panel parsing, windowing, canonical CSV."""

import io
import logging

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsefolio import (
    EmptyFile,
    InputError,
    MalformedRow,
    ReturnPanel,
    WindowOutOfRange,
    WrongColumnCount,
    add_months,
    month_index,
    panel_from_csv,
    panel_to_csv,
    parse_ff_file,
    window,
)

FF_SAMPLE = """\
This file was created from raw monthly percent returns.

  Average Value Weighted Returns -- Monthly

        Agric  Food
197607   1.00  2.00
197608   0.50 -1.25
197609  -0.10  0.30

  Annual block that must be ignored
1976    12.00 24.00
"""


def month_grid(start, t):
    return tuple(add_months(start, k) for k in range(t))


def make_panel(t=8, n=3, seed=0, start=(1990, 1)):
    rng = np.random.default_rng(seed)
    return ReturnPanel(
        returns=rng.standard_normal((t, n)) * 0.1,
        dates=month_grid(start, t),
        asset_names=tuple(f"A{k}" for k in range(n)),
    )


# --- month arithmetic ---

def test_month_arithmetic():
    assert month_index((1976, 7)) - month_index((1976, 6)) == 1
    assert add_months((1976, 6), 1) == (1976, 7)
    assert add_months((1976, 12), 1) == (1977, 1)
    assert add_months((1976, 6), -59) == (1971, 7)
    assert add_months((1976, 1), -1) == (1975, 12)


# --- ReturnPanel construction ---

def test_panel_requires_two_periods():
    with pytest.raises(InputError):
        ReturnPanel(returns=np.ones((1, 2)), dates=((2000, 1),),
                    asset_names=("a", "b"))


def test_panel_accepts_single_asset():
    p = ReturnPanel(returns=np.ones((3, 1)), dates=month_grid((2000, 1), 3),
                    asset_names=("only",))
    assert p.n_assets == 1


def test_panel_rejects_unsorted_dates():
    with pytest.raises(InputError):
        ReturnPanel(returns=np.ones((2, 1)),
                    dates=((2000, 2), (2000, 1)), asset_names=("a",))
    with pytest.raises(InputError):
        ReturnPanel(returns=np.ones((2, 1)),
                    dates=((2000, 1), (2000, 1)), asset_names=("a",))


def test_panel_warns_on_gap(caplog):
    with caplog.at_level(logging.WARNING):
        ReturnPanel(returns=np.ones((2, 1)),
                    dates=((2000, 1), (2000, 3)), asset_names=("a",))
    assert any("gap" in rec.message for rec in caplog.records)


def test_panel_rejects_bad_names():
    with pytest.raises(InputError):
        ReturnPanel(returns=np.ones((2, 2)), dates=month_grid((2000, 1), 2),
                    asset_names=("a", "a"))
    with pytest.raises(InputError):
        ReturnPanel(returns=np.ones((2, 2)), dates=month_grid((2000, 1), 2),
                    asset_names=("a", "b,c"))


def test_panel_rejects_nonfinite():
    r = np.ones((2, 2))
    r[0, 1] = np.nan
    with pytest.raises(InputError):
        ReturnPanel(returns=r, dates=month_grid((2000, 1), 2),
                    asset_names=("a", "b"))


# --- parse_ff_file ---

def test_parse_sample_values_and_units():
    panel = parse_ff_file(FF_SAMPLE, expected_assets=2)
    assert panel.n_periods == 3
    assert panel.dates[0] == (1976, 7)
    # percent monthly -> decimal annualized: 1.00 -> 0.12
    np.testing.assert_allclose(panel.returns[0], [0.12, 0.24], atol=0)
    np.testing.assert_allclose(panel.returns[1], [0.06, -0.15], atol=1e-15)
    assert panel.asset_names == ("Agric", "Food")


def test_parse_stops_at_first_block_end():
    panel = parse_ff_file(FF_SAMPLE, expected_assets=2)
    # the annual 1976 row after the blank line must not leak in
    assert all(d[0] == 1976 for d in panel.dates)
    assert panel.n_periods == 3


def test_parse_accepts_file_object():
    panel = parse_ff_file(io.StringIO(FF_SAMPLE), expected_assets=2)
    assert panel.n_periods == 3


def test_parse_two_word_header_names():
    text = "SMALL LoBM  BIG HiBM\n200001 1.0 2.0\n200002 3.0 4.0\n"
    panel = parse_ff_file(text, expected_assets=2)
    assert panel.asset_names == ("SMALL_LoBM", "BIG_HiBM")


def test_parse_synthetic_names_without_header():
    text = "200001 1.0 2.0\n200002 3.0 4.0\n"
    panel = parse_ff_file(text, expected_assets=2)
    assert panel.asset_names == ("A01", "A02")


def test_parse_drops_sentinel_month(caplog):
    text = ("  a b\n"
            "200001 1.0 2.0\n"
            "200002 -99.99 1.0\n"
            "200003 2.0 3.0\n")
    with caplog.at_level(logging.WARNING):
        panel = parse_ff_file(text, expected_assets=2)
    assert panel.dates == ((2000, 1), (2000, 3))
    assert any("sentinel" in rec.message for rec in caplog.records)


def test_parse_wrong_column_count():
    with pytest.raises(WrongColumnCount):
        parse_ff_file("200001 1.0 2.0 3.0\n200002 1.0 2.0 3.0\n",
                      expected_assets=2)
    # with no expected count, the first data row sets it
    with pytest.raises(WrongColumnCount, match="3 values, expected 2"):
        parse_ff_file("200001 1.0 2.0\n200002 1.0 2.0 3.0\n")


@pytest.mark.parametrize("parse,text", [
    (parse_ff_file, "200001 1.0 2.0\n"),
    (panel_from_csv, "date,a,b\n2000-01,1.0,2.0\n"),
])
def test_huge_expected_count_is_a_column_error(parse, text):
    # the count comes from --assets: a huge one is a mismatch, not an
    # allocation the size of the flag
    with pytest.raises(WrongColumnCount, match="expected 1000000000000"):
        parse(text, expected_assets=10**12)


def test_parse_malformed_row():
    with pytest.raises(MalformedRow):
        parse_ff_file("200001 1.0 oops\n", expected_assets=2)


def test_parse_month_token_must_be_decimal_digits():
    # "²" is a digit to str.isdigit but not to int(): no month, no ValueError
    text = "  a b\n19760\u00b2 1.0 2.0\n200001 1.0 2.0\n200002 3.0 4.0\n"
    panel = parse_ff_file(text)
    assert panel.dates == ((2000, 1), (2000, 2))
    with pytest.raises(EmptyFile):
        parse_ff_file("19760\u00b2 1.0 2.0\n")


def test_parse_empty_file():
    with pytest.raises(EmptyFile):
        parse_ff_file("just a banner\nno data here\n", expected_assets=2)


# --- window ---

def test_window_training_span():
    panel = make_panel(t=70, start=(1971, 1))
    w = window(panel, (1971, 7), 60)
    assert w.dates[0] == (1971, 7)
    assert w.dates[-1] == (1976, 6)
    assert w.n_periods == 60
    np.testing.assert_array_equal(w.returns, panel.returns[6:66])


def test_window_full_length_is_identity():
    panel = make_panel(t=10)
    w = window(panel, panel.dates[0], panel.n_periods)
    np.testing.assert_array_equal(w.returns, panel.returns)
    assert w.dates == panel.dates


def test_window_out_of_range():
    panel = make_panel(t=40, start=(1990, 1))
    with pytest.raises(WindowOutOfRange):
        window(panel, (1989, 12), 12)  # start not in panel
    with pytest.raises(WindowOutOfRange):
        window(panel, add_months((1990, 1), 39 - 29), 60)  # runs past the end


def test_window_refuses_gap_span(caplog):
    dates = month_grid((2000, 1), 5) + month_grid((2000, 8), 5)
    with caplog.at_level(logging.WARNING):
        panel = ReturnPanel(returns=np.ones((10, 1)) * 0.1
                            + np.arange(10)[:, None] * 0.01,
                            dates=dates, asset_names=("a",))
    with pytest.raises(WindowOutOfRange):
        window(panel, (2000, 3), 6)
    # but a span inside one contiguous run is fine
    w = window(panel, (2000, 8), 5)
    assert w.n_periods == 5


def test_window_length_guard():
    panel = make_panel()
    with pytest.raises(InputError):
        window(panel, panel.dates[0], 1)


# --- canonical CSV ---

def test_csv_round_trip_is_exact():
    panel = make_panel(t=7, n=4, seed=3)
    back = panel_from_csv(panel_to_csv(panel))
    np.testing.assert_array_equal(back.returns, panel.returns)
    assert back.dates == panel.dates
    assert back.asset_names == panel.asset_names


def test_csv_format_shape():
    panel = ReturnPanel(returns=np.array([[0.12, 0.24], [0.06, -0.15]]),
                        dates=((1976, 7), (1976, 8)),
                        asset_names=("Agric", "Food"))
    text = panel_to_csv(panel)
    lines = text.splitlines()
    assert lines[0] == "date,Agric,Food"
    assert lines[1].startswith("1976-07,")
    assert text.endswith("\n")


def test_csv_errors():
    with pytest.raises(EmptyFile):
        panel_from_csv("")
    with pytest.raises(InputError):
        panel_from_csv("month,a\n2000-01,1.0\n2000-02,2.0\n")
    with pytest.raises(WrongColumnCount):
        panel_from_csv("date,a\n2000-01,1.0,2.0\n")
    with pytest.raises(MalformedRow):
        panel_from_csv("date,a\n2000-01,xyz\n2000-02,1.0\n")


def test_ff_parse_then_csv_round_trip():
    panel = parse_ff_file(FF_SAMPLE, expected_assets=2)
    back = panel_from_csv(panel_to_csv(panel))
    np.testing.assert_array_equal(back.returns, panel.returns)
    assert back.dates == panel.dates


# --- the value parse: every token read exactly as float() reads it ---

def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


@st.composite
def finite_returns(draw):
    t, n = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=t * n, max_size=t * n))
    return np.array(values).reshape(t, n)


# signed zeros, subnormals and extreme exponents
EDGE_VALUES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308,
               1.7976931348623157e308, -1e-300, 1e300, 0.1]


@settings(max_examples=60, deadline=None)
@given(finite_returns())
@example(np.array(EDGE_VALUES).reshape(2, 4))
def test_csv_round_trip_is_bit_exact(returns):
    t, n = returns.shape
    panel = ReturnPanel(returns=returns, dates=month_grid((1990, 1), t),
                        asset_names=tuple(f"A{k}" for k in range(n)))
    back = panel_from_csv(panel_to_csv(panel))
    np.testing.assert_array_equal(bits(back.returns), bits(panel.returns))


# tokens float() accepts; the CSV keeps a cell's spaces, the raw layout
# splits them off
FLOAT_TOKENS = [" 1.5", "1_0", "+.5", "5.", "1E-3", "-99.990", "2.50 "]


def csv_with(token):
    return f"date,a,b\n2000-01,{token},0.25\n2000-02,1.0,2.0\n"


def ff_with(token):
    return f"  a b\n200001 {token} 0.25\n200002 1.0 2.0\n200003 0.5 3.0\n"


@pytest.mark.parametrize("token", FLOAT_TOKENS)
def test_csv_value_reads_as_float_does(token):
    panel = panel_from_csv(csv_with(token))
    assert bits(panel.returns[0, 0]) == bits(float(token))


@pytest.mark.parametrize("token", FLOAT_TOKENS)
def test_ff_value_is_float_scaled(token):
    panel = parse_ff_file(ff_with(token))
    rows = [[float(token), 0.25], [1.0, 2.0], [0.5, 3.0]]
    kept = [row for row in rows if -99.99 not in row]
    expected = [[v * 12.0 / 100.0 for v in row] for row in kept]
    np.testing.assert_array_equal(bits(panel.returns), bits(expected))
    assert ((2000, 1) in panel.dates) == (float(token) != -99.99)


@pytest.mark.parametrize("token", ["0x10", "", "abc"])
def test_csv_bad_value_names_its_row(token):
    with pytest.raises(MalformedRow, match="2000-01"):
        panel_from_csv(csv_with(token))


@pytest.mark.parametrize("token", ["0x10", "abc"])
def test_ff_bad_value_names_its_row(token):
    with pytest.raises(MalformedRow, match="row 200001: non-numeric token"):
        parse_ff_file(ff_with(token))


@pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e999"])
@pytest.mark.parametrize("parse,text", [(panel_from_csv, csv_with),
                                        (parse_ff_file, ff_with)])
def test_non_finite_value_is_the_panel_error(parse, text, token):
    with pytest.raises(InputError, match="non-finite"):
        parse(text(token))
