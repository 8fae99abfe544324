import argparse
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from longrates.cli import _cmd_simulate
from longrates.config import load_config
from longrates.output import _BLOCK_ROWS, dumps_json, fmt_float, write_csv

ROOT = Path(__file__).resolve().parents[1]

TINY = 5e-324  # smallest subnormal
BIG = sys.float_info.max

# every finite float, plus mantissas spread over decimal exponents -300..300
FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(-10.0, 10.0, allow_nan=False), st.integers(-300, 300)),
)


def render(tmp_path, columns):
    """The written file's lines, after checking the returned row count."""
    path = tmp_path / "out.csv"
    n_rows = write_csv(path, columns)
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.split("\n")[:-1]
    assert n_rows == len(lines) - 1
    return lines


class TestFloatColumns:
    @given(st.lists(FLOATS, min_size=1, max_size=40))
    @example([TINY, -TINY, 2.2250738585072009e-308, 0.0, -0.0, BIG, -BIG])
    @example([0.1, 1e16, 1e17, 123456789.0, 1e-300, 1e300])
    def test_text_is_17_significant_digits(self, tmp_path_factory, values):
        lines = render(tmp_path_factory.mktemp("f"), {"v": np.array(values)})
        assert lines == ["v"] + [format(v, ".17g") for v in values]

    def test_signed_zero_keeps_its_sign(self, tmp_path):
        assert render(tmp_path, {"z": [0.0, -0.0]}) == ["z", "0", "-0"]

    def test_float32_is_written_as_its_float64_value(self, tmp_path):
        value = np.float32(0.1)
        lines = render(tmp_path, {"v": np.array([value])})
        assert lines[1] == format(float(value), ".17g") == "0.10000000149011612"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_is_refused_before_the_file_is_opened(self, tmp_path, bad):
        path = tmp_path / "out.csv"
        values = np.full(2 * _BLOCK_ROWS, 1.0)
        values[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            write_csv(path, {"ok": np.arange(values.size), "v": values})
        assert not path.exists()


class TestOtherColumns:
    def test_int_bool_and_str(self, tmp_path):
        lines = render(tmp_path, {
            "i": np.array([0, -7, 2**62]),
            "u": np.array([0, 1, 2**64 - 1], dtype=np.uint64),
            "b": np.array([True, False, True]),
            "s": ["extracted", "spectral", "x"],
        })
        assert lines == [
            "i,u,b,s",
            "0,0,true,extracted",
            "-7,1,false,spectral",
            f"{2**62},{2**64 - 1},true,x",
        ]

    def test_python_scalars_in_a_list_keep_their_type(self, tmp_path):
        lines = render(tmp_path, {"n": [3], "f": [3.0], "b": [True], "s": ["a"]})
        assert lines == ["n,f,b,s", "3,3,true,a"]

    @pytest.mark.parametrize("bad", ["a,b", "a\nb"])
    def test_comma_or_newline_in_text_is_refused(self, tmp_path, bad):
        path = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="commas or newlines"):
            write_csv(path, {"s": ["fine", bad]})
        assert not path.exists()

    @pytest.mark.parametrize("columns", [
        {"a": np.zeros(3), "b": np.zeros(2)},
        {"a": [], "b": [1.0]},
        {"a": np.zeros((2, 2)), "b": np.zeros(2)},
        {"a": 1.0, "b": [1.0]},
    ])
    def test_columns_of_unequal_length_or_not_1d_are_refused(self, tmp_path, columns):
        with pytest.raises(ValueError, match="equal length"):
            write_csv(tmp_path / "out.csv", columns)


class TestRowCounts:
    @pytest.mark.parametrize("n", [0, 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_every_row_is_written_once(self, tmp_path, n):
        values = np.arange(n) / 7.0
        lines = render(tmp_path, {"k": np.arange(n), "v": values,
                                  "odd": np.arange(n) % 2 == 1})
        assert lines[0] == "k,v,odd"
        assert lines[1:] == [
            f"{k},{format(k / 7.0, '.17g')},{'true' if k % 2 else 'false'}"
            for k in range(n)
        ]

    def test_no_columns_write_an_empty_header(self, tmp_path):
        assert write_csv(tmp_path / "out.csv", {}) == 0
        assert (tmp_path / "out.csv").read_text() == "\n"


def cell(value) -> str:
    """One value's text, formatted alone."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


# a few values a column, so that each repeats within a block; the float64
# pool starts with 0.0 and -0.0, and its first two rows take them
POOLS = {
    "f64": st.lists(FLOATS, min_size=1, max_size=6).map(lambda v: np.array([0.0, -0.0, *v])),
    "f32": st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                    min_size=1, max_size=6).map(lambda v: np.array(v, np.float32)),
    "int": st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=6).map(
        lambda v: np.array(v, np.int64)),
    "bool": st.lists(st.booleans(), min_size=1, max_size=2).map(np.array),
    "str": st.lists(st.text("abc xyz-_.", max_size=5), min_size=1, max_size=6).map(np.array),
}


class TestRepeatedValues:
    @given(st.sampled_from([0, 1, 2, 7, _BLOCK_ROWS, _BLOCK_ROWS + 1]),
           st.fixed_dictionaries(POOLS), st.integers(0, 2**32 - 1))
    def test_lines_equal_each_cell_formatted_alone(self, tmp_path_factory, n, pools, seed):
        rng = np.random.default_rng(seed)
        picks = {name: rng.integers(0, pool.size, n) for name, pool in pools.items()}
        picks["f64"][:2] = (0, 1)[:n]
        columns = {name: pools[name][pick] for name, pick in picks.items()}
        lines = render(tmp_path_factory.mktemp("r"), columns)
        assert lines == [",".join(columns)] + [
            ",".join(map(cell, row))
            for row in zip(*(values.tolist() for values in columns.values()))
        ]


def test_paths_csv_peak_memory_stays_pinned(tmp_path):
    # tracemalloc peak of write_csv on simulate's paths.csv for poisson.json,
    # 62,000 rows of 3 columns (Python 3.11, numpy 2.4.6); margin 5 %. Text
    # is held one block at a time: formatting every cell on its own and
    # joining rows peaked at 3,123 KiB
    columns, _, _ = _cmd_simulate(argparse.Namespace(seed=None),
                                  load_config(ROOT / "configs" / "poisson.json"))
    assert [np.size(values) for values in columns.values()] == [62_000] * 3
    write_csv(tmp_path / "warm.csv", columns)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "paths.csv", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 1_001 * 1024


class TestSharedRules:
    @given(FLOATS)
    @example(-0.0)
    @example(TINY)
    @example(-BIG)
    def test_fmt_float_and_json_match_the_csv_rule(self, value):
        want = format(value, ".17g")
        assert fmt_float(value) == want
        assert dumps_json(value) == want + "\n"
        assert dumps_json(np.float64(value)) == want + "\n"

    def test_json_scalars(self):
        assert dumps_json({"b": np.bool_(False), "i": np.int64(-3), "u": 2**64 - 1,
                           "big": 2**70, "f": np.float32(0.1), "s": "a,b"}) == (
            '{\n  "b": false,\n  "i": -3,\n  "u": 18446744073709551615,\n'
            f'  "big": {2**70},\n  "f": 0.10000000149011612,\n  "s": "a,b"\n}}\n'
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, np.float64(-math.inf)])
    def test_non_finite_is_refused_everywhere(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            fmt_float(bad)
        with pytest.raises(ValueError, match="non-finite"):
            dumps_json({"x": bad})


class TestObjectColumns:
    def test_unorderable_objects_are_written_as_their_text(self, tmp_path):
        # objects are keyed by their text, so None and str need no order
        assert render(tmp_path, {"s": ["a", None]}) == ["s", "a", "None"]
        values = np.array(["a", None, 1, "a", None, 1.5], dtype=object)
        assert render(tmp_path, {"s": values}) == ["s"] + [str(v) for v in values]
