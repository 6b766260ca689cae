"""Deterministic formatting and configuration round-trips."""

import json
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cylpack.lines import Configuration, FreeConfig, SphericalPoint, make_tangent_line
from cylpack.search import chart_record
from cylpack.serialize import (
    config_from_dict,
    csv_line,
    fmt_float,
    json_dumps,
    line_from_dict,
)
from helpers import lines_document, same_line

RNG = np.random.default_rng(95)

# nested documents of the builtin values the commands write; floats include -0.0, subnormals
# and values near the largest double
SCALARS = st.none() | st.booleans() | st.integers() | st.text()
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


def documents(scalars):
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=4)
                        | st.dictionaries(st.text(max_size=5), inner, max_size=4), max_leaves=12)


def typed_like(doc, parsed):
    """``parsed``, read with every number as an exact Decimal, with each number turned back into
    the type it has in ``doc``: a float is then the double its digits round to."""
    if isinstance(doc, dict):
        return {key: typed_like(doc[key], value) for key, value in parsed.items()}
    if isinstance(doc, list):
        return [typed_like(d, value) for d, value in zip(doc, parsed, strict=True)]
    if isinstance(parsed, Decimal):
        return float(parsed) if isinstance(doc, float) else int(parsed)
    return parsed


def random_config(n=4):
    lines = tuple(
        make_tangent_line(
            SphericalPoint(RNG.uniform(-1.4, 1.4), RNG.uniform(0, 2 * math.pi)),
            RNG.uniform(-math.pi, math.pi),
        )
        for _ in range(n)
    )
    return Configuration(lines)


class TestFmtFloat:
    def test_integral_floats_stay_short(self):
        assert fmt_float(1.0) == "1"
        assert fmt_float(-2.0) == "-2"

    def test_17_digits_round_trip(self):
        for x in (0.1, math.pi, 12.0 / 11.0, math.sqrt(12.0 / 11.0)):
            assert float(fmt_float(x)) == x

    def test_12_digits(self):
        assert fmt_float(math.pi, 12) == "3.14159265359"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fmt_float(math.inf)
        with pytest.raises(ValueError):
            fmt_float(math.nan)


class TestJsonDumps:
    def test_plain_document(self):
        doc = {"name": "a b", "n": 3, "ok": True, "none": None, "xs": [1.0, 0.5]}
        text = json_dumps(doc)
        assert json.loads(text) == doc
        assert '"ok": true' in text

    @given(documents(SCALARS | FLOATS))
    @example([math.pi, 1e-300, -0.1, 12.0 / 11.0])
    @example({"zero": -0.0, "tiny": [5e-324, -2.2250738585072014e-308], "huge": [1e308, -1e308]})
    def test_floats_survive_parse(self, doc):
        # json.loads reads "-0" and "2" as ints, so numbers are read exactly and typed like doc's;
        # repr then tells -0.0 from 0.0 and 2.0 from 2, and shows each float's shortest digits
        parsed = json.loads(json_dumps(doc), parse_float=Decimal, parse_int=Decimal)
        assert repr(typed_like(doc, parsed)) == repr(doc)

    @given(documents(SCALARS))
    def test_without_floats_it_is_json_dumps(self, doc):
        assert json_dumps(doc) == json.dumps(doc)

    def test_tuples_are_lists(self):
        assert json_dumps({"trace": ((0, 1.5), (3, 2.0))}) == '{"trace": [[0, 1.5], [3, 2]]}'

    def test_key_order_preserved(self):
        assert json_dumps({"z": 1, "a": 2}) == '{"z": 1, "a": 2}'

    @pytest.mark.parametrize("value", [np.int64(7), np.arange(3.0), np.bool_(True), object()])
    def test_refuses_values_that_are_not_builtins(self, value):
        with pytest.raises(TypeError):
            json_dumps({"x": [value]})

    def test_negative_zero_keeps_its_sign_through_json_loads(self):
        # written "-0", it read back as the int 0, which has no sign
        text = json_dumps({"x": [-0.0, 0.0, -1.0]})
        assert text == '{"x": [-0.0, 0, -1]}'
        back = json.loads(text)["x"]
        assert [math.copysign(1.0, v) for v in back] == [-1.0, 1.0, -1.0]
        assert isinstance(back[0], float)

    def test_float64_is_a_float(self):
        assert json_dumps([np.float64(0.1), -np.float64(0.0)]) == json_dumps([0.1, -0.0])

    def test_refuses_non_string_keys(self):
        with pytest.raises(TypeError):
            json_dumps({1: "non-string key"})


class TestCsvLine:
    def test_float_row(self):
        assert csv_line([2.0, 0.5, -1e-20, 1e300]) == "2,0.5,-1e-20,1e+300"

    def test_float_digits(self):
        assert csv_line([math.pi]) == "3.14159265359"

    def test_rejects_strings(self):
        with pytest.raises(TypeError):
            csv_line([0.5, "a"])

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            csv_line([True])


class TestLineRoundTrip:
    def test_bit_exact_through_json(self):
        config = random_config(6)
        for line, doc in zip(config, json.loads(json_dumps(lines_document(config)))["lines"]):
            again = line_from_dict(doc)
            assert np.array_equal(again.base, line.base)
            assert np.array_equal(again.dir, line.dir)

    def test_config_round_trip(self):
        config = random_config(5)
        again = config_from_dict(json.loads(json_dumps(lines_document(config))))
        assert len(again) == len(config)
        for a, b in zip(again, config):
            assert same_line(a, b, tol=1e-14)

    def test_chart_document_reads_to_the_charts_bits(self):
        # a {"coords": [...]} document reads to its chart's FreeConfig, bit for bit
        chart = chart_record()
        again = config_from_dict(json.loads(json_dumps({"coords": chart.coords.tolist()})))
        assert isinstance(again, FreeConfig) and again.coords.tobytes() == chart.coords.tobytes()

    def test_document_validation(self):
        with pytest.raises(ValueError):
            config_from_dict({"coords": [0.0] * 18, "lines": []})
        with pytest.raises(ValueError):
            config_from_dict({})
        with pytest.raises(ValueError):
            config_from_dict({"lines": lines_document(random_config(2))["lines"][:1]})
        with pytest.raises(ValueError):
            config_from_dict([1, 2, 3])
        with pytest.raises(ValueError):
            line_from_dict({"base": [1, 0, 0]})
        with pytest.raises(ValueError):
            line_from_dict({"base": [1, 0, 0, 0], "dir": [0, 1, 0]})
