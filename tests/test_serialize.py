"""Deterministic formatting and configuration round-trips."""

import json
import math

import numpy as np
import pytest

from cylpack.lines import Configuration, SphericalPoint, make_tangent_line
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

    def test_floats_survive_parse(self):
        values = [math.pi, 1e-300, -0.1, 12.0 / 11.0]
        assert json.loads(json_dumps(values)) == values

    def test_numpy_scalars_and_arrays(self):
        doc = {"a": np.float64(0.5), "b": np.int64(7), "c": np.arange(3.0)}
        assert json.loads(json_dumps(doc)) == {"a": 0.5, "b": 7, "c": [0.0, 1.0, 2.0]}

    def test_key_order_preserved(self):
        assert json_dumps({"z": 1, "a": 2}) == '{"z": 1, "a": 2}'

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            json_dumps({"x": object()})
        with pytest.raises(TypeError):
            json_dumps({1: "non-string key"})


class TestCsvLine:
    def test_mixed_row(self):
        assert csv_line(["x", 2, 0.5]) == "x,2,0.5"

    def test_float_digits(self):
        assert csv_line([math.pi]) == "3.14159265359"

    def test_rejects_embedded_separator(self):
        with pytest.raises(ValueError):
            csv_line(["a,b"])

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

    def test_chart_document_refused(self):
        # a {"coords": [...]} chart is not a lines document; the command line reads it itself
        with pytest.raises(ValueError, match="'coords'"):
            config_from_dict({"coords": [float(x) for x in chart_record().coords]})

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
