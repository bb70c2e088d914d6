import json
import math

import numpy as np
import pytest

from morandim.errors import ConfigError, ContractionViolated
from morandim.system import (
    alpha_bounds,
    fixture,
    fixture_document,
    fixture_names,
    parse_spec,
    parse_structure,
    validate,
)

REQUIRED_FIXTURES = {
    "middle_thirds", "example_5_1", "example_5_2", "example_5_3",
    "example_5_4", "sierpinski_carpet",
}


def test_bundled_fixtures_present():
    assert REQUIRED_FIXTURES <= set(fixture_names())


def test_parse_middle_thirds():
    spec = parse_spec(fixture_document("middle_thirds"))
    ab = alpha_bounds(spec)
    assert ab.alpha_plus == pytest.approx(1 / 3)
    assert ab.alpha_minus == pytest.approx(1 / 3)


def test_parse_example_5_4_alpha_bounds():
    spec = fixture("example_5_4")
    ab = alpha_bounds(spec)
    assert ab.alpha_plus == pytest.approx(1 / 3)
    assert ab.alpha_minus == pytest.approx(1 / 9)


def test_contraction_violation_rejected():
    doc = fixture_document("middle_thirds")
    doc["schedule"]["levels"][0]["maps"][0] = [[1.1]]
    with pytest.raises(ContractionViolated):
        parse_spec(doc)


def test_unknown_field_rejected_with_path():
    doc = fixture_document("middle_thirds")
    doc["extra_field"] = 1
    with pytest.raises(ConfigError, match="extra_field"):
        parse_structure(doc)


def test_nested_schema_error_path():
    doc = fixture_document("middle_thirds")
    doc["schedule"]["levels"][0]["maps"][0] = [[1.0, 2.0]]
    with pytest.raises(ConfigError, match=r"levels\[0\]"):
        parse_structure(doc)


@pytest.mark.parametrize("bad", [None, math.nan, math.inf])
def test_a_digit_that_is_not_a_finite_number_is_rejected_with_path(bad):
    # json null reads as nan through np.asarray, and json allows NaN and Infinity
    doc = fixture_document("middle_thirds")
    doc["schedule"]["levels"][0]["digits"][0] = [bad]
    with pytest.raises(ConfigError, match=r"digits\[0\]"):
        parse_structure(doc)


def test_example_5_4_level_schedule():
    spec = fixture("example_5_4")
    assert spec.branch_count(1) == 3
    assert spec.branch_count(2) == 9
    assert spec.branch_count(5) == 3
    # block boundaries at 3 * 2^(j-1)
    expected = [3, 9, 9, 3, 3, 3, 9, 9, 9, 9, 9, 9] + [3] * 12 + [9] * 24
    got = [spec.branch_count(k) for k in range(1, len(expected) + 1)]
    assert got == expected


def test_constant_schedule_level_identity():
    spec = fixture("middle_thirds")
    first = spec.level(1)
    for k in (2, 10, 9999):
        assert spec.level(k) is first


def test_level_is_pure():
    spec = fixture("example_5_4")
    for k in (1, 2, 7, 30, 100):
        assert spec.level(k) is spec.level(k)


def test_validate_example_5_1_diameter():
    codes = {f.code for f in validate(fixture("example_5_1"))}
    assert "DiameterNotVanishing" in codes


def test_validate_example_5_2_nonsingular():
    codes = {f.code for f in validate(fixture("example_5_2"))}
    assert "NonsingularityViolated" in codes


def test_validate_middle_thirds_clean():
    assert validate(fixture("middle_thirds")) == []


def test_validate_halfnorm_warning_severity():
    findings = validate(fixture("example_5_3"))
    half = [f for f in findings if f.code == "HalfNormExceeded"]
    assert half and all(f.severity == "warning" for f in half)
    assert not [f for f in findings if f.severity == "error"]


def test_alpha_bounds_two_level_schedule():
    doc = {
        "dim": 2,
        "seed_region": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "schedule": {"kind": "periodic", "levels": [
            {"branch_count": 2,
             "maps": [[[0.5, 0.0], [0.0, 0.5]]] * 2},
            {"branch_count": 2,
             "maps": [[[0.5, 0.0], [0.0, 0.25]]] * 2},
        ]},
        "translations": {"kind": "explicit", "table": {}},
    }
    ab = alpha_bounds(parse_structure(doc))
    assert ab.alpha_plus == pytest.approx(0.5)
    assert ab.alpha_minus == pytest.approx(0.25)


@pytest.mark.parametrize("name", ["example_5_4", "example_5_3", "scalar_blocks"])
def test_alpha_bounds_match_bruteforce_over_levels(name):
    spec = fixture(name)
    plus, minus = 0.0, math.inf
    from morandim.linalg import op_norm, singular_values
    seen = {}
    for k in range(1, 10_001):
        lvl = spec.level(k)
        key = id(lvl)
        if key not in seen:
            seen[key] = (
                max(op_norm(m) for m in lvl.maps),
                min(singular_values(m).values[-1] for m in lvl.maps),
            )
        p, m = seen[key]
        plus, minus = max(plus, p), min(minus, m)
    ab = alpha_bounds(spec)
    assert ab.alpha_plus == pytest.approx(plus)
    assert ab.alpha_minus == pytest.approx(minus)


def test_fixture_json_round_trip():
    doc = fixture_document("example_5_4")
    again = json.loads(json.dumps(doc))
    assert parse_structure(again).branch_count(2) == 9


def test_digit_grid_requires_digits():
    doc = fixture_document("middle_thirds")
    del doc["schedule"]["levels"][0]["digits"]
    with pytest.raises(ConfigError, match="digits"):
        parse_structure(doc)
