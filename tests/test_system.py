import collections
import dataclasses
import json
import math

import numpy as np
import pytest

from helpers import reference_op_norm
from morandim import system
from morandim.errors import ConfigError, ContractionViolated
from morandim.linalg import op_norms, sv2_batch
from morandim.system import (
    LevelSpec,
    Schedule,
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


def _two_map_spec(digits):
    """A 2-D system of two diag(.3, .3) maps with the given digits."""
    maps = (np.diag([0.3, 0.3]),) * 2
    return system.SystemSpec(2, Schedule("constant", (LevelSpec(2, maps, digits),)),
                             system.TranslationScheme("digit_grid"),
                             system.Box(np.zeros(2), np.ones(2)))


# (digits, index of the first one that is not a length-2 vector)
BAD_DIGITS = {"three coordinates": ([[0.0, 0.0, 0.0], [0.7, 0.7, 0.7]], 0),
              "one number each": ([0.0, 0.7], 0),
              "ragged": ([[0.0, 0.0], [0.7]], 1)}


@pytest.mark.parametrize("name", BAD_DIGITS)
def test_digits_that_are_not_one_stack_of_dim_vectors_are_rejected(name):
    digits, j = BAD_DIGITS[name]
    with pytest.raises(ConfigError, match="digits"):
        _two_map_spec(digits)
    doc = fixture_document("similarity_pair")
    doc["schedule"]["levels"][0]["digits"] = digits
    with pytest.raises(ConfigError) as exc:
        parse_structure(doc)
    assert str(exc.value) == (f"$.schedule.levels[0].digits[{j}]: "
                              "expected a length-2 vector of finite numbers")


def test_digits_are_one_read_only_stack():
    digits = _two_map_spec(([0, 0], (0.7, 0.7))).level(1).digits
    assert digits.dtype == np.float64 and not digits.flags.writeable
    assert digits.tolist() == [[0.0, 0.0], [0.7, 0.7]]
    parsed = fixture("similarity_pair").level(1).digits
    assert parsed.shape == (2, 2) and not parsed.flags.writeable


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


@pytest.mark.parametrize("name", fixture_names())
def test_validate_takes_each_map_norm_once(monkeypatch, name):
    # the diameter check reuses the per-level max norms of the findings loop
    spec, calls = fixture(name), []
    monkeypatch.setattr(system, "op_norms",
                        lambda stack: calls.append(len(stack)) or op_norms(stack))
    codes = [f.code for f in validate(spec)]
    assert "ContractionViolated" not in codes
    assert calls == [lvl.branch_count for lvl in spec.schedule.levels]


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
                max(op_norm(m) for m in lvl.array),
                min(singular_values(m)[-1] for m in lvl.array),
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


def _float_block_index(k, base, ratio):
    """geometric_blocks' block of depth k as it was once found, in floats."""
    j, bound = 0, base / ratio
    while k > bound:
        j += 1
        bound *= ratio
    return j


def test_geometric_block_index_is_the_float_loop_in_integers():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, strategies as st

    levels = (LevelSpec(2, (np.diag([0.5]),) * 2),) * 64  # level_index is the block

    @given(st.integers(1, 10_000), st.integers(1, 300), st.integers(2, 40))
    @example(13, 13, 23)  # 13 / 23 * 23 > 13 in floats
    def check(k, base, ratio):
        j = Schedule("geometric_blocks", levels, block_base=base,
                     block_ratio=ratio).level_index(k)
        # the smallest j >= 0 with k <= base * ratio**(j - 1), exactly
        assert k * ratio <= base * ratio ** j
        assert j == 0 or k * ratio > base * ratio ** (j - 1)
        # off the block boundaries the float loop agrees; on one, float
        # rounding of base / ratio could push k into the next block
        if k not in {base * ratio ** i for i in range(j + 1)}:
            assert j == _float_block_index(k, base, ratio)

    check()


@pytest.mark.parametrize("field, value", [("block_base", -3), ("block_base", 0),
                                          ("block_ratio", 1), ("block_ratio", -3)])
def test_geometric_blocks_rejects_a_base_below_1_or_a_ratio_below_2(field, value):
    doc = fixture_document("scalar_blocks")
    doc["schedule"][field] = value
    with pytest.raises(ConfigError, match="block_base >= 1 and block_ratio >= 2"):
        parse_structure(doc)


@pytest.mark.parametrize("field", ["block_base", "block_ratio"])
def test_geometric_blocks_takes_a_parameter_past_the_float_range(field):
    doc = fixture_document("scalar_blocks")
    doc["schedule"][field] = 10 ** 400
    spec = parse_structure(doc)
    assert validate(spec) == []
    # a huge base: block 0 covers every depth; a huge ratio: block 1 holds
    # depths 1..3, and block 2 every depth after them
    blocks = [spec.schedule.level_index(k) for k in (1, 3, 4, 10_000)]
    assert blocks == ([0, 0, 0, 0] if field == "block_base" else [1, 1, 0, 0])


_DROP = object()
_VEC1 = "expected a length-1 vector of finite numbers"


@pytest.mark.parametrize("patches, message", [
    ({("seed_region", "hi"): _DROP}, "$.seed_region: missing field(s) ['hi']"),
    ({("seed_region", "lo"): [0.0, 1.0]}, f"$.seed_region.lo: {_VEC1}"),
    ({("translations",): {"kind": "random_iid", "region": [0.0, 1.0]}},
     "$.translations.region: expected an object"),
    ({("translations",): {"kind": "random_iid", "region": {"lo": ["x"], "hi": [1.0]}}},
     f"$.translations.region.lo: {_VEC1}"),
    ({("translations",): {"kind": "finite_alphabet", "alphabet": [[0.0], [1.0, 2.0]]}},
     f"$.translations.alphabet[1]: {_VEC1}"),
    ({("schedule", "levels", 0, "digits", 1): "x"}, f"$.schedule.levels[0].digits[1]: {_VEC1}"),
    ({("schedule", "levels", 0, "branch_count"): 3},
     "$.schedule.levels[0]: level has 2 maps but branch_count 3"),
    ({("schedule", "kind"): "spiral"}, "$.schedule: unknown schedule kind 'spiral'"),
    ({("schedule", "kind"): "explicit_prefix_then_periodic", ("schedule", "period"): 2},
     "$.schedule: explicit_prefix_then_periodic needs 1 <= period <= len(levels)"),
    ({("translations", "kind"): "spiral"}, "$.translations: unknown translation kind 'spiral'"),
    ({("translations", "kind"): "random_iid"}, "$.translations: random_iid needs a region"),
    ({("translations",): {"kind": "explicit", "table": {"1-2": [0.0, 1.0]}}},
     f"$.translations.table['1-2']: {_VEC1}"),
    ({("translations", "seed"): True}, "$.translations.seed: expected an integer"),
    ({("seed_region", "hi"): [0.0]}, "$.seed_region: box must have nonempty interior (hi > lo)"),
    ({("translations",): {"kind": "random_iid", "region": {"lo": [1.0], "hi": [1.0]}}},
     "$.translations.region: box must have nonempty interior (hi > lo)"),
    # each map of a level that is not one (n, d, d) stack is named by the first bad one
    ({("schedule", "levels", 0, "maps", 1): [[0.5, 0.0], [0.0, 0.5]]},
     "$.schedule.levels[0].maps[1]: expected a 1x1 matrix"),
    ({("schedule", "levels", 0, "maps", 1): [[0.5, 0.0]]},
     "$.schedule.levels[0].maps[1]: matrix must be square, got shape (1, 2)"),
    ({("schedule", "levels", 0, "maps", 0): [[float("inf")]]},
     "$.schedule.levels[0].maps[0]: matrix entries must be finite"),
    ({("schedule", "levels", 0, "maps", 1): [["x"]]},
     "$.schedule.levels[0].maps[1]: could not convert string to float: 'x'"),
    ({("schedule", "levels", 0, "maps"): []},
     "$.schedule.levels[0]: level has 0 maps but branch_count 2"),
])
def test_a_broken_document_gets_its_exact_message(patches, message):
    doc = fixture_document("middle_thirds")
    for path, value in patches.items():
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if value is _DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    with pytest.raises(ConfigError) as exc:
        parse_structure(doc)
    assert str(exc.value) == message


def _diagonal_system(*levels):
    """A periodic system with one level per argument, each a list of maps
    given by their diagonals."""
    d = len(levels[0][0])
    return parse_structure({
        "dim": d,
        "seed_region": {"lo": [0.0] * d, "hi": [1.0] * d},
        "schedule": {"kind": "periodic", "levels": [
            {"branch_count": len(maps), "maps": [np.diag(c).tolist() for c in maps]}
            for maps in levels]},
        "translations": {"kind": "explicit", "table": {}},
    })


@pytest.mark.parametrize("levels", [
    ([(0.5, 0.5), (0.3, 0.4)],),                      # a tie
    ([(-0.5, 0.2), (0.4, -0.3)],),                    # negative entries
    ([(0.5, 0.2), (0.4, 0.3)], [(0.3, 0.3), (0.2, 0.1), (-0.25, 0.25)]),
    ([(0.5, 0.3, 0.3), (0.4, 0.4, 0.2)],),            # d = 3, ties on two pairs
    ([(0.2, 0.5, 0.3), (0.1, 0.4, 0.4)],),            # one order, not the axes'
    ([(0.5,), (-0.3,)], [(0.2,), (0.25,), (0.1,)]),   # d = 1
])
def test_multiplicative_when_one_order_of_moduli_fits_every_map(levels):
    assert _diagonal_system(*levels).multiplicative


@pytest.mark.parametrize("levels", [
    ([(0.45, 0.2), (0.3, 0.45)],),
    ([(0.5, 0.3, 0.2), (0.5, 0.2, 0.3)],),            # d = 3, only the last pair disagrees
    ([(0.5, 0.2), (0.4, 0.3)], [(0.2, 0.5), (0.3, 0.4)]),  # each level consistent, not both
])
def test_not_multiplicative_when_two_maps_order_a_pair_both_ways(levels):
    assert not _diagonal_system(*levels).multiplicative


def test_a_map_that_is_not_diagonal_is_not_multiplicative():
    doc = fixture_document("random_diag_pair")
    assert parse_structure(doc).multiplicative
    doc["schedule"]["levels"][0]["maps"][1][0][1] = 0.01
    assert not parse_structure(doc).multiplicative
    assert not fixture("example_5_3").multiplicative


def test_every_d1_fixture_is_multiplicative():
    d1 = [name for name in fixture_names() if fixture(name).dim == 1]
    assert d1 and all(fixture(name).multiplicative for name in d1)


@pytest.mark.parametrize("name", ["random_diag_pair", "example_5_3", "middle_thirds"])
def test_parsing_leaves_multiplicative_untaken(name):
    """The predicate is a cached property: a parsed spec has not taken it."""
    spec = parse_spec(fixture_document(name))
    assert "multiplicative" not in vars(spec)
    assert spec.multiplicative in (True, False)
    assert "multiplicative" in vars(spec)


# ---------------------------------------------------------------------------
# a level's maps are one (n, d, d) array
# ---------------------------------------------------------------------------

def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _per_map_facts(maps):
    """A level's facts by the per-map formulas, from its maps one at a time."""
    maps = [np.array(m, dtype=float) for m in maps]
    diagonal = [np.array_equal(m, np.diag(np.diag(m))) for m in maps]
    dets = [float(np.linalg.det(m)) for m in maps]
    counts, first = collections.Counter(), {}
    for j, m in enumerate(maps):
        key = (m + 0.0).tobytes()  # + 0.0 turns -0.0 into 0.0: one key for equal maps
        counts[key] += 1
        first.setdefault(key, j)
    return {
        "op_norms": _bits([reference_op_norm(m) for m in maps]),
        "singular_values": _bits([np.linalg.svd(m, compute_uv=False) for m in maps]),
        "log_dets": _bits([math.log(abs(det)) if det else -math.inf for det in dets]),
        "diagonal": diagonal,
        "scalar": [diag and bool(np.all(np.diag(m) == m[0, 0]))
                   for diag, m in zip(diagonal, maps)],
        "identical": all(np.array_equal(m, maps[0]) for m in maps),
        "moduli": _bits([np.abs(np.diag(m)) for m in maps]),
        # the Counter keeps each map's first occurrence, in first-occurrence order
        "distinct": ([first[key] for key in counts], list(counts.values()),
                     [maps[first[key]].tobytes() for key in counts]),
    }


def _array_facts(lvl):
    first, counts = lvl.distinct
    return {
        "op_norms": _bits(lvl.op_norms),
        "singular_values": _bits(lvl.singular_values),
        "log_dets": _bits(lvl.log_dets),
        "diagonal": lvl.diagonal.tolist(),
        "scalar": lvl.scalar.tolist(),
        "identical": lvl.identical,
        "moduli": _bits(lvl.moduli),
        "distinct": (first.tolist(), counts.tolist(), [lvl.array[j].tobytes() for j in first]),
    }


@pytest.mark.parametrize("name", fixture_names())
def test_level_facts_keep_the_per_map_bits_on_every_fixture(name):
    doc = fixture_document(name)
    for lvl, obj in zip(fixture(name).schedule.levels, doc["schedule"]["levels"]):
        assert _array_facts(lvl) == _per_map_facts(obj["maps"])


def _flip_zeros(entries):
    """``entries`` with 0.0 and -0.0 swapped: a map equal to the given one."""
    return np.where(entries == 0.0, -entries, entries)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_level_facts_keep_the_per_map_bits_on_a_wide_random_level(d):
    """5,000 maps drawn from 3,000, with zeroed entries of either sign; a
    third of the pool is diagonal and a tenth scalar.  At d = 2, np.hypot
    gives other bits than math.hypot on about 0.5% of random maps, so an op
    norm taken through ``sv2_batch`` fails here (checked below)."""
    rng = np.random.default_rng(d)
    pool = rng.uniform(-1.0, 1.0, (3000, d, d)) * (rng.random((3000, d, d)) < 0.8)
    pool[:1000] *= np.eye(d)
    pool[:300] = np.eye(d) * pool[:300, :1, :1]
    pool *= np.where(rng.random((3000, d, d)) < 0.5, -1.0, 1.0)  # -0.0 where a zero flips
    picks = rng.integers(0, 3000, 5000)
    maps = [_flip_zeros(pool[i]) if rng.random() < 0.3 else pool[i] for i in picks]
    lvl = LevelSpec(len(maps), maps)
    assert _array_facts(lvl) == _per_map_facts(maps)
    if d == 2:  # the data tells the two: the closed form through np.hypot moves some norms
        scale = np.abs(lvl.array).max(axis=(1, 2))
        scale[scale == 0.0] = 1.0
        assert _bits(scale * sv2_batch(lvl.array / scale[:, None, None])[0]) != _bits(lvl.op_norms)


def test_level_facts_keep_the_per_map_bits_on_generated_levels():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    entries = st.one_of(st.sampled_from([0.0, -0.0, 0.25, -0.25, 1 / 3]),
                        st.floats(-2.0, 2.0, allow_nan=False))

    @st.composite
    def levels(draw):
        d = draw(st.integers(1, 3))
        pool = draw(st.lists(st.lists(entries, min_size=d * d, max_size=d * d),
                             min_size=1, max_size=4))
        picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()),
                              min_size=2, max_size=8))
        return [_flip_zeros(np.reshape(pool[i], (d, d))) if flip
                else np.reshape(pool[i], (d, d)) for i, flip in picks]

    @settings(max_examples=settings.default.max_examples // 2)
    @given(levels())
    def check(maps):
        # np.linalg.det flags a divide by zero on some singular maps with
        # subnormal entries, map by map as in a stack
        with np.errstate(divide="ignore"):
            assert _array_facts(LevelSpec(len(maps), maps)) == _per_map_facts(maps)

    check()


@pytest.mark.parametrize("maps", [
    (np.diag([0.5, 0.5]), np.diag([0.5, 0.5, 0.5])),
    (np.eye(2) / 2, np.ones((2, 3)) / 4),
    (np.eye(2) / 2, np.array([[0.5, math.nan], [0.0, 0.5]])),
    np.zeros((2, 9, 9)),
    (np.eye(2) / 2, "x"),
])
def test_maps_that_are_not_one_stack_are_rejected(maps):
    with pytest.raises(ConfigError, match=r"^maps do not form one stack of d x d matrices "):
        LevelSpec(2, maps)


def test_a_level_of_other_than_dim_by_dim_maps_is_rejected():
    spec = fixture("similarity_pair")  # d = 2
    three = LevelSpec(2, (np.diag([0.5, 0.25, 0.25]),) * 2)
    with pytest.raises(ConfigError, match=r"^schedule.levels\[1\]: expected 2x2 maps, got 3x3$"):
        dataclasses.replace(spec, schedule=Schedule("periodic",
                                                    (spec.schedule.levels[0], three)))


def test_a_level_keeps_one_read_only_array():
    rows = [[[0.5, -0.0], [0.0, 0.25]], [[0.5, 0.0], [0.0, 0.25]]]
    lvl = parse_structure(dict(fixture_document("similarity_pair"), schedule={
        "kind": "constant", "levels": [{"branch_count": 2, "maps": rows}]},
        translations={"kind": "explicit", "table": {}})).schedule.levels[0]
    assert lvl.array.dtype == np.float64 and lvl.array.shape == (2, 2, 2)
    assert not lvl.array.flags.writeable
    assert lvl.array.tobytes() == np.array(rows).tobytes()
    assert lvl.identical and lvl.distinct[0].tolist() == [0]
