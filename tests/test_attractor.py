import math

import numpy as np
import pytest

from morandim.attractor import (
    PointCloud,
    _grid_keys,
    box_count,
    boxdim_fit,
    default_scales,
    occupied_pixels,
    project,
    render,
    sample_cloud,
    saturated,
    select_scales,
    write_pgm,
)
from morandim.errors import BudgetExceeded, DimensionMismatch, UnresolvedTranslation
from morandim.symbolic import Word
from morandim.system import fixture, parse_structure

S_SIM = math.log(2) / math.log(3)


def _manual_cloud(points):
    pts = np.asarray(points, dtype=float)
    return PointCloud(dim=pts.shape[1], points=pts, depth=1, mode="manual",
                      seed=0, count=len(pts), trunc_error=0.0)


# ---------------------------------------------------------------------------
# projection
# ---------------------------------------------------------------------------

def test_project_middle_thirds_right_end():
    p = project(fixture("middle_thirds"), Word((2,) * 20))
    assert abs(p[0] - 1.0) < 3.0 ** -20


def test_project_example_5_2_corner():
    spec = fixture("example_5_2")
    p = project(spec, Word((2,) + (1,) * 19))
    assert abs(p[0] - 1.0) < 0.5 ** 19
    assert abs(p[1]) < 0.5 ** 19


def test_project_depth_one_formula():
    # depth-1 value is T_j * center(J) + w_j
    spec = fixture("middle_thirds")
    p = project(spec, Word((2,)))
    assert p[0] == pytest.approx(0.5 / 3 + 2 / 3)


def test_project_rejects_bad_digit():
    spec = fixture("middle_thirds")
    with pytest.raises(Exception):
        project(spec, Word((3,)))


# ---------------------------------------------------------------------------
# cloud sampling
# ---------------------------------------------------------------------------

def test_full_enumeration_middle_thirds():
    cl = sample_cloud(fixture("middle_thirds"), 5, mode="full_enumeration")
    assert cl.count == 32
    assert (cl.points >= 0).all() and (cl.points <= 1).all()


def test_sampling_is_deterministic():
    spec = fixture("example_5_4")
    a = sample_cloud(spec, 8, mode="random_codes", count=2000, seed=42)
    b = sample_cloud(spec, 8, mode="random_codes", count=2000, seed=42)
    assert np.array_equal(a.points, b.points)
    c = sample_cloud(spec, 8, mode="random_codes", count=2000, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_random_codes_containment_example_5_4():
    cl = sample_cloud(fixture("example_5_4"), 8, mode="random_codes",
                      count=100_000, seed=11)
    assert cl.count == 100_000
    assert (cl.points >= 0).all() and (cl.points <= 1).all()


def test_containment_with_inflation():
    spec = fixture("random_affine")
    cl = sample_cloud(spec, 9, mode="random_codes", count=5000, seed=3)
    pad = cl.trunc_error
    assert (cl.points >= spec.seed_region.lo - pad).all()
    assert (cl.points <= spec.seed_region.hi + pad).all()


def test_random_iid_translations_share_prefixes():
    spec = fixture("random_affine")
    deep = sample_cloud(spec, 6, mode="full_enumeration", seed=9)
    # identical leading digits must give identical partial sums: check via
    # re-sampling with the same seed and comparing slices
    again = sample_cloud(spec, 6, mode="full_enumeration", seed=9)
    assert np.array_equal(deep.points, again.points)


def test_enumeration_budget_guard():
    with pytest.raises(BudgetExceeded):
        sample_cloud(fixture("sierpinski_carpet"), 12, mode="full_enumeration")


def test_unresolved_translation():
    doc = {
        "dim": 1,
        "seed_region": {"lo": [0.0], "hi": [1.0]},
        "schedule": {"kind": "constant", "levels": [
            {"branch_count": 2, "maps": [[[0.4]], [[0.4]]]},
        ]},
        "translations": {"kind": "explicit", "table": {"1": [0.0]}},
    }
    spec = parse_structure(doc)
    with pytest.raises(UnresolvedTranslation):
        sample_cloud(spec, 2, mode="full_enumeration")


# ---------------------------------------------------------------------------
# box counting
# ---------------------------------------------------------------------------

def test_box_count_two_points():
    assert box_count(_manual_cloud([[0.1, 0.1], [0.6, 0.1]]), 0.5) == 2


def test_box_count_single_point():
    for eps in (0.9, 0.2, 0.037):
        assert box_count(_manual_cloud([[0.3, 0.7]]), eps) == 1


def test_box_count_middle_thirds_cylinders():
    cl = sample_cloud(fixture("middle_thirds"), 5, mode="full_enumeration")
    assert box_count(cl, 3.0 ** -4) == 16


def test_box_count_monotone_in_epsilon():
    cl = sample_cloud(fixture("example_5_4"), 8, mode="random_codes",
                      count=20_000, seed=1)
    eps = [0.5, 0.2, 0.1, 0.03, 0.01, 0.003]
    counts = [box_count(cl, e) for e in eps]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


# ---------------------------------------------------------------------------
# slope fits
# ---------------------------------------------------------------------------

def test_boxdim_uniform_segment():
    rng = np.random.default_rng(0)
    t = rng.uniform(0, 1, 10_000)
    cloud = _manual_cloud(np.stack([t, 0.3 * t + 0.2], axis=1))
    curve = boxdim_fit(cloud, [2.0 ** -k for k in range(2, 9)])
    assert curve.slope == pytest.approx(1.0, abs=0.05)


def test_boxdim_middle_thirds_deep():
    cl = sample_cloud(fixture("middle_thirds"), 12, mode="full_enumeration")
    curve = boxdim_fit(cl, default_scales(fixture("middle_thirds"), 12))
    assert curve.slope == pytest.approx(S_SIM, abs=0.03)


def test_boxdim_degenerate_scales_rejected():
    with pytest.raises(ValueError):
        boxdim_fit(_manual_cloud([[0.1, 0.1]]), [0.5])


def test_select_scales_keeps_full_enumeration():
    cl = sample_cloud(fixture("middle_thirds"), 10, mode="full_enumeration")
    cands = default_scales(fixture("middle_thirds"), 10)
    assert select_scales(cl, cands) == cands


def test_select_scales_drops_saturated_tail():
    spec = fixture("random_affine")
    cl = sample_cloud(spec, 12, mode="random_codes", count=3000, seed=0)
    cands = default_scales(spec, 12)
    kept = select_scales(cl, cands)
    assert len(kept) <= len(cands)
    assert kept == sorted(kept, reverse=True)


# ---------------------------------------------------------------------------
# rasters
# ---------------------------------------------------------------------------

def test_render_empty_cloud_is_blank():
    empty = PointCloud(dim=2, points=np.zeros((0, 2)), depth=1, mode="manual",
                       seed=0, count=0, trunc_error=0.0)
    assert occupied_pixels(render(empty, 32)) == 0


def test_render_rejects_wrong_dimension():
    cl = sample_cloud(fixture("middle_thirds"), 4, mode="full_enumeration")
    with pytest.raises(DimensionMismatch):
        render(cl, 64)


def test_render_example_5_2_bottom_row_only():
    cl = sample_cloud(fixture("example_5_2"), 10, mode="full_enumeration")
    raster = render(cl, 64)
    rows = np.nonzero(raster.any(axis=1))[0]
    assert list(rows) == [63]  # display row 63 is y ~ 0


def test_render_cantor_dust_blocks():
    third = 1 / 3
    doc = {
        "dim": 2,
        "seed_region": {"lo": [0.0, 0.0], "hi": [1.0, 1.0]},
        "schedule": {"kind": "constant", "levels": [{
            "branch_count": 4,
            "maps": [[[third, 0.0], [0.0, third]]] * 4,
            "digits": [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3], [2 / 3, 2 / 3]],
        }]},
        "translations": {"kind": "digit_grid"},
    }
    spec = parse_structure(doc)
    raster = render(sample_cloud(spec, 4, mode="full_enumeration"), 81)
    ys, xs = np.nonzero(raster)
    blocks = {(x // 9, y // 9) for x, y in zip(xs, ys)}
    assert len(blocks) == 16


def test_pgm_output_format(tmp_path):
    cl = sample_cloud(fixture("sierpinski_carpet"), 3, mode="full_enumeration")
    raster = render(cl, 27)
    path = tmp_path / "out.pgm"
    write_pgm(raster, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n27 27\n255\n")
    assert len(data) == len(b"P5\n27 27\n255\n") + 27 * 27


def test_finite_alphabet_assignment_pure():
    doc = {
        "dim": 1,
        "seed_region": {"lo": [0.0], "hi": [1.0]},
        "schedule": {"kind": "constant", "levels": [
            {"branch_count": 2, "maps": [[[0.4]], [[0.4]]]},
        ]},
        "translations": {"kind": "finite_alphabet",
                         "alphabet": [[0.0], [0.3], [0.6]], "seed": 13},
    }
    spec = parse_structure(doc)
    a = sample_cloud(spec, 6, mode="full_enumeration")
    b = sample_cloud(spec, 6, mode="full_enumeration")
    assert np.array_equal(a.points, b.points)
    # assignment reads only (seed, word): cloud seed must not matter
    c = sample_cloud(spec, 6, mode="full_enumeration", seed=999)
    assert np.array_equal(a.points, c.points)


def test_random_iid_translations_lie_in_region():
    from morandim.attractor import _translation_arrays
    spec = fixture("random_affine")
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 3, size=(500, 6))
    region = spec.translations.region
    for W in _translation_arrays(spec, codes, seed=21):
        assert (W >= region.lo).all() and (W <= region.hi).all()


# ---------------------------------------------------------------------------
# the int64 grid key, its refusal bound, and the per-cloud count cache
# ---------------------------------------------------------------------------

def _row_sort_count(points, eps):
    """The row-sort counter the folded key replaced, kept as the reference."""
    idx = np.floor(np.asarray(points) / eps + 1e-9).astype(np.int64)
    return int(np.unique(idx, axis=0).shape[0])


def test_box_count_key_equals_row_sort_reference():
    pytest.importorskip("hypothesis")
    from hypothesis import given, strategies as st

    # ternary cell boundaries k/3^t, plain floats, and their negatives
    coord = st.one_of(
        st.builds(lambda k, t: k / 3.0 ** t, st.integers(-60, 60), st.integers(0, 4)),
        st.floats(-5.0, 5.0, allow_nan=False),
    )

    @given(st.integers(1, 3).flatmap(lambda d: st.lists(
               st.lists(coord, min_size=d, max_size=d), min_size=1, max_size=40)),
           st.data(),
           st.one_of(st.builds(lambda t: 3.0 ** -t, st.integers(0, 5)),
                     st.floats(1e-3, 4.0)))
    def check(rows, data, eps):
        # repeat some rows so duplicate points are always in play
        rows = rows + data.draw(st.lists(st.sampled_from(rows), max_size=10))
        points = np.asarray(rows, dtype=float)
        assert box_count(_manual_cloud(points), eps) == _row_sort_count(points, eps)
        # the key is the row-major rank of the offset indices in the span box
        idx = np.floor(points / eps + 1e-9).astype(np.int64)
        idx -= idx.min(axis=0)
        spans = tuple(int(s) for s in idx.max(axis=0) + 1)
        key = _grid_keys(points, eps)
        assert key.min() >= 0 and key.max() < math.prod(spans)
        assert np.array_equal(np.stack(np.unravel_index(key, spans), axis=1), idx)

    check()


def test_box_count_on_a_full_enumeration_equals_row_sort_reference():
    cl = sample_cloud(fixture("random_affine"), 8, mode="full_enumeration", seed=5)
    for eps in default_scales(fixture("random_affine"), 8):
        assert box_count(cl, eps) == _row_sort_count(cl.points, eps)


def test_box_count_refuses_a_key_outside_int64():
    # spans 2^32 - 1 and 2^31: 2^63 - 2^31 keys fit
    assert box_count(_manual_cloud([[0.0, 0.0], [2.0 ** 32 - 2, 2.0 ** 31 - 1]]), 1.0) == 2
    assert box_count(_manual_cloud([[-2.0 ** 63], [-2.0 ** 63]]), 1.0) == 1
    for points in ([[0.0, 0.0], [2.0 ** 32 - 1, 2.0 ** 31 - 1]],  # 2^63 keys
                   [[2.0 ** 63]],  # an index past int64
                   [[0.0, 0.0, 0.0], [2.0 ** 21] * 3]):
        with pytest.raises(ValueError, match="int64"):
            box_count(_manual_cloud(points), 1.0)
    cl = sample_cloud(fixture("middle_thirds"), 4, mode="full_enumeration")
    with pytest.raises(ValueError, match="int64"):
        box_count(cl, 1e-300)
    with pytest.raises(ValueError, match="int64"):
        boxdim_fit(cl, [1e-300, 1e-301])


def test_select_scales_and_fit_count_each_scale_once(box_count_calls):
    spec = fixture("example_5_4")
    cl = sample_cloud(spec, 8, mode="random_codes", count=20_000, seed=3)
    fresh = sample_cloud(spec, 8, mode="random_codes", count=20_000, seed=3)
    kept = select_scales(cl, default_scales(spec, 8))
    curve = boxdim_fit(cl, kept)
    assert len(box_count_calls) == len(set(box_count_calls))
    assert set(kept) <= set(box_count_calls)
    assert curve.counts == [box_count(fresh, e) for e in kept]
    assert len(set(curve.counts)) == len(kept)


def test_count_cache_is_not_a_constructor_argument():
    with pytest.raises(TypeError):
        PointCloud(dim=1, points=np.zeros((1, 1)), depth=1, mode="manual", seed=0,
                   count=1, trunc_error=0.0, box_counts={0.5: 99})
    cl = _manual_cloud([[0.0], [0.7]])
    assert cl.box_counts == {} and "box_counts" not in repr(cl)


def test_saturated_only_for_random_codes():
    cl = sample_cloud(fixture("middle_thirds"), 6, mode="full_enumeration")
    assert not saturated(cl, cl.count)
    rnd = sample_cloud(fixture("middle_thirds"), 6, mode="random_codes", count=100, seed=1)
    assert saturated(rnd, 11) and not saturated(rnd, 10)
