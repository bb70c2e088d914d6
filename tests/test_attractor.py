import hashlib
import itertools
import json
import math
import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from morandim import attractor, cli
from morandim.attractor import (
    PointCloud,
    _enumerate_codes,
    _grid_keys,
    _project_codes,
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
from morandim.errors import BudgetExceeded, DimensionMismatch, MoranDimError, UnresolvedTranslation
from morandim.symbolic import Word
from morandim.system import (TRANSLATION_KINDS, Box, LevelSpec, Schedule, SystemSpec,
                             TranslationScheme, _mix64, fixture, hash_to_unit, mix64_batch,
                             parse_structure)

S_SIM = math.log(2) / math.log(3)


def _manual_cloud(points):
    pts = np.asarray(points, dtype=float)
    return PointCloud(dim=pts.shape[1], points=pts, depth=1, mode="manual",
                      seed=0, count=len(pts), trunc_error=0.0)


SMALL_BLOCK = 3


@pytest.fixture
def small_block(monkeypatch):
    """Blocks of three points, so a few dozen points span many blocks."""
    monkeypatch.setattr(attractor, "_BLOCK", SMALL_BLOCK)


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


@pytest.mark.parametrize("digits", [(3,), (0,), (1, 1, 5)])
def test_project_raises_moran_error_for_an_out_of_range_digit(digits):
    with pytest.raises(MoranDimError, match="outside 1..2"):
        project(fixture("middle_thirds"), Word(digits))


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


def _brute_force_explicit(table, codes):
    """Per level, then per point: the vector of each prefix word's key, built
    from scratch, or the message of the first key missing from the table."""
    out = []
    for k in range(1, codes.shape[1] + 1):
        keys = ["-".join(str(int(c) + 1) for c in row[:k]) for row in codes]
        for key in keys:
            if key not in table:
                return f"no table entry for word {key}"
        out.append(np.array([table[key] for key in keys]))
    return out


def test_explicit_translations_match_the_brute_force_keys():
    from morandim.attractor import _translations
    rng = np.random.default_rng(17)
    maps = (np.diag([0.3, 0.2]),) * 3
    levels = (LevelSpec(2, maps[:2]), LevelSpec(3, maps))
    words = [*map(str, range(1, 3)),
             *(f"{a}-{b}" for a in range(1, 3) for b in range(1, 4)),
             *(f"{a}-{b}-{c}" for a in range(1, 3) for b in range(1, 4) for c in range(1, 3))]
    full = {w: rng.normal(size=2) for w in words}
    # every word of depth 3, shuffled so points are not in prefix order, and repeated
    codes = np.array([[int(c) - 1 for c in w.split("-")] for w in words if w.count("-") == 2])
    codes = codes[rng.permutation(np.tile(np.arange(len(codes)), 2))]
    # the full table, each word dropped, and each pair of words dropped: a pair
    # across levels must name the shallower word, whichever point comes first
    for dropped in [(), *((w,) for w in words), *itertools.combinations(words, 2)]:
        table = {w: v for w, v in full.items() if w not in dropped}
        spec = SystemSpec(2, Schedule("periodic", levels),
                          TranslationScheme("explicit", table=table),
                          Box(np.zeros(2), np.ones(2)))
        want = _brute_force_explicit(table, codes)
        if isinstance(want, str):
            with pytest.raises(UnresolvedTranslation) as err:
                _translations(spec, codes, seed=0)
            assert str(err.value) == want
        else:
            got = list(map(_translations(spec, codes, seed=0)(slice(None)),
                               range(1, codes.shape[1] + 1)))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.shape == b.shape and np.array_equal(a, b)


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


def test_render_without_a_region_spans_the_points_bounding_box():
    cloud = _manual_cloud([[2.0, 2.0], [2.4, 3.9], [3.0, 4.0]])
    assert cloud.region_lo is None
    assert render(cloud, 2).tolist() == [[255, 255], [255, 0]]


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
    from morandim.attractor import _translations
    spec = fixture("random_affine")
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 3, size=(500, 6))
    region = spec.translations.region
    for W in map(_translations(spec, codes, seed=21)(slice(None)), range(1, 7)):
        assert (W >= region.lo).all() and (W <= region.hi).all()


# ---------------------------------------------------------------------------
# the int64 grid key, its refusal bound, and the per-cloud count cache
# ---------------------------------------------------------------------------

def _row_sort_count(points, eps):
    """The row-sort counter the folded key replaced, kept as the reference."""
    idx = np.floor(np.asarray(points) / eps + 1e-9).astype(np.int64)
    return int(np.unique(idx, axis=0).shape[0])


def test_box_count_key_equals_row_sort_reference(small_block):
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


# ---------------------------------------------------------------------------
# the column kernel: level-major codes, golden bytes, the einsum reference
# ---------------------------------------------------------------------------

def test_enumerated_codes_are_level_major_and_lexicographic():
    spec = fixture("scalar_blocks")
    depth = 4
    codes = _enumerate_codes(spec, depth)
    words = itertools.product(*(range(spec.branch_count(k)) for k in range(1, depth + 1)))
    assert codes.tolist() == [list(w) for w in words]
    assert codes.dtype == np.uint8
    assert all(codes[:, k].flags.c_contiguous for k in range(depth))


GOLDEN = pathlib.Path(__file__).parent / "golden"
# sha256 of the points and the benchmark jobs' (epsilon, count) rows and PGM
# bytes, written by the per-point einsum kernel before the column kernel
# replaced it; report.json is left out, as its polyfit floats may differ
# across BLAS builds
ATTRACTOR_DIGESTS = json.loads((GOLDEN / "attractor_digests.json").read_text())


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(ATTRACTOR_DIGESTS["sample_cloud"]))
def test_sampled_points_match_the_golden_digests(name):
    spec = fixture(name)
    full = sample_cloud(spec, 5, mode="full_enumeration")
    rnd = sample_cloud(spec, 9, mode="random_codes", count=20_000, seed=11)
    assert {"full_enumeration depth 5": _sha256(full.points.tobytes()),
            "random_codes depth 9 count 20000 seed 11": _sha256(rnd.points.tobytes())
            } == ATTRACTOR_DIGESTS["sample_cloud"][name]


@pytest.mark.parametrize("job", sorted(ATTRACTOR_DIGESTS["benchmark_jobs"]))
def test_benchmark_sampling_jobs_match_the_golden_digests(tmp_path, capsys, job):
    argv = job.split()
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    if argv[0] == "render":
        got = {"sha256": _sha256(out.read_bytes())}
    else:
        rows = [line.split(",")[:2] for line in (out / "curve.csv").read_text().splitlines()[1:]]
        got = {"rows": [[float(e), int(c)] for e, c in rows]}
    assert got == ATTRACTOR_DIGESTS["benchmark_jobs"][job]


def _einsum_reference(spec, codes, seed):
    """The per-point projection the column kernel replaced, kept as the
    reference: row-major translation gathers and hashes, then per level an
    (N, d, d) gather of the maps and ``einsum("nij,nj->ni")``."""
    scheme, (N, K) = spec.translations, codes.shape
    if scheme.kind == "digit_grid":
        W = [np.asarray(spec.level(k).digits, dtype=float)[codes[:, k - 1]]
             for k in range(1, K + 1)]
    elif scheme.kind == "explicit":
        W = [np.array([scheme.table["-".join(str(int(c) + 1) for c in row[:k])]
                       for row in codes]) for k in range(1, K + 1)]
    else:
        if scheme.kind == "finite_alphabet":
            base_seed = scheme.seed if scheme.seed is not None else 0
        else:
            base_seed = _mix64((seed & ((1 << 64) - 1)) ^ _mix64(scheme.seed or 0))
        h = np.full(N, _mix64(base_seed), dtype=np.uint64)
        W = []
        for k in range(1, K + 1):
            h = mix64_batch(h ^ mix64_batch(codes[:, k - 1].astype(np.uint64) + np.uint64(1)))
            if scheme.kind == "finite_alphabet":
                alphabet = np.asarray(scheme.alphabet, dtype=float)
                W.append(alphabet[(h % np.uint64(len(alphabet))).astype(np.int64)])
            else:
                lo, hi = scheme.region.lo, scheme.region.hi
                unit = np.stack([hash_to_unit(h, axis) for axis in range(spec.dim)], axis=1)
                W.append(lo + unit * (hi - lo))
    x = np.tile(spec.seed_region.center, (N, 1))
    for k in range(K, 0, -1):
        T = spec.level(k).array[codes[:, k - 1]]
        x = np.einsum("nij,nj->ni", T, x) + W[k - 1]
    return x


def _kernel_cases(st):
    """(spec, codes, seed): d = 1..4, one to three levels of 2..4 maps, each
    level's maps all one matrix or drawn apart, any translation kind, and
    either every word of depth 1..4 or up to 30 random ones, in int64 or an
    unsigned type.  Entries lie in
    [-1/(2d), 1/(2d)], so every map contracts, and vectors in [-1, 1]; both
    ranges hold the signed zeros."""

    @st.composite
    def build(draw):
        d = draw(st.integers(1, 4))
        unit = st.floats(-1.0, 1.0)
        vec = st.lists(unit, min_size=d, max_size=d)
        matrix = st.lists(st.lists(st.floats(-0.5 / d, 0.5 / d), min_size=d, max_size=d),
                          min_size=d, max_size=d)

        def box():
            return Box(np.array(draw(st.lists(st.floats(-1.0, 0.0), min_size=d, max_size=d))),
                       np.array(draw(st.lists(st.floats(1 / 64, 1.0), min_size=d, max_size=d))))

        levels = []
        for _ in range(draw(st.integers(1, 3))):
            n = draw(st.integers(2, 4))
            if draw(st.booleans()):
                maps = [draw(matrix)] * n
            else:
                maps = draw(st.lists(matrix, min_size=n, max_size=n))
            levels.append(LevelSpec(n, tuple(np.array(m, dtype=float) for m in maps),
                                    tuple(np.array(v) for v in draw(st.lists(
                                        vec, min_size=n, max_size=n)))))
        depth = draw(st.integers(1, 4))
        kind = draw(st.sampled_from(TRANSLATION_KINDS))
        scheme_seed = draw(st.integers(0, 2 ** 32))
        schedule = Schedule("constant" if len(levels) == 1 else "periodic", tuple(levels))
        if kind == "digit_grid":
            scheme = TranslationScheme(kind)
        elif kind == "finite_alphabet":
            scheme = TranslationScheme(kind, alphabet=tuple(np.array(v) for v in draw(
                st.lists(vec, min_size=1, max_size=4))), seed=scheme_seed)
        elif kind == "random_iid":
            scheme = TranslationScheme(kind, region=box(), seed=scheme_seed)
        elif kind == "explicit":
            pool = draw(st.lists(vec, min_size=1, max_size=5))
            words = itertools.chain.from_iterable(
                itertools.product(*(range(1, schedule.level(k).branch_count + 1)
                                    for k in range(1, t + 1))) for t in range(1, depth + 1))
            scheme = TranslationScheme(kind, table={
                "-".join(map(str, w)): np.array(pool[i % len(pool)])
                for i, w in enumerate(words)})
        spec = SystemSpec(d, schedule, scheme, box())
        if draw(st.booleans()):
            codes = _enumerate_codes(spec, depth)
        else:
            rng, count = np.random.default_rng(draw(st.integers(0, 2 ** 32))), draw(
                st.integers(1, 30))
            # int64 rows, or the samplers' level-major layout in a compact type
            dtype = draw(st.sampled_from([np.int64, np.uint8, np.uint16, np.uint32]))
            codes = np.stack([rng.integers(0, spec.branch_count(k), count)
                              for k in range(1, depth + 1)]).astype(dtype).T
        return spec, codes, draw(st.integers(0, 2 ** 64 - 1))

    return build()


def test_column_kernel_matches_the_einsum_reference(small_block):
    pytest.importorskip("hypothesis")
    from hypothesis import given, strategies as st

    crossed = set()  # (kind, d) of the cases whose points span more than one block

    @given(_kernel_cases(st))
    def check(case):
        spec, codes, seed = case
        got, want = _project_codes(spec, codes, seed), _einsum_reference(spec, codes, seed)
        assert got.shape == want.shape == (codes.shape[0], spec.dim)
        if spec.dim <= 2:  # einsum's two-term sum is p0 + p1: the same bits
            assert got.tobytes() == want.tobytes()
        else:  # einsum adds d >= 3 terms in interleaved lanes
            assert np.abs(got - want).max() <= 1e-15 * max(1.0, np.abs(want).max())
        if codes.shape[0] > SMALL_BLOCK:
            crossed.add((spec.translations.kind, spec.dim))

    check()
    assert crossed == set(itertools.product(TRANSLATION_KINDS, range(1, 5)))


@pytest.mark.parametrize("d", [1, 2])
def test_column_kernel_turns_negative_zero_sums_positive_as_einsum_does(d):
    # -1/2 times the center 0.0 is -0.0, and -0.0 + -0.0 stays -0.0; einsum
    # sums from +0.0, so its point is +0.0
    maps = (-0.5 * np.eye(d), 0.25 * np.eye(d))
    digits = (np.full(d, -0.0), np.full(d, 0.5))
    spec = SystemSpec(d, Schedule("constant", (LevelSpec(2, maps, digits),)),
                      TranslationScheme("digit_grid"), Box(-np.ones(d), np.ones(d)))
    codes = np.zeros((1, 1), dtype=np.int64)
    got = _project_codes(spec, codes, 0)
    assert got.tobytes() == _einsum_reference(spec, codes, 0).tobytes() == np.zeros((1, d)).tobytes()


# ---------------------------------------------------------------------------
# blocks: the projection, the grid keys and the raster across block boundaries
# ---------------------------------------------------------------------------

def _whole_array_raster(cloud, resolution):
    """The raster ``render`` made before it went a block at a time, kept as the
    reference: every point clipped, scaled and marked at once."""
    raster = np.zeros((resolution, resolution), dtype=np.uint8)
    pts = cloud.points
    if cloud.region_lo is not None:
        lo, hi = cloud.region_lo, cloud.region_hi
    else:
        lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = np.maximum(hi - lo, 1e-300)
    scaled = (np.clip(pts, lo, hi) - lo) / span * resolution + 1e-9
    px = np.clip(np.floor(scaled[:, 0]).astype(np.int64), 0, resolution - 1)
    py = np.clip(np.floor(scaled[:, 1]).astype(np.int64), 0, resolution - 1)
    raster[resolution - 1 - py, px] = 255
    return raster


BLOCK_DEPTH = 4


def _block_spec(kind):
    """d = 2: a level of one diagonal map twice, then one of three maps drawn
    apart, with ``kind`` translations in [-1, 1]^2 around a seed box
    [0, 1/2]^2, so most points leave the box and ``render`` clips them."""
    rng = np.random.default_rng(5)
    levels = (LevelSpec(2, (np.diag([0.4, 0.3]),) * 2, rng.uniform(-1.0, 1.0, (2, 2))),
              LevelSpec(3, rng.uniform(-0.3, 0.3, (3, 2, 2)), rng.uniform(-1.0, 1.0, (3, 2))))
    schedule = Schedule("periodic", levels)
    if kind == "digit_grid":
        scheme = TranslationScheme(kind)
    elif kind == "finite_alphabet":
        scheme = TranslationScheme(kind, alphabet=tuple(rng.uniform(-1.0, 1.0, (3, 2))), seed=3)
    elif kind == "random_iid":
        scheme = TranslationScheme(kind, region=Box(-np.ones(2), np.ones(2)), seed=3)
    else:
        words = itertools.chain.from_iterable(
            itertools.product(*(range(1, schedule.level(k).branch_count + 1)
                                for k in range(1, t + 1))) for t in range(1, BLOCK_DEPTH + 1))
        scheme = TranslationScheme(kind, table={"-".join(map(str, w)): rng.uniform(-1.0, 1.0, 2)
                                                for w in words})
    return SystemSpec(2, schedule, scheme, Box(np.zeros(2), np.full(2, 0.5)))


@pytest.mark.parametrize("block", [SMALL_BLOCK, attractor._BLOCK])
@pytest.mark.parametrize("kind", TRANSLATION_KINDS)
def test_blocked_steps_match_their_whole_array_references(monkeypatch, kind, block):
    monkeypatch.setattr(attractor, "_BLOCK", block)
    spec = _block_spec(kind)
    for count in (1, block - 1, block, block + 1, 3 * block + 7):
        cloud = sample_cloud(spec, BLOCK_DEPTH, mode="random_codes", count=count, seed=count)
        codes = _int64_random_codes(spec, BLOCK_DEPTH, count, count)
        assert cloud.points.tobytes() == _einsum_reference(spec, codes, count).tobytes()
        for eps in (0.5, 0.1, 0.01, 1e-3):
            assert box_count(cloud, eps) == _row_sort_count(cloud.points, eps)
        for c in (cloud, _manual_cloud(cloud.points)):  # the seed box, or the points' own
            assert np.array_equal(render(c, 64), _whole_array_raster(c, 64))
    assert ((cloud.points < 0.0) | (cloud.points > 0.5)).any()


def _explicit_d1(table):
    level = LevelSpec(2, (np.array([[0.4]]),) * 2)
    return SystemSpec(1, Schedule("constant", (level,)),
                      TranslationScheme("explicit", table={w: [0.1] for w in table}),
                      Box(np.zeros(1), np.ones(1)))


@pytest.mark.parametrize("table, later, first, missing", [
    # only the eighth point, in the third block, has a word missing
    (("1", "2", "1-1", "1-2", "2-1"), (1, 1), (0, 0), "2-2"),
    # a word missing at level 2 in the first block, and one at level 1 in the
    # third: the shallower is named, as over the whole cloud
    (("1", "1-1"), (1, 0), (0, 1), "2"),
])
def test_a_missing_explicit_word_in_a_later_block_is_named(small_block, table, later, first,
                                                           missing):
    codes = np.array([first] + [(0, 0)] * 6 + [later], dtype=np.int64)
    with pytest.raises(UnresolvedTranslation) as err:
        _project_codes(_explicit_d1(table), codes, 0)
    assert str(err.value) == f"no table entry for word {missing}"


@pytest.mark.parametrize("bad, message", [
    ([2.0 ** 63, 0.0], "scale 1.0 puts grid indices outside int64"),
    ([0.0, math.nan], "scale 1.0 puts grid indices outside int64"),
    # spans 2^32 and 2^31: 2^63 keys
    ([2.0 ** 32 - 1, 2.0 ** 31 - 1],
     "scale 1.0 is too fine for an int64 grid key over this cloud's extent"),
])
def test_grid_keys_refuse_a_bad_point_in_a_later_block(small_block, bad, message):
    with pytest.raises(ValueError) as err:
        box_count(_manual_cloud([[0.0, 0.0]] * 7 + [bad]), 1.0)
    assert str(err.value) == message


def test_render_refuses_a_nan_point_in_a_later_block(small_block):
    cloud = _manual_cloud([[0.5, 0.5]] * 7 + [[0.5, math.nan]])
    cloud.region_lo, cloud.region_hi = np.zeros(2), np.ones(2)
    with pytest.raises(ValueError) as err:
        render(cloud, 8)
    assert str(err.value) == ("a sampled point has a nan coordinate: its translations "
                              "sum past the float range")


# ---------------------------------------------------------------------------
# compact random codes: the int64 codes' values and points, in less memory
# ---------------------------------------------------------------------------

def _int64_random_codes(spec, depth, count, seed):
    """The random codes as the sampler drew them before they were compacted:
    one int64 row per level from the seeded generator, stacked and transposed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return np.stack([rng.integers(0, spec.branch_count(k), size=count, dtype=np.int64)
                     for k in range(1, depth + 1)]).T


def _check_compact_random_codes(spec, depth, count, seed):
    """sample_cloud's random codes carry the widest level's smallest unsigned
    type, hold the int64 codes' values and give their points' bytes."""
    with mock.patch.object(attractor, "_project_codes", wraps=_project_codes) as kernel:
        got = sample_cloud(spec, depth, mode="random_codes", count=count, seed=seed)
    codes = kernel.call_args.args[1]
    widest = max(spec.branch_count(k) for k in range(1, depth + 1))
    assert codes.dtype == np.min_scalar_type(widest - 1)
    ref = _int64_random_codes(spec, depth, count, seed)
    assert np.array_equal(codes, ref)
    assert got.points.tobytes() == _project_codes(spec, ref, seed).tobytes()


def _wide_level(n, d, rng, identical):
    maps = [np.diag(rng.uniform(0.05, 0.45, d)) for _ in range(1 if identical else n)]
    return LevelSpec(n, tuple(maps * n if identical else maps),
                     tuple(rng.uniform(0.0, 1.0, (n, d))))


def test_random_codes_are_compact_and_bit_for_bit_the_int64_codes():
    pytest.importorskip("hypothesis")
    from hypothesis import given, strategies as st

    @given(st.integers(1, 2), st.lists(st.sampled_from([2, 256, 257]), min_size=1, max_size=3),
           st.sampled_from(["digit_grid", "finite_alphabet", "random_iid"]),
           st.integers(1, 4), st.integers(1, 300),
           st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 32), st.booleans())
    def check(d, widths, kind, depth, count, seed, build_seed, identical):
        rng = np.random.default_rng(build_seed)
        levels = tuple(_wide_level(n, d, rng, identical) for n in widths)
        box = Box(np.zeros(d), np.ones(d))
        if kind == "digit_grid":
            scheme = TranslationScheme(kind)
        elif kind == "finite_alphabet":
            scheme = TranslationScheme(kind, alphabet=tuple(rng.uniform(0.0, 1.0, (3, d))),
                                       seed=build_seed)
        else:
            scheme = TranslationScheme(kind, region=box, seed=build_seed)
        schedule = Schedule("constant" if len(levels) == 1 else "periodic", levels)
        _check_compact_random_codes(SystemSpec(d, schedule, scheme, box), depth, count, seed)

    check()


def test_random_codes_on_a_level_wider_than_uint16_are_uint32():
    rng = np.random.default_rng(70)
    levels = (_wide_level(70_000, 1, rng, identical=False), _wide_level(2, 1, rng, False))
    spec = SystemSpec(1, Schedule("periodic", levels), TranslationScheme("digit_grid"),
                      Box(np.zeros(1), np.ones(1)))
    _check_compact_random_codes(spec, 3, 50, 13)


# sampler memory: tracemalloc peak of one default-size random-codes sample
# (200,000 codes, depth 10), its box counts and its raster.  The uint8 codes
# (1.9 MiB) and the points (3.1 MiB) are held whole, and each step adds one
# block's scratch, the int64 keys (1.5 MiB) or the raster (0.5 MiB): about
# 7 MiB.  Whole-cloud translations, hashes, grid indices and pixels peaked at
# 13.3 MiB; int64 codes with every level's translations built before the
# projection peaked at 54 MiB.
SAMPLE_PEAK_BOUND = 9 * 2 ** 20


def test_random_codes_sample_stays_under_its_memory_bound():
    spec = fixture("example_5_4")
    tracemalloc.start()
    try:
        cloud = sample_cloud(spec, 10, mode="random_codes", count=200_000, seed=7)
        boxdim_fit(cloud, select_scales(cloud, default_scales(spec, 10)))
        render(cloud, 729)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= SAMPLE_PEAK_BOUND, f"peak {peak / 2 ** 20:.1f} MiB"


def test_full_enumeration_holds_its_codes_once():
    # 14 MiB of depth-7 carpet codes; K tiled columns stacked into one array
    # peaked at twice that
    spec = fixture("sierpinski_carpet")
    tracemalloc.start()
    try:
        codes = _enumerate_codes(spec, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * codes.nbytes, f"peak {peak / codes.nbytes:.2f} x the codes"
