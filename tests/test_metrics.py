import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sigfd import metrics
from sigfd.errors import DegenerateInput, LengthMismatch
from sigfd.metrics import (MEASURE_NAMES, DistanceMeasure, distance,
                           pairwise_distances)

ALL = [DistanceMeasure(name) for name in MEASURE_NAMES]


def test_measure_validation():
    with pytest.raises(ValueError):
        DistanceMeasure("cosine")
    # at p = inf, 0 ** (1 / p) is 1, so identical rows would lie 1.0 apart
    for p in (0.0, np.inf):
        with pytest.raises(ValueError):
            DistanceMeasure("minkowski", p=p)


def test_known_values():
    x = np.array([1.0, 2.0])
    y = np.array([4.0, 6.0])
    assert distance(DistanceMeasure("manhattan"), x, y) == 7.0
    assert distance(DistanceMeasure("euclidean"), x, y) == 5.0
    assert abs(distance(DistanceMeasure("minkowski", p=3), x, y) - 91.0 ** (1 / 3)) < 1e-12
    ones = np.array([1.0, 1.0])
    twos = np.array([2.0, 2.0])
    assert distance(DistanceMeasure("mod-manhattan"), ones, twos) == 0.25
    assert distance(DistanceMeasure("mod-sse"), ones, twos) == 0.125


def test_angle_known_values():
    m = DistanceMeasure("angle")
    assert distance(m, [1.0, 0.0], [0.0, 1.0]) == 0.0
    assert distance(m, [1.0, 0.0], [3.0, 0.0]) == -1.0
    assert distance(m, [1.0, 0.0], [-2.0, 0.0]) == 1.0


def test_correlation_known_values():
    m = DistanceMeasure("correlation")
    x = [1.0, 2.0, 3.0]
    assert distance(m, x, [3.0, 2.0, 1.0]) == 1.0
    assert distance(m, x, [7.0, 9.0, 11.0]) == -1.0  # positive affine image of x


def test_identical_vectors():
    rng = np.random.default_rng(30)
    x = rng.random(12) + 0.5
    for m in ALL:
        d = distance(m, x, x)
        if m.name in ("angle", "correlation"):
            assert abs(d + 1.0) < 1e-12
        else:
            assert abs(d) < 1e-12


@given(p=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
       x=arrays(np.float64, 5, elements=st.floats(-1e6, 1e6)))
def test_minkowski_puts_identical_rows_at_zero_for_every_accepted_order(p, x):
    assert distance(DistanceMeasure("minkowski", p=p), x, x) == 0.0


def test_lower_means_closer():
    rng = np.random.default_rng(31)
    x = rng.random(16) + 0.5
    near = x + rng.normal(scale=1e-3, size=16)
    far = rng.random(16) * 5 + 2
    for m in ALL:
        assert distance(m, x, near) < distance(m, x, far)


def test_similarity_outputs_stay_clamped():
    rng = np.random.default_rng(32)
    for _ in range(200):
        x = rng.normal(size=8)
        y = 1e-8 * x if rng.random() < 0.5 else rng.normal(size=8)
        for name in ("angle", "correlation"):
            d = distance(DistanceMeasure(name), x, y)
            assert -1.0 <= d <= 1.0


def test_minkowski_reduces_to_manhattan_and_euclidean():
    rng = np.random.default_rng(33)
    for _ in range(30):
        x = rng.normal(size=10) * 3
        y = rng.normal(size=10) * 3
        d1 = distance(DistanceMeasure("minkowski", p=1.0), x, y)
        d2 = distance(DistanceMeasure("minkowski", p=2.0), x, y)
        assert abs(d1 - distance(DistanceMeasure("manhattan"), x, y)) < 1e-12
        assert abs(d2 - distance(DistanceMeasure("euclidean"), x, y)) < 1e-12


def test_degenerate_inputs():
    zero = np.zeros(4)
    flat = np.full(4, 3.0)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    with pytest.raises(DegenerateInput):
        distance(DistanceMeasure("angle"), zero, x)
    with pytest.raises(DegenerateInput):
        distance(DistanceMeasure("correlation"), flat, x)
    with pytest.raises(DegenerateInput):
        distance(DistanceMeasure("mod-manhattan"), x, zero)
    with pytest.raises(DegenerateInput):
        distance(DistanceMeasure("mod-sse"), zero, zero)
    # a distance out of the float range: an SSE over a subnormal sum of
    # squares, sums whose product overflows (it used to put distinct rows
    # 0.0 apart), a sum of squares that overflows
    with pytest.raises(DegenerateInput, match="mod-sse"):
        distance(DistanceMeasure("mod-sse"), [0.5, 1.0, 0.25, 0.1], [0.0, 2.2e-162, 0.0, 0.0])
    with pytest.raises(DegenerateInput, match="mod-manhattan"):
        distance(DistanceMeasure("mod-manhattan"), [1e300, 2e300, 0.0], [2e300, 1e300, 0.0])
    with pytest.raises(DegenerateInput, match="angle"):
        distance(DistanceMeasure("angle"), x, 1e200 * x)
    # an underflow alone is no error
    assert distance(DistanceMeasure("manhattan"), [1e-320, 0.0], [0.0, 0.0]) == 1e-320


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        distance(DistanceMeasure("manhattan"), [1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(LengthMismatch):
        distance(DistanceMeasure("manhattan"), [], [])
    with pytest.raises(LengthMismatch):
        distance(DistanceMeasure("manhattan"), np.zeros((2, 2)), np.zeros((2, 2)))
    # a scalar, and a vector beside a one-row matrix, are not two vectors either
    for x, y in ((1.0, 1.0), ([1.0, 2.0], [[1.0, 2.0]]), ([[1.0, 2.0]], [1.0, 2.0])):
        with pytest.raises(LengthMismatch):
            distance(DistanceMeasure("manhattan"), x, y)


def test_pairwise_matches_scalar_loop():
    rng = np.random.default_rng(34)
    probes = rng.random((5, 9)) + 0.1
    gallery = rng.random((7, 9)) + 0.1
    for m in ALL:
        mat = pairwise_distances(m, probes, gallery)
        assert mat.shape == (5, 7)
        for i in range(5):
            for j in range(7):
                assert mat[i, j] == distance(m, probes[i], gallery[j])


@st.composite
def _stacks(draw, max_probes=4, max_gallery=5, values=st.floats(0.01, 100.0)):
    n = draw(st.integers(1, 12))
    probes = draw(arrays(np.float64, (draw(st.integers(1, max_probes)), n), elements=values))
    gallery = draw(arrays(np.float64, (draw(st.integers(1, max_gallery)), n), elements=values))
    return probes, gallery


_MEASURES = st.builds(DistanceMeasure, st.sampled_from(MEASURE_NAMES), st.floats(0.5, 50.0))


@given(pair=_stacks(max_probes=1, max_gallery=1), m=_MEASURES)
def test_scalar_is_the_1x1_pairwise_entry(pair, m):
    x, y = pair[0][0], pair[1][0]
    try:
        expected = pairwise_distances(m, x[None], y[None])[0, 0]
    except DegenerateInput:
        with pytest.raises(DegenerateInput):
            distance(m, x, y)
        return
    assert distance(m, x, y) == expected


@given(stacks=_stacks(), m=_MEASURES)
def test_pairwise_entries_do_not_depend_on_other_rows(stacks, m):
    probes, gallery = stacks
    try:
        mat = pairwise_distances(m, probes, gallery)
    except DegenerateInput:
        return
    for i in range(len(probes)):
        for j in range(len(gallery)):
            assert mat[i, j] == distance(m, probes[i], gallery[j])


# every magnitude a gallery or a descriptor accepts, subnormals included
@given(stacks=_stacks(values=st.floats(0.0, 1e300)), m=_MEASURES)
def test_accepted_magnitudes_give_a_finite_distance_or_degenerate_input(stacks, m):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            mat = pairwise_distances(m, *stacks)
        except DegenerateInput:
            return
    assert np.isfinite(mat).all()


def test_minkowski_high_order_does_not_overflow():
    m = DistanceMeasure("minkowski", p=400.0)
    assert distance(m, [0.0, 10.0], [0.0, 0.0]) == 10.0
    assert distance(m, [3.0, 4.0], [3.0, 4.0]) == 0.0


def test_correlation_survives_a_large_mean():
    x = 1e8 + 1e-4 * np.arange(64)
    assert abs(distance(DistanceMeasure("correlation"), x, x[::-1]) - 1.0) < 1e-9


def test_pairwise_validates_shapes_and_degeneracy():
    with pytest.raises(LengthMismatch):
        pairwise_distances(DistanceMeasure("manhattan"), np.zeros((2, 3)), np.zeros((2, 4)))
    probes = np.vstack([np.zeros(3), np.ones(3)])
    with pytest.raises(DegenerateInput):
        pairwise_distances(DistanceMeasure("angle"), probes, np.ones((2, 3)))
    # no probes or no gallery rows give an empty matrix, yet a zero row on
    # the other side is still checked
    rows = np.ones((2, 3)) + np.eye(2, 3)
    for m in ALL:
        assert pairwise_distances(m, np.empty((0, 3)), rows).shape == (0, 2)
        assert pairwise_distances(m, rows, np.empty((0, 3))).shape == (2, 0)
    zero, empty = np.zeros((1, 3)), np.empty((0, 3))
    for pair in ((zero, empty), (empty, zero)):
        with pytest.raises(DegenerateInput):
            pairwise_distances(DistanceMeasure("angle"), *pair)


def _broadcast_reference(measure, p, g):
    """The whole-matrix broadcast formulas of the unblocked kernel, validation left out."""
    name = measure.name
    if name in ("angle", "correlation"):
        if name == "correlation":
            p = p - p.mean(axis=1, keepdims=True)
            g = g - g.mean(axis=1, keepdims=True)
        np2 = np.sum(p * p, axis=1)
        ng2 = np.sum(g * g, axis=1)
        cos = np.sum(p[:, None, :] * g[None, :, :], axis=2) / np.sqrt(np.outer(np2, ng2))
        return -np.clip(cos, -1.0, 1.0)
    diff = np.abs(p[:, None, :] - g[None, :, :])
    if name == "minkowski":
        top = diff.max(axis=2)
        top = np.where(top > 0.0, top, 1.0)
        return top * np.sum((diff / top[:, :, None]) ** measure.p, axis=2) ** (1.0 / measure.p)
    if name == "manhattan":
        return np.sum(diff, axis=2)
    if name == "euclidean":
        return np.sqrt(np.sum(diff ** 2, axis=2))
    if name == "mod-manhattan":
        return np.sum(diff, axis=2) / np.outer(np.sum(np.abs(p), axis=1),
                                               np.sum(np.abs(g), axis=1))
    return np.sum(diff ** 2, axis=2) / np.outer(np.sum(p * p, axis=1), np.sum(g * g, axis=1))


@pytest.mark.parametrize("block", [1, 3, metrics._BLOCK_ROWS])
def test_blocked_scan_gives_the_bits_of_the_broadcast_formulas(block):
    rng = np.random.default_rng(35)
    measures = [DistanceMeasure("minkowski", p) for p in (0.5, 1.0, 2.0, 3.0, 7.3)]
    measures += [DistanceMeasure(name) for name in MEASURE_NAMES if name != "minkowski"]
    with mock.patch.object(metrics, "_BLOCK_ROWS", block):
        for k in (1, 7, 8, 13, 64, 130):
            for n_p, n_g in ((1, 1), (1, block + 1), (3, 7), (32, 32)):
                # rows spread over six decades, so the per-pair scaling matters
                probes, gallery = (rng.random((n, k)) * 10.0 ** rng.integers(-3, 3, (n, 1))
                                   for n in (n_p, n_g))
                for m in measures:
                    if m.name == "correlation" and k == 1:
                        with pytest.raises(DegenerateInput):
                            pairwise_distances(m, probes, gallery)
                        continue
                    got = pairwise_distances(m, probes, gallery)
                    want = _broadcast_reference(m, probes, gallery)
                    assert got.tobytes() == want.tobytes(), (m, k, n_p, n_g)
                    one = np.float64(distance(m, probes[0], gallery[0]))
                    assert one.tobytes() == got[0, 0].tobytes(), (m, k)


@pytest.mark.parametrize("n_p", [1, 4])
def test_scan_working_set_does_not_grow_with_the_gallery(n_p):
    rng = np.random.default_rng(36)
    k, n_g = 64, 10_000
    probes = rng.random((n_p, k)) + 0.1
    gallery = rng.random((n_g, k)) + 0.1
    block = metrics._BLOCK_ROWS
    # the tiled probes, the work buffer and one block of temporaries, plus
    # the (P, T) result and, for the scaled measures, one sum per gallery row;
    # a (T, k) temporary alone would be 5 MB
    budget = 3 * n_p * block * k * 8 + (n_p + 1) * n_g * 8
    for name in MEASURE_NAMES:
        measure = DistanceMeasure(name)
        tracemalloc.start()
        try:
            pairwise_distances(measure, probes, gallery)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget, (name, peak, budget)
