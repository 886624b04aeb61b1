import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sigfd.errors import DegenerateInput, LengthMismatch
from sigfd.metrics import (MEASURE_NAMES, DistanceMeasure, distance,
                           pairwise_distances)

ALL = [DistanceMeasure(name) for name in MEASURE_NAMES]


def test_measure_validation():
    with pytest.raises(ValueError):
        DistanceMeasure("cosine")
    with pytest.raises(ValueError):
        DistanceMeasure("minkowski", p=0.0)


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
def _stacks(draw, max_probes=4, max_gallery=5):
    n = draw(st.integers(1, 12))
    values = st.floats(0.01, 100.0)
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
