"""The shared Gauss rule and the polyline nodes of the bound integrals."""

import numpy as np
import pytest

from parcyl import quadrature


def test_polyline_nodes_match_the_per_segment_formula():
    # 300 segments: two full batches and a partial one
    rng = np.random.default_rng(7)
    verts = list(np.cumsum(rng.normal(size=301) + 1j * rng.normal(size=301)))
    x, w = quadrature.gauss(quadrature.SEGMENT_NODES)
    batches = list(quadrature.polyline_nodes(verts))
    full = quadrature.BATCH_SEGMENTS
    assert [len(nodes) for nodes, _ in batches] == [full, full, 300 - 2 * full]
    nodes = np.vstack([b[0] for b in batches])
    elements = np.vstack([b[1] for b in batches])
    for i, (zs, ze) in enumerate(zip(verts[:-1], verts[1:])):
        assert np.array_equal(nodes[i], zs + (ze - zs) * (0.5 * x + 0.5))
        np.testing.assert_allclose(elements[i], (ze - zs) * 0.5 * w, rtol=1e-15)
    # the rule along the path: the integral of 2z dz is b^2 - a^2
    total = sum(np.sum(2.0 * zn * e) for zn, e in batches)
    assert total == pytest.approx(verts[-1] ** 2 - verts[0] ** 2, rel=1e-12)


def test_polyline_nodes_follow_the_batch_size(monkeypatch):
    monkeypatch.setattr(quadrature, "BATCH_SEGMENTS", 4)
    sizes = [len(nodes) for nodes, _ in quadrature.polyline_nodes(range(11))]
    assert sizes == [4, 4, 2]
    assert list(quadrature.polyline_nodes([1.0 + 1j])) == []
