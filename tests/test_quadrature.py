"""The shared Gauss rule and the one generator of the polyline nodes of the
bound integrals."""

import numpy as np
import pytest

from parcyl import quadrature


def _polylines():
    """A p-plane tail (one segment from an exact endpoint), a 300-segment
    path, a one-vertex polyline (no segment) and a short path."""
    rng = np.random.default_rng(7)
    long = np.cumsum(rng.normal(size=301) + 1j * rng.normal(size=301))
    return [[1.0, 0.6 + 0.2j], list(long), [2.0 + 1.0j], [0.5j, 1.5 + 0.5j, 3.0]]


def _segment_nodes(vertices):
    """Nodes and elements of each segment by the per-segment formula."""
    x, w = quadrature.gauss(quadrature.SEGMENT_NODES)
    return [(zs + (ze - zs) * (0.5 * x + 0.5), (ze - zs) * (0.5 * w))
            for zs, ze in zip(vertices[:-1], vertices[1:])]


@pytest.mark.parametrize("batch_segments", [quadrature.BATCH_SEGMENTS, 7, 1])
def test_path_nodes_match_the_per_segment_formula(monkeypatch, batch_segments):
    monkeypatch.setattr(quadrature, "BATCH_SEGMENTS", batch_segments)
    polylines = _polylines()
    batches = list(quadrature.path_nodes(polylines))
    segments = sum(len(v) - 1 for v in polylines)
    per_node = quadrature.SEGMENT_NODES
    # full batches of BATCH_SEGMENTS segments, the rest in the last one
    sizes = [len(nodes) // per_node for nodes, _, _ in batches]
    assert sizes == [batch_segments] * (segments // batch_segments) \
        + ([segments % batch_segments] if segments % batch_segments else [])
    got = {i: ([], []) for i in range(len(polylines))}
    for nodes, elements, spans in batches:
        assert nodes.shape == elements.shape == (nodes.size,)
        # the spans tile the batch in order of polyline
        assert [a for _, a, _ in spans] == [0] + [b for _, _, b in spans[:-1]]
        assert spans[-1][2] == nodes.size
        assert [i for i, _, _ in spans] == sorted({i for i, _, _ in spans})
        for i, a, b in spans:
            got[i][0].append(nodes[a:b])
            got[i][1].append(elements[a:b])
    for i, vertices in enumerate(polylines):
        ref = _segment_nodes(vertices)
        if not ref:
            assert got[i] == ([], [])
            continue
        nodes, elements = (np.concatenate(g) for g in got[i])
        assert np.array_equal(nodes, np.concatenate([r[0] for r in ref]))
        assert np.array_equal(elements, np.concatenate([r[1] for r in ref]))
        # the rule along the polyline: the integral of 2z dz is b^2 - a^2
        total = np.sum(2.0 * nodes * elements)
        assert total == pytest.approx(vertices[-1] ** 2 - vertices[0] ** 2, rel=1e-12)


def test_path_nodes_of_no_segment_yield_nothing():
    assert list(quadrature.path_nodes([[1.0 + 1j], [2.0]])) == []


@pytest.mark.parametrize("rule", [lambda: quadrature.gauss(12),
                                  lambda: quadrature._unit_segment_rule(32)])
def test_shared_rules_are_read_only(rule):
    for arr in rule():
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr *= 2.0
