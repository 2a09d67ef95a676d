import pytest

from deltacalc.e1 import e1_page
from deltacalc.errors import DomainError
from deltacalc.gamma import GradedDims, s_basis


def test_degree1_class_fills_the_diagonal():
    table = e1_page(GradedDims({1: 1}), 12)
    assert table.entries == {(k, k): 1 for k in range(13)}
    assert table.aq_dim == 1 and table.conn == 0


def test_degree2_class_fills_weight_k_degree_2k():
    table = e1_page(GradedDims({2: 1}), 8)
    assert table.entries == {(k, 2 * k): 1 for k in range(5)}
    assert table.aq_dim == 2 and table.conn == 1


def test_empty_input():
    table = e1_page(GradedDims({}), 6)
    assert table.entries == {(0, 0): 1}
    assert table.aq_dim is None and table.conn is None


def test_vanishing_above_the_diagonal():
    table = e1_page(GradedDims({1: 2, 2: 1, 3: 1}), 14)
    for (s, t), dim in table.entries.items():
        assert dim == 0 or s <= t


def test_row_zero():
    table = e1_page(GradedDims({1: 1, 3: 2}), 10)
    assert table.dim(0, 0) == 1
    for t in range(1, 11):
        assert table.dim(0, t) == 0


def test_totalization():
    hq = GradedDims({2: 1, 3: 1})
    table = e1_page(hq, 12)
    basis = s_basis(hq.items(), 12)
    for t in range(13):
        assert sum(d for (s, tt), d in table.entries.items() if tt == t) == basis.by_degree[t]


def test_nonconnected_rejected():
    with pytest.raises(DomainError):
        e1_page(GradedDims({0: 1, 2: 1}), 6)


def test_json_shape():
    payload = e1_page(GradedDims({2: 1}), 6).to_json()
    assert payload["aq_dim"] == 2 and payload["conn"] == 1
    assert {"s": 1, "t": 2, "dim": 1} in payload["entries"]
    ts = [(e["t"], e["s"]) for e in payload["entries"]]
    assert ts == sorted(ts)
