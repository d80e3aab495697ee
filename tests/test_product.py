import numpy as np
import pytest
from numpy.testing import assert_allclose

from nilconv import groups, product
from nilconv.product import (
    MultiIndex,
    ProductGroup,
    all_subsets,
    hom_degree,
    multi_indices_up_to,
    zero_outside,
)


def _hxr():
    return ProductGroup([groups.heisenberg1(), groups.abelian(1)])


def test_factorwise_multiply_matches_factors():
    P = _hxr()
    rng = np.random.default_rng(4)
    a = rng.uniform(-2, 2, (20, 4))
    b = rng.uniform(-2, 2, (20, 4))
    z = P.multiply(a, b)
    h = groups.heisenberg1()
    assert_allclose(z[:, :3], h.bch_multiply(a[:, :3], b[:, :3]), atol=1e-13)
    assert_allclose(z[:, 3], a[:, 3] + b[:, 3], atol=0)
    assert_allclose(P.multiply(a, P.invert(a)), np.zeros_like(a), atol=1e-12)


def test_multi_dilate_per_factor():
    P = _hxr()
    a = np.array([1.0, 2.0, 3.0, 4.0])
    out = P.dilate([2.0, 3.0], a)
    assert_allclose(out, [2.0, 4.0, 12.0, 12.0], atol=0)
    with pytest.raises(ValueError):
        P.dilate([2.0], a)
    with pytest.raises(ValueError):
        P.dilate([2.0, -1.0], a)


def test_factor_norms_and_Q():
    P = _hxr()
    assert P.Q == (4, 1)
    n = P.factor_norms(np.array([0.0, 0.0, 1.0, -2.0]))
    assert_allclose(n, [1.0, 2.0], atol=1e-14)


def test_all_subsets_enumerated_once():
    subs = list(all_subsets(2))
    assert subs == [(), (0,), (1,), (0, 1)]
    assert len(set(subs)) == len(subs)
    assert len(list(all_subsets(3))) == 8


def test_zero_outside_matches_convention():
    # factors are 0-based; zeroing outside {first factor} keeps k1 only
    assert zero_outside((3, 2), (0,)) == (3, 0)
    assert zero_outside((3, 2), (1,)) == (0, 2)
    assert zero_outside((3, 2), ()) == (0, 0)
    assert zero_outside((3, 2), (0, 1)) == (3, 2)


def test_multi_index_basics():
    P = _hxr()
    a = MultiIndex.make(P, [(1, 0, 1), (2,)])
    # weights on Heisenberg are (1,1,2): deg = 1*1 + 1*2 = 3
    assert hom_degree(P, a) == (3, 2)
    assert MultiIndex.zero(P).is_zero()
    with pytest.raises(ValueError):
        MultiIndex.make(P, [(1, 0), (2,)])
    with pytest.raises(ValueError):
        MultiIndex.make(P, [(1, 0, -1), (2,)])


def test_multi_index_enumeration_counts():
    ab2 = product.preset("abelian2")
    all_11 = list(multi_indices_up_to(ab2, (1, 1)))
    assert len(all_11) == 4
    only_first = list(multi_indices_up_to(ab2, (1, 1), subset=(0,)))
    assert len(only_first) == 2
    assert all(m.entries[1] == (0,) for m in only_first)
    # Heisenberg factor: |alpha| <= 1 over 3 coords -> 4 options
    P = _hxr()
    assert len(list(multi_indices_up_to(P, (1, 0), subset=(0,)))) == 4


def test_presets():
    assert product.preset("abelian2").nu == 2
    assert product.preset("abelian1").q_total == 1
    h = product.preset("heisenberg1")
    assert h.nu == 1 and h.q == (3,)
    with pytest.raises(ValueError):
        product.preset("nope")
    with pytest.raises(ValueError):
        product.preset("abelian0")


def test_product_serialization_round_trip(tmp_path):
    P = _hxr()
    d = P.to_dict()
    P2 = ProductGroup.from_dict(d)
    assert P2.nu == 2 and P2.q == (3, 1)
    # preset strings allowed inside factor lists
    P3 = ProductGroup.from_dict({"factors": ["abelian2", {"n_layers": 1, "layer_dims": [2]}]})
    assert P3.nu == 3 and P3.q == (1, 1, 2)
    import json

    p = tmp_path / "prod.json"
    p.write_text(json.dumps(d))
    P4 = product.load_product(str(p))
    assert P4.q == (3, 1)


def test_lattice_denominators_concatenate():
    P = _hxr()
    assert P.lattice_denominators == (1, 1, 2, 1)
