"""Composition-estimate reports: summand structure, identities, stability."""

import json

import numpy as np
import pytest

from nilconv.grid import GridSpec, zero_lowest_face
from nilconv.groups import abelian
from nilconv.kernels import DeltaKernel, GridKernel, synth_dyadic
from nilconv.product import ProductGroup
from nilconv.seminorms import SeminormConfig
from nilconv.tame import (
    swap_consistent,
    tame_report_fk,
    tame_report_pk,
    tame_report_single,
)

AB2 = ProductGroup([abelian(1), abelian(1)])

LIGHT = SeminormConfig(radius_factors=(1.0,))

# N = 8 boxes only admit separated samples at the wider radius factor
CFG8 = SeminormConfig()


def _random_kernel(spec, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(spec.shape) + 1j * rng.standard_normal(spec.shape)
    return GridKernel(spec, zero_lowest_face(vals))


def test_requires_two_factors():
    spec = GridSpec(ProductGroup([abelian(1)]), 8, 2.0)
    K = DeltaKernel(spec.group, 1.0)
    with pytest.raises(ValueError, match="two factor groups"):
        tame_report_pk(K, K, spec, (1,), CFG8)


def test_delta_left_identity_ratio():
    spec = GridSpec(AB2, 8, 2.0)
    L = _random_kernel(spec, 0)
    rep = tame_report_pk(DeltaKernel(AB2, 1.0), L, spec, (1, 1), CFG8)
    assert 0.0 < rep.ratio <= 1.0 + 1e-9


def test_delta_right_identity_ratio():
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 1)
    rep = tame_report_pk(K, DeltaKernel(AB2, 1.0), spec, (1, 1), CFG8)
    assert 0.0 < rep.ratio <= 1.0 + 1e-9


def test_delta_identities_single_and_flag():
    spec = GridSpec(AB2, 8, 2.0)
    L = _random_kernel(spec, 2)
    one = DeltaKernel(AB2, 1.0)
    assert tame_report_single(one, L, spec, 1, CFG8).ratio <= 1.0 + 1e-9
    assert tame_report_single(L, one, spec, 1, CFG8).ratio <= 1.0 + 1e-9
    assert tame_report_fk(one, L, spec, (1, 1), CFG8).ratio <= 1.0 + 1e-9


def test_summand_structure_and_tameness():
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 3)
    L = _random_kernel(spec, 4)
    pk = tame_report_pk(K, L, spec, (1, 1), CFG8)
    single = tame_report_single(K, L, spec, 1, CFG8)
    flag = tame_report_fk(K, L, spec, (1, 1), CFG8)
    assert len(pk.summands) == 4
    assert len(single.summands) == 2
    assert len(flag.summands) == 4
    for rep in (pk, single, flag):
        assert all(s.value >= 0.0 for s in rep.summands)
        assert np.isclose(rep.rhs, sum(s.value for s in rep.summands), rtol=1e-15)
        assert rep.tameness_ok
        assert np.isfinite(rep.ratio) and rep.ratio > 0.0
    # middle summands confine each parameter's orders to one factor
    for s in (pk.summands[1], pk.summands[2]):
        assert s.left["orders"][0] * s.left["orders"][1] == 0
        assert s.right["orders"][0] * s.right["orders"][1] == 0
    # each summand's factors: (name, left (variant, subset), right (variant, subset))
    op = (None, None)
    middle = [("sem0(K) * sem1(L)", ("product", [0]), ("product", [1])),
              ("sem1(K) * sem0(L)", ("product", [1]), ("product", [0]))]
    expected = {
        "single": ([("sem0(K) * op(L)", ("product", [0]), op),
                    ("op(K) * sem0(L)", op, ("product", [0]))], ("product", [0])),
        "product": ([("op(K) * sem(L)", op, ("product", None))] + middle
                    + [("sem(K) * op(L)", ("product", None), op)], ("product", None)),
        "flag": ([("op(K) * flag(L)", op, ("flag", None))] + middle
                 + [("flag(K) * op(L)", ("flag", None), op)], ("flag", None)),
    }
    for rep in (pk, single, flag):
        summands, lhs = expected[rep.kind]
        assert [(s.name, (s.left["variant"], s.left["subset"]),
                 (s.right["variant"], s.right["subset"])) for s in rep.summands] == summands
        assert (rep.lhs_meta["variant"], rep.lhs_meta["subset"]) == lhs


def test_tameness_check_rejects_double_carrier():
    from nilconv.tame import Summand, _semi_meta

    bad = Summand("x", _semi_meta("K", "product", None, (1, 0), 1.0),
                  _semi_meta("L", "product", None, (1, 1), 1.0))
    assert not bad.tame_ok(2)


def test_scaling_leaves_ratio_invariant():
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 5)
    L = _random_kernel(spec, 6)
    c = -3.0 + 0.7j
    Kc = GridKernel(spec, c * K.values)
    a = tame_report_pk(K, L, spec, (1, 1), CFG8)
    b = tame_report_pk(Kc, L, spec, (1, 1), CFG8)
    assert abs(b.ratio - a.ratio) <= 1e-8 * a.ratio


def test_swap_relabels_summands_exactly():
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 7)
    L = _random_kernel(spec, 8)
    assert swap_consistent(tame_report_pk(K, L, spec, (1, 1), CFG8),
                           tame_report_pk(L, K, spec, (1, 1), CFG8))
    assert swap_consistent(tame_report_single(K, L, spec, 1, CFG8),
                           tame_report_single(L, K, spec, 1, CFG8))
    assert swap_consistent(tame_report_fk(K, L, spec, (1, 1), CFG8),
                           tame_report_fk(L, K, spec, (1, 1), CFG8))
    mismatched = tame_report_pk(K, L, spec, (1, 0), CFG8)
    assert not swap_consistent(mismatched,
                               tame_report_pk(L, K, spec, (1, 1), CFG8))


def test_report_serialization():
    spec = GridSpec(AB2, 8, 2.0)
    K = _random_kernel(spec, 9)
    L = _random_kernel(spec, 10)
    rep1 = tame_report_pk(K, L, spec, (1, 1), CFG8, ids=("ka", "kb"))
    rep2 = tame_report_pk(K, L, spec, (1, 1), CFG8, ids=("ka", "kb"))
    text = json.dumps(rep1.to_dict(), sort_keys=True)
    assert text == json.dumps(rep2.to_dict(), sort_keys=True)

    data = json.loads(text)
    assert data["kind"] == "product"
    assert data["config"]["kernel_ids"] == ["ka", "kb"]
    assert len(data["summands"]) == 4
    assert data["rhs"] > 0.0


def test_dyadic_pair_ratio_stable_under_refinement():
    K = synth_dyadic(AB2, -2, 2, "random", seed=21)
    L = synth_dyadic(AB2, -2, 2, "mexican", seed=22)
    ratios = {}
    for N in (16, 24):
        spec = GridSpec(AB2, N, 2.0)
        ratios[N] = tame_report_pk(K, L, spec, (1, 1), LIGHT).ratio
        assert np.isfinite(ratios[N]) and ratios[N] > 0.0
    change = max(ratios[16], ratios[24]) / min(ratios[16], ratios[24])
    assert change <= 3.0


def test_flag_pair_ratio_stable_under_refinement():
    K = synth_dyadic(AB2, -2, 2, "random", seed=23, flag_mode=True)
    L = synth_dyadic(AB2, -2, 2, "mexican", seed=24, flag_mode=True)
    ratios = {}
    for N in (16, 24):
        spec = GridSpec(AB2, N, 2.0)
        ratios[N] = tame_report_fk(K, L, spec, (1, 1), LIGHT).ratio
        assert np.isfinite(ratios[N]) and ratios[N] > 0.0
    change = max(ratios[16], ratios[24]) / min(ratios[16], ratios[24])
    assert change <= 3.0
