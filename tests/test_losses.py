"""Composite objective: hand values, masking, alpha linearity, gradients.

Every map is a clip with a leading frame axis; these cases use one frame.
"""

import numpy as np
import pytest

from ivt import tensor as T
from ivt.gradcheck import grad_check
from ivt.losses import masked_l1, total_loss
from ivt.tensor import ContractError, Tensor

RNG = np.random.default_rng


def make_maps(rng, joints=2, h=4, w=4, centers=((1, 2),)):
    """One-frame clips: mask (1, h, w) and targets (1, ...)."""
    mask = np.zeros((1, h, w), dtype=bool)
    for y, x in centers:
        mask[0, y, x] = True
    tgt_hm = rng.uniform(0, 1, size=(1, h, w))
    tgt_o3 = np.zeros((1, 3 * joints, h, w))
    tgt_o2 = np.zeros((1, 2 * joints, h, w))
    for y, x in centers:
        tgt_o3[0, :, y, x] = rng.uniform(-2, 2, size=3 * joints)
        tgt_o2[0, :, y, x] = rng.uniform(-2, 2, size=2 * joints)
    return mask, tgt_hm, tgt_o3, tgt_o2


def test_exact_prediction_gives_zero_loss():
    rng = RNG(0)
    mask, hm, o3, o2 = make_maps(rng)
    total, terms = total_loss((Tensor(hm), Tensor(o3), Tensor(o2)),
                              (hm, o3, o2), (mask, mask), 10.0)
    assert total.item() == 0.0
    assert all(v == 0.0 for v in terms.values())


def test_alpha_zero_drops_heatmap_term():
    rng = RNG(1)
    mask, hm, o3, o2 = make_maps(rng)
    pred_hm = Tensor(rng.uniform(0, 1, size=hm.shape))
    pred_o3, pred_o2 = Tensor(rng.standard_normal(o3.shape)), Tensor(rng.standard_normal(o2.shape))
    total, terms = total_loss((pred_hm, pred_o3, pred_o2), (hm, o3, o2),
                              (mask, mask), 0.0)
    assert total.item() == pytest.approx(terms["l1_3d"] + terms["l1_2d"], abs=1e-15)


def test_hand_computed_single_pixel_value():
    # One joint, 1x1 maps: pred 3D offsets irrelevant here — the 2D term
    # carries offsets (1, -2), targets zero; heatmap pred 0.5 vs target 1.0.
    mask = np.array([[[True]]])
    pred_hm = Tensor(np.array([[[0.5]]]))
    tgt_hm = np.array([[[1.0]]])
    pred_o2 = Tensor(np.array([1.0, -2.0]).reshape(1, 2, 1, 1))
    tgt_o2 = np.zeros((1, 2, 1, 1))
    pred_o3 = Tensor(np.zeros((1, 3, 1, 1)))
    tgt_o3 = np.zeros((1, 3, 1, 1))
    total, terms = total_loss((pred_hm, pred_o3, pred_o2),
                              (tgt_hm, tgt_o3, tgt_o2), (mask, mask), 10.0)
    # (|1| + |-2|) / 2 + 10 * (0.5)^2 = 1.5 + 2.5
    assert total.item() == pytest.approx(4.0, abs=1e-12)
    assert terms["l1_2d"] == pytest.approx(1.5, abs=1e-12)
    assert terms["l2_hm"] == pytest.approx(0.25, abs=1e-12)


def test_scalar_loop_oracle_random_maps():
    rng = RNG(2)
    mask, hm, o3, o2 = make_maps(rng, centers=((1, 2), (3, 0)))
    pred_hm = rng.uniform(0, 1, size=hm.shape)
    pred_o3 = rng.standard_normal(o3.shape)
    pred_o2 = rng.standard_normal(o2.shape)
    alpha = 10.0
    total, _ = total_loss((Tensor(pred_hm), Tensor(pred_o3), Tensor(pred_o2)),
                          (hm, o3, o2), (mask, mask), alpha)
    acc3 = [abs(pred_o3[0, c, y, x] - o3[0, c, y, x])
            for c in range(o3.shape[1])
            for y in range(4) for x in range(4) if mask[0, y, x]]
    acc2 = [abs(pred_o2[0, c, y, x] - o2[0, c, y, x])
            for c in range(o2.shape[1])
            for y in range(4) for x in range(4) if mask[0, y, x]]
    acch = [(pred_hm[0, y, x] - hm[0, y, x]) ** 2 for y in range(4) for x in range(4)]
    want = np.mean(acc3) + np.mean(acc2) + alpha * np.mean(acch)
    assert total.item() == pytest.approx(want, abs=1e-12)


def test_loss_nonnegative_and_zero_only_on_match():
    rng = RNG(3)
    mask, hm, o3, o2 = make_maps(rng)
    for _ in range(20):
        pred = (Tensor(rng.uniform(0, 1, size=hm.shape)),
                Tensor(rng.standard_normal(o3.shape)),
                Tensor(rng.standard_normal(o2.shape)))
        total, _ = total_loss(pred, (hm, o3, o2), (mask, mask), 10.0)
        assert total.item() >= 0.0


def test_linearity_in_alpha():
    rng = RNG(4)
    mask, hm, o3, o2 = make_maps(rng)
    pred = (Tensor(rng.uniform(0, 1, size=hm.shape)),
            Tensor(rng.standard_normal(o3.shape)),
            Tensor(rng.standard_normal(o2.shape)))
    t1, terms1 = total_loss(pred, (hm, o3, o2), (mask, mask), 2.0)
    t2, _ = total_loss(pred, (hm, o3, o2), (mask, mask), 5.0)
    slope = (t2.item() - t1.item()) / 3.0
    assert slope == pytest.approx(terms1["l2_hm"], abs=1e-12)


def test_negative_alpha_rejected():
    mask, hm, o3, o2 = make_maps(RNG(6))
    with pytest.raises(ContractError, match="alpha"):
        total_loss((Tensor(hm), Tensor(o3), Tensor(o2)), (hm, o3, o2), (mask, mask), -1.0)


def test_empty_mask_with_nonzero_targets_rejected():
    pred = Tensor(np.ones((2, 2, 3, 3)))
    target = np.zeros((2, 2, 3, 3))
    target[1] = 1.0
    mask = np.zeros((2, 3, 3), dtype=bool)
    mask[0, 1, 1] = True  # the other frame has centers: still rejected
    with pytest.raises(ContractError):
        masked_l1(pred, target, mask)


def test_empty_mask_with_zero_targets_gives_zero():
    pred = Tensor(np.ones((1, 2, 3, 3)), requires_grad=True)
    out = masked_l1(pred, np.zeros((1, 2, 3, 3)), np.zeros((1, 3, 3), dtype=bool))
    assert out.item() == 0.0
    T.backward(out)  # stays connected to the graph
    np.testing.assert_array_equal(pred.grad, np.zeros((1, 2, 3, 3)))


def test_gradient_of_total_loss():
    rng = RNG(5)
    mask, hm, o3, o2 = make_maps(rng)
    pred_o3 = Tensor(rng.standard_normal(o3.shape) + 3.0)  # keep |.| off its kink
    pred_o2 = Tensor(rng.standard_normal(o2.shape) + 3.0)

    def f(t):
        total, _ = total_loss((t, pred_o3, pred_o2), (hm, o3, o2),
                              (mask, mask), 10.0)
        return total

    assert grad_check(f, Tensor(rng.uniform(0, 1, size=hm.shape))) <= 1e-5

    def g(t):
        total, _ = total_loss((Tensor(hm), t, pred_o2), (hm, o3, o2),
                              (mask, mask), 10.0)
        return total

    assert grad_check(g, pred_o3) <= 1e-5
