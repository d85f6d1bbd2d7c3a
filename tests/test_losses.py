import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lanespace.losses import (
    FD_STEP,
    LossTerms,
    UncertaintyParams,
    check_gradients,
    enet_weights,
    total_loss,
    total_loss_grad,
    weighted_ce,
    weighted_ce_grad,
)

finite_floats = st.floats(-30.0, 30.0, allow_nan=False, allow_infinity=False)


# --- class weights ----------------------------------------------------------


def test_weight_spot_values():
    w = enet_weights(np.array([0.0, 1.0]), k=1.02)
    assert w[0] == pytest.approx(1.0 / math.log(1.02), abs=1e-12)
    assert w[1] == pytest.approx(1.0 / math.log(2.02), abs=1e-12)
    assert w[0] == pytest.approx(50.4983497918439, abs=1e-10)
    assert w[1] == pytest.approx(1.4222778260019158, abs=1e-12)


def test_rarer_class_gets_the_larger_weight():
    w = enet_weights(np.array([0.7, 0.2, 0.1]))
    assert w[2] > w[1] > w[0]
    assert (w > 0).all()


def test_weights_validate_inputs():
    with pytest.raises(ValueError):
        enet_weights(np.array([0.5, 0.5]), k=1.0)
    with pytest.raises(ValueError):
        enet_weights(np.array([0.6, 0.6]))
    with pytest.raises(ValueError):
        enet_weights(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        enet_weights(np.array([]))


# --- cross-entropy ----------------------------------------------------------


def test_ce_hand_value():
    # Two equal logits: softmax 0.5, loss = -w ln(1/2) = w ln 2.
    w = np.array([1.0, 3.0])
    assert weighted_ce(np.array([4.0, 4.0]), 0, w) == pytest.approx(math.log(2.0))
    assert weighted_ce(np.array([4.0, 4.0]), 1, w) == pytest.approx(3.0 * math.log(2.0))


def test_ce_uniform_logits_give_w_log_m():
    for m in (2, 3, 5, 11):
        w = np.full(m, 2.5)
        loss = weighted_ce(np.zeros(m), 0, w)
        assert loss == pytest.approx(2.5 * math.log(m), abs=1e-12)


def test_ce_is_shift_invariant_and_stable_at_huge_logits():
    w = np.array([1.0, 1.0, 1.0])
    z = np.array([1.0, 2.0, 3.0])
    base = weighted_ce(z, 1, w)
    assert weighted_ce(z + 1000.0, 1, w) == pytest.approx(base, abs=1e-9)
    huge = weighted_ce(np.array([1e4, 0.0, 0.0]), 0, w)
    assert math.isfinite(huge) and huge == pytest.approx(0.0, abs=1e-9)


def test_ce_matches_high_precision_reference():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        z = rng.normal(0, 5, m)
        t = int(rng.integers(m))
        w = enet_weights(rng.dirichlet(np.ones(m)))
        zl = np.asarray(z, dtype=np.longdouble)
        ref = -np.longdouble(w[t]) * (
            zl[t] - np.log(np.exp(zl - zl.max()).sum()) - zl.max()
        )
        assert weighted_ce(z, t, w) == pytest.approx(float(ref), rel=1e-12)


def test_ce_rejects_bad_inputs():
    w = np.ones(2)
    with pytest.raises(ValueError):
        weighted_ce(np.array([1.0, np.inf]), 0, w)
    with pytest.raises(ValueError):
        weighted_ce(np.array([1.0, 2.0]), 2, w)


@given(st.lists(finite_floats, min_size=2, max_size=6), st.data())
def test_ce_grad_sums_to_zero(logit_list, data):
    z = np.array(logit_list)
    target = data.draw(st.integers(0, len(z) - 1))
    w = np.full(len(z), 1.7)
    g = weighted_ce_grad(z, target, w)
    assert abs(g.sum()) <= 1e-9  # softmax probabilities sum to 1
    assert g[target] <= 0  # raising the true logit lowers the loss


# --- two-task loss ----------------------------------------------------------


def test_total_loss_spot_value():
    # s_seg = ln 2 halves the variance term on the first task:
    # exp(-2 ln 2) * 1 + ln 2 + exp(0) * 2 = 0.25 + ln 2 + 2.
    terms = LossTerms(1.0, 2.0)
    params = UncertaintyParams(s_seg=math.log(2.0), s_cls=0.0)
    assert total_loss(terms, params) == pytest.approx(2.25 + math.log(2.0), abs=1e-12)
    assert total_loss(terms, params) == pytest.approx(2.9431471805599454, abs=1e-12)


def test_zero_sigmas_reduce_to_plain_sum():
    terms = LossTerms(0.7, 1.3)
    assert total_loss(terms, UncertaintyParams()) == pytest.approx(2.0)


def test_total_loss_stationary_point():
    # dL/ds = -2 exp(-2s) l + 1 vanishes at s = ln(2 l) / 2.
    terms = LossTerms(3.0, 0.25)
    s_seg = 0.5 * math.log(2.0 * terms.l_seg)
    s_cls = 0.5 * math.log(2.0 * terms.l_cls)
    g = total_loss_grad(terms, UncertaintyParams(s_seg, s_cls))
    assert g[0] == pytest.approx(0.0, abs=1e-12)
    assert g[1] == pytest.approx(0.0, abs=1e-12)
    # And it is a minimum: nearby points cost more.
    best = total_loss(terms, UncertaintyParams(s_seg, s_cls))
    for ds in (-0.1, 0.1):
        assert total_loss(terms, UncertaintyParams(s_seg + ds, s_cls)) > best


def test_loss_terms_validate():
    with pytest.raises(ValueError):
        LossTerms(-1.0, 0.0)
    with pytest.raises(ValueError):
        LossTerms(float("nan"), 0.0)
    with pytest.raises(ValueError):
        UncertaintyParams(float("inf"), 0.0)


# --- gradient checks --------------------------------------------------------


def test_gradient_check_passes_tolerance():
    report = check_gradients(cases=200, seed=123)
    assert report["cases"] == 200
    assert report["fd_step"] == FD_STEP
    worst = report["max_rel_error"]
    assert worst["weighted_ce_grad"] < 1e-5
    assert worst["total_loss_grad"] < 1e-5


def test_gradient_check_is_deterministic():
    a = check_gradients(cases=50, seed=9)
    b = check_gradients(cases=50, seed=9)
    assert a == b
