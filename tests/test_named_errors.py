"""Every named input error of the public API that no other test reaches:
the call raises ValueError with that message."""

import re

import numpy as np
import pytest

from switchlab import gravity, order
from switchlab.linalg import ID2, partial_trace
from switchlab.ops import ChoiOperator
from switchlab.process import (
    ProcessMatrix,
    causal_mixture,
    channel_process,
    ocb_process,
    validate_process,
)


def mixed_shape_strategy():
    # Bob's Choi is 2 x 3 only at (y, b') = (1, 1), so G_B would mix two shapes.
    good = order.ocb_strategy()
    wide = ChoiOperator(2, 3, np.eye(6) / 3)
    bob = {(y, b, bp): wide if (y, bp) == (1, 1) else n for (y, b, bp), n in good.bob.items()}
    return order.GameStrategy(good.alice, bob)


def rng():
    return np.random.default_rng(0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: partial_trace(np.eye(3), (2, 2), keep=(0,)), "matrix of shape (3, 3) does not match dims (2, 2)"),
        (lambda: partial_trace(np.eye(4), (2, 2), keep=(2,)), "keep indices [2] out of range for 2 factors"),
        (lambda: ProcessMatrix((2, 2, 2, 2), np.eye(4)), "matrix shape (4, 4) does not match dims (2, 2, 2, 2)"),
        (lambda: ProcessMatrix((2, 2, 2), ID2 / 2), "ProcessMatrix dims (2, 2, 2) must be four dimensions"),
        (lambda: channel_process(ID2 / 2, ChoiOperator(2, 2, np.eye(4))), "channel Choi is not trace-preserving"),
        (lambda: causal_mixture(ocb_process(), ProcessMatrix((4, 1, 2, 2), np.eye(16) / 4), 0.5),
         "process dimensions disagree"),
        (lambda: validate_process(ocb_process(), 0, rng()), "need at least one sample"),
        (mixed_shape_strategy, "Bob Chois must share one (d_in, d_out), not [(2, 2), (2, 3)]"),
        (lambda: order.switch_supermap_state(2 * ID2, ID2, order.SwitchSpec()), "switch branches must be unitary"),
        (lambda: order.max_contraction_deviation(0, rng()), "need at least one pair"),
        (lambda: order.chsh_value(np.ones(3)), "CHSH evaluation needs a two-qubit state vector"),
        (lambda: order.max_separable_chsh(0, rng()), "need at least one sample"),
        (lambda: order.temporal_order_state(*order.TEMPORAL_ORDER_UNITARIES, ID2[0], ID2[0], 0),
         "sign must be +1 or -1"),
        (lambda: order.SwitchSpec(target_state=[1, 0, 0]),
         "switch target state needs a last axis of length 2 (a qubit), not shape (3,)"),
        (lambda: order.temporal_order_state(*order.TEMPORAL_ORDER_UNITARIES, np.array([1, 0, 0]), ID2[0], 1),
         "temporal-order target states must be qubits of shape (2,), not (3,)"),
        (lambda: gravity.BodyConfig(np.nan, 1.0), "body mass is not positive and finite"),
        (lambda: gravity.BodyConfig(1.0, np.inf), "body radius is not positive and finite"),
        (lambda: gravity.SwitchGeometry(1.0, np.nan), "geometry d is not positive and finite"),
        (lambda: gravity.ClockModel(np.nan), "clock energy_gap is not nonnegative and finite"),
    ],
    ids=[
        "check-dims-shape",
        "partial-trace-keep-range",
        "process-matrix-shape",
        "process-matrix-three-dims",
        "one-way-non-tp-channel",
        "causal-mixture-dims",
        "validate-zero-samples",
        "party-dims-mixed-shapes",
        "supermap-non-unitary",
        "contraction-zero-pairs",
        "chsh-state-size",
        "separable-chsh-zero-samples",
        "temporal-order-sign",
        "switch-target-not-a-qubit",
        "temporal-order-target-not-a-qubit",
        "body-nan-mass",
        "body-infinite-radius",
        "geometry-nan-separation",
        "clock-nan-gap",
    ],
)
def test_named_input_errors(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
