"""Property tests of the transformation group law over random step
sequences: inverting a sequence undoes its coefficient flow, and the
closed-form flow agrees with conjugation in the exact 4x4 representation.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from liosym.fourdim import rep_of_coefficients
from liosym.generators import CONSERVING, UNITARY, CoefficientVector
from liosym.transforms import TransformSequence, apply_sequence

# |p| <= 1 over at most six steps keeps every coefficient below ~1e3, so
# the flows stay exact to ~1e-12
params = st.floats(-1.0, 1.0, allow_nan=False)
steps = st.lists(st.tuples(st.sampled_from(UNITARY + CONSERVING), params),
                 min_size=1, max_size=6)
coeffs = st.builds(CoefficientVector,
                   *[st.floats(-2.0, 2.0, allow_nan=False)] * 7)


def scale(*vectors):
    return max(1.0, *(abs(x) for v in vectors for x in v))


@settings(max_examples=100, deadline=None)
@given(steps, coeffs)
def test_inverse_sequence_undoes_the_flow(raw, c):
    seq = TransformSequence(raw)
    forward = apply_sequence(seq, c)
    back = apply_sequence(seq.inverse(), forward)
    assert np.allclose(back, c, rtol=0, atol=1e-12 * scale(c, forward))


@settings(max_examples=100, deadline=None)
@given(steps, coeffs)
def test_coefficient_flow_matches_conjugation_in_the_4x4_rep(raw, c):
    # apply_sequence folds coefficient_map over the steps
    seq = TransformSequence(raw)
    S, Sinv = seq.rep4(), seq.inverse().rep4()
    lhs = S @ rep_of_coefficients(c) @ Sinv
    flow = apply_sequence(seq, c)
    rhs = rep_of_coefficients(flow)
    tol = 1e-12 * scale(c, flow) * np.abs(S).max() * np.abs(Sinv).max()
    assert np.abs(lhs - rhs).max() <= tol

