"""Finite-difference verification of backpropagated gradients."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

# float64 relative error above which a coordinate is re-checked with
# extended-precision forward passes (see grad_check).
REFINE_ABOVE = 1e-5
# A float64 central difference carries an absolute rounding error of
# about ulp(loss)/(2*epsilon), one "noise unit". The noise-limited
# coordinates of the four `framecmd gradcheck` architectures stay under
# 1.7 units; a discrepancy above NOISE_UNITS units is a wrong gradient,
# not noise, so it fails without refinement.
NOISE_UNITS = 16


def _central_difference(forward_fn, p, flat, idx, epsilon):
    """The central difference of the loss in coordinate idx of p, whose
    data `flat` views. Every write bumps p's version, so that `forward`
    reuses no stage output computed from another value of p."""
    orig = flat[idx]
    flat[idx] = orig + epsilon
    p.version += 1
    lp = forward_fn().data
    flat[idx] = orig - epsilon
    p.version += 1
    lm = forward_fn().data
    flat[idx] = orig
    p.version += 1
    return float((lp - lm) / (2.0 * epsilon))


def _rel_err(a, n):
    return abs(a - n) / max(1e-8, abs(a) + abs(n))


def grad_check(forward_fn, params, epsilon=1e-5, max_coords=500, seed=0):
    """Compare analytic gradients against central differences.

    forward_fn() must rebuild the loss graph from the current parameter
    values and return a scalar Tensor. While coordinates are perturbed,
    `model.forward` reuses the stages no write has reached
    (`ad.reusing`), so between calls nothing but grad_check may change
    the weights or the inputs forward_fn passes. Per parameter, up to
    max_coords coordinates are checked (seeded subsample when larger).
    Returns the max of |a - n| / max(1e-8, |a| + |n|) over all checked
    coordinates, or NaN when any of them is NaN (e.g. with epsilon = 0),
    so that a check against a threshold fails.

    Coordinates whose gradient magnitude is near the 1e-8 denominator
    floor are noise-limited in float64: the central difference carries
    an absolute rounding error of roughly ulp(loss)/(2*epsilon), which
    dwarfs such gradients. Those coordinates (float64 relative error
    above REFINE_ABOVE, discrepancy within NOISE_UNITS of that rounding
    error) are re-evaluated with extended-precision forward passes,
    which removes the rounding noise without touching the float64
    analytic gradients being verified. A larger discrepancy keeps its
    float64 error.
    """
    params = list(params)
    for p in params:
        p.zero_grad()
    loss = forward_fn()
    noise = NOISE_UNITS * np.spacing(abs(loss.data)) / (2.0 * epsilon)
    ad.backward(loss)
    analytic = {p.name: p.grad.copy() for p in params}

    rng = np.random.default_rng(seed)
    errors = [0.0]
    suspect = []  # (param, coord, analytic value) pairs to re-check
    with ad.no_grad(), ad.reusing():
        for p in params:
            flat = p.data.reshape(-1)
            n = flat.shape[0]
            if n > max_coords:
                coords = rng.choice(n, size=max_coords, replace=False)
            else:
                coords = range(n)
            a_flat = analytic[p.name].reshape(-1)
            for idx in coords:
                numeric = _central_difference(forward_fn, p, flat, idx,
                                              epsilon)
                err = _rel_err(a_flat[idx], numeric)
                if err <= REFINE_ABOVE or not (
                        abs(a_flat[idx] - numeric) <= noise):   # NaN too
                    errors.append(err)
                else:
                    suspect.append((p, idx, a_flat[idx]))

        if suspect:
            # The only rebinding of Parameter.data: the long-double
            # copies are temporary, and the finally block puts back the
            # very same arrays, the views into an optimizer's flat
            # buffer where there is one.
            saved = [p.data for p in params]
            try:
                ad.dtype = np.longdouble
                for p in params:
                    p.data = p.data.astype(np.longdouble)
                for p, idx, a in suspect:
                    flat = p.data.reshape(-1)
                    numeric = _central_difference(forward_fn, p, flat, idx,
                                                  epsilon)
                    errors.append(_rel_err(a, numeric))
            finally:
                ad.dtype = np.float64
                for p, data in zip(params, saved):
                    p.data = data
    for p in params:
        p.zero_grad()
    return float(np.max(errors))    # NaN if any error is NaN
