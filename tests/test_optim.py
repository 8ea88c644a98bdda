import numpy as np

from pathrec.optim import Adam


def reference_adam(params, grads_per_step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The Adam update written out with temporaries; returns (params, m, v)."""
    params = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        b1c = 1.0 - beta1 ** t
        b2c = 1.0 - beta2 ** t
        for p, g, mi, vi in zip(params, grads, m, v):
            mi *= beta1
            mi += (1.0 - beta1) * g
            vi *= beta2
            vi += (1.0 - beta2) * np.square(g)
            p -= lr * (mi / b1c) / (np.sqrt(vi / b2c) + eps)
    return params, m, v


def test_step_is_bitwise_equal_to_the_formula():
    rng = np.random.default_rng(0)
    # (700, 50) spans two of the optimizer's row blocks
    shapes = [(9, 7), (7,), (7, 5), (1,), (700, 50)]
    start = [rng.normal(size=s) for s in shapes]
    # gradient scales over many decades so rounding differences would show
    grads_per_step = [[rng.normal(size=s) * 10.0 ** rng.integers(-9, 4) for s in shapes]
                      for _ in range(25)]
    params = [p.copy() for p in start]
    opt = Adam(params, lr=0.01)
    for grads in grads_per_step:
        opt.step(grads)
    want_p, want_m, want_v = reference_adam(start, grads_per_step, lr=0.01)
    for got, want in zip(params + opt.m + opt.v, want_p + want_m + want_v):
        assert got.tobytes() == want.tobytes()
    assert opt.t == 25


def test_step_updates_the_given_arrays_and_leaves_grads_alone():
    p = np.ones(4)
    g = np.full(4, 0.5)
    opt = Adam([p], lr=0.1)
    opt.step([g])
    assert opt.params[0] is p
    assert (p < 1.0).all()
    np.testing.assert_array_equal(g, np.full(4, 0.5))
