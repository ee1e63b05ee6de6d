"""Generic elementwise tape ops that only tests use: the composed loss
oracle and the gradient checks build on them, the model does not."""

import numpy as np

from tabnsa import autodiff as ad


def exp(a) -> ad.Tensor:
    a = ad._ensure(a)
    data = np.exp(a.data)
    return ad._node(data, (a,), lambda g: (g * data,))


def log(a) -> ad.Tensor:
    a = ad._ensure(a)
    return ad._node(np.log(a.data), (a,), lambda g: (g / a.data,))


def power(a, p: float) -> ad.Tensor:
    a = ad._ensure(a)
    p = float(p)
    data = a.data**p
    return ad._node(data, (a,), lambda g: (g * p * a.data ** (p - 1.0),))
