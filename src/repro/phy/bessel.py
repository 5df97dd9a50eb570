"""Scalar Bessel ``J0`` without scipy, for the fader's Jakes autocorrelation.

A port of the cephes double-precision ``j0`` that ``scipy.special.j0``
wraps -- same coefficients, same evaluation order, so the same double
(``tests/test_bessel.py`` holds it to exact equality with scipy).
"""

import math

# |x| <= 5: (z - DR1)(z - DR2) RP(z)/RQ(z) with z = x^2; DR1, DR2 are the
# squares of the first two zeros.  RQ and QQ have an implicit leading 1.
_DR1, _DR2 = 5.78318596294678452118e0, 3.04712623436620863991e1
_RP = (-4.79443220978201773821e9, 1.95617491946556577543e12,
       -2.49248344360967716204e14, 9.70862251047306323952e15)
_RQ = (4.99563147152651017219e2, 1.73785401676374683123e5,
       4.84409658339962045305e7, 1.11855537045356834862e10,
       2.11277520115489217587e12, 3.10518229857422583814e14,
       3.18121955943204943306e16, 1.71086294081043136091e18)
# |x| > 5: Hankel asymptotic form, modulus PP/PQ and phase QP/QQ in 25/x^2.
_PP = (7.96936729297347051624e-4, 8.28352392107440799803e-2,
       1.23953371646414299388e0, 5.44725003058768775090e0,
       8.74716500199817011941e0, 5.30324038235394892183e0,
       9.99999999999999997821e-1)
_PQ = (9.24408810558863637013e-4, 8.56288474354474431428e-2,
       1.25352743901058953537e0, 5.47097740330417105182e0,
       8.76190883237069594232e0, 5.30605288235394617618e0,
       1.00000000000000000218e0)
_QP = (-1.13663838898469149931e-2, -1.28252718670509318512e0,
       -1.95539544257735972385e1, -9.32060152123768231369e1,
       -1.77681167980488050595e2, -1.47077505154951170175e2,
       -5.14105326766599330220e1, -6.05014350600728481186e0)
_QQ = (6.43178256118178023184e1, 8.56430025976980587198e2,
       3.88240183605401609683e3, 7.24046774195652478189e3,
       5.93072701187316984827e3, 2.06209331660327847417e3,
       2.42005740240291393179e2)
_SQRT_2_OVER_PI = 7.9788456080286535587989e-1


def _horner(z: float, coefs: tuple, acc: float = 0.0) -> float:
    for c in coefs:
        acc = acc * z + c
    return acc


def j0(x: float) -> float:
    """Bessel function of the first kind, order zero."""
    x = abs(x)
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        return (z - _DR1) * (z - _DR2) * _horner(z, _RP) / _horner(z, _RQ, 1.0)
    q = 25.0 / (x * x)
    p = _horner(q, _PP) / _horner(q, _PQ)
    q = _horner(q, _QP) / _horner(q, _QQ, 1.0)
    xn = x - math.pi / 4.0
    p = p * math.cos(xn) - 5.0 / x * q * math.sin(xn)
    return p * _SQRT_2_OVER_PI / math.sqrt(x)
