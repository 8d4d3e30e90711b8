"""Bounded linear programs for lighting control, solved by HiGHS."""

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .errors import InfeasibleError, NumericError

__all__ = ["solve_bounded_lp"]

_HIGHS_INFEASIBLE = 2


def solve_bounded_lp(c, a_ge, b_ge, upper) -> np.ndarray:
    """Minimize ``c @ x`` subject to ``a_ge @ x >= b_ge`` and ``0 <= x <= upper``.

    One ``scipy.optimize.linprog(method="highs")`` call; ``a_ge`` may be a
    dense array or a scipy sparse matrix (block-diagonal batches of
    independent programs stay sparse).

    Returns:
        The optimal ``x``, clipped into its bounds.

    Raises:
        InfeasibleError: no ``x`` within the bounds covers every row.
        NumericError: HiGHS stopped without an optimum for another reason.
    """
    c = np.asarray(c, dtype=float)
    a = a_ge if sparse.issparse(a_ge) else np.asarray(a_ge, dtype=float)
    b = np.asarray(b_ge, dtype=float)
    u = np.asarray(upper, dtype=float)
    if a.ndim != 2:
        raise ValueError("a_ge must be a matrix")
    m, n = a.shape
    if c.shape != (n,) or b.shape != (m,) or u.shape != (n,):
        raise ValueError("inconsistent LP dimensions")
    if not np.all(u >= 0):
        raise ValueError("upper bounds must be nonnegative")

    res = linprog(c, A_ub=-a, b_ub=-b, bounds=np.column_stack([np.zeros(n), u]),
                  method="highs")
    if res.status == _HIGHS_INFEASIBLE:
        raise InfeasibleError("coverage constraints admit no solution within the bounds")
    if res.status != 0:
        raise NumericError(f"HiGHS found no optimum: {res.message}")
    return np.clip(res.x, 0.0, u)
