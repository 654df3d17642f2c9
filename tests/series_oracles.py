"""Test-side checks of the word series that no library code calls."""

from solenoidlab.series import eval_S
from solenoidlab.words import SystemParams, Word, word_point


def cocycle_check(params: SystemParams, x: float, w: Word, i: Word) -> float:
    """Residual |S(x, w i) - S(x, w) - gamma^|w| S(w(x), i)| on exact finite words."""
    if len(w) < 1:
        raise ValueError("w must be nonempty")
    whole = eval_S(params, x, w.concat(i))
    head = eval_S(params, x, w)
    tail_val = eval_S(params, word_point(w, x), i)
    return abs(whole - head - params.gamma ** len(w) * tail_val)
