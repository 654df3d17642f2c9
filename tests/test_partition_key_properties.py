"""The key columns behind ``theta_entropy_table`` against ``partition_key``.

``partition_key`` evaluates one word with the scalar ``eval_S`` and bins the
values through the same key rule, so the two may differ only where a bulk
series value and its oracle value fall on opposite sides of a cell edge.
Bulk and oracle values differ by at most the tolerance of
``test_series_properties`` (fixed there before running); a word any of whose
oracle values lies within that tolerance of an edge at its level is skipped.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from solenoidlab.partitions import _theta_keys, partition_key, theta_measure
from solenoidlab.separation import GENERIC_BASE_POINT, TransversalityCertificate
from solenoidlab.series import eval_S
from solenoidlab.words import Word, nhat, word_point
from test_series_properties import systems, tol

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)
#: Most words one drawn suffix class may hold; eight of them are checked.
MAX_WORDS = 1 << 16


def near_edge(value: float, b: int, level: int, slack: float) -> bool:
    scaled = value * float(b) ** level
    return abs(scaled - round(scaled)) <= slack * float(b) ** level


@SETTINGS
@given(st.data())
def test_theta_key_columns_match_partition_key(data):
    p = data.draw(systems().filter(lambda p: p.b < 4))
    t = data.draw(st.integers(1, 2))
    word = st.lists(st.integers(0, p.b - 1), min_size=t, max_size=t).map(lambda d: Word(d, p.b))
    # only t, a, x0, h and h' enter the keys; the certified fields are placeholders
    cert = TransversalityCertificate(
        t, 0.0, data.draw(word), data.draw(word), data.draw(word), GENERIC_BASE_POINT, 0, 0.0, 0.0, 0.0
    )
    nhats = {n: nhat(n, p.b, p.gamma) for n in range(1, 11)}
    scales = [n for n, k in nhats.items() if t < k and p.b ** (k - t) <= MAX_WORDS]
    assume(scales)
    n = data.draw(st.sampled_from(scales))
    C = data.draw(st.floats(0.5, 2.0))
    theta = theta_measure(p, cert.a, n)
    coarse, fine = _theta_keys(p, cert, theta, n, C)
    slack = tol(p, 0)
    codes = data.draw(st.lists(st.integers(0, len(theta.codes) - 1), min_size=1, max_size=8))
    for code in codes:
        w = Word.from_code(code, theta.prefix_len, p.b).concat(theta.suffix)
        base = word_point(w, cert.x0)
        oracle = [eval_S(p, base, cert.h), eval_S(p, base, cert.h_prime), eval_S(p, cert.x0, w)]
        for level_n, (cols, lev12, lev3) in ((0, coarse), (max(1, round(C * n)), fine)):
            key = partition_key(p, w, level_n, cert.x0, cert.h, cert.h_prime)
            assert key.cell3_level == lev3 and key.m == theta.word_length
            levels = [lev12, lev12, lev3] if level_n else [lev3]
            if any(near_edge(v, p.b, lev, slack) for v, lev in zip(oracle[-len(levels):], levels)):
                continue
            cells = [key.cell1, key.cell2, key.cell3] if level_n else [key.cell3]
            assert [int(c[code]) for c in cols] == cells
