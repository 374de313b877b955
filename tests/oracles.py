"""Small scalar reference implementations the batch kernels are tested against."""
from collections import Counter


def dp_levenshtein(a: str, b: str) -> int:
    """Quadratic dynamic program over the full edit-distance table."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1,
                          d[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return d[m][n]


def counter_cosine(a: str, b: str, k: int) -> float:
    """Cosine of k-token Counters, rounded as the featurizer documents:
    integer dot product over the product of `** 0.5` norms, capped at 1."""
    if a == b:
        return 1.0
    ta = Counter(a[i:i + k] for i in range(len(a) - k + 1))
    tb = Counter(b[i:i + k] for i in range(len(b) - k + 1))
    if not ta or not tb:
        return 0.0
    dot = sum(c * tb[t] for t, c in ta.items())
    if dot == 0:
        return 0.0
    na = sum(c * c for c in ta.values()) ** 0.5
    nb = sum(c * c for c in tb.values()) ** 0.5
    return min(dot / (na * nb), 1.0)


def cross_product_codes(records_a: dict, records_b: dict, fields):
    """(i, j, code) of every A x B pair in row-major order, straight from the
    cell values: gamma_f is NA (2) when either value is empty, else 1 when
    they are equal and 0 when not; the code is sum_f gamma_f * 3^f."""
    import numpy as np
    n_a, n_b = len(records_a[fields[0]]), len(records_b[fields[0]])
    ii = np.repeat(np.arange(n_a), n_b)
    jj = np.tile(np.arange(n_b), n_a)
    code = np.zeros(n_a * n_b, dtype=np.int64)
    for f, name in enumerate(fields):
        a = np.array(records_a[name], dtype=str)[ii]
        b = np.array(records_b[name], dtype=str)[jj]
        code += np.where((a == "") | (b == ""), 2, (a == b).astype(np.int64)) * 3 ** f
    return ii, jj, code


def cross_product_table(records_a: dict, records_b: dict, fields, truth=()) -> dict:
    """{gamma tuple: (pairs, true-match pairs)} over the cross product."""
    import numpy as np
    ii, jj, code = cross_product_codes(records_a, records_b, fields)
    linked = np.zeros(len(code), dtype=bool)
    for i, j in truth:
        linked[(ii == i) & (jj == j)] = True
    uniq, inverse = np.unique(code, return_inverse=True)
    pairs = np.bincount(inverse, minlength=len(uniq))
    true_pairs = np.bincount(inverse[linked], minlength=len(uniq))
    return {tuple(int(c) // 3 ** f % 3 for f in range(len(fields))): (int(n), int(t))
            for c, n, t in zip(uniq, pairs, true_pairs)}
