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
