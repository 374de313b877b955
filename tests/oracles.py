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


# ---------------------------------------------------------------------------
# Per-candidate logistic selection: one 2-D IRLS per fit, two ROC sorts per
# dev score. hanlink.matcher batches these; it must agree bitwise.


def irls_fit(D, y, penalty, tol, max_iter):
    """(beta, iterations, converged, trace, halvings) of one damped-Newton
    fit of the 2-D design D, halvings counting the step halvings taken;
    raises TrainingError when the objective rises."""
    import numpy as np
    from hanlink.matcher import TrainingError

    def nll(beta):
        z = D @ beta
        return float((np.logaddexp(0.0, z) - y * z).sum()
                     + 0.5 * penalty * np.dot(beta[1:], beta[1:]))

    n, p = D.shape
    beta = np.zeros(p)
    pen = np.full(p, penalty)
    pen[0] = 0.0
    objective = nll(beta)
    trace = [objective]
    converged = False
    iterations = halvings = 0
    for iterations in range(1, max_iter + 1):
        mu = masked_sigmoid(D @ beta)
        grad = D.T @ (mu - y) + pen * beta
        w = np.clip(mu * (1.0 - mu), 1e-10, None)
        H = (D * w[:, None]).T @ D + np.diag(pen)
        try:
            step = np.linalg.solve(H, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(H, grad, rcond=None)[0]
        scale = 1.0
        new_obj = objective
        for _ in range(40):
            candidate = beta - scale * step
            new_obj = nll(candidate)
            if new_obj <= objective:
                beta = candidate
                break
            scale *= 0.5
            halvings += 1
        if new_obj > objective + 1e-9 * (1.0 + abs(objective)):
            raise TrainingError(f"training objective increased from {objective!r} "
                                f"to {new_obj!r} at iteration {iterations}")
        delta = objective - new_obj
        objective = new_obj
        trace.append(objective)
        if delta < tol * (abs(objective) + 1.0):
            converged = True
            break
    return beta, iterations, converged, trace, halvings


def logistic_fit(data, specs, penalty=1e-6, tol=1e-8, max_iter=200,
                 interactions=False, terms=None):
    """matcher.train_logistic over `irls_fit`; the model is assembled, and
    ConvergenceError raised, by the matcher's own `_fitted_model`."""
    import numpy as np
    from hanlink.matcher import TrainingError, _as_matrices, _build_design, _fitted_model
    X, cats, y = _as_matrices(data)
    if len(np.unique(y)) < 2:
        raise TrainingError("training data must contain both classes")
    if terms is None:
        terms = [("main", j) for j in range(len(specs))]
        if interactions:
            terms += [("catdum", c) for c in (1, 2)]
            terms += [("inter", j, c) for j in range(len(specs)) for c in (1, 2)]
    beta, iterations, converged, trace, _ = irls_fit(_build_design(X, cats, terms), y,
                                                     penalty, tol, max_iter)
    return _fitted_model((beta, iterations, converged, trace, None), terms, specs,
                         penalty, tol, max_iter)


def dev_metrics(model, dev_X, dev_cats, dev_y, cols):
    """(AUROC, EAUROC) of the model's dev scores, one ROC sort each."""
    from hanlink.metrics import GroupedRanking, auroc, eauroc
    ranking = GroupedRanking.from_pairs(model.predict_matrix(dev_X[:, cols], dev_cats),
                                        dev_y)
    return auroc(ranking), eauroc(ranking)


def forward_select_loop(candidates, train, dev, bank, penalty=1e-6, tol=1e-8,
                        min_improve=1e-5):
    """matcher.forward_select fitting each candidate alone."""
    import numpy as np
    from hanlink.matcher import _as_matrices
    X, cats, y = _as_matrices(train)
    dev_X, dev_cats, dev_y = _as_matrices(dev)
    bank_index = {spec: i for i, spec in enumerate(bank)}
    remaining = list(candidates)
    selected = []
    cur_auroc, cur_eauroc = 0.5, 0.5
    while remaining:
        best = None
        for pos, cand in enumerate(remaining):
            cols = np.array([bank_index[s] for s in selected + [cand]])
            model = logistic_fit((X[:, cols], cats, y), tuple(selected + [cand]),
                                 penalty=penalty, tol=tol)
            a, e = dev_metrics(model, dev_X, dev_cats, dev_y, cols)
            if best is None or (a, e, -pos) > best[0]:
                best = ((a, e, -pos), pos, a, e)
        _, pos, a, e = best
        if a - cur_auroc < min_improve and e - cur_eauroc < min_improve:
            break
        selected.append(remaining.pop(pos))
        cur_auroc, cur_eauroc = a, e
    return selected


def backward_prune_loop(model, dev, train, penalty=1e-6, tol=1e-8, min_improve=1e-5):
    """matcher.backward_prune refitting each reduced design alone."""
    import numpy as np
    from hanlink.matcher import _as_matrices
    X, cats, y = _as_matrices(train)
    dev_X, dev_cats, dev_y = _as_matrices(dev)
    specs = model.specs
    all_cols = np.arange(len(specs))
    terms = [tuple(t) for t in model.trainer["terms"]]
    cur_a, cur_e = dev_metrics(model, dev_X, dev_cats, dev_y, all_cols)
    current = model
    while True:
        droppable = [t for t in terms if t[0] in ("main", "inter")]
        if len(droppable) <= 1:
            break
        best = None
        for t in droppable:
            trial = logistic_fit((X, cats, y), specs, penalty=penalty, tol=tol,
                                 terms=[u for u in terms if u != t])
            a, e = dev_metrics(trial, dev_X, dev_cats, dev_y, all_cols)
            key = (min(a - cur_a, e - cur_e), a, e)
            if best is None or key > best[0]:
                best = (key, t, trial, a, e)
        _, term, trial, a, e = best
        if cur_a - a > min_improve or cur_e - e > min_improve:
            break
        terms = [u for u in terms if u != term]
        current, cur_a, cur_e = trial, a, e
    return current


def masked_sigmoid(z):
    """The logistic function on each sign's entries separately."""
    import numpy as np
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out
