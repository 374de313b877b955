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


def unbounded_substitutions(inventory, tables, threshold) -> dict:
    """simgen.build_name_model's substitution search without an edit-distance
    floor: every pair of `inventory` that the length-gap prune keeps goes
    through levenshtein_sims under PY, FC, WB and RDS; a character's
    candidates come in inventory order."""
    import numpy as np
    from hanlink.compare import levenshtein_sims
    from hanlink.encoding import EncodingKind
    first, second = np.triu_indices(len(inventory), 1)
    hit = np.zeros(len(first), dtype=bool)
    for kind in (EncodingKind.PY, EncodingKind.FC, EncodingKind.WB, EncodingKind.RDS):
        if kind not in tables:
            continue
        codes = [tables[kind].entries.get(c, c) for c in inventory]
        lens = np.array([len(code) for code in codes], dtype=np.int64)
        la, lb = lens[first], lens[second]
        pruned = np.abs(la - lb) > (1.0 - threshold) * np.maximum(la, lb)
        todo = np.nonzero(~hit & ~pruned)[0]
        sims = levenshtein_sims(codes, first[todo], second[todo])
        hit[todo[sims >= threshold]] = True
    subs = {c: [] for c in inventory}
    for i, j in zip(first[hit].tolist(), second[hit].tolist()):
        subs[inventory[i]].append(j)
        subs[inventory[j]].append(i)
    return {c: tuple(inventory[j] for j in sorted(v)) for c, v in subs.items()}


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


def unique_name_ids(ia, ib):
    """The featurizer's name-id compaction by an int64 np.unique: the
    distinct ids of ia and ib, ascending, and ia and ib as ranks into them."""
    import numpy as np
    used, inverse = np.unique(np.concatenate([ia, ib]).astype(np.int64), return_inverse=True)
    return used, inverse[:len(ia)], inverse[len(ia):]


def unique_id_pairs(n_ids, a, b, mask):
    """The distinct unordered pairs of unequal ids (< n_ids) among the pairs
    (a[k], b[k]) that `mask` keeps, by an int64 np.unique of their codes
    low * n_ids + high: (low ids, high ids, the pairs kept, each kept
    pair's index)."""
    import numpy as np
    a, b = np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
    todo = np.asarray(mask, dtype=bool) & (a != b)
    keys, inverse = np.unique(np.minimum(a, b)[todo] * n_ids + np.maximum(a, b)[todo],
                              return_inverse=True)
    return keys // n_ids, keys % n_ids, todo, inverse


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
        a = np.array(records_a[name], dtype=object)[ii]  # str dtype drops trailing NULs
        b = np.array(records_b[name], dtype=object)[jj]
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


def csv_table_reference(path, parsers: dict, default=None):
    """A CSV file as one list of rows from a plain `csv.reader`, each with the
    line it ends on: (header, {column: cells}), a column with a parser
    (`parsers`, else `default`) as its parsed cells; or, for a faulty file,
    the message of its first fault: an empty file, a header naming a column
    twice, then in file order the first row without one cell per header
    column, or the leftmost cell of a row that its parser rejects or, in a
    parsed column, that holds "_" or a non-ASCII character."""
    import csv
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        rows = [(row, reader.line_num) for row in reader]
    if not rows:
        return f"{path}: empty file"
    header = [h.strip() for h in rows[0][0]]
    if len(set(header)) < len(header):
        return f"{path}: header names a column twice"
    parse = [parsers.get(name, default) for name in header]
    columns = {name: [] for name in header}
    for row, line in rows[1:]:
        if len(row) != len(header):
            return f"{path}, line {line}: {len(row)} cells, expected {len(header)}"
        for name, p, cell in zip(header, parse, row):
            try:
                if p is not None and ("_" in cell or not cell.isascii()):
                    raise ValueError(cell)
                columns[name].append(cell if p is None else p(cell))
            except ValueError:
                return f"{path}, line {line}, column '{name}': bad cell {cell!r}"
    return header, columns


def joint_field_codes(cells_a, cells_b):
    """A field's codes over both files as one dict over "" and then every
    cell of A and of B interns them: the distinct values but "", first seen
    first, and each cell's id less one (missing -> -1), int64."""
    import numpy as np
    index = {"": 0}
    ids = [index.setdefault(cell, len(index)) for cell in [*cells_a, *cells_b]]
    return list(index)[1:], np.array(ids, dtype=np.int64) - 1


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
    ConvergenceError raised, by the matcher's own `_fitted_model`, which
    records matcher.PENALTY and matcher.TOL and names matcher.MAX_ITER: pass
    those as penalty, tol and max_iter."""
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
    return _fitted_model((beta, iterations, converged, trace, None), terms, specs)


def sorted_roc_points(scores, pos, neg):
    """ROC polyline (FPR, TPR) from a fresh stable descending sort of the
    rows, tied scores merged into one segment."""
    import numpy as np
    scores, pos, neg = (np.asarray(x, dtype=float) for x in (scores, pos, neg))
    P, N = float(pos.sum()), float(neg.sum())
    if P <= 0 or N <= 0:
        raise ValueError("both classes must carry positive mass")
    order = np.argsort(-scores, kind="stable")
    boundaries = np.nonzero(np.diff(scores[order]))[0] + 1
    idx = np.concatenate([[0], boundaries, [len(scores)]])
    tpr = np.concatenate([[0.0], np.cumsum(pos[order])])[idx] / P
    fpr = np.concatenate([[0.0], np.cumsum(neg[order])])[idx] / N
    return fpr, tpr


def sorted_auroc(scores, pos, neg):
    """Trapezoidal AUROC over `sorted_roc_points`, clipped to [0, 1]."""
    import numpy as np
    fpr, tpr = sorted_roc_points(scores, pos, neg)
    return float(np.clip(np.trapezoid(tpr, fpr), 0.0, 1.0))


def sorted_eauroc(scores, pos, neg, q):
    """Area over FPR in [0, q] of `sorted_roc_points`, the segment crossing
    q interpolated, normalized by q and clipped to [0, 1]. A q outside
    (0, 1], such as an odds P/N that underflows to 0, is a ValueError."""
    import numpy as np
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    fpr, tpr = sorted_roc_points(scores, pos, neg)
    if q >= fpr[-1]:
        return float(np.clip(np.trapezoid(tpr, fpr) / q, 0.0, 1.0))
    cut = int(np.searchsorted(fpr, q, side="right"))
    f0, f1 = fpr[cut - 1], fpr[cut]
    t0, t1 = tpr[cut - 1], tpr[cut]
    t_q = t0 if f1 == f0 else t0 + (t1 - t0) * (q - f0) / (f1 - f0)
    area = np.trapezoid(np.concatenate([tpr[:cut], [t_q]]), np.concatenate([fpr[:cut], [q]]))
    return float(np.clip(area / q, 0.0, 1.0))


def sorted_confusion(scores, pos, neg, proportion):
    """(FN, FP) at the accepted prefix of tie groups closest to
    `proportion` (ties -> smaller prefix), each group's masses summed by
    `np.add.reduceat` after a fresh sort."""
    import numpy as np
    scores, pos, neg = (np.asarray(x, dtype=float) for x in (scores, pos, neg))
    order = np.argsort(-scores, kind="stable")
    starts = np.concatenate([[0], np.nonzero(np.diff(scores[order]))[0] + 1])
    pos_g = np.add.reduceat(pos[order], starts)
    neg_g = np.add.reduceat(neg[order], starts)
    accepted = np.concatenate([[0.0], np.cumsum(pos_g + neg_g)]) / (pos.sum() + neg.sum())
    best = int(np.argmin(np.abs(accepted - proportion)))
    fp = float(np.cumsum(np.concatenate([[0.0], neg_g]))[best])
    fn = float(pos.sum() - np.cumsum(np.concatenate([[0.0], pos_g]))[best])
    return fn, fp


def dev_scores(model, dev_X, dev_cats, cols):
    """A logistic model's scores of the dev rows over the columns `cols`,
    category by category: sigmoid(b0 + X[:, cols][mask] @ coef) with the
    gathered rows C-ordered."""
    import numpy as np
    from hanlink.compare import HAN_CATEGORIES
    X = np.asarray(dev_X, dtype=float)[:, cols]
    cats = np.asarray(dev_cats)
    scores = np.empty(len(X))
    for code in range(len(HAN_CATEGORIES)):
        mask = cats == code
        rows = np.ascontiguousarray(X[mask])
        scores[mask] = masked_sigmoid(model.intercepts[code] + rows @ model.coefs[code])
    return scores


def dev_metrics(model, dev_X, dev_cats, dev_y, cols):
    """(AUROC, EAUROC) of the model's dev scores, one ROC sort each, q the
    dev odds capped at 1."""
    import numpy as np
    y = np.asarray(dev_y, dtype=float)
    scores, pos, neg = dev_scores(model, dev_X, dev_cats, cols), y, 1.0 - y
    q = min(float(pos.sum()) / float(neg.sum()), 1.0)
    return sorted_auroc(scores, pos, neg), sorted_eauroc(scores, pos, neg, q)


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


# ---------------------------------------------------------------------------
# Fellegi-Sunter EM with per-field masked likelihood updates, separate
# responsibility and log-likelihood passes, and a loop per agreement share.
# hanlink.linkage shares one log-mixture and one agreement share; it must
# agree bitwise.


def em_log_likelihoods(model, gammas):
    """Per-pattern (log p(gamma|M), log p(gamma|U)); NA fields add nothing."""
    import numpy as np
    from hanlink.metrics import PROB_CLAMP
    p_m = np.clip(model.p_m, PROB_CLAMP, 1 - PROB_CLAMP)
    p_u = np.clip(model.p_u, PROB_CLAMP, 1 - PROB_CLAMP)
    log_m = np.zeros(gammas.shape[0])
    log_u = np.zeros(gammas.shape[0])
    for f in range(gammas.shape[1]):
        g = gammas[:, f]
        agree = g == 1
        disagree = g == 0
        log_m[agree] += np.log(p_m[f])
        log_m[disagree] += np.log1p(-p_m[f])
        log_u[agree] += np.log(p_u[f])
        log_u[disagree] += np.log1p(-p_u[f])
    return log_m, log_u


def em_responsibilities(pi_m, log_m, log_u):
    import numpy as np
    log_pm = np.log(pi_m) + log_m
    log_pu = np.log1p(-pi_m) + log_u
    top = np.maximum(log_pm, log_pu)
    denom = top + np.log(np.exp(log_pm - top) + np.exp(log_pu - top))
    return np.exp(log_pm - denom)


def em_observed_loglik(pi_m, log_m, log_u, counts):
    import numpy as np
    log_pm = np.log(pi_m) + log_m
    log_pu = np.log1p(-pi_m) + log_u
    top = np.maximum(log_pm, log_pu)
    mix = top + np.log(np.exp(log_pm - top) + np.exp(log_pu - top))
    return float((counts * mix).sum())


def em_fit_reference(table, init=None, tol=1e-10, max_iter=500):
    """LinkageModel fitted as em_fit documents, same stopping and errors."""
    import numpy as np
    from hanlink.linkage import NA, LinkageModel
    from hanlink.metrics import PROB_CLAMP
    if len(table.counts) < 2:
        raise ValueError("pattern table must contain at least 2 distinct patterns")
    gammas = table.gammas
    counts = table.counts.astype(float)
    total = counts.sum()
    n_fields = gammas.shape[1]
    if init is None:
        p_u0 = np.empty(n_fields)
        for f in range(n_fields):
            g = gammas[:, f]
            known = g != NA
            denom = counts[known].sum()
            p_u0[f] = counts[known & (g == 1)].sum() / denom if denom > 0 else 0.5
        model = LinkageModel(fields=table.fields, pi_m=1e-4,
                             p_m=np.full(n_fields, 0.9),
                             p_u=np.clip(p_u0, 1e-6, 1 - 1e-6))
    else:
        model = LinkageModel(fields=table.fields, pi_m=init.pi_m,
                             p_m=np.array(init.p_m, dtype=float),
                             p_u=np.array(init.p_u, dtype=float))
    log_m, log_u = em_log_likelihoods(model, gammas)
    loglik = em_observed_loglik(model.pi_m, log_m, log_u, counts)
    if not np.isfinite(loglik):
        raise ValueError("non-finite likelihood at initialization")
    trace = [loglik]
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        resp = em_responsibilities(model.pi_m, log_m, log_u)
        w_m = resp * counts
        w_u = (1.0 - resp) * counts
        pi_m = float(np.clip(w_m.sum() / total, PROB_CLAMP, 1 - PROB_CLAMP))
        p_m = np.empty(n_fields)
        p_u = np.empty(n_fields)
        for f in range(n_fields):
            g = gammas[:, f]
            known = g != NA
            agree = known & (g == 1)
            m_den = w_m[known].sum()
            u_den = w_u[known].sum()
            p_m[f] = w_m[agree].sum() / m_den if m_den > 0 else 0.5
            p_u[f] = w_u[agree].sum() / u_den if u_den > 0 else 0.5
        model = LinkageModel(fields=table.fields, pi_m=pi_m,
                             p_m=np.clip(p_m, PROB_CLAMP, 1 - PROB_CLAMP),
                             p_u=np.clip(p_u, PROB_CLAMP, 1 - PROB_CLAMP))
        log_m, log_u = em_log_likelihoods(model, gammas)
        new_loglik = em_observed_loglik(model.pi_m, log_m, log_u, counts)
        if not np.isfinite(new_loglik):
            raise ValueError("non-finite likelihood during EM")
        if new_loglik < loglik - 1e-8 * (abs(loglik) + 1.0):
            raise RuntimeError(f"EM log-likelihood decreased from {loglik!r} "
                               f"to {new_loglik!r} at iteration {iterations}")
        delta = abs(new_loglik - loglik)
        loglik = new_loglik
        trace.append(loglik)
        if delta < tol * (abs(loglik) + 1.0):
            converged = True
            break
    model.loglik_trace = trace
    model.converged = converged
    model.iterations = iterations
    return model


def zeta_reference(model, gammas):
    return em_responsibilities(model.pi_m, *em_log_likelihoods(model, gammas))


# ---------------------------------------------------------------------------
# Threshold selectors evaluated at every grid point (tau1) and with a dict
# from pattern code to row (tau2). hanlink.fuse evaluates one point per run
# of equal tails and looks rows up in a dense code array; tau must agree
# bitwise.


def tau1_full_grid(table, zetas, dist):
    import numpy as np
    donors = np.nonzero(table.gammas[:, table.fields.index("name")] == 0)[0]
    z = np.asarray(zetas, dtype=float)[donors]
    w = table.counts[donors].astype(float)
    w = w / w.sum() if w.sum() > 0 else np.full(len(donors), 1.0 / len(donors))
    tm = dist.tail_m[None, :]
    tu = dist.tail_u[None, :]
    zc = z[:, None]
    num = zc * tm
    den = num + (1.0 - zc) * tu
    with np.errstate(invalid="ignore", divide="ignore"):
        prec_rows = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    precision = (w[:, None] * prec_rows).sum(axis=0)
    recall = dist.tail_m
    pr = precision + recall
    with np.errstate(invalid="ignore", divide="ignore"):
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
    return float(dist.grid[int(np.argmax(f1))])


def tau2_dict_lookup(table, zetas, dist, model):
    import numpy as np
    from hanlink.fuse import transfer_predictions
    from hanlink.linkage import zeta_for_gammas
    from hanlink.metrics import GroupedRanking, auroc
    name_ix = table.fields.index("name")
    donors = np.nonzero(table.gammas[:, name_ix] == 0)[0]
    zetas = np.asarray(zetas, dtype=float)
    codes = table.codes()
    code_to_row = {int(c): j for j, c in enumerate(codes)}
    recip_row = np.full(len(donors), -1, dtype=np.int64)
    created_gammas, created_ids = [], []
    for d_pos, j in enumerate(donors):
        row = code_to_row.get(int(codes[j]) + 3 ** name_ix)
        if row is not None:
            recip_row[d_pos] = row
        else:
            gamma = table.gammas[j].copy()
            gamma[name_ix] = 1
            created_ids.append(d_pos)
            created_gammas.append(gamma)
    z1 = zetas[donors]
    n1 = table.counts[donors].astype(float)
    z2 = np.empty(len(donors))
    n2 = np.zeros(len(donors))
    existing = recip_row >= 0
    z2[existing] = zetas[recip_row[existing]]
    n2[existing] = table.counts[recip_row[existing]]
    if created_gammas:
        z2[np.array(created_ids)] = zeta_for_gammas(model, np.stack(created_gammas))
    touched = set(donors.tolist()) | set(recip_row[existing].tolist())
    untouched = np.array([j for j in range(len(table.counts)) if j not in touched],
                         dtype=np.int64)
    u_scores = zetas[untouched]
    u_n = table.counts[untouched].astype(float)
    tail_m, tail_u = dist.tail_m, dist.tail_u
    step = np.concatenate([[True], (np.diff(tail_m) != 0) | (np.diff(tail_u) != 0)])
    step_pred = np.empty(int(step.sum()))
    for k, g in enumerate(np.nonzero(step)[0]):
        zh1, zh2, nh1, nh2 = transfer_predictions(z1, n1, z2, n2, tail_m[g], tail_u[g])
        scores = np.concatenate([u_scores, zh1, zh2])
        masses = np.concatenate([u_n, nh1, nh2])
        step_pred[k] = auroc(GroupedRanking(scores, scores * masses,
                                            (1.0 - scores) * masses))
    return float(dist.grid[int(np.argmax(step_pred[np.cumsum(step) - 1]))])


def external_scores_lookup(rows, pairs):
    """The scores of `pairs`, (name_a, name_b) tuples, each looked up by its
    tuple in a dict of the table rows (name_a, name_b, score); a repeated
    table pair and a pair the table lacks are InputErrors."""
    import numpy as np
    from hanlink.linkage import InputError
    table = {}
    for name_a, name_b, score in rows:
        if (name_a, name_b) in table:
            raise InputError(f"the pair {(name_a, name_b)!r} is listed twice")
        table[name_a, name_b] = score
    out = np.empty(len(pairs))
    for i, pair in enumerate(pairs):
        value = table.get(pair)
        if value is None:
            raise InputError(f"external score table is missing pair {pair!r}")
        out[i] = value
    return out


def posterior_ranking_by_row(table, zetas, dist, pos, pair_rows, pair_scores, pair_labels,
                             floor):
    """The posterior method's ranking built row by row, as (entries, match
    share, eligible rows). A gamma_name=0 row whose best posterior
    zeta*rmax / (zeta*rmax + 1 - zeta) reaches the floor is eligible: each
    pair listed for it gives the entry (posterior, label, 1 - label), its
    posterior zeta*r / (zeta*r + 1 - zeta) with r the ratio of the score's
    bin. Every other row gives the one entry (zeta, pos, count - pos). The
    match share is the entries' score mass over the table's pairs."""
    name_ix = table.fields.index("name")
    bins = len(dist.ratio)
    rmax = float(dist.ratio[-1])
    entries, eligible, mass = [], [], 0.0
    for j in range(len(table.counts)):
        z, count, matches = float(zetas[j]), int(table.counts[j]), int(pos[j])
        if table.gammas[j, name_ix] != 0 or z * rmax / (z * rmax + (1.0 - z)) < floor:
            entries.append((z, float(matches), float(count - matches)))
            mass += z * count
            continue
        eligible.append(j)
        for k in range(len(pair_rows)):
            if pair_rows[k] == j:
                r = float(dist.ratio[min(max(int(pair_scores[k] * bins), 0), bins - 1)])
                posterior = z * r / (z * r + (1.0 - z))
                label = float(pair_labels[k])
                entries.append((posterior, label, 1.0 - label))
                mass += posterior
    return entries, mass / float(table.counts.sum()), eligible


def study_name_pairs(sim, rng, n_name_pairs, n_score_pairs, trained):
    """The name pairs a study's training step sends to be featurized and
    scored, as (ids_a, ids_b) into `intern_strings` of the dev simulation
    `sim`'s names, drawn from the step's generator `rng` by two formulas:
    the matcher's nonmatches from the truth rows through the truth's B
    column, the score distribution's from every A row through a B-of-A
    lookup. With `trained`, the matcher's pairs come first, then the dev
    split's one permutation is drawn."""
    import numpy as np
    from hanlink.compare import intern_strings
    names, (ids_a, ids_b) = intern_strings(sim.records_a["name"], sim.records_b["name"])
    ta, tb = sim.truth[:, 0], sim.truth[:, 1]
    pairs = []
    if trained:
        pos = ids_a[ta] != ids_b[tb]
        neg_i = rng.integers(sim.truth.shape[0], size=n_name_pairs)
        neg_j = rng.integers(len(ids_b), size=n_name_pairs)
        ok = tb[neg_i] != neg_j
        pairs.append((np.concatenate([ids_a[ta[pos]], ids_a[ta[neg_i[ok]]]]),
                      np.concatenate([ids_b[tb[pos]], ids_b[neg_j[ok]]])))
        rng.permutation(int(pos.sum() + ok.sum()))
    u_i = rng.integers(len(ids_a), size=n_score_pairs)
    u_j = rng.integers(len(ids_b), size=n_score_pairs)
    b_of_a = np.full(len(ids_a), -1, dtype=np.int64)
    b_of_a[ta] = tb
    ok = b_of_a[u_i] != u_j
    pairs.append((ids_a[np.concatenate([ta, u_i[ok]])], ids_b[np.concatenate([tb, u_j[ok]])]))
    return names, pairs
