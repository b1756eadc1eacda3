"""Slow, independent reference solvers used to certify the path solvers.

Nothing here shares code with the path machinery: the sign-enumeration
oracle solves every fixed-sign KKT system directly from the optimality
conditions, the descent oracle minimizes the small-epsilon augmented
objective iteratively, the nonnegative-QP oracle enumerates supports of
the quadratic program, and the two vertex enumerations solve the path
start's small linear programs (the l1-minimal face and the zero-rhs
minimax) by listing candidate vertices. They are deliberately brute force
and live with the tests, outside the installed package.

The reference continuation (`reference_continuation`, with its step
`reference_next_event` and `reference_validated_real`) is the engine's
continuation in its first, plainer form: Python lists and sets for the
working set, one ratio array per candidate kind, and a freshly bordered
matrix per solve. It takes its start from the engine, and the engine's
leaner step must agree with it bit for bit.

The reference face sweep (`reference_face_lsq`) is the start's
least-squares active-set sweep in its first form: sign-flipped copies of
the face columns, a bordered system assembled from scratch per solve and
solved by min-norm least squares, and Python loops for release and block.
"""
from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from sparsefolio.errors import InputError, SingularActiveSystem, SolverError
from sparsefolio import path_constrained
from sparsefolio.path_constrained import AffineConstraints
from sparsefolio.path_unconstrained import ZERO_TIE_REL, Event, PenalizedProblem

__all__ = [
    "NoFeasiblePattern",
    "NotConverged",
    "oracle_sign_enumeration",
    "oracle_sign_enumeration_many",
    "oracle_projected_descent",
    "oracle_nonnegative_qp",
    "enum_l1_face",
    "enum_minimax",
    "reference_continuation",
    "reference_face_lsq",
    "reference_next_event",
    "reference_validated_real",
]


class NoFeasiblePattern(SolverError):
    """Sign-pattern enumeration found no feasible candidate."""


class NotConverged(SolverError):
    """Iterative oracle stalled above tolerance."""


def _constraint_arrays(constraints: AffineConstraints | None, n: int):
    if constraints is None:
        return np.zeros((0, n)), np.zeros(0)
    return constraints.matrix, constraints.rhs


@lru_cache(maxsize=None)
def _sign_columns(k: int) -> np.ndarray:
    # all {-1, +1}^k sign assignments, one per column
    if k == 0:
        return np.zeros((0, 1))
    cols = np.array(list(itertools.product((-1.0, 1.0), repeat=k))).T
    return np.ascontiguousarray(cols)


def _minimax_certificate(c: np.ndarray, rows: np.ndarray, s: np.ndarray,
                         bound: float, tol: float) -> bool:
    """Is there t with max_i |c_i + (rows^T t)_i| / s_i <= bound (+tol)?

    rows has shape (d, N) with d <= 2 free multiplier directions. The
    piecewise-linear minimax over t is minimized by enumerating candidate
    points where one, two, or three of the 2N affine functions
    +-(c_i + rows_i^T t)/s_i are active and equal.
    """
    d = rows.shape[0]
    scaled = rows / s[np.newaxis, :]
    cs = c / s

    def value(t: np.ndarray) -> float:
        return float(np.max(np.abs(cs + scaled.T @ t)))

    cands = [np.zeros(d)]
    n = rows.shape[1]
    if d == 1:
        g = scaled[0]
        for i in range(n):
            if abs(g[i]) > 1e-14:
                cands.append(np.array([-cs[i] / g[i]]))
            for j in range(i + 1, n):
                for si, sj in ((1, 1), (1, -1)):
                    den = si * g[i] - sj * g[j]
                    if abs(den) > 1e-14:
                        cands.append(np.array([(sj * cs[j] - si * cs[i]) / den]))
    elif d == 2:
        # lines: sgn * (cs_i + g_i . t); active triples pin a 2-d point
        lines = [(sg, i) for i in range(n) for sg in (1.0, -1.0)]
        for (sa, ia), (sb, ib), (sc, ic) in itertools.combinations(lines, 3):
            Amat = np.array([
                sa * scaled[:, ia] - sb * scaled[:, ib],
                sa * scaled[:, ia] - sc * scaled[:, ic],
            ])
            rhs = np.array([sb * cs[ib] - sa * cs[ia], sc * cs[ic] - sa * cs[ia]])
            det = Amat[0, 0] * Amat[1, 1] - Amat[0, 1] * Amat[1, 0]
            if abs(det) > 1e-12 * (np.abs(Amat).max() ** 2 + 1e-300):
                cands.append(np.linalg.solve(Amat, rhs))
        for (sa, ia), (sb, ib) in itertools.combinations(lines, 2):
            # edge minima: equalize two lines, minimize along the edge by
            # zeroing the shared gradient component of one of them
            Amat = np.array([
                sa * scaled[:, ia] - sb * scaled[:, ib],
                sa * scaled[:, ia] + sb * scaled[:, ib],
            ])
            rhs = np.array([sb * cs[ib] - sa * cs[ia], -(sa * cs[ia] + sb * cs[ib])])
            det = Amat[0, 0] * Amat[1, 1] - Amat[0, 1] * Amat[1, 0]
            if abs(det) > 1e-12 * (np.abs(Amat).max() ** 2 + 1e-300):
                cands.append(np.linalg.solve(Amat, rhs))
    elif d > 2:
        raise InputError("certificate search supports at most two free multipliers")
    best = min(value(t) for t in cands)
    return best <= bound + tol


def oracle_sign_enumeration_many(
    problem: PenalizedProblem,
    constraints: AffineConstraints | None,
    taus,
    return_ties: bool = False,
):
    """Exact minimizers at several tau values by brute-force sign patterns.

    For each support S and sign pattern sigma on it, solves the fixed-sign
    stationarity system

        [2 R_S^T R_S   A_S^T] [w_S]   [2 R_S^T y - tau (s*sigma)_S]
        [   A_S          0  ] [nu ] = [            a              ]

    keeps candidates that are sign-consistent and satisfy the off-support
    bound |R_i^T(y - Rw) + A_i^T lambda| <= tau s_i / 2 (lambda = -nu/2),
    and returns the feasible candidate with the smallest objective (the full
    near-tie list per tau when return_ties is set).

    The per-support KKT matrix does not depend on tau or sigma, so it is
    factorized once and reused across all sign patterns and all taus.
    """
    R = problem.design
    y = problem.target
    s = problem.penalty_weights
    T, N = R.shape
    if N > 10:
        raise InputError("sign enumeration is limited to N <= 10 (cost 3^N)")
    A, a = _constraint_arrays(constraints, N)
    m = A.shape[0]
    taus = [float(t) for t in np.atleast_1d(taus)]

    scale = max(1.0, float(np.max(np.abs(R.T @ y))) if N else 0.0)
    gate = 1e-9 * scale
    yy = float(y @ y)

    # best[t] = (objective, [weight vectors within tie tolerance])
    best: list[tuple[float, list[np.ndarray]]] = [(np.inf, []) for _ in taus]

    idx_all = np.arange(N)
    for S in itertools.chain.from_iterable(
        itertools.combinations(range(N), k) for k in range(N + 1)
    ):
        S = list(S)
        k = len(S)
        off = np.setdiff1d(idx_all, S)
        RS = R[:, S]
        AS = A[:, S]
        if k + m == 0:
            # unconstrained empty support: w = 0, valid iff the bound holds
            for ti, tau in enumerate(taus):
                if np.all(np.abs(R.T @ y) <= tau * s / 2.0 + gate):
                    _offer(best, ti, yy, np.zeros(N), gate)
            continue
        K = np.zeros((k + m, k + m))
        K[:k, :k] = 2.0 * RS.T @ RS
        K[:k, k:] = AS.T
        K[k:, :k] = AS
        rhs0 = np.concatenate([2.0 * RS.T @ y, a])
        sv = np.linalg.svd(K, compute_uv=False) if K.size else np.zeros(0)
        if k + m > 0 and (sv[0] == 0.0 or sv[-1] <= 1e-11 * sv[0]):
            # singular fixed-sign system: treat the (rare) consistent cases
            # with fewer active components than multipliers separately
            _enumerate_singular_support(
                problem, A, a, S, taus, best, gate)
            continue
        Kinv_rhs0 = np.linalg.solve(K, rhs0)
        B = np.zeros((k + m, k))
        B[:k, :] = -np.diag(s[S]) if k else np.zeros((0, 0))
        Kinv_B = np.linalg.solve(K, B) if k else np.zeros((k + m, 0))

        sigs = _sign_columns(k)  # (k, 2^k)
        base_w = Kinv_rhs0[:k]
        base_nu = Kinv_rhs0[k:]
        dir_w = Kinv_B[:k] @ sigs if k else np.zeros((0, sigs.shape[1]))
        dir_nu = Kinv_B[k:] @ sigs if k else np.zeros((m, sigs.shape[1]))
        for ti, tau in enumerate(taus):
            W = base_w[:, None] + tau * dir_w          # (k, ncand)
            NU = base_nu[:, None] + tau * dir_nu        # (m, ncand)
            ok = np.all(W * sigs >= -gate, axis=0) if k else np.ones(W.shape[1], bool)
            if not np.any(ok):
                continue
            Wok = W[:, ok]
            NUok = NU[:, ok]
            resid = y[:, None] - RS @ Wok               # (T, nok)
            lam = -NUok / 2.0
            if off.size:
                btil = R[:, off].T @ resid + A[:, off].T @ lam
                bound = tau * s[off, None] / 2.0 + gate
                ok2 = np.all(np.abs(btil) <= bound, axis=0)
            else:
                ok2 = np.ones(Wok.shape[1], bool)
            if not np.any(ok2):
                continue
            Wf = Wok[:, ok2]
            rf = resid[:, ok2]
            objs = np.sum(rf * rf, axis=0) + tau * (s[S] @ np.abs(Wf) if k else 0.0)
            for col in range(Wf.shape[1]):
                w_full = np.zeros(N)
                w_full[S] = Wf[:, col]
                _offer(best, ti, float(objs[col]), w_full, gate)

    outs = []
    for ti, tau in enumerate(taus):
        obj, ties = best[ti]
        if not ties:
            raise NoFeasiblePattern(
                f"no sign pattern produced a feasible candidate at tau = {tau}"
            )
        outs.append(list(ties) if return_ties else ties[0])
    return outs


def _offer(best, ti, obj, w, gate):
    cur_obj, ties = best[ti]
    tie_tol = 1e-9 * max(1.0, abs(min(cur_obj, obj)))
    if obj < cur_obj - tie_tol:
        best[ti] = (obj, [w])
    elif obj <= cur_obj + tie_tol:
        if all(np.max(np.abs(w - t)) > 1e-10 for t in ties):
            ties.append(w)
        if obj < cur_obj:
            best[ti] = (obj, ties)


def _enumerate_singular_support(problem, A, a, S, taus, best, gate):
    """Candidates on supports whose fixed-sign KKT matrix is singular.

    This covers supports with fewer components than constraint rows (the
    empty support of an adjustment problem in particular): the weights are
    pinned by A_S w_S = a alone when that system is consistent, and the
    multiplier only needs to exist, which is a small minimax feasibility
    check over the leftover multiplier directions.
    """
    R = problem.design
    y = problem.target
    s = problem.penalty_weights
    N = R.shape[1]
    m = A.shape[0]
    k = len(S)
    if m == 0 or k > m:
        return  # plain rank deficiency, no special structure to recover
    AS = A[:, S]
    if k:
        wS, res, rank, _ = np.linalg.lstsq(AS, a, rcond=None)
        if rank < k or np.max(np.abs(AS @ wS - a)) > 1e-9:
            return
    else:
        if np.max(np.abs(a), initial=0.0) > 1e-12:
            return
        wS = np.zeros(0)
    w = np.zeros(N)
    if k:
        w[S] = wS
    resid = y - R @ w
    c_full = R.T @ resid
    obj_quad = float(resid @ resid)
    # multiplier must satisfy |c + A^T lam|_i <= tau s_i / 2 off S with
    # equality (tau s_i/2) sigma_i on S; eliminate the on-support equalities,
    # then search the remaining free directions.
    for ti, tau in enumerate(taus):
        obj = obj_quad + tau * float(s[S] @ np.abs(wS)) if k else obj_quad
        found = False
        for sigma in itertools.product((-1.0, 1.0), repeat=k):
            sig = np.array(sigma)
            if k and np.any(wS * sig < -gate):
                continue
            # A_S^T lam = (tau/2) s_S sig - c_S : solve, then roam its null space
            if k:
                target_S = (tau / 2.0) * s[S] * sig - c_full[S]
                lam0, _, rank_s, _ = np.linalg.lstsq(AS.T, target_S, rcond=None)
                if np.max(np.abs(AS.T @ lam0 - target_S)) > 1e-8 * max(1.0, tau):
                    continue
                # null-space of A_S^T inside R^m
                _, sv, Vt = np.linalg.svd(AS.T, full_matrices=True)
                nullity = m - int(np.sum(sv > 1e-12 * (sv[0] if sv.size else 1.0)))
                Bdir = Vt[m - nullity:, :] if nullity else np.zeros((0, m))
            else:
                lam0 = np.zeros(m)
                Bdir = np.eye(m)
            off = [i for i in range(N) if i not in S]
            c_off = c_full[off] + A[:, off].T @ lam0
            rows = Bdir @ A[:, off] if Bdir.size else np.zeros((0, len(off)))
            if rows.shape[0] == 0:
                ok = np.all(np.abs(c_off) <= tau * s[off] / 2.0 + gate)
            else:
                ok = _minimax_bound_ok(c_off, rows, tau * s[off] / 2.0, gate)
            if ok:
                found = True
                break
        if found:
            _offer(best, ti, obj, w.copy(), gate)


def _minimax_bound_ok(c: np.ndarray, rows: np.ndarray,
                      bounds: np.ndarray, gate: float) -> bool:
    """Does some t satisfy |c_i + (rows^T t)_i| <= bounds_i + gate for all i?"""
    if rows.shape[1] == 0:
        return True
    if np.min(bounds) <= 0.0:
        # zero bound (tau = 0): the residual must be killed exactly
        t, _, _, _ = np.linalg.lstsq(rows.T, -c, rcond=None)
        return bool(np.max(np.abs(c + rows.T @ t)) <= gate)
    return _minimax_certificate(
        c, rows, bounds, 1.0, gate / max(1.0, float(np.max(bounds)))
    )


def oracle_sign_enumeration(
    problem: PenalizedProblem,
    constraints: AffineConstraints | None,
    tau: float,
    return_ties: bool = False,
):
    """Exact minimizer at one tau; see oracle_sign_enumeration_many."""
    return oracle_sign_enumeration_many(problem, constraints, [tau], return_ties)[0]


def oracle_projected_descent(
    problem: PenalizedProblem,
    constraints: AffineConstraints | None,
    tau: float,
    iterations: int = 200_000,
    step: float | None = None,
    eps: float = 1e-6,
) -> np.ndarray:
    """Approximate minimizer via proximal descent on the eps-augmented objective.

    Minimizes ||Aw - a||^2 + eps (||Rw - y||^2 + tau sum s|w|) by iterative
    soft thresholding (for m = 0 the plain objective is used). Converges to
    the constrained minimizer up to O(eps); intended for cross-checks at the
    1e-4 tolerance level only.
    """
    R = problem.design
    y = problem.target
    s = problem.penalty_weights
    N = R.shape[1]
    A, a = _constraint_arrays(constraints, N)
    if A.shape[0] == 0:
        Q = 2.0 * (R.T @ R)
        lin = 2.0 * (R.T @ y)
        thresh_scale = tau * s
    else:
        Q = 2.0 * (A.T @ A) + eps * 2.0 * (R.T @ R)
        lin = 2.0 * (A.T @ a) + eps * 2.0 * (R.T @ y)
        thresh_scale = eps * tau * s
    if iterations < 1:
        raise InputError("iterations must be >= 1")
    L = float(np.linalg.eigvalsh(Q)[-1])
    if step is None:
        step = 1.0 / L if L > 0 else 1.0
    w = np.zeros(N)
    obj_prev = np.inf
    obj = _descent_objective(w, Q, lin, thresh_scale, a, y, A, R, eps)
    for _ in range(iterations):
        grad = Q @ w - lin
        z = w - step * grad
        lvl = step * thresh_scale
        w_new = np.sign(z) * np.maximum(np.abs(z) - lvl, 0.0)
        if np.max(np.abs(w_new - w)) <= 1e-15 * max(1.0, np.max(np.abs(w_new))):
            w = w_new
            obj_prev, obj = obj, _descent_objective(w, Q, lin, thresh_scale, a, y, A, R, eps)
            break
        w = w_new
        obj_prev, obj = obj, _descent_objective(w, Q, lin, thresh_scale, a, y, A, R, eps)
    decrease = obj_prev - obj
    if decrease > 1e-10 * max(1.0, abs(obj)):
        raise NotConverged(
            f"objective still decreasing by {decrease:.3e} after {iterations} iterations"
        )
    return w


def _descent_objective(w, Q, lin, thresh_scale, a, y, A, R, eps):
    quad = 0.5 * float(w @ (Q @ w)) - float(lin @ w)
    return quad + float(thresh_scale @ np.abs(w))


def oracle_nonnegative_qp(
    problem: PenalizedProblem,
    constraints: AffineConstraints,
) -> np.ndarray:
    """Exact minimizer of ||Rw - y||^2 subject to Aw = a and w >= 0.

    Support enumeration: on each support solve the equality-constrained
    normal equations and keep nonnegative solutions; convexity makes the
    best of them the global optimum. Exponential in N, test use only.
    """
    R = problem.design
    y = problem.target
    N = R.shape[1]
    if N > 16:
        raise InputError("support enumeration is limited to N <= 16")
    A, a = constraints.matrix, constraints.rhs
    m = A.shape[0]
    best_obj = np.inf
    best_w: np.ndarray | None = None
    for k in range(N + 1):
        for S in itertools.combinations(range(N), k):
            S = list(S)
            RS = R[:, S]
            AS = A[:, S]
            K = np.zeros((k + m, k + m))
            K[:k, :k] = 2.0 * RS.T @ RS
            K[:k, k:] = AS.T
            K[k:, :k] = AS
            rhs = np.concatenate([2.0 * RS.T @ y, a])
            sol, _, _, _ = np.linalg.lstsq(K, rhs, rcond=None)
            if np.max(np.abs(K @ sol - rhs), initial=0.0) > 1e-9 * max(1.0, np.max(np.abs(rhs), initial=0.0)):
                continue  # inconsistent fixed-support system
            wS = sol[:k]
            if k and np.min(wS) < -1e-9:
                continue
            w = np.zeros(N)
            if k:
                w[S] = np.maximum(wS, 0.0)
            if np.max(np.abs(A @ w - a), initial=0.0) > 1e-8:
                continue
            r = y - R @ w
            obj = float(r @ r)
            if obj < best_obj - 1e-12 * max(1.0, abs(obj)):
                best_obj = obj
                best_w = w
    if best_w is None:
        raise NoFeasiblePattern("no nonnegative support satisfies the constraints")
    return best_w


def enum_l1_face(Ah, a, rel=1e-9):
    """Optimal face of ``min ||w||_1  s.t.  Ah w = a`` by dual vertex enumeration.

    For one or two rows, lists every vertex of ``|Ah^T theta|_inf <= 1``
    (two tight columns with chosen signs), keeps those within rel of the
    best ``a . theta``, and returns the sorted indices tight with the same
    sign at all of them, together with those signs. Cost O(N^2).
    """
    m, n = Ah.shape
    if m == 1:
        theta = np.array([np.copysign(1.0 / np.max(np.abs(Ah[0])), a[0])])
        vertices = [theta]
    elif m == 2:
        cols = Ah.T
        vertices = []
        colscale = float(np.max(np.abs(cols)))
        det_tol = 1e-12 * colscale * colscale
        for i in range(n):
            for j in range(i + 1, n):
                M = np.array([cols[i], cols[j]])
                if abs(np.linalg.det(M)) <= det_tol:
                    continue
                for si in (1.0, -1.0):
                    for sj in (1.0, -1.0):
                        theta = np.linalg.solve(M, np.array([si, sj]))
                        if np.max(np.abs(Ah.T @ theta)) <= 1.0 + rel:
                            vertices.append(theta)
    else:
        raise InputError("vertex enumeration covers one or two rows")
    objs = [float(a @ th) for th in vertices]
    best = max(objs)
    tie = [th for th, ob in zip(vertices, objs)
           if ob >= best - rel * max(1.0, abs(best))]
    # tight with one sign at every optimal vertex, hence on their hull; an
    # index tight with opposite signs at two vertices is slack between them
    G = Ah.T @ np.array(tie).T
    face = np.flatnonzero(np.all(G >= 1.0 - rel, axis=1)
                          | np.all(G <= -1.0 + rel, axis=1))
    return face, np.sign(G[face, 0])


def enum_minimax(c, A):
    """``min_lam max_i |c_i + (A^T lam)_i|`` by candidate enumeration.

    With r <= 2 independent rows, the optimum is a point where enough of the
    2N signed affine functions are equal: all equal triples (r = 2) or pairs
    (r = 1), every double zero, the least-squares point and the origin are
    evaluated and the best kept. Returns (lam, value). Cost O(N^3).
    """
    m, n = A.shape
    if m == 0 or n == 0:
        return np.zeros(m), float(np.max(np.abs(c), initial=0.0))
    U, sv, _ = np.linalg.svd(A)
    r = int(np.sum(sv > 1e-12 * sv[0])) if sv.size and sv[0] > 0 else 0
    if r == 0:
        return np.zeros(m), float(np.max(np.abs(c), initial=0.0))
    if r > 2:
        raise InputError("candidate enumeration covers at most two rows")
    Ur = U[:, :r]
    D = A.T @ Ur
    cands = [np.zeros(r)]
    t_ls, _, _, _ = np.linalg.lstsq(D, -c, rcond=None)
    cands.append(t_ls)
    if r == 1:
        d = D[:, 0]
        for i in range(n):
            if abs(d[i]) > 1e-14:
                cands.append(np.array([-c[i] / d[i]]))
            for j in range(i + 1, n):
                for sj in (1.0, -1.0):
                    den = d[i] - sj * d[j]
                    if abs(den) > 1e-14:
                        cands.append(np.array([(sj * c[j] - c[i]) / den]))
    else:
        rows = np.vstack([D, -D])
        offs = np.concatenate([c, -c])
        for p, q, w in itertools.combinations(range(rows.shape[0]), 3):
            M = np.array([rows[p] - rows[q], rows[p] - rows[w]])
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            if abs(det) > 1e-12 * max(np.abs(M).max() ** 2, 1e-300):
                cands.append(np.linalg.solve(
                    M, np.array([offs[q] - offs[p], offs[w] - offs[p]])))
        for p, q in itertools.combinations(range(n), 2):
            M = np.array([D[p], D[q]])
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            if abs(det) > 1e-12 * max(np.abs(M).max() ** 2, 1e-300):
                cands.append(np.linalg.solve(M, -np.array([c[p], c[q]])))
    pts = np.array(cands)
    vals = np.max(np.abs(c[None, :] + pts @ D.T), axis=1)
    j = int(np.argmin(vals))
    return Ur @ pts[j], float(vals[j])


# --- reference continuation step ---

def _reference_minnorm_solve(M, rhs):
    if M.shape[0] == 0 or M.shape[1] == 0:
        return np.zeros(M.shape[1]), float(np.max(np.abs(rhs), initial=0.0)), 1.0
    x, _, rank, sv = np.linalg.lstsq(M, rhs, rcond=None)
    resid = float(np.max(np.abs(M @ x - rhs), initial=0.0))
    kappa = float(sv[0] / sv[rank - 1]) if rank else 1.0
    return x, resid, kappa


def _reference_gate(rhs_scale, kappa):
    eps = np.finfo(float).eps
    return max(1.0, rhs_scale) * max(1e-9, 50.0 * eps * kappa)


def _reference_bordered_direction(GJJ, AJ, sigma):
    """(u_J, s, fallback) of [G_JJ, -A_J^T; A_J, 0] (u_J; s) = (sigma; 0)."""
    k = len(sigma)
    m = AJ.shape[0]
    K = np.zeros((k + m, k + m))
    K[:k, :k] = GJJ
    K[:k, k:] = -AJ.T
    K[k:, :k] = AJ
    rhs = np.concatenate([sigma, np.zeros(m)])
    try:
        x = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        pass
    else:
        resid = float(np.max(np.abs(K @ x - rhs), initial=0.0))
        if resid <= _reference_gate(float(np.max(np.abs(rhs), initial=0.0)), 1.0):
            return x[:k], x[k:], False
    x, resid, kappa = _reference_minnorm_solve(K, rhs)
    rhs_scale = max(float(np.max(np.abs(rhs), initial=0.0)),
                    float(np.max(np.abs(K), initial=0.0))
                    * float(np.max(np.abs(x), initial=0.0)))
    if resid > _reference_gate(rhs_scale, kappa):
        raise SingularActiveSystem("bordered optimality system is inconsistent")
    return x[:k], x[k:], True


def reference_validated_real(RtR, Ah, J, sign, entered, ztol, counts):
    """Direction on the working set J (a list) after tie validation.

    entered is the set of just-entered indices. Drops those whose velocity
    opposes their sign, the largest opposing velocity first, until the
    direction is consistent; a dropped index gets sign 0. Returns
    (u_J, s, J).
    """
    while True:
        sig = sign[J]
        uJ, svec, fallback = _reference_bordered_direction(
            RtR.take(J, axis=0).take(J, axis=1), Ah[:, J], sig)
        counts["solves"] += 1
        counts["fallbacks"] += fallback
        bad = np.isin(J, list(entered)) & (sig * uJ < -ztol)
        if not bad.any():
            return uJ, svec, J
        j = J[int(np.argmax(np.where(bad, np.abs(uJ), -np.inf)))]
        J = [x for x in J if x != j]
        entered.discard(j)
        sign[j] = 0.0


def reference_next_event(tau, tau_stop, b, v, w, J, uJ, sign, ztol):
    """Ratio test: None, or (step, entering, their signs, leaving)."""
    off = sign == 0.0
    half = tau / 2.0

    def enter_steps(num, den):
        ok = off & (den > ztol) & (num > ztol)
        return np.divide(num, den, out=np.full(len(num), np.inf), where=ok)

    up = enter_steps(half - b, 1.0 - v)
    dn = enter_steps(half + b, 1.0 + v)
    wJ = w[J]
    out = np.divide(-wJ, uJ, out=np.full(len(J), np.inf),
                    where=(wJ != 0.0) & (uJ != 0.0))
    out[out <= ztol] = np.inf
    best = float(min(up.min(initial=np.inf), dn.min(initial=np.inf),
                     out.min(initial=np.inf)))
    if best >= (tau - tau_stop) / 2.0 - ztol:
        return None
    enter = np.flatnonzero((up <= best + ztol) | (dn <= best + ztol))
    enter_sign = np.where(up[enter] <= best + ztol, 1.0, -1.0)
    left = np.asarray(J, dtype=int)[out <= best + ztol]
    return best, enter, enter_sign, left


def reference_continuation(problem, constraints):
    """Breakpoints of the path from the engine's start, continued by the
    reference step. The START is read at the knee tau_0, so tau_stop must
    lie below it.

    Returns a list of (tau, weights, generalized residual, active set,
    event, multipliers) tuples in the engine's units, or raises what the
    continuation raises.
    """
    Rh, y, Ah, a, s = path_constrained._prepare(problem, constraints)
    RtR = Rh.T @ Rh
    G = path_constrained._bordered_matrix(RtR, Ah)
    _, w, lam, tau0, tight, _ = path_constrained._initial_state(
        G, Rh, y, Ah, a, {"face_solves": 0, "face_fallbacks": 0})
    N = Rh.shape[1]
    tau_stop = problem.tau_stop
    counts = {"solves": 0, "fallbacks": 0}
    b = Rh.T @ (y - Rh @ w) + Ah.T @ lam
    ztol = ZERO_TIE_REL * max(1.0, float(np.max(np.abs(b), initial=0.0)), tau0)
    on = (np.abs(b) >= tau0 / 2.0 - ztol) | (w != 0.0)
    on[tight] = True
    J = np.flatnonzero(on).tolist()
    sign = np.zeros(N)
    sign[J] = np.where(w[J] != 0.0, np.sign(w[J]), np.where(b[J] >= 0, 1.0, -1.0))
    if tau0 > tau_stop + ztol:
        entered = {i for i in J if w[i] == 0.0}
        uJ, svec, J = reference_validated_real(RtR, Ah, J, sign, entered, ztol, counts)
    else:
        uJ, svec = np.zeros(len(J)), np.zeros(Ah.shape[0])
    bps = [(tau0, w / s, b, tuple(sorted(J)),
            Event("START", entered=tuple(sorted(J))), lam.copy())]
    budget = 60 * N + 120
    tau = tau0
    while tau > tau_stop + ztol:
        if len(bps) > budget:
            raise SolverError("constrained path exceeded its breakpoint budget")
        u = np.zeros(N)
        u[J] = uJ
        v = RtR @ u - Ah.T @ svec
        hit = reference_next_event(tau, tau_stop, b, v, w, J, uJ, sign, ztol)
        gamma = (tau - tau_stop) / 2.0 if hit is None else hit[0]
        w = w + gamma * u
        lam = lam + gamma * svec
        if hit is None:
            tau = tau_stop
            event = Event("STOP")
        else:
            _, enter, enter_sign, left = hit
            tau = tau - 2.0 * gamma
            w[left] = 0.0
            sign[left] = 0.0
            J = [j for j in J if sign[j] != 0.0] + enter.tolist()
            sign[enter] = enter_sign
        b = Rh.T @ (y - Rh @ w) + Ah.T @ lam
        if hit is not None:
            uJ, svec, J = reference_validated_real(
                RtR, Ah, J, sign, set(enter.tolist()), ztol, counts)
            entered = sorted(set(enter.tolist()) & set(J))
            event = Event("ENTER" if entered else "LEAVE", entered=tuple(entered),
                          left=tuple(sorted(left.tolist())))
        gap = float(np.max(np.abs(b[sign == 0.0]), initial=0.0)) - tau / 2.0
        if gap > 1000.0 * ztol:
            raise SolverError(
                f"path left the optimum at tau = {tau:.6g}: a non-member's "
                f"residual exceeds tau/2 by {gap:.3e}"
            )
        bps.append((tau, w / s, b, tuple(sorted(J)), event, lam.copy()))
    return bps


# --- reference face sweep ---

def reference_face_lsq(Rh, y, Ah, a, face, signs, x):
    """Least-squares optimum over the l1-minimal face, in its first form.

    Solves ``min ||Rh w - y||^2`` over ``{Ah w = a, supp(w) in face,
    sign(w_i) = signs_i}`` with a primal active-set sweep on the
    sign-flipped nonnegative variables, starting from the feasible point x.
    """
    B = Rh[:, face] * signs
    E = Ah[:, face] * signs
    f = len(face)
    x = x.copy()
    zero = x <= 0.0
    x[zero] = 0.0
    for _ in range(50 + 10 * f):
        P = np.flatnonzero(~zero)
        if P.size == 0:
            break
        BP = B[:, P]
        EP = E[:, P]
        K = np.zeros((P.size + EP.shape[0], P.size + EP.shape[0]))
        K[:P.size, :P.size] = 2.0 * BP.T @ BP
        K[:P.size, P.size:] = EP.T
        K[P.size:, :P.size] = EP
        rhs = np.concatenate([2.0 * BP.T @ y, a])
        sol, _, _ = _reference_minnorm_solve(K, rhs)
        xP = sol[:P.size]
        nu = sol[P.size:]
        tol = 1e-12 * max(1.0, float(np.max(np.abs(xP), initial=0.0)))
        if np.min(xP, initial=0.0) >= -tol:
            xn = np.zeros(f)
            xn[P] = np.maximum(xP, 0.0)
            x = xn
            grad = 2.0 * B.T @ (B @ x - y) + E.T @ nu
            gtol = 1e-9 * max(1.0, float(np.max(np.abs(grad), initial=0.0)))
            release = None
            for i in np.flatnonzero(zero):
                if grad[i] < -gtol and (release is None
                                        or grad[i] < grad[release]):
                    release = i
            if release is None:
                break
            zero[release] = False
        else:
            # walk toward the equality optimum until a bound blocks
            alpha = 1.0
            block = None
            for idx, i in enumerate(P):
                if xP[idx] < -tol and xP[idx] < x[i]:
                    r = x[i] / (x[i] - xP[idx])
                    if r < alpha:
                        alpha = r
                        block = i
            xn = x.copy()
            xn[P] = x[P] + alpha * (xP - x[P])
            x = np.maximum(xn, 0.0)
            if block is not None:
                x[block] = 0.0
                zero[block] = True
    else:
        raise SolverError("face least-squares active-set did not converge")
    w = np.zeros(Rh.shape[1])
    w[face] = signs * x
    return w
