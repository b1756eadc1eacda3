"""Exact homotopy in tau for l1-penalized least squares under affine constraints.

Solves min ||Rw - y||^2 + tau * sum_i s_i |w_i| subject to Aw = a for every
tau at once. The path is computed in two stages:

  1. The start. For large tau the penalty dominates, so the minimizer is
     the least-squares point among the l1-minimal solutions of Aw = a, and
     the path is constant above a knee tau_0. A zero a starts at w = 0; any
     other a at the least-squares point of the l1-minimal face, which a
     least-squares active-set sweep finds from the optimal basis of the
     small l1 program min ||x||_1 s.t. A x = a. One knee certificate then
     serves every start: a multiplier line lam(tau) that keeps the point
     stationary above the knee, the smallest such knee being the dual of
     one more small l1 program over the off-support indices. At w = 0 that
     is the minimax tau_0 = 2 min_lam max_i |R^T y + A^T lam|_i (the LARS
     start 2 ||R^T y||_inf when there are no constraints); a point that is
     optimal down to tau = 0 gets the knee 0. Both programs are solved by
     one revised simplex.
  2. Ordinary continuation in real arithmetic on the Lagrangian optimality
     system from tau_0 down to tau_stop, moving weights and multipliers
     jointly and recording a breakpoint at every support change. Segments
     where only the multipliers move are recorded like any other. Each step
     solves the bordered direction system by LU (min-norm least squares
     when that fails) and runs a vectorized ratio test.

This is the package's one continuation engine: with no constraint rows it
traces the unconstrained path, which `solve_path` returns as it is. Every
breakpoint is a `PathBreakpoint` whose multipliers have length m.

Penalty weights are handled by column rescaling; reported weights are in
original coordinates while multipliers are invariant under the rescaling.
"""
from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    InfeasibleConstraints,
    InputError,
    SingularActiveSystem,
    SolverError,
)
from .path_unconstrained import (
    ZERO_TIE_REL,
    Event,
    PathBreakpoint,
    PenalizedProblem,
    SolutionPath,
    initial_tau,
)

__all__ = [
    "AffineConstraints",
    "find_constrained_start",
    "solve_constrained_path",
    "solve_path",
]

log = logging.getLogger(__name__)

_RESID_REL = 1e-9    # consistency gate for least-squares solves
_COND_LIMIT = 1e12   # constraint rows closer to dependence than this are rejected


@dataclass(frozen=True, eq=False)
class AffineConstraints:
    """The feasible set {w : matrix @ w = rhs}.

    Args:
        matrix: m x N array of constraint rows (m may be zero).
        rhs: length-m right-hand side.

    Raises:
        InfeasibleConstraints: no w satisfies matrix @ w = rhs (least-squares
            residual above 1e-10); checked before row independence so that
            contradictory duplicated rows report infeasibility.
        InputError: malformed input, or rows of the matrix (near-)dependent.
    """

    matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        a = np.atleast_1d(np.asarray(self.rhs, dtype=float))
        if A.size == 0:
            A = A.reshape(0, A.shape[1] if A.ndim == 2 and A.shape[1] else 0)
            a = a.reshape(0)
        if A.ndim != 2 or a.ndim != 1:
            raise InputError("constraint matrix must be 2-d and rhs 1-d")
        if A.shape[0] != a.shape[0]:
            raise InputError(
                f"constraint rows ({A.shape[0]}) and rhs length ({a.shape[0]}) differ"
            )
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(a))):
            raise InputError("constraints must be finite")
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "rhs", a)
        m, n = A.shape
        if m == 0:
            return
        w_ls, _, _, _ = np.linalg.lstsq(A, a, rcond=None)
        resid = float(np.max(np.abs(A @ w_ls - a), initial=0.0))
        if resid > 1e-10 * max(1.0, float(np.max(np.abs(a), initial=0.0))):
            raise InfeasibleConstraints(
                f"constraint system has no solution (residual {resid:.3e})"
            )
        if m > n:
            raise InputError("more constraint rows than variables cannot be independent")
        sv = np.linalg.svd(A, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] * _COND_LIMIT < sv[0]:
            raise InputError("constraint rows are linearly dependent or nearly so")

    @property
    def n_constraints(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_assets(self) -> int:
        return self.matrix.shape[1]

    def fingerprint_bytes(self) -> bytes:
        return (
            repr(self.matrix.shape).encode()
            + self.matrix.tobytes()
            + self.rhs.tobytes()
        )


def _minnorm_solve(M: np.ndarray, rhs: np.ndarray):
    """Min-norm least-squares solution, consistency residual, condition number.

    The residual of a mathematically consistent system scales with the
    condition number of the retained spectrum, so callers compare it against
    a kappa-aware gate rather than a fixed one.
    """
    if M.shape[0] == 0 or M.shape[1] == 0:
        return np.zeros(M.shape[1]), float(np.max(np.abs(rhs), initial=0.0)), 1.0
    x, _, rank, sv = np.linalg.lstsq(M, rhs, rcond=None)
    resid = float(np.max(np.abs(M @ x - rhs), initial=0.0))
    kappa = float(sv[0] / sv[rank - 1]) if rank else 1.0
    return x, resid, kappa


def _consistency_gate(rhs_scale: float, kappa: float) -> float:
    eps = np.finfo(float).eps
    return max(1.0, rhs_scale) * max(_RESID_REL, 50.0 * eps * kappa)


def _bordered_direction(GJJ: np.ndarray, AJ: np.ndarray, sigma: np.ndarray):
    """Weight and multiplier velocities of the Lagrangian continuation.

    Solves [G_JJ, -A_J^T; A_J, 0] (u_J; s) = (sigma; 0) by LU, kept when its
    residual passes the plain consistency gate. Otherwise (a singular or
    ill-conditioned system) the min-norm least-squares solution is taken: a
    consistent but rank-deficient system gets the min-norm multipliers (the
    weight block is then still unique on the data seen by the path), and an
    inconsistent one raises SingularActiveSystem. The third value returned
    tells whether that fallback ran.
    """
    k = len(sigma)
    m = AJ.shape[0]
    K = np.zeros((k + m, k + m))
    K[:k, :k] = GJJ
    K[:k, k:] = -AJ.T
    K[k:, :k] = AJ
    rhs = np.concatenate([sigma, np.zeros(m)])
    try:
        x = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:  # exactly singular
        pass
    else:
        resid = float(np.max(np.abs(K @ x - rhs), initial=0.0))
        if resid <= _consistency_gate(float(np.max(np.abs(rhs), initial=0.0)), 1.0):
            return x[:k], x[k:], False
    x, resid, kappa = _minnorm_solve(K, rhs)
    rhs_scale = max(float(np.max(np.abs(rhs), initial=0.0)),
                    float(np.max(np.abs(K), initial=0.0))
                    * float(np.max(np.abs(x), initial=0.0)))
    if resid > _consistency_gate(rhs_scale, kappa):
        raise SingularActiveSystem("bordered optimality system is inconsistent")
    return x[:k], x[k:], True


def _independent_columns(E: np.ndarray) -> np.ndarray:
    """m linearly independent columns of E, by pivoted Gram-Schmidt.

    Raises:
        SolverError: the rows of E are (numerically) dependent.
    """
    m = E.shape[0]
    resid = E.copy()
    scale = float(np.max(np.linalg.norm(E, axis=0), initial=0.0))
    basis = np.zeros(m, dtype=int)
    for k in range(m):
        norms = np.linalg.norm(resid, axis=0)
        norms[basis[:k]] = 0.0
        j = int(np.argmax(norms))
        if norms[j] <= 1e-12 * scale:
            raise SolverError("start program has dependent constraint rows")
        q = resid[:, j] / norms[j]
        resid -= np.outer(q, q @ resid)
        basis[k] = j
    return basis


def _l1_program(E: np.ndarray, e: np.ndarray, offset=None):
    """Optimal basis of ``min ||x||_1 - offset . x  s.t.  E x = e``.

    E must have full row rank; offset (default zero) tilts the cost of each
    column's two signs. Revised simplex over the 2N signed columns +-E_i.
    Any m independent columns are a feasible start once each is signed like
    its basic value, so there is no phase one. Pricing is one product
    E^T theta per pivot, O(N m); Dantzig's rule picks the entering column,
    and after a degenerate pivot Bland's smallest-index rule takes over
    until the objective moves again, which rules out cycling.

    Returns:
        Tuple ``(basis, signs, x, theta)``: basic column indices, their
        signs, their nonnegative values (``E[:, basis] @ (signs * x) = e``),
        and the optimal dual theta, which maximizes ``e . theta`` subject to
        ``|E^T theta + offset| <= 1``.

    Raises:
        SolverError: dependent rows, an unbounded program (no feasible
            theta), or the pivot budget ran out.
    """
    m, n = E.shape
    tilt = np.zeros(n) if offset is None else offset
    basis = _independent_columns(E)
    signs = np.where(np.linalg.solve(E[:, basis], e) < 0.0, -1.0, 1.0)
    bland = False
    for _ in range(50 + 10 * (m + n)):
        B = E[:, basis] * signs
        x = np.maximum(np.linalg.solve(B, e), 0.0)
        theta = np.linalg.solve(B.T, 1.0 - signs * tilt[basis])
        g = E.T @ theta + tilt
        entering = np.flatnonzero(np.abs(g) > 1.0 + 1e-11)
        if entering.size == 0:
            return basis, signs, x, theta
        j = int(entering[0] if bland else entering[np.argmax(np.abs(g[entering]))])
        sj = math.copysign(1.0, g[j])
        d = np.linalg.solve(B, sj * E[:, j])
        pos = d > 1e-11 * float(np.max(np.abs(d)))
        if not pos.any():
            raise SolverError("start program is unbounded")
        ratios = np.full(m, np.inf)
        ratios[pos] = x[pos] / d[pos]
        step = float(np.min(ratios))
        tie = 1e-12 * float(np.max(x))
        rows = np.flatnonzero(ratios <= step + tie)
        r = int(rows[np.argmin(basis[rows])])
        bland = step <= tie
        basis[r] = j
        signs[r] = sj
    raise SolverError("start program exceeded its pivot budget")


def _prepare(problem: PenalizedProblem, constraints: AffineConstraints):
    if constraints.n_assets != problem.n_assets:
        raise InputError(
            f"constraints cover {constraints.n_assets} assets, "
            f"problem has {problem.n_assets}"
        )
    s = problem.penalty_weights
    Rh = problem.design / s
    Ah = constraints.matrix / s
    return Rh, problem.target, Ah, constraints.rhs, s


def _l1_face(Ah, a):
    """Optimal face of ``min ||w||_1  s.t.  Ah w = a``.

    Solves the l1 program for an optimal basis and dual theta, and reads the
    face off complementary slackness. Every optimal theta keeps the columns
    of the basic support tight; when those columns leave one direction of
    theta free, the optimal thetas form a segment along it, and the face is
    read at the segment's midpoint so that it holds the indices tight at
    every optimal theta. With two or more free directions (three or more
    rows only) the face is read at the basic theta; it may then hold extra
    indices, which every point of the face keeps at zero.

    Returns:
        Tuple ``(face, signs, x)``: sorted array of face indices, the sign
        each face weight must carry, and the basic point of the face as
        nonnegative magnitudes (``Ah[:, face] @ (signs * x) = a``).
    """
    rel = 1e-9
    basis, bsigns, xb, theta = _l1_program(Ah, a)
    support = xb > rel * float(np.max(xb))
    free = _free_directions(Ah[:, basis[support]])
    if free.shape[1] == 1:
        g0 = Ah.T @ theta
        gz = Ah.T @ free[:, 0]
        up = _segment_end(g0, gz)
        down = _segment_end(g0, -gz)
        theta = theta + 0.5 * (up - down) * free[:, 0]
    g = Ah.T @ theta
    face = np.flatnonzero(np.abs(g) >= 1.0 - rel)
    if not np.all(np.isin(basis[support], face)):
        raise SolverError("start face misses the basic support")
    x = np.zeros(face.size)
    x[np.searchsorted(face, basis[support])] = xb[support]
    return face, np.sign(g[face]), x


def _free_directions(M):
    """Orthonormal basis of the directions orthogonal to every column of M."""
    U, sv, _ = np.linalg.svd(M)
    return U[:, int(np.sum(sv > 1e-12 * sv.max(initial=0.0))):]


def _segment_end(g0, gz):
    """Largest t >= 0 keeping |g0 + t gz| <= 1."""
    big = 1e-12 * max(1.0, float(np.max(np.abs(gz))))
    up = gz > big
    dn = gz < -big
    t = np.concatenate([(1.0 - g0[up]) / gz[up], (-1.0 - g0[dn]) / gz[dn]])
    return max(0.0, float(np.min(t, initial=np.inf)))


def _face_lsq(Rh, y, Ah, a, face, signs, x):
    """Least-squares optimum over the l1-minimal face.

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
        sol, _, _ = _minnorm_solve(K, rhs)
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
                w = np.zeros(Rh.shape[1])
                w[face] = signs * x
                return w
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


def _certify_knee(Rh, y, Ah, a, w):
    """Certify a candidate top-of-path point and locate its knee.

    Checks whether multipliers ``lam(tau) = lam_c + (tau/2) lam_d + t``,
    with t in the multiplier directions the support leaves free, exist
    making ``w`` stationary for every penalty above some knee. Every
    support, the empty one included, goes through one l1 program: the knee
    is the smallest rho = tau/2 for which some free component t keeps
    |alpha_i + rho d_i + h_i . t| <= rho off the support, and with mu = 1/rho
    and v = t/rho that is the program's dual max mu s.t.
    |alpha_i mu + h_i . v + d_i| <= 1. On the empty support (w = 0, the
    zero right-hand-side start) alpha = R^T y, d = 0 and every direction is
    free, so the knee is twice the minimax min_lam max_i |R^T y + A^T lam|_i.
    When the off-support residual lies in the span of the free directions,
    the point is optimal down to tau = 0: the knee is 0 and the multipliers
    are the least-squares ones.

    Returns:
        Tuple ``(tau0, lam, tight)``: the knee, the multipliers there, and
        the off-support indices the program's optimal basis holds at the
        boundary; or None when no certificate exists (the candidate is not
        the top of the path).
    """
    if float(np.linalg.norm(Ah @ w - a)) > 1e-10 * max(1.0, float(np.linalg.norm(a))):
        return None
    c = Rh.T @ (y - Rh @ w)
    S = np.flatnonzero(w)
    AST = Ah[:, S].T
    lam_c, res_c, k1 = _minnorm_solve(AST, -c[S])
    lam_d, res_d, k2 = _minnorm_solve(AST, np.sign(w[S]))
    gate = _consistency_gate(float(np.max(np.abs(c))), max(k1, k2))
    if res_c > gate or res_d > gate:
        return None
    alpha = c + Ah.T @ lam_c
    d = Ah.T @ lam_d
    out = np.flatnonzero(w == 0.0)
    free = _free_directions(Ah[:, S])
    H = Ah[:, out].T @ free
    t, _, _, _ = np.linalg.lstsq(H, -alpha[out], rcond=None)
    r = alpha[out] + H @ t
    r_norm = float(np.linalg.norm(r))
    if r_norm <= 1e-12 * float(np.linalg.norm(c)):
        return 0.0, lam_c + free @ t, np.zeros(0, dtype=int)
    # the same dual on well-conditioned rows: alpha's part orthogonal to H,
    # scaled by a power of two (exact), and an orthonormal basis Q of H
    Q, RH = np.linalg.qr(H)
    k = int(np.frexp(r_norm)[1])
    e = np.zeros(1 + free.shape[1])
    e[0] = 1.0
    try:
        basis, _, _, theta = _l1_program(np.vstack([np.ldexp(r, -k), Q.T]), e, d[out])
    except SolverError:
        return None
    if theta[0] <= 0.0:
        return None
    rho = np.ldexp(1.0 / theta[0], k)
    v = np.linalg.solve(RH, theta[1:])
    return 2.0 * rho, lam_c + rho * lam_d + free @ (t + rho * v), out[basis]


def _initial_state(Rh, y, Ah, a):
    """Start weights, multipliers, tau_0 and the off-support indices tight at
    tau_0, in the penalty-rescaled problem.

    Takes the arrays of `_prepare`. A zero (or absent) right-hand side
    starts at w = 0; otherwise the start is the least-squares point of the
    l1-minimal face of the constraints. Either point is then certified as
    the path top by `_certify_knee`, whose multiplier line keeps it
    stationary above the knee tau_0.
    """
    if Ah.shape[0] == 0 or float(np.max(np.abs(Ah.T @ a), initial=0.0)) <= 1e-300:
        w = np.zeros(Rh.shape[1])
    else:
        w = _face_lsq(Rh, y, Ah, a, *_l1_face(Ah, a))
    cert = _certify_knee(Rh, y, Ah, a, w)
    if cert is None:
        raise SolverError("start point could not be certified as path top")
    tau0, lam, tight = cert
    return w, lam, tau0, tight


def _start_breakpoint(RtR, Rh, y, Ah, s, w, lam, tau0, tight, tau_stop, counts):
    """START breakpoint, working set, member signs and first direction.

    Non-members carry sign 0 in the returned sign vector.
    """
    b = Rh.T @ (y - Rh @ w) + Ah.T @ lam
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)), tau0)
    ztol = ZERO_TIE_REL * scale
    # members: every boundary index plus every index carrying weight; the
    # knee certificate's tight indices count as boundary whatever rounding
    # did to their residual. Only weightless members may be dropped by
    # direction validation
    on = (np.abs(b) >= tau0 / 2.0 - ztol) | (w != 0.0)
    on[tight] = True
    J = np.flatnonzero(on).tolist()
    sign = np.zeros(len(w))
    sign[J] = np.where(w[J] != 0.0, np.sign(w[J]), np.where(b[J] >= 0, 1.0, -1.0))
    if tau0 > tau_stop + ztol:
        entered = {i for i in J if w[i] == 0.0}
        uJ, svec, J = _validated_real(RtR, Ah, J, sign, entered, ztol, counts)
    else:
        uJ, svec = np.zeros(len(J)), np.zeros(Ah.shape[0])
    bp = PathBreakpoint(
        tau=tau0,
        weights=w / s,
        generalized_residual=b,
        active_set=tuple(sorted(J)),
        event=Event("START", entered=tuple(sorted(J))),
        multipliers=lam.copy(),
    )
    return bp, J, sign, uJ, svec, b, ztol


def _validated_real(RtR, Ah, J, sign, entered, ztol, counts):
    """Direction on the working set J after tie validation.

    Drops just-entered indices whose velocity opposes their sign, the
    largest opposing velocity first, until the direction is consistent; a
    dropped index gets sign 0. counts tallies direction solves and their
    least-squares fallbacks.
    """
    while True:
        sig = sign[J]
        uJ, svec, fallback = _bordered_direction(
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


def _next_event(tau, tau_stop, b, v, w, J, uJ, sign, ztol):
    """Ratio test: the step to the next breakpoint and who meets it there.

    Along the direction, a non-member i enters when b_i + gamma v_i reaches
    +-(tau/2 - gamma), and a member leaves when its weight reaches zero.
    Returns None when no event comes before tau_stop; otherwise the smallest
    step gamma with every candidate within ztol of it: entering indices in
    index order with their signs (+1 before -1), then leaving indices in
    working-set order.
    """
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


def _check_off_support(b, sign, tau, ztol):
    """Raise when a non-member's residual lies beyond the boundary +-tau/2."""
    gap = float(np.max(np.abs(b[sign == 0.0]), initial=0.0)) - tau / 2.0
    if gap > 1000.0 * ztol:
        raise SolverError(
            f"path left the optimum at tau = {tau:.6g}: a non-member's "
            f"residual exceeds tau/2 by {gap:.3e}"
        )


def find_constrained_start(problem, constraints):
    """First breakpoint of the constrained path and its penalty level tau_0.

    The returned weights minimize the constrained objective for every
    tau >= tau_0 (the path is constant up there). With a nonzero
    right-hand side they are the least-squares point of the l1-minimal face
    of the constraints, and the multipliers are those of the certificate
    that pins tau_0; with a zero right-hand side the weights are zero and
    the multipliers minimize max_i |R^T y + A^T lam|_i.

    Args:
        problem: data term and penalty weights.
        constraints: feasible affine constraints (rows independent).

    Raises:
        InputError: constraints and problem cover different asset counts.
        SolverError: the start could not be built or certified.
    """
    Rh, y, Ah, a, s = _prepare(problem, constraints)
    w, lam, tau0, tight = _initial_state(Rh, y, Ah, a)
    bp, *_ = _start_breakpoint(Rh.T @ Rh, Rh, y, Ah, s, w, lam, tau0, tight,
                               problem.tau_stop, Counter())
    return bp, tau0


def solve_constrained_path(problem, constraints, max_active=None):
    """Every breakpoint of the constrained path from tau_0 down to tau_stop.

    Weights and multipliers are both piecewise linear in tau between the
    returned breakpoints; segments where only the multipliers move are
    recorded like any other breakpoint. Set max_active to end the path early
    once the working set reaches that size.

    Raises:
        SingularActiveSystem: a direction system is inconsistent.
        SolverError: the start could not be built, a breakpoint leaves a
            non-member beyond the boundary, or the breakpoint budget ran out.
    """
    Rh, y, Ah, a, s = _prepare(problem, constraints)
    w, lam, tau0, tight = _initial_state(Rh, y, Ah, a)
    RtR = Rh.T @ Rh
    N = Rh.shape[1]
    tau_stop = problem.tau_stop
    counts = Counter()
    bp, J, sign, uJ, svec, b, ztol = _start_breakpoint(
        RtR, Rh, y, Ah, s, w, lam, tau0, tight, tau_stop, counts)
    bps = [bp]
    budget = 60 * N + 120
    tau = tau0
    # every regular breakpoint lands above tau_stop + ztol; STOP ends the loop
    while tau > tau_stop + ztol:
        if len(bps) > budget:
            raise SolverError("constrained path exceeded its breakpoint budget")
        if max_active is not None and len(J) >= max_active:
            break
        u = np.zeros(N)
        u[J] = uJ
        v = RtR @ u - Ah.T @ svec
        hit = _next_event(tau, tau_stop, b, v, w, J, uJ, sign, ztol)
        gamma = (tau - tau_stop) / 2.0 if hit is None else hit[0]
        w = w + gamma * u
        lam = lam + gamma * svec
        if hit is None:
            tau = tau_stop
            event = Event("STOP")
        else:
            _, enter, enter_sign, left = hit
            tau = tau - 2.0 * gamma
            w[left] = 0.0  # crossings land exactly on zero
            sign[left] = 0.0
            J = [j for j in J if sign[j] != 0.0] + enter.tolist()
            sign[enter] = enter_sign
        b = Rh.T @ (y - Rh @ w) + Ah.T @ lam
        if hit is not None:
            uJ, svec, J = _validated_real(RtR, Ah, J, sign, set(enter.tolist()),
                                          ztol, counts)
            entered = sorted(set(enter.tolist()) & set(J))
            event = Event("ENTER" if entered else "LEAVE", entered=tuple(entered),
                          left=tuple(sorted(left.tolist())))
        _check_off_support(b, sign, tau, ztol)
        bps.append(PathBreakpoint(
            tau=tau, weights=w / s, generalized_residual=b,
            active_set=tuple(sorted(J)), event=event, multipliers=lam.copy()))
    log.debug("continuation: %d breakpoints, %d direction solves, "
              "%d least-squares fallbacks",
              len(bps), counts["solves"], counts["fallbacks"])
    fp = problem.fingerprint(extra=constraints.fingerprint_bytes())
    return SolutionPath(breakpoints=tuple(bps), problem_fingerprint=fp)


def solve_path(problem, max_active=None):
    """Every breakpoint of the unconstrained path, from tau_0 to tau_stop.

    The continuation engine run with no constraint rows: every breakpoint
    carries length-0 multipliers. The first breakpoint has zero weights at
    tau = initial_tau(problem); the last sits at tau_stop (event STOP)
    unless max_active truncated the path. When zero is already optimal at
    tau_stop (in particular for y = 0) the path is one START breakpoint at
    tau_stop with an empty active set.
    """
    none = AffineConstraints(np.zeros((0, problem.n_assets)), np.zeros(0))
    if initial_tau(problem) <= problem.tau_stop:
        c = problem.scaled_design().T @ problem.target
        only = PathBreakpoint(tau=problem.tau_stop, weights=np.zeros(len(c)),
                              generalized_residual=c, active_set=(),
                              event=Event("START"))
        fp = problem.fingerprint(extra=none.fingerprint_bytes())
        return SolutionPath(breakpoints=(only,), problem_fingerprint=fp)
    return solve_constrained_path(problem, none, max_active)
