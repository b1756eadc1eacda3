"""Exact homotopy in tau for l1-penalized least squares under affine constraints.

Solves min ||Rw - y||^2 + tau * sum_i s_i |w_i| subject to Aw = a for every
tau at once. The path is computed in two stages:

  1. The start. For large tau the penalty dominates, so the minimizer is
     the least-squares point among the l1-minimal solutions of Aw = a, and
     the path is constant above a knee tau_0. A zero a starts at w = 0; any
     other a at the least-squares point of the l1-minimal face, which a
     least-squares active-set sweep finds from the optimal basis of the
     small l1 program min ||x||_1 s.t. A x = a, solving on the
     continuation's bordered matrix by its solve. One knee certificate then
     serves every start: a multiplier line lam(tau) that keeps the point
     stationary above the knee, the smallest such knee being the dual of
     one more small l1 program over the off-support indices. At w = 0 that
     is the minimax tau_0 = 2 min_lam max_i |R^T y + A^T lam|_i (the LARS
     start 2 ||R^T y||_inf when there are no constraints); a point that is
     optimal down to tau = 0 gets the knee 0. Both programs are solved by
     one revised simplex. START sits at max(tau_0, tau_stop): above the
     knee the weights stay and the multipliers move along the dual of the
     face program, so a path asked to stop above its knee is the one START
     at tau_stop. The start's working set is every index on the boundary at
     START's tau and every index carrying weight.
  2. Ordinary continuation in real arithmetic on the Lagrangian optimality
     system from tau_0 down to tau_stop, moving weights and multipliers
     jointly and recording a breakpoint at every support change. Segments
     where only the multipliers move are recorded like any other. Each
     breakpoint, the START one included, validates the direction on its
     working set and then steps to the next. The
     direction system on the working set is a block of one bordered matrix
     G over every index. Each step carries the inverse of the last one to
     the new working set in O(k^2) (a Schur downdate per leaving index, a
     bordering per entering one), solves by one product with it, and checks
     the solution by one product with G, whose first N rows are also the
     velocity of the ratio test. The path start, a tiny pivot, an
     ill-conditioned system, a failed check or a validation drop instead
     gathers the system from G and solves it by LU (min-norm least squares
     when that fails), with the velocity R^T R u - A^T s; an LU solution
     re-seeds the inverse. One ratio test then runs over the stacked
     enter-up, enter-down and leave candidates: one division and one
     minimum. Ties list entering indices by index, +1 before -1,
     then leaving indices in working-set order. The working set is an
     index array in a fixed order, survivors first in their order and then
     the entering indices; that order fixes the layout of every direction
     system. A step of gamma moves the residual
     b = R^T (y - R w) + A^T lam by -gamma v, so b is carried along the
     path in O(N) per breakpoint; it is recomputed from the data, in
     O(TN), only at START and after a step on a gathered direction.

This is the package's one continuation engine, and one generator,
`_breakpoints`, runs it: it yields the START breakpoint and every later one
from a single loop. `solve_constrained_path` collects them all,
`find_constrained_start` takes the first, a `SolutionPath` built on the
generator pulls them as its readers need them, and with no constraint rows
the same loop traces the unconstrained path, which `solve_path` returns as
it is. Every breakpoint is a `PathBreakpoint` whose multipliers have length m.
A path solved with tau_stop is the prefix of the full path down to tau_stop.

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
_EPS = float(np.finfo(float).eps)
_PIVOT_REL = 1e-8    # a Schur pivot this small against its row counts as zero
_CARRY_COND = 1e8    # direction systems worse conditioned than this are solved by LU


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
        w_ls, _, _, sv = np.linalg.lstsq(A, a, rcond=None)
        resid = float(np.max(np.abs(A @ w_ls - a), initial=0.0))
        if resid > 1e-10 * max(1.0, float(np.max(np.abs(a), initial=0.0))):
            raise InfeasibleConstraints(
                f"constraint system has no solution (residual {resid:.3e})"
            )
        if m > n:
            raise InputError("more constraint rows than variables cannot be independent")
        if sv[0] == 0.0 or sv[-1] * _COND_LIMIT < sv[0]:
            raise InputError("constraint rows are linearly dependent or nearly so")

    @property
    def n_constraints(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_assets(self) -> int:
        return self.matrix.shape[1]


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
    return max(1.0, rhs_scale) * max(_RESID_REL, 50.0 * _EPS * kappa)


# the direction right-hand side (sigma; 0) has entries +-1 and 0 only, so
# the plain gate of an LU solution is the gate at scale 1
_LU_GATE = _consistency_gate(1.0, 1.0)


def _bordered_matrix(RtR: np.ndarray, Ah: np.ndarray) -> np.ndarray:
    """[R^T R, -A^T; A, 0] over every index; R^T R itself when m = 0.

    The direction system on a working set J is this matrix gathered on the
    rows and columns (J, N..N+m-1).
    """
    m, n = Ah.shape
    if m == 0:
        return RtR
    G = np.zeros((n + m, n + m))
    G[:n, :n] = RtR
    G[:n, n:] = -Ah.T
    G[n:, :n] = Ah
    return G


def _bordered_direction(K: np.ndarray, rhs: np.ndarray, k: int,
                        gate: float = _LU_GATE):
    """Solution (x_J; s) of [G_JJ, -A_J^T; A_J, 0] (x_J; s) = rhs.

    The system is given as K, gathered from the bordered matrix with the
    rows J first, and rhs, with k = |J| (with no constraint rows it is
    G_JJ x_J = rhs itself): a face optimum of the start, or a continuation
    direction, rhs = (sigma; 0), at the steps where no carried inverse
    serves (see `_validated_real`). Its LU solution is kept when the
    residual passes gate, by default a direction's plain consistency gate.
    Otherwise (a singular or ill-conditioned system) the
    min-norm least-squares solution is taken: a consistent but
    rank-deficient system gets the min-norm multipliers (the weight block is
    then still unique on the data seen by the path), and an inconsistent one
    raises SingularActiveSystem. The third value returned tells whether that
    fallback ran.
    """
    try:
        x = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:  # exactly singular
        pass
    else:
        if float(np.abs(K @ x - rhs).max(initial=0.0)) <= gate:
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
        Tuple ``(face, signs, x, theta)``: sorted array of face indices, the
        sign each face weight must carry, the basic point of the face as
        nonnegative magnitudes (``Ah[:, face] @ (signs * x) = a``), and the
        optimal dual the face was read at (``Ah[:, face].T @ theta = signs``,
        ``|Ah.T @ theta| <= 1``).
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
    return face, np.sign(g[face]), x, theta


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


def _face_lsq(G, Rh, y, Ah, a, face, signs, x, counts):
    """Least-squares optimum over the l1-minimal face.

    Solves ``min ||Rh w - y||^2`` over ``{Ah w = a, supp(w) in face,
    sign(w_i) = signs_i}`` by a primal active-set sweep in w from the
    feasible point with magnitudes x. The equality optimum on the free set
    face[free] is G gathered on (free set, constraint rows) with right-hand
    side (Rh^T y; a), solved by `_bordered_direction` at the consistency
    gate of that right-hand side's scale; counts tallies the solves and
    fallbacks. A feasible optimum releases the held index whose signed
    residual sigma_i b_i (b = Rh^T (y - Rh w) + Ah^T s, the residual the
    path certifies) is largest, if its descent rate 2 sigma_i b_i is above
    gtol; an infeasible one is walked toward until the first bound blocks.
    """
    border = np.arange(Rh.shape[1], G.shape[0])  # the constraint rows of G
    c = Rh.T @ y
    w = np.zeros(Rh.shape[1])
    w[face] = signs * x
    free = x > 0.0
    for _ in range(50 + 10 * len(face)):
        F = face[free]
        if not F.size:
            return w
        sF = signs[free]
        rows = np.concatenate((F, border))
        rhs = np.concatenate((c[F], a))
        wF, lam, fallback = _bordered_direction(
            G.take(rows, axis=0).take(rows, axis=1), rhs, F.size,
            _consistency_gate(float(np.abs(rhs).max()), 1.0))
        counts["face_solves"] += 1
        counts["face_fallbacks"] += fallback
        xF = sF * wF  # magnitudes of the equality optimum
        tol = 1e-12 * max(1.0, float(np.abs(xF).max()))
        if xF.min() >= -tol:
            w[F] = sF * np.maximum(xF, 0.0)
            # a magnitude's descent rate of ||Rh w - y||^2 is 2 sigma_i b_i
            rate = 2.0 * signs * (Rh.T @ (y - Rh @ w) + Ah.T @ lam)[face]
            gtol = 1e-9 * max(1.0, float(np.abs(rate).max()))
            rate[free] = -np.inf
            release = int(np.argmax(rate))
            if rate[release] <= gtol:
                return w
            free[release] = True
        else:
            # walk toward the equality optimum until the first bound blocks
            xw = sF * w[F]
            ratio = np.divide(xw, xw - xF, out=np.full(F.size, np.inf),
                              where=xF < -tol)
            block = int(np.argmin(ratio))
            xw = np.maximum(xw + ratio[block] * (xF - xw), 0.0)
            xw[block] = 0.0
            w[F] = sF * xw
            free[np.flatnonzero(free)[block]] = False
    raise SolverError("face least-squares active-set did not converge")


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


def _initial_state(G, Rh, y, Ah, a, counts):
    """Start route, weights, multipliers, tau_0, the off-support indices
    tight at tau_0 and theta, in the penalty-rescaled problem.

    Takes the path's bordered matrix G and the arrays of `_prepare`. A zero
    (or absent) right-hand side starts at w = 0 (route "empty"); otherwise
    at the least-squares point of the l1-minimal face of the constraints
    (route "face"), found by `_face_lsq` on G. Either point is then
    certified as the path top by `_certify_knee`, whose multiplier line
    keeps it stationary above the knee tau_0. theta is the face program's
    dual, zero on the empty route: A^T theta is sign(w) on the support and
    within [-1, 1] elsewhere, so lam + (t/2) theta keeps the point
    stationary at tau_0 + t.
    """
    theta = np.zeros(Ah.shape[0])
    if float(np.max(np.abs(Ah.T @ a), initial=0.0)) <= 1e-300:
        route, w = "empty", np.zeros(Rh.shape[1])
    else:
        face, signs, x, theta = _l1_face(Ah, a)
        route, w = "face", _face_lsq(G, Rh, y, Ah, a, face, signs, x, counts)
    cert = _certify_knee(Rh, y, Ah, a, w)
    if cert is None:
        raise SolverError("start point could not be certified as path top")
    tau0, lam, tight = cert
    return route, w, lam, tau0, tight, theta


def _sorted_tuple(indices) -> tuple:
    return tuple(sorted(indices.tolist()))


def _validated_real(G, J, sign, entered, ztol, counts, inverse):
    """Direction on the working set J after tie validation.

    G is `_bordered_matrix` of the problem, J an index array and entered a
    boolean mask over all indices marking the just-entered members. Drops
    just-entered indices whose velocity opposes their sign, the largest
    opposing velocity first, until the direction is consistent; a dropped
    index leaves J (the others keep their order), is cleared in entered and
    gets sign 0.

    inverse is None or ``(prev, M, scale)``, the state returned by the
    previous call: M is the inverse of the last accepted direction system,
    on the working set prev, laid out as the constraint rows first and then
    prev, and scale bounds the entries of every direction system. prev's
    survivors are its members still signed; J lists them first, in their
    order, then the entering indices. `_carry_inverse` moves M to J in
    O(k^2), so the first solve is one product with M. Its solution
    (u_J; s) is kept when the residual of the one product G @ z, z
    scattering (u_J; s) over every index, passes the plain gate. Other
    solves take the gathered route: no inverse to carry, a tiny pivot, an
    ill-conditioned system (`_carriable`), a failed gate, or a drop just
    made. They gather the system from G and solve it by
    `_bordered_direction`, and a solution that passes its gate without the
    least-squares fallback re-seeds M.
    counts tallies direction solves, least-squares fallbacks, solves by the
    carried inverse ("updates") and re-seeds.

    Returns ``(u_J, s, J, v, inverse)``: v is the first N rows of G @ z,
    R^T R u - A^T s, so that a step of gamma along the direction moves the
    residual b by -gamma v; or None after a gathered solve. inverse is the
    state for the next call.
    """
    n = len(sign)
    m = G.shape[0] - n
    border = np.arange(n, n + m)  # the constraint rows of G
    layout = np.concatenate((border, J))  # M's rows: constraint rows, then J
    if inverse is None:
        # R^T R's largest entry is on its diagonal
        M, scale = None, max(float(np.diagonal(G)[:n].max()),
                             float(np.abs(G[n:]).max(initial=0.0)))
    else:
        prev, M, scale = inverse
        M = _carriable(_carry_inverse(G, M, prev, sign[prev] != 0.0, layout), scale)
    while True:
        sig = sign[J]
        v = None
        if M is not None:
            z = np.zeros(n + m)
            z[layout] = M[:, m:] @ sig
            Gz = G @ z
            res = Gz[layout]
            res[m:] -= sig
            if not res.size or np.abs(res).max() <= _LU_GATE:
                counts["updates"] += 1
                uJ, svec, v = z[J], z[n:], Gz[:n]
        if v is None:
            rows = np.concatenate((J, border))
            K = G.take(rows, axis=0).take(rows, axis=1)
            uJ, svec, fallback = _bordered_direction(
                K, np.concatenate((sig, np.zeros(m))), len(J))
            counts["fallbacks"] += fallback
            M = None
            if not fallback:
                # the same inverse in the layout (constraint rows, J)
                order = np.concatenate((np.arange(len(J), len(rows)), np.arange(len(J))))
                M = _carriable(np.linalg.inv(K).take(order, axis=0).take(order, axis=1),
                               scale)
                counts["reseeds"] += M is not None
        counts["solves"] += 1
        bad = entered[J] & (sig * uJ < -ztol)
        if not np.count_nonzero(bad):
            return uJ, svec, J, v, None if M is None else (J, M, scale)
        drop = int(np.argmax(np.where(bad, np.abs(uJ), -np.inf)))
        j = J[drop]
        J = np.delete(J, drop)
        entered[j] = False
        sign[j] = 0.0
        M = None


def _carriable(M, scale):
    """M, or None when its system is too ill-conditioned to carry: an
    update's error grows with the condition number, which scale * max|M|
    estimates (scale bounding the system's entries)."""
    if M is None or scale * max(float(M.max(initial=0.0)),
                                -float(M.min(initial=0.0))) > _CARRY_COND:
        return None
    return M


def _drop_index(M, p):
    """M with row and column p of its system removed, by one Schur downdate
    in O(k^2); None when the pivot M[p, p] is zero or tiny against its row."""
    pivot = M[p, p]
    if abs(pivot) <= _PIVOT_REL * float(np.abs(M[p]).max()):
        return None
    rest = np.delete(np.arange(len(M)), p)
    out = np.multiply(M[rest, p, None], M[p, rest] / -pivot)
    out += M.take(rest, axis=0).take(rest, axis=1)
    return out


def _add_index(G, M, rows, e):
    """M with index e's row and column of G bordered on, in O(k^2); rows are
    G's rows of M's system in its layout. None when the Schur pivot
    d - r M c is zero or tiny against the two terms it is computed from."""
    c = G[:, e][rows]
    r = G[e][rows]
    d = float(G[e, e])
    q = M @ c
    p = r @ M
    rq = float(r @ q)
    pivot = d - rq
    if abs(pivot) <= _PIVOT_REL * max(abs(d), abs(rq)):
        return None
    k = len(M)
    q /= pivot
    # the rank-one term and M's add run on a contiguous array, where numpy
    # is faster than on the strided block of out; each entry is one rounded
    # product, as a broadcast q[:, None] * p gives
    top = np.einsum("i,j->ij", q, p)
    top += M
    out = np.empty((k + 1, k + 1))
    out[:k, :k] = top
    out[:k, k] = -q
    out[k, :k] = p / -pivot
    out[k, k] = 1.0 / pivot
    return out


def _carry_inverse(G, M, prev, kept, rows):
    """The inverse M of the direction system on the working set prev,
    carried to the system whose rows of G are rows: a Schur downdate for
    each index of prev not kept, then one bordering per entering index.
    rows lists the constraint rows, prev[kept] in its order, then the
    entering indices. None when a pivot is tiny."""
    if not kept.all():
        m = len(M) - len(prev)
        for p in np.flatnonzero(~kept)[::-1]:
            M = _drop_index(M, m + p)
            if M is None:
                return None
    for t in range(len(M), len(rows)):
        M = _add_index(G, M, rows[:t], rows[t])
        if M is None:
            return None
    return M


def _next_event(tau, tau_stop, b, v, w, J, uJ, sign, ztol):
    """Ratio test: the step to the next breakpoint and who meets it there.

    Along the direction, a non-member i enters when b_i - gamma v_i reaches
    +-(tau/2 - gamma), and a member leaves when its weight reaches zero. The
    candidates are stacked in one array, enter-up and enter-down over every
    index, then leave over J, and take one division and one minimum.
    Returns None when no event comes before tau_stop; otherwise the smallest
    step gamma with every candidate within ztol of it: entering indices in
    index order with their signs (+1 before -1), then leaving indices in
    working-set order.
    """
    n = len(b)
    half = tau / 2.0
    wJ = w[J]
    num = np.concatenate((half - b, half + b, -wJ))
    den = np.concatenate((1.0 - v, 1.0 + v, uJ))
    off = sign == 0.0
    ok = np.concatenate((off, off, uJ != 0.0))
    ok[:2 * n] &= np.minimum(num[:2 * n], den[:2 * n]) > ztol
    step = np.divide(num, den, out=np.full(len(num), np.inf), where=ok)
    leave = step[2 * n:]
    leave[leave <= ztol] = np.inf  # weightless, or moving away from zero
    best = float(step.min())
    if best >= (tau - tau_stop) / 2.0 - ztol:
        return None
    hit = step <= best + ztol
    enter = (hit[:n] | hit[n:2 * n]).nonzero()[0]
    return best, enter, np.where(hit[enter], 1.0, -1.0), J[hit[2 * n:]]


def _check_off_support(b, sign, tau, ztol):
    """Raise when a non-member's residual lies beyond the boundary +-tau/2."""
    # members read as 0, as an empty off-support does
    gap = float((np.abs(b) * (sign == 0.0)).max()) - tau / 2.0
    if gap > 1000.0 * ztol:
        raise SolverError(
            f"path left the optimum at tau = {tau:.6g}: a non-member's "
            f"residual exceeds tau/2 by {gap:.3e}"
        )


def _breakpoints(problem, constraints, cap=None):
    """The path's breakpoints in order, START first: the one place the
    engine builds a `PathBreakpoint`.

    Runs `_prepare`, builds the bordered matrix G once (for the face sweep
    and every direction solve) and places the start by `_initial_state`,
    moved up to tau_stop when the knee lies below it.
    Each pass of its loop then validates the direction on the working set
    (unless the path has reached tau_stop), names the event, checks the
    non-members (every breakpoint but START), yields the breakpoint, and
    ends the path at tau_stop, past the breakpoint budget (SolverError) or
    once the working set reaches cap; otherwise the ratio test finds
    the next breakpoint and the weights, multipliers and residual step to
    it. The residual steps by its velocity, except after a gathered
    direction solve, where it is recomputed from the data as at START. A
    path that ends logs one DEBUG record of its counts, full residual
    recomputes among them; one abandoned early, as
    `find_constrained_start` does, logs none.
    """
    counts = Counter()
    Rh, y, Ah, a, s = _prepare(problem, constraints)
    n = Rh.shape[1]
    # one Gram copy per path: R^T R is read as G[:n, :n] throughout
    G = _bordered_matrix(Rh.T @ Rh, Ah)
    route, w, lam, tau, tight, theta = _initial_state(G, Rh, y, Ah, a, counts)
    tau_stop = problem.tau_stop
    if tau < tau_stop:
        # the path is constant above the knee: START moves up to tau_stop,
        # where the knee's tight indices no longer count
        lam = lam + (tau_stop - tau) / 2.0 * theta
        tau, tight = tau_stop, tight[:0]
    b = Rh.T @ (y - Rh @ w) + Ah.T @ lam
    counts["residuals"] += 1
    if not (math.isfinite(tau) and np.isfinite(b).all()):
        raise SolverError("path start is not finite: the data overflow")
    ztol = ZERO_TIE_REL * max(1.0, float(np.max(np.abs(b), initial=0.0)), tau)
    # members: every boundary index plus every index carrying weight; the
    # knee certificate's tight indices count as boundary whatever rounding
    # did to their residual. Only weightless members may be dropped by
    # direction validation
    on = (np.abs(b) >= tau / 2.0 - ztol) | (w != 0.0)
    on[tight] = True
    J = np.flatnonzero(on)
    sign = np.zeros(len(w))
    sign[J] = np.where(w[J] != 0.0, np.sign(w[J]), np.where(b[J] >= 0, 1.0, -1.0))
    entered = on & (w == 0.0)
    budget = 60 * len(w) + 120
    inverse = hit = None
    count = 0
    while True:
        # every regular breakpoint lands above tau_stop + ztol; STOP at it
        if tau > tau_stop + ztol:
            uJ, svec, J, v, inverse = _validated_real(G, J, sign, entered, ztol,
                                                      counts, inverse)
        if not count:
            event = Event("START", entered=_sorted_tuple(J))
        elif hit is None:
            event = Event("STOP")
        else:
            kept = enter[entered[enter]]
            event = Event("ENTER" if len(kept) else "LEAVE", entered=tuple(kept.tolist()),
                          left=_sorted_tuple(left))
        if count:
            _check_off_support(b, sign, tau, ztol)
        entered[:] = False
        count += 1
        yield PathBreakpoint(
            tau=tau, weights=w / s, generalized_residual=b,
            active_set=_sorted_tuple(J), event=event, multipliers=lam.copy())
        if tau <= tau_stop + ztol:
            break
        if count > budget:
            raise SolverError("constrained path exceeded its breakpoint budget")
        if cap is not None and len(J) >= cap:
            break
        u = np.zeros(len(w))
        u[J] = uJ
        gathered = v is None
        if gathered:
            # a gathered solve: the velocity in the reference step's form
            # (tests/oracles.py), so that the singular and ill-conditioned
            # systems that take that route round alike
            v = G[:n, :n] @ u - Ah.T @ svec
        hit = _next_event(tau, tau_stop, b, v, w, J, uJ, sign, ztol)
        gamma = (tau - tau_stop) / 2.0 if hit is None else hit[0]
        w = w + gamma * u
        lam = lam + gamma * svec
        if hit is None:
            tau = tau_stop
        else:
            _, enter, enter_sign, left = hit
            tau = tau - 2.0 * gamma
            if len(left):
                w[left] = 0.0  # crossings land exactly on zero
                sign[left] = 0.0
                J = J[sign[J] != 0.0]
            J = np.concatenate((J, enter))
            sign[enter] = enter_sign
            entered[enter] = True
        if gathered:
            b = Rh.T @ (y - Rh @ w) + Ah.T @ lam
            counts["residuals"] += 1
        else:
            # w and lam moved by gamma (u, s), so b moved by -gamma v; a new
            # array, since the breakpoint just yielded holds the old one
            b = b - gamma * v
    log.debug("start: %s route, %d face solves, %d face least-squares fallbacks; "
              "continuation: %d breakpoints, %d direction solves "
              "(%d inverse updates, %d re-seeds), %d least-squares fallbacks, "
              "%d full residual recomputes",
              route, counts["face_solves"], counts["face_fallbacks"],
              count, counts["solves"], counts["updates"], counts["reseeds"],
              counts["fallbacks"], counts["residuals"])


def find_constrained_start(problem, constraints):
    """First breakpoint of the constrained path and its penalty level
    max(tau_0, tau_stop).

    The returned weights minimize the constrained objective for every
    tau >= tau_0 (the path is constant up there). With a nonzero
    right-hand side they are the least-squares point of the l1-minimal face
    of the constraints, and the multipliers are those of the certificate
    that pins tau_0; with a zero right-hand side the weights are zero and
    the multipliers minimize max_i |R^T y + A^T lam|_i. When tau_stop lies
    above tau_0 the breakpoint sits at tau_stop, with the multipliers that
    certify the weights there. It is the START breakpoint of
    `solve_constrained_path`, working set and all: the first breakpoint of
    the same generator, which then stops.

    Args:
        problem: data term and penalty weights.
        constraints: feasible affine constraints (rows independent).

    Raises:
        InputError: constraints and problem cover different asset counts.
        SolverError: the start could not be built or certified.
    """
    bp = next(_breakpoints(problem, constraints))
    return bp, bp.tau


def solve_constrained_path(problem, constraints):
    """Every breakpoint of the constrained path from max(tau_0, tau_stop)
    down to tau_stop.

    Weights and multipliers are both piecewise linear in tau between the
    returned breakpoints; segments where only the multipliers move are
    recorded like any other breakpoint. The path is the full path's prefix
    down to tau_stop: its breakpoints above tau_stop are the full path's,
    and it ends at tau_stop, with START alone when tau_stop is at or above
    the knee tau_0.

    Raises:
        SingularActiveSystem: a direction system is inconsistent.
        SolverError: the start could not be built or is not finite (data
            beyond double precision), a breakpoint leaves a non-member
            beyond the boundary, or the breakpoint budget ran out.
    """
    return SolutionPath(tuple(_breakpoints(problem, constraints)))


def solve_path(problem):
    """Every breakpoint of the unconstrained path, from max(tau_0, tau_stop)
    down to tau_stop.

    `solve_constrained_path` with no constraint rows, so the same prefix
    rule holds, and every breakpoint carries length-0 multipliers. The
    path starts with zero weights at tau_0 = 2 max_i |(R^T y)_i / s_i|, the
    smallest tau at which they are optimal, and ends at tau_stop; when zero
    is optimal at tau_stop (tau_0 <= tau_stop) it is the one START
    breakpoint at tau_stop.
    """
    return solve_constrained_path(
        problem, AffineConstraints(np.zeros((0, problem.n_assets)), np.zeros(0)))
